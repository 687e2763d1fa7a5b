//! The model clock is a pure function of the workload: neither where an
//! application's files live, nor how long a kernel takes on the host,
//! nor whether a tracer rides along reaches a charge.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use experiments::progs::{graphchi_entries, graphchi_program, trivial_main};
use montsalvat_core::annotation::Trust;
use montsalvat_core::class::{ClassDef, Instr, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp, Placement, SingleWorldApp};
use montsalvat_core::exec::world::ExecModel;
use montsalvat_core::image_builder::{
    build_partitioned_images, build_unpartitioned_image, ImageOptions,
};
use montsalvat_core::samples::bank_program;
use montsalvat_core::transform::transform;
use runtime_sim::value::Value;
use telemetry::trace::Tracer;

/// Charged time of one partitioned shard + PageRank run whose app works
/// in `workdir`, naming its graph relative to it.
fn graph_run_charge(workdir: &Path) -> Duration {
    let tp = transform(&graphchi_program(true));
    let options = ImageOptions::with_entry_points(graphchi_entries());
    let (trusted, untrusted) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig {
        gc_helper_interval: None,
        workdir: Some(workdir.to_path_buf()),
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&trusted, &untrusted, config).unwrap();
    let start = app.shared.cost.charged();
    app.enter_untrusted(|ctx| {
        let sharder = ctx.new_object("FastSharder", &[])?;
        let args =
            [Value::from("g"), Value::Int(500), Value::Int(2_000), Value::Int(2), Value::Int(7)];
        ctx.call(&sharder, "shard", &args)?;
        let engine = ctx.new_object("GraphChiEngine", &[])?;
        ctx.call(&engine, "run", &[Value::from("g"), Value::Int(3)])
    })
    .unwrap();
    app.shared.cost.charged() - start
}

#[test]
fn graph_charges_do_not_depend_on_the_workdir_location() {
    let base = std::env::temp_dir().join(format!("model_clock_{}", std::process::id()));
    let short = base.join("w");
    let long = base.join("a_considerably_longer_working_directory").join("nested").join("again");
    let charges = [&short, &long].map(|dir| {
        std::fs::create_dir_all(dir).unwrap();
        graph_run_charge(dir)
    });
    std::fs::remove_dir_all(&base).ok();
    assert!(charges[0] > Duration::ZERO);
    assert_eq!(charges[0], charges[1], "short vs long workdir");
}

/// Working set past the 8 MiB LLC, so the MEE compute factor applies.
const WORKING_SET: usize = 16 << 20;

/// Charged time of one in-enclave, JVM-modelled compute of 10⁶ units at
/// 3 ns each whose kernel sleeps for `sleep` first.
fn compute_charge(sleep: Duration) -> Duration {
    let body: montsalvat_core::class::NativeFn = Arc::new(move |ctx, _this, _args| {
        let units = ctx.compute_with(WORKING_SET, 3.0, || {
            std::thread::sleep(sleep);
            (1_000_000u64, 1_000_000u64)
        });
        Ok(Value::Int(units as i64))
    });
    let empty_ctor = MethodDef::interpreted(
        CTOR,
        MethodKind::Constructor,
        0,
        0,
        vec![Instr::Return { value: None }],
    );
    let kernel = ClassDef::new("Kernel").method(empty_ctor).method(MethodDef::native(
        "work",
        MethodKind::Instance,
        0,
        vec![],
        body,
    ));
    let program =
        Program::new(vec![kernel, trivial_main(Trust::Neutral)], MethodRef::new("Main", "main"))
            .unwrap();
    let entries = vec![MethodRef::new("Kernel", CTOR), MethodRef::new("Kernel", "work")];
    let image =
        build_unpartitioned_image(&program, &ImageOptions::with_entry_points(entries)).unwrap();
    let exec_model = ExecModel { compute_factor: 1.35, ..ExecModel::native_image() };
    let config = AppConfig { gc_helper_interval: None, exec_model, ..AppConfig::default() };
    let app = SingleWorldApp::launch(&image, Placement::Enclave, config).unwrap();
    let start = app.shared.cost.charged();
    app.enter(|ctx| {
        let kernel = ctx.new_object("Kernel", &[])?;
        ctx.call(&kernel, "work", &[])
    })
    .unwrap();
    app.shared.cost.charged() - start
}

#[test]
fn a_sleeping_kernel_charges_exactly_what_a_quick_one_does() {
    let quick = compute_charge(Duration::ZERO);
    let sleeping = compute_charge(Duration::from_millis(30));
    assert_eq!(sleeping, quick, "host time must not reach the model clock");
    // 10⁶ units × 3 ns × JVM 1.35 × MEE 1.8, plus first touch and the call.
    assert!(quick >= Duration::from_nanos(7_290_000), "charged {quick:?}");
}

/// Charged time of one classic (non-switchless) partitioned bank run,
/// launch included, with a tracer that is on or off; plus the number
/// of events it captured.
fn bank_run_charge(traced: bool) -> (Duration, usize) {
    let tp = transform(&bank_program());
    let options = ImageOptions::default();
    let (trusted, untrusted) = build_partitioned_images(&tp, &options, &options).unwrap();
    let tracer = Tracer::new();
    if traced {
        tracer.enable();
    }
    let config = AppConfig {
        gc_helper_interval: None,
        trace: Some(Arc::clone(&tracer)),
        ..AppConfig::default()
    };
    let app = PartitionedApp::launch(&trusted, &untrusted, config).unwrap();
    app.run_main().unwrap();
    let charged = app.shared.cost.charged();
    app.shutdown();
    (charged, tracer.event_count())
}

#[test]
fn tracing_does_not_change_charged_time() {
    let (untraced, no_events) = bank_run_charge(false);
    let (traced, events) = bank_run_charge(true);
    assert_eq!(no_events, 0);
    assert!(events > 0, "the traced run captured its crossings");
    assert_eq!(traced, untraced, "trace contexts ride along unbilled");
}
