//! Behavioural tests for the boundary-serde fast path (wire format v2:
//! shape-cached interned hints, pooled buffers, bulk primitive
//! encoding — see `docs/SERDE.md`).
//!
//! Results must be identical in both modes; only the allocation
//! profile, the wire bytes and the modelled serde cost may differ.

use montsalvat_core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::SwitchlessConfig;
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::samples::bank_program;
use montsalvat_core::transform::transform;
use montsalvat_core::Trust;
use runtime_sim::value::Value;

fn bank_entries() -> Vec<MethodRef> {
    vec![
        MethodRef::new("Person", CTOR),
        MethodRef::new("Person", "transfer"),
        MethodRef::new("Person", "getAccount"),
        MethodRef::new("Account", CTOR),
        MethodRef::new("Account", "balance"),
        MethodRef::new("AccountRegistry", CTOR),
        MethodRef::new("AccountRegistry", "addAccount"),
        MethodRef::new("AccountRegistry", "size"),
    ]
}

fn launch_bank(fastpath: bool, switchless: bool) -> PartitionedApp {
    let tp = transform(&bank_program());
    let options = ImageOptions::with_entry_points(bank_entries());
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig {
        gc_helper_interval: None,
        switchless: switchless.then(SwitchlessConfig::default),
        serde_fastpath: Some(fastpath),
        ..AppConfig::default()
    };
    PartitionedApp::launch(&t, &u, config).unwrap()
}

fn run_bank(app: &PartitionedApp) -> Value {
    app.enter_untrusted(|ctx| {
        let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(100)])?;
        let bob = ctx.new_object("Person", &[Value::from("Bob"), Value::Int(25)])?;
        ctx.call(&alice, "transfer", &[bob.clone(), Value::Int(25)])?;
        let acc = ctx.call(&alice, "getAccount", &[])?;
        ctx.call(&acc, "balance", &[])
    })
    .unwrap()
}

/// A run whose crossings carry an annotated object as an argument
/// (`addAccount(proxy)`), so marshalling produces class-name hints.
fn run_registry(app: &PartitionedApp) -> Value {
    app.enter_untrusted(|ctx| {
        let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(100)])?;
        let acc = ctx.call(&alice, "getAccount", &[])?;
        let reg = ctx.new_object("AccountRegistry", &[])?;
        ctx.call(&reg, "addAccount", std::slice::from_ref(&acc))?;
        ctx.call(&reg, "size", &[])
    })
    .unwrap()
}

/// The PalDB-write shape: a trusted sink taking a bulk byte payload.
fn sink_program() -> Program {
    let sink = ClassDef::new("Sink")
        .trust(Trust::Trusted)
        .field("total")
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "put",
            MethodKind::Instance,
            1,
            vec![],
            std::sync::Arc::new(|_ctx, _this, args: &[Value]| match &args[0] {
                Value::Bytes(b) => Ok(Value::Int(b.len() as i64)),
                other => Ok(other.clone()),
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![sink, main], MethodRef::new("Main", "main")).unwrap()
}

fn launch_sink(fastpath: bool) -> PartitionedApp {
    let tp = transform(&sink_program());
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("Sink", CTOR),
        MethodRef::new("Sink", "put"),
        MethodRef::new("Main", "main"),
    ]);
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig {
        gc_helper_interval: None,
        serde_fastpath: Some(fastpath),
        ..AppConfig::default()
    };
    PartitionedApp::launch(&t, &u, config).unwrap()
}

#[test]
fn fast_and_classic_modes_agree_on_results() {
    let fast = launch_bank(true, false);
    let classic = launch_bank(false, false);
    assert_eq!(run_bank(&fast), run_bank(&classic));
    assert_eq!(run_bank(&fast), Value::Int(75));
    fast.shutdown();
    classic.shutdown();
}

#[test]
fn encode_calls_reconcile_with_path_hits() {
    for fastpath in [true, false] {
        let app = launch_bank(fastpath, false);
        run_bank(&app);
        let snap = app.telemetry_snapshot();
        let calls = snap.counter(telemetry::Counter::SerdeEncodeCalls);
        let fast = snap.counter(telemetry::Counter::SerdeFastPathHits);
        let slow = snap.counter(telemetry::Counter::SerdeSlowPathHits);
        assert!(calls > 0, "crossings marshalled");
        assert_eq!(calls, fast + slow, "every encode is exactly one path");
        if fastpath {
            assert_eq!(slow, 0, "fast mode never takes the slow path");
        } else {
            assert_eq!(fast, 0, "classic mode never takes the fast path");
        }
        app.shutdown();
    }
}

#[test]
fn bulk_payloads_are_pooled_and_bulk_counted() {
    let app = launch_sink(true);
    let payload = [Value::Bytes(vec![0xA5; 4096])];
    app.enter_untrusted(|ctx| {
        let sink = ctx.new_object("Sink", &[])?;
        for _ in 0..16 {
            assert_eq!(ctx.call(&sink, "put", &payload)?, Value::Int(4096));
        }
        Ok(())
    })
    .unwrap();
    let snap = app.telemetry_snapshot();
    assert!(
        snap.counter(telemetry::Counter::SerdeBulkBytes) >= 16 * 4096,
        "byte payloads take the bulk path"
    );
    assert!(
        snap.counter(telemetry::Counter::SerdePooledBytes) > 0,
        "steady-state encodes reuse pooled buffers"
    );
    app.shutdown();
}

#[test]
fn class_names_cross_once_and_shapes_cache() {
    let app = launch_bank(true, false);
    assert_eq!(run_registry(&app), Value::Int(1));
    let names_after_first = app.shared.serde_interned_names();
    let misses_after_first =
        app.telemetry_snapshot().counter(telemetry::Counter::SerdeShapeCacheMisses);
    assert!(names_after_first > 0, "annotated crossings intern their class names");
    for _ in 0..3 {
        run_registry(&app);
    }
    assert_eq!(
        app.shared.serde_interned_names(),
        names_after_first,
        "steady-state crossings intern no new names"
    );
    assert_eq!(
        app.telemetry_snapshot().counter(telemetry::Counter::SerdeShapeCacheMisses),
        misses_after_first,
        "steady-state crossings compile no new shapes"
    );
    app.shutdown();
}

#[test]
fn fast_path_costs_less_model_time_on_bulk_payloads() {
    let charged = |fastpath: bool| {
        let app = launch_sink(fastpath);
        let payload = [Value::Bytes(vec![0x5A; 8192])];
        app.enter_untrusted(|ctx| {
            let sink = ctx.new_object("Sink", &[])?;
            let before = ctx.cost_charged();
            for _ in 0..8 {
                ctx.call(&sink, "put", &payload)?;
            }
            Ok(ctx.cost_charged() - before)
        })
        .unwrap()
    };
    let fast = charged(true);
    let classic = charged(false);
    assert!(
        fast < classic,
        "bulk fast path must be cheaper in model time: fast {fast:?} vs classic {classic:?}"
    );
}

#[test]
fn switchless_reconciliation_holds_with_fast_path() {
    let app = launch_bank(true, true);
    run_bank(&app);
    let world = app.world_stats(montsalvat_core::annotation::Side::Untrusted);
    assert_eq!(
        world.rmi_calls,
        world.switchless_calls + world.switchless_fallbacks,
        "every crossing is a switchless hit or a fallback"
    );
    let snap = app.telemetry_snapshot();
    assert_eq!(
        snap.counter(telemetry::Counter::SerdeEncodeCalls),
        snap.counter(telemetry::Counter::SerdeFastPathHits)
            + snap.counter(telemetry::Counter::SerdeSlowPathHits)
    );
    app.shutdown();
}
