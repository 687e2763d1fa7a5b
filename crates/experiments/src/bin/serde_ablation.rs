//! Ablation: classic v1 boundary serde vs the v2 fast path
//! (shape-cached hints, pooled buffers, bulk primitive encoding — see
//! `docs/SERDE.md`) on the two bulk-heavy crossing shapes of the
//! evaluation:
//!
//! - **paldb-write**: per-record `put(key, value)` crossings into a
//!   trusted sink with `Value::Bytes` payloads (the PalDB store-build
//!   shape of Fig. 7).
//! - **graphchi-shard**: per-batch `addEdges(list)` crossings into a
//!   trusted engine with primitive-homogeneous `Value::List`s of edge
//!   endpoints (the GraphChi sharding shape of Fig. 9).
//!
//! Runs under [`ClockMode::Virtual`], so every reported time is
//! deterministic model time
//! ([`CostModel::charged`](sgx_sim::cost::CostModel::charged)).
//!
//! Gated (`experiments::report::Gate`): the fast path's charged serde
//! cost is strictly below the classic baseline on both bulk workloads,
//! every encode took exactly one path (`serde.encode_calls ==
//! serde.fast_path_hits + serde.slow_path_hits`), the fast mode hits
//! the fast-path, bulk and pooled counters, and both modes compute the
//! same results.
//!
//! `--quick` shrinks the record/batch counts; `--json-out <path>`
//! writes the `montsalvat.bench/v1` envelope; `--telemetry-out <path>`
//! exports aggregated telemetry and, per run, `<path>.<workload>.<mode>.json`.

use std::sync::Arc;

use experiments::report::{print_table, telemetry_out_from_args, Gate, Scale};
use montsalvat_core::class::{ClassDef, MethodDef, MethodKind, MethodRef, Program, CTOR};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use montsalvat_core::Trust;
use runtime_sim::value::Value;
use sgx_sim::cost::ClockMode;
use specjvm::montecarlo::Lcg;
use telemetry::Counter;

/// One (workload, mode) run's outcome.
struct RunResult {
    workload: &'static str,
    mode: &'static str,
    /// Checksum returned by the workload (must match across modes).
    checksum: i64,
    /// Model time charged across the run, nanoseconds.
    charged_ns: u64,
    /// Per-app telemetry at the end of the run.
    snap: telemetry::Snapshot,
}

/// A trusted sink with natives covering both crossing shapes:
/// `put(key, value)` sums payload byte lengths, `addEdges(list)` sums
/// the edge endpoints it receives.
fn sink_program() -> Program {
    let sink = ClassDef::new("Sink")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(CTOR, MethodKind::Constructor, 0, 0, vec![]))
        .method(MethodDef::native(
            "put",
            MethodKind::Instance,
            2,
            vec![],
            Arc::new(|_ctx, _this, args: &[Value]| {
                let len = |v: &Value| match v {
                    Value::Bytes(b) => b.len() as i64,
                    _ => 0,
                };
                Ok(Value::Int(len(&args[0]) + len(&args[1])))
            }),
        ))
        .method(MethodDef::native(
            "addEdges",
            MethodKind::Instance,
            1,
            vec![],
            Arc::new(|_ctx, _this, args: &[Value]| match &args[0] {
                Value::List(items) => Ok(Value::Int(items.iter().filter_map(Value::as_int).sum())),
                other => Err(montsalvat_core::error::VmError::Type(format!(
                    "addEdges takes a list, got {other:?}"
                ))),
            }),
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![],
    ));
    Program::new(vec![sink, main], MethodRef::new("Main", "main"))
        .expect("serde ablation program is well-formed")
}

fn launch(fastpath: bool) -> PartitionedApp {
    let tp = transform(&sink_program());
    let options = ImageOptions::with_entry_points(vec![
        MethodRef::new("Sink", CTOR),
        MethodRef::new("Sink", "put"),
        MethodRef::new("Sink", "addEdges"),
        MethodRef::new("Main", "main"),
    ]);
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images build");
    let config = AppConfig {
        gc_helper_interval: None,
        clock_mode: ClockMode::Virtual,
        serde_fastpath: Some(fastpath),
        ..AppConfig::default()
    };
    PartitionedApp::launch(&t, &u, config).expect("launch")
}

/// Deterministic PalDB-style record: ~10-byte key, 128-byte value.
fn paldb_record(rng: &mut Lcg) -> (Vec<u8>, Vec<u8>) {
    let key = format!("{}", (rng.next_f64() * (i32::MAX as f64)) as u32).into_bytes();
    let value: Vec<u8> = (0..128).map(|_| b'a' + ((rng.next_f64() * 26.0) as u8).min(25)).collect();
    (key, value)
}

fn run_mode(
    workload: &'static str,
    mode: &'static str,
    fastpath: bool,
    records: usize,
    batches: usize,
    batch_len: usize,
) -> RunResult {
    let app = launch(fastpath);
    let charged0 = app.shared.cost.charged();
    let checksum = app
        .enter_untrusted(|ctx| {
            let sink = ctx.new_object("Sink", &[])?;
            let mut sum = 0i64;
            match workload {
                "paldb-write" => {
                    let mut rng = Lcg::new(42);
                    for _ in 0..records {
                        let (k, v) = paldb_record(&mut rng);
                        let got = ctx.call(&sink, "put", &[Value::Bytes(k), Value::Bytes(v)])?;
                        sum += got.as_int().expect("put returns total length");
                    }
                }
                "graphchi-shard" => {
                    let mut rng = Lcg::new(7);
                    for _ in 0..batches {
                        let edges: Vec<Value> = (0..batch_len)
                            .map(|_| Value::Int((rng.next_f64() * 1.0e6) as i64))
                            .collect();
                        let got = ctx.call(&sink, "addEdges", &[Value::List(edges)])?;
                        sum += got.as_int().expect("addEdges returns endpoint sum");
                    }
                }
                other => unreachable!("unknown workload {other}"),
            }
            Ok(sum)
        })
        .expect("workload runs");
    let charged_ns = (app.shared.cost.charged() - charged0).as_nanos() as u64;
    let snap = app.telemetry_snapshot();
    app.shutdown();
    RunResult { workload, mode, checksum, charged_ns, snap }
}

fn main() {
    experiments::report::init_tracing_from_args();
    let scale = Scale::from_args();
    let (records, batches, batch_len) = match scale {
        Scale::Quick => (64, 16, 256),
        Scale::Full => (1024, 128, 1024),
    };
    println!(
        "serde ablation: {records} paldb records, {batches} graphchi batches x {batch_len} \
         edges (model time, ClockMode::Virtual)"
    );

    let runs: Vec<RunResult> = ["paldb-write", "graphchi-shard"]
        .into_iter()
        .flat_map(|w| {
            [
                run_mode(w, "classic", false, records, batches, batch_len),
                run_mode(w, "fast", true, records, batches, batch_len),
            ]
        })
        .collect();

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.workload.to_owned(),
                r.mode.to_owned(),
                format!("{:.3}", r.charged_ns as f64 / 1e6),
                r.snap.counter(Counter::SerdeEncodeCalls).to_string(),
                r.snap.counter(Counter::SerdeBulkBytes).to_string(),
                r.snap.counter(Counter::SerdePooledBytes).to_string(),
                r.snap.counter(Counter::SerdeShapeCacheMisses).to_string(),
            ]
        })
        .collect();
    print_table(
        "Boundary-serde ablation (v1 classic vs v2 fast)",
        &["workload", "mode", "model ms", "encodes", "bulk B", "pooled B", "shape miss"],
        &rows,
    );

    // Per-run telemetry export next to the aggregate.
    if let Some(path) = telemetry_out_from_args() {
        for r in &runs {
            let run_path = path.with_extension(format!("{}.{}.json", r.workload, r.mode));
            std::fs::write(&run_path, r.snap.to_json()).expect("write run telemetry");
            println!("telemetry ({} {}): {}", r.workload, r.mode, run_path.display());
        }
    }
    experiments::report::maybe_export_telemetry();
    experiments::report::maybe_export_trace();

    // The claims this ablation exists to demonstrate.
    let mut gate = Gate::new("serde_ablation", scale);
    for pair in runs.chunks(2) {
        let [classic, fast] = pair else { unreachable!("runs come in mode pairs") };
        let name = format!("serde.{}", classic.workload);
        gate.eq(format!("{name}.checksums_match"), fast.checksum, classic.checksum);
        gate.lt(format!("{name}.fast_cheaper"), fast.charged_ns, classic.charged_ns);
        for r in pair {
            let paths = r.snap.counter(Counter::SerdeFastPathHits)
                + r.snap.counter(Counter::SerdeSlowPathHits);
            let encodes = r.snap.counter(Counter::SerdeEncodeCalls);
            gate.eq(format!("{name}.{}.one_path_per_encode", r.mode), encodes, paths);
        }
        for (metric, counter) in [
            ("fast_path_hits", Counter::SerdeFastPathHits),
            ("bulk_bytes", Counter::SerdeBulkBytes),
            ("pooled_bytes", Counter::SerdePooledBytes),
        ] {
            gate.gt(format!("{name}.fast.{metric}"), fast.snap.counter(counter), 0);
        }
    }
    gate.finish();
}
