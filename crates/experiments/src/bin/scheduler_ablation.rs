//! Ablation: work-stealing task scheduler vs a thread-per-worker model
//! at tens of thousands of in-flight crossings.
//!
//! Two gated halves (`experiments::report::Gate`, see
//! [`experiments::scheduler`]):
//!
//! 1. **Deterministic replay** — a seed-pinned open-loop burst whose
//!    in-flight population exceeds 10,000 requests, replayed against
//!    both engine models on the model clock. Gates: peak depth ≥
//!    10,000, identical response checksums, and strictly lower p95
//!    *and* p99 latency for work-stealing on the bursty shape.
//! 2. **Real engine** — concurrent callers drive nested-crossing
//!    `ping` calls through classic crossings and the work-stealing
//!    scheduler. Gates: identical reply checksums across both modes,
//!    `rmi.calls == hits + fallbacks` on the scheduler, and live
//!    steal/suspend activity (`rmi.sched_steals > 0`,
//!    `rmi.sched_suspends > 0`).
//!
//! Flags: `--quick` (CI scale), `--json-out <path>` (the
//! `montsalvat.bench/v1` envelope), `--telemetry-out <path>` (per-mode
//! `<path>.<mode>.json`).

use experiments::report::{print_table, telemetry_out_from_args, Gate, Scale};
use experiments::scheduler::{replay, run_engine, EngineModel, ReplayConfig};
use montsalvat_core::exec::switchless::{SchedulerConfig, SwitchlessConfig};
use telemetry::Counter;

fn main() {
    experiments::report::init_tracing_from_args();
    let scale = Scale::from_args();
    let (cfg, threads, calls) = match scale {
        Scale::Quick => (ReplayConfig::quick(), 6, 40i64),
        Scale::Full => (ReplayConfig::full(), 8, 200i64),
    };
    println!(
        "scheduler ablation: {} open-loop requests over {} workers (burst x{}), nested \
         crossing every {} requests; then {} callers x {} real nested pings per engine",
        cfg.requests, cfg.workers, cfg.burst_factor, cfg.nested_every, threads, calls
    );

    // ---- Half 1: deterministic replay at depth -----------------------
    let tpw = replay(EngineModel::ThreadPerWorker, &cfg);
    let ws = replay(EngineModel::WorkStealing, &cfg);
    let rows: Vec<Vec<String>> = [&tpw, &ws]
        .iter()
        .map(|r| {
            vec![
                r.model.label().to_owned(),
                format!("{:.3}", r.latency.p50_ns as f64 / 1e6),
                format!("{:.3}", r.latency.p95_ns as f64 / 1e6),
                format!("{:.3}", r.latency.p99_ns as f64 / 1e6),
                format!("{:.3}", r.latency.max_ns as f64 / 1e6),
                r.peak_inflight.to_string(),
                format!("{:.3}", r.horizon_ns as f64 / 1e6),
            ]
        })
        .collect();
    print_table(
        "Open-loop replay at depth (model-time latency)",
        &["engine model", "p50 ms", "p95 ms", "p99 ms", "max ms", "peak in-flight", "drain ms"],
        &rows,
    );

    // ---- Half 2: the real engine over nested crossings ---------------
    let sched_config = SwitchlessConfig {
        min_workers: 4,
        max_workers: 8,
        scheduler: Some(SchedulerConfig { steal_batch: 8, ..Default::default() }),
        ..Default::default()
    };
    let runs = [
        run_engine("classic", None, threads, calls),
        run_engine("scheduler", Some(sched_config), threads, calls),
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.label.to_owned(),
                r.calls.to_string(),
                format!("{:.3}", r.model_time_ns as f64 / 1e6),
                r.snap.counter(Counter::RmiCalls).to_string(),
                r.snap.counter(Counter::SwitchlessCalls).to_string(),
                r.snap.counter(Counter::SwitchlessFallbacks).to_string(),
                r.snap.counter(Counter::SchedSteals).to_string(),
                r.snap.counter(Counter::SchedSuspends).to_string(),
                r.snap.counter(Counter::SchedTimeouts).to_string(),
            ]
        })
        .collect();
    print_table(
        "Real engine over nested crossings",
        &["mode", "pings", "model ms", "rmi", "hits", "fbk", "steals", "susp", "t/o"],
        &rows,
    );

    // ---- Report and gate ---------------------------------------------
    if let Some(path) = telemetry_out_from_args() {
        for run in &runs {
            let mode_path = path.with_extension(format!("{}.json", run.label));
            std::fs::write(&mode_path, run.snap.to_json()).expect("write mode telemetry");
            println!("telemetry ({}): {}", run.label, mode_path.display());
        }
    }
    experiments::report::maybe_export_telemetry();
    experiments::report::maybe_export_trace();

    let [classic, sched] = &runs;
    let counter = |c| sched.snap.counter(c);
    let mut gate = Gate::new("scheduler_ablation", scale);
    gate.ge("scheduler.replay.thread_per_worker.peak_inflight", tpw.peak_inflight, 10_000);
    gate.ge("scheduler.replay.work_stealing.peak_inflight", ws.peak_inflight, 10_000);
    gate.eq("scheduler.replay.checksums_match", ws.checksum, tpw.checksum);
    gate.lt("scheduler.replay.p95_improves", ws.latency.p95_ns, tpw.latency.p95_ns);
    gate.lt("scheduler.replay.p99_improves", ws.latency.p99_ns, tpw.latency.p99_ns);
    gate.eq("scheduler.engine.checksums_match", sched.checksum, classic.checksum);
    gate.eq(
        "scheduler.engine.reconciles",
        counter(Counter::RmiCalls),
        counter(Counter::SwitchlessCalls) + counter(Counter::SwitchlessFallbacks),
    );
    gate.gt("scheduler.engine.steals", counter(Counter::SchedSteals), 0);
    gate.gt("scheduler.engine.suspends", counter(Counter::SchedSuspends), 0);
    gate.finish();
}
