//! Ablation: work-stealing task scheduler vs a thread-per-worker model
//! at tens of thousands of in-flight crossings.
//!
//! Two self-asserting halves (see [`experiments::scheduler`]):
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
//! `montsalvat.scheduler-ablation/v1` report CI gates with jq),
//! `--telemetry-out <path>` (per-mode `<path>.<mode>.json`).

use std::fmt::Write as _;

use experiments::report::{print_table, telemetry_out_from_args, Scale};
use experiments::scheduler::{
    replay, run_engine, EngineModel, EngineRun, ReplayConfig, ReplayResult,
};
use montsalvat_core::exec::switchless::{SchedulerConfig, SwitchlessConfig};
use telemetry::Counter;

/// Schema identifier of the emitted report.
const SCHED_SCHEMA: &str = "montsalvat.scheduler-ablation/v1";

fn arg_value(name: &str) -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next().map(std::path::PathBuf::from);
        }
        if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(std::path::PathBuf::from(v));
        }
    }
    None
}

fn replay_json(r: &ReplayResult) -> String {
    format!(
        "{{\"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}, \
         \"peak_inflight\": {}, \"horizon_ns\": {}, \"checksum\": \"{:#018x}\"}}",
        r.latency.p50_ns,
        r.latency.p95_ns,
        r.latency.p99_ns,
        r.latency.mean_ns,
        r.latency.max_ns,
        r.peak_inflight,
        r.horizon_ns,
        r.checksum,
    )
}

fn engine_json(run: &EngineRun) -> String {
    format!(
        "{{\"calls\": {}, \"checksum\": \"{:#018x}\", \"model_time_ns\": {}, \
         \"rmi_calls\": {}, \"hits\": {}, \"fallbacks\": {}, \"steals\": {}, \
         \"suspends\": {}, \"timeouts\": {}}}",
        run.calls,
        run.checksum,
        run.model_time_ns,
        run.snap.counter(Counter::RmiCalls),
        run.snap.counter(Counter::SwitchlessCalls),
        run.snap.counter(Counter::SwitchlessFallbacks),
        run.snap.counter(Counter::SchedSteals),
        run.snap.counter(Counter::SchedSuspends),
        run.snap.counter(Counter::SchedTimeouts),
    )
}

fn reconciles(run: &EngineRun) -> bool {
    run.snap.counter(Counter::RmiCalls)
        == run.snap.counter(Counter::SwitchlessCalls)
            + run.snap.counter(Counter::SwitchlessFallbacks)
}

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

    assert!(
        tpw.peak_inflight >= 10_000 && ws.peak_inflight >= 10_000,
        "the ablation must reach 10k in-flight crossings: {} / {}",
        tpw.peak_inflight,
        ws.peak_inflight
    );
    assert_eq!(
        tpw.checksum, ws.checksum,
        "the engine model must never change the modelled responses"
    );
    assert!(
        ws.latency.p95_ns < tpw.latency.p95_ns && ws.latency.p99_ns < tpw.latency.p99_ns,
        "work-stealing must win both tails: p95 {} vs {}, p99 {} vs {}",
        ws.latency.p95_ns,
        tpw.latency.p95_ns,
        ws.latency.p99_ns,
        tpw.latency.p99_ns
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

    let [classic, sched] = &runs;
    assert!(
        classic.checksum == sched.checksum,
        "the scheduler must produce byte-identical replies: {:?}",
        runs.iter().map(|r| (r.label, r.checksum)).collect::<Vec<_>>()
    );
    assert!(
        reconciles(sched),
        "{}: rmi.calls {} must equal hits {} + fallbacks {}",
        sched.label,
        sched.snap.counter(Counter::RmiCalls),
        sched.snap.counter(Counter::SwitchlessCalls),
        sched.snap.counter(Counter::SwitchlessFallbacks)
    );
    assert!(
        sched.snap.counter(Counter::SchedSteals) > 0,
        "executors must steal under concurrent load"
    );
    assert!(
        sched.snap.counter(Counter::SchedSuspends) > 0,
        "nested crossings must suspend executor tasks"
    );

    // ---- Report ------------------------------------------------------
    if let Some(path) = telemetry_out_from_args() {
        for run in &runs {
            let mode_path = path.with_extension(format!("{}.json", run.label));
            std::fs::write(&mode_path, run.snap.to_json()).expect("write mode telemetry");
            println!("telemetry ({}): {}", run.label, mode_path.display());
        }
    }
    experiments::report::maybe_export_telemetry();
    experiments::report::maybe_export_trace();

    let mut report = String::new();
    write!(
        report,
        "{{\n  \"schema\": \"{SCHED_SCHEMA}\",\n  \"scale\": \"{scale}\",\n  \
         \"replay\": {{\n    \"requests\": {requests}, \"workers\": {workers}, \
         \"nested_every\": {nested_every},\n    \"thread_per_worker\": {tpw},\n    \
         \"work_stealing\": {ws}\n  }},\n  \"engines\": {{\n    \"classic\": {classic},\n    \
         \"scheduler\": {sched}\n  }},\n  \"checks\": {{\n    \
         \"peak_inflight_at_least_10k\": {depth_ok},\n    \"replay_checksums_match\": \
         {replay_ck},\n    \"p95_improves\": {p95_ok},\n    \"p99_improves\": {p99_ok},\n    \
         \"engine_checksums_match\": {engine_ck},\n    \
         \"scheduler_reconciled\": {sched_rec},\n    \"steals_nonzero\": {steals_ok},\n    \
         \"suspends_nonzero\": {susp_ok}\n  }}\n}}\n",
        scale = match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
        requests = cfg.requests,
        workers = cfg.workers,
        nested_every = cfg.nested_every,
        tpw = replay_json(&tpw),
        ws = replay_json(&ws),
        classic = engine_json(classic),
        sched = engine_json(sched),
        depth_ok = tpw.peak_inflight >= 10_000 && ws.peak_inflight >= 10_000,
        replay_ck = tpw.checksum == ws.checksum,
        p95_ok = ws.latency.p95_ns < tpw.latency.p95_ns,
        p99_ok = ws.latency.p99_ns < tpw.latency.p99_ns,
        engine_ck = classic.checksum == sched.checksum,
        sched_rec = reconciles(sched),
        steals_ok = sched.snap.counter(Counter::SchedSteals) > 0,
        susp_ok = sched.snap.counter(Counter::SchedSuspends) > 0,
    )
    .expect("write to string");
    if let Some(path) = arg_value("--json-out") {
        std::fs::write(&path, &report).expect("write scheduler ablation report");
        println!("report ({SCHED_SCHEMA}): {}", path.display());
    }

    println!(
        "\nok: {} in flight; work-stealing p95 {:.3} ms / p99 {:.3} ms vs thread-per-worker \
         {:.3} / {:.3} ms; {} steals, {} suspends, checksums identical across modes",
        ws.peak_inflight,
        ws.latency.p95_ns as f64 / 1e6,
        ws.latency.p99_ns as f64 / 1e6,
        tpw.latency.p95_ns as f64 / 1e6,
        tpw.latency.p99_ns as f64 / 1e6,
        sched.snap.counter(Counter::SchedSteals),
        sched.snap.counter(Counter::SchedSuspends),
    );
}
