//! Flight-recorder ablation: prove a seeded stall produces a
//! detected, correctly-attributed latency spike.
//!
//! Runs the deterministic `sim-sgx-classic` traffic lane twice over
//! the identical seed-pinned schedule: once **with** a synthetic GC
//! stall injected into one mid-run request
//! (`TrafficConfig::inject_gc`), once **without** (the control). The
//! injected run must yield at least one spike window whose
//! attribution names `gc`, and every spike must name a cause; the
//! control must yield no GC attribution — that is the ablation: the
//! detector fires on the event we planted and only on it. Both runs
//! also gate window-sum reconciliation: per-window `rmi.calls` and
//! `traffic.requests` deltas must sum exactly to the lane's end-of-run
//! aggregate, in the live series and in the injected lane's
//! `montsalvat.timeseries/v1` export read back through
//! `parse_timeseries`, and that export must be byte-identical across
//! two runs of the same seed.
//!
//! Flags: `--quick` (CI scale), `--json-out <path>` (the
//! `montsalvat.bench/v1` envelope of `experiments::report::Gate`),
//! `--timeseries-out <path>` (the injected lane's timeseries export),
//! `--prom-out <path>` (Prometheus text exposition of the same
//! series).

use experiments::report::{arg_path, Gate, Scale};
use experiments::traffic::{lanes, run_lane, GcInjection, LaneResult, TrafficConfig};
use telemetry::timeseries::{
    detect_spikes, parse_timeseries, Series, SpikeReport, WindowView, DEFAULT_SPIKE_FACTOR,
};
use telemetry::Counter;

/// The synthetic stall: ~2.5 ms of model time, two orders of
/// magnitude above the lane's typical per-request service cost.
const INJECTED_PAUSE_NS: u64 = 2_500_000;

struct RunOutcome {
    lane: LaneResult,
    series: Series,
    report: SpikeReport,
}

fn run(cfg: &TrafficConfig) -> RunOutcome {
    let lane = run_lane(lanes()[0], cfg).expect("classic lane runs");
    let series = lane.timeseries.clone();
    let views: Vec<WindowView> = series.windows.iter().map(WindowView::from_window).collect();
    let report = detect_spikes(&views, DEFAULT_SPIKE_FACTOR);
    RunOutcome { lane, series, report }
}

fn gc_attributed(report: &SpikeReport) -> usize {
    report.spikes.iter().filter(|s| s.causes.iter().any(|c| c.cause == "gc")).count()
}

fn main() {
    experiments::report::init_tracing_from_args();
    let scale = Scale::from_args();
    let base = TrafficConfig::for_scale(scale);
    // Mid-run, inside a calm phase, so the spike is the stall and not
    // an arrival burst.
    let injection = GcInjection { at_request: base.requests / 2, pause_ns: INJECTED_PAUSE_NS };
    let injected_cfg = TrafficConfig { inject_gc: Some(injection), ..base.clone() };

    println!(
        "timeline ablation: {} requests, GC stall of {} ns injected at request {}",
        base.requests, injection.pause_ns, injection.at_request
    );

    // Warm the process-wide serde buffer pools first: the very first
    // run in a process takes a few unpooled allocations
    // (`serde.pooled_bytes` differs), so byte-identical exports only
    // hold between steady-state runs.
    let _ = run(&base);

    let injected = run(&injected_cfg);
    let control = run(&base);
    let replay = run(&injected_cfg);
    let export = injected.series.to_json();

    println!(
        "{} window(s), {} spike(s), {} gc-attributed (median p95 {} ns, threshold {} ns); \
         control: {} spike(s)",
        injected.series.windows.len(),
        injected.report.spikes.len(),
        gc_attributed(&injected.report),
        injected.report.median_p95,
        injected.report.threshold,
        control.report.spikes.len(),
    );
    if let Some(path) = arg_path("--timeseries-out") {
        std::fs::write(&path, &export).expect("write timeseries export");
        println!("timeseries ({}): {}", telemetry::timeseries::SCHEMA, path.display());
    }
    if let Some(path) = arg_path("--prom-out") {
        std::fs::write(&path, injected.series.to_prometheus()).expect("write exposition");
        println!("exposition (prometheus text): {}", path.display());
    }

    let mut gate = Gate::new("timeline_ablation", scale);
    // Determinism: same seed, same config → byte-identical export.
    gate.check(
        "timeline.export_byte_identical",
        export == replay.series.to_json(),
        format_args!("{} bytes", export.len()),
        "identical to a same-seed replay",
    );

    // Window-sum reconciliation on the deterministic lane: the live
    // series of both runs, and the injected run's export read back.
    let parsed = parse_timeseries(&export).expect("the export parses");
    for (metric, counter) in
        [("rmi.calls", Counter::RmiCalls), ("traffic.requests", Counter::TrafficRequests)]
    {
        for (run, outcome) in [("injected", &injected), ("control", &control)] {
            gate.eq(
                format!("timeline.{run}.{metric}.window_sum"),
                outcome.series.windows.iter().map(|w| w.delta.counter(counter)).sum::<u64>(),
                outcome.lane.snap.counter(counter),
            );
        }
        gate.eq(
            format!("timeline.export.{metric}.window_sum"),
            parsed.windows.iter().map(|w| w.counter(metric)).sum::<u64>(),
            injected.lane.snap.counter(counter),
        );
    }

    // The ablation itself: the planted stall is detected and named;
    // the control plants nothing and gets no GC attribution.
    let spikes = &injected.report.spikes;
    gate.ge("timeline.spikes", spikes.len(), 1);
    gate.eq(
        "timeline.spikes_without_cause",
        spikes.iter().filter(|s| s.causes.is_empty()).count(),
        0,
    );
    gate.ge("timeline.gc_attributed", gc_attributed(&injected.report), 1);
    gate.eq("timeline.control.gc_attributed", gc_attributed(&control.report), 0);
    gate.finish();
}
