//! One benchmark run of one workload: repeated setups, the untraced
//! measured loop, the optional traced run, and every metric and check
//! derived from them.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::VmError;
use telemetry::trace::Tracer;
use telemetry::{Counter, Gauge, Hist, Snapshot};

use crate::harness::{
    measure, pinned_config, Budget, Driver, Meter, SetupTimes, Workdir, REFERENCE_NS,
};
use crate::inputs::due_times;
use crate::report::{normalize_host, Check, Outcome};
use crate::spans::{self_time_by_cat, spans_from_events};
use crate::stats::{goodput, nominal_rate, percentiles, replay};
use crate::workloads::{Kind, Workload};
use crate::{kv, pagerank};

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Largest share by which the traced layers' summed self time may
/// differ from the traced per-op host time.
pub const SELF_TIME_TOLERANCE: f64 = 0.10;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds the measured loops run for.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// Scheduler executors per side for the switchless workload: one, so
/// the client and the serving executor each keep a core on a two-core
/// host (with two executors there, `host_ops_per_s` spread 25 % over
/// five seeds against 6 % with one).
pub const SWITCHLESS_WORKERS: usize = 1;

fn config(w: &Workload, workdir: &Path, tracer: Arc<Tracer>) -> AppConfig {
    let workers = matches!(w.kind, Kind::Kv { switchless: true, .. }).then_some(SWITCHLESS_WORKERS);
    pinned_config(workdir, workers, w.gc_threshold_mib << 20, tracer)
}

/// Crossings a session makes before its first measured op.
fn setup_crossings(w: &Workload) -> u64 {
    match &w.kind {
        Kind::Kv { shape, .. } => kv::setup_crossings(shape),
        Kind::PageRank => pagerank::setup_crossings(),
    }
}

/// Launches one session of `w` and runs `body` on its driver.
fn session<R>(
    w: &Workload,
    seed: u64,
    workdir: &Path,
    tracer: Option<Arc<Tracer>>,
    times: &mut SetupTimes,
    body: impl FnOnce(&mut dyn Driver, &PartitionedApp) -> R,
) -> Result<R, VmError> {
    let sink = tracer.clone().unwrap_or_else(Tracer::new);
    let config = config(w, workdir, sink);
    let tracer = tracer.as_deref();
    match &w.kind {
        Kind::Kv { shape, .. } => kv::session(shape, seed, config, tracer, times, body),
        Kind::PageRank => pagerank::session(seed, config, workdir, tracer, times, body),
    }
}

/// One measured loop with the telemetry it produced.
struct Measured {
    meter: Meter,
    /// Telemetry over the measured loop only.
    delta: Snapshot,
    /// Telemetry over the app's whole life.
    totals: Snapshot,
    /// Ops the deferred oracle found wrong.
    wrong: u64,
}

fn measured(
    driver: &mut dyn Driver,
    app: &PartitionedApp,
    tracer: Option<&Tracer>,
    due: &[u64],
    budget: Budget,
    seed: u64,
    progress: &mut dyn FnMut(u64),
) -> Result<Measured, String> {
    let before = app.telemetry_snapshot();
    let meter = measure(driver, tracer, due, budget, seed, progress);
    let after = app.telemetry_snapshot();
    let wrong = driver.verify()?;
    Ok(Measured { meter, delta: after.delta_since(&before), totals: after, wrong })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn per(count: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        count as f64 / ops as f64
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `plan`, writing scratch files (and the traced run's trace)
/// under `out`. `progress` receives the attempted-op count as the run
/// goes, so a supervisor can account for ops lost to a hang.
pub fn run(plan: &Plan, out: &Path, progress: &mut dyn FnMut(u64)) -> Result<Outcome, String> {
    let w = plan.workload;
    let workdir = Workdir::create(out).map_err(|e| format!("workdir: {e}"))?;
    let mut o = Outcome::default();

    // Setups: all but the last are torn down right after warm-up.
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS - 1 {
        let mut times = SetupTimes::default();
        session(&w, plan.seed, workdir.path(), None, &mut times, |_, _| ())
            .map_err(|e| format!("setup: {e}"))?;
        setups.push(times);
    }
    let untraced_time = if plan.trace {
        Duration::from_secs(plan.seconds).mul_f64(0.5)
    } else {
        Duration::from_secs(plan.seconds)
    };
    let due = due_times(&w.arrivals, w.window, plan.seed);
    let mut times = SetupTimes::default();
    let m = session(&w, plan.seed, workdir.path(), None, &mut times, |driver, app| {
        measured(driver, app, None, &due, Budget::Timed(untraced_time), plan.seed, progress)
    })
    .map_err(|e| format!("session: {e}"))??;
    setups.push(times);

    let ops = m.meter.ops;
    o.attempted = ops;
    o.failed = m.meter.failed + m.wrong;
    o.checks.push(Check::new(
        "oracle",
        o.failed == 0,
        format!("{} of {ops} ops wrong or errored", o.failed),
    ));
    check_crossings(&w, &m, &mut o);

    let setup_s = median(&mut setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>());
    if plan.trace {
        layer_metrics(&m, &setups, &mut o);
        let t = traced(plan, workdir.path(), out, progress)?;
        o.attempted += t.ops;
        o.failed += t.failed;
        o.checks.extend(t.checks);
        o.metrics.extend(t.metrics);
        // Both sessions start from the same setup state and issue the
        // same op stream, so compare the traced ops with the same
        // prefix of the untraced window.
        let prefix = &m.meter.window_host[..(t.ops as usize).min(m.meter.window_host.len())];
        let untraced_ns: u64 = prefix.iter().sum();
        o.metrics.insert("trace.overhead_ratio", t.host_ns as f64 / untraced_ns.max(1) as f64);
    } else {
        let service = &m.meter.window_service;
        let model = percentiles(&replay(&due, service, 1.0).latencies_ns, &[0.50, 0.99]);
        let good = goodput(&due, service, w.limit_ns);
        o.checks.push(Check::new(
            "goodput",
            good.is_some(),
            format!("p99 limit {} us", w.limit_ns / 1_000),
        ));
        let host = m.meter.op_host.percentiles(&[0.50]);
        // The median one-second block; a loop too short for three blocks
        // reports its whole-run rate.
        let host_ops_per_s = match m.meter.block_rates.len() {
            0..=2 => per(ops, m.meter.host_ns) * 1e9,
            _ => median(&mut m.meter.block_rates.clone()),
        };
        o.metrics.insert("setup_s", setup_s);
        o.metrics.insert("host_ops_per_s", host_ops_per_s);
        o.metrics.insert("host_op_p50_us", host[0] as f64 / 1e3);
        o.metrics.insert("model_op_p50_us", model[0] as f64 / 1e3);
        o.metrics.insert("model_op_p99_us", model[1] as f64 / 1e3);
        o.metrics.insert("model_goodput_ops_per_s", good.unwrap_or(0.0));
    }
    o.metrics.insert("host_peak_rss_mb", peak_rss_mb());
    o.metrics.insert("fail_ratio", per(o.failed, o.attempted));
    // Host metrics read as on the reference host: the same process, on a
    // host running its reference kernel at half speed, would have
    // measured twice the times.
    let speed = REFERENCE_NS / median(&mut m.meter.reference_ns.clone());
    normalize_host(&mut o.metrics, speed);
    o.metrics.insert("host.speed", speed);
    let window = &m.meter.window_service;
    let mean_service = per(window.iter().sum(), window.len() as u64);
    eprintln!(
        "model window: {} ops, checksum {:016x}, mean service {:.1} us, offered load {:.3}; \
         host loop: {ops} ops, host speed {speed:.3} of the reference",
        window.len(),
        m.meter.window_checksum,
        mean_service / 1e3,
        mean_service * nominal_rate(&due) / 1e9,
    );
    Ok(o)
}

/// `rmi.calls` must equal the ops issued plus setup crossings, and
/// every crossing must be a switchless hit or fallback exactly when the
/// switchless engine runs.
fn check_crossings(w: &Workload, m: &Measured, o: &mut Outcome) {
    let calls = m.totals.counter(Counter::RmiCalls);
    let want = setup_crossings(w) + m.meter.ops;
    o.checks.push(Check::new(
        "rmi.calls == ops + setup",
        calls == want,
        format!("{calls} vs {} + {}", m.meter.ops, setup_crossings(w)),
    ));
    let hits = m.totals.counter(Counter::SwitchlessCalls);
    let fallbacks = m.totals.counter(Counter::SwitchlessFallbacks);
    let switchless = matches!(w.kind, Kind::Kv { switchless: true, .. });
    let ok = if switchless { calls == hits + fallbacks } else { hits == 0 && fallbacks == 0 };
    o.checks.push(Check::new(
        "rmi.calls == hits + fallbacks",
        ok,
        format!("{calls} calls, {hits} hits, {fallbacks} fallbacks"),
    ));
    if w.expects_paging {
        let faults = m.delta.counter(Counter::EpcFaults);
        let gcs = m.delta.counter(Counter::GcCollections);
        o.checks.push(Check::new(
            "epc faults and gc in loop",
            faults > 0 && gcs > 0,
            format!("{faults} faults, {gcs} collections"),
        ));
    }
}

/// Per-layer metrics from the untraced loop's telemetry and timings.
fn layer_metrics(m: &Measured, setups: &[SetupTimes], o: &mut Outcome) {
    let ops = m.meter.ops;
    let d = &m.delta;
    let c = |counter| d.counter(counter);
    let setup_ms = |f: fn(&SetupTimes) -> u64| {
        median(&mut setups.iter().map(|s| f(s) as f64 / 1e6).collect::<Vec<_>>())
    };
    let call = m.meter.call_host.percentiles(&[0.50, 0.99, 0.999]);
    let kop = |counter| per(c(counter) * 1_000, ops);
    let metrics = &mut o.metrics;
    metrics.insert("transform.host_ms", setup_ms(|s| s.transform_ns));
    metrics.insert("image_build.host_ms", setup_ms(|s| s.build_ns));
    metrics.insert("launch.host_ms", setup_ms(|s| s.launch_ns));
    metrics.insert("warmup.host_ms", setup_ms(|s| s.warmup_ns));
    metrics.insert("exec.call.host_p50_ns", call[0] as f64);
    metrics.insert("exec.call.host_p99_ns", call[1] as f64);
    metrics.insert("exec.call.host_p999_ns", call[2] as f64);
    metrics.insert("exec.rmi_calls_per_op", per(c(Counter::RmiCalls), ops));
    metrics.insert("exec.relay_dispatches_per_op", per(c(Counter::RelayDispatches), ops));
    metrics.insert("rmi.bytes_per_op", per(c(Counter::BytesSerialized), ops));
    metrics.insert(
        "serde.fast_path_ratio",
        per(c(Counter::SerdeFastPathHits), c(Counter::SerdeEncodeCalls)),
    );
    metrics.insert("serde.bulk_bytes_per_op", per(c(Counter::SerdeBulkBytes), ops));
    metrics.insert("serde.shape_cache_misses", c(Counter::SerdeShapeCacheMisses) as f64);
    metrics.insert("sgx.transitions_per_op", per(c(Counter::Ecalls) + c(Counter::Ocalls), ops));
    metrics
        .insert("sgx.crossing_bytes_per_op", per(c(Counter::BytesIn) + c(Counter::BytesOut), ops));
    metrics.insert("sgx.mee_bytes_per_op", per(c(Counter::MeeBytes), ops));
    metrics.insert("sgx.epc_faults_per_kop", kop(Counter::EpcFaults));
    metrics.insert("sgx.shim_ocalls_per_op", per(c(Counter::ShimOcalls), ops));
    metrics.insert("switchless.hit_ratio", per(c(Counter::SwitchlessCalls), c(Counter::RmiCalls)));
    metrics.insert("switchless.fallbacks_per_kop", kop(Counter::SwitchlessFallbacks));
    let wait = d.hist(Hist::SchedTaskWaitNs);
    metrics.insert("switchless.task_wait.p50_ns", wait.quantile(0.50) as f64);
    metrics.insert("switchless.task_wait.p99_ns", wait.quantile(0.99) as f64);
    metrics.insert("switchless.steals_per_kop", kop(Counter::SchedSteals));
    metrics.insert("switchless.suspends_per_kop", kop(Counter::SchedSuspends));
    metrics.insert("switchless.timeouts", c(Counter::SchedTimeouts) as f64);
    metrics.insert("gc.collections_per_kop", kop(Counter::GcCollections));
    metrics.insert("gc.major_collections_per_kop", kop(Counter::GcMajorCollections));
    metrics.insert("gc.bytes_copied_per_op", per(c(Counter::GcBytesCopied), ops));
    let pause = d.hist(Hist::GcPauseModelNs);
    metrics.insert("gc.pause_model.p50_ns", pause.quantile(0.50) as f64);
    metrics.insert("gc.pause_model.p99_ns", pause.quantile(0.99) as f64);
    metrics.insert(
        "gc.heap_live_peak_mb",
        m.totals.gauge(Gauge::HeapLiveBytesPeak) as f64 / (1024.0 * 1024.0),
    );
    let call = |name| m.meter.per_call.get(name).copied().unwrap_or_default();
    metrics.insert("graphchi.shard.host_ms", call("shard").host_ms());
    metrics.insert("graphchi.engine.host_ms", call("engine").host_ms());
    metrics.insert("graphchi.engine.model_ms", call("engine").model_ms());
}

/// Per-layer results of the traced run.
struct Traced {
    ops: u64,
    failed: u64,
    host_ns: u64,
    checks: Vec<Check>,
    metrics: Vec<(&'static str, f64)>,
}

/// The traced run: a fresh session with an enabled tracer sized for
/// zero drops, a fixed number of ops, and per-layer self times from the
/// captured span trees. The trace is written to `out` at the end.
fn traced(
    plan: &Plan,
    workdir: &Path,
    out: &Path,
    progress: &mut dyn FnMut(u64),
) -> Result<Traced, String> {
    let w = plan.workload;
    let tracer = Tracer::new();
    tracer.enable_with_capacity(w.traced_ops as usize * w.events_per_op + 1024);
    let mut times = SetupTimes::default();
    let m = session(&w, plan.seed, workdir, Some(Arc::clone(&tracer)), &mut times, |d, app| {
        measured(d, app, Some(&tracer), &[], Budget::Ops(w.traced_ops), plan.seed, progress)
    })
    .map_err(|e| format!("traced session: {e}"))??;
    tracer.disable();

    let events = tracer.snapshot_events();
    let dropped = tracer.dropped();
    let spans = spans_from_events(&events);
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.cat == "bench" && s.name.starts_with("op:"))
        .collect();
    let trees: BTreeSet<u64> = roots.iter().map(|s| s.trace_id).collect();
    let n = roots.len() as u64;
    let op_host: i64 = roots.iter().map(|s| s.host.1 - s.host.0).sum();
    let by_cat = self_time_by_cat(&spans, &trees);
    let host = |cats: &[&str]| -> f64 {
        per(cats.iter().filter_map(|c| by_cat.get(c)).map(|t| t.host_ns as u64).sum(), n)
    };
    let model = |cats: &[&str]| -> f64 {
        per(cats.iter().filter_map(|c| by_cat.get(c)).map(|t| t.model_ns as u64).sum(), n)
    };
    let self_sum: i64 = by_cat.values().map(|t| t.host_ns).sum();
    let self_sum_ratio = self_sum as f64 / op_host.max(1) as f64;
    let tree_events = events.iter().filter(|e| trees.contains(&e.trace_id)).count() as u64;
    let rmi_spans = events
        .iter()
        .filter(|e| e.cat == "rmi" && e.phase == telemetry::trace::TracePhase::Begin)
        .count() as u64;
    let rmi_calls = m.delta.counter(Counter::RmiCalls);

    let json = tracer.to_chrome_json(&[("rmi_calls", rmi_calls)]);
    let path = out.join(format!("{}.trace.json", w.name));
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;

    let checks = vec![
        Check::new("trace.dropped == 0", dropped == 0, format!("{dropped} dropped")),
        Check::new(
            "traced op trees == traced ops",
            n == m.meter.ops,
            format!("{n} trees, {} ops", m.meter.ops),
        ),
        Check::new(
            "rmi spans + dropped == rmi.calls",
            rmi_spans + dropped == rmi_calls,
            format!("{rmi_spans} spans + {dropped} dropped vs {rmi_calls} calls"),
        ),
        Check::new(
            "layer self times sum to op time",
            (self_sum_ratio - 1.0).abs() <= SELF_TIME_TOLERANCE,
            format!("ratio {self_sum_ratio:.4}, tolerance {SELF_TIME_TOLERANCE}"),
        ),
        Check::new(
            "traced oracle",
            m.meter.failed + m.wrong == 0,
            format!("{} wrong", m.meter.failed + m.wrong),
        ),
    ];
    let metrics = vec![
        ("exec.self_host_ns_per_op", host(&["rmi"])),
        ("exec.serve_self_host_ns_per_op", host(&["exec"])),
        ("serde.self_host_ns_per_op", host(&["serde"])),
        ("serde.model_ns_per_op", model(&["serde"])),
        ("sgx.self_host_ns_per_op", host(&["sgx", "shim"])),
        ("sgx.model_ns_per_op", model(&["sgx", "shim"])),
        ("switchless.queue_self_host_ns_per_op", host(&["queue"])),
        ("gc.self_host_ns_per_op", host(&["gc"])),
        ("graphchi.self_host_ns_per_op", host(&["graphchi"])),
        ("bench.self_host_ns_per_op", host(&["bench"])),
        ("trace.op_host_ns", per(op_host as u64, n)),
        ("trace.self_sum_ratio", self_sum_ratio),
        ("trace.dropped", dropped as f64),
        ("trace.events_per_op", per(tree_events, n)),
    ];
    Ok(Traced {
        ops: m.meter.ops,
        failed: m.meter.failed + m.wrong,
        host_ns: m.meter.host_ns,
        checks,
        metrics,
    })
}
