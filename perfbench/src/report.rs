//! Metric definitions and the result line.

use std::collections::BTreeMap;

/// How a metric is defined: unit, direction and clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower` is better.
    pub better: &'static str,
    /// `host` (Instant), `model` (charged cost), or `-` (a count).
    pub clock: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: &'static str,
) -> Spec {
    Spec { name, unit, better, clock }
}

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", "lower", "host"),
    spec("host_ops_per_s", "ops/s", "higher", "host"),
    spec("host_op_p50_us", "us", "lower", "host"),
    spec("model_op_p50_us", "us", "lower", "model"),
    spec("model_op_p99_us", "us", "lower", "model"),
    spec("model_goodput_ops_per_s", "ops/s", "higher", "model"),
    spec("host_peak_rss_mb", "MB", "lower", "host"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[Spec] = &[
    spec("fail_ratio", "ratio", "lower", "-"),
    spec("host.speed", "ratio", "higher", "host"),
    spec("transform.host_ms", "ms", "lower", "host"),
    spec("image_build.host_ms", "ms", "lower", "host"),
    spec("launch.host_ms", "ms", "lower", "host"),
    spec("warmup.host_ms", "ms", "lower", "host"),
    spec("exec.call.host_p50_ns", "ns", "lower", "host"),
    spec("exec.call.host_p99_ns", "ns", "lower", "host"),
    spec("exec.call.host_p999_ns", "ns", "lower", "host"),
    spec("exec.rmi_calls_per_op", "calls/op", "lower", "-"),
    spec("exec.relay_dispatches_per_op", "calls/op", "lower", "-"),
    spec("exec.self_host_ns_per_op", "ns/op", "lower", "host"),
    spec("exec.serve_self_host_ns_per_op", "ns/op", "lower", "host"),
    spec("rmi.bytes_per_op", "bytes/op", "lower", "-"),
    spec("serde.fast_path_ratio", "ratio", "higher", "-"),
    spec("serde.bulk_bytes_per_op", "bytes/op", "higher", "-"),
    spec("serde.shape_cache_misses", "count", "lower", "-"),
    spec("serde.self_host_ns_per_op", "ns/op", "lower", "host"),
    spec("serde.model_ns_per_op", "ns/op", "lower", "model"),
    spec("sgx.transitions_per_op", "calls/op", "lower", "-"),
    spec("sgx.crossing_bytes_per_op", "bytes/op", "lower", "-"),
    spec("sgx.mee_bytes_per_op", "bytes/op", "lower", "-"),
    spec("sgx.epc_faults_per_kop", "faults/kop", "lower", "-"),
    spec("sgx.shim_ocalls_per_op", "calls/op", "lower", "-"),
    spec("sgx.self_host_ns_per_op", "ns/op", "lower", "host"),
    spec("sgx.model_ns_per_op", "ns/op", "lower", "model"),
    spec("switchless.hit_ratio", "ratio", "higher", "-"),
    spec("switchless.fallbacks_per_kop", "calls/kop", "lower", "-"),
    spec("switchless.task_wait.p50_ns", "ns", "lower", "model"),
    spec("switchless.task_wait.p99_ns", "ns", "lower", "model"),
    spec("switchless.steals_per_kop", "events/kop", "lower", "-"),
    spec("switchless.suspends_per_kop", "events/kop", "lower", "-"),
    spec("switchless.timeouts", "count", "lower", "-"),
    spec("switchless.queue_self_host_ns_per_op", "ns/op", "lower", "host"),
    spec("gc.collections_per_kop", "gcs/kop", "lower", "-"),
    spec("gc.major_collections_per_kop", "gcs/kop", "lower", "-"),
    spec("gc.bytes_copied_per_op", "bytes/op", "lower", "-"),
    spec("gc.pause_model.p50_ns", "ns", "lower", "model"),
    spec("gc.pause_model.p99_ns", "ns", "lower", "model"),
    spec("gc.heap_live_peak_mb", "MB", "lower", "-"),
    spec("gc.self_host_ns_per_op", "ns/op", "lower", "host"),
    spec("graphchi.shard.host_ms", "ms", "lower", "host"),
    spec("graphchi.engine.host_ms", "ms", "lower", "host"),
    spec("graphchi.engine.model_ms", "ms", "lower", "model"),
    spec("graphchi.self_host_ns_per_op", "ns/op", "lower", "host"),
    spec("bench.self_host_ns_per_op", "ns/op", "lower", "host"),
    spec("trace.op_host_ns", "ns/op", "lower", "host"),
    spec("trace.self_sum_ratio", "ratio", "lower", "host"),
    spec("trace.overhead_ratio", "ratio", "lower", "host"),
    spec("trace.dropped", "count", "lower", "-"),
    spec("trace.events_per_op", "events/op", "lower", "-"),
];

/// Rescales host-clock times and rates to the reference host's speed.
/// `speed` is the reference kernel's ns per iteration on the reference
/// host ÷ the same measured in this run (below 1 on a slower host), so
/// a time × `speed` and a rate ÷ `speed` read as on the reference host.
pub fn normalize_host(metrics: &mut BTreeMap<&'static str, f64>, speed: f64) {
    for s in END_TO_END.iter().chain(PER_LAYER).filter(|s| s.clock == "host") {
        if let Some(v) = metrics.get_mut(s.name) {
            match s.unit {
                "s" | "ms" | "us" | "ns" | "ns/op" => *v *= speed,
                "ops/s" => *v /= speed,
                _ => {}
            }
        }
    }
}

/// A named pass/fail check with what it observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed values.
    pub detail: String,
}

impl Check {
    /// A check of `ok`, explained by `detail`.
    pub fn new(name: &str, ok: bool, detail: String) -> Self {
        Check { name: name.to_owned(), ok, detail }
    }
}

/// Outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted in the measured loops.
    pub attempted: u64,
    /// Ops that errored, gave a wrong response or were lost.
    pub failed: u64,
    /// Oracle and invariant checks.
    pub checks: Vec<Check>,
    /// Every metric computed, by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Whether every op succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// Formats a finite number for JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the `specs`
/// metrics with their units.
pub fn result_json(outcome: &Outcome, specs: &[Spec]) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .filter_map(|s| {
            let v = outcome.metrics.get(s.name)?;
            Some(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", s.name, num(*v), s.unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Human-readable table of the `specs` metrics and every check.
pub fn table(outcome: &Outcome, specs: &[Spec]) -> String {
    let mut out =
        format!("{:<40} {:>16} {:<10} {:<7} {}\n", "metric", "value", "unit", "better", "clock");
    for s in specs {
        if let Some(v) = outcome.metrics.get(s.name) {
            out.push_str(&format!(
                "{:<40} {:>16.4} {:<10} {:<7} {}\n",
                s.name, v, s.unit, s.better, s.clock
            ));
        }
    }
    for c in &outcome.checks {
        out.push_str(&format!(
            "check {:<34} {:<4} {}\n",
            c.name,
            if c.ok { "ok" } else { "FAIL" },
            c.detail
        ));
    }
    out
}
