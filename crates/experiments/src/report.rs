//! Uniform reporting for the figure/table harnesses.

use std::fmt::Display;
use std::path::{Path, PathBuf};

use sgx_sim::cost::CostParams;

/// One labelled series of `(x, seconds)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (matches the paper's legends, e.g. `proxy-out→in`).
    pub label: String,
    /// `(x, y)` points; `y` in seconds.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series { label: label.into(), points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, seconds: f64) {
        self.points.push((x, seconds));
    }

    /// Mean of the y values.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|(_, y)| y).sum::<f64>() / self.points.len() as f64
    }
}

/// Pointwise mean ratio `a/b` over series with matching x values.
pub fn mean_ratio(a: &Series, b: &Series) -> f64 {
    let pairs: Vec<(f64, f64)> =
        a.points.iter().zip(&b.points).map(|(&(_, ya), &(_, yb))| (ya, yb)).collect();
    if pairs.is_empty() {
        return f64::NAN;
    }
    pairs.iter().map(|(ya, yb)| ya / yb).sum::<f64>() / pairs.len() as f64
}

/// Prints a figure as an aligned text table: one row per x, one column
/// per series.
pub fn print_figure(title: &str, xlabel: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    print!("{xlabel:>16}");
    for s in series {
        print!("  {:>18}", s.label);
    }
    println!();
    let xs: Vec<f64> =
        series.first().map(|s| s.points.iter().map(|p| p.0).collect()).unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>16.0}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => print!("  {:>18.6}", y),
                None => print!("  {:>18}", "-"),
            }
        }
        println!();
    }
}

/// Prints a plain table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    for h in headers {
        print!("{h:>18}");
    }
    println!();
    for row in rows {
        for cell in row {
            print!("{cell:>18}");
        }
        println!();
    }
}

/// Prints the cost-model parameter set an experiment ran with.
pub fn print_params(params: &CostParams) {
    println!(
        "cost model: {:.1} GHz, transition {} cycles (~{} ns), relay {} ns, copy {:.2} ns/B, \
         serde {:.2} ns/B, MEE {:.2} ns/B (compute x{:.2} past {} MiB LLC), EPC {} MiB usable, \
         fault {} us/page",
        params.cpu_ghz,
        params.transition_cycles,
        params.transition_ns(),
        params.relay_overhead_ns,
        params.copy_ns_per_byte,
        params.serde_ns_per_byte,
        params.mee_ns_per_byte,
        params.mee_compute_factor,
        params.llc_bytes / (1024 * 1024),
        params.epc_usable_bytes / (1024 * 1024),
        params.epc_fault_ns / 1000,
    );
}

/// How a run's elapsed `seconds` are read off the cost model — shared
/// by every harness that reports timings (PalDB, GraphChi, SPECjvm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// Simulation time: real elapsed time plus model charges
    /// ([`CostModel::now`](sgx_sim::cost::CostModel::now)). Matches how
    /// the paper timed its runs, but inherits host noise.
    Simulation,
    /// Model charges only
    /// ([`CostModel::charged`](sgx_sim::cost::CostModel::charged)):
    /// deterministic for a pinned workload seed, so shape assertions
    /// on these numbers need no retries and no wall-clock thresholds.
    ChargedOnly,
}

/// Experiment scale: `Full` reproduces the paper's parameter ranges;
/// `Quick` shrinks them for CI and Criterion runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Paper-size parameters.
    Full,
    /// Shrunk parameters for tests/benches.
    Quick,
}

impl Scale {
    /// Reads the scale from the first CLI argument (`--quick` selects
    /// [`Scale::Quick`]).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// `"quick"` or `"full"`, as written into reports and baselines.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Parses `<name> <path>` (or `<name>=<path>`) from the CLI arguments.
pub fn arg_path(name: &str) -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next().map(PathBuf::from);
        }
        if let Some(p) = a.strip_prefix(name).and_then(|rest| rest.strip_prefix('=')) {
            return Some(PathBuf::from(p));
        }
    }
    None
}

/// Parses `--telemetry-out <path>` (or `--telemetry-out=<path>`) from
/// the CLI arguments.
pub fn telemetry_out_from_args() -> Option<PathBuf> {
    arg_path("--telemetry-out")
}

/// Exports the process-wide aggregated telemetry to `path` as versioned
/// JSON ([`telemetry::SCHEMA`]) and prints a one-line summary sourced
/// from the same snapshot, so the file and the printed report can never
/// disagree.
///
/// # Errors
///
/// Propagates filesystem errors from writing `path`.
pub fn export_telemetry(path: &Path) -> std::io::Result<()> {
    use telemetry::Counter;
    let snap = telemetry::aggregate();
    std::fs::write(path, snap.to_json())?;
    println!(
        "telemetry ({schema}): {p} — ecalls {e}, ocalls {o}, gc collections {g}, rmi calls {r}",
        schema = telemetry::SCHEMA,
        p = path.display(),
        e = snap.counter(Counter::Ecalls),
        o = snap.counter(Counter::Ocalls),
        g = snap.counter(Counter::GcCollections),
        r = snap.counter(Counter::RmiCalls),
    );
    Ok(())
}

/// Exports telemetry if `--telemetry-out` was passed; every figure/table
/// binary calls this as its last step. Export failures are reported on
/// stderr but do not fail the experiment.
pub fn maybe_export_telemetry() {
    if let Some(path) = telemetry_out_from_args() {
        if let Err(e) = export_telemetry(&path) {
            eprintln!("telemetry: failed to write {}: {e}", path.display());
        }
    }
}

/// Parses `--trace-out <path>` (or `--trace-out=<path>`) from the CLI
/// arguments.
pub fn trace_out_from_args() -> Option<PathBuf> {
    arg_path("--trace-out")
}

/// Enables the process-global tracer when `--trace-out` was passed.
/// Every figure/table binary calls this before its first run, so each
/// crossing of the experiment lands in the capture
/// ([`maybe_export_trace`] writes it out at the end). Returns whether
/// tracing is on.
pub fn init_tracing_from_args() -> bool {
    if trace_out_from_args().is_some() {
        telemetry::trace::Tracer::global().enable();
        true
    } else {
        false
    }
}

/// Exports the captured causal trace as Chrome trace-event JSON
/// ([`telemetry::trace::TRACE_SCHEMA`]) if `--trace-out` was passed;
/// every figure/table binary calls this right after
/// [`maybe_export_telemetry`]. The aggregate `rmi.calls` counter rides
/// along in `otherData` so `montsalvat trace-report` can reconcile the
/// trace against telemetry. Export failures are reported on stderr but
/// do not fail the experiment.
pub fn maybe_export_trace() {
    let Some(path) = trace_out_from_args() else { return };
    let tracer = telemetry::trace::Tracer::global();
    let aggregate = telemetry::aggregate();
    let json = tracer.to_chrome_json(&[
        ("rmi_calls", aggregate.counter(telemetry::Counter::RmiCalls)),
        ("sched_steals", aggregate.counter(telemetry::Counter::SchedSteals)),
        ("sched_timeouts", aggregate.counter(telemetry::Counter::SchedTimeouts)),
    ]);
    match std::fs::write(&path, json) {
        Ok(()) => println!(
            "trace ({schema}): {p} — {n} events, {d} dropped; load in Perfetto or run \
             `montsalvat trace-report {p}`",
            schema = telemetry::trace::TRACE_SCHEMA,
            p = path.display(),
            n = tracer.event_count(),
            d = tracer.dropped(),
        ),
        Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
    }
}

/// Schema id of the envelope [`Gate::finish`] writes.
pub const BENCH_SCHEMA: &str = "montsalvat.bench/v1";

/// One named claim of a gated experiment bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// Dotted name, unique within the bin (`gc.block_p95_pause_lower`).
    pub name: String,
    /// The observed value, rendered from its own type: integers are
    /// never routed through `f64`.
    pub observed: String,
    /// The bound it was held to (`< 1386888`, `== 0`, ...).
    pub bound: String,
    /// Whether the observed value met the bound.
    pub ok: bool,
}

/// The closing claims of one experiment bin, evaluated in Rust.
///
/// The comparison helpers compare values of their own type, so
/// checksums and counters compare as integers. The bin ends with
/// [`Gate::finish`], which writes one [`BENCH_SCHEMA`] envelope
/// `{schema, bin, scale, ok, checks}` to `--json-out`, prints every
/// check, and exits non-zero if any failed.
#[derive(Debug)]
pub struct Gate {
    bin: &'static str,
    scale: Scale,
    checks: Vec<Check>,
}

impl Gate {
    /// An empty gate for `bin` run at `scale`.
    pub fn new(bin: &'static str, scale: Scale) -> Gate {
        Gate { bin, scale, checks: Vec::new() }
    }

    /// Records a check whose verdict the caller computed.
    ///
    /// # Panics
    ///
    /// On a duplicate name: each claim appears once in the envelope.
    pub fn check(
        &mut self,
        name: impl Into<String>,
        ok: bool,
        observed: impl Display,
        bound: impl Display,
    ) {
        let name = name.into();
        assert!(!self.checks.iter().any(|c| c.name == name), "duplicate gate check `{name}`");
        self.checks.push(Check {
            name,
            observed: observed.to_string(),
            bound: bound.to_string(),
            ok,
        });
    }

    /// `observed == expected`.
    pub fn eq<T: PartialEq + Display>(
        &mut self,
        name: impl Into<String>,
        observed: T,
        expected: T,
    ) {
        let ok = observed == expected;
        self.check(name, ok, observed, format_args!("== {expected}"));
    }

    /// `observed < bound` (strict).
    pub fn lt<T: PartialOrd + Display>(&mut self, name: impl Into<String>, observed: T, bound: T) {
        let ok = observed < bound;
        self.check(name, ok, observed, format_args!("< {bound}"));
    }

    /// `observed <= bound`.
    pub fn le<T: PartialOrd + Display>(&mut self, name: impl Into<String>, observed: T, bound: T) {
        let ok = observed <= bound;
        self.check(name, ok, observed, format_args!("<= {bound}"));
    }

    /// `observed > bound` (strict).
    pub fn gt<T: PartialOrd + Display>(&mut self, name: impl Into<String>, observed: T, bound: T) {
        let ok = observed > bound;
        self.check(name, ok, observed, format_args!("> {bound}"));
    }

    /// `observed >= bound`.
    pub fn ge<T: PartialOrd + Display>(&mut self, name: impl Into<String>, observed: T, bound: T) {
        let ok = observed >= bound;
        self.check(name, ok, observed, format_args!(">= {bound}"));
    }

    /// When `--trace-out` was passed, re-reads the written export
    /// through [`telemetry::trace::parse_chrome_trace`] and checks it
    /// has begin events, one end per begin, and cat-`rmi` spans. Call
    /// after [`maybe_export_trace`].
    pub fn check_trace_export(&mut self) {
        let Some(path) = trace_out_from_args() else { return };
        let events = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| telemetry::trace::parse_chrome_trace(&text).ok())
            .map(|trace| trace.events)
            .unwrap_or_default();
        let count = |cat: Option<&str>, ph: char| {
            events.iter().filter(|e| e.ph == ph && cat.map_or(true, |c| e.cat == c)).count() as u64
        };
        let begins = count(None, 'B');
        self.gt("trace.begins", begins, 0);
        self.eq("trace.balanced", count(None, 'E'), begins);
        self.gt("trace.rmi_spans", count(Some("rmi"), 'B'), 0);
    }

    /// The checks recorded so far, in order.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The [`BENCH_SCHEMA`] envelope. Values are JSON strings, so u64s
    /// survive readers that parse numbers as `f64`.
    pub fn to_json(&self) -> String {
        use telemetry::json::escape;
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "    {{\"name\": \"{}\", \"observed\": \"{}\", \"bound\": \"{}\", \"ok\": {}}}",
                    escape(&c.name),
                    escape(&c.observed),
                    escape(&c.bound),
                    c.ok
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"bin\": \"{}\",\n  \"scale\": \"{}\",\n  \
             \"ok\": {},\n  \"checks\": [\n{}\n  ]\n}}\n",
            self.bin,
            self.scale.name(),
            self.ok(),
            checks.join(",\n")
        )
    }

    /// Prints every check, writes the envelope to `--json-out` when
    /// given, and exits with status 1 naming the failed checks if any
    /// failed.
    pub fn finish(self) {
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            println!("{verdict} {}: {} (bound {})", c.name, c.observed, c.bound);
        }
        if let Some(path) = arg_path("--json-out") {
            std::fs::write(&path, self.to_json())
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("gate ({BENCH_SCHEMA}): {}", path.display());
        }
        let failed: Vec<&str> =
            self.checks.iter().filter(|c| !c.ok).map(|c| c.name.as_str()).collect();
        if !failed.is_empty() {
            eprintln!(
                "{}: {} of {} checks failed: {}",
                self.bin,
                failed.len(),
                self.checks.len(),
                failed.join(", ")
            );
            std::process::exit(1);
        }
        println!("{}: all {} checks ok", self.bin, self.checks.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failing_check_fails_the_gate() {
        let mut gate = Gate::new("unit", Scale::Quick);
        gate.lt("a.strict", 3u64, 4);
        gate.gt("b.nonzero", 0u64, 0);
        assert!(!gate.ok());
        let json = gate.to_json();
        assert!(json.contains("\"ok\": false"));
        assert_eq!(gate.checks().iter().filter(|c| !c.ok).count(), 1);
        assert_eq!(gate.checks()[1].bound, "> 0");
    }

    #[test]
    fn checksums_above_2_pow_53_compare_as_integers() {
        // Both round to 2^63 through f64; as u64 they differ in bit 9.
        let (a, b) = ((1u64 << 63) | 0x001, (1u64 << 63) | 0x201);
        assert_eq!(a as f64, b as f64);
        let mut gate = Gate::new("unit", Scale::Quick);
        gate.eq("checksum", a, b);
        assert!(!gate.ok());
        assert_eq!(gate.checks()[0].observed, a.to_string());
    }

    #[test]
    #[should_panic(expected = "duplicate gate check `x`")]
    fn duplicate_check_names_are_rejected() {
        let mut gate = Gate::new("unit", Scale::Full);
        gate.eq("x", 1, 1);
        gate.eq("x", 2, 2);
    }

    #[test]
    fn envelope_reads_back_through_the_shared_reader() {
        use telemetry::json::{field_bool, field_str, unescape};
        let mut gate = Gate::new("unit", Scale::Full);
        gate.eq("c.big", u64::MAX, u64::MAX);
        gate.check("c.quoted", true, "say \"hi\"", "any");
        let doc = gate.to_json();
        assert_eq!(field_str(&doc, "schema"), Some(BENCH_SCHEMA));
        assert_eq!(field_str(&doc, "bin"), Some("unit"));
        assert_eq!(field_str(&doc, "scale"), Some("full"));
        assert_eq!(field_bool(&doc, "ok"), Some(true));
        let checks: Vec<(String, String, bool)> = doc
            .lines()
            .filter(|l| l.trim_start().starts_with("{\"name\""))
            .map(|l| {
                let name = field_str(l, "name").map(unescape).unwrap();
                let observed = field_str(l, "observed").map(unescape).unwrap();
                (name, observed, field_bool(l, "ok").unwrap())
            })
            .collect();
        assert_eq!(
            checks,
            vec![
                ("c.big".into(), u64::MAX.to_string(), true),
                ("c.quoted".into(), "say \"hi\"".into(), true),
            ]
        );
    }

    #[test]
    fn series_mean_and_ratio() {
        let mut a = Series::new("a");
        a.push(1.0, 2.0);
        a.push(2.0, 4.0);
        let mut b = Series::new("b");
        b.push(1.0, 1.0);
        b.push(2.0, 2.0);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(mean_ratio(&a, &b), 2.0);
    }

    #[test]
    fn empty_series_are_safe() {
        let a = Series::new("a");
        assert_eq!(a.mean(), 0.0);
        assert!(mean_ratio(&a, &a).is_nan());
        print_figure("empty", "x", &[a]);
    }
}
