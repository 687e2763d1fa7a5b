//! Open-loop sustained-traffic service run + CI latency-regression gate.
//!
//! Drives the seed-pinned traffic schedule (`experiments::traffic`)
//! through three deployment lanes — `sim-sgx` classic, `sim-sgx`
//! switchless (the work-stealing scheduler) and `passthrough` classic
//! — and prints per-lane p50/p95/p99 model-time latency, throughput
//! and crossing counts.
//!
//! Gated (`experiments::report::Gate`): all lanes compute identical
//! response checksums, the passthrough lane charges strictly less
//! model time than sim-sgx with zero enclave transitions, the
//! switchless lane's crossings reconcile (`rmi.calls == hits +
//! fallbacks`), and the deterministic `sim-sgx-classic` percentiles
//! sit inside the committed baseline's tolerance bands
//! (`results/traffic_baseline.json`). A missing baseline, or one
//! recorded at another scale, fails `traffic.bands_applied`. See
//! `docs/DEPLOYMENT.md`.
//!
//! Flags: `--quick` (CI scale), `--json-out <path>` (the
//! `montsalvat.bench/v1` envelope), `--baseline <path>` (default
//! `results/traffic_baseline.json`), `--update-baseline` (rewrite the
//! baseline from this run before gating), `--telemetry-out <path>`
//! (aggregate telemetry plus `<path>.<lane>.json` per lane).

use std::path::{Path, PathBuf};

use experiments::report::{arg_path, print_table, telemetry_out_from_args, Gate, Scale};
use experiments::traffic::{run_all, Percentiles, TrafficConfig};
use telemetry::json::{field_f64, field_str};

/// Schema identifier of the baseline file.
const BASELINE_SCHEMA: &str = "montsalvat.traffic-baseline/v1";
/// The deterministic lane the baseline bands apply to.
const GATED_LANE: &str = "sim-sgx-classic";
/// Tolerance written into fresh baselines: generous enough for libm
/// ulp drift across hosts, tight enough to catch a real cost-model or
/// crossing-path regression (one extra crossing per request moves p50
/// by far more than this).
const DEFAULT_TOLERANCE: f64 = 0.25;

/// A committed latency baseline for [`GATED_LANE`].
struct Baseline {
    /// The scale the baseline was recorded at.
    scale: String,
    /// `(percentile, expected ns, relative tolerance)` for p50/p95/p99.
    bands: [(&'static str, f64, f64); 3],
}

/// Reads a baseline; `None` when the file is missing or not a
/// [`BASELINE_SCHEMA`] document.
fn load_baseline(path: &Path) -> Option<Baseline> {
    let doc = std::fs::read_to_string(path).ok()?;
    if field_str(&doc, "schema") != Some(BASELINE_SCHEMA) {
        eprintln!("baseline {}: unexpected schema, ignoring", path.display());
        return None;
    }
    let band = |p: &'static str| {
        let expected = field_f64(&doc, &format!("{p}_ns")).unwrap_or(0.0);
        (p, expected, field_f64(&doc, &format!("tol_{p}")).unwrap_or(DEFAULT_TOLERANCE))
    };
    Some(Baseline {
        scale: field_str(&doc, "scale").unwrap_or_default().to_owned(),
        bands: [band("p50"), band("p95"), band("p99")],
    })
}

/// Two-sided bands: a faster result outside the band also fails, so the
/// committed baseline tracks the real trajectory instead of silently
/// going stale after an improvement (refresh with `--update-baseline`).
/// No baseline at this scale fails `traffic.bands_applied`.
fn band_checks(gate: &mut Gate, baseline: Option<&Baseline>, scale: Scale, latency: &Percentiles) {
    let applied = baseline.filter(|b| b.scale == scale.name());
    let found = baseline.map_or("none".to_owned(), |b| format!("scale {}", b.scale));
    gate.check(
        "traffic.bands_applied",
        applied.is_some(),
        found,
        format_args!("scale {}", scale.name()),
    );
    let Some(baseline) = applied else { return };
    let observed = [latency.p50_ns, latency.p95_ns, latency.p99_ns];
    for (&(p, expected, tol), observed) in baseline.bands.iter().zip(observed) {
        gate.check(
            format!("traffic.{p}_in_band"),
            (observed as f64 - expected).abs() <= expected * tol,
            observed,
            format_args!("{expected:.0} ± {:.0}%", tol * 100.0),
        );
    }
}

fn write_baseline(path: &Path, scale: Scale, latency: &Percentiles) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = format!(
        "{{\n  \"schema\": \"{BASELINE_SCHEMA}\",\n  \"lane\": \"{GATED_LANE}\",\n  \
         \"scale\": \"{}\",\n  \"p50_ns\": {},\n  \"p95_ns\": {},\n  \
         \"p99_ns\": {},\n  \"tol_p50\": {DEFAULT_TOLERANCE},\n  \"tol_p95\": \
         {DEFAULT_TOLERANCE},\n  \"tol_p99\": {DEFAULT_TOLERANCE}\n}}\n",
        scale.name(),
        latency.p50_ns,
        latency.p95_ns,
        latency.p99_ns,
    );
    std::fs::write(path, doc)
}

fn main() {
    experiments::report::init_tracing_from_args();
    let scale = Scale::from_args();
    let cfg = TrafficConfig::for_scale(scale);
    println!(
        "traffic: {} requests, {} keys (zipf {}), mean gap {} ns, burst x{}, {}% reads \
         (open loop, model time)",
        cfg.requests,
        cfg.key_space,
        cfg.zipf_exponent,
        cfg.mean_interarrival_ns,
        cfg.burst_factor,
        cfg.read_pct
    );

    let lanes = run_all(&cfg).expect("traffic lanes run");
    let gated = lanes.iter().find(|l| l.spec.name == GATED_LANE).expect("gated lane ran");
    let switchless_lane = lanes.iter().find(|l| l.spec.switchless).expect("switchless lane ran");
    let passthrough = lanes
        .iter()
        .find(|l| l.spec.provider == montsalvat_core::ProviderKind::PassThrough)
        .expect("passthrough lane ran");

    let rows: Vec<Vec<String>> = lanes
        .iter()
        .map(|l| {
            vec![
                l.spec.name.to_owned(),
                format!("{:.3}", l.latency.p50_ns as f64 / 1e6),
                format!("{:.3}", l.latency.p95_ns as f64 / 1e6),
                format!("{:.3}", l.latency.p99_ns as f64 / 1e6),
                format!("{:.0}", l.throughput_rps),
                l.rmi_calls().to_string(),
                l.switchless_hits().to_string(),
                l.switchless_fallbacks().to_string(),
                l.transitions().to_string(),
            ]
        })
        .collect();
    print_table(
        "Open-loop traffic by deployment lane (model-time latency)",
        &["lane", "p50 ms", "p95 ms", "p99 ms", "req/s", "rmi", "sw hits", "sw fb", "trans"],
        &rows,
    );

    let baseline_path =
        arg_path("--baseline").unwrap_or_else(|| PathBuf::from("results/traffic_baseline.json"));
    if std::env::args().any(|a| a == "--update-baseline") {
        write_baseline(&baseline_path, scale, &gated.latency).expect("write baseline");
        println!(
            "baseline updated: {} (lane {GATED_LANE}, scale {}, p50 {} / p95 {} / p99 {} ns)",
            baseline_path.display(),
            scale.name(),
            gated.latency.p50_ns,
            gated.latency.p95_ns,
            gated.latency.p99_ns
        );
    }
    let baseline = load_baseline(&baseline_path);

    if let Some(path) = telemetry_out_from_args() {
        for lane in &lanes {
            let lane_path = path.with_extension(format!("{}.json", lane.spec.name));
            std::fs::write(&lane_path, lane.snap.to_json()).expect("write lane telemetry");
            println!("telemetry ({}): {}", lane.spec.name, lane_path.display());
        }
    }
    experiments::report::maybe_export_telemetry();
    experiments::report::maybe_export_trace();

    // Invariants this harness exists to hold, then the latency bands.
    let mut gate = Gate::new("traffic_service", scale);
    for lane in lanes.iter().filter(|l| l.spec.name != GATED_LANE) {
        gate.eq(format!("traffic.{}.checksum", lane.spec.name), lane.checksum, gated.checksum);
    }
    gate.eq("traffic.passthrough_transitions", passthrough.transitions(), 0);
    gate.lt("traffic.passthrough_model_time_lower", passthrough.model_time_ns, gated.model_time_ns);
    gate.eq(
        "traffic.switchless_reconciles",
        switchless_lane.rmi_calls(),
        switchless_lane.switchless_hits() + switchless_lane.switchless_fallbacks(),
    );
    band_checks(&mut gate, baseline.as_ref(), scale, &gated.latency);
    gate.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(scale: &str) -> Baseline {
        Baseline {
            scale: scale.to_owned(),
            bands: [("p50", 100.0, 0.25), ("p95", 200.0, 0.25), ("p99", 400.0, 0.25)],
        }
    }

    fn latency(p50_ns: u64, p95_ns: u64, p99_ns: u64) -> Percentiles {
        Percentiles { p50_ns, p95_ns, p99_ns, ..Percentiles::default() }
    }

    fn failed(gate: &Gate) -> Vec<&str> {
        gate.checks().iter().filter(|c| !c.ok).map(|c| c.name.as_str()).collect()
    }

    #[test]
    fn missing_or_other_scale_baseline_fails_bands_applied() {
        for b in [None, Some(baseline("full"))] {
            let mut gate = Gate::new("traffic_service", Scale::Quick);
            band_checks(&mut gate, b.as_ref(), Scale::Quick, &latency(100, 200, 400));
            assert!(!gate.ok());
            assert_eq!(failed(&gate), ["traffic.bands_applied"]);
            assert_eq!(gate.checks().len(), 1, "no band is checked without a baseline");
        }
    }

    #[test]
    fn bands_are_two_sided() {
        let mut gate = Gate::new("traffic_service", Scale::Quick);
        band_checks(&mut gate, Some(&baseline("quick")), Scale::Quick, &latency(125, 149, 400));
        assert_eq!(failed(&gate), ["traffic.p95_in_band"]);
        assert_eq!(gate.checks().len(), 4);
    }

    #[test]
    fn committed_baseline_reads_back() {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/traffic_baseline.json");
        let b = load_baseline(&path).expect("committed baseline parses");
        assert_eq!(b.scale, "quick");
        assert_eq!(
            b.bands,
            [("p50", 109_429.0, 0.25), ("p95", 1_386_888.0, 0.25), ("p99", 1_565_470.0, 0.25)]
        );
        assert!(load_baseline(Path::new("/nonexistent/baseline.json")).is_none());
    }
}
