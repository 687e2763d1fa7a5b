//! Ablation: classic crossings vs the switchless scheduler with two
//! fixed executors per side vs the adaptive scheduler, under bursty
//! concurrent load.
//!
//! Each burst fires several caller threads at once against a trusted
//! object, then goes quiet — the arrival pattern adaptive scaling
//! targets (scale up inside the burst, park and retire between
//! bursts). Runs under [`ClockMode::Virtual`], so every reported time
//! is deterministic model time
//! ([`CostModel::charged`](sgx_sim::cost::CostModel::charged))
//! independent of host core count; throughput is calls per *modelled*
//! second.
//!
//! Gated (`experiments::report::Gate`): both switchless modes serve
//! calls with strictly fewer charged hardware transitions than classic,
//! the adaptive engine's throughput is at least 0.95x the fixed
//! engine's (a small tolerance for scheduling variation in fallback
//! counts), and adaptive executors park and wake between bursts. With
//! `--trace-out`, the re-read export must hold balanced spans and
//! cat-`rmi` spans.
//!
//! `--quick` shrinks the burst schedule; `--json-out <path>` writes the
//! `montsalvat.bench/v1` envelope; `--telemetry-out <path>` exports
//! aggregated telemetry and, per mode, `<path>.<mode>.json`.

use std::sync::Arc;
use std::time::Duration;

use experiments::report::{print_table, telemetry_out_from_args, Gate, Scale};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::SwitchlessConfig;
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use runtime_sim::value::Value;
use sgx_sim::cost::ClockMode;
use telemetry::Counter;

/// One mode's outcome over the whole burst schedule.
struct ModeResult {
    label: &'static str,
    /// Proxy calls performed (all bursts).
    calls: u64,
    /// Model time charged across the run, seconds.
    charged_s: f64,
    /// Charged hardware transitions (ecalls + ocalls).
    transitions: u64,
    /// Per-app telemetry at the end of the run.
    snap: telemetry::Snapshot,
}

impl ModeResult {
    fn throughput(&self) -> f64 {
        self.calls as f64 / self.charged_s
    }
}

fn launch(switchless: Option<SwitchlessConfig>) -> Arc<PartitionedApp> {
    let tp = transform(&experiments::progs::proxy_bench_program());
    let options = ImageOptions::with_entry_points(experiments::progs::proxy_bench_entries());
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images build");
    let config = AppConfig {
        gc_helper_interval: None,
        clock_mode: ClockMode::Virtual,
        switchless,
        ..AppConfig::default()
    };
    Arc::new(PartitionedApp::launch(&t, &u, config).expect("launch"))
}

/// Fires one burst: `threads` callers each make `calls` proxy calls.
fn burst(app: &Arc<PartitionedApp>, threads: usize, calls: i64) {
    let mut handles = Vec::with_capacity(threads);
    for _ in 0..threads {
        let app = Arc::clone(app);
        handles.push(std::thread::spawn(move || {
            app.enter_untrusted(|ctx| {
                let obj = ctx.new_object("TObj", &[Value::Int(0)])?;
                for i in 0..calls {
                    ctx.call(&obj, "set", &[Value::Int(i)])?;
                }
                let got = ctx.call(&obj, "get", &[])?;
                assert_eq!(got, Value::Int(calls - 1), "proxy calls must land");
                Ok(())
            })
            .unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

fn run_mode(
    label: &'static str,
    switchless: Option<SwitchlessConfig>,
    bursts: usize,
    threads: usize,
    calls: i64,
) -> ModeResult {
    let app = launch(switchless);
    // Quick keeps the gap short for CI; Full stretches it past the
    // default `idle_park` so the adaptive run also exercises retirement
    // (visible as scale-downs in the table).
    let quiet = if bursts > 8 { Duration::from_millis(30) } else { Duration::from_millis(8) };
    let charged0 = app.shared.cost.charged();
    for _ in 0..bursts {
        burst(&app, threads, calls);
        // Quiet gap: long enough for adaptive workers to park (and,
        // past idle_park, retire) between bursts.
        std::thread::sleep(quiet);
    }
    let charged_s = (app.shared.cost.charged() - charged0).as_secs_f64();
    let sgx = app.sgx_stats();
    let snap = app.telemetry_snapshot();
    // +2 per caller thread: the construction and final `get` crossings.
    let calls = (bursts * threads) as u64 * (calls as u64 + 2);
    ModeResult { label, calls, charged_s, transitions: sgx.ecalls + sgx.ocalls, snap }
}

fn main() {
    experiments::report::init_tracing_from_args();
    let scale = Scale::from_args();
    let (bursts, threads, calls) = match scale {
        Scale::Quick => (6, 4, 8),
        Scale::Full => (16, 8, 32),
    };
    println!(
        "switchless ablation: {bursts} bursts x {threads} callers x {calls} calls \
         (model time, ClockMode::Virtual)"
    );

    let adaptive_config = SwitchlessConfig {
        min_workers: 1,
        max_workers: 8,
        scale_up_misses: 2,
        ..SwitchlessConfig::default()
    };
    let modes = [
        run_mode("classic", None, bursts, threads, calls),
        run_mode("fixed2", Some(SwitchlessConfig::fixed(2)), bursts, threads, calls),
        run_mode("adaptive", Some(adaptive_config), bursts, threads, calls),
    ];

    let rows: Vec<Vec<String>> = modes
        .iter()
        .map(|m| {
            let hits = m.snap.counter(Counter::SwitchlessCalls);
            let rmi = m.snap.counter(Counter::RmiCalls);
            vec![
                m.label.to_owned(),
                format!("{:.3}", m.charged_s * 1e3),
                format!("{:.0}", m.throughput()),
                m.transitions.to_string(),
                if rmi == 0 {
                    "-".into()
                } else {
                    format!("{:.0}%", 100.0 * hits as f64 / rmi as f64)
                },
                m.snap.counter(Counter::SwitchlessFallbacks).to_string(),
                m.snap.counter(Counter::SwitchlessWorkerWakes).to_string(),
                format!(
                    "{}/{}",
                    m.snap.counter(Counter::SwitchlessScaleUps),
                    m.snap.counter(Counter::SwitchlessScaleDowns)
                ),
            ]
        })
        .collect();
    print_table(
        "Switchless ablation (bursty load)",
        &[
            "mode",
            "model ms",
            "calls/model-s",
            "transitions",
            "hit rate",
            "fallbacks",
            "wakes",
            "scale +/-",
        ],
        &rows,
    );

    let [classic, fixed, adaptive] = &modes;

    // Per-mode telemetry export next to the aggregate.
    if let Some(path) = telemetry_out_from_args() {
        for m in &modes {
            let mode_path = path.with_extension(format!("{}.json", m.label));
            std::fs::write(&mode_path, m.snap.to_json()).expect("write mode telemetry");
            println!("telemetry ({}): {}", m.label, mode_path.display());
        }
    }
    experiments::report::maybe_export_telemetry();
    experiments::report::maybe_export_trace();

    // The claims this ablation exists to demonstrate.
    let mut gate = Gate::new("switchless_ablation", scale);
    for sw in [fixed, adaptive] {
        let name = format!("switchless.{}", sw.label);
        gate.lt(format!("{name}.fewer_transitions"), sw.transitions, classic.transitions);
        gate.gt(format!("{name}.hits"), sw.snap.counter(Counter::SwitchlessCalls), 0);
    }
    gate.ge("switchless.adaptive.throughput", adaptive.throughput(), fixed.throughput() * 0.95);
    gate.gt("switchless.adaptive.wakes", adaptive.snap.counter(Counter::SwitchlessWorkerWakes), 0);
    gate.check_trace_export();
    gate.finish();
}
