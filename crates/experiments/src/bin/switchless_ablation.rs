//! Ablation: classic crossings vs the switchless scheduler, on real
//! `PartitionedApp`s, over two workloads.
//!
//! - **Bursty.** Each burst fires several caller threads at once
//!   against a trusted object's `set`/`get`, then goes quiet — the
//!   arrival pattern adaptive scaling targets (scale up inside the
//!   burst, park and retire between bursts). Modes: classic, two fixed
//!   executors per side (`fixed2`) and miss-driven scaling up to 8
//!   executors (`adaptive`). At full scale 16 callers outnumber those 8
//!   executors and the quiet gaps outlast `idle_park`, so the pool is
//!   grown and retired in every burst.
//! - **Nested.** Concurrent callers invoke `@Trusted TNest.ping`, whose
//!   body crosses back out of the enclave twice
//!   ([`experiments::progs::nested_bench_program`]), through classic
//!   crossings and the scheduler, which suspends the serve task on
//!   each nested crossing instead of blocking its executor.
//!
//! Runs under [`ClockMode::Virtual`], so every reported time is model
//! time ([`CostModel::charged`](sgx_sim::cost::CostModel::charged))
//! independent of host core count; throughput is calls per *modelled*
//! second. The nested table also prints p50/p99 per-call model time
//! from the `rmi.call_ns` and `rmi.switchless_call_ns` histograms
//! (log2 bucket bounds); those are reported, not gated.
//!
//! Gated (`experiments::report::Gate`): every switchless mode serves
//! calls with strictly fewer charged hardware transitions than classic,
//! reconciles `rmi.calls == hits + fallbacks`, and records one
//! task-wait sample per hit; the adaptive engine's throughput is at
//! least 0.95x the fixed engine's (a small tolerance for scheduling
//! variation in fallback counts), and adaptive executors park and wake
//! between bursts. On the nested workload the scheduler's reply
//! checksum equals classic's, it reconciles, and it both steals and
//! suspends. With `--trace-out`, the re-read export must hold balanced
//! spans and cat-`rmi` spans.
//!
//! `--quick` shrinks both workloads; `--json-out <path>` writes the
//! `montsalvat.bench/v1` envelope; `--telemetry-out <path>` exports
//! aggregated telemetry and, per run, `<path>.<label>.json`.

use std::time::Duration;

use experiments::report::{print_table, telemetry_out_from_args, Gate, Scale};
use montsalvat_core::class::{MethodRef, Program};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::{Scaling, SwitchlessConfig};
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use montsalvat_core::{Ctx, VmError};
use runtime_sim::value::Value;
use sgx_sim::cost::ClockMode;
use telemetry::{Counter, Hist};

/// One run's outcome.
struct Run {
    label: &'static str,
    /// Proxy calls the callers performed.
    calls: u64,
    /// Model time charged across the run, seconds.
    charged_s: f64,
    /// Charged hardware transitions (ecalls + ocalls).
    transitions: u64,
    /// Per-app telemetry at the end of the run.
    snap: telemetry::Snapshot,
}

impl Run {
    fn throughput(&self) -> f64 {
        self.calls as f64 / self.charged_s
    }

    fn counter(&self, counter: Counter) -> u64 {
        self.snap.counter(counter)
    }
}

fn launch(
    program: &Program,
    entries: Vec<MethodRef>,
    switchless: Option<SwitchlessConfig>,
) -> PartitionedApp {
    let tp = transform(program);
    let options = ImageOptions::with_entry_points(entries);
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images build");
    let config = AppConfig {
        gc_helper_interval: None,
        clock_mode: ClockMode::Virtual,
        switchless,
        ..AppConfig::default()
    };
    PartitionedApp::launch(&t, &u, config).expect("launch")
}

/// Runs `body(caller_index, ctx)` on `threads` concurrent untrusted
/// callers and returns their results in spawn order.
fn callers<R: Send>(
    app: &PartitionedApp,
    threads: usize,
    body: impl Fn(usize, &mut Ctx<'_>) -> Result<R, VmError> + Sync,
) -> Vec<R> {
    let body = &body;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || app.enter_untrusted(|ctx| body(t, ctx)).expect("caller runs")))
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller joins")).collect()
    })
}

/// Freezes `app`'s model time, transitions and telemetry, then shuts
/// it down.
fn finish(label: &'static str, app: PartitionedApp, charged0: Duration, calls: u64) -> Run {
    let charged_s = (app.shared.cost.charged() - charged0).as_secs_f64();
    let sgx = app.sgx_stats();
    let snap = app.telemetry_snapshot();
    app.shutdown();
    Run { label, calls, charged_s, transitions: sgx.ecalls + sgx.ocalls, snap }
}

/// The bursty workload: `bursts` times, `threads` callers each make
/// `calls` `set` calls and a final `get`.
fn run_bursty(
    label: &'static str,
    switchless: Option<SwitchlessConfig>,
    bursts: usize,
    threads: usize,
    calls: i64,
) -> Run {
    let program = experiments::progs::proxy_bench_program();
    let app = launch(&program, experiments::progs::proxy_bench_entries(), switchless);
    // Quick keeps the gap short for CI; Full stretches it past the
    // default `idle_park` so the adaptive run also exercises retirement
    // (visible as scale-downs in the table).
    let quiet = if bursts > 8 { Duration::from_millis(30) } else { Duration::from_millis(8) };
    let charged0 = app.shared.cost.charged();
    for _ in 0..bursts {
        callers(&app, threads, |_, ctx| {
            let obj = ctx.new_object("TObj", &[Value::Int(0)])?;
            for i in 0..calls {
                ctx.call(&obj, "set", &[Value::Int(i)])?;
            }
            let got = ctx.call(&obj, "get", &[])?;
            assert_eq!(got, Value::Int(calls - 1), "proxy calls must land");
            Ok(())
        });
        // Quiet gap: long enough for adaptive workers to park (and,
        // past idle_park, retire) between bursts.
        std::thread::sleep(quiet);
    }
    // +2 per caller thread: the construction and final `get` crossings.
    let calls = (bursts * threads) as u64 * (calls as u64 + 2);
    finish(label, app, charged0, calls)
}

/// The nested workload: `threads` callers × `calls` `ping`s. Returns
/// the run and an FNV-1a checksum over every reply, folded in
/// caller-then-call order so it is engine-independent.
fn run_nested(
    label: &'static str,
    switchless: Option<SwitchlessConfig>,
    threads: usize,
    calls: i64,
) -> (Run, u64) {
    let program = experiments::progs::nested_bench_program();
    let app = launch(&program, experiments::progs::nested_bench_entries(), switchless);
    let charged0 = app.shared.cost.charged();
    let replies = callers(&app, threads, |t, ctx| {
        let obj = ctx.new_object("TNest", &[])?;
        (0..calls)
            .map(|i| {
                let x = t as i64 * 1_000_000 + i;
                let got = ctx.call(&obj, "ping", &[Value::Int(x)])?;
                assert_eq!(got, Value::Int(x), "nested ping must echo its argument");
                Ok(x)
            })
            .collect::<Result<Vec<i64>, VmError>>()
    });
    let mut checksum = 0xCBF2_9CE4_8422_2325u64;
    for byte in replies.iter().flatten().flat_map(|x| x.to_le_bytes()) {
        checksum ^= u64::from(byte);
        checksum = checksum.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let run = finish(label, app, charged0, threads as u64 * calls as u64);
    (run, checksum)
}

fn main() {
    experiments::report::init_tracing_from_args();
    let scale = Scale::from_args();
    let (bursts, threads, calls, nested_threads, nested_calls) = match scale {
        Scale::Quick => (6, 4, 8, 6, 40),
        Scale::Full => (16, 16, 32, 8, 200),
    };
    println!(
        "switchless ablation: {bursts} bursts x {threads} callers x {calls} calls, then \
         {nested_threads} callers x {nested_calls} nested pings (model time, ClockMode::Virtual)"
    );

    let adaptive_config = SwitchlessConfig {
        min_workers: 1,
        autotune: Some(Scaling { max_workers: 8, scale_up_misses: 2 }),
        ..SwitchlessConfig::default()
    };
    let bursty = [
        run_bursty("classic", None, bursts, threads, calls),
        run_bursty("fixed2", Some(SwitchlessConfig::fixed(2)), bursts, threads, calls),
        run_bursty("adaptive", Some(adaptive_config), bursts, threads, calls),
    ];

    let rows: Vec<Vec<String>> = bursty
        .iter()
        .map(|m| {
            let hits = m.counter(Counter::SwitchlessCalls);
            let rmi = m.counter(Counter::RmiCalls);
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
                m.counter(Counter::SwitchlessFallbacks).to_string(),
                m.counter(Counter::SwitchlessWorkerWakes).to_string(),
                format!(
                    "{}/{}",
                    m.counter(Counter::SwitchlessScaleUps),
                    m.counter(Counter::SwitchlessScaleDowns)
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

    let sched_config = SwitchlessConfig {
        min_workers: 4,
        autotune: Some(Scaling { max_workers: 8, scale_up_misses: 4 }),
        ..Default::default()
    };
    let (nested_classic, classic_sum) =
        run_nested("nested-classic", None, nested_threads, nested_calls);
    let (nested_sched, sched_sum) =
        run_nested("nested-scheduler", Some(sched_config), nested_threads, nested_calls);

    let rows: Vec<Vec<String>> = [&nested_classic, &nested_sched]
        .iter()
        .map(|r| {
            // Hits record into the switchless histogram, classic
            // crossings and fallbacks into the classic one.
            let mut call_ns = r.snap.hist(Hist::RmiCallNs).clone();
            call_ns.merge(r.snap.hist(Hist::SwitchlessCallNs));
            vec![
                r.label.to_owned(),
                r.calls.to_string(),
                format!("{:.3}", r.charged_s * 1e3),
                r.counter(Counter::RmiCalls).to_string(),
                r.counter(Counter::SwitchlessCalls).to_string(),
                r.counter(Counter::SwitchlessFallbacks).to_string(),
                r.counter(Counter::SchedSteals).to_string(),
                r.counter(Counter::SchedSuspends).to_string(),
                r.counter(Counter::SchedTimeouts).to_string(),
                call_ns.quantile(0.50).to_string(),
                call_ns.quantile(0.99).to_string(),
            ]
        })
        .collect();
    print_table(
        "Switchless ablation (nested crossings)",
        &[
            "mode", "pings", "model ms", "rmi", "hits", "fbk", "steals", "susp", "t/o", "p50 ns",
            "p99 ns",
        ],
        &rows,
    );

    // Per-run telemetry export next to the aggregate.
    if let Some(path) = telemetry_out_from_args() {
        for m in bursty.iter().chain([&nested_classic, &nested_sched]) {
            let run_path = path.with_extension(format!("{}.json", m.label));
            std::fs::write(&run_path, m.snap.to_json()).expect("write run telemetry");
            println!("telemetry ({}): {}", m.label, run_path.display());
        }
    }
    experiments::report::maybe_export_telemetry();
    experiments::report::maybe_export_trace();

    // The claims this ablation exists to demonstrate.
    let [classic, fixed, adaptive] = &bursty;
    let mut gate = Gate::new("switchless_ablation", scale);
    for sw in [fixed, adaptive] {
        let name = format!("switchless.{}", sw.label);
        let hits = sw.counter(Counter::SwitchlessCalls);
        gate.lt(format!("{name}.fewer_transitions"), sw.transitions, classic.transitions);
        gate.gt(format!("{name}.hits"), hits, 0);
        gate.eq(
            format!("{name}.reconciles"),
            sw.counter(Counter::RmiCalls),
            hits + sw.counter(Counter::SwitchlessFallbacks),
        );
        gate.eq(
            format!("{name}.task_wait_samples"),
            sw.snap.hist(Hist::SchedTaskWaitNs).count,
            hits,
        );
    }
    gate.ge("switchless.adaptive.throughput", adaptive.throughput(), fixed.throughput() * 0.95);
    gate.gt("switchless.adaptive.wakes", adaptive.counter(Counter::SwitchlessWorkerWakes), 0);
    gate.eq("switchless.nested.checksums_match", sched_sum, classic_sum);
    gate.eq(
        "switchless.nested.reconciles",
        nested_sched.counter(Counter::RmiCalls),
        nested_sched.counter(Counter::SwitchlessCalls)
            + nested_sched.counter(Counter::SwitchlessFallbacks),
    );
    gate.gt("switchless.nested.steals", nested_sched.counter(Counter::SchedSteals), 0);
    gate.gt("switchless.nested.suspends", nested_sched.counter(Counter::SchedSuspends), 0);
    gate.check_trace_export();
    gate.finish();
}
