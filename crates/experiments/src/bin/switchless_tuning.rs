//! Switchless-tuning policy comparison: a static executor pool vs the
//! miss-driven law vs the trace-driven controller, over bursty and
//! steady arrivals in the deterministic simulator
//! ([`experiments::tuning`]).
//!
//! Everything is pure model time with a pinned seed — the numbers are
//! bit-for-bit reproducible, so the claims below are asserted exactly
//! (and re-checked in CI from the exported telemetry):
//!
//! - under bursty load the trace-driven controller's total model cost
//!   does not exceed the miss-driven law's, and it demonstrably acted
//!   (`rmi.switchless_tune_ups > 0`);
//! - every run reconciles: `rmi.calls == rmi.switchless_calls +
//!   rmi.switchless_fallbacks`, and the task-wait histogram
//!   (`rmi.sched_task_wait_ns`) holds one sample per hit.
//!
//! `--quick` shrinks the schedule; `--telemetry-out <path>` exports
//! aggregated telemetry plus, per run, `<path>.<workload>.<policy>.json`.

use experiments::report::{print_table, telemetry_out_from_args, Scale};
use experiments::tuning::{simulate, Policy, SimConfig, SimResult, Workload};
use montsalvat_core::exec::switchless::tuner::TunerConfig;
use sgx_sim::cost::CostParams;
use telemetry::{Counter, Hist};

fn run_workload(workload: Workload, ticks: u64, params: &CostParams) -> Vec<SimResult> {
    [Policy::Static, Policy::MissDriven, Policy::TraceDriven(TunerConfig::default())]
        .into_iter()
        .map(|policy| simulate(&SimConfig::baseline(ticks, workload, policy), params))
        .collect()
}

fn main() {
    let scale = Scale::from_args();
    let ticks = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 20_000,
    };
    let params = CostParams::paper_defaults();
    println!(
        "switchless tuning: {ticks} ticks per run, deterministic model time \
         (crossing {} ns)",
        params.transition_ns() + params.relay_overhead_ns
    );

    let mut all = Vec::new();
    for workload in [Workload::bursty(), Workload::steady()] {
        let results = run_workload(workload, ticks, &params);
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                let wait = r.snapshot.hist(Hist::SchedTaskWaitNs);
                vec![
                    r.policy.to_owned(),
                    format!("{:.3}", r.total_cost_ns as f64 * 1e-6),
                    format!("{:.3}", r.queue_wait_ns as f64 * 1e-6),
                    r.fallbacks.to_string(),
                    format!("{:.0}", wait.quantile(0.95)),
                    format!("{}/{}", r.tune_ups, r.tune_downs),
                    format!("{}x{}", r.final_workers, r.final_batch),
                ]
            })
            .collect();
        print_table(
            &format!("Switchless tuning ({})", workload.label()),
            &["policy", "model ms", "wait ms", "fallbacks", "p95 wait ns", "tune +/-", "pool"],
            &rows,
        );
        all.push((workload, results));
    }

    // Per-run telemetry export next to the aggregate.
    if let Some(path) = telemetry_out_from_args() {
        for (workload, results) in &all {
            for r in results {
                let run_path =
                    path.with_extension(format!("{}.{}.json", workload.label(), r.policy));
                std::fs::write(&run_path, r.snapshot.to_json()).expect("write run telemetry");
                println!("telemetry ({}/{}): {}", workload.label(), r.policy, run_path.display());
            }
        }
    }
    experiments::report::maybe_export_telemetry();

    // The claims this comparison exists to demonstrate.
    for (workload, results) in &all {
        for r in results {
            assert_eq!(
                r.snapshot.counter(Counter::RmiCalls),
                r.hits + r.fallbacks,
                "{}/{}: rmi.calls must equal hits + fallbacks",
                workload.label(),
                r.policy
            );
            assert_eq!(
                r.snapshot.hist(Hist::SchedTaskWaitNs).count,
                r.hits,
                "{}/{}: one task-wait sample per hit",
                workload.label(),
                r.policy
            );
        }
    }
    let bursty = &all[0].1;
    let (miss, trace) = (&bursty[1], &bursty[2]);
    assert!(trace.tune_ups > 0, "trace-driven controller must act under bursty load");
    assert_eq!(
        trace.snapshot.counter(Counter::SwitchlessTuneUps),
        trace.tune_ups,
        "tune-up decisions mirror into telemetry"
    );
    assert!(
        trace.total_cost_ns <= miss.total_cost_ns,
        "bursty: trace-driven total {} ns must not exceed miss-driven {} ns",
        trace.total_cost_ns,
        miss.total_cost_ns
    );
    println!(
        "\nok: bursty trace-driven {:.3} model ms <= miss-driven {:.3} model ms \
         ({} tune-ups, {} tune-downs)",
        trace.total_cost_ns as f64 * 1e-6,
        miss.total_cost_ns as f64 * 1e-6,
        trace.tune_ups,
        trace.tune_downs
    );
}
