//! Deterministic switchless-tuning simulator (the `switchless_tuning`
//! binary's engine).
//!
//! Compares scaling policies for the switchless executor pool —
//! static, the miss-driven law, and the trace-driven controller (the
//! *real* [`Tuner`], not a re-implementation) — over synthetic arrival
//! patterns in pure model time. The simulator is a discrete-time
//! queueing model of one side of the scheduler in
//! `montsalvat_core::exec::switchless`:
//!
//! - Time advances in fixed [`TICK_NS`] quanta; there are no threads,
//!   no wall clocks, and all randomness comes from a seeded LCG, so a
//!   run is a pure function of its [`SimConfig`] — CI can assert exact
//!   inequalities on the results with no retries.
//! - Arrivals post into a bounded injector. Overflow takes the classic
//!   fallback, charged `switchless_fallback_ns` plus a full crossing
//!   (`transition_ns + relay_overhead_ns`), exactly the live engine's
//!   accounting.
//! - Each resident worker per tick grabs up to the steal-batch bound
//!   as one frame, charging one `switchless_wake_ns` per grabbing
//!   wakeup, a frame-header copy, and `switchless_call_ns` per task;
//!   task waits (`TICK_NS` per tick spent queued, recorded in
//!   `rmi.sched_task_wait_ns`) count toward total cost — a policy
//!   cannot look cheap by letting the queue rot.
//! - Idle resident workers charge their park/poll overhead
//!   (`switchless_wake_ns` amortised over the park interval), so
//!   shrinking an over-provisioned pool has measurable value.
//!
//! Telemetry reconciliation holds by construction and is asserted by
//! the binary: `rmi.calls == rmi.switchless_calls +
//! rmi.switchless_fallbacks` in every exported snapshot.

use std::collections::VecDeque;

use montsalvat_core::exec::switchless::tuner::{Observation, Tuner, TunerConfig, WorkerAction};
use sgx_sim::cost::CostParams;
use telemetry::{AtomicHistogram, Counter, Gauge, Hist, Recorder, Snapshot};

/// Simulation quantum: one tick of model time (20 µs). Chosen so a
/// handful of ticks of queueing is commensurable with the tuner's
/// default thresholds (2× the ~43 µs crossing).
pub const TICK_NS: u64 = 20_000;

/// Arrival pattern fed to the injector, in jobs per tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bursts of `rate` jobs/tick for `burst_ticks`, then quiet for the
    /// rest of each `period_ticks` cycle (the pattern the adaptive
    /// engine exists for).
    Bursty {
        /// Cycle length in ticks.
        period_ticks: u64,
        /// Leading ticks of each cycle that see arrivals.
        burst_ticks: u64,
        /// Arrivals per burst tick.
        rate: u64,
    },
    /// A constant trickle: one job every `every_ticks` ticks.
    Steady {
        /// Gap between arrivals in ticks (≥ 1).
        every_ticks: u64,
    },
}

impl Workload {
    /// The paper-shaped bursty default: 6 jobs/tick for 12 ticks, then
    /// 28 quiet ticks.
    pub fn bursty() -> Self {
        Workload::Bursty { period_ticks: 40, burst_ticks: 12, rate: 6 }
    }

    /// A steady trickle: one job every other tick.
    pub fn steady() -> Self {
        Workload::Steady { every_ticks: 2 }
    }

    /// Display label (doubles as the telemetry export suffix).
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Bursty { .. } => "bursty",
            Workload::Steady { .. } => "steady",
        }
    }

    /// Arrivals at tick `t`; `jitter` perturbs burst intensity by ±1
    /// without ever silencing a burst tick.
    fn arrivals(&self, t: u64, jitter: u64) -> u64 {
        match *self {
            Workload::Bursty { period_ticks, burst_ticks, rate } => {
                if t % period_ticks.max(1) < burst_ticks {
                    (rate + jitter % 3).saturating_sub(1).max(1)
                } else {
                    0
                }
            }
            Workload::Steady { every_ticks } => u64::from(t % every_ticks.max(1) == 0),
        }
    }
}

/// Executor-pool scaling policy under comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Policy {
    /// A fixed pool of `min_workers` workers; no scaling at all.
    Static,
    /// The miss law alone: a fallback is a miss, `scale_up_misses`
    /// misses spawn a worker, `idle_park_ticks` idle ticks retire one.
    MissDriven,
    /// The miss law plus the real trace-driven [`Tuner`] closing the
    /// loop on observed task-wait quantiles.
    TraceDriven(TunerConfig),
}

impl Policy {
    /// Display label (doubles as the telemetry export suffix).
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Static => "static",
            Policy::MissDriven => "miss-driven",
            Policy::TraceDriven(_) => "trace-driven",
        }
    }
}

/// One simulation's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Ticks to run (the queue is drained to empty afterwards).
    pub ticks: u64,
    /// Arrival pattern.
    pub workload: Workload,
    /// Scaling policy.
    pub policy: Policy,
    /// Resident floor of the worker pool (≥ 1).
    pub min_workers: usize,
    /// Ceiling any policy may grow the pool to.
    pub max_workers: usize,
    /// Injector slots; overflow falls back to a classic crossing.
    pub injector_capacity: usize,
    /// Initial injector grab bound (the tuner may resize it).
    pub steal_batch: usize,
    /// Misses before the miss law spawns a worker.
    pub scale_up_misses: u64,
    /// Consecutive idle ticks before the miss law retires a worker.
    pub idle_park_ticks: u64,
    /// LCG seed; pin it and the whole run is reproducible.
    pub seed: u64,
}

impl SimConfig {
    /// The comparison baseline used by the `switchless_tuning` binary:
    /// 1–8 workers, an 8-slot injector, 4-deep grabs, the default miss
    /// threshold.
    pub fn baseline(ticks: u64, workload: Workload, policy: Policy) -> Self {
        SimConfig {
            ticks,
            workload,
            policy,
            min_workers: 1,
            max_workers: 8,
            injector_capacity: 8,
            steal_batch: 4,
            scale_up_misses: 4,
            idle_park_ticks: 8,
            seed: 0x6d6f_6e74,
        }
    }
}

/// One simulated run's outcome.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Policy label.
    pub policy: &'static str,
    /// Workload label.
    pub workload: &'static str,
    /// Total model cost: every charge plus every queue-wait ns.
    pub total_cost_ns: u64,
    /// Of which, time tasks spent queued before an executor took them.
    pub queue_wait_ns: u64,
    /// Switchless hits (tasks admitted to the injector).
    pub hits: u64,
    /// Classic fallbacks (injector overflow).
    pub fallbacks: u64,
    /// Trace-driven grow/batch-up decisions applied.
    pub tune_ups: u64,
    /// Trace-driven shrink/batch-down decisions applied.
    pub tune_downs: u64,
    /// Pool size when the run ended.
    pub final_workers: usize,
    /// Batch bound when the run ended.
    pub final_batch: usize,
    /// Per-run telemetry (counters reconcile: calls == hits +
    /// fallbacks).
    pub snapshot: Snapshot,
}

/// A tiny deterministic LCG (Numerical Recipes constants); the only
/// randomness source in the simulator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Runs one policy over one workload in pure model time.
pub fn simulate(config: &SimConfig, params: &CostParams) -> SimResult {
    let crossing_ns = params.transition_ns() + params.relay_overhead_ns;
    // A parked worker re-polls its queue every park interval; spread
    // that wake over the interval as a per-tick idle charge.
    let idle_poll_ns = params.switchless_wake_ns / config.idle_park_ticks.max(1);
    // Batch frames carry a fixed header plus a slot per job (matches
    // `rmi::batch::frame_len`'s shape: lengths prefix + payloads).
    let frame_ns = |jobs: u64| ((24 + 16 * jobs) as f64 * params.copy_ns_per_byte) as u64;

    let recorder = Recorder::new();
    let mut rng = Lcg(config.seed.max(1));
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut workers = config.min_workers.max(1);
    let max_workers = config.max_workers.max(workers);
    let mut batch_target = config.steal_batch.max(1);
    recorder.gauge_set(Gauge::SwitchlessTargetBatch, batch_target as u64);

    let tuner = match &config.policy {
        Policy::TraceDriven(tc) => Some(Tuner::new(tc.clone(), crossing_ns)),
        _ => None,
    };
    let wait_hist = AtomicHistogram::new();
    let batch_hist = AtomicHistogram::new();
    let mut window_wait = wait_hist.snapshot();
    let mut window_batch = batch_hist.snapshot();
    let mut window_fallbacks = 0u64;
    let mut posts_since_tick = 0u64;

    let mut charged_ns = 0u64;
    let mut queue_wait_ns = 0u64;
    let (mut hits, mut fallbacks) = (0u64, 0u64);
    let (mut tune_ups, mut tune_downs) = (0u64, 0u64);
    let mut misses = 0u64;
    let mut idle_ticks = 0u64;

    let mut t = 0u64;
    // Run the schedule, then keep ticking until the injector drains.
    while t < config.ticks || !queue.is_empty() {
        let arrivals = if t < config.ticks { config.workload.arrivals(t, rng.next()) } else { 0 };
        for _ in 0..arrivals {
            recorder.add(Counter::RmiCalls, 1);
            if queue.len() < config.injector_capacity {
                queue.push_back(t);
                hits += 1;
                recorder.add(Counter::SwitchlessCalls, 1);
                charged_ns += params.switchless_call_ns;
                posts_since_tick += 1;
            } else {
                fallbacks += 1;
                misses += 1;
                recorder.add(Counter::SwitchlessFallbacks, 1);
                recorder.add(Counter::SwitchlessMisses, 1);
                charged_ns += params.switchless_fallback_ns + crossing_ns;
            }
        }
        recorder.gauge_max(Gauge::SwitchlessQueueDepthPeak, queue.len() as u64);
        recorder.gauge_set(Gauge::SwitchlessQueueDepth, queue.len() as u64);

        // Service: each worker is one potential wakeup this tick.
        for _ in 0..workers {
            if queue.is_empty() {
                charged_ns += idle_poll_ns;
                continue;
            }
            let batch = queue.len().min(batch_target);
            recorder.add(Counter::SwitchlessWorkerWakes, 1);
            charged_ns += params.switchless_wake_ns + frame_ns(batch as u64);
            batch_hist.record(batch as u64);
            recorder.record(Hist::SwitchlessBatchJobs, batch as u64);
            for _ in 0..batch {
                let posted = queue.pop_front().expect("batch bounded by queue len");
                let wait = (t - posted) * TICK_NS;
                wait_hist.record(wait);
                recorder.record(Hist::SchedTaskWaitNs, wait);
                queue_wait_ns += wait;
            }
        }

        // The miss law (Static parks it entirely).
        if config.policy != Policy::Static {
            if misses >= config.scale_up_misses && workers < max_workers {
                workers += 1;
                misses = 0;
                recorder.add(Counter::SwitchlessScaleUps, 1);
            }
            if arrivals == 0 && queue.is_empty() {
                idle_ticks += 1;
                if idle_ticks >= config.idle_park_ticks && workers > config.min_workers {
                    workers -= 1;
                    idle_ticks = 0;
                    recorder.add(Counter::SwitchlessScaleDowns, 1);
                }
            } else {
                idle_ticks = 0;
            }
        }

        // The trace-driven controller, exactly as the scheduler ticks
        // it: diff the histograms into a window every `interval_calls`
        // posts, reduce, decide, apply.
        if let Some(tuner) = &tuner {
            if posts_since_tick >= tuner.config().interval_calls {
                posts_since_tick = 0;
                let wait_now = wait_hist.snapshot();
                let batch_now = batch_hist.snapshot();
                let obs = Observation::from_window(
                    &wait_now.diff(&window_wait),
                    &batch_now.diff(&window_batch),
                    fallbacks - window_fallbacks,
                    workers,
                    batch_target,
                );
                window_wait = wait_now;
                window_batch = batch_now;
                window_fallbacks = fallbacks;
                let decision = tuner.decide(config.min_workers, max_workers, &obs);
                match decision.workers {
                    WorkerAction::Grow if workers < max_workers => {
                        workers += 1;
                        tune_ups += 1;
                        recorder.add(Counter::SwitchlessTuneUps, 1);
                    }
                    WorkerAction::Shrink if workers > config.min_workers => {
                        workers -= 1;
                        tune_downs += 1;
                        recorder.add(Counter::SwitchlessTuneDowns, 1);
                    }
                    _ => {}
                }
                if decision.target_batch != batch_target {
                    if decision.target_batch > batch_target {
                        tune_ups += 1;
                        recorder.add(Counter::SwitchlessTuneUps, 1);
                    } else {
                        tune_downs += 1;
                        recorder.add(Counter::SwitchlessTuneDowns, 1);
                    }
                    batch_target = decision.target_batch.max(1);
                    recorder.gauge_set(Gauge::SwitchlessTargetBatch, batch_target as u64);
                }
            }
        }

        recorder.gauge_max(Gauge::SwitchlessWorkersPeak, workers as u64);
        recorder.gauge_set(Gauge::SwitchlessWorkers, workers as u64);
        t += 1;
    }

    let snapshot = recorder.snapshot();
    SimResult {
        policy: config.policy.label(),
        workload: config.workload.label(),
        total_cost_ns: charged_ns + queue_wait_ns,
        queue_wait_ns,
        hits,
        fallbacks,
        tune_ups,
        tune_downs,
        final_workers: workers,
        final_batch: batch_target,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(policy: Policy, workload: Workload) -> SimResult {
        simulate(&SimConfig::baseline(2_000, workload, policy), &CostParams::paper_defaults())
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(Policy::TraceDriven(TunerConfig::default()), Workload::bursty());
        let b = run(Policy::TraceDriven(TunerConfig::default()), Workload::bursty());
        assert_eq!(a.total_cost_ns, b.total_cost_ns);
        assert_eq!(a.tune_ups, b.tune_ups);
        assert_eq!(a.fallbacks, b.fallbacks);
    }

    #[test]
    fn telemetry_reconciles_for_every_policy() {
        for policy in
            [Policy::Static, Policy::MissDriven, Policy::TraceDriven(TunerConfig::default())]
        {
            for workload in [Workload::bursty(), Workload::steady()] {
                let r = run(policy.clone(), workload);
                assert_eq!(
                    r.snapshot.counter(Counter::RmiCalls),
                    r.hits + r.fallbacks,
                    "{}/{}: calls == hits + fallbacks",
                    r.policy,
                    r.workload
                );
                assert_eq!(r.snapshot.hist(Hist::SchedTaskWaitNs).count, r.hits);
            }
        }
    }

    #[test]
    fn static_policy_never_scales() {
        let r = run(Policy::Static, Workload::bursty());
        assert_eq!(r.final_workers, 1);
        assert_eq!(r.snapshot.counter(Counter::SwitchlessScaleUps), 0);
        assert_eq!(r.tune_ups + r.tune_downs, 0);
    }

    #[test]
    fn trace_driven_acts_and_wins_on_bursty() {
        let miss = run(Policy::MissDriven, Workload::bursty());
        let trace = run(Policy::TraceDriven(TunerConfig::default()), Workload::bursty());
        assert!(trace.tune_ups > 0, "the tuner must record decisions: {trace:?}");
        assert!(
            trace.total_cost_ns <= miss.total_cost_ns,
            "trace-driven {} must not exceed miss-driven {}",
            trace.total_cost_ns,
            miss.total_cost_ns
        );
    }
}
