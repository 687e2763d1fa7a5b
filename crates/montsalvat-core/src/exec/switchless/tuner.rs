//! Trace-driven feedback controller for the switchless scheduler.
//!
//! The scheduler's baseline scaling is a blunt miss counter: a post
//! that finds no idle executor is a miss, and enough misses spawn an
//! executor. The scheduler also records the *exact* task-wait
//! distribution on every served post (`rmi.sched_task_wait_ns`, plus
//! cat-`queue` `task-wait:` spans under tracing), so the controller
//! here closes the loop on that signal instead: it periodically diffs
//! the per-side task-wait and injector-grab histograms into a window,
//! reduces the window to an [`Observation`], and derives a
//! [`Decision`] from observed wait quantiles measured against the
//! modeled cost of a classic crossing.
//!
//! The control law (documented in `docs/SWITCHLESS.md`):
//!
//! - **Grow workers** when the window saw fallbacks or its p95 queue
//!   wait exceeds [`TunerConfig::up_wait_pct`] percent of the crossing
//!   cost — queueing is costing more than the transitions the engine
//!   exists to avoid.
//! - **Shrink batches** when waits are high but the executor pool is
//!   already at `max_workers` and injector grabs are batching
//!   (`mean_batch > 1`): the wait is dominated by batching delay, so
//!   halve the grab bound.
//! - **Shrink workers** when the p95 wait falls below
//!   [`TunerConfig::down_wait_pct`] percent of the crossing cost with
//!   no fallbacks — capacity is idle.
//! - **Grow batches** when waits are low and executors grab full
//!   batches (`mean_batch ≈ max_batch`): raising the bound amortises
//!   the wake and frame header further, up to
//!   [`TunerConfig::batch_limit`].
//! - **Hold** when the window has fewer than
//!   [`TunerConfig::min_samples`] observations — too few posts
//!   completed to judge, so the miss counter stays the only scaling
//!   mechanism until the window fills.
//!
//! The controller itself is pure: [`Tuner::decide`] maps an
//! observation to a decision with no clocks, threads or atomics, and
//! [`Observation::synthetic`] injects an arbitrary wait distribution
//! through the *same* histogram/quantile path production uses, so
//! every branch of the law is unit-testable deterministically.

use telemetry::{AtomicHistogram, HistogramSnapshot};

/// Configuration of the trace-driven tuner (attached to the scheduler
/// via [`super::SwitchlessConfig::autotune`]).
///
/// All thresholds are integers so the containing config keeps its
/// `Eq` derive; percentages are relative to the modeled classic
/// crossing cost (`transition_ns + relay_overhead_ns`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunerConfig {
    /// Posts between controller ticks on one side (≥ 1).
    pub interval_calls: u64,
    /// Grow threshold: scale up when the window's p95 queue wait
    /// exceeds this percentage of the crossing cost (200 = 2×).
    pub up_wait_pct: u64,
    /// Shrink threshold: scale down when the p95 queue wait falls
    /// below this percentage of the crossing cost (25 = 0.25×).
    pub down_wait_pct: u64,
    /// Upper bound the tuner may grow a side's batch drain to (≥ 1).
    pub batch_limit: usize,
    /// Minimum queue-wait observations a window needs before the
    /// controller acts on it; sparser windows hold (≥ 1).
    pub min_samples: u64,
}

impl Default for TunerConfig {
    /// Tick every 64 posts; grow at p95 > 2× crossing, shrink below
    /// 0.25× crossing; batch up to 16; require 8 samples per window.
    fn default() -> Self {
        TunerConfig {
            interval_calls: 64,
            up_wait_pct: 200,
            down_wait_pct: 25,
            batch_limit: 16,
            min_samples: 8,
        }
    }
}

impl TunerConfig {
    /// Clamps the invariants the controller relies on: positive tick
    /// interval, sample floor and batch bound, and a shrink threshold
    /// strictly below the grow threshold.
    pub(crate) fn normalized(&self) -> Self {
        let up_wait_pct = self.up_wait_pct.max(1);
        TunerConfig {
            interval_calls: self.interval_calls.max(1),
            up_wait_pct,
            down_wait_pct: self.down_wait_pct.min(up_wait_pct.saturating_sub(1)),
            batch_limit: self.batch_limit.max(1),
            min_samples: self.min_samples.max(1),
        }
    }
}

/// One controller window reduced to the numbers the law consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Median queue wait in the window (model ns, bucket upper bound).
    pub wait_p50_ns: u64,
    /// 95th-percentile queue wait in the window (model ns).
    pub wait_p95_ns: u64,
    /// Task-wait observations in the window.
    pub samples: u64,
    /// Mean tasks grabbed per injector visit in the window.
    pub mean_batch: f64,
    /// Classic fallbacks (full injector or swept timeout) in the
    /// window.
    pub fallbacks: u64,
    /// Resident workers on the observed side at tick time.
    pub workers: usize,
    /// Injector grab bound in force during the window.
    pub max_batch: usize,
}

impl Observation {
    /// Reduces one window — histogram diffs plus the side's fallback
    /// delta and current sizing — to an observation.
    pub fn from_window(
        wait_window: &HistogramSnapshot,
        batch_window: &HistogramSnapshot,
        fallbacks: u64,
        workers: usize,
        max_batch: usize,
    ) -> Self {
        Observation {
            wait_p50_ns: wait_window.quantile(0.50),
            wait_p95_ns: wait_window.quantile(0.95),
            samples: wait_window.count,
            mean_batch: batch_window.mean(),
            fallbacks,
            workers,
            max_batch,
        }
    }

    /// The synthetic wait-distribution injector: builds an observation
    /// from raw queue-wait and batch-size samples by recording them
    /// through the same power-of-two histogram and quantile reduction
    /// the live engine uses. Controller decisions become a pure
    /// function of these inputs — no threads, no clocks.
    pub fn synthetic(
        waits_ns: &[u64],
        batch_sizes: &[u64],
        fallbacks: u64,
        workers: usize,
        max_batch: usize,
    ) -> Self {
        let wait_hist = AtomicHistogram::new();
        for &w in waits_ns {
            wait_hist.record(w);
        }
        let batch_hist = AtomicHistogram::new();
        for &b in batch_sizes {
            batch_hist.record(b);
        }
        Observation::from_window(
            &wait_hist.snapshot(),
            &batch_hist.snapshot(),
            fallbacks,
            workers,
            max_batch,
        )
    }
}

/// What the controller wants done to a side's worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerAction {
    /// Spawn one worker (bounded by `max_workers` at apply time).
    Grow,
    /// Lower the retirement floor by one (bounded by `min_workers`);
    /// an idle worker retires at its next park timeout.
    Shrink,
    /// Leave the pool size alone.
    Hold,
}

/// One controller tick's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Worker-pool adjustment.
    pub workers: WorkerAction,
    /// Batch drain bound after this tick (unchanged unless the law
    /// resized it; always ≥ 1 and ≤ `batch_limit` when grown).
    pub target_batch: usize,
    /// Which branch of the law fired (stable strings, used in tuner
    /// span names and tests).
    pub reason: &'static str,
}

/// The pure feedback controller: thresholds plus the modeled crossing
/// cost it measures waits against.
#[derive(Debug, Clone)]
pub struct Tuner {
    config: TunerConfig,
    crossing_ns: u64,
}

impl Tuner {
    /// Creates a tuner. `crossing_ns` is the modeled cost of one
    /// classic crossing (`transition_ns + relay_overhead_ns`), the
    /// yardstick queue waits are judged against.
    pub fn new(config: TunerConfig, crossing_ns: u64) -> Self {
        Tuner { config: config.normalized(), crossing_ns: crossing_ns.max(1) }
    }

    /// The normalized configuration in force.
    pub fn config(&self) -> &TunerConfig {
        &self.config
    }

    /// Queue-wait level above which the controller grows capacity.
    pub fn up_threshold_ns(&self) -> u64 {
        self.crossing_ns.saturating_mul(self.config.up_wait_pct) / 100
    }

    /// Queue-wait level below which the controller shrinks capacity.
    pub fn down_threshold_ns(&self) -> u64 {
        self.crossing_ns.saturating_mul(self.config.down_wait_pct) / 100
    }

    /// Maps one observation to a decision. Pure: no side effects, no
    /// clocks; sizing bounds are enforced again at apply time, but the
    /// decision already respects `min_workers`/`max_workers` and
    /// `batch_limit` so callers can treat it as final.
    pub fn decide(&self, min_workers: usize, max_workers: usize, obs: &Observation) -> Decision {
        let mut decision = Decision {
            workers: WorkerAction::Hold,
            target_batch: obs.max_batch.max(1),
            reason: "steady",
        };
        if obs.samples < self.config.min_samples {
            // Too sparse to act on: the miss counter stays the only
            // scaling mechanism until the window fills.
            decision.reason = "insufficient-samples";
            return decision;
        }
        let up = self.up_threshold_ns();
        let down = self.down_threshold_ns();
        if obs.fallbacks > 0 || obs.wait_p95_ns > up {
            if obs.workers < max_workers {
                decision.workers = WorkerAction::Grow;
                decision.reason = "queue-pressure";
            } else if obs.mean_batch > 1.0 && obs.max_batch > 1 {
                // Can't add workers; waits under a full pool with real
                // batching are dominated by batching delay, so shrink
                // the drain bound instead.
                decision.target_batch = (obs.max_batch / 2).max(1);
                decision.reason = "batch-delay";
            } else {
                decision.reason = "saturated";
            }
        } else if obs.wait_p95_ns < down && obs.fallbacks == 0 {
            if obs.workers > min_workers {
                decision.workers = WorkerAction::Shrink;
                decision.reason = "idle-waits";
            }
            if obs.mean_batch + 0.5 >= obs.max_batch as f64
                && obs.max_batch < self.config.batch_limit
            {
                // Low waits with workers draining full batches: give
                // the frame header more jobs to amortise over.
                decision.target_batch = (obs.max_batch * 2).min(self.config.batch_limit);
                if decision.workers == WorkerAction::Hold {
                    decision.reason = "batch-headroom";
                }
            }
        }
        decision
    }
}
