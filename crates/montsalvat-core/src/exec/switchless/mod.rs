//! Adaptive switchless (transition-less) RMI calls — the paper's first
//! future-work item (§7, after Tian et al., SysTEX'18).
//!
//! A classic crossing pays the full EENTER/EEXIT transition plus relay
//! software on *every* call. In the switchless design, each runtime
//! keeps resident serving capacity; a caller posts its request and the
//! opposite side serves it without any hardware transition — the cost
//! drops to a cache-line hand-off plus the marshalling itself.
//!
//! The serving engine is the work-stealing task `scheduler`: posted
//! crossings become suspendable serve `task`s (explicit state machine:
//! decode → execute → encode → complete) queued on a bounded shared
//! injector; a small pool of executor threads drains per-executor
//! local deques first, steals from sibling deques second and grabs
//! injector batches last. An executor blocked on a nested crossing
//! *suspends* — it parks the task's state on its stack and serves
//! other tasks while it waits — so tens of thousands of crossings can
//! be in flight on a handful of threads. Both ends of the hand-off
//! spin for [`SPIN_BUDGET`] before they park, so a crossing served
//! within it costs no thread wake-up. Each poster owns its task's
//! deadline and times an overdue task out into the classic-fallback
//! path itself, and a full injector rejects immediately
//! (backpressure) instead of blocking.
//! Miss-driven scaling sizes the executor pool between `min_workers`
//! and `max_workers`; the optional [`tuner`] control law, fed by the
//! always-on task-wait histogram (`rmi.sched_task_wait_ns`), resizes
//! it and the steal-batch bound.
//!
//! Every posted call resolves as exactly one switchless hit
//! (`rmi.switchless_calls`) or one classic fallback
//! (`rmi.switchless_fallbacks`), so `rmi.calls == hits + fallbacks`
//! — the invariant the CI bench gates check. The `switchless_ablation`
//! binary exercises it on bursty and nested-crossing loads;
//! `docs/SWITCHLESS.md` documents the design and the retired
//! thread-per-worker pool's last recorded numbers.

pub(crate) mod scheduler;
pub(crate) mod task;
pub mod tuner;

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rmi::hash::ProxyHash;
use sgx_sim::cost::CostModel;
use telemetry::HistogramSnapshot;

use crate::annotation::Side;
use crate::error::VmError;
use crate::exec::ctx::WireMsg;
use tuner::{Tuner, TunerConfig};

pub(crate) use scheduler::Scheduler;
pub use scheduler::SPIN_BUDGET;

/// Configuration of the switchless call machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchlessConfig {
    /// Resident executors each side keeps even when idle (≥ 1).
    pub min_workers: usize,
    /// Upper bound miss-driven scaling may grow a side's executor pool
    /// to (raised to `min_workers` if set lower).
    pub max_workers: usize,
    /// Misses (posts that found no idle executor or a full injector)
    /// accumulated before the scheduler spawns another executor.
    pub scale_up_misses: u64,
    /// How long an idle executor parks between polls; an executor
    /// idle past this retires if the pool is above its floor.
    pub idle_park: Duration,
    /// Trace-driven feedback controller; `None` (the default) keeps
    /// the miss counter as the only scaling mechanism.
    pub autotune: Option<TunerConfig>,
    /// Bounds of the work-stealing scheduler; `None` means
    /// [`SchedulerConfig::default()`].
    pub scheduler: Option<SchedulerConfig>,
}

impl Default for SwitchlessConfig {
    /// The adaptive defaults: scale between 1 and 4 executors per
    /// side, default scheduler bounds.
    fn default() -> Self {
        SwitchlessConfig {
            min_workers: 1,
            max_workers: 4,
            scale_up_misses: 4,
            idle_park: Duration::from_millis(20),
            autotune: None,
            scheduler: None,
        }
    }
}

impl SwitchlessConfig {
    /// A fixed pool of `workers` executors per side: no adaptive
    /// scaling (used as the ablation baseline).
    pub fn fixed(workers: usize) -> Self {
        let workers = workers.max(1);
        SwitchlessConfig { min_workers: workers, max_workers: workers, ..Self::default() }
    }

    /// The adaptive defaults with the trace-driven tuner attached
    /// (default [`TunerConfig`]).
    pub fn autotuned() -> Self {
        SwitchlessConfig { autotune: Some(TunerConfig::default()), ..Self::default() }
    }

    /// Clamps the invariants the scheduler relies on: at least one
    /// executor, `max_workers ≥ min_workers`, a positive miss
    /// threshold and park interval.
    pub(crate) fn normalized(&self) -> Self {
        let min_workers = self.min_workers.max(1);
        SwitchlessConfig {
            min_workers,
            max_workers: self.max_workers.max(min_workers),
            scale_up_misses: self.scale_up_misses.max(1),
            idle_park: self.idle_park.max(Duration::from_millis(1)),
            autotune: self.autotune.as_ref().map(TunerConfig::normalized),
            scheduler: self.scheduler.as_ref().map(SchedulerConfig::normalized),
        }
    }
}

/// Bounds of the work-stealing task scheduler (see the module docs and
/// `docs/SWITCHLESS.md`). Executor-pool sizing comes from the
/// surrounding [`SwitchlessConfig`]'s `min_workers`/`max_workers`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Most tasks queued per side (injector plus local deques) before
    /// a post is rejected into the classic-fallback path. This is the
    /// backpressure bound: a full scheduler *never* blocks a poster.
    pub injector_capacity: usize,
    /// Most tasks one executor grabs from the injector per visit; the
    /// grabbed surplus lands on its local deque where siblings can
    /// steal it. The tuner's `target_batch` retunes this at run time.
    pub steal_batch: usize,
    /// Wall-clock age past which a still-queued task is timed out into
    /// the classic-fallback path by its own poster.
    pub task_timeout: Duration,
}

impl Default for SchedulerConfig {
    /// Defaults sized for the open-loop traffic harness: a deep
    /// injector (tens of thousands of in-flight tasks), small steal
    /// batches, a generous task deadline.
    fn default() -> Self {
        SchedulerConfig {
            injector_capacity: 16_384,
            steal_batch: 4,
            task_timeout: Duration::from_millis(250),
        }
    }
}

impl SchedulerConfig {
    /// Clamps the invariants the scheduler relies on: at least one
    /// injector slot, a positive steal batch, a nonzero timeout.
    pub(crate) fn normalized(&self) -> Self {
        SchedulerConfig {
            injector_capacity: self.injector_capacity.max(1),
            steal_batch: self.steal_batch.max(1),
            task_timeout: self.task_timeout.max(Duration::from_millis(1)),
        }
    }
}

/// The relay dispatcher the scheduler serves posts with: bound to the
/// application, it executes `class.relay` on the given side.
pub(crate) type ServeFn = Arc<
    dyn Fn(Side, &str, &str, Option<ProxyHash>, &WireMsg) -> Result<WireMsg, VmError> + Send + Sync,
>;

/// Outcome of posting a call to the scheduler.
pub(crate) enum PostOutcome {
    /// An executor served the call; this is the relay's reply.
    Served(Result<WireMsg, VmError>),
    /// The scheduler could not serve the call (full injector or a
    /// timed-out task) — the caller must perform a classic crossing
    /// (the probe charge has already been paid).
    Fallback,
}

/// Live executor/queue readings for one side of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SideStats {
    /// Resident executors (parked + serving).
    pub workers: usize,
    /// Executors currently parked on (or about to poll) the wake
    /// channel.
    pub idle: usize,
    /// Posted tasks not yet claimed by an executor.
    pub queued: usize,
}

/// Live readings of both sides of the scheduler (see
/// [`PartitionedApp::switchless_stats`](crate::exec::app::PartitionedApp::switchless_stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwitchlessStats {
    /// The enclave-side executors.
    pub trusted: SideStats,
    /// The host-side executors.
    pub untrusted: SideStats,
}

/// Previous-snapshot cursors one tuner tick diffs against.
#[derive(Default)]
pub(crate) struct TunerWindow {
    pub(crate) wait_prev: HistogramSnapshot,
    pub(crate) batch_prev: HistogramSnapshot,
    pub(crate) fallbacks_prev: u64,
}

/// The live tuner: the pure controller plus per-side window cursors.
pub(crate) struct TunerRuntime {
    pub(crate) tuner: Tuner,
    pub(crate) trusted_window: Mutex<TunerWindow>,
    pub(crate) untrusted_window: Mutex<TunerWindow>,
}

impl TunerRuntime {
    /// Builds the runtime when `config.autotune` is set, judging
    /// queue waits against one classic crossing of `cost`'s params.
    pub(crate) fn from_config(config: &SwitchlessConfig, cost: &CostModel) -> Option<TunerRuntime> {
        config.autotune.as_ref().map(|tc| {
            // The yardstick queue waits are judged against: one classic
            // crossing (hardware transition + relay software).
            let crossing = cost.params().transition_ns() + cost.params().relay_overhead_ns;
            TunerRuntime {
                tuner: Tuner::new(tc.clone(), crossing),
                trusted_window: Mutex::new(TunerWindow::default()),
                untrusted_window: Mutex::new(TunerWindow::default()),
            }
        })
    }

    pub(crate) fn window(&self, side: Side) -> &Mutex<TunerWindow> {
        match side {
            Side::Trusted => &self.trusted_window,
            Side::Untrusted => &self.untrusted_window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_enforces_invariants() {
        let cfg = SwitchlessConfig {
            min_workers: 0,
            max_workers: 0,
            scale_up_misses: 0,
            idle_park: Duration::ZERO,
            autotune: Some(TunerConfig {
                interval_calls: 0,
                up_wait_pct: 0,
                down_wait_pct: 99,
                batch_limit: 0,
                min_samples: 0,
            }),
            scheduler: Some(SchedulerConfig {
                injector_capacity: 0,
                steal_batch: 0,
                task_timeout: Duration::ZERO,
            }),
        }
        .normalized();
        assert_eq!(cfg.min_workers, 1);
        assert_eq!(cfg.max_workers, 1);
        assert_eq!(cfg.scale_up_misses, 1);
        assert!(cfg.idle_park > Duration::ZERO);
        let tc = cfg.autotune.expect("autotune survives normalization");
        assert_eq!(tc.interval_calls, 1);
        assert_eq!(tc.batch_limit, 1);
        assert_eq!(tc.min_samples, 1);
        assert!(tc.down_wait_pct < tc.up_wait_pct, "shrink threshold below grow threshold");
        let sc = cfg.scheduler.expect("scheduler survives normalization");
        assert_eq!(sc.injector_capacity, 1);
        assert_eq!(sc.steal_batch, 1);
        assert!(sc.task_timeout > Duration::ZERO);
    }

    #[test]
    fn autotuned_config_attaches_the_default_tuner() {
        let cfg = SwitchlessConfig::autotuned();
        assert_eq!(cfg.autotune, Some(TunerConfig::default()));
        assert_eq!(SwitchlessConfig::default().autotune, None);
        assert_eq!(SwitchlessConfig::fixed(2).autotune, None);
    }

    #[test]
    fn fixed_config_pins_both_bounds() {
        let cfg = SwitchlessConfig::fixed(3);
        assert_eq!((cfg.min_workers, cfg.max_workers), (3, 3));
    }
}
