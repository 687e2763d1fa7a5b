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
//! Miss-driven scaling ([`Scaling`]) grows a side's executor pool
//! from `min_workers` toward `max_workers` under miss pressure, and an
//! executor idle past `idle_park` retires back toward `min_workers`;
//! without it the pool is fixed at `min_workers`.
//!
//! Every posted call resolves as exactly one switchless hit
//! (`rmi.switchless_calls`) or one classic fallback
//! (`rmi.switchless_fallbacks`), so `rmi.calls == hits + fallbacks`
//! — the invariant the CI bench gates check. The `switchless_ablation`
//! binary exercises it on bursty and nested-crossing loads;
//! `docs/SWITCHLESS.md` documents the design and the last recorded
//! numbers of the retired thread-per-worker pool and trace-driven
//! tuner.

pub(crate) mod scheduler;
pub(crate) mod task;

use std::sync::Arc;
use std::time::Duration;

use rmi::hash::ProxyHash;

use crate::annotation::Side;
use crate::error::VmError;
use crate::exec::ctx::WireMsg;

pub(crate) use scheduler::Scheduler;
pub use scheduler::SPIN_BUDGET;

/// Configuration of the switchless call machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchlessConfig {
    /// Resident executors each side keeps even when idle (≥ 1): the
    /// whole pool when `autotune` is `None`, the floor miss-driven
    /// scaling retires back to otherwise.
    pub min_workers: usize,
    /// How long an idle executor parks between polls; an executor
    /// idle past this retires if the pool is above `min_workers`.
    pub idle_park: Duration,
    /// Miss-driven scaling of the executor pool. `None` fixes each
    /// side's pool at `min_workers` and counts no misses toward growth.
    pub autotune: Option<Scaling>,
    /// Bounds of the work-stealing scheduler; `None` means
    /// [`SchedulerConfig::default()`].
    pub scheduler: Option<SchedulerConfig>,
}

/// The miss-driven scaling law: a post that finds no idle executor (or
/// a full injector) is a miss, and every `scale_up_misses` misses spawn
/// one more executor on that side, up to `max_workers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scaling {
    /// Upper bound a side's executor pool may grow to (raised to
    /// `min_workers` if set lower).
    pub max_workers: usize,
    /// Misses accumulated before the scheduler spawns another executor.
    pub scale_up_misses: u64,
}

impl Default for SwitchlessConfig {
    /// The adaptive defaults: scale between 1 and 4 executors per
    /// side, default scheduler bounds.
    fn default() -> Self {
        SwitchlessConfig {
            min_workers: 1,
            idle_park: Duration::from_millis(20),
            autotune: Some(Scaling { max_workers: 4, scale_up_misses: 4 }),
            scheduler: None,
        }
    }
}

impl SwitchlessConfig {
    /// A fixed pool of `workers` executors per side (at least one): no
    /// miss-driven scaling.
    pub fn fixed(workers: usize) -> Self {
        SwitchlessConfig { min_workers: workers.max(1), autotune: None, ..Self::default() }
    }

    /// Most executors one side can run: `max_workers` under scaling,
    /// else the fixed pool's `min_workers`.
    pub fn max_workers(&self) -> usize {
        self.autotune.map_or(self.min_workers, |s| s.max_workers.max(self.min_workers))
    }

    /// Clamps the invariants the scheduler relies on: at least one
    /// executor, `max_workers ≥ min_workers`, a positive miss
    /// threshold and park interval.
    pub(crate) fn normalized(&self) -> Self {
        let min_workers = self.min_workers.max(1);
        SwitchlessConfig {
            min_workers,
            idle_park: self.idle_park.max(Duration::from_millis(1)),
            autotune: self.autotune.map(|s| Scaling {
                max_workers: s.max_workers.max(min_workers),
                scale_up_misses: s.scale_up_misses.max(1),
            }),
            scheduler: self.scheduler.as_ref().map(SchedulerConfig::normalized),
        }
    }
}

/// Bounds of the work-stealing task scheduler (see the module docs and
/// `docs/SWITCHLESS.md`). Executor-pool sizing comes from the
/// surrounding [`SwitchlessConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Most tasks queued per side (injector plus local deques) before
    /// a post is rejected into the classic-fallback path. This is the
    /// backpressure bound: a full scheduler *never* blocks a poster.
    pub injector_capacity: usize,
    /// Wall-clock age past which a still-queued task is timed out into
    /// the classic-fallback path by its own poster.
    pub task_timeout: Duration,
}

impl Default for SchedulerConfig {
    /// Defaults sized for the open-loop traffic harness: a deep
    /// injector (tens of thousands of in-flight tasks) and a generous
    /// task deadline.
    fn default() -> Self {
        SchedulerConfig { injector_capacity: 16_384, task_timeout: Duration::from_millis(250) }
    }
}

impl SchedulerConfig {
    /// Clamps the invariants the scheduler relies on: at least one
    /// injector slot and a nonzero timeout.
    pub(crate) fn normalized(&self) -> Self {
        SchedulerConfig {
            injector_capacity: self.injector_capacity.max(1),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_enforces_invariants() {
        let cfg = SwitchlessConfig {
            min_workers: 0,
            idle_park: Duration::ZERO,
            autotune: Some(Scaling { max_workers: 0, scale_up_misses: 0 }),
            scheduler: Some(SchedulerConfig { injector_capacity: 0, task_timeout: Duration::ZERO }),
        }
        .normalized();
        assert_eq!(cfg.min_workers, 1);
        assert_eq!(cfg.autotune, Some(Scaling { max_workers: 1, scale_up_misses: 1 }));
        assert_eq!(cfg.max_workers(), 1);
        assert!(cfg.idle_park > Duration::ZERO);
        let sc = cfg.scheduler.expect("scheduler survives normalization");
        assert_eq!(sc.injector_capacity, 1);
        assert!(sc.task_timeout > Duration::ZERO);
    }

    #[test]
    fn fixed_config_is_a_pool_without_scaling() {
        let cfg = SwitchlessConfig::fixed(3);
        assert_eq!((cfg.min_workers, cfg.autotune, cfg.max_workers()), (3, None, 3));
        assert_eq!(SwitchlessConfig::fixed(0).normalized().max_workers(), 1);
        let adaptive = SwitchlessConfig::default();
        assert_eq!((adaptive.min_workers, adaptive.max_workers()), (1, 4));
        // A bound below the floor is raised to it.
        let low = SwitchlessConfig {
            min_workers: 3,
            autotune: Some(Scaling { max_workers: 2, scale_up_misses: 1 }),
            ..SwitchlessConfig::default()
        };
        assert_eq!(low.max_workers(), 3);
    }
}
