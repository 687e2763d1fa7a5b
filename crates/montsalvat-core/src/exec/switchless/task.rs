//! Suspendable serve tasks: the unit of work the work-stealing
//! [`scheduler`](super::scheduler) queues, steals and times out.
//!
//! A posted crossing becomes one [`ServeTask`] holding everything the
//! serving side needs (class, relay, wire message, reply channel). Two
//! small atomic state machines live on the task:
//!
//! - **The claim protocol** ([`ServeTask::claim_for_run`] /
//!   [`ServeTask::claim_for_timeout`]): a task starts `QUEUED`; an
//!   executor CASes it to `RUNNING` before serving, and the poster
//!   CASes it to `TIMED_OUT` once the task's deadline passes, before
//!   taking the classic-fallback path. Exactly one CAS can win, so
//!   every posted call completes exactly once — as a served hit or a
//!   fallback — no matter how post/steal/run/timeout interleave. The
//!   loser just drops its reference; stale deque entries are skipped
//!   at claim time instead of being hunted down.
//! - **The lifecycle stage** ([`TaskStage`]): queued → decode →
//!   execute → encode → complete. The executor advances it around the
//!   serve call and `exec::ctx::serve_relay_inner` advances it at the
//!   unmarshal/dispatch/marshal boundaries via [`note_stage`], which
//!   resolves the current task through a thread-local — a no-op on
//!   classic crossings. When the executing body
//!   performs a *nested* crossing, the task's state stays parked in
//!   the `Execute` stage on the executor's stack while the executor
//!   serves other tasks (see `Scheduler::wait_for_completion`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use crossbeam::channel::Sender;
use rmi::hash::ProxyHash;

use crate::error::VmError;
use crate::exec::ctx::WireMsg;

/// Claim state: queued, not yet owned by anyone.
pub(crate) const QUEUED: u8 = 0;
/// Claim state: an executor owns the task and will send the reply.
pub(crate) const RUNNING: u8 = 1;
/// Claim state: the poster timed the task out at its deadline and
/// falls back to a classic crossing.
pub(crate) const TIMED_OUT: u8 = 2;

/// Lifecycle stage of a serve task's explicit state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum TaskStage {
    /// Posted, waiting in the injector or a deque.
    Queued = 0,
    /// Claimed; the serving side is unmarshalling arguments.
    Decode = 1,
    /// The relay body is executing (possibly suspended on a nested
    /// crossing).
    Execute = 2,
    /// The reply is being marshalled.
    Encode = 3,
    /// The reply has been produced.
    Complete = 4,
}

/// One posted crossing, queued for the work-stealing scheduler.
pub(crate) struct ServeTask {
    /// Class whose relay is being called.
    pub class_name: String,
    /// Relay method name.
    pub relay: String,
    /// Receiver proxy hash, when the call targets an instance.
    pub recv_hash: Option<ProxyHash>,
    /// The marshalled request.
    pub msg: WireMsg,
    /// Where the serving executor delivers the relay's reply
    /// (capacity 1).
    pub reply: Sender<Result<WireMsg, VmError>>,
    /// `(model_ns, wall_ns)` at post time when tracing was on, for the
    /// cat-`queue` task-wait span; `None` when the post was untraced.
    pub posted: Option<(u64, u64)>,
    /// Model time at post, for `rmi.sched_task_wait_ns`.
    pub posted_model_ns: u64,
    claim: AtomicU8,
    stage: AtomicU8,
}

impl ServeTask {
    /// Builds a freshly posted (QUEUED) task.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        class_name: String,
        relay: String,
        recv_hash: Option<ProxyHash>,
        msg: WireMsg,
        reply: Sender<Result<WireMsg, VmError>>,
        posted: Option<(u64, u64)>,
        posted_model_ns: u64,
    ) -> ServeTask {
        ServeTask {
            class_name,
            relay,
            recv_hash,
            msg,
            reply,
            posted,
            posted_model_ns,
            claim: AtomicU8::new(QUEUED),
            stage: AtomicU8::new(TaskStage::Queued as u8),
        }
    }

    /// Attempts to claim the task for execution (QUEUED → RUNNING).
    /// Returns false when its poster already timed it out.
    pub(crate) fn claim_for_run(&self) -> bool {
        self.claim.compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Attempts to claim the task for a timeout (QUEUED →
    /// TIMED_OUT). Returns false when an executor already owns it.
    pub(crate) fn claim_for_timeout(&self) -> bool {
        self.claim.compare_exchange(QUEUED, TIMED_OUT, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Current claim state (tests only; production code never reads
    /// the state back — it races the CAS and acts on the result).
    #[cfg(test)]
    pub(crate) fn claim_state(&self) -> u8 {
        self.claim.load(Ordering::Acquire)
    }

    /// Advances the lifecycle stage.
    pub(crate) fn set_stage(&self, stage: TaskStage) {
        self.stage.store(stage as u8, Ordering::Relaxed);
    }

    /// Current lifecycle stage as its raw discriminant (tests only;
    /// the stage exists for diagnostics, not control flow).
    #[cfg(test)]
    pub(crate) fn stage(&self) -> u8 {
        self.stage.load(Ordering::Relaxed)
    }
}

thread_local! {
    /// The task the current thread is serving, if any — a stack, so
    /// an executor that suspends into serving another task restores
    /// the outer task afterwards.
    static CURRENT_TASK: RefCell<Vec<Arc<ServeTask>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `task` as the thread's current task (nestable).
pub(crate) fn with_current_task<R>(task: &Arc<ServeTask>, f: impl FnOnce() -> R) -> R {
    CURRENT_TASK.with(|c| c.borrow_mut().push(Arc::clone(task)));
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            CURRENT_TASK.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
    let _pop = Pop;
    f()
}

/// Advances the current task's lifecycle stage, if the calling thread
/// is serving one. Classic crossings have no current task, so this is
/// free for them.
pub(crate) fn note_stage(stage: TaskStage) {
    CURRENT_TASK.with(|c| {
        if let Some(task) = c.borrow().last() {
            task.set_stage(stage);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

    fn msg() -> WireMsg {
        WireMsg { recv_hash: None, hints: Vec::new(), payload: vec![1].into(), trace: None }
    }

    fn task() -> Arc<ServeTask> {
        let (tx, _rx) = bounded(1);
        Arc::new(ServeTask::new("C".into(), "r".into(), None, msg(), tx, None, 0))
    }

    #[test]
    fn exactly_one_claim_wins() {
        let t = task();
        assert!(t.claim_for_run());
        assert!(!t.claim_for_timeout(), "run claim excludes timeout claim");
        assert!(!t.claim_for_run(), "claims are not reentrant");
        assert_eq!(t.claim_state(), RUNNING);

        let t = task();
        assert!(t.claim_for_timeout());
        assert!(!t.claim_for_run(), "timeout claim excludes run claim");
        assert_eq!(t.claim_state(), TIMED_OUT);
    }

    #[test]
    fn stage_notes_reach_the_current_task_and_nest() {
        let outer = task();
        let inner = task();
        note_stage(TaskStage::Execute);
        assert_eq!(outer.stage(), TaskStage::Queued as u8, "no current task, no effect");
        with_current_task(&outer, || {
            note_stage(TaskStage::Decode);
            with_current_task(&inner, || {
                note_stage(TaskStage::Execute);
            });
            // The inner task's stage changed; the outer task's is
            // restored as the target of further notes.
            note_stage(TaskStage::Encode);
        });
        assert_eq!(inner.stage(), TaskStage::Execute as u8);
        assert_eq!(outer.stage(), TaskStage::Encode as u8);
    }
}
