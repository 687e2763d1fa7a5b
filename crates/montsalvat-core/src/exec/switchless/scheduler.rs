//! The work-stealing task scheduler: tens of thousands of in-flight
//! crossings on a handful of executor threads.
//!
//! A thread-per-worker design holds one OS thread hostage for the full
//! life of every crossing it serves — including time the relay body
//! spends *blocked on a nested crossing* — so useful concurrency is
//! capped at the thread count. This engine decouples tasks from
//! threads:
//!
//! - **Posted crossings become [`ServeTask`]s** on a per-side bounded
//!   *injector* queue. A full injector rejects the post into the
//!   classic-fallback path immediately (backpressure — a poster is
//!   never blocked on admission).
//! - **Executors** each own a local deque. A fixed pool runs
//!   `min_workers` of them; under miss-driven [`Scaling`] a side grows
//!   one executor per `scale_up_misses` misses up to `max_workers`,
//!   and an executor idle for a full park retires back toward
//!   `min_workers`. Work is found in strict order:
//!   own deque (LIFO, locality) → steal a sibling's oldest task
//!   (FIFO, charged [`CostParams::sched_steal_ns`]) → grab up to
//!   [`STEAL_BATCH`] tasks from the injector, serving the first and
//!   parking the surplus on the local deque where siblings can steal
//!   it.
//! - **Suspension**: when a task's body performs a nested crossing,
//!   the posting executor does not block — it parks the task's state
//!   on its stack (charged [`CostParams::sched_suspend_ns`], counted
//!   `rmi.sched_suspends`) and serves other tasks until the nested
//!   reply arrives (charged [`CostParams::sched_resume_ns`]). This is
//!   help-first stealing: the thread is returned to the pool even
//!   though the task is not done.
//! - **Hand-off**: a poster polls its reply, and an idle executor its
//!   side's queue, for [`SPIN_BUDGET`] before parking, yielding the CPU
//!   between polls, and only while the scheduler's threads leave a CPU
//!   free; a post wakes an executor only if one announced a park. A
//!   crossing served within the budget costs no futex wake-up.
//! - **Timeouts**: each poster owns its task's deadline
//!   ([`SchedulerConfig::task_timeout`] after the post). Past it, the
//!   poster claims a task still `QUEUED` itself and takes the
//!   classic-fallback path (counted `rmi.sched_timeouts`), so a
//!   stalled executor pool can never strand a poster.
//!
//! Every post resolves exactly once — served hit or classic fallback —
//! enforced by the task claim protocol (see [`task`](super::task)),
//! which the in-module proptest exercises under arbitrary
//! post/steal/suspend/timeout interleavings.
//!
//! [`CostParams::sched_steal_ns`]: sgx_sim::cost::CostParams::sched_steal_ns
//! [`CostParams::sched_suspend_ns`]: sgx_sim::cost::CostParams::sched_suspend_ns
//! [`CostParams::sched_resume_ns`]: sgx_sim::cost::CostParams::sched_resume_ns
//! [`SchedulerConfig::task_timeout`]: super::SchedulerConfig::task_timeout
//! [`Scaling`]: super::Scaling

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use rmi::hash::ProxyHash;
use sgx_sim::cost::CostModel;

use super::task::{with_current_task, ServeTask, TaskStage};
use super::{PostOutcome, SchedulerConfig, ServeFn, SideStats, SwitchlessConfig, SwitchlessStats};
use crate::annotation::Side;
use crate::error::VmError;
use crate::exec::ctx::WireMsg;

/// Most nested suspensions one executor stacks before it falls back
/// to a plain blocking wait (bounds stack growth under deep help-first
/// recursion).
const MAX_HELP_DEPTH: usize = 64;

/// Most tasks one executor grabs from the injector per visit; the
/// surplus lands on its local deque where siblings can steal it. 4 is
/// the smallest bound at which `switchless_ablation`'s nested workload
/// reliably steals (see `docs/SWITCHLESS.md`).
const STEAL_BATCH: usize = 4;

/// How long a waiter on either end of the hand-off spins before it
/// parks: long enough to cover one served crossing on the host, short
/// enough that an idle executor burns almost nothing per `idle_park`.
pub const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Scheduler threads in this process that hold a CPU: executors
/// serving a task (nested waits included) and waiters spinning.
static ON_CPU: AtomicUsize = AtomicUsize::new(0);

/// One count in [`ON_CPU`], given back on drop (unwinding out of a
/// panicking serve included).
struct OnCpu;

impl OnCpu {
    fn enter() -> OnCpu {
        ON_CPU.fetch_add(1, Ordering::Relaxed);
        OnCpu
    }
}

impl Drop for OnCpu {
    fn drop(&mut self) {
        ON_CPU.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Polls `ready` until it yields or [`SPIN_BUDGET`] runs out, giving
/// the CPU away between polls. Polls once instead when other threads
/// counted in [`ON_CPU`] already fill every CPU (a single-CPU host, or
/// more posters and executors than cores): a spinner there only delays
/// the thread it waits for.
fn spin_until<T>(mut ready: impl FnMut() -> Option<T>) -> Option<T> {
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let _on_cpu = OnCpu::enter();
    if ON_CPU.load(Ordering::Relaxed) > cpus {
        return ready();
    }
    let until = Instant::now() + SPIN_BUDGET;
    loop {
        if let Some(done) = ready() {
            return Some(done);
        }
        if Instant::now() >= until {
            return None;
        }
        // Unlike a bare spin hint, a yield hands the CPU to a runnable
        // thread placed on this core, such as the executor serving the
        // very task this poster waits for.
        std::thread::yield_now();
    }
}

/// One executor's stealable work queue. The owner pushes and pops at
/// the back (LIFO, cache-warm); thieves take from the front (FIFO,
/// oldest first).
pub(crate) struct Slot {
    pub(crate) deque: Mutex<VecDeque<Arc<ServeTask>>>,
    /// Whether an executor thread currently owns this slot.
    occupied: AtomicBool,
}

/// Executor-shared state of one side of the scheduler.
pub(crate) struct SchedSide {
    pub(crate) side: Side,
    /// The shared injector: posts enter here, executors grab batches.
    pub(crate) injector: Mutex<VecDeque<Arc<ServeTask>>>,
    /// Per-executor local deques, one per potential executor.
    pub(crate) slots: Vec<Slot>,
    /// Wake tokens: one per post that finds an executor sleeping.
    wake_tx: Sender<()>,
    wake_rx: Receiver<()>,
    /// Resident executors (`min_workers ≤ active ≤ max_workers`).
    pub(crate) active: AtomicUsize,
    /// Executors not serving: spinning, parked, or about to poll.
    pub(crate) idle: AtomicUsize,
    /// Executors that announced a park on the wake channel; a post
    /// sends a wake token only when this is nonzero.
    sleeping: AtomicUsize,
    /// Tasks posted and not yet claimed (injector + deques).
    pub(crate) queued: AtomicUsize,
    /// Tasks posted and not yet completed (served or timed out).
    pub(crate) inflight: AtomicUsize,
    /// Misses accumulated since the last scale-up.
    misses: AtomicU64,
    /// Set by shutdown; parked executors exit at their next poll.
    pub(crate) stop: AtomicBool,
}

impl SchedSide {
    fn new(side: Side, config: &SwitchlessConfig) -> SchedSide {
        let (wake_tx, wake_rx) = crossbeam::channel::unbounded();
        SchedSide {
            side,
            injector: Mutex::new(VecDeque::new()),
            slots: (0..config.max_workers())
                .map(|_| Slot {
                    deque: Mutex::new(VecDeque::new()),
                    occupied: AtomicBool::new(false),
                })
                .collect(),
            wake_tx,
            wake_rx,
            active: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
            sleeping: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            misses: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Claims a free executor slot, or `None` when all are owned.
    fn claim_slot(&self) -> Option<usize> {
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .occupied
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(i);
            }
        }
        None
    }
}

/// What an executor thread remembers about itself, so a nested
/// crossing posted *from* an executor can help-serve its home side
/// instead of blocking the thread.
#[derive(Clone)]
struct ExecutorCtx {
    side: Weak<SchedSide>,
    slot: usize,
    serve: ServeFn,
    cost: Arc<CostModel>,
}

thread_local! {
    /// Set for the lifetime of an executor thread's loop.
    static EXECUTOR: RefCell<Option<ExecutorCtx>> = const { RefCell::new(None) };
    /// Nested-suspension depth of the current executor thread.
    static HELP_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// The per-application work-stealing scheduler: one injector + slot
/// array per side, served by that side's executor pool.
pub(crate) struct Scheduler {
    config: SwitchlessConfig,
    sched: SchedulerConfig,
    serve: ServeFn,
    cost: Arc<CostModel>,
    trusted: Arc<SchedSide>,
    untrusted: Arc<SchedSide>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    executor_seq: AtomicUsize,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("config", &self.config)
            .field("trusted_executors", &self.trusted.active.load(Ordering::Relaxed))
            .field("untrusted_executors", &self.untrusted.active.load(Ordering::Relaxed))
            .finish()
    }
}

impl Scheduler {
    /// Spawns `min_workers` executors per side. `serve` is the relay
    /// dispatcher bound to the application; `cost` is the
    /// application's cost model, whose recorder receives the
    /// scheduler's telemetry.
    pub(crate) fn spawn(config: &SwitchlessConfig, serve: ServeFn, cost: Arc<CostModel>) -> Self {
        let config = config.normalized();
        let sched = config.scheduler.clone().unwrap_or_default();
        let scheduler = Scheduler {
            trusted: Arc::new(SchedSide::new(Side::Trusted, &config)),
            untrusted: Arc::new(SchedSide::new(Side::Untrusted, &config)),
            config,
            sched,
            serve,
            cost,
            threads: Mutex::new(Vec::new()),
            executor_seq: AtomicUsize::new(0),
        };
        for side in [Side::Trusted, Side::Untrusted] {
            for _ in 0..scheduler.config.min_workers {
                scheduler.grow(scheduler.side(side));
                scheduler.spawn_executor(scheduler.side(side));
            }
        }
        scheduler
    }

    fn side(&self, side: Side) -> &Arc<SchedSide> {
        match side {
            Side::Trusted => &self.trusted,
            Side::Untrusted => &self.untrusted,
        }
    }

    /// Live executor/queue readings (tests and the ablation harness).
    pub(crate) fn stats(&self) -> SwitchlessStats {
        let read = |s: &SchedSide| SideStats {
            workers: s.active.load(Ordering::Relaxed),
            idle: s.idle.load(Ordering::Relaxed),
            queued: s.queued.load(Ordering::Relaxed),
        };
        SwitchlessStats { trusted: read(&self.trusted), untrusted: read(&self.untrusted) }
    }

    /// Posts a call to `side`'s injector. On admission, waits for the
    /// task's completion — helping-first if the calling thread is
    /// itself an executor. On a full injector (or a timed-out task),
    /// charges the probe and returns [`PostOutcome::Fallback`]; the
    /// poster is never blocked on admission.
    pub(crate) fn post(
        &self,
        side: Side,
        class_name: String,
        relay: String,
        recv_hash: Option<ProxyHash>,
        msg: WireMsg,
    ) -> Result<PostOutcome, VmError> {
        let state = self.side(side);
        let recorder = self.cost.recorder();
        // Pressure signal: a post that finds every executor busy is a
        // miss even if the injector still has room.
        if state.idle.load(Ordering::Relaxed) == 0 {
            recorder.incr(telemetry::Counter::SwitchlessMisses);
            self.count_miss(state);
        }
        // Backpressure: a full injector rejects immediately. The
        // classic path degrades gracefully; blocking here would not.
        // Admission reserves the slot atomically, so concurrent posters
        // can never push the queue past `injector_capacity`.
        let queued = state.queued.fetch_add(1, Ordering::SeqCst) + 1;
        if queued > self.sched.injector_capacity {
            state.queued.fetch_sub(1, Ordering::Relaxed);
            recorder.incr(telemetry::Counter::SwitchlessFallbacks);
            recorder.incr(telemetry::Counter::SwitchlessMisses);
            self.count_miss(state);
            self.cost.charge_ns(self.cost.params().switchless_fallback_ns);
            return Ok(PostOutcome::Fallback);
        }
        let (reply_tx, reply_rx) = bounded(1);
        let tracer = self.cost.tracer();
        let now = self.cost.now_ns();
        let posted = tracer.is_enabled().then(|| (now, tracer.wall_now_ns()));
        let task =
            Arc::new(ServeTask::new(class_name, relay, recv_hash, msg, reply_tx, posted, now));
        // The poster keeps only a weak reference: a strong one would
        // keep the reply sender alive, so the death of the executor
        // serving the task could never disconnect the reply channel.
        let weak = Arc::downgrade(&task);
        let inflight = state.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        recorder.gauge_set(telemetry::Gauge::SchedInflight, inflight as u64);
        recorder.gauge_max(telemetry::Gauge::SwitchlessQueueDepthPeak, queued as u64);
        recorder.gauge_set(telemetry::Gauge::SwitchlessQueueDepth, queued as u64);
        state.injector.lock().push_back(task);
        // Pairs with the executor's park announcement (`sleeping`,
        // then `queued`): either this post sees the sleeper and sends
        // a token, or the sleeper sees the task and does not park.
        if state.sleeping.load(Ordering::SeqCst) > 0 {
            let _ = state.wake_tx.send(());
        }
        // The hand-off itself; the executor charges the wake, steal
        // and batched boundary copies as it schedules the task.
        self.cost.charge_ns(self.cost.params().switchless_call_ns);
        self.wait_for_completion(state, &weak, &reply_rx)
    }

    /// Waits for a posted task's completion on `state`'s side until
    /// its deadline, `task_timeout` from now, past which the poster
    /// times the task out itself ([`Scheduler::expire`]). A plain
    /// thread spins on the reply, then blocks on it. An *executor*
    /// thread instead suspends: the pending task's state stays parked
    /// on this stack while the thread serves other tasks of its home
    /// side, checking for the reply between tasks. A disconnected
    /// reply channel — the serving executor died mid-serve — is an
    /// error.
    fn wait_for_completion(
        &self,
        state: &SchedSide,
        task: &Weak<ServeTask>,
        reply_rx: &Receiver<Result<WireMsg, VmError>>,
    ) -> Result<PostOutcome, VmError> {
        let deadline = Instant::now() + self.sched.task_timeout;
        let lost = || VmError::Sgx(sgx_sim::SgxError::EnclaveLost);
        let executor = EXECUTOR.with(|e| e.borrow().clone());
        let home = executor.as_ref().and_then(|e| e.side.upgrade());
        let helper = executor.zip(home).filter(|_| HELP_DEPTH.with(|d| d.get()) < MAX_HELP_DEPTH);
        let Some((executor, home)) = helper else {
            return self.await_reply(state, task, reply_rx, deadline).ok_or_else(lost);
        };
        // Suspension: this thread is an executor — give it back to the
        // pool while the nested crossing is outstanding.
        HELP_DEPTH.with(|d| d.set(d.get() + 1));
        let recorder = self.cost.recorder();
        recorder.incr(telemetry::Counter::SchedSuspends);
        self.cost.charge_ns(self.cost.params().sched_suspend_ns);
        let completion = loop {
            if let Ok(out) = reply_rx.try_recv() {
                break Some(PostOutcome::Served(out));
            }
            // Past the deadline, time the task out unless an executor
            // already owns it; then keep helping until its reply.
            if Instant::now() >= deadline && self.expire(state, task) {
                break Some(PostOutcome::Fallback);
            }
            if let Some(task) = next_task(&home, executor.slot, &executor.cost) {
                run_task(&home, &task, &executor.serve, &executor.cost);
                continue;
            }
            // Nothing to help with: wait briefly on the reply, staying
            // responsive to both the reply and fresh work.
            match reply_rx.recv_timeout(Duration::from_micros(200)) {
                Err(RecvTimeoutError::Timeout) => continue,
                reply => break reply.ok().map(PostOutcome::Served),
            }
        };
        HELP_DEPTH.with(|d| d.set(d.get() - 1));
        self.cost.charge_ns(self.cost.params().sched_resume_ns);
        completion.ok_or_else(lost)
    }

    /// A plain poster's wait: spin on the reply, then block until
    /// `deadline`; past it, time the task out or, if an executor owns
    /// it, keep blocking for its reply. `None`: disconnected.
    fn await_reply(
        &self,
        state: &SchedSide,
        task: &Weak<ServeTask>,
        reply_rx: &Receiver<Result<WireMsg, VmError>>,
        deadline: Instant,
    ) -> Option<PostOutcome> {
        if let Some(done) = spin_until(|| match reply_rx.try_recv() {
            Ok(out) => Some(Some(PostOutcome::Served(out))),
            Err(TryRecvError::Disconnected) => Some(None),
            Err(TryRecvError::Empty) => None,
        }) {
            return done;
        }
        match reply_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Err(RecvTimeoutError::Timeout) if self.expire(state, task) => {
                Some(PostOutcome::Fallback)
            }
            Err(RecvTimeoutError::Timeout) => reply_rx.recv().ok().map(PostOutcome::Served),
            reply => reply.ok().map(PostOutcome::Served),
        }
    }

    /// Times `task` out (`QUEUED → TIMED_OUT`, so no executor serves it
    /// afterwards; its stale queue entry is dropped at claim time),
    /// counts the fallback and charges the poster's failed probe. False
    /// when an executor already owns the task, or it is gone: its reply
    /// arrives the normal way.
    fn expire(&self, state: &SchedSide, task: &Weak<ServeTask>) -> bool {
        if !task.upgrade().is_some_and(|task| task.claim_for_timeout()) {
            return false;
        }
        let queued = state.queued.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        let inflight = state.inflight.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        let recorder = self.cost.recorder();
        recorder.incr(telemetry::Counter::SchedTimeouts);
        recorder.incr(telemetry::Counter::SwitchlessFallbacks);
        recorder.gauge_set(telemetry::Gauge::SchedInflight, inflight as u64);
        recorder.gauge_set(telemetry::Gauge::SwitchlessQueueDepth, queued as u64);
        self.cost.charge_ns(self.cost.params().switchless_fallback_ns);
        true
    }

    /// Counts one miss toward miss-driven scaling: once
    /// `scale_up_misses` have accumulated on `state`'s side and the pool
    /// is below `max_workers`, spawns one more executor. A fixed pool
    /// counts nothing here.
    fn count_miss(&self, state: &Arc<SchedSide>) {
        let Some(scaling) = &self.config.autotune else { return };
        if state.misses.fetch_add(1, Ordering::Relaxed) + 1 >= scaling.scale_up_misses
            && self.grow(state).is_some()
        {
            state.misses.store(0, Ordering::Relaxed);
            self.cost.recorder().incr(telemetry::Counter::SwitchlessScaleUps);
            self.spawn_executor(state);
        }
    }

    /// Counts one more executor on `state`'s side, unless it already
    /// runs `max_workers`, and returns the new count; the caller then
    /// spawns it.
    fn grow(&self, state: &SchedSide) -> Option<usize> {
        let max = self.config.max_workers();
        let n = 1 + state
            .active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < max).then_some(n + 1))
            .ok()?;
        let recorder = self.cost.recorder();
        recorder.gauge_max(telemetry::Gauge::SwitchlessWorkersPeak, n as u64);
        recorder.gauge_set(telemetry::Gauge::SwitchlessWorkers, n as u64);
        Some(n)
    }

    /// Spawns one executor thread for `state`'s side. The caller has
    /// already counted it in `state.active`.
    fn spawn_executor(&self, state: &Arc<SchedSide>) {
        let Some(slot) = state.claim_slot() else {
            // Every slot is owned; undo the caller's count. (Cannot
            // happen while `active ≤ max_workers == slots.len()` holds,
            // but never spawn a slotless executor.)
            state.active.fetch_sub(1, Ordering::Relaxed);
            return;
        };
        let seq = self.executor_seq.fetch_add(1, Ordering::Relaxed);
        let state = Arc::clone(state);
        let serve = Arc::clone(&self.serve);
        let cost = Arc::clone(&self.cost);
        let config = self.config.clone();
        let handle = std::thread::Builder::new()
            .name(format!("{}-sched-{seq}", state.side))
            .spawn(move || executor_loop(&state, slot, &serve, &cost, &config))
            .expect("spawn scheduler executor");
        self.threads.lock().push(handle);
    }

    /// Stops the executors: parked executors are woken (or exit at
    /// their next poll), then every thread is joined.
    pub(crate) fn shutdown(self) {
        for state in [&self.trusted, &self.untrusted] {
            state.stop.store(true, Ordering::Relaxed);
            for _ in 0..state.slots.len() {
                let _ = state.wake_tx.send(());
            }
        }
        let handles = std::mem::take(&mut *self.threads.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// One executor: find work (own deque → steal → injector), serve it,
/// spin and then park when there is none; retire when idle past the
/// park interval and the pool is above its floor.
fn executor_loop(
    state: &Arc<SchedSide>,
    slot: usize,
    serve: &ServeFn,
    cost: &Arc<CostModel>,
    config: &SwitchlessConfig,
) {
    EXECUTOR.with(|e| {
        *e.borrow_mut() = Some(ExecutorCtx {
            side: Arc::downgrade(state),
            slot,
            serve: Arc::clone(serve),
            cost: Arc::clone(cost),
        });
    });
    let recorder = Arc::clone(cost.recorder());
    let params = cost.params().clone();
    // A fresh executor is parked until its first task: waking it costs.
    let mut parked = true;
    state.idle.fetch_add(1, Ordering::Relaxed);
    let mut retired = false;
    loop {
        if state.stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(task) = next_task(state, slot, cost) {
            state.idle.fetch_sub(1, Ordering::Relaxed);
            if parked {
                recorder.incr(telemetry::Counter::SwitchlessWorkerWakes);
                cost.charge_ns(params.switchless_wake_ns);
                parked = false;
            }
            let on_cpu = OnCpu::enter();
            run_task(state, &task, serve, cost);
            drop(on_cpu);
            state.idle.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        // Nothing to do: watch the queue for the spin budget before
        // paying for a park and, later, a wake-up.
        let pending =
            || state.queued.load(Ordering::Relaxed) > 0 || state.stop.load(Ordering::Relaxed);
        if spin_until(|| pending().then_some(())).is_some() {
            continue;
        }
        // Announce the park, then look once more: a post that missed
        // the announcement is visible here (see `post`).
        state.sleeping.fetch_add(1, Ordering::SeqCst);
        let woke = if state.queued.load(Ordering::SeqCst) > 0 {
            Ok(())
        } else {
            state.wake_rx.recv_timeout(config.idle_park)
        };
        state.sleeping.fetch_sub(1, Ordering::SeqCst);
        match woke {
            // A token arrived (or work did) — loop around and look for
            // it (a sibling may already have taken it).
            Ok(()) => continue,
            Err(RecvTimeoutError::Timeout) => {
                if state.stop.load(Ordering::Relaxed) {
                    break;
                }
                // Idle a full park interval: retire if above the floor.
                if try_retire(state, config.min_workers) {
                    recorder.incr(telemetry::Counter::SwitchlessScaleDowns);
                    recorder.gauge_set(
                        telemetry::Gauge::SwitchlessWorkers,
                        state.active.load(Ordering::Relaxed) as u64,
                    );
                    retired = true;
                    break;
                }
                parked = true;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if !retired {
        state.active.fetch_sub(1, Ordering::Relaxed);
    }
    state.idle.fetch_sub(1, Ordering::Relaxed);
    state.slots[slot].occupied.store(false, Ordering::Release);
    EXECUTOR.with(|e| {
        *e.borrow_mut() = None;
    });
}

/// Decrements `state.active` unless that would drop the pool below
/// `min`; returns whether the calling executor should exit.
fn try_retire(state: &SchedSide, min: usize) -> bool {
    loop {
        let n = state.active.load(Ordering::Relaxed);
        if n <= min {
            return false;
        }
        if state.active.compare_exchange(n, n - 1, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
            return true;
        }
    }
}

/// Wire bytes of one injector grab crossing as a single batch frame:
/// a 6-byte header (2-byte magic, u32 payload count), then each
/// payload behind a u32 length prefix. The frame is priced, never
/// materialised.
fn frame_len(wire_lens: impl Iterator<Item = usize>) -> usize {
    6 + wire_lens.map(|len| 4 + len).sum::<usize>()
}

/// Finds the next task in steal order: own deque (newest first) →
/// a sibling's deque (oldest first, charged as a steal) → an injector
/// batch grab whose surplus lands on the own deque.
fn next_task(state: &Arc<SchedSide>, slot: usize, cost: &Arc<CostModel>) -> Option<Arc<ServeTask>> {
    if let Some(task) = state.slots[slot].deque.lock().pop_back() {
        return Some(task);
    }
    let n = state.slots.len();
    for offset in 1..n {
        let victim = (slot + offset) % n;
        let stolen = state.slots[victim].deque.lock().pop_front();
        if let Some(task) = stolen {
            cost.recorder().incr(telemetry::Counter::SchedSteals);
            cost.charge_ns(cost.params().sched_steal_ns);
            return Some(task);
        }
    }
    let mut grabbed: Vec<Arc<ServeTask>> = Vec::new();
    {
        let mut injector = state.injector.lock();
        while grabbed.len() < STEAL_BATCH {
            match injector.pop_front() {
                Some(task) => grabbed.push(task),
                None => break,
            }
        }
    }
    if grabbed.is_empty() {
        return None;
    }
    // The whole grab crosses as one batch frame: one header, then
    // each request's length-prefixed wire bytes.
    cost.recorder().record(telemetry::Hist::SwitchlessBatchJobs, grabbed.len() as u64);
    let frame_bytes = frame_len(grabbed.iter().map(|t| t.msg.wire_len()));
    cost.charge_ns((frame_bytes as f64 * cost.params().copy_ns_per_byte) as u64);
    let first = grabbed.remove(0);
    if !grabbed.is_empty() {
        let mut deque = state.slots[slot].deque.lock();
        for task in grabbed {
            deque.push_back(task);
        }
    }
    Some(first)
}

/// Claims and serves one task end to end: advance the stage machine,
/// record the task wait, execute the relay (with the task current, so
/// `serve_relay_inner` can advance decode/execute/encode), and deliver
/// the reply. A task its poster already timed out is dropped.
fn run_task(state: &Arc<SchedSide>, task: &Arc<ServeTask>, serve: &ServeFn, cost: &Arc<CostModel>) {
    if !task.claim_for_run() {
        return;
    }
    state.queued.fetch_sub(1, Ordering::Relaxed);
    let recorder = cost.recorder();
    recorder.gauge_set(
        telemetry::Gauge::SwitchlessQueueDepth,
        state.queued.load(Ordering::Relaxed) as u64,
    );
    let picked_up = cost.now_ns();
    let wait = picked_up.saturating_sub(task.posted_model_ns);
    recorder.record(telemetry::Hist::SchedTaskWaitNs, wait);
    if let Some((posted_model, posted_wall)) = task.posted {
        cost.tracer().span_at(
            state.side.lane(),
            "queue",
            task.msg.parent_span(),
            posted_model,
            picked_up.max(posted_model),
            posted_wall,
            || format!("task-wait:{}.{}", task.class_name, task.relay),
        );
    }
    task.set_stage(TaskStage::Decode);
    let out = with_current_task(task, || {
        serve(state.side, &task.class_name, &task.relay, task.recv_hash, &task.msg)
    });
    task.set_stage(TaskStage::Complete);
    let inflight = state.inflight.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
    recorder.gauge_set(telemetry::Gauge::SchedInflight, inflight as u64);
    let _ = task.reply.send(out);
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::Duration;

    use proptest::prelude::*;
    use sgx_sim::cost::{ClockMode, CostParams};

    use super::*;
    use crate::exec::switchless::Scaling;

    fn echo_serve() -> ServeFn {
        Arc::new(|_side, _class, _relay, _hash, msg| Ok(msg.clone()))
    }

    /// A serve fn that blocks until `release` is signalled, so tests
    /// can hold the executors busy deterministically.
    fn gated_serve(entered: Arc<AtomicUsize>, release: Receiver<()>) -> ServeFn {
        Arc::new(move |_side, _class, _relay, _hash, msg| {
            entered.fetch_add(1, Ordering::SeqCst);
            let _ = release.recv();
            Ok(msg.clone())
        })
    }

    fn msg() -> WireMsg {
        WireMsg { recv_hash: None, hints: Vec::new(), payload: vec![1, 2, 3].into(), trace: None }
    }

    fn model() -> Arc<CostModel> {
        Arc::new(CostModel::new(CostParams::paper_defaults(), ClockMode::Virtual))
    }

    fn sched_config(sched: SchedulerConfig, workers: usize) -> SwitchlessConfig {
        SwitchlessConfig { scheduler: Some(sched), ..SwitchlessConfig::fixed(workers) }
    }

    fn task_for(
        side: &Arc<SchedSide>,
        id: u32,
    ) -> (Arc<ServeTask>, Receiver<Result<WireMsg, VmError>>) {
        let (tx, rx) = bounded(1);
        let task = Arc::new(ServeTask::new(format!("C{id}"), "r".into(), None, msg(), tx, None, 0));
        side.queued.fetch_add(1, Ordering::Relaxed);
        side.inflight.fetch_add(1, Ordering::Relaxed);
        (task, rx)
    }

    #[test]
    fn served_posts_round_trip() {
        let sched =
            Scheduler::spawn(&sched_config(SchedulerConfig::default(), 2), echo_serve(), model());
        for _ in 0..16 {
            match sched.post(Side::Trusted, "C".into(), "r".into(), None, msg()).unwrap() {
                PostOutcome::Served(out) => assert_eq!(out.unwrap(), msg()),
                PostOutcome::Fallback => panic!("an idle scheduler must not fall back"),
            }
        }
        assert_eq!(sched.stats().trusted.queued, 0);
        sched.shutdown();
    }

    /// Once scheduler threads hold every CPU, a waiter polls once and
    /// goes on to park instead of spinning out the budget. (Other tests
    /// running alongside can only raise the count, never lower it.)
    #[test]
    fn waiters_do_not_spin_when_scheduler_threads_fill_every_cpu() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let held: Vec<OnCpu> = (0..cpus).map(|_| OnCpu::enter()).collect();
        let mut polls = 0;
        let started = Instant::now();
        let spun = spin_until(|| {
            polls += 1;
            None::<()>
        });
        assert_eq!((spun, polls), (None, 1));
        assert!(started.elapsed() < SPIN_BUDGET);
        drop(held);
    }

    /// Miss pressure spawns executors up to `max_workers` and never
    /// beyond; once the load is gone, idle executors retire back to
    /// `min_workers` and no further.
    #[test]
    fn miss_pressure_scales_up_and_idleness_scales_down() {
        let cost = model();
        let entered = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = bounded::<()>(64);
        let config = SwitchlessConfig {
            min_workers: 1,
            idle_park: Duration::from_millis(5),
            autotune: Some(Scaling { max_workers: 3, scale_up_misses: 1 }),
            scheduler: Some(SchedulerConfig { injector_capacity: 1, ..SchedulerConfig::default() }),
        };
        let sched = Arc::new(Scheduler::spawn(
            &config,
            gated_serve(Arc::clone(&entered), release_rx),
            Arc::clone(&cost),
        ));
        assert_eq!(sched.stats().untrusted.workers, 1);

        // Hold executors busy and keep posting: misses must spawn more
        // executors, but never beyond max_workers. The scale-up counter
        // is monotone, so waiting on it (rather than on the live
        // executor count, which may already be shrinking again) is
        // race-free.
        let mut posters = Vec::new();
        for _ in 0..6 {
            let sched = Arc::clone(&sched);
            posters.push(std::thread::spawn(move || {
                sched.post(Side::Untrusted, "C".into(), "r".into(), None, msg()).unwrap();
            }));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while cost.recorder().counter(telemetry::Counter::SwitchlessScaleUps) < 2 {
            assert!(Instant::now() < deadline, "scale-up never happened");
            std::thread::yield_now();
        }
        let peak = cost.recorder().gauge(telemetry::Gauge::SwitchlessWorkersPeak);
        assert!(peak <= config.max_workers() as u64, "peak {peak} beyond max");
        assert!(sched.stats().untrusted.workers <= config.max_workers());

        for _ in 0..16 {
            let _ = release_tx.send(());
        }
        for p in posters {
            // Some posts fell back (injector full) — both outcomes end.
            p.join().unwrap();
        }

        // With the load gone, the pool must shrink back to min_workers
        // and no further.
        let deadline = Instant::now() + Duration::from_secs(5);
        while sched.stats().untrusted.workers > config.min_workers {
            assert!(Instant::now() < deadline, "scale-down never happened");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(sched.stats().untrusted.workers, config.min_workers);
        assert!(cost.recorder().counter(telemetry::Counter::SwitchlessScaleDowns) >= 1);
        match Arc::try_unwrap(sched) {
            Ok(sched) => sched.shutdown(),
            Err(_) => panic!("no other scheduler handles remain"),
        }
    }

    /// White-box steal order: an executor with an empty local deque
    /// takes the *oldest* task from a sibling's deque before touching
    /// the injector, and the steal is counted and charged.
    #[test]
    fn empty_deque_steals_oldest_from_sibling_before_injector() {
        let cost = model();
        let config = sched_config(SchedulerConfig::default(), 2).normalized();
        let side = Arc::new(SchedSide::new(Side::Trusted, &config));
        let (first, _rx1) = task_for(&side, 1);
        let (second, _rx2) = task_for(&side, 2);
        side.slots[1].deque.lock().push_back(Arc::clone(&first));
        side.slots[1].deque.lock().push_back(Arc::clone(&second));
        // A third task sits in the injector; the sibling deque wins.
        let (third, _rx3) = task_for(&side, 3);
        side.injector.lock().push_back(Arc::clone(&third));

        let charged_before = cost.charged();
        let got = next_task(&side, 0, &cost).expect("a task is available");
        assert!(Arc::ptr_eq(&got, &first), "thieves take the victim's oldest task");
        assert_eq!(cost.recorder().counter(telemetry::Counter::SchedSteals), 1);
        let steal_ns = cost.params().sched_steal_ns;
        assert!(
            cost.charged() - charged_before >= Duration::from_nanos(steal_ns),
            "the steal must be charged"
        );

        let got = next_task(&side, 0, &cost).expect("the second sibling task");
        assert!(Arc::ptr_eq(&got, &second));
        assert_eq!(cost.recorder().counter(telemetry::Counter::SchedSteals), 2);

        // Both deques empty now: the injector is the last resort.
        let got = next_task(&side, 0, &cost).expect("the injector task");
        assert!(Arc::ptr_eq(&got, &third));
        assert_eq!(cost.recorder().counter(telemetry::Counter::SchedSteals), 2);
        assert!(next_task(&side, 0, &cost).is_none());
    }

    /// White-box injector grab: one visit takes up to [`STEAL_BATCH`]
    /// tasks, serves the first and parks the surplus on the grabbing
    /// executor's own deque — where a sibling can steal it.
    #[test]
    fn injector_grab_parks_surplus_on_own_deque() {
        let cost = model();
        let config = sched_config(SchedulerConfig::default(), 2).normalized();
        let side = Arc::new(SchedSide::new(Side::Trusted, &config));
        let tasks: Vec<_> = (0..STEAL_BATCH as u32 + 1).map(|i| task_for(&side, i).0).collect();
        for t in &tasks {
            side.injector.lock().push_back(Arc::clone(t));
        }

        let got = next_task(&side, 0, &cost).expect("grab returns the first task");
        assert!(Arc::ptr_eq(&got, &tasks[0]));
        assert_eq!(side.injector.lock().len(), 1, "grab bounded by STEAL_BATCH");
        assert_eq!(side.slots[0].deque.lock().len(), STEAL_BATCH - 1, "surplus parked locally");
        let snap = cost.recorder().snapshot();
        assert_eq!(snap.hist(telemetry::Hist::SwitchlessBatchJobs).sum, STEAL_BATCH as u64);

        // The parked surplus is a steal target for slot 1.
        let got = next_task(&side, 1, &cost).expect("sibling steals the surplus");
        assert!(Arc::ptr_eq(&got, &tasks[1]));
        assert_eq!(cost.recorder().counter(telemetry::Counter::SchedSteals), 1);
    }

    /// Backpressure: with a one-slot injector and the only executor
    /// held busy, one task may wait queued; the next post must be
    /// rejected into the fallback path without blocking.
    #[test]
    fn full_injector_rejects_post_into_fallback() {
        let cost = model();
        let entered = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = bounded::<()>(16);
        let config = sched_config(
            SchedulerConfig { injector_capacity: 1, task_timeout: Duration::from_secs(30) },
            1,
        );
        let sched = Arc::new(Scheduler::spawn(
            &config,
            gated_serve(Arc::clone(&entered), release_rx),
            Arc::clone(&cost),
        ));

        // Post A on a helper thread; wait until the executor holds it.
        let sched_a = Arc::clone(&sched);
        let a = std::thread::spawn(move || {
            sched_a.post(Side::Trusted, "C".into(), "r".into(), None, msg()).unwrap()
        });
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // Post B on a helper thread; wait until it occupies the slot.
        let sched_b = Arc::clone(&sched);
        let b = std::thread::spawn(move || {
            sched_b.post(Side::Trusted, "C".into(), "r".into(), None, msg()).unwrap()
        });
        while sched.stats().trusted.queued == 0 {
            std::thread::yield_now();
        }

        // The injector is provably full: this post must be rejected.
        let before = cost.recorder().counter(telemetry::Counter::SwitchlessFallbacks);
        let charged_before = cost.charged();
        match sched.post(Side::Trusted, "C".into(), "r".into(), None, msg()).unwrap() {
            PostOutcome::Fallback => {}
            PostOutcome::Served(_) => panic!("a full injector must reject"),
        }
        assert_eq!(
            cost.recorder().counter(telemetry::Counter::SwitchlessFallbacks),
            before + 1,
            "rejection must count a fallback"
        );
        let probe = cost.params().switchless_fallback_ns;
        assert!(
            cost.charged() - charged_before >= Duration::from_nanos(probe),
            "rejection must charge the failed probe"
        );

        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert!(matches!(a.join().unwrap(), PostOutcome::Served(Ok(_))));
        assert!(matches!(b.join().unwrap(), PostOutcome::Served(Ok(_))));
        match Arc::try_unwrap(sched) {
            Ok(sched) => sched.shutdown(),
            Err(_) => panic!("no other scheduler handles remain"),
        }
    }

    /// A task that sat queued past its deadline is timed out into the
    /// fallback path by its own poster: the poster gets `Fallback`,
    /// `rmi.sched_timeouts` counts it, and the held task is *not*
    /// served afterwards (exactly-once).
    #[test]
    fn timeout_sweeps_overdue_tasks_into_fallback() {
        let cost = model();
        let entered = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = bounded::<()>(16);
        let config = sched_config(
            SchedulerConfig { task_timeout: Duration::from_millis(10), ..Default::default() },
            1,
        );
        let sched = Arc::new(Scheduler::spawn(
            &config,
            gated_serve(Arc::clone(&entered), release_rx),
            Arc::clone(&cost),
        ));

        let sched_a = Arc::clone(&sched);
        let a = std::thread::spawn(move || {
            sched_a.post(Side::Trusted, "held".into(), "r".into(), None, msg()).unwrap()
        });
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // B queues behind the held executor and must be swept.
        let outcome = sched.post(Side::Trusted, "late".into(), "r".into(), None, msg()).unwrap();
        assert!(matches!(outcome, PostOutcome::Fallback), "an overdue task falls back");
        assert!(cost.recorder().counter(telemetry::Counter::SchedTimeouts) >= 1);
        assert!(cost.recorder().counter(telemetry::Counter::SwitchlessFallbacks) >= 1);

        release_tx.send(()).unwrap();
        assert!(matches!(a.join().unwrap(), PostOutcome::Served(Ok(_))));
        // Only A's serve ever ran: the swept task was dropped at claim
        // time, not served twice.
        release_tx.send(()).unwrap(); // unblock a spurious serve, if any
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(entered.load(Ordering::SeqCst), 1, "the swept task must never be served");
        match Arc::try_unwrap(sched) {
            Ok(sched) => sched.shutdown(),
            Err(_) => panic!("no other scheduler handles remain"),
        }
    }

    /// The poster owns its task's deadline on both waiter paths. With
    /// the untrusted side's only executor wedged, a plain-thread post
    /// and a nested post from a trusted executor (the help-first path)
    /// each fall back within `task_timeout` plus 100 ms, each counts
    /// one timeout, and neither timed-out task is served afterwards.
    #[test]
    fn poster_owned_deadline_bounds_both_waiter_paths() {
        let cost = model();
        let timeout = Duration::from_millis(40);
        let bound = timeout + Duration::from_millis(100);
        let entered = Arc::new(AtomicUsize::new(0));
        let (release_tx, release_rx) = bounded::<()>(16);
        let served: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let nested: Arc<Mutex<Option<(bool, Duration)>>> = Arc::new(Mutex::new(None));
        let slot: Arc<Mutex<Option<Arc<Scheduler>>>> = Arc::new(Mutex::new(None));
        let serve: ServeFn = {
            let (slot, served, nested) =
                (Arc::clone(&slot), Arc::clone(&served), Arc::clone(&nested));
            let wedge = gated_serve(Arc::clone(&entered), release_rx);
            Arc::new(move |side, class, relay, hash, msg| match class {
                "held" => wedge(side, class, relay, hash, msg),
                "outer" => {
                    let sched = slot.lock().clone().expect("scheduler installed before posts");
                    let started = Instant::now();
                    let out = sched.post(
                        Side::Untrusted,
                        "inner".into(),
                        "r".into(),
                        None,
                        msg.clone(),
                    )?;
                    *nested.lock() =
                        Some((matches!(out, PostOutcome::Fallback), started.elapsed()));
                    Ok(msg.clone())
                }
                _ => {
                    served.lock().push(class.to_string());
                    Ok(msg.clone())
                }
            })
        };
        let config =
            sched_config(SchedulerConfig { task_timeout: timeout, ..Default::default() }, 1);
        let sched = Arc::new(Scheduler::spawn(&config, serve, Arc::clone(&cost)));
        *slot.lock() = Some(Arc::clone(&sched));
        let sched_held = Arc::clone(&sched);
        let held = std::thread::spawn(move || {
            sched_held.post(Side::Untrusted, "held".into(), "r".into(), None, msg()).unwrap()
        });
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let timeouts = || cost.recorder().counter(telemetry::Counter::SchedTimeouts);

        // Plain-thread poster.
        let started = Instant::now();
        let outcome = sched.post(Side::Untrusted, "late".into(), "r".into(), None, msg()).unwrap();
        let waited = started.elapsed();
        assert!(matches!(outcome, PostOutcome::Fallback), "a wedged side falls back");
        assert!(waited >= timeout && waited < bound, "plain poster waited {waited:?}");
        assert_eq!(timeouts(), 1);

        // Help-first poster: the trusted executor serving `outer`
        // suspends on its nested post to the wedged side.
        match sched.post(Side::Trusted, "outer".into(), "r".into(), None, msg()).unwrap() {
            PostOutcome::Served(out) => assert_eq!(out.unwrap(), msg()),
            PostOutcome::Fallback => panic!("the trusted side is idle"),
        }
        let (fell_back, waited) = nested.lock().take().expect("the outer body ran");
        assert!(fell_back, "the nested post to a wedged side falls back");
        assert!(waited >= timeout && waited < bound, "help-first poster waited {waited:?}");
        assert_eq!(cost.recorder().counter(telemetry::Counter::SchedSuspends), 1);
        assert_eq!(timeouts(), 2);

        release_tx.send(()).unwrap();
        assert!(matches!(held.join().unwrap(), PostOutcome::Served(Ok(_))));
        // The freed executor pops both stale entries and drops them.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(entered.load(Ordering::SeqCst), 1);
        let served = served.lock().clone();
        assert!(served.is_empty(), "timed-out tasks were served: {served:?}");
        assert_eq!(sched.stats().untrusted.queued, 0);
        *slot.lock() = None;
        match Arc::try_unwrap(sched) {
            Ok(sched) => sched.shutdown(),
            Err(_) => panic!("no other scheduler handles remain"),
        }
    }

    /// A nested crossing posted from an executor thread suspends the
    /// outer task instead of blocking the thread: the suspend is
    /// counted, and the nested round trip completes with one executor
    /// per side.
    #[test]
    fn nested_crossing_suspends_the_executor_task() {
        let cost = model();
        let slot: Arc<Mutex<Option<Arc<Scheduler>>>> = Arc::new(Mutex::new(None));
        let serve: ServeFn = {
            let slot = Arc::clone(&slot);
            Arc::new(move |side, class, _relay, _hash, msg| {
                if class == "outer" {
                    let sched = slot.lock().clone().expect("scheduler installed before posts");
                    let target = match side {
                        Side::Trusted => Side::Untrusted,
                        Side::Untrusted => Side::Trusted,
                    };
                    match sched.post(target, "inner".into(), "r".into(), None, msg.clone())? {
                        PostOutcome::Served(out) => out,
                        PostOutcome::Fallback => Ok(msg.clone()),
                    }
                } else {
                    Ok(msg.clone())
                }
            })
        };
        let sched = Arc::new(Scheduler::spawn(
            &sched_config(SchedulerConfig::default(), 1),
            serve,
            Arc::clone(&cost),
        ));
        *slot.lock() = Some(Arc::clone(&sched));

        match sched.post(Side::Trusted, "outer".into(), "r".into(), None, msg()).unwrap() {
            PostOutcome::Served(out) => assert_eq!(out.unwrap(), msg()),
            PostOutcome::Fallback => panic!("an idle scheduler must not fall back"),
        }
        assert_eq!(
            cost.recorder().counter(telemetry::Counter::SchedSuspends),
            1,
            "the nested crossing must suspend the outer task"
        );

        *slot.lock() = None;
        match Arc::try_unwrap(sched) {
            Ok(sched) => sched.shutdown(),
            Err(_) => panic!("no other scheduler handles remain"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Exactly-once under arbitrary interleavings of posts,
        /// steals, suspensions and timeouts: every posted call
        /// resolves exactly once — a `Served` outcome whose body ran
        /// exactly once, or a `Fallback` whose body never ran — and
        /// the shared fallback counter agrees with the outcomes.
        #[test]
        fn interleavings_never_lose_or_duplicate_a_task(
            executors in 1usize..4,
            capacity in 1usize..9,
            timeout_ms in 1u64..12,
            service_us in proptest::collection::vec(0u64..2_500, 4..32),
        ) {
            let cost = model();
            let served: Arc<Mutex<HashMap<usize, u32>>> = Arc::new(Mutex::new(HashMap::new()));
            let serve: ServeFn = {
                let served = Arc::clone(&served);
                Arc::new(move |_side, class, _relay, _hash, msg| {
                    let (id, delay) = class
                        .split_once(':')
                        .map(|(i, d)| (i.parse().unwrap(), d.parse().unwrap()))
                        .expect("class carries `id:delay_us`");
                    if delay > 0 {
                        std::thread::sleep(Duration::from_micros(delay));
                    }
                    *served.lock().entry(id).or_insert(0u32) += 1;
                    Ok(msg.clone())
                })
            };
            let config = sched_config(
                SchedulerConfig {
                    injector_capacity: capacity,
                    task_timeout: Duration::from_millis(timeout_ms),
                },
                executors,
            );
            let sched = Arc::new(Scheduler::spawn(&config, serve, Arc::clone(&cost)));

            let mut posters = Vec::new();
            for (i, delay) in service_us.iter().copied().enumerate() {
                let sched = Arc::clone(&sched);
                let side = if i % 2 == 0 { Side::Trusted } else { Side::Untrusted };
                posters.push(std::thread::spawn(move || {
                    let out = sched
                        .post(side, format!("{i}:{delay}"), "r".into(), None, msg())
                        .unwrap();
                    (i, matches!(out, PostOutcome::Served(_)))
                }));
            }
            let outcomes: Vec<(usize, bool)> =
                posters.into_iter().map(|p| p.join().unwrap()).collect();
            prop_assert_eq!(outcomes.len(), service_us.len(), "every post resolves");

            let served = served.lock();
            let mut fallbacks = 0u64;
            for (id, hit) in &outcomes {
                let runs = served.get(id).copied().unwrap_or(0);
                if *hit {
                    prop_assert_eq!(runs, 1, "served post {} must run exactly once", id);
                } else {
                    prop_assert_eq!(runs, 0, "fallback post {} must never run", id);
                    fallbacks += 1;
                }
            }
            prop_assert_eq!(
                cost.recorder().counter(telemetry::Counter::SwitchlessFallbacks),
                fallbacks,
                "fallback telemetry agrees with outcomes"
            );
            prop_assert!(
                cost.recorder().counter(telemetry::Counter::SchedTimeouts) <= fallbacks,
                "timeouts are a subset of fallbacks"
            );
            drop(served);
            match Arc::try_unwrap(sched) {
                Ok(sched) => sched.shutdown(),
                Err(_) => return Err(TestCaseError::fail("scheduler handle leaked")),
            }
        }
    }
}
