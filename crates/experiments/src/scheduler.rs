//! Work-stealing scheduler ablation: tens of thousands of in-flight
//! crossings, a thread-per-worker model vs suspendable tasks.
//!
//! Two halves, matching what can be measured deterministically:
//!
//! - **The replay** ([`replay`]) is a seed-pinned G/G/c model of an
//!   open-loop burst: requests arrive on an exponential/bursty
//!   timeline ([`arrival_schedule`]) far faster than `workers` servers
//!   can serve them, so the in-flight population climbs past 10,000.
//!   Under [`EngineModel::ThreadPerWorker`] a server stays occupied
//!   for the *whole* request — serve body plus any nested-crossing
//!   wait — as in a thread-per-worker pool, where a worker thread
//!   blocks on the nested reply (the retired pool engine's design;
//!   its last real-engine numbers are recorded in
//!   `docs/SWITCHLESS.md`). Under [`EngineModel::WorkStealing`] the server
//!   is occupied only for the serve body plus the scheduler's own
//!   per-task overheads (steal, suspend/resume, priced by the
//!   `sgx-sim` cost model); the nested wait still elongates the
//!   *request's* completion but frees the executor, which is the whole
//!   point of suspendable tasks. Everything is integer arithmetic on
//!   the model clock: byte-identical across runs and hosts, so the
//!   p95/p99 comparison can be a hard CI gate.
//! - **The engine runs** ([`run_engine`]) drive classic crossings and
//!   the *real* work-stealing scheduler through a nested-crossing
//!   program ([`nested_bench_program`]) under concurrent callers, and
//!   check what real threads can guarantee: identical response
//!   checksums across modes, the
//!   `rmi.calls == hits + fallbacks` reconciliation invariant, and
//!   live steal/suspend activity (`rmi.sched_steals`,
//!   `rmi.sched_suspends`).
//!
//! The `scheduler_ablation` binary asserts both halves and exports the
//! `montsalvat.scheduler-ablation/v1` report CI gates on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use montsalvat_core::class::{
    ClassDef, Instr, MethodDef, MethodKind, MethodRef, Operand, Program, CTOR,
};
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::SwitchlessConfig;
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::transform::transform;
use montsalvat_core::Trust;
use runtime_sim::value::Value;
use sgx_sim::cost::{ClockMode, CostParams};
use specjvm::montecarlo::Lcg;

use crate::traffic::{percentiles, Percentiles};

/// Seed of the replay schedule (pinned: the CI gate compares
/// percentiles across engines, so the schedule must be bit-identical).
pub const SCHED_SEED: u64 = 0x5CED_0001;

/// Which engine the replay models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineModel {
    /// Thread-per-worker: a worker thread is occupied for the full
    /// request, nested-crossing wait included.
    ThreadPerWorker,
    /// The work-stealing scheduler: the executor is occupied for the
    /// serve body plus per-task scheduling overheads; nested waits
    /// suspend the task, not the thread.
    WorkStealing,
}

impl EngineModel {
    /// Stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            EngineModel::ThreadPerWorker => "thread-per-worker",
            EngineModel::WorkStealing => "work-stealing",
        }
    }
}

/// Knobs of the deterministic replay.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Master seed for arrivals and service jitter.
    pub seed: u64,
    /// Requests in the run.
    pub requests: usize,
    /// Servers (worker threads / executors) on the serving side.
    pub workers: usize,
    /// Mean interarrival gap during the calm phase, model ns.
    pub mean_interarrival_ns: u64,
    /// Arrival-rate multiplier during bursts (≥ 1).
    pub burst_factor: f64,
    /// Requests per burst phase.
    pub burst_len: usize,
    /// Requests per calm phase.
    pub calm_len: usize,
    /// Serve-body cost (decode + execute + encode), model ns.
    pub serve_ns: u64,
    /// Uniform service jitter added on top of [`ReplayConfig::serve_ns`].
    pub serve_jitter_ns: u64,
    /// Every `nested_every`-th request performs a nested crossing
    /// (0 disables nesting).
    pub nested_every: usize,
    /// Wait for the nested crossing's reply, model ns.
    pub nested_ns: u64,
    /// Per-task pickup overhead of the work-stealing engine
    /// (`sched_steal_ns` in the cost model).
    pub steal_ns: u64,
    /// Suspend + resume overhead a nested crossing costs the
    /// work-stealing engine (`sched_suspend_ns + sched_resume_ns`).
    pub suspend_resume_ns: u64,
}

impl ReplayConfig {
    /// CI-sized run; still deep enough that the in-flight population
    /// crosses 10,000 (the bursty arrivals outpace 8 servers by ~50×).
    pub fn quick() -> Self {
        let p = CostParams::paper_defaults();
        ReplayConfig {
            seed: SCHED_SEED,
            requests: 14_000,
            workers: 8,
            mean_interarrival_ns: 40,
            burst_factor: 6.0,
            burst_len: 2_000,
            calm_len: 1_000,
            serve_ns: 2_000,
            serve_jitter_ns: 600,
            nested_every: 4,
            nested_ns: 20_000,
            steal_ns: p.sched_steal_ns,
            suspend_resume_ns: p.sched_suspend_ns + p.sched_resume_ns,
        }
    }

    /// Paper-scale run.
    pub fn full() -> Self {
        ReplayConfig { requests: 60_000, ..Self::quick() }
    }
}

/// Absolute arrival times: exponential interarrivals with a square
/// burst wave, same shape as the traffic harness but pinned to the
/// scheduler seed. Deterministic per config.
pub fn arrival_schedule(cfg: &ReplayConfig) -> Vec<u64> {
    let mut rng = Lcg::new(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
    let phase = (cfg.burst_len + cfg.calm_len).max(1);
    let mut t = 0u64;
    let mut out = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let in_burst = (i % phase) < cfg.burst_len;
        let rate = if in_burst { cfg.burst_factor.max(1.0) } else { 1.0 };
        let u = rng.next_f64().max(1e-12);
        let gap = (-u.ln() * cfg.mean_interarrival_ns as f64 / rate) as u64;
        t = t.saturating_add(gap);
        out.push(t);
    }
    out
}

/// What one modelled engine produced over the replay.
#[derive(Debug)]
pub struct ReplayResult {
    /// The engine modelled.
    pub model: EngineModel,
    /// Per-request model-time latency, arrival order.
    pub latencies_ns: Vec<u64>,
    /// Exact percentiles over the latencies.
    pub latency: Percentiles,
    /// Largest number of simultaneously in-flight (posted, not yet
    /// completed) requests anywhere on the timeline.
    pub peak_inflight: usize,
    /// FNV-1a checksum over the modelled response stream — a pure
    /// function of the schedule, so it must be identical across engine
    /// models (the engine changes *when* work happens, never *what*).
    pub checksum: u64,
    /// Completion time of the last request, model ns.
    pub horizon_ns: u64,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Runs the deterministic G/G/c replay for one engine model.
pub fn replay(model: EngineModel, cfg: &ReplayConfig) -> ReplayResult {
    let arrivals = arrival_schedule(cfg);
    let mut jitter = Lcg::new(cfg.seed ^ 0xD1B5_4A32_D192_ED03);
    let mut servers: BinaryHeap<Reverse<u64>> =
        (0..cfg.workers.max(1)).map(|_| Reverse(0u64)).collect();
    let mut latencies = Vec::with_capacity(cfg.requests);
    let mut completions = Vec::with_capacity(cfg.requests);
    let mut checksum = 0xCBF2_9CE4_8422_2325u64;
    let mut horizon_ns = 0u64;
    for (i, &arrival_ns) in arrivals.iter().enumerate() {
        let serve_ns = cfg.serve_ns + (jitter.next_f64() * cfg.serve_jitter_ns as f64) as u64;
        let nested = cfg.nested_every > 0 && i % cfg.nested_every == cfg.nested_every - 1;
        let nested_ns = if nested { cfg.nested_ns } else { 0 };
        // The modelled response depends only on the schedule, never on
        // the engine: the checksum pins that byte-identity.
        fnv1a(&mut checksum, &(i as u64 ^ serve_ns.wrapping_mul(31)).to_le_bytes());
        let Reverse(free_ns) = servers.pop().expect("at least one server");
        let start_ns = free_ns.max(arrival_ns);
        let (occupy_ns, span_ns) = match model {
            // The worker thread blocks on the nested reply: server
            // held for the whole request.
            EngineModel::ThreadPerWorker => (serve_ns + nested_ns, serve_ns + nested_ns),
            // The executor pays pickup + suspend/resume but is free
            // during the nested wait; the request still waits it out.
            EngineModel::WorkStealing => {
                let overhead = cfg.steal_ns + if nested { cfg.suspend_resume_ns } else { 0 };
                (serve_ns + overhead, serve_ns + nested_ns + overhead)
            }
        };
        servers.push(Reverse(start_ns + occupy_ns));
        let completion_ns = start_ns + span_ns;
        horizon_ns = horizon_ns.max(completion_ns);
        latencies.push(completion_ns - arrival_ns);
        completions.push(completion_ns);
    }
    // Peak in-flight: sweep arrivals against sorted completions.
    completions.sort_unstable();
    let mut done = 0usize;
    let mut peak = 0usize;
    for (posted, &arrival_ns) in arrivals.iter().enumerate() {
        while done < completions.len() && completions[done] <= arrival_ns {
            done += 1;
        }
        peak = peak.max(posted + 1 - done);
    }
    let latency = percentiles(&latencies);
    ReplayResult {
        model,
        latencies_ns: latencies,
        latency,
        peak_inflight: peak,
        checksum,
        horizon_ns,
    }
}

/// The nested-crossing benchmark program: untrusted callers invoke
/// `@Trusted TNest.ping(x)`, whose body constructs an `@Untrusted
/// UObj(x)` and reads it back — so every serve performs two *nested*
/// crossings back out of the enclave, the pattern that blocks a
/// thread-per-worker thread but merely suspends a scheduler task.
pub fn nested_bench_program() -> Program {
    let uobj = ClassDef::new("UObj")
        .trust(Trust::Untrusted)
        .field("val")
        .method(MethodDef::interpreted(
            CTOR,
            MethodKind::Constructor,
            1,
            1,
            vec![
                Instr::SetField {
                    recv: Operand::This,
                    field: "val".into(),
                    value: Operand::Local(0),
                },
                Instr::Return { value: None },
            ],
        ))
        .method(MethodDef::interpreted(
            "get",
            MethodKind::Instance,
            0,
            1,
            vec![
                Instr::GetField { dst: 0, recv: Operand::This, field: "val".into() },
                Instr::Return { value: Some(Operand::Local(0)) },
            ],
        ));
    let tnest = ClassDef::new("TNest")
        .trust(Trust::Trusted)
        .method(MethodDef::interpreted(
            CTOR,
            MethodKind::Constructor,
            0,
            0,
            vec![Instr::Return { value: None }],
        ))
        .method(MethodDef::interpreted(
            "ping",
            MethodKind::Instance,
            1,
            2,
            vec![
                Instr::New { dst: 1, class: "UObj".into(), args: vec![Operand::Local(0)] },
                Instr::Call {
                    dst: Some(1),
                    class: "UObj".into(),
                    recv: Operand::Local(1),
                    method: "get".into(),
                    args: vec![],
                },
                Instr::Return { value: Some(Operand::Local(1)) },
            ],
        ));
    let main = ClassDef::new("Main").trust(Trust::Untrusted).method(MethodDef::interpreted(
        "main",
        MethodKind::Static,
        0,
        0,
        vec![Instr::Return { value: None }],
    ));
    Program::new(vec![uobj, tnest, main], MethodRef::new("Main", "main"))
        .expect("nested bench program is well-formed")
}

/// Dynamic entry points the nested benchmark needs.
pub fn nested_bench_entries() -> Vec<MethodRef> {
    vec![
        MethodRef::new("TNest", CTOR),
        MethodRef::new("TNest", "ping"),
        MethodRef::new("UObj", CTOR),
        MethodRef::new("UObj", "get"),
    ]
}

/// One real-engine run's outcome.
#[derive(Debug)]
pub struct EngineRun {
    /// Mode label (`classic` / `scheduler`).
    pub label: &'static str,
    /// FNV-1a checksum over every `ping` reply, caller-then-call order.
    pub checksum: u64,
    /// Proxy calls the callers performed.
    pub calls: u64,
    /// Model time charged across the run, ns.
    pub model_time_ns: u64,
    /// End-of-run telemetry.
    pub snap: telemetry::Snapshot,
}

/// Drives `threads` concurrent callers × `calls_per_thread` nested
/// `ping` crossings through one engine configuration (`None` = classic
/// crossings) and folds every reply into a deterministic checksum.
///
/// # Panics
///
/// Panics if any reply differs from the value the caller wrote — the
/// ablation's correctness floor.
pub fn run_engine(
    label: &'static str,
    switchless: Option<SwitchlessConfig>,
    threads: usize,
    calls_per_thread: i64,
) -> EngineRun {
    let tp = transform(&nested_bench_program());
    let options = ImageOptions::with_entry_points(nested_bench_entries());
    let (t, u) = build_partitioned_images(&tp, &options, &options).expect("images build");
    let config = AppConfig {
        gc_helper_interval: None,
        clock_mode: ClockMode::Virtual,
        switchless,
        ..AppConfig::default()
    };
    let app = Arc::new(PartitionedApp::launch(&t, &u, config).expect("launch"));
    let model_start_ns = app.shared.cost.charged().as_nanos() as u64;

    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let app = Arc::clone(&app);
        handles.push(std::thread::spawn(move || {
            app.enter_untrusted(|ctx| {
                let obj = ctx.new_object("TNest", &[])?;
                let mut replies = Vec::with_capacity(calls_per_thread as usize);
                for i in 0..calls_per_thread {
                    let x = (t as i64) * 1_000_000 + i;
                    let got = ctx.call(&obj, "ping", &[Value::Int(x)])?;
                    assert_eq!(got, Value::Int(x), "nested ping must echo its argument");
                    replies.push(x);
                }
                Ok(replies)
            })
            .expect("caller thread runs")
        }));
    }
    // Fold in spawn order so the checksum is engine-independent.
    let mut checksum = 0xCBF2_9CE4_8422_2325u64;
    let mut calls = 0u64;
    for h in handles {
        for x in h.join().expect("caller thread joins") {
            fnv1a(&mut checksum, &x.to_le_bytes());
            calls += 1;
        }
    }
    let model_time_ns =
        (app.shared.cost.charged().as_nanos() as u64).saturating_sub(model_start_ns);
    let snap = app.telemetry_snapshot();
    let app = Arc::try_unwrap(app).expect("all callers joined");
    app.shutdown();
    EngineRun { label, checksum, calls, model_time_ns, snap }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ReplayConfig {
        ReplayConfig { requests: 3_000, ..ReplayConfig::quick() }
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = small();
        for model in [EngineModel::ThreadPerWorker, EngineModel::WorkStealing] {
            let a = replay(model, &cfg);
            let b = replay(model, &cfg);
            assert_eq!(a.latencies_ns, b.latencies_ns, "{}: pinned latencies", model.label());
            assert_eq!(a.checksum, b.checksum, "{}: pinned checksum", model.label());
            assert_eq!(a.peak_inflight, b.peak_inflight, "{}: pinned depth", model.label());
        }
    }

    #[test]
    fn work_stealing_beats_thread_per_worker_under_depth() {
        let cfg = small();
        let tpw = replay(EngineModel::ThreadPerWorker, &cfg);
        let ws = replay(EngineModel::WorkStealing, &cfg);
        assert_eq!(tpw.checksum, ws.checksum, "the engine never changes responses");
        assert!(
            ws.peak_inflight > 1_000,
            "the bursty shape must pile up in-flight requests, got {}",
            ws.peak_inflight
        );
        assert!(
            ws.latency.p95_ns < tpw.latency.p95_ns && ws.latency.p99_ns < tpw.latency.p99_ns,
            "suspension must shed tail latency: p95 {} vs {}, p99 {} vs {}",
            ws.latency.p95_ns,
            tpw.latency.p95_ns,
            ws.latency.p99_ns,
            tpw.latency.p99_ns
        );
    }

    #[test]
    fn quick_config_reaches_ten_thousand_in_flight() {
        let cfg = ReplayConfig::quick();
        for model in [EngineModel::ThreadPerWorker, EngineModel::WorkStealing] {
            let r = replay(model, &cfg);
            assert!(
                r.peak_inflight >= 10_000,
                "{}: the ablation's depth floor is 10k in flight, got {}",
                model.label(),
                r.peak_inflight
            );
        }
    }

    #[test]
    fn nested_bench_echoes_through_real_nested_crossings() {
        let run = run_engine("scheduler", Some(SwitchlessConfig::fixed(2)), 2, 6);
        assert_eq!(run.calls, 12);
        assert!(
            run.snap.counter(telemetry::Counter::RmiCalls) > 0,
            "pings must cross the boundary"
        );
    }
}
