//! Deterministic tests for the trace-driven switchless tuner.
//!
//! The controller is a pure function from an [`Observation`] to a
//! [`Decision`], and [`Observation::synthetic`] routes injected wait
//! distributions through the same histogram/quantile reduction the
//! live engine uses — so the decision table is pinned here exactly,
//! with no threads, no sleeps and no wall clocks. Proptests then hold
//! the sizing invariants under arbitrary observation sequences, and an
//! integration test pins the live contract: with tracing disabled the
//! tuner still acts on the always-on task-wait histogram, alongside
//! the miss counter.

use std::sync::Arc;
use std::time::{Duration, Instant};

use montsalvat_core::annotation::Side;
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::tuner::{Observation, Tuner, TunerConfig, WorkerAction};
use montsalvat_core::exec::switchless::{SchedulerConfig, SwitchlessConfig};
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::samples::bank_program;
use montsalvat_core::transform::transform;
use montsalvat_core::MethodRef;
use proptest::prelude::*;
use runtime_sim::value::Value;

/// The modeled classic-crossing cost under paper defaults
/// (`transition_ns + relay_overhead_ns`), the tuner's yardstick.
const CROSSING_NS: u64 = 43_447;

fn tuner() -> Tuner {
    Tuner::new(TunerConfig::default(), CROSSING_NS)
}

/// Twelve identical wait samples: enough for the default
/// `min_samples = 8`, landing p50 and p95 in the same known bucket.
fn waits(ns: u64) -> Vec<u64> {
    vec![ns; 12]
}

#[test]
fn thresholds_derive_from_the_crossing_cost() {
    let t = tuner();
    // Defaults: grow above 2x the crossing, shrink below 0.25x.
    assert_eq!(t.up_threshold_ns(), CROSSING_NS * 2);
    assert_eq!(t.down_threshold_ns(), CROSSING_NS / 4);
}

/// Satellite 1: the decision table. Each row injects a wait
/// distribution and asserts the exact action, batch choice and law
/// branch. Quantiles resolve to power-of-two bucket upper bounds:
/// 200 us -> 262144 ns (far above the 86.9 us grow threshold), 1 us ->
/// 1024 ns (below the 10.8 us shrink threshold), 30 us -> 32768 ns
/// (between the two).
#[test]
fn decision_table_is_exact() {
    let t = tuner();
    struct Row {
        name: &'static str,
        obs: Observation,
        min: usize,
        max: usize,
        workers: WorkerAction,
        batch: usize,
        reason: &'static str,
    }
    let rows = [
        Row {
            name: "empty window (tracing off) holds",
            obs: Observation::synthetic(&[], &[], 0, 2, 4),
            min: 1,
            max: 4,
            workers: WorkerAction::Hold,
            batch: 4,
            reason: "insufficient-samples",
        },
        Row {
            name: "sparse window holds even with fallbacks",
            obs: Observation::synthetic(&waits(200_000)[..4], &[1], 3, 2, 4),
            min: 1,
            max: 4,
            workers: WorkerAction::Hold,
            batch: 4,
            reason: "insufficient-samples",
        },
        Row {
            name: "high p95 with headroom grows",
            obs: Observation::synthetic(&waits(200_000), &[1, 1], 0, 2, 4),
            min: 1,
            max: 4,
            workers: WorkerAction::Grow,
            batch: 4,
            reason: "queue-pressure",
        },
        Row {
            name: "fallbacks grow even with low waits",
            obs: Observation::synthetic(&waits(1_000), &[1, 1], 2, 2, 4),
            min: 1,
            max: 4,
            workers: WorkerAction::Grow,
            batch: 4,
            reason: "queue-pressure",
        },
        Row {
            name: "high p95 at max workers with real batching halves the batch",
            obs: Observation::synthetic(&waits(200_000), &[4, 4, 4], 0, 4, 4),
            min: 1,
            max: 4,
            workers: WorkerAction::Hold,
            batch: 2,
            reason: "batch-delay",
        },
        Row {
            name: "batch halving floors at one",
            obs: Observation::synthetic(&waits(200_000), &[2, 2], 0, 4, 2),
            min: 1,
            max: 4,
            workers: WorkerAction::Hold,
            batch: 1,
            reason: "batch-delay",
        },
        Row {
            name: "high p95 at max workers without batching is saturated",
            obs: Observation::synthetic(&waits(200_000), &[1, 1, 1], 0, 4, 4),
            min: 1,
            max: 4,
            workers: WorkerAction::Hold,
            batch: 4,
            reason: "saturated",
        },
        Row {
            name: "low p95 above min shrinks",
            obs: Observation::synthetic(&waits(1_000), &[1, 1], 0, 3, 4),
            min: 1,
            max: 4,
            workers: WorkerAction::Shrink,
            batch: 4,
            reason: "idle-waits",
        },
        Row {
            name: "low p95 at min with full drains doubles the batch",
            obs: Observation::synthetic(&waits(1_000), &[4, 4, 4], 0, 1, 4),
            min: 1,
            max: 4,
            workers: WorkerAction::Hold,
            batch: 8,
            reason: "batch-headroom",
        },
        Row {
            name: "batch doubling caps at batch_limit",
            obs: Observation::synthetic(&waits(1_000), &[12, 12], 0, 1, 12),
            min: 1,
            max: 4,
            workers: WorkerAction::Hold,
            batch: 16,
            reason: "batch-headroom",
        },
        Row {
            name: "batch at the limit stays put",
            obs: Observation::synthetic(&waits(1_000), &[16, 16], 0, 1, 16),
            min: 1,
            max: 4,
            workers: WorkerAction::Hold,
            batch: 16,
            reason: "steady",
        },
        Row {
            name: "mid-band waits hold steady",
            obs: Observation::synthetic(&waits(30_000), &[2, 2], 0, 2, 4),
            min: 1,
            max: 4,
            workers: WorkerAction::Hold,
            batch: 4,
            reason: "steady",
        },
        Row {
            name: "shrink and batch growth compose in one tick",
            obs: Observation::synthetic(&waits(1_000), &[4, 4], 0, 3, 4),
            min: 1,
            max: 4,
            workers: WorkerAction::Shrink,
            batch: 8,
            reason: "idle-waits",
        },
    ];
    for row in rows {
        let d = t.decide(row.min, row.max, &row.obs);
        assert_eq!(d.workers, row.workers, "{}: action", row.name);
        assert_eq!(d.target_batch, row.batch, "{}: batch", row.name);
        assert_eq!(d.reason, row.reason, "{}: reason", row.name);
    }
}

#[test]
fn synthetic_injector_matches_production_quantiles() {
    // The injector must use the same power-of-two reduction as the
    // live path: 9 samples at 3000ns and one at 500000ns put p50 and
    // p95 in the [2048, 4096) bucket and the max in [262144, 524288).
    let mut samples = vec![3_000u64; 19];
    samples.push(500_000);
    let obs = Observation::synthetic(&samples, &[2, 4], 1, 3, 4);
    assert_eq!(obs.wait_p50_ns, 4_096);
    assert_eq!(obs.wait_p95_ns, 4_096);
    assert_eq!(obs.samples, 20);
    assert_eq!(obs.fallbacks, 1);
    assert_eq!(obs.workers, 3);
    assert_eq!(obs.max_batch, 4);
    assert!((obs.mean_batch - 3.0).abs() < f64::EPSILON);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under arbitrary observation sequences, a pool that applies
    /// every decision keeps `min <= workers <= max` and
    /// `1 <= batch <= max(start_batch, batch_limit)` — the decision
    /// itself never asks for an out-of-bounds move.
    #[test]
    fn decisions_respect_sizing_invariants(
        min in 1usize..3,
        extra in 0usize..4,
        start_batch in 1usize..20,
        seq in proptest::collection::vec(
            (
                proptest::collection::vec(0u64..1_000_000, 0..24),
                proptest::collection::vec(1u64..20, 0..6),
                0u64..4,
            ),
            0..32,
        ),
    ) {
        let limit = TunerConfig::default().batch_limit;
        let max = min + extra;
        let t = tuner();
        let mut workers = min;
        let mut batch = start_batch;
        for (wait_samples, batch_samples, fallbacks) in seq {
            let obs =
                Observation::synthetic(&wait_samples, &batch_samples, fallbacks, workers, batch);
            let d = t.decide(min, max, &obs);
            match d.workers {
                WorkerAction::Grow => {
                    prop_assert!(workers < max, "grow asked beyond max");
                    workers += 1;
                }
                WorkerAction::Shrink => {
                    prop_assert!(workers > min, "shrink asked below min");
                    workers -= 1;
                }
                WorkerAction::Hold => {}
            }
            prop_assert!(d.target_batch >= 1, "batch must stay positive");
            prop_assert!(
                d.target_batch <= batch.max(limit),
                "batch {} beyond max({batch}, {limit})",
                d.target_batch
            );
            batch = d.target_batch;
            prop_assert!((min..=max).contains(&workers));
        }
    }

    /// Decision level: a window below the sample floor always holds,
    /// whatever the fallback pressure. Scaling is then exactly the
    /// miss counter's job.
    #[test]
    fn sparse_windows_never_move_anything(
        n_waits in 0usize..8,
        wait_ns in 0u64..10_000_000,
        fallbacks in 0u64..6,
        workers in 1usize..8,
        batch in 1usize..20,
    ) {
        let samples = vec![wait_ns; n_waits];
        let obs = Observation::synthetic(&samples, &[1, 2], fallbacks, workers, batch);
        let d = tuner().decide(1, 8, &obs);
        prop_assert_eq!(d.workers, WorkerAction::Hold);
        prop_assert_eq!(d.target_batch, batch);
        prop_assert_eq!(d.reason, "insufficient-samples");
    }
}

// ---------------------------------------------------------------------
// Integration: the tuner on a real app with tracing disabled.
// ---------------------------------------------------------------------

fn entries() -> Vec<MethodRef> {
    vec![
        MethodRef::new("Person", "<init>"),
        MethodRef::new("Person", "transfer"),
        MethodRef::new("Person", "getAccount"),
        MethodRef::new("Account", "<init>"),
        MethodRef::new("Account", "balance"),
    ]
}

fn launch(switchless: SwitchlessConfig) -> PartitionedApp {
    let tp = transform(&bank_program());
    let options = ImageOptions::with_entry_points(entries());
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let config = AppConfig {
        gc_helper_interval: None,
        switchless: Some(switchless),
        ..AppConfig::default()
    };
    PartitionedApp::launch(&t, &u, config).unwrap()
}

fn run_bank(app: &PartitionedApp) -> Value {
    app.enter_untrusted(|ctx| {
        let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(100)])?;
        let bob = ctx.new_object("Person", &[Value::from("Bob"), Value::Int(25)])?;
        ctx.call(&alice, "transfer", &[bob.clone(), Value::Int(25)])?;
        let acc = ctx.call(&alice, "getAccount", &[])?;
        ctx.call(&acc, "balance", &[])
    })
    .unwrap()
}

/// Engine level: an aggressively-configured tuner on an app with
/// tracing *disabled* still acts — the scheduler records task waits
/// unconditionally, so tune decisions are counted and the batch gauge
/// stays inside the tuner's bounds. The miss counter keeps working
/// beside it: the executor peak stays within bounds, the pool
/// converges back to `min_workers`, and every crossing is exactly one
/// hit or one fallback.
#[test]
fn tracing_disabled_still_drives_the_tuner_and_the_miss_counter() {
    let config = SwitchlessConfig {
        min_workers: 1,
        max_workers: 3,
        scale_up_misses: 1,
        idle_park: Duration::from_millis(5),
        autotune: Some(TunerConfig { interval_calls: 1, min_samples: 1, ..TunerConfig::default() }),
        scheduler: Some(SchedulerConfig { injector_capacity: 2, ..SchedulerConfig::default() }),
    };
    let app = Arc::new(launch(config.clone()));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut handles = Vec::new();
        for _ in 0..6 {
            let app = Arc::clone(&app);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    assert_eq!(run_bank(&app), Value::Int(75));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = app.telemetry_snapshot();
        if snap.counter(telemetry::Counter::SwitchlessTuneUps)
            + snap.counter(telemetry::Counter::SwitchlessTuneDowns)
            > 0
        {
            break;
        }
        assert!(Instant::now() < deadline, "the untraced tuner never acted: {snap:?}");
    }

    let snap = app.telemetry_snapshot();
    assert!(
        !snap.hist(telemetry::Hist::SchedTaskWaitNs).is_empty(),
        "task waits are recorded without a tracer"
    );
    let target = snap.gauge(telemetry::Gauge::SwitchlessTargetBatch);
    let limit = TunerConfig::default().batch_limit as u64;
    assert!((1..=limit).contains(&target), "batch target {target} outside [1, {limit}]");

    // The miss counter still does its job.
    let world = app.world_stats(Side::Untrusted);
    assert_eq!(world.rmi_calls, world.switchless_calls + world.switchless_fallbacks);
    let peak = snap.gauge(telemetry::Gauge::SwitchlessWorkersPeak);
    assert!(
        (config.min_workers as u64..=config.max_workers as u64).contains(&peak),
        "worker peak {peak} outside bounds"
    );

    // And idle retirement converges the pool back to `min_workers`.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = app.switchless_stats().unwrap();
        if stats.trusted.workers == config.min_workers
            && stats.untrusted.workers == config.min_workers
        {
            break;
        }
        assert!(Instant::now() < deadline, "never converged to min: {stats:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}
