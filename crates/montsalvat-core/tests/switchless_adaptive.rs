//! Tests for the switchless scheduler's executor sizing: bounded-
//! injector classic fallback, miss-driven scaling, fixed pools, and
//! the executor-count invariants.

use std::sync::Arc;
use std::time::{Duration, Instant};

use montsalvat_core::annotation::Side;
use montsalvat_core::exec::app::{AppConfig, PartitionedApp};
use montsalvat_core::exec::switchless::{Scaling, SchedulerConfig, SwitchlessConfig, SPIN_BUDGET};
use montsalvat_core::image_builder::{build_partitioned_images, ImageOptions};
use montsalvat_core::samples::bank_program;
use montsalvat_core::transform::transform;
use montsalvat_core::MethodRef;
use proptest::prelude::*;
use runtime_sim::value::Value;

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

/// Injector bounds for the saturation tests: `capacity` slots per
/// side.
fn injector(capacity: usize) -> Option<SchedulerConfig> {
    Some(SchedulerConfig { injector_capacity: capacity, ..Default::default() })
}

/// A single executor behind a one-slot injector, saturated by
/// concurrent callers: some posts must find the injector full, fall
/// back to classic crossings (real transitions), and be counted as
/// fallbacks — while every call still returns the right answer. The
/// pool is fixed: the miss pressure never grows it.
#[test]
fn saturating_one_worker_falls_back_to_classic_and_counts_it() {
    let app =
        Arc::new(launch(SwitchlessConfig { scheduler: injector(1), ..SwitchlessConfig::fixed(1) }));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let app = Arc::clone(&app);
        handles.push(std::thread::spawn(move || {
            for _ in 0..25 {
                assert_eq!(run_bank(&app), Value::Int(75));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let world = app.world_stats(Side::Untrusted);
    assert!(
        world.switchless_fallbacks > 0,
        "8 callers against 1 executor and 1 injector slot must overflow: {world:?}"
    );
    // Every crossing is exactly one of: switchless hit, classic fallback.
    assert_eq!(world.rmi_calls, world.switchless_calls + world.switchless_fallbacks);

    // The fallbacks performed real transitions; the hits did not.
    let sgx = app.sgx_stats();
    assert!(sgx.ecalls > 0, "fallbacks must cross classically: {sgx:?}");

    // The recorder's view agrees with the world counters.
    let snap = app.telemetry_snapshot();
    assert_eq!(snap.counter(telemetry::Counter::SwitchlessFallbacks), world.switchless_fallbacks);
    assert_eq!(snap.counter(telemetry::Counter::SwitchlessCalls), world.switchless_calls);
    assert!(snap.counter(telemetry::Counter::SwitchlessMisses) >= world.switchless_fallbacks);
    assert_eq!(snap.counter(telemetry::Counter::SwitchlessScaleUps), 0, "a fixed pool never grows");
    assert_eq!(snap.gauge(telemetry::Gauge::SwitchlessWorkersPeak), 1);
}

/// Adaptive scaling under real load: executor wakes and (under
/// pressure) scale-ups are visible in telemetry, the queue-depth gauge
/// never reports beyond the configured injector capacity, and with no
/// tracer attached every hit still records its task wait.
#[test]
fn adaptive_engine_reports_wakes_and_bounded_queue_depth() {
    let capacity = 4;
    let config = SwitchlessConfig {
        min_workers: 1,
        autotune: Some(Scaling { max_workers: 4, scale_up_misses: 2 }),
        scheduler: injector(capacity),
        ..SwitchlessConfig::default()
    };
    let app = Arc::new(launch(config.clone()));
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
    assert!(snap.counter(telemetry::Counter::SwitchlessWorkerWakes) > 0);
    let peak_depth = snap.gauge(telemetry::Gauge::SwitchlessQueueDepthPeak);
    assert!(
        (1..=capacity as u64).contains(&peak_depth),
        "queue depth {peak_depth} outside [1, capacity {capacity}]"
    );
    let peak_workers = snap.gauge(telemetry::Gauge::SwitchlessWorkersPeak);
    assert!(
        (config.min_workers as u64..=config.max_workers() as u64).contains(&peak_workers),
        "worker peak {peak_workers} outside configured bounds"
    );
    let hits = snap.counter(telemetry::Counter::SwitchlessCalls);
    assert!(hits > 0);
    assert_eq!(
        snap.hist(telemetry::Hist::SchedTaskWaitNs).count,
        hits,
        "task waits are recorded without a tracer"
    );
}

/// Regression: the crossing accounting must survive miss-driven
/// scaling actively resizing the executor pool. A pool that grows on
/// every miss and retires after a 5 ms idle park is driven until it
/// records a scale-up — then every crossing must still be exactly one
/// hit or one fallback, the task-wait histogram and the `task-wait:`
/// spans must each hold exactly one entry per hit (every post was
/// traced), and the executor count must stay inside its configured
/// bounds throughout.
#[test]
fn miss_driven_resizing_preserves_crossing_and_queue_wait_accounting() {
    let tracer = telemetry::trace::Tracer::new();
    tracer.enable_with_capacity(1 << 20);
    let config = SwitchlessConfig {
        min_workers: 1,
        idle_park: Duration::from_millis(5),
        autotune: Some(Scaling { max_workers: 4, scale_up_misses: 1 }),
        scheduler: injector(2),
    };
    let tp = transform(&bank_program());
    let options = ImageOptions::with_entry_points(entries());
    let (t, u) = build_partitioned_images(&tp, &options, &options).unwrap();
    let app_config = AppConfig {
        gc_helper_interval: None,
        switchless: Some(config.clone()),
        trace: Some(Arc::clone(&tracer)),
        ..AppConfig::default()
    };
    let app = Arc::new(PartitionedApp::launch(&t, &u, app_config).unwrap());

    // Drive concurrent load until the pool has demonstrably grown,
    // sampling the worker-count invariant the whole time.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut handles = Vec::new();
        for _ in 0..6 {
            let app = Arc::clone(&app);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    assert_eq!(run_bank(&app), Value::Int(75));
                }
            }));
        }
        while handles.iter().any(|h| !h.is_finished()) {
            let stats = app.switchless_stats().unwrap();
            for side in [stats.trusted, stats.untrusted] {
                assert!(side.workers >= config.min_workers, "below min: {stats:?}");
                assert!(side.workers <= config.max_workers(), "above max: {stats:?}");
            }
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = app.telemetry_snapshot();
        if snap.counter(telemetry::Counter::SwitchlessScaleUps) > 0 {
            break;
        }
        assert!(Instant::now() < deadline, "the pool never scaled up: {snap:?}");
    }

    let snap = app.telemetry_snapshot();
    // Every crossing is exactly one of: switchless hit, classic
    // fallback — per calling world, while the pool resizes.
    for side in [Side::Trusted, Side::Untrusted] {
        let world = app.world_stats(side);
        assert_eq!(
            world.rmi_calls,
            world.switchless_calls + world.switchless_fallbacks,
            "{side}: crossing accounting broke under resizing"
        );
    }
    // Task-wait reconciliation: the tracer was on for every post, so
    // each served (hit) task recorded exactly one wait sample and one
    // `task-wait:` span.
    let hits = snap.counter(telemetry::Counter::SwitchlessCalls);
    assert_eq!(
        snap.hist(telemetry::Hist::SchedTaskWaitNs).count,
        hits,
        "one task-wait sample per switchless hit"
    );
    let json = tracer.to_chrome_json(&[]);
    let parsed = telemetry::trace::parse_chrome_trace(&json).unwrap();
    assert_eq!(parsed.other("dropped"), Some(0), "nothing dropped at this capacity");
    let wait_spans = parsed
        .events
        .iter()
        .filter(|e| e.ph == 'B' && e.cat == "queue" && e.name.starts_with("task-wait:"))
        .count() as u64;
    assert_eq!(wait_spans, hits, "one task-wait span per traced switchless hit");
    let peak = snap.gauge(telemetry::Gauge::SwitchlessWorkersPeak);
    assert!(peak <= config.max_workers() as u64, "worker peak {peak} beyond max");
}

/// No lost wake-up across the spin/park boundary: one caller crosses
/// 5 000 times with seeded gaps of zero, about the scheduler's spin
/// budget and twice the budget, and twice past `idle_park`, so posts
/// land on an executor that is serving, spinning, announcing its park,
/// parked, or back from a full idle park. `idle_park` outlasts
/// `task_timeout`, so a lost wake token shows up as a timeout instead
/// of being rescued by the executor's next idle poll.
#[test]
fn no_lost_wakeup_across_the_spin_park_boundary() {
    const CALLS: usize = 5_000;
    const LONG_GAPS: usize = 2;
    let idle_park = Duration::from_millis(300);
    let budget_ns = SPIN_BUDGET.as_nanos() as u64;
    let run = std::thread::spawn(move || {
        for workers in [1, 2] {
            let app = launch(SwitchlessConfig {
                idle_park,
                scheduler: Some(SchedulerConfig {
                    task_timeout: Duration::from_millis(150),
                    ..SchedulerConfig::default()
                }),
                ..SwitchlessConfig::fixed(workers)
            });
            let mut seed = 0x5eed_u64 + workers as u64;
            app.enter_untrusted(|ctx| {
                let alice = ctx.new_object("Person", &[Value::from("Alice"), Value::Int(100)])?;
                let acc = ctx.call(&alice, "getAccount", &[])?;
                for i in 0..CALLS {
                    seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    if i % (CALLS / LONG_GAPS) == CALLS / LONG_GAPS - 1 {
                        std::thread::sleep(idle_park + Duration::from_millis(20));
                    } else {
                        let jitter = (seed >> 40) % budget_ns;
                        let gap_ns = match (seed >> 33) % 3 {
                            0 => 0,
                            1 => budget_ns / 2 + jitter,
                            _ => 2 * budget_ns + jitter,
                        };
                        let until = Instant::now() + Duration::from_nanos(gap_ns);
                        while Instant::now() < until {
                            std::hint::spin_loop();
                        }
                    }
                    assert_eq!(ctx.call(&acc, "balance", &[])?, Value::Int(100), "call {i}");
                }
                Ok(())
            })
            .unwrap();
            let world = app.world_stats(Side::Untrusted);
            assert_eq!(world.rmi_calls, world.switchless_calls + world.switchless_fallbacks);
            assert_eq!(world.switchless_fallbacks, 0, "fixed({workers}): every post is served");
            let snap = app.telemetry_snapshot();
            assert_eq!(snap.counter(telemetry::Counter::SchedTimeouts), 0, "fixed({workers})");
            // Spinning executors still park: each long gap outlasts a
            // full idle park, so the next post pays a wake.
            let wakes = snap.counter(telemetry::Counter::SwitchlessWorkerWakes);
            assert!(wakes > LONG_GAPS as u64, "fixed({workers}): only {wakes} wakes");
        }
    });
    let watchdog = Instant::now() + Duration::from_secs(30);
    while !run.is_finished() {
        assert!(Instant::now() < watchdog, "a switchless crossing hung past the 30 s watchdog");
        std::thread::sleep(Duration::from_millis(10));
    }
    run.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the configuration and load, the live executor count of
    /// each side never exceeds `max_workers` nor drops below
    /// `min_workers` — sampled continuously while callers hammer the
    /// scheduler, and after the load drains. A fixed pool (`autotune:
    /// None`) stays at exactly `min_workers` and never scales up.
    #[test]
    fn worker_count_stays_within_configured_bounds(
        min_workers in 1usize..3,
        extra in 0usize..3,
        injector_capacity in 1usize..5,
        callers in 2usize..5,
        fixed in any::<bool>(),
    ) {
        let scaling = Scaling { max_workers: min_workers + extra, scale_up_misses: 1 };
        let config = SwitchlessConfig {
            min_workers,
            idle_park: Duration::from_millis(5),
            autotune: (!fixed).then_some(scaling),
            scheduler: injector(injector_capacity),
        };
        let app = Arc::new(launch(config.clone()));
        let mut handles = Vec::new();
        for _ in 0..callers {
            let app = Arc::clone(&app);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    assert_eq!(run_bank(&app), Value::Int(75));
                }
            }));
        }
        // Sample the invariant while the load runs.
        while handles.iter().any(|h| !h.is_finished()) {
            let stats = app.switchless_stats().unwrap();
            for side in [stats.trusted, stats.untrusted] {
                prop_assert!(side.workers >= config.min_workers, "below min: {stats:?}");
                prop_assert!(side.workers <= config.max_workers(), "above max: {stats:?}");
                if fixed {
                    prop_assert_eq!(side.workers, min_workers, "a fixed pool moved: {:?}", stats);
                }
            }
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        if fixed {
            let snap = app.telemetry_snapshot();
            prop_assert_eq!(snap.counter(telemetry::Counter::SwitchlessScaleUps), 0);
        }
        // After the load drains, scale-down must converge back to
        // exactly `min_workers` — and no further.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = app.switchless_stats().unwrap();
            if stats.trusted.workers == config.min_workers
                && stats.untrusted.workers == config.min_workers
            {
                break;
            }
            prop_assert!(Instant::now() < deadline, "never converged to min: {stats:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
