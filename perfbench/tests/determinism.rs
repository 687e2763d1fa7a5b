//! Seeded determinism: the same seed gives the same schedule, the same
//! model-clock service costs and the same response checksum; another
//! seed gives a different schedule.

use std::time::Duration;

use perfbench::harness::{measure, pinned_config, Budget, Driver, Meter, SetupTimes, Workdir};
use perfbench::inputs::{due_times, Arrivals, KvShape};
use perfbench::stats::{percentiles, replay};
use perfbench::{kv, pagerank};
use telemetry::trace::Tracer;

const OPS: usize = 1_500;

const ARRIVALS: Arrivals =
    Arrivals { mean_gap_ns: 120_000, burst_factor: 8.0, burst_len: 48, calm_len: 96 };

fn scratch() -> Workdir {
    Workdir::create(std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))).expect("scratch dir")
}

/// One model window's schedule and what the program charged for it.
struct Window {
    due: Vec<u64>,
    meter: Meter,
}

/// Runs exactly `ops` ops, all in the model window.
fn window(driver: &mut dyn Driver, ops: usize, seed: u64) -> Window {
    let due = due_times(&ARRIVALS, ops, seed);
    let meter = measure(driver, None, &due, Budget::Timed(Duration::ZERO), seed, &mut |_| {});
    Window { due, meter }
}

fn kv_run(shape: &KvShape, gc_threshold_bytes: u64, seed: u64) -> (Window, u64) {
    let dir = scratch();
    let config = pinned_config(dir.path(), None, gc_threshold_bytes, Tracer::new());
    let mut times = SetupTimes::default();
    kv::session(shape, seed, config, None, &mut times, |driver, app| {
        let w = window(driver, OPS, seed);
        (w, app.telemetry_snapshot().counter(telemetry::Counter::GcCollections))
    })
    .expect("kv session runs")
}

fn model_metrics(w: &Window) -> Vec<u64> {
    percentiles(&replay(&w.due, &w.meter.window_service, 1.0).latencies_ns, &[0.5, 0.99])
}

fn assert_deterministic(a: &Window, b: &Window, other: &Window) {
    assert_eq!(a.meter.failed + b.meter.failed + other.meter.failed, 0);
    assert_eq!(a.due, b.due);
    assert_eq!(a.meter.window_service, b.meter.window_service);
    assert_eq!(a.meter.window_checksum, b.meter.window_checksum);
    assert_eq!(model_metrics(a), model_metrics(b));
    assert_ne!(a.due, other.due);
    assert_ne!(a.meter.window_checksum, other.meter.window_checksum);
}

#[test]
fn kv_small_values_repeat_per_seed() {
    let shape = KvShape { key_space: 512, zipf_s: 1.1, read_pct: 80, value_len: (32, 160) };
    let run = |seed| kv_run(&shape, 32 << 20, seed).0;
    assert_deterministic(&run(7), &run(7), &run(8));
}

#[test]
fn kv_bulk_values_repeat_per_seed_through_collections() {
    // Few keys and multi-KiB values under a 1 MiB collection threshold,
    // so the window spans several collections.
    let shape = KvShape { key_space: 64, zipf_s: 0.8, read_pct: 20, value_len: (2_048, 6_144) };
    let (a, gcs) = kv_run(&shape, 1 << 20, 3);
    assert!(gcs > 1, "window should collect garbage, saw {gcs} collections");
    assert_deterministic(&a, &kv_run(&shape, 1 << 20, 3).0, &kv_run(&shape, 1 << 20, 4).0);
}

#[test]
fn pagerank_jobs_repeat_per_seed_and_match_the_direct_engine() {
    let run = |seed| {
        let dir = scratch();
        let config = pinned_config(dir.path(), None, 8 << 20, Tracer::new());
        let mut times = SetupTimes::default();
        pagerank::session(seed, config, dir.path(), None, &mut times, |driver, _| {
            let w = window(driver, 48, seed);
            (w, driver.verify().expect("oracle runs"))
        })
        .expect("pagerank session runs")
    };
    let (a, wrong) = run(5);
    assert_eq!(wrong, 0, "rank sums must match graphchi::engine::run");
    assert_deterministic(&a, &run(5).0, &run(6).0);
}
