//! The benchmark's pure logic: percentiles, the open-loop replay, the
//! goodput search, the host-sample reservoir, host speed normalization
//! and span self time.

use std::collections::{BTreeMap, BTreeSet};

use perfbench::report::normalize_host;
use perfbench::spans::{covered, self_time_by_cat, self_times, spans_from_events, Span};
use perfbench::stats::{goodput, nearest_rank, nominal_rate, percentiles, replay, Reservoir};
use telemetry::trace::{Lane, TraceEvent, TracePhase};

#[test]
fn nearest_rank_picks_the_smallest_sample_covering_q() {
    let sorted: Vec<u64> = (1..=100).collect();
    assert_eq!(nearest_rank(&sorted, 0.50), 50);
    assert_eq!(nearest_rank(&sorted, 0.99), 99);
    assert_eq!(nearest_rank(&sorted, 0.999), 100);
    assert_eq!(nearest_rank(&sorted, 0.0), 1);
    assert_eq!(nearest_rank(&[], 0.5), 0);
    assert_eq!(nearest_rank(&[7], 0.99), 7);
    assert_eq!(percentiles(&[5, 1, 4, 2, 3], &[0.5, 1.0]), vec![3, 5]);
}

#[test]
fn replay_queues_behind_earlier_ops_and_times_from_due() {
    let due = [100, 110, 120];
    let r = replay(&due, &[5, 5, 5], 1.0);
    assert_eq!(r.latencies_ns, vec![5, 5, 5]);
    assert_eq!(r.end_backlog_ns, 5);

    // Service longer than the gaps: each op waits for the previous one.
    let r = replay(&due, &[15, 15, 15], 1.0);
    assert_eq!(r.latencies_ns, vec![15, 20, 25]);
    assert_eq!(r.end_backlog_ns, 25);

    // Doubling the gaps removes the queueing.
    let r = replay(&due, &[15, 15, 15], 2.0);
    assert_eq!(r.latencies_ns, vec![15, 15, 15]);
}

#[test]
fn nominal_rate_is_ops_per_model_second() {
    let due: Vec<u64> = (0..1_001).map(|i| i * 1_000).collect();
    assert!((nominal_rate(&due) - 1e6).abs() < 1e-6);
    assert_eq!(nominal_rate(&[5]), 0.0);
}

#[test]
fn goodput_finds_the_rate_where_p99_meets_the_limit() {
    // 1000 ops at a fixed 1 us gap, each costing 500 ns: the server
    // saturates at 2M ops/s, and a 600 ns p99 limit tolerates only a
    // sliver of queueing above that.
    let due: Vec<u64> = (0..1_000).map(|i| i * 1_000).collect();
    let service = vec![500; 1_000];
    let rate = goodput(&due, &service, 600).expect("limit is reachable");
    assert!((rate / 2e6 - 1.0).abs() < 0.01, "goodput {rate}");

    // A limit no single op can meet has no goodput.
    assert_eq!(goodput(&due, &service, 400), None);

    // A looser limit admits a higher rate.
    let looser = goodput(&due, &service, 50_000).expect("limit is reachable");
    assert!(looser > rate);
}

#[test]
fn reservoir_keeps_everything_under_its_cap_and_a_bounded_sample_over_it() {
    let mut r = Reservoir::new(100, 1);
    for v in 1..=100 {
        r.push(v);
    }
    assert_eq!(r.percentiles(&[0.5, 1.0]), vec![50, 100]);
    for v in 101..=10_000 {
        r.push(v);
    }
    assert_eq!(r.seen(), 10_000);
    let p = r.percentiles(&[0.5]);
    // A uniform sample of 1..=10000: the median lands mid-range.
    assert!((2_500..=7_500).contains(&p[0]), "sampled median {}", p[0]);
}

#[test]
fn host_normalization_scales_host_times_and_rates_only() {
    let mut m = BTreeMap::from([
        ("setup_s", 2.0),
        ("host_ops_per_s", 1_000.0),
        ("host_op_p50_us", 3.0),
        ("host_peak_rss_mb", 50.0),
        ("model_op_p50_us", 7.0),
        ("exec.self_host_ns_per_op", 100.0),
        ("trace.overhead_ratio", 2.0),
    ]);
    // A host at half the reference speed measured twice the times.
    normalize_host(&mut m, 0.5);
    assert_eq!(m["setup_s"], 1.0);
    assert_eq!(m["host_ops_per_s"], 2_000.0);
    assert_eq!(m["host_op_p50_us"], 1.5);
    assert_eq!(m["exec.self_host_ns_per_op"], 50.0);
    assert_eq!(m["host_peak_rss_mb"], 50.0);
    assert_eq!(m["model_op_p50_us"], 7.0);
    assert_eq!(m["trace.overhead_ratio"], 2.0);
}

fn span(id: u64, parent: u64, cat: &'static str, host: (i64, i64), model: (i64, i64)) -> Span {
    Span { id, parent, trace_id: 1, cat, name: format!("s{id}"), host, model }
}

#[test]
fn covered_merges_overlaps_and_clips_to_the_parent() {
    let mut v = vec![(10, 30), (20, 50), (60, 70), (90, 200)];
    assert_eq!(covered((0, 100), &mut v), 40 + 10 + 10);
    assert_eq!(covered((0, 100), &mut []), 0);
}

#[test]
fn self_time_is_duration_minus_children() {
    let spans = vec![
        span(1, 0, "bench", (0, 100), (0, 1_000)),
        span(2, 1, "rmi", (10, 60), (100, 900)),
        span(3, 2, "sgx", (20, 30), (200, 500)),
        span(4, 2, "serde", (40, 50), (600, 700)),
    ];
    let t = self_times(&spans);
    assert_eq!((t[0].host_ns, t[0].model_ns), (50, 200));
    assert_eq!((t[1].host_ns, t[1].model_ns), (30, 400));
    assert_eq!((t[2].host_ns, t[2].model_ns), (10, 300));
    assert_eq!((t[3].host_ns, t[3].model_ns), (10, 100));

    // Self times of a properly nested tree sum to the root's duration.
    let by_cat = self_time_by_cat(&spans, &BTreeSet::from([1]));
    assert_eq!(by_cat.values().map(|t| t.host_ns).sum::<i64>(), 100);
    assert_eq!(by_cat.values().map(|t| t.model_ns).sum::<i64>(), 1_000);
    assert!(self_time_by_cat(&spans, &BTreeSet::from([2])).is_empty());
}

fn event(phase: TracePhase, span_id: u64, parent: u64, model_ns: u64, wall_ns: u64) -> TraceEvent {
    TraceEvent {
        phase,
        lane: Lane::Untrusted,
        cat: "rmi",
        name: "x".into(),
        trace_id: 9,
        span_id,
        parent_span_id: parent,
        model_ns,
        wall_ns,
    }
}

#[test]
fn spans_pair_begin_and_end_and_split_the_two_clocks() {
    let events = vec![
        event(TracePhase::Begin, 5, 0, 1_000, 100),
        event(TracePhase::Instant, 0, 5, 1_100, 150),
        // 300 host ns and 2000 charged ns elapse.
        event(TracePhase::End, 5, 0, 3_300, 400),
        // A begin cut off before its end is ignored.
        event(TracePhase::Begin, 6, 5, 1_200, 200),
    ];
    let spans = spans_from_events(&events);
    assert_eq!(spans.len(), 1);
    let s = &spans[0];
    assert_eq!((s.id, s.parent, s.trace_id), (5, 0, 9));
    assert_eq!(s.host, (100, 400));
    assert_eq!(s.model.1 - s.model.0, 2_000);
}
