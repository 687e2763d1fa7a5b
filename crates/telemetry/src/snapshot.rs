//! Frozen metric sets and the versioned JSON export.

use crate::hist::HistogramSnapshot;
use crate::{bucket_upper_bound, Counter, Gauge, Hist, SCHEMA};

/// A point-in-time copy of every metric in a recorder (or a merge of
/// several recorders — see [`crate::aggregate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub(crate) counters: [u64; Counter::COUNT],
    pub(crate) gauges: [u64; Gauge::COUNT],
    pub(crate) hists: [HistogramSnapshot; Hist::COUNT],
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            hists: std::array::from_fn(|_| HistogramSnapshot::default()),
        }
    }
}

impl Snapshot {
    /// Reads one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Reads one gauge high-water mark.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize]
    }

    /// Reads one histogram.
    pub fn hist(&self, hist: Hist) -> &HistogramSnapshot {
        &self.hists[hist as usize]
    }

    /// Adds `other` into this snapshot: counters and histogram
    /// buckets sum, gauges take the maximum.
    pub fn merge(&mut self, other: &Snapshot) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine += theirs;
        }
        for (mine, theirs) in self.gauges.iter_mut().zip(&other.gauges) {
            *mine = (*mine).max(*theirs);
        }
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge(theirs);
        }
    }

    /// Returns the activity between `earlier` and this snapshot, for
    /// windowed time-series sampling: counters and histogram buckets
    /// subtract (saturating, so a racy pair degrades to undercounting
    /// instead of wrapping), while gauges keep *this* snapshot's
    /// values — a gauge is a level, not a flow, so the window reports
    /// the level observed at its close.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (mine, old) in out.counters.iter_mut().zip(&earlier.counters) {
            *mine = mine.saturating_sub(*old);
        }
        for (mine, (now, old)) in out.hists.iter_mut().zip(self.hists.iter().zip(&earlier.hists)) {
            *mine = now.diff(old);
        }
        out
    }

    /// Returns whether any counter incremented or any histogram
    /// observed a value — i.e. whether this snapshot (typically a
    /// [`Snapshot::delta_since`] window) records any flow. Gauge
    /// levels alone do not count as activity: an idle window holds its
    /// last-seen levels without being worth storing.
    pub fn has_activity(&self) -> bool {
        self.counters.iter().any(|&c| c != 0) || self.hists.iter().any(|h| h.count != 0)
    }

    /// Serialises the snapshot as the versioned JSON document written
    /// by `--telemetry-out` (see `docs/TELEMETRY.md` for the schema
    /// contract). Metric order is stable across runs, so documents
    /// diff cleanly.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));

        out.push_str("  \"counters\": {\n");
        for (i, c) in Counter::ALL.iter().enumerate() {
            let comma = if i + 1 == Counter::ALL.len() { "" } else { "," };
            out.push_str(&format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}{comma}\n",
                c.metric_name(),
                self.counter(*c),
                c.unit(),
            ));
        }
        out.push_str("  },\n");

        out.push_str("  \"gauges\": {\n");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            let comma = if i + 1 == Gauge::ALL.len() { "" } else { "," };
            out.push_str(&format!(
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}{comma}\n",
                g.metric_name(),
                self.gauge(*g),
                g.unit(),
            ));
        }
        out.push_str("  },\n");

        out.push_str("  \"histograms\": {\n");
        for (i, h) in Hist::ALL.iter().enumerate() {
            let comma = if i + 1 == Hist::ALL.len() { "" } else { "," };
            let snap = self.hist(*h);
            out.push_str(&format!(
                "    \"{}\": {{\"unit\": \"{}\", \"count\": {}, \"sum\": {}, \"buckets\": [",
                h.metric_name(),
                h.unit(),
                snap.count,
                snap.sum,
            ));
            let mut first = true;
            for (idx, &n) in snap.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("{{\"lt\": {}, \"count\": {}}}", bucket_upper_bound(idx), n));
            }
            out.push_str(&format!("]}}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Extracts one counter's value from a document produced by
/// [`Snapshot::to_json`]. Intended for tests and quick diff tooling;
/// real consumers should use a JSON parser.
pub fn extract_counter(json: &str, metric_name: &str) -> Option<u64> {
    crate::json::field_u64(crate::json::object_after(json, metric_name)?, "value")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let mut a = Snapshot::default();
        let mut b = Snapshot::default();
        a.counters[Counter::Ecalls as usize] = 3;
        b.counters[Counter::Ecalls as usize] = 4;
        a.gauges[Gauge::EpcResidentPeak as usize] = 10;
        b.gauges[Gauge::EpcResidentPeak as usize] = 7;
        a.merge(&b);
        assert_eq!(a.counter(Counter::Ecalls), 7);
        assert_eq!(a.gauge(Gauge::EpcResidentPeak), 10);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let mut a = Snapshot::default();
        a.counters[Counter::RmiCalls as usize] = 9;
        a.hists[Hist::CrossingBytes as usize].buckets[3] = 2;
        a.hists[Hist::CrossingBytes as usize].count = 2;
        let before = a.clone();
        a.merge(&Snapshot::default());
        assert_eq!(a, before);
    }

    #[test]
    fn delta_since_subtracts_flows_and_keeps_levels() {
        let mut earlier = Snapshot::default();
        earlier.counters[Counter::RmiCalls as usize] = 10;
        earlier.gauges[Gauge::EpcResidentPeak as usize] = 4096;
        earlier.hists[Hist::GcPauseNs as usize].buckets[5] = 2;
        earlier.hists[Hist::GcPauseNs as usize].count = 2;
        earlier.hists[Hist::GcPauseNs as usize].sum = 40;

        let mut now = earlier.clone();
        now.counters[Counter::RmiCalls as usize] = 17;
        now.gauges[Gauge::EpcResidentPeak as usize] = 8192;
        now.hists[Hist::GcPauseNs as usize].buckets[5] = 3;
        now.hists[Hist::GcPauseNs as usize].count = 3;
        now.hists[Hist::GcPauseNs as usize].sum = 70;

        let delta = now.delta_since(&earlier);
        assert_eq!(delta.counter(Counter::RmiCalls), 7);
        assert_eq!(delta.gauge(Gauge::EpcResidentPeak), 8192, "gauges are levels");
        assert_eq!(delta.hist(Hist::GcPauseNs).count, 1);
        assert_eq!(delta.hist(Hist::GcPauseNs).sum, 30);

        assert!(delta.has_activity());
        let idle = now.delta_since(&now);
        assert!(!idle.has_activity(), "gauge levels alone are not activity");
    }

    #[test]
    fn json_has_schema_and_every_metric() {
        let snap = Snapshot::default();
        let json = snap.to_json();
        assert!(json.contains(SCHEMA));
        for c in Counter::ALL {
            assert!(json.contains(c.metric_name()), "missing {}", c.metric_name());
        }
        for g in Gauge::ALL {
            assert!(json.contains(g.metric_name()), "missing {}", g.metric_name());
        }
        for h in Hist::ALL {
            assert!(json.contains(h.metric_name()), "missing {}", h.metric_name());
        }
    }

    #[test]
    fn extract_counter_round_trips() {
        let mut snap = Snapshot::default();
        snap.counters[Counter::BytesSerialized as usize] = 123_456;
        let json = snap.to_json();
        assert_eq!(extract_counter(&json, "rmi.bytes_serialized"), Some(123_456));
        assert_eq!(extract_counter(&json, "sgx.ecalls"), Some(0));
        assert_eq!(extract_counter(&json, "no.such.metric"), None);
    }

    #[test]
    fn json_buckets_only_list_nonzero() {
        let mut snap = Snapshot::default();
        snap.hists[Hist::GcPauseNs as usize].buckets[5] = 4;
        snap.hists[Hist::GcPauseNs as usize].count = 4;
        snap.hists[Hist::GcPauseNs as usize].sum = 80;
        let json = snap.to_json();
        assert!(json.contains("\"gc.pause_ns\": {\"unit\": \"wall_ns\", \"count\": 4, \"sum\": 80, \"buckets\": [{\"lt\": 32, \"count\": 4}]}"));
    }
}
