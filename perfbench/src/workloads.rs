//! The four workloads and their fixed sizes.

use crate::inputs::{Arrivals, KvShape};

/// What a workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The trusted KvService; `switchless` routes crossings through the
    /// work-stealing scheduler engine instead of classic ecalls.
    Kv {
        /// Request stream shape.
        shape: KvShape,
        /// Whether the scheduler engine carries the crossings.
        switchless: bool,
    },
    /// PageRank jobs on partitioned GraphChi.
    PageRank,
}

/// One workload: what it runs and how much of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// What it drives.
    pub kind: Kind,
    /// Arrival process of the model window's open-loop schedule.
    pub arrivals: Arrivals,
    /// Ops in the model window.
    pub window: usize,
    /// Model p99 latency limit the goodput search holds, ns.
    pub limit_ns: u64,
    /// Ops in the traced run.
    pub traced_ops: u64,
    /// Allocation volume between the semispace collector's automatic
    /// collections, MiB.
    pub gc_threshold_mib: u64,
    /// Whether the measured loop must page the EPC and collect garbage.
    pub expects_paging: bool,
    /// Upper bound on trace events one op records per lane, used to
    /// size the trace rings for zero drops.
    pub events_per_op: usize,
}

/// Small-value request mix shared by `kv-classic` and `kv-switchless`.
const SMALL: KvShape =
    KvShape { key_space: 8_192, zipf_s: 1.1, read_pct: 80, value_len: (32, 160) };

/// The bursty schedule shared by `kv-classic` and `kv-switchless`.
const SMALL_ARRIVALS: Arrivals =
    Arrivals { mean_gap_ns: 120_000, burst_factor: 8.0, burst_len: 48, calm_len: 96 };

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "kv-classic",
        kind: Kind::Kv { shape: SMALL, switchless: false },
        arrivals: SMALL_ARRIVALS,
        window: 60_000,
        limit_ns: 2_000_000,
        traced_ops: 5_000,
        gc_threshold_mib: 2,
        expects_paging: false,
        events_per_op: 16,
    },
    Workload {
        name: "kv-bulk",
        kind: Kind::Kv {
            shape: KvShape {
                key_space: 16_000,
                zipf_s: 0.8,
                read_pct: 20,
                value_len: (2_048, 6_144),
            },
            switchless: false,
        },
        arrivals: Arrivals { mean_gap_ns: 300_000, burst_factor: 4.0, burst_len: 32, calm_len: 64 },
        window: 100_000,
        limit_ns: 500_000_000,
        traced_ops: 5_000,
        gc_threshold_mib: 32,
        expects_paging: true,
        events_per_op: 16,
    },
    Workload {
        name: "kv-switchless",
        kind: Kind::Kv { shape: SMALL, switchless: true },
        arrivals: SMALL_ARRIVALS,
        window: 60_000,
        limit_ns: 2_000_000,
        traced_ops: 5_000,
        gc_threshold_mib: 2,
        expects_paging: false,
        events_per_op: 24,
    },
    Workload {
        name: "pagerank-part",
        kind: Kind::PageRank,
        arrivals: Arrivals {
            mean_gap_ns: 10_000_000,
            burst_factor: 2.0,
            burst_len: 8,
            calm_len: 24,
        },
        window: 20_000,
        limit_ns: 60_000_000,
        traced_ops: 3_000,
        gc_threshold_mib: 2,
        expects_paging: false,
        events_per_op: 80,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}
