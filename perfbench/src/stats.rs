//! Pure statistics: nearest-rank percentiles, the open-loop replay on
//! the model clock, the goodput search over it, and a bounded
//! reservoir for host-time samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `0` when empty.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Nearest-rank percentiles `qs` of unsorted `values`.
pub fn percentiles(values: &[u64], qs: &[f64]) -> Vec<u64> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    qs.iter().map(|&q| nearest_rank(&sorted, q)).collect()
}

/// Outcome of replaying a schedule through one FIFO server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Per-op latency, measured from the op's due time to its
    /// completion (so it includes queueing behind earlier ops).
    pub latencies_ns: Vec<u64>,
    /// How late the last op completed relative to its due time: the
    /// backlog left at the end of the schedule.
    pub end_backlog_ns: u64,
}

/// Replays ops due at `due_ns` (ascending) with service costs
/// `service_ns` through one FIFO server, with every gap between due
/// times multiplied by `gap_scale`. Op `i` starts at
/// `max(due_i, completion_{i-1})`.
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn replay(due_ns: &[u64], service_ns: &[u64], gap_scale: f64) -> Replay {
    assert_eq!(due_ns.len(), service_ns.len(), "one service cost per due time");
    let origin = due_ns.first().copied().unwrap_or(0);
    let mut free_at = 0u64;
    let mut latencies_ns = Vec::with_capacity(due_ns.len());
    let mut end_backlog_ns = 0;
    for (&due, &service) in due_ns.iter().zip(service_ns) {
        let due = ((due - origin) as f64 * gap_scale) as u64;
        let done = free_at.max(due).saturating_add(service);
        free_at = done;
        end_backlog_ns = done - due;
        latencies_ns.push(done - due);
    }
    Replay { latencies_ns, end_backlog_ns }
}

/// Offered rate of a schedule, ops per second of model time.
pub fn nominal_rate(due_ns: &[u64]) -> f64 {
    match (due_ns.first(), due_ns.last()) {
        (Some(&first), Some(&last)) if last > first => {
            (due_ns.len() - 1) as f64 * 1e9 / (last - first) as f64
        }
        _ => 0.0,
    }
}

/// Whether the schedule, with gaps scaled by `gap_scale`, meets a p99
/// latency of `limit_ns` and ends with no more than `limit_ns` of
/// backlog.
fn meets(due_ns: &[u64], service_ns: &[u64], gap_scale: f64, limit_ns: u64) -> bool {
    let r = replay(due_ns, service_ns, gap_scale);
    r.end_backlog_ns <= limit_ns && percentiles(&r.latencies_ns, &[0.99])[0] <= limit_ns
}

/// Highest arrival rate (ops per model second) at which the recorded
/// service costs still meet a p99 of `limit_ns` without a growing
/// backlog. The schedule's gaps are scaled uniformly and the replay is
/// searched by bisection on the scale; no op is re-executed. Returns
/// `None` when no scale meets the limit (too many ops exceed it even
/// without queueing).
pub fn goodput(due_ns: &[u64], service_ns: &[u64], limit_ns: u64) -> Option<f64> {
    let rate = nominal_rate(due_ns);
    let span = due_ns.last()? - due_ns.first()?;
    let min_gap = due_ns.windows(2).map(|w| w[1] - w[0]).filter(|&g| g > 0).min()?;
    let max_service = service_ns.iter().copied().max()?;
    // Once the shortest gap outlasts the longest service no op queues,
    // so wider gaps change nothing; keep the scaled schedule within u64.
    let mut hi = (max_service as f64 / min_gap as f64).clamp(1.0, 2f64.powi(62) / span as f64);
    if !meets(due_ns, service_ns, hi, limit_ns) {
        return None;
    }
    // Bracket: `hi` meets the limit, `lo` does not. Latency only falls
    // as gaps widen, so the predicate is monotone in the scale.
    let mut lo = hi / 2.0;
    let mut shrunk = 0;
    while meets(due_ns, service_ns, lo, limit_ns) {
        hi = lo;
        lo /= 2.0;
        shrunk += 1;
        if shrunk > 60 {
            return Some(rate / hi);
        }
    }
    for _ in 0..40 {
        let mid = (lo * hi).sqrt();
        if meets(due_ns, service_ns, mid, limit_ns) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(rate / hi)
}

/// SplitMix64: the benchmark's only random source, so every input is
/// a pure function of the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams of the
    /// same seed by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Uniform sample of at most `cap` values from an unbounded stream
/// (Vitter's algorithm R), so long host-timed runs keep exact sample
/// values in bounded memory.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    samples: Vec<u64>,
    rng: Rng,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` samples.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir { cap: cap.max(1), seen: 0, samples: Vec::new(), rng: Rng::new(seed, 0x5E5) }
    }

    /// Offers one value.
    pub fn push(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(value);
        } else {
            let j = self.rng.next_u64() % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = value;
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Nearest-rank percentiles of the retained sample.
    pub fn percentiles(&self, qs: &[f64]) -> Vec<u64> {
        percentiles(&self.samples, qs)
    }
}
