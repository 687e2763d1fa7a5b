//! Seeded input generation. Every workload input — arrival times, keys,
//! the op mix, value payloads, graph jobs — is a pure function of the
//! benchmark seed; the program only ever sees the generated values.

use experiments::traffic::{arrival_schedule, TrafficConfig, ZipfSampler};

use crate::stats::Rng;

/// Shape of a bursty open-loop arrival process: exponential gaps whose
/// rate steps up by `burst_factor` for `burst_len` ops out of every
/// `burst_len + calm_len`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrivals {
    /// Mean gap during the calm phase, model ns.
    pub mean_gap_ns: u64,
    /// Rate multiplier inside a burst (≥ 1).
    pub burst_factor: f64,
    /// Ops per burst phase.
    pub burst_len: usize,
    /// Ops per calm phase.
    pub calm_len: usize,
}

/// Due times of the first `n` ops on the traffic harness's seeded
/// open-loop arrival schedule with this shape.
pub fn due_times(shape: &Arrivals, n: usize, seed: u64) -> Vec<u64> {
    arrival_schedule(&TrafficConfig {
        seed,
        requests: n,
        mean_interarrival_ns: shape.mean_gap_ns,
        burst_factor: shape.burst_factor,
        burst_len: shape.burst_len,
        calm_len: shape.calm_len,
        ..TrafficConfig::quick()
    })
}

/// Shape of a key-value request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvShape {
    /// Distinct keys.
    pub key_space: u32,
    /// Zipf exponent of key popularity.
    pub zipf_s: f64,
    /// Percentage of ops that are gets.
    pub read_pct: u32,
    /// Inclusive range of put value sizes, bytes.
    pub value_len: (u32, u32),
}

/// One key-value operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key.
    Get {
        /// Key index.
        key: u32,
    },
    /// Write a key; the value is [`value_bytes`]`(tag, len)`.
    Put {
        /// Key index.
        key: u32,
        /// Value length, bytes.
        len: u32,
        /// Seed of the value's contents.
        tag: u64,
    },
}

/// Endless seeded op stream.
#[derive(Debug, Clone)]
pub struct KvStream {
    shape: KvShape,
    zipf: ZipfSampler,
    keys: Rng,
    mix: Rng,
    values: Rng,
    sizes: ValueSizes,
}

impl KvStream {
    /// The stream for `seed`.
    pub fn new(shape: KvShape, seed: u64) -> Self {
        KvStream {
            shape,
            zipf: ZipfSampler::new(shape.key_space as usize, shape.zipf_s),
            keys: Rng::new(seed, 2),
            mix: Rng::new(seed, 3),
            values: Rng::new(seed, 4),
            sizes: ValueSizes::new(&shape, seed),
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> KvOp {
        let key = self.zipf.sample(self.keys.next_f64()) as u32;
        if self.mix.next_u64() % 100 < self.shape.read_pct as u64 {
            KvOp::Get { key }
        } else {
            self.sizes.put(&mut self.values, key)
        }
    }
}

/// Value sizes per key: each key has a seeded base size within the
/// shape's range and its values vary by up to an eighth of the range
/// around it, as a record type's size varies around its own typical
/// size. Which sizes the hot keys have therefore depends on the seed.
#[derive(Debug, Clone)]
struct ValueSizes {
    base: Vec<u32>,
    jitter: u64,
}

impl ValueSizes {
    fn new(shape: &KvShape, seed: u64) -> Self {
        let (lo, hi) = shape.value_len;
        let jitter = u64::from(hi - lo) / 8;
        let mut rng = Rng::new(seed, 8);
        let base = (0..shape.key_space).map(|_| rng.range(lo as u64, hi as u64 - jitter) as u32);
        ValueSizes { base: base.collect(), jitter }
    }

    fn put(&self, values: &mut Rng, key: u32) -> KvOp {
        let len = self.base[key as usize] + values.range(0, self.jitter) as u32;
        KvOp::Put { key, len, tag: values.next_u64() }
    }
}

/// The warm-up prefix: one put per key, in key order, so later gets
/// hit and the live set is at its working size before measuring.
pub fn fill_ops(shape: &KvShape, seed: u64) -> Vec<KvOp> {
    let sizes = ValueSizes::new(shape, seed);
    let mut values = Rng::new(seed, 5);
    (0..shape.key_space).map(|key| sizes.put(&mut values, key)).collect()
}

/// Wire form of a key.
pub fn key_bytes(key: u32) -> Vec<u8> {
    format!("key-{key:08}").into_bytes()
}

/// The value a put with `(tag, len)` writes: `len` pseudo-random bytes
/// derived from `tag`.
pub fn value_bytes(tag: u64, len: u32) -> Vec<u8> {
    let mut state = tag | 1;
    let mut out = Vec::with_capacity(len as usize + 8);
    while out.len() < len as usize {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len as usize);
    out
}

/// One PageRank job on partitioned GraphChi.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphJob {
    /// Index of the graph in its stream's pool.
    pub id: u32,
    /// Vertices of the R-MAT graph.
    pub vertices: u32,
    /// Edges of the R-MAT graph.
    pub edges: u32,
    /// Shards the sharder splits the graph into.
    pub shards: u32,
    /// PageRank iterations the engine runs.
    pub iterations: u32,
    /// R-MAT generator seed.
    pub rmat_seed: u64,
}

/// Distinct graphs a job stream draws from. Jobs repeat, as requests to
/// a real service do: a graph is sharded on its first job only, and the
/// oracle's direct runs are one per distinct graph.
pub const JOB_POOL: usize = 32;

/// Endless seeded job stream over a pool of [`JOB_POOL`] graphs.
#[derive(Debug, Clone)]
pub struct JobStream {
    pool: Vec<GraphJob>,
    pick: Rng,
}

impl JobStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut jobs = Rng::new(seed, 6);
        let pool = (0..JOB_POOL)
            .map(|id| GraphJob {
                id: id as u32,
                vertices: jobs.range(120, 136) as u32,
                edges: jobs.range(496, 528) as u32,
                shards: 2,
                iterations: 3,
                rmat_seed: jobs.next_u64() >> 1,
            })
            .collect();
        JobStream { pool, pick: Rng::new(seed, 7) }
    }

    /// The next job.
    pub fn next_job(&mut self) -> GraphJob {
        self.pool[(self.pick.next_u64() % JOB_POOL as u64) as usize]
    }
}
