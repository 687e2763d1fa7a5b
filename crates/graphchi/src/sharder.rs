//! FastSharder: phase 1 of the GraphChi workflow (Fig. 8 of the paper).
//!
//! The input graph is split into `P` shards by destination-vertex
//! interval; within a shard, edges are sorted by source vertex (the
//! layout GraphChi's parallel-sliding-windows algorithm requires). The
//! sharder is I/O-heavy — it streams every edge back out to disk in
//! buffered chunks — which is exactly why the paper moves it *out* of
//! the enclave when partitioning (§6.5).

use std::path::{Path, PathBuf};

use sgx_sim::SgxError;

use crate::backend::Backend;
use crate::rmat::Edge;

/// Write buffer size: the sharder flushes in chunks of this many bytes
/// (each flush is one write call / ocall).
pub const WRITE_CHUNK_BYTES: usize = 4096;

/// Description of a sharded graph on disk.
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    /// Directory holding the shard files.
    pub dir: PathBuf,
    /// Number of shards.
    pub num_shards: usize,
    /// Number of vertices.
    pub num_vertices: u32,
    /// Edges per shard.
    pub shard_edge_counts: Vec<u64>,
    /// Out-degree of every vertex (needed by PageRank-style programs).
    pub out_degrees: Vec<u32>,
    /// I/O statistics of the sharding run.
    pub stats: ShardStats,
}

impl ShardedGraph {
    /// Path of shard `i`.
    pub fn shard_path(&self, i: usize) -> PathBuf {
        shard_path(&self.dir, i)
    }

    /// Total edges across shards.
    pub fn edge_count(&self) -> u64 {
        self.shard_edge_counts.iter().sum()
    }

    /// The destination-vertex interval `[start, end)` of shard `i`.
    pub fn interval(&self, i: usize) -> (u32, u32) {
        interval(self.num_vertices, self.num_shards, i)
    }

    /// Removes the shard files.
    pub fn cleanup(&self) {
        for i in 0..self.num_shards {
            let _ = std::fs::remove_file(self.shard_path(i));
        }
    }
}

/// I/O counters of a sharding run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Bytes written.
    pub bytes_written: u64,
    /// Write calls issued (chunked flushes).
    pub write_calls: u64,
}

fn shard_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard_{i}.bin"))
}

fn interval(num_vertices: u32, num_shards: usize, i: usize) -> (u32, u32) {
    let per = num_vertices.div_ceil(num_shards as u32);
    let start = per * i as u32;
    let end = (start + per).min(num_vertices);
    (start, end)
}

/// The FastSharder: splits `edges` into `num_shards` shard files.
///
/// # Errors
///
/// Propagates I/O failure.
///
/// # Panics
///
/// Panics if `num_shards` is zero.
pub fn shard(
    backend: &Backend,
    dir: impl AsRef<Path>,
    num_vertices: u32,
    edges: &[Edge],
    num_shards: usize,
) -> Result<ShardedGraph, SgxError> {
    assert!(num_shards > 0, "need at least one shard");
    let dir = dir.as_ref().to_path_buf();
    std::fs::create_dir_all(backend.resolve(&dir))?;

    // Bucket edges by destination interval.
    let mut buckets: Vec<Vec<Edge>> = vec![Vec::new(); num_shards];
    for &e in edges {
        let per = num_vertices.div_ceil(num_shards as u32);
        let s = (e.dst / per) as usize;
        buckets[s.min(num_shards - 1)].push(e);
    }

    let mut stats = ShardStats::default();
    let mut shard_edge_counts = Vec::with_capacity(num_shards);
    for (i, bucket) in buckets.iter_mut().enumerate() {
        // GraphChi stores shard edges sorted by source.
        bucket.sort_by_key(|e| (e.src, e.dst));
        let mut file = backend.create(shard_path(&dir, i))?;
        let mut buf = Vec::with_capacity(WRITE_CHUNK_BYTES + 16);
        buf.extend_from_slice(&(bucket.len() as u64).to_le_bytes());
        for e in bucket.iter() {
            buf.extend_from_slice(&e.src.to_le_bytes());
            buf.extend_from_slice(&e.dst.to_le_bytes());
            if buf.len() >= WRITE_CHUNK_BYTES {
                file.write_all(&buf)?;
                stats.bytes_written += buf.len() as u64;
                stats.write_calls += 1;
                buf.clear();
            }
        }
        if !buf.is_empty() {
            file.write_all(&buf)?;
            stats.bytes_written += buf.len() as u64;
            stats.write_calls += 1;
        }
        file.sync_all()?;
        shard_edge_counts.push(bucket.len() as u64);
    }

    Ok(ShardedGraph {
        dir,
        num_shards,
        num_vertices,
        shard_edge_counts,
        out_degrees: crate::rmat::out_degrees(num_vertices, edges),
        stats,
    })
}

/// Persists the graph's metadata (shard counts, degrees) next to the
/// shards, so a different runtime can open the graph from disk alone —
/// as GraphChi's engine does with the sharder's degree file.
///
/// # Errors
///
/// Propagates I/O failure.
pub fn save_meta(backend: &Backend, graph: &ShardedGraph) -> Result<(), SgxError> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(graph.num_shards as u64).to_le_bytes());
    buf.extend_from_slice(&graph.num_vertices.to_le_bytes());
    for c in &graph.shard_edge_counts {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    for d in &graph.out_degrees {
        buf.extend_from_slice(&d.to_le_bytes());
    }
    let mut file = backend.create(graph.dir.join("meta.bin"))?;
    file.write_all(&buf)?;
    file.sync_all()?;
    Ok(())
}

/// Loads graph metadata written by [`save_meta`].
///
/// # Errors
///
/// Propagates I/O failure; truncated files fail the reads.
pub fn load_meta(backend: &Backend, dir: impl AsRef<Path>) -> Result<ShardedGraph, SgxError> {
    let dir = dir.as_ref().to_path_buf();
    let mut file = backend.open(dir.join("meta.bin"))?;
    let mut header = [0u8; 12];
    file.read_exact(&mut header)?;
    let num_shards = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes")) as usize;
    let num_vertices = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    let mut counts_raw = vec![0u8; num_shards * 8];
    file.read_exact(&mut counts_raw)?;
    let shard_edge_counts = counts_raw
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    let mut deg_raw = vec![0u8; num_vertices as usize * 4];
    file.read_exact(&mut deg_raw)?;
    let out_degrees = deg_raw
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect();
    Ok(ShardedGraph {
        dir,
        num_shards,
        num_vertices,
        shard_edge_counts,
        out_degrees,
        stats: ShardStats::default(),
    })
}

/// Loads the edges of one shard file (streamed in 64 KiB reads).
///
/// Returns the edges plus the number of read calls performed.
///
/// # Errors
///
/// Propagates I/O failure or truncation.
pub fn load_shard(
    backend: &Backend,
    graph: &ShardedGraph,
    i: usize,
) -> Result<(Vec<Edge>, u64), SgxError> {
    let mut file = backend.open(graph.shard_path(i))?;
    let mut header = [0u8; 8];
    file.read_exact(&mut header)?;
    let n = u64::from_le_bytes(header) as usize;
    let mut remaining = n * 8;
    let mut raw = Vec::with_capacity(remaining);
    let mut read_calls = 1u64;
    const READ_CHUNK: usize = 64 * 1024;
    let mut chunk = vec![0u8; READ_CHUNK];
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        file.read_exact(&mut chunk[..take])?;
        raw.extend_from_slice(&chunk[..take]);
        remaining -= take;
        read_calls += 1;
    }
    let mut edges = Vec::with_capacity(n);
    for rec in raw.chunks_exact(8) {
        edges.push(Edge {
            src: u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes")),
            dst: u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes")),
        });
    }
    Ok((edges, read_calls))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::{generate, RmatParams};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "graphchi_shard_{}_{}_{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn sharding_partitions_edges_losslessly() {
        let edges = generate(1000, 8000, RmatParams::default(), 7);
        let dir = temp_dir("lossless");
        let g = shard(&Backend::Host, &dir, 1000, &edges, 4).unwrap();
        assert_eq!(g.edge_count(), 8000);
        let mut recovered = Vec::new();
        for i in 0..4 {
            let (mut shard_edges, _) = load_shard(&Backend::Host, &g, i).unwrap();
            // Every edge's destination is inside the shard interval.
            let (lo, hi) = g.interval(i);
            assert!(shard_edges.iter().all(|e| e.dst >= lo && e.dst < hi));
            // Sorted by source.
            assert!(shard_edges.windows(2).all(|w| (w[0].src, w[0].dst) <= (w[1].src, w[1].dst)));
            recovered.append(&mut shard_edges);
        }
        let mut orig = edges.clone();
        orig.sort();
        recovered.sort();
        assert_eq!(orig, recovered);
        g.cleanup();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_shard_holds_everything() {
        let edges = generate(100, 500, RmatParams::default(), 1);
        let dir = temp_dir("single");
        let g = shard(&Backend::Host, &dir, 100, &edges, 1).unwrap();
        assert_eq!(g.shard_edge_counts, vec![500]);
        g.cleanup();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharding_writes_in_chunks() {
        let edges = generate(2000, 20_000, RmatParams::default(), 2);
        let dir = temp_dir("chunks");
        let g = shard(&Backend::Host, &dir, 2000, &edges, 2).unwrap();
        // 20k edges × 8 B ≈ 160 KB => tens of 4 KB chunk writes.
        assert!(g.stats.write_calls >= 20, "chunked writes, got {}", g.stats.write_calls);
        assert!(g.stats.bytes_written >= 160_000);
        g.cleanup();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_roundtrips_through_disk() {
        let edges = generate(300, 2000, RmatParams::default(), 11);
        let dir = temp_dir("meta");
        let g = shard(&Backend::Host, &dir, 300, &edges, 3).unwrap();
        save_meta(&Backend::Host, &g).unwrap();
        let loaded = load_meta(&Backend::Host, &dir).unwrap();
        assert_eq!(loaded.num_shards, g.num_shards);
        assert_eq!(loaded.num_vertices, g.num_vertices);
        assert_eq!(loaded.shard_edge_counts, g.shard_edge_counts);
        assert_eq!(loaded.out_degrees, g.out_degrees);
        g.cleanup();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_degrees_travel_with_the_graph() {
        let edges = vec![Edge { src: 0, dst: 1 }, Edge { src: 0, dst: 2 }, Edge { src: 1, dst: 0 }];
        let dir = temp_dir("deg");
        let g = shard(&Backend::Host, &dir, 3, &edges, 2).unwrap();
        assert_eq!(g.out_degrees, vec![2, 1, 0]);
        g.cleanup();
        std::fs::remove_dir_all(&dir).ok();
    }
}
