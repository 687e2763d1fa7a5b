//! Thread-local pooled byte buffers for boundary serde.
//!
//! Every RMI crossing needs a scratch buffer to encode its payload
//! into, and the switchless drain needs one per assembled batch frame.
//! Allocating those buffers fresh puts a malloc/free pair on the
//! hottest path in the system. This module keeps a small per-thread
//! free list of `Vec<u8>` buffers instead: [`acquire`] hands out a
//! cleared buffer (reusing a pooled one when available), and dropping
//! the returned [`PooledBuf`] gives the allocation back to the
//! dropping thread's pool. Steady-state crossings whose payloads fit
//! the retained capacity therefore perform **zero** heap allocation
//! for payload bytes.
//!
//! Retention is bounded two ways:
//!
//! - at most [`MAX_POOLED_BUFS`] buffers are kept per thread, and no
//!   buffer above [`DEFAULT_CAP_BYTES`] is ever retained;
//! - a *high-water mark* of observed payload sizes is kept per
//!   thread, and once per [`TRIM_WINDOW`] releases any retained
//!   buffer whose capacity exceeds twice the recent high-water mark
//!   is shrunk back to it — a burst of huge payloads cannot pin its
//!   peak footprint forever.
//!
//! See `docs/SERDE.md`.

use std::cell::RefCell;

/// Default per-buffer retention cap: buffers that grew beyond this are
/// dropped rather than pooled (1 MiB).
pub const DEFAULT_CAP_BYTES: usize = 1 << 20;

/// Maximum buffers retained per thread.
pub const MAX_POOLED_BUFS: usize = 8;

/// Releases between high-water-mark trim passes.
pub const TRIM_WINDOW: u32 = 64;

/// The per-thread free list plus its trimming state.
#[derive(Debug, Default)]
struct Pool {
    free: Vec<Vec<u8>>,
    /// Largest payload length released since the last trim pass.
    high_water: usize,
    releases: u32,
    reuses: u64,
}

impl Pool {
    fn acquire(&mut self) -> PooledBuf {
        match self.free.pop() {
            Some(buf) => {
                self.reuses += 1;
                PooledBuf { buf, pooled: true }
            }
            None => PooledBuf { buf: Vec::new(), pooled: false },
        }
    }

    fn release(&mut self, mut buf: Vec<u8>, cap: usize) {
        self.high_water = self.high_water.max(buf.len());
        self.releases += 1;
        if buf.capacity() > 0 && buf.capacity() <= cap && self.free.len() < MAX_POOLED_BUFS {
            buf.clear();
            self.free.push(buf);
        }
        if self.releases >= TRIM_WINDOW {
            self.trim();
        }
    }

    /// Shrinks retained buffers far above the recent high-water mark,
    /// then opens a fresh observation window.
    fn trim(&mut self) {
        let hwm = self.high_water;
        for buf in &mut self.free {
            if buf.capacity() > hwm.saturating_mul(2) {
                buf.shrink_to(hwm);
            }
        }
        self.high_water = 0;
        self.releases = 0;
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// A byte buffer borrowed from the thread-local pool.
///
/// Dereferences to `Vec<u8>` for use as an encode target; dropping it
/// returns the allocation to the dropping thread's pool (cross-thread
/// drops simply seed that thread's pool). [`PooledBuf::was_pooled`]
/// reports whether the capacity was reused — the signal behind the
/// `serde.pooled_bytes` counter.
#[derive(Debug, Default)]
pub struct PooledBuf {
    buf: Vec<u8>,
    pooled: bool,
}

impl PooledBuf {
    /// Wraps an existing vector without touching the pool (its bytes
    /// still return to the pool on drop).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        PooledBuf { buf, pooled: false }
    }

    /// Whether this buffer's capacity came from the pool rather than
    /// a fresh allocation.
    pub fn was_pooled(&self) -> bool {
        self.pooled
    }

    /// Consumes the buffer without returning it to the pool.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.pooled = false;
        std::mem::take(&mut self.buf)
    }
}

/// Hands out a cleared buffer, reusing pooled capacity when available.
pub fn acquire() -> PooledBuf {
    POOL.with(|p| p.borrow_mut().acquire())
}

/// Number of times this thread's pool satisfied an [`acquire`] from
/// retained capacity.
pub fn thread_reuses() -> u64 {
    POOL.with(|p| p.borrow().reuses)
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // A panicking thread may drop after its TLS is torn down;
        // losing the buffer is fine then.
        let _ = POOL.try_with(|p| p.borrow_mut().release(buf, DEFAULT_CAP_BYTES));
    }
}

impl Clone for PooledBuf {
    fn clone(&self) -> Self {
        let mut out = acquire();
        out.extend_from_slice(&self.buf);
        out
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

impl Eq for PooledBuf {}

impl From<Vec<u8>> for PooledBuf {
    fn from(buf: Vec<u8>) -> Self {
        PooledBuf::from_vec(buf)
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_acquire_reuses_released_capacity() {
        // Warm the pool on a dedicated thread so parallel tests cannot
        // interfere with the reuse observation.
        std::thread::spawn(|| {
            let mut a = acquire();
            a.extend_from_slice(&[7u8; 100]);
            let ptr = a.as_ptr();
            drop(a);
            let b = acquire();
            assert!(b.was_pooled(), "released capacity must be reused");
            assert!(b.is_empty(), "pooled buffers come back cleared");
            assert_eq!(b.as_ptr(), ptr, "same allocation round-trips");
            assert!(thread_reuses() >= 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let mut pool = Pool::default();
        pool.release(Vec::with_capacity(64), 32);
        assert!(pool.free.is_empty(), "beyond-cap buffer dropped");
        pool.release(Vec::with_capacity(16), 32);
        assert_eq!(pool.free.len(), 1);
    }

    #[test]
    fn retention_is_bounded() {
        let mut pool = Pool::default();
        for _ in 0..(MAX_POOLED_BUFS + 4) {
            pool.release(Vec::with_capacity(8), 1024);
        }
        assert_eq!(pool.free.len(), MAX_POOLED_BUFS);
    }

    #[test]
    fn trim_shrinks_to_recent_high_water_mark() {
        let mut pool = Pool::default();
        // One burst-sized buffer gets retained...
        pool.release(Vec::with_capacity(4096), 1 << 20);
        // ...then a window of small payloads establishes a low mark
        // (the burst release already opened the window).
        for _ in 0..(TRIM_WINDOW - 1) {
            let mut small = Vec::with_capacity(16);
            small.extend_from_slice(&[0u8; 10]);
            pool.release(small, 1 << 20);
        }
        assert!(
            pool.free.iter().all(|b| b.capacity() <= 2 * 16),
            "burst capacity trimmed back toward the working size"
        );
        assert_eq!(pool.releases, 0, "trim opens a fresh window");
    }

    #[test]
    fn clone_copies_bytes() {
        let mut a = acquire();
        a.extend_from_slice(b"payload");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_ref(), b"payload");
    }

    #[test]
    fn into_vec_detaches_from_the_pool() {
        let mut a = acquire();
        a.extend_from_slice(&[1, 2, 3]);
        let v = a.into_vec();
        assert_eq!(v, vec![1, 2, 3]);
    }
}
