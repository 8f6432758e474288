//! Recycled encoding buffers.
//!
//! Every encoding the task makes ([`crate::codec::encode`],
//! [`crate::codec::random`], [`crate::multiply_encoded`]) is allocated by
//! `codec::with_header` through [`take`]. A paper-scale encoding is about
//! a megabyte, which glibc gives back to the kernel when it is freed
//! (unmapped, or trimmed off the top of the heap), so each new one would
//! fault its pages in again. Instead, a buffer of at least [`MIN_POOLED`] bytes comes from a
//! thread-local free list, and its handle ([`Buffer`]) freezes into a
//! [`Bytes`] through [`Bytes::from_owner`]: when the last handle to the
//! encoding drops, the buffer goes back on the list, its pages still
//! mapped.
//!
//! **Bound.** Live plus free pooled bytes never exceed the high-water mark
//! of live pooled bytes — the most the pool's buffers would occupy if each
//! were freed on drop. A take that finds no buffer of a fitting size
//! (capacity in `[n, 2n]`) first evicts free buffers until the new one
//! fits under that mark, so the pool never holds more memory than the
//! program without it would have peaked at. Small encodings (the 8×8
//! matrices of the control-plane runs) never enter the pool.
//!
//! A buffer dropped on another thread cannot reach its home list: it is
//! freed there and its size is reported home through an atomic, which the
//! home pool settles on its next take or give.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;

/// Smallest buffer the pool keeps: 64 KiB.
pub(crate) const MIN_POOLED: usize = 64 << 10;

/// One thread's free list and its accounting, in bytes of capacity.
struct Pool {
    free: Vec<Vec<u8>>,
    free_bytes: usize,
    /// Capacity of this pool's buffers now held by a [`Buffer`].
    live: usize,
    /// The most `live` has been.
    high: usize,
    /// Capacity of this pool's buffers freed on other threads, not yet
    /// taken off `live`.
    freed_away: Arc<AtomicUsize>,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool {
        free: Vec::new(),
        free_bytes: 0,
        live: 0,
        high: 0,
        freed_away: Arc::new(AtomicUsize::new(0)),
    });
}

impl Pool {
    /// Take off `live` what other threads freed. `Relaxed` suffices: the
    /// counter publishes no other data.
    fn settle(&mut self) {
        self.live -= self.freed_away.swap(0, Ordering::Relaxed);
    }

    /// Drop free buffers until `live + extra + free` fits under the
    /// high-water mark `live + extra` would set.
    fn evict(&mut self, extra: usize) {
        let live = self.live + extra;
        while live + self.free_bytes > self.high.max(live) {
            let Some(buf) = self.free.pop() else { break };
            self.free_bytes -= buf.capacity();
        }
    }

    /// A buffer of capacity in `[n, 2n]`: a free one, else a new one.
    fn take(&mut self, n: usize) -> Vec<u8> {
        self.settle();
        let fits = self
            .free
            .iter()
            .position(|b| (n..=n.saturating_mul(2)).contains(&b.capacity()));
        let buf = match fits {
            Some(at) => {
                let buf = self.free.swap_remove(at);
                self.free_bytes -= buf.capacity();
                buf
            }
            None => {
                // Evict before allocating, so the allocator can reuse the
                // memory the evicted buffers free.
                self.evict(n);
                Vec::with_capacity(n)
            }
        };
        self.live += buf.capacity();
        self.high = self.high.max(self.live);
        buf
    }

    /// Put a buffer this pool handed out back on the free list, empty.
    fn give(&mut self, mut buf: Vec<u8>) {
        self.settle();
        buf.clear();
        self.live -= buf.capacity();
        self.free_bytes += buf.capacity();
        self.free.push(buf);
    }
}

/// An encoding's buffer: a `Vec` that goes back to its pool when dropped,
/// if it came from one. Writers stay within the capacity [`take`]
/// reserved: the pool accounts a buffer by its capacity, so one that
/// reallocated would be accounted wrongly.
pub(crate) struct Buffer {
    buf: Vec<u8>,
    /// The `freed_away` counter of the pool that handed `buf` out; `None`
    /// for a buffer too small to pool.
    home: Option<Arc<AtomicUsize>>,
}

/// An empty buffer with capacity for `n` bytes: from this thread's pool
/// when `n` is at least [`MIN_POOLED`]. Its spare capacity may hold an
/// earlier encoding's bytes; writers append into it and never read it.
pub(crate) fn take(n: usize) -> Buffer {
    if n >= MIN_POOLED {
        let pooled = POOL.try_with(|p| {
            let mut p = p.try_borrow_mut().ok()?;
            let buf = p.take(n);
            Some(Buffer {
                buf,
                home: Some(Arc::clone(&p.freed_away)),
            })
        });
        if let Ok(Some(buffer)) = pooled {
            return buffer;
        }
    }
    Buffer {
        buf: Vec::with_capacity(n),
        home: None,
    }
}

impl Buffer {
    /// The written bytes as an immutable shared buffer, without a copy.
    /// A pooled buffer goes back to its pool when the last handle drops.
    pub(crate) fn freeze(mut self) -> Bytes {
        if self.home.is_some() {
            Bytes::from_owner(self)
        } else {
            Bytes::from(std::mem::take(&mut self.buf))
        }
    }
}

impl Deref for Buffer {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for Buffer {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl AsRef<[u8]> for Buffer {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        let Some(home) = self.home.take() else { return };
        let buf = std::mem::take(&mut self.buf);
        let capacity = buf.capacity();
        // This thread's pool is the buffer's home iff it shares the
        // counter. During thread exit the pool may be gone already.
        let given = POOL.try_with(|p| match p.try_borrow_mut() {
            Ok(mut p) if Arc::ptr_eq(&p.freed_away, &home) => {
                p.give(buf);
                true
            }
            _ => false,
        });
        if !matches!(given, Ok(true)) {
            home.fetch_add(capacity, Ordering::Relaxed);
        }
    }
}

/// This thread's pool accounting: `(live, free, high)` bytes, settled.
#[cfg(test)]
pub(crate) fn stats() -> (usize, usize, usize) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.settle();
        (p.live, p.free_bytes, p.high)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, encoded_size, random};
    use crate::matmul::{matmul, Kernel};
    use crate::matrix::Matrix;
    use crate::task::multiply_encoded;
    use proptest::prelude::*;
    use swf_simcore::DetRng;

    const PAPER: usize = 350;

    fn paper_matrix(seed: u64) -> Bytes {
        random(PAPER, PAPER, &mut DetRng::new(seed, "pool"), -100, 100)
    }

    /// The encoding of `m`, written out by hand into a buffer of its own.
    fn fresh_encoding(m: &Matrix) -> Vec<u8> {
        let mut out = b"SWFM".to_vec();
        out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
        m.as_slice()
            .iter()
            .for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
        out
    }

    /// Fill every free buffer's whole capacity with `0xAA`; their addresses.
    fn poison_free_buffers() -> Vec<*const u8> {
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            p.free
                .iter_mut()
                .map(|buf| {
                    buf.resize(buf.capacity(), 0xAA);
                    buf.clear();
                    buf.as_ptr()
                })
                .collect()
        })
    }

    fn assert_bound() {
        let (live, free, high) = stats();
        assert!(
            live + free <= high,
            "live {live} + free {free} > high {high}"
        );
    }

    #[test]
    fn a_freed_paper_encoding_is_reused_on_the_same_thread() {
        let first = paper_matrix(1);
        let addr = first.as_ptr();
        let size = encoded_size(PAPER, PAPER);
        assert_eq!(stats(), (size, 0, size));
        drop(first);
        assert_eq!(stats(), (0, size, size));
        let second = paper_matrix(2);
        assert_eq!(second.as_ptr(), addr, "the freed buffer was not reused");
        assert_eq!(stats(), (size, 0, size));
    }

    /// The bytes a recycled buffer held before never leak into an encoding:
    /// each writer only appends.
    #[test]
    fn recycled_buffers_give_exact_encodings() {
        let mut rng = DetRng::new(4, "poison");
        let (a, b) = (
            Matrix::random(PAPER, PAPER, &mut rng, -100, 100),
            Matrix::random(PAPER, PAPER, &mut rng, -100, 100),
        );
        let want_ab = fresh_encoding(&matmul(&a, &b, Kernel::Naive));
        // Three buffers in the pool (A, B and their product), each
        // poisoned before a writer takes it.
        drop((encode(&a), encode(&a), encode(&a)));
        let recycled = |got: &Bytes, poisoned: &[*const u8]| {
            assert!(poisoned.contains(&got.as_ptr()), "not a recycled buffer");
        };

        let poisoned = poison_free_buffers();
        assert_eq!(poisoned.len(), 3);
        let ea = encode(&a);
        recycled(&ea, &poisoned);
        assert_eq!(&ea[..], &fresh_encoding(&a)[..]);
        let poisoned = poison_free_buffers();
        let eb = encode(&b);
        recycled(&eb, &poisoned);
        assert_eq!(&eb[..], &fresh_encoding(&b)[..]);

        for kernel in [Kernel::Blocked, Kernel::Naive] {
            let poisoned = poison_free_buffers();
            let ab = multiply_encoded(ea.clone(), eb.clone(), kernel).unwrap();
            recycled(&ab, &poisoned);
            assert_eq!(&ab[..], &want_ab[..], "{kernel:?}");
        }

        let drawn = Matrix::random(PAPER, PAPER, &mut DetRng::new(5, "poison"), -100, 100);
        let poisoned = poison_free_buffers();
        let r = random(PAPER, PAPER, &mut DetRng::new(5, "poison"), -100, 100);
        recycled(&r, &poisoned);
        assert_eq!(&r[..], &fresh_encoding(&drawn)[..]);
    }

    #[test]
    fn small_encodings_never_enter_the_pool() {
        let before = stats();
        let mut rng = DetRng::new(6, "small");
        let m = Matrix::random(8, 8, &mut rng, -10, 10);
        let (a, b) = (encode(&m), random(8, 8, &mut rng, -10, 10));
        let ab = multiply_encoded(a, b, Kernel::Blocked).unwrap();
        assert!(encoded_size(90, 90) < MIN_POOLED);
        let largest_unpooled = random(90, 90, &mut rng, -10, 10);
        assert_eq!(stats(), before);
        drop((ab, largest_unpooled));
        assert_eq!(stats(), before);
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "a drop on another thread needs another thread; nothing here runs in virtual time"
    )]
    fn a_buffer_dropped_on_another_thread_is_freed_there() {
        let size = encoded_size(PAPER, PAPER);
        let kept = paper_matrix(7);
        let sent = paper_matrix(8);
        assert_eq!(stats(), (2 * size, 0, 2 * size));
        let away = std::thread::spawn(move || {
            let slice = sent.slice(12..);
            drop(sent);
            drop(slice);
            stats()
        })
        .join()
        .unwrap();
        assert_eq!(away, (0, 0, 0), "the other thread's pool took the buffer");
        // Settled at home: no longer live, and not on the free list.
        assert_eq!(stats(), (size, 0, 2 * size));
        assert_bound();
        drop(kept);
        assert_eq!(stats(), (0, size, 2 * size));
        assert_bound();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Any sequence of takes and drops keeps live pooled bytes and
        /// their high-water mark as a model counts them, and live plus
        /// free under that mark.
        #[test]
        fn the_pool_stays_under_its_high_water_mark(
            ops in proptest::collection::vec((0usize..6, 0usize..8, 0u8..2), 1..48),
        ) {
            const SIZES: [usize; 6] = [1 << 10, 64 << 10, 80 << 10, 128 << 10, 150 << 10, 300 << 10];
            let (live0, _, high0) = stats();
            prop_assert_eq!(live0, 0);
            let mut held: Vec<Buffer> = Vec::new();
            let mut high = high0;
            for (size, victim, drop_one) in ops {
                if drop_one == 1 && !held.is_empty() {
                    held.swap_remove(victim % held.len());
                } else {
                    let buf = take(SIZES[size]);
                    prop_assert!(buf.capacity() >= SIZES[size]);
                    prop_assert_eq!(buf.home.is_some(), SIZES[size] >= MIN_POOLED);
                    held.push(buf);
                }
                let live: usize = held
                    .iter()
                    .filter(|b| b.home.is_some())
                    .map(|b| b.capacity())
                    .sum();
                high = high.max(live);
                let (pool_live, free, pool_high) = stats();
                prop_assert_eq!(pool_live, live);
                prop_assert_eq!(pool_high, high);
                prop_assert!(live + free <= high);
            }
        }
    }
}
