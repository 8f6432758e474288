//! Shared zero-filled bulk payloads.
//!
//! Experiments stage large synthetic blobs — container-image tarballs,
//! benchmark transfer bodies — whose *size* matters to the simulation but
//! whose content is all zeros and is never read. Every caller gets an O(1)
//! window into one thread-local zero pool that grows geometrically to the
//! largest size ever requested, so a testbed boot re-stages the 450 MiB
//! image tarball for a refcount bump.
//!
//! The pool costs address space, not memory. A growth is `vec![0u8; cap]`,
//! which for any size that matters arrives from `calloc` as a lazily
//! zeroed mapping, and `Bytes::from(Vec<u8>)` keeps the buffer it is given
//! (the `bytes` shim's ownership rule) — so nothing ever writes the pool's
//! pages and the kernel never backs them. `tests/bulk_rss.rs` holds the
//! data path to that: staging and moving the tarball must not grow the
//! process.

use std::cell::RefCell;

use bytes::Bytes;

thread_local! {
    static ZERO_POOL: RefCell<Bytes> = const { RefCell::new(Bytes::new()) };
}

/// A zero-filled buffer of `len` bytes, sharing one thread-local backing
/// allocation across all callers. Byte-for-byte identical to
/// `Bytes::from(vec![0u8; len])`, but repeated requests cost a refcount
/// bump and a slice instead of a fresh allocation.
pub fn zeroed_bytes(len: usize) -> Bytes {
    ZERO_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < len {
            // Geometric growth amortizes mixed-size request sequences; the
            // common case (one constant tarball size) allocates exactly once.
            let cap = len.max(pool.len().saturating_mul(2));
            *pool = Bytes::from(vec![0u8; cap]);
        }
        pool.slice(..len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_bytes_match_naive_allocation() {
        let b = zeroed_bytes(1024);
        assert_eq!(b.len(), 1024);
        assert_eq!(b, Bytes::from(vec![0u8; 1024]));
    }

    #[test]
    fn repeated_requests_share_one_backing_buffer() {
        let a = zeroed_bytes(100);
        let b = zeroed_bytes(100);
        // Same backing storage: both windows start at the same address.
        assert_eq!(a.as_ref().as_ptr(), b.as_ref().as_ptr());
    }

    #[test]
    fn pool_grows_to_largest_request() {
        let small = zeroed_bytes(8);
        let big = zeroed_bytes(4096);
        assert_eq!(small.len(), 8);
        assert_eq!(big.len(), 4096);
        assert!(big.iter().all(|&x| x == 0));
        // After growth, smaller requests ride the bigger buffer.
        let again = zeroed_bytes(8);
        assert_eq!(again.as_ref().as_ptr(), big.as_ref().as_ptr());
    }

    #[test]
    fn zero_length_request_is_empty() {
        assert!(zeroed_bytes(0).is_empty());
    }
}
