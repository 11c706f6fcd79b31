//! The block-shared sample pool of Algorithm 1.
//!
//! Threads of a block draw sample tasks from a shared pool via an atomic
//! fetch (`FetchSampleTask`), so fast threads absorb the tail of slow ones
//! instead of idling — the block-level load-balancing layer beneath the
//! warp-level optimizations.

use std::sync::atomic::{AtomicU64, Ordering};

/// An atomic pool of `total` sample tasks.
///
/// The cursor *saturates* at `total`: fetches from a drained pool do not
/// advance it, so arbitrarily long refill loops (every warp polling an
/// empty pool each iteration) can never overflow the counter or make
/// [`SamplePool::issued`] lie about how many tasks were handed out.
#[derive(Debug)]
pub struct SamplePool {
    next: AtomicU64,
    total: u64,
}

impl SamplePool {
    /// Create a pool holding `total` tasks.
    pub fn new(total: u64) -> Self {
        SamplePool {
            next: AtomicU64::new(0),
            total,
        }
    }

    /// Fetch the next task id, or `None` when the pool is drained.
    ///
    /// Models the shared-memory atomic increment of Algorithm 1 line 5.
    #[inline]
    pub fn fetch(&self) -> Option<u64> {
        // Relaxed is enough: ids only need to be unique, and the caller
        // joins all worker threads before reading results. CAS instead of
        // a blind fetch_add so the cursor saturates at `total`.
        self.next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (cur < self.total).then_some(cur + 1)
            })
            .ok()
    }

    /// Total tasks the pool was created with.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Tasks handed out so far (saturated at `total`).
    pub fn issued(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Whether all tasks have been handed out.
    pub fn is_drained(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_hands_out_each_task_once() {
        let p = SamplePool::new(5);
        let mut ids: Vec<u64> = std::iter::from_fn(|| p.fetch()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(p.fetch().is_none());
        assert!(p.is_drained());
    }

    #[test]
    fn drained_pool_cursor_saturates() {
        // Regression: `fetch` used to blindly fetch_add, so a
        // long-running refill loop on a drained pool marched `next` toward
        // u64::MAX — overflow territory and a lying issued-count.
        let p = SamplePool::new(3);
        while p.fetch().is_some() {}
        for _ in 0..10_000 {
            assert!(p.fetch().is_none());
        }
        assert_eq!(p.issued(), 3);
        assert!(p.is_drained());
    }

    #[test]
    fn concurrent_fetch_is_exact() {
        let p = SamplePool::new(10_000);
        let count = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    while p.fetch().is_some() {
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 10_000);
        assert_eq!(p.issued(), 10_000);
    }

    #[test]
    fn concurrent_drained_fetch_never_overshoots() {
        let p = SamplePool::new(64);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..2_000 {
                        let _ = p.fetch();
                    }
                });
            }
        });
        assert_eq!(p.issued(), 64);
    }

    #[test]
    fn empty_pool() {
        let p = SamplePool::new(0);
        assert!(p.fetch().is_none());
        assert!(p.is_drained());
        assert_eq!(p.issued(), 0);
    }
}
