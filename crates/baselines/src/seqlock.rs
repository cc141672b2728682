//! A sequence lock for per-node optimistic reads — the "optimistic
//! scheme" ALEX+ and LIPP+ adopt (Wongkham et al., VLDB 2022). Writers
//! are mutually exclusive; readers validate a version snapshot.

use probe::metrics::{self, Counter};
use std::sync::atomic::{AtomicU64, Ordering};

/// Even = stable, odd = writer in progress.
#[derive(Debug, Default)]
pub struct SeqLock {
    v: AtomicU64,
}

impl SeqLock {
    /// A fresh, unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot for an optimistic read; waits (tiered backoff) while a
    /// writer is active. The wait never escalates — the writer holding
    /// the odd version is guaranteed to finish — and parks past the
    /// budget instead of burning CPU.
    #[inline]
    pub fn read_begin(&self) -> u64 {
        let mut retry = resilience::Retry::new();
        loop {
            let v = self.v.load(Ordering::Acquire);
            if v & 1 == 0 {
                probe::chaos::point("seqlock.read_begin");
                return v;
            }
            metrics::incr(Counter::SeqlockReadRetry);
            retry.wait(&crate::LAYER);
        }
    }

    /// True if nothing was written since the snapshot.
    #[inline]
    pub fn read_validate(&self, snapshot: u64) -> bool {
        probe::chaos::point("seqlock.read_validate");
        let ok = self.v.load(Ordering::Acquire) == snapshot;
        if !ok {
            metrics::incr(Counter::SeqlockReadRetry);
        }
        ok
    }

    /// Acquire the write side (tiered backoff while contended).
    #[inline]
    pub fn write_lock(&self) {
        let mut retry = resilience::Retry::new();
        loop {
            let v = self.v.load(Ordering::Relaxed);
            if v & 1 == 0
                && self
                    .v
                    .compare_exchange_weak(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                // Stretch the odd-version window racing readers must ride
                // out.
                probe::chaos::point("seqlock.write_lock.held");
                return;
            }
            retry.wait(&crate::LAYER);
        }
    }

    /// Release the write side.
    #[inline]
    pub fn write_unlock(&self) {
        debug_assert!(self.v.load(Ordering::Relaxed) & 1 == 1);
        self.v.fetch_add(1, Ordering::Release);
    }

    /// Run `f` under the write lock.
    #[inline]
    pub fn with_write<R>(&self, f: impl FnOnce() -> R) -> R {
        self.write_lock();
        let r = f();
        self.write_unlock();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_validates_when_quiet() {
        let l = SeqLock::new();
        let v = l.read_begin();
        assert!(l.read_validate(v));
    }

    #[test]
    fn write_invalidates_snapshot() {
        let l = SeqLock::new();
        let v = l.read_begin();
        l.with_write(|| {});
        assert!(!l.read_validate(v));
    }

    #[test]
    fn writers_are_exclusive() {
        let l = Arc::new(SeqLock::new());
        let c = Arc::new(AtomicU64::new(0));
        let mut hs = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            let c = Arc::clone(&c);
            hs.push(std::thread::spawn(move || {
                for _ in 0..5000 {
                    l.with_write(|| {
                        let v = c.load(Ordering::Relaxed);
                        c.store(v + 1, Ordering::Relaxed);
                    });
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::Relaxed), 40_000);
    }
}
