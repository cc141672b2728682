//! A tiny test-and-test-and-set spin lock, used for fast pointer buffer
//! appends (§III-E: "new fast pointers are appended to the fast pointer
//! buffer using spin locks").

use std::sync::atomic::{AtomicBool, Ordering};

/// A TTAS spin lock with a RAII guard.
pub struct SpinLock {
    flag: AtomicBool,
}

/// RAII guard; releases on drop.
pub struct SpinGuard<'a>(&'a SpinLock);

impl Default for SpinLock {
    fn default() -> Self {
        Self::new()
    }
}

impl SpinLock {
    /// An unlocked lock.
    pub const fn new() -> Self {
        Self {
            flag: AtomicBool::new(false),
        }
    }

    /// Acquire, with tiered backoff (spin → yield → park). The wait
    /// never escalates — the holder's progress is the guarantee — but it
    /// parks past the retry budget so long waits stop burning CPU.
    pub fn lock(&self) -> SpinGuard<'_> {
        let mut retry = resilience::Retry::new();
        loop {
            if !self.flag.swap(true, Ordering::Acquire) {
                // Stretch the critical section so lock-free readers race
                // the locked writer more often.
                probe::chaos::point("spin.lock.held");
                return SpinGuard(self);
            }
            while self.flag.load(Ordering::Relaxed) {
                retry.wait(&crate::LAYER);
            }
        }
    }

    /// Try to acquire without spinning.
    pub fn try_lock(&self) -> Option<SpinGuard<'_>> {
        if !self.flag.swap(true, Ordering::Acquire) {
            Some(SpinGuard(self))
        } else {
            None
        }
    }
}

impl Drop for SpinGuard<'_> {
    fn drop(&mut self) {
        self.0.flag.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn guard_releases_on_drop() {
        let l = SpinLock::new();
        {
            let _g = l.lock();
            assert!(l.try_lock().is_none());
        }
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn mutual_exclusion() {
        let l = Arc::new(SpinLock::new());
        let c = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut hs = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            let c = Arc::clone(&c);
            hs.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    let _g = l.lock();
                    let v = c.load(Ordering::Relaxed);
                    c.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::Relaxed), 80_000);
    }
}
