//! Range scans: one ordered, bounded descent.
//!
//! [`Art::scan_with`] walks the subtrees that intersect `[lo, hi]` in key
//! order and hands each entry to a visitor until a result limit is met;
//! `range`, `scan_n` and `seek_ge` are that walk with a different bound,
//! limit or sink. The walk validates node versions as it goes (optimistic
//! lock coupling, as in `get`). On a conflict it starts again from the
//! root *after the last entry it delivered*, so an entry is never
//! retracted, every conflict still leaves the scan further on, and each
//! returned entry is consistent with some point-in-time state — the same
//! per-key guarantee the paper's two-layer merged scan provides.

use crate::node::{self, NodePtr};
use crate::olc::VersionLock;
use crate::tree::Art;
use crossbeam_epoch as epoch;
use std::sync::atomic::Ordering;

/// Restart marker for optimistic descents.
struct Restart;

impl Art {
    /// Append every `(key, value)` with `lo <= key <= hi` to `out` in
    /// ascending key order; returns the number appended.
    pub fn range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) -> usize {
        self.scan_with(lo, hi, usize::MAX, |k, v| out.push((k, v)))
    }

    /// Append at most `n` entries starting at `lo`, ascending; returns
    /// the number appended.
    pub fn scan_n(&self, lo: u64, n: usize, out: &mut Vec<(u64, u64)>) -> usize {
        self.scan_with(lo, u64::MAX, n, |k, v| out.push((k, v)))
    }

    /// Smallest key >= `cursor` with its value, if any.
    pub fn seek_ge(&self, cursor: u64) -> Option<(u64, u64)> {
        let mut hit = None;
        self.scan_with(cursor, u64::MAX, 1, |k, v| hit = Some((k, v)));
        hit
    }

    /// Call `visit(key, value)` for the first `limit` entries with
    /// `lo <= key <= hi`, in ascending key order; returns how many were
    /// visited. Nothing is allocated.
    pub fn scan_with(&self, lo: u64, hi: u64, limit: usize, visit: impl FnMut(u64, u64)) -> usize {
        let mut walk = Walk {
            next: Some(lo),
            hi,
            limit,
            seen: 0,
            visit,
        };
        let _guard = epoch::pin();
        while let Some(lo) = walk.pending() {
            if walk.descend(self.root, 0, 0, lo, None).is_ok() {
                break;
            }
        }
        walk.seen
    }
}

/// All-ones mask for the key bits strictly below byte position `depth`
/// (depth in bytes from the top; depth >= 8 -> 0).
#[inline]
fn below_mask(depth: usize) -> u64 {
    if depth >= 8 {
        0
    } else {
        u64::MAX >> (8 * depth)
    }
}

/// One scan's progress, kept across restarts of its descent.
struct Walk<F> {
    /// Smallest key not yet ruled on (`None`: the key space is used up).
    next: Option<u64>,
    hi: u64,
    limit: usize,
    seen: usize,
    visit: F,
}

impl<F: FnMut(u64, u64)> Walk<F> {
    /// The lower bound still to be scanned, or `None` when the scan is
    /// complete.
    fn pending(&self) -> Option<u64> {
        self.next
            .filter(|&lo| lo <= self.hi && self.seen < self.limit)
    }

    /// Ordered DFS over the subtree at `p`, visiting keys in `[lo, hi]`
    /// until the scan is complete. `acc` holds the path bytes above `p`
    /// (low bits zero) and `depth` is the number of those bytes —
    /// together they bound the subtree's key interval exactly, so only
    /// the children between `lo`'s byte and `hi`'s are enumerated.
    ///
    /// The caller holds an epoch pin. `Err(Restart)` on any version
    /// conflict; `self.next` then says where to resume.
    fn descend(
        &mut self,
        p: NodePtr,
        acc: u64,
        depth: usize,
        lo: u64,
        parent: Option<(&VersionLock, u64)>,
    ) -> Result<(), Restart> {
        let parent_valid = || parent.is_none_or(|(lock, v)| lock.validate(v));
        if node::is_leaf(p) {
            // SAFETY: epoch pinned by the caller.
            let leaf = unsafe { node::leaf_ref(p) };
            // Lock coupling: only trust the leaf if the parent snapshot
            // that led here is still current.
            if !parent_valid() {
                return Err(Restart);
            }
            if leaf.key >= lo && leaf.key <= self.hi {
                (self.visit)(leaf.key, leaf.value.load(Ordering::Acquire));
                self.seen += 1;
                self.next = leaf.key.checked_add(1);
            }
            return Ok(());
        }
        // SAFETY: epoch pinned by the caller.
        let hdr = unsafe { node::header(p) };
        let v = hdr.version.read_lock_spin().ok_or(Restart)?;
        if !parent_valid() {
            return Err(Restart);
        }
        // A writer may be changing the prefix in place (DESIGN.md §15):
        // the interval is trusted only once `v` validates, on the way out
        // below or with the first child read.
        let (prefix, plen) = hdr.prefix();
        let mut acc = acc;
        for (i, &b) in prefix[..plen].iter().enumerate() {
            if depth + i < 8 {
                acc |= (b as u64) << (56 - 8 * (depth + i));
            }
        }
        let disc = depth + plen;
        let span_hi = acc | below_mask(disc);
        if disc >= 8 || span_hi < lo || acc > self.hi {
            return hdr.version.validate(v).then_some(()).ok_or(Restart);
        }
        // A bound lying inside the subtree's interval shares its path
        // bytes, so the bound's next byte limits the children; a bound
        // outside leaves that side open.
        let lo_byte = if acc < lo {
            node::key_byte(lo, disc)
        } else {
            0
        };
        let hi_byte = if span_hi > self.hi {
            node::key_byte(self.hi, disc)
        } else {
            u8::MAX
        };
        // Children are read one position at a time, each read validated
        // before it is used; the one after the child being descended
        // into is read early so its line is on its way.
        let child_at = |pos| {
            // SAFETY: epoch pinned; the read is discarded unless the
            // validation below succeeds.
            let c = unsafe { node::next_child(p, pos, lo_byte, hi_byte) };
            hdr.version.validate(v).then_some(c).ok_or(Restart)
        };
        let mut child = child_at(0)?;
        while let Some((pos, byte, c)) = child {
            child = child_at(pos)?;
            if let Some((_, _, ahead)) = child {
                prefetch::prefetch_read((ahead & !1) as *const u8);
            }
            let child_acc = acc | (byte as u64) << (56 - 8 * disc);
            self.descend(c, child_acc, disc + 1, lo, Some((&hdr.version, v)))?;
            if self.pending().is_none() {
                break;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::Art;
    use std::collections::BTreeMap;

    fn build(keys: impl IntoIterator<Item = u64>) -> (Art, BTreeMap<u64, u64>) {
        let t = Art::new();
        let mut m = BTreeMap::new();
        for k in keys {
            if m.insert(k, k.wrapping_mul(2)).is_none() {
                t.insert(k, k.wrapping_mul(2));
            }
        }
        (t, m)
    }

    #[test]
    fn range_matches_btreemap() {
        let (t, m) = build((1..2000u64).map(|i| i * 37 % 65_536 + 1));
        for (lo, hi) in [(0u64, u64::MAX), (100, 5_000), (60_000, 70_000), (5, 5)] {
            let mut got = Vec::new();
            t.range(lo, hi, &mut got);
            let want: Vec<(u64, u64)> = m.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "range {lo}..={hi}");
        }
    }

    #[test]
    fn range_on_empty_tree() {
        let t = Art::new();
        let mut out = Vec::new();
        assert_eq!(t.range(0, u64::MAX, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn seek_ge_boundaries() {
        let (t, _) = build([10u64, 20, 30]);
        assert_eq!(t.seek_ge(0), Some((10, 20)));
        assert_eq!(t.seek_ge(10), Some((10, 20)));
        assert_eq!(t.seek_ge(11), Some((20, 40)));
        assert_eq!(t.seek_ge(30), Some((30, 60)));
        assert_eq!(t.seek_ge(31), None);
        assert_eq!(t.seek_ge(u64::MAX), None);
    }

    #[test]
    fn scan_n_truncates() {
        let (t, _) = build((1..=100u64).map(|i| i * 1000));
        let mut out = Vec::new();
        assert_eq!(t.scan_n(2500, 10, &mut out), 10);
        assert_eq!(out[0].0, 3000);
        assert_eq!(out[9].0, 12000);
        out.clear();
        assert_eq!(t.scan_n(99_500, 10, &mut out), 1, "tail-clamped scan");
    }

    #[test]
    fn range_spanning_max_key() {
        let (t, _) = build([u64::MAX, u64::MAX - 1, 5]);
        let mut out = Vec::new();
        t.range(u64::MAX - 1, u64::MAX, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].0, u64::MAX);
    }

    #[test]
    fn range_under_concurrent_inserts_returns_sorted_subset() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let t = Arc::new(Art::new());
        for k in (2..20_000u64).step_by(4) {
            t.insert(k, k);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 3u64;
                while !stop.load(Ordering::Relaxed) {
                    t.insert(k, k);
                    k += 4;
                    if k > 40_000 {
                        break;
                    }
                }
            })
        };
        for _ in 0..50 {
            let mut out = Vec::new();
            t.range(1000, 15_000, &mut out);
            // Sorted, unique, within bounds; all stable (pre-existing)
            // keys present.
            for w in out.windows(2) {
                assert!(w[0].0 < w[1].0, "unsorted scan result");
            }
            assert!(out.iter().all(|&(k, _)| (1000..=15_000).contains(&k)));
            let stable: Vec<u64> = out.iter().map(|&(k, _)| k).filter(|k| k % 4 == 2).collect();
            let expected: Vec<u64> = (1002..=14_998u64).filter(|k| k % 4 == 2).collect();
            assert_eq!(stable, expected);
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
