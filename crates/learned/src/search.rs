//! Error-bounded secondary search — the "last mile" correction every
//! classic learned index performs around an inaccurate prediction.
//!
//! ALT-index's learned layer never calls these (its slots are exact by
//! construction); the baselines (XIndex, FINEdex, ALEX+) call them on every
//! lookup, which is exactly the cost the paper's two-tier design removes.

/// Binary search for `key` within `keys[pred-err ..= pred+err]`
/// (clamped to the array). Returns the position if found.
#[inline]
pub fn bounded_search(keys: &[u64], key: u64, pred: usize, err: usize) -> Option<usize> {
    if keys.is_empty() {
        return None;
    }
    let lo = pred.saturating_sub(err);
    let hi = (pred + err + 1).min(keys.len());
    if lo >= hi {
        return None;
    }
    match keys[lo..hi].binary_search(&key) {
        Ok(p) => Some(lo + p),
        Err(_) => None,
    }
}

/// Like [`bounded_search`] but returns the insertion point within the
/// window when the key is absent (`Err(pos)` semantics of
/// `slice::binary_search`). The insertion point is only meaningful if the
/// key actually belongs inside the window.
#[inline]
pub fn bounded_search_pos(keys: &[u64], key: u64, pred: usize, err: usize) -> Result<usize, usize> {
    let lo = pred.saturating_sub(err);
    let hi = (pred + err + 1).min(keys.len());
    if lo >= hi {
        return Err(lo.min(keys.len()));
    }
    match keys[lo..hi].binary_search(&key) {
        Ok(p) => Ok(lo + p),
        Err(p) => Err(lo + p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_finds_key_inside_window() {
        let keys: Vec<u64> = (0..100u64).map(|i| i * 2).collect();
        assert_eq!(bounded_search(&keys, 40, 20, 0), Some(20));
        assert_eq!(bounded_search(&keys, 40, 25, 8), Some(20));
        assert_eq!(bounded_search(&keys, 40, 25, 2), None, "outside window");
    }

    #[test]
    fn bounded_handles_edges() {
        let keys: Vec<u64> = vec![10, 20, 30];
        assert_eq!(bounded_search(&keys, 10, 0, 0), Some(0));
        assert_eq!(bounded_search(&keys, 30, 2, 0), Some(2));
        assert_eq!(
            bounded_search(&keys, 30, 100, 200),
            Some(2),
            "clamped window"
        );
        assert_eq!(bounded_search(&[], 1, 0, 5), None);
    }

    #[test]
    fn bounded_pos_returns_insertion_point() {
        let keys: Vec<u64> = vec![10, 20, 30, 40];
        assert_eq!(bounded_search_pos(&keys, 25, 2, 3), Err(2));
        assert_eq!(bounded_search_pos(&keys, 30, 2, 3), Ok(2));
        assert_eq!(bounded_search_pos(&keys, 5, 0, 1), Err(0));
    }
}
