//! The lookup-length probe: a root lookup that also reports how many
//! nodes it visited. Every access to the tree starts at the root; the
//! paper's mid-tree entry points (fast pointers, §III-C) were measured and
//! withdrawn (EXPERIMENTS.md "Fast pointers").

use crate::tree::{leaf_value, Art};
use crossbeam_epoch as epoch;

impl Art {
    /// Point lookup from the root, also reporting the number of nodes
    /// traversed (the "average lookup length" metric).
    pub fn get_with_depth(&self, key: u64) -> (Option<u64>, u32) {
        let guard = epoch::pin();
        let (leaf, hops) = self.leaf(key, &guard);
        // SAFETY: found under `guard`, still held.
        (leaf.map(|l| unsafe { leaf_value(l) }), hops)
    }
}
