//! Structural statistics: node-type census and depth distribution. A
//! diagnostic traversal — consistent at rest, best effort under
//! concurrency.

use crate::node::{self, NodePtr, NodeType};
use crate::tree::Art;
use crossbeam_epoch as epoch;

/// A census of the tree's structure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArtStats {
    /// Number of Node4s.
    pub n4: usize,
    /// Number of Node16s.
    pub n16: usize,
    /// Number of Node48s.
    pub n48: usize,
    /// Number of Node256s.
    pub n256: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Sum of leaf depths (nodes on the path including the leaf).
    pub depth_sum: usize,
    /// Maximum leaf depth.
    pub depth_max: usize,
}

impl ArtStats {
    /// Total internal nodes.
    pub fn internal(&self) -> usize {
        self.n4 + self.n16 + self.n48 + self.n256
    }

    /// Average leaf depth (path length in nodes).
    pub fn avg_depth(&self) -> f64 {
        if self.leaves == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.leaves as f64
        }
    }
}

impl Art {
    /// Take a structural census (O(tree); diagnostic use).
    pub fn structure_stats(&self) -> ArtStats {
        let _guard = epoch::pin();
        let mut s = ArtStats::default();
        // SAFETY: pinned epoch; best-effort traversal.
        unsafe { census(self.root, 1, &mut s) };
        s
    }
}

/// # Safety
/// `p` live, epoch pinned by the caller.
unsafe fn census(p: NodePtr, depth: usize, s: &mut ArtStats) {
    if node::is_leaf(p) {
        s.leaves += 1;
        s.depth_sum += depth;
        s.depth_max = s.depth_max.max(depth);
        return;
    }
    let hdr = node::header(p);
    match hdr.node_type {
        NodeType::N4 => s.n4 += 1,
        NodeType::N16 => s.n16 += 1,
        NodeType::N48 => s.n48 += 1,
        NodeType::N256 => s.n256 += 1,
    }
    node::for_each_child(p, |_, c| {
        census(c, depth + 1, s);
    });
}

#[cfg(test)]
mod tests {
    use crate::tree::Art;

    #[test]
    fn census_counts_match_tree_content() {
        let t = Art::new();
        for i in 1..=1_000u64 {
            t.insert(i * 3, i);
        }
        let s = t.structure_stats();
        assert_eq!(s.leaves, 1_000);
        assert!(s.internal() > 0);
        assert!(s.avg_depth() >= 2.0, "avg {}", s.avg_depth());
        assert!(s.depth_max as f64 >= s.avg_depth());
    }

    #[test]
    fn empty_and_single_leaf() {
        let t = Art::new();
        assert_eq!(t.structure_stats().leaves, 0);
        assert_eq!(t.seek_ge(0), None);
        t.insert(42, 1);
        let s = t.structure_stats();
        assert_eq!((s.leaves, s.internal()), (1, 1));
        assert_eq!(t.seek_ge(0), Some((42, 1)));
    }

    #[test]
    fn dense_bytes_grow_wide_nodes() {
        let t = Art::new();
        // 256 children under one parent byte-position.
        for b in 0..=255u64 {
            t.insert(0xAA00 + b, b);
        }
        let s = t.structure_stats();
        assert_eq!(s.n256, 2, "{s:?}");
        assert_eq!(s.leaves, 256);
    }

    #[test]
    fn full_range_yields_sorted_everything() {
        let t = Art::new();
        let keys: Vec<u64> = (1..500u64).map(|i| i * 977 % 65_536 + 1).collect();
        let mut expect: Vec<u64> = keys.clone();
        expect.sort_unstable();
        expect.dedup();
        for &k in &keys {
            t.insert(k, k);
        }
        let mut seen = Vec::new();
        t.range(0, u64::MAX, &mut seen);
        assert_eq!(seen.iter().map(|&(k, _)| k).collect::<Vec<_>>(), expect);
    }
}
