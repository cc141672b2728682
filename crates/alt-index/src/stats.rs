//! Introspection for the paper's "inside analysis" experiments (§IV-H):
//! layer occupancy (Fig 10(c)), ART lookup lengths, and the memory
//! breakdown (Fig 8(a)).

use crate::index::AltIndex;
use crate::slots::Probe;
use crossbeam_epoch as epoch;

/// A point-in-time structural snapshot of an [`crate::AltIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AltStats {
    /// Number of GPL models in the directory (Fig 6(a)).
    pub num_models: usize,
    /// Live keys resident in GPL slots (any lane of their line).
    pub keys_in_learned: usize,
    /// Live keys resident in ART.
    pub keys_in_art: usize,
    /// Always 0: the fast pointer buffer is gone; `altbench` reads this.
    pub fast_pointers: usize,
    /// Always 0: the fast pointer buffer is gone; `altbench` reads this.
    pub fast_pointers_unmerged: usize,
    /// Completed dynamic retrains.
    pub retrains: usize,
    /// Bytes in the learned layer (models + directory).
    pub memory_learned: usize,
    /// Bytes in the ART layer.
    pub memory_art: usize,
    /// Always 0: the fast pointer buffer is gone; `altbench` reads this.
    pub memory_buffer: usize,
}

impl AltStats {
    /// Fraction of live keys held by the learned layer (Fig 10(c)).
    pub fn learned_share(&self) -> f64 {
        let total = self.keys_in_learned + self.keys_in_art;
        if total == 0 {
            return 0.0;
        }
        self.keys_in_learned as f64 / total as f64
    }

    /// Total tracked bytes.
    pub fn memory_total(&self) -> usize {
        self.memory_learned + self.memory_art
    }
}

/// Result of probing how an ART-resident key is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtProbe {
    /// Always `None`: no access enters ART below the root; `altbench`
    /// reads this.
    pub jump_hops: Option<u32>,
    /// Nodes traversed from the ART root.
    pub root_hops: u32,
}

impl AltIndex {
    /// Take a structural snapshot (O(slots) — intended for experiment
    /// checkpoints, not hot paths).
    pub fn stats(&self) -> AltStats {
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        let mut keys_in_learned = 0usize;
        let mut memory_learned = dir.memory_usage();
        for m in &dir.models {
            keys_in_learned += m.slots.live_count();
            memory_learned += m.memory_usage();
        }
        AltStats {
            num_models: dir.len(),
            keys_in_learned,
            keys_in_art: self.art.len(),
            fast_pointers: 0,
            fast_pointers_unmerged: 0,
            retrains: self.retrain_count(),
            memory_learned,
            memory_art: self.art.memory_usage(),
            memory_buffer: 0,
        }
    }

    /// Directory layout snapshot: `(first_key, buckets, build_size)` per
    /// model, in directory order. Two indexes with equal spans have
    /// byte-equal learned-layer *shapes*; the build-equivalence suite pairs
    /// this with [`Self::learned_layout_digest`] (placement equality)
    /// to pin the serial-vs-parallel build contract.
    pub fn directory_spans(&self) -> Vec<(u64, usize, usize)> {
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        dir.models
            .iter()
            .map(|m| (m.first_key, m.slots.buckets(), m.build_size))
            .collect()
    }

    /// FNV-1a digest of the learned layer's physical layout: every model's
    /// span followed by every live entry's `(bucket, key, value)`. Two builds
    /// with equal digests placed every slot-resident key identically.
    /// Quiescent-state helper (walks slots unversioned) for the
    /// build-equivalence suite — not meaningful under concurrent writes.
    pub fn learned_layout_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        for m in &dir.models {
            mix(m.first_key);
            mix(m.slots.buckets() as u64);
            m.slots.for_each_live(|bucket, k, v| {
                mix(bucket as u64);
                mix(k);
                mix(v);
            });
        }
        h
    }

    /// For a key resident in the ART layer, measure the lookup length from
    /// the root. Returns `None` if the key is not an ART resident (slot
    /// hit or absent).
    pub fn probe_art_hops(&self, key: u64) -> Option<ArtProbe> {
        if key == 0 {
            return None;
        }
        let guard = epoch::pin();
        let dir = self.dir.load(&guard);
        let m = dir.model_for(key);
        let pred = m.predict(key);
        let (Probe::Art, _) = m.slots.probe(pred, key) else {
            return None;
        };
        let (found_root, root_hops) = self.art.get_with_depth(key);
        found_root?;
        Some(ArtProbe {
            jump_hops: None,
            root_hops,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::config::AltConfig;
    use crate::index::AltIndex;

    #[test]
    fn stats_account_for_both_layers() {
        // Clustered keys with tiny epsilon force conflicts.
        let pairs: Vec<(u64, u64)> = (1..=10_000u64).map(|i| (i * i / 7 + i, i)).collect();
        let mut dedup = pairs.clone();
        dedup.dedup_by_key(|p| p.0);
        let idx = AltIndex::bulk_load_with(
            &dedup,
            AltConfig {
                epsilon: Some(256.0),
                ..Default::default()
            },
        );
        let s = idx.stats();
        assert_eq!(s.keys_in_learned + s.keys_in_art, dedup.len());
        assert!(s.num_models >= 1);
        assert!(s.memory_learned > 0);
        assert!(s.learned_share() > 0.0 && s.learned_share() <= 1.0);
        assert!(s.memory_total() >= s.memory_learned);
    }

    #[test]
    fn probe_classifies_art_residents_and_counts_root_hops() {
        let pairs: Vec<(u64, u64)> = (1..=1_000u64).map(|i| (i * 10, i)).collect();
        let idx = AltIndex::bulk_load_default(&pairs);
        assert_eq!(idx.probe_art_hops(10), None, "slot resident");
        assert_eq!(idx.probe_art_hops(11), None, "absent key");
        assert_eq!(idx.probe_art_hops(0), None, "reserved key");
        // Neighbours of a slot resident: those that collide with it live
        // in ART, and the probe's length is the tree's own.
        for k in 5_001..5_010u64 {
            idx.insert(k, k).unwrap();
        }
        let in_art: Vec<_> = (5_001..5_010u64)
            .filter_map(|k| idx.probe_art_hops(k).map(|p| (k, p)))
            .collect();
        assert_eq!(in_art.len(), idx.stats().keys_in_art);
        assert!(!in_art.is_empty(), "expected some ART residents");
        for (k, p) in in_art {
            assert_eq!(p.jump_hops, None);
            assert_eq!((Some(k), p.root_hops), idx.art.get_with_depth(k));
        }
    }
}
