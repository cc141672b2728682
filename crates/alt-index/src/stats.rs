//! Introspection for the paper's "inside analysis" experiments (§IV-H):
//! layer occupancy (Fig 10(c)), fast-pointer counts with/without merging
//! (Fig 10(b)), ART lookup lengths with/without the shortcut (Fig 10(a)),
//! and the memory breakdown (Fig 8(a)).

use crate::index::AltIndex;
use crate::slots::Probe;
use art::FromResult;
use crossbeam_epoch as epoch;

/// A point-in-time structural snapshot of an [`crate::AltIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AltStats {
    /// Number of GPL models in the directory (Fig 6(a)).
    pub num_models: usize,
    /// Live keys resident in GPL slots.
    pub keys_in_learned: usize,
    /// Live keys resident in ART.
    pub keys_in_art: usize,
    /// Fast pointer buffer entries after merging.
    pub fast_pointers: usize,
    /// Registrations attempted — the count without the merge scheme.
    pub fast_pointers_unmerged: usize,
    /// Completed dynamic retrains.
    pub retrains: usize,
    /// Bytes in the learned layer (models + directory).
    pub memory_learned: usize,
    /// Bytes in the ART layer.
    pub memory_art: usize,
    /// Bytes in the fast pointer buffer.
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
        self.memory_learned + self.memory_art + self.memory_buffer
    }
}

/// Result of probing how an ART-resident key is reached (Fig 10(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtProbe {
    /// Nodes traversed when entering through the model's fast pointer
    /// (`None` if the model has no usable pointer).
    pub jump_hops: Option<u32>,
    /// Nodes traversed from the ART root.
    pub root_hops: u32,
}

impl AltIndex {
    /// Take a structural snapshot (O(slots) — intended for experiment
    /// checkpoints, not hot paths).
    pub fn stats(&self) -> AltStats {
        let guard = epoch::pin();
        let dir = self.dir_ref(&guard);
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
            fast_pointers: self.buffer.len(),
            fast_pointers_unmerged: self.buffer.unmerged_len(),
            retrains: self.retrain_count(),
            memory_learned,
            memory_art: self.art.memory_usage(),
            memory_buffer: self.buffer.memory_usage(),
        }
    }

    /// Directory layout snapshot: `(first_key, slot_capacity, build_size)`
    /// per model, in directory order. Two indexes with equal spans have
    /// byte-equal learned-layer *shapes*; the build-equivalence suite pairs
    /// this with [`Self::learned_layout_digest`] (placement equality)
    /// to pin the serial-vs-parallel build contract.
    pub fn directory_spans(&self) -> Vec<(u64, usize, usize)> {
        let guard = epoch::pin();
        let dir = self.dir_ref(&guard);
        dir.models
            .iter()
            .map(|m| (m.first_key, m.slots.capacity(), m.build_size))
            .collect()
    }

    /// Every model's fast-pointer buffer slot index, in directory order.
    /// Registration runs in that order on one thread, so the indices are
    /// the same for every `build_threads` (the build-equivalence suite).
    pub fn fast_slots(&self) -> Vec<u32> {
        let guard = epoch::pin();
        let dir = self.dir_ref(&guard);
        dir.models.iter().map(|m| m.fast()).collect()
    }

    /// FNV-1a digest of the learned layer's physical layout: every model's
    /// span followed by every live slot's `(slot, key, value)`. Two builds
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
        let dir = self.dir_ref(&guard);
        for m in &dir.models {
            mix(m.first_key);
            mix(m.slots.capacity() as u64);
            m.slots.for_each_live(|slot, k, v| {
                mix(slot as u64);
                mix(k);
                mix(v);
            });
        }
        h
    }

    /// For a key resident in the ART layer, measure the lookup length with
    /// and without the fast-pointer shortcut. Returns `None` if the key is
    /// not an ART resident (slot hit or absent).
    pub fn probe_art_hops(&self, key: u64) -> Option<ArtProbe> {
        if key == 0 {
            return None;
        }
        let guard = epoch::pin();
        let dir = self.dir_ref(&guard);
        let m = dir.model_for(key);
        let pred = m.predict(key);
        let Probe::Art { .. } = m.slots.read(pred).0.probe(key) else {
            return None;
        };
        let (found_root, root_hops) = self.art.get_with_depth(key);
        found_root?;
        let jump_hops = match self.jump_node(m, key) {
            // SAFETY: buffer-maintained pointer under the pin taken above
            // (`guard`).
            Some(node) if node != 0 => match unsafe { self.art.get_from(node, key) } {
                FromResult::Done(Some(_), hops) => Some(hops),
                _ => None,
            },
            _ => None,
        };
        Some(ArtProbe {
            jump_hops,
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
    fn merge_scheme_reduces_pointer_count() {
        let pairs: Vec<(u64, u64)> = (1..=50_000u64).map(|i| (i * 97 + i * i / 500, i)).collect();
        let mut dedup = pairs;
        dedup.dedup_by_key(|p| p.0);
        let idx = AltIndex::bulk_load_with(
            &dedup,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        let s = idx.stats();
        if s.fast_pointers_unmerged > 0 {
            assert!(
                s.fast_pointers <= s.fast_pointers_unmerged,
                "merged {} !<= unmerged {}",
                s.fast_pointers,
                s.fast_pointers_unmerged
            );
        }
        // Pointers never outnumber models (the paper's §III-C claim).
        assert!(s.fast_pointers <= s.num_models);
    }

    #[test]
    fn probe_reports_shorter_jumps() {
        // The shortcut pays off when models are *narrow* relative to the
        // ART's top-level fanout: many clusters scattered across the high
        // bytes (root fanout), each dense cluster split into several
        // models by curvature (deep interior LCAs). Stride-4 keys with +1
        // inserts guarantee conflicts.
        let cluster_key = |b: u64, i: u64| ((b + 1) << 40) + i * 4 + (i * i / 5_000) * 4;
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        for b in 0..16u64 {
            pairs.extend((1..=20_000u64).map(|i| (cluster_key(b, i), i)));
        }
        pairs.sort_unstable_by_key(|p| p.0);
        pairs.dedup_by_key(|p| p.0);
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(8.0),
                retrain: false,
                ..Default::default()
            },
        );
        assert!(
            idx.stats().num_models > 32,
            "need several models per cluster"
        );
        // Conflicts across every cluster's interior.
        let conflicts: Vec<u64> = (0..16u64)
            .flat_map(|b| (8_000..8_500u64).map(move |i| cluster_key(b, i) + 1))
            .collect();
        for (n, &k) in conflicts.iter().enumerate() {
            idx.insert(k, n as u64).unwrap();
        }
        let mut probed = 0;
        let mut improved = 0;
        for &k in &conflicts {
            if let Some(p) = idx.probe_art_hops(k) {
                probed += 1;
                if let Some(j) = p.jump_hops {
                    assert!(j <= p.root_hops, "jump {j} > root {}", p.root_hops);
                    if j < p.root_hops {
                        improved += 1;
                    }
                }
            }
        }
        assert!(probed > 0, "expected some ART residents");
        // On a dense cluster most jumps skip at least the root.
        assert!(improved > 0, "no probe improved over root lookup");
    }

    #[test]
    fn probe_returns_none_for_slot_residents_and_absent_keys() {
        let pairs: Vec<(u64, u64)> = (1..=1_000u64).map(|i| (i * 10, i)).collect();
        let idx = AltIndex::bulk_load_default(&pairs);
        assert_eq!(idx.probe_art_hops(10), None, "slot resident");
        assert_eq!(idx.probe_art_hops(11), None, "absent key");
        assert_eq!(idx.probe_art_hops(0), None, "reserved key");
    }
}
