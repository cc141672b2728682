//! A GPL model: one linear segment of the flattened learned layer,
//! holding its keys at exactly their predicted slots.

use crate::slots::SlotArray;
use learned::LinearModel;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One GPL model: a linear function plus a gapped slot array. Keys stored
/// here sit at exactly `model.predict_clamped(key, capacity)` — the layer
/// is prediction-error-free by construction (§III-A), so a lookup is one
/// calculation plus one slot probe.
pub struct GplModel {
    /// Smallest key the model was built over (also the model anchor).
    pub first_key: u64,
    /// The placement model (slope already includes the gap factor).
    pub model: LinearModel,
    /// Slot storage.
    pub slots: SlotArray,
    /// Keys absorbed into the slots at build time (the retrain trigger
    /// compares overflow inserts against this).
    pub build_size: usize,
    /// Runtime inserts that overflowed into ART through this model.
    pub art_inserts: AtomicUsize,
    /// Set (under `op_lock` write) once the model has been replaced in the
    /// directory; operations that raced the swap retry against the new
    /// directory.
    pub retired: AtomicBool,
    /// Writers take `read`; retraining takes `write` (§III-F). Lookups are
    /// lock-free.
    pub op_lock: RwLock<()>,
}

impl GplModel {
    /// Create a model with the given placement function and capacity.
    pub fn new(first_key: u64, model: LinearModel, capacity: usize, build_size: usize) -> Self {
        Self::with_slots(
            first_key,
            model,
            SlotArray::new(capacity.max(1)),
            build_size,
        )
    }

    /// A model over an already allocated slot array.
    pub fn with_slots(
        first_key: u64,
        model: LinearModel,
        slots: SlotArray,
        build_size: usize,
    ) -> Self {
        Self {
            first_key,
            model,
            slots,
            build_size,
            art_inserts: AtomicUsize::new(0),
            retired: AtomicBool::new(false),
            op_lock: RwLock::new(()),
        }
    }

    /// The slot a key predicts to.
    #[inline]
    pub fn predict(&self, key: u64) -> usize {
        self.model.predict_clamped(key, self.slots.capacity())
    }

    /// Roughly the last key that predicts to `slot`: the placement
    /// function inverted, for sizing a scan chunk. Not exact — whoever
    /// needs the slot of the returned key predicts it again.
    pub fn key_near_slot(&self, slot: usize) -> u64 {
        // A zero slope (single-key model) divides to infinity; the cast
        // and the add both saturate.
        let span = (slot as f64 + 0.5) / self.model.slope;
        self.model.first_key.saturating_add(span as u64)
    }

    /// Whether this model has been replaced in the directory.
    #[inline]
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Whether an ART miss for a key predicted to slot `pred`, read at
    /// version `ver` before the descent, is conclusive: nothing moved
    /// under the reader — the model is still the live one and no writer of
    /// the key (they all decide under the slot's lock) has been by since.
    #[inline(always)]
    pub fn miss_is_final(&self, pred: usize, ver: u32) -> bool {
        !self.is_retired() && self.slots.version_unchanged(pred, ver)
    }

    /// Approximate heap bytes for this model.
    pub fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>() + self.slots.memory_usage()
    }

    /// Whether overflow inserts have reached the retrain threshold
    /// (§III-F: "the insertions of a specific GPL model exceed its build
    /// size").
    #[inline]
    pub fn wants_retrain(&self) -> bool {
        self.art_inserts.load(Ordering::Relaxed) > self.build_size.max(16)
    }
}

/// The placement function and slot capacity of a model over sorted
/// `pairs`: the segment's slope times the gap factor, anchored at the
/// first key, and one slot past the last key's prediction. Bulk load plans
/// a whole group with this before it allocates ([`SlotArray::for_group`]).
pub fn placement(
    pairs: &[(u64, u64)],
    segment_model: LinearModel,
    gap_factor: f64,
) -> (LinearModel, usize) {
    debug_assert!(!pairs.is_empty());
    let placement = LinearModel::new(pairs[0].0, segment_model.slope * gap_factor);
    let last = pairs[pairs.len() - 1].0;
    let capacity = (placement.predict_f(last) + 1.5) as usize;
    (placement, capacity.max(1))
}

/// Place sorted `pairs` into a model with placement function `placement`
/// over the empty array `slots`. Returns the model and the pairs that
/// collided (conflict data for ART). The first key of each collision
/// keeps its slot; later keys are evicted, exactly like bulk loading in
/// §III-A.
pub fn fill(
    pairs: &[(u64, u64)],
    placement: LinearModel,
    slots: SlotArray,
) -> (GplModel, Vec<(u64, u64)>) {
    let model = GplModel::with_slots(pairs[0].0, placement, slots, pairs.len());
    let mut conflicts = Vec::new();
    for &(k, v) in pairs {
        let slot = model.predict(k);
        if !model.slots.place_unsync(slot, k, v) {
            conflicts.push((k, v));
        }
    }
    (model, conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::SlotState;

    fn build_model(
        pairs: &[(u64, u64)],
        segment_model: LinearModel,
        gap_factor: f64,
    ) -> (GplModel, Vec<(u64, u64)>) {
        let (placement, capacity) = placement(pairs, segment_model, gap_factor);
        fill(pairs, placement, SlotArray::new(capacity))
    }

    #[test]
    fn build_places_linear_keys_without_conflicts() {
        let pairs: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * 10 + 1, i)).collect();
        let seg =
            LinearModel::fit_endpoints(&pairs.iter().map(|p| p.0).collect::<Vec<_>>()).unwrap();
        let (m, conflicts) = build_model(&pairs, seg, 1.5);
        assert!(conflicts.is_empty(), "{} conflicts", conflicts.len());
        // Every key is at exactly its predicted slot.
        for &(k, v) in &pairs {
            let slot = m.predict(k);
            assert_eq!(
                m.slots.read(slot).0,
                SlotState::Occupied { key: k, value: v }
            );
        }
    }

    #[test]
    fn build_evicts_colliding_keys() {
        // Clustered keys with a tiny slope: many collisions.
        let pairs: Vec<(u64, u64)> = (0..100u64).map(|i| (1000 + i, i)).collect();
        let seg = LinearModel::new(1000, 0.1); // 10 keys per slot
        let (m, conflicts) = build_model(&pairs, seg, 1.0);
        assert!(!conflicts.is_empty());
        assert_eq!(m.slots.live_count() + conflicts.len(), pairs.len());
        // Conflicts preserve input order (sorted).
        for w in conflicts.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn single_key_model() {
        let pairs = [(42u64, 1u64)];
        let (m, conflicts) = build_model(&pairs, LinearModel::point(42), 1.2);
        assert!(conflicts.is_empty());
        assert_eq!(m.slots.capacity(), 1);
        assert_eq!(m.predict(42), 0);
        assert_eq!(m.slots.read(0).0, SlotState::Occupied { key: 42, value: 1 });
    }

    #[test]
    fn retrain_trigger_threshold() {
        let m = GplModel::new(1, LinearModel::point(1), 4, 100);
        assert!(!m.wants_retrain());
        m.art_inserts.store(101, Ordering::Relaxed);
        assert!(m.wants_retrain());
    }
}
