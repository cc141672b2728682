//! A GPL model: one linear segment of the flattened learned layer,
//! holding its keys in the buckets it predicts for them.

use crate::slots::SlotArray;
use learned::gpl::Segment;
use learned::LinearModel;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// `GplModel::lifecycle`: writers may change the slots.
const LIVE: u8 = 0;
/// A retrain is collecting the span: the model still serves every key,
/// but writers go through `dir_lock` to its successor.
const CLOSING: u8 = 1;
/// Replaced in the directory: its successor predicts otherwise.
const RETIRED: u8 = 2;

/// One GPL model: a linear function plus a gapped slot array. Keys stored
/// here sit in a lane of the bucket [`GplModel::predict`] gives them — the
/// layer is prediction-error-free at bucket granularity (§III-A), so a
/// lookup is one calculation plus one bucket probe.
pub struct GplModel {
    /// Smallest key the model was built over (also the model anchor).
    pub first_key: u64,
    /// The placement model: its slope is the one [`placement`] chose
    /// under the build's slot budget, not the segment's own.
    pub model: LinearModel,
    /// Slot storage.
    pub slots: SlotArray,
    /// Keys absorbed into the slots at build time (the retrain trigger
    /// compares overflow inserts against this).
    pub build_size: usize,
    /// Runtime inserts that overflowed into ART through this model.
    pub art_inserts: AtomicUsize,
    /// `Live → Closing → Retired`, stored only by a retrain under
    /// `dir_lock` (DESIGN.md §14). A writer reads it under its line lock
    /// and proceeds only on `Live`; a reader only asks whether it is
    /// `Retired`.
    lifecycle: AtomicU8,
}

impl GplModel {
    /// Create a model with the given placement function, over an array
    /// planned for `positions` positions.
    pub fn new(first_key: u64, model: LinearModel, positions: usize, build_size: usize) -> Self {
        Self::with_slots(
            first_key,
            model,
            SlotArray::new(positions.max(1)),
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
            lifecycle: AtomicU8::new(LIVE),
        }
    }

    /// The bucket a key predicts to: the bucket of the placement
    /// function's rounded position, clamped to the last one.
    #[inline]
    pub fn predict(&self, key: u64) -> usize {
        self.slots
            .bucket_at(self.model.predict_clamped(key, usize::MAX))
    }

    /// Roughly the last key that predicts to `bucket`: the placement
    /// function inverted at the bucket's end, for sizing a scan chunk. Not
    /// exact — whoever needs the bucket of the returned key predicts it
    /// again.
    pub fn last_key(&self, bucket: usize) -> u64 {
        // A zero slope (single-key model) divides to infinity; the cast
        // and the add both saturate.
        let span = (SlotArray::end_of(bucket) as f64 - 0.5) / self.model.slope;
        self.model.first_key.saturating_add(span as u64)
    }

    /// Whether this model has been replaced in the directory.
    #[inline]
    pub fn is_retired(&self) -> bool {
        self.lifecycle.load(Ordering::Acquire) == RETIRED
    }

    /// Whether writers may change this model. Read under a bucket lock: a
    /// retrain stores `Closing` before its sweep takes that lock, and the
    /// sweep's unlock (Release) and the writer's lock (Acquire) carry the
    /// store to a writer that locks the bucket after the sweep has passed.
    #[inline]
    pub fn is_live(&self) -> bool {
        self.lifecycle.load(Ordering::Acquire) == LIVE
    }

    /// Close the model to writers ahead of a retrain's sweep. The model
    /// is live again when the returned guard drops, unless it was
    /// retired by then.
    pub(crate) fn close(&self) -> Closed<'_> {
        self.lifecycle.store(CLOSING, Ordering::Release);
        Closed(self)
    }

    /// Mark the model replaced, once its successor is published. The
    /// Release pairs with [`GplModel::is_retired`]'s Acquire: a reader that
    /// sees `Retired` also sees the directory swapped in before it.
    pub(crate) fn retire(&self) {
        self.lifecycle.store(RETIRED, Ordering::Release);
    }

    /// Whether an ART miss for a key predicted to bucket `pred`, read at
    /// version `ver` before the descent, is conclusive: nothing moved
    /// under the reader — the model has not been retired and no writer of
    /// the key has been by since. They all decide under the bucket's lock,
    /// and every unlock counts a write in the bucket's one version word,
    /// so that word re-validates the whole bucket.
    #[inline(always)]
    pub fn miss_is_final(&self, pred: usize, ver: u64) -> bool {
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

/// A closed model that reopens on drop, whether the retrain that closed it
/// returned early or unwound, unless it retired the model first.
pub(crate) struct Closed<'a>(&'a GplModel);

impl Drop for Closed<'_> {
    fn drop(&mut self) {
        // Only the retrain holding `dir_lock` stores a lifecycle.
        if !self.0.is_retired() {
            self.0.lifecycle.store(LIVE, Ordering::Release);
        }
    }
}

/// What sizes every build's slot budget: the slots each model would get
/// at this factor times GPL's cone-midpoint slope, summed over the build
/// ([`placement`]). The paper's "array gaps scheme to handle some coming
/// insertions".
pub(crate) const GAP_FACTOR: f64 = 1.25;

/// Gap-profile buckets: four per octave of a `u64` gap.
const BUCKETS: usize = 64 * 4;

/// The bucket of a gap of `gap ≥ 1` key units: its octave, and the two
/// bits below its leading one.
#[inline]
fn bucket(gap: u64) -> usize {
    let octave = 63 - gap.leading_zeros() as usize;
    4 * octave + ((u128::from(gap) << 2 >> octave) as usize & 3)
}

/// The smallest gap in bucket `b`.
fn bucket_floor(b: usize) -> f64 {
    (1.0 + (b % 4) as f64 / 4.0) * 2f64.powi((b / 4) as i32)
}

/// One slope a model could take: the slots it costs, and how many of its
/// keys are expected to own one.
#[derive(Clone, Copy)]
struct Choice {
    slope: f64,
    slots: usize,
    residents: f64,
}

/// The slopes worth pricing for a model over sorted `pairs`: first the
/// midpoint rule's `midpoint`, then one per bucket edge of the model's gap
/// profile. Two keys `g` apart share a slot with probability about
/// `max(0, 1 − s·g)`, so at slope `s` a model holds about
/// `1 + Σ min(1, s·g)` residents.
fn choices(pairs: &[(u64, u64)], midpoint: f64) -> Vec<Choice> {
    // Gap count and sum per bucket; no sum can exceed the key range.
    let mut profile = [(0u64, 0u64); BUCKETS];
    let mut prev = pairs[0].0;
    for &(key, _) in &pairs[1..] {
        let gap = key - prev;
        prev = key;
        let b = &mut profile[bucket(gap)];
        *b = (b.0 + 1, b.1 + gap);
    }
    let range = (prev - pairs[0].0) as f64;
    let choice = |slope: f64, residents: f64| Choice {
        slope,
        // One slot past the last key's prediction.
        slots: (slope * range + 1.5) as usize,
        residents,
    };
    let at_midpoint = profile
        .iter()
        .map(|&(n, sum)| (n as f64).min(midpoint * sum as f64));
    let mut out = vec![choice(midpoint, 1.0 + at_midpoint.sum::<f64>())];
    // The buckets in use are `lo..hi`. At the edge of bucket `b`, every gap
    // of a bucket from `b` up owns a slot, and every gap below it a share.
    let lo = profile.iter().position(|b| b.0 > 0).unwrap_or(BUCKETS);
    let hi = profile.iter().rposition(|b| b.0 > 0).map_or(0, |b| b + 1);
    let (mut above, mut below) = ((pairs.len() - 1) as f64, 0.0);
    for b in lo..=hi {
        let slope = 1.0 / bucket_floor(b);
        out.push(choice(slope, 1.0 + above + slope * below));
        let (n, sum) = profile.get(b).copied().unwrap_or_default();
        (above, below) = (above - n as f64, below + sum as f64);
    }
    out
}

/// The choices some price picks: the upper concave hull of
/// `(slots, residents)`, fewest slots first, so that a model's gain
/// `residents − λ·slots` rises along it to its best and then falls.
fn hull(mut choices: Vec<Choice>) -> Vec<Choice> {
    choices.sort_by(|a, b| {
        a.slots
            .cmp(&b.slots)
            .then(b.residents.total_cmp(&a.residents))
    });
    let mut hull: Vec<Choice> = Vec::with_capacity(choices.len());
    for c in choices {
        if hull.last().is_some_and(|l| c.residents <= l.residents) {
            continue;
        }
        // Drop the last point while it is not above the chord to `c`.
        while let [.., a, b] = hull[..] {
            let rise = |p: Choice| (p.residents - a.residents) / (p.slots - a.slots) as f64;
            if rise(b) > rise(c) {
                break;
            }
            hull.pop();
        }
        hull.push(c);
    }
    hull
}

/// Each segment's placement function and slot capacity: anchored at its
/// first key, one slot past its last key's prediction, with the slopes
/// chosen together under one slot budget. Bulk load and every retrain
/// plan their whole build with this before anything is allocated
/// ([`SlotArray::for_group`]).
///
/// The budget is what GPL's cone midpoint times `gap_factor`
/// (`GAP_FACTOR` in every build) gives every segment. A single price λ
/// per slot picks each model's slope to maximise
/// `residents − λ·slots`, ties to fewer slots; the smallest λ whose picks
/// fit the budget is found by bisection. At a price above any segment's
/// key count every model takes its fewest slots, at most the midpoint's,
/// so the budget always holds. λ depends on the segments alone, not on how
/// they are later grouped (DESIGN.md §3, §12).
pub fn placement(
    pairs: &[(u64, u64)],
    segments: &[Segment],
    gap_factor: f64,
) -> Vec<(LinearModel, usize)> {
    let mut budget = 0usize;
    let options: Vec<Vec<Choice>> = segments
        .iter()
        .map(|s| {
            let c = choices(&pairs[s.start..s.start + s.len], s.model.slope * gap_factor);
            budget += c[0].slots;
            hull(c)
        })
        .collect();
    let pick = |hull: &[Choice], price: f64| {
        let gain = |c: &Choice| c.residents - price * c.slots as f64;
        hull[hull
            .windows(2)
            .take_while(|w| gain(&w[1]) > gain(&w[0]))
            .count()]
    };
    // Saturating: at a low price a steep edge can cost a segment's whole
    // key range in slots.
    let spent = |price: f64| {
        options
            .iter()
            .fold(0usize, |n, o| n.saturating_add(pick(o, price).slots))
    };
    let mut price = 0.0;
    if spent(price) > budget {
        let (mut lo, mut hi) = (0.0, pairs.len() as f64);
        for _ in 0..64 {
            let mid = (lo + hi) / 2.0;
            if spent(mid) <= budget {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        price = hi;
    }
    segments
        .iter()
        .zip(&options)
        .map(|(s, o)| {
            let c = pick(o, price);
            (LinearModel::new(pairs[s.start].0, c.slope), c.slots)
        })
        .collect()
}

/// Place sorted `pairs` into a model with placement function `placement`
/// over the empty array `slots`, in one pass: each key goes to its
/// predicted bucket, which takes keys in order, and so sorted, until it is
/// full (§III-A's predicted slot, widened to the bucket: DESIGN.md §3 "A
/// line is a bucket"). Returns the model and the pairs that found their
/// bucket full, in key order (conflict data for ART), each bucket with
/// its spill bit set.
pub fn fill(
    pairs: &[(u64, u64)],
    placement: LinearModel,
    slots: SlotArray,
) -> (GplModel, Vec<(u64, u64)>) {
    let model = GplModel::with_slots(pairs[0].0, placement, slots, pairs.len());
    let conflicts = pairs
        .iter()
        .copied()
        .filter(|&(k, v)| !model.slots.place_unsync(model.predict(k), k, v))
        .collect();
    (model, conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::Probe;

    fn build_model(
        pairs: &[(u64, u64)],
        segment_model: LinearModel,
        gap_factor: f64,
    ) -> (GplModel, Vec<(u64, u64)>) {
        let segment = Segment {
            start: 0,
            len: pairs.len(),
            model: segment_model,
        };
        let (placement, capacity) = placement(pairs, &[segment], gap_factor)[0];
        fill(pairs, placement, SlotArray::new(capacity))
    }

    #[test]
    fn build_places_linear_keys_without_conflicts() {
        let pairs: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * 10 + 1, i)).collect();
        let seg =
            LinearModel::fit_endpoints(&pairs.iter().map(|p| p.0).collect::<Vec<_>>()).unwrap();
        let (m, conflicts) = build_model(&pairs, seg, 1.5);
        assert!(conflicts.is_empty(), "{} conflicts", conflicts.len());
        // Every key is in its predicted bucket.
        for &(k, v) in &pairs {
            let found = m.slots.with_bucket(m.predict(k), |g| g.find(k));
            assert_eq!(found.map(|f| f.1), Some(v), "key {k}");
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
        // Every seated key is in its predicted bucket, and a key goes to
        // ART only from a full bucket, which it marks spilled.
        m.slots.for_each_live(|bucket, k, _| {
            assert_eq!(m.predict(k), bucket, "key {k} out of its bucket")
        });
        for &(k, _) in &conflicts {
            m.slots.with_bucket(m.predict(k), |g| {
                assert!(g.is_full());
                // In no lane: `Art` is the spill bit.
                assert_eq!(g.probe(k), Probe::Art, "conflict key {k}");
            });
        }
    }

    #[test]
    fn single_key_model() {
        let pairs = [(42u64, 1u64)];
        let (m, conflicts) = build_model(&pairs, LinearModel::point(42), 1.2);
        assert!(conflicts.is_empty());
        assert_eq!(m.slots.buckets(), 1);
        assert_eq!(m.predict(42), 0);
        assert_eq!(m.slots.with_bucket(0, |g| g.find(42)), Some((0, 1)));
    }

    #[test]
    fn retrain_trigger_threshold() {
        let m = GplModel::new(1, LinearModel::point(1), 4, 100);
        assert!(!m.wants_retrain());
        m.art_inserts.store(101, Ordering::Relaxed);
        assert!(m.wants_retrain());
    }

    #[test]
    fn a_bucket_starts_at_its_floor() {
        for gap in [1u64, 2, 3, 5, 7, 10, 1000, 1 << 40, u64::MAX] {
            let b = bucket(gap);
            assert!(bucket_floor(b) <= gap as f64, "gap {gap} below bucket {b}");
            assert!(b + 1 == BUCKETS || (gap as f64) < bucket_floor(b + 1));
        }
    }

    /// The midpoint rule the budget is measured in: GPL's cone midpoint
    /// times `gap_factor` for every segment.
    fn midpoint_rule(
        pairs: &[(u64, u64)],
        segments: &[Segment],
        gap_factor: f64,
    ) -> Vec<(LinearModel, usize)> {
        segments
            .iter()
            .map(|s| {
                let (first, last) = (pairs[s.start].0, pairs[s.start + s.len - 1].0);
                let model = LinearModel::new(first, s.model.slope * gap_factor);
                (model, (model.predict_f(last) + 1.5) as usize)
            })
            .collect()
    }

    /// Keys that own a slot under `plan`: distinct predicted slots, since
    /// a model's predictions rise with its keys.
    fn residents(
        pairs: &[(u64, u64)],
        segments: &[Segment],
        plan: &[(LinearModel, usize)],
    ) -> usize {
        let mut owned = 0;
        for (s, &(model, slots)) in segments.iter().zip(plan) {
            let keys = pairs[s.start..s.start + s.len].iter();
            let mut at = keys
                .map(|p| model.predict_clamped(p.0, slots))
                .collect::<Vec<_>>();
            at.dedup();
            owned += at.len();
        }
        owned
    }

    fn segment(pairs: &[(u64, u64)], epsilon: f64) -> Vec<Segment> {
        learned::gpl::gpl_segment(&pairs.iter().map(|p| p.0).collect::<Vec<_>>(), epsilon)
    }

    proptest::proptest! {
        /// Whatever the keys, ε and `gap_factor`, the chosen slopes spend
        /// no more slots than the midpoint rule; every multi-key model
        /// gets a usable slope, and a single key keeps slope 0 in one slot.
        #[test]
        fn the_slopes_stay_inside_the_midpoint_budget(
            // Each gap is `m << e`: runs, plateaus and wide holes alike.
            gaps in proptest::collection::vec((1u64..8, 0u32..40), 0..400),
            eps in 0.0f64..64.0,
            gap_factor in 0.25f64..4.0,
        ) {
            let keys = std::iter::once(1).chain(gaps.iter().scan(1u64, |k, &(m, e)| {
                *k += m << e;
                Some(*k)
            }));
            let pairs: Vec<(u64, u64)> = keys.map(|k| (k, k)).collect();
            let segments = segment(&pairs, eps);
            let plan = placement(&pairs, &segments, gap_factor);
            let budget: usize = midpoint_rule(&pairs, &segments, gap_factor).iter().map(|p| p.1).sum();
            let spent: usize = plan.iter().map(|p| p.1).sum();
            proptest::prop_assert!(spent <= budget, "{spent} slots over a budget of {budget}");
            for (s, &(model, slots)) in segments.iter().zip(&plan) {
                proptest::prop_assert_eq!(model.first_key, pairs[s.start].0);
                if s.len == 1 {
                    proptest::prop_assert_eq!((model.slope, slots), (0.0, 1));
                } else {
                    proptest::prop_assert!(model.slope.is_finite() && model.slope > 0.0, "slope {}", model.slope);
                }
            }
        }
    }

    #[test]
    fn the_budget_holds_at_least_the_midpoint_rules_residents() {
        use datasets::Dataset;
        let n = 200_000;
        let epsilon = crate::AltConfig::default().effective_epsilon(n);
        for ds in [Dataset::Fb, Dataset::Osm, Dataset::Libio] {
            let pairs = datasets::generate_pairs(ds, n, 1);
            let segments = segment(&pairs, epsilon);
            let midpoint = midpoint_rule(&pairs, &segments, 1.25);
            let chosen = placement(&pairs, &segments, 1.25);
            let (was, now) = (
                residents(&pairs, &segments, &midpoint),
                residents(&pairs, &segments, &chosen),
            );
            eprintln!(
                "{}: learned share {:.4} -> {:.4}",
                ds.name(),
                was as f64 / n as f64,
                now as f64 / n as f64
            );
            assert!(
                now >= was,
                "{}: {now} residents against the midpoint's {was}",
                ds.name()
            );
        }
    }
}
