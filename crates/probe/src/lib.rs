//! The workspace's one probe seam: every named site that exists to
//! *observe or disturb* a protocol rather than to run it.
//!
//! Three families, three verbs, one rule. Each family sits behind a cargo
//! feature of **this** crate, and its recording verbs exist in both
//! configurations: with the feature off they are `#[inline(always)]`
//! functions whose body is a constant-false branch, so the instrumented
//! crates (`alt-index`, `art`, `baselines`, `learned`, `region`) depend
//! on `probe` unconditionally, call it directly, and carry no `cfg` of
//! their own. Their `chaos` / `chaos-mutate` / `metrics` / `fault`
//! features only forward to the feature of the same name here.
//!
//! * [`chaos`] (`chaos`, `chaos-mutate`) — [`chaos::point`] perturbs the
//!   schedule at a protocol-critical site under an installed seed. It
//!   never unwinds, so it may sit inside slot-locked and OLC write
//!   sections.
//! * [`fail`] (`fault`) — [`fail::point`] / [`fail::fire`] inject a
//!   panic, an allocation failure or a delay. A failpoint may sit only
//!   where DESIGN.md §16 has a rollback argument; which of the two verbs
//!   a site uses says which actions it honours.
//! * [`metrics`] (`metrics`) — [`metrics::incr`] / [`metrics::add`] count
//!   hot-path events into striped atomics, [`metrics::now_ns`] +
//!   [`metrics::record_phase_ns`] time phases.
//!
//! The families stay separate verbs on purpose: a site that may perturb
//! is not thereby a site that may fail.
//!
//! # Compiled to nothing, and checked
//!
//! The control planes (`chaos::install_schedule`, `fail::install`,
//! `metrics::snapshot`, …) are always compiled, so tests and tools need
//! no `cfg` either; a default build never calls them and the linker drops
//! them. `scripts/check_probes_off.sh` holds the claim: a default release
//! build of the `quickstart` example contains no symbol from the three
//! modules. Each module's `ENABLED` constant says whether its verbs are
//! live in this build.
//!
//! [`histogram`] is here because the phase timers share its bucket
//! layout and `workloads`, which re-exports it, sits above this crate.
//! [`striped`] is the one part that is *not* a probe and is never off:
//! the per-thread-striped counter the metrics bank is made of, which the
//! indexes also keep their own always-on counts in (and the thread→stripe
//! id ART's arena shards by). It sits outside the three gated modules so
//! the gate above keeps meaning what it says.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod fail;
pub mod histogram;
pub mod metrics;
pub mod striped;

/// SplitMix64: the one deterministic stream behind chaos decisions,
/// probabilistic failpoint triggers and the testkit's operation scripts. (`datasets::rng` keeps its own copy: this crate
/// sits below `datasets` and must stay dependency-free.)
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value below `bound` (`bound` must be non-zero).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// FNV-1a of a site name: stable across runs and builds (no
/// `RandomState`), so a site salts its chaos and failpoint decisions the
/// same way every time.
pub(crate) fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_hash_distinguishes_sites() {
        assert_ne!(site_hash("slots.read"), site_hash("slots.claim"));
    }

    #[test]
    fn splitmix_is_seeded_and_bounded() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..64).map(|_| rng.next_below(10)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|&v| v < 10));
    }
}
