//! Seeded schedule-perturbing chaos points.
//!
//! Instrumented crates call [`point`] at protocol-critical sites (slot
//! claim, version validate, lock acquire, directory swap, …; TESTING.md
//! "Chaos points" lists every site and the file it perturbs). When a
//! chaos schedule is installed, each call consults a **per-thread**
//! deterministic SplitMix64 stream and, with configured probability,
//! perturbs the schedule: a bounded spin, a `thread::yield_now`, or a
//! short sleep. With no schedule installed the call is one atomic load
//! and returns; without the `chaos` feature it is nothing at all.
//!
//! Determinism model: the perturbation *decisions* are a pure function
//! of `(seed, thread-registration-index, call-count)`. The OS still
//! chooses the actual interleaving, but replaying a seed re-applies the
//! same delay pattern, which reliably re-widens the same race windows.
//! Crucially the decision path shares no mutable state between threads —
//! cross-thread synchronization here would order the very accesses we
//! are trying to race.
//!
//! # Mutation self-test
//!
//! [`mutated`] is the runtime selector of deliberately-broken protocol
//! variants: with the `chaos-mutate` feature on and
//! [`set_mutation`]`(Some(m))`, `alt-index`'s slot protocol runs
//! [`Mutation`] `m` — a bucket snapshot that skips its version
//! re-validation, a remove that leaves the lane it vacates stale, or a
//! bucket lock that admits a second holder — and
//! `tests/mutation_selftest.rs` asserts the oracle flags each within the
//! CI seed matrix. The
//! selector is process-global, which is why that test lives in its **own**
//! integration-test binary: cargo runs each test binary as a separate
//! process, so enabling the mutation there cannot poison tests running
//! elsewhere in parallel.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Duration;

use crate::{site_hash, SplitMix64};

/// Whether [`point`] does anything in this build (the `chaos` feature).
pub const ENABLED: bool = cfg!(feature = "chaos");

/// Global schedule generation. Even = disabled, odd = enabled. Bumped
/// twice per install so threads can detect schedule changes and re-seed
/// their local stream.
static GENERATION: AtomicU32 = AtomicU32::new(0);
/// Seed of the currently-installed schedule.
static SEED: AtomicU64 = AtomicU64::new(0);
/// Perturbation probability in parts per 1024.
static INTENSITY: AtomicU32 = AtomicU32::new(0);
/// Registration counter handing out stable per-thread stream indexes.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
/// Monotonic count of chaos-point hits under any schedule (coarse,
/// relaxed — used only to assert instrumentation is actually reached;
/// compare before/after deltas).
static HITS: AtomicU64 = AtomicU64::new(0);
/// The mutation self-test's runtime selector: 0 for none, else a
/// [`Mutation`]'s discriminant.
static MUTATION: AtomicU8 = AtomicU8::new(0);

/// Hits per site, in an open-addressed table keyed by the site's hash
/// (0 marks a free entry). Relaxed atomics only, like [`HITS`]: a lock
/// here would order the very accesses the points exist to race.
static SITE_HITS: [(AtomicU64, AtomicU64); SITE_TABLE] =
    [const { (AtomicU64::new(0), AtomicU64::new(0)) }; SITE_TABLE];
/// Entries of [`SITE_HITS`]; several times the number of sites in the
/// workspace, so probes stay short and the table never fills.
const SITE_TABLE: usize = 256;

thread_local! {
    static LOCAL: Cell<LocalChaos> = const {
        Cell::new(LocalChaos { generation: 0, rng_state: 0 })
    };
}

#[derive(Clone, Copy)]
struct LocalChaos {
    generation: u32,
    rng_state: u64,
}

/// A chaos schedule installed for the duration of this guard. Dropping
/// it disables chaos points again.
///
/// Schedules are process-global; tests that install one should hold it
/// across the whole concurrent section. Installing a second schedule
/// while one is live simply supersedes it (last writer wins), which is
/// why chaos suites run each seed sequentially.
#[must_use = "chaos is disabled again when the schedule guard drops"]
pub struct ScheduleGuard {
    _priv: (),
}

impl Drop for ScheduleGuard {
    fn drop(&mut self) {
        INTENSITY.store(0, Ordering::Relaxed);
        // Back to even: disabled.
        GENERATION.fetch_add(1, Ordering::Release);
    }
}

/// Install a deterministic perturbation schedule.
///
/// * `seed` — master seed; each thread derives stream `mix(seed, index)`.
/// * `intensity_per_1024` — probability (out of 1024) that any given
///   chaos point perturbs the schedule. Typical values 64–512.
pub fn install_schedule(seed: u64, intensity_per_1024: u32) -> ScheduleGuard {
    SEED.store(seed, Ordering::Relaxed);
    INTENSITY.store(intensity_per_1024.min(1024), Ordering::Relaxed);
    // To odd: enabled. Two installs in a row still change the generation,
    // so threads re-derive their streams per schedule.
    let g = GENERATION.fetch_add(1, Ordering::Release);
    if !g.is_multiple_of(2) {
        // Previous guard still alive (superseded): bump once more so the
        // new generation is odd.
        GENERATION.fetch_add(1, Ordering::Release);
    }
    ScheduleGuard { _priv: () }
}

/// Monotonic count of chaos-point hits across all schedules ever
/// installed in this process. Measure a before/after delta to assert
/// instrumented paths are actually reached.
pub fn hits() -> u64 {
    HITS.load(Ordering::Relaxed)
}

/// Hits of one site under any schedule, like [`hits`] (0 for a site no
/// thread has reached). Lets a test name the points its workload must
/// reach instead of trusting the total.
pub fn site_hits(site: &str) -> u64 {
    site_entry(site_hash(site), false).map_or(0, |hits| hits.load(Ordering::Relaxed))
}

/// The counter of the site with hash `hash`. A site's first hit claims
/// it a free entry (`claim`); a lookup of a site never hit finds `None`,
/// as does a hit once the table is full of other sites.
fn site_entry(hash: u64, claim: bool) -> Option<&'static AtomicU64> {
    let hash = hash.max(1); // 0 marks a free entry
    for probe in 0..SITE_TABLE {
        let (key, hits) = &SITE_HITS[(hash as usize).wrapping_add(probe) % SITE_TABLE];
        let owner = match key.load(Ordering::Relaxed) {
            0 if claim => key
                .compare_exchange(0, hash, Ordering::Relaxed, Ordering::Relaxed)
                .map_or_else(|taken_by| taken_by, |_| hash),
            owner => owner,
        };
        if owner == hash {
            return Some(hits);
        }
        if owner == 0 {
            return None;
        }
    }
    None
}

/// The chaos point. `site` names the call site for diagnostics; it also
/// salts the per-call decision so distinct sites perturb independently.
/// Never unwinds. Compiles to nothing without the `chaos` feature.
#[inline(always)]
pub fn point(site: &'static str) {
    if ENABLED {
        let generation = GENERATION.load(Ordering::Acquire);
        // Even: no schedule installed.
        if !generation.is_multiple_of(2) {
            perturb(site, generation);
        }
    }
}

/// A deliberately broken variant of `alt-index`'s slot protocol, for the
/// mutation self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Mutation {
    /// The bucket snapshot skips its version re-validation: a torn read.
    SkipSlotRevalidation = 1,
    /// A remove shifts the keys above its lane down but leaves the lane
    /// they vacate as it was: a removed top key still reads as present.
    StaleVacatedLane = 2,
    /// The bucket lock admits a second holder (its CAS skips the lock
    /// bit's check): two writers of one bucket shift its lanes at once.
    SharedLineLock = 3,
}

/// Select the compiled-in mutation, or none (a no-op unless built with
/// `chaos-mutate`).
pub fn set_mutation(m: Option<Mutation>) {
    MUTATION.store(m.map_or(0, |m| m as u8), Ordering::Release);
}

/// Whether mutation `m` is active: only ever true when built with
/// `chaos-mutate` *and* [`set_mutation`]`(Some(m))` was called. Constant
/// `false`, folded away, without the feature.
#[inline(always)]
pub fn mutated(m: Mutation) -> bool {
    cfg!(feature = "chaos-mutate") && MUTATION.load(Ordering::Acquire) == m as u8
}

#[cold]
fn perturb(site: &'static str, generation: u32) {
    let mut local = LOCAL.with(Cell::get);
    if local.generation != generation {
        // First hit under this schedule: derive this thread's stream from
        // (seed, registration index). Registration order is itself
        // schedule-dependent, so harnesses register threads in spawn
        // order by hitting a chaos point before the workload barrier.
        let idx = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) as u64;
        let seed = SEED.load(Ordering::Relaxed);
        let mut mixer = SplitMix64::new(seed ^ idx.wrapping_mul(0xA076_1D64_78BD_642F));
        local = LocalChaos {
            generation,
            rng_state: mixer.next_u64(),
        };
    }
    let site = site_hash(site);
    let mut rng = SplitMix64::new(local.rng_state ^ site);
    let roll = rng.next_below(1024) as u32;
    // Advance the thread-local stream regardless of the outcome so the
    // decision sequence stays a function of the call count alone.
    let mut stream = SplitMix64::new(local.rng_state);
    local.rng_state = stream.next_u64();
    LOCAL.with(|c| c.set(local));
    HITS.fetch_add(1, Ordering::Relaxed);
    if let Some(hits) = site_entry(site, true) {
        hits.fetch_add(1, Ordering::Relaxed);
    }

    if roll >= INTENSITY.load(Ordering::Relaxed) {
        return;
    }
    match rng.next_below(8) {
        // Most perturbations are bounded spins: they shift timing inside
        // the current quantum, which is what exposes optimistic-protocol
        // windows (read/validate, claim/publish).
        0..=4 => {
            let spins = 1 + rng.next_below(256);
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
        // Yields hand the core to a contending thread.
        5 | 6 => std::thread::yield_now(),
        // Rare short sleeps force a reschedule even on idle machines.
        _ => std::thread::sleep(Duration::from_micros(rng.next_below(40) + 10)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_points_are_cheap_and_silent() {
        let generation = GENERATION.load(Ordering::Acquire);
        let before = hits();
        for _ in 0..1000 {
            point("test.disabled");
        }
        // No schedule in this test -> the counter must not move because
        // of *our* calls (other tests may run in parallel, so only check
        // when none of them had a schedule installed at any point since
        // `before` was read: an unchanged, even generation).
        if generation.is_multiple_of(2) && GENERATION.load(Ordering::Acquire) == generation {
            assert_eq!(hits(), before);
        }
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn installed_schedule_counts_hits() {
        let before = hits();
        let guard = install_schedule(42, 512);
        for _ in 0..100 {
            point("test.enabled");
        }
        assert!(hits() - before >= 100, "chaos points should register hits");
        // Per site too. (In this test, not one of its own: a second
        // schedule guard dropping mid-way would switch this one off.)
        point("test.other_site");
        assert_eq!(site_hits("test.enabled"), 100);
        assert_eq!(site_hits("test.other_site"), 1);
        assert_eq!(site_hits("test.never_reached"), 0);
        drop(guard);
    }

    #[cfg(not(feature = "chaos"))]
    #[test]
    fn verbs_are_nothing_when_the_feature_is_off() {
        let _guard = install_schedule(42, 1024);
        for _ in 0..100 {
            point("test.off");
        }
        assert_eq!(hits(), 0);
        assert_eq!(site_hits("test.off"), 0);
    }

    #[test]
    fn mutation_flag_needs_the_feature_and_the_switch() {
        let all = [
            Mutation::SkipSlotRevalidation,
            Mutation::StaleVacatedLane,
            Mutation::SharedLineLock,
        ];
        assert!(all.iter().all(|&m| !mutated(m)));
        for on in all {
            set_mutation(Some(on));
            for m in all {
                assert_eq!(mutated(m), m == on && cfg!(feature = "chaos-mutate"));
            }
        }
        set_mutation(None);
        assert!(all.iter().all(|&m| !mutated(m)));
    }
}
