//! Starvation gate: under a write-hot antagonist (plus the chaos
//! schedule when `--features chaos` is on), reader victims on every
//! optimistic index must keep making progress within a per-op wall-clock
//! bound — the contention-resilience escalation guarantees it.
//!
//! Three gates run, one per synchronization family:
//!
//! * **AltIndex** — slot-version optimistic reads escalating to a locked
//!   slot read / pessimistic directory path;
//! * **ART-OPT** — optimistic lock coupling escalating to a pessimistic
//!   lock-coupled descent;
//! * **ALEX+ (seqlock baseline)** — seqlock-validated reads escalating
//!   to a write-locked read.
//!
//! Each gate runs ≥ 8 seeds. What bounds a victim op is the retry
//! ladder's escalation (`crates/resilience`, DESIGN.md §11): past the
//! budget the op takes its family's pessimistic fallback. A chaos build
//! has a five-retry budget, so there the fallbacks are what the victims
//! actually run — and with `--features "chaos metrics"` each gate also
//! asserts that its family's `*.escalation` counter moved, i.e. that the
//! bound was met *by* the fallback and not for lack of contention. A
//! chaos-off build walks the production ladder (80 retries) under the
//! same bound.
//!
//! The chaos schedule is process-wide, so every test serializes on one
//! mutex.

use alt_index::{AltConfig, AltIndex};
use art::Art;
use baselines::AlexLike;
use index_api::ConcurrentIndex;
use probe::metrics::{self, Counter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes gate runs (process-global chaos schedule and counters).
static GATE: Mutex<()> = Mutex::new(());

/// Victim ops per seed and victim in the AltIndex gate.
const OPS: usize = 64;
/// Chaos intensity (per 1024) of the AltIndex gate, whose victims spend
/// their budget on one read in four at this setting.
const MILD: u32 = 384;
/// Intensity and victim ops of the ART and seqlock gates. Their read
/// windows are a few instructions wide, so six failed validations in a
/// row need most chaos points to perturb; at `MILD` × `OPS` a run sees
/// 0–5 escalations, here a few hundred.
const HARD: u32 = 768;
const OPS_HARD: usize = 256;
/// Per-op wall-clock bound. Generous: an escalated op is bounded by a
/// handful of capped parks plus one locked pass (microseconds to low
/// milliseconds); 2 s only trips on genuine stalls.
const PER_OP: Duration = Duration::from_secs(2);

/// Run one family's gate over 8 seeds (`run(seed)` builds the index and
/// returns what [`drive_progress`] does) and, where the build can tell,
/// check that the family's fallback is what kept the victims inside the
/// bound.
fn gate(label: &str, escalation: Counter, run: impl Fn(u64) -> Duration) {
    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
    let before = metrics::total(escalation);
    let worst = (0..8u64).map(run).max().expect("eight seeds");
    let escalations = metrics::total(escalation) - before;
    eprintln!(
        "{label}: slowest victim op {worst:?}, {} = {escalations}",
        escalation.name()
    );
    if probe::chaos::ENABLED && metrics::ENABLED {
        assert!(
            escalations > 0,
            "{label}: no victim or antagonist ever spent its retry budget — \
             the gate no longer exercises the pessimistic fallback"
        );
    }
}

/// Progress phase: 2 victims × `ops` reads each race 3 antagonist
/// threads; every read must finish inside `PER_OP`.
fn drive_progress(
    label: &str,
    seed: u64,
    ops: usize,
    victim_op: impl Fn() + Sync,
    antagonist_op: impl Fn(u64) + Sync,
) -> Duration {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for a in 0u64..3 {
            let stop = &stop;
            let antagonist_op = &antagonist_op;
            s.spawn(move || {
                let mut i = seed.wrapping_mul(3).wrapping_add(a);
                while !stop.load(Ordering::Relaxed) {
                    antagonist_op(i);
                    i = i.wrapping_add(1);
                }
            });
        }
        let mut victims = Vec::new();
        for _ in 0..2 {
            let victim_op = &victim_op;
            victims.push(s.spawn(move || {
                let mut worst = Duration::ZERO;
                for _ in 0..ops {
                    let t0 = Instant::now();
                    victim_op();
                    worst = worst.max(t0.elapsed());
                }
                worst
            }));
        }
        // Stop the antagonists BEFORE judging, so a failure fails instead
        // of leaving them spinning under a scope that never ends.
        let joined: Vec<_> = victims.into_iter().map(|v| v.join()).collect();
        stop.store(true, Ordering::Relaxed);
        let worst = joined.into_iter().map(|w| w.expect("victim panicked"));
        let worst = worst.max().expect("two victims");
        assert!(
            worst < PER_OP,
            "{label} seed {seed}: victim op took {worst:?} (bound {PER_OP:?})"
        );
        worst
    })
}

fn build_alt() -> AltIndex {
    let pairs: Vec<(u64, u64)> = (1..=8192u64).map(|i| (i * 2, i)).collect();
    AltIndex::bulk_load_with(
        &pairs,
        AltConfig {
            epsilon: Some(64.0),
            ..Default::default()
        },
    )
}

/// Hot key for the AltIndex / ALEX gates: dead middle of the key space,
/// so victim reads and antagonist updates collide on one slot / node.
const ALT_HOT: u64 = 4096 * 2;

#[test]
fn starvation_gate_alt_index() {
    gate("alt-index", Counter::AltEscalation, |seed| {
        let _sched = probe::chaos::install_schedule(seed, MILD);
        let idx = build_alt();
        // Antagonists interleave a cold read between updates, for the
        // reason the seqlock gate gives: without it, release-mode
        // antagonists re-take the hot slot's lock — an unfair CAS lock —
        // within nanoseconds of releasing it while chaos sleeps stretch
        // the held window, and the victim's escalated locked read starves
        // for seconds. The read's own chaos points put comparable
        // off-lock time in every antagonist iteration.
        drive_progress(
            "alt-index",
            seed,
            OPS,
            || {
                assert!(idx.get(ALT_HOT).is_some());
            },
            |i| {
                let cold = (i % 8192).max(1) * 2;
                let _ = idx.get(cold);
                idx.update(ALT_HOT, i).unwrap();
            },
        )
    });
}

#[test]
fn starvation_gate_art() {
    let base = 0xAA00_0000_0000_0000u64;
    gate("art", Counter::ArtEscalation, |seed| {
        let _sched = probe::chaos::install_schedule(seed.wrapping_add(0x100), HARD);
        let t = Art::new();
        for i in 1..=64u64 {
            t.insert(base + i, i);
        }
        // The antagonist churns a sibling key: every insert/remove write-
        // locks the shared parent node, invalidating the victim's
        // optimistic coupling on it.
        let churn = base + 40;
        drive_progress(
            "art",
            seed,
            OPS_HARD,
            || {
                assert_eq!(t.get(base + 1), Some(1));
            },
            |i| {
                t.remove(churn);
                t.insert(churn, i);
            },
        )
    });
}

#[test]
fn starvation_gate_seqlock_baseline() {
    gate("alex+/seqlock", Counter::BaselineEscalation, |seed| {
        let _sched = probe::chaos::install_schedule(seed.wrapping_add(0x200), HARD);
        let pairs: Vec<(u64, u64)> = (1..=4096u64).map(|i| (i * 4, i)).collect();
        let a = AlexLike::build(&pairs);
        let hot = 2048 * 4;
        // Antagonists interleave an optimistic cold read between updates.
        // Without it, release-mode antagonists re-acquire the node's
        // seqlock within nanoseconds of releasing while chaos sleeps
        // stretch the *held* window, so the lock's duty cycle approaches
        // 100% and the victim's escalated write-locked read — an unfair
        // CAS acquisition — starves for minutes. That is a property of a
        // fully saturated writer-exclusive seqlock (the baseline scheme),
        // not of the escalation layer; the gate applies write-hot but not
        // lock-saturating pressure. The read's own chaos points put
        // comparable off-lock time in every antagonist iteration.
        drive_progress(
            "alex+/seqlock",
            seed,
            OPS_HARD,
            || {
                assert!(a.get(hot).is_some());
            },
            |i| {
                let cold = (i % 4096).max(1) * 4;
                let _ = a.get(cold);
                a.update(hot, i).unwrap();
            },
        )
    });
}
