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
//! Each gate runs ≥ 8 seeds. A chaos-gated mutation-style self-test
//! re-runs the AltIndex gate with escalation *disabled* and asserts the
//! victim fails to finish its quota inside the watchdog — proving the
//! gate actually detects livelock (and that escalation is what prevents
//! it), then unsticks the victim by stopping the antagonist.
//!
//! The process-global resilience policy and the chaos schedule are
//! process-wide, so every test serializes on one mutex and restores the
//! default policy through an RAII guard. Every retry loop, at every
//! layer, reads the global policy on its first retry, so a `set_global`
//! takes effect on the next contended op of an index already built.

use alt_index::{AltConfig, AltIndex};
use art::Art;
use baselines::AlexLike;
use index_api::ConcurrentIndex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes gate runs (process-global policy + chaos schedule).
static GATE: Mutex<()> = Mutex::new(());

/// Victim ops per seed in the progress phase.
const OPS: usize = 64;
/// Per-op wall-clock bound. Generous: an escalated op is bounded by a
/// handful of capped parks plus one locked pass (microseconds to low
/// milliseconds); 2 s only trips on genuine stalls.
const PER_OP: Duration = Duration::from_secs(2);

/// Progress-phase policy: tight budget, *small* parks. Escalation fires
/// after five retries, so a victim op pays at most a few hundred
/// microseconds of backoff before its guaranteed-progress fallback.
/// The antagonists share this policy (it is process-global), so their
/// contended retries stay cheap too.
fn progress_policy() -> resilience::ContentionPolicy {
    resilience::ContentionPolicy {
        spin_retries: 2,
        yield_retries: 1,
        park_retries: 2,
        park_ns_base: 50_000, // 50 µs
        park_ns_max: 400_000,
        escalate: true,
    }
}

/// Livelock-control policy: the same tight budget but with *large*
/// (20–80 ms) parks and escalation disabled. A failing op is throttled
/// to a few dozen attempts per second, which is what makes the
/// self-test's "victim cannot finish its quota" assertion deterministic
/// instead of a race over raw retry throughput.
#[cfg(feature = "chaos")]
fn livelock_policy() -> resilience::ContentionPolicy {
    resilience::ContentionPolicy {
        spin_retries: 2,
        yield_retries: 1,
        park_retries: 2,
        park_ns_base: 40_000_000, // 40 ms (jittered down to 20 ms)
        park_ns_max: 80_000_000,
        escalate: false,
    }
}

/// Restores the default process-global policy even on panic.
struct PolicyGuard;
impl Drop for PolicyGuard {
    fn drop(&mut self) {
        resilience::set_global(resilience::ContentionPolicy::default());
    }
}

fn set_policy(pol: resilience::ContentionPolicy) -> PolicyGuard {
    resilience::set_global(pol);
    PolicyGuard
}

#[cfg(feature = "chaos")]
fn schedule(seed: u64) -> Option<probe::chaos::ScheduleGuard> {
    Some(probe::chaos::install_schedule(seed, 384))
}
#[cfg(not(feature = "chaos"))]
fn schedule(_seed: u64) -> Option<()> {
    None
}

/// Progress phase: 2 victims × `OPS` reads each race 3 antagonist
/// threads; every read must finish inside `PER_OP`.
fn drive_progress(
    label: &str,
    seed: u64,
    victim_op: impl Fn() + Sync,
    antagonist_op: impl Fn(u64) + Sync,
) {
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
                for _ in 0..OPS {
                    let t0 = Instant::now();
                    victim_op();
                    worst = worst.max(t0.elapsed());
                }
                worst
            }));
        }
        for v in victims {
            let worst = v.join().expect("victim panicked");
            assert!(
                worst < PER_OP,
                "{label} seed {seed}: victim op took {worst:?} (bound {PER_OP:?})"
            );
        }
        stop.store(true, Ordering::Relaxed);
    });
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
    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
    for seed in 0..8u64 {
        let _pol = set_policy(progress_policy());
        let _sched = schedule(seed);
        let idx = build_alt();
        drive_progress(
            "alt-index",
            seed,
            || {
                assert!(idx.get(ALT_HOT).is_some());
            },
            |i| {
                idx.update(ALT_HOT, i).unwrap();
            },
        );
    }
}

#[test]
fn starvation_gate_art() {
    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
    let base = 0xAA00_0000_0000_0000u64;
    for seed in 0..8u64 {
        let _pol = set_policy(progress_policy());
        let _sched = schedule(seed.wrapping_add(0x100));
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
            || {
                assert_eq!(t.get(base + 1), Some(1));
            },
            |i| {
                t.remove(churn);
                t.insert(churn, i);
            },
        );
    }
}

#[test]
fn starvation_gate_seqlock_baseline() {
    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
    for seed in 0..8u64 {
        let _pol = set_policy(progress_policy());
        let _sched = schedule(seed.wrapping_add(0x200));
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
            || {
                assert!(a.get(hot).is_some());
            },
            |i| {
                let cold = (i % 4096).max(1) * 4;
                let _ = a.get(cold);
                a.update(hot, i).unwrap();
            },
        );
    }
}

/// Mutation-style self-test: with escalation disabled and a
/// max-intensity chaos schedule, the victim must FAIL to finish its
/// quota inside the watchdog — the condition the gate exists to detect.
/// The mechanics: chaos stretches the victim's optimistic read window
/// (two in-window chaos points, occasional µs-scale sleeps) past the
/// lone antagonist's tight update period, so validation keeps failing;
/// the tight budget's 20–80 ms parks then throttle the victim to well
/// under `QUOTA / watchdog` attempts. A *single* antagonist is
/// deliberate — the victim takes no lock, so the antagonist never
/// contends and never parks, keeping its update period microseconds
/// (multiple antagonists would park on each other and hand the victim
/// quiet windows). Stopping the antagonist then unsticks the victim
/// with no escalation at all, confirming the gate measures livelock,
/// not deadlock.
#[test]
#[cfg(feature = "chaos")]
fn starvation_gate_self_test_livelocks_without_escalation() {
    use std::sync::atomic::AtomicU64;
    const QUOTA: u64 = 60;
    const WATCHDOG: Duration = Duration::from_millis(800);

    let _gate = GATE.lock().unwrap_or_else(|p| p.into_inner());
    let _pol = set_policy(livelock_policy());
    let _sched = probe::chaos::install_schedule(0xA17, 1024);
    let idx = build_alt();
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    std::thread::scope(|s| {
        {
            let stop = &stop;
            let idx = &idx;
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    idx.update(ALT_HOT, i).unwrap();
                    i = i.wrapping_add(1);
                }
            });
        }
        let victim = {
            let idx = &idx;
            let completed = &completed;
            s.spawn(move || {
                for _ in 0..QUOTA {
                    assert!(idx.get(ALT_HOT).is_some());
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        std::thread::sleep(WATCHDOG);
        let done = completed.load(Ordering::Relaxed);
        // Stop the antagonist BEFORE asserting so a failure doesn't hang
        // the suite; the victim always drains once the antagonist stops.
        stop.store(true, Ordering::Relaxed);
        victim.join().expect("victim panicked");
        assert!(
            done < QUOTA,
            "escalation-disabled victim finished {done}/{QUOTA} ops inside the \
             watchdog — the starvation gate could not detect a livelock"
        );
    });
}
