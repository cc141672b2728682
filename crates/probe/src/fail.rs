//! Deterministic fault injection behind named sites.
//!
//! Instrumented crates call [`point`] or [`fire`] at a site that
//! DESIGN.md §16 has a rollback argument for (its table lists every
//! site, where it sits and which actions it honours). Without the `fault`
//! feature the two verbs compile to nothing, so a default build pays
//! nothing. With it, an installed **failpoint** decides —
//! deterministically, per its trigger policy — whether the site fires,
//! and if so which [`FailAction`] it takes.
//!
//! Which verb a site uses is its contract: [`point`] where there is no
//! error channel (Panic unwinds, Delay sleeps, AllocFail is ignored), and
//! [`fire`] where the caller maps *every* action onto its own failure
//! channel — the ART arena treats any injected action, Panic included, as
//! a failed allocation (`fire(..).is_some()`), because unwinding out of
//! the allocator would strand OLC version locks that have no RAII
//! release.
//!
//! Actions:
//!
//! * **Panic** — `panic_any` with an [`InjectedPanic`] payload, so
//!   containment layers (`catch_unwind` in the retrain paths) can tell an
//!   injected death from a real bug in diagnostics.
//! * **AllocFail** — surfaced to a [`fire`] site, for sites with a
//!   graceful failure channel (fail one chunk refill).
//! * **Delay** — a bounded sleep, for widening windows without failing.
//!
//! Triggers:
//!
//! * **Always** — every hit fires.
//! * **Nth(n)** — fires exactly once, on the n-th hit (1-based). The
//!   one-shot semantics matter: recovery paths re-run the failed work, and
//!   a sticky trigger would re-kill the retry forever.
//! * **Probability(p)** — fires with probability p/1024, decided by a
//!   seeded SplitMix64 stream over `(seed, site, hit-count)`, so a run is
//!   reproducible given the same hit sequence.
//!
//! Configuration is programmatic ([`install`], returning a [`FailGuard`]
//! that uninstalls on drop) or environmental: `ALT_FAIL_POINTS`
//! and `ALT_FAIL_SEED` are read once, on the first evaluated site (or the
//! first [`install`]), so any fault-enabled binary honours them without
//! code changes. `ALT_FAIL_POINTS` is split on `;` into
//! `site=action[@trigger]`, where action is `panic`, `alloc_fail` or
//! `delay:<ms>`, and trigger is a decimal `N` (n-th hit)
//! or `pP` (probability P/1024); no trigger = every hit. Example:
//! `ALT_FAIL_POINTS="retrain.build=panic@3;retrain.swap=panic@p64"`.
//! Env-installed failpoints have no guard: they live for the process.

use crate::{site_hash, SplitMix64};
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Mutex, Once, PoisonError};
use std::time::Duration;

/// Whether the verbs do anything in this build (the `fault` feature).
pub const ENABLED: bool = cfg!(feature = "fault");

/// What an installed failpoint does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// `panic_any(InjectedPanic { site })` — simulates a thread dying
    /// mid-protocol. Containment layers recognise the payload.
    Panic,
    /// Report an allocation failure to a [`fire`] site; a [`point`]
    /// site ignores it.
    AllocFail,
    /// Sleep this many milliseconds, then continue normally.
    Delay(u64),
}

/// When an installed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Every hit fires.
    Always,
    /// Exactly one firing, on the n-th hit (1-based; `Nth(1)` = first).
    Nth(u64),
    /// Each hit fires with probability `p/1024`, from the seeded stream.
    Probability(u32),
}

/// Panic payload used by [`FailAction::Panic`] so containment code can
/// recognise injected deaths (`payload.downcast_ref::<InjectedPanic>()`).
#[derive(Debug)]
pub struct InjectedPanic {
    /// The site that fired.
    pub site: &'static str,
}

struct Entry {
    id: u64,
    site: String,
    action: FailAction,
    trigger: Trigger,
    hits: u64,
    fires: u64,
}

struct Registry {
    entries: Vec<Entry>,
    next_id: u64,
    seed: u64,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    entries: Vec::new(),
    next_id: 1,
    seed: 0x5EED_F417_0000_0001,
});

/// Fast-path gate: number of installed entries, or -1 before the one-time
/// env scan. A plain relaxed load when nothing is installed.
static ACTIVE: AtomicI32 = AtomicI32::new(-1);
static ENV_INIT: Once = Once::new();

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    // A panicking *injected* thread may hold this lock only between
    // trigger evaluation and return — never across the panic itself —
    // but recover from poison anyway: the registry state is always
    // consistent (single mutations under the lock).
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Uninstalls its failpoint when dropped.
#[must_use = "the failpoint is uninstalled when the guard drops"]
pub struct FailGuard {
    id: u64,
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        let mut r = registry();
        r.entries.retain(|e| e.id != self.id);
        ACTIVE.store(r.entries.len() as i32, Ordering::Release);
    }
}

/// Install a failpoint at `site`. Multiple failpoints on one site
/// evaluate in installation order; the first firing wins.
pub fn install(site: &str, action: FailAction, trigger: Trigger) -> FailGuard {
    init_env();
    let mut r = registry();
    let id = r.next_id;
    r.next_id += 1;
    r.entries.push(Entry {
        id,
        site: site.to_string(),
        action,
        trigger,
        hits: 0,
        fires: 0,
    });
    ACTIVE.store(r.entries.len() as i32, Ordering::Release);
    FailGuard { id }
}

/// Set the seed for [`Trigger::Probability`] streams (also settable via
/// `ALT_FAIL_SEED`).
pub fn set_seed(seed: u64) {
    registry().seed = seed;
}

/// Hits recorded for `site` across all currently-installed failpoints on
/// it (0 when none installed). Use to assert a site is actually reached.
pub fn hits(site: &str) -> u64 {
    registry()
        .entries
        .iter()
        .filter(|e| e.site == site)
        .map(|e| e.hits)
        .sum()
}

/// Firings recorded for `site` across all currently-installed failpoints.
pub fn fires(site: &str) -> u64 {
    registry()
        .entries
        .iter()
        .filter(|e| e.site == site)
        .map(|e| e.fires)
        .sum()
}

/// Low-level evaluation: record a hit at `site` and return the fired
/// action, if any. [`FailAction::Delay`] is executed here (the sleep) and
/// reported as `None`; the caller decides what Panic/AllocFail mean.
/// Constant `None`, folded away, without the `fault` feature.
#[inline(always)]
pub fn fire(site: &'static str) -> Option<FailAction> {
    if ENABLED {
        evaluate(site)
    } else {
        None
    }
}

fn evaluate(site: &'static str) -> Option<FailAction> {
    let n = ACTIVE.load(Ordering::Acquire);
    if n == 0 {
        return None;
    }
    if n < 0 {
        init_env();
        if ACTIVE.load(Ordering::Acquire) == 0 {
            return None;
        }
    }
    let action = {
        let mut r = registry();
        let seed = r.seed;
        let mut fired = None;
        for e in r.entries.iter_mut().filter(|e| e.site == site) {
            e.hits += 1;
            let fires = match e.trigger {
                Trigger::Always => true,
                Trigger::Nth(n) => e.hits == n,
                Trigger::Probability(p) => {
                    let mut rng =
                        SplitMix64::new(seed ^ site_hash(site) ^ e.hits.wrapping_mul(0x9E37_79B9));
                    rng.next_below(1024) < u64::from(p.min(1024))
                }
            };
            if fires {
                e.fires += 1;
                fired = Some(e.action);
                break;
            }
        }
        fired
    };
    match action {
        Some(FailAction::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms.min(1_000)));
            None
        }
        other => other,
    }
}

/// Evaluate `site` at a point with no error channel: Panic and Delay
/// execute; AllocFail injections are ignored (documented per site).
#[inline(always)]
pub fn point(site: &'static str) {
    if let Some(FailAction::Panic) = fire(site) {
        std::panic::panic_any(InjectedPanic { site });
    }
}

fn init_env() {
    ENV_INIT.call_once(|| {
        let mut r = registry();
        if let Ok(s) = std::env::var("ALT_FAIL_SEED") {
            if let Ok(seed) = s.trim().parse::<u64>() {
                r.seed = seed;
            }
        }
        if let Ok(spec) = std::env::var("ALT_FAIL_POINTS") {
            let mut next_id = r.next_id;
            for (site, action, trigger) in parse_spec(&spec) {
                r.entries.push(Entry {
                    id: next_id,
                    site,
                    action,
                    trigger,
                    hits: 0,
                    fires: 0,
                });
                next_id += 1;
            }
            r.next_id = next_id;
        }
        ACTIVE.store(r.entries.len() as i32, Ordering::Release);
    });
}

fn parse_spec(spec: &str) -> Vec<(String, FailAction, Trigger)> {
    let mut out = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((site, rhs)) = part.split_once('=') else {
            continue;
        };
        let (action_s, trigger_s) = match rhs.split_once('@') {
            Some((a, t)) => (a.trim(), Some(t.trim())),
            None => (rhs.trim(), None),
        };
        let action = if let Some(ms) = action_s.strip_prefix("delay:") {
            match ms.parse::<u64>() {
                Ok(ms) => FailAction::Delay(ms),
                Err(_) => continue,
            }
        } else {
            match action_s {
                "panic" => FailAction::Panic,
                "alloc_fail" => FailAction::AllocFail,
                _ => continue,
            }
        };
        let trigger = match trigger_s {
            None => Trigger::Always,
            Some(t) => {
                if let Some(p) = t.strip_prefix('p') {
                    match p.parse::<u32>() {
                        Ok(p) => Trigger::Probability(p),
                        Err(_) => continue,
                    }
                } else {
                    match t.parse::<u64>() {
                        Ok(n) => Trigger::Nth(n),
                        Err(_) => continue,
                    }
                }
            }
        };
        out.push((site.trim().to_string(), action, trigger));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so tests that install failpoints
    // serialize on this lock (cargo runs #[test] fns in parallel).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn uninstalled_sites_are_silent() {
        let _l = lock();
        point("test.nothing");
        assert_eq!(fire("test.nothing"), None);
    }

    #[cfg(not(feature = "fault"))]
    #[test]
    fn verbs_are_nothing_when_the_feature_is_off() {
        let _l = lock();
        let _g = install("test.off", FailAction::Panic, Trigger::Always);
        point("test.off");
        assert_eq!(fire("test.off"), None);
        assert_eq!(hits("test.off"), 0);
    }

    #[cfg(feature = "fault")]
    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _l = lock();
        let g = install("test.nth", FailAction::AllocFail, Trigger::Nth(3));
        assert_eq!(fire("test.nth"), None);
        assert_eq!(fire("test.nth"), None);
        assert_eq!(fire("test.nth"), Some(FailAction::AllocFail));
        assert_eq!(fire("test.nth"), None, "one-shot: hit 4 passes");
        assert_eq!(hits("test.nth"), 4);
        assert_eq!(fires("test.nth"), 1);
        drop(g);
        assert_eq!(fire("test.nth"), None, "guard drop uninstalls");
    }

    #[cfg(feature = "fault")]
    #[test]
    fn panic_action_carries_injected_payload() {
        let _l = lock();
        let _g = install("test.panic", FailAction::Panic, Trigger::Always);
        let err =
            std::panic::catch_unwind(|| point("test.panic")).expect_err("panic action must unwind");
        let p = err
            .downcast_ref::<InjectedPanic>()
            .expect("payload is InjectedPanic");
        assert_eq!(p.site, "test.panic");
    }

    #[cfg(feature = "fault")]
    #[test]
    fn alloc_fail_surfaces_and_delay_passes() {
        let _l = lock();
        let g = install("test.af", FailAction::AllocFail, Trigger::Always);
        assert_eq!(fire("test.af"), Some(FailAction::AllocFail));
        point("test.af");
        assert_eq!(fires("test.af"), 2, "a point site ignores AllocFail");
        drop(g);
        let _g = install("test.delay", FailAction::Delay(1), Trigger::Always);
        assert_eq!(fire("test.delay"), None, "delay is not a failure");
        assert_eq!(fires("test.delay"), 1);
    }

    #[cfg(feature = "fault")]
    #[test]
    fn probability_is_seeded_and_deterministic() {
        let _l = lock();
        set_seed(42);
        let g = install(
            "test.prob",
            FailAction::AllocFail,
            Trigger::Probability(512),
        );
        let run: Vec<bool> = (0..64).map(|_| fire("test.prob").is_some()).collect();
        drop(g);
        // Same seed + fresh hit counter → identical decision sequence.
        set_seed(42);
        let g = install(
            "test.prob",
            FailAction::AllocFail,
            Trigger::Probability(512),
        );
        let rerun: Vec<bool> = (0..64).map(|_| fire("test.prob").is_some()).collect();
        drop(g);
        assert_eq!(run, rerun);
        let fired = run.iter().filter(|&&b| b).count();
        assert!(
            fired > 8 && fired < 56,
            "p=1/2 over 64 hits fired {fired} times"
        );
    }

    #[test]
    fn env_spec_parses_all_forms() {
        let spec = "retrain.build=alloc_fail@3; retrain.swap=panic@p64;\
                    dir.replace=delay:5;art.arena.grow=alloc_fail;bogus;x=weird;y=error";
        let parsed = parse_spec(spec);
        assert_eq!(
            parsed,
            vec![
                (
                    "retrain.build".to_string(),
                    FailAction::AllocFail,
                    Trigger::Nth(3)
                ),
                (
                    "retrain.swap".to_string(),
                    FailAction::Panic,
                    Trigger::Probability(64)
                ),
                (
                    "dir.replace".to_string(),
                    FailAction::Delay(5),
                    Trigger::Always
                ),
                (
                    "art.arena.grow".to_string(),
                    FailAction::AllocFail,
                    Trigger::Always
                ),
            ]
        );
    }

    #[cfg(feature = "fault")]
    #[test]
    fn first_firing_wins_across_stacked_entries() {
        let _l = lock();
        let g1 = install("test.stack", FailAction::Panic, Trigger::Nth(2));
        let g2 = install("test.stack", FailAction::AllocFail, Trigger::Always);
        // Hit 1: first entry passes (nth=2), second fires AllocFail.
        assert_eq!(fire("test.stack"), Some(FailAction::AllocFail));
        // Hit 2: first entry fires Panic and wins.
        assert_eq!(fire("test.stack"), Some(FailAction::Panic));
        drop(g1);
        drop(g2);
    }
}
