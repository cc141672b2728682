//! The retry ladder every optimistic loop in the workspace shares (slot
//! version retries, OLC restarts, scan epoch revalidation, seqlock reads,
//! route re-validation, lock-acquisition waits). An optimistic attempt
//! either succeeds first try — nothing here runs — or retries through a
//! stack-local [`Retry`], a bare attempt counter walked over compile-time
//! constants:
//!
//! ```text
//!   retry:  1 ..= SPIN             1 << min(n, 6) spin_loop() hints
//!           .. + YIELD             thread::yield_now()
//!           .. + PARK  (= BUDGET)  thread::sleep, 2 µs doubling to 256 µs
//!           BUDGET + 1             ESCALATE (exactly once), then parks
//! ```
//!
//! [`Retry::wait_or_escalate`] reports the escalation: the caller switches
//! to its guaranteed-progress pessimistic fallback (a locked read, a
//! `dir_lock` scan pass, a lock-coupled descent) or, having none, keeps
//! retrying with parked waits. [`Retry::wait`] is the same ladder for lock-acquisition
//! waits, whose holder already guarantees progress: it never escalates.
//!
//! There is no policy and no switch. The one thing the build decides is
//! the ladder's width: a chaos build ([`probe::chaos::ENABLED`]) gets a
//! five-retry budget, so that every chaos sweep drives the pessimistic
//! fallbacks under the linearizability oracle instead of almost never.

#![warn(missing_docs)]

use probe::metrics::{self, Counter};
use std::time::Duration;

/// Retries served by busy-waiting with `spin_loop` hints.
const SPIN: u32 = if probe::chaos::ENABLED { 2 } else { 48 };
/// Retries served by `thread::yield_now()`.
const YIELD: u32 = if probe::chaos::ENABLED { 1 } else { 16 };
/// Retries served by an exponential `thread::sleep` before the budget is
/// spent.
const PARK: u32 = if probe::chaos::ENABLED { 2 } else { 16 };
/// Retries before [`Retry::wait_or_escalate`] escalates.
pub const BUDGET: u32 = SPIN + YIELD + PARK;
/// First park, in nanoseconds; doubles per park up to [`PARK_NS_MAX`].
const PARK_NS_BASE: u64 = 2_000;
/// Park cap, in nanoseconds.
const PARK_NS_MAX: u64 = 256_000;

/// What retry number `attempt` (1-based) does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    Spin,
    Yield,
    Park,
}

impl Tier {
    /// Monotone in `attempt`; everything past the budget parks.
    const fn of(attempt: u32) -> Tier {
        if attempt <= SPIN {
            Tier::Spin
        } else if attempt <= SPIN + YIELD {
            Tier::Yield
        } else {
            Tier::Park
        }
    }
}

/// Sleep of park retry `attempt`, in nanoseconds.
fn park_ns(attempt: u32) -> u64 {
    let k = attempt.saturating_sub(SPIN + YIELD + 1).min(16);
    (PARK_NS_BASE << k).min(PARK_NS_MAX)
}

/// The counters one layer (`alt.*`, `art.*`, `baseline.*`) records its
/// contention under.
#[derive(Debug, Clone, Copy)]
pub struct LayerCounters {
    /// A retry budget ran out and the caller took its fallback.
    escalation: Option<Counter>,
    /// A retry loop reached its first yield.
    backoff_yield: Option<Counter>,
    /// A retry loop reached its first park.
    backoff_park: Option<Counter>,
}

impl LayerCounters {
    /// A layer that records nothing (the serving front-end's admission
    /// wait, which counts the requests it sheds itself).
    pub const UNCOUNTED: Self = LayerCounters {
        escalation: None,
        backoff_yield: None,
        backoff_park: None,
    };

    /// A layer recording under these three counters.
    pub const fn new(escalation: Counter, backoff_yield: Counter, backoff_park: Counter) -> Self {
        LayerCounters {
            escalation: Some(escalation),
            backoff_yield: Some(backoff_yield),
            backoff_park: Some(backoff_park),
        }
    }
}

fn incr(counter: Option<Counter>) {
    if let Some(c) = counter {
        metrics::incr(c);
    }
}

/// One operation's position on the ladder. Constructing it is one integer
/// on the stack; first-try successes never touch it again.
#[derive(Debug, Clone, Default)]
pub struct Retry {
    attempts: u32,
}

impl Retry {
    /// A fresh, unspent ladder.
    #[inline]
    pub const fn new() -> Self {
        Retry { attempts: 0 }
    }

    /// Count one retry and wait its step of the ladder. Inlined into the
    /// two verbs, which is what keeps *them* out of line.
    #[inline(always)]
    fn backoff(&mut self, layer: &LayerCounters) {
        self.attempts += 1;
        match Tier::of(self.attempts) {
            // A short, slowly growing spin — the conflicting writer is
            // usually a few instructions from releasing.
            Tier::Spin => {
                for _ in 0..1u32 << self.attempts.min(6) {
                    std::hint::spin_loop();
                }
            }
            Tier::Yield => {
                if self.attempts == SPIN + 1 {
                    incr(layer.backoff_yield);
                }
                std::thread::yield_now();
            }
            Tier::Park => {
                if self.attempts == SPIN + YIELD + 1 {
                    incr(layer.backoff_park);
                }
                std::thread::sleep(Duration::from_nanos(park_ns(self.attempts)));
            }
        }
    }

    /// Charge one retry: wait one step of the ladder and return `false`,
    /// or — exactly once, when the budget is spent — return `true` without
    /// waiting: the caller takes its pessimistic fallback, or, where it
    /// has none, keeps calling and parks. The escalation is recorded here.
    ///
    /// `#[cold]` keeps the body out of the retry loops; `#[inline]` (not
    /// `inline(never)`) gives each calling crate its own out-of-line copy,
    /// so the call is direct — through a cross-crate symbol LLVM hoisted
    /// the callee's address and `layer` into the first-try path of the
    /// slot array's read.
    #[cold]
    #[inline]
    pub fn wait_or_escalate(&mut self, layer: &LayerCounters) -> bool {
        if self.attempts == BUDGET {
            self.attempts += 1;
            incr(layer.escalation);
            return true;
        }
        self.backoff(layer);
        false
    }

    /// The same ladder for loops whose progress the current holder already
    /// guarantees (slot, spin, version-lock and seqlock acquisition): it
    /// never escalates — there is nothing more pessimistic than the lock
    /// the caller is already queueing for — and past the budget it parks.
    #[cold]
    #[inline]
    pub fn wait(&mut self, layer: &LayerCounters) {
        self.backoff(layer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUIET: LayerCounters = LayerCounters::UNCOUNTED;

    #[test]
    fn chaos_off_builds_get_the_production_ladder() {
        if !probe::chaos::ENABLED {
            assert_eq!((SPIN, YIELD, PARK, BUDGET), (48, 16, 16, 80));
        } else {
            assert_eq!((SPIN, YIELD, PARK, BUDGET), (2, 1, 2, 5));
        }
        assert_eq!((PARK_NS_BASE, PARK_NS_MAX), (2_000, 256_000));
        let first = SPIN + YIELD + 1;
        let parks: Vec<u64> = (first..first + 9).map(park_ns).collect();
        assert_eq!(
            parks,
            [2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000, 256_000]
        );
        assert_eq!(park_ns(u32::MAX), PARK_NS_MAX);
    }

    #[test]
    fn retry_is_one_word() {
        assert!(std::mem::size_of::<Retry>() <= 8);
    }

    #[test]
    fn tiers_are_visited_in_order_and_never_revisited() {
        let tiers: Vec<Tier> = (1..=BUDGET + 8).map(Tier::of).collect();
        assert!(tiers.windows(2).all(|w| w[0] <= w[1]));
        let count = |t| tiers.iter().filter(|&&x| x == t).count() as u32;
        assert_eq!((count(Tier::Spin), count(Tier::Yield)), (SPIN, YIELD));
        assert_eq!(count(Tier::Park), PARK + 8);
    }

    #[test]
    fn wait_or_escalate_is_true_exactly_once_and_every_later_call_parks() {
        let mut r = Retry::new();
        let escalated: Vec<u32> = (1..=BUDGET + 4)
            .filter(|_| r.wait_or_escalate(&QUIET))
            .collect();
        assert_eq!(escalated, [BUDGET + 1]);
        // The three calls after the escalation each counted, and waited as,
        // a park.
        assert_eq!(r.attempts, BUDGET + 4);
        assert!((BUDGET + 2..=r.attempts).all(|n| Tier::of(n) == Tier::Park));
    }

    #[test]
    fn wait_never_escalates_however_often_it_is_called() {
        let mut r = Retry::new();
        for n in 1..=BUDGET + 4 {
            r.wait(&QUIET);
            assert_eq!(r.attempts, n, "every call is a wait, none is skipped");
        }
        // A loop that used `wait` past the budget has no escalation left
        // to report: the one-shot answer belongs to retry BUDGET + 1.
        assert!(!r.wait_or_escalate(&QUIET));
    }
}
