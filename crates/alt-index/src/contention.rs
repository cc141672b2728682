//! Glue between this crate's optimistic retry loops and the shared
//! [`resilience`] layer: every unbounded loop carries a stack-local
//! [`resilience::Retry`] and calls one of these helpers on each retry.
//! The helpers record backoff-tier transitions and escalations through
//! [`crate::metrics_hook`], so call sites stay one-liners and the
//! metrics story stays uniform.
//!
//! First-try successes never reach this module — constructing a `Retry`
//! is two integers on the stack and the policy is only loaded on the
//! first actual retry.

pub(crate) use resilience::Retry;

/// Charge one retry against the process-global policy: waits one backoff
/// step (recording tier transitions) and returns `true` exactly once
/// when the budget is exhausted — the caller then switches to its
/// guaranteed-progress pessimistic fallback. The escalation itself is
/// recorded here.
#[cold]
#[inline(never)]
pub(crate) fn wait_or_escalate(retry: &mut Retry) -> bool {
    match retry.step_global() {
        resilience::Step::Escalate => {
            crate::metrics_hook::escalation();
            true
        }
        resilience::Step::Wait(s) => {
            if s.transition {
                crate::metrics_hook::backoff_transition(s.tier);
            }
            false
        }
    }
}

/// Backoff-only wait for loops whose progress is already guaranteed by
/// the current holder (slot/spin lock acquisition): tiers advance and
/// are recorded, but the wait never escalates — there is nothing more
/// pessimistic than the lock the caller is already queueing for.
#[cold]
#[inline(never)]
pub(crate) fn wait(retry: &mut Retry) {
    let s = retry.wait_global();
    if s.transition {
        crate::metrics_hook::backoff_transition(s.tier);
    }
}
