//! Regression test: `FastPointerBuffer::register` must count ONE
//! unmerged registration per logical call, no matter how many times its
//! install loop retries on `SetSlotResult::Obsolete` (the LCA node was
//! replaced between resolution and installation).
//!
//! The buggy version incremented the counter at the top of the retry
//! loop, inflating the Fig 10(b) "pointer count without the merge
//! scheme" metric by one per retry. This test *forces* the Obsolete
//! path: a registering thread races a thread that expands the LCA node
//! (Node4 -> Node16 replacement marks the old node obsolete), with the
//! chaos schedule stretching the resolution-to-install window at the
//! `fastptr.merge.pre_install` point so the replacement reliably lands
//! inside it. Run with:
//!
//! ```sh
//! cargo test -p alt-index --features chaos --test fastptr_unmerged
//! cargo test -p alt-index --features "chaos metrics" --test fastptr_unmerged
//! ```
//!
//! With `metrics` also enabled, the test additionally proves the forced
//! path fired (the `alt.fastptr_register_retry` counter moved) — i.e.
//! that it would have caught the bug, not just that nothing retried.
#![cfg(feature = "chaos")]

use alt_index::fast_ptr::{BufferHook, FastPointerBuffer};
use art::Art;
use std::sync::{Arc, Barrier};

/// One registration race: a fresh tree with a full Node4 cluster; one
/// thread registers the cluster's span while the other inserts a fifth
/// child, replacing the LCA mid-registration.
fn run_round(round: u64) -> Arc<FastPointerBuffer> {
    let buf = Arc::new(FastPointerBuffer::new());
    let art = Arc::new(Art::with_hook(Arc::new(BufferHook(Arc::clone(&buf)))));
    // Vary the subtree per round so chaos-point hashing (seeded by site
    // hit counts) explores different delay placements.
    let base = 0xAB00_0000_0000_0000u64 + (round << 32);
    for i in 1..=4u64 {
        art.insert(base + i, i);
    }
    // A second subtree keeps the root internal even mid-replacement.
    art.insert(base ^ 0x1100_0000_0000_0000, 9);

    let barrier = Arc::new(Barrier::new(2));
    let register = {
        let buf = Arc::clone(&buf);
        let art = Arc::clone(&art);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            buf.register(&art, base + 1, base + 4)
        })
    };
    let expand = {
        let art = Arc::clone(&art);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            // Fifth child forces Node4 -> Node16: the old LCA is marked
            // obsolete and an in-flight `try_set_buffer_slot` on it must
            // retry from resolution.
            art.insert(base + 5, 5);
        })
    };
    let slot = register.join().unwrap();
    expand.join().unwrap();
    assert_ne!(slot, u32::MAX, "registration must eventually succeed");
    buf
}

#[test]
fn unmerged_counts_logical_calls_not_retries() {
    // High intensity: delay at (almost) every chaos point, so the
    // pre-install window is wide open for the expander thread.
    let _guard = probe::chaos::install_schedule(0x0FA5_7B0F, 1024);

    #[cfg(feature = "metrics")]
    let before = probe::metrics::snapshot();

    let rounds = 48u64;
    for r in 0..rounds {
        let buf = run_round(r);
        assert_eq!(
            buf.unmerged_len(),
            1,
            "round {r}: one logical register call must count exactly once, \
             however many Obsolete retries it took"
        );
    }

    // Prove the test exercised the path it claims to guard: at least one
    // round must actually have taken the Obsolete retry. Observable only
    // when the metrics hooks are compiled in.
    #[cfg(feature = "metrics")]
    {
        let delta = probe::metrics::snapshot().delta(&before);
        assert!(
            delta.get(probe::metrics::Counter::FastPtrRegisterRetry) > 0,
            "no register retry fired in {rounds} forced races — the \
             regression this test guards was not exercised"
        );
    }
}
