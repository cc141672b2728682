//! Stress tests for the fast-pointer jump protocol under structural
//! churn — the exact hazard class where a stale jump pointer combined
//! with an in-flight prefix extraction or node merge could descend with
//! outdated path bytes. The tree's invariant (a live node's prefix and
//! match level never change; nodes are replaced and retired instead) is
//! what these tests exercise.
//!
//! ```sh
//! cargo test -p art --features chaos --test jump_stress
//! ```

use art::{Art, FromResult, ReplaceHook, SetSlotResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Both tests run under a chaos schedule (live with `--features chaos`,
/// inert otherwise); schedules are process-global, so one test at a time.
static SCHEDULE_OWNER: Mutex<()> = Mutex::new(());

/// A miniature fast-pointer buffer: one slot, hook-maintained.
struct OneSlot(AtomicUsize);

impl ReplaceHook for OneSlot {
    fn node_replaced(&self, _slot: u32, new_node: usize) {
        self.0.store(new_node, Ordering::Release);
    }
}

/// Register the LCA of [k1, k2] in the one-slot buffer, following the
/// merge/obsolete retry protocol the ALT-index buffer uses.
fn register(art: &Art, buf: &OneSlot, k1: u64, k2: u64) -> bool {
    for _ in 0..64 {
        let Some((node, _)) = art.lca_node(k1, k2) else {
            return false;
        };
        buf.0.store(node, Ordering::Release);
        // SAFETY: node fresh from lca_node; retried on Obsolete.
        match unsafe { art.try_set_buffer_slot(node, 0) } {
            SetSlotResult::Installed | SetSlotResult::Merged(_) => return true,
            SetSlotResult::Obsolete => continue,
        }
    }
    false
}

/// Readers jump through the maintained pointer while writers force
/// prefix extractions and expansions all around the jump target. Every
/// stable key must remain visible through the jump (with root fallback),
/// and every jump-inserted key must be readable from the root.
#[test]
fn jumps_stay_correct_under_structural_churn() {
    let _serial = SCHEDULE_OWNER.lock().unwrap_or_else(|e| e.into_inner());
    let _chaos = probe::chaos::install_schedule(0x1A3B_0001, 128);
    let buf = Arc::new(OneSlot(AtomicUsize::new(0)));
    let art = Arc::new(Art::with_hook(Arc::new(OneSlotHookProxy(Arc::clone(&buf)))));

    // A cluster sharing 5 high bytes: its LCA is deep; churn keys force
    // repeated extraction/expansion below and above it.
    let base = 0x0102_0304_0500_0000u64;
    let stable: Vec<u64> = (1..=2_000u64).map(|i| base + i * 7).collect();
    for &k in &stable {
        art.insert(k, k);
    }
    // Scatter keys so the root has fanout.
    for i in 1..=32u64 {
        art.insert(i << 56 | 0xAB, i);
    }
    let lo = stable[0];
    let hi = *stable.last().unwrap();
    assert!(register(&art, &buf, lo, hi), "initial registration");

    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let mut hs = Vec::new();
    for t in 0..threads as u64 {
        let art = Arc::clone(&art);
        let buf = Arc::clone(&buf);
        let stable = stable.clone();
        let barrier = Arc::clone(&barrier);
        hs.push(std::thread::spawn(move || {
            barrier.wait();
            let mut inserted = Vec::new();
            for i in 0..4_000u64 {
                // Jump-read a stable key (root fallback allowed).
                let k = stable[((t * 4_000 + i) * 31 % stable.len() as u64) as usize];
                let node = buf.0.load(Ordering::Acquire);
                let got = if node != 0 {
                    // SAFETY: hook-maintained pointer, epoch pinned inside.
                    match unsafe { art.get_from(node, k) } {
                        FromResult::Done(v, _) => v,
                        FromResult::Fallback => art.get(k),
                    }
                } else {
                    art.get(k)
                };
                assert_eq!(got, Some(k), "stable key {k:#x} lost via jump");

                // Jump-insert a fresh key inside the registered interval.
                let fresh = base + 20_000 + (t * 4_000 + i) * 13 + t + 1;
                if fresh < hi {
                    let node = buf.0.load(Ordering::Acquire);
                    let ins = if node != 0 {
                        // SAFETY: as above.
                        match unsafe { art.insert_from(node, fresh, fresh) } {
                            FromResult::Done(ins, _) => ins,
                            FromResult::Fallback => art.insert(fresh, fresh),
                        }
                    } else {
                        art.insert(fresh, fresh)
                    };
                    if ins {
                        inserted.push(fresh);
                        // Root read must see the jump-inserted key.
                        assert_eq!(
                            art.get(fresh),
                            Some(fresh),
                            "jump insert {fresh:#x} invisible"
                        );
                    }
                }
            }
            inserted
        }));
    }
    let mut all_inserted = Vec::new();
    for h in hs {
        all_inserted.extend(h.join().unwrap());
    }
    // Quiesce: everything visible from the root.
    for &k in &stable {
        assert_eq!(art.get(k), Some(k));
    }
    for &k in &all_inserted {
        assert_eq!(art.get(k), Some(k), "post-churn {k:#x}");
    }
}

/// Wrapper because Art::with_hook takes Arc<dyn ReplaceHook> while the
/// test also needs to share the buffer.
struct OneSlotHookProxy(Arc<OneSlot>);

impl ReplaceHook for OneSlotHookProxy {
    fn node_replaced(&self, slot: u32, new_node: usize) {
        self.0.node_replaced(slot, new_node);
    }
}

/// Removals merge and shrink nodes around a registered pointer; the hook
/// must keep it safe (possibly de-optimized to 0) and stable keys must
/// stay reachable.
#[test]
fn jump_pointer_survives_merges_and_shrinks() {
    let _serial = SCHEDULE_OWNER.lock().unwrap_or_else(|e| e.into_inner());
    let _chaos = probe::chaos::install_schedule(0x1A3B_0002, 128);
    let buf = Arc::new(OneSlot(AtomicUsize::new(0)));
    let art = Arc::new(Art::with_hook(Arc::new(OneSlotHookProxy(Arc::clone(&buf)))));
    let base = 0x0F0E_0D0C_0000_0000u64;
    // A wide node (many children) that will shrink as keys are removed.
    for i in 0..200u64 {
        art.insert(base + i * 0x0100, i);
    }
    for i in 1..=16u64 {
        art.insert(i << 56, i);
    }
    assert!(register(&art, &buf, base, base + 199 * 0x0100));

    // Remove most cluster keys (forcing shrinks 256->48->16->4 and
    // eventually merges), interleaving jump reads of the survivors.
    let survivors: Vec<u64> = (0..200u64).step_by(50).map(|i| base + i * 0x0100).collect();
    for i in 0..200u64 {
        let k = base + i * 0x0100;
        if !survivors.contains(&k) {
            assert_eq!(art.remove(k), Some(i));
        }
        for &sk in &survivors {
            let node = buf.0.load(Ordering::Acquire);
            let got = if node != 0 {
                // SAFETY: hook-maintained pointer.
                match unsafe { art.get_from(node, sk) } {
                    FromResult::Done(v, _) => v,
                    FromResult::Fallback => art.get(sk),
                }
            } else {
                art.get(sk)
            };
            assert!(got.is_some(), "survivor {sk:#x} lost after removing {k:#x}");
        }
    }
}
