//! The SIMD kernel of the ART child search, with the same cfg-dispatch
//! shape as `crates/prefetch`.
//!
//! **Byte-equality search** ([`find_byte16`], [`match_mask16`]) — the
//! classic ART Node16 trick: load 16 key bytes with one vector load,
//! compare all lanes against the needle at once, and reduce the match
//! bitmap with `movemask`/`trailing_zeros`. On x86_64 this is SSE2
//! (`_mm_loadu_si128` + `_mm_cmpeq_epi8` + `_mm_movemask_epi8`, baseline
//! on every x86_64 target, no runtime feature detection needed); on
//! aarch64 it is NEON (`vceqq_u8` + a bit-select reduce); elsewhere, and
//! under `force-scalar` or ThreadSanitizer, a per-byte atomic scalar loop
//! with identical results. Which one is compiled is fixed at build time
//! ([`SCALAR_BUILD`]); nothing selects between them at run time.
//!
//! # Safety model (full argument: DESIGN.md §15)
//!
//! The kernel is used on ART node key arrays that are
//! *concurrently mutated* by writers holding the node's OLC lock. The
//! scalar code reads those arrays one `AtomicU8` at a time; a vector
//! load reads all 16 bytes in one non-atomic access, which is formally a
//! data race whenever a writer is mid-shift. This is sound to rely on in
//! practice for the same reason the original OLC ART (and every
//! SSE-searching ART since) is:
//!
//! 1. **Values are never trusted without revalidation.** Every call site
//!    sits between a version snapshot and a `VersionLock::validate`; if
//!    a writer was active, validation fails and the (possibly torn)
//!    result is discarded before anything is dereferenced.
//! 2. **The hardware cannot invent values.** x86-TSO and ARMv8 both
//!    guarantee per-byte atomicity of naturally aligned loads: each lane
//!    observes either the old or the new byte, never a blend of bits.
//!    A "torn" 16-byte view is some interleaving of old/new bytes —
//!    exactly what the scalar per-byte loop can also observe mid-shift.
//! 3. **The blast radius is one `Option<usize>`.** The kernel returns an
//!    index; the caller re-loads the child pointer through an atomic and
//!    still revalidates before using it.
//!
//! The Rust abstract machine does not (yet) bless this pattern — there
//! is no stable atomic-memcpy. We confine the UB-adjacent load to this
//! crate, mark the kernels `unsafe` with the revalidation obligation in
//! their contracts, and compile the scalar fallback under
//! ThreadSanitizer (see `build.rs`) so the sanitizer job checks the
//! surrounding protocol rather than flagging the deliberate race.

#![warn(missing_docs)]

use core::sync::atomic::{AtomicU8, Ordering};

/// True when this build compiles the scalar reference kernel: the
/// `force-scalar` feature, a ThreadSanitizer build (detected by
/// `build.rs`), or an architecture without a wired-up vector unit.
pub const SCALAR_BUILD: bool = cfg!(any(
    feature = "force-scalar",
    simd_force_scalar_build,
    not(any(target_arch = "x86_64", target_arch = "aarch64"))
));

/// Scalar reference: per-byte `AtomicU8` relaxed loads. This is the
/// kernel of a [`SCALAR_BUILD`], the TSan-clean path — reading through
/// atomics makes the mid-shift interleavings defined behavior — and what
/// the tests below compare the vector kernel against.
///
/// # Safety
/// `block` must point to at least 16 consecutive bytes inside one live
/// allocation, and those bytes must only ever be mutated through
/// `AtomicU8`-compatible stores (true for ART node key arrays, which are
/// `[AtomicU8; N]`).
#[inline(always)]
unsafe fn match_mask16_scalar(block: *const u8, needle: u8) -> u16 {
    let mut mask = 0u16;
    for i in 0..16 {
        // SAFETY: caller guarantees 16 readable bytes with atomic-store
        // writers; AtomicU8 has the same layout as u8.
        let b = unsafe { (*(block.add(i) as *const AtomicU8)).load(Ordering::Relaxed) };
        mask |= u16::from(b == needle) << i;
    }
    mask
}

/// Compare 16 bytes at `block` against `needle` and return a lane
/// bitmask (bit `i` set ⇔ `block[i] == needle`). Lanes at or beyond any
/// logical count are the *caller's* job to mask off — the kernel always
/// reads all 16 bytes.
///
/// # Safety
/// * `block` must point to at least 16 consecutive readable bytes inside
///   one live allocation (the whole vector load must stay in bounds of
///   that allocation — for Node4 the caller relies on the trailing
///   children array to pad the node past 16 bytes).
/// * Concurrent writers may race this load. The caller **must** treat
///   the result as untrusted until an OLC version validation of the
///   owning node succeeds, and must not dereference anything derived
///   from it before that validation (DESIGN.md §15).
#[inline(always)]
pub unsafe fn match_mask16(block: *const u8, needle: u8) -> u16 {
    #[cfg(all(
        target_arch = "x86_64",
        not(any(feature = "force-scalar", simd_force_scalar_build))
    ))]
    // SAFETY: SSE2 is baseline x86_64. `_mm_loadu_si128` has no
    // alignment requirement; the caller guarantees 16 in-bounds bytes.
    // The racing-read obligation is forwarded to the caller (see above).
    unsafe {
        use core::arch::x86_64::*;
        let v = _mm_loadu_si128(block as *const __m128i);
        let eq = _mm_cmpeq_epi8(v, _mm_set1_epi8(needle as i8));
        return _mm_movemask_epi8(eq) as u16;
    }
    #[cfg(all(
        target_arch = "aarch64",
        not(any(feature = "force-scalar", simd_force_scalar_build))
    ))]
    // SAFETY: NEON is baseline aarch64; `vld1q_u8` is an unaligned load.
    // Same caller contract as the SSE2 path.
    unsafe {
        use core::arch::aarch64::*;
        let v = vld1q_u8(block);
        let eq = vceqq_u8(v, vdupq_n_u8(needle));
        // Collapse each 0xFF/0x00 lane to one bit: AND with a per-lane
        // bit weight, then pairwise-add across the vector.
        const WEIGHTS: [u8; 16] = [1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128];
        let bits = vandq_u8(eq, vld1q_u8(WEIGHTS.as_ptr()));
        let lo = vaddv_u8(vget_low_u8(bits)) as u16;
        let hi = vaddv_u8(vget_high_u8(bits)) as u16;
        return lo | (hi << 8);
    }
    #[allow(unreachable_code)]
    // SAFETY: forwarded caller contract.
    unsafe {
        match_mask16_scalar(block, needle)
    }
}

/// Find the first index `< count` where `block[i] == needle`, with a
/// single 16-lane compare. Returns `None` when no lane in `0..count`
/// matches. `count` is clamped to 16.
///
/// # Safety
/// Same contract as [`match_mask16`]: 16 readable in-bounds bytes, and
/// the result is untrusted until the caller's OLC validation succeeds.
#[inline(always)]
pub unsafe fn find_byte16(block: *const u8, needle: u8, count: usize) -> Option<usize> {
    // SAFETY: forwarded caller contract.
    let mask = unsafe { match_mask16(block, needle) };
    let live = if count >= 16 {
        mask
    } else {
        mask & ((1u16 << count) - 1)
    };
    if live == 0 {
        None
    } else {
        Some(live.trailing_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_ref(block: &[u8; 16], needle: u8) -> u16 {
        let mut m = 0u16;
        for (i, &b) in block.iter().enumerate() {
            m |= u16::from(b == needle) << i;
        }
        m
    }

    #[test]
    fn match_mask_agrees_with_reference() {
        let mut block = [0u8; 16];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        block[3] = 99;
        block[15] = 99;
        for needle in [0u8, 11, 99, 255, block[7]] {
            // SAFETY: `block` is a live 16-byte array with no writers.
            let (got, scalar) = unsafe {
                (
                    match_mask16(block.as_ptr(), needle),
                    match_mask16_scalar(block.as_ptr(), needle),
                )
            };
            assert_eq!(got, mask_ref(&block, needle), "needle {needle}");
            assert_eq!(scalar, got, "needle {needle}");
        }
    }

    #[test]
    fn find_byte_respects_count() {
        let mut block = [7u8; 16];
        block[0] = 1;
        // All of 1..16 hold 7; count masks decide visibility.
        for count in 0..=16usize {
            // SAFETY: live array, no writers.
            let got = unsafe { find_byte16(block.as_ptr(), 7, count) };
            if count <= 1 {
                assert_eq!(got, None, "count {count}");
            } else {
                assert_eq!(got, Some(1), "count {count}");
            }
        }
        // SAFETY: live array, no writers.
        assert_eq!(unsafe { find_byte16(block.as_ptr(), 2, 16) }, None);
    }
}
