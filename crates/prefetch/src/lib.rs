//! Portable software prefetch hints, and the page hint ([`pages`]): the
//! memory-system hints of the lookup paths.
//!
//! The AMAC-style batched lookup paths (see `alt_index::batch` and
//! `art::batch`) overlap the cache misses of many in-flight keys by
//! issuing a prefetch for each key's *next* pointer chase and then
//! switching to another key. This crate wraps the per-architecture
//! prefetch instruction behind one safe, zero-dependency function:
//!
//! * **x86_64** — `prefetcht0` via [`core::arch::x86_64::_mm_prefetch`]
//!   (into all cache levels; the batch engines touch the line within a
//!   few dozen instructions, so the strongest locality hint fits).
//! * **aarch64** — `prfm pldl1keep` via inline assembly (the stable
//!   `_prefetch` intrinsic is nightly-only).
//! * anything else — a no-op.
//!
//! Safety: prefetch instructions are architecturally defined to be
//! hint-only — they never fault, even on null, dangling, or unmapped
//! addresses (the hardware drops the request on a translation miss).
//! That makes a safe wrapper around an arbitrary `*const T` sound: no
//! memory is dereferenced, written, or created. The `unsafe` blocks
//! below therefore live *here*, letting `#[deny(unsafe_code)]` crates
//! (e.g. `baselines`) issue prefetches through the safe API, while
//! `index-api` keeps its `forbid(unsafe_code)` by not depending on this
//! crate at all (the trait's default `get_batch` needs no prefetch).

#![warn(missing_docs)]

pub mod pages;

/// Hint the CPU to fetch the cache line containing `p` for a read.
///
/// Accepts any pointer, including null and dangling ones — prefetch is
/// a hint and never faults. A no-op on architectures without a wired-up
/// prefetch instruction.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is a pure hint; it performs no memory access
    // and is architecturally defined never to fault on any address.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm pldl1keep` is a pure hint; translation misses are
    // dropped in hardware, so any address value is fine.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{addr}]",
            addr = in(reg) p,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// [`prefetch_read`] over a reference, for callers that deny raw-pointer
/// handling (`baselines` is `deny(unsafe_code)` and has no reason to
/// manufacture pointers just to hint a fetch).
#[inline(always)]
pub fn prefetch_read_ref<T>(r: &T) {
    prefetch_read(r as *const T);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_never_faults() {
        // Null, dangling, and unaligned addresses are all legal hints.
        prefetch_read::<u64>(std::ptr::null());
        prefetch_read(usize::MAX as *const u64);
        prefetch_read(0xdead_beef_usize as *const u8);
    }

    #[test]
    fn prefetch_leaves_data_unchanged() {
        let data = [1u64, 2, 3, 4];
        for v in &data {
            prefetch_read_ref(v);
        }
        assert_eq!(data, [1, 2, 3, 4]);
    }
}
