//! Zeroed memory regions, on 2 MiB pages where the kernel has them.
//!
//! At an out-of-cache index size every dependent miss of a lookup (the
//! slot probe, each ART node) also misses the TLB, and a 4 KiB page walk
//! is itself a chain of dependent loads. A [`Region::mapped`] block is an
//! anonymous mapping aligned to [`HUGE_PAGE`] and advised
//! `MADV_HUGEPAGE`, so with transparent huge pages set to `madvise` (or
//! `always`) each 2 MiB of it is one TLB entry. The mapping is made with
//! `extern "C"` declarations against the libc that `std` already links
//! (the workspace builds offline, with no `libc` crate).
//!
//! Both kinds of region start out all-zero, and the callers rely on it:
//! an all-zero slot array is an empty one (`alt_index::slots`).

use std::alloc::Layout;
use std::ptr::NonNull;

/// The huge-page size on x86_64 and on aarch64 with 4 KiB base pages:
/// the unit a [`Region::mapped`] block is aligned to, and the largest
/// chunk the ART arena maps at once (a larger chunk would only leave
/// more of the last one unused).
pub const HUGE_PAGE: usize = 2 << 20;

/// The base page: [`Region::release`] works in whole ones.
const PAGE: usize = 4096;

/// A zeroed, owned block of memory, freed on drop.
pub struct Region {
    ptr: NonNull<u8>,
    size: usize,
    /// `None`: an anonymous mapping; `Some`: a heap block of this layout.
    heap: Option<Layout>,
}

// SAFETY: a `Region` owns its block exclusively, like a `Box<[u8]>`; it
// hands out the address only as a raw pointer, and its one `&self`
// operation on the memory (`release`, an `unsafe fn`) is a system call
// whose caller vouches for the range.
unsafe impl Send for Region {}
// SAFETY: as above — no `&self` method reads or writes the block.
unsafe impl Sync for Region {}

impl Region {
    /// `size` zeroed bytes from the global allocator, word-aligned: the
    /// alignment `alloc_zeroed` serves with `calloc`, which skips the
    /// memset on pages fresh from the kernel (a stricter one is a
    /// `posix_memalign` and a memset).
    ///
    /// Panics if `size` is 0; aborts like `Box` does on allocation
    /// failure.
    pub fn heap(size: usize) -> Self {
        Self::heap_aligned(size, std::mem::align_of::<u64>())
            .unwrap_or_else(|layout| std::alloc::handle_alloc_error(layout))
    }

    fn heap_aligned(size: usize, align: usize) -> Result<Self, Layout> {
        assert!(size > 0, "a region holds at least one byte");
        let layout = Layout::from_size_align(size, align).expect("region size overflows a layout");
        // SAFETY: `layout` has a nonzero size (asserted above).
        let p = unsafe { std::alloc::alloc_zeroed(layout) };
        match NonNull::new(p) {
            Some(ptr) => Ok(Self {
                ptr,
                size,
                heap: Some(layout),
            }),
            None => Err(layout),
        }
    }

    /// `size` zeroed bytes in an anonymous mapping of their own, starting
    /// on a [`HUGE_PAGE`] boundary and advised `MADV_HUGEPAGE`. `None` if
    /// the kernel refuses the mapping. Outside Linux on x86_64/aarch64 it
    /// is a heap block with the same alignment.
    ///
    /// Panics if `size` is 0.
    pub fn mapped(size: usize) -> Option<Self> {
        assert!(size > 0, "a region holds at least one byte");
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            let len = size.checked_next_multiple_of(PAGE)?;
            // Over-map by one huge page, then trim both ends so the block
            // starts on a boundary: `mmap` only promises 4 KiB alignment.
            let span = len.checked_add(HUGE_PAGE)?;
            // SAFETY: a private anonymous mapping at an address of the
            // kernel's choosing aliases nothing that exists.
            let base = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    span,
                    sys::PROT_READ | sys::PROT_WRITE,
                    sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if base == sys::MAP_FAILED {
                return None;
            }
            let base = base as usize;
            let start = base.next_multiple_of(HUGE_PAGE);
            let head = start - base;
            let tail = span - head - len;
            // SAFETY: both trimmed ranges lie inside the mapping just
            // made, page-aligned (`base` and `len` are), and nothing
            // refers to them. `madvise(MADV_HUGEPAGE)` is advice: if it
            // fails (THP compiled out), the block is on 4 KiB pages and
            // otherwise the same, so its result is not checked.
            unsafe {
                if head > 0 {
                    sys::munmap(base as *mut _, head);
                }
                if tail > 0 {
                    sys::munmap((start + len) as *mut _, tail);
                }
                sys::madvise(start as *mut _, len, sys::MADV_HUGEPAGE);
            }
            Some(Self {
                ptr: NonNull::new(start as *mut u8)?,
                size,
                heap: None,
            })
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            Self::heap_aligned(size, HUGE_PAGE).ok()
        }
    }

    /// The first byte.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Bytes in the region, as asked for.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Give the whole 4 KiB pages inside `offset..offset + len` back to
    /// the kernel (`MADV_DONTNEED`): they stop counting towards RSS and
    /// read as zero if touched again. Bytes of a partial page at either
    /// end are left alone, so a neighbour sharing that page keeps its
    /// contents. A no-op on a heap region.
    ///
    /// Panics if the range is not inside the region.
    ///
    /// # Safety
    /// No reference into the released pages may be live, and nothing may
    /// rely on their contents afterwards: the caller owns that range
    /// alone and is done with it.
    pub unsafe fn release(&self, offset: usize, len: usize) {
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= self.size)
            .expect("release range inside the region");
        if self.heap.is_some() {
            return;
        }
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            let lo = (self.as_ptr() as usize + offset).next_multiple_of(PAGE);
            let hi = (self.as_ptr() as usize + end) & !(PAGE - 1);
            if hi > lo {
                // SAFETY: `lo..hi` is whole pages inside this mapping (the
                // range check above), which the caller vouches nothing
                // refers to. Advice again: a failure only leaves the pages
                // resident.
                unsafe { sys::madvise(lo as *mut _, hi - lo, sys::MADV_DONTNEED) };
            }
        }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        match self.heap {
            // SAFETY: allocated by `heap_aligned` with exactly `layout`.
            Some(layout) => unsafe { std::alloc::dealloc(self.as_ptr(), layout) },
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            // SAFETY: `mapped` left exactly `size` rounded up to a page
            // mapped at `ptr`, and `&mut self` means no one uses it.
            None => unsafe {
                sys::munmap(self.as_ptr() as *mut _, self.size.next_multiple_of(PAGE));
            },
            #[cfg(not(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            )))]
            None => unreachable!("every region is a heap block off Linux"),
        }
    }
}

/// The three calls and their constants, as on Linux x86_64 and aarch64
/// (`<sys/mman.h>`).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use core::ffi::{c_int, c_void};

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 0x02;
    pub const MAP_ANONYMOUS: c_int = 0x20;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
    pub const MADV_DONTNEED: c_int = 4;
    pub const MADV_HUGEPAGE: c_int = 14;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(r: &Region) -> &[u8] {
        // SAFETY: the region is `size` initialized (zeroed) bytes that
        // nothing writes while this borrow of `r` lives.
        unsafe { std::slice::from_raw_parts(r.as_ptr(), r.size()) }
    }

    #[test]
    fn both_kinds_start_zeroed() {
        let h = Region::heap(10_000);
        assert_eq!(h.as_ptr() as usize % 8, 0);
        assert!(bytes(&h).iter().all(|&b| b == 0));
        let m = Region::mapped(3 * HUGE_PAGE + 123).expect("map");
        assert_eq!(m.as_ptr() as usize % HUGE_PAGE, 0, "huge-page aligned");
        assert!(bytes(&m).iter().all(|&b| b == 0));
    }

    #[test]
    fn release_zeroes_only_whole_pages_inside_the_range() {
        let m = Region::mapped(4 * PAGE).expect("map");
        // SAFETY: the region is ours alone; writes stay inside it.
        unsafe { std::ptr::write_bytes(m.as_ptr(), 0xAB, m.size()) };
        // 100 bytes into page 0 up to 100 bytes into page 3: only pages 1
        // and 2 lie wholly inside.
        // SAFETY: no reference into the region is live.
        unsafe { m.release(100, 3 * PAGE) };
        let b = bytes(&m);
        assert!(
            b[..PAGE].iter().all(|&x| x == 0xAB),
            "partial head page kept"
        );
        assert!(
            b[PAGE..3 * PAGE].iter().all(|&x| x == 0),
            "inner pages released"
        );
        assert!(
            b[3 * PAGE..].iter().all(|&x| x == 0xAB),
            "partial tail page kept"
        );
        // A heap region keeps its bytes.
        let h = Region::heap(2 * PAGE);
        // SAFETY: as above.
        unsafe {
            std::ptr::write_bytes(h.as_ptr(), 1, h.size());
            h.release(0, h.size());
        }
        assert!(bytes(&h).iter().all(|&x| x == 1));
    }

    #[test]
    #[should_panic(expected = "inside the region")]
    fn release_outside_the_region_panics() {
        let m = Region::mapped(PAGE).expect("map");
        // SAFETY: panics before touching anything.
        unsafe { m.release(PAGE - 1, 2) };
    }
}
