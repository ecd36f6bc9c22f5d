//! The benchmark's global allocator: the system allocator, with every
//! block of a page or more aligned to a cache line.
//!
//! glibc aligns to 16 bytes, and the program's AVX2 kernels load 32
//! bytes at a time from rows whose stride (8760 × 8) is a multiple of
//! 32. So a matrix that `malloc` happens to place at 16 mod 32 has every
//! other load straddle two cache lines, and `top_k_matrix` on it runs
//! 28 % slower than on one placed at 0 mod 32 (0.173 s against 0.135 s
//! at n = 384, alternating with every 16 bytes of offset). Which of the
//! two a run gets depends on everything allocated before — the seed's
//! file sizes, the length of the `--out` path — so without this the
//! same code reads 0.061 s or 0.078 s for minutes on end and flips when
//! nothing of the program changed. Aligning the large blocks takes the
//! coin toss out; small blocks are left to `malloc`, whose speed the
//! serve and ingest paths depend on.

use std::alloc::{GlobalAlloc, Layout, System};

/// Blocks of at least this many bytes are aligned to [`LINE`].
pub const LARGE: usize = 4096;

/// A cache line, and a multiple of the widest vector load.
pub const LINE: usize = 64;

/// The layout a request is served with.
fn served(layout: Layout) -> Layout {
    if layout.size() >= LARGE && layout.align() < LINE {
        // SAFETY: LINE is a power of two, and a size that was valid at
        // a smaller alignment stays below `isize::MAX` rounded to LINE
        // for any block that can exist.
        unsafe { Layout::from_size_align_unchecked(layout.size(), LINE) }
    } else {
        layout
    }
}

pub struct LineAligned;

// SAFETY: every block is obtained from and returned to `System` with the
// layout `served` gives for the caller's layout, which depends on the
// caller's layout alone; `realloc` moves a block by hand when growing or
// shrinking changes the alignment it is served with.
unsafe impl GlobalAlloc for LineAligned {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(served(layout))
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        System.alloc_zeroed(served(layout))
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, served(layout))
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = Layout::from_size_align_unchecked(new_size, layout.align());
        if served(layout).align() == served(new).align() {
            return System.realloc(ptr, served(layout), new_size);
        }
        let moved = self.alloc(new);
        if !moved.is_null() {
            std::ptr::copy_nonoverlapping(ptr, moved, layout.size().min(new_size));
            self.dealloc(ptr, layout);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_blocks_are_line_aligned_through_growth_and_shrinking() {
        // The test binary links the allocator too (`lib.rs`).
        for n in [LARGE / 8, 8760, 384 * 8760] {
            let v = vec![1.0f64; n];
            assert_eq!(v.as_ptr() as usize % LINE, 0, "{n} doubles");
        }
        // Across the threshold both ways, contents kept.
        let mut v: Vec<u8> = (0..100).collect();
        v.reserve_exact(3 * LARGE);
        assert_eq!(v.as_ptr() as usize % LINE, 0);
        assert!(v.iter().copied().eq(0..100));
        v.shrink_to_fit();
        assert!(v.iter().copied().eq(0..100));
        v.extend(std::iter::repeat(7).take(2 * LARGE));
        assert_eq!(v.as_ptr() as usize % LINE, 0);
        assert_eq!((v[99], v[100], v.len()), (99, 7, 100 + 2 * LARGE));
    }
}
