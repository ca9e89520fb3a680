//! Page-level facts about host memory, and the one call that asks the
//! kernel how to back a range of it.
//!
//! A large state comes lazily zeroed from the allocator: the kernel maps
//! each page on its first touch. [`advise_huge`] lets a caller that is
//! about to write a whole 2 MiB-aligned range have it mapped as one huge
//! page — one fault instead of 512 — on hosts whose transparent huge
//! pages are in `madvise` (or `always`) mode.

/// Bytes in a base page as the workspace counts them: the stride at which
/// a first write reaches every page. A host with larger pages is touched
/// more often than it needs, never less.
pub const PAGE: usize = 4 << 10;

/// Bytes in a transparent huge page.
pub const HUGE_PAGE: usize = 2 << 20;

/// Asks the kernel to back `region` with huge pages (`MADV_HUGEPAGE`).
///
/// Only a hint: the contents and validity of `region` do not change, and
/// whatever the kernel answers — THP `never`, an unaligned or unmapped
/// range, another OS, where this is a no-op — is ignored. The region
/// must start and end on a [`HUGE_PAGE`] boundary (debug-asserted); it
/// is `&mut` because the caller is about to write all of it.
pub fn advise_huge<T>(region: &mut [T]) {
    let len = std::mem::size_of_val(region);
    debug_assert!(
        (region.as_ptr() as usize).is_multiple_of(HUGE_PAGE) && len.is_multiple_of(HUGE_PAGE),
        "a huge-page region starts and ends on a 2 MiB boundary"
    );
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
        }
        const MADV_HUGEPAGE: i32 = 14;
        // SAFETY: `region` is memory this process holds exclusively for
        // the call; the advice never changes its contents or validity.
        unsafe { madvise(region.as_mut_ptr().cast(), len, MADV_HUGEPAGE) };
    }
}
