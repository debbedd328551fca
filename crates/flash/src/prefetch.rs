//! A software prefetch hint: the simulator knows which table entries the
//! next few requests will touch before it serves them, so the replay and
//! aging loops ask the CPU to start those loads early (DESIGN.md §9).

/// Ask the CPU to pull the cache line holding `*r` into L1. A hint only:
/// it changes no value, and on a target other than x86_64 it does nothing.
#[inline(always)]
pub fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `r` is a live reference, so the address is valid; and a
    // prefetch never faults and has no architectural effect, whatever the
    // address — it only warms a cache.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}
