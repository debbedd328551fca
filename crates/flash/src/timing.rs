//! NAND and controller timing parameters (paper Table 1).

use serde::{Deserialize, Serialize};

use crate::Nanos;

/// Operation latencies in nanoseconds.
///
/// Defaults follow the paper's Table 1 TLC settings: 0.075 ms page read,
/// 2 ms page program, 0.001 ms DRAM cache access. Table 1 does not list the
/// erase latency; we use 3.8 ms, the value SSDsim's TLC configuration ships
/// with (erase time only affects absolute GC cost, not the relative results).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingSpec {
    /// Cell-array read latency for one page.
    pub read_ns: Nanos,
    /// Cell-array program latency for one page.
    pub program_ns: Nanos,
    /// Block erase latency.
    pub erase_ns: Nanos,
    /// One DRAM (mapping-cache / buffer) access.
    pub cache_access_ns: Nanos,
    /// Channel transfer time per full page (ONFI-style bus). Scaled down for
    /// partial-page transfers.
    pub transfer_per_page_ns: Nanos,
}

impl TimingSpec {
    /// Table 1 values (8 KB page).
    pub fn paper_tlc() -> Self {
        TimingSpec {
            read_ns: 75_000,              // 0.075 ms
            program_ns: 2_000_000,        // 2 ms
            erase_ns: 3_800_000,          // 3.8 ms (SSDsim TLC default)
            cache_access_ns: 1_000,       // 0.001 ms
            transfer_per_page_ns: 20_000, // ~8 KB over a 400 MB/s channel
        }
    }

    /// A fast spec for tests where absolute time is irrelevant.
    pub fn unit() -> Self {
        TimingSpec {
            read_ns: 1,
            program_ns: 10,
            erase_ns: 100,
            cache_access_ns: 0,
            transfer_per_page_ns: 0,
        }
    }

    /// Transfer time for moving `bytes` over the channel, proportional to
    /// the full-page transfer time for `page_bytes`-sized pages.
    #[inline]
    pub fn transfer_ns(&self, bytes: u64, page_bytes: u32) -> Nanos {
        let full = self.transfer_per_page_ns;
        if full == 0 || bytes == 0 {
            return 0;
        }
        if bytes == u64::from(page_bytes) {
            return full;
        }
        // Round up so tiny transfers still cost at least 1 ns. The product
        // fits 64 bits for any realistic page; the 128-bit path keeps the
        // result exact beyond that.
        match full.checked_mul(bytes) {
            Some(p) => p.div_ceil(u64::from(page_bytes)),
            None => {
                (u128::from(full) * u128::from(bytes)).div_ceil(u128::from(page_bytes)) as Nanos
            }
        }
    }

    /// Scale the spec for a page size differing from the 8 KB reference
    /// the defaults were specified for. NAND array latency is dominated by
    /// sensing/programming the wordline rather than size, so only the
    /// transfer component scales: `transfer_per_page_ns` is the cost of
    /// moving one *full page* over the channel, so at a constant bus
    /// bandwidth it grows proportionally with the page. An 8 KB (or zero)
    /// argument returns the spec unchanged.
    pub fn for_page_bytes(self, page_bytes: u32) -> Self {
        const REFERENCE_PAGE_BYTES: u32 = 8192;
        if page_bytes == 0 || page_bytes == REFERENCE_PAGE_BYTES {
            return self;
        }
        let scaled = u128::from(self.transfer_per_page_ns) * u128::from(page_bytes)
            / u128::from(REFERENCE_PAGE_BYTES);
        TimingSpec {
            transfer_per_page_ns: scaled as Nanos,
            ..self
        }
    }
}

impl Default for TimingSpec {
    fn default() -> Self {
        Self::paper_tlc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_table1() {
        let t = TimingSpec::paper_tlc();
        assert_eq!(t.read_ns, 75_000);
        assert_eq!(t.program_ns, 2_000_000);
        assert_eq!(t.cache_access_ns, 1_000);
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let t = TimingSpec::paper_tlc();
        let full = t.transfer_ns(8192, 8192);
        assert_eq!(full, t.transfer_per_page_ns);
        let half = t.transfer_ns(4096, 8192);
        assert_eq!(half, t.transfer_per_page_ns / 2);
        assert_eq!(t.transfer_ns(0, 8192), 0);
    }

    #[test]
    fn transfer_rounds_up() {
        let t = TimingSpec::paper_tlc();
        assert!(t.transfer_ns(1, 8192) >= 1);
    }

    #[test]
    fn for_page_bytes_scales_only_transfer() {
        let t = TimingSpec::paper_tlc();
        assert_eq!(t.for_page_bytes(8192), t, "reference size is identity");
        assert_eq!(t.for_page_bytes(0), t, "zero is identity");
        let big = t.for_page_bytes(16384);
        assert_eq!(big.transfer_per_page_ns, 2 * t.transfer_per_page_ns);
        assert_eq!(big.read_ns, t.read_ns, "array latencies untouched");
        assert_eq!(big.program_ns, t.program_ns);
        let small = t.for_page_bytes(4096);
        assert_eq!(small.transfer_per_page_ns, t.transfer_per_page_ns / 2);
        // A full page at any size then costs the same per byte:
        assert_eq!(
            big.transfer_ns(16384, 16384) / 2,
            t.transfer_ns(8192, 8192),
            "constant bus bandwidth across page sizes"
        );
    }

    #[test]
    fn unit_spec_is_cheap() {
        let t = TimingSpec::unit();
        assert_eq!(t.transfer_ns(4096, 8192), 0);
        assert_eq!(t.cache_access_ns, 0);
    }
}
