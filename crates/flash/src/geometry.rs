//! SSD geometry: the channel → chip → die → plane → block → page hierarchy
//! and the linearisation between physical page numbers (PPNs) and
//! structured [`PageAddr`]s.

use serde::{Deserialize, Serialize};

use crate::error::FlashError;

/// A linear physical page number.
///
/// PPNs enumerate pages *plane-major*: all pages of plane 0's block 0 come
/// first, then block 1, …; planes are themselves enumerated channel-first so
/// that consecutive plane indices stripe across channels (the order the
/// dynamic allocator uses for striping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Ppn(pub u64);

impl Ppn {
    /// Sentinel for "unmapped" used by dense mapping tables.
    pub const INVALID: Ppn = Ppn(u64::MAX);

    /// Whether this PPN is the unmapped sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

impl std::fmt::Display for Ppn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PPN#{}", self.0)
    }
}

/// A structured physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageAddr {
    /// Channel index.
    pub channel: u32,
    /// Chip index within the channel.
    pub chip: u32,
    /// Die index within the chip.
    pub die: u32,
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

/// Static shape of the simulated SSD.
///
/// The paper's Table 1 configuration (262 144 blocks, 64 pages/block, 8 KB
/// pages) is available as [`Geometry::paper_default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Geometry {
    /// Independent flash channels.
    pub channels: u32,
    /// Chips sharing each channel's bus.
    pub chips_per_channel: u32,
    /// Dies per chip.
    pub dies_per_chip: u32,
    /// Planes per die.
    pub planes_per_die: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Flash page size in bytes (4096 / 8192 / 16384 in the paper).
    pub page_bytes: u32,
    /// Host sector size in bytes; the paper (and all trace formats) use 512.
    pub sector_bytes: u32,
}

impl Geometry {
    /// The paper's Table 1 shape: 8 channels × 4 chips × 2 dies × 2 planes
    /// × 2048 blocks = 262 144 blocks; 64 pages of 8 KB per block (128 GiB).
    pub fn paper_default() -> Self {
        Geometry {
            channels: 8,
            chips_per_channel: 4,
            dies_per_chip: 2,
            planes_per_die: 2,
            blocks_per_plane: 2048,
            pages_per_block: 64,
            page_bytes: 8192,
            sector_bytes: 512,
        }
    }

    /// A small shape for unit tests: 2×2×1×1×16 blocks × 8 pages × 4 KB.
    pub fn tiny() -> Self {
        Geometry {
            channels: 2,
            chips_per_channel: 2,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 16,
            pages_per_block: 8,
            page_bytes: 4096,
            sector_bytes: 512,
        }
    }

    /// Validate invariants (non-zero dimensions, page a multiple of sector).
    pub fn validate(&self) -> Result<(), FlashError> {
        let dims = [
            self.channels,
            self.chips_per_channel,
            self.dies_per_chip,
            self.planes_per_die,
            self.blocks_per_plane,
            self.pages_per_block,
            self.page_bytes,
            self.sector_bytes,
        ];
        if dims.contains(&0) {
            return Err(FlashError::BadGeometry("zero-sized dimension"));
        }
        if !self.page_bytes.is_multiple_of(self.sector_bytes) {
            return Err(FlashError::BadGeometry(
                "page size must be a multiple of the sector size",
            ));
        }
        if !self.page_bytes.is_power_of_two() || !self.sector_bytes.is_power_of_two() {
            return Err(FlashError::BadGeometry(
                "page and sector sizes must be powers of two",
            ));
        }
        Ok(())
    }

    /// Sectors per flash page. Both sizes are powers of two
    /// ([`Geometry::validate`]), so this is a shift, not a division: the
    /// host paths ask for it on every request.
    #[inline]
    pub fn sectors_per_page(&self) -> u32 {
        let spp = self.page_bytes >> self.sector_bytes.trailing_zeros();
        debug_assert_eq!(spp, self.page_bytes / self.sector_bytes);
        spp
    }

    /// Total planes in the device.
    #[inline]
    pub fn total_planes(&self) -> u64 {
        u64::from(self.channels)
            * u64::from(self.chips_per_channel)
            * u64::from(self.dies_per_chip)
            * u64::from(self.planes_per_die)
    }

    /// Total physical blocks.
    #[inline]
    pub fn total_blocks(&self) -> u64 {
        self.total_planes() * u64::from(self.blocks_per_plane)
    }

    /// Total physical pages.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * u64::from(self.pages_per_block)
    }

    /// Raw capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * u64::from(self.page_bytes)
    }

    /// Pages per plane.
    #[inline]
    pub fn pages_per_plane(&self) -> u64 {
        u64::from(self.blocks_per_plane) * u64::from(self.pages_per_block)
    }

    /// Total chips (the unit owning an operation timeline).
    #[inline]
    pub fn total_chips(&self) -> u64 {
        u64::from(self.channels) * u64::from(self.chips_per_channel)
    }

    /// Linear plane index with channel-first striping: consecutive indices
    /// visit different channels before revisiting one.
    #[inline]
    pub fn plane_index(&self, channel: u32, chip: u32, die: u32, plane: u32) -> u64 {
        // Order: plane-of-die slowest … channel fastest, so that
        // plane_index % channels == channel.
        ((u64::from(plane) * u64::from(self.dies_per_chip) + u64::from(die))
            * u64::from(self.chips_per_channel)
            + u64::from(chip))
            * u64::from(self.channels)
            + u64::from(channel)
    }

    /// Decompose a linear plane index produced by [`Self::plane_index`].
    #[inline]
    pub fn plane_addr(&self, plane_idx: u64) -> (u32, u32, u32, u32) {
        let channel = (plane_idx % u64::from(self.channels)) as u32;
        let rest = plane_idx / u64::from(self.channels);
        let chip = (rest % u64::from(self.chips_per_channel)) as u32;
        let rest = rest / u64::from(self.chips_per_channel);
        let die = (rest % u64::from(self.dies_per_chip)) as u32;
        let plane = (rest / u64::from(self.dies_per_chip)) as u32;
        (channel, chip, die, plane)
    }

    /// Compose a PPN from a structured address.
    pub fn ppn(&self, addr: PageAddr) -> Ppn {
        debug_assert!(addr.channel < self.channels);
        debug_assert!(addr.chip < self.chips_per_channel);
        debug_assert!(addr.die < self.dies_per_chip);
        debug_assert!(addr.plane < self.planes_per_die);
        debug_assert!(addr.block < self.blocks_per_plane);
        debug_assert!(addr.page < self.pages_per_block);
        let plane_idx = self.plane_index(addr.channel, addr.chip, addr.die, addr.plane);
        Ppn(
            (plane_idx * u64::from(self.blocks_per_plane) + u64::from(addr.block))
                * u64::from(self.pages_per_block)
                + u64::from(addr.page),
        )
    }

    /// Decompose a PPN into a structured address.
    pub fn page_addr(&self, ppn: Ppn) -> PageAddr {
        debug_assert!(ppn.0 < self.total_pages(), "PPN {ppn} out of range");
        let page = (ppn.0 % u64::from(self.pages_per_block)) as u32;
        let block_linear = ppn.0 / u64::from(self.pages_per_block);
        let block = (block_linear % u64::from(self.blocks_per_plane)) as u32;
        let plane_idx = block_linear / u64::from(self.blocks_per_plane);
        let (channel, chip, die, plane) = self.plane_addr(plane_idx);
        PageAddr {
            channel,
            chip,
            die,
            plane,
            block,
            page,
        }
    }

    /// The channel index a PPN's transfers serialise on.
    #[inline]
    pub fn channel_index_of(&self, ppn: Ppn) -> u32 {
        self.page_addr(ppn).channel
    }
}

/// Builder for [`Geometry`] starting from the paper defaults.
#[derive(Debug, Clone)]
pub struct GeometryBuilder {
    geo: Geometry,
}

impl Default for GeometryBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GeometryBuilder {
    /// Start from [`Geometry::paper_default`] and override dimensions.
    pub fn new() -> Self {
        GeometryBuilder {
            geo: Geometry::paper_default(),
        }
    }

    /// Set the channel count.
    pub fn channels(mut self, n: u32) -> Self {
        self.geo.channels = n;
        self
    }

    /// Set the chips per channel.
    pub fn chips_per_channel(mut self, n: u32) -> Self {
        self.geo.chips_per_channel = n;
        self
    }

    /// Set the dies per chip.
    pub fn dies_per_chip(mut self, n: u32) -> Self {
        self.geo.dies_per_chip = n;
        self
    }

    /// Set the planes per die.
    pub fn planes_per_die(mut self, n: u32) -> Self {
        self.geo.planes_per_die = n;
        self
    }

    /// Set the blocks per plane.
    pub fn blocks_per_plane(mut self, n: u32) -> Self {
        self.geo.blocks_per_plane = n;
        self
    }

    /// Set the pages per block.
    pub fn pages_per_block(mut self, n: u32) -> Self {
        self.geo.pages_per_block = n;
        self
    }

    /// Set the flash page size in bytes.
    pub fn page_bytes(mut self, n: u32) -> Self {
        self.geo.page_bytes = n;
        self
    }

    /// Validate the dimensions and hand back the finished geometry.
    pub fn build(self) -> Result<Geometry, FlashError> {
        self.geo.validate()?;
        Ok(self.geo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let g = Geometry::paper_default();
        g.validate().unwrap();
        assert_eq!(g.total_blocks(), 262_144);
        assert_eq!(g.pages_per_block, 64);
        assert_eq!(g.page_bytes, 8192);
        assert_eq!(g.sectors_per_page(), 16);
        // 128 GiB raw capacity.
        assert_eq!(g.capacity_bytes(), 262_144u64 * 64 * 8192);
    }

    #[test]
    fn ppn_roundtrip_exhaustive_on_tiny() {
        let g = Geometry::tiny();
        for p in 0..g.total_pages() {
            let addr = g.page_addr(Ppn(p));
            assert_eq!(g.ppn(addr), Ppn(p));
        }
    }

    #[test]
    fn plane_index_roundtrip() {
        let g = Geometry::paper_default();
        for idx in 0..g.total_planes() {
            let (c, h, d, p) = g.plane_addr(idx);
            assert_eq!(g.plane_index(c, h, d, p), idx);
        }
    }

    #[test]
    fn consecutive_planes_stripe_channels() {
        let g = Geometry::paper_default();
        let (c0, ..) = g.plane_addr(0);
        let (c1, ..) = g.plane_addr(1);
        let (c2, ..) = g.plane_addr(2);
        assert_eq!(c0, 0);
        assert_eq!(c1, 1);
        assert_eq!(c2, 2);
    }

    #[test]
    fn geometry_validation_rejects_bad_shapes() {
        let mut g = Geometry::tiny();
        g.page_bytes = 3000;
        assert!(g.validate().is_err());
        let mut g = Geometry::tiny();
        g.channels = 0;
        assert!(g.validate().is_err());
        let mut g = Geometry::tiny();
        g.sector_bytes = 500;
        assert!(g.validate().is_err());
    }

    #[test]
    fn sectors_per_page_divides_every_valid_shape() {
        let mut valid = 0;
        for page in 0..32 {
            for sector in 0..32 {
                let g = Geometry {
                    page_bytes: 1 << page,
                    sector_bytes: 1 << sector,
                    ..Geometry::tiny()
                };
                if g.validate().is_ok() {
                    assert_eq!(g.sectors_per_page(), g.page_bytes / g.sector_bytes, "{g:?}");
                    valid += 1;
                }
            }
        }
        assert_eq!(
            valid,
            32 * 33 / 2,
            "every power-of-two sector up to the page"
        );
    }

    #[test]
    fn builder_overrides_fields() {
        let g = GeometryBuilder::new()
            .channels(4)
            .page_bytes(4096)
            .build()
            .unwrap();
        assert_eq!(g.channels, 4);
        assert_eq!(g.page_bytes, 4096);
        assert_eq!(
            g.chips_per_channel,
            Geometry::paper_default().chips_per_channel
        );
    }

    #[test]
    fn invalid_ppn_sentinel() {
        assert!(!Ppn::INVALID.is_valid());
        assert!(Ppn(0).is_valid());
    }
}
