//! Synthetic enterprise-VDI workload generator, calibrated to the paper's
//! Table 2.
//!
//! ## Model
//!
//! A LUN hosts several **VM disk images** (regions). Guests issue I/O on a
//! 4 KB grid inside their image, but the image file sits at an arbitrary
//! byte offset on the host volume, so every guest access reaches the host
//! block device with a per-image **shift** — exactly the boundary-loss
//! mechanism the paper's §1 describes for VDI. On top of the grid, a slice
//! of the I/O is *sector-granular* (journal/metadata writes inside the
//! image): such requests carry a persistent per-slot sub-grid offset, so
//! they can straddle a page boundary at any page size — which is what makes
//! the across-page ratio decline smoothly from 4 KB to 16 KB pages in the
//! paper's Figure 13.
//!
//! Popularity across images and within each image's hot zone follows Zipf
//! distributions, and the sub-grid offset of a slot is a pure function of
//! the slot, so hot slots are *re-written over the same byte ranges* —
//! the update behaviour that exercises Across-FTL's AMerge and ARollback
//! paths.
//!
//! ## Calibration
//!
//! The across-page ratio is linear in the fraction of misaligned images, so
//! [`VdiSpec::calibrated`] measures short sample traces at the two extreme
//! fractions and solves for the fraction that hits the Table 2 target at
//! 8 KB pages. The six [`LunPreset`]s reproduce Table 2's request count,
//! write ratio, mean write size, and across-page ratio.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::record::{IoOp, IoRecord, Trace};
use crate::synth::zipf::Zipf;

/// A `(size_in_sectors, weight)` pair of the request-size mixture.
pub type SizeWeight = (u32, f64);

/// Full parameter set for one synthetic LUN.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VdiSpec {
    /// Trace name the generated workload carries.
    pub name: String,
    /// Number of requests to generate.
    pub requests: u64,
    /// Fraction of requests that are writes (Table 2 "Write R").
    pub write_ratio: f64,
    /// Logical footprint of the LUN in bytes.
    pub lun_bytes: u64,
    /// Number of VM disk images sharing the LUN.
    pub regions: u32,
    /// Fraction of images whose host shift is *not* a grid multiple.
    pub misaligned_fraction: f64,
    /// Guest I/O grid in sectors (8 = 4 KB guests, 16 = 8 KB guests).
    pub guest_grid_sectors: u64,
    /// Fraction of slots whose I/O is sector-granular (journal/metadata),
    /// carrying a persistent sub-grid offset.
    pub grain_prob: f64,
    /// Fraction of slots whose *reads* take an extra persistent sub-grid
    /// offset (partial-object reads / journal scans) — this is what skews
    /// the across-page population toward reads.
    pub read_grain_prob: f64,
    /// Zipf skew across images.
    pub region_theta: f64,
    /// Fraction of each image that forms its hot zone.
    pub hot_fraction: f64,
    /// Probability an access targets the hot zone.
    pub hot_access_prob: f64,
    /// Zipf skew across hot-zone slots (drives re-access/updates).
    pub hot_theta: f64,
    /// Request-size mixture in sectors (shared by reads and writes).
    pub size_weights: Vec<SizeWeight>,
    /// Mean exponential inter-arrival time in nanoseconds.
    pub mean_iat_ns: u64,
    /// RNG seed — generation is fully deterministic given the spec.
    pub seed: u64,
}

impl VdiSpec {
    /// Construct a spec whose realised across-page ratio at 8 KB pages is
    /// `target_across`, solving for the misaligned-image fraction from two
    /// short sample measurements (the ratio is linear in the fraction).
    /// Unreachable targets are clamped to the nearest extreme.
    #[allow(clippy::too_many_arguments)]
    pub fn calibrated(
        name: impl Into<String>,
        requests: u64,
        write_ratio: f64,
        size_weights: Vec<SizeWeight>,
        grain_prob: f64,
        read_grain_prob: f64,
        guest_grid_sectors: u64,
        target_across: f64,
        seed: u64,
    ) -> VdiSpec {
        let mut spec = VdiSpec {
            name: name.into(),
            requests,
            write_ratio,
            lun_bytes: 4 << 30, // 4 GiB footprint per LUN
            regions: 64,
            misaligned_fraction: 0.0,
            guest_grid_sectors,
            grain_prob,
            read_grain_prob,
            region_theta: 0.9,
            hot_fraction: 0.05,
            hot_access_prob: 0.45,
            hot_theta: 0.99,
            size_weights,
            mean_iat_ns: 2_200_000, // 2.2 ms mean inter-arrival
            seed,
        };
        // The realised ratio is (nearly) linear in the misaligned fraction:
        // anchor at the extremes, then refine with secant steps against
        // short sample measurements until the residual bias (from hot-zone
        // skew and grain hashing) is calibrated away.
        let measure = |f: f64| {
            let mut s = spec.clone();
            s.misaligned_fraction = f;
            measured_across(&s)
        };
        let m0 = measure(0.0);
        let m1 = measure(1.0);
        if (m1 - m0).abs() < 1e-9 {
            return spec; // fraction has no effect (e.g. all sizes > page)
        }
        let mut f = ((target_across - m0) / (m1 - m0)).clamp(0.0, 1.0);
        let (mut f_prev, mut m_prev) = (0.0, m0);
        for _ in 0..6 {
            let m = measure(f);
            if (m - target_across).abs() < 0.004 || (m - m_prev).abs() < 1e-9 {
                break;
            }
            let slope = (m - m_prev) / (f - f_prev);
            (f_prev, m_prev) = (f, m);
            f = (f + (target_across - m) / slope).clamp(0.0, 1.0);
        }
        spec.misaligned_fraction = f;
        spec
    }
}

/// Across-page ratio of a short sample generated from `spec` (40 k
/// requests), used for calibration.
fn measured_across(spec: &VdiSpec) -> f64 {
    let mut sample = spec.clone();
    sample.requests = 40_000;
    let trace = VdiWorkload::new(sample).generate();
    let spp = 16; // the calibration target is defined at 8 KB pages
    let across = trace
        .records
        .iter()
        .filter(|r| r.is_across_page(spp))
        .count();
    across as f64 / trace.len() as f64
}

/// Build a request-size mixture whose mean is `mean_kib`, interpolating
/// between a small-I/O-dominated profile and a large-tail profile. Valid
/// for means in roughly 7.5–20 KiB (the Table 2 range is 7.6–11.3).
pub fn mixture_for_mean(mean_kib: f64) -> Vec<SizeWeight> {
    // Sizes in sectors: 1 KiB … 128 KiB.
    const SIZES: [u32; 8] = [2, 4, 8, 16, 32, 64, 128, 256];
    // Lean profile: mostly ≤4 KiB requests with a thin large tail.
    const W_LO: [f64; 8] = [0.11, 0.15, 0.56, 0.07, 0.05, 0.03, 0.02, 0.01];
    // Tail-heavy profile.
    const W_HI: [f64; 8] = [0.08, 0.11, 0.42, 0.07, 0.08, 0.08, 0.10, 0.06];
    let mean = |w: &[f64; 8]| -> f64 {
        SIZES
            .iter()
            .zip(w)
            .map(|(&z, &wt)| wt * f64::from(z) / 2.0)
            .sum()
    };
    let (m_lo, m_hi) = (mean(&W_LO), mean(&W_HI));
    let t = ((mean_kib - m_lo) / (m_hi - m_lo)).clamp(0.0, 1.0);
    SIZES
        .iter()
        .zip(W_LO.iter().zip(W_HI))
        .map(|(&z, (&lo, hi))| (z, (1.0 - t) * lo + t * hi))
        .collect()
}

/// The paper's six evaluation traces (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LunPreset {
    /// Table 2 row 1 (highest across-page ratio).
    Lun1,
    /// Table 2 row 2.
    Lun2,
    /// Table 2 row 3.
    Lun3,
    /// Table 2 row 4.
    Lun4,
    /// Table 2 row 5.
    Lun5,
    /// Table 2 row 6 (smallest trace).
    Lun6,
}

impl LunPreset {
    /// All six presets in Table 2 order.
    pub const ALL: [LunPreset; 6] = [
        LunPreset::Lun1,
        LunPreset::Lun2,
        LunPreset::Lun3,
        LunPreset::Lun4,
        LunPreset::Lun5,
        LunPreset::Lun6,
    ];

    /// The preset's short label ("lun1"…"lun6").
    pub fn name(self) -> &'static str {
        match self {
            LunPreset::Lun1 => "lun1",
            LunPreset::Lun2 => "lun2",
            LunPreset::Lun3 => "lun3",
            LunPreset::Lun4 => "lun4",
            LunPreset::Lun5 => "lun5",
            LunPreset::Lun6 => "lun6",
        }
    }

    /// Table 2 targets: (requests, write ratio, mean write KiB, across R).
    pub fn table2_targets(self) -> (u64, f64, f64, f64) {
        match self {
            LunPreset::Lun1 => (749_806, 0.615, 8.9, 0.247),
            LunPreset::Lun2 => (867_967, 0.528, 11.3, 0.164),
            LunPreset::Lun3 => (672_580, 0.506, 8.6, 0.234),
            LunPreset::Lun4 => (824_068, 0.454, 11.2, 0.187),
            LunPreset::Lun5 => (639_558, 0.411, 9.2, 0.235),
            LunPreset::Lun6 => (633_234, 0.347, 7.6, 0.275),
        }
    }

    /// Build the calibrated spec for this preset, scaling the request count
    /// by `scale` (1.0 = the paper's full trace length).
    pub fn spec(self, scale: f64) -> VdiSpec {
        let (requests, write_ratio, wsz, across) = self.table2_targets();
        let n = ((requests as f64 * scale).round() as u64).max(1);
        VdiSpec::calibrated(
            self.name(),
            n,
            write_ratio,
            mixture_for_mean(wsz),
            0.12, // sector-granular share of (write-side) slots
            0.70, // read-side sub-grid scan share
            8,    // 4 KB guests
            across,
            // Distinct, stable seeds per lun.
            0xAC05_5000 + self as u64,
        )
    }

    /// Generate the trace at full length.
    pub fn generate(self) -> Trace {
        VdiWorkload::new(self.spec(1.0)).generate()
    }

    /// Generate a shortened trace (for tests and quick runs).
    pub fn generate_scaled(self, scale: f64) -> Trace {
        VdiWorkload::new(self.spec(scale)).generate()
    }
}

/// Per-region generation state.
struct Region {
    /// First host sector of the image (grid-aligned before shift).
    base_sector: u64,
    /// Shift in sectors (0 for aligned images).
    shift_sectors: u64,
    /// Number of grid slots usable by guest I/O.
    slots: u64,
    /// Number of slots in the hot zone.
    hot_slots: u64,
    /// Salt for per-slot grain hashing.
    salt: u64,
}

/// The generator: deterministic given its [`VdiSpec`].
pub struct VdiWorkload {
    spec: VdiSpec,
}

impl VdiWorkload {
    /// A generator for `spec`; panics on a degenerate parameter set.
    pub fn new(spec: VdiSpec) -> Self {
        assert!(spec.regions > 0, "need at least one region");
        assert!(!spec.size_weights.is_empty(), "need a size mixture");
        assert!(spec.guest_grid_sectors.is_power_of_two());
        VdiWorkload { spec }
    }

    /// The parameter set this generator was built with.
    pub fn spec(&self) -> &VdiSpec {
        &self.spec
    }

    /// Generate the trace.
    pub fn generate(&self) -> Trace {
        let spec = &self.spec;
        let grid = spec.guest_grid_sectors;
        let mut rng = SmallRng::seed_from_u64(spec.seed);

        let region_sectors = (spec.lun_bytes / u64::from(spec.regions)) / 512 / grid * grid;
        let max_size_sectors = spec
            .size_weights
            .iter()
            .map(|&(z, _)| u64::from(z))
            .max()
            .expect("non-empty mixture");

        let region_zipf = Zipf::new(spec.regions as usize, spec.region_theta);

        // Assign shifts so the *access-weighted* misaligned fraction tracks
        // the target under Zipf skew: spread the misaligned marks over the
        // popularity ranks proportionally to each rank's probability mass.
        let f = spec.misaligned_fraction;
        let mut achieved = 0.0;
        let mut cum = 0.0;
        let regions: Vec<Region> = (0..spec.regions)
            .map(|rank| {
                let mass = region_zipf.pmf(rank as usize);
                cum += mass;
                let misaligned = f * cum - achieved >= mass / 2.0;
                if misaligned {
                    achieved += mass;
                }
                let shift_sectors = if misaligned {
                    rng.random_range(1..grid)
                } else {
                    0
                };
                // Keep the last request inside the region: reserve the tail.
                let usable = region_sectors.saturating_sub(shift_sectors + max_size_sectors + grid);
                let slots = (usable / grid).max(1);
                let hot_slots = ((slots as f64 * spec.hot_fraction) as u64).max(1);
                Region {
                    base_sector: u64::from(rank) * region_sectors,
                    shift_sectors,
                    slots,
                    hot_slots,
                    salt: rng.random(),
                }
            })
            .collect();

        // One hot-slot sampler sized for the largest hot zone; per-region we
        // take the sample modulo that region's hot-slot count.
        let max_hot = regions.iter().map(|r| r.hot_slots).max().unwrap_or(1);
        let hot_zipf = Zipf::new(max_hot as usize, spec.hot_theta);

        let (sizes, size_cdf) = build_size_cdf(&spec.size_weights);
        // grain probabilities as u64 thresholds for the per-slot hashes.
        let grain_threshold = (spec.grain_prob * u64::MAX as f64) as u64;
        let read_grain_threshold = (spec.read_grain_prob * u64::MAX as f64) as u64;

        let mut records = Vec::with_capacity(spec.requests as usize);
        let mut t_ns = 0u64;
        for _ in 0..spec.requests {
            // Exponential inter-arrival.
            let u: f64 = rng.random::<f64>().max(1e-12);
            t_ns += (-(u.ln()) * spec.mean_iat_ns as f64) as u64;

            let op = if rng.random::<f64>() < spec.write_ratio {
                IoOp::Write
            } else {
                IoOp::Read
            };
            let region = &regions[region_zipf.sample(&mut rng)];
            // Draw a size, but mostly reuse the slot's persistent size —
            // the same object tends to be rewritten with the same I/O size,
            // so updates of an across-page range usually re-cover exactly
            // that range (the paper's profitable-AMerge case).
            let drawn = sample_size(&sizes, &size_cdf, &mut rng);
            let slot = if rng.random::<f64>() < spec.hot_access_prob {
                // Hot slots are scattered over the whole image (hash-
                // permuted ranks): a contiguous hot range would make
                // neighbouring across-page areas collide on their shared
                // LPN far more often than real workloads do.
                let rank = (hot_zipf.sample(&mut rng) as u64) % region.hot_slots;
                splitmix64(region.salt ^ 0x486F_7453 ^ rank) % region.slots
            } else {
                rng.random_range(0..region.slots)
            };
            // Sector-granular slots carry a persistent sub-grid offset, so
            // re-accesses hit the same byte range (updates overlap exactly).
            let h = splitmix64(region.salt ^ slot);
            let grain = if h < grain_threshold {
                splitmix64(h) % grid
            } else {
                0
            };
            let size = if splitmix64(h ^ 0x512E) % 10 < 8 {
                let u = (splitmix64(h ^ 0xCDF) % (1 << 20)) as f64 / (1u64 << 20) as f64;
                pick_size(&sizes, &size_cdf, u)
            } else {
                drawn
            };
            // Reads scan at finer granularity than writes (partial-object
            // reads, journal scans): half of them take an extra sub-grid
            // offset. This skews the across-page population toward reads,
            // as the paper's VDI traces exhibit.
            let read_grain = if op == IoOp::Read && splitmix64(h ^ 0x5CA4) < read_grain_threshold {
                splitmix64(h ^ 0x0FF5) % grid
            } else {
                0
            };
            let sector =
                region.base_sector + region.shift_sectors + slot * grid + grain + read_grain;
            records.push(IoRecord {
                at_ns: t_ns,
                sector,
                sectors: size,
                op,
            });
        }
        Trace::new(spec.name.clone(), records)
    }
}

/// SplitMix64 — cheap, well-distributed stateless hash for per-slot grains.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn build_size_cdf(weights: &[SizeWeight]) -> (Vec<u32>, Vec<f64>) {
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    let mut sizes = Vec::with_capacity(weights.len());
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for &(z, w) in weights {
        acc += w / total;
        sizes.push(z);
        cdf.push(acc);
    }
    *cdf.last_mut().expect("non-empty") = 1.0;
    (sizes, cdf)
}

fn sample_size<R: Rng + ?Sized>(sizes: &[u32], cdf: &[f64], rng: &mut R) -> u32 {
    pick_size(sizes, cdf, rng.random())
}

fn pick_size(sizes: &[u32], cdf: &[f64], u: f64) -> u32 {
    let i = cdf.partition_point(|&c| c < u).min(sizes.len() - 1);
    sizes[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn mixture_mean_matches_request() {
        for target in [7.6, 8.9, 9.2, 11.3] {
            let m = mixture_for_mean(target);
            let total: f64 = m.iter().map(|(_, w)| w).sum();
            let mean: f64 = m.iter().map(|&(z, w)| w * f64::from(z) / 2.0).sum::<f64>() / total;
            assert!((mean - target).abs() < 0.05, "target {target} got {mean}");
        }
    }

    #[test]
    fn mixture_clamps_out_of_range_means() {
        let lo = mixture_for_mean(1.0);
        let hi = mixture_for_mean(100.0);
        assert!(lo.iter().map(|(_, w)| w).sum::<f64>() > 0.99);
        assert!(hi.iter().map(|(_, w)| w).sum::<f64>() > 0.99);
    }

    #[test]
    fn generated_trace_is_deterministic() {
        let spec = LunPreset::Lun1.spec(0.01);
        let a = VdiWorkload::new(spec.clone()).generate();
        let b = VdiWorkload::new(spec).generate();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn timestamps_are_monotone() {
        let t = LunPreset::Lun3.generate_scaled(0.01);
        assert!(t.records.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn table2_calibration_lun1() {
        check_preset(LunPreset::Lun1);
    }

    #[test]
    fn table2_calibration_lun2() {
        check_preset(LunPreset::Lun2);
    }

    #[test]
    fn table2_calibration_lun3() {
        check_preset(LunPreset::Lun3);
    }

    #[test]
    fn table2_calibration_lun4() {
        check_preset(LunPreset::Lun4);
    }

    #[test]
    fn table2_calibration_lun5() {
        check_preset(LunPreset::Lun5);
    }

    #[test]
    fn table2_calibration_lun6() {
        check_preset(LunPreset::Lun6);
    }

    /// Generated traces must match Table 2 within sampling tolerance:
    /// ±0.015 absolute on ratios, ±0.6 KiB on the mean write size.
    fn check_preset(preset: LunPreset) {
        let (_, write_ratio, write_kib, across) = preset.table2_targets();
        let t = preset.generate_scaled(0.1); // ~60–90 k requests
        let s = TraceStats::compute(&t.records, 8192, 512);
        assert!(
            (s.write_ratio() - write_ratio).abs() < 0.015,
            "{}: write ratio {} vs target {}",
            preset.name(),
            s.write_ratio(),
            write_ratio
        );
        assert!(
            (s.across_ratio() - across).abs() < 0.015,
            "{}: across ratio {} vs target {}",
            preset.name(),
            s.across_ratio(),
            across
        );
        assert!(
            (s.avg_write_kib() - write_kib).abs() < 0.6,
            "{}: write size {} KiB vs target {}",
            preset.name(),
            s.avg_write_kib(),
            write_kib
        );
    }

    #[test]
    fn across_ratio_decreases_with_page_size() {
        // Figure 13's qualitative claim must hold on generated traces.
        for preset in LunPreset::ALL {
            let t = preset.generate_scaled(0.05);
            let s4 = TraceStats::compute(&t.records, 4096, 512);
            let s8 = TraceStats::compute(&t.records, 8192, 512);
            let s16 = TraceStats::compute(&t.records, 16384, 512);
            assert!(
                s4.across_ratio() > s8.across_ratio(),
                "{}: 4K {} vs 8K {}",
                preset.name(),
                s4.across_ratio(),
                s8.across_ratio()
            );
            assert!(
                s8.across_ratio() > s16.across_ratio(),
                "{}: 8K {} vs 16K {}",
                preset.name(),
                s8.across_ratio(),
                s16.across_ratio()
            );
        }
    }

    #[test]
    fn footprint_stays_within_lun() {
        let spec = LunPreset::Lun6.spec(0.02);
        let lun_sectors = spec.lun_bytes / 512;
        let t = VdiWorkload::new(spec).generate();
        assert!(t.max_sector_end() <= lun_sectors);
    }

    #[test]
    fn hot_zone_produces_page_level_reaccesses() {
        let t = LunPreset::Lun1.generate_scaled(0.02);
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0usize;
        for r in &t.records {
            if !seen.insert(r.first_lpn(16)) {
                repeats += 1;
            }
        }
        let ratio = repeats as f64 / t.len() as f64;
        assert!(ratio > 0.18, "expected substantial re-access, got {ratio}");
    }

    #[test]
    fn grain_offsets_are_persistent_per_slot() {
        // Requests that revisit a slot must start at the identical sector —
        // otherwise updates would never overlap exactly and AMerge would
        // starve.
        let t = LunPreset::Lun1.generate_scaled(0.05);
        let mut starts = std::collections::HashSet::new();
        for r in &t.records {
            starts.insert(r.sector);
        }
        // Far fewer distinct starts than requests ⇒ persistent offsets.
        assert!((starts.len() as f64) < 0.82 * t.len() as f64);
    }

    #[test]
    fn splitmix_is_stable() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
