//! SSD aging (§4.1): before measurement the device is filled so ~90 % of
//! its capacity has been programmed and ~39.8 % holds valid data. We first
//! write a footprint of distinct logical pages sequentially (these stay
//! valid), then overwrite uniformly inside that footprint until the
//! used-capacity target is reached (the overwrites create the invalid-page
//! population GC will reclaim during the measured run).

use aftl_core::request::HostRequest;
use aftl_flash::{FlashError, Result};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::config::WarmupConfig;
use crate::ssd::{Ssd, PREFETCH_AHEAD};

/// LPNs the overwrite pass draws ahead of the one it writes, so
/// [`Ssd::prefetch`] can see them: at least the far stage's distance.
const DRAWN_AHEAD: usize = 16;
const _: () = assert!(PREFETCH_AHEAD[0].0 <= DRAWN_AHEAD && PREFETCH_AHEAD[1].0 <= DRAWN_AHEAD);

/// What aging actually did — echoed into the run manifest so a report is
/// self-describing about the device state measurements started from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WarmupStats {
    /// Distinct logical pages written in the sequential fill pass.
    pub footprint_pages: u64,
    /// Total warm-up host writes issued (fill + overwrite passes).
    pub writes: u64,
    /// Achieved used-capacity fraction (1 − free block fraction).
    pub used_fraction: f64,
    /// Achieved valid-page fraction after aging.
    pub valid_fraction: f64,
}

impl WarmupStats {
    /// Combine per-device aging stats into the fleet view: page and write
    /// counts sum; the achieved fractions are averaged over the devices
    /// (fleet devices share one geometry, so the unweighted mean is the
    /// fleet-wide fraction).
    pub fn merged(runs: &[WarmupStats]) -> WarmupStats {
        if runs.is_empty() {
            return WarmupStats::default();
        }
        let n = runs.len() as f64;
        WarmupStats {
            footprint_pages: runs.iter().map(|w| w.footprint_pages).sum(),
            writes: runs.iter().map(|w| w.writes).sum(),
            used_fraction: runs.iter().map(|w| w.used_fraction).sum::<f64>() / n,
            valid_fraction: runs.iter().map(|w| w.valid_fraction).sum::<f64>() / n,
        }
    }
}

/// Age `ssd` per `cfg` and report what was done. Aging runs unobserved
/// (no flash op log, no scheme event log) and calls [`Ssd::finish_warmup`]
/// at the end, which turns observation back on so the measured window
/// starts clean.
///
/// A device is aged once: later calls (also on a fork) return that aging.
pub fn age(ssd: &mut Ssd, cfg: &WarmupConfig) -> Result<WarmupStats> {
    if let Some(stats) = ssd.aged {
        return Ok(stats);
    }
    let spp = u64::from(ssd.spp());
    let total_pages = ssd.array().geometry().total_pages();
    let footprint_pages =
        ((total_pages as f64 * cfg.valid_fraction) as u64).min(ssd.scheme().logical_pages());
    // GC refuses to leave the device below `threshold + hysteresis` free,
    // so a used-capacity target beyond that line is unreachable — the
    // overwrite pass would spin forever with GC reclaiming every block it
    // fills. Clamp to the closest reachable fill level.
    let gc_floor = ssd.config().scheme_cfg.gc_threshold + ssd.config().scheme_cfg.gc_hysteresis;
    let free_target = (1.0 - cfg.used_fraction).max(gc_floor);
    let mut writes = 0u64;
    ssd.unobserved();

    if cfg.used_fraction > 0.0 && footprint_pages > 0 {
        // Pass 1: sequential fill of the footprint (all full-page writes).
        'aging: for lpn in 0..footprint_pages {
            let req = HostRequest::write(0, lpn * spp, spp as u32);
            match ssd.serve(&req, |_, _| {}) {
                Ok(_) => writes += 1,
                // A fault-injected device may degrade mid-aging; stop
                // aging and let the measured run see the read-only state.
                Err(FlashError::ReadOnlyMode) => break 'aging,
                Err(e) => return Err(e),
            }
        }
        // Pass 2: uniform overwrites until the used-capacity target. The
        // LPNs are drawn in the same order as they are written, but
        // `DRAWN_AHEAD` early: `ahead[i % DRAWN_AHEAD]` holds the LPN of
        // write `i` until it is written, then that of write
        // `i + DRAWN_AHEAD`.
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut ahead = [0; DRAWN_AHEAD];
        ahead.fill_with(|| rng.random_range(0..footprint_pages));
        let mut i = 0;
        while !ssd.read_only() && ssd.array().free_block_fraction() > free_target {
            let lpn = std::mem::replace(
                &mut ahead[i % DRAWN_AHEAD],
                rng.random_range(0..footprint_pages),
            );
            for (distance, stage) in PREFETCH_AHEAD {
                ssd.prefetch(ahead[(i + distance) % DRAWN_AHEAD], stage);
            }
            i += 1;
            let req = HostRequest::write(0, lpn * spp, spp as u32);
            match ssd.serve(&req, |_, _| {}) {
                Ok(_) => writes += 1,
                Err(FlashError::ReadOnlyMode) => break,
                Err(e) => return Err(e),
            }
        }
    }
    let stats = WarmupStats {
        footprint_pages: if writes == 0 { 0 } else { footprint_pages },
        writes,
        used_fraction: 1.0 - ssd.array().free_block_fraction(),
        valid_fraction: ssd.array().valid_page_fraction(),
    };
    ssd.finish_warmup();
    ssd.aged = Some(stats);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use aftl_core::scheme::SchemeKind;

    #[test]
    fn aging_reaches_targets() {
        let mut config = SimConfig::test_tiny(SchemeKind::Baseline);
        config.track_content = false;
        let mut ssd = Ssd::new(config).unwrap();
        let cfg = WarmupConfig {
            used_fraction: 0.7,
            valid_fraction: 0.4,
            seed: 7,
        };
        let stats = age(&mut ssd, &cfg).unwrap();
        let free = ssd.array().free_block_fraction();
        assert!(free <= 0.3 + 1e-9, "free fraction {free}");
        assert!(stats.writes >= stats.footprint_pages);
        assert!(stats.footprint_pages > 0);
        assert!((stats.used_fraction - (1.0 - free)).abs() < 1e-9);
        let valid = ssd.array().valid_page_fraction();
        assert!((valid - 0.4).abs() < 0.05, "valid fraction {valid}");
        // Counters were reset for the measured window.
        assert_eq!(ssd.array().stats().programs.total(), 0);
    }

    /// [`age`] as it was before it drew LPNs ahead: each overwrite's LPN
    /// drawn just before it is written.
    fn age_drawing_when_written(ssd: &mut Ssd, cfg: &WarmupConfig) -> WarmupStats {
        let spp = u64::from(ssd.spp());
        let total_pages = ssd.array().geometry().total_pages();
        let footprint_pages =
            ((total_pages as f64 * cfg.valid_fraction) as u64).min(ssd.scheme().logical_pages());
        let gc_floor = ssd.config().scheme_cfg.gc_threshold + ssd.config().scheme_cfg.gc_hysteresis;
        let free_target = (1.0 - cfg.used_fraction).max(gc_floor);
        let write = |lpn: u64| HostRequest::write(0, lpn * spp, spp as u32);
        ssd.unobserved();
        for lpn in 0..footprint_pages {
            ssd.submit(&write(lpn)).unwrap();
        }
        let mut writes = footprint_pages;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        while ssd.array().free_block_fraction() > free_target {
            let lpn = rng.random_range(0..footprint_pages);
            ssd.submit(&write(lpn)).unwrap();
            writes += 1;
        }
        let stats = WarmupStats {
            footprint_pages,
            writes,
            used_fraction: 1.0 - ssd.array().free_block_fraction(),
            valid_fraction: ssd.array().valid_page_fraction(),
        };
        ssd.finish_warmup();
        stats
    }

    #[test]
    fn drawing_ahead_ages_the_same_device() {
        let cfg = WarmupConfig {
            used_fraction: 0.7,
            valid_fraction: 0.4,
            seed: 11,
        };
        for kind in SchemeKind::WITH_LEARNED {
            let mut ahead = Ssd::new(SimConfig::test_tiny(kind)).unwrap();
            let mut when_written = Ssd::new(SimConfig::test_tiny(kind)).unwrap();
            let stats = age(&mut ahead, &cfg).unwrap();
            assert!(stats.writes > stats.footprint_pages + 100, "{stats:?}");
            assert_eq!(
                stats,
                age_drawing_when_written(&mut when_written, &cfg),
                "{}",
                kind.name()
            );
            let snapshot = |ssd: &Ssd| format!("{:?}", ssd.snapshot());
            assert_eq!(snapshot(&ahead), snapshot(&when_written), "{}", kind.name());
            assert_eq!(
                ahead.scheme().capture_image(),
                when_written.scheme().capture_image(),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn zero_warmup_is_noop() {
        let mut ssd = Ssd::new(SimConfig::test_tiny(SchemeKind::Across)).unwrap();
        let stats = age(
            &mut ssd,
            &WarmupConfig {
                used_fraction: 0.0,
                valid_fraction: 0.0,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(ssd.array().free_block_fraction(), 1.0);
        assert_eq!(stats.writes, 0);
        assert_eq!(stats.footprint_pages, 0);
    }
}
