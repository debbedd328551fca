//! # aftl-bench — the evaluation harness
//!
//! The paper's evaluation is one experiment — six LUNs × three schemes × a
//! page size — seen through different columns, so [`figures`] computes it
//! in one pass and renders every table and figure as a projection of it.
//! `repro_all` is the one binary over that registry (`cargo run --release
//! -p aftl-bench --bin repro_all -- fig9 fig14 --scale 0.3`; no names =
//! every figure); `sim_cli` is the general-purpose single run. The
//! committed `BENCH_*.json` files are entries of [`tracked`], rewritten in
//! place by `cargo bench -p aftl-bench --bench tracked [-- names…]`, the
//! one bench target; host time is measured only by `benchmark/`.
//!
//! Common conventions:
//! * figure names are positional arguments, in any order,
//! * `--scale <f>` scales trace lengths (1.0 = the paper's request counts),
//! * `--page <bytes>` selects the flash page size where applicable,
//! * figures print the paper's normalized-to-FTL convention with baseline
//!   absolutes in parentheses.

#![warn(missing_docs)]

use aftl_core::scheme::SchemeKind;
use aftl_sim::experiment::ComparisonReport;
use aftl_sim::tables::{normalized_table, Row};
use aftl_trace::{LunPreset, Trace, VdiWorkload};
use rayon::prelude::*;
use std::path::PathBuf;

pub mod figures;
pub mod fleetbench;
pub mod gctail;
pub mod hostbench;
pub mod learnedbench;
pub mod recoverybench;
pub mod replay;
pub mod tracked;

/// The flash page sizes the experiment geometry is defined for (the sweep
/// of Figs. 13 and 14).
pub const PAGE_SIZES: [u32; 3] = [4096, 8192, 16384];

/// Command-line options of `repro_all`, shared by every figure.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Trace-length scale; 1.0 reproduces Table 2's request counts.
    pub scale: f64,
    /// Flash page size in bytes.
    pub page_bytes: u32,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 1.0,
            page_bytes: 8192,
        }
    }
}

impl Args {
    /// Parse a command line (program name already skipped): `--scale` and
    /// `--page` wherever they stand, every other word a figure name for
    /// [`figures::select`]. Values are checked here, once: a page size the
    /// geometry does not define or a scale the trace generators would
    /// divide by is an `Err` with the reason, never a panic in a worker.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<(Args, Vec<String>), String> {
        let mut args = Args::default();
        let mut names = Vec::new();
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    let v = it.next().unwrap_or_default();
                    args.scale = (v.parse().ok())
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--scale needs a finite float > 0, got {v:?}"))?;
                }
                "--page" => {
                    let v = it.next().unwrap_or_default();
                    args.page_bytes = (v.parse().ok())
                        .filter(|p| PAGE_SIZES.contains(p))
                        .ok_or_else(|| format!("--page needs 4096|8192|16384, got {v:?}"))?;
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                _ => names.push(a),
            }
        }
        Ok((args, names))
    }
}

/// Generate the six evaluation LUNs (parallel; calibration included),
/// `seed` XOR-ed into each generator's seed (0 = the paper's traces).
pub fn luns(scale: f64, seed: u64) -> Vec<Trace> {
    let lun = |p: &LunPreset| {
        let mut spec = p.spec(scale);
        spec.seed ^= seed;
        VdiWorkload::new(spec).generate()
    };
    LunPreset::ALL.par_iter().map(lun).collect()
}

/// A normalized figure panel over a grid: one row per LUN with the three
/// schemes' values of `metric` (FTL first = the normalization baseline).
pub fn normalized(
    title: &str,
    unit: &str,
    grid: &[ComparisonReport],
    metric: impl Fn(&aftl_sim::RunReport) -> f64,
) -> String {
    let rows: Vec<Row> = (grid.iter())
        .map(|c| {
            let values = SchemeKind::ALL.map(|s| (s.name().to_string(), metric(c.get(s))));
            Row::new(c.trace.clone(), values.to_vec())
        })
        .collect();
    normalized_table(title, unit, &rows)
}

/// Percent by which Across-FTL undercuts `baseline` on `metric`, from the
/// geometric mean of the per-LUN ratios (the "average X % reduction"
/// numbers quoted in the paper's prose).
pub fn reduction_pct(
    grid: &[ComparisonReport],
    baseline: SchemeKind,
    metric: impl Fn(&aftl_sim::RunReport) -> f64,
) -> f64 {
    let pairs: Vec<(f64, f64)> = (grid.iter())
        .map(|c| (metric(c.get(baseline)), metric(c.get(SchemeKind::Across))))
        .collect();
    100.0 * (1.0 - aftl_sim::tables::mean_ratio(&pairs))
}

/// Directory machine-readable results are written to: `$AFTL_RESULTS_DIR`
/// if set, else `results/` under the working directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("AFTL_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_sim::experiment::sweep;
    use aftl_sim::{SimConfig, Ssd};

    #[test]
    fn args_default() {
        let a = Args::default();
        assert_eq!(a.page_bytes, 8192);
        assert!((a.scale - 1.0).abs() < 1e-12);
    }

    fn parse(line: &str) -> Result<(Args, Vec<String>), String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_flags_and_positional_names_in_any_order() {
        let (a, names) = parse("fig9 --scale 0.3 fig14 --page 16384").unwrap();
        assert_eq!((a.scale, a.page_bytes), (0.3, 16384));
        assert_eq!(names, ["fig9", "fig14"]);
        let (a, names) = parse("").unwrap();
        assert_eq!((a.scale, a.page_bytes), (1.0, 8192));
        assert!(names.is_empty());
    }

    #[test]
    fn args_reject_a_page_size_the_geometry_does_not_define() {
        for bad in ["--page 5000", "--page 0", "--page 8k", "--page"] {
            assert!(parse(bad).unwrap_err().contains("--page"), "{bad}");
        }
        for page in PAGE_SIZES {
            assert_eq!(parse(&format!("--page {page}")).unwrap().0.page_bytes, page);
        }
    }

    #[test]
    fn args_reject_a_scale_the_generators_cannot_take() {
        for bad in ["0", "-0.5", "NaN", "inf", "fast", ""] {
            let err = parse(&format!("--scale {bad}")).unwrap_err();
            assert!(err.contains("--scale"), "{bad}: {err}");
        }
    }

    #[test]
    fn args_reject_an_unknown_flag() {
        assert!(parse("fig9 --only fig9").unwrap_err().contains("--only"));
        assert!(parse("-x").unwrap_err().contains("-x"));
    }

    #[test]
    fn tiny_grid_round_trips() {
        let traces = luns(0.002, 0);
        assert_eq!(traces.len(), 6);
        let devices = SchemeKind::ALL.map(|s| Ssd::new(SimConfig::experiment(s, 8192)).unwrap());
        let runs = sweep(devices.into(), &traces[..1]).unwrap();
        let schemes: Vec<SchemeKind> = runs.iter().map(|r| r.scheme).collect();
        assert_eq!(
            schemes,
            SchemeKind::ALL,
            "one trace: one cell per device, in order"
        );
        let g = [ComparisonReport {
            trace: traces[0].name.clone(),
            page_bytes: 8192,
            runs,
        }];
        let panel = normalized("erase count", "erases", &g, |r| r.erases() as f64);
        assert_eq!(panel.lines().count(), 3, "title, header, one LUN:\n{panel}");
        let lun1 = panel.lines().last().unwrap();
        assert_eq!(lun1.split_whitespace().count(), 5, "name, 3 schemes, abs");
        let red = reduction_pct(&g, SchemeKind::Baseline, |r| {
            r.flash_writes().total() as f64
        });
        assert!(red.is_finite());
    }
}
