//! # aftl-bench — the evaluation harness
//!
//! One binary per table/figure of the paper (`cargo run --release -p
//! aftl-bench --bin fig9`), plus `repro_all` which regenerates everything
//! in one pass and writes machine-readable results. Criterion micro-benches
//! live under `benches/`.
//!
//! Common conventions:
//! * `--scale <f>` scales trace lengths (1.0 = the paper's request counts),
//! * `--page <bytes>` selects the flash page size where applicable,
//! * figures print the paper's normalized-to-FTL convention with baseline
//!   absolutes in parentheses.

#![warn(missing_docs)]

use aftl_core::scheme::SchemeKind;
use aftl_sim::experiment::ComparisonReport;
use aftl_sim::tables::Row;
use aftl_trace::{LunPreset, Trace};
use rayon::prelude::*;
use std::path::PathBuf;

pub mod fleetbench;
pub mod gctail;
pub mod hostbench;
pub mod learnedbench;
pub mod recoverybench;
pub mod replay;

/// Command-line options shared by the figure binaries.
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
    /// Parse `--scale` / `--page` from the process arguments.
    pub fn parse() -> Args {
        let mut args = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    args.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a float");
                }
                "--page" => {
                    args.page_bytes = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--page needs 4096|8192|16384");
                }
                "--help" | "-h" => {
                    eprintln!("options: --scale <f=1.0> --page <4096|8192|16384>");
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other:?}"),
            }
        }
        args
    }
}

/// Generate the six evaluation LUNs (parallel; calibration included).
pub fn luns(scale: f64) -> Vec<Trace> {
    LunPreset::ALL
        .par_iter()
        .map(|p| p.generate_scaled(scale))
        .collect()
}

/// Run the full 6-LUN × 3-scheme grid at `page_bytes`.
pub fn grid(traces: &[Trace], page_bytes: u32) -> Vec<ComparisonReport> {
    aftl_sim::experiment::run_grid(traces, page_bytes).expect("simulation runs to completion")
}

/// Build normalized-figure rows from a grid: one row per LUN with the three
/// schemes' values of `metric` (FTL first = the normalization baseline).
pub fn rows_from_grid(
    reports: &[ComparisonReport],
    metric: impl Fn(&aftl_sim::RunReport) -> f64,
) -> Vec<Row> {
    reports
        .iter()
        .map(|c| {
            Row::new(
                c.trace.clone(),
                SchemeKind::ALL
                    .iter()
                    .map(|&s| (s.name().to_string(), metric(c.get(s))))
                    .collect(),
            )
        })
        .collect()
}

/// Mean Across-FTL/baseline ratio over the grid for `metric` (the "average
/// X % reduction" numbers quoted in the paper's prose).
pub fn mean_reduction_vs(
    reports: &[ComparisonReport],
    baseline: SchemeKind,
    metric: impl Fn(&aftl_sim::RunReport) -> f64,
) -> f64 {
    let pairs: Vec<(f64, f64)> = reports
        .iter()
        .map(|c| (metric(c.get(baseline)), metric(c.get(SchemeKind::Across))))
        .collect();
    1.0 - aftl_sim::tables::mean_ratio(&pairs)
}

/// Directory machine-readable results are written to: `$AFTL_RESULTS_DIR`
/// if set, else `results/` under the working directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("AFTL_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Write `value` as pretty-printed JSON to `<results_dir>/<name>.json` and
/// return the path. Every figure binary emits its machine-readable results
/// through this, next to the human-readable table it prints.
pub fn emit_json<T: serde::Serialize + ?Sized>(name: &str, value: &T) -> PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("results serialize");
    std::fs::write(&path, json).expect("write results json");
    eprintln!("wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_default() {
        let a = Args::default();
        assert_eq!(a.page_bytes, 8192);
        assert!((a.scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_grid_round_trips() {
        let traces = luns(0.002);
        assert_eq!(traces.len(), 6);
        let g = grid(&traces[..1], 8192);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].runs.len(), 3);
        let rows = rows_from_grid(&g, |r| r.erases() as f64);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values.len(), 3);
        let red = mean_reduction_vs(&g, SchemeKind::Baseline, |r| {
            r.flash_writes().total() as f64
        });
        assert!(red.is_finite());
    }
}
