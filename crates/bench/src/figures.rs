//! The figure registry: every table and figure of the paper as a
//! projection of one evaluation pass.
//!
//! [`Eval`] owns the shared inputs — the six LUN traces and one
//! (trace × scheme) grid per page size — and computes each on first use,
//! once. [`FIGURES`] lists `(name, render)` in paper order; a render
//! function reads what it needs from the context and returns its text
//! (plus a JSON document where its numbers are not a grid's). Nothing here
//! touches the file system or the process: `repro_all` prints and writes.

use crate::{luns, normalized, reduction_pct, Args, PAGE_SIZES};
use aftl_core::scheme::{Scheme, SchemeKind};
use aftl_core::{AcrossFtl, AcrossOptions};
use aftl_sim::experiment::{sweep, ComparisonReport};
use aftl_sim::tables::{absolute_table, bar_chart};
use aftl_sim::{RunReport, SimConfig, Ssd};
use aftl_trace::synth::collection::figure2_collection;
use aftl_trace::{LunPreset, Trace, TraceStats};
use rayon::prelude::*;
use std::cell::OnceCell;

/// The shared inputs of one evaluation pass, each computed on first use.
pub struct Eval {
    /// The validated command line the pass runs under.
    pub args: Args,
    traces: OnceCell<Vec<Trace>>,
    grids: [OnceCell<Result<Vec<ComparisonReport>, String>>; 3],
}

impl Eval {
    /// A context with nothing generated or simulated yet.
    pub fn new(args: Args) -> Self {
        Eval {
            args,
            traces: OnceCell::new(),
            grids: Default::default(),
        }
    }

    /// The six evaluation LUNs at `args.scale`.
    pub fn traces(&self) -> &[Trace] {
        self.traces.get_or_init(|| luns(self.args.scale, 0))
    }

    /// The 6-LUN × 3-scheme grid at `page_bytes` (one of [`PAGE_SIZES`]).
    /// Its wall time goes to stderr and each cell's host-clock
    /// `wall_seconds` is zeroed, so a grid is a pure function of the code
    /// and the seed. A failed grid stays failed: every figure that needs
    /// it gets the same message.
    pub fn grid(&self, page_bytes: u32) -> Result<&[ComparisonReport], String> {
        let slot = PAGE_SIZES.iter().position(|&p| p == page_bytes);
        let cell = &self.grids[slot.expect("page size validated by Args::parse")];
        let computed = cell.get_or_init(|| {
            let started = std::time::Instant::now();
            let mut cells = grid(self.traces(), page_bytes, 0)?;
            let (kb, wall) = (page_bytes / 1024, started.elapsed().as_secs_f64());
            eprintln!("[repro_all] grid @ {kb} KB simulated in {wall:.1}s");
            for run in cells.iter_mut().flat_map(|c| &mut c.runs) {
                run.wall_seconds = 0.0;
            }
            Ok(cells)
        });
        computed.as_deref().map_err(String::clone)
    }

    /// The grids simulated so far, by page size.
    pub fn grids(&self) -> impl Iterator<Item = (u32, &[ComparisonReport])> {
        let slots = PAGE_SIZES.iter().zip(&self.grids);
        slots.filter_map(|(&page, cell)| Some((page, cell.get()?.as_deref().ok()?)))
    }
}

/// The (trace × scheme) grid of `traces` at `page_bytes`: one
/// [`SimConfig::experiment`] device per scheme, its aging seed XOR-ed with
/// `seed` (0 = the paper's), swept over every trace.
fn grid(traces: &[Trace], page_bytes: u32, seed: u64) -> Result<Vec<ComparisonReport>, String> {
    let mut configs = SchemeKind::ALL.map(|scheme| SimConfig::experiment(scheme, page_bytes));
    (configs.iter_mut()).for_each(|config| config.warmup.seed ^= seed);
    let devices = (configs.into_iter().map(Ssd::new)).collect::<aftl_flash::Result<_>>();
    let runs = (devices.and_then(|devices| sweep(devices, traces)))
        .map_err(|e| format!("grid @ {page_bytes} B, seed {seed}: {e}"))?;
    // Trace-major, so each trace's runs come in `SchemeKind::ALL` order.
    let mut runs = runs.into_iter();
    let row = |t: &Trace| ComparisonReport {
        trace: t.name.clone(),
        page_bytes,
        runs: runs.by_ref().take(SchemeKind::ALL.len()).collect(),
    };
    Ok(traces.iter().map(row).collect())
}

/// What a figure renders: `(text, json)` — the table it prints and, for the
/// four figures whose numbers are no grid's, the pretty-printed JSON
/// document `repro_all` writes next to it as `<name>.json`.
pub type Rendered = (String, Option<String>);

fn json<T: serde::Serialize + ?Sized>(value: &T) -> Option<String> {
    Some(serde_json::to_string_pretty(value).expect("results serialize"))
}

/// A registry entry: the name `repro_all` selects by, and the projection
/// of the shared inputs (`Err` is a failed simulation).
pub type Figure = (&'static str, fn(&Eval) -> Result<Rendered, String>);

/// Every table and figure, in paper order. `ablation` and `seeds` are not
/// in the paper and run only when asked for by name.
pub const FIGURES: [Figure; 13] = [
    ("table1", table1),
    ("table2", table2),
    ("fig2", fig2),
    ("fig4", fig4),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("ablation", ablation),
    ("seeds", seeds),
];

/// The figures `names` asks for, in paper order whatever order they were
/// given in; no names = every figure of the paper (all but `ablation` and
/// `seeds`).
pub fn select(names: &[String]) -> Result<Vec<&'static Figure>, String> {
    if let Some(bad) = names.iter().find(|n| FIGURES.iter().all(|f| f.0 != **n)) {
        return Err(format!("unknown figure {bad:?}"));
    }
    let wanted = |name: &str| match names {
        [] => !matches!(name, "ablation" | "seeds"),
        _ => names.iter().any(|n| n == name),
    };
    Ok(FIGURES.iter().filter(|f| wanted(f.0)).collect())
}

/// The one usage line, listing every valid figure name.
pub fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
    format!(
        "usage: repro_all [{}]... [--scale <f=1.0>] [--page <4096|8192|16384>]",
        names.join("|")
    )
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    values.iter().sum::<f64>() / values.len() as f64
}

/// Table 1 — experimental settings of the simulator.
fn table1(e: &Eval) -> Result<Rendered, String> {
    let config = SimConfig::experiment(SchemeKind::Across, e.args.page_bytes);
    let (g, cfg) = (&config.geometry, &config.scheme_cfg);
    let t = aftl_flash::TimingSpec::paper_tlc();
    let gib = |bytes: u64| bytes as f64 / (1u64 << 30) as f64;
    let mut out = String::from("== Table 1: simulator settings (TLC cell) ==\n");
    out += &format!("{:<28}{}\n", "Block number", g.total_blocks());
    out += &format!("{:<28}{}\n", "Pages per block", g.pages_per_block);
    out += &format!("{:<28}{} KB\n", "Page size", g.page_bytes / 1024);
    out += &format!("{:<28}{:.0} %\n", "GC threshold", cfg.gc_threshold * 100.0);
    let ms = |ns: u64| ns as f64 / 1e6;
    out += &format!("{:<28}{:.3} ms\n", "Read time", ms(t.read_ns));
    out += &format!("{:<28}{:.3} ms\n", "Write time", ms(t.program_ns));
    out += &format!("{:<28}{:.3} ms\n", "Erase time", ms(t.erase_ns));
    out += &format!("{:<28}{:.3} ms\n", "Cache access", ms(t.cache_access_ns));
    let cache_mb = cfg.cache_bytes as f64 / 1e6;
    out += &format!("{:<28}{cache_mb:.1} MB\n", "Mapping-cache size");
    out += &format!(
        "{:<28}{} ch x {} chips x {} dies x {} planes x {} blk\n",
        "Hierarchy",
        g.channels,
        g.chips_per_channel,
        g.dies_per_chip,
        g.planes_per_die,
        g.blocks_per_plane
    );
    out += &format!(
        "{:<28}{:.0} GiB raw / {:.0} GiB exported\n",
        "Capacity",
        gib(g.capacity_bytes()),
        gib(cfg.logical_pages * u64::from(g.page_bytes))
    );
    out += "\nNote: device scaled from the paper's 128 GiB to 16 GiB together\n";
    out += "with the trace footprints (see DESIGN.md); all ratios preserved.\n";
    Ok((out, json(&config)))
}

/// Table 2 — specifications of the six selected traces (8 KB page size).
fn table2(e: &Eval) -> Result<Rendered, String> {
    let rows: Vec<(String, Vec<String>)> = LunPreset::ALL
        .iter()
        .zip(e.traces())
        .map(|(p, t)| {
            let s = TraceStats::compute(&t.records, 8192, 512);
            let (_, wr, wsz, ar) = p.table2_targets();
            (
                p.name().to_string(),
                vec![
                    format!("{}", s.requests),
                    format!("{:.1}% ({:.1})", s.write_ratio() * 100.0, wr * 100.0),
                    format!("{:.1}KB ({:.1})", s.avg_write_kib(), wsz),
                    format!("{:.1}% ({:.1})", s.across_ratio() * 100.0, ar * 100.0),
                ],
            )
        })
        .collect();
    let text = absolute_table(
        "Table 2: trace specifications — measured (paper target)",
        &["# of Req.", "Write R", "Write SZ", "Across R"],
        &rows,
    );
    Ok((text, json(&rows)))
}

/// Figure 2 — across-page access ratio over the 61-trace survey collection.
fn fig2(e: &Eval) -> Result<Rendered, String> {
    let collection = figure2_collection(e.args.scale.min(0.5)); // stats need no long traces
    let rows: Vec<(String, f64)> = collection
        .iter()
        .map(|t| {
            let stats = TraceStats::compute(&t.records, 8192, 512);
            (t.name.clone(), stats.across_ratio())
        })
        .collect();
    let mut out = bar_chart(
        "Figure 2: across-page access ratio, systor17-additional-01 (8 KB pages)",
        &rows,
        0.4,
    );
    out += &format!(
        "\n{} of {} traces exceed a 15% across-page share — across-page access is not uncommon.\n",
        rows.iter().filter(|(_, r)| *r > 0.15).count(),
        rows.len()
    );
    Ok((out, json(&rows)))
}

/// Figure 4 — motivation: per-sector read/write latency and flush count of
/// across-page vs normal requests on the baseline FTL (the grid's FTL
/// column).
fn fig4(e: &Eval) -> Result<Rendered, String> {
    let grid = e.grid(e.args.page_bytes)?;
    // Per LUN: across/normal per-sector read latency, write latency, flushes.
    let rows: Vec<(&str, [f64; 6])> = (grid.iter())
        .map(|lun| {
            let c = &lun.get(SchemeKind::Baseline).classes;
            let values = [
                c.across_reads.latency_per_sector_ms(),
                c.normal_reads.latency_per_sector_ms(),
                c.across_writes.latency_per_sector_ms(),
                c.normal_writes.latency_per_sector_ms(),
                c.across_writes.programs_per_sector(),
                c.normal_writes.programs_per_sector(),
            ];
            (lun.trace.as_str(), values)
        })
        .collect();
    let mut out =
        String::from("== Figure 4: across-page vs normal requests on the baseline FTL ==\n");
    out += "            R lat/sect    R lat/sect      W lat/sect      W lat/sect      flush/sect      flush/sect\n";
    out += "            across[ms]    normal[ms]      across[ms]      normal[ms]          across          normal\n";
    for (trace, [ar, nr, aw, nw, af, nf]) in &rows {
        out += &format!("{trace:<8}{ar:>14.4}{nr:>14.4}{aw:>16.4}{nw:>16.4}{af:>16.4}{nf:>16.4}\n");
    }
    let across_over_normal = |i: usize| mean(rows.iter().map(|(_, v)| v[i] / v[i + 1]));
    out += &format!(
        "\nAcross-page requests cost {:.2}x the read latency, {:.2}x the write latency and\n{:.2}x the flush count per sector of normal requests (paper: 1.61x / 1.49x / 2.69x).\n",
        across_over_normal(0),
        across_over_normal(2),
        across_over_normal(4),
    );
    Ok((out, None))
}

/// Figure 8 — across-page access statistics under Across-FTL (the grid's
/// Across-FTL column): ARollback ratio and the Direct / Profitable-AMerge /
/// Unprofitable-AMerge distribution, plus the §4.2.1 merged-read share.
fn fig8(e: &Eval) -> Result<Rendered, String> {
    let grid = e.grid(e.args.page_bytes)?;
    let reports = grid.iter().map(|lun| lun.get(SchemeKind::Across));
    let mut out = String::from("== Figure 8(a): ARollback operations per across-page area ==\n");
    for r in reports.clone() {
        out += &format!("{:<8}{:>8.3}\n", r.trace, r.counters.rollback_ratio());
    }
    let mean = mean(reports.clone().map(|r| r.counters.rollback_ratio()));
    out += &format!("mean    {mean:>8.3}   (paper: 0.039)\n");

    out += "\n== Figure 8(b): across-page write distribution ==\n";
    out += "          Direct-write   Profitable-AMerge   Unprofitable-AMerge\n";
    for r in reports.clone() {
        let (d, p, u) = r.counters.across_write_distribution();
        out += &format!("{:<8}{:>14.3}{:>20.3}{:>22.3}\n", r.trace, d, p, u);
    }

    out += "\n== §4.2.1: merged reads ==\n";
    for r in reports {
        let share =
            r.counters.merged_read_extra_flash_reads as f64 / r.flash_reads().total().max(1) as f64;
        out += &format!(
            "{:<8}direct reads {:>8}  merged reads {:>7}  extra flash reads {:>6} ({:.3}% of reads; paper mean 0.12%)\n",
            r.trace,
            r.counters.across_direct_reads,
            r.counters.merged_reads,
            r.counters.merged_read_extra_flash_reads,
            share * 100.0
        );
    }
    Ok((out, None))
}

/// Figure 9 — I/O performance: read / write response time and overall I/O
/// time, normalized to the baseline FTL.
fn fig9(e: &Eval) -> Result<Rendered, String> {
    let grid = e.grid(e.args.page_bytes)?;
    let mut out = normalized("Figure 9(a): read response time", "ms", grid, |r| {
        r.read_latency_ms()
    });
    out += &normalized("Figure 9(b): write response time", "ms", grid, |r| {
        r.write_latency_ms()
    });
    out += &normalized("Figure 9(c): overall I/O time", "ks", grid, |r| {
        r.io_time_s() / 1000.0
    });
    out += &format!(
        "\nAcross-FTL reduces I/O time by {:.1}% vs FTL and {:.1}% vs MRSM on average\n(paper: 4.6-11.6% vs the comparison counterparts, 8.4% average).\n",
        reduction_pct(grid, SchemeKind::Baseline, |r| r.io_time_s()),
        reduction_pct(grid, SchemeKind::Mrsm, |r| r.io_time_s())
    );
    Ok((out, None))
}

/// Figure 10 — flash write and read counts (Map vs Data split), normalized
/// to the baseline FTL.
fn fig10(e: &Eval) -> Result<Rendered, String> {
    let grid = e.grid(e.args.page_bytes)?;
    let writes = |r: &RunReport| r.flash_writes().total() as f64;
    let reads = |r: &RunReport| r.flash_reads().total() as f64;
    let map_share = |what: &str, share: &dyn Fn(&RunReport) -> f64| {
        let mut out = format!("Map share of {what}:\n");
        for c in grid {
            out += &format!("  {:<8}", c.trace);
            for s in SchemeKind::ALL {
                out += &format!("{}: {:>5.1}%  ", s.name(), 100.0 * share(c.get(s)));
            }
            out += "\n";
        }
        out
    };
    let (write_title, read_title) = (
        "Figure 10(a): flash write count (x10K abs)",
        "Figure 10(b): flash read count (x10K abs)",
    );
    let mut out = normalized(write_title, "x10K", grid, |r| writes(r) / 1e4);
    out += &map_share("writes", &|r| r.flash_writes().map_ratio());
    out += "(paper: MRSM 36.9%, Across-FTL 2.6%)\n\n";
    out += &normalized(read_title, "x10K", grid, |r| reads(r) / 1e4);
    out += &map_share("reads", &|r| r.flash_reads().map_ratio());
    out += "(paper: MRSM 34.4%, Across-FTL 0.74%)\n";
    out += &format!(
        "\nAcross-FTL: flash writes {:.1}% below FTL / {:.1}% below MRSM (paper 15.9% / 30.9%);\n            flash reads  {:.1}% below FTL / {:.1}% below MRSM (paper  9.7% / 16.1%).\n",
        reduction_pct(grid, SchemeKind::Baseline, writes),
        reduction_pct(grid, SchemeKind::Mrsm, writes),
        reduction_pct(grid, SchemeKind::Baseline, reads),
        reduction_pct(grid, SchemeKind::Mrsm, reads),
    );
    Ok((out, None))
}

/// Figure 11 — erase counts (SSD lifetime), normalized to the baseline FTL.
fn fig11(e: &Eval) -> Result<Rendered, String> {
    let grid = e.grid(e.args.page_bytes)?;
    let erases = |r: &RunReport| r.erases() as f64;
    let mut out = normalized("Figure 11: erase count", "erases", grid, erases);
    out += &format!(
        "\nAcross-FTL reduces erases by {:.1}% vs FTL and {:.1}% vs MRSM on average\n(paper: 13.3% and 24.6%).\n",
        reduction_pct(grid, SchemeKind::Baseline, erases),
        reduction_pct(grid, SchemeKind::Mrsm, erases)
    );
    Ok((out, None))
}

/// Figure 12 — mapping-table space overhead and DRAM access counts.
fn fig12(e: &Eval) -> Result<Rendered, String> {
    let grid = e.grid(e.args.page_bytes)?;
    // Grid mean of `scheme`'s value of `metric` over the baseline FTL's.
    let vs_ftl = |scheme: SchemeKind, metric: &dyn Fn(&RunReport) -> f64| {
        let ratio =
            |c: &ComparisonReport| metric(c.get(scheme)) / metric(c.get(SchemeKind::Baseline));
        mean(grid.iter().map(ratio))
    };
    let table_mb = |r: &RunReport| r.mapping_table_bytes as f64 / 1e6;
    let dram = |r: &RunReport| r.dram_accesses() as f64;

    let mut out = String::from("== Figure 12(a): mapping-table size (MB) ==\n");
    out += "               FTL      MRSM  Across-FTL\n";
    for c in grid {
        let [ftl, mrsm, across] = SchemeKind::ALL.map(|s| table_mb(c.get(s)));
        out += &format!("{:<8}{ftl:>10.2}{mrsm:>10.2}{across:>12.2}\n", c.trace);
    }
    out += &format!(
        "mean ratio vs FTL: MRSM {:.2}x, Across-FTL {:.2}x (paper: 2.4x and 1.4x)\n\n",
        vs_ftl(SchemeKind::Mrsm, &table_mb),
        vs_ftl(SchemeKind::Across, &table_mb)
    );
    out += &normalized(
        "Figure 12(b): DRAM access count (x10K abs)",
        "x10K",
        grid,
        |r| dram(r) / 1e4,
    );
    out += &format!(
        "\nDRAM accesses vs FTL: MRSM {:.1}x, Across-FTL {:.3}x (paper: 32.6x and ~1.011x).\n",
        vs_ftl(SchemeKind::Mrsm, &dram),
        vs_ftl(SchemeKind::Across, &dram)
    );
    Ok((out, None))
}

/// Figure 13 — across-page access ratio under varying flash page sizes.
fn fig13(e: &Eval) -> Result<Rendered, String> {
    // Static stats only: the ratios settle well before 0.3 of a trace, so
    // the figure measures its own set, capped there (a sub-second
    // regeneration when the pass itself runs at or below 0.3).
    let traces = luns(e.args.scale.min(0.3), 0);
    let rows: Vec<(String, f64, f64, f64)> = traces
        .par_iter()
        .map(|t| {
            let [r4, r8, r16] =
                PAGE_SIZES.map(|page| TraceStats::compute(&t.records, page, 512).across_ratio());
            assert!(r4 > r8 && r8 > r16, "ratio must decline with page size");
            (t.name.clone(), r4, r8, r16)
        })
        .collect();
    let mut out = String::from("== Figure 13: across-page ratio vs page size ==\n");
    out += "             4KB     8KB    16KB\n";
    for (name, r4, r8, r16) in &rows {
        out += &format!("{name:<8}{r4:>8.3}{r8:>8.3}{r16:>8.3}\n");
    }
    out += "\nLarger pages hold more data and refrain from across-page access (paper, §4.3).\n";
    Ok((out, json(&rows)))
}

/// Figure 14 — I/O time and erase count under varying page sizes
/// (4/8/16 KB), all three schemes.
fn fig14(e: &Eval) -> Result<Rendered, String> {
    let mut out = String::new();
    for page in PAGE_SIZES {
        let (grid, kb) = (e.grid(page)?, page / 1024);
        let io_time = format!("Figure 14(a) @ {kb} KB: overall I/O time");
        out += &normalized(&io_time, "ks", grid, |r| r.io_time_s() / 1000.0);
        let erases = format!("Figure 14(b) @ {kb} KB: erase count");
        out += &normalized(&erases, "erases", grid, |r| r.erases() as f64);
        out += &format!(
            "@ {kb} KB: Across-FTL I/O time -{:.1}% vs FTL, erases -{:.1}% vs FTL\n\n",
            reduction_pct(grid, SchemeKind::Baseline, |r| r.io_time_s()),
            reduction_pct(grid, SchemeKind::Baseline, |r| r.erases() as f64)
        );
    }
    out += "The improvement does not decrease as the page size grows — Across-FTL\n";
    out += "scales with the across-page ratio of the workload (paper, §4.3).\n";
    Ok((out, None))
}

/// Ablation study: how much of Across-FTL's benefit comes from AMerge?
/// Compares the grid's Across-FTL column against AMerge disabled (every
/// overlapping update rolls the area back and is re-written normally),
/// both over the grid's FTL column — only the no-AMerge cells (forks of
/// one aged device) are new.
fn ablation(e: &Eval) -> Result<Rendered, String> {
    let page = e.args.page_bytes;
    let grid = e.grid(page)?;
    let config = SimConfig::experiment(SchemeKind::Across, page);
    let options = AcrossOptions {
        enable_amerge: false,
    };
    let scheme = AcrossFtl::with_options(&config.geometry, config.scheme_cfg, options);
    let device = Ssd::with_scheme(config, Scheme::Across(scheme));
    let no_merge = (device.and_then(|device| sweep(vec![device], e.traces())))
        .map_err(|e| format!("no-AMerge sweep @ {page} B failed: {e}"))?;

    let mut out =
        String::from("== Ablation: Across-FTL design choices (normalized to baseline FTL) ==\n");
    out += "              full: io  full: erases   no-AMerge: iono-AMerge: erases\n";
    for (c, no_merge) in grid.iter().zip(&no_merge) {
        let (ftl, full) = (c.get(SchemeKind::Baseline), c.get(SchemeKind::Across));
        // Short scaled runs on read-heavy luns may not GC.
        let erases = |x: &RunReport| match ftl.erases() {
            0 => f64::NAN,
            n => x.erases() as f64 / n as f64,
        };
        out += &format!(
            "{:<8}{:>14.3}{:>14.3}{:>16.3}{:>16.3}\n",
            c.trace,
            full.io_time_s() / ftl.io_time_s(),
            erases(full),
            no_merge.io_time_s() / ftl.io_time_s(),
            erases(no_merge),
        );
        assert_eq!(
            no_merge.counters.profitable_amerge + no_merge.counters.unprofitable_amerge,
            0,
            "ablation must disable merging"
        );
    }
    out += "\nAMerge is what keeps updates of re-aligned data cheap: without it every\n";
    out += "overlapping update pays an ARollback (area read + normal re-writes).\n";
    Ok((out, None))
}

/// Seeds of the `seeds` study. Seed `k` is XOR-ed into every LUN
/// generator's seed and the aging seed, as `aftl-benchmark --seed k` does;
/// seed 0 is the paper pass itself.
const SEEDS: u64 = 4;

/// The Fig. 9–11 headline metrics, each reduced vs FTL and vs MRSM.
const HEADLINES: [&str; 4] = ["I/O time", "flash writes", "flash reads", "erases"];

/// `r`'s value of each of [`HEADLINES`].
fn headline_values(r: &RunReport) -> [f64; 4] {
    let (writes, reads) = (r.flash_writes().total(), r.flash_reads().total());
    let [writes, reads, erases] = [writes, reads, r.erases()].map(|n| n as f64);
    [r.io_time_s(), writes, reads, erases]
}

/// One seed's eight headline reductions (%), as fig9–11 print them.
#[derive(serde::Serialize)]
struct SeedColumn {
    seed: u64,
    reductions: Vec<(String, f64)>,
}

/// Seed study: the eight headline reductions (%) of each seed, then their
/// mean, min and max. Seed 0 reads the pass's own grid.
fn seeds(e: &Eval) -> Result<Rendered, String> {
    let page = e.args.page_bytes;
    let headlines = |seed, grid: &[ComparisonReport]| {
        let mut reductions = Vec::new();
        for (i, what) in HEADLINES.iter().enumerate() {
            for vs in [SchemeKind::Baseline, SchemeKind::Mrsm] {
                let pct = reduction_pct(grid, vs, |r| headline_values(r)[i]);
                reductions.push((format!("{what} vs {}", vs.name()), pct));
            }
        }
        SeedColumn { seed, reductions }
    };
    let mut columns = vec![headlines(0, e.grid(page)?)];
    for seed in 1..SEEDS {
        let grid = grid(&luns(e.args.scale, seed), page, seed)?;
        columns.push(headlines(seed, &grid));
    }
    let mut out = String::from("== Seeds: Across-FTL's headline reductions (%) per seed ==\n");
    let seeds: String = (0..SEEDS).map(|seed| format!("  seed {seed}")).collect();
    out += &format!("{:<24}{seeds}    mean     min     max\n", "");
    for (row, (what, _)) in columns[0].reductions.iter().enumerate() {
        let values: Vec<f64> = columns.iter().map(|c| c.reductions[row].1).collect();
        let avg = mean(values.iter().copied());
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let cells: String = values.iter().map(|v| format!("{v:>8.1}")).collect();
        out += &format!("{what:<24}{cells}{avg:>8.1}{min:>8.1}{max:>8.1}\n");
    }
    Ok((out, json(&columns)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_sim::experiment::run_single_with;
    use aftl_trace::VdiWorkload;

    fn names(figures: &[&Figure]) -> Vec<&'static str> {
        figures.iter().map(|f| f.0).collect()
    }

    fn select_words(line: &str) -> Result<Vec<&'static Figure>, String> {
        let words: Vec<String> = line.split_whitespace().map(String::from).collect();
        select(&words)
    }

    /// A pass over the first `n` LUNs at 1/500 length: 3 × `n` cells a grid.
    fn luns_eval(n: usize) -> Eval {
        let eval = Eval::new(Args {
            scale: 0.002,
            ..Args::default()
        });
        let luns = LunPreset::ALL[..n].iter();
        let traces = luns.map(|p| p.generate_scaled(eval.args.scale)).collect();
        eval.traces.set(traces).unwrap();
        eval
    }

    #[test]
    fn registry_is_in_paper_order_with_ablation_outside_the_default_set() {
        let paper = [
            "table1", "table2", "fig2", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            "fig14",
        ];
        let all: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        assert_eq!(all[..11], paper);
        assert_eq!(
            all[11..],
            ["ablation", "seeds"],
            "unique: 11 + ablation + seeds"
        );
        assert_eq!(names(&select_words("").unwrap()), paper);
        assert!(FIGURES.iter().all(|f| usage().contains(f.0)));
    }

    #[test]
    fn selection_is_by_name_in_paper_order_and_rejects_unknown_names() {
        let picked = select_words("fig14 ablation fig9 fig9").unwrap();
        assert_eq!(names(&picked), ["fig9", "fig14", "ablation"]);
        let err = select_words("fig9 fig3").err().unwrap();
        assert!(err.contains("fig3"), "{err}");
        assert!(select_words("repro_all").is_err());
    }

    #[test]
    fn a_pass_simulates_only_the_grids_its_figures_read() {
        let eval = luns_eval(1);
        for &(name, render) in select_words("table1 table2 fig2 fig13").unwrap() {
            let figure = render(&eval).unwrap();
            assert!(figure.0.starts_with("== "), "{name}");
            assert!(figure.1.is_some(), "{name} has numbers no grid holds");
        }
        assert_eq!(eval.grids().count(), 0, "trace statistics need no grid");

        let rendered: Vec<Rendered> = (select_words("fig9 fig11 seeds").unwrap().iter())
            .map(|&&(_, render)| render(&eval).unwrap())
            .collect();
        let [(fig9, None), (fig11, None), (_, Some(seeds))] = &rendered[..] else {
            panic!("fig9 and fig11 read a grid, seeds writes its own numbers");
        };
        let pages: Vec<u32> = eval.grids().map(|(page, _)| page).collect();
        assert_eq!(
            pages,
            [8192],
            "fig9, fig11 and seed 0 share the one 8 KB grid"
        );

        // Seed 0 is the pass's grid: its column is fig9's and fig11's
        // printed headline reductions.
        let seeds: serde_json::Value = serde_json::from_str(seeds).unwrap();
        let columns = seeds.as_seq().unwrap();
        assert_eq!(columns.len(), 4);
        let pct = |row: usize| {
            let cell = columns[0].get("reductions").unwrap().as_seq().unwrap()[row].clone();
            format!("{:.1}%", cell.as_seq().unwrap()[1].as_f64().unwrap())
        };
        let printed = |what: &str, vs_ftl: usize| {
            format!(
                "{what} by {} vs FTL and {} vs MRSM",
                pct(vs_ftl),
                pct(vs_ftl + 1)
            )
        };
        assert!(fig9.contains(&printed("reduces I/O time", 0)), "{fig9}");
        assert!(fig11.contains(&printed("reduces erases", 6)), "{fig11}");
    }

    #[test]
    fn fig4_and_fig8_read_the_grids_ftl_and_across_columns() {
        // Two LUNs: each scheme's two cells are two forks of one aged
        // device, and each equals an independent run.
        let eval = luns_eval(2);
        let page = eval.args.page_bytes;
        let json = |r: &RunReport| serde_json::to_string(r).unwrap();
        let grid = eval.grid(page).unwrap();
        assert_eq!(grid.len(), 2, "two LUNs, two grid rows");
        for scheme in [SchemeKind::Baseline, SchemeKind::Across] {
            for (trace, row) in eval.traces().iter().zip(grid) {
                let config = SimConfig::experiment(scheme, page);
                let mut alone = run_single_with(config, trace).unwrap();
                alone.wall_seconds = 0.0;
                let cell = format!("{} on {}", scheme.name(), trace.name);
                assert_eq!(json(row.get(scheme)), json(&alone), "{cell}");
            }
        }
        for trace in eval.traces() {
            let lun = &trace.name;
            assert!(fig4(&eval).unwrap().0.contains(&format!("\n{lun:<8}")));
            assert!(fig8(&eval).unwrap().0.contains(&format!("\n{lun:<8}")));
        }
        assert_eq!(eval.grids().count(), 1);

        // Seed 1, as `seeds` and `aftl-benchmark --seed 1` run it: the
        // seed XOR-ed into the aging seed and the LUN's generator seed. A
        // sweep of the seeded device over the seeded trace is the fresh
        // seeded run, and not the seed-0 cell.
        let mut config = SimConfig::experiment(SchemeKind::Across, page);
        config.warmup.seed ^= 1;
        let mut spec = LunPreset::Lun1.spec(eval.args.scale);
        spec.seed ^= 1;
        let trace = VdiWorkload::new(spec).generate();
        assert_eq!(luns(eval.args.scale, 1)[0].records, trace.records);
        let device = Ssd::new(config.clone()).unwrap();
        let mut swept = sweep(vec![device], std::slice::from_ref(&trace)).unwrap();
        let mut alone = run_single_with(config, &trace).unwrap();
        (swept[0].wall_seconds, alone.wall_seconds) = (0.0, 0.0);
        assert_eq!(json(&swept[0]), json(&alone), "seed 1: sweep vs fresh run");
        let seed0 = grid[0].get(SchemeKind::Across);
        assert_ne!(json(&swept[0]), json(seed0), "seed 1 is not seed 0");
    }

    #[test]
    fn a_failed_grid_costs_only_the_figures_that_read_it() {
        let eval = Eval::new(Args::default());
        eval.traces.set(Vec::new()).unwrap();
        eval.grids[1]
            .set(Err("lun3 ran out of blocks".into()))
            .unwrap();
        for render in [fig4, fig9, fig12, ablation, seeds] {
            assert_eq!(render(&eval).err().unwrap(), "lun3 ran out of blocks");
        }
        assert!(table1(&eval).is_ok());
        assert!(table2(&eval).is_ok());
        assert_eq!(eval.grids().count(), 0, "a failed grid is not written");
    }
}
