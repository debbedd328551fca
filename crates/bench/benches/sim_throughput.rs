//! Simulator throughput: how many trace requests per second of host time
//! the full stack replays — the **tracked** replay benchmark.
//!
//! Since schema v2 every scheme is timed twice — pipelined map engine off
//! (the legacy serial path) and on — and the manifest records the pair
//! plus the measured speedup. Unlike the micro-benches this one has a
//! custom main (the `[[bench]]` entry sets `harness = false`) so it can
//! emit the machine-readable `BENCH_replay.json` manifest that records
//! the repo's performance trajectory. Modes:
//!
//! ```text
//! cargo bench -p aftl-bench --bench sim_throughput            # measure + print
//!   -- --json BENCH_replay.json                               # also emit manifest
//!      --baseline old.json --baseline-label "PR-7 @4b603ec"   # carry BEFORE numbers
//!      --scale 0.01 --samples 5                               # workload/averaging knobs
//!      --test                                                 # CI smoke: tiny scale, 1 sample
//! ```
//!
//! A `--baseline` file may be the previous schema (v1, serial-only
//! `results` rows) — exactly what "carry the PR-7 medians forward" needs.
//!
//! The workload (fig8-small) and all JSON types live in
//! [`aftl_bench::replay`] so the parity test replays exactly what the
//! bench times.

use aftl_bench::replay::{
    self, BenchReplayManifest, PipelineComparison, ReplayDigest, SchemeTiming,
    BENCH_SCHEMA_VERSION, FIG8_SMALL_SCALE,
};
use aftl_core::scheme::SchemeKind;

struct Opts {
    smoke: bool,
    json: Option<String>,
    baseline: Option<String>,
    baseline_label: String,
    scale: f64,
    samples: u32,
}

/// Parse bench arguments, ignoring the flags cargo's bench runner passes
/// through (`--bench`, filter strings, …).
fn parse_opts() -> Opts {
    let mut opts = Opts {
        smoke: false,
        json: None,
        baseline: None,
        baseline_label: "self".to_string(),
        scale: FIG8_SMALL_SCALE,
        samples: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--test" => opts.smoke = true,
            "--json" => opts.json = it.next(),
            "--baseline" => opts.baseline = it.next(),
            "--baseline-label" => {
                if let Some(l) = it.next() {
                    opts.baseline_label = l;
                }
            }
            "--scale" => {
                if let Some(s) = it.next().and_then(|v| v.parse().ok()) {
                    opts.scale = s;
                }
            }
            "--samples" => {
                if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                    opts.samples = n;
                }
            }
            _ => {} // cargo bench pass-through (e.g. --bench, filters)
        }
    }
    opts
}

/// A baseline file's serial rows, whichever schema wrote it: v2 nests them
/// in each `results` pair, v1 stored them directly.
fn baseline_rows(path: &str) -> Vec<SchemeTiming> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
    if let Ok(v2) = serde_json::from_str::<BenchReplayManifest>(&text) {
        return v2.results.into_iter().map(|r| r.serial).collect();
    }
    /// The subset of the v1 manifest the baseline carry-forward needs.
    #[derive(serde::Deserialize)]
    struct LegacyManifest {
        results: Vec<SchemeTiming>,
    }
    let v1: LegacyManifest = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("parse baseline {path} (v1 or v2): {e}"));
    v1.results
}

fn main() {
    let mut opts = parse_opts();
    if opts.smoke {
        // CI smoke: prove the full pipeline (trace gen → aged replay →
        // manifest) works, in seconds.
        opts.scale = opts.scale.min(0.002);
        opts.samples = 1;
    }

    let trace = replay::fig8_small_trace(opts.scale);
    eprintln!(
        "fig8-small: {} requests (scale {}), {} timed sample(s) per scheme per mode",
        trace.len(),
        opts.scale,
        opts.samples
    );

    let mut results: Vec<PipelineComparison> = Vec::new();
    for scheme in SchemeKind::ALL {
        // Interleaved serial/pipelined sampling: both modes see the same
        // slice of host load, so the speedup ratio is robust to drift.
        let pair = replay::time_fig8_small_pair(scheme, &trace, opts.samples);
        let digest = ReplayDigest::of(&replay::run_fig8_small(scheme, &trace));
        eprintln!(
            "{:<11} serial {:>9.0} req/s ({:>8} ns/req)  pipelined {:>9.0} req/s ({:>8} ns/req)  {:>5.2}x  [{} reqs + {} warm-up writes; {} erases, {} GC migrations]",
            pair.scheme, pair.serial.req_per_sec, pair.serial.ns_per_req,
            pair.pipelined.req_per_sec, pair.pipelined.ns_per_req, pair.speedup,
            pair.serial.requests, pair.serial.warmup_writes,
            digest.erases, digest.gc_migrated_pages,
        );
        results.push(pair);
    }

    // Baseline: carried forward from --baseline's serial numbers, so the
    // manifest always shows where the numbers came from and where they are.
    let (baseline, baseline_label) = match opts.baseline.as_deref() {
        Some(path) => (baseline_rows(path), opts.baseline_label),
        None => (
            results.iter().map(|r| r.serial.clone()).collect(),
            opts.baseline_label,
        ),
    };

    let manifest = BenchReplayManifest {
        schema_version: BENCH_SCHEMA_VERSION,
        workload: "fig8-small".to_string(),
        scale: opts.scale,
        results,
        baseline_label,
        baseline,
    };

    for scheme in SchemeKind::ALL {
        if let Some(s) = manifest.speedup(scheme.name()) {
            eprintln!("{:<11} serial speedup vs baseline: {s:.2}x", scheme.name());
        }
    }

    replay::validate_manifest(&manifest).expect("manifest is schema-valid");

    if let Some(path) = &opts.json {
        let json = serde_json::to_string_pretty(&manifest).expect("manifest serializes");
        // cargo bench runs with the package as cwd; create intermediate
        // directories so workspace-relative paths like target/… work.
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
            }
        }
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
