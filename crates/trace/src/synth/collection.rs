//! The 61-trace survey collection of Figure 2.
//!
//! The paper replays the first folder of the SYSTOR '17 LUN collection
//! (`systor17-additional-01`, 61 traces) and reports each trace's
//! across-page ratio at 8 KB pages, finding a significant spread with many
//! traces above 20 %. We synthesise a comparable population: 61 VDI LUNs
//! whose across-page ratios sweep the range the paper's Figure 2 shows
//! (roughly 2 %–38 %, most mass between 10 % and 30 %).

use crate::record::Trace;
use crate::synth::vdi::{mixture_for_mean, VdiSpec, VdiWorkload};

/// Number of traces in the survey folder.
pub const COLLECTION_SIZE: usize = 61;

/// Build the spec of survey trace `idx` (0-based), `scale` scaling the
/// request count (full size is 100 k requests per trace — the survey only
/// measures static trace statistics, so it needs no long replay).
pub fn collection_spec(idx: usize, scale: f64) -> VdiSpec {
    assert!(
        idx < COLLECTION_SIZE,
        "collection has {COLLECTION_SIZE} traces"
    );
    // Sweep the across-page target over a Figure-2-like range with some
    // deterministic jitter so the bar chart looks like a real population
    // rather than a ramp.
    let base = 0.02 + 0.36 * (idx as f64 / (COLLECTION_SIZE - 1) as f64);
    let jitter = ((idx as f64 * 2.399_963).sin()) * 0.05; // golden-angle hash
    let target = (base + jitter).clamp(0.005, 0.40);

    // Size mixtures vary across the population; low-across LUNs look like
    // well-aligned 8 KB-block guests with little sector-granular traffic.
    let mean_kib = 7.6 + 6.0 * (((idx as f64) * 0.754_877).fract());
    let (grain_prob, read_grain_prob, guest_grid) = if target < 0.10 {
        (0.02, 0.05, 16)
    } else {
        (0.12, 0.70, 8)
    };
    let write_ratio = 0.35 + 0.3 * (((idx as f64) * 1.618_034).fract());
    let requests = ((100_000.0 * scale).round() as u64).max(1);

    VdiSpec::new(
        format!("systor17-additional-01/{:02}", idx + 1),
        requests,
        write_ratio,
        mixture_for_mean(mean_kib),
        grain_prob,
        read_grain_prob,
        guest_grid,
        0xC011_EC70 + idx as u64,
    )
    .calibrated(target)
}

/// Generate the full survey collection.
pub fn figure2_collection(scale: f64) -> Vec<Trace> {
    (0..COLLECTION_SIZE)
        .map(|i| VdiWorkload::new(collection_spec(i, scale)).generate())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn collection_has_61_traces() {
        let c = figure2_collection(0.01);
        assert_eq!(c.len(), COLLECTION_SIZE);
        assert!(c.iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn ratios_span_a_figure2_like_range() {
        let c = figure2_collection(0.05);
        let ratios: Vec<f64> = c
            .iter()
            .map(|t| TraceStats::compute(&t.records, 8192, 512).across_ratio())
            .collect();
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            min < 0.06,
            "population should include low-ratio traces, min {min}"
        );
        assert!(
            max > 0.28,
            "population should include high-ratio traces, max {max}"
        );
        let above_tenth = ratios.iter().filter(|&&r| r > 0.10).count();
        assert!(
            above_tenth as f64 > 0.5 * ratios.len() as f64,
            "most traces should have a significant across-page share"
        );
    }

    #[test]
    fn traces_have_distinct_names() {
        let c = figure2_collection(0.005);
        let names: std::collections::HashSet<_> = c.iter().map(|t| t.name.clone()).collect();
        assert_eq!(names.len(), COLLECTION_SIZE);
    }
}
