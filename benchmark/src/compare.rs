//! `--compare A.json B.json`: hold one results file against another with
//! the bounds of [`crate::metrics::END_TO_END`]. One row per workload ×
//! end-to-end metric; a combined score is never computed.

use std::fmt::Write as _;

use serde_json::Value;

use crate::metrics::{Clock, END_TO_END};
use crate::workloads;

/// What a row says about its metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the baseline by more than the bound.
    Ok,
    /// Within the bound, but a simulated-clock value moved at all — which a
    /// change meant only to speed the simulator up must not cause.
    Changed,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// A host-clock metric whose quartiles, on either side, lie further
    /// apart than the bound: the files cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Changed => "changed",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × metric comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name (`failed` and `sim_digest` are checks, listed last).
    pub metric: &'static str,
    /// Baseline (A) value, as printed.
    pub base: String,
    /// New (B) value, as printed.
    pub new: String,
    /// Share of the baseline the new value is worse by (negative: better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Outcome.
    pub verdict: Verdict,
}

struct Sample {
    value: f64,
    spread: f64,
}

fn sample(file: &Value, workload: &str, metric: &str) -> Result<Sample, String> {
    let m = file
        .field("workloads")
        .and_then(|w| w.field(workload))
        .and_then(|w| w.field("end_to_end"))
        .and_then(|e| e.field(metric))
        .map_err(|e| format!("{workload}/{metric}: {e}"))?;
    let num = |k: &str| {
        m.field(k)
            .ok()
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload}/{metric}: `{k}` is not a number"))
    };
    let value = num("value")?;
    let spread = if value != 0.0 {
        (num("q3")? - num("q1")?) / value.abs()
    } else {
        0.0
    };
    Ok(Sample { value, spread })
}

fn judge(m: &crate::metrics::EndToEnd, a: &Sample, b: &Sample) -> (f64, Verdict) {
    let delta = if a.value != 0.0 {
        (b.value - a.value) / a.value.abs()
    } else {
        0.0
    };
    let worse_by = if m.higher_is_better { -delta } else { delta };
    let verdict = if m.clock == Clock::Host && (a.spread > m.bound || b.spread > m.bound) {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regressed
    } else if m.clock == Clock::Sim && a.value != b.value {
        Verdict::Changed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn check_field<'v>(file: &'v Value, workload: &str, key: &str) -> Result<&'v Value, String> {
    file.field("workloads")
        .and_then(|w| w.field(workload))
        .and_then(|w| w.field(key))
        .map_err(|e| format!("{workload}: {e}"))
}

/// Compare results file `b` (new) against `a` (baseline).
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in &workloads::ALL {
        for m in &END_TO_END {
            let (sa, sb) = (sample(a, w.name, m.name)?, sample(b, w.name, m.name)?);
            let (worse_by, verdict) = judge(m, &sa, &sb);
            rows.push(Row {
                workload: w.name,
                metric: m.name,
                base: format!("{:.6}", sa.value),
                new: format!("{:.6}", sb.value),
                worse_by,
                bound: m.bound,
                verdict,
            });
        }
        let failed = |f| {
            check_field(f, w.name, "failed")?
                .as_f64()
                .ok_or_else(|| format!("{}: `failed` is not a number", w.name))
        };
        let (fa, fb) = (failed(a)?, failed(b)?);
        rows.push(Row {
            workload: w.name,
            metric: "failed",
            base: format!("{fa}"),
            new: format!("{fb}"),
            worse_by: fb - fa,
            bound: 0.0,
            verdict: if fb > fa {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
        let digest = |f| {
            check_field(f, w.name, "sim_digest")?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{}: `sim_digest` is not a string", w.name))
        };
        let (da, db) = (digest(a)?, digest(b)?);
        rows.push(Row {
            workload: w.name,
            metric: "sim_digest",
            verdict: if da == db {
                Verdict::Ok
            } else {
                Verdict::Changed
            },
            base: da,
            new: db,
            worse_by: 0.0,
            bound: 0.0,
        });
    }
    Ok(rows)
}

/// The rows as a fixed-width table, with a one-line summary.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<20} {:>18} {:>18} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:<20} {:>18} {:>18} {:>8.2}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        out,
        "{} rows: {} regressed, {} unresolved, {} changed, {} ok",
        rows.len(),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Changed),
        count(Verdict::Ok)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::EndToEnd;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn s(value: f64, spread: f64) -> Sample {
        Sample { value, spread }
    }

    #[test]
    fn host_metric_regresses_only_beyond_its_bound() {
        let m = metric("replay_kreq_per_s");
        let slower = |by: f64| s(100.0 * (1.0 - by), 0.01);
        assert_eq!(
            judge(m, &s(100.0, 0.01), &slower(m.bound * 0.5)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(m, &s(100.0, 0.01), &slower(m.bound * 1.5)).1,
            Verdict::Regressed
        );
        // Higher is better: a faster B is never a regression.
        assert_eq!(judge(m, &s(100.0, 0.01), &s(150.0, 0.01)).1, Verdict::Ok);
    }

    #[test]
    fn wide_quartiles_leave_a_host_metric_unresolved() {
        let m = metric("replay_kreq_per_s");
        let wide = m.bound * 1.5;
        assert_eq!(
            judge(m, &s(100.0, wide), &s(100.0, 0.0)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(m, &s(100.0, 0.0), &s(50.0, wide)).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn any_simulated_change_is_flagged() {
        let m = metric("erases");
        assert_eq!(judge(m, &s(1000.0, 0.0), &s(1000.0, 0.0)).1, Verdict::Ok);
        assert_eq!(
            judge(m, &s(1000.0, 0.0), &s(1001.0, 0.0)).1,
            Verdict::Changed
        );
        assert_eq!(
            judge(m, &s(1000.0, 0.0), &s(2000.0, 0.0)).1,
            Verdict::Regressed
        );
    }
}
