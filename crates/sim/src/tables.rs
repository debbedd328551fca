//! Fixed-width text tables mirroring the paper's figures: normalized bars
//! with the baseline's absolute value in parentheses, exactly the way the
//! paper annotates its X axes. (Run manifests live in [`crate::report`].)

/// One row of a normalized figure: a label plus per-scheme absolute values.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (workload name, metric, …).
    pub label: String,
    /// `(scheme name, absolute value)` — the first entry is the
    /// normalization baseline.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Build a row from a label and per-scheme values.
    pub fn new(label: impl Into<String>, values: Vec<(String, f64)>) -> Self {
        Row {
            label: label.into(),
            values,
        }
    }
}

/// Render a normalized table: each value divided by the row's first value,
/// with the baseline absolute printed alongside (the paper's convention).
pub fn normalized_table(title: &str, unit: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    if rows.is_empty() {
        out.push_str("(no rows)\n");
        return out;
    }
    // Header.
    out.push_str(&format!("{:<8}", ""));
    for (name, _) in &rows[0].values {
        out.push_str(&format!("{name:>12}"));
    }
    out.push_str(&format!("  {:>14}\n", format!("abs[{unit}]")));
    for row in rows {
        let base = row.values.first().map(|v| v.1).unwrap_or(1.0);
        out.push_str(&format!("{:<8}", row.label));
        for &(_, v) in &row.values {
            if base.abs() < f64::EPSILON {
                out.push_str(&format!("{:>12}", "-"));
            } else {
                out.push_str(&format!("{:>12.3}", v / base));
            }
        }
        out.push_str(&format!("  {:>14}\n", format_abs(base)));
    }
    out
}

/// Render an absolute-valued table (used for Table 2 and Figure 12(a)).
pub fn absolute_table(title: &str, header: &[&str], rows: &[(String, Vec<String>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!("{:<12}", ""));
    for h in header {
        out.push_str(&format!("{h:>14}"));
    }
    out.push('\n');
    for (label, cells) in rows {
        out.push_str(&format!("{label:<12}"));
        for c in cells {
            out.push_str(&format!("{c:>14}"));
        }
        out.push('\n');
    }
    out
}

/// Simple ASCII bar chart for ratio series (Figure 2 / Figure 13).
pub fn bar_chart(title: &str, rows: &[(String, f64)], max_hint: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let max = rows
        .iter()
        .map(|(_, v)| *v)
        .fold(max_hint, f64::max)
        .max(f64::EPSILON);
    for (label, v) in rows {
        let width = ((v / max) * 50.0).round() as usize;
        out.push_str(&format!("{label:<28} {:>7.3} |{}\n", v, "#".repeat(width)));
    }
    out
}

fn format_abs(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e6 {
        format!("({:.2}e6)", v / 1e6)
    } else if v.abs() >= 100.0 {
        format!("({v:.0})")
    } else {
        format!("({v:.2})")
    }
}

/// Geometric mean of ratios `new/base` across rows — the "average X %
/// reduction" numbers quoted in the paper's text. A pair with a zero on
/// either side has no finite log-ratio and is left out, divisor included;
/// with no pair left the mean is 1.0 (no change).
pub fn mean_ratio(pairs: &[(f64, f64)]) -> f64 {
    let (log_sum, kept) = pairs
        .iter()
        .filter(|(b, n)| *b > 0.0 && *n > 0.0)
        .fold((0.0, 0u32), |(sum, kept), (b, n)| {
            (sum + (n / b).ln(), kept + 1)
        });
    if kept == 0 {
        return 1.0;
    }
    (log_sum / f64::from(kept)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_table_renders() {
        let rows = vec![
            Row::new(
                "lun1",
                vec![
                    ("FTL".into(), 10.0),
                    ("MRSM".into(), 9.0),
                    ("Across".into(), 8.0),
                ],
            ),
            Row::new(
                "lun2",
                vec![
                    ("FTL".into(), 20.0),
                    ("MRSM".into(), 22.0),
                    ("Across".into(), 18.0),
                ],
            ),
        ];
        let t = normalized_table("Figure 9(c) I/O time", "ks", &rows);
        assert!(t.contains("lun1"));
        assert!(t.contains("0.800"));
        assert!(t.contains("1.100"));
        assert!(t.contains("(10.00)"));
    }

    #[test]
    fn zero_baseline_renders_dash() {
        let rows = vec![Row::new(
            "empty",
            vec![("FTL".into(), 0.0), ("Across".into(), 5.0)],
        )];
        let t = normalized_table("x", "u", &rows);
        assert!(t.contains('-'));
    }

    #[test]
    fn bar_chart_scales() {
        let rows = vec![("t1".to_string(), 0.1), ("t2".to_string(), 0.4)];
        let c = bar_chart("ratios", &rows, 0.4);
        let lines: Vec<&str> = c.lines().collect();
        assert!(lines[2].matches('#').count() > lines[1].matches('#').count());
    }

    #[test]
    fn mean_ratio_geometric() {
        let m = mean_ratio(&[(10.0, 5.0), (10.0, 20.0)]);
        assert!(
            (m - 1.0).abs() < 1e-9,
            "0.5 and 2.0 average to 1.0, got {m}"
        );
        assert_eq!(mean_ratio(&[]), 1.0);
    }

    #[test]
    fn mean_ratio_drops_pairs_with_a_zero_side() {
        // A pair with a zero side has no finite log-ratio: it leaves both
        // the product and the divisor.
        let m = mean_ratio(&[(10.0, 5.0), (4.0, 0.0), (0.0, 0.0), (0.0, 3.0)]);
        assert!((m - 0.5).abs() < 1e-12, "only 5/10 is kept, got {m}");
        let m = mean_ratio(&[(10.0, 5.0), (10.0, 20.0), (0.0, 0.0)]);
        assert!((m - 1.0).abs() < 1e-12, "0/0 must not dilute, got {m}");
    }

    #[test]
    fn mean_ratio_of_only_zero_pairs_is_one() {
        assert_eq!(mean_ratio(&[(0.0, 0.0), (5.0, 0.0), (0.0, 2.0)]), 1.0);
    }
}
