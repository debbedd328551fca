//! `BENCHMARK.json` at the root is the metric tables rendered, and stays
//! inside the limits its contract sets.

use aftl_benchmark::metrics::{manifest, END_TO_END, PER_LAYER, RUN_SECONDS};
use aftl_benchmark::workloads;

#[test]
fn benchmark_json_is_the_tables_rendered() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists at the root");
    assert_eq!(
        on_disk,
        manifest(),
        "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 << 10);
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn tables_stay_inside_the_contract() {
    assert!((1..=60).contains(&RUN_SECONDS));
    assert!((2..=8).contains(&workloads::ALL.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));

    let mut names: Vec<&str> = Vec::new();
    for w in &workloads::ALL {
        assert!(is_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        names.push(w.name);
    }
    for m in &END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        names.push(m.name);
    }
    for m in &PER_LAYER {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        names.push(m.name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");

    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(setup.unit == "s" && !setup.higher_is_better);
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}
