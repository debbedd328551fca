//! The tracked-file registry: every committed `BENCH_*.json` as a pure
//! function of the code.
//!
//! [`TRACKED`] lists `(name, file, build)` in one fixed order. A build runs
//! its benchmark at its one canonical scale, validates the manifest with
//! its gate on, and returns the pretty-printed JSON; `benches/tracked.rs`
//! writes it over the committed file. Every field is a simulated result,
//! so a rerun at an unchanged commit leaves `git diff` clean — CI checks
//! exactly that. Host time is measured in one place, `benchmark/`.

use serde::Serialize;

use crate::{fleetbench, gctail, hostbench, learnedbench, recoverybench};

/// A registry entry: the name the bench selects by, the committed file it
/// rewrites (relative to the workspace root), and the build returning the
/// validated, serialized manifest (`Err` names the gate that failed).
pub type Tracked = (&'static str, &'static str, fn() -> Result<String, String>);

/// Every tracked file, in regeneration order.
pub const TRACKED: [Tracked; 5] = [
    ("host", "BENCH_host.json", || {
        serialize(
            hostbench::host_manifest(),
            hostbench::validate_host_manifest,
        )
    }),
    ("fleet", "BENCH_fleet.json", || {
        serialize(
            fleetbench::fleet_manifest(),
            fleetbench::validate_fleet_manifest,
        )
    }),
    ("gc", "BENCH_gc.json", || {
        serialize(gctail::gc_manifest(), gctail::validate_gc_manifest)
    }),
    ("learned", "BENCH_learned.json", || {
        serialize(
            learnedbench::learned_manifest(),
            learnedbench::validate_learned_manifest,
        )
    }),
    ("recovery", "BENCH_recovery.json", || {
        serialize(
            recoverybench::recovery_manifest(),
            recoverybench::validate_recovery_manifest,
        )
    }),
];

/// The entries `names` asks for, in table order whatever order they were
/// given in; no names = every entry.
pub fn select(names: &[String]) -> Result<Vec<&'static Tracked>, String> {
    if let Some(bad) = names.iter().find(|n| TRACKED.iter().all(|t| t.0 != **n)) {
        let known: Vec<&str> = TRACKED.iter().map(|t| t.0).collect();
        return Err(format!(
            "unknown tracked file {bad:?} (expected {})",
            known.join("|")
        ));
    }
    let wanted = |name: &str| names.is_empty() || names.iter().any(|n| n == name);
    Ok(TRACKED.iter().filter(|t| wanted(t.0)).collect())
}

/// Validate `m` (gate on) and pretty-print it.
fn serialize<M: Serialize>(m: M, validate: fn(&M) -> Result<(), String>) -> Result<String, String> {
    validate(&m)?;
    Ok(serde_json::to_string_pretty(&m).expect("manifest serializes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn selected(line: &str) -> Vec<&'static str> {
        select(&names(line)).unwrap().iter().map(|t| t.0).collect()
    }

    #[test]
    fn registry_names_are_unique_and_in_table_order() {
        let all: Vec<&str> = TRACKED.iter().map(|t| t.0).collect();
        assert_eq!(all, ["host", "fleet", "gc", "learned", "recovery"]);
        for t in &TRACKED {
            assert_eq!(t.1, format!("BENCH_{}.json", t.0), "one file per name");
        }
        assert_eq!(selected(""), all, "no names = every entry");
    }

    #[test]
    fn selection_follows_the_table_not_the_arguments() {
        assert_eq!(selected("recovery gc host"), ["host", "gc", "recovery"]);
        assert_eq!(selected("gc recovery host"), ["host", "gc", "recovery"]);
        assert_eq!(selected("learned learned"), ["learned"]);
    }

    #[test]
    fn selection_rejects_an_unknown_name() {
        for bad in ["replay", "--test", "GC", "host --scale"] {
            let err = select(&names(bad)).unwrap_err();
            assert!(err.contains("unknown tracked file"), "{bad}: {err}");
        }
    }

    /// Every entry's committed file exists, parses as its manifest type and
    /// clears its gate — on the recorded numbers, no re-measuring.
    #[test]
    fn every_committed_file_parses_and_clears_its_gate() {
        for &(name, file, _) in &TRACKED {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read committed {file}: {e}"));
            // The parse target is inferred from each validator's argument.
            let parsed = match name {
                "host" => {
                    serde_json::from_str(&text).map(|m| hostbench::validate_host_manifest(&m))
                }
                "fleet" => {
                    serde_json::from_str(&text).map(|m| fleetbench::validate_fleet_manifest(&m))
                }
                "gc" => serde_json::from_str(&text).map(|m| gctail::validate_gc_manifest(&m)),
                "learned" => {
                    serde_json::from_str(&text).map(|m| learnedbench::validate_learned_manifest(&m))
                }
                "recovery" => serde_json::from_str(&text)
                    .map(|m| recoverybench::validate_recovery_manifest(&m)),
                other => panic!("no manifest type for tracked entry {other}"),
            };
            let verdict = parsed.unwrap_or_else(|e| panic!("parse committed {file}: {e}"));
            verdict.unwrap_or_else(|e| panic!("committed {file}: {e}"));
        }
    }
}
