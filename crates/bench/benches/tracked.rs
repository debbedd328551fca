//! Regenerate the tracked `BENCH_*.json` files in place from
//! [`aftl_bench::tracked::TRACKED`]: all of them, or the ones named.
//!
//! ```text
//! cargo bench -p aftl-bench --bench tracked               # all five
//! cargo bench -p aftl-bench --bench tracked -- gc learned # just these
//! ```
//!
//! Names are the only arguments (cargo's own `--bench` is ignored); an
//! unknown one is one stderr line and exit code 2. A failed gate leaves
//! the file untouched and exits 1.

use aftl_bench::tracked;
use std::path::Path;

fn main() {
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let selected = tracked::select(&names).unwrap_or_else(|reason| {
        eprintln!("tracked: {reason}");
        std::process::exit(2);
    });
    // cargo bench runs in the package directory; the files sit at the
    // workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for &(name, file, build) in selected {
        let started = std::time::Instant::now();
        let json = build().unwrap_or_else(|reason| {
            eprintln!("tracked: {name}: {reason}");
            std::process::exit(1);
        });
        let path = root.join(file);
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("tracked: cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        let wall = started.elapsed().as_secs_f64();
        eprintln!("tracked: {name} -> {file} ({wall:.2}s)");
    }
}
