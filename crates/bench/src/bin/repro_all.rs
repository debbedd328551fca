//! Regenerate the paper's tables and figures in one in-process pass over
//! [`figures::FIGURES`]: all of them, or the ones named (`repro_all fig9
//! fig14 --scale 0.3`). Text goes to stdout and `all_figures.txt`, each
//! simulated grid to `grid_<n>k.json`, the other numbers to `<name>.json`,
//! under `$AFTL_RESULTS_DIR` (default `results/`). A failed simulation
//! costs the figures that read it (one stderr line each) and exit code 1.

use aftl_bench::figures::{self, Eval};
use aftl_bench::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", figures::usage());
        return;
    }
    let parsed = Args::parse(argv).and_then(|(args, names)| Ok((args, figures::select(&names)?)));
    let (args, selected) = parsed.unwrap_or_else(|reason| {
        eprintln!("repro_all: {reason}; {}", figures::usage());
        std::process::exit(2);
    });

    let started = std::time::Instant::now();
    let dir = aftl_bench::results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let write = |file: String, contents: &str| {
        let path = dir.join(file);
        std::fs::write(&path, contents).expect("write results");
        eprintln!("[repro_all] wrote {}", path.display());
    };

    let eval = Eval::new(args);
    let (mut all, mut failed) = (String::new(), false);
    for &(name, render) in selected {
        match render(&eval) {
            Ok((text, json)) => {
                // A blank line between figures, none after the last: one
                // figure's stdout is exactly its text.
                print!("{}{}", if all.is_empty() { "" } else { "\n" }, text);
                all += &text;
                all.push('\n');
                if let Some(json) = json {
                    write(format!("{name}.json"), &json);
                }
            }
            Err(reason) => {
                eprintln!("[repro_all] {name} not rendered: {reason}");
                failed = true;
            }
        }
    }
    write("all_figures.txt".into(), &all);
    for (page, grid) in eval.grids() {
        let json = serde_json::to_string_pretty(grid).expect("results serialize");
        write(format!("grid_{}k.json", page / 1024), &json);
    }
    let wall = started.elapsed().as_secs_f64();
    eprintln!(
        "[repro_all] done in {wall:.0}s. Results in {}/.",
        dir.display()
    );
    if failed {
        std::process::exit(1);
    }
}
