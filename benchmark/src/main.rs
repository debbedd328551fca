//! The benchmark's command line. `run.sh` builds this and passes its
//! arguments through; see `README.md` for the modes.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use aftl_benchmark::json::{count, obj, text};
use aftl_benchmark::layers::{per_layer, Arms};
use aftl_benchmark::metrics::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use aftl_benchmark::stats::{median, quartiles};
use aftl_benchmark::workloads::{self, Driver, Workload};
use aftl_benchmark::{compare, drivers, micro, traced, verify};
use aftl_trace::Trace;
use serde_json::Value;

/// Where runs leave their files (`results.json`, `<workload>.spans.jsonl`).
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
/// Fewest timed repeats a time-bounded run makes.
const MIN_REPEATS: usize = 3;
/// A set-up faster than this is sampled [`EXTRA_SETUPS`] more times per repeat.
const SHORT_SETUP_S: f64 = 0.25;
/// Extra set-ups per repeat for workloads that set up quickly.
const EXTRA_SETUPS: usize = 2;
/// Lines the spans file of one workload may hold (~100 bytes each).
const SPAN_LINES: usize = 150_000;

const USAGE: &str = "\
usage: run.sh                                  every workload, timed then traced, each in its own process
       run.sh --workload NAME [--seed N]       the same for one workload
       run.sh --smoke                          every workload at 1/100 length, one repeat
       run.sh --workload NAME --seed N --seconds S --trace 0|1
                                               one run in this process; last line is its JSON result
       run.sh --compare A.json B.json          hold results B against baseline A
       run.sh --manifest                       print BENCHMARK.json as the metric tables define it
       run.sh --test                           run the package's tests
options: --seed N (default 0)  --scale F (trace length factor)  --repeats N  --out FILE";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    scale: Option<f64>,
    repeats: Option<usize>,
    smoke: bool,
    manifest: bool,
    compare: Option<(PathBuf, PathBuf)>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--scale" => {
                let f: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if !(f > 0.0 && f <= 1.0) {
                    return Err(format!("--scale {f} is outside (0, 1]"));
                }
                args.scale = Some(f);
            }
            "--repeats" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?;
                if !(1..=1000).contains(&n) {
                    return Err(format!("--repeats {n} is outside 1..=1000"));
                }
                args.repeats = Some(n);
            }
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ))
            }
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("values serialize")
}

/// A reported metric: the run's value, and for host-clock metrics the
/// quartiles and count of the repeats it is the median of.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

impl Reported {
    fn exact(name: &'static str, unit: &'static str, value: f64, n: usize) -> Self {
        Reported {
            name,
            unit,
            value,
            q1: value,
            q3: value,
            n,
        }
    }

    fn of_samples(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Reported {
            name,
            unit,
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// What one run in this process produced.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    sim_digest: String,
    repeats: usize,
    metrics: Vec<Reported>,
}

impl RunResult {
    /// The metrics as a JSON object: `value` and `unit`, and when `spread`
    /// is set the quartiles and sample count as well.
    fn metrics_json(&self, spread: bool) -> Value {
        let one = |m: &Reported| {
            let mut fields = vec![("value", Value::F64(m.value)), ("unit", text(m.unit))];
            if spread {
                fields.extend([
                    ("q1", Value::F64(m.q1)),
                    ("q3", Value::F64(m.q3)),
                    ("n", count(m.n as u64)),
                ]);
            }
            (m.name.to_string(), obj(fields))
        };
        Value::Map(self.metrics.iter().map(one).collect())
    }

    /// The contract's result line: exactly these keys.
    fn result_line(&self) -> String {
        json(&obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", count(self.attempted)),
            ("failed", count(self.failed)),
            ("metrics", self.metrics_json(false)),
        ]))
    }

    /// Everything else the suite wants from the run, on a `detail:` line.
    fn detail_line(&self) -> String {
        json(&obj(vec![
            ("sim_digest", text(&self.sim_digest)),
            ("repeats", count(self.repeats as u64)),
            ("metrics", self.metrics_json(true)),
        ]))
    }

    fn print(&self) {
        for m in &self.metrics {
            if m.q1 == m.q3 {
                println!("  {:<38} {:>16.4} {}", m.name, m.value, m.unit);
            } else {
                println!(
                    "  {:<38} {:>16.4} {:<7} (q1 {:.4}, q3 {:.4}, n {})",
                    m.name, m.value, m.unit, m.q1, m.q3, m.n
                );
            }
        }
        println!("detail: {}", self.detail_line());
        println!("{}", self.result_line());
    }
}

fn err<E: std::fmt::Debug>(e: E) -> String {
    format!("{e:?}")
}

/// The timed run: set up and replay until `seconds` are used, tracing off.
fn timed_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scale: f64,
    repeats: Option<usize>,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let (mut setup_s, mut wall_s) = (Vec::new(), Vec::new());
    let mut first: Option<(String, aftl_sim::report::RunReport)> = None;
    let mut head = Trace::default();
    let mut digests_agree = true;
    let mut refused = 0u64;
    loop {
        // (prepared workload, seconds it took)
        let prepare = || {
            let t = Instant::now();
            let p = drivers::prepare(w, seed, scale).map_err(err)?;
            Ok::<_, String>((p, t.elapsed().as_secs_f64()))
        };
        let (mut p, took) = prepare()?;
        setup_s.push(took);
        // A short set-up is at the mercy of one hiccup, and cheap enough to
        // sample again. One device at a time, so the peak RSS stays the
        // workload's own.
        if took < SHORT_SETUP_S {
            for _ in 0..EXTRA_SETUPS {
                drop(p);
                let again = prepare()?;
                p = again.0;
                setup_s.push(again.1);
            }
        }
        if first.is_none() {
            head = Trace::new(
                p.trace.name.clone(),
                p.trace
                    .records
                    .iter()
                    .take(verify::REQUESTS)
                    .copied()
                    .collect(),
            );
        }
        let t = Instant::now();
        let report = drivers::run(w, seed, p).map_err(err)?;
        wall_s.push(t.elapsed().as_secs_f64());

        refused += report.counters.write_rejections;
        let digest = drivers::sim_digest(&report);
        match &first {
            Some((d, _)) => digests_agree &= *d == digest,
            None => first = Some((digest, report)),
        }
        let n = wall_s.len();
        let done = match repeats {
            Some(r) => n >= r,
            // Stop before a repeat that would overrun the budget.
            None => {
                let used = started.elapsed().as_secs_f64();
                n >= MIN_REPEATS && used + used / n as f64 > seconds
            }
        };
        if done {
            break;
        }
    }
    // Before the verify pass, whose content-tracking device is not the
    // workload's footprint.
    let rss = peak_rss_mb();
    let (sim_digest, report) = first.expect("at least one repeat ran");
    let verified = verify::verify(w, &head, seed).map_err(err)?;

    let n = wall_s.len();
    let kreq: Vec<f64> = wall_s
        .iter()
        .map(|s| report.requests as f64 / s / 1e3)
        .collect();
    let sim = metrics::sim_end_to_end(&report);
    let metrics = END_TO_END
        .iter()
        .map(|m| match m.name {
            "setup_s" => Reported::of_samples(m.name, m.unit, &setup_s),
            "replay_kreq_per_s" => Reported::of_samples(m.name, m.unit, &kreq),
            "peak_rss_mb" => Reported::exact(m.name, m.unit, rss, 1),
            name => {
                let value = sim
                    .iter()
                    .find(|(s, _)| *s == name)
                    .expect("every simulated metric is extracted")
                    .1;
                Reported::exact(m.name, m.unit, value, n)
            }
        })
        .collect();
    let failed = refused + verified.failed;
    if !digests_agree {
        eprintln!("{}: sim_digest differs between repeats of one seed", w.name);
    }
    println!(
        "{} seed {seed}: {n} repeats of {} requests in {:.1} s, sim_digest {sim_digest}; \
         verify pass checked {} reads of {} requests, {} failed",
        w.name,
        report.requests,
        started.elapsed().as_secs_f64(),
        verified.reads_checked,
        verified.attempted,
        verified.failed
    );
    Ok(RunResult {
        correct: digests_agree && failed == 0,
        attempted: report.requests * n as u64 + verified.attempted,
        failed,
        sim_digest,
        repeats: n,
        metrics,
    })
}

/// The traced run: one untraced repeat for the base, one repeat driven at
/// the layer boundaries with spans, the workload's extra arm, and (on one
/// workload) the isolated per-call costs.
fn traced_run(w: &Workload, seed: u64, scale: f64) -> Result<RunResult, String> {
    let wall_of = |arm| -> Result<(f64, aftl_sim::report::RunReport), String> {
        let p = drivers::prepare_arm(w, seed, scale, arm).map_err(err)?;
        let t = Instant::now();
        let report = drivers::run(w, seed, p).map_err(err)?;
        Ok((t.elapsed().as_secs_f64(), report))
    };
    // The first repeat in a process pays for its page faults; the traced
    // repeat would not, so the base is taken from a second one.
    wall_of(None)?;
    let (timed_wall_s, timed) = wall_of(None)?;
    let sim_digest = drivers::sim_digest(&timed);
    let mut arms = Arms {
        timed_wall_s,
        ..Arms::default()
    };

    let traced = match w.driver {
        Driver::Replay => traced::traced_replay(w, seed, scale),
        Driver::Fleet => traced::traced_fleet(w, seed, scale),
    }
    .map_err(err)?;
    let traced_digest = drivers::sim_digest(&traced.report);
    let correct = traced_digest == sim_digest;
    if !correct {
        eprintln!(
            "{}: traced sim_digest {traced_digest} differs from timed {sim_digest}",
            w.name
        );
    }

    match w.arm {
        Some(workloads::Arm::Pipelined) => arms.pipelined_wall_s = Some(wall_of(w.arm)?.0),
        Some(workloads::Arm::ObserverOff) => arms.unobserved_wall_s = Some(wall_of(w.arm)?.0),
        None => {}
    }
    if w.micro {
        arms.iso = micro::run(seed, scale).map_err(err)?;
    }

    let spans = traced.spans.all().len();
    let path = Path::new(OUT_DIR).join(format!("{}.spans.jsonl", w.name));
    traced
        .spans
        .write_jsonl(&path, spans.div_ceil(SPAN_LINES) as u32)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let refused = timed.counters.write_rejections
        + traced.report.counters.write_rejections
        + traced.fleet.as_ref().map_or(0, |f| f.rejected);
    let values = per_layer(&traced, &arms);
    let metrics = PER_LAYER
        .iter()
        .zip(&values)
        .map(|(m, (name, value))| {
            debug_assert_eq!(m.name, *name);
            Reported::exact(m.name, m.unit, *value, 1)
        })
        .collect();
    println!(
        "{} seed {seed}: traced run, {spans} spans, sim_digest {traced_digest}, spans in {}",
        w.name,
        path.display()
    );
    Ok(RunResult {
        correct: correct && refused == 0,
        attempted: timed.requests + traced.report.requests,
        failed: refused,
        sim_digest: traced_digest,
        repeats: 1,
        metrics,
    })
}

/// Run `--workload W --trace T` in a child process, echoing its output.
/// Returns its `detail:` line and its result line, parsed.
fn child(w: &Workload, args: &Args, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &args.seed.to_string()])
    .args([
        "--seconds",
        &args.seconds.unwrap_or(RUN_SECONDS as f64).to_string(),
    ]);
    if let Some(scale) = args.scale {
        cmd.args(["--scale", &scale.to_string()]);
    }
    if let Some(repeats) = args.repeats {
        cmd.args(["--repeats", &repeats.to_string()]);
    }
    let mut proc = cmd.stdout(Stdio::piped()).spawn().map_err(err)?;
    let mut lines: Vec<String> = Vec::new();
    for line in BufReader::new(proc.stdout.take().expect("stdout is piped")).lines() {
        let line = line.map_err(err)?;
        if !line.starts_with("detail: ") && !line.starts_with('{') {
            println!("{line}");
        }
        lines.push(line);
    }
    let status = proc.wait().map_err(err)?;
    let result = lines.last().ok_or("child printed nothing")?;
    let result = serde_json::parse_value(result).map_err(err)?;
    let detail = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("detail: "))
        .ok_or("child printed no detail line")?;
    let detail = serde_json::parse_value(detail).map_err(err)?;
    if !status.success() && result.get("correct").and_then(Value::as_bool) != Some(false) {
        return Err(format!("{} exited with {status}", w.name));
    }
    Ok((detail, result))
}

/// Every (or one) workload: a timed child then a traced child, the results
/// checked against the metric tables and written to one file.
fn suite(args: &Args, only: Option<&Workload>) -> Result<bool, String> {
    let mut all_correct = true;
    let mut rows: Vec<(String, Value)> = Vec::new();
    for w in workloads::ALL
        .iter()
        .filter(|w| only.is_none_or(|o| o.name == w.name))
    {
        let (timed_detail, timed) = child(w, args, false)?;
        let (traced_detail, traced) = child(w, args, true)?;
        let field = |v: &Value, k: &str| v.field(k).cloned().map_err(err);
        let end_to_end = field(&timed_detail, "metrics")?;
        let layers = field(&traced_detail, "metrics")?;
        for m in &END_TO_END {
            end_to_end
                .field(m.name)
                .map_err(|e| format!("{}: {e}", w.name))?;
        }
        for m in &PER_LAYER {
            layers
                .field(m.name)
                .map_err(|e| format!("{}: {e}", w.name))?;
        }
        let (digest, traced_digest) = (
            field(&timed_detail, "sim_digest")?,
            field(&traced_detail, "sim_digest")?,
        );
        let flag = |v: &Value| v.get("correct").and_then(Value::as_bool) == Some(true);
        let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_u128).unwrap_or(0) as u64;
        let correct = flag(&timed) && flag(&traced) && digest == traced_digest;
        all_correct &= correct;
        rows.push((
            w.name.to_string(),
            obj(vec![
                ("correct", Value::Bool(correct)),
                (
                    "attempted",
                    count(num(&timed, "attempted") + num(&traced, "attempted")),
                ),
                (
                    "failed",
                    count(num(&timed, "failed") + num(&traced, "failed")),
                ),
                ("sim_digest", digest),
                ("traced_sim_digest", traced_digest),
                ("repeats", field(&timed_detail, "repeats")?),
                ("end_to_end", end_to_end),
                ("per_layer", layers),
            ]),
        ));
    }
    let results = obj(vec![
        ("schema", count(1)),
        ("seed", count(args.seed)),
        ("scale", Value::F64(args.scale.unwrap_or(1.0))),
        (
            "threads",
            count(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("workloads", Value::Map(rows)),
    ]);
    let name = if args.smoke {
        "smoke.json"
    } else {
        "results.json"
    };
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(name));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    let pretty = serde_json::to_string_pretty(&results).expect("values serialize");
    std::fs::write(&path, pretty + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {}; every workload correct: {all_correct}",
        path.display()
    );
    Ok(all_correct)
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", compare::render(&rows));
    Ok(!rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regressed))
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("{msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = match args.workload.as_deref().map(workloads::by_name) {
        Some(None) => {
            let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
            eprintln!("unknown workload; choose one of {}", names.join(", "));
            return ExitCode::from(2);
        }
        Some(Some(w)) => Some(w),
        None => None,
    };
    if args.smoke {
        args.scale = Some(args.scale.unwrap_or(0.01));
        args.repeats = Some(args.repeats.unwrap_or(1));
    }

    let ok = if args.manifest {
        print!("{}", metrics::manifest());
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        run_compare(a, b)
    } else if let (Some(w), Some(trace)) = (workload, args.trace) {
        let scale = args.scale.unwrap_or(1.0);
        let result = if trace {
            traced_run(w, args.seed, scale)
        } else {
            let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
            timed_run(w, args.seed, seconds, scale, args.repeats)
        };
        result.map(|r| {
            r.print();
            r.correct
        })
    } else if args.trace.is_some() {
        Err("--trace needs --workload".to_string())
    } else {
        suite(&args, workload)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}
