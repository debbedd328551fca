//! The benchmark's own drivers simulate what the public drivers simulate:
//! same `ReplayDigest`, field for field. Seconds, at 1/100 trace length.

use aftl_bench::replay::{fig8_small_config, fig8_small_trace, ReplayDigest};
use aftl_benchmark::drivers::{aged_device, prepare, replay_aged, run, sim_digest};
use aftl_benchmark::spans::{Name, Spans, NONE};
use aftl_benchmark::traced::{traced_fleet, traced_replay, traced_replay_of};
use aftl_benchmark::verify::verify;
use aftl_benchmark::workloads::{self, Driver};
use aftl_core::scheme::SchemeKind;
use aftl_sim::experiment::run_single_with;
use aftl_sim::fleet::run_fleet;

const SCALE: f64 = 0.01;

fn workload(name: &str) -> &'static workloads::Workload {
    workloads::by_name(name).expect("workload exists")
}

/// The pre-aged replay driver and the layer-boundary traced driver both
/// reproduce `run_single_with`, for all four schemes — warm-up writes
/// included, which the pre-aged driver takes from its explicit `age` call.
#[test]
fn both_replay_drivers_match_run_single_with() {
    let trace = fig8_small_trace(SCALE);
    for scheme in SchemeKind::WITH_LEARNED {
        let config = fig8_small_config(scheme);
        let want = ReplayDigest::of(&run_single_with(config.clone(), &trace).unwrap());
        assert!(want.warmup_writes > 0 && want.erases > 0, "{scheme:?}");

        let (ssd, aged) = aged_device(&config).unwrap();
        let pre_aged = replay_aged(ssd, aged, &config, &trace).unwrap();
        assert_eq!(ReplayDigest::of(&pre_aged), want, "pre-aged, {scheme:?}");
        assert_eq!(pre_aged.config.warmup, config.warmup);

        let spans = Spans::with_capacity(trace.len() * 5 + 64);
        let traced = traced_replay_of(config, &trace, spans).unwrap();
        assert_eq!(ReplayDigest::of(&traced.report), want, "traced, {scheme:?}");
        assert_eq!(
            serde_json::to_string(&traced.report.latency),
            serde_json::to_string(&pre_aged.latency),
            "latency histograms, {scheme:?}"
        );
    }
}

/// One shard after the other through `run_host` merges to what the
/// parallel `run_fleet` merges to.
#[test]
fn sequential_traced_fleet_matches_run_fleet() {
    let w = workload("fleet2-ftl");
    assert_eq!(w.driver, Driver::Fleet);
    let seed = 3;
    let fleet = run_fleet(w.config(seed), &w.trace(seed, SCALE), &w.fleet_spec(seed)).unwrap();
    let traced = traced_fleet(w, seed, SCALE).unwrap();
    let r = &traced.report;
    assert_eq!(r.flash.programs.total(), fleet.flash.programs.total());
    assert_eq!(r.flash.reads.total(), fleet.flash.reads.total());
    assert_eq!(r.flash.erases, fleet.flash.erases);
    assert_eq!(r.gc, fleet.gc);
    assert_eq!(r.trace, fleet.trace);
    assert_eq!(ReplayDigest::of(r), ReplayDigest::of(&fleet));
    assert_eq!(
        serde_json::to_string(&r.latency),
        serde_json::to_string(&fleet.latency)
    );

    let topology = fleet.fleet.expect("fleet runs carry their topology");
    let seen = traced.fleet.expect("traced fleet runs carry theirs");
    let want: Vec<u64> = topology.per_device.iter().map(|d| d.requests).collect();
    assert_eq!(seen.shard_requests, want);
    assert_eq!(seen.rejected, 0);
    let qos = fleet.qos.expect("fleet runs carry qos");
    assert_eq!(
        seen.queue_full_stalls,
        qos.tenants.iter().map(|t| t.queue_full_stalls).sum::<u64>()
    );
    let p99: Vec<u64> = qos.tenants.iter().map(|t| t.read_latency.p99_ns).collect();
    assert_eq!(seen.tenant_read_p99_ns, p99);
}

/// The seed reaches the inputs: same seed, same simulation; another seed,
/// another simulation.
#[test]
fn the_seed_decides_the_digest() {
    for name in ["starved-learned", "fleet2-ftl"] {
        let w = workload(name);
        let digest = |seed| {
            let report = run(w, seed, prepare(w, seed, SCALE).unwrap()).unwrap();
            sim_digest(&report)
        };
        assert_eq!(digest(1), digest(1), "{name}");
        assert_ne!(digest(1), digest(2), "{name}");
    }
}

/// A request's spans nest: the four layer spans tile their root, so their
/// self times sum to no more than the request's wall, and the file keeps
/// whole requests.
#[test]
fn request_spans_fit_inside_their_request() {
    let w = workload("starved-learned");
    let traced = traced_replay(w, 0, SCALE).unwrap();
    let spans = traced.spans.all();
    let own = traced.spans.self_times();
    let requests = traced.report.requests as usize;

    let mut inside = vec![0u64; requests];
    let mut wall = vec![0u64; requests];
    let mut roots = 0;
    for (s, own) in spans.iter().zip(&own) {
        if s.req == NONE {
            continue;
        }
        inside[s.req as usize] += own;
        if s.name == Name::Request {
            roots += 1;
            wall[s.req as usize] = s.dur_ns();
            assert_eq!(spans[s.parent as usize].name, Name::Replay);
        } else {
            let root = &spans[s.parent as usize];
            assert_eq!((root.name, root.req), (Name::Request, s.req));
            assert!(root.start_ns <= s.start_ns && s.end_ns <= root.end_ns);
        }
    }
    assert_eq!(roots, requests);
    assert!(inside.iter().zip(&wall).all(|(i, w)| i <= w));
    assert_eq!(spans.len(), requests * 5 + 7, "5 per request + 7 phases");

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans.jsonl");
    traced.spans.write_jsonl(&path, 10).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::parse_value(l).unwrap())
        .collect();
    assert_eq!(lines.len(), requests.div_ceil(10) * 5 + 7);
    assert!(lines.iter().all(|l| l
        .get("req")
        .and_then(|r| r.as_u128())
        .is_none_or(|r| r % 10 == 0)));
    assert!(lines
        .iter()
        .any(|l| l.get("name").and_then(|n| n.as_str()) == Some("core.scheme.read.across")));
}

/// The verify pass passes on every workload, checks a useful number of
/// reads, and collects garbage while it does.
#[test]
fn verify_pass_finds_nothing_wrong() {
    for w in &workloads::ALL {
        let trace = w.trace(5, 0.05);
        let v = verify(w, &trace, 5).unwrap();
        assert_eq!(v.attempted, 20_000.min(trace.len() as u64), "{}", w.name);
        assert_eq!(v.failed, 0, "{}", w.name);
        assert!(v.reads_checked > 5_000, "{}: {v:?}", w.name);
    }
}
