//! Fig8 small-config parity: host-side performance work must never change
//! what the simulation *computes*.
//!
//! The golden digests under `tests/golden/fig8_small_digest.json` pin every
//! scheme's replay of the fig8-small workload — flash op counts, GC work,
//! cache stats, latency sums, the simulated span — bit for bit. As of PR 12
//! they are taken under the *defined* GC victim order (most-invalid first,
//! earliest victim-index entry among equals; `aftl_core::gc`), so they do
//! not depend on a sort implementation or the toolchain: any build of this
//! code must reproduce them.
//!
//! `tests/golden/fig8_small_learned.json` does the same for the fourth
//! scheme where its model actually decides something: Learned-FTL on the
//! same workload with a two-translation-page mapping cache (at the stock
//! cache the whole PMT is resident and no prediction ever fires).
//!
//! `tests/golden/mrsm_gc_repack.json` takes MRSM where the fig8-small row
//! never goes (`gc_migrations: 0` there): a fuller device and a wider lun,
//! so GC moves page-mapped pages one-to-one *and* repacks sparse region
//! pages — the paths whose slot assignment depends on the order entries
//! sit in a page's resident set.
//!
//! `tests/golden/fig8_small_pipelined.json` pins the *other* engine mode in
//! full, for all four schemes: the digest with its two timing fields, the
//! `map_engine` counters and the scheme counters. The pipelined flash-side
//! test below deliberately ignores issue times; this file is what notices
//! a data op issued at a different simulated time, or an issue counted as
//! out-of-order that was not before.
//!
//! `tests/golden/drivers.json` pins the *drivers* rather than the schemes:
//! Across-FTL through replay, hosted, fleet and both crash-recovery modes,
//! each as its whole manifest (host clock zeroed). The digests above see
//! only what the device computed; this file also notices a driver that
//! fills its measured window or assembles its report differently.
//!
//! `tests/golden/recovered.json` pins the device a crash rebuild hands
//! back: every scheme, scanned and checkpointed, at six cut budgets — the
//! manifest, the rebuilt mapping in a scheme-independent form, a mixed
//! continuation through the rebuilt scheme, and the final counters and
//! mapping, as one digest per case plus readable counts.
//!
//! `tests/golden/faulted.json` pins the fault path no other golden
//! reaches: every scheme on the tiny device under GC pressure with read,
//! program and erase faults armed and no read retries, so old-copy reads
//! (read-modify-write, area merge and rollback, GC copy and lift) and host
//! reads lose pages. Each case is a digest of the manifest and of every
//! sector a read served, plus the loss counts in readable form.
//!
//! To re-bless after an *intentional* behaviour change (e.g. a scheme or
//! policy change, never a data-structure swap):
//!
//! ```text
//! AFTL_BLESS=1 cargo test --release -p aftl-integration --test fig8_parity
//! ```

use aftl_bench::learnedbench::learned_traffic_config;
use aftl_bench::replay::{self, ReplayDigest};
use aftl_core::request::HostRequest;
use aftl_core::scheme::{FtlScheme, SchemeKind};
use aftl_core::{LearnedStats, MapEngineStats, SchemeCounters, SchemeImage};
use aftl_host::{Arbitration, HostConfig, IssueModel};
use aftl_sim::crash::workload;
use aftl_sim::experiment::{run_on_device_keep, run_single_with};
use aftl_sim::fleet::{run_fleet, FleetSpec};
use aftl_sim::hosted::{run_hosted, tenants_from_trace};
use aftl_sim::{CrashConfig, SimConfig, Ssd};
use aftl_trace::{IoOp, IoRecord, Trace};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::OnceLock;

const GOLDEN_PATH: &str = "../../tests/golden/fig8_small_digest.json";
const LEARNED_GOLDEN_PATH: &str = "../../tests/golden/fig8_small_learned.json";
const MRSM_GC_GOLDEN_PATH: &str = "../../tests/golden/mrsm_gc_repack.json";
const PIPELINED_GOLDEN_PATH: &str = "../../tests/golden/fig8_small_pipelined.json";
const DRIVERS_GOLDEN_PATH: &str = "../../tests/golden/drivers.json";
const RECOVERED_GOLDEN_PATH: &str = "../../tests/golden/recovered.json";
const FAULTED_GOLDEN_PATH: &str = "../../tests/golden/faulted.json";

fn run_digests() -> Vec<ReplayDigest> {
    let trace = replay::fig8_small_trace(replay::FIG8_SMALL_SCALE);
    SchemeKind::ALL
        .iter()
        .map(|&s| ReplayDigest::of(&replay::run_fig8_small(s, &trace)))
        .collect()
}

/// The JSON of the golden file at `path`. With `AFTL_BLESS` set, the file
/// is first rewritten from `fresh()` — a serial replay on the code under
/// test.
fn golden_json<T: Serialize>(path: &str, fresh: impl FnOnce() -> T) -> String {
    if std::env::var_os("AFTL_BLESS").is_some() {
        let json = serde_json::to_string_pretty(&fresh()).expect("golden serializes");
        std::fs::write(path, json).expect("write golden");
        eprintln!("blessed {path}");
    }
    std::fs::read_to_string(path)
        .expect("golden present (bless with AFTL_BLESS=1 after intentional changes)")
}

/// The golden digests every paper-scheme test here compares against. Under
/// `AFTL_BLESS` the first caller rewrites the file before anyone reads it —
/// the tests run on parallel threads, and all of them come through this one
/// initialisation.
fn golden() -> &'static [ReplayDigest] {
    static GOLDEN: OnceLock<Vec<ReplayDigest>> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        serde_json::from_str(&golden_json(GOLDEN_PATH, run_digests)).expect("golden digest parses")
    })
}

/// Everything a Learned-FTL replay reports that its model decides: the
/// flash-visible digest, the whole `learned` counter section, and the
/// mapping footprint (16 B per installed segment + 4 B per hole on top of
/// the touched translation pages, so it pins the store's final shape).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct LearnedGolden {
    digest: ReplayDigest,
    learned: LearnedStats,
    mapping_table_bytes: u64,
}

fn run_learned() -> LearnedGolden {
    let trace = replay::fig8_small_trace(replay::FIG8_SMALL_SCALE);
    let report = run_single_with(learned_traffic_config(SchemeKind::Learned), &trace)
        .expect("starved learned fig8-small replay succeeds");
    LearnedGolden {
        digest: ReplayDigest::of(&report),
        learned: report.learned,
        mapping_table_bytes: report.mapping_table_bytes,
    }
}

/// Which LPN is predictable, which segment is rebuilt and which one the
/// clock evicts are model decisions; the structure that looks them up is
/// not. A swap of the latter must reproduce this file unchanged.
#[test]
fn starved_learned_replay_matches_golden() {
    let golden: LearnedGolden =
        serde_json::from_str(&golden_json(LEARNED_GOLDEN_PATH, run_learned))
            .expect("learned golden parses");
    let got = run_learned();
    assert!(
        got.learned.predict_hits > 0 && got.learned.segment_rebuilds > 0,
        "the golden must exercise the model: {:?}",
        got.learned
    );
    assert_eq!(
        golden, got,
        "Learned-FTL: simulated results drifted from the golden"
    );
}

/// What an MRSM replay reports that its GC decides: the flash-visible
/// digest, the scheme counters and the mapping footprint.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct MrsmGcRun {
    digest: ReplayDigest,
    counters: SchemeCounters,
    mapping_table_bytes: u64,
}

/// Both map-engine modes: the flash side must not depend on the mode, and
/// the latency side is pinned per mode.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct MrsmGcGolden {
    serial: MrsmGcRun,
    pipelined: MrsmGcRun,
}

/// MRSM on the fig8-small device aged to 70 % valid, replaying lun1's
/// sub-page write mix over a 384 MiB lun: victims still hold live pages
/// when GC takes them, region pages among them.
fn run_mrsm_gc() -> MrsmGcGolden {
    let mut spec = aftl_trace::LunPreset::Lun1.spec(replay::FIG8_SMALL_SCALE);
    spec.lun_bytes = 384 << 20;
    let trace = aftl_trace::VdiWorkload::new(spec).generate();
    let run = |pipelined: bool| {
        let mut config = replay::fig8_small_config_with(SchemeKind::Mrsm, pipelined);
        config.warmup.valid_fraction = 0.70;
        let report = run_single_with(config, &trace).expect("GC-heavy MRSM replay succeeds");
        MrsmGcRun {
            digest: ReplayDigest::of(&report),
            counters: report.counters,
            mapping_table_bytes: report.mapping_table_bytes,
        }
    };
    MrsmGcGolden {
        serial: run(false),
        pipelined: run(true),
    }
}

/// One-to-one moves, sparse-page repack and the chunked flush assign flash
/// slots in resident-set entry order; a table swap that reorders a set
/// moves programs and every count downstream of them.
#[test]
fn mrsm_gc_repack_matches_golden() {
    let golden: MrsmGcGolden = serde_json::from_str(&golden_json(MRSM_GC_GOLDEN_PATH, run_mrsm_gc))
        .expect("MRSM GC golden parses");
    let got = run_mrsm_gc();
    for run in [&got.serial, &got.pipelined] {
        let d = &run.digest;
        // A migrated source page costs one program unless it was sparse:
        // its live sub-regions then share repack programs, flushed at the
        // latest when the slice finishes. Fewer programs than source pages
        // is therefore repacking, observed.
        assert!(
            d.gc_migrated_pages > 0 && d.gc_migrated_pages < d.gc_migrations,
            "the golden must exercise one-to-one moves and repack: {d:?}"
        );
    }
    assert_eq!(
        got.serial.digest.flash_side(),
        got.pipelined.digest.flash_side()
    );
    assert_eq!(
        golden, got,
        "MRSM: simulated results drifted from the golden"
    );
}

#[test]
fn fig8_small_matches_pre_optimization_golden() {
    let golden = golden();
    let digests = run_digests();

    assert_eq!(golden.len(), digests.len(), "scheme count changed");
    for (want, got) in golden.iter().zip(&digests) {
        assert_eq!(
            want, got,
            "{}: simulated results drifted from the golden digest",
            got.scheme
        );
    }
}

/// [`ReplayDigest::flash_side`]: the digest minus the two fields that
/// legitimately depend on *when* requests reach the device (host-side
/// pacing or pipelined issue). Everything else — flash ops, GC work,
/// cache stats, chip-busy time (a pure sum of op durations), DRAM
/// accesses — is a function of request order and content only, so the
/// hosted path must reproduce it exactly.
fn flash_side(d: ReplayDigest) -> ReplayDigest {
    d.flash_side()
}

/// The pipelined map engine reorders *issue times*, never flash work:
/// with `--pipeline` on, every scheme's replay must still match the
/// golden digest on the flash side — op counts, GC work, chip-busy time,
/// the full cache counter set, DRAM accesses. Only `latency_sum_ns` and
/// `sim_span_ns` may move.
#[test]
fn pipelined_replay_matches_golden_flash_side() {
    let trace = replay::fig8_small_trace(replay::FIG8_SMALL_SCALE);
    let golden = golden();

    for (i, &scheme) in SchemeKind::ALL.iter().enumerate() {
        let piped = ReplayDigest::of(&replay::run_fig8_small_with(scheme, &trace, true));
        assert_eq!(
            golden[i].flash_side(),
            piped.flash_side(),
            "{}: pipelined replay changed flash-side behaviour",
            scheme.name()
        );
    }
}

/// Everything a pipelined replay reports that the engine's issue rule
/// decides: the whole digest (latency sum and simulated span included),
/// the map-engine counters and the scheme counters.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct PipelinedRun {
    digest: ReplayDigest,
    map_engine: MapEngineStats,
    counters: SchemeCounters,
}

fn run_pipelined() -> Vec<PipelinedRun> {
    let trace = replay::fig8_small_trace(replay::FIG8_SMALL_SCALE);
    SchemeKind::WITH_LEARNED
        .iter()
        .map(|&scheme| {
            let report = replay::run_fig8_small_with(scheme, &trace, true);
            PipelinedRun {
                digest: ReplayDigest::of(&report),
                map_engine: report.map_engine,
                counters: report.counters,
            }
        })
        .collect()
}

/// Pipelined mode is a model of *when* data ops issue. Baseline and
/// Learned-FTL never open a batch or report an issue to the engine; MRSM
/// and Across-FTL do, per data op, at that op's own mapping-ready time. A
/// refactor that moves either habit changes latencies or
/// `ooo_completions` and nothing on the flash side.
#[test]
fn pipelined_replay_matches_full_golden() {
    let golden: Vec<PipelinedRun> =
        serde_json::from_str(&golden_json(PIPELINED_GOLDEN_PATH, run_pipelined))
            .expect("pipelined golden parses");
    let got = run_pipelined();
    assert_eq!(golden.len(), got.len(), "scheme count changed");
    for (want, got) in golden.iter().zip(&got) {
        assert_eq!(
            want, got,
            "{}: pipelined results drifted from the golden",
            got.digest.scheme
        );
    }
    assert!(
        got.iter().any(|r| r.map_engine.ooo_completions > 0),
        "the golden must exercise out-of-order issue"
    );
}

/// A single closed-loop tenant behind the multi-queue host front end
/// must be the replay path with different request timestamps: identical
/// flash-side counters on every scheme, and therefore identical to the
/// golden digest as well.
#[test]
fn hosted_single_tenant_matches_replay_flash_side() {
    let trace = replay::fig8_small_trace(replay::FIG8_SMALL_SCALE);
    let host = HostConfig {
        arbitration: Arbitration::RoundRobin,
        device_inflight: 8,
        seed: 42,
    };

    let golden = golden();

    for (i, &scheme) in SchemeKind::ALL.iter().enumerate() {
        let replayed = flash_side(ReplayDigest::of(&replay::run_fig8_small(scheme, &trace)));
        let tenants =
            tenants_from_trace(&trace, 1, IssueModel::Closed { outstanding: 8 }, 32, &[1]);
        let report = run_hosted(replay::fig8_small_config(scheme), tenants, &host)
            .expect("hosted fig8-small run succeeds");
        let mut hosted = flash_side(ReplayDigest::of(&report));
        // The hosted run is named after its tenant shard; the digest
        // comparison is about counters, not labels.
        assert_eq!(report.trace, format!("hosted:{}.s0", trace.name));
        hosted.scheme = replayed.scheme.clone();
        assert_eq!(
            replayed,
            hosted,
            "{}: hosted single-tenant run diverged from replay on flash-side counters",
            scheme.name()
        );
        assert_eq!(
            flash_side(golden[i].clone()),
            hosted,
            "{}: hosted run diverged from the golden digest",
            scheme.name()
        );
    }
}

/// A 1-device fleet is the hosted run — not approximately: the unsharded
/// trace takes the same path with the same seeds, so every digest field
/// (latency sums and simulated span included) must be bit-identical, and
/// therefore match the golden digest on the flash side too.
#[test]
fn fleet_single_device_matches_hosted_run_bit_for_bit() {
    let trace = replay::fig8_small_trace(replay::FIG8_SMALL_SCALE);
    let host = HostConfig {
        arbitration: Arbitration::RoundRobin,
        device_inflight: 8,
        seed: 42,
    };
    let spec = FleetSpec {
        devices: 1,
        host,
        issue: IssueModel::Closed { outstanding: 8 },
        queue_depth: 32,
        tenants_per_device: 1,
        weights: vec![1],
    };

    let golden = golden();

    for (i, &scheme) in SchemeKind::ALL.iter().enumerate() {
        let fleet_report = run_fleet(replay::fig8_small_config(scheme), &trace, &spec)
            .expect("fleet fig8-small run succeeds");
        let tenants =
            tenants_from_trace(&trace, 1, IssueModel::Closed { outstanding: 8 }, 32, &[1]);
        let hosted_report = run_hosted(replay::fig8_small_config(scheme), tenants, &host)
            .expect("hosted fig8-small run succeeds");

        assert_eq!(
            fleet_report.trace, hosted_report.trace,
            "1-device fleet keeps the hosted run name"
        );
        assert_eq!(
            ReplayDigest::of(&fleet_report),
            ReplayDigest::of(&hosted_report),
            "{}: 1-device fleet diverged from the hosted run",
            scheme.name()
        );
        assert_eq!(fleet_report.qos, hosted_report.qos);
        let mut fleet_digest = flash_side(ReplayDigest::of(&fleet_report));
        fleet_digest.scheme = golden[i].scheme.clone();
        assert_eq!(
            flash_side(golden[i].clone()),
            fleet_digest,
            "{}: 1-device fleet diverged from the golden digest",
            scheme.name()
        );
    }
}

/// One driver's whole manifest, `wall_seconds` zeroed.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct DriverRun {
    driver: String,
    report: serde::Value,
}

/// Across-FTL through every driver: replay, hosted (2 WRR tenants), a
/// 2-device fleet, and the crash workload replayed with a cut armed and
/// rebuilt by full scan and from checkpoints.
fn run_drivers() -> Vec<DriverRun> {
    let trace = replay::fig8_small_trace(replay::FIG8_SMALL_SCALE);
    let config = || replay::fig8_small_config(SchemeKind::Across);
    let host = HostConfig {
        arbitration: Arbitration::WeightedRoundRobin,
        device_inflight: 8,
        seed: 42,
    };
    let tenants = tenants_from_trace(
        &trace,
        2,
        IssueModel::Closed { outstanding: 8 },
        32,
        &[3, 1],
    );
    let crash = |checkpoint_every| {
        let mut config = SimConfig::test_tiny(SchemeKind::Across);
        config.crash = CrashConfig {
            crash_at: Some(700),
            recover: true,
            checkpoint_every,
        };
        run_single_with(config.clone(), &workload(&config, 400, 7))
    };
    let runs = [
        ("replay", run_single_with(config(), &trace)),
        ("hosted", run_hosted(config(), tenants, &host)),
        ("fleet", run_fleet(config(), &trace, &FleetSpec::new(2))),
        ("crash-scan", crash(None)),
        ("crash-checkpoint", crash(Some(50))),
    ];
    runs.into_iter()
        .map(|(driver, report)| {
            let mut report = report.unwrap_or_else(|e| panic!("{driver} run fails: {e}"));
            report.wall_seconds = 0.0;
            DriverRun {
                driver: driver.to_string(),
                report: serde_json::to_value(&report),
            }
        })
        .collect()
}

/// Each driver fills its measured window and assembles its manifest; a
/// refactor of either must reproduce every section of every manifest.
#[test]
fn every_driver_matches_golden() {
    let golden: Vec<DriverRun> =
        serde_json::from_str(&golden_json(DRIVERS_GOLDEN_PATH, run_drivers))
            .expect("drivers golden parses");
    let got = run_drivers();
    assert_eq!(golden.len(), got.len(), "driver count changed");
    for (want, got) in golden.iter().zip(&got) {
        assert_eq!(want.driver, got.driver);
        let (serde::Value::Map(want_fields), serde::Value::Map(got_fields)) =
            (&want.report, &got.report)
        else {
            panic!("{}: a manifest is a JSON object", want.driver);
        };
        let keys = |fields: &[(String, serde::Value)]| -> Vec<String> {
            fields.iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(keys(want_fields), keys(got_fields), "{}", want.driver);
        for ((key, w), (_, g)) in want_fields.iter().zip(got_fields) {
            assert_eq!(w, g, "{}: `{key}` drifted from the golden", want.driver);
        }
    }
}

/// One rebuilt device, as the golden keeps it: a digest of everything
/// recorded, and the counts that show what moved when it drifts.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct RecoveredCase {
    case: String,
    /// FNV-1a 64 of the case's whole record, in hex.
    digest: String,
    mapped_lpns: u64,
    sub_mapped_lpns: u64,
    areas: u64,
    lost_sectors: u64,
}

/// Cut budgets of the recovered-device pin: five that fire at different
/// depths of the 800-write workload, and one that never fires.
const RECOVERED_BUDGETS: [u64; 6] = [300, 700, 1_100, 1_500, 1_900, u64::MAX / 2];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A scheme's mapping whatever the scheme: one line per mapped LPN (its
/// whole page, or its four `ppn:slot` sub-locations, `-` for a sub never
/// written) in LPN order, then one line per live area. Returns the mapped
/// LPNs, the sub-mapped ones and the areas.
fn write_mapping(scheme: &dyn FtlScheme, out: &mut String) -> (u64, u64, u64) {
    let SchemeImage { pages, subs, areas } = scheme.capture_image();
    let mut lines: Vec<(u64, String)> = pages
        .iter()
        .map(|&(lpn, ppn)| (lpn, format!("page {}", ppn.0)))
        .collect();
    for (lpn, locs) in &subs {
        let locs: Vec<String> = locs
            .iter()
            .map(|loc| loc.map_or("-".to_string(), |(ppn, slot)| format!("{}:{slot}", ppn.0)))
            .collect();
        lines.push((*lpn, format!("subs {}", locs.join(" "))));
    }
    lines.sort_by_key(|&(lpn, _)| lpn);
    for (lpn, line) in &lines {
        writeln!(out, "lpn {lpn} {line}").unwrap();
    }
    for a in &areas {
        writeln!(
            out,
            "area {} {} {} {}",
            a.aidx, a.start_sector, a.size_sectors, a.appn.0
        )
        .unwrap();
    }
    (lines.len() as u64, subs.len() as u64, areas.len() as u64)
}

/// 600 seeded requests through the rebuilt device, half writes, up to
/// three pages long over the crash workload's footprint: each one's
/// latency and the sum of the versions it served.
fn write_continuation(ssd: &mut Ssd, out: &mut String) {
    let spp = u64::from(ssd.spp());
    let span = ssd.logical_sectors() / 3;
    for i in 0..600u64 {
        let z = splitmix(0xC0_FFEE ^ i);
        let sectors = 1 + (z >> 8) % (3 * spp);
        let sector = (z >> 24) % (span - sectors);
        let at = (1 << 40) + i * 5_000;
        let req = if z & 1 == 0 {
            HostRequest {
                version: 1_000_000 + i,
                ..HostRequest::write(at, sector, sectors as u32)
            }
        } else {
            HostRequest::read(at, sector, sectors as u32)
        };
        let done = ssd
            .submit(&req)
            .unwrap_or_else(|e| panic!("continuation request {i}: {e}"));
        let served = done
            .served
            .iter()
            .fold(0u64, |sum, s| sum.wrapping_add(s.version));
        writeln!(out, "req {i} {} {served}", done.latency_ns).unwrap();
    }
}

fn run_recovered() -> Vec<RecoveredCase> {
    let mut cases = Vec::new();
    for scheme in SchemeKind::WITH_LEARNED {
        for checkpoint_every in [None, Some(25)] {
            for crash_at in RECOVERED_BUDGETS {
                let mut config = SimConfig::test_tiny(scheme);
                config.crash = CrashConfig {
                    crash_at: Some(crash_at),
                    recover: true,
                    checkpoint_every,
                };
                let trace = workload(&config, 800, 0x5EED);
                let device = Ssd::new(config).expect("device");
                let (mut report, mut ssd) = run_on_device_keep(device, &trace)
                    .unwrap_or_else(|e| panic!("{} @ {crash_at}: {e}", scheme.name()));
                report.wall_seconds = 0.0;
                let mut text = serde_json::to_string(&report).expect("manifest serializes");
                text.push('\n');
                let (mapped, sub_mapped, areas) = write_mapping(ssd.scheme(), &mut text);
                write_continuation(&mut ssd, &mut text);
                writeln!(text, "{:?}", ssd.snapshot()).unwrap();
                write_mapping(ssd.scheme(), &mut text);
                let mode = checkpoint_every.map_or("scan", |_| "ck25");
                let cut = if crash_at == u64::MAX / 2 {
                    "never".to_string()
                } else {
                    crash_at.to_string()
                };
                cases.push(RecoveredCase {
                    case: format!("{}/{mode}/{cut}", scheme.name()),
                    digest: format!("{:016x}", fnv1a(&text)),
                    mapped_lpns: mapped,
                    sub_mapped_lpns: sub_mapped,
                    areas,
                    lost_sectors: report.recovery.as_ref().map_or(0, |r| r.lost_sectors),
                });
            }
        }
    }
    cases
}

/// A change to how recovery elects winners or how a scheme loads and
/// saves its image must hand back the same device: the same manifest,
/// the same mapping, the same behaviour after it.
#[test]
fn recovered_devices_match_golden() {
    let golden: Vec<RecoveredCase> =
        serde_json::from_str(&golden_json(RECOVERED_GOLDEN_PATH, run_recovered))
            .expect("recovered golden parses");
    let got = run_recovered();
    assert_eq!(golden.len(), got.len(), "case count changed");
    assert!(
        got.iter().any(|c| c.sub_mapped_lpns > 0) && got.iter().any(|c| c.areas > 0),
        "the golden must exercise sub-mapped LPNs and areas"
    );
    for (want, got) in golden.iter().zip(&got) {
        assert_eq!(want, got, "{}: the recovered device drifted", want.case);
    }
}

/// One faulted device, as the golden keeps it: digests of the manifest and
/// of the served sectors, and the counts that show which loss path moved.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct FaultedCase {
    scheme: String,
    /// FNV-1a 64 of the manifest (`wall_seconds` zeroed), in hex.
    manifest: String,
    /// FNV-1a 64 of every read's served `(sector, version)` pairs, each
    /// read's sorted by sector, in hex.
    served: String,
    /// Old copies lost on the host path (read-modify-write, merge, rollback).
    lost_pages: u64,
    /// Valid pages GC lost while copying or lifting them.
    gc_lost_pages: u64,
    host_unrecoverable_reads: u64,
    rmw_reads: u64,
    /// Programs that failed and were relocated to a fresh block.
    relocated_programs: u64,
}

/// 2 500 seeded requests, 60 % writes of 1–16 sectors over 40 % of the
/// tiny device's logical space: enough overwrite churn for GC, and enough
/// partial and across-page writes for every old-copy read.
fn faulted_trace(logical_sectors: u64) -> Trace {
    let span = logical_sectors * 4 / 10;
    let records = (0..2_500u64)
        .map(|i| {
            let z = splitmix(0xFA_0175 ^ i);
            let sectors = 1 + (z >> 8) % 16;
            IoRecord {
                at_ns: i * 20_000,
                sector: (z >> 24) % (span - sectors),
                sectors: sectors as u32,
                op: if z % 10 < 6 { IoOp::Write } else { IoOp::Read },
            }
        })
        .collect();
    Trace::new("faulted", records)
}

fn run_faulted() -> Vec<FaultedCase> {
    SchemeKind::WITH_LEARNED
        .iter()
        .map(|&scheme| {
            let mut config = SimConfig::test_tiny(scheme);
            config.fault = aftl_flash::FaultConfig {
                seed: 0xF1A5,
                read_fail_rate: 0.03,
                program_fail_rate: 0.004,
                erase_fail_rate: 0.002,
                read_retries: 0,
                ..aftl_flash::FaultConfig::disabled()
            };
            let trace = faulted_trace(Ssd::new(config.clone()).expect("device").logical_sectors());
            let (mut report, _) =
                run_on_device_keep(Ssd::new(config.clone()).expect("device"), &trace)
                    .unwrap_or_else(|e| panic!("{}: faulted replay fails: {e}", scheme.name()));
            report.wall_seconds = 0.0;
            let manifest = serde_json::to_string(&report).expect("manifest serializes");
            // The same requests again, each write stamped with its own
            // version so a served sector names the write it came from.
            let mut ssd = Ssd::new(config).expect("device");
            let mut served = String::new();
            for (i, rec) in trace.records.iter().enumerate() {
                let req = HostRequest {
                    version: i as u64 + 1,
                    ..match rec.op {
                        IoOp::Write => HostRequest::write(rec.at_ns, rec.sector, rec.sectors),
                        IoOp::Read => HostRequest::read(rec.at_ns, rec.sector, rec.sectors),
                    }
                };
                match ssd.submit(&req) {
                    Ok(done) => {
                        let mut sectors: Vec<(u64, u64)> =
                            done.served.iter().map(|s| (s.sector, s.version)).collect();
                        sectors.sort_unstable();
                        writeln!(served, "{i} {sectors:?}").unwrap();
                    }
                    Err(aftl_flash::FlashError::ReadOnlyMode) => {
                        writeln!(served, "{i} ro").unwrap()
                    }
                    Err(e) => panic!("{}: request {i}: {e}", scheme.name()),
                }
            }
            FaultedCase {
                scheme: scheme.name().to_string(),
                manifest: format!("{:016x}", fnv1a(&manifest)),
                served: format!("{:016x}", fnv1a(&served)),
                lost_pages: report.counters.lost_pages,
                gc_lost_pages: report.gc.lost_pages,
                host_unrecoverable_reads: report.counters.host_unrecoverable_reads,
                rmw_reads: report.counters.rmw_reads,
                relocated_programs: report.flash.program_faults,
            }
        })
        .collect()
}

/// Lost reads, lost old copies and relocated programs on every scheme: a
/// refactor of any read that can lose its page must serve, stamp and
/// count exactly what it did.
#[test]
fn faulted_devices_match_golden() {
    let golden: Vec<FaultedCase> =
        serde_json::from_str(&golden_json(FAULTED_GOLDEN_PATH, run_faulted))
            .expect("faulted golden parses");
    let got = run_faulted();
    for case in &got {
        assert!(
            case.lost_pages > 0
                && case.gc_lost_pages > 0
                && case.host_unrecoverable_reads > 0
                && case.rmw_reads > 0
                && case.relocated_programs > 0,
            "the golden must exercise every loss path: {case:?}"
        );
    }
    assert_eq!(golden, got, "a faulted device drifted from the golden");
}
