//! Isolated per-call costs: each layer's public functions driven directly,
//! [`CALLS`] calls a pass (fewer in scaled-down runs), median of [`PASSES`]
//! passes. These are lower
//! bounds taken with hot caches and no neighbours — read them beside the
//! layer's share of a real run, never instead of it. Reported once, under
//! `lun1-across`.

use std::hint::black_box;
use std::time::Instant;

use aftl_bench::replay::fig8_small_config;
use aftl_core::mapping::cache::MapCache;
use aftl_core::mapping::engine::{MapEngine, PipelineConfig};
use aftl_core::mapping::pmt::PageMapTable;
use aftl_core::request::ReqKind;
use aftl_core::scheme::SchemeKind;
use aftl_flash::{
    Allocator, BlockAddr, FlashArray, Geometry, Nanos, PageKind, Ppn, Result, StreamId, TimingSpec,
    VictimIndex,
};
use aftl_host::{
    run_host, Arbiter, Arbitration, HostConfig, IssueModel, QueuedDevice, Served, TenantConfig,
};
use aftl_sim::hosted::tenants_from_trace;
use aftl_sim::observe::Observer;
use aftl_sim::{ObserveConfig, SimConfig};
use aftl_trace::{IoRecord, LunPreset, Trace, VdiWorkload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::median;

/// Calls per timed pass at full scale (a power of two, for [`walk`]).
pub const CALLS: usize = 1 << 20;
/// Passes per metric; the median is reported.
pub const PASSES: usize = 5;

/// Nanoseconds per call of `body` over `calls` calls.
fn per_call(calls: usize, mut body: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..calls {
        body(i);
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// A full-period walk over `0..calls`: every index once, in an order the
/// seed picks.
fn walk(calls: usize, seed: u64) -> impl Fn(usize) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed);
    let stride = (rng.random::<u64>() as usize) | 1;
    let offset = rng.random::<u64>() as usize;
    move |i| (i.wrapping_mul(stride).wrapping_add(offset)) & (calls - 1)
}

/// Per-call costs of one pass over a fresh flash array.
struct FlashPass {
    program: f64,
    alloc: f64,
    read: f64,
    invalidate: f64,
    erase: f64,
}

fn flash_pass(
    calls: usize,
    geometry: Geometry,
    timing: TimingSpec,
    seed: u64,
) -> Result<FlashPass> {
    let planes = geometry.total_planes();
    let ppb = geometry.pages_per_block as usize;
    let blocks: Vec<BlockAddr> = (0..(calls / ppb) as u64)
        .map(|b| BlockAddr {
            plane_idx: b % planes,
            block: (b / planes) as u32,
        })
        .collect();
    let page_bytes = geometry.page_bytes;
    let at = |i: usize| i as Nanos * 1_000;

    let mut array = FlashArray::new(geometry, timing)?;
    let ppns: Vec<Ppn> = blocks
        .iter()
        .flat_map(|&b| (0..ppb as u32).map(move |p| (b, p)))
        .map(|(b, p)| array.ppn_in_block(b, p))
        .collect();
    let program = per_call(calls, |i| {
        black_box(
            array
                .program(ppns[i], PageKind::Data, i as u64, page_bytes, at(i), at(i))
                .expect("sequential program of a free page"),
        );
    });
    let order = walk(calls, seed);
    let read = per_call(calls, |i| {
        black_box(
            array
                .read(ppns[order(i)], page_bytes, at(i), at(i))
                .expect("read of a programmed page"),
        );
    });
    let invalidate = per_call(calls, |i| {
        array
            .invalidate(ppns[order(i)])
            .expect("invalidate of a valid page");
    });
    // The first lap erases fully-invalid blocks, later laps re-erase them.
    let erase = per_call(calls, |i| {
        black_box(
            array
                .erase(blocks[i % blocks.len()], at(i))
                .expect("erase of a block with no valid page"),
        );
    });
    drop(array);

    // The allocator only moves on once its page is programmed, so it is
    // timed together with the program and the program's cost taken off.
    let mut array = FlashArray::new(geometry, timing)?;
    let mut alloc = Allocator::new(&array);
    let both = per_call(calls, |i| {
        let ppn = alloc
            .alloc_page(&array, StreamId::Data)
            .expect("half-empty array has free pages");
        black_box(
            array
                .program(ppn, PageKind::Data, i as u64, page_bytes, at(i), at(i))
                .expect("allocated page is programmable"),
        );
    });
    Ok(FlashPass {
        program,
        alloc: (both - program).max(0.0),
        read,
        invalidate,
        erase,
    })
}

fn victims_pass(calls: usize, geometry: &Geometry, seed: u64) -> (f64, f64) {
    let total = geometry.total_blocks();
    let mut index = VictimIndex::new(total, geometry.blocks_per_plane, geometry.pages_per_block);
    let order = walk(calls, seed);
    let upsert = per_call(calls, |i| {
        let b = order(i) as u64 % total;
        index.upsert(
            BlockAddr {
                plane_idx: b / u64::from(geometry.blocks_per_plane),
                block: (b % u64::from(geometry.blocks_per_plane)) as u32,
            },
            1 + (order(i) >> 8) as u32 % geometry.pages_per_block,
        );
    });
    let peek = per_call(calls, |_| {
        black_box(index.peek_best());
    });
    (upsert, peek)
}

fn pmt_pass(calls: usize, logical_pages: u64, seed: u64) -> (f64, f64) {
    let mut pmt = PageMapTable::new(logical_pages);
    let order = walk(calls, seed);
    let set = per_call(calls, |i| {
        black_box(pmt.set_ppn(order(i) as u64 % logical_pages, Ppn(i as u64)));
    });
    let get = per_call(calls, |i| {
        black_box(pmt.get(black_box(order(i) as u64 % logical_pages)));
    });
    (get, set)
}

/// Translation pages the cache passes keep resident.
const RESIDENT: u64 = 64;

/// Hit: the resident set, round and round. Miss: twice the resident set in
/// LRU order, so every access evicts one page and loads another from flash.
fn cache_pass(calls: usize, geometry: Geometry, timing: TimingSpec) -> Result<(f64, f64)> {
    let mut array = FlashArray::new(geometry, timing)?;
    let mut alloc = Allocator::new(&array);
    let mut cache = MapCache::new(RESIDENT as usize);
    for tp in 0..RESIDENT {
        cache.access(&mut array, &mut alloc, 0, tp, false)?;
    }
    let hit = per_call(calls, |i| {
        black_box(
            cache
                .access(
                    &mut array,
                    &mut alloc,
                    i as Nanos,
                    (i as u64 * 7) % RESIDENT,
                    false,
                )
                .expect("hit"),
        );
    });
    // Two laps so every page has reached flash and comes back clean.
    for i in 0..4 * RESIDENT {
        cache.access(&mut array, &mut alloc, 0, i % (2 * RESIDENT), false)?;
    }
    let miss = per_call(calls, |i| {
        black_box(
            cache
                .access(
                    &mut array,
                    &mut alloc,
                    i as Nanos,
                    i as u64 % (2 * RESIDENT),
                    false,
                )
                .expect("miss served from flash"),
        );
    });
    Ok((hit, miss))
}

/// Four lookups per dispatch over two resident translation pages: the
/// shape the pipelined engine coalesces.
fn engine_pass(
    calls: usize,
    geometry: Geometry,
    timing: TimingSpec,
    cfg: PipelineConfig,
) -> Result<f64> {
    let mut array = FlashArray::new(geometry, timing)?;
    let mut alloc = Allocator::new(&array);
    let mut engine = MapEngine::new(RESIDENT as usize, cfg);
    for tp in 0..RESIDENT {
        engine.resolve(&mut array, &mut alloc, 0, tp, false)?;
    }
    Ok(per_call(calls, |i| {
        let now = 1 + (i / 4) as Nanos;
        if i % 4 == 0 {
            engine.begin_batch(now);
        }
        let tp = ((i / 4) as u64 + u64::from(i % 4 == 2)) % RESIDENT;
        black_box(
            engine
                .resolve(&mut array, &mut alloc, now, tp, i % 2 == 0)
                .expect("resident page resolves"),
        );
    }))
}

fn observer_pass(calls: usize, seed: u64) -> f64 {
    let mut observer = Observer::new(&ObserveConfig::standard());
    let order = walk(calls, seed);
    let t = per_call(calls, |i| {
        let kind = if i % 3 == 0 {
            ReqKind::Read
        } else {
            ReqKind::Write
        };
        observer.record_host(kind, 50_000 + order(i) as Nanos * 7, i as Nanos);
    });
    black_box(observer.breakdown());
    t
}

/// Completes every command the instant it is submitted.
struct NullDevice;

impl QueuedDevice for NullDevice {
    fn submit(&mut self, now_ns: Nanos, _record: &IoRecord) -> Served {
        Served::Done {
            complete_ns: now_ns,
        }
    }
}

/// The fleet workload's front end (4 WRR tenants, depth 16, 8 outstanding
/// each) over a device that costs nothing.
fn null_tenants(trace: &Trace) -> Vec<TenantConfig> {
    tenants_from_trace(
        trace,
        4,
        IssueModel::Closed { outstanding: 8 },
        16,
        &[4, 2, 1, 1],
    )
}

fn dispatch_pass(calls: usize, tenants: Vec<TenantConfig>) -> f64 {
    let host = HostConfig {
        arbitration: Arbitration::WeightedRoundRobin,
        ..HostConfig::default()
    };
    let mut completed = 0usize;
    let started = Instant::now();
    run_host(&mut NullDevice, tenants, &host, |_| completed += 1);
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!(completed, calls);
    ns / calls as f64
}

fn arbiter_pass(calls: usize) -> f64 {
    let mut arbiter = Arbiter::new(Arbitration::WeightedRoundRobin, &[4, 2, 1, 1]);
    let ready: Vec<[bool; 4]> = (1..16u8)
        .map(|m| [m & 1 != 0, m & 2 != 0, m & 4 != 0, m & 8 != 0])
        .collect();
    per_call(calls, |i| {
        black_box(arbiter.grant(&ready[i % ready.len()]));
    })
}

/// Run the whole micro pass; `(metric name, nanoseconds per call)`.
/// `scale` shortens the passes of smoke runs.
pub fn run(seed: u64, scale: f64) -> Result<Vec<(&'static str, f64)>> {
    let calls = ((CALLS as f64 * scale) as usize)
        .next_power_of_two()
        .clamp(1 << 12, CALLS);
    let big = SimConfig::experiment_geometry(8192);
    let small = fig8_small_config(SchemeKind::Baseline).geometry;
    let timing = TimingSpec::paper_tlc();

    let flash: Vec<FlashPass> = (0..PASSES)
        .map(|p| flash_pass(calls, big, timing, seed + p as u64))
        .collect::<Result<_>>()?;
    let of = |f: fn(&FlashPass) -> f64| median(&flash.iter().map(f).collect::<Vec<_>>());

    let victims: Vec<(f64, f64)> = (0..PASSES)
        .map(|p| victims_pass(calls, &big, seed + p as u64))
        .collect();
    let logical_pages = big.total_pages() * 9 / 10;
    let pmt: Vec<(f64, f64)> = (0..PASSES)
        .map(|p| pmt_pass(calls, logical_pages, seed + p as u64))
        .collect();
    let cache: Vec<(f64, f64)> = (0..PASSES)
        .map(|_| cache_pass(calls, small, timing))
        .collect::<Result<_>>()?;
    let serial: Vec<f64> = (0..PASSES)
        .map(|_| engine_pass(calls, small, timing, PipelineConfig::default()))
        .collect::<Result<_>>()?;
    let pipelined: Vec<f64> = (0..PASSES)
        .map(|_| engine_pass(calls, small, timing, PipelineConfig::on()))
        .collect::<Result<_>>()?;
    let observer: Vec<f64> = (0..PASSES)
        .map(|p| observer_pass(calls, seed + p as u64))
        .collect();
    let arbiter: Vec<f64> = (0..PASSES).map(|_| arbiter_pass(calls)).collect();

    let mut spec = LunPreset::Lun1.spec(1.0);
    spec.requests = calls as u64;
    spec.seed ^= seed;
    let generator = VdiWorkload::new(spec);
    let mut trace = Trace::default();
    let generate: Vec<f64> = (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            trace = generator.generate();
            started.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    assert_eq!(trace.len(), calls);
    let dispatch: Vec<f64> = (0..PASSES)
        .map(|_| dispatch_pass(calls, null_tenants(&trace)))
        .collect();

    let first = |v: &[(f64, f64)]| median(&v.iter().map(|x| x.0).collect::<Vec<_>>());
    let second = |v: &[(f64, f64)]| median(&v.iter().map(|x| x.1).collect::<Vec<_>>());
    Ok(vec![
        ("flash.array.program_iso_ns", of(|p| p.program)),
        ("flash.array.read_iso_ns", of(|p| p.read)),
        ("flash.array.erase_iso_ns", of(|p| p.erase)),
        ("flash.array.invalidate_iso_ns", of(|p| p.invalidate)),
        ("flash.allocator.alloc_iso_ns", of(|p| p.alloc)),
        ("flash.victims.upsert_iso_ns", first(&victims)),
        ("flash.victims.peek_iso_ns", second(&victims)),
        ("core.mapping.pmt_get_iso_ns", first(&pmt)),
        ("core.mapping.pmt_set_iso_ns", second(&pmt)),
        ("core.mapping.cache_hit_iso_ns", first(&cache)),
        ("core.mapping.cache_miss_iso_ns", second(&cache)),
        ("core.mapping.engine_serial_iso_ns", median(&serial)),
        ("core.mapping.engine_pipelined_iso_ns", median(&pipelined)),
        ("sim.observe.record_iso_ns", median(&observer)),
        ("host.engine.dispatch_iso_ns", median(&dispatch)),
        ("host.arbiter.grant_iso_ns", median(&arbiter)),
        ("trace.generate_ns_per_record", median(&generate)),
    ])
}
