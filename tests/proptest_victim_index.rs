//! Property-based check of the incremental GC victim index: under arbitrary
//! program/invalidate/erase/retire sequences — both raw flash-array ops and
//! full scheme workloads with fault injection, one of them with preemptible
//! GC so a victim is held out of the index between requests — the index
//! must always agree with a from-scratch scan of every block summary
//! ([`FlashArray::check_victim_index`]) — and a greedy GC episode selecting
//! from it bucket by bucket must erase blocks in the reference order
//! ([`order_victims`]) over the candidates a full scan finds at its start.

use aftl_core::gc::{order_victims, CopyMigrator, GcConfig, GcState, VictimCand};
use aftl_core::oracle::Oracle;
use aftl_core::request::HostRequest;
use aftl_core::scheme::SchemeKind;
use aftl_core::GcPolicy;
use aftl_flash::{
    Allocator, BlockAddr, FaultConfig, FlashArray, FlashError, Geometry, PageInfo, PageKind,
    TimingSpec,
};
use aftl_integration::{small_ssd_config, small_ssd_with_faults};
use aftl_sim::config::WarmupConfig;
use aftl_sim::Ssd;
use proptest::prelude::*;

/// One raw flash operation, interpreted against the array's current state.
#[derive(Debug, Clone, Copy)]
enum RawOp {
    /// Program the next free page of block `pick % blocks`.
    Program(u64),
    /// Invalidate the `pick`-th currently valid page (tracked externally).
    Invalidate(u64),
    /// Erase the `pick`-th block with no valid pages.
    Erase(u64),
    /// Retire block `pick % blocks`.
    Retire(u64),
}

fn raw_op_strategy() -> impl Strategy<Value = RawOp> {
    (0u8..=9, any::<u64>()).prop_map(|(kind, pick)| match kind {
        // Weight programs and invalidates heavily so blocks actually fill
        // and become victims; keep retirement rare so the array survives.
        0..=3 => RawOp::Program(pick),
        4..=7 => RawOp::Invalidate(pick),
        8 => RawOp::Erase(pick),
        _ => RawOp::Retire(pick),
    })
}

/// Every block address of `g`, plane-major.
fn all_blocks(g: &Geometry) -> Vec<BlockAddr> {
    let blocks_per_plane = g.blocks_per_plane;
    (0..g.total_planes())
        .flat_map(|plane| {
            (0..blocks_per_plane).map(move |block| BlockAddr {
                plane_idx: plane,
                block,
            })
        })
        .collect()
}

/// Replay raw ops against a tiny array, asserting index/scan agreement
/// after every mutation. Returns the array as the ops left it.
fn run_raw_ops(ops: &[RawOp]) -> Result<FlashArray, TestCaseError> {
    let g = Geometry::tiny();
    let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
    let blocks = all_blocks(&g);
    let mut valid: Vec<aftl_flash::Ppn> = Vec::new();

    for (i, op) in ops.iter().enumerate() {
        match *op {
            RawOp::Program(pick) => {
                let addr = blocks[(pick % blocks.len() as u64) as usize];
                if let Some(page) = array.next_free_page(addr) {
                    let ppn = array.ppn_in_block(addr, page);
                    array
                        .program(ppn, PageKind::Data, i as u64, g.page_bytes, 0, 0)
                        .unwrap();
                    valid.push(ppn);
                }
            }
            RawOp::Invalidate(pick) => {
                if !valid.is_empty() {
                    let ppn = valid.swap_remove((pick % valid.len() as u64) as usize);
                    array.invalidate(ppn).unwrap();
                }
            }
            RawOp::Erase(pick) => {
                let erasable: Vec<BlockAddr> = blocks
                    .iter()
                    .copied()
                    .filter(|&a| {
                        let s = array.block_summary(a);
                        !s.retired && s.valid == 0 && s.invalid > 0
                    })
                    .collect();
                if !erasable.is_empty() {
                    let addr = erasable[(pick % erasable.len() as u64) as usize];
                    array.erase(addr, 0).unwrap();
                }
            }
            RawOp::Retire(pick) => {
                let addr = blocks[(pick % blocks.len() as u64) as usize];
                // Drop the retired block's pages from our valid pool: they
                // stay Valid in the array but this harness stops using them,
                // mirroring an FTL migrating off a bad block.
                valid.retain(|&p| array.block_addr_of(p) != addr);
                array.retire_block(addr);
            }
        }
        if let Err(msg) = array.check_victim_index() {
            return Err(TestCaseError::fail(format!("after op {i} {op:?}: {msg}")));
        }
    }
    Ok(array)
}

/// After `ops`, run one atomic greedy episode (plain [`CopyMigrator`], data
/// pages only) that stops `hysteresis` above the trigger, and check that
/// the blocks it erased, in order, are a prefix of `order_victims(Greedy)`
/// over the full-scan candidate set taken at episode start.
///
/// Erases are not individually observable from outside, so the sequence is
/// reconstructed: the per-block erase counts give the erased *set*, and
/// the migrator's remap callback gives each victim that still had valid
/// pages its exact *position* (the array's erase counter at its first
/// copy). Only the order among fully-invalid victims — all in the top
/// bucket, at the head of the sequence — is beyond its reach.
fn check_greedy_erase_order(ops: &[RawOp], hysteresis: f64) -> Result<(), TestCaseError> {
    let mut array = run_raw_ops(ops)?;
    let g = *array.geometry();
    let blocks = all_blocks(&g);

    // Close every open block with valid filler. The rebuilt allocator then
    // has no active block, GC copies land in erased blocks only, and no
    // block can *become* a candidate while the episode runs: what it
    // selects lazily must be what a snapshot at its start would select.
    let mut filler = 1u64 << 31;
    for &addr in &blocks {
        if array.next_free_page(addr) == Some(0) {
            continue;
        }
        while let Some(page) = array.next_free_page(addr) {
            let ppn = array.ppn_in_block(addr, page);
            array
                .program(ppn, PageKind::Data, filler, g.page_bytes, 0, 0)
                .unwrap();
            filler += 1;
        }
    }
    let mut alloc = Allocator::rebuild(&array);

    let mut reference: Vec<VictimCand> = Vec::new();
    let mut holds_valid_pages = std::collections::HashSet::new();
    for &addr in &blocks {
        let s = array.block_summary(addr);
        if s.full && s.invalid > 0 && !s.retired {
            reference.push(VictimCand {
                invalid: s.invalid,
                plane_idx: addr.plane_idx,
                block: addr.block,
                stamp: array.victim_index().stamp_of(addr).expect("indexed"),
            });
            if s.valid > 0 {
                holds_valid_pages.insert(addr);
            }
        }
    }
    order_victims(GcPolicy::Greedy, 0, g.pages_per_block, &mut reference);
    let reference: Vec<BlockAddr> = reference
        .iter()
        .map(|c| BlockAddr {
            plane_idx: c.plane_idx,
            block: c.block,
        })
        .collect();

    let erase_counts_before: Vec<u64> = array.erase_counts().collect();
    let erases_before = array.stats().erases;
    let mut migrated_from: Vec<(BlockAddr, usize)> = Vec::new();
    let mut state = GcState::new(GcConfig {
        threshold: alloc.free_fraction() + 0.5 / g.total_blocks() as f64,
        hysteresis,
        ..GcConfig::default()
    });
    let outcome = state.maybe_collect(
        &mut array,
        &mut alloc,
        0,
        &mut CopyMigrator(|array: &mut FlashArray, old, _new, _info: &PageInfo| {
            let source = array.block_addr_of(old);
            if migrated_from.last().map(|&(addr, _)| addr) != Some(source) {
                let position = (array.stats().erases - erases_before) as usize;
                migrated_from.push((source, position));
            }
        }),
    );
    // Nothing reclaimable, or the copies ran the device out of blocks
    // mid-episode: the order of what *was* erased must hold regardless.
    prop_assert!(matches!(outcome, Ok(_) | Err(FlashError::NoFreeBlocks)));
    prop_assert!(!state.in_episode());

    let erased = (array.stats().erases - erases_before) as usize;
    prop_assert!(erased <= reference.len());
    let prefix = &reference[..erased];
    for ((&addr, before), after) in blocks
        .iter()
        .zip(&erase_counts_before)
        .zip(array.erase_counts())
    {
        prop_assert_eq!(after - before, u64::from(prefix.contains(&addr)));
    }
    for &(source, position) in &migrated_from {
        prop_assert!(
            reference.get(position) == Some(&source),
            "victim #{position} was {source:?}, reference order says {:?}",
            reference.get(position)
        );
    }
    for addr in prefix {
        if holds_valid_pages.contains(addr) {
            prop_assert!(migrated_from.iter().any(|(source, _)| source == addr));
        }
    }
    Ok(())
}

/// The faults every scheme workload runs under.
fn workload_faults() -> FaultConfig {
    FaultConfig {
        seed: 7,
        program_fail_rate: 0.002,
        erase_fail_rate: 0.002,
        ..FaultConfig::disabled()
    }
}

/// Drive a request mix through a full SSD (GC, translation-page spills and
/// fault-driven retirement included) and cross-check the index along the way.
fn run_scheme_ops(scheme: SchemeKind, ops: &[(bool, u64, u32)]) -> Result<(), TestCaseError> {
    let mut ssd = small_ssd_with_faults(scheme, workload_faults());
    drive_and_check(&mut ssd, scheme, ops, 16)
}

/// [`run_scheme_ops`] on a device aged to 90 % used whose GC copies at most
/// two pages per foreground slice: episodes park mid-victim, so the index
/// is checked after every request, often with a victim held out of it.
/// Erase faults only: a failed erase retires the victim GC holds, while
/// program faults would wear the aged device down to read-only.
fn run_preemptible_ops(scheme: SchemeKind, ops: &[(bool, u64, u32)]) -> Result<(), TestCaseError> {
    let faults = FaultConfig {
        program_fail_rate: 0.0,
        ..workload_faults()
    };
    let mut config = small_ssd_config(scheme, faults);
    config.scheme_cfg.gc.preempt_pages = 2;
    config.warmup = WarmupConfig {
        used_fraction: 0.9,
        valid_fraction: 0.7,
        seed: 1,
    };
    let mut ssd = Ssd::new(config).expect("device");
    let warmup = ssd.config().warmup;
    aftl_sim::warmup::age(&mut ssd, &warmup).expect("aging");
    drive_and_check(&mut ssd, scheme, ops, 1)
}

/// Submit `ops` to `ssd`, checking the victim index every `every`
/// requests and at the end.
fn drive_and_check(
    ssd: &mut Ssd,
    scheme: SchemeKind,
    ops: &[(bool, u64, u32)],
    every: usize,
) -> Result<(), TestCaseError> {
    let mut oracle = Oracle::new();
    for (i, &(write, sector, sectors)) in ops.iter().enumerate() {
        if write {
            let mut w = HostRequest::write(i as u64, sector, sectors);
            oracle.stamp_write(&mut w);
            ssd.submit(&w).unwrap();
        } else {
            ssd.submit(&HostRequest::read(i as u64, sector, sectors))
                .unwrap();
        }
        if i % every == 0 {
            if let Err(msg) = ssd.array().check_victim_index() {
                return Err(TestCaseError::fail(format!(
                    "{} after req {i}: {msg}",
                    scheme.name()
                )));
            }
        }
    }
    if let Err(msg) = ssd.array().check_victim_index() {
        return Err(TestCaseError::fail(format!(
            "{} at end: {msg}",
            scheme.name()
        )));
    }
    Ok(())
}

fn req_strategy() -> impl Strategy<Value = (bool, u64, u32)> {
    // Narrow span: lots of overwrites, so GC runs and blocks cycle through
    // free → open → full-victim → erased repeatedly.
    (any::<bool>(), 0u64..2048, 1u32..=24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn raw_ops_keep_index_consistent(ops in proptest::collection::vec(raw_op_strategy(), 1..600)) {
        run_raw_ops(&ops)?;
    }

    #[test]
    fn greedy_episode_erases_a_prefix_of_the_reference_order(
        (ops, stop_blocks) in (proptest::collection::vec(raw_op_strategy(), 1..600), 0u32..32)
    ) {
        check_greedy_erase_order(&ops, f64::from(stop_blocks) / 64.0)?;
    }

    #[test]
    fn baseline_workload_keeps_index_consistent(
        ops in proptest::collection::vec(req_strategy(), 1..250))
    {
        run_scheme_ops(SchemeKind::Baseline, &ops)?;
    }

    #[test]
    fn mrsm_workload_keeps_index_consistent(
        ops in proptest::collection::vec(req_strategy(), 1..250))
    {
        run_scheme_ops(SchemeKind::Mrsm, &ops)?;
    }

    #[test]
    fn across_workload_keeps_index_consistent(
        ops in proptest::collection::vec(req_strategy(), 1..250))
    {
        run_scheme_ops(SchemeKind::Across, &ops)?;
    }

    #[test]
    fn preemptible_gc_keeps_index_consistent(
        (scheme, ops) in (0usize..4, proptest::collection::vec(req_strategy(), 1..250))
    ) {
        run_preemptible_ops(SchemeKind::WITH_LEARNED[scheme], &ops)?;
    }
}
