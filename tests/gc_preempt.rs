//! Property-based checks of the preemptible, policy-pluggable GC:
//!
//! * **Victim policies never select a fully-valid block**: under any
//!   candidate population, `order_victims` places every zero-invalid
//!   candidate after every reclaimable one, for all three policies —
//!   erasing a fully-valid block would copy a whole block to free
//!   nothing. The same property pins that each policy's order is a
//!   function of the candidate *set*: any permutation of the input
//!   orders identically.
//! * **Preemption is invisible at episode end**: an episode interrupted
//!   by an arbitrary page budget and resumed to completion leaves the
//!   device in exactly the state the atomic collector produces — same
//!   mapping, same free blocks, same flash op counts — for every policy
//!   and window size.

use aftl_core::gc::{order_victims, CopyMigrator, GcConfig, GcReport, GcState, VictimCand};
use aftl_core::{GcPolicy, GcTuning};
use aftl_flash::{Allocator, FlashArray, Geometry, PageInfo, PageKind, Ppn, StreamId, TimingSpec};
use proptest::prelude::*;
use std::collections::HashMap;

const POLICIES: [GcPolicy; 3] = [GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::Windowed];

fn cand_strategy(pages_per_block: u32) -> impl Strategy<Value = VictimCand> {
    (0u32..=pages_per_block, 0u64..8, 0u32..64, 0u64..1000).prop_map(
        |(invalid, plane_idx, block, stamp)| VictimCand {
            invalid,
            plane_idx,
            block,
            stamp,
        },
    )
}

/// A churned tiny device in the shape of the gc.rs unit fixture: a cold
/// stream (never overwritten) interleaved with a hot 30-LPN churn, enough
/// writes that every plane carries mixed-validity victim blocks.
fn churned_device(writes: u64) -> (FlashArray, Allocator, HashMap<u64, Ppn>) {
    let g = Geometry::tiny();
    let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
    let mut alloc = Allocator::new(&array);
    let mut map: HashMap<u64, Ppn> = HashMap::new();
    let mut cold = 1000u64;
    for round in 0..writes {
        let lpn = if round % 9 == 3 {
            cold += 1;
            cold
        } else {
            round % 30
        };
        let ppn = alloc.alloc_page(&array, StreamId::Data).unwrap();
        array.program(ppn, PageKind::Data, lpn, 4096, 0, 0).unwrap();
        if let Some(old) = map.insert(lpn, ppn) {
            array.invalidate(old).unwrap();
        }
    }
    (array, alloc, map)
}

/// Drive one triggered episode to completion in budgeted slices; returns
/// (merged report, slices taken).
fn drain(
    state: &mut GcState,
    array: &mut FlashArray,
    alloc: &mut Allocator,
    map: &mut HashMap<u64, Ppn>,
) -> (GcReport, u32) {
    let mut total = GcReport::default();
    let mut slices = 0u32;
    loop {
        let r = state
            .maybe_collect(
                array,
                alloc,
                0,
                &mut CopyMigrator(|_: &mut FlashArray, old, new, info: &PageInfo| {
                    let cur = map.get_mut(&info.tag).unwrap();
                    assert_eq!(*cur, old);
                    *cur = new;
                }),
            )
            .unwrap();
        total.merge(&r);
        slices += 1;
        if !state.in_episode() {
            return (total, slices);
        }
        assert!(slices < 10_000, "episode must make progress");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn policies_never_order_a_fully_valid_block_first(
        (mut cands, shuffle_keys, window) in (
            proptest::collection::vec(cand_strategy(8), 1..80),
            proptest::collection::vec(any::<u64>(), 80..81),
            1u32..12,
        )
    ) {
        // All the victim index promises of a candidate set: unique
        // (plane, block) addresses and unique stamps — in no particular
        // order.
        cands.sort_unstable_by_key(|c| (c.plane_idx, c.block));
        cands.dedup_by_key(|c| (c.plane_idx, c.block));
        cands.sort_unstable_by_key(|c| c.stamp);
        cands.dedup_by_key(|c| c.stamp);
        let mut shuffled: Vec<(u64, VictimCand)> =
            shuffle_keys.iter().copied().zip(cands.iter().copied()).collect();
        shuffled.sort_unstable_by_key(|&(key, _)| key);
        let shuffled: Vec<VictimCand> = shuffled.into_iter().map(|(_, c)| c).collect();
        for policy in POLICIES {
            let mut ordered = cands.clone();
            order_victims(policy, window, 8, &mut ordered);
            let mut reordered = shuffled.clone();
            order_victims(policy, window, 8, &mut reordered);
            prop_assert!(
                ordered == reordered,
                "{:?}: order depends on the input permutation",
                policy
            );
            let first_full = ordered.iter().position(|c| c.invalid == 0);
            let last_reclaimable = ordered.iter().rposition(|c| c.invalid > 0);
            if let (Some(full), Some(reclaim)) = (first_full, last_reclaimable) {
                prop_assert!(
                    full > reclaim,
                    "{:?}: fully-valid candidate at {} precedes reclaimable at {}",
                    policy,
                    full,
                    reclaim
                );
            }
        }
    }

    #[test]
    fn interrupted_episodes_resume_to_the_atomic_end_state(
        (budget, policy_pick, window, writes) in (1u32..16, 0usize..3, 1u32..8, 400u64..460)
    ) {
        let policy = POLICIES[policy_pick];
        let run = |preempt_pages: u32| {
            let (mut array, mut alloc, mut map) = churned_device(writes);
            let mut state = GcState::new(GcConfig {
                threshold: 0.30,
                hysteresis: 0.10,
                tuning: GcTuning {
                    policy,
                    preempt_pages,
                    window,
                    // The churned device sits below threshold × default
                    // urgent_ratio; keep the budget in force so preemption
                    // actually happens (urgency is covered in unit tests).
                    urgent_ratio: 0.0,
                    ..GcTuning::default()
                },
            });
            let (report, slices) = drain(&mut state, &mut array, &mut alloc, &mut map);
            let mut mapping: Vec<(u64, Ppn)> = map.into_iter().collect();
            mapping.sort_unstable();
            (
                (
                    report.erased_blocks,
                    report.migrated_pages,
                    alloc.free_blocks(),
                    array.stats().erases,
                    array.stats().gc_migrations,
                    mapping,
                ),
                report,
                slices,
            )
        };
        let (atomic, _, atomic_slices) = run(0);
        let (preempted, preempted_report, preempted_slices) = run(budget);
        prop_assert_eq!(atomic, preempted);
        prop_assert!(preempted_slices >= atomic_slices);
        // A budget smaller than the episode's copy count must pause at
        // least once, and each pause is visible in the merged report.
        if preempted_slices > 1 {
            prop_assert!(preempted_report.preemptions > 0);
        }
    }
}
