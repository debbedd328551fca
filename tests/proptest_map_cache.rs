//! The [`MapCache`] against independent answers.
//!
//! * Property-based equivalence with a straightforward reference model of
//!   the old stamp-ordered (`BTreeMap`) implementation: under arbitrary
//!   access traces over two disjoint dense tpid ranges the hit/miss/load/
//!   flush counters, residency, flash-copy counts and `would_load` must
//!   match exactly.
//! * LRU theory: the measured hit ratio under uniform tpids is `C/N`, and
//!   under Zipf tpids it is Che's approximation.

use std::collections::HashSet;

use aftl_core::mapping::cache::MapCache;
use aftl_flash::{Allocator, FlashArray, GeometryBuilder, TimingSpec};
use aftl_trace::synth::Zipf;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The old implementation in miniature: residents keyed by tpid with an
/// LRU stamp, evicting the smallest stamp; dirty evictions flush to flash.
/// Timing and flash traffic are out of scope — only the observable cache
/// behaviour (what hits, what loads, what flushes) is modelled.
#[derive(Default)]
struct ModelCache {
    capacity: usize,
    resident: Vec<(u64, bool, u64)>, // (tpid, dirty, stamp)
    next_stamp: u64,
    flash: HashSet<u64>,
    lookups: u64,
    hits: u64,
    misses: u64,
    loads: u64,
    flushes: u64,
}

impl ModelCache {
    fn new(capacity: usize) -> Self {
        ModelCache {
            capacity: capacity.max(1),
            ..ModelCache::default()
        }
    }

    fn access(&mut self, tpid: u64, make_dirty: bool) {
        self.lookups += 1;
        if let Some(e) = self.resident.iter_mut().find(|e| e.0 == tpid) {
            self.hits += 1;
            e.1 |= make_dirty;
            e.2 = self.next_stamp;
            self.next_stamp += 1;
            return;
        }
        self.misses += 1;
        while self.resident.len() >= self.capacity {
            let victim = self
                .resident
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.2)
                .map(|(i, _)| i)
                .expect("cache full ⇒ nonempty");
            let (vt, vd, _) = self.resident.swap_remove(victim);
            if vd {
                self.flushes += 1;
                self.flash.insert(vt);
            }
        }
        let dirty = if self.flash.contains(&tpid) {
            self.loads += 1;
            make_dirty
        } else {
            true // first touch materialises dirty
        };
        self.resident.push((tpid, dirty, self.next_stamp));
        self.next_stamp += 1;
    }

    fn would_load(&self, tpid: u64) -> bool {
        !self.resident.iter().any(|e| e.0 == tpid) && self.flash.contains(&tpid)
    }

    fn flush_all(&mut self) {
        for e in &mut self.resident {
            if e.1 {
                self.flushes += 1;
                self.flash.insert(e.0);
                e.1 = false;
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Access { tpid: u64, dirty: bool },
    FlushAll,
}

/// Two dense tpid ranges with a gap between them, as a scheme with two
/// tables numbers them (PMT-like `0..16`, AMT-like `64..80`): the first
/// access above the gap grows the cache's per-tpid table mid-sequence.
fn tpids() -> impl Iterator<Item = u64> {
    (0..16).chain(64..80)
}

fn cache_op_strategy() -> impl Strategy<Value = CacheOp> {
    (0u8..=19, 0usize..32, any::<bool>()).prop_map(|(kind, i, dirty)| {
        if kind == 0 {
            CacheOp::FlushAll
        } else {
            let tpid = tpids().nth(i).expect("32 tpids");
            CacheOp::Access { tpid, dirty }
        }
    })
}

/// A flash device big enough that map-page flushes never exhaust free space
/// (this harness runs no GC).
fn backing() -> (FlashArray, Allocator) {
    let g = GeometryBuilder::new()
        .channels(2)
        .chips_per_channel(2)
        .dies_per_chip(1)
        .planes_per_die(2)
        .blocks_per_plane(16)
        .pages_per_block(32)
        .page_bytes(4096)
        .build()
        .expect("valid geometry");
    let array = FlashArray::new(g, TimingSpec::unit()).unwrap();
    let alloc = Allocator::new(&array);
    (array, alloc)
}

fn run_trace(capacity: usize, ops: &[CacheOp]) -> Result<(), TestCaseError> {
    let (mut array, mut alloc) = backing();
    let mut cache = MapCache::new(capacity);
    let mut model = ModelCache::new(capacity);
    for (i, op) in ops.iter().enumerate() {
        match *op {
            CacheOp::Access { tpid, dirty } => {
                cache
                    .access(&mut array, &mut alloc, 0, tpid, dirty)
                    .unwrap();
                model.access(tpid, dirty);
            }
            CacheOp::FlushAll => {
                cache.flush_all(&mut array, &mut alloc, 0).unwrap();
                model.flush_all();
            }
        }
        let s = cache.stats();
        let got = (s.lookups, s.hits, s.misses, s.loads, s.flushes);
        let want = (
            model.lookups,
            model.hits,
            model.misses,
            model.loads,
            model.flushes,
        );
        prop_assert!(
            got == want,
            "stats diverged after op {} {:?} (capacity {}): got {:?}, want {:?}",
            i,
            op,
            capacity,
            got,
            want
        );
        prop_assert_eq!(cache.resident_tpages(), model.resident.len());
        prop_assert_eq!(cache.flash_tpages(), model.flash.len());
        for tpid in tpids() {
            prop_assert!(
                cache.would_load(tpid) == model.would_load(tpid),
                "would_load({}) diverged after op {} {:?}",
                tpid,
                i,
                op
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn slab_cache_matches_reference_model(
        case in (1usize..=6, proptest::collection::vec(cache_op_strategy(), 1..300)))
    {
        let (capacity, ops) = case;
        run_trace(capacity, &ops)?;
    }

    /// Degenerate single-slot cache: every distinct access evicts; the
    /// richest source of flush/load interleavings.
    #[test]
    fn single_slot_cache_matches_reference_model(
        ops in proptest::collection::vec(cache_op_strategy(), 1..200))
    {
        run_trace(1, &ops)?;
    }
}

/// Translation pages and cache capacity of the LRU-theory checks.
const N: usize = 4096;
const C: usize = 512;

/// A device that absorbs every tpid's one dirty first-eviction flush with
/// no GC: a page materialises dirty on first touch, flushes once when
/// evicted and reloads clean (the theory checks never dirty a page), so
/// at most `N` map pages are ever programmed into its 32 768.
fn theory_backing() -> (FlashArray, Allocator) {
    let g = GeometryBuilder::new()
        .channels(2)
        .chips_per_channel(2)
        .dies_per_chip(1)
        .planes_per_die(2)
        .blocks_per_plane(64)
        .pages_per_block(64)
        .page_bytes(4096)
        .build()
        .expect("valid geometry");
    assert!(g.total_pages() >= 8 * N as u64);
    let array = FlashArray::new(g, TimingSpec::unit()).unwrap();
    let alloc = Allocator::new(&array);
    (array, alloc)
}

/// Hit ratio of 100 000 clean accesses drawn by `draw`, measured after a
/// 20 000-access warm-up fills the cache.
fn measured_hit_ratio(mut draw: impl FnMut() -> u64) -> f64 {
    let (mut array, mut alloc) = theory_backing();
    let mut cache = MapCache::new(C);
    let mut access = |cache: &mut MapCache| {
        let tpid = draw();
        assert!(tpid < N as u64);
        cache
            .access(&mut array, &mut alloc, 0, tpid, false)
            .unwrap();
    };
    for _ in 0..20_000 {
        access(&mut cache);
    }
    assert_eq!(cache.resident_tpages(), C, "warm-up fills the cache");
    let before = *cache.stats();
    for _ in 0..100_000 {
        access(&mut cache);
    }
    let s = cache.stats();
    (s.hits - before.hits) as f64 / (s.lookups - before.lookups) as f64
}

/// Che's approximation of an LRU cache's hit ratio under independent
/// references with probabilities `p`: the characteristic time `T` solves
/// `Σᵢ (1 − e^(−pᵢT)) = capacity` (found by bisection), and the hit ratio
/// is `Σᵢ pᵢ (1 − e^(−pᵢT))`.
fn che_hit_ratio(p: &[f64], capacity: usize) -> f64 {
    let occupancy = |t: f64| p.iter().map(|&pi| 1.0 - (-pi * t).exp()).sum::<f64>();
    let (mut lo, mut hi) = (0.0, 1.0);
    while occupancy(hi) < capacity as f64 {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if occupancy(mid) < capacity as f64 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = 0.5 * (lo + hi);
    p.iter().map(|&pi| pi * (1.0 - (-pi * t).exp())).sum()
}

#[test]
fn uniform_hit_ratio_is_capacity_over_pages() {
    let mut rng = SmallRng::seed_from_u64(7);
    let hit = measured_hit_ratio(|| rng.random_range(0..N as u64));
    let want = C as f64 / N as f64;
    assert!(
        (hit - want).abs() <= 0.02,
        "uniform LRU hit ratio {hit:.4}, theory C/N = {want:.4}"
    );
}

#[test]
fn zipf_hit_ratio_matches_che_approximation() {
    let zipf = Zipf::new(N, 0.9);
    let p: Vec<f64> = (0..N).map(|k| zipf.pmf(k)).collect();
    let want = che_hit_ratio(&p, C);
    let mut rng = SmallRng::seed_from_u64(7);
    let hit = measured_hit_ratio(|| zipf.sample(&mut rng) as u64);
    assert!(
        (hit - want).abs() <= 0.02,
        "Zipf(0.9) LRU hit ratio {hit:.4}, Che's approximation {want:.4}"
    );
}
