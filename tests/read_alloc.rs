//! Steady-state reads allocate nothing. Each scheme runs on a bare
//! `FlashArray` + `Allocator` with content tracking off: a seeded mix of
//! full-page, partial and across-page writes, then one warm-up pass of
//! reads that sizes every scratch buffer, then the same reads again while
//! a counting global allocator watches.
//!
//! FTL and Learned-FTL run with a two-page mapping cache, so the window
//! also covers map-ins, dirty flushes and model predictions. Across-FTL
//! and MRSM run with their whole table resident: their translation-page
//! ids (AMT pages, hashed tree leaves) are so many that a cache this small
//! churns its resident index into a tombstone rehash, and that rehash
//! allocates a fresh table — a property of the cache, not of the reads.
//!
//! The allocator counts per thread, so tests running side by side do not
//! see each other's allocations. Run the tests unoptimised (`cargo test`):
//! an optimised build may elide a short-lived allocation the code still
//! makes, and then pass for the wrong reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aftl_core::request::HostRequest;
use aftl_core::scheme::{FtlEnv, FtlScheme, SchemeConfig};
use aftl_core::{AcrossFtl, BaselineFtl, LearnedFtl, MrsmFtl};
use aftl_flash::{Allocator, FlashArray, GeometryBuilder, TimingSpec};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// SplitMix64, for a seeded request mix without a generator object.
fn mix(i: u64) -> u64 {
    let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `(sector, sectors)` of request `i` over `span` sectors: 1 to 16 sectors
/// at any offset, so full-page, partial and across-page requests all
/// occur.
fn request(i: u64, span: u64) -> (u64, u32) {
    let z = mix(i);
    let sectors = 1 + (z >> 8) % 16;
    ((z >> 24) % (span - sectors), sectors as u32)
}

/// Heap allocations the second of two identical read passes makes on
/// `build`'s scheme, after a write pass; and the scheme, for what the
/// reads exercised. `small_cache` caps the mapping cache at two pages.
fn steady_read_allocs(
    build: fn(&aftl_flash::Geometry, SchemeConfig) -> Box<dyn FtlScheme>,
    small_cache: bool,
) -> (u64, Box<dyn FtlScheme>) {
    let geometry = GeometryBuilder::new()
        .channels(2)
        .chips_per_channel(2)
        .dies_per_chip(1)
        .planes_per_die(2)
        .blocks_per_plane(16)
        .pages_per_block(32)
        .page_bytes(4096)
        .build()
        .expect("valid geometry");
    let mut array = FlashArray::new(geometry, TimingSpec::unit()).expect("array");
    let mut alloc = Allocator::new(&array);
    let mut cfg = SchemeConfig::for_geometry(&geometry);
    if small_cache {
        cfg.cache_bytes = 2 * u64::from(geometry.page_bytes);
    }
    let span = cfg.logical_pages * u64::from(geometry.sectors_per_page());
    let mut ftl = build(&geometry, cfg);
    let mut env = FtlEnv {
        array: &mut array,
        alloc: &mut alloc,
        now_ns: 0,
    };
    for i in 0..1_500 {
        let (sector, sectors) = request(i, span);
        env.now_ns += 10_000;
        let req = HostRequest::write(env.now_ns, sector, sectors);
        ftl.write(&mut env, &req).expect("write");
        ftl.maybe_gc(&mut env).expect("gc");
    }
    let mut window = 0;
    for pass in 0..2 {
        let before = allocs();
        for i in 0..1_500 {
            let (sector, sectors) = request(10_000 + i, span);
            env.now_ns += 10_000;
            let req = HostRequest::read(env.now_ns, sector, sectors);
            let done = ftl.read(&mut env, &req).expect("read");
            assert!(done.served.is_empty(), "content tracking is off");
        }
        if pass == 1 {
            window = allocs() - before;
        }
    }
    (window, ftl)
}

#[test]
fn across_ftl_reads_allocate_nothing() {
    let (n, ftl) = steady_read_allocs(|g, cfg| Box::new(AcrossFtl::new(g, cfg)), false);
    assert_eq!(n, 0, "Across-FTL reads allocated {n} times");
    let c = ftl.counters();
    assert!(c.across_direct_reads > 0 && c.merged_reads > 0, "{c:?}");
}

#[test]
fn baseline_reads_allocate_nothing() {
    let (n, ftl) = steady_read_allocs(|g, cfg| Box::new(BaselineFtl::new(g, cfg)), true);
    assert_eq!(n, 0, "FTL reads allocated {n} times");
    assert!(
        ftl.cache_stats().loads > 0,
        "the reads never loaded a map page"
    );
}

#[test]
fn learned_reads_allocate_nothing() {
    let (n, ftl) = steady_read_allocs(|g, cfg| Box::new(LearnedFtl::new(g, cfg)), true);
    assert_eq!(n, 0, "Learned-FTL reads allocated {n} times");
    let stats = ftl.learned_stats();
    assert!(stats.predict_hits > 0, "{stats:?}");
}

#[test]
fn mrsm_reads_allocate_nothing() {
    let (n, ftl) = steady_read_allocs(|g, cfg| Box::new(MrsmFtl::new(g, cfg)), false);
    assert_eq!(n, 0, "MRSM reads allocated {n} times");
    assert!(ftl.counters().host_reads > 0);
}
