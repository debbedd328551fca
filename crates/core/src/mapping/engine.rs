//! The map engine (FMMU-style): map management — batching and
//! out-of-order issue — in one unit the FTL logic does not look inside.
//!
//! Every scheme's mapping consultations route through a [`MapEngine`]
//! wrapping the DFTL-style [`MapCache`], and every data op whose issue
//! time the mode decides asks [`MapEngine::issue_at`]; no scheme reads the
//! mode. The engine has two modes:
//!
//! * **Serial** (`PipelineConfig::enabled = false`, the default): every
//!   call forwards verbatim to [`MapCache::access`]. This is the exact
//!   pre-engine behaviour — the fig8 golden digest pins it bit-identical.
//! * **Pipelined**: requests are executed in two stages. The *resolution
//!   stage* batches the request's translation-page lookups in a small
//!   window keyed by the dispatch time: repeated lookups of a tpage
//!   already resolved this batch are **coalesced** — they skip the index
//!   lookup and touch the known LRU slot directly, and a map-in flash
//!   read issued by the first miss satisfies every later lookup of that
//!   tpage (**batched map-in**). The *data stage* then issues flash ops
//!   for already-resolved extents at their own mapping-ready times
//!   instead of the request-wide maximum, so data ops on independent
//!   chips overlap with map misses still in flight (**out-of-order
//!   completion** against the per-chip busy timelines).
//!
//! The mode models *when* data ops issue, nothing else: the schemes do
//! the same host work in both, and the flash op *sequence* (and hence
//! every flash-side counter: op counts, cache loads/flushes, DRAM
//! accesses, chip-busy accounting) is unchanged — only request-visible
//! completion times (`latency_sum_ns`, `sim_span_ns`) may move, because
//! ready-times decouple from the serial resolution order. Coalesced
//! lookups replay the serial path's counter and LRU effects exactly, so
//! cache statistics stay bit-identical too.

use aftl_flash::{Allocator, FlashArray, Nanos, Result};
use serde::{Deserialize, Serialize};

use super::cache::{CacheStats, MapCache};

/// Pipeline knobs, carried in [`crate::scheme::SchemeConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Two-stage pipelined execution on/off. Off = bit-identical legacy
    /// serial path.
    pub enabled: bool,
    /// Resolution-window capacity: maximum distinct translation pages
    /// tracked per batch. Windows are tiny (one host request rarely spans
    /// more than a handful of tpages), so this is a linear-scan array.
    pub map_batch: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            enabled: false,
            map_batch: 8,
        }
    }
}

impl PipelineConfig {
    /// Pipelining enabled with the default window.
    pub fn on() -> Self {
        PipelineConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// Pipeline event counters (the manifest's `map_engine` section).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MapEngineStats {
    /// Map-in flash reads whose result satisfied more than one lookup in
    /// the same resolution batch (one read, many pending lookups).
    pub batched_map_reads: u64,
    /// Lookups answered from the resolution window: counter/LRU effects
    /// replayed, index lookup skipped.
    pub coalesced_lookups: u64,
    /// Data ops issued at their own mapping-ready time while an earlier
    /// resolution of the batch was still in flight (they would have
    /// waited behind it on the serial path).
    pub ooo_completions: u64,
}

impl MapEngineStats {
    /// Accumulate another engine's counters (fleet aggregation).
    pub fn merge(&mut self, o: &MapEngineStats) {
        self.batched_map_reads += o.batched_map_reads;
        self.coalesced_lookups += o.coalesced_lookups;
        self.ooo_completions += o.ooo_completions;
    }

    /// Field-wise `self − b` (measured-window deltas).
    pub fn delta(&self, b: &MapEngineStats) -> MapEngineStats {
        MapEngineStats {
            batched_map_reads: self.batched_map_reads - b.batched_map_reads,
            coalesced_lookups: self.coalesced_lookups - b.coalesced_lookups,
            ooo_completions: self.ooo_completions - b.ooo_completions,
        }
    }
}

/// One resolved translation page in the current batch.
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    tpid: u64,
    /// Slab slot inside the cache (valid while no eviction reused it —
    /// entries are revalidated against the cache's eviction generation).
    slot: u32,
    /// Whether resolving this entry issued a map-in flash read.
    from_load: bool,
    /// Whether that read has already been counted as batched.
    counted_batched: bool,
}

/// The per-scheme map engine: a [`MapCache`] plus the pipelined
/// resolution window. See the module docs for the execution model.
#[derive(Debug, Clone)]
pub struct MapEngine {
    cache: MapCache,
    cfg: PipelineConfig,
    stats: MapEngineStats,
    window: Vec<WindowEntry>,
    /// Dispatch time the window was built at; a new `now` starts a new
    /// batch (ready-times are only comparable within one dispatch).
    batch_now: Nanos,
    /// Cache eviction generation the window was validated against.
    batch_gen: u64,
    /// Running maximum of resolution ready-times in this batch — the
    /// completion a serial execution would have accumulated so far.
    serial_ready: Nanos,
}

impl MapEngine {
    /// An engine over a cache of `capacity_tpages` translation pages.
    pub fn new(capacity_tpages: usize, cfg: PipelineConfig) -> Self {
        MapEngine {
            cache: MapCache::new(capacity_tpages),
            cfg,
            stats: MapEngineStats::default(),
            window: Vec::with_capacity(cfg.map_batch as usize),
            batch_now: Nanos::MAX,
            batch_gen: 0,
            serial_ready: 0,
        }
    }

    /// Pipeline event counters.
    #[inline]
    pub fn stats(&self) -> &MapEngineStats {
        &self.stats
    }

    /// Cache hit/miss/load/flush counters (unchanged by pipelining).
    #[inline]
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// GC migrated the flash copy of translation page `tpid`.
    #[inline]
    pub fn note_migrated(&mut self, tpid: u64, new_ppn: aftl_flash::Ppn) {
        self.cache.note_migrated(tpid, new_ppn);
    }

    /// Whether a PMT consultation of `tpid` right now would pay a map-in
    /// flash read (see [`MapCache::would_load`]); the learned scheme uses
    /// this to count map-ins its verified predictions actually saved.
    #[inline]
    pub fn would_load(&self, tpid: u64) -> bool {
        self.cache.would_load(tpid)
    }

    /// Start the resolution stage of a new request batch dispatched at
    /// `now`. Resets the serial-ready watermark the out-of-order counter
    /// compares against; the coalescing window itself survives as long as
    /// `now` and the cache generation are unchanged (coalescing across
    /// same-dispatch requests is still serial-equivalent). No-op in
    /// serial mode.
    pub fn begin_batch(&mut self, now: Nanos) {
        if !self.cfg.enabled {
            return;
        }
        if now != self.batch_now || self.cache.eviction_generation() != self.batch_gen {
            self.window.clear();
            self.batch_now = now;
            self.batch_gen = self.cache.eviction_generation();
        }
        self.serial_ready = 0;
    }

    /// Resolve translation page `tpid` at dispatch time `now`, returning
    /// when the mapping information is available. Serial mode forwards to
    /// [`MapCache::access`]; pipelined mode coalesces repeat lookups
    /// within the batch (identical counters and LRU effects, no probe).
    pub fn resolve(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        tpid: u64,
        dirty: bool,
    ) -> Result<Nanos> {
        if !self.cfg.enabled {
            return self.cache.access(array, alloc, now, tpid, dirty);
        }
        if now != self.batch_now || self.cache.eviction_generation() != self.batch_gen {
            self.window.clear();
            self.batch_now = now;
            self.batch_gen = self.cache.eviction_generation();
            self.serial_ready = 0;
        }
        if let Some(e) = self.window.iter_mut().find(|e| e.tpid == tpid) {
            if e.from_load && !e.counted_batched {
                // The map-in read issued for the first lookup just served
                // a second one: one flash read, many pending lookups.
                e.counted_batched = true;
                self.stats.batched_map_reads += 1;
            }
            let slot = e.slot;
            self.stats.coalesced_lookups += 1;
            let ready = self
                .cache
                .touch_resident(array.timing(), now, slot, tpid, dirty);
            self.serial_ready = self.serial_ready.max(ready);
            return Ok(ready);
        }
        let loads_before = self.cache.stats().loads;
        let ready = self.cache.access(array, alloc, now, tpid, dirty)?;
        if self.cache.eviction_generation() != self.batch_gen {
            // The miss evicted residents; any window slot may have been
            // reused. Batches are tiny, so revalidation is just a purge.
            self.window.clear();
            self.batch_gen = self.cache.eviction_generation();
        }
        if self.window.len() >= self.cfg.map_batch as usize {
            // Batch capacity exhausted: roll over to a fresh sub-batch so
            // newly resolved tpages can still coalesce later lookups
            // (leaving the window full would freeze its first N tpids for
            // the whole dispatch and lock everyone else out).
            self.window.clear();
        }
        self.window.push(WindowEntry {
            tpid,
            slot: self.cache.mru_slot(),
            from_load: self.cache.stats().loads > loads_before,
            counted_batched: false,
        });
        self.serial_ready = self.serial_ready.max(ready);
        Ok(ready)
    }

    /// The one place the mode decides when a data op issues. `own_ready`
    /// is when the resolutions this op depends on finished, `request_ready`
    /// when every resolution of its request did. Serial: the op waits for
    /// the whole request, `request_ready`. Pipelined: it issues at
    /// `own_ready`, counted as an out-of-order completion when an earlier
    /// resolution of the batch finished later — on the serial path the op
    /// would have queued behind that resolution.
    #[inline]
    pub fn issue_at(&mut self, own_ready: Nanos, request_ready: Nanos) -> Nanos {
        if !self.cfg.enabled {
            return request_ready;
        }
        if own_ready < self.serial_ready {
            self.stats.ooo_completions += 1;
        }
        own_ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_flash::{Geometry, TimingSpec};

    fn setup() -> (FlashArray, Allocator) {
        let array = FlashArray::new(Geometry::tiny(), TimingSpec::unit()).unwrap();
        let alloc = Allocator::new(&array);
        (array, alloc)
    }

    #[test]
    fn serial_mode_forwards_verbatim() {
        let (mut array, mut alloc) = setup();
        let mut e = MapEngine::new(4, PipelineConfig::default());
        e.resolve(&mut array, &mut alloc, 0, 1, false).unwrap();
        e.resolve(&mut array, &mut alloc, 0, 1, false).unwrap();
        assert_eq!(e.cache_stats().lookups, 2);
        assert_eq!(e.cache_stats().hits, 1);
        assert_eq!(e.stats().coalesced_lookups, 0, "no window in serial mode");
    }

    #[test]
    fn pipelined_coalesces_repeat_lookups_with_identical_counters() {
        let (mut array, mut alloc) = setup();
        let mut serial = MapEngine::new(4, PipelineConfig::default());
        let mut piped = MapEngine::new(4, PipelineConfig::on());
        for (now, tpid) in [(0, 1), (0, 1), (0, 2), (0, 1), (10, 2), (10, 2)] {
            let a = serial
                .resolve(&mut array, &mut alloc, now, tpid, true)
                .unwrap();
            let b = piped
                .resolve(&mut array, &mut alloc, now, tpid, true)
                .unwrap();
            assert_eq!(a, b, "ready times agree at ({now},{tpid})");
        }
        let (s, p) = (serial.cache_stats(), piped.cache_stats());
        assert_eq!(s.lookups, p.lookups);
        assert_eq!(s.hits, p.hits);
        assert_eq!(s.misses, p.misses);
        assert!(piped.stats().coalesced_lookups >= 3);
    }

    #[test]
    fn eviction_purges_the_window() {
        let (mut array, mut alloc) = setup();
        let mut e = MapEngine::new(1, PipelineConfig::on());
        e.resolve(&mut array, &mut alloc, 0, 1, true).unwrap();
        // tpid 2 evicts tpid 1; the window entry for 1 must not survive
        // pointing at the recycled slot.
        e.resolve(&mut array, &mut alloc, 0, 2, true).unwrap();
        e.resolve(&mut array, &mut alloc, 0, 2, true).unwrap();
        assert_eq!(e.cache_stats().misses, 2, "2 re-windowed after eviction");
        assert_eq!(e.stats().coalesced_lookups, 1);
        // Re-resolving 1 at the same dispatch is a fresh miss (which
        // evicts 2 again), not a coalesced hit on a stale slot.
        e.resolve(&mut array, &mut alloc, 0, 1, true).unwrap();
        assert_eq!(e.cache_stats().misses, 3);
    }

    #[test]
    fn batched_map_read_counted_once() {
        let (mut array, mut alloc) = setup();
        let mut e = MapEngine::new(2, PipelineConfig::on());
        // Flush tpid 1 to flash so re-resolving it loads.
        e.resolve(&mut array, &mut alloc, 0, 1, true).unwrap();
        e.resolve(&mut array, &mut alloc, 0, 2, true).unwrap();
        e.resolve(&mut array, &mut alloc, 0, 3, true).unwrap(); // evicts 1 (dirty flush)
        assert_eq!(e.cache_stats().flushes, 1);
        // New batch: miss on 1 loads from flash, then two coalesced hits.
        e.resolve(&mut array, &mut alloc, 50, 1, false).unwrap();
        assert_eq!(e.cache_stats().loads, 1);
        e.resolve(&mut array, &mut alloc, 50, 1, false).unwrap();
        e.resolve(&mut array, &mut alloc, 50, 1, false).unwrap();
        assert_eq!(e.stats().batched_map_reads, 1, "one read, counted once");
        assert_eq!(e.stats().coalesced_lookups, 2);
    }

    #[test]
    fn ooo_issue_counted_against_serial_ready() {
        let (mut array, mut alloc) = setup();
        let mut e = MapEngine::new(4, PipelineConfig::on());
        e.begin_batch(10);
        let r1 = e.resolve(&mut array, &mut alloc, 10, 1, true).unwrap();
        assert!(r1 >= 10);
        assert_eq!(e.issue_at(r1, r1), r1);
        assert_eq!(e.stats().ooo_completions, 0, "at serial_ready is in-order");
        // Issuing below the batch's running serial max is out-of-order.
        e.issue_at(r1 - 1, r1);
        assert_eq!(e.stats().ooo_completions, 1);
        // A new batch resets the watermark.
        e.begin_batch(20);
        e.issue_at(0, 0);
        assert_eq!(e.stats().ooo_completions, 1);
    }

    #[test]
    fn issue_at_serial_waits_for_the_request_and_counts_nothing() {
        let (mut array, mut alloc) = setup();
        let mut e = MapEngine::new(4, PipelineConfig::default());
        e.begin_batch(10);
        let r1 = e.resolve(&mut array, &mut alloc, 10, 1, true).unwrap();
        assert_eq!(e.issue_at(r1 - 1, r1 + 5), r1 + 5);
        assert_eq!(e.issue_at(0, r1), r1);
        assert_eq!(*e.stats(), MapEngineStats::default());
    }

    #[test]
    fn issue_at_pipelined_issues_at_own_ready_and_counts_ooo_below_the_watermark() {
        let (mut array, mut alloc) = setup();
        let mut e = MapEngine::new(4, PipelineConfig::on());
        e.begin_batch(10);
        let watermark = e.resolve(&mut array, &mut alloc, 10, 1, true).unwrap();
        for (own, ooo) in [
            (watermark + 1, 0),
            (watermark, 0),
            (watermark - 1, 1),
            (0, 2),
        ] {
            assert_eq!(e.issue_at(own, watermark + 100), own, "own_ready, always");
            assert_eq!(e.stats().ooo_completions, ooo, "issue at {own}");
        }
    }
}
