//! Unified observability: latency histograms and event tracing.
//!
//! The simulator already counts *how many* flash operations each scheme
//! issues; this module adds *how long they take* and *when they happen*:
//!
//! * [`hist`] — mergeable log-linear [`LatencyHistogram`]s with ~3 %
//!   quantile error, one per [`OpKind`], condensed into a
//!   [`LatencyBreakdown`] for the run manifest,
//! * [`event`] — an optional bounded [`event::EventRing`] of recent
//!   operation completions, serializable as JSONL,
//! * [`Observer`] — the per-device aggregator: it drains the raw op log
//!   kept by `aftl_flash::FlashArray` and the scheme event log
//!   (`aftl_core::FtlScheme::drain_events`) after each request phase and
//!   classifies every record into an [`OpKind`] based on which phase
//!   produced it.
//!
//! Classification is positional, not guessed: a Data read during a host
//! *write* is read-modify-write traffic, the same read during GC is a
//! migration, and Map-page traffic is mapping-cache spill/fill wherever it
//! appears. Whole-request host latencies come from the scheme's completion
//! time, so `HostRead`/`HostWrite` include queueing and every constituent
//! flash op.

pub mod event;
pub mod hist;

use aftl_core::request::ReqKind;
use aftl_core::scheme::FtlScheme;
use aftl_core::{SchemeEvent, SchemeEventKind};
use aftl_flash::{FlashArray, FlashOp, Nanos, PageKind};
use serde::{Deserialize, Serialize};

use crate::config::ObserveConfig;
pub use event::{Event, EventRing, TraceConfig};
pub use hist::{HistogramSummary, LatencyHistogram};

/// Everything the observer can classify an operation as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// A whole host read request (arrival → last flash completion).
    HostRead,
    /// A whole host write request (arrival → last flash completion).
    HostWrite,
    /// A data-page read issued to service a partial-page host write
    /// (read-modify-write — the cost Across-FTL exists to avoid).
    RmwRead,
    /// A translation-page read (mapping-cache miss fill).
    MapRead,
    /// A translation-page program (mapping-cache dirty eviction).
    MapWrite,
    /// A page read or program issued while GC migrates valid data.
    GcMigration,
    /// A block erase.
    Erase,
    /// An Across-FTL AMerge (composite: spans several flash ops).
    AMerge,
    /// An Across-FTL ARollback (composite: spans several flash ops).
    ARollback,
    /// A failed page read (fault injection): the chip time burned before
    /// the retry ladder re-issues or gives up.
    ReadRetry,
    /// A failed page program (fault injection): the attempt that forced a
    /// relocation to a fresh block.
    Reprogram,
    /// One foreground GC pause: the span a host request spent stalled
    /// behind a GC slice (request dispatch → last GC op completion). With
    /// atomic GC this is a whole episode; with preemption it is one
    /// budgeted slice — the distribution `BENCH_gc.json` gates on.
    GcPause,
}

impl OpKind {
    /// All kinds, in [`LatencyBreakdown`] field order.
    pub const ALL: [OpKind; 12] = [
        OpKind::HostRead,
        OpKind::HostWrite,
        OpKind::RmwRead,
        OpKind::MapRead,
        OpKind::MapWrite,
        OpKind::GcMigration,
        OpKind::Erase,
        OpKind::AMerge,
        OpKind::ARollback,
        OpKind::ReadRetry,
        OpKind::Reprogram,
        OpKind::GcPause,
    ];

    /// Dense index for per-kind arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable label (matches the serialized form).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::HostRead => "HostRead",
            OpKind::HostWrite => "HostWrite",
            OpKind::RmwRead => "RmwRead",
            OpKind::MapRead => "MapRead",
            OpKind::MapWrite => "MapWrite",
            OpKind::GcMigration => "GcMigration",
            OpKind::Erase => "Erase",
            OpKind::AMerge => "AMerge",
            OpKind::ARollback => "ARollback",
            OpKind::ReadRetry => "ReadRetry",
            OpKind::Reprogram => "Reprogram",
            OpKind::GcPause => "GcPause",
        }
    }
}

/// Which simulator phase produced a batch of flash operations — the key
/// input to classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Servicing a host read.
    HostRead,
    /// Servicing a host write.
    HostWrite,
    /// Garbage collection after a request.
    Gc,
}

/// Classify one raw flash op record by the phase that produced it.
/// `None` means the op is subsumed by a whole-request latency (the data
/// reads of a host read, the data programs of a host write).
fn classify(phase: Phase, op: FlashOp, kind: PageKind, failed: bool) -> Option<OpKind> {
    if failed {
        // Fault-injected failures get their own buckets regardless of
        // phase: the read bucket measures retry-ladder time, the program
        // bucket measures wasted attempts before relocation. A failed
        // erase still charged erase timing, so it stays under Erase.
        return match op {
            FlashOp::Read => Some(OpKind::ReadRetry),
            FlashOp::Program => Some(OpKind::Reprogram),
            FlashOp::Erase => Some(OpKind::Erase),
        };
    }
    if matches!(op, FlashOp::Erase) {
        return Some(OpKind::Erase);
    }
    match phase {
        Phase::Gc => Some(OpKind::GcMigration),
        Phase::HostRead | Phase::HostWrite => match (kind, op) {
            (PageKind::Map, FlashOp::Read) => Some(OpKind::MapRead),
            (PageKind::Map, FlashOp::Program) => Some(OpKind::MapWrite),
            (_, FlashOp::Read) if phase == Phase::HostWrite => Some(OpKind::RmwRead),
            _ => None,
        },
    }
}

/// Per-kind latency summaries — the `latency` section of a run manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Whole host read requests.
    pub host_read: HistogramSummary,
    /// Whole host write requests.
    pub host_write: HistogramSummary,
    /// Read-modify-write data reads.
    pub rmw_read: HistogramSummary,
    /// Translation-page reads.
    pub map_read: HistogramSummary,
    /// Translation-page programs.
    pub map_write: HistogramSummary,
    /// GC migration reads/programs.
    pub gc_migration: HistogramSummary,
    /// Block erases.
    pub erase: HistogramSummary,
    /// Across-FTL AMerge operations.
    pub amerge: HistogramSummary,
    /// Across-FTL ARollback operations.
    pub arollback: HistogramSummary,
    /// Failed page reads (fault injection).
    pub read_retry: HistogramSummary,
    /// Failed page programs (fault injection).
    pub reprogram: HistogramSummary,
    /// Foreground GC pauses seen by host requests.
    pub gc_pause: HistogramSummary,
}

impl LatencyBreakdown {
    /// The summary for `kind`.
    pub fn get(&self, kind: OpKind) -> &HistogramSummary {
        match kind {
            OpKind::HostRead => &self.host_read,
            OpKind::HostWrite => &self.host_write,
            OpKind::RmwRead => &self.rmw_read,
            OpKind::MapRead => &self.map_read,
            OpKind::MapWrite => &self.map_write,
            OpKind::GcMigration => &self.gc_migration,
            OpKind::Erase => &self.erase,
            OpKind::AMerge => &self.amerge,
            OpKind::ARollback => &self.arollback,
            OpKind::ReadRetry => &self.read_retry,
            OpKind::Reprogram => &self.reprogram,
            OpKind::GcPause => &self.gc_pause,
        }
    }
}

/// The per-device observability aggregator.
///
/// Owned by [`crate::ssd::Ssd`]; the simulator calls the `absorb_*`
/// methods after each phase of a request. With both histograms and
/// tracing disabled every method returns after one branch and the
/// upstream op logs are never enabled, so the disabled configuration adds
/// no per-operation work.
#[derive(Debug)]
pub struct Observer {
    /// Whether `hists` records (they stay empty otherwise).
    histograms: bool,
    /// One histogram per [`OpKind`], indexed by [`OpKind::index`].
    hists: Box<[LatencyHistogram; OpKind::ALL.len()]>,
    ring: Option<EventRing>,
    scratch_events: Vec<SchemeEvent>,
}

impl Observer {
    /// Build an observer per `cfg`.
    pub fn new(cfg: &ObserveConfig) -> Self {
        Observer {
            histograms: cfg.histograms,
            hists: Box::new(std::array::from_fn(|_| LatencyHistogram::new())),
            ring: cfg.trace.enabled.then(|| EventRing::new(&cfg.trace)),
            scratch_events: Vec::new(),
        }
    }

    /// Whether any sink is active (callers skip op-log plumbing otherwise).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.histograms || self.ring.is_some()
    }

    #[inline]
    fn record(&mut self, kind: OpKind, latency_ns: Nanos, t_ns: Nanos) {
        if self.histograms {
            self.hists[kind.index()].record(latency_ns);
        }
        if let Some(ring) = &mut self.ring {
            ring.offer(Event {
                t_ns,
                kind,
                latency_ns,
            });
        }
    }

    /// Record a completed host request.
    #[inline]
    pub fn record_host(&mut self, kind: ReqKind, latency_ns: Nanos, complete_ns: Nanos) {
        if !self.enabled() {
            return;
        }
        let kind = match kind {
            ReqKind::Read => OpKind::HostRead,
            ReqKind::Write => OpKind::HostWrite,
        };
        self.record(kind, latency_ns, complete_ns);
    }

    /// Drain the array's op log and classify the records as `phase` work.
    /// Returns the latest completion time among the drained records
    /// (`None` when the observer is disabled or no op completed) — the GC
    /// phase uses it to measure how long a slice stalled the host.
    pub fn absorb_ops(&mut self, array: &mut FlashArray, phase: Phase) -> Option<Nanos> {
        if !self.enabled() {
            return None;
        }
        let mut last_complete: Option<Nanos> = None;
        for rec in array.drain_ops() {
            last_complete = Some(last_complete.map_or(rec.complete_ns, |t| t.max(rec.complete_ns)));
            if let Some(kind) = classify(phase, rec.op, rec.kind, rec.failed) {
                self.record(kind, rec.latency_ns, rec.complete_ns);
            }
        }
        last_complete
    }

    /// Record one foreground GC pause (see [`OpKind::GcPause`]).
    #[inline]
    pub fn record_gc_pause(&mut self, pause_ns: Nanos, complete_ns: Nanos) {
        if self.enabled() {
            self.record(OpKind::GcPause, pause_ns, complete_ns);
        }
    }

    /// Drain the scheme's composite-event log (AMerge/ARollback).
    /// `now_ns` is the triggering request's arrival time, used to place
    /// events on the trace timeline.
    pub fn absorb_scheme_events(&mut self, scheme: &mut dyn FtlScheme, now_ns: Nanos) {
        if !self.enabled() {
            return;
        }
        let mut events = std::mem::take(&mut self.scratch_events);
        scheme.drain_events(&mut events);
        for ev in events.drain(..) {
            let kind = match ev.kind {
                SchemeEventKind::AMerge => OpKind::AMerge,
                SchemeEventKind::ARollback => OpKind::ARollback,
            };
            self.record(kind, ev.latency_ns, now_ns.saturating_add(ev.latency_ns));
        }
        self.scratch_events = events;
    }

    /// Condense all histograms into the manifest's latency section
    /// (all-zero summaries when histograms are disabled).
    pub fn breakdown(&self) -> LatencyBreakdown {
        let hists = &self.hists;
        LatencyBreakdown {
            host_read: hists[OpKind::HostRead.index()].summary(),
            host_write: hists[OpKind::HostWrite.index()].summary(),
            rmw_read: hists[OpKind::RmwRead.index()].summary(),
            map_read: hists[OpKind::MapRead.index()].summary(),
            map_write: hists[OpKind::MapWrite.index()].summary(),
            gc_migration: hists[OpKind::GcMigration.index()].summary(),
            erase: hists[OpKind::Erase.index()].summary(),
            amerge: hists[OpKind::AMerge.index()].summary(),
            arollback: hists[OpKind::ARollback.index()].summary(),
            read_retry: hists[OpKind::ReadRetry.index()].summary(),
            reprogram: hists[OpKind::Reprogram.index()].summary(),
            gc_pause: hists[OpKind::GcPause.index()].summary(),
        }
    }

    /// Fold another observer's histograms into this one, kind by kind.
    ///
    /// This is the fleet aggregation path: per-device histograms merge
    /// exactly (bucket-count addition, the PR 1 exact-merge property), so
    /// fleet percentiles are identical to recording every sample into one
    /// histogram. Event rings are deliberately *not* merged — a ring is a
    /// bounded per-device tail, and interleaving tails from devices with
    /// different clocks would fabricate an ordering that never existed;
    /// fleet reports sum only the offered-event totals.
    pub fn merge(&mut self, other: &Observer) {
        if self.histograms && other.histograms {
            for (h, o) in self.hists.iter_mut().zip(other.hists.iter()) {
                h.merge(o);
            }
        }
    }

    /// The event ring, when tracing is enabled.
    pub fn events(&self) -> Option<&EventRing> {
        self.ring.as_ref()
    }

    /// Total events offered to the trace (0 when tracing is disabled).
    pub fn trace_events_total(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.total_offered())
    }

    /// Forget everything recorded so far (measurement starts after
    /// warm-up); sinks stay configured.
    pub fn reset(&mut self) {
        for h in self.hists.iter_mut() {
            h.reset();
        }
        if let Some(ring) = &mut self.ring {
            ring.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_phase_positional() {
        // Data reads: RMW under a host write, subsumed under a host read,
        // migration under GC.
        assert_eq!(
            classify(Phase::HostWrite, FlashOp::Read, PageKind::Data, false),
            Some(OpKind::RmwRead)
        );
        assert_eq!(
            classify(Phase::HostRead, FlashOp::Read, PageKind::Data, false),
            None
        );
        assert_eq!(
            classify(Phase::Gc, FlashOp::Read, PageKind::AcrossData, false),
            Some(OpKind::GcMigration)
        );
        // Map traffic is map traffic in any host phase.
        assert_eq!(
            classify(Phase::HostRead, FlashOp::Program, PageKind::Map, false),
            Some(OpKind::MapWrite)
        );
        assert_eq!(
            classify(Phase::HostWrite, FlashOp::Read, PageKind::Map, false),
            Some(OpKind::MapRead)
        );
        // Data programs are part of the host-write latency.
        assert_eq!(
            classify(
                Phase::HostWrite,
                FlashOp::Program,
                PageKind::AcrossData,
                false
            ),
            None
        );
        // Erases are erases wherever they happen.
        assert_eq!(
            classify(Phase::Gc, FlashOp::Erase, PageKind::Data, false),
            Some(OpKind::Erase)
        );
    }

    #[test]
    fn failed_ops_get_fault_buckets() {
        // Failed reads/programs classify by failure, regardless of phase
        // or page kind; failed erases stay under Erase.
        for phase in [Phase::HostRead, Phase::HostWrite, Phase::Gc] {
            assert_eq!(
                classify(phase, FlashOp::Read, PageKind::Data, true),
                Some(OpKind::ReadRetry)
            );
            assert_eq!(
                classify(phase, FlashOp::Program, PageKind::Map, true),
                Some(OpKind::Reprogram)
            );
            assert_eq!(
                classify(phase, FlashOp::Erase, PageKind::Data, true),
                Some(OpKind::Erase)
            );
        }
    }

    #[test]
    fn opkind_all_matches_index() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn disabled_observer_is_inert() {
        let cfg = ObserveConfig {
            histograms: false,
            trace: TraceConfig::default(),
        };
        let mut obs = Observer::new(&cfg);
        assert!(!obs.enabled());
        obs.record_host(ReqKind::Write, 100, 100);
        assert_eq!(obs.breakdown(), LatencyBreakdown::default());
        assert!(obs.events().is_none());
        assert_eq!(obs.trace_events_total(), 0);
    }

    #[test]
    fn breakdown_maps_kinds_to_fields() {
        let mut obs = Observer::new(&ObserveConfig::standard());
        obs.record(OpKind::RmwRead, 1_000, 10);
        obs.record(OpKind::Erase, 2_000_000, 20);
        let b = obs.breakdown();
        assert_eq!(b.rmw_read.count, 1);
        assert_eq!(b.erase.count, 1);
        assert_eq!(b.host_read.count, 0);
        assert_eq!(b.get(OpKind::RmwRead).max_ns, 1_000);
        // reset() forgets warm-up samples.
        obs.reset();
        assert_eq!(obs.breakdown(), LatencyBreakdown::default());
    }
}
