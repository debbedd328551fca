//! Spans recorded by the traced run: fixed-size records in a preallocated
//! in-memory buffer, aggregated once the run is over and written out as
//! JSONL. Only the traced drivers allocate one; the timed repeats never do.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// What a span covers. Request-level names carry the request class, so
/// per-class costs need no side table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Name {
    /// `VdiWorkload` calibration + `generate`.
    TraceGenerate,
    /// `FlashArray::new` + `Allocator::new` + scheme constructor + `Observer::new`.
    SsdNew,
    /// The §4.1 aging writes.
    WarmupAge,
    /// The measured window of a replay workload: the whole trace loop.
    Replay,
    /// The measured window of the fleet workload: shard, age, drive, merge.
    FleetRun,
    /// Range-sharding the trace and dressing shards as tenants.
    FleetShard,
    /// One device's `run_host` call; the device's requests hang under it.
    HostRun,
    /// Merging the per-device results into one report.
    FleetMerge,
    /// Snapshot, deltas, `Observer::breakdown`, `RunReport` construction.
    ReportAssemble,
    /// `RunReport::to_json`.
    ReportToJson,
    /// Parsing that JSON back.
    ReportParse,
    /// One host request inside the device (root of the spans below).
    Request,
    /// `FtlScheme::write`, across-page request.
    SchemeWriteAcross,
    /// `FtlScheme::write`, any other request.
    SchemeWriteAligned,
    /// `FtlScheme::read`, across-page request.
    SchemeReadAcross,
    /// `FtlScheme::read`, any other request.
    SchemeReadAligned,
    /// `absorb_ops` + `absorb_scheme_events` + `record_host` after the request.
    ObserveHost,
    /// `FtlScheme::maybe_gc` that found nothing to do.
    GcIdle,
    /// `FtlScheme::maybe_gc` that collected.
    GcCollect,
    /// `absorb_ops` (+ `record_gc_pause`) after GC.
    ObserveGc,
}

impl Name {
    /// Dotted `layer.what` label written to the JSONL file.
    pub fn label(self) -> &'static str {
        match self {
            Name::TraceGenerate => "trace.generate",
            Name::SsdNew => "sim.ssd.new",
            Name::WarmupAge => "sim.warmup.age",
            Name::Replay => "sim.ssd.replay",
            Name::FleetRun => "sim.fleet.run",
            Name::FleetShard => "sim.fleet.shard",
            Name::HostRun => "host.engine.run",
            Name::FleetMerge => "sim.fleet.merge",
            Name::ReportAssemble => "sim.report.assemble",
            Name::ReportToJson => "sim.report.to_json",
            Name::ReportParse => "sim.report.parse",
            Name::Request => "sim.ssd.request",
            Name::SchemeWriteAcross => "core.scheme.write.across",
            Name::SchemeWriteAligned => "core.scheme.write.aligned",
            Name::SchemeReadAcross => "core.scheme.read.across",
            Name::SchemeReadAligned => "core.scheme.read.aligned",
            Name::ObserveHost => "sim.observe.host",
            Name::GcIdle => "core.gc.idle",
            Name::GcCollect => "core.gc.collect",
            Name::ObserveGc => "sim.observe.gc",
        }
    }
}

/// Parent / request id of a span that has none.
pub const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Nanoseconds since the buffer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the buffer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u32,
    /// Request the span belongs to (index into the trace), or [`NONE`].
    pub req: u32,
    /// What the span covers.
    pub name: Name,
}

impl Span {
    /// Wall time the span covers.
    #[inline]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span buffer of one traced run.
pub struct Spans {
    epoch: Instant,
    buf: Vec<Span>,
}

impl Spans {
    /// A buffer with room for `capacity` spans, so recording never
    /// reallocates inside a measured region.
    pub fn with_capacity(capacity: usize) -> Self {
        Spans {
            epoch: Instant::now(),
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the buffer was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index.
    #[inline]
    pub fn push(&mut self, name: Name, start_ns: u64, end_ns: u64, parent: u32, req: u32) -> u32 {
        let idx = self.buf.len() as u32;
        self.buf.push(Span {
            start_ns,
            end_ns,
            parent,
            req,
            name,
        });
        idx
    }

    /// Start a span whose children are recorded before it ends; finish it
    /// with [`Spans::close`].
    #[inline]
    pub fn open(&mut self, name: Name, parent: u32, req: u32) -> u32 {
        let now = self.now();
        self.push(name, now, now, parent, req)
    }

    /// End a span started with [`Spans::open`].
    #[inline]
    pub fn close(&mut self, idx: u32) {
        let now = self.now();
        self.close_at(idx, now);
    }

    /// End a span on a timestamp already taken.
    #[inline]
    pub fn close_at(&mut self, idx: u32, end_ns: u64) {
        self.buf[idx as usize].end_ns = end_ns;
    }

    /// All recorded spans, in recording order.
    pub fn all(&self) -> &[Span] {
        &self.buf
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.buf.iter().map(Span::dur_ns).collect();
        for s in &self.buf {
            if s.parent != NONE {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Write the spans as JSONL: every span without a request id, and the
    /// spans of every `every`-th request, so the file stays small. `id` is
    /// the span's index in the full buffer, which is what `parent` refers to.
    pub fn write_jsonl(&self, path: &Path, every: u32) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.buf.iter().enumerate() {
            if s.req != NONE && s.req % every.max(1) != 0 {
                continue;
            }
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name.label(),
                s.start_ns,
                s.end_ns
            )?;
            if s.parent != NONE {
                write!(out, ",\"parent\":{}", s.parent)?;
            }
            if s.req != NONE {
                write!(out, ",\"req\":{}", s.req)?;
            }
            out.write_all(b"}\n")?;
        }
        out.flush()
    }
}
