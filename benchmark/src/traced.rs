//! The traced drivers: the same work as [`crate::drivers`], but driven at
//! the layer boundaries from here so each call into a layer gets a span.
//!
//! [`LayeredSsd`] is `aftl_sim::Ssd` taken apart: it owns the flash array,
//! the allocator, the scheme and the observer, and its `submit` makes the
//! same calls in the same order as `Ssd::submit` with a span around each.
//! The fault, crash and throttle branches are left out (no workload arms
//! them; the constructor checks). That the result is the same simulation
//! is not assumed: every traced run's `sim_digest` must equal its timed
//! run's, and `tests/drivers.rs` pins it for all four schemes.

use std::time::Instant;

use aftl_core::gc::GcReport;
use aftl_core::oracle::Oracle;
use aftl_core::request::{HostRequest, ReqKind};
use aftl_core::scheme::{FtlEnv, FtlScheme, SchemeKind};
use aftl_core::{AcrossFtl, BaselineFtl, LearnedFtl, MrsmFtl};
use aftl_flash::{Allocator, FlashArray, FlashError, Nanos, Result};
use aftl_host::{run_host, HostOutcome, QueuedDevice, Served};
use aftl_sim::config::WarmupConfig;
use aftl_sim::fleet::device_seed;
use aftl_sim::hosted::tenants_from_trace;
use aftl_sim::metrics::{cache_delta, counters_delta, flash_delta, ClassBreakdown, StatsSnapshot};
use aftl_sim::observe::{LatencyHistogram, Observer, Phase};
use aftl_sim::report::{RunReport, SCHEMA_VERSION};
use aftl_sim::ssd::Completed;
use aftl_sim::{SimConfig, Ssd, WarmupStats};
use aftl_trace::{sector_ranges, IoOp, IoRecord, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spans::{Name, Spans, NONE};
use crate::workloads::Workload;

/// The two calls the benchmark's own drivers need from a device, so the
/// product's [`Ssd`] and the [`LayeredSsd`] can stand behind one
/// [`HostedDevice`] adapter and one verify pass.
pub trait Device {
    /// Wrap a request into the exported logical space.
    fn clamp(&self, req: &mut HostRequest);
    /// Service one host request.
    fn submit(&mut self, req: &HostRequest) -> Result<Completed>;
}

impl Device for Ssd {
    fn clamp(&self, req: &mut HostRequest) {
        Ssd::clamp(self, req)
    }
    fn submit(&mut self, req: &HostRequest) -> Result<Completed> {
        Ssd::submit(self, req)
    }
}

/// A trace record as the host request `Ssd::submit_record` would build.
pub fn request_of(rec: &IoRecord) -> HostRequest {
    HostRequest {
        at_ns: rec.at_ns,
        sector: rec.sector,
        sectors: rec.sectors,
        kind: match rec.op {
            IoOp::Read => ReqKind::Read,
            IoOp::Write => ReqKind::Write,
        },
        version: 0,
    }
}

/// The simulated device, driven layer by layer.
pub struct LayeredSsd {
    config: SimConfig,
    array: FlashArray,
    alloc: Allocator,
    scheme: Box<dyn FtlScheme + Send>,
    observer: Observer,
    /// The run's span buffer.
    pub spans: Spans,
    /// Whether `submit` records spans (off while aging).
    pub recording: bool,
    /// Span the next request's root hangs under.
    pub parent: u32,
    /// Request id stamped on the next request's spans; counts up.
    pub req: u32,
}

impl LayeredSsd {
    /// Build the device from its layers' public constructors. It records
    /// into `spans` once `recording` is switched on.
    pub fn new(config: SimConfig, spans: Spans) -> Result<Self> {
        assert!(
            !config.fault.injects()
                && !config.fault.wears()
                && !config.crash.armed()
                && config.scheme_cfg.gc.throttle_fraction == 0.0
                && config.scheme_cfg.gc.idle_headroom == 0.0,
            "the layered device leaves out the fault, crash, throttle and idle-GC branches"
        );
        let mut scheme: Box<dyn FtlScheme + Send> = match config.scheme {
            SchemeKind::Baseline => Box::new(BaselineFtl::new(&config.geometry, config.scheme_cfg)),
            SchemeKind::Mrsm => Box::new(MrsmFtl::new(&config.geometry, config.scheme_cfg)),
            SchemeKind::Across => Box::new(AcrossFtl::new(&config.geometry, config.scheme_cfg)),
            SchemeKind::Learned => Box::new(LearnedFtl::new(&config.geometry, config.scheme_cfg)),
        };
        let mut array = FlashArray::new(config.geometry, config.timing)?;
        if config.track_content {
            array.enable_content_tracking();
        }
        let observer = Observer::new(&config.observe);
        if observer.enabled() {
            array.enable_op_log();
            scheme.set_event_log(true);
        }
        let alloc = Allocator::new(&array);
        Ok(LayeredSsd {
            config,
            array,
            alloc,
            scheme,
            observer,
            spans,
            recording: false,
            parent: NONE,
            req: 0,
        })
    }

    fn spp(&self) -> u32 {
        self.config.geometry.sectors_per_page()
    }

    /// `warmup::age`, on this device.
    pub fn age(&mut self, cfg: &WarmupConfig) -> Result<WarmupStats> {
        let spp = u64::from(self.spp());
        let total_pages = self.array.geometry().total_pages();
        let footprint_pages =
            ((total_pages as f64 * cfg.valid_fraction) as u64).min(self.scheme.logical_pages());
        let gc_floor = self.config.scheme_cfg.gc_threshold + self.config.scheme_cfg.gc_hysteresis;
        let free_target = (1.0 - cfg.used_fraction).max(gc_floor);
        let mut writes = 0u64;
        if cfg.used_fraction > 0.0 && footprint_pages > 0 {
            for lpn in 0..footprint_pages {
                self.submit(&HostRequest::write(0, lpn * spp, spp as u32))?;
                writes += 1;
            }
            let mut rng = SmallRng::seed_from_u64(cfg.seed);
            while self.array.free_block_fraction() > free_target {
                let lpn = rng.random_range(0..footprint_pages);
                self.submit(&HostRequest::write(0, lpn * spp, spp as u32))?;
                writes += 1;
            }
        }
        let stats = WarmupStats {
            footprint_pages: if writes == 0 { 0 } else { footprint_pages },
            writes,
            used_fraction: 1.0 - self.array.free_block_fraction(),
            valid_fraction: self.array.valid_page_fraction(),
        };
        self.array.reset_stats();
        self.array.reset_timelines();
        self.observer.reset();
        Ok(stats)
    }

    /// `Ssd::snapshot`.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            flash: self.array.stats().clone(),
            counters: *self.scheme.counters(),
            cache: self.scheme.cache_stats(),
            map_engine: self.scheme.map_engine_stats(),
            learned: self.scheme.learned_stats(),
        }
    }

    /// The report `run_on_device_keep` assembles, from this device.
    #[allow(clippy::too_many_arguments)]
    pub fn report(
        &self,
        trace_name: &str,
        requests: u64,
        base: &StatsSnapshot,
        warmup: WarmupStats,
        classes: ClassBreakdown,
        gc: GcReport,
        sim_span_ns: u128,
    ) -> RunReport {
        let end = self.snapshot();
        RunReport {
            schema_version: SCHEMA_VERSION,
            trace: trace_name.to_string(),
            scheme: self.config.scheme,
            page_bytes: self.config.geometry.page_bytes,
            requests,
            config: self.config.clone(),
            warmup,
            classes,
            latency: self.observer.breakdown(),
            flash: flash_delta(&end.flash, &base.flash),
            counters: counters_delta(&end.counters, &base.counters),
            cache: cache_delta(&end.cache, &base.cache),
            map_engine: end.map_engine.delta(&base.map_engine),
            learned: end.learned.delta(&base.learned),
            gc,
            mapping_table_bytes: self.scheme.mapping_table_bytes(),
            sim_span_ns,
            wall_seconds: 0.0,
            trace_events: self.observer.trace_events_total(),
            qos: None,
            fleet: None,
            recovery: None,
        }
    }
}

impl Device for LayeredSsd {
    /// `Ssd::clamp`.
    fn clamp(&self, req: &mut HostRequest) {
        let cap = self.scheme.logical_pages() * u64::from(self.spp());
        let len = u64::from(req.sectors).min(cap);
        req.sectors = len as u32;
        if req.sector + len > cap {
            req.sector %= cap - len + 1;
        }
    }

    /// `Ssd::submit`, one span per call into a layer. The spans tile the
    /// request — each starts on the timestamp the one before ended on — so
    /// a request costs five clock reads.
    fn submit(&mut self, req: &HostRequest) -> Result<Completed> {
        let rec = self.recording;
        let id = self.req;
        let t0 = if rec { self.spans.now() } else { 0 };
        let root = if rec {
            self.req += 1;
            self.spans.push(Name::Request, t0, t0, self.parent, id)
        } else {
            NONE
        };
        let spp = self.spp();
        let across = req.is_across_page(spp);
        let before_reads = self.array.stats().reads.total();
        let before_programs = self.array.stats().programs.total();

        let mut env = FtlEnv {
            array: &mut self.array,
            alloc: &mut self.alloc,
            now_ns: req.at_ns,
        };
        let outcome = match req.kind {
            ReqKind::Write => self.scheme.write(&mut env, req),
            ReqKind::Read => self.scheme.read(&mut env, req),
        }?;
        let t1 = if rec { self.spans.now() } else { 0 };
        let flash_reads = self.array.stats().reads.total() - before_reads;
        let flash_programs = self.array.stats().programs.total() - before_programs;

        let phase = match req.kind {
            ReqKind::Read => Phase::HostRead,
            ReqKind::Write => Phase::HostWrite,
        };
        self.observer.absorb_ops(&mut self.array, phase);
        self.observer
            .absorb_scheme_events(self.scheme.as_mut(), req.at_ns);
        let latency_ns = outcome.complete_ns.saturating_sub(req.at_ns);
        self.observer
            .record_host(req.kind, latency_ns, outcome.complete_ns);
        let t2 = if rec { self.spans.now() } else { 0 };

        let mut env = FtlEnv {
            array: &mut self.array,
            alloc: &mut self.alloc,
            now_ns: req.at_ns,
        };
        let gc = self.scheme.maybe_gc(&mut env)?;
        let t3 = if rec { self.spans.now() } else { 0 };

        let gc_end = self.observer.absorb_ops(&mut self.array, Phase::Gc);
        if let (true, Some(end)) = (gc.triggered, gc_end) {
            self.observer
                .record_gc_pause(end.saturating_sub(req.at_ns), end);
        }
        if rec {
            let t4 = self.spans.now();
            let scheme = match (req.kind, across) {
                (ReqKind::Write, true) => Name::SchemeWriteAcross,
                (ReqKind::Write, false) => Name::SchemeWriteAligned,
                (ReqKind::Read, true) => Name::SchemeReadAcross,
                (ReqKind::Read, false) => Name::SchemeReadAligned,
            };
            let collect = if gc.triggered {
                Name::GcCollect
            } else {
                Name::GcIdle
            };
            self.spans.push(scheme, t0, t1, root, id);
            self.spans.push(Name::ObserveHost, t1, t2, root, id);
            self.spans.push(collect, t2, t3, root, id);
            self.spans.push(Name::ObserveGc, t3, t4, root, id);
            self.spans.close_at(root, t4);
        }
        Ok(Completed {
            kind: req.kind,
            across,
            sectors: req.sectors,
            latency_ns,
            flash_reads,
            flash_programs,
            gc,
            served: outcome.served,
        })
    }
}

/// What a traced run hands back: the report (for the digest and the
/// counts) and the spans (for the times).
pub struct Traced {
    /// The run's report, assembled as the public driver assembles it.
    pub report: RunReport,
    /// Every span of the run.
    pub spans: Spans,
    /// Pretty-printed size of the report's JSON, bytes.
    pub json_bytes: usize,
    /// Fleet only: what the host engines and the shards did.
    pub fleet: Option<FleetTrace>,
}

/// What both traced drivers start with: a span buffer with room for the
/// whole run (five spans a request), allocated before anything is timed,
/// and the trace, generated under its span.
fn traced_inputs(w: &Workload, seed: u64, scale: f64) -> (Spans, Trace) {
    let requests = (w.trace_len() as f64 * scale) as usize;
    let mut spans = Spans::with_capacity(requests * 5 + 64);
    let id = spans.open(Name::TraceGenerate, NONE, NONE);
    let trace = w.trace(seed, scale);
    spans.close(id);
    (spans, trace)
}

fn report_spans(spans: &mut Spans, report: &RunReport) -> usize {
    let id = spans.open(Name::ReportToJson, NONE, NONE);
    let json = report.to_json();
    spans.close(id);
    let id = spans.open(Name::ReportParse, NONE, NONE);
    let back: RunReport = serde_json::from_str(&json).expect("run reports parse back");
    spans.close(id);
    assert_eq!(back.requests, report.requests);
    json.len()
}

/// The traced twin of `prepare` + `run` for a replay workload.
pub fn traced_replay(w: &Workload, seed: u64, scale: f64) -> Result<Traced> {
    let (spans, trace) = traced_inputs(w, seed, scale);
    traced_replay_of(w.config(seed), &trace, spans)
}

/// Replay `trace` on a layered device built from `config`.
pub fn traced_replay_of(config: SimConfig, trace: &Trace, mut spans: Spans) -> Result<Traced> {
    let warm = config.warmup;
    let id = spans.open(Name::SsdNew, NONE, NONE);
    let mut ssd = LayeredSsd::new(config, spans)?;
    ssd.spans.close(id);

    let id = ssd.spans.open(Name::WarmupAge, NONE, NONE);
    let warmup = ssd.age(&warm)?;
    ssd.spans.close(id);
    let base = ssd.snapshot();

    let mut classes = ClassBreakdown::default();
    let mut gc = GcReport::default();
    let mut last_complete: u128 = 0;
    let window = ssd.spans.open(Name::Replay, NONE, NONE);
    ssd.parent = window;
    ssd.recording = true;
    for rec in &trace.records {
        let mut req = request_of(rec);
        ssd.clamp(&mut req);
        let c = ssd.submit(&req)?;
        classes
            .class_mut(c.kind == ReqKind::Write, c.across)
            .record(c.sectors, c.latency_ns, c.flash_reads, c.flash_programs);
        gc.merge(&c.gc);
        last_complete = last_complete.max(u128::from(rec.at_ns) + u128::from(c.latency_ns));
    }
    ssd.recording = false;

    let id = ssd.spans.open(Name::ReportAssemble, window, NONE);
    let report = ssd.report(
        &trace.name,
        trace.records.len() as u64,
        &base,
        warmup,
        classes,
        gc,
        last_complete,
    );
    ssd.spans.close(id);
    ssd.spans.close(window);

    let mut spans = ssd.spans;
    let json_bytes = report_spans(&mut spans, &report);
    Ok(Traced {
        report,
        spans,
        json_bytes,
        fleet: None,
    })
}

/// [`QueuedDevice`] adapter over either device: what `hosted::SsdDevice`
/// does (host clock as submit time, class and GC accounting, first hard
/// error parked), plus an optional content oracle for the verify pass.
pub struct HostedDevice<D> {
    /// The device behind the host engine.
    pub dev: D,
    /// Stamps writes and checks every read when present.
    pub oracle: Option<Oracle>,
    /// Reads in which the oracle found a wrong sector.
    pub violations: u64,
    /// Device-side class accounting.
    pub classes: ClassBreakdown,
    /// Accumulated GC work.
    pub gc: GcReport,
    /// First hard error; the device refuses everything after it.
    pub error: Option<FlashError>,
}

impl<D: Device> HostedDevice<D> {
    /// Wrap `dev`.
    pub fn new(dev: D, oracle: Option<Oracle>) -> Self {
        HostedDevice {
            dev,
            oracle,
            violations: 0,
            classes: ClassBreakdown::default(),
            gc: GcReport::default(),
            error: None,
        }
    }
}

impl<D: Device> QueuedDevice for HostedDevice<D> {
    fn submit(&mut self, now_ns: Nanos, record: &IoRecord) -> Served {
        if self.error.is_some() {
            return Served::Rejected;
        }
        let mut req = request_of(&IoRecord {
            at_ns: now_ns,
            ..*record
        });
        self.dev.clamp(&mut req);
        if let (Some(oracle), ReqKind::Write) = (&mut self.oracle, req.kind) {
            oracle.stamp_write(&mut req);
        }
        match self.dev.submit(&req) {
            Ok(c) => {
                if let (Some(oracle), ReqKind::Read) = (&self.oracle, req.kind) {
                    self.violations += u64::from(!oracle.check_read(&req, &c.served).is_empty());
                }
                self.classes
                    .class_mut(c.kind == ReqKind::Write, c.across)
                    .record(c.sectors, c.latency_ns, c.flash_reads, c.flash_programs);
                self.gc.merge(&c.gc);
                Served::Done {
                    complete_ns: now_ns.saturating_add(c.latency_ns),
                }
            }
            Err(FlashError::ReadOnlyMode) => Served::Rejected,
            Err(e) => {
                self.error = Some(e);
                Served::Rejected
            }
        }
    }
}

/// What only the fleet's traced run can see.
#[derive(Debug, Clone, Default)]
pub struct FleetTrace {
    /// Requests routed to each shard.
    pub shard_requests: Vec<u64>,
    /// Wall seconds each shard's device took (build, age, drive), one
    /// after the other on one thread.
    pub device_wall_s: Vec<f64>,
    /// Queue-full stall episodes over all tenants.
    pub queue_full_stalls: u64,
    /// Highest submission-queue occupancy any tenant reached.
    pub max_occupancy: u32,
    /// Each tenant's end-to-end read p99, nanoseconds.
    pub tenant_read_p99_ns: Vec<u64>,
    /// Requests the devices refused.
    pub rejected: u64,
}

/// The traced twin of `run_fleet` for the fleet workload: the same
/// sharding, seeds and tenants, but one shard after the other through
/// `run_host`, with the layered device behind the adapter.
pub fn traced_fleet(w: &Workload, seed: u64, scale: f64) -> Result<Traced> {
    let (mut spans, trace) = traced_inputs(w, seed, scale);
    let config = w.config(seed);
    let spec = w.fleet_spec(seed);

    let window = spans.open(Name::FleetRun, NONE, NONE);
    let id = spans.open(Name::FleetShard, window, NONE);
    let span = trace.max_sector_end();
    let shards = trace.shard_by_ranges(&sector_ranges(span, spec.devices));
    let weights: Vec<u32> = (0..spec.tenants_per_device)
        .map(|i| spec.weights.get(i).copied().unwrap_or(1))
        .collect();
    spans.close(id);

    let mut fleet = FleetTrace::default();
    let mut runs: Vec<(Observer, RunReport)> = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        let started = Instant::now();
        let mut config = config.clone();
        config.warmup.seed = device_seed(config.warmup.seed, i);
        let mut host = spec.host;
        host.seed = device_seed(host.seed, i);
        let warm = config.warmup;

        let id = spans.open(Name::FleetShard, window, NONE);
        let tenants = tenants_from_trace(
            shard,
            spec.tenants_per_device,
            spec.issue,
            spec.queue_depth,
            &weights,
        );
        spans.close(id);

        let id = spans.open(Name::SsdNew, window, NONE);
        let mut ssd = LayeredSsd::new(config, spans)?;
        ssd.spans.close(id);
        ssd.req = runs.iter().map(|(_, r)| r.requests as u32).sum();

        let id = ssd.spans.open(Name::WarmupAge, window, NONE);
        let warmup = ssd.age(&warm)?;
        ssd.spans.close(id);
        let base = ssd.snapshot();

        let mut read_latency: Vec<LatencyHistogram> =
            tenants.iter().map(|_| LatencyHistogram::new()).collect();
        let run = ssd.spans.open(Name::HostRun, window, NONE);
        ssd.parent = run;
        ssd.recording = true;
        let mut device = HostedDevice::new(ssd, None);
        let outcome: HostOutcome = run_host(&mut device, tenants, &host, |c| {
            if !c.rejected && c.record.op == IoOp::Read {
                read_latency[c.tenant].record(c.complete_ns.saturating_sub(c.arrival_ns));
            }
        });
        if let Some(e) = device.error {
            return Err(e);
        }
        let mut ssd = device.dev;
        ssd.recording = false;
        ssd.spans.close(run);

        let id = ssd.spans.open(Name::ReportAssemble, window, NONE);
        let report = ssd.report(
            &shard.name,
            shard.records.len() as u64,
            &base,
            warmup,
            device.classes,
            device.gc,
            u128::from(outcome.span_ns),
        );
        ssd.spans.close(id);

        fleet.shard_requests.push(shard.records.len() as u64);
        fleet.device_wall_s.push(started.elapsed().as_secs_f64());
        for (t, h) in outcome.tenants.iter().zip(&read_latency) {
            fleet.queue_full_stalls += t.queue.queue_full_stalls;
            fleet.max_occupancy = fleet.max_occupancy.max(t.queue.max_occupancy);
            fleet.rejected += t.rejected;
            fleet.tenant_read_p99_ns.push(h.p99_ns());
        }
        spans = ssd.spans;
        runs.push((ssd.observer, report));
    }

    // `hosted::assemble_report`'s fold: counters sum, histograms merge
    // exactly, the span is the makespan.
    let id = spans.open(Name::FleetMerge, window, NONE);
    let mut runs = runs.into_iter();
    let (mut head, mut merged) = runs.next().expect("fleet has at least one device");
    let mut warmups = vec![merged.warmup];
    for (observer, r) in runs {
        head.merge(&observer);
        warmups.push(r.warmup);
        merged.classes.merge(&r.classes);
        merged.gc.merge(&r.gc);
        merged.flash.merge(&r.flash);
        merged.counters.merge(&r.counters);
        merged.cache.merge(&r.cache);
        merged.map_engine.merge(&r.map_engine);
        merged.learned.merge(&r.learned);
        merged.sim_span_ns = merged.sim_span_ns.max(r.sim_span_ns);
        merged.requests += r.requests;
        merged.mapping_table_bytes += r.mapping_table_bytes;
    }
    merged.warmup = WarmupStats::merged(&warmups);
    merged.latency = head.breakdown();
    merged.trace = format!("fleet{}:{}", spec.devices, trace.name);
    spans.close(id);
    spans.close(window);

    let json_bytes = report_spans(&mut spans, &merged);
    Ok(Traced {
        report: merged,
        spans,
        json_bytes,
        fleet: Some(fleet),
    })
}
