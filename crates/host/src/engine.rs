//! The hosted-run event loop: initiators post into bounded submission
//! queues, an arbiter picks which queue the device serves next, and a
//! device-side inflight budget bounds concurrency.
//!
//! Time is simulated. The engine advances a single clock to the next
//! event (an arrival becoming due or an inflight command completing) and
//! at each instant runs three phases to a fixpoint:
//!
//! 1. **retire** — pop inflight commands whose completion time has come,
//!    notify the tenant's initiator (frees a closed-loop slot) and the
//!    completion sink;
//! 2. **fill** — move due arrivals into their submission queues; an
//!    arrival that finds its queue full blocks (one stall episode) until
//!    a slot frees, and the blocked nanoseconds are charged to the
//!    tenant;
//! 3. **admit** — while the device has inflight budget, ask the arbiter
//!    which non-empty queue to serve and submit its head entry.
//!
//! Every data structure iterates in a deterministic order, so the whole
//! run — completion sequence included — is a pure function of the
//! tenant configs, the arbitration policy, and the run seed.

use crate::arbiter::{Arbiter, Arbitration};
use crate::initiator::{Initiator, IssueModel};
use crate::queue::{QueueStats, SqEntry, SubmissionQueue};
use aftl_flash::{Nanos, PrefetchStage};
use aftl_trace::{IoRecord, Trace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the device served one submitted command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Command accepted; it will complete at `complete_ns`.
    Done {
        /// Absolute completion time (≥ submit time).
        complete_ns: Nanos,
    },
    /// Command refused (e.g. a write to a device in read-only
    /// degradation). It consumes no inflight budget.
    Rejected,
}

/// How many records past the one a tenant just handed over the engine
/// runs each stage of [`QueuedDevice::prefetch`], counted in that
/// tenant's own records ([`Initiator::peek`]). A tenant's next record
/// reaches the device about one round of the arbiter later, so these are
/// shorter than replay's distances, which count the device's requests
/// (DESIGN.md §9).
const PREFETCH_AHEAD: [(usize, PrefetchStage); 2] =
    [(2, PrefetchStage::Far), (0, PrefetchStage::Near)];

/// The device side of the host interface. `submit` is called once per
/// admitted command, in arbitration order, with the simulated submit
/// time; the implementation decides when the command completes.
pub trait QueuedDevice {
    /// Serve `record` submitted at `now_ns`.
    fn submit(&mut self, now_ns: Nanos, record: &IoRecord) -> Served;

    /// The engine found no runnable work before `until_ns`: every queue is
    /// empty and the next event (arrival or completion) is at `until_ns`.
    /// Devices may use the gap for background work (idle GC). Default:
    /// nothing.
    fn on_idle(&mut self, _now_ns: Nanos, _until_ns: Nanos) {}

    /// One stage of request-ahead prefetch for `record`, which a tenant
    /// will hand over a few records from now: a hint that must change
    /// nothing the device reports. Default: nothing.
    fn prefetch(&self, _record: &IoRecord, _stage: PrefetchStage) {}
}

/// One tenant: a workload, an issue model, and its queue/QoS knobs.
#[derive(Debug)]
pub struct TenantConfig {
    /// Display name (reports, manifests).
    pub name: String,
    /// The records this tenant issues, in order.
    pub trace: Trace,
    /// Closed- or open-loop issue discipline.
    pub issue: IssueModel,
    /// Submission-queue depth (min 1).
    pub queue_depth: usize,
    /// WRR weight (ignored under plain RR; zero clamps to 1).
    pub weight: u32,
}

/// Engine-wide knobs.
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// Arbitration policy across tenants' submission queues.
    pub arbitration: Arbitration,
    /// Maximum commands inflight at the device at once (min 1).
    pub device_inflight: usize,
    /// Run seed; mixed with the tenant index to seed each initiator.
    pub seed: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            arbitration: Arbitration::RoundRobin,
            device_inflight: 32,
            seed: 42,
        }
    }
}

/// One finished (or rejected) request, delivered to the completion sink
/// in deterministic completion order.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Index of the tenant in the config vector.
    pub tenant: usize,
    /// The request as issued.
    pub record: IoRecord,
    /// When the initiator produced the request (latency is measured
    /// from here, so queue wait and stall time count).
    pub arrival_ns: Nanos,
    /// When the arbiter admitted it to the device.
    pub submit_ns: Nanos,
    /// When the device finished it (== `submit_ns` for rejections).
    pub complete_ns: Nanos,
    /// Whether the device refused the command.
    pub rejected: bool,
}

/// Per-tenant outcome of a hosted run.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant display name.
    pub name: String,
    /// Effective WRR weight.
    pub weight: u32,
    /// Configured queue depth.
    pub queue_depth: usize,
    /// Issue-model echo (`closed(8)`, `poisson(..)`, ...).
    pub issue: String,
    /// Requests admitted to the device and completed.
    pub completed: u64,
    /// Requests the device refused.
    pub rejected: u64,
    /// Submission-side backpressure counters.
    pub queue: QueueStats,
}

/// Whole-run outcome.
#[derive(Debug, Clone)]
pub struct HostOutcome {
    /// Final simulated time (last completion).
    pub span_ns: Nanos,
    /// Per-tenant results, in config order.
    pub tenants: Vec<TenantOutcome>,
}

/// An arrival that found its queue full: held here until a slot frees.
#[derive(Debug, Clone, Copy)]
struct Blocked {
    arrival_ns: Nanos,
    record: IoRecord,
}

struct Tenant {
    initiator: Initiator,
    queue: SubmissionQueue,
    blocked: Option<Blocked>,
    completed: u64,
    rejected: u64,
}

/// Run the hosted event loop to workload exhaustion and return per-tenant
/// outcomes. `sink` observes every completion (and rejection) in
/// deterministic order; wire latency histograms and class accounting
/// there.
pub fn run_host<D: QueuedDevice>(
    device: &mut D,
    tenants: Vec<TenantConfig>,
    cfg: &HostConfig,
    mut sink: impl FnMut(&Completion),
) -> HostOutcome {
    assert!(!tenants.is_empty(), "hosted run needs at least one tenant");
    let weights: Vec<u32> = tenants.iter().map(|t| t.weight).collect();
    let mut arbiter = Arbiter::new(cfg.arbitration, &weights);
    let device_inflight = cfg.device_inflight.max(1);

    let mut meta: Vec<(String, u32, usize, String)> = Vec::new();
    let mut state: Vec<Tenant> = Vec::new();
    for (i, t) in tenants.into_iter().enumerate() {
        let seed = cfg
            .seed
            .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        meta.push((
            t.name,
            arbiter.weights()[i],
            t.queue_depth.max(1),
            t.issue.describe(),
        ));
        state.push(Tenant {
            initiator: Initiator::new(t.trace, t.issue, seed),
            queue: SubmissionQueue::new(t.queue_depth),
            blocked: None,
            completed: 0,
            rejected: 0,
        });
    }

    // Inflight commands ordered by (complete_ns, submit sequence): the
    // sequence number breaks completion-time ties deterministically, so
    // the slot holding the command's completion is never compared. Slots
    // are reused through `free`; both grow only up to the inflight budget,
    // so the loop allocates nothing per command.
    let mut inflight: BinaryHeap<Reverse<(Nanos, u64, usize)>> = BinaryHeap::new();
    let mut slots: Vec<Completion> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut ready: Vec<bool> = Vec::with_capacity(state.len());
    let mut seq: u64 = 0;
    let mut now: Nanos = 0;
    let mut span: Nanos = 0;

    loop {
        // Run retire/fill/admit to a fixpoint at the current instant.
        loop {
            let mut progressed = false;

            // Retire everything due.
            while let Some(&Reverse((t, _, slot))) = inflight.peek() {
                if t > now {
                    break;
                }
                inflight.pop();
                free.push(slot);
                let done = &slots[slot];
                let tenant = &mut state[done.tenant];
                tenant.completed += 1;
                tenant.initiator.on_complete(done.complete_ns);
                span = span.max(done.complete_ns);
                sink(done);
                progressed = true;
            }

            // Fill submission queues with due arrivals.
            for t in state.iter_mut() {
                if let Some(b) = t.blocked {
                    if !t.queue.is_full() {
                        t.queue.stats.stalled_ns += now.saturating_sub(b.arrival_ns);
                        let pushed = t.queue.try_push(SqEntry {
                            arrival_ns: b.arrival_ns,
                            record: b.record,
                        });
                        debug_assert!(pushed);
                        t.blocked = None;
                        progressed = true;
                    }
                }
                while t.blocked.is_none() {
                    match t.initiator.next_arrival() {
                        Some(at) if at <= now => {
                            let (arrival_ns, record) = t.initiator.take();
                            for (ahead, stage) in PREFETCH_AHEAD {
                                if let Some(next) = t.initiator.peek(ahead) {
                                    device.prefetch(next, stage);
                                }
                            }
                            let entry = SqEntry { arrival_ns, record };
                            if t.queue.try_push(entry) {
                                progressed = true;
                            } else {
                                // Queue full: one stall episode; the record
                                // waits out-of-queue until a slot frees.
                                t.queue.stats.queue_full_stalls += 1;
                                t.blocked = Some(Blocked { arrival_ns, record });
                                progressed = true;
                            }
                        }
                        _ => break,
                    }
                }
            }

            // Admit from the queues while the device has budget.
            while inflight.len() < device_inflight {
                ready.clear();
                ready.extend(state.iter().map(|t| !t.queue.is_empty()));
                let Some(gi) = arbiter.grant(&ready) else {
                    break;
                };
                let entry = state[gi].queue.pop().expect("granted queue non-empty");
                match device.submit(now, &entry.record) {
                    Served::Done { complete_ns } => {
                        let done = Completion {
                            tenant: gi,
                            record: entry.record,
                            arrival_ns: entry.arrival_ns,
                            submit_ns: now,
                            complete_ns,
                            rejected: false,
                        };
                        let slot = match free.pop() {
                            Some(slot) => {
                                slots[slot] = done;
                                slot
                            }
                            None => {
                                slots.push(done);
                                slots.len() - 1
                            }
                        };
                        inflight.push(Reverse((complete_ns, seq, slot)));
                        seq += 1;
                    }
                    Served::Rejected => {
                        let t = &mut state[gi];
                        t.rejected += 1;
                        // A closed-loop slot must come back or the tenant
                        // deadlocks on a read-only device.
                        t.initiator.on_complete(now);
                        span = span.max(now);
                        sink(&Completion {
                            tenant: gi,
                            record: entry.record,
                            arrival_ns: entry.arrival_ns,
                            submit_ns: now,
                            complete_ns: now,
                            rejected: true,
                        });
                    }
                }
                progressed = true;
            }

            if !progressed {
                break;
            }
        }

        // Advance to the next event. Tenants holding a blocked arrival
        // progress only via a completion, so their initiator clock does
        // not contribute an event.
        let mut next: Option<Nanos> = inflight.peek().map(|&Reverse((t, ..))| t);
        for t in state.iter() {
            if t.blocked.is_none() {
                if let Some(at) = t.initiator.next_arrival() {
                    next = Some(next.map_or(at, |n| n.min(at)));
                }
            }
        }
        match next {
            Some(t) => {
                debug_assert!(t > now, "fixpoint left a due event behind");
                // With nothing inflight the span [now, t) is a genuine
                // arrival gap: no queued work, nothing due until t. Hand
                // it to the device for background work (idle GC) before
                // advancing the clock.
                if t > now && inflight.is_empty() {
                    device.on_idle(now, t);
                }
                now = t.max(now);
            }
            None => break, // exhausted: no inflight, no arrivals, no blocked
        }
    }

    debug_assert!(state
        .iter()
        .all(|t| { t.initiator.exhausted() && t.queue.is_empty() && t.blocked.is_none() }));

    HostOutcome {
        span_ns: span,
        tenants: state
            .into_iter()
            .zip(meta)
            .map(|(t, (name, weight, queue_depth, issue))| TenantOutcome {
                name,
                weight,
                queue_depth,
                issue,
                completed: t.completed,
                rejected: t.rejected,
                queue: t.queue.stats,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initiator::ArrivalModel;
    use aftl_trace::IoOp;

    /// Serial device: one command at a time, fixed service duration.
    /// Mirrors an M/D/1 server so queueing and stalls are predictable.
    struct SerialDevice {
        service_ns: Nanos,
        busy_until: Nanos,
        served: Vec<(Nanos, u64)>,
        reject_writes: bool,
    }

    impl SerialDevice {
        fn new(service_ns: Nanos) -> Self {
            SerialDevice {
                service_ns,
                busy_until: 0,
                served: Vec::new(),
                reject_writes: false,
            }
        }
    }

    impl QueuedDevice for SerialDevice {
        fn submit(&mut self, now_ns: Nanos, record: &IoRecord) -> Served {
            if self.reject_writes && record.op == IoOp::Write {
                return Served::Rejected;
            }
            let start = self.busy_until.max(now_ns);
            self.busy_until = start + self.service_ns;
            self.served.push((now_ns, record.sector));
            Served::Done {
                complete_ns: self.busy_until,
            }
        }
    }

    fn trace_n(name: &str, n: usize, iat_ns: u64) -> Trace {
        Trace::new(
            name,
            (0..n)
                .map(|i| IoRecord {
                    at_ns: i as u64 * iat_ns,
                    sector: i as u64 * 8,
                    sectors: 8,
                    op: IoOp::Write,
                })
                .collect(),
        )
    }

    fn tenant(name: &str, n: usize, issue: IssueModel, depth: usize, weight: u32) -> TenantConfig {
        TenantConfig {
            name: name.into(),
            trace: trace_n(name, n, 100),
            issue,
            queue_depth: depth,
            weight,
        }
    }

    #[test]
    fn closed_loop_completes_everything_in_order() {
        let mut dev = SerialDevice::new(1000);
        let mut completions = Vec::new();
        let out = run_host(
            &mut dev,
            vec![tenant("a", 10, IssueModel::Closed { outstanding: 2 }, 4, 1)],
            &HostConfig::default(),
            |c| completions.push(c.complete_ns),
        );
        assert_eq!(out.tenants[0].completed, 10);
        assert_eq!(out.tenants[0].rejected, 0);
        assert_eq!(completions.len(), 10);
        assert!(completions.windows(2).all(|w| w[0] <= w[1]));
        // Serial device, 1000ns each: last completion at 10_000.
        assert_eq!(out.span_ns, 10_000);
        assert_eq!(out.tenants[0].queue.queue_full_stalls, 0);
    }

    #[test]
    fn open_loop_overload_counts_stalls() {
        // Arrivals every 10ns, service 1000ns, depth 2, inflight 1:
        // the queue fills almost immediately and stays full.
        let issue = IssueModel::Open(ArrivalModel::FixedInterval { interval_ns: 10 });
        let mut dev = SerialDevice::new(1000);
        let cfg = HostConfig {
            device_inflight: 1,
            ..HostConfig::default()
        };
        let out = run_host(&mut dev, vec![tenant("hot", 20, issue, 2, 1)], &cfg, |_| {});
        let t = &out.tenants[0];
        assert_eq!(t.completed, 20, "backpressure delays but loses nothing");
        assert!(t.queue.queue_full_stalls > 0, "queue-full episodes counted");
        assert!(t.queue.stalled_ns > 0, "blocked time charged to the tenant");
        assert_eq!(t.queue.max_occupancy, 2);
        assert_eq!(out.span_ns, 20_000);
    }

    #[test]
    fn latency_is_measured_from_arrival_not_submit() {
        let issue = IssueModel::Open(ArrivalModel::FixedInterval { interval_ns: 10 });
        let mut dev = SerialDevice::new(1000);
        let cfg = HostConfig {
            device_inflight: 1,
            ..HostConfig::default()
        };
        let mut worst = 0u64;
        run_host(&mut dev, vec![tenant("hot", 20, issue, 2, 1)], &cfg, |c| {
            worst = worst.max(c.complete_ns - c.arrival_ns);
        });
        // Request 19 arrives at 190ns and completes at 20_000ns.
        assert_eq!(worst, 20_000 - 190);
    }

    #[test]
    fn wrr_completes_both_tenants_fully() {
        let issue = IssueModel::Closed { outstanding: 4 };
        let mut dev = SerialDevice::new(100);
        let cfg = HostConfig {
            arbitration: Arbitration::WeightedRoundRobin,
            device_inflight: 1,
            seed: 1,
        };
        let mut per_tenant = [0u64, 0u64];
        run_host(
            &mut dev,
            vec![tenant("a", 30, issue, 4, 3), tenant("b", 10, issue, 4, 1)],
            &cfg,
            |c| per_tenant[c.tenant] += 1,
        );
        assert_eq!(per_tenant, [30, 10], "every record completes exactly once");
    }

    #[test]
    fn wrr_grant_pattern_is_three_to_one() {
        let issue = IssueModel::Closed { outstanding: 8 };
        let mut dev = SerialDevice::new(100);
        let cfg = HostConfig {
            arbitration: Arbitration::WeightedRoundRobin,
            device_inflight: 1,
            seed: 1,
        };
        let mut submit_order: Vec<usize> = Vec::new();
        run_host(
            &mut dev,
            vec![tenant("a", 12, issue, 8, 3), tenant("b", 4, issue, 8, 1)],
            &cfg,
            |c| submit_order.push((c.submit_ns as usize, c.tenant).1),
        );
        // Completions come back in submit order on a serial device.
        assert_eq!(
            submit_order,
            vec![0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
            "3:1 weights yield the 3+1 grant template while both are ready"
        );
    }

    #[test]
    fn rejected_writes_free_closed_loop_slots() {
        let mut dev = SerialDevice::new(1000);
        dev.reject_writes = true;
        let out = run_host(
            &mut dev,
            vec![tenant("a", 5, IssueModel::Closed { outstanding: 1 }, 2, 1)],
            &HostConfig::default(),
            |_| {},
        );
        assert_eq!(out.tenants[0].rejected, 5);
        assert_eq!(out.tenants[0].completed, 0);
    }

    /// Completes command `i` (in submit order) 100, 200 or 300 ns after
    /// its submit, so several commands finish at one instant and later
    /// submits often finish first.
    struct TieDevice {
        submitted: Vec<u64>,
    }

    impl QueuedDevice for TieDevice {
        fn submit(&mut self, now_ns: Nanos, record: &IoRecord) -> Served {
            let i = self.submitted.len() as u64;
            self.submitted.push(record.sector);
            Served::Done {
                complete_ns: now_ns + 100 * (1 + (i * 7 + i / 3) % 3),
            }
        }
    }

    #[test]
    fn simultaneous_completions_retire_in_submit_order() {
        let mut dev = TieDevice {
            submitted: Vec::new(),
        };
        let cfg = HostConfig {
            arbitration: Arbitration::WeightedRoundRobin,
            device_inflight: 6,
            seed: 5,
        };
        let issue = IssueModel::Closed { outstanding: 4 };
        let mut b = tenant("b", 60, issue, 4, 1);
        for r in &mut b.trace.records {
            r.sector += 1 << 20; // tell the tenants' records apart
        }
        let mut retired = Vec::new();
        run_host(&mut dev, vec![tenant("a", 60, issue, 4, 2), b], &cfg, |c| {
            retired.push((c.complete_ns, c.record.sector))
        });
        assert_eq!(retired.len(), 120);
        let submitted = |sector: u64| dev.submitted.iter().position(|&s| s == sector).unwrap();
        let keys: Vec<(Nanos, usize)> = (retired.iter())
            .map(|&(t, sector)| (t, submitted(sector)))
            .collect();
        assert!(
            keys.windows(2).any(|w| w[0].0 == w[1].0),
            "some commands complete at one instant"
        );
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "retired by (completion time, submit order): {keys:?}"
        );
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| {
            let issue = IssueModel::Open(ArrivalModel::Poisson { mean_iat_ns: 500 });
            let mut dev = SerialDevice::new(300);
            let cfg = HostConfig {
                arbitration: Arbitration::WeightedRoundRobin,
                device_inflight: 2,
                seed,
            };
            let mut log = Vec::new();
            let out = run_host(
                &mut dev,
                vec![tenant("a", 25, issue, 4, 2), tenant("b", 25, issue, 4, 1)],
                &cfg,
                |c| log.push((c.tenant, c.arrival_ns, c.submit_ns, c.complete_ns)),
            );
            (log, out.span_ns)
        };
        assert_eq!(run(9), run(9), "fixed seed is bit-identical");
        assert_ne!(run(9).0, run(10).0, "seed actually feeds the arrivals");
    }
}
