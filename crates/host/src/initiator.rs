//! Per-tenant initiators: *when* each tenant's next request arrives.
//!
//! Two issue disciplines cover the benchmarking literature:
//!
//! * **Closed loop** — a fixed number of outstanding IOs; a new request
//!   becomes ready the moment a previous one completes (fio's
//!   `iodepth=k`). Throughput is completion-driven; trace timestamps are
//!   ignored.
//! * **Open loop** — arrivals follow their own clock regardless of
//!   completions: the recorded trace timestamps (optionally rescaled by
//!   an [`ArrivalClock`] speedup), a seeded Poisson process, or a fixed
//!   interval. Open-loop tenants are what create genuine queueing and
//!   backpressure when the device cannot keep up.
//!
//! All randomness is drawn from a per-initiator [`SmallRng`] seeded from
//! the run seed and tenant index, so a hosted run is a pure function of
//! its configuration.

use aftl_flash::Nanos;
use aftl_trace::{ArrivalClock, IoRecord, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Open-loop arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Issue at the trace's own (rescaled) timestamps.
    TraceTimed {
        /// Inter-arrival contraction factor (1.0 = recorded pacing).
        speedup: f64,
    },
    /// Memoryless arrivals at a configured mean rate.
    Poisson {
        /// Mean inter-arrival time in nanoseconds.
        mean_iat_ns: u64,
    },
    /// Strictly periodic arrivals.
    FixedInterval {
        /// Gap between consecutive arrivals in nanoseconds.
        interval_ns: u64,
    },
    /// Bursty open-loop arrivals: `burst` back-to-back requests (spaced
    /// `spacing_ns`) at the start of every `period_ns` window, then
    /// silence until the next window — the adversarial tail-latency shape
    /// the `gc` entry of the `tracked` bench uses (a GC episode that
    /// stalls one burst shows up directly at p99.9).
    Burst {
        /// Requests per burst (min 1).
        burst: u32,
        /// Window length between burst starts in nanoseconds.
        period_ns: u64,
        /// Gap between requests inside a burst in nanoseconds.
        spacing_ns: u64,
    },
}

/// How a tenant decides its next request is ready.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IssueModel {
    /// Completion-driven with `outstanding` IOs in flight.
    Closed {
        /// Target outstanding IOs (min 1).
        outstanding: u32,
    },
    /// Arrival-driven per the contained process.
    Open(ArrivalModel),
}

impl IssueModel {
    /// Short human-readable echo for manifests (`closed(8)`,
    /// `poisson(100000ns)`, `trace(x2)`, `fixed(50000ns)`).
    pub fn describe(&self) -> String {
        match self {
            IssueModel::Closed { outstanding } => format!("closed({outstanding})"),
            IssueModel::Open(ArrivalModel::TraceTimed { speedup }) => format!("trace(x{speedup})"),
            IssueModel::Open(ArrivalModel::Poisson { mean_iat_ns }) => {
                format!("poisson({mean_iat_ns}ns)")
            }
            IssueModel::Open(ArrivalModel::FixedInterval { interval_ns }) => {
                format!("fixed({interval_ns}ns)")
            }
            IssueModel::Open(ArrivalModel::Burst {
                burst,
                period_ns,
                spacing_ns,
            }) => {
                format!("burst({burst}x{spacing_ns}ns/{period_ns}ns)")
            }
        }
    }
}

/// One tenant's request source: a workload shard plus the issue model
/// that schedules it.
#[derive(Debug)]
pub struct Initiator {
    records: Vec<IoRecord>,
    pos: usize,
    model: IssueModel,
    /// Open loop: the next record's scheduled arrival.
    next_at_ns: Nanos,
    clock: ArrivalClock,
    rng: SmallRng,
    /// Closed loop: times at which an outstanding slot frees up.
    free_at: BinaryHeap<Reverse<Nanos>>,
}

impl Initiator {
    /// Build an initiator over `trace` (consumed; order preserved).
    /// `seed` feeds the Poisson sampler — pass the run seed mixed with the
    /// tenant index so tenants draw independent streams.
    pub fn new(trace: Trace, model: IssueModel, seed: u64) -> Self {
        let clock = match model {
            IssueModel::Open(ArrivalModel::TraceTimed { speedup }) => {
                ArrivalClock::for_trace(&trace, speedup)
            }
            _ => ArrivalClock::new(0, 1.0),
        };
        let mut init = Initiator {
            records: trace.records,
            pos: 0,
            model,
            next_at_ns: 0,
            clock,
            rng: SmallRng::seed_from_u64(seed),
            free_at: BinaryHeap::new(),
        };
        match model {
            IssueModel::Closed { outstanding } => {
                for _ in 0..outstanding.max(1) {
                    init.free_at.push(Reverse(0));
                }
            }
            IssueModel::Open(_) => init.next_at_ns = init.schedule(0),
        }
        init
    }

    /// The scheduled arrival of record `pos` given the previous arrival.
    fn schedule(&mut self, prev_ns: Nanos) -> Nanos {
        match self.model {
            IssueModel::Closed { .. } => unreachable!("closed loop uses free_at"),
            IssueModel::Open(ArrivalModel::TraceTimed { .. }) => self
                .records
                .get(self.pos)
                .map_or(prev_ns, |r| self.clock.issue_ns(r.at_ns)),
            IssueModel::Open(ArrivalModel::Poisson { mean_iat_ns }) => {
                let u: f64 = self.rng.random();
                let gap = (-(1.0 - u).ln() * mean_iat_ns as f64) as u64;
                if self.pos == 0 {
                    0
                } else {
                    prev_ns.saturating_add(gap)
                }
            }
            IssueModel::Open(ArrivalModel::FixedInterval { interval_ns }) => {
                if self.pos == 0 {
                    0
                } else {
                    prev_ns.saturating_add(interval_ns)
                }
            }
            IssueModel::Open(ArrivalModel::Burst {
                burst,
                period_ns,
                spacing_ns,
            }) => {
                // Index-based: record i lands at window i/burst, slot
                // i%burst. Clamped monotone so a degenerate configuration
                // (spacing × burst > period) still yields ordered arrivals.
                let burst = u64::from(burst.max(1));
                let i = self.pos as u64;
                let at = (i / burst)
                    .saturating_mul(period_ns)
                    .saturating_add((i % burst).saturating_mul(spacing_ns));
                at.max(prev_ns)
            }
        }
    }

    /// The issue model this initiator runs.
    #[inline]
    pub fn model(&self) -> IssueModel {
        self.model
    }

    /// Records not yet taken.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.records.len() - self.pos
    }

    /// Whether every record has been taken.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.pos >= self.records.len()
    }

    /// When the next record becomes ready to post, or `None` if the
    /// workload is exhausted. For a closed loop this is the earliest free
    /// outstanding slot; for an open loop, the next scheduled arrival.
    pub fn next_arrival(&self) -> Option<Nanos> {
        if self.exhausted() {
            return None;
        }
        match self.model {
            IssueModel::Closed { .. } => self.free_at.peek().map(|Reverse(t)| *t),
            IssueModel::Open(_) => Some(self.next_at_ns),
        }
    }

    /// The record `k` places after the next one [`Initiator::take`]
    /// returns (`peek(0)` is that one), or `None` past the workload's end.
    #[inline]
    pub(crate) fn peek(&self, k: usize) -> Option<&IoRecord> {
        self.records.get(self.pos + k)
    }

    /// Take the next record, consuming an outstanding slot (closed loop)
    /// or advancing the arrival schedule (open loop). Returns the record
    /// with its arrival time. Panics if exhausted or (closed loop) no slot
    /// is free — callers gate on [`Initiator::next_arrival`].
    pub fn take(&mut self) -> (Nanos, IoRecord) {
        let rec = self.records[self.pos];
        self.pos += 1;
        let arrival = match self.model {
            IssueModel::Closed { .. } => {
                let Reverse(t) = self.free_at.pop().expect("closed loop slot available");
                t
            }
            IssueModel::Open(_) => {
                let t = self.next_at_ns;
                self.next_at_ns = self.schedule(t);
                t
            }
        };
        (arrival, rec)
    }

    /// A request of this tenant completed at `complete_ns` (closed loop:
    /// frees an outstanding slot; open loop: ignored).
    pub fn on_complete(&mut self, complete_ns: Nanos) {
        if matches!(self.model, IssueModel::Closed { .. }) {
            self.free_at.push(Reverse(complete_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_trace::IoOp;

    fn trace(times: &[u64]) -> Trace {
        Trace::new(
            "t",
            times
                .iter()
                .enumerate()
                .map(|(i, &at_ns)| IoRecord {
                    at_ns,
                    sector: i as u64 * 8,
                    sectors: 8,
                    op: IoOp::Write,
                })
                .collect(),
        )
    }

    #[test]
    fn closed_loop_paces_by_completions() {
        let mut init = Initiator::new(
            trace(&[0, 10, 20]),
            IssueModel::Closed { outstanding: 1 },
            1,
        );
        assert_eq!(init.next_arrival(), Some(0));
        let (a0, r0) = init.take();
        assert_eq!((a0, r0.sector), (0, 0));
        // No completion yet: the single slot is taken.
        assert_eq!(init.next_arrival(), None);
        init.on_complete(500);
        assert_eq!(init.next_arrival(), Some(500), "slot freed at completion");
        let (a1, _) = init.take();
        assert_eq!(a1, 500);
    }

    #[test]
    fn closed_loop_outstanding_two_overlaps() {
        let mut init = Initiator::new(trace(&[0, 0, 0]), IssueModel::Closed { outstanding: 2 }, 1);
        assert_eq!(init.take().0, 0);
        assert_eq!(init.take().0, 0, "two slots start immediately");
        assert_eq!(init.next_arrival(), None, "no free slot for the third");
        init.on_complete(300);
        assert_eq!(init.next_arrival(), Some(300));
    }

    #[test]
    fn trace_timed_follows_rescaled_timestamps() {
        let m = IssueModel::Open(ArrivalModel::TraceTimed { speedup: 2.0 });
        let mut init = Initiator::new(trace(&[1000, 1400, 2000]), m, 1);
        assert_eq!(init.take().0, 1000, "origin is the fixed point");
        assert_eq!(init.take().0, 1200);
        assert_eq!(init.take().0, 1500);
        assert!(init.exhausted());
        assert_eq!(init.next_arrival(), None);
    }

    #[test]
    fn fixed_interval_is_periodic_from_zero() {
        let m = IssueModel::Open(ArrivalModel::FixedInterval { interval_ns: 50 });
        let mut init = Initiator::new(trace(&[9, 9, 9]), m, 1);
        assert_eq!(init.take().0, 0);
        assert_eq!(init.take().0, 50);
        assert_eq!(init.take().0, 100);
    }

    #[test]
    fn burst_clusters_arrivals_per_window() {
        let m = IssueModel::Open(ArrivalModel::Burst {
            burst: 3,
            period_ns: 1000,
            spacing_ns: 10,
        });
        let mut init = Initiator::new(trace(&[0; 7]), m, 1);
        let arrivals: Vec<_> = (0..7).map(|_| init.take().0).collect();
        assert_eq!(arrivals, vec![0, 10, 20, 1000, 1010, 1020, 2000]);
        assert_eq!(m.describe(), "burst(3x10ns/1000ns)");
    }

    #[test]
    fn burst_stays_monotone_when_spacing_overflows_the_period() {
        let m = IssueModel::Open(ArrivalModel::Burst {
            burst: 4,
            period_ns: 100,
            spacing_ns: 60,
        });
        let mut init = Initiator::new(trace(&[0; 6]), m, 1);
        let arrivals: Vec<_> = (0..6).map(|_| init.take().0).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "{arrivals:?}");
    }

    #[test]
    fn poisson_is_deterministic_per_seed_and_monotone() {
        let m = IssueModel::Open(ArrivalModel::Poisson { mean_iat_ns: 1000 });
        let take_all = |seed: u64| {
            let mut init = Initiator::new(trace(&[0; 8]), m, seed);
            (0..8).map(|_| init.take().0).collect::<Vec<_>>()
        };
        let a = take_all(7);
        assert_eq!(a, take_all(7), "same seed, same arrivals");
        assert_ne!(a, take_all(8), "different seed, different stream");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
    }

    #[test]
    fn describe_names_the_models() {
        assert_eq!(
            IssueModel::Closed { outstanding: 8 }.describe(),
            "closed(8)"
        );
        assert_eq!(
            IssueModel::Open(ArrivalModel::Poisson { mean_iat_ns: 10 }).describe(),
            "poisson(10ns)"
        );
        assert_eq!(
            IssueModel::Open(ArrivalModel::TraceTimed { speedup: 2.0 }).describe(),
            "trace(x2)"
        );
    }
}
