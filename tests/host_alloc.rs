//! The host engine allocates nothing per command. `run_host` drives a
//! mock serial device through two tenants' closed loops, once with N
//! records per tenant and once with 2N, while a counting global allocator
//! watches the call: set-up (queues, initiators, the inflight heap and
//! slot table, the outcome) costs the same in both runs, so the two counts
//! are equal only if no command allocates.
//!
//! The allocator counts per thread, so tests running side by side do not
//! see each other's allocations. Run the test unoptimised (`cargo test`):
//! an optimised build may elide a short-lived allocation the code still
//! makes, and then pass for the wrong reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aftl_flash::Nanos;
use aftl_host::{
    run_host, Arbitration, HostConfig, IssueModel, QueuedDevice, Served, TenantConfig,
};
use aftl_trace::{IoOp, IoRecord, Trace};

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

/// One command at a time, each taking `service_ns`; every fifth write is
/// refused, as a read-only device would.
struct SerialDevice {
    busy_until: Nanos,
    served: u64,
}

impl QueuedDevice for SerialDevice {
    fn submit(&mut self, now_ns: Nanos, record: &IoRecord) -> Served {
        self.served += 1;
        if record.op == IoOp::Write && self.served.is_multiple_of(5) {
            return Served::Rejected;
        }
        self.busy_until = self.busy_until.max(now_ns) + 700;
        Served::Done {
            complete_ns: self.busy_until,
        }
    }
}

/// Two tenants of `n` records each.
fn tenants(n: u64) -> Vec<TenantConfig> {
    (0..2)
        .map(|t| TenantConfig {
            name: format!("t{t}"),
            trace: Trace::new(
                "alloc",
                (0..n)
                    .map(|i| IoRecord {
                        at_ns: i * 100,
                        sector: i * 8,
                        sectors: 8,
                        op: if i % 3 == 0 { IoOp::Read } else { IoOp::Write },
                    })
                    .collect(),
            ),
            issue: IssueModel::Closed { outstanding: 4 },
            queue_depth: 4,
            weight: 2 - t,
        })
        .collect()
}

/// Heap allocations one `run_host` call makes over `n` records per tenant,
/// and the commands its device saw.
fn run_allocs(n: u64) -> (u64, u64) {
    let cfg = HostConfig {
        arbitration: Arbitration::WeightedRoundRobin,
        device_inflight: 6,
        seed: 9,
    };
    let mut device = SerialDevice {
        busy_until: 0,
        served: 0,
    };
    let tenants = tenants(n);
    let mut completed = 0u64;
    let before = allocs();
    let outcome = run_host(&mut device, tenants, &cfg, |_| completed += 1);
    let window = allocs() - before;
    assert_eq!(completed, 2 * n);
    assert!(outcome.tenants.iter().all(|t| t.rejected > 0));
    (window, device.served)
}

#[test]
fn run_host_allocates_nothing_per_command() {
    let (once, served) = run_allocs(500);
    let (twice, served_twice) = run_allocs(1_000);
    assert_eq!((served, served_twice), (1_000, 2_000));
    assert_eq!(
        once, twice,
        "run_host allocated {once} times over {served} commands and {twice} over {served_twice}"
    );
}
