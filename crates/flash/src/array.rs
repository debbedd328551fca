//! The flash array: owns every block, enforces NAND protocol rules,
//! advances per-chip / per-channel timelines, and keeps the statistics the
//! evaluation harness reports.

use crate::allocator::{Allocator, StreamId};
use crate::block::{BlockAddr, BlockMeta, BlockSummary};
use crate::error::FlashError;
use crate::faults::{FaultConfig, FaultInjector};
use crate::geometry::{Geometry, PageAddr, Ppn};
use crate::oob::{OobDesc, OobExtra, OobStore};
use crate::page::{
    narrow_tag, PageInfo, PageKind, PageStamps, PageState, PageStore, SectorStamp, LOST_VERSION,
};
use crate::stats::FlashStats;
use crate::timing::TimingSpec;
use crate::victims::VictimIndex;
use crate::{Nanos, Result};

/// Start/completion pair returned by every timed flash operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// When the operation actually began (after queueing on its chip).
    pub start_ns: Nanos,
    /// When the operation's data became available / durable.
    pub complete_ns: Nanos,
}

impl OpOutcome {
    /// Service latency including queueing, measured from `issued_ns`.
    #[inline]
    pub fn latency_from(&self, issued_ns: Nanos) -> Nanos {
        self.complete_ns.saturating_sub(issued_ns)
    }
}

/// Outcome of [`FlashArray::read_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageRead {
    /// The read succeeded, possibly after retries.
    Ok(OpOutcome),
    /// Every attempt failed; the page's data is unrecoverable.
    Lost {
        /// When the final failed attempt released the chip.
        complete_ns: Nanos,
    },
}

impl PageRead {
    /// When the (successful or abandoned) read finished.
    #[inline]
    pub fn complete_ns(&self) -> Nanos {
        match self {
            PageRead::Ok(out) => out.complete_ns,
            PageRead::Lost { complete_ns } => *complete_ns,
        }
    }

    /// Whether the page's data was lost.
    #[inline]
    pub fn is_lost(&self) -> bool {
        matches!(self, PageRead::Lost { .. })
    }
}

/// What [`FlashArray::relocate`] did with a GC source page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relocation {
    /// The source was no longer valid — superseded since GC captured its
    /// victim's pages — so nothing was issued.
    Skipped,
    /// The source now lives at `to` and is invalid where it was. `lost`
    /// when its read exhausted the retry ladder: the copy carries
    /// [`LOST_VERSION`] stamps.
    Moved {
        /// The copy's page.
        to: Ppn,
        /// Whether the source's data was lost.
        lost: bool,
    },
}

/// Where a read of one page lands, resolved once however many attempts
/// the retry ladder makes.
struct ReadSite {
    kind: PageKind,
    chip: usize,
    channel: usize,
    xfer_ns: Nanos,
}

/// Flash operation class of a logged [`FlashOpRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashOp {
    /// Page read.
    Read,
    /// Page program.
    Program,
    /// Block erase.
    Erase,
}

/// One completed flash operation, captured by the optional op log (see
/// [`FlashArray::enable_op_log`]). The simulator's observability layer
/// drains these per request to classify and histogram operation latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashOpRecord {
    /// Operation class.
    pub op: FlashOp,
    /// Page kind of the touched page. Erases are block-level; their record
    /// carries [`PageKind::Data`] and classifiers must key on `op` first.
    pub kind: PageKind,
    /// Service latency from issue to completion, chip queueing included.
    pub latency_ns: Nanos,
    /// Completion timestamp.
    pub complete_ns: Nanos,
    /// Whether the operation failed (fault injection). Failed operations
    /// still occupy the chip for their full duration.
    pub failed: bool,
}

/// Precomputed address arithmetic. PPN decomposition sits on the hot path
/// of every read/program/invalidate; the generic [`Geometry`] math costs a
/// chain of runtime `u64` divisions per call, so the array caches
/// power-of-two shifts (all practical geometries qualify) and per-plane
/// chip/channel lookup tables at construction.
#[derive(Debug, Clone)]
struct AddrLut {
    /// Total pages, so the bounds check needs no multiplication chain.
    total_pages: u64,
    /// `log2(pages_per_block)` when it is a power of two.
    page_shift: Option<u32>,
    /// `log2(blocks_per_plane)` when it is a power of two.
    block_shift: Option<u32>,
    /// Chip timeline index per plane index.
    chip_of_plane: Vec<u32>,
    /// Channel index per plane index.
    channel_of_plane: Vec<u32>,
}

impl AddrLut {
    fn new(g: &Geometry) -> Self {
        let shift = |n: u32| n.is_power_of_two().then(|| n.trailing_zeros());
        let planes = g.total_planes();
        let mut chip_of_plane = Vec::with_capacity(planes as usize);
        let mut channel_of_plane = Vec::with_capacity(planes as usize);
        for plane_idx in 0..planes {
            let (channel, chip, _, _) = g.plane_addr(plane_idx);
            chip_of_plane.push(channel * g.chips_per_channel + chip);
            channel_of_plane.push(channel);
        }
        AddrLut {
            total_pages: g.total_pages(),
            page_shift: shift(g.pages_per_block),
            block_shift: shift(g.blocks_per_plane),
            chip_of_plane,
            channel_of_plane,
        }
    }
}

/// One physical page's tracked content: a stamp per sector, present only
/// for pages that have been programmed since tracking was enabled.
type PageContent = Option<PageStamps>;

/// Armed-crash state: the remaining flash-op budget, the power latch, and
/// the OOB journal store recovery scans after the cut.
#[derive(Debug, Clone)]
struct CrashState {
    /// Flash operations (read/program/erase) left before the power cut.
    ops_remaining: u64,
    /// Once true, every flash operation fails with
    /// [`FlashError::PowerCut`] until [`FlashArray::power_restore`].
    powered_off: bool,
    /// Per-page OOB journaling records (sequence stamps, write groups,
    /// kills, layout).
    oob: OobStore,
}

/// The NAND flash array (see crate docs for the FTL contract).
#[derive(Debug, Clone)]
pub struct FlashArray {
    geometry: Geometry,
    timing: TimingSpec,
    /// Per-page state, indexed by PPN (see [`PageStore`]).
    pages: PageStore,
    /// Per-block bookkeeping, indexed by global block id
    /// (`ppn / pages_per_block`, the id [`VictimIndex`] uses).
    blocks: Vec<BlockMeta>,
    /// Free (fully erased, not retired) blocks per plane, used by
    /// allocation and GC triggering.
    free_in_plane: Vec<u32>,
    /// Sum of `free_in_plane`.
    free_blocks: u64,
    chip_busy: Vec<Nanos>,
    channel_busy: Vec<Nanos>,
    stats: FlashStats,
    /// Optional per-page content tracking for the correctness oracle: a
    /// flat arena indexed by PPN (dense — one slot per physical page — so
    /// the oracle's per-op bookkeeping is an array index, not a hash).
    content: Option<Vec<PageContent>>,
    /// GC victim candidates, maintained incrementally on every program /
    /// invalidate / erase / retire event (see [`crate::victims`]).
    victims: VictimIndex,
    /// Precomputed PPN-decomposition tables (see [`AddrLut`]).
    lut: AddrLut,
    /// Optional per-operation log for the observability layer. `None` keeps
    /// the hot path to a single branch per operation.
    op_log: Option<Vec<FlashOpRecord>>,
    /// Seeded fault decision stream; a single-branch no-op when the fault
    /// config is disabled (the default).
    injector: FaultInjector,
    /// Erase-endurance budget per block (`u64::MAX` = unlimited).
    erase_endurance: u64,
    /// Read-retry ladder depth the FTL's recovery helpers use.
    read_retries: u32,
    /// Device-wide monotonic program sequence counter (next stamp to hand
    /// out; stamps start at 1 so `seq == 0` means "never programmed").
    /// Counted whether or not a crash is armed; only the armed journal
    /// keeps the stamps.
    next_seq: u64,
    /// Armed sudden-power-off state; `None` keeps every operation's fast
    /// path to a single branch.
    crash: Option<CrashState>,
}

impl FlashArray {
    /// Build an array for `geometry` with all pages erased.
    pub fn new(geometry: Geometry, timing: TimingSpec) -> Result<Self> {
        geometry.validate()?;
        Ok(FlashArray {
            geometry,
            timing,
            pages: PageStore::new(geometry.total_pages()),
            blocks: vec![BlockMeta::default(); geometry.total_blocks() as usize],
            free_in_plane: vec![geometry.blocks_per_plane; geometry.total_planes() as usize],
            free_blocks: geometry.total_blocks(),
            chip_busy: vec![0; geometry.total_chips() as usize],
            channel_busy: vec![0; geometry.channels as usize],
            stats: FlashStats::default(),
            content: None,
            victims: VictimIndex::new(
                geometry.total_blocks(),
                geometry.blocks_per_plane,
                geometry.pages_per_block,
            ),
            lut: AddrLut::new(&geometry),
            op_log: None,
            injector: FaultInjector::new(&FaultConfig::disabled()),
            erase_endurance: u64::MAX,
            read_retries: FaultConfig::disabled().read_retries,
            next_seq: 1,
            crash: None,
        })
    }

    // ---- sudden power-off injection ---------------------------------------

    /// Arm a deterministic power cut: after `crash_at` more flash
    /// operations (reads, programs and erases, in issue order — DRAM-only
    /// invalidations don't count) every operation fails with
    /// [`FlashError::PowerCut`] until [`Self::power_restore`]. Arming also
    /// turns on OOB journaling (sequence stamps, write groups, kill
    /// records, layout descriptors) so recovery has something to scan.
    ///
    /// # Panics
    ///
    /// If the array has already programmed a page: the journal must cover
    /// every programmed page, so a crash is armed before the first write.
    pub fn arm_crash(&mut self, crash_at: u64) {
        assert_eq!(
            self.next_seq,
            1,
            "arm_crash: {} page(s) already programmed; arm before the first write",
            self.next_seq - 1
        );
        self.crash = Some(CrashState {
            ops_remaining: crash_at,
            powered_off: false,
            oob: OobStore::new(self.geometry.total_pages()),
        });
    }

    /// Whether a power cut has been armed (OOB journaling on).
    #[inline]
    pub fn crash_armed(&self) -> bool {
        self.crash.is_some()
    }

    /// Whether the armed power cut has fired and power is still off.
    #[inline]
    pub fn powered_off(&self) -> bool {
        self.crash.as_ref().is_some_and(|c| c.powered_off)
    }

    /// Restore power after the cut fired: operations work again and no
    /// further cut is scheduled. The OOB journal survives (it is
    /// flash-resident) and keeps recording, so post-recovery operation
    /// stays crash-consistent.
    pub fn power_restore(&mut self) {
        if let Some(c) = &mut self.crash {
            c.powered_off = false;
            c.ops_remaining = u64::MAX;
        }
    }

    /// Count one flash operation against the armed budget; fail once the
    /// cut fires. A single `None` branch when no crash is armed.
    #[inline]
    fn power_check(&mut self) -> Result<()> {
        if let Some(c) = &mut self.crash {
            if c.powered_off {
                return Err(FlashError::PowerCut);
            }
            if c.ops_remaining == 0 {
                c.powered_off = true;
                return Err(FlashError::PowerCut);
            }
            c.ops_remaining -= 1;
        }
        Ok(())
    }

    // ---- OOB journaling (crash-armed only) --------------------------------

    /// Open an OOB write group covering one atomic host write (see
    /// [`crate::oob`]). No-op returning 0 when no crash is armed.
    pub fn oob_begin_group(&mut self) -> u64 {
        self.crash.as_mut().map_or(0, |c| c.oob.begin_group())
    }

    /// Seal the open OOB write group (commit mark on its last page).
    /// No-op when no crash is armed.
    pub fn oob_seal_group(&mut self) {
        if let Some(c) = &mut self.crash {
            c.oob.seal_group();
        }
    }

    /// Record that the open group deliberately retires area `tag`, whose
    /// page carried program sequence `seq` at kill time. No-op when no
    /// crash is armed.
    pub fn oob_group_kill(&mut self, tag: u64, seq: u64) {
        if let Some(c) = &mut self.crash {
            c.oob.group_kill(tag, seq);
        }
    }

    /// Attach a layout descriptor to a just-programmed page's OOB record.
    /// No-op when no crash is armed.
    pub fn annotate_oob(&mut self, ppn: Ppn, desc: OobDesc) {
        if let Some(c) = &mut self.crash {
            c.oob.annotate(ppn, desc);
        }
    }

    /// A page's OOB journaling record, when a crash is armed.
    pub fn oob_of(&self, ppn: Ppn) -> Option<&OobExtra> {
        self.crash.as_ref().map(|c| c.oob.of(ppn))
    }

    /// The persistent committed-kill log (see
    /// [`crate::oob::OobStore::kill_log`]); empty when no crash is armed.
    pub fn oob_kill_log(&self) -> &[crate::oob::KillRecord] {
        self.crash.as_ref().map_or(&[], |c| c.oob.kill_log())
    }

    /// Install a fault configuration (injected failures + erase-endurance
    /// budget). Call before issuing operations; re-configuring resets the
    /// injector's decision stream to the config's seed.
    pub fn configure_faults(&mut self, cfg: &FaultConfig) {
        self.injector = FaultInjector::new(cfg);
        self.erase_endurance = cfg.erase_endurance;
        self.read_retries = cfg.read_retries;
    }

    /// Read-retry ladder depth from the installed fault config (how many
    /// times recovery re-issues a failed read before declaring loss).
    #[inline]
    pub fn read_retries(&self) -> u32 {
        self.read_retries
    }

    /// Enable sector-stamp content tracking (test/oracle use; costs one
    /// 16-byte slot — a fat `Option<Box<[_]>>` — per physical page plus the
    /// live stamp boxes).
    pub fn enable_content_tracking(&mut self) {
        if self.content.is_none() {
            self.content = Some(vec![None; self.geometry.total_pages() as usize]);
        }
    }

    /// Enable the per-operation log. Callers must drain it regularly via
    /// [`Self::drain_ops`] or it grows without bound.
    pub fn enable_op_log(&mut self) {
        if self.op_log.is_none() {
            self.op_log = Some(Vec::new());
        }
    }

    /// Whether the per-operation log is on.
    #[inline]
    pub fn op_log_enabled(&self) -> bool {
        self.op_log.is_some()
    }

    /// Switch the per-operation log off, dropping anything still logged
    /// (aging runs unobserved).
    pub fn disable_op_log(&mut self) {
        self.op_log = None;
    }

    /// Drain the logged operations in place, in issue order, keeping the
    /// log's allocation for reuse. Empty when the log is disabled.
    pub fn drain_ops(&mut self) -> impl Iterator<Item = FlashOpRecord> + '_ {
        self.op_log.iter_mut().flat_map(|log| log.drain(..))
    }

    #[inline]
    fn log_op(&mut self, op: FlashOp, kind: PageKind, issued_ns: Nanos, out: OpOutcome) {
        self.log_op_outcome(op, kind, issued_ns, out, false)
    }

    #[inline]
    fn log_op_outcome(
        &mut self,
        op: FlashOp,
        kind: PageKind,
        issued_ns: Nanos,
        out: OpOutcome,
        failed: bool,
    ) {
        if let Some(log) = &mut self.op_log {
            log.push(FlashOpRecord {
                op,
                kind,
                latency_ns: out.latency_from(issued_ns),
                complete_ns: out.complete_ns,
                failed,
            });
        }
    }

    /// The array dimensions this device was built with.
    #[inline]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The NAND operation latencies in effect.
    #[inline]
    pub fn timing(&self) -> &TimingSpec {
        &self.timing
    }

    /// Cumulative operation counts and busy-time accounting.
    #[inline]
    pub fn stats(&self) -> &FlashStats {
        &self.stats
    }

    /// Zero all operation counters (start of a measured window).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Zero the chip/channel timelines (after warm-up, so aging traffic
    /// does not queue ahead of the measured trace).
    pub fn reset_timelines(&mut self) {
        self.chip_busy.fill(0);
        self.channel_busy.fill(0);
    }

    /// Current per-chip and per-channel busy-until timestamps (diagnostics).
    pub fn timelines(&self) -> (&[Nanos], &[Nanos]) {
        (&self.chip_busy, &self.channel_busy)
    }

    // ---- address helpers -------------------------------------------------

    /// Block containing `ppn`.
    pub fn block_addr_of(&self, ppn: Ppn) -> BlockAddr {
        let (gid, _) = self.split(ppn).expect("block_addr_of: ppn out of range");
        self.addr_of(gid)
    }

    /// First PPN of a block (its pages are contiguous in PPN space).
    pub fn first_ppn_of(&self, block: BlockAddr) -> Ppn {
        Ppn(self.gid_of(block) as u64 * u64::from(self.geometry.pages_per_block))
    }

    /// PPN of page `page` inside `block`.
    pub fn ppn_in_block(&self, block: BlockAddr, page: u32) -> Ppn {
        Ppn(self.first_ppn_of(block).0 + u64::from(page))
    }

    /// Global block id and in-block page index of `ppn`.
    #[inline]
    fn split(&self, ppn: Ppn) -> Result<(usize, u32)> {
        if ppn.0 >= self.lut.total_pages {
            return Err(FlashError::OutOfRange(ppn));
        }
        Ok(match self.lut.page_shift {
            Some(s) => ((ppn.0 >> s) as usize, (ppn.0 & ((1 << s) - 1)) as u32),
            None => (
                (ppn.0 / u64::from(self.geometry.pages_per_block)) as usize,
                (ppn.0 % u64::from(self.geometry.pages_per_block)) as u32,
            ),
        })
    }

    /// Plane of global block `gid`.
    #[inline]
    fn plane_of(&self, gid: usize) -> usize {
        match self.lut.block_shift {
            Some(s) => gid >> s,
            None => gid / self.geometry.blocks_per_plane as usize,
        }
    }

    #[inline]
    fn addr_of(&self, gid: usize) -> BlockAddr {
        let plane = self.plane_of(gid);
        BlockAddr {
            plane_idx: plane as u64,
            block: (gid - plane * self.geometry.blocks_per_plane as usize) as u32,
        }
    }

    /// Global id of the block at `addr` (index into `blocks`).
    #[inline]
    fn gid_of(&self, addr: BlockAddr) -> usize {
        debug_assert!(addr.block < self.geometry.blocks_per_plane);
        (addr.plane_idx * u64::from(self.geometry.blocks_per_plane) + u64::from(addr.block))
            as usize
    }

    fn summary_of(&self, gid: usize) -> BlockSummary {
        let b = &self.blocks[gid];
        BlockSummary {
            addr: self.addr_of(gid),
            first_ppn: Ppn(gid as u64 * u64::from(self.geometry.pages_per_block)),
            valid: b.valid_count,
            invalid: b.invalid_count,
            erases: b.erase_count,
            full: b.is_full(self.geometry.pages_per_block),
            retired: b.retired,
        }
    }

    /// Inspect a page's state/OOB. `seq` is the journal's stamp while a
    /// crash is armed and 0 otherwise.
    pub fn page_info(&self, ppn: Ppn) -> Result<PageInfo> {
        self.split(ppn)?;
        Ok(self.info_at(ppn))
    }

    /// Hint the CPU to fetch what reading, invalidating or rewriting
    /// `ppn` first touches: its meta byte and its block's record. Reads
    /// nothing back and does nothing for an invalid or out-of-range PPN.
    #[inline]
    pub fn prefetch_page(&self, ppn: Ppn) {
        if let Ok((gid, _)) = self.split(ppn) {
            self.pages.prefetch(ppn.0 as usize);
            crate::prefetch(&self.blocks[gid]);
        }
    }

    /// A page's lifecycle state alone (one byte read, no tag or stamp).
    #[inline]
    pub fn page_state(&self, ppn: Ppn) -> Result<PageState> {
        self.split(ppn)?;
        Ok(self.pages.state(ppn.0 as usize))
    }

    /// The record of in-range page `ppn`, its stamp from the journal.
    #[inline]
    fn info_at(&self, ppn: Ppn) -> PageInfo {
        let seq = self.crash.as_ref().map_or(0, |c| c.oob.seq_of(ppn));
        self.pages.info(ppn.0 as usize, seq)
    }

    /// The structured address of a PPN.
    pub fn page_addr(&self, ppn: Ppn) -> PageAddr {
        self.geometry.page_addr(ppn)
    }

    // ---- free-space accounting -------------------------------------------

    /// Free (fully erased) blocks in one plane.
    pub fn free_blocks_in_plane(&self, plane_idx: u64) -> u32 {
        self.free_in_plane[plane_idx as usize]
    }

    /// Fraction of blocks that are fully erased, across the device.
    pub fn free_block_fraction(&self) -> f64 {
        self.free_blocks as f64 / self.geometry.total_blocks() as f64
    }

    /// Fraction of pages currently valid.
    pub fn valid_page_fraction(&self) -> f64 {
        let valid: u64 = self.blocks.iter().map(|b| u64::from(b.valid_count)).sum();
        valid as f64 / self.geometry.total_pages() as f64
    }

    /// Summaries of every block in a plane (GC victim scan).
    pub fn block_summaries(&self, plane_idx: u64) -> impl Iterator<Item = BlockSummary> + '_ {
        let bpp = self.geometry.blocks_per_plane as usize;
        let first = plane_idx as usize * bpp;
        (first..first + bpp).map(|gid| self.summary_of(gid))
    }

    /// Summary of one block.
    pub fn block_summary(&self, addr: BlockAddr) -> BlockSummary {
        self.summary_of(self.gid_of(addr))
    }

    /// Next programmable page of a block, if any (`None` for retired
    /// blocks).
    pub fn next_free_page(&self, addr: BlockAddr) -> Option<u32> {
        self.blocks[self.gid_of(addr)].next_free_page(self.geometry.pages_per_block)
    }

    // ---- bad-block management ---------------------------------------------

    /// Whether a block has been retired by the bad-block manager.
    pub fn is_retired(&self, addr: BlockAddr) -> bool {
        self.blocks[self.gid_of(addr)].retired
    }

    /// Retire a block: it stops accepting programs and never rejoins the
    /// free pool. Idempotent; adjusts the plane's free-block count when a
    /// still-erased block is retired.
    pub fn retire_block(&mut self, addr: BlockAddr) {
        self.retire_at(self.gid_of(addr))
    }

    fn retire_at(&mut self, gid: usize) {
        let blk = &mut self.blocks[gid];
        if blk.retired {
            return;
        }
        blk.retired = true;
        if blk.is_free() {
            self.note_free_block(gid, false);
        }
        // A retired block can never be erased, so it stops being a victim.
        self.victims.remove(self.addr_of(gid));
        self.stats.retired_blocks += 1;
    }

    /// Count block `gid` into (`joined`) or out of its plane's free pool
    /// and the device-wide total.
    #[inline]
    fn note_free_block(&mut self, gid: usize, joined: bool) {
        let plane = self.plane_of(gid);
        if joined {
            self.free_in_plane[plane] += 1;
            self.free_blocks += 1;
        } else {
            self.free_in_plane[plane] -= 1;
            self.free_blocks -= 1;
        }
    }

    /// Fill `out` with a block's valid pages and their OOB info, reusing
    /// the caller's buffer (GC calls this once per victim; a reused scratch
    /// vector keeps the episode allocation-free).
    pub fn valid_pages_into(&self, addr: BlockAddr, out: &mut Vec<(Ppn, PageInfo)>) {
        out.clear();
        let gid = self.gid_of(addr);
        let first = gid as u64 * u64::from(self.geometry.pages_per_block);
        let programmed = u64::from(self.blocks[gid].write_ptr);
        for p in first..first + programmed {
            if self.pages.state(p as usize) == PageState::Valid {
                out.push((Ppn(p), self.info_at(Ppn(p))));
            }
        }
    }

    /// Capture victim `addr`'s valid pages into `out` (as
    /// [`Self::valid_pages_into`]) and hold it out of the victim index
    /// until it is erased or retired (see [`crate::victims`]).
    pub fn hold_victim(&mut self, addr: BlockAddr, out: &mut Vec<(Ppn, PageInfo)>) {
        self.valid_pages_into(addr, out);
        self.victims.hold(addr);
    }

    /// Give a held victim back to the index at its entry stamp, with the
    /// invalid pages it has now (GC dropped its episode mid-victim). No-op
    /// when `addr` is not held.
    pub fn release_victim(&mut self, addr: BlockAddr) {
        let invalid = self.blocks[self.gid_of(addr)].invalid_count;
        self.victims.release(addr, invalid);
    }

    /// Per-block erase counts (wear histogram input).
    pub fn erase_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.iter().map(|b| b.erase_count)
    }

    // ---- timed operations -------------------------------------------------

    /// Timing core shared by reads and programs.
    ///
    /// The chip is the contended resource, served FIFO in *arrival* order:
    /// its timeline advances by exactly `dur_ns` from `max(busy, arrive)`,
    /// so utilization is work-conserving — idle gaps are never consumed by
    /// reservations made "in the future". Data dependencies within a
    /// request (`ready_ns`, e.g. a program waiting on a read-modify-write
    /// read) delay the *request-visible* start/completion, not the chip's
    /// accounting; that is the standard approximation a non-event-driven
    /// simulator makes, and it errs by at most one chain depth (~ms).
    /// Channel transfers are charged as latency and tracked as utilization
    /// only — at 20 µs per 8 KB against 2 ms programs the bus stays below
    /// ~3 % busy, so cross-chip bus blocking is second-order (see
    /// DESIGN.md).
    fn schedule(
        &mut self,
        chip: usize,
        channel: usize,
        arrive_ns: Nanos,
        ready_ns: Nanos,
        dur_ns: Nanos,
        xfer_ns: Nanos,
    ) -> OpOutcome {
        let q_start = arrive_ns.max(self.chip_busy[chip]);
        self.chip_busy[chip] = q_start + dur_ns + xfer_ns;
        self.stats.chip_busy_ns += dur_ns + xfer_ns;
        self.stats.channel_busy_ns += xfer_ns;
        let start = q_start.max(ready_ns);
        let complete = start + dur_ns + xfer_ns;
        self.channel_busy[channel] = self.channel_busy[channel].max(complete);
        OpOutcome {
            start_ns: start,
            complete_ns: complete,
        }
    }

    /// Read `bytes` of a valid page, one attempt. `arrive_ns` is the owning
    /// request's arrival (queue position); `ready_ns` is when the op's
    /// inputs are available (mapping lookups, prior chained ops).
    pub fn read(
        &mut self,
        ppn: Ppn,
        bytes: u32,
        arrive_ns: Nanos,
        ready_ns: Nanos,
    ) -> Result<OpOutcome> {
        self.power_check()?;
        let site = self.valid_read_site(ppn, bytes)?;
        self.read_attempt(&site, arrive_ns, ready_ns)
            .ok_or(FlashError::ReadFailed(ppn))
    }

    /// Read `bytes` of a valid page through the retry ladder: one attempt
    /// plus up to [`Self::read_retries`] retries. Each failed attempt has
    /// already occupied the chip, so a retry queues behind it on the chip
    /// timeline — the per-retry timing penalty arises from the model
    /// rather than a bolted-on constant. When the ladder is exhausted the
    /// page is declared [`PageRead::Lost`]. Protocol errors (out of range,
    /// unwritten page, …) pass through unretried.
    pub fn read_with_retry(
        &mut self,
        ppn: Ppn,
        bytes: u32,
        arrive_ns: Nanos,
        ready_ns: Nanos,
    ) -> Result<PageRead> {
        self.power_check()?;
        let site = self.valid_read_site(ppn, bytes)?;
        self.read_ladder(&site, arrive_ns, ready_ns)
    }

    /// Read back the old copy of data about to be rewritten elsewhere
    /// (RMW, area merge or rollback, a repacking GC's lift): `bytes` of
    /// `ppn` through the retry ladder, as [`Self::read_with_retry`], plus —
    /// with content tracking on — the stamps the rewrite carries over,
    /// [`LOST_VERSION`] ones if the read was lost. The caller counts a lost
    /// read into its own counter.
    #[inline]
    pub fn read_old_copy(
        &mut self,
        ppn: Ppn,
        bytes: u32,
        arrive_ns: Nanos,
        ready_ns: Nanos,
    ) -> Result<(PageRead, Option<PageStamps>)> {
        self.power_check()?;
        let site = self.valid_read_site(ppn, bytes)?;
        self.read_carrying(ppn, &site, arrive_ns, ready_ns)
    }

    /// The one old-copy read, shared by [`Self::read_old_copy`] and
    /// [`Self::relocate`]: the ladder at `ppn`'s `site` (whose first power
    /// check the caller has made) and the stamps a rewrite carries over.
    #[inline]
    fn read_carrying(
        &mut self,
        ppn: Ppn,
        site: &ReadSite,
        arrive_ns: Nanos,
        ready_ns: Nanos,
    ) -> Result<(PageRead, Option<PageStamps>)> {
        let read = self.read_ladder(site, arrive_ns, ready_ns)?;
        let stamps = self.carried_content(ppn, read.is_lost());
        Ok((read, stamps))
    }

    /// The read site of `ppn` if it is valid, or why it cannot be read.
    #[inline]
    fn valid_read_site(&self, ppn: Ppn, bytes: u32) -> Result<ReadSite> {
        let (gid, _) = self.split(ppn)?;
        if self.pages.state(ppn.0 as usize) != PageState::Valid {
            return Err(FlashError::ReadUnwritten(ppn));
        }
        Ok(self.read_site(gid, self.pages.kind(ppn.0 as usize), bytes))
    }

    /// Chip, channel and transfer time of a `bytes` read of a `kind` page
    /// in block `gid`.
    #[inline]
    fn read_site(&self, gid: usize, kind: PageKind, bytes: u32) -> ReadSite {
        let plane = self.plane_of(gid);
        ReadSite {
            kind,
            chip: self.lut.chip_of_plane[plane] as usize,
            channel: self.lut.channel_of_plane[plane] as usize,
            xfer_ns: self.timing.transfer_ns(
                u64::from(bytes.min(self.geometry.page_bytes)),
                self.geometry.page_bytes,
            ),
        }
    }

    /// The retry ladder at `site`, whose first attempt's power check the
    /// caller has made (every later attempt makes its own, in issue
    /// order). Inlined, like [`Self::program_at`].
    #[inline(always)]
    fn read_ladder(
        &mut self,
        site: &ReadSite,
        arrive_ns: Nanos,
        ready_ns: Nanos,
    ) -> Result<PageRead> {
        for attempt in 0..=self.read_retries {
            if attempt > 0 {
                self.power_check()?;
            }
            if let Some(out) = self.read_attempt(site, arrive_ns, ready_ns) {
                return Ok(PageRead::Ok(out));
            }
        }
        // The chip timeline has absorbed every failed attempt; its
        // busy-until mark is when the last attempt completed.
        Ok(PageRead::Lost {
            complete_ns: self.chip_busy[site.chip].max(ready_ns),
        })
    }

    /// One read attempt at `site`: occupies the chip, then returns the
    /// outcome or — when the injector fails it — `None`.
    #[inline(always)]
    fn read_attempt(
        &mut self,
        site: &ReadSite,
        arrive_ns: Nanos,
        ready_ns: Nanos,
    ) -> Option<OpOutcome> {
        let out = self.schedule(
            site.chip,
            site.channel,
            arrive_ns,
            ready_ns,
            self.timing.read_ns,
            site.xfer_ns,
        );
        if self.injector.fail_read() {
            // The failed attempt occupied the chip for its full duration;
            // a retry re-queues behind it, which is exactly the retry
            // ladder's timing penalty.
            self.stats.read_faults += 1;
            self.log_op_outcome(FlashOp::Read, site.kind, arrive_ns, out, true);
            return None;
        }
        self.stats.reads.bump(site.kind);
        self.log_op(FlashOp::Read, site.kind, arrive_ns, out);
        Some(out)
    }

    /// Program the next free page of `ppn`'s block (NAND sequential rule),
    /// stamping the OOB with `kind`/`tag`. `bytes` drives the channel
    /// transfer cost (partial-page programs still program a whole page but
    /// move fewer bytes over the bus). See [`Self::read`] for the
    /// `arrive_ns`/`ready_ns` semantics.
    ///
    /// # Panics
    ///
    /// On a `tag` of `u32::MAX` or more: the OOB tag is 32 bits wide.
    pub fn program(
        &mut self,
        ppn: Ppn,
        kind: PageKind,
        tag: u64,
        bytes: u32,
        arrive_ns: Nanos,
        ready_ns: Nanos,
    ) -> Result<OpOutcome> {
        let tag = narrow_tag(tag);
        self.power_check()?;
        self.program_at(ppn, kind, tag, bytes, arrive_ns, ready_ns)
    }

    /// [`Self::program`] after its power check, inlined into
    /// [`Self::program_relocating`] as well: its `Result` then stays in
    /// registers instead of a round trip through memory on every page.
    #[inline(always)]
    fn program_at(
        &mut self,
        ppn: Ppn,
        kind: PageKind,
        tag: u32,
        bytes: u32,
        arrive_ns: Nanos,
        ready_ns: Nanos,
    ) -> Result<OpOutcome> {
        let (gid, page) = self.split(ppn)?;
        let ppb = self.geometry.pages_per_block;
        let blk = &mut self.blocks[gid];
        if blk.retired {
            return Err(FlashError::ProgramNonFree(ppn));
        }
        if self.pages.state(ppn.0 as usize) != PageState::Free {
            return Err(FlashError::ProgramNonFree(ppn));
        }
        if page != blk.write_ptr {
            return Err(FlashError::NonSequentialProgram {
                ppn,
                expected_page: blk.write_ptr,
            });
        }
        let was_free = blk.is_free();
        self.pages.program(ppn.0 as usize, kind, tag);
        if let Some(c) = &mut self.crash {
            c.oob.note_seq(ppn, self.next_seq);
        }
        self.next_seq += 1;
        blk.write_ptr += 1;
        blk.valid_count += 1;
        // A block enters the victim index the moment it closes with
        // reclaimable pages (invalidated while it was still filling).
        if blk.is_full(ppb) && blk.invalid_count > 0 {
            let invalid = blk.invalid_count;
            self.victims.upsert(self.addr_of(gid), invalid);
        }
        if was_free {
            self.note_free_block(gid, false);
        }

        let plane = self.plane_of(gid);
        let chip = self.lut.chip_of_plane[plane] as usize;
        let channel = self.lut.channel_of_plane[plane] as usize;
        let xfer = self.timing.transfer_ns(
            u64::from(bytes.min(self.geometry.page_bytes)),
            self.geometry.page_bytes,
        );
        let out = self.schedule(
            chip,
            channel,
            arrive_ns,
            ready_ns,
            self.timing.program_ns,
            xfer,
        );
        if self.injector.fail_program() {
            // The page is consumed by the failed attempt (write_ptr has
            // already advanced, keeping in-block sequencing consistent) and
            // the whole block is retired — NAND program failures are a
            // block-level symptom. The FTL re-programs elsewhere.
            self.pages.set_state(ppn.0 as usize, PageState::Invalid);
            let blk = &mut self.blocks[gid];
            blk.valid_count -= 1;
            blk.invalid_count += 1;
            self.retire_at(gid);
            self.stats.program_faults += 1;
            if let Some(c) = &mut self.crash {
                c.oob.note_program_failed(ppn);
            }
            self.log_op_outcome(FlashOp::Program, kind, arrive_ns, out, true);
            return Err(FlashError::ProgramFailed(ppn));
        }
        if let Some(c) = &mut self.crash {
            c.oob.note_program(ppn, kind);
        }
        self.stats.programs.bump(kind);
        self.log_op(FlashOp::Program, kind, arrive_ns, out);
        Ok(out)
    }

    /// Allocate and program a page for `stream` — in `plane` when given —
    /// relocating to a fresh block whenever the program fails (the failed
    /// program already retired its block and consumed the page, so the
    /// caller's mapping fix-up is simply "use the PPN this returns"). The
    /// loop always makes progress and ends, at worst with
    /// [`FlashError::NoFreeBlocks`] once every block is retired.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn program_relocating(
        &mut self,
        alloc: &mut Allocator,
        plane: Option<u64>,
        stream: StreamId,
        kind: PageKind,
        tag: u64,
        bytes: u32,
        arrive_ns: Nanos,
        ready_ns: Nanos,
    ) -> Result<(Ppn, OpOutcome)> {
        let tag = narrow_tag(tag);
        loop {
            let ppn = match plane {
                Some(plane) => alloc.alloc_page_in_plane(self, plane, stream)?,
                None => alloc.alloc_page(self, stream)?,
            };
            self.power_check()?;
            match self.program_at(ppn, kind, tag, bytes, arrive_ns, ready_ns) {
                Ok(out) => return Ok((ppn, out)),
                Err(FlashError::ProgramFailed(_)) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Erase a block. All its pages must already be invalid (or free).
    ///
    /// Fault paths: a block whose erase count has reached the endurance
    /// budget is retired and the call returns [`FlashError::WornOut`]; an
    /// injected erase failure retires the block (its pages stay in place,
    /// the chip is still occupied for the erase duration) and returns
    /// [`FlashError::EraseFailed`]. Either way the block does not rejoin
    /// the free pool — callers must not `release_block` it.
    pub fn erase(&mut self, addr: BlockAddr, at_ns: Nanos) -> Result<OpOutcome> {
        self.power_check()?;
        let first = self.first_ppn_of(addr);
        let chip = self.lut.chip_of_plane[addr.plane_idx as usize] as usize;
        let gid = self.gid_of(addr);
        let blk = &self.blocks[gid];
        let (valid, erases, was_free) = (blk.valid_count, blk.erase_count, blk.is_free());
        if blk.retired {
            return Err(FlashError::EraseFailed {
                block_first_ppn: first,
            });
        }
        if valid > 0 {
            return Err(FlashError::EraseWithValidPages {
                block_first_ppn: first,
                valid,
            });
        }
        if erases >= self.erase_endurance {
            // Worn out: the budget is device-resident knowledge, so the
            // cycle is not attempted and no timing is charged.
            self.stats.worn_out_blocks += 1;
            self.retire_at(gid);
            return Err(FlashError::WornOut {
                block_first_ppn: first,
                erases,
            });
        }
        if self.injector.fail_erase() {
            // A failed erase still occupies the chip; the block is retired
            // with its (all-invalid) pages in place.
            self.stats.erase_faults += 1;
            self.retire_at(gid);
            let start = at_ns.max(self.chip_busy[chip]);
            let complete = start + self.timing.erase_ns;
            self.stats.chip_busy_ns += complete - start;
            self.chip_busy[chip] = complete;
            let out = OpOutcome {
                start_ns: start,
                complete_ns: complete,
            };
            self.log_op_outcome(FlashOp::Erase, PageKind::Data, at_ns, out, true);
            return Err(FlashError::EraseFailed {
                block_first_ppn: first,
            });
        }
        let ppb = self.geometry.pages_per_block as usize;
        self.pages.erase(first.0 as usize, ppb);
        self.blocks[gid] = BlockMeta {
            erase_count: erases + 1,
            ..BlockMeta::default()
        };
        self.victims.remove(addr);
        if !was_free {
            self.note_free_block(gid, true);
        }
        if let Some(content) = &mut self.content {
            for p in 0..self.geometry.pages_per_block {
                content[(first.0 + u64::from(p)) as usize] = None;
            }
        }
        if let Some(c) = &mut self.crash {
            c.oob.clear_block(first, self.geometry.pages_per_block);
        }

        let start = at_ns.max(self.chip_busy[chip]);
        let complete = start + self.timing.erase_ns;
        self.stats.chip_busy_ns += complete - start;
        self.chip_busy[chip] = complete;
        self.stats.erases += 1;
        let out = OpOutcome {
            start_ns: start,
            complete_ns: complete,
        };
        self.log_op(FlashOp::Erase, PageKind::Data, at_ns, out);
        Ok(out)
    }

    /// Mark a page's data superseded. Metadata-only (free, instantaneous):
    /// in-DRAM bookkeeping, so it neither counts against an armed crash
    /// budget nor is blocked by a power cut.
    pub fn invalidate(&mut self, ppn: Ppn) -> Result<()> {
        let (gid, _) = self.split(ppn)?;
        if self.pages.state(ppn.0 as usize) != PageState::Valid {
            return Err(FlashError::InvalidateNonValid(ppn));
        }
        self.invalidate_at(gid, ppn);
        Ok(())
    }

    /// [`Self::invalidate`] of valid page `ppn` in block `gid`. A block GC
    /// holds takes the count without a victim-index move.
    #[inline]
    fn invalidate_at(&mut self, gid: usize, ppn: Ppn) {
        self.pages.set_state(ppn.0 as usize, PageState::Invalid);
        let blk = &mut self.blocks[gid];
        blk.valid_count -= 1;
        blk.invalid_count += 1;
        if blk.is_full(self.geometry.pages_per_block) && !blk.retired {
            let invalid = blk.invalid_count;
            self.victims.upsert(self.addr_of(gid), invalid);
        }
        // With a crash armed, an invalidated page's physical contents are
        // retained (only an erase destroys them): if the superseding copy
        // never commits before the cut, recovery resurrects this page and
        // the oracle must still find its stamps.
        if self.crash.is_none() {
            if let Some(content) = &mut self.content {
                content[ppn.0 as usize] = None;
            }
        }
    }

    /// GC's one-to-one page move, in one pass over the source: read `from`
    /// through the retry ladder, program a [`StreamId::Gc`] page with its
    /// `info` kind and tag (relocating on program failure), carry its
    /// content stamps over and invalidate it. `info` is what GC captured
    /// with the victim's pages, so the source's address is decomposed once
    /// and its kind never looked up again. A source no longer valid comes
    /// back [`Relocation::Skipped`] with nothing issued.
    ///
    /// Side effects land in the order of the separate calls it replaces
    /// ([`Self::read_old_copy`], whose read step it shares,
    /// [`Self::program_relocating`], [`Self::record_content`],
    /// [`Self::invalidate`]): injector draws, the crash op budget, stats,
    /// op-log records and the allocator cursor.
    #[inline]
    pub fn relocate(
        &mut self,
        alloc: &mut Allocator,
        from: Ppn,
        info: &PageInfo,
        now: Nanos,
    ) -> Result<Relocation> {
        let (gid, _) = self.split(from)?;
        if self.pages.state(from.0 as usize) != PageState::Valid {
            return Ok(Relocation::Skipped);
        }
        debug_assert_eq!(self.pages.kind(from.0 as usize), info.kind);
        let page_bytes = self.geometry.page_bytes;
        let site = self.read_site(gid, info.kind, page_bytes);
        self.power_check()?;
        let (read, stamps) = self.read_carrying(from, &site, now, now)?;
        // Striped across planes: the program (2 ms) dominates the move, and
        // pinning it to the victim's chip would serialise a whole block's
        // migration on one chip, stalling host I/O far beyond what
        // SSDsim's per-plane GC exhibits.
        let (to, _) = self.program_relocating(
            alloc,
            None,
            StreamId::Gc,
            info.kind,
            info.tag,
            page_bytes,
            now,
            read.complete_ns(),
        )?;
        if let Some(stamps) = stamps {
            self.record_content(to, stamps);
        }
        self.invalidate_at(gid, from);
        Ok(Relocation::Moved {
            to,
            lost: read.is_lost(),
        })
    }

    /// Count a GC-driven migration (callers still issue the read/program).
    pub fn note_gc_migration(&mut self) {
        self.stats.gc_migrations += 1;
    }

    /// Crash-recovery rebuild: after recovery has arbitrated which
    /// programmed page wins each logical slot, re-derive every page state
    /// from the `live` predicate, recompute the per-plane free-block counts
    /// and rebuild the GC victim index from scratch. Losing pages' tracked
    /// content is dropped (their data is superseded for good now).
    pub fn rebuild_page_states(&mut self, mut live: impl FnMut(Ppn) -> bool) {
        let ppb = self.geometry.pages_per_block;
        self.victims = VictimIndex::new(
            self.geometry.total_blocks(),
            self.geometry.blocks_per_plane,
            ppb,
        );
        self.free_in_plane.fill(0);
        self.free_blocks = 0;
        for gid in 0..self.blocks.len() {
            let first = gid as u64 * u64::from(ppb);
            let (mut valid, mut invalid) = (0u32, 0u32);
            // Pages past the write pointer stay free. Unlike
            // [`Self::invalidate`] this may also resurrect an invalid page
            // to valid — after a power cut an in-DRAM invalidation of a
            // page whose replacement never committed is simply forgotten.
            for ppn in first..first + u64::from(self.blocks[gid].write_ptr) {
                if live(Ppn(ppn)) {
                    self.pages.set_state(ppn as usize, PageState::Valid);
                    valid += 1;
                } else {
                    self.pages.set_state(ppn as usize, PageState::Invalid);
                    invalid += 1;
                    if let Some(content) = &mut self.content {
                        content[ppn as usize] = None;
                    }
                }
            }
            let blk = &mut self.blocks[gid];
            blk.valid_count = valid;
            blk.invalid_count = invalid;
            if blk.is_free() && !blk.retired {
                self.note_free_block(gid, true);
            } else if blk.is_full(ppb) && !blk.retired && invalid > 0 {
                self.victims.upsert(self.addr_of(gid), invalid);
            }
        }
    }

    // ---- GC victim index ---------------------------------------------------

    /// The incrementally maintained erase-candidate index (full blocks with
    /// invalid pages, not retired). GC selects victims from this instead of
    /// scanning every block summary.
    #[inline]
    pub fn victim_index(&self) -> &VictimIndex {
        &self.victims
    }

    /// Invalid-page count of the greediest erase candidate — the highest
    /// non-empty bucket of the index, where a greedy GC episode starts
    /// pulling — or 0 when no block is a candidate. Amortised O(1).
    pub fn top_victim_level(&mut self) -> u32 {
        self.victims.peek_best().map_or(0, |(_, invalid)| invalid)
    }

    /// Debug oracle: rebuild the candidate set with the historic full scan
    /// and compare it to the incremental index — a block GC holds counts
    /// as not indexed, and must still be a candidate — and the device-wide
    /// free-block total to the per-plane counts. Returns a description of
    /// the first divergence, if any.
    pub fn check_victim_index(&self) -> std::result::Result<(), String> {
        let mut scanned = 0usize;
        for plane in 0..self.geometry.total_planes() {
            for s in self.block_summaries(plane) {
                let candidate = s.full && s.invalid > 0 && !s.retired;
                let held = self.victims.is_held(s.addr);
                if held && !candidate {
                    return Err(format!(
                        "block {:?} is held but not a candidate \
                         (full={} invalid={} retired={})",
                        s.addr, s.full, s.invalid, s.retired
                    ));
                }
                let indexed = self.victims.invalid_of(s.addr);
                let expect = (candidate && !held).then_some(s.invalid);
                if indexed != expect {
                    return Err(format!(
                        "block {:?}: index has {indexed:?}, scan says {expect:?} \
                         (full={} invalid={} retired={})",
                        s.addr, s.full, s.invalid, s.retired
                    ));
                }
                scanned += usize::from(expect.is_some());
            }
        }
        if scanned != self.victims.len() {
            return Err(format!(
                "index holds {} blocks, scan found {scanned}",
                self.victims.len()
            ));
        }
        let by_plane: u64 = self.free_in_plane.iter().map(|&n| u64::from(n)).sum();
        if by_plane != self.free_blocks {
            return Err(format!(
                "free-block total is {}, the planes sum to {by_plane}",
                self.free_blocks
            ));
        }
        Ok(())
    }

    // ---- oracle content tracking ------------------------------------------

    /// Record which sector stamps a just-programmed page holds.
    /// No-op unless [`Self::enable_content_tracking`] was called.
    pub fn record_content(&mut self, ppn: Ppn, stamps: PageStamps) {
        if let Some(content) = &mut self.content {
            content[ppn.0 as usize] = Some(stamps);
        }
    }

    /// The stamps stored on a page, if tracking is enabled and the page has
    /// recorded content.
    pub fn content_of(&self, ppn: Ppn) -> Option<&[Option<SectorStamp>]> {
        self.content.as_ref()?[ppn.0 as usize].as_deref()
    }

    /// Whether content tracking is on.
    pub fn tracks_content(&self) -> bool {
        self.content.is_some()
    }

    /// The stamps a rewrite of `ppn`'s data carries over (RMW, area merge
    /// or rollback, GC copy or lift): the page's own, or — when its read
    /// was `lost` — the same sectors at [`LOST_VERSION`], since the layout
    /// is still known though the data is not. `None` without tracking or
    /// recorded content.
    fn carried_content(&self, ppn: Ppn, lost: bool) -> Option<PageStamps> {
        let stamps = self.content_of(ppn)?;
        Some(if lost {
            stamps
                .iter()
                .map(|s| {
                    s.map(|st| SectorStamp {
                        sector: st.sector,
                        version: LOST_VERSION,
                    })
                })
                .collect()
        } else {
            Box::from(stamps)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;

    fn tiny_array() -> FlashArray {
        FlashArray::new(Geometry::tiny(), TimingSpec::unit()).unwrap()
    }

    #[test]
    fn program_then_read_roundtrip() {
        let mut a = tiny_array();
        let ppn = Ppn(0);
        let w = a.program(ppn, PageKind::Data, 42, 4096, 0, 0).unwrap();
        assert!(w.complete_ns >= 10);
        let info = a.page_info(ppn).unwrap();
        assert!(info.is_valid());
        assert_eq!(info.tag, 42);
        let r = a.read(ppn, 4096, w.complete_ns, w.complete_ns).unwrap();
        assert!(r.complete_ns > w.complete_ns);
        assert_eq!(a.stats().programs.data, 1);
        assert_eq!(a.stats().reads.data, 1);
    }

    #[test]
    fn read_of_free_page_rejected() {
        let mut a = tiny_array();
        assert_eq!(
            a.read(Ppn(3), 512, 0, 0),
            Err(FlashError::ReadUnwritten(Ppn(3)))
        );
    }

    #[test]
    fn no_in_place_update() {
        let mut a = tiny_array();
        a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
        assert!(matches!(
            a.program(Ppn(0), PageKind::Data, 2, 512, 0, 0),
            Err(FlashError::ProgramNonFree(_))
        ));
    }

    #[test]
    fn sequential_program_within_block() {
        let mut a = tiny_array();
        // Page 2 before page 1 within block 0 must fail.
        a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
        assert!(matches!(
            a.program(Ppn(2), PageKind::Data, 2, 512, 0, 0),
            Err(FlashError::NonSequentialProgram {
                expected_page: 1,
                ..
            })
        ));
    }

    #[test]
    fn erase_requires_no_valid_pages() {
        let mut a = tiny_array();
        a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
        let blk = a.block_addr_of(Ppn(0));
        assert!(matches!(
            a.erase(blk, 0),
            Err(FlashError::EraseWithValidPages { valid: 1, .. })
        ));
        a.invalidate(Ppn(0)).unwrap();
        a.erase(blk, 0).unwrap();
        assert_eq!(a.stats().erases, 1);
        // Block is free again and programmable from page 0.
        assert_eq!(a.next_free_page(blk), Some(0));
    }

    #[test]
    fn free_block_accounting() {
        let mut a = tiny_array();
        let total = a.geometry().total_blocks() as f64;
        assert_eq!(a.free_block_fraction(), 1.0);
        a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
        assert!((a.free_block_fraction() - (total - 1.0) / total).abs() < 1e-12);
        a.invalidate(Ppn(0)).unwrap();
        a.erase(a.block_addr_of(Ppn(0)), 0).unwrap();
        assert_eq!(a.free_block_fraction(), 1.0);
    }

    #[test]
    fn chip_timeline_serialises_ops() {
        let mut a = tiny_array();
        // Two programs to the same block (same chip) must serialise.
        let w1 = a.program(Ppn(0), PageKind::Data, 1, 4096, 0, 0).unwrap();
        let w2 = a.program(Ppn(1), PageKind::Data, 2, 4096, 0, 0).unwrap();
        assert!(w2.start_ns >= w1.complete_ns);
    }

    #[test]
    fn different_chips_overlap() {
        let g = Geometry::tiny();
        let mut a = FlashArray::new(g, TimingSpec::unit()).unwrap();
        // Plane 0 is channel 0, plane 1 is channel 1 (striped) — ops overlap.
        let other_plane_first = Ppn(g.pages_per_plane());
        let w1 = a.program(Ppn(0), PageKind::Data, 1, 4096, 0, 0).unwrap();
        let w2 = a
            .program(other_plane_first, PageKind::Data, 2, 4096, 0, 0)
            .unwrap();
        assert_eq!(w1.start_ns, 0);
        assert_eq!(w2.start_ns, 0);
    }

    #[test]
    fn invalidate_twice_rejected() {
        let mut a = tiny_array();
        a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
        a.invalidate(Ppn(0)).unwrap();
        assert_eq!(
            a.invalidate(Ppn(0)),
            Err(FlashError::InvalidateNonValid(Ppn(0)))
        );
    }

    #[test]
    fn content_tracking_roundtrip_and_cleanup() {
        let mut a = tiny_array();
        a.enable_content_tracking();
        a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
        let stamps: Box<[Option<SectorStamp>]> = vec![
            Some(SectorStamp {
                sector: 100,
                version: 1,
            });
            8
        ]
        .into_boxed_slice();
        a.record_content(Ppn(0), stamps);
        assert_eq!(a.content_of(Ppn(0)).unwrap()[0].unwrap().sector, 100);
        a.invalidate(Ppn(0)).unwrap();
        assert!(a.content_of(Ppn(0)).is_none(), "invalidate clears content");
    }

    #[test]
    fn out_of_range_ppn_rejected() {
        let mut a = tiny_array();
        let bad = Ppn(a.geometry().total_pages());
        assert_eq!(a.read(bad, 512, 0, 0), Err(FlashError::OutOfRange(bad)));
    }

    #[test]
    fn op_log_captures_and_drains() {
        let mut a = tiny_array();
        assert!(!a.op_log_enabled());
        a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
        assert_eq!(a.drain_ops().count(), 0, "a disabled log drains empty");
        a.enable_op_log();
        a.program(Ppn(1), PageKind::Map, 2, 512, 0, 0).unwrap();
        a.read(Ppn(1), 512, 0, 0).unwrap();
        a.invalidate(Ppn(0)).unwrap();
        a.invalidate(Ppn(1)).unwrap();
        a.erase(a.block_addr_of(Ppn(0)), 0).unwrap();

        let ops: Vec<_> = a.drain_ops().collect();
        assert_eq!(ops.len(), 3, "pre-enable ops are not logged");
        assert_eq!(ops[0].op, FlashOp::Program);
        assert_eq!(ops[0].kind, PageKind::Map);
        assert_eq!(ops[1].op, FlashOp::Read);
        assert_eq!(ops[2].op, FlashOp::Erase);
        assert!(ops.iter().all(|o| o.latency_ns > 0));

        assert_eq!(a.drain_ops().count(), 0, "drain empties the log");
    }

    #[test]
    fn worn_out_block_is_retired_at_endurance() {
        let mut a = tiny_array();
        a.configure_faults(&FaultConfig {
            erase_endurance: 2,
            ..FaultConfig::disabled()
        });
        let blk = a.block_addr_of(Ppn(0));
        for _ in 0..2 {
            a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
            a.invalidate(Ppn(0)).unwrap();
            a.erase(blk, 0).unwrap();
        }
        // The budget is spent; the next cycle wears the block out.
        a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
        a.invalidate(Ppn(0)).unwrap();
        assert_eq!(
            a.erase(blk, 0),
            Err(FlashError::WornOut {
                block_first_ppn: Ppn(0),
                erases: 2,
            })
        );
        assert!(a.is_retired(blk));
        assert_eq!(a.stats().worn_out_blocks, 1);
        assert_eq!(a.stats().retired_blocks, 1);
        assert_eq!(a.next_free_page(blk), None);
        // Retired blocks reject further erases without re-counting.
        assert!(matches!(
            a.erase(blk, 0),
            Err(FlashError::EraseFailed { .. })
        ));
        assert_eq!(a.stats().retired_blocks, 1);
    }

    #[test]
    fn default_endurance_never_wears_out() {
        let mut a = tiny_array();
        let blk = a.block_addr_of(Ppn(0));
        for _ in 0..50 {
            a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
            a.invalidate(Ppn(0)).unwrap();
            a.erase(blk, 0).unwrap();
        }
        assert!(!a.is_retired(blk));
        assert_eq!(a.stats().worn_out_blocks, 0);
    }

    #[test]
    fn injected_read_failure_keeps_page_and_counts() {
        let mut a = tiny_array();
        a.program(Ppn(0), PageKind::Data, 1, 4096, 0, 0).unwrap();
        a.configure_faults(&FaultConfig {
            seed: 1,
            read_fail_rate: 1.0,
            ..FaultConfig::disabled()
        });
        a.enable_op_log();
        assert_eq!(
            a.read(Ppn(0), 4096, 0, 0),
            Err(FlashError::ReadFailed(Ppn(0)))
        );
        assert_eq!(a.stats().read_faults, 1);
        assert_eq!(a.stats().reads.total(), 0, "failed reads not in KindCounts");
        assert!(a.page_info(Ppn(0)).unwrap().is_valid(), "data survives");
        let ops: Vec<_> = a.drain_ops().collect();
        assert_eq!(ops.len(), 1);
        assert!(ops[0].failed);
        assert!(ops[0].latency_ns > 0, "failed read occupies the chip");
    }

    #[test]
    fn injected_program_failure_retires_block_and_consumes_page() {
        let mut a = tiny_array();
        a.configure_faults(&FaultConfig {
            seed: 1,
            program_fail_rate: 1.0,
            ..FaultConfig::disabled()
        });
        assert_eq!(
            a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0),
            Err(FlashError::ProgramFailed(Ppn(0)))
        );
        let blk = a.block_addr_of(Ppn(0));
        assert!(a.is_retired(blk));
        assert_eq!(a.stats().program_faults, 1);
        assert_eq!(a.stats().retired_blocks, 1);
        assert!(a.page_info(Ppn(0)).unwrap().is_invalid(), "page consumed");
        // The retired block accepts no further programs.
        assert!(matches!(
            a.program(Ppn(1), PageKind::Data, 2, 512, 0, 0),
            Err(FlashError::ProgramNonFree(_))
        ));
    }

    #[test]
    fn injected_erase_failure_retires_block() {
        let mut a = tiny_array();
        a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
        a.invalidate(Ppn(0)).unwrap();
        a.configure_faults(&FaultConfig {
            seed: 1,
            erase_fail_rate: 1.0,
            ..FaultConfig::disabled()
        });
        let blk = a.block_addr_of(Ppn(0));
        assert!(matches!(
            a.erase(blk, 0),
            Err(FlashError::EraseFailed { .. })
        ));
        assert!(a.is_retired(blk));
        assert_eq!(a.stats().erase_faults, 1);
        assert!(
            a.free_block_fraction() < 1.0,
            "retired block never returns to the free pool"
        );
    }

    #[test]
    fn retiring_a_free_block_adjusts_free_count() {
        let mut a = tiny_array();
        let before = a.free_blocks_in_plane(0);
        a.retire_block(BlockAddr {
            plane_idx: 0,
            block: 0,
        });
        assert_eq!(a.free_blocks_in_plane(0), before - 1);
        // Idempotent.
        a.retire_block(BlockAddr {
            plane_idx: 0,
            block: 0,
        });
        assert_eq!(a.free_blocks_in_plane(0), before - 1);
        assert_eq!(a.stats().retired_blocks, 1);
    }

    #[test]
    fn valid_pages_of_reports_oob() {
        let mut a = tiny_array();
        a.program(Ppn(0), PageKind::Data, 11, 512, 0, 0).unwrap();
        a.program(Ppn(1), PageKind::Map, 22, 512, 0, 0).unwrap();
        a.invalidate(Ppn(0)).unwrap();
        let mut v = vec![(Ppn(0), a.page_info(Ppn(0)).unwrap())];
        a.valid_pages_into(a.block_addr_of(Ppn(0)), &mut v);
        assert_eq!(v.len(), 1, "the buffer is cleared first");
        assert_eq!(v[0].0, Ppn(1));
        assert_eq!(v[0].1.kind, PageKind::Map);
        assert_eq!(v[0].1.tag, 22);
    }

    #[test]
    #[should_panic(expected = "arm before the first write")]
    fn arm_crash_after_a_program_panics() {
        let mut a = tiny_array();
        a.program(Ppn(0), PageKind::Data, 1, 512, 0, 0).unwrap();
        a.arm_crash(u64::MAX);
    }

    #[test]
    fn seq_is_journaled_only_while_armed() {
        let stamps = |a: &FlashArray| {
            (0..3)
                .map(|p| a.page_info(Ppn(p)).unwrap().seq)
                .collect::<Vec<_>>()
        };
        let program_block_0 = |a: &mut FlashArray| {
            for p in 0..3 {
                a.program(Ppn(p), PageKind::Data, p, 512, 0, 0).unwrap();
            }
        };
        let mut unarmed = tiny_array();
        program_block_0(&mut unarmed);
        assert_eq!(stamps(&unarmed), [0, 0, 0], "no journal, no stamps");

        let mut armed = tiny_array();
        armed.arm_crash(u64::MAX);
        // A page of another block first: stamps are device-wide.
        let other = Ppn(armed.geometry().pages_per_plane());
        armed.program(other, PageKind::Data, 9, 512, 0, 0).unwrap();
        program_block_0(&mut armed);
        assert_eq!(armed.page_info(other).unwrap().seq, 1);
        assert_eq!(stamps(&armed), [2, 3, 4], "program order");
        let mut valid = Vec::new();
        armed.valid_pages_into(armed.block_addr_of(Ppn(0)), &mut valid);
        assert_eq!(
            valid.iter().map(|(_, info)| info.seq).collect::<Vec<_>>(),
            [2, 3, 4]
        );
        for p in 0..3 {
            armed.invalidate(Ppn(p)).unwrap();
        }
        armed.erase(armed.block_addr_of(Ppn(0)), 0).unwrap();
        assert_eq!(stamps(&armed), [0, 0, 0], "the erase clears the stamps");
        assert_eq!(armed.page_info(other).unwrap().seq, 1);
    }

    // ---- the retry ladder, relocation and old-copy reads ---------------------

    fn array_with(cfg: FaultConfig) -> FlashArray {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::unit()).unwrap();
        a.configure_faults(&cfg);
        a
    }

    #[test]
    fn retry_ladder_recovers_transient_failures() {
        // ~50 % fail rate: with 8 retries the chance of losing a page is
        // ~0.2 %, so across a handful of reads recovery dominates.
        let mut a = array_with(FaultConfig {
            seed: 3,
            read_fail_rate: 0.5,
            ..FaultConfig::disabled()
        });
        a.program(Ppn(0), PageKind::Data, 1, 4096, 0, 0).unwrap();
        let mut recovered = 0;
        for _ in 0..20 {
            if let PageRead::Ok(_) = a.read_with_retry(Ppn(0), 4096, 0, 0).unwrap() {
                recovered += 1;
            }
        }
        assert!(
            recovered >= 19,
            "retries recover transients: {recovered}/20"
        );
        assert!(a.stats().read_faults > 0, "some attempts did fail");
    }

    #[test]
    fn exhausted_ladder_reports_lost_with_time_charged() {
        let mut a = array_with(FaultConfig {
            seed: 1,
            read_fail_rate: 1.0,
            ..FaultConfig::disabled()
        });
        a.program(Ppn(0), PageKind::Data, 1, 4096, 0, 0).unwrap();
        let r = a.read_with_retry(Ppn(0), 4096, 0, 0).unwrap();
        assert!(r.is_lost());
        assert_eq!(a.stats().read_faults, 1 + a.read_retries() as u64);
        assert!(
            r.complete_ns() > 0,
            "every failed attempt occupied the chip"
        );
    }

    #[test]
    fn protocol_errors_pass_through_unretried() {
        let mut a = array_with(FaultConfig {
            seed: 1,
            read_fail_rate: 1.0,
            ..FaultConfig::disabled()
        });
        assert_eq!(
            a.read_with_retry(Ppn(2), 512, 0, 0),
            Err(FlashError::ReadUnwritten(Ppn(2))),
        );
        assert_eq!(a.stats().read_faults, 0);
    }

    #[test]
    fn relocation_survives_program_failures() {
        // Fail ~70 % of programs: relocation must still land every page,
        // retiring blocks as it goes.
        let mut a = array_with(FaultConfig {
            seed: 9,
            program_fail_rate: 0.7,
            ..FaultConfig::disabled()
        });
        let mut alloc = Allocator::new(&a);
        let mut placed = Vec::new();
        for i in 0..10u64 {
            let (ppn, _) = a
                .program_relocating(
                    &mut alloc,
                    None,
                    StreamId::Data,
                    PageKind::Data,
                    i,
                    512,
                    0,
                    0,
                )
                .unwrap();
            assert!(a.page_info(ppn).unwrap().is_valid());
            placed.push(ppn);
        }
        assert!(a.stats().program_faults > 0, "failures were injected");
        assert!(a.stats().retired_blocks > 0, "failed blocks were retired");
        // Every returned PPN is distinct and readable.
        placed.sort();
        placed.dedup();
        assert_eq!(placed.len(), 10);
    }

    #[test]
    fn lost_stamps_mark_every_present_sector() {
        let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::unit()).unwrap();
        a.enable_content_tracking();
        a.program(Ppn(0), PageKind::Data, 1, 4096, 0, 0).unwrap();
        let stamps: Vec<Option<SectorStamp>> = (0..8)
            .map(|i| {
                (i % 2 == 0).then_some(SectorStamp {
                    sector: 40 + i,
                    version: 3,
                })
            })
            .collect();
        a.record_content(Ppn(0), stamps.into_boxed_slice());
        let lost = a.carried_content(Ppn(0), true).unwrap();
        assert_eq!(lost[0].unwrap().version, LOST_VERSION);
        assert_eq!(lost[0].unwrap().sector, 40);
        assert!(lost[1].is_none(), "holes stay holes");
    }

    /// GC's page move as the separate calls [`FlashArray::relocate`]
    /// replaced: validity check, old-copy read, relocating program,
    /// stamps, invalidate.
    fn composed_copy(
        array: &mut FlashArray,
        alloc: &mut Allocator,
        old: Ppn,
        info: &PageInfo,
        now: Nanos,
    ) -> Result<Relocation> {
        if array.page_state(old)? != PageState::Valid {
            return Ok(Relocation::Skipped);
        }
        let page_bytes = array.geometry().page_bytes;
        let (read, stamps) = array.read_old_copy(old, page_bytes, now, now)?;
        let (to, _) = array.program_relocating(
            alloc,
            None,
            StreamId::Gc,
            info.kind,
            info.tag,
            page_bytes,
            now,
            read.complete_ns(),
        )?;
        if let Some(stamps) = stamps {
            array.record_content(to, stamps);
        }
        array.invalidate(old)?;
        Ok(Relocation::Moved {
            to,
            lost: read.is_lost(),
        })
    }

    /// A device with read and program faults, content tracking, the op
    /// log and a power cut armed after `crash_at` operations, holding 120
    /// stamped pages of which every fifth is superseded; and those pages
    /// with the info GC would capture for them.
    #[allow(clippy::type_complexity)]
    fn faulted_device(crash_at: u64) -> (FlashArray, Allocator, Vec<(Ppn, PageInfo)>) {
        let mut a = array_with(FaultConfig {
            seed: 11,
            read_fail_rate: 0.3,
            program_fail_rate: 0.03,
            read_retries: 2,
            ..FaultConfig::disabled()
        });
        a.enable_content_tracking();
        a.enable_op_log();
        a.arm_crash(crash_at);
        let mut alloc = Allocator::new(&a);
        let mut pages = Vec::new();
        for i in 0..120u64 {
            let kind = [PageKind::Data, PageKind::AcrossData, PageKind::Map][i as usize % 3];
            let (ppn, _) = a
                .program_relocating(&mut alloc, None, StreamId::Data, kind, i, 4096, 0, 0)
                .unwrap();
            let stamps = (0..8).map(|s| {
                (s % 3 != 0).then_some(SectorStamp {
                    sector: i * 8 + s,
                    version: i,
                })
            });
            a.record_content(ppn, stamps.collect());
            pages.push((ppn, a.page_info(ppn).unwrap()));
        }
        for &(ppn, _) in pages.iter().step_by(5) {
            a.invalidate(ppn).unwrap();
        }
        a.drain_ops().for_each(drop);
        (a, alloc, pages)
    }

    /// `relocate` against the composition it replaced, on two clones of
    /// one faulted, tracked, crash-armed device: the same moves, losses,
    /// skips and power cut, and afterwards the same device — stats, chip
    /// timelines, page states, content, OOB journal, op-log records,
    /// allocator and the injector's later decisions.
    #[test]
    fn relocate_matches_the_composition_it_replaces() {
        let (mut a, mut alloc_a, pages) = faulted_device(300);
        let (mut b, mut alloc_b) = (a.clone(), alloc_a.clone());
        let (mut copies, mut lost, mut skipped, mut cuts) = (Vec::new(), 0, 0, 0);
        for (step, (old, info)) in pages.iter().enumerate() {
            let now = step as Nanos * 3;
            let got = a.relocate(&mut alloc_a, *old, info, now);
            let want = composed_copy(&mut b, &mut alloc_b, *old, info, now);
            assert_eq!(got, want, "step {step}");
            let ops_a: Vec<_> = a.drain_ops().collect();
            let ops_b: Vec<_> = b.drain_ops().collect();
            assert_eq!(ops_a, ops_b, "step {step}: op-log records");
            match got {
                Ok(Relocation::Moved { to, lost: l }) => {
                    copies.push(to);
                    lost += usize::from(l);
                }
                Ok(Relocation::Skipped) => skipped += 1,
                Err(FlashError::PowerCut) => {
                    cuts += 1;
                    a.power_restore();
                    b.power_restore();
                }
                Err(e) => panic!("step {step}: {e:?}"),
            }
        }
        assert!(copies.len() > 80 && lost > 0 && skipped == 24 && cuts == 1);
        assert!(a.stats().read_faults > 0 && a.stats().program_faults > 0);

        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.timelines(), b.timelines());
        for p in 0..a.geometry().total_pages() {
            let p = Ppn(p);
            assert_eq!(a.page_info(p), b.page_info(p), "{p:?}");
            assert_eq!(a.content_of(p), b.content_of(p), "{p:?}");
            assert_eq!(a.oob_of(p), b.oob_of(p), "{p:?}");
        }
        assert_eq!(a.oob_kill_log(), b.oob_kill_log());
        a.check_victim_index().unwrap();
        assert_eq!(
            format!("{:?}", a.victim_index()),
            format!("{:?}", b.victim_index())
        );
        for _ in 0..16 {
            let next_a = alloc_a.alloc_page(&a, StreamId::Gc);
            assert_eq!(next_a, alloc_b.alloc_page(&b, StreamId::Gc));
            let read = a.read(copies[0], 4096, 0, 0);
            assert_eq!(read, b.read(copies[0], 4096, 0, 0));
            assert_ne!(read, Err(FlashError::ReadUnwritten(copies[0])));
        }
    }

    // ---- the flat store against the block model it replaced ----------------

    use crate::block::reference::Block;
    use proptest::prelude::*;

    /// Erase-endurance budget of the equivalence runs, low enough that hot
    /// blocks wear out.
    const ENDURANCE: u64 = 2;

    /// The device the flat store replaced: planes of blocks that each own
    /// their pages, driven by the operation bodies `FlashArray` had before
    /// (timing, statistics and OOB journaling left out). Addresses are
    /// decomposed by plain division, so the comparison also covers the
    /// array's shift tables.
    struct BlockDevice {
        g: Geometry,
        /// Per plane: its blocks and its free-block count.
        planes: Vec<(Vec<Block>, u32)>,
        next_seq: u64,
    }

    impl BlockDevice {
        fn new(g: Geometry) -> Self {
            let plane = (
                vec![Block::new(g.pages_per_block); g.blocks_per_plane as usize],
                g.blocks_per_plane,
            );
            BlockDevice {
                g,
                planes: vec![plane; g.total_planes() as usize],
                next_seq: 1,
            }
        }

        fn split(&self, ppn: Ppn) -> Result<(usize, usize, u32)> {
            if ppn.0 >= self.g.total_pages() {
                return Err(FlashError::OutOfRange(ppn));
            }
            let ppb = u64::from(self.g.pages_per_block);
            let bpp = u64::from(self.g.blocks_per_plane);
            let linear_block = ppn.0 / ppb;
            Ok((
                (linear_block / bpp) as usize,
                (linear_block % bpp) as usize,
                (ppn.0 % ppb) as u32,
            ))
        }

        fn first_ppn_of(&self, addr: BlockAddr) -> Ppn {
            Ppn(
                (addr.plane_idx * u64::from(self.g.blocks_per_plane) + u64::from(addr.block))
                    * u64::from(self.g.pages_per_block),
            )
        }

        fn block(&self, addr: BlockAddr) -> &Block {
            &self.planes[addr.plane_idx as usize].0[addr.block as usize]
        }

        fn retire_at(&mut self, plane: usize, block: usize) {
            let blk = &mut self.planes[plane].0[block];
            if blk.is_retired() {
                return;
            }
            let was_free = blk.is_free();
            blk.retire();
            if was_free {
                self.planes[plane].1 -= 1;
            }
        }

        fn program(&mut self, ppn: Ppn, kind: PageKind, tag: u64, fail: bool) -> Result<()> {
            let (plane, block, page) = self.split(ppn)?;
            let seq = self.next_seq;
            let blk = &mut self.planes[plane].0[block];
            if blk.is_retired() {
                return Err(FlashError::ProgramNonFree(ppn));
            }
            if !blk.page(page).is_free() {
                return Err(FlashError::ProgramNonFree(ppn));
            }
            let was_free = blk.is_free();
            blk.program(page, kind, tag, seq)
                .map_err(|expected_page| FlashError::NonSequentialProgram { ppn, expected_page })?;
            self.next_seq += 1;
            if was_free {
                self.planes[plane].1 -= 1;
            }
            if fail {
                self.planes[plane].0[block].invalidate(page);
                self.retire_at(plane, block);
                return Err(FlashError::ProgramFailed(ppn));
            }
            Ok(())
        }

        fn invalidate(&mut self, ppn: Ppn) -> Result<()> {
            let (plane, block, page) = self.split(ppn)?;
            if !self.planes[plane].0[block].invalidate(page) {
                return Err(FlashError::InvalidateNonValid(ppn));
            }
            Ok(())
        }

        fn erase(&mut self, addr: BlockAddr, fail: bool) -> Result<()> {
            let first = self.first_ppn_of(addr);
            let (plane, block) = (addr.plane_idx as usize, addr.block as usize);
            let blk = &self.planes[plane].0[block];
            let (valid, erases, was_free) = (blk.valid_count(), blk.erase_count(), blk.is_free());
            if blk.is_retired() {
                return Err(FlashError::EraseFailed {
                    block_first_ppn: first,
                });
            }
            if valid > 0 {
                return Err(FlashError::EraseWithValidPages {
                    block_first_ppn: first,
                    valid,
                });
            }
            if erases >= ENDURANCE {
                self.retire_at(plane, block);
                return Err(FlashError::WornOut {
                    block_first_ppn: first,
                    erases,
                });
            }
            if fail {
                self.retire_at(plane, block);
                return Err(FlashError::EraseFailed {
                    block_first_ppn: first,
                });
            }
            self.planes[plane].0[block].erase();
            if !was_free {
                self.planes[plane].1 += 1;
            }
            Ok(())
        }

        fn rebuild_page_states(&mut self, mut live: impl FnMut(Ppn) -> bool) {
            let ppb = u64::from(self.g.pages_per_block);
            let bpp = u64::from(self.g.blocks_per_plane);
            for (plane_idx, (blocks, free_blocks)) in self.planes.iter_mut().enumerate() {
                *free_blocks = 0;
                for (block_idx, blk) in blocks.iter_mut().enumerate() {
                    let first = (plane_idx as u64 * bpp + block_idx as u64) * ppb;
                    blk.rebuild_states(|idx| live(Ppn(first + u64::from(idx))));
                    if blk.is_free() && !blk.is_retired() {
                        *free_blocks += 1;
                    }
                }
            }
        }

        fn block_summary(&self, addr: BlockAddr) -> BlockSummary {
            let b = self.block(addr);
            BlockSummary {
                addr,
                first_ppn: self.first_ppn_of(addr),
                valid: b.valid_count(),
                invalid: b.invalid_count(),
                erases: b.erase_count(),
                full: b.is_full(),
                retired: b.is_retired(),
            }
        }

        fn valid_pages_of(&self, addr: BlockAddr) -> Vec<(Ppn, PageInfo)> {
            let first = self.first_ppn_of(addr).0;
            self.block(addr)
                .valid_pages()
                .map(|(i, info)| (Ppn(first + u64::from(i)), *info))
                .collect()
        }

        fn free_block_fraction(&self) -> f64 {
            let free: u64 = self.planes.iter().map(|p| u64::from(p.1)).sum();
            free as f64 / self.g.total_blocks() as f64
        }
    }

    /// One step of an equivalence run; the picks are reduced modulo the
    /// geometry when the step is applied.
    #[derive(Debug, Clone, Copy)]
    enum StoreOp {
        /// Program a page of block `block`: its next free page, or page
        /// `page` when `out_of_order` or when the block has none (full or
        /// retired). `fail` injects a program failure.
        Program {
            block: u64,
            page: u32,
            out_of_order: bool,
            kind: u8,
            tag: u64,
            fail: bool,
        },
        /// Invalidate page `page` of block `block`, whatever its state.
        Invalidate { block: u64, page: u32 },
        /// Erase block `block`, valid pages or not. `fail` injects an
        /// erase failure.
        Erase { block: u64, fail: bool },
        /// Retire block `block`.
        Retire { block: u64 },
    }

    fn store_op_strategy() -> impl Strategy<Value = StoreOp> {
        // Retirement and injected failures are rare, so the hot blocks
        // survive long enough to cycle and wear out.
        (0u8..200, any::<u64>(), any::<u32>(), any::<u64>(), 0u8..100).prop_map(
            |(op, block, page, tag, dice)| match op {
                0..=69 => StoreOp::Program {
                    block,
                    page,
                    out_of_order: dice < 8,
                    kind: (tag % 3) as u8,
                    // Tags span the whole 32-bit width (LPNs, Across-FTL's
                    // translation-page ids above 1 << 31) but for the
                    // free-page sentinel.
                    tag: (tag >> (page % 32 + 32)).min(u64::from(u32::MAX) - 1),
                    fail: dice == 99,
                },
                70..=169 => StoreOp::Invalidate { block, page },
                170..=198 => StoreOp::Erase {
                    block,
                    fail: dice < 3,
                },
                _ => StoreOp::Retire { block },
            },
        )
    }

    /// A geometry with no power of two among its block dimensions, so the
    /// array takes its division fallbacks.
    fn odd_geometry() -> Geometry {
        Geometry {
            channels: 1,
            chips_per_channel: 3,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 5,
            pages_per_block: 6,
            page_bytes: 4096,
            sector_bytes: 512,
        }
    }

    /// Every observable of the page store and the block bookkeeping,
    /// compared between the array and the block model.
    fn agree(a: &FlashArray, r: &BlockDevice) -> std::result::Result<(), String> {
        let (g, mut valid) = (r.g, Vec::new());
        for p in 0..g.total_pages() {
            let (plane, block, page) = r.split(Ppn(p)).unwrap();
            let want = *r.planes[plane].0[block].page(page);
            let got = a.page_info(Ppn(p)).unwrap();
            if got != want {
                return Err(format!("page {p}: array {got:?}, blocks {want:?}"));
            }
        }
        for plane_idx in 0..g.total_planes() {
            if a.free_blocks_in_plane(plane_idx) != r.planes[plane_idx as usize].1 {
                return Err(format!("free blocks of plane {plane_idx} differ"));
            }
            for block in 0..g.blocks_per_plane {
                let addr = BlockAddr { plane_idx, block };
                if a.block_summary(addr) != r.block_summary(addr) {
                    return Err(format!("summary of {addr:?} differs"));
                }
                a.valid_pages_into(addr, &mut valid);
                if valid != r.valid_pages_of(addr) {
                    return Err(format!("valid pages of {addr:?} differ"));
                }
                if a.next_free_page(addr) != r.block(addr).next_free_page() {
                    return Err(format!("next free page of {addr:?} differs"));
                }
            }
        }
        if a.free_block_fraction().to_bits() != r.free_block_fraction().to_bits() {
            return Err("free-block fraction differs".into());
        }
        a.check_victim_index()
    }

    /// Run `ops` on an array and on the block model side by side, with one
    /// crash-recovery rebuild (`live` = a hash of the PPN and `live_seed`)
    /// before step `rebuild_at`.
    fn run_store_ops(
        g: Geometry,
        ops: &[StoreOp],
        rebuild_at: usize,
        live_seed: u64,
    ) -> std::result::Result<(), TestCaseError> {
        let quiet = FaultConfig {
            erase_endurance: ENDURANCE,
            ..FaultConfig::disabled()
        };
        let mut a = FlashArray::new(g, TimingSpec::unit()).unwrap();
        a.configure_faults(&quiet);
        // Armed (with a budget that never runs out), so the journal keeps
        // the sequence stamps the block model's pages carry.
        a.arm_crash(u64::MAX);
        let mut r = BlockDevice::new(g);
        // A few hot blocks, spread over the planes, so they fill, collect
        // invalid pages, get erased and wear out within one run.
        let hot = |pick: u64| {
            let gid = (pick % 10) * (g.total_blocks() / 10);
            BlockAddr {
                plane_idx: gid / u64::from(g.blocks_per_plane),
                block: (gid % u64::from(g.blocks_per_plane)) as u32,
            }
        };
        for (step, &op) in ops.iter().enumerate() {
            if step == rebuild_at % ops.len() {
                let live =
                    |ppn: Ppn| (ppn.0 ^ live_seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 0;
                a.rebuild_page_states(live);
                r.rebuild_page_states(live);
                if let Err(e) = agree(&a, &r) {
                    return Err(TestCaseError::fail(format!(
                        "rebuild before step {step}: {e}"
                    )));
                }
            }
            let (got, want) = match op {
                StoreOp::Program {
                    block,
                    page,
                    out_of_order,
                    kind,
                    tag,
                    fail,
                } => {
                    let addr = hot(block);
                    let page = match a.next_free_page(addr) {
                        Some(next) if !out_of_order => next,
                        _ => page % g.pages_per_block,
                    };
                    let ppn = a.ppn_in_block(addr, page);
                    let kind = [PageKind::Data, PageKind::AcrossData, PageKind::Map][kind as usize];
                    a.configure_faults(&FaultConfig {
                        program_fail_rate: if fail { 1.0 } else { 0.0 },
                        ..quiet
                    });
                    (
                        a.program(ppn, kind, tag, g.page_bytes, 0, 0).map(drop),
                        r.program(ppn, kind, tag, fail),
                    )
                }
                StoreOp::Invalidate { block, page } => {
                    let ppn = a.ppn_in_block(hot(block), page % g.pages_per_block);
                    (a.invalidate(ppn), r.invalidate(ppn))
                }
                StoreOp::Erase { block, fail } => {
                    let addr = hot(block);
                    a.configure_faults(&FaultConfig {
                        erase_fail_rate: if fail { 1.0 } else { 0.0 },
                        ..quiet
                    });
                    (a.erase(addr, 0).map(drop), r.erase(addr, fail))
                }
                StoreOp::Retire { block } => {
                    let addr = hot(block);
                    a.retire_block(addr);
                    r.retire_at(addr.plane_idx as usize, addr.block as usize);
                    (Ok(()), Ok(()))
                }
            };
            if got != want {
                return Err(TestCaseError::fail(format!(
                    "step {step} ({op:?}): array returned {got:?}, blocks {want:?}"
                )));
            }
            if let Err(e) = agree(&a, &r) {
                return Err(TestCaseError::fail(format!(
                    "after step {step} ({op:?}): {e}"
                )));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever the operation sequence — legal or not, faults and one
        /// recovery rebuild included — the flat page store and the block
        /// model it replaced return the same results and stay
        /// indistinguishable through every query.
        #[test]
        fn flat_store_equals_block_reference(
            (ops, rebuild_at, live_seed) in (
                collection::vec(store_op_strategy(), 200..700),
                any::<u32>(),
                any::<u64>(),
            )
        ) {
            run_store_ops(Geometry::tiny(), &ops, rebuild_at as usize, live_seed)?;
            run_store_ops(odd_geometry(), &ops, rebuild_at as usize, live_seed)?;
        }
    }
}
