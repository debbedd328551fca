//! Error-recovery building blocks shared by every FTL scheme: the
//! read-retry ladder and program-failure relocation.
//!
//! Both helpers turn the fault-injection errors of `aftl-flash`
//! ([`FlashError::ReadFailed`] / [`FlashError::ProgramFailed`]) back into
//! normal control flow:
//!
//! * [`read_with_retry`] re-issues a failed read up to the configured
//!   ladder depth. Each failed attempt has already occupied the chip, so a
//!   retry queues behind it on the chip timeline — the per-retry timing
//!   penalty arises from the model rather than a bolted-on constant. When
//!   the ladder is exhausted the page is declared [`PageRead::Lost`].
//! * [`program_relocating`] re-allocates and re-programs after a program
//!   failure. The failed program retired its block, so the loop always
//!   makes progress and terminates (worst case with
//!   [`FlashError::NoFreeBlocks`] once every block is retired).
//!
//! Data loss is modelled honestly: a lost page's sectors are served with
//! [`LOST_VERSION`] so the integrity oracle can distinguish "device lost
//! this data and said so" from a silent mapping bug (`u64::MAX`).

use aftl_flash::{
    Allocator, FlashArray, FlashError, Nanos, OpOutcome, PageKind, Ppn, Result, SectorStamp,
    StreamId,
};

/// Version stamp served for sectors whose page was lost after exhausting
/// the read-retry ladder. Distinct from `u64::MAX` (which flags a mapping
/// bug) so tests can tell an acknowledged loss from silent corruption.
pub const LOST_VERSION: u64 = u64::MAX - 1;

/// Outcome of [`read_with_retry`].
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

/// Read `ppn` with the retry ladder: one initial attempt plus up to
/// `array.read_retries()` retries. Protocol errors (out of range, unwritten
/// page, …) pass through unchanged — only injected transient failures are
/// retried.
pub fn read_with_retry(
    array: &mut FlashArray,
    ppn: Ppn,
    bytes: u32,
    arrive_ns: Nanos,
    ready_ns: Nanos,
) -> Result<PageRead> {
    let attempts = 1 + array.read_retries();
    for _ in 0..attempts {
        match array.read(ppn, bytes, arrive_ns, ready_ns) {
            Ok(out) => return Ok(PageRead::Ok(out)),
            Err(FlashError::ReadFailed(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    // The chip timeline has absorbed every failed attempt; its busy-until
    // mark is when the last attempt completed.
    let chip = array.geometry().chip_index_of(ppn) as usize;
    let complete_ns = array.timelines().0[chip].max(ready_ns);
    Ok(PageRead::Lost { complete_ns })
}

/// Content stamps of one page, a slot per sector.
pub(crate) type PageStamps = Box<[Option<SectorStamp>]>;

/// Read back the old copy of data about to be rewritten elsewhere (RMW,
/// area merge or rollback, GC copy or lift): `bytes` of `ppn` through the
/// retry ladder, plus — with content tracking on — the stamps the rewrite
/// carries over, [`LOST_VERSION`] ones if the read was lost. The caller
/// counts a lost read into its own counter.
#[inline]
pub(crate) fn read_old_copy(
    array: &mut FlashArray,
    ppn: Ppn,
    bytes: u32,
    arrive_ns: Nanos,
    ready_ns: Nanos,
) -> Result<(PageRead, Option<PageStamps>)> {
    let read = read_with_retry(array, ppn, bytes, arrive_ns, ready_ns)?;
    let stamps = if !array.tracks_content() {
        None
    } else if read.is_lost() {
        lost_stamps_of(array, ppn)
    } else {
        array.content_of(ppn).map(Box::from)
    };
    Ok((read, stamps))
}

/// Allocate and program a page for `stream` — in `plane` when given (GC
/// keeps copy-backs on one chip when it can) — relocating to a fresh
/// block whenever the program fails (the failed program already retired
/// its block and consumed the page, so the mapping fix-up is simply "use
/// the PPN this returns").
#[allow(clippy::too_many_arguments)]
pub fn program_relocating(
    array: &mut FlashArray,
    alloc: &mut Allocator,
    plane: Option<u64>,
    stream: StreamId,
    kind: PageKind,
    tag: u64,
    bytes: u32,
    arrive_ns: Nanos,
    ready_ns: Nanos,
) -> Result<(Ppn, OpOutcome)> {
    loop {
        let ppn = match plane {
            Some(plane) => alloc.alloc_page_in_plane(array, plane, stream)?,
            None => alloc.alloc_page(array, stream)?,
        };
        match array.program(ppn, kind, tag, bytes, arrive_ns, ready_ns) {
            Ok(out) => return Ok((ppn, out)),
            Err(FlashError::ProgramFailed(_)) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// The content stamps of `ppn` with every present version replaced by
/// [`LOST_VERSION`] — used when a page's data could not be read back
/// (RMW, merge or GC source loss) but its sector layout is still known
/// from the OOB/mapping state.
fn lost_stamps_of(array: &FlashArray, ppn: Ppn) -> Option<PageStamps> {
    array.content_of(ppn).map(|stamps| {
        stamps
            .iter()
            .map(|s| {
                s.map(|st| SectorStamp {
                    sector: st.sector,
                    version: LOST_VERSION,
                })
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_flash::{FaultConfig, Geometry, TimingSpec};

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
            if let PageRead::Ok(_) = read_with_retry(&mut a, Ppn(0), 4096, 0, 0).unwrap() {
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
        let r = read_with_retry(&mut a, Ppn(0), 4096, 0, 0).unwrap();
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
            read_with_retry(&mut a, Ppn(2), 512, 0, 0),
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
            let (ppn, _) = program_relocating(
                &mut a,
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
        let lost = lost_stamps_of(&a, Ppn(0)).unwrap();
        assert_eq!(lost[0].unwrap().version, LOST_VERSION);
        assert_eq!(lost[0].unwrap().sector, 40);
        assert!(lost[1].is_none(), "holes stay holes");
    }
}
