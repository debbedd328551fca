//! Error-recovery building blocks shared by every FTL scheme.
//!
//! The read-retry ladder and program-failure relocation live on the flash
//! array itself ([`FlashArray::read_with_retry`],
//! [`FlashArray::program_relocating`]), next to GC's one-pass page move
//! that uses both ([`FlashArray::relocate`]). They turn the
//! fault-injection errors of `aftl-flash` ([`aftl_flash::FlashError::ReadFailed`]
//! / [`aftl_flash::FlashError::ProgramFailed`]) back into normal control
//! flow: a failed read is re-issued up to the ladder depth and then
//! declared [`PageRead::Lost`]; a failed program retired its block, so
//! relocation re-allocates and re-programs until it lands.
//!
//! What stays here is the scheme side of an old-copy read
//! (`read_old_copy`). Data loss is modelled honestly: a lost page's
//! sectors are served with [`LOST_VERSION`] so the integrity oracle can
//! distinguish "device lost this data and said so" from a silent mapping
//! bug (`u64::MAX`).

use aftl_flash::{FlashArray, Nanos, Ppn, Result, SectorStamp};

pub use aftl_flash::{PageRead, LOST_VERSION};

/// Content stamps of one page, a slot per sector.
pub(crate) type PageStamps = Box<[Option<SectorStamp>]>;

/// Read back the old copy of data about to be rewritten elsewhere (RMW,
/// area merge or rollback, a repacking GC's lift): `bytes` of `ppn`
/// through the retry ladder, plus — with content tracking on — the stamps
/// the rewrite carries over, [`LOST_VERSION`] ones if the read was lost.
/// The caller counts a lost read into its own counter.
#[inline]
pub(crate) fn read_old_copy(
    array: &mut FlashArray,
    ppn: Ppn,
    bytes: u32,
    arrive_ns: Nanos,
    ready_ns: Nanos,
) -> Result<(PageRead, Option<PageStamps>)> {
    let read = array.read_with_retry(ppn, bytes, arrive_ns, ready_ns)?;
    let stamps = array.carried_content(ppn, read.is_lost());
    Ok((read, stamps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_flash::{
        Allocator, FaultConfig, FlashError, Geometry, PageInfo, PageKind, PageState, Relocation,
        StreamId, TimingSpec,
    };

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
        let (read, stamps) = read_old_copy(array, old, page_bytes, now, now)?;
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
}
