//! Out-of-band journaling records for crash recovery.
//!
//! Real NAND pages carry a spare (OOB) area programmed atomically with the
//! data. The array keeps the reverse-map tag every path reads for every
//! page; what only crash recovery reads is modeled here as a side store
//! the array maintains only while a crash is armed (see
//! [`crate::array::FlashArray::arm_crash`], which must precede the first
//! program):
//!
//! * **program sequence stamps** — the device-wide monotonic number each
//!   program draws; recovery arbitrates conflicting copies of a logical
//!   page last-writer-wins over it. Reported as
//!   [`crate::page::PageInfo::seq`], 0 with no crash armed.
//! * **write-group commit records** — every data page programmed on behalf
//!   of one atomic host write carries the group id; the group's *last* page
//!   carries a commit mark. Recovery drops groups whose commit mark never
//!   landed, so a torn multi-extent request is rolled back wholesale rather
//!   than left half-visible.
//! * **kill records** — when Across-FTL folds an area back (rollback) or
//!   drops a fully superseded area, the write group records a
//!   [`KillRecord`]: the killed area's AMT tag and the sequence number of
//!   its page at kill time. A record retires *every* page of that tag up
//!   to that seq — the tag's history is a chain of superseding programs
//!   (AMerge, GC migration), and any link of the chain may outlive the
//!   newest one once blocks start being erased, so killing only the exact
//!   newest seq would let an older same-tag page resurrect the area.
//!   Kills live in no data page's OOB: sealing the group appends them to
//!   the persistent kill log ([`OobStore::kill_log`]), the only kill
//!   authority recovery reads — modeling the small dedicated
//!   translation-journal stream that real crash-consistent FTLs append
//!   commit records to, which is never erased by data-block GC, so a kill
//!   outlives every page its request programmed.
//! * **layout descriptors** — packed sub-page pages (MRSM) record which
//!   `(lpn, sub)` each slot holds; across-area pages record the area's
//!   sector range. Both are needed to rebuild the mapping from a bare scan.
//!
//! The store is deliberately *not* consulted by any non-recovery path, so
//! leaving it disabled keeps the default simulation bit-identical.

use crate::geometry::Ppn;
use crate::page::PageKind;

/// Scheme-specific layout descriptor stored in a page's OOB area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OobDesc {
    /// No extra layout info (plain page-mapped data, map pages).
    None,
    /// An Across-FTL re-aligned area: the logical sector range it serves.
    Area {
        /// First logical sector of the area.
        start_sector: u64,
        /// Area length in sectors.
        size_sectors: u32,
    },
    /// A packed MRSM sub-page region page: which `(lpn, sub)` each of the
    /// up-to-4 quarter-page slots holds.
    Slots {
        /// Number of occupied slots.
        n: u8,
        /// `(lpn, sub-index)` per slot; slots past `n` are unspecified.
        slots: [(u64, u8); 4],
    },
}

/// One deliberate area retirement (Across-FTL rollback / drop): kills
/// every page whose OOB tag is `tag` and whose program seq is ≤ `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillRecord {
    /// AMT tag (slot index) of the retired area.
    pub tag: u64,
    /// Program seq of the area's page at kill time — the newest link of
    /// the tag's supersession chain; everything at or below it is dead.
    pub seq: u64,
}

/// The crash-relevant OOB metadata of one physical page, beyond the tag
/// the array keeps and the sequence stamp ([`OobStore::seq_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobExtra {
    /// Write-group id (0 = no group: GC copies and map pages, which
    /// recovery treats as implicitly committed).
    pub group: u64,
    /// Whether this page carries its group's commit mark (the group's last
    /// page, stamped at seal time).
    pub commit: bool,
    /// Scheme-specific layout descriptor.
    pub desc: OobDesc,
}

impl OobExtra {
    /// The record of a page programmed outside any write group.
    pub const fn ungrouped() -> Self {
        OobExtra {
            group: 0,
            commit: false,
            desc: OobDesc::None,
        }
    }
}

/// Group id marking a page whose program *failed* (injected fault): its
/// contents are garbage and recovery must never elect it. Group ids are
/// allocated upward from 1, so the sentinel cannot collide.
pub const OOB_GROUP_POISONED: u64 = u64::MAX;

/// Dense per-page store of [`OobExtra`] records and program sequence
/// stamps, plus the active-group bookkeeping. Owned by the array;
/// allocated when a crash is armed.
#[derive(Debug, Clone)]
pub struct OobStore {
    extras: Vec<OobExtra>,
    /// Program sequence stamp per page (0 = erased since, or never
    /// programmed).
    seq: Vec<u64>,
    next_group: u64,
    current: Option<u64>,
    pending_kills: Vec<KillRecord>,
    last_group_ppn: Option<Ppn>,
    kill_log: Vec<KillRecord>,
}

impl OobStore {
    /// An empty store covering `total_pages` physical pages.
    pub fn new(total_pages: u64) -> Self {
        OobStore {
            extras: vec![OobExtra::ungrouped(); total_pages as usize],
            seq: vec![0; total_pages as usize],
            next_group: 1,
            current: None,
            pending_kills: Vec::new(),
            last_group_ppn: None,
            kill_log: Vec::new(),
        }
    }

    /// Open a new write group; subsequent data programs join it until
    /// [`Self::seal_group`]. Returns the group id.
    pub fn begin_group(&mut self) -> u64 {
        let id = self.next_group;
        self.next_group += 1;
        self.current = Some(id);
        self.pending_kills.clear();
        self.last_group_ppn = None;
        id
    }

    /// Record that the current group deliberately retires area `tag`,
    /// whose page carried sequence number `seq` at kill time (Across-FTL
    /// area rollback/drop). No-op when no group is open.
    pub fn group_kill(&mut self, tag: u64, seq: u64) {
        if self.current.is_some() {
            self.pending_kills.push(KillRecord { tag, seq });
        }
    }

    /// Seal the current group: its last programmed page receives the commit
    /// mark, and the group's kills are appended to the persistent
    /// [`Self::kill_log`]. A group that programmed nothing seals to nothing
    /// (pure-overwrite requests served entirely in place) — but its kills
    /// still reach the log, since the drop committed with the request.
    pub fn seal_group(&mut self) {
        self.kill_log.append(&mut self.pending_kills);
        if let Some(ppn) = self.last_group_ppn.take() {
            self.extras[ppn.0 as usize].commit = true;
        }
        self.current = None;
    }

    /// Every area retirement committed by a sealed write group, in commit
    /// order. Survives block erases — recovery consults it so a dropped
    /// area is never resurrected after the page that carried its kill
    /// record has been garbage-collected.
    pub fn kill_log(&self) -> &[KillRecord] {
        &self.kill_log
    }

    /// Stamp a page with the sequence number its program (successful or
    /// not) drew.
    #[inline]
    pub(crate) fn note_seq(&mut self, ppn: Ppn, seq: u64) {
        self.seq[ppn.0 as usize] = seq;
    }

    /// Record a successful program. Data pages join the open group (if
    /// any); map pages never do — the translation tables are rebuilt from
    /// the data pages at recovery, so torn map writes are harmless.
    pub(crate) fn note_program(&mut self, ppn: Ppn, kind: PageKind) {
        let extra = &mut self.extras[ppn.0 as usize];
        match self.current {
            Some(group) if kind != PageKind::Map => {
                *extra = OobExtra {
                    group,
                    commit: false,
                    desc: OobDesc::None,
                };
                self.last_group_ppn = Some(ppn);
            }
            _ => *extra = OobExtra::ungrouped(),
        }
    }

    /// Record an injected program *failure*: the page's contents are
    /// garbage and recovery must skip it.
    pub(crate) fn note_program_failed(&mut self, ppn: Ppn) {
        let extra = &mut self.extras[ppn.0 as usize];
        *extra = OobExtra::ungrouped();
        extra.group = OOB_GROUP_POISONED;
    }

    /// Attach a layout descriptor to an already-programmed page (the OOB is
    /// written with the page; the split API just keeps the program call
    /// signature stable).
    pub fn annotate(&mut self, ppn: Ppn, desc: OobDesc) {
        self.extras[ppn.0 as usize].desc = desc;
    }

    /// The OOB record of a page.
    pub fn of(&self, ppn: Ppn) -> &OobExtra {
        &self.extras[ppn.0 as usize]
    }

    /// The program sequence stamp of a page (0 once its block is erased).
    #[inline]
    pub fn seq_of(&self, ppn: Ppn) -> u64 {
        self.seq[ppn.0 as usize]
    }

    /// Reset the records and sequence stamps of an erased block's pages.
    pub(crate) fn clear_block(&mut self, first_ppn: Ppn, pages_per_block: u32) {
        let pages = first_ppn.0 as usize..(first_ppn.0 + u64::from(pages_per_block)) as usize;
        self.extras[pages.clone()].fill(OobExtra::ungrouped());
        self.seq[pages].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_commit_marks_last_page_only() {
        let mut s = OobStore::new(8);
        let g = s.begin_group();
        s.note_program(Ppn(0), PageKind::Data);
        s.note_program(Ppn(1), PageKind::AcrossData);
        s.seal_group();
        assert_eq!(s.of(Ppn(0)).group, g);
        assert!(!s.of(Ppn(0)).commit, "only the last page commits");
        assert_eq!(s.of(Ppn(1)).group, g);
        assert!(s.of(Ppn(1)).commit);
    }

    #[test]
    fn map_pages_and_ungrouped_programs_stay_out() {
        let mut s = OobStore::new(8);
        s.begin_group();
        s.note_program(Ppn(0), PageKind::Map);
        assert_eq!(s.of(Ppn(0)).group, 0, "map pages never join groups");
        s.seal_group();
        s.note_program(Ppn(1), PageKind::Data);
        assert_eq!(s.of(Ppn(1)).group, 0, "no open group");
    }

    #[test]
    fn kills_ride_the_sealed_page() {
        let mut s = OobStore::new(8);
        s.begin_group();
        s.group_kill(5, 41);
        s.note_program(Ppn(2), PageKind::Data);
        s.group_kill(6, 43);
        s.note_program(Ppn(3), PageKind::Data);
        assert!(s.kill_log().is_empty(), "kills wait for the seal");
        s.seal_group();
        assert_eq!(
            s.kill_log(),
            &[
                KillRecord { tag: 5, seq: 41 },
                KillRecord { tag: 6, seq: 43 }
            ],
            "seal logs all kills"
        );
        assert!(s.of(Ppn(3)).commit);
    }

    #[test]
    fn empty_group_seals_to_nothing_and_ids_advance() {
        let mut s = OobStore::new(4);
        let a = s.begin_group();
        s.seal_group();
        let b = s.begin_group();
        assert!(b > a);
        s.note_program(Ppn(0), PageKind::Data);
        s.seal_group();
        assert_eq!(s.of(Ppn(0)).group, b);
    }

    #[test]
    fn failed_program_is_poisoned_and_erase_clears() {
        let mut s = OobStore::new(8);
        s.begin_group();
        s.note_program(Ppn(0), PageKind::Data);
        s.note_program_failed(Ppn(1));
        assert_eq!(s.of(Ppn(1)).group, OOB_GROUP_POISONED);
        s.seal_group();
        s.clear_block(Ppn(0), 4);
        assert_eq!(*s.of(Ppn(1)), OobExtra::ungrouped());
    }

    #[test]
    fn kill_log_keeps_committed_kills_across_erases() {
        let mut s = OobStore::new(8);
        s.begin_group();
        s.group_kill(5, 41);
        s.note_program(Ppn(0), PageKind::Data);
        s.seal_group();
        // An unsealed (torn) group's kills never reach the log.
        s.begin_group();
        s.group_kill(7, 99);
        s.note_program(Ppn(1), PageKind::Data);
        // no seal: power cut here
        assert_eq!(s.kill_log(), &[KillRecord { tag: 5, seq: 41 }]);
        // Erasing the block that carried the sealed kill record does not
        // lose the committed kill.
        s.clear_block(Ppn(0), 4);
        assert_eq!(s.kill_log(), &[KillRecord { tag: 5, seq: 41 }]);
    }

    #[test]
    fn annotate_attaches_descriptors() {
        let mut s = OobStore::new(4);
        s.note_program(Ppn(0), PageKind::AcrossData);
        s.annotate(
            Ppn(0),
            OobDesc::Area {
                start_sector: 100,
                size_sectors: 24,
            },
        );
        assert!(matches!(
            s.of(Ppn(0)).desc,
            OobDesc::Area {
                start_sector: 100,
                ..
            }
        ));
    }
}
