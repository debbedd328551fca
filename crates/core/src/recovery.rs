//! Crash recovery: rebuilding the logical-to-physical mapping after a
//! sudden power-off.
//!
//! A power cut (see [`aftl_flash::array::FlashArray::arm_crash`]) destroys
//! every DRAM structure — the page map table, the AMT, the MRSM sub-page
//! tree, the learned segments, the map cache, the allocator's active-block
//! cursors and the valid/invalid accounting. What survives is exactly what
//! real NAND keeps: the programmed pages themselves plus their out-of-band
//! metadata (reverse-map tag, program sequence number, write-group commit
//! records, layout descriptors — see [`aftl_flash::oob`]) and the small
//! persistent kill log. [`recover`] rebuilds a scheme from that alone.
//!
//! ## Election
//!
//! Multiple physical copies of the same logical data coexist on flash (the
//! old copy is merely *invalid*, a DRAM notion that died with the cut).
//! Recovery elects winners by **last-writer-wins** over the monotonic
//! program sequence number, restricted to *committed* pages:
//!
//! * a page in write group 0 (GC migrations, data programmed outside a
//!   host write) is implicitly committed;
//! * a grouped page is committed unless its group is the **torn group** —
//!   the group that contains the globally newest non-map page yet has no
//!   commit mark anywhere. Only the last request in flight can be torn, and
//!   its group necessarily contains that newest page; any older group whose
//!   commit mark is missing lost it to a block erase, which itself proves a
//!   newer superseding program exists, so the group is treated as
//!   committed.
//!
//! One pass elects every scheme's winners, keyed by what each page's OOB
//! record says it holds — not by which scheme wrote it: a `Data` page holds
//! its tag's whole LPN, an [`OobDesc::Slots`] page (MRSM) the `(lpn, sub)`
//! pairs it lists, an [`OobDesc::Area`] page (Across-FTL) its AMT tag. An
//! LPN is sub-mapped exactly when one of its sub-regions was written after
//! its newest whole page; its other sub-regions stay at their natural
//! slots of that page.
//!
//! Areas additionally consult the persistent kill log, the only kill
//! authority: an area winner whose sequence number was deliberately killed
//! (rollback or drop committed with a later request) stays dead even if
//! every page of the killing request has since been garbage-collected.
//!
//! ## Scan vs. checkpoint
//!
//! Without a [`Checkpoint`], recovery scans the OOB of every programmed
//! page on the device. With one, it loads the checkpointed mapping image
//! and replays only the *delta*: blocks whose erase count changed since the
//! checkpoint are rescanned wholesale (their checkpointed contents are
//! gone), and otherwise only the pages programmed past the checkpointed
//! write pointer are read. Checkpoints are taken between requests, so no
//! write group ever spans one, and every sequence number in the delta is
//! newer than every checkpointed one — the image seeds the election and
//! the delta wins on conflict.
//!
//! Recovery is only supported when the crash was armed *from construction*
//! (pages programmed before arming carry no OOB records). Block retirement
//! (wear-out faults) is likewise out of scope: crash experiments run with
//! fault injection disabled.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use aftl_flash::{Allocator, FlashArray, OobDesc, PageKind, Ppn, OOB_GROUP_POISONED};

use crate::scheme::{Scheme, SchemeConfig, SchemeKind};

/// Where one logical page's four quarter-page sub-regions live (MRSM):
/// `(physical page, slot within that page)` per sub-region, `None` = never
/// written.
pub type SubLocs = [Option<(Ppn, u8)>; 4];

/// One live Across-FTL re-aligned area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaImage {
    /// The AMT slot index the area occupies. On-flash `AcrossData` pages
    /// reference their area by this index through the OOB tag, so a
    /// rebuilt table must reinstall each area at its pre-crash index.
    pub aidx: u32,
    /// First logical sector the area serves.
    pub start_sector: u64,
    /// Area length in sectors.
    pub size_sectors: u32,
    /// The physical page holding the area.
    pub appn: Ppn,
}

/// A scheme's complete logical-to-physical mapping, in the one form every
/// scheme both produces (checkpointing) and consumes (rebuild after a
/// crash). Each scheme fills the parts it holds and leaves the rest empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemeImage {
    /// `(lpn, ppn)`: LPNs held whole by one page, by ascending LPN.
    pub pages: Vec<(u64, Ppn)>,
    /// `(lpn, sub-locations)`: sub-mapped LPNs (MRSM), by ascending LPN.
    pub subs: Vec<(u64, SubLocs)>,
    /// Live re-aligned areas (Across-FTL).
    pub areas: Vec<AreaImage>,
}

impl SchemeImage {
    /// Serialized size of the image, in bytes, under a simple on-flash
    /// encoding (8 B per LPN/PPN, 1 B per slot index, 24 B per area
    /// descriptor including its `AIdx`). Determines how many flash pages
    /// a checkpoint load costs.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.pages.len() as u64 * 16
            + self.subs.len() as u64 * (8 + 4 * 9)
            + self.areas.len() as u64 * 24
    }

    /// Refuse an image with a part `scheme` cannot hold: sub-mapped LPNs
    /// unless `subs`, areas unless `areas`.
    pub(crate) fn assert_holds(&self, scheme: SchemeKind, subs: bool, areas: bool) {
        assert!(
            subs || self.subs.is_empty(),
            "{} cannot hold the image's {} sub-mapped LPNs",
            scheme.name(),
            self.subs.len()
        );
        assert!(
            areas || self.areas.is_empty(),
            "{} cannot hold the image's {} areas",
            scheme.name(),
            self.areas.len()
        );
    }
}

/// How the mapping was rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Full OOB scan of every programmed page.
    Scan,
    /// Checkpoint image load plus delta replay.
    Checkpoint,
}

impl RecoveryMode {
    /// Stable lower-case name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryMode::Scan => "scan",
            RecoveryMode::Checkpoint => "checkpoint",
        }
    }
}

/// A quiescent-point snapshot of the mapping plus enough per-block state
/// (`(erase count, programmed pages)` per block, in flat
/// `plane * blocks_per_plane + block` order) to identify the delta at
/// recovery.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The mapping image at capture time.
    pub image: SchemeImage,
    /// Per-block `(erases, programmed page count)` at capture time.
    pub blocks: Vec<(u64, u32)>,
}

impl Checkpoint {
    /// Capture the per-block state to accompany `image`.
    pub fn capture(array: &FlashArray, image: SchemeImage) -> Self {
        let g = *array.geometry();
        let mut blocks = Vec::with_capacity(g.total_blocks() as usize);
        for plane in 0..g.total_planes() {
            for s in array.block_summaries(plane) {
                blocks.push((s.erases, s.valid + s.invalid));
            }
        }
        Checkpoint { image, blocks }
    }
}

/// What a recovery cost and how it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Scan or checkpoint-delta rebuild.
    pub mode: RecoveryMode,
    /// Programmed pages whose OOB was examined.
    pub scanned_pages: u64,
    /// Delta pages replayed on top of a checkpoint image (0 in scan mode).
    pub journal_replays: u64,
    /// Modeled flash page reads charged to the rebuild (checkpoint-image
    /// load + scanned pages).
    pub rebuild_flash_reads: u64,
    /// Modeled wall-clock cost: `rebuild_flash_reads × read latency`.
    pub recovery_ns: u64,
}

/// One programmed, non-poisoned, non-map page with its OOB record.
struct Cand {
    ppn: Ppn,
    seq: u64,
    kind: PageKind,
    tag: u64,
    group: u64,
    commit: bool,
    desc: OobDesc,
}

fn collect(array: &FlashArray, ppn: Ppn, out: &mut Vec<Cand>) -> aftl_flash::Result<()> {
    let info = array.page_info(ppn)?;
    if info.seq == 0 {
        return Ok(()); // never programmed
    }
    let Some(oob) = array.oob_of(ppn) else {
        return Ok(());
    };
    if oob.group == OOB_GROUP_POISONED || info.kind == PageKind::Map {
        // Poisoned pages hold garbage; map pages are rebuilt fresh (the
        // data pages are the authority for the translation tables).
        return Ok(());
    }
    out.push(Cand {
        ppn,
        seq: info.seq,
        kind: info.kind,
        tag: info.tag,
        group: oob.group,
        commit: oob.commit,
        desc: oob.desc,
    });
    Ok(())
}

/// Keep `won` under `key` unless the holder was programmed no earlier.
fn newest<K: Hash + Eq + Copy, V>(best: &mut HashMap<K, (u64, V)>, key: K, seq: u64, won: V) {
    if best.get(&key).is_none_or(|&(held, _)| held < seq) {
        best.insert(key, (seq, won));
    }
}

/// The one election: per-LPN whole pages, per-`(lpn, sub)` sub-regions and
/// per-AMT-tag areas, each last-writer-wins over the committed pages that
/// hold it, seeded from a checkpoint image. Checkpointed pages are
/// write-once, so reading their sequence number from the array models the
/// seq a real FTL would have persisted inside the image — at zero flash
/// cost.
///
/// Areas then pass the kill log — each record kills its tag up to a seq,
/// so a retired area stays dead even when the page named by the record
/// was erased first and an older same-tag page survives as the tag's
/// winner. A checkpointed area additionally dies when any committed
/// post-checkpoint page carries its `AIdx` — migration, AMerge, and slot
/// reuse all program a newer page under the same tag, so delta activity on
/// a tag proves the checkpointed descriptor stale — or when a committed
/// post-checkpoint area winner overlaps its range (AMerge supersedes by
/// union containment without writing a kill record).
fn elect(
    array: &FlashArray,
    cands: &[Cand],
    committed: impl Fn(u64) -> bool,
    seed: Option<&SchemeImage>,
    changed: impl Fn(Ppn) -> bool,
) -> aftl_flash::Result<SchemeImage> {
    let mut pages: HashMap<u64, (u64, Ppn)> = HashMap::new();
    let mut subs: HashMap<(u64, u8), (u64, (Ppn, u8))> = HashMap::new();
    let mut areas: HashMap<u64, (u64, AreaImage)> = HashMap::new();
    // A seed entry in a block re-erased since the checkpoint is gone.
    if let Some(ck) = seed {
        for &(lpn, ppn) in ck.pages.iter().filter(|&&(_, p)| !changed(p)) {
            pages.insert(lpn, (array.page_info(ppn)?.seq, ppn));
        }
        for (lpn, locs) in &ck.subs {
            for (sub, &loc) in locs.iter().enumerate() {
                if let Some((ppn, slot)) = loc.filter(|&(p, _)| !changed(p)) {
                    let seq = array.page_info(ppn)?.seq;
                    subs.insert((*lpn, sub as u8), (seq, (ppn, slot)));
                }
            }
        }
    }
    for c in cands.iter().filter(|c| committed(c.group)) {
        match c.desc {
            OobDesc::None if c.kind == PageKind::Data => newest(&mut pages, c.tag, c.seq, c.ppn),
            OobDesc::None => {}
            OobDesc::Slots { n, slots } => {
                for (slot, &key) in slots[..usize::from(n)].iter().enumerate() {
                    newest(&mut subs, key, c.seq, (c.ppn, slot as u8));
                }
            }
            OobDesc::Area {
                start_sector,
                size_sectors,
            } => {
                let area = AreaImage {
                    aidx: c.tag as u32,
                    start_sector,
                    size_sectors,
                    appn: c.ppn,
                };
                newest(&mut areas, c.tag, c.seq, area);
            }
        }
    }

    // Sub-regions newer than their LPN's newest whole page split it; the
    // page keeps the rest at their natural slots.
    let mut split: HashMap<u64, SubLocs> = HashMap::new();
    for (&(lpn, sub), &(seq, loc)) in &subs {
        if pages.get(&lpn).is_none_or(|&(page_seq, _)| page_seq < seq) {
            split.entry(lpn).or_insert([None; 4])[usize::from(sub)] = Some(loc);
        }
    }
    let mut image = SchemeImage::default();
    for (lpn, mut locs) in split {
        if let Some((_, ppn)) = pages.remove(&lpn) {
            for (sub, loc) in locs.iter_mut().enumerate() {
                loc.get_or_insert((ppn, sub as u8));
            }
        }
        image.subs.push((lpn, locs));
    }
    image.subs.sort_unstable_by_key(|&(lpn, _)| lpn);
    image.pages = pages
        .into_iter()
        .map(|(lpn, (_, ppn))| (lpn, ppn))
        .collect();
    image.pages.sort_unstable_by_key(|&(lpn, _)| lpn);

    // tag -> highest killed seq: a candidate with that tag is dead unless
    // it was programmed after the newest kill (slot reuse).
    let mut kill_max: HashMap<u64, u64> = HashMap::new();
    for k in array.oob_kill_log() {
        let e = kill_max.entry(k.tag).or_insert(k.seq);
        *e = (*e).max(k.seq);
    }
    let killed = |tag: u64, seq: u64| kill_max.get(&tag).is_some_and(|&k| seq <= k);
    image.areas = areas
        .iter()
        .filter(|&(&tag, &(seq, _))| !killed(tag, seq))
        .map(|(_, &(_, a))| a)
        .collect();
    let fresh = image.areas.len();
    for a in seed.map_or(&[][..], |ck| &ck.areas) {
        let tag = u64::from(a.aidx);
        if changed(a.appn) || areas.contains_key(&tag) || killed(tag, array.page_info(a.appn)?.seq)
        {
            continue;
        }
        let superseded = image.areas[..fresh].iter().any(|w| {
            a.start_sector < w.start_sector + u64::from(w.size_sectors)
                && w.start_sector < a.start_sector + u64::from(a.size_sectors)
        });
        if !superseded {
            image.areas.push(*a);
        }
    }
    image
        .areas
        .sort_unstable_by_key(|a| (a.start_sector, a.appn));
    Ok(image)
}

/// Rebuild the full device state after a power cut: elect the surviving
/// mapping from OOB records (plus an optional [`Checkpoint`]), restore the
/// array's valid/invalid accounting to exactly the winner set, rebuild the
/// allocator over the recovered blocks, and construct a fresh `kind`
/// scheme preloaded with the mapping.
///
/// Returns the scheme, the allocator and the cost/mode statistics. The
/// crash must have been armed from device construction, which
/// [`FlashArray::arm_crash`] enforces; a `checkpoint` image with a part
/// the scheme cannot hold is refused by its `from_image`.
pub fn recover(
    array: &mut FlashArray,
    cfg: SchemeConfig,
    kind: SchemeKind,
    checkpoint: Option<&Checkpoint>,
) -> aftl_flash::Result<(Scheme, Allocator, RecoveryStats)> {
    assert!(
        array.crash_armed(),
        "recovery requires OOB journaling armed from construction"
    );
    let g = *array.geometry();
    let ppb = u64::from(g.pages_per_block);

    // Phase 1: scan plan. Full device without a checkpoint; otherwise only
    // blocks whose erase count moved (rescanned wholesale) plus pages past
    // each unchanged block's checkpointed write pointer.
    let mut cands: Vec<Cand> = Vec::new();
    let mut changed_blocks: HashSet<u64> = HashSet::new();
    let mut scanned_pages = 0u64;
    for plane in 0..g.total_planes() {
        for s in array.block_summaries(plane) {
            let flat = plane * u64::from(g.blocks_per_plane) + u64::from(s.addr.block);
            if s.retired {
                // Wear faults are out of crash scope; drop any checkpoint
                // entries pointing into the retired block.
                changed_blocks.insert(flat);
                continue;
            }
            let programmed = u64::from(s.valid + s.invalid);
            let start = match checkpoint {
                None => 0,
                Some(ck) => {
                    let (ck_erases, ck_prog) = ck.blocks[flat as usize];
                    if s.erases != ck_erases {
                        changed_blocks.insert(flat);
                        0
                    } else {
                        u64::from(ck_prog)
                    }
                }
            };
            for p in start..programmed {
                scanned_pages += 1;
                collect(array, Ppn(s.first_ppn.0 + p), &mut cands)?;
            }
        }
    }

    // Phase 2: commit analysis. The only group that can be uncommitted is
    // the one holding the globally newest non-map page without a commit
    // mark (see module docs for why every other unmarked group must have
    // committed).
    let mut commit_marked: HashSet<u64> = HashSet::new();
    let mut smax: Option<(u64, u64)> = None;
    for c in &cands {
        if c.commit {
            commit_marked.insert(c.group);
        }
        if smax.is_none_or(|(seq, _)| c.seq > seq) {
            smax = Some((c.seq, c.group));
        }
    }
    let torn_group = match smax {
        Some((_, group)) if group != 0 && !commit_marked.contains(&group) => Some(group),
        _ => None,
    };
    let committed = |group: u64| Some(group) != torn_group;
    let changed = |ppn: Ppn| changed_blocks.contains(&(ppn.0 / ppb));

    // Phase 3: the election.
    let image = elect(
        array,
        &cands,
        committed,
        checkpoint.map(|ck| &ck.image),
        changed,
    )?;

    // Phase 4: restore physical accounting to exactly the winner set, then
    // rebuild the allocator over the recovered blocks.
    let live: HashSet<Ppn> = image
        .pages
        .iter()
        .map(|&(_, ppn)| ppn)
        .chain(
            image
                .subs
                .iter()
                .flat_map(|(_, locs)| locs.iter().flatten().map(|&(ppn, _)| ppn)),
        )
        .chain(image.areas.iter().map(|a| a.appn))
        .collect();
    array.rebuild_page_states(|ppn| live.contains(&ppn));
    let alloc = Allocator::rebuild(array);

    // Phase 5: a fresh scheme preloaded with the recovered mapping. Map
    // caches and learned segments start cold; the PMT in DRAM is the
    // authority for correctness.
    let scheme = Scheme::from_image(kind, &g, cfg, &image);

    let page_bytes = u64::from(g.page_bytes);
    let (mode, journal_replays, ckpt_pages) = match checkpoint {
        None => (RecoveryMode::Scan, 0, 0),
        Some(ck) => {
            let bytes = ck.image.checkpoint_bytes();
            (
                RecoveryMode::Checkpoint,
                scanned_pages,
                bytes.div_ceil(page_bytes),
            )
        }
    };
    let rebuild_flash_reads = scanned_pages + ckpt_pages;
    let stats = RecoveryStats {
        mode,
        scanned_pages,
        journal_replays,
        rebuild_flash_reads,
        recovery_ns: rebuild_flash_reads * array.timing().read_ns,
    };
    Ok((scheme, alloc, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::HostRequest;
    use crate::scheme::{FtlEnv, FtlScheme};
    use crate::{AcrossFtl, MrsmFtl};
    use aftl_flash::{Geometry, TimingSpec};

    /// MRSM on a crash-armed tiny device (spp = 8, so a sub-region is 2
    /// sectors) after `writes` of `(sector, sectors)`: its own image, and
    /// the image of the scheme a full-scan rebuild hands back.
    fn mrsm_rebuilt(writes: &[(u64, u32)]) -> (SchemeImage, SchemeImage) {
        let g = Geometry::tiny();
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        array.arm_crash(u64::MAX);
        let mut alloc = Allocator::new(&array);
        let cfg = SchemeConfig::for_geometry(&g);
        let mut ftl = MrsmFtl::new(&g, cfg);
        for (t, &(sector, sectors)) in (0u64..).zip(writes) {
            let mut env = FtlEnv {
                array: &mut array,
                alloc: &mut alloc,
                now_ns: t,
            };
            ftl.write(&mut env, &HostRequest::write(t, sector, sectors))
                .unwrap();
        }
        let (rebuilt, _, _) = recover(&mut array, cfg, SchemeKind::Mrsm, None).unwrap();
        (ftl.capture_image(), rebuilt.as_dyn().capture_image())
    }

    #[test]
    fn a_sub_written_after_the_whole_page_splits_it() {
        // LPN 0 whole, then its sub-region 1 alone.
        let (before, after) = mrsm_rebuilt(&[(0, 8), (2, 2)]);
        assert_eq!(after, before);
        assert!(after.pages.is_empty() && after.areas.is_empty());
        let [(0, [Some((page, 0)), Some((packed, 0)), third, fourth])] = after.subs[..] else {
            panic!("LPN 0 is not split: {after:?}");
        };
        assert_ne!(page, packed);
        assert_eq!(
            (third, fourth),
            (Some((page, 2)), Some((page, 3))),
            "untouched subs stay at their natural slots of the page"
        );
    }

    #[test]
    fn a_whole_page_written_after_a_sub_maps_the_page() {
        // LPN 0's sub-region 1 alone, then the whole page.
        let (before, after) = mrsm_rebuilt(&[(2, 2), (0, 8)]);
        assert_eq!(after, before);
        assert!(after.subs.is_empty(), "{after:?}");
        assert!(matches!(after.pages[..], [(0, _)]), "{after:?}");
    }

    #[test]
    #[should_panic(expected = "MRSM cannot hold the image's 1 areas")]
    fn mrsm_refuses_an_image_with_areas() {
        let g = Geometry::tiny();
        let image = SchemeImage {
            areas: vec![AreaImage {
                aidx: 0,
                start_sector: 4,
                size_sectors: 8,
                appn: Ppn(3),
            }],
            ..SchemeImage::default()
        };
        MrsmFtl::from_image(&g, SchemeConfig::for_geometry(&g), &image);
    }

    #[test]
    #[should_panic(expected = "Across-FTL cannot hold the image's 1 sub-mapped LPNs")]
    fn across_refuses_an_image_with_sub_mapped_lpns() {
        let g = Geometry::tiny();
        let image = SchemeImage {
            subs: vec![(0, [Some((Ppn(3), 0)), None, None, None])],
            ..SchemeImage::default()
        };
        AcrossFtl::from_image(&g, SchemeConfig::for_geometry(&g), &image);
    }
}
