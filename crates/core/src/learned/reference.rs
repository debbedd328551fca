//! The lookup structure the membership index replaced, kept as the
//! reference the indexed model is compared against: a start-sorted
//! `Vec<Segment>` searched by a bounded backward scan, open runs of a type
//! of their own found by a linear scan, and the punch-both glue
//! `LearnedFtl` used to carry. Same [`Segment`] arithmetic, same install
//! position, same clock eviction, same LRU — only "who holds this LPN" is
//! answered the old way, by looking, and a run becomes a segment only when
//! it closes.

use super::{LearnedConfig, LearnedStats, Segment};
use aftl_flash::Ppn;

/// A run still being observed: physical pages `base_ppn + i` carrying LPNs
/// in arithmetic progression. `stride` is 0 until the second member fixes
/// it.
#[derive(Debug)]
struct PendingRun {
    start_lpn: u64,
    stride: u64,
    base_ppn: u64,
    len: u32,
    last_lpn: u64,
    from_gc: bool,
    /// Last-update tick, for LRU eviction.
    tick: u64,
}

impl PendingRun {
    /// Member index of `lpn`, if it is a member.
    fn index_of(&self, lpn: u64) -> Option<u32> {
        if self.stride == 0 {
            return (lpn == self.start_lpn).then_some(0);
        }
        if lpn < self.start_lpn {
            return None;
        }
        let d = lpn - self.start_lpn;
        if !d.is_multiple_of(self.stride) {
            return None;
        }
        let i = d / self.stride;
        (i < u64::from(self.len)).then_some(i as u32)
    }

    /// The run as an installed segment, with member `hole` punched out.
    fn into_segment(self, hole: Option<u32>) -> Segment {
        Segment {
            start_lpn: self.start_lpn,
            stride: self.stride.max(1),
            base_ppn: self.base_ppn,
            len: self.len,
            holes: hole.into_iter().collect(),
            from_gc: self.from_gc,
            open: false,
        }
    }
}

/// LPN span a segment covers: `(len − 1) × stride`.
fn span(seg: &Segment) -> u64 {
    u64::from(seg.len - 1) * seg.stride
}

#[derive(Debug)]
pub(super) struct RefStore {
    pub(super) segs: Vec<Segment>,
    /// Upper bound on any installed segment's span — bounds the backward
    /// scan in [`RefStore::locate`]. Never shrinks, and a 2-member run's
    /// span is whatever gap its LPNs had, so in practice it bounds nothing.
    max_span: u64,
    cfg: LearnedConfig,
    evict_cursor: usize,
}

impl RefStore {
    fn new(cfg: LearnedConfig) -> Self {
        RefStore {
            segs: Vec::new(),
            max_span: 0,
            cfg,
            evict_cursor: 0,
        }
    }

    fn locate(&self, lpn: u64) -> Option<(usize, u32)> {
        let mut i = self.segs.partition_point(|s| s.start_lpn <= lpn);
        while i > 0 {
            i -= 1;
            let s = &self.segs[i];
            if s.start_lpn + self.max_span < lpn {
                break;
            }
            if let Some(m) = s.index_of(lpn) {
                return Some((i, m));
            }
        }
        None
    }

    fn predict(&self, lpn: u64) -> Option<Ppn> {
        self.locate(lpn)
            .map(|(i, m)| Ppn(self.segs[i].base_ppn + u64::from(m)))
    }

    fn punch(&mut self, lpn: u64, stats: &mut LearnedStats) {
        let Some((i, m)) = self.locate(lpn) else {
            return;
        };
        let seg = &mut self.segs[i];
        let pos = seg.holes.partition_point(|&h| h < m);
        seg.holes.insert(pos, m);
        if seg.holes.len() as u32 >= self.cfg.retrain_threshold || seg.live() < self.cfg.min_run {
            self.rebuild(i);
            stats.segment_rebuilds += 1;
        }
    }

    fn rebuild(&mut self, i: usize) {
        let seg = self.segs.remove(i);
        let mut run_start: u32 = 0;
        let mut holes = seg.holes.iter().copied().peekable();
        let mut subruns: Vec<Segment> = Vec::new();
        let flush = |from: u32, to: u32, subruns: &mut Vec<Segment>| {
            if to - from >= self.cfg.min_run {
                subruns.push(Segment {
                    start_lpn: seg.start_lpn + u64::from(from) * seg.stride,
                    stride: seg.stride,
                    base_ppn: seg.base_ppn + u64::from(from),
                    len: to - from,
                    holes: Vec::new(),
                    from_gc: seg.from_gc,
                    open: false,
                });
            }
        };
        for m in 0..seg.len {
            if holes.peek() == Some(&m) {
                holes.next();
                flush(run_start, m, &mut subruns);
                run_start = m + 1;
            }
        }
        flush(run_start, seg.len, &mut subruns);
        for s in subruns {
            self.install_sorted(s);
        }
    }

    pub(super) fn install(&mut self, seg: Segment) {
        self.install_sorted(seg);
        self.enforce_capacity();
    }

    fn install_sorted(&mut self, seg: Segment) {
        self.max_span = self.max_span.max(span(&seg));
        let at = self.segs.partition_point(|s| s.start_lpn <= seg.start_lpn);
        self.segs.insert(at, seg);
    }

    fn enforce_capacity(&mut self) {
        while self.segs.len() > self.cfg.max_segments as usize {
            let n = self.segs.len();
            let mut victim = self.evict_cursor % n;
            let mut best = self.segs[victim].live();
            for k in 1..8.min(n) {
                let i = (self.evict_cursor + k) % n;
                let l = self.segs[i].live();
                if l < best {
                    best = l;
                    victim = i;
                }
            }
            self.evict_cursor = victim;
            self.segs.remove(victim);
        }
    }
}

#[derive(Debug)]
struct RefTracker {
    pending: Vec<PendingRun>,
    capacity: usize,
    tick: u64,
}

impl RefTracker {
    fn note_program(&mut self, lpn: u64, ppn: Ppn, from_gc: bool, store: &mut RefStore) {
        self.tick += 1;
        let p = ppn.0;
        if let Some(i) = self
            .pending
            .iter()
            .position(|r| r.base_ppn + u64::from(r.len) == p)
        {
            let r = &mut self.pending[i];
            let extends = if r.stride == 0 {
                lpn > r.last_lpn
            } else {
                lpn == r.last_lpn.wrapping_add(r.stride)
            };
            if extends {
                if r.stride == 0 {
                    r.stride = lpn - r.last_lpn;
                }
                r.len += 1;
                r.last_lpn = lpn;
                r.tick = self.tick;
                return;
            }
            let closed = self.pending.swap_remove(i);
            Self::close(closed, None, store);
        }
        if self.pending.len() >= self.capacity {
            let (i, _) = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.tick)
                .expect("capacity ≥ 1 ⇒ nonempty");
            let closed = self.pending.swap_remove(i);
            Self::close(closed, None, store);
        }
        self.pending.push(PendingRun {
            start_lpn: lpn,
            stride: 0,
            base_ppn: p,
            len: 1,
            last_lpn: lpn,
            from_gc,
            tick: self.tick,
        });
    }

    fn close(run: PendingRun, hole: Option<u32>, store: &mut RefStore) {
        let seg = run.into_segment(hole);
        if seg.live() >= store.cfg.min_run {
            store.install(seg);
        }
    }

    fn punch(&mut self, lpn: u64, store: &mut RefStore) {
        if let Some(i) = self.pending.iter().position(|r| r.index_of(lpn).is_some()) {
            let run = self.pending.swap_remove(i);
            let hole = run.index_of(lpn);
            Self::close(run, hole, store);
        }
    }

    fn predict(&self, lpn: u64) -> Option<Ppn> {
        self.pending
            .iter()
            .find_map(|r| r.index_of(lpn).map(|m| Ppn(r.base_ppn + u64::from(m))))
    }
}

/// The reference twin of [`super::LearnedModel`].
#[derive(Debug)]
pub(super) struct RefModel {
    pub(super) store: RefStore,
    tracker: RefTracker,
}

impl RefModel {
    pub(super) fn new(cfg: LearnedConfig, runs: usize) -> Self {
        RefModel {
            store: RefStore::new(cfg),
            tracker: RefTracker {
                pending: Vec::new(),
                capacity: runs.max(1),
                tick: 0,
            },
        }
    }

    /// Installed segments first, then open runs.
    pub(super) fn predict(&self, lpn: u64) -> Option<Ppn> {
        self.store
            .predict(lpn)
            .or_else(|| self.tracker.predict(lpn))
    }

    pub(super) fn punch(&mut self, lpn: u64, stats: &mut LearnedStats) {
        self.store.punch(lpn, stats);
        self.tracker.punch(lpn, &mut self.store);
    }

    pub(super) fn note_program(
        &mut self,
        lpn: u64,
        ppn: Ppn,
        from_gc: bool,
        stats: &mut LearnedStats,
    ) {
        self.punch(lpn, stats);
        self.tracker
            .note_program(lpn, ppn, from_gc, &mut self.store);
    }
}
