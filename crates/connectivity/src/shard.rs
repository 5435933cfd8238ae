//! Per-machine vertex-shard storage.
//!
//! [`ConnMachine`](crate::machine::ConnMachine) keeps its owned vertex block
//! in one [`Shard`]: flat structure-of-arrays slices keyed by dense local
//! slot ids (the `pvector` + property-array idiom), with per-vertex
//! tour-index lists and adjacency entries stored as segments of two shared
//! arenas. Deletes punch free holes (segment `len < cap`, or whole segments
//! abandoned on relocation); arenas compact when holes outgrow live data, so
//! the resident footprint stays linear in the shard. [`VertexState`] is the
//! materialized per-vertex form, assembled only for audits, bulk loads and
//! result extraction.
//!
//! Each structural broadcast becomes one op plan ([`LinkPlan`] or
//! [`CutPlan`]) holding its index maps; the per-vertex move ([`OpPlan`]) and
//! the per-entry annotation rewrite ([`rewrite_entry`]) are single
//! functions, and every fold over entries (replacement candidates, path
//! maxima) uses an explicit total-order tie-break, so results do not depend
//! on iteration order. Snapshot emission sorts by vertex and far endpoint,
//! so `snapshot_text` (and therefore every `state_digest`) is independent
//! of arena order and slot placement.
//!
//! The global-id ↔ slot interner is direct-mapped: a shard owns a
//! contiguous vertex range, so `slot = v - base` with an absence sentinel.
//! Migrations shift the range; the interner rebases (rare, O(block) work)
//! rather than paying a hash per access on the hot path.

use crate::messages::{CutMode, StructBroadcast, VertexInfo};
use dmpc_eulertour::indexed::{CompId, ShiftMap, TourOp};
use dmpc_eulertour::TourIx;
use dmpc_graph::{Edge, Weight, V};
use std::collections::BTreeMap;

#[cfg(test)]
mod reference;

/// An adjacency entry at one endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    /// Spanning-tree edge; `lo`/`hi` are its two tour indexes on this side.
    /// This endpoint is the child iff `lo` is even (arrival parity).
    Tree {
        /// Lower tour index on this side.
        lo: TourIx,
        /// Higher tour index on this side.
        hi: TourIx,
    },
    /// Non-tree edge; `cached` is some current tour index of the far
    /// endpoint (0 iff the far endpoint is a singleton) and `far_comp` is
    /// the far endpoint's component id. Between a cut and its replacement
    /// link, a non-tree edge can *cross* the two sides, so all cached-index
    /// maps are keyed by `far_comp`, not the owner's component.
    NonTree {
        /// Cached far-endpoint tour index.
        cached: TourIx,
        /// Far endpoint's component id.
        far_comp: CompId,
    },
}

/// Per-owned-vertex state, materialized: the shard only assembles it for
/// audits, bulk loads and result extraction, never on the update path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexState {
    /// Component id (= current root vertex of its tree).
    pub comp: CompId,
    /// Component size in vertices.
    pub size: u64,
    /// Sorted tour indexes of this vertex.
    pub idx: Vec<TourIx>,
    /// neighbor -> (kind, weight).
    pub adj: BTreeMap<V, (EntryKind, Weight)>,
}

/// What a structural-op sweep learned while applying to the local shard.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct ApplyOutcome {
    /// Local best replacement candidate (searching cuts only).
    pub best: Option<(Edge, Weight)>,
    /// This machine still owns >= 1 vertex of the cut's surviving side.
    pub owns_parent: bool,
    /// This machine owns >= 1 vertex of the cut's detached side.
    pub owns_child: bool,
}

// ----- shared structural-op mathematics ---------------------------------
//
// The sweep's index arithmetic lives exactly once, in the two op plans
// below: a broadcast becomes its index maps once, and the shard supplies
// only the iteration around them. Every map is a `ShiftMap` (at most two
// translated pieces). Link and cut maps are monotone, so a vertex's sorted
// index list stays sorted when mapped in place; only a reroot rotates it.

/// How one member vertex of an op's component moves.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VertexMove {
    /// Map of the vertex's own tour indexes, and so of its tree entries,
    /// whose two indexes are always among the vertex's own.
    map: ShiftMap,
    /// The map is a reroot rotation: mapped lists rotate, tree entries may
    /// swap `lo`/`hi`.
    rotates: bool,
    /// Component id after the op.
    comp: CompId,
    /// Component size after the op.
    size: u64,
    /// Searching cuts: the vertex's side (`true` = detached). A non-tree
    /// entry into the cut component that ends on the other side is a
    /// replacement candidate.
    search_side: Option<bool>,
}

impl VertexMove {
    /// Maps a sorted index list in place, keeping it sorted.
    fn apply(&self, idx: &mut [TourIx]) {
        let split = if self.rotates {
            idx.partition_point(|&i| i < self.map.at)
        } else {
            0
        };
        for i in idx.iter_mut() {
            *i = self.map.apply(*i);
        }
        idx.rotate_left(split);
    }
}

/// One broadcast's main op (with its reroot), turned into index maps once.
pub(crate) trait OpPlan {
    /// True iff the op moves the vertices of component `c` and rewrites the
    /// non-tree entries whose far endpoint lies in `c`.
    fn touches(&self, c: CompId) -> bool;
    /// True iff `v` is an endpoint of the op's edge, whose index count
    /// changes.
    fn is_endpoint(&self, v: V) -> bool;
    /// The move of member `v` of component `c` with component size `size`,
    /// whose sorted indexes are `idx` (endpoints: after the op's removals).
    fn member_move(&self, v: V, c: CompId, size: u64, idx: &[TourIx]) -> VertexMove;
    /// Moves an endpoint's index list, dropping or adding the op edge's own
    /// indexes.
    fn endpoint_move(&self, v: V, c: CompId, size: u64, idx: &mut Vec<TourIx>) -> VertexMove;
    /// Rewrites the cached far index and far component of a non-tree entry
    /// into a touched component. `side` is the owning vertex's
    /// [`VertexMove::search_side`]; returns true iff the entry is a crossing
    /// replacement candidate.
    fn rewrite_cached(
        &self,
        far: V,
        cached: &mut TourIx,
        far_comp: &mut CompId,
        side: Option<bool>,
    ) -> bool;
    /// A cut's (surviving, detached) component ids; [`COMP_NONE`] twice for
    /// a link.
    fn split(&self) -> (CompId, CompId);

    /// Moves a non-endpoint member's index list in place.
    fn move_in_place(&self, v: V, c: CompId, size: u64, idx: &mut [TourIx]) -> VertexMove {
        let mv = self.member_move(v, c, size, idx);
        mv.apply(idx);
        mv
    }
}

/// A link of `b`'s tree (rerooted at `y` first, if needed) below `x` in `a`.
pub(crate) struct LinkPlan {
    a: CompId,
    b: CompId,
    x: V,
    y: V,
    fx: TourIx,
    elen_b: TourIx,
    merged_size: u64,
    /// `a`'s map: indexes after the splice point move past `b`'s tour.
    map_a: ShiftMap,
    /// `b`'s map: the reroot rotation (if any), then the splice offset.
    map_b: ShiftMap,
    rerooted: bool,
}

impl LinkPlan {
    fn new(b: &StructBroadcast) -> Self {
        let TourOp::Link {
            a,
            b: bc,
            x,
            y,
            fx,
            elen_b,
        } = b.main
        else {
            unreachable!("link plan of a non-link op")
        };
        let map_b = match b.reroot {
            None => ShiftMap::shift(fx + 2),
            Some(TourOp::Reroot {
                comp, elen, l_y, ..
            }) => {
                assert_eq!(comp, bc, "a reroot only ever turns the absorbed side");
                ShiftMap::reroot(elen, l_y).then_shift(fx + 2)
            }
            Some(op) => unreachable!("{op:?} is not a reroot"),
        };
        LinkPlan {
            a,
            b: bc,
            x,
            y,
            fx,
            elen_b,
            merged_size: b.merged_size,
            map_a: ShiftMap::shift_from(fx + 1, elen_b + 4),
            map_b,
            rerooted: b.reroot.is_some(),
        }
    }
}

impl OpPlan for LinkPlan {
    #[inline]
    fn touches(&self, c: CompId) -> bool {
        c == self.a || c == self.b
    }

    #[inline]
    fn is_endpoint(&self, v: V) -> bool {
        v == self.x || v == self.y
    }

    #[inline]
    fn member_move(&self, _v: V, c: CompId, _size: u64, _idx: &[TourIx]) -> VertexMove {
        let from_b = c == self.b;
        VertexMove {
            map: if from_b { self.map_b } else { self.map_a },
            rotates: from_b && self.rerooted,
            comp: self.a,
            size: self.merged_size,
            search_side: None,
        }
    }

    fn endpoint_move(&self, v: V, c: CompId, size: u64, idx: &mut Vec<TourIx>) -> VertexMove {
        let mv = self.move_in_place(v, c, size, idx);
        // The new edge's four tour positions: x's two around the spliced
        // tour, y's two at its ends.
        if c == self.b {
            if v == self.y {
                idx.push(self.fx + 2);
                idx.push(self.fx + self.elen_b + 3);
            }
        } else if v == self.x {
            idx.push(self.fx + 1);
            idx.push(self.fx + self.elen_b + 4);
        }
        idx.sort_unstable();
        mv
    }

    #[inline]
    fn rewrite_cached(
        &self,
        _far: V,
        cached: &mut TourIx,
        far_comp: &mut CompId,
        _side: Option<bool>,
    ) -> bool {
        if *far_comp == self.b {
            // cached == 0 means the far endpoint was a singleton, i.e. it is
            // the link's y, whose first new index is fx+2 (== map_b(0)).
            *cached = self.map_b.apply(*cached);
            *far_comp = self.a;
        } else if *cached == 0 {
            // Far endpoint was a singleton = the link's x; its first new
            // index is fx+1 (fx = 0).
            *cached = self.fx + 1;
        } else {
            *cached = self.map_a.apply(*cached);
        }
        false
    }

    fn split(&self) -> (CompId, CompId) {
        (COMP_NONE, COMP_NONE)
    }
}

/// A cut of tree edge `(x, y)`, `x` the parent: `y`'s subtree, positions
/// `fy..=ly`, becomes component `new_comp`.
pub(crate) struct CutPlan {
    comp: CompId,
    new_comp: CompId,
    x: V,
    y: V,
    fy: TourIx,
    ly: TourIx,
    x_after: TourIx,
    /// Size of the detached side.
    k_sub: u64,
    /// Collect replacement candidates (the cut has a rendezvous).
    search: bool,
    /// Detached side: every index moves down by `fy`.
    inside: ShiftMap,
    /// Surviving side: indexes after the subtree close its gap.
    outside: ShiftMap,
}

impl CutPlan {
    fn new(b: &StructBroadcast) -> Self {
        let TourOp::Cut {
            comp,
            x,
            y,
            fy,
            ly,
            new_comp,
        } = b.main
        else {
            unreachable!("cut plan of a non-cut op")
        };
        debug_assert!(b.reroot.is_none(), "a cut carries no reroot");
        // The subtree's span plus the edge's two parent-side positions.
        let span = (ly - fy + 1) + 2;
        CutPlan {
            comp,
            new_comp,
            x,
            y,
            fy,
            ly,
            x_after: b.x_after,
            k_sub: (ly - fy).div_ceil(4),
            search: b.rendezvous.is_some(),
            inside: ShiftMap::shift(fy.wrapping_neg()),
            outside: ShiftMap::shift_from(ly + 1, span.wrapping_neg()),
        }
    }

    /// True iff tour position `i` lies strictly inside the cut subtree.
    #[inline]
    fn inside(&self, i: TourIx) -> bool {
        i > self.fy && i < self.ly
    }
}

impl OpPlan for CutPlan {
    #[inline]
    fn touches(&self, c: CompId) -> bool {
        c == self.comp
    }

    #[inline]
    fn is_endpoint(&self, v: V) -> bool {
        v == self.x || v == self.y
    }

    #[inline]
    fn member_move(&self, v: V, _c: CompId, size: u64, idx: &[TourIx]) -> VertexMove {
        // A vertex's indexes all lie on one side. One with none left is a
        // singleton; the child endpoint y forms the new component alone.
        let detached = match idx.first() {
            Some(&i) => self.inside(i),
            None => v == self.y,
        };
        debug_assert!(
            idx.iter().all(|&i| self.inside(i) == detached),
            "indexes of {v} straddle the cut"
        );
        VertexMove {
            map: if detached { self.inside } else { self.outside },
            rotates: false,
            comp: if detached { self.new_comp } else { self.comp },
            size: if detached {
                self.k_sub
            } else {
                size - self.k_sub
            },
            search_side: self.search.then_some(detached),
        }
    }

    fn endpoint_move(&self, v: V, c: CompId, size: u64, idx: &mut Vec<TourIx>) -> VertexMove {
        // Drop the cut edge's four tour positions.
        let gone = if v == self.x {
            [self.fy - 1, self.ly + 1]
        } else {
            [self.fy, self.ly]
        };
        idx.retain(|i| !gone.contains(i));
        self.move_in_place(v, c, size, idx)
    }

    #[inline]
    fn rewrite_cached(
        &self,
        far: V,
        cached: &mut TourIx,
        far_comp: &mut CompId,
        side: Option<bool>,
    ) -> bool {
        // Classify the far side, repairing the dying indexes of the cut
        // edge's endpoints.
        if far == self.y {
            *far_comp = self.new_comp;
            *cached = if self.ly == self.fy + 1 { 0 } else { 1 };
        } else if far == self.x {
            *cached = self.x_after;
        } else if self.inside(*cached) {
            *far_comp = self.new_comp;
            *cached = self.inside.apply(*cached);
        } else {
            *cached = self.outside.apply(*cached);
        }
        side.is_some_and(|detached| (*far_comp == self.new_comp) != detached)
    }

    fn split(&self) -> (CompId, CompId) {
        (self.comp, self.new_comp)
    }
}

/// Rewrites one adjacency entry — tree tag `tree`, annotation words `a`
/// (`lo` / `cached`) and `b` (`hi` / `far_comp`) — of a vertex that moved
/// as `mv` (`None`: it is not in the op's component). Returns true iff the
/// entry is a crossing replacement candidate of a searching cut.
///
/// Tree entries always live in the owner's component's index space;
/// non-tree cached indexes live in `far_comp`'s index space (the two can
/// differ transiently between a cut and its reconnecting link). A cut
/// edge's own tree entries are mapped like any other; the materialization
/// step then removes or replaces them.
#[inline]
fn rewrite_entry<P: OpPlan>(
    p: &P,
    mv: Option<&VertexMove>,
    far: V,
    tree: bool,
    a: &mut u64,
    b: &mut u64,
) -> bool {
    if tree {
        if let Some(mv) = mv {
            let (lo, hi) = (mv.map.apply(*a), mv.map.apply(*b));
            (*a, *b) = if mv.rotates {
                (lo.min(hi), lo.max(hi))
            } else {
                (lo, hi)
            };
        }
        return false;
    }
    let mut fc = *b as CompId;
    if !p.touches(fc) {
        return false;
    }
    let side = mv.and_then(|mv| mv.search_side);
    let crossing = p.rewrite_cached(far, a, &mut fc, side);
    *b = fc as u64;
    crossing
}

/// Folds a crossing candidate into the running minimum by (weight, edge).
#[inline]
fn offer(best: &mut Option<(Weight, Edge)>, w: Weight, v: V, far: V) {
    let cand = (w, Edge::new(v, far));
    if best.is_none_or(|cur| cand < cur) {
        *best = Some(cand);
    }
}

impl ApplyOutcome {
    /// Notes which side of a cut (`split`) a vertex of component `c` is on.
    #[inline]
    fn note_side(&mut self, (parent, child): (CompId, CompId), c: CompId) {
        if c == parent {
            self.owns_parent = true;
        } else if c == child {
            self.owns_child = true;
        }
    }
}

// ----- the shard --------------------------------------------------------

/// One segment of an arena: a vertex's entries live in
/// `arena[start..start+len]`, with `cap - len` free words of headroom
/// before the segment must relocate to the arena tail (leaving a hole).
#[derive(Clone, Copy, Debug, Default)]
struct Seg {
    start: u32,
    len: u32,
    cap: u32,
}

/// Absence sentinel in the `comp` property array (component ids are vertex
/// ids, which stay far below `u32::MAX`).
const COMP_NONE: CompId = CompId::MAX;
/// Tag bit packed into the adjacency `far` array: set = tree entry.
const TREE_BIT: u32 = 1 << 31;
/// Headroom granted when an adjacency segment relocates.
const ADJ_HEADROOM: u32 = 2;
/// Headroom granted when a tour segment relocates (links grow a vertex's
/// index list by up to 2).
const TOUR_HEADROOM: u32 = 4;

/// A machine's owned vertex shard: property arrays indexed by
/// `slot = v - base`, plus two arenas (tour indexes, adjacency entries)
/// addressed by per-slot segments.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    /// Direct-mapped interner base: global vertex `v` lives in slot
    /// `v - base`.
    base: V,
    /// Component id per slot; [`COMP_NONE`] marks an absent slot.
    comp: Vec<CompId>,
    /// Component size per slot (component sizes are at most `n`, which
    /// fits `u32` since vertex ids do).
    size: Vec<u32>,
    /// Tour-index segment per slot (into `tour`).
    tpos: Vec<Seg>,
    /// Tour-index arena.
    tour: Vec<TourIx>,
    /// Live words in `tour` (sum of segment lens; the rest are holes).
    tour_live: usize,
    /// Adjacency segment per slot (into the four entry arrays).
    apos: Vec<Seg>,
    /// Far endpoint | [`TREE_BIT`], per entry.
    afar: Vec<u32>,
    /// Edge weight, per entry.
    aw: Vec<Weight>,
    /// `lo` (tree) or `cached` (non-tree), per entry.
    aa: Vec<u64>,
    /// `hi` (tree) or `far_comp` (non-tree), per entry.
    ab: Vec<u64>,
    /// Live entries in the adjacency arena.
    adj_live: usize,
    /// Soft resident budget in words (0 = unlimited): a mutation that
    /// leaves the shard above it forces a full arena compaction, so slack
    /// never turns a shard that *would* fit compactly into a capacity
    /// violation.
    soft_cap: usize,
    /// Reusable copy-out buffer for the op edge's endpoints in the sweep.
    scratch: Vec<TourIx>,
}

#[inline]
fn decode_kind(tagged: u32, a: u64, b: u64) -> EntryKind {
    if tagged & TREE_BIT != 0 {
        EntryKind::Tree { lo: a, hi: b }
    } else {
        EntryKind::NonTree {
            cached: a,
            far_comp: b as CompId,
        }
    }
}

#[inline]
fn encode_kind(kind: &EntryKind) -> (bool, u64, u64) {
    match *kind {
        EntryKind::Tree { lo, hi } => (true, lo, hi),
        EntryKind::NonTree { cached, far_comp } => (false, cached, far_comp as u64),
    }
}

impl Shard {
    /// A fresh shard of singleton vertices `lo..hi`.
    pub fn new_range(lo: V, hi: V) -> Self {
        let n = (hi - lo) as usize;
        Shard {
            base: lo,
            comp: (lo..hi).collect(),
            size: vec![1; n],
            tpos: vec![Seg::default(); n],
            apos: vec![Seg::default(); n],
            ..Default::default()
        }
    }

    #[inline]
    fn slot_of(&self, v: V) -> Option<usize> {
        let i = v.checked_sub(self.base)? as usize;
        (i < self.comp.len() && self.comp[i] != COMP_NONE).then_some(i)
    }

    #[inline]
    fn slot(&self, v: V) -> usize {
        self.slot_of(v).expect("vertex not owned by this machine")
    }

    /// Grows the slot range to cover `v` (installs an absent slot).
    fn ensure_slot(&mut self, v: V) -> usize {
        debug_assert!(v < TREE_BIT, "vertex id collides with the tree tag bit");
        if self.comp.is_empty() {
            self.base = v;
        }
        if v < self.base {
            let k = (self.base - v) as usize;
            self.comp.splice(0..0, std::iter::repeat_n(COMP_NONE, k));
            self.size.splice(0..0, std::iter::repeat_n(0u32, k));
            self.tpos
                .splice(0..0, std::iter::repeat_n(Seg::default(), k));
            self.apos
                .splice(0..0, std::iter::repeat_n(Seg::default(), k));
            self.base = v;
        }
        let i = (v - self.base) as usize;
        while self.comp.len() <= i {
            self.comp.push(COMP_NONE);
            self.size.push(0);
            self.tpos.push(Seg::default());
            self.apos.push(Seg::default());
        }
        i
    }

    /// Drops absent slots at both ends of the range (after migrations move
    /// a prefix/suffix away) so the resident footprint tracks the shard.
    fn trim_slots(&mut self) {
        let last = match self.comp.iter().rposition(|&c| c != COMP_NONE) {
            Some(p) => p,
            None => {
                self.base = 0;
                self.comp.clear();
                self.size.clear();
                self.tpos.clear();
                self.apos.clear();
                return;
            }
        };
        self.comp.truncate(last + 1);
        self.size.truncate(last + 1);
        self.tpos.truncate(last + 1);
        self.apos.truncate(last + 1);
        let first = self.comp.iter().position(|&c| c != COMP_NONE).unwrap();
        if first > 0 {
            self.comp.drain(..first);
            self.size.drain(..first);
            self.tpos.drain(..first);
            self.apos.drain(..first);
            self.base += first as V;
        }
    }

    #[inline]
    fn tour_slice(&self, slot: usize) -> &[TourIx] {
        let s = self.tpos[slot];
        &self.tour[s.start as usize..(s.start + s.len) as usize]
    }

    /// Overwrites a slot's tour segment, relocating to the arena tail (with
    /// headroom) when it outgrows its capacity.
    fn tour_store(&mut self, slot: usize, vals: &[TourIx], headroom: u32) {
        let s = self.tpos[slot];
        self.tour_live = self.tour_live - s.len as usize + vals.len();
        if vals.len() as u32 <= s.cap {
            self.tour[s.start as usize..s.start as usize + vals.len()].copy_from_slice(vals);
            self.tpos[slot].len = vals.len() as u32;
        } else {
            let start = self.tour.len() as u32;
            let cap = vals.len() as u32 + headroom;
            self.tour.extend_from_slice(vals);
            self.tour.resize(self.tour.len() + headroom as usize, 0);
            self.tpos[slot] = Seg {
                start,
                len: vals.len() as u32,
                cap,
            };
        }
        self.maybe_compact_tour();
    }

    fn maybe_compact_tour(&mut self) {
        // Slack is a fraction of the live size (amortized O(1) per op), kept
        // small in absolute terms too: resident memory is metered against
        // the machine capacity S, so holes are not free.
        if self.tour.len() <= self.tour_live + self.tour_live / 8 + 16 {
            return;
        }
        self.compact_tour();
    }

    fn compact_tour(&mut self) {
        let mut tour = Vec::with_capacity(self.tour_live);
        for s in self.tpos.iter_mut() {
            let start = tour.len() as u32;
            tour.extend_from_slice(&self.tour[s.start as usize..(s.start + s.len) as usize]);
            *s = Seg {
                start,
                len: s.len,
                cap: s.len,
            };
        }
        self.tour = tour;
    }

    #[inline]
    fn adj_find(&self, slot: usize, far: V) -> Option<usize> {
        let s = self.apos[slot];
        (s.start as usize..(s.start + s.len) as usize).find(|&i| self.afar[i] & !TREE_BIT == far)
    }

    /// Appends one entry to a slot's adjacency segment, relocating (with
    /// headroom) on overflow.
    fn adj_push(&mut self, slot: usize, far: V, kind: &EntryKind, w: Weight, headroom: u32) {
        let (tree, a, b) = encode_kind(kind);
        let tagged = far | if tree { TREE_BIT } else { 0 };
        let s = self.apos[slot];
        if s.len < s.cap {
            let i = (s.start + s.len) as usize;
            self.afar[i] = tagged;
            self.aw[i] = w;
            self.aa[i] = a;
            self.ab[i] = b;
            self.apos[slot].len += 1;
        } else if (s.start + s.cap) as usize == self.afar.len() {
            // The segment ends at the arena tail: grow in place, no hole.
            // This is the common case during snapshot restores, where a
            // vertex's entries stream in back-to-back.
            self.afar.push(tagged);
            self.aw.push(w);
            self.aa.push(a);
            self.ab.push(b);
            self.apos[slot].len += 1;
            self.apos[slot].cap += 1;
        } else {
            let start = self.afar.len() as u32;
            let cap = s.len + 1 + headroom;
            for k in s.start as usize..(s.start + s.len) as usize {
                let (f, ww, va, vb) = (self.afar[k], self.aw[k], self.aa[k], self.ab[k]);
                self.afar.push(f);
                self.aw.push(ww);
                self.aa.push(va);
                self.ab.push(vb);
            }
            self.afar.push(tagged);
            self.aw.push(w);
            self.aa.push(a);
            self.ab.push(b);
            let pad = (cap - s.len - 1) as usize;
            self.afar.resize(self.afar.len() + pad, 0);
            self.aw.resize(self.aw.len() + pad, 0);
            self.aa.resize(self.aa.len() + pad, 0);
            self.ab.resize(self.ab.len() + pad, 0);
            self.apos[slot] = Seg {
                start,
                len: s.len + 1,
                cap,
            };
            self.maybe_compact_adj();
        }
        self.adj_live += 1;
    }

    /// Writes a whole (empty) adjacency segment at once with an exact cap —
    /// bulk loading, where per-entry pushes would leave relocation holes.
    fn adj_store(&mut self, slot: usize, entries: &BTreeMap<V, (EntryKind, Weight)>) {
        let s = self.apos[slot];
        debug_assert_eq!(s.len, 0, "adj_store over a non-empty segment");
        let n = entries.len() as u32;
        let base = if n <= s.cap {
            self.apos[slot].len = n;
            s.start as usize
        } else {
            let start = self.afar.len();
            self.afar.resize(start + n as usize, 0);
            self.aw.resize(start + n as usize, 0);
            self.aa.resize(start + n as usize, 0);
            self.ab.resize(start + n as usize, 0);
            self.apos[slot] = Seg {
                start: start as u32,
                len: n,
                cap: n,
            };
            start
        };
        for (j, (&far, (kind, w))) in entries.iter().enumerate() {
            let (tree, a, b) = encode_kind(kind);
            let i = base + j;
            self.afar[i] = far | if tree { TREE_BIT } else { 0 };
            self.aw[i] = *w;
            self.aa[i] = a;
            self.ab[i] = b;
        }
        self.adj_live += n as usize;
        self.maybe_compact_adj();
    }

    fn maybe_compact_adj(&mut self) {
        if self.afar.len() <= self.adj_live + self.adj_live / 8 + 16 {
            return;
        }
        self.compact_adj();
    }

    /// Compacts both arenas if the shard sits above its soft budget while
    /// holding any slack. Steady-state mutations never pay this; it only
    /// fires when a shard is near the machine capacity `S`, where the
    /// metered footprint must match the compact one.
    fn enforce_soft_cap(&mut self) {
        if self.soft_cap == 0 {
            return;
        }
        if self.tour.len() == self.tour_live && self.afar.len() == self.adj_live {
            return;
        }
        if self.memory_words() <= self.soft_cap {
            return;
        }
        self.compact_tour();
        self.compact_adj();
    }

    fn compact_adj(&mut self) {
        let mut afar = Vec::with_capacity(self.adj_live);
        let mut aw = Vec::with_capacity(self.adj_live);
        let mut aa = Vec::with_capacity(self.adj_live);
        let mut ab = Vec::with_capacity(self.adj_live);
        for s in self.apos.iter_mut() {
            let start = afar.len() as u32;
            for i in s.start as usize..(s.start + s.len) as usize {
                afar.push(self.afar[i]);
                aw.push(self.aw[i]);
                aa.push(self.aa[i]);
                ab.push(self.ab[i]);
            }
            *s = Seg {
                start,
                len: s.len,
                cap: s.len,
            };
        }
        self.afar = afar;
        self.aw = aw;
        self.aa = aa;
        self.ab = ab;
    }

    /// Removes a slot entirely (migration), freeing its segments as holes.
    fn remove_slot(&mut self, slot: usize) {
        self.comp[slot] = COMP_NONE;
        self.size[slot] = 0;
        self.tour_live -= self.tpos[slot].len as usize;
        self.adj_live -= self.apos[slot].len as usize;
        self.tpos[slot] = Seg::default();
        self.apos[slot] = Seg::default();
    }

    /// Sorted `(far, kind, weight)` entries of one slot (snapshots).
    fn sorted_entries(&self, slot: usize) -> Vec<(V, EntryKind, Weight)> {
        let s = self.apos[slot];
        let mut es: Vec<(V, EntryKind, Weight)> = (s.start as usize..(s.start + s.len) as usize)
            .map(|i| {
                (
                    self.afar[i] & !TREE_BIT,
                    decode_kind(self.afar[i], self.aa[i], self.ab[i]),
                    self.aw[i],
                )
            })
            .collect();
        es.sort_unstable_by_key(|e| e.0);
        es
    }

    fn materialize(&self, slot: usize) -> VertexState {
        VertexState {
            comp: self.comp[slot],
            size: self.size[slot] as u64,
            idx: self.tour_slice(slot).to_vec(),
            adj: self
                .sorted_entries(slot)
                .into_iter()
                .map(|(far, kind, w)| (far, (kind, w)))
                .collect(),
        }
    }

    /// Applies one op plan to every owned slot. A member's tour segment is
    /// mapped in place; only the op edge's endpoints, whose index counts
    /// change, go through the scratch copy and `tour_store`.
    fn sweep<P: OpPlan>(&mut self, p: &P) -> ApplyOutcome {
        let mut best: Option<(Weight, Edge)> = None;
        let mut outcome = ApplyOutcome::default();
        for slot in 0..self.comp.len() {
            let c = self.comp[slot];
            if c == COMP_NONE {
                continue;
            }
            let v = self.base + slot as V;
            let mv = p.touches(c).then(|| self.move_slot(p, slot, v, c));
            outcome.note_side(p.split(), self.comp[slot]);
            let s = self.apos[slot];
            for i in s.start as usize..(s.start + s.len) as usize {
                let tagged = self.afar[i];
                let far = tagged & !TREE_BIT;
                let tree = tagged & TREE_BIT != 0;
                if rewrite_entry(p, mv.as_ref(), far, tree, &mut self.aa[i], &mut self.ab[i]) {
                    offer(&mut best, self.aw[i], v, far);
                }
            }
        }
        outcome.best = best.map(|(w, e)| (e, w));
        outcome
    }

    /// Moves member `v` (slot `slot`, component `c`): its tour segment,
    /// component id and size.
    fn move_slot<P: OpPlan>(&mut self, p: &P, slot: usize, v: V, c: CompId) -> VertexMove {
        let size = self.size[slot] as u64;
        let mv = if p.is_endpoint(v) {
            let mut idx = std::mem::take(&mut self.scratch);
            idx.clear();
            idx.extend_from_slice(self.tour_slice(slot));
            let mv = p.endpoint_move(v, c, size, &mut idx);
            self.tour_store(slot, &idx, TOUR_HEADROOM);
            self.scratch = idx;
            mv
        } else {
            let t = self.tpos[slot];
            p.move_in_place(
                v,
                c,
                size,
                &mut self.tour[t.start as usize..(t.start + t.len) as usize],
            )
        };
        self.comp[slot] = mv.comp;
        self.size[slot] = mv.size as u32;
        mv
    }

    /// Drops all vertex state (the soft budget is retained).
    pub fn clear(&mut self) {
        *self = Shard {
            soft_cap: self.soft_cap,
            ..Shard::default()
        }
    }

    /// Sets the soft resident budget in words. Mutations that leave the
    /// shard above it force a full arena compaction.
    pub fn set_soft_cap(&mut self, words: usize) {
        self.soft_cap = words;
    }

    pub fn contains(&self, v: V) -> bool {
        self.slot_of(v).is_some()
    }

    pub fn comp_of(&self, v: V) -> CompId {
        self.comp[self.slot(v)]
    }

    pub fn size_of(&self, v: V) -> u64 {
        self.size[self.slot(v)] as u64
    }

    pub fn f_of(&self, v: V) -> TourIx {
        self.idx_of(v).first().copied().unwrap_or(0)
    }

    #[cfg(test)]
    pub fn l_of(&self, v: V) -> TourIx {
        self.idx_of(v).last().copied().unwrap_or(0)
    }

    /// The vertex's tour-index list (the cut flow derives the surviving
    /// parent index from it).
    pub fn idx_of(&self, v: V) -> &[TourIx] {
        self.tour_slice(self.slot(v))
    }

    /// O(1)-word wire summary of one vertex.
    pub fn info(&self, v: V) -> VertexInfo {
        let slot = self.slot(v);
        let t = self.tour_slice(slot);
        VertexInfo {
            v,
            comp: self.comp[slot],
            size: self.size[slot] as u64,
            f: t.first().copied().unwrap_or(0),
            l: t.last().copied().unwrap_or(0),
        }
    }

    /// One adjacency entry, if present (panics when `v` is not owned).
    pub fn adj_get(&self, v: V, far: V) -> Option<(EntryKind, Weight)> {
        self.adj_find(self.slot(v), far).map(|i| {
            (
                decode_kind(self.afar[i], self.aa[i], self.ab[i]),
                self.aw[i],
            )
        })
    }

    /// Inserts or overwrites one adjacency entry.
    pub fn adj_set(&mut self, v: V, far: V, kind: EntryKind, w: Weight) {
        let slot = self.slot(v);
        match self.adj_find(slot, far) {
            Some(i) => {
                let (tree, a, b) = encode_kind(&kind);
                self.afar[i] = far | if tree { TREE_BIT } else { 0 };
                self.aw[i] = w;
                self.aa[i] = a;
                self.ab[i] = b;
            }
            None => self.adj_push(slot, far, &kind, w, ADJ_HEADROOM),
        }
        self.enforce_soft_cap();
    }

    /// Removes one adjacency entry (no-op when absent).
    pub fn adj_remove(&mut self, v: V, far: V) {
        let slot = self.slot(v);
        if let Some(i) = self.adj_find(slot, far) {
            let sg = self.apos[slot];
            let last = (sg.start + sg.len - 1) as usize;
            self.afar[i] = self.afar[last];
            self.aw[i] = self.aw[last];
            self.aa[i] = self.aa[last];
            self.ab[i] = self.ab[last];
            self.apos[slot].len -= 1;
            self.adj_live -= 1;
            self.maybe_compact_adj();
        }
        self.enforce_soft_cap();
    }

    /// Applies a structural op to all owned state; returns the local
    /// replacement candidate and split-side membership (cuts). The sweep
    /// runs the op's plan over the shard; the cut/link entry
    /// materialization after it is the shared protocol step.
    pub fn apply_struct(&mut self, b: &StructBroadcast) -> ApplyOutcome {
        let outcome = match b.main {
            TourOp::Link { .. } => self.sweep(&LinkPlan::new(b)),
            TourOp::Cut { .. } => self.sweep(&CutPlan::new(b)),
            TourOp::Reroot { .. } => unreachable!("reroot is never a main op"),
        };
        self.materialize_edge(b);
        outcome
    }

    /// Materializes the linked or cut edge's entries at owned endpoints.
    fn materialize_edge(&mut self, b: &StructBroadcast) {
        match b.main {
            TourOp::Link {
                x, y, fx, elen_b, ..
            } => {
                if self.contains(x) {
                    self.adj_set(
                        x,
                        y,
                        EntryKind::Tree {
                            lo: fx + 1,
                            hi: fx + elen_b + 4,
                        },
                        b.weight,
                    );
                }
                if self.contains(y) {
                    self.adj_set(
                        y,
                        x,
                        EntryKind::Tree {
                            lo: fx + 2,
                            hi: fx + elen_b + 3,
                        },
                        b.weight,
                    );
                }
            }
            TourOp::Cut {
                comp,
                x,
                y,
                fy,
                ly,
                new_comp,
            } => match b.cut_mode {
                CutMode::Remove => {
                    if self.contains(x) {
                        self.adj_remove(x, y);
                    }
                    if self.contains(y) {
                        self.adj_remove(y, x);
                    }
                }
                CutMode::Demote => {
                    // The edge stays in the graph as a (crossing, until the
                    // follow-up link) non-tree edge.
                    let child_singleton = ly == fy + 1;
                    if self.contains(x) {
                        let w = self.adj_get(x, y).map(|(_, w)| w).unwrap_or(0);
                        self.adj_set(
                            x,
                            y,
                            EntryKind::NonTree {
                                cached: if child_singleton { 0 } else { 1 },
                                far_comp: new_comp,
                            },
                            w,
                        );
                    }
                    if self.contains(y) {
                        let w = self.adj_get(y, x).map(|(_, w)| w).unwrap_or(0);
                        self.adj_set(
                            y,
                            x,
                            EntryKind::NonTree {
                                cached: b.x_after,
                                far_comp: comp,
                            },
                            w,
                        );
                    }
                }
            },
            TourOp::Reroot { .. } => unreachable!("reroot is never a main op"),
        }
        self.enforce_soft_cap();
    }

    /// The max-weight locally-owned tree edge on the path between the two
    /// spans (ties broken toward the smaller edge for determinism; the fold
    /// is a strict total order, so iteration order cannot matter).
    pub fn path_max(
        &self,
        comp: CompId,
        fx: TourIx,
        lx: TourIx,
        fy: TourIx,
        ly: TourIx,
    ) -> Option<(Edge, Weight)> {
        let mut best: Option<(Weight, Edge)> = None;
        for slot in 0..self.comp.len() {
            if self.comp[slot] != comp {
                continue;
            }
            let v = self.base + slot as V;
            let sg = self.apos[slot];
            for i in sg.start as usize..(sg.start + sg.len) as usize {
                let (lo, hi) = (self.aa[i], self.ab[i]);
                // Process each tree edge once: at its child endpoint.
                if self.afar[i] & TREE_BIT == 0 || !lo.is_multiple_of(2) {
                    continue;
                }
                // Child's subtree span is [lo, hi]; the edge is on the
                // x..y path iff the span contains exactly one endpoint.
                let contains_x = lo <= fx && lx <= hi;
                let contains_y = lo <= fy && ly <= hi;
                if contains_x ^ contains_y {
                    let (w, e) = (self.aw[i], Edge::new(v, self.afar[i] & !TREE_BIT));
                    let better = match best {
                        None => true,
                        Some((bw, be)) => w > bw || (w == bw && e < be),
                    };
                    if better {
                        best = Some((w, e));
                    }
                }
            }
        }
        best.map(|(w, e)| (e, w))
    }

    /// True iff any owned vertex belongs to `comp` (migration directory
    /// repair).
    pub fn any_in_comp(&self, comp: CompId) -> bool {
        self.comp.contains(&comp)
    }

    /// Number of owned vertices.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.comp.iter().filter(|&&c| c != COMP_NONE).count()
    }

    /// Materialized state of one vertex (audits/result extraction — not the
    /// update path).
    pub fn vertex(&self, v: V) -> Option<VertexState> {
        self.slot_of(v).map(|slot| self.materialize(slot))
    }

    /// All owned vertices, materialized in id order.
    pub fn vertices(&self) -> Vec<(V, VertexState)> {
        (0..self.comp.len())
            .filter(|&slot| self.comp[slot] != COMP_NONE)
            .map(|slot| (self.base + slot as V, self.materialize(slot)))
            .collect()
    }

    /// Direct state injection (bulk loading / snapshot restore).
    pub fn load_vertex(&mut self, v: V, st: VertexState) {
        let slot = self.ensure_slot(v);
        if self.comp[slot] != COMP_NONE {
            // Replacing: free the old segments' live words first.
            self.tour_live -= self.tpos[slot].len as usize;
            self.adj_live -= self.apos[slot].len as usize;
            self.tpos[slot].len = 0;
            self.apos[slot].len = 0;
        }
        self.comp[slot] = st.comp;
        self.size[slot] = st.size as u32;
        self.tour_store(slot, &st.idx, 0);
        self.adj_store(slot, &st.adj);
        self.enforce_soft_cap();
    }

    /// Serializes every owned vertex as `vert`/`adj` snapshot lines, sorted
    /// by vertex then far endpoint.
    pub fn write_all(&self, s: &mut String) {
        for slot in 0..self.comp.len() {
            if self.comp[slot] != COMP_NONE {
                self.write_slot(s, slot);
            }
        }
    }

    /// Emits one slot's `vert`/`adj` lines (sorted by far endpoint).
    fn write_slot(&self, s: &mut String, slot: usize) {
        use std::fmt::Write as _;
        let v = self.base + slot as V;
        write!(s, "vert {v} {} {}", self.comp[slot], self.size[slot]).unwrap();
        for i in self.tour_slice(slot) {
            write!(s, " {i}").unwrap();
        }
        s.push('\n');
        for (u, kind, w) in self.sorted_entries(slot) {
            match kind {
                EntryKind::Tree { lo, hi } => writeln!(s, "adj {v} {u} t {lo} {hi} {w}").unwrap(),
                EntryKind::NonTree { cached, far_comp } => {
                    writeln!(s, "adj {v} {u} n {cached} {far_comp} {w}").unwrap()
                }
            }
        }
    }

    /// Extracts vertices `lo..hi` as snapshot text, removing them from the
    /// shard (shard migration).
    pub fn extract_range(&mut self, lo: V, hi: V) -> String {
        let mut text = String::new();
        for v in lo..hi {
            if let Some(slot) = self.slot_of(v) {
                self.write_slot(&mut text, slot);
                self.remove_slot(slot);
            }
        }
        // Migrations are rare and already pay O(shard) for the extraction,
        // so compact exactly: the remaining shard must not keep charging
        // for the moved segments' holes.
        self.trim_slots();
        self.compact_tour();
        self.compact_adj();
        text
    }

    /// Parses one `vert`/`adj` snapshot line (an `adj` line requires its
    /// `vert` line to have been parsed first).
    pub fn parse_line(&mut self, line: &str) {
        let mut it = line.split_ascii_whitespace();
        match it.next().expect("non-empty snapshot line") {
            "vert" => {
                let v: V = it.next().unwrap().parse().unwrap();
                let comp: CompId = it.next().unwrap().parse().unwrap();
                let size: u64 = it.next().unwrap().parse().unwrap();
                let idx: Vec<TourIx> = it.map(|t| t.parse().unwrap()).collect();
                self.load_vertex(
                    v,
                    VertexState {
                        comp,
                        size,
                        idx,
                        adj: BTreeMap::new(),
                    },
                );
            }
            "adj" => {
                let v: V = it.next().unwrap().parse().unwrap();
                let u: V = it.next().unwrap().parse().unwrap();
                let kind = match it.next().unwrap() {
                    "t" => EntryKind::Tree {
                        lo: it.next().unwrap().parse().unwrap(),
                        hi: it.next().unwrap().parse().unwrap(),
                    },
                    "n" => EntryKind::NonTree {
                        cached: it.next().unwrap().parse().unwrap(),
                        far_comp: it.next().unwrap().parse().unwrap(),
                    },
                    k => panic!("unknown adj kind {k:?}"),
                };
                let w: Weight = it.next().unwrap().parse().unwrap();
                assert!(self.contains(v), "adj line before its vert line");
                self.adj_set(v, u, kind, w);
            }
            k => panic!("unknown snapshot line {k:?}"),
        }
    }

    /// Exact resident footprint in 64-bit words: every property array, both
    /// arenas *including their free holes and segment headroom* (that
    /// memory is resident), and the segment tables, converted from bytes at
    /// 8 bytes/word. Transient scratch buffers are excluded (they are
    /// executor-style reusable workspace, not shard state).
    pub fn memory_words(&self) -> usize {
        let slot_bytes = self.comp.len() * 4    // comp: u32
            + self.size.len() * 4               // size: u32
            + self.tpos.len() * 12              // Seg: 3 x u32
            + self.apos.len() * 12;
        let tour_bytes = self.tour.len() * 8;
        let adj_bytes = self.afar.len() * 4     // far|tag: u32
            + self.aw.len() * 8                 // weight: u64
            + self.aa.len() * 8
            + self.ab.len() * 8;
        (slot_bytes + tour_bytes + adj_bytes).div_ceil(8)
    }

    /// The per-vertex map model of the same state (4 words of core per
    /// vertex + index list + 4 words per adjacency entry): the baseline the
    /// resident-slack test holds the arena footprint against.
    #[cfg(test)]
    pub fn map_model_words(&self) -> usize {
        self.vertices()
            .iter()
            .map(|(_, st)| 4 + st.idx.len() + 4 * st.adj.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_state(
        comp: CompId,
        size: u64,
        idx: &[TourIx],
        adj: &[(V, EntryKind, Weight)],
    ) -> VertexState {
        VertexState {
            comp,
            size,
            idx: idx.to_vec(),
            adj: adj.iter().map(|&(u, k, w)| (u, (k, w))).collect(),
        }
    }

    fn tree(lo: TourIx, hi: TourIx) -> EntryKind {
        EntryKind::Tree { lo, hi }
    }

    fn non_tree(cached: TourIx, far_comp: CompId) -> EntryKind {
        EntryKind::NonTree { cached, far_comp }
    }

    /// A 3-vertex path (0-1-2, plus a non-tree 0-2).
    fn demo_states() -> [(V, VertexState); 3] {
        [
            (
                0,
                demo_state(0, 3, &[1, 8], &[(1, tree(1, 8), 5), (2, non_tree(3, 0), 9)]),
            ),
            (
                1,
                demo_state(
                    0,
                    3,
                    &[2, 3, 6, 7],
                    &[(0, tree(2, 7), 5), (2, tree(3, 6), 4)],
                ),
            ),
            (
                2,
                demo_state(0, 3, &[4, 5], &[(1, tree(4, 5), 4), (0, non_tree(1, 0), 9)]),
            ),
        ]
    }

    fn loaded() -> Shard {
        let mut sh = Shard::new_range(0, 3);
        for (v, st) in demo_states() {
            sh.load_vertex(v, st);
        }
        sh
    }

    /// `demo_states` as snapshot text, as the per-vertex map storage wrote
    /// it (sorted by vertex, then far endpoint).
    const LOADED_TEXT: &str = "\
vert 0 0 3 1 8
adj 0 1 t 1 8 5
adj 0 2 n 3 0 9
vert 1 0 3 2 3 6 7
adj 1 0 t 2 7 5
adj 1 2 t 3 6 4
vert 2 0 3 4 5
adj 2 0 n 1 0 9
adj 2 1 t 4 5 4
";

    #[test]
    fn layouts_agree_on_accessors_and_snapshots() {
        let sh = loaded();
        for (v, st) in demo_states() {
            assert_eq!(sh.comp_of(v), st.comp);
            assert_eq!(sh.size_of(v), st.size);
            assert_eq!(sh.f_of(v), st.idx[0]);
            assert_eq!(sh.l_of(v), *st.idx.last().unwrap());
            assert_eq!(sh.idx_of(v), st.idx);
            assert_eq!(sh.info(v).f, st.idx[0]);
            for far in 0..3 {
                assert_eq!(
                    sh.adj_get(v, far),
                    st.adj.get(&far).copied(),
                    "adj {v} {far}"
                );
            }
            assert_eq!(sh.vertex(v), Some(st));
        }
        let mut text = String::new();
        sh.write_all(&mut text);
        assert_eq!(text, LOADED_TEXT);
        assert_eq!(sh.path_max(0, 1, 8, 4, 5), Some((Edge::new(0, 1), 5)));
    }

    #[test]
    fn soa_mutation_round_trips_through_snapshot() {
        let mut sh = loaded();
        sh.adj_set(0, 1, tree(1, 10), 7); // overwrite
        sh.adj_remove(2, 0);
        sh.adj_set(1, 2, non_tree(4, 0), 6); // kind change
        let mut text = String::new();
        sh.write_all(&mut text);
        assert_eq!(
            text,
            "\
vert 0 0 3 1 8
adj 0 1 t 1 10 7
adj 0 2 n 3 0 9
vert 1 0 3 2 3 6 7
adj 1 0 t 2 7 5
adj 1 2 n 4 0 6
vert 2 0 3 4 5
adj 2 1 t 4 5 4
"
        );
        // Restore the text into a fresh, empty shard.
        let mut back = Shard::new_range(0, 0);
        for line in text.lines() {
            back.parse_line(line);
        }
        let mut round = String::new();
        back.write_all(&mut round);
        assert_eq!(round, text);
    }

    #[test]
    fn soa_extract_range_matches_map_and_trims() {
        let mut sh = loaded();
        let moved = sh.extract_range(0, 2);
        assert_eq!(moved, &LOADED_TEXT[..LOADED_TEXT.find("vert 2").unwrap()]);
        assert_eq!(sh.len(), 1);
        assert!(!sh.contains(0) && !sh.contains(1) && sh.contains(2));
        // The trimmed shard must not keep charging for the moved slots.
        let words_after = sh.memory_words();
        assert!(
            words_after < 20,
            "trimmed shard footprint too large: {words_after}"
        );
    }

    /// Satellite: the resident accounting matches a hand-computed figure
    /// for a known shard within 10%.
    ///
    /// Hand computation for `loaded`'s shard (bulk loads use zero headroom,
    /// so caps == lens and the arenas are hole-free):
    ///
    /// * slot arrays, 3 slots: comp 3x4 + size 3x4 + tpos 3x12 + apos 3x12
    ///   = 96 bytes
    /// * tour arena: 2 + 4 + 2 = 8 indexes x 8 bytes = 64 bytes
    /// * adjacency arena: 6 entries x (4 + 8 + 8 + 8) = 168 bytes
    ///
    /// total = 328 bytes = ceil(328 / 8) = 41 words.
    #[test]
    fn soa_resident_words_within_10pct_of_hand_count() {
        let sh = loaded();
        let hand = 41.0_f64;
        let got = sh.memory_words() as f64;
        assert!(
            (got - hand).abs() <= hand * 0.10,
            "resident {got} vs hand-computed {hand}"
        );
        // For this exactly-sized shard the two should in fact be equal.
        assert_eq!(got as usize, 41);
    }

    #[test]
    fn soa_arena_compaction_bounds_holes() {
        let mut sh = Shard::new_range(0, 64);
        // Repeatedly grow and clear adjacency on every vertex; the arena
        // must stay within 2x live + slack despite all the relocations.
        for round in 0..6u64 {
            for v in 0..64u32 {
                for far in 0..8u32 {
                    sh.adj_set(v, 100 + far, non_tree(round, 7), round);
                }
            }
            for v in 0..64u32 {
                for far in 0..4u32 {
                    sh.adj_remove(v, 100 + far);
                }
            }
        }
        assert_eq!(sh.adj_live, 64 * 4);
        assert!(
            sh.afar.len() <= 2 * sh.adj_live + 64,
            "adjacency arena not compacted: {} live {}",
            sh.afar.len(),
            sh.adj_live
        );
    }
}
