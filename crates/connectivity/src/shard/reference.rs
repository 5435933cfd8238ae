//! The per-vertex structural sweep the shard used before its op plans, kept
//! only as the reference of a differential test: for every vertex, a copy of
//! its index list through [`apply_op_to_vertex`], then a generic rewrite of
//! every adjacency entry under the whole broadcast. It runs over materialized
//! `VertexState`s, so it shares none of the plan sweep's in-place arena
//! code. The test drives random links (with reroots) and cuts (removing or
//! demoting, with and without a replacement search) over a small forest
//! split across three shards, and checks that the plan-based sweep leaves the
//! same state and reports the same [`ApplyOutcome`].

use super::{ApplyOutcome, EntryKind, Shard};
use crate::messages::StructBroadcast;
use dmpc_eulertour::indexed::{apply_op_to_vertex, map_reroot, CompId, TourOp};
use dmpc_eulertour::TourIx;
use dmpc_graph::{Edge, Weight, V};

/// Per-vertex membership flags computed by [`update_core`], consumed by
/// [`rewrite_entry`] for every adjacency entry of that vertex.
#[derive(Clone, Copy, Debug, Default)]
struct VertFlags {
    /// The vertex belonged to the rerooted (absorbed) component.
    reroot_member: bool,
    /// The vertex belongs to one of the two linked components.
    link_member: bool,
    /// ... specifically to the absorbed side `b`.
    link_from_b: bool,
    /// The vertex belonged to the cut component.
    was_member: bool,
    /// ... and ended up on the detached (child) side.
    my_detached: bool,
}

/// True iff `update_core` would touch a vertex with component id `c` at
/// all — lets the sweep skip the tour-index copy for bystanders.
#[inline]
fn core_member(b: &StructBroadcast, c: CompId) -> bool {
    let rerooted = matches!(b.reroot, Some(TourOp::Reroot { comp, .. }) if comp == c);
    let main = match b.main {
        TourOp::Link { a, b: bc, .. } => c == a || c == bc,
        TourOp::Cut { comp, .. } => c == comp,
        TourOp::Reroot { .. } => false,
    };
    rerooted || main
}

/// Applies the broadcast's reroot + main op to one vertex's component id,
/// size and tour-index list (the per-vertex "core"). Returns the membership
/// flags the per-entry rewrite needs.
fn update_core(
    b: &StructBroadcast,
    v: V,
    comp: &mut CompId,
    size: &mut u64,
    idx: &mut Vec<TourIx>,
) -> VertFlags {
    let mut fl = VertFlags::default();
    // 1. Reroot (links only): a bijection on the absorbed component's
    // index space. Never changes the component id.
    if let Some(r @ TourOp::Reroot { comp: rc, .. }) = b.reroot {
        if *comp == rc {
            fl.reroot_member = true;
            apply_op_to_vertex(&r, v, *comp, idx);
        }
    }
    // 2. Main op.
    match b.main {
        TourOp::Link { a, b: bc, .. } => {
            let old = *comp;
            if old == a || old == bc {
                fl.link_member = true;
                fl.link_from_b = old == bc;
                *comp = apply_op_to_vertex(&b.main, v, old, idx);
                *size = b.merged_size;
            }
        }
        TourOp::Cut {
            comp: c,
            fy,
            ly,
            new_comp,
            ..
        } => {
            if *comp == c {
                fl.was_member = true;
                let k_sub = (ly - fy).div_ceil(4);
                let old_size = *size;
                *comp = apply_op_to_vertex(&b.main, v, *comp, idx);
                fl.my_detached = *comp == new_comp;
                *size = if fl.my_detached {
                    k_sub
                } else {
                    old_size - k_sub
                };
            }
        }
        TourOp::Reroot { .. } => unreachable!("reroot is never a main op"),
    }
    fl
}

/// Rewrites one adjacency entry's annotations under the broadcast ops and
/// folds crossing-edge replacement candidates (searching cuts).
///
/// Tree entries always live in the owner's component's index space;
/// non-tree cached indexes live in `far_comp`'s index space (the two can
/// differ transiently between a cut and its reconnecting link). Must be
/// called after [`update_core`] updated the vertex's core.
#[inline]
fn rewrite_entry(
    b: &StructBroadcast,
    fl: &VertFlags,
    v: V,
    far: V,
    kind: &mut EntryKind,
    w: Weight,
    best: &mut Option<(Weight, Edge)>,
) {
    // 1. Reroot phase.
    if let Some(TourOp::Reroot {
        comp: rc,
        elen,
        l_y,
        ..
    }) = b.reroot
    {
        match kind {
            EntryKind::Tree { lo, hi } if fl.reroot_member => {
                let (a, c) = (map_reroot(*lo, elen, l_y), map_reroot(*hi, elen, l_y));
                *lo = a.min(c);
                *hi = a.max(c);
            }
            EntryKind::NonTree { cached, far_comp } if *far_comp == rc => {
                *cached = map_reroot(*cached, elen, l_y);
            }
            _ => {}
        }
    }
    // 2. Main op.
    match b.main {
        TourOp::Link {
            a,
            b: bc,
            fx,
            elen_b,
            ..
        } => {
            let shift_b = fx + 2;
            let shift_a = elen_b + 4;
            match kind {
                EntryKind::Tree { lo, hi } if fl.link_member => {
                    let map = |i: TourIx| {
                        if fl.link_from_b {
                            i + shift_b
                        } else if i > fx {
                            i + shift_a
                        } else {
                            i
                        }
                    };
                    *lo = map(*lo);
                    *hi = map(*hi);
                }
                EntryKind::NonTree { cached, far_comp } => {
                    if *far_comp == bc {
                        // cached == 0 means the far endpoint was a
                        // singleton, i.e. it is the link's y, whose
                        // first new index is fx+2 (== 0 + shift_b).
                        *cached += shift_b;
                        *far_comp = a;
                    } else if *far_comp == a {
                        if *cached == 0 {
                            // Far endpoint was a singleton = the link's
                            // x; its first new index is fx+1 (fx = 0).
                            *cached = fx + 1;
                        } else if *cached > fx {
                            *cached += shift_a;
                        }
                    }
                }
                _ => {}
            }
        }
        TourOp::Cut {
            comp,
            x,
            y,
            fy,
            ly,
            new_comp,
        } => {
            // The cut edge's own entries are rewritten afterwards (by the
            // materialization step).
            if (v == x && far == y) || (v == y && far == x) {
                return;
            }
            let span = (ly - fy + 1) + 2;
            let child_singleton = ly == fy + 1;
            match kind {
                EntryKind::Tree { lo, hi } => {
                    if !fl.was_member {
                        return;
                    }
                    // A surviving tree edge lies on one side.
                    let map = |i: TourIx| {
                        if i > fy && i < ly {
                            i - fy
                        } else if i > ly {
                            i - span
                        } else {
                            i
                        }
                    };
                    *lo = map(*lo);
                    *hi = map(*hi);
                }
                EntryKind::NonTree { cached, far_comp } => {
                    if *far_comp != comp {
                        return;
                    }
                    // Classify the far side, repairing the dying
                    // indexes of the cut edge's endpoints.
                    if far == y {
                        *far_comp = new_comp;
                        *cached = if child_singleton { 0 } else { 1 };
                    } else if far == x {
                        *cached = b.x_after;
                    } else if *cached > fy && *cached < ly {
                        *far_comp = new_comp;
                        *cached -= fy;
                    } else if *cached > ly {
                        *cached -= span;
                    }
                    if b.rendezvous.is_some()
                        && fl.was_member
                        && (*far_comp == new_comp) != fl.my_detached
                    {
                        // Crossing edge: replacement candidate.
                        let cand = (w, Edge::new(v, far));
                        if best.is_none_or(|cur| cand < cur) {
                            *best = Some(cand);
                        }
                    }
                }
            }
        }
        TourOp::Reroot { .. } => unreachable!(),
    }
}

/// [`Shard::apply_struct`] with the reference sweep: every vertex is
/// materialized, swept, and loaded back; then the op edge's entries are
/// materialized as on the plan path.
fn apply_struct(sh: &mut Shard, b: &StructBroadcast) -> ApplyOutcome {
    let mut best: Option<(Weight, Edge)> = None;
    let mut outcome = ApplyOutcome::default();
    for (v, mut st) in sh.vertices() {
        let fl = if core_member(b, st.comp) {
            update_core(b, v, &mut st.comp, &mut st.size, &mut st.idx)
        } else {
            VertFlags::default()
        };
        for (&far, (kind, w)) in st.adj.iter_mut() {
            rewrite_entry(b, &fl, v, far, kind, *w, &mut best);
        }
        if let TourOp::Cut { comp, new_comp, .. } = b.main {
            if st.comp == comp {
                outcome.owns_parent = true;
            } else if st.comp == new_comp {
                outcome.owns_child = true;
            }
        }
        sh.load_vertex(v, st);
    }
    outcome.best = best.map(|(w, e)| (e, w));
    sh.materialize_edge(b);
    outcome
}

mod tests {
    use super::*;
    use crate::messages::CutMode;
    use dmpc_eulertour::indexed::IndexedForest;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::BTreeMap;

    const N: V = 16;
    /// Vertex ranges of the three shards.
    const RANGES: [(V, V); 3] = [(0, 5), (5, 11), (11, N)];

    /// How often a stream hit each case the test must cover.
    #[derive(Debug, Default)]
    struct Coverage {
        reroots: usize,
        singleton_x: usize,
        singleton_y: usize,
        child_singleton_cuts: usize,
        demotes: usize,
        candidates: usize,
        relinks: usize,
    }

    /// One op stream applied to two shard sets: the plan sweep and the
    /// reference sweep. `IndexedForest` generates the ops and checks the
    /// tour state.
    struct Harness {
        fo: IndexedForest,
        /// Graph edges: weight and whether the edge is a tree edge.
        edges: BTreeMap<Edge, (Weight, bool)>,
        sets: [Vec<Shard>; 2],
        cov: Coverage,
    }

    impl Harness {
        fn new() -> Self {
            let set = || {
                RANGES
                    .iter()
                    .map(|&(lo, hi)| Shard::new_range(lo, hi))
                    .collect()
            };
            Harness {
                fo: IndexedForest::new(N as usize),
                edges: BTreeMap::new(),
                sets: [set(), set()],
                cov: Coverage::default(),
            }
        }

        fn owner(v: V) -> usize {
            RANGES
                .iter()
                .position(|&(lo, hi)| lo <= v && v < hi)
                .unwrap()
        }

        fn apply(&mut self, b: &StructBroadcast) {
            let [plan, refr] = &mut self.sets;
            let want: Vec<ApplyOutcome> = refr.iter_mut().map(|sh| apply_struct(sh, b)).collect();
            let got: Vec<ApplyOutcome> = plan.iter_mut().map(|sh| sh.apply_struct(b)).collect();
            assert_eq!(got, want, "outcome of {b:?}");
            self.cov.candidates += want.iter().filter(|o| o.best.is_some()).count();
            for m in 0..RANGES.len() {
                let want = self.sets[1][m].vertices();
                assert_eq!(self.sets[0][m].vertices(), want, "state after {b:?}");
                for (v, st) in &want {
                    assert_eq!(st.comp, self.fo.comp_of(*v), "comp of {v}");
                    assert_eq!(st.size, self.fo.tree_size(*v) as u64, "size of {v}");
                    assert_eq!(st.idx, self.fo.indexes(*v), "indexes of {v}");
                }
            }
        }

        fn link(&mut self, x: V, y: V, weight: Weight) {
            let merged_size = (self.fo.tree_size(x) + self.fo.tree_size(y)) as u64;
            self.cov.singleton_x += usize::from(self.fo.tree_size(x) == 1);
            self.cov.singleton_y += usize::from(self.fo.tree_size(y) == 1);
            let (reroot, main) = match self.fo.link(x, y)[..] {
                [main] => (None, main),
                [reroot, main] => (Some(reroot), main),
                _ => unreachable!(),
            };
            self.cov.reroots += usize::from(reroot.is_some());
            let edge = Edge::new(x, y);
            self.apply(&StructBroadcast {
                reroot,
                main,
                merged_size,
                x_after: 0,
                edge,
                weight,
                cut_mode: CutMode::Remove,
                rendezvous: None,
                lane: None,
            });
            self.edges.insert(edge, (weight, true));
        }

        fn cut(&mut self, edge: Edge, cut_mode: CutMode, search: bool) {
            let main = self.fo.cut(edge.u, edge.v);
            let TourOp::Cut { x, fy, ly, .. } = main else {
                unreachable!()
            };
            self.cov.child_singleton_cuts += usize::from(ly == fy + 1);
            self.cov.demotes += usize::from(cut_mode == CutMode::Demote);
            self.apply(&StructBroadcast {
                reroot: None,
                main,
                merged_size: 0,
                x_after: self.fo.f(x),
                edge,
                weight: 0,
                cut_mode,
                rendezvous: search.then_some(0),
                lane: None,
            });
            match cut_mode {
                CutMode::Remove => {
                    self.edges.remove(&edge);
                }
                CutMode::Demote => {
                    self.edges.get_mut(&edge).unwrap().1 = false;
                }
            }
        }

        fn add_non_tree(&mut self, u: V, v: V, w: Weight) {
            for (at, far) in [(u, v), (v, u)] {
                let kind = EntryKind::NonTree {
                    cached: self.fo.f(far),
                    far_comp: self.fo.comp_of(far),
                };
                for set in &mut self.sets {
                    set[Self::owner(at)].adj_set(at, far, kind, w);
                }
            }
            self.edges.insert(Edge::new(u, v), (w, false));
        }

        /// One op: link or add a non-tree edge (kinds 0, 1), cut a tree
        /// edge (2), or relink a non-tree edge that crosses a cut (3).
        fn step(&mut self, (kind, a, b, w, flag): (u8, V, V, Weight, bool)) {
            match kind {
                0 | 1 if a != b => {
                    let e = Edge::new(a, b);
                    if !self.fo.connected(a, b) {
                        let w = self.edges.get(&e).map_or(w, |&(w, _)| w);
                        self.link(a, b, w);
                    } else if !self.edges.contains_key(&e) {
                        self.add_non_tree(a, b, w);
                    }
                }
                0 | 1 => {}
                2 => {
                    let tree: Vec<Edge> = self
                        .edges
                        .iter()
                        .filter(|(_, &(_, t))| t)
                        .map(|(&e, _)| e)
                        .collect();
                    if !tree.is_empty() {
                        let mode = if flag {
                            CutMode::Demote
                        } else {
                            CutMode::Remove
                        };
                        self.cut(tree[a as usize % tree.len()], mode, w % 2 == 0);
                    }
                }
                _ => {
                    let crossing: Vec<(Edge, Weight)> = self
                        .edges
                        .iter()
                        .filter(|(e, &(_, t))| !t && !self.fo.connected(e.u, e.v))
                        .map(|(&e, &(w, _))| (e, w))
                        .collect();
                    if !crossing.is_empty() {
                        let (e, w) = crossing[a as usize % crossing.len()];
                        self.cov.relinks += 1;
                        let (x, y) = if flag { (e.u, e.v) } else { (e.v, e.u) };
                        self.link(x, y, w);
                    }
                }
            }
        }
    }

    fn ops() -> impl Strategy<Value = Vec<(u8, V, V, Weight, bool)>> {
        collection::vec((0u8..4, 0..N, 0..N, 0u64..6, any::<bool>()), 1..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The plan sweep equals the reference sweep, op by op, in state and
        /// outcome.
        #[test]
        fn plan_sweep_matches_reference(ops in ops()) {
            let mut h = Harness::new();
            for op in ops {
                h.step(op);
            }
        }
    }

    /// The streams reach every case the sweep special-cases.
    #[test]
    fn streams_cover_the_sweep_cases() {
        let mut cov = Coverage::default();
        for seed in 0..32 {
            let mut h = Harness::new();
            for op in ops().sample(&mut TestRng::new(seed)) {
                h.step(op);
            }
            let c = h.cov;
            cov.reroots += c.reroots;
            cov.singleton_x += c.singleton_x;
            cov.singleton_y += c.singleton_y;
            cov.child_singleton_cuts += c.child_singleton_cuts;
            cov.demotes += c.demotes;
            cov.candidates += c.candidates;
            cov.relinks += c.relinks;
        }
        let counts = [
            cov.reroots,
            cov.singleton_x,
            cov.singleton_y,
            cov.child_singleton_cuts,
            cov.demotes,
            cov.candidates,
            cov.relinks,
        ];
        assert!(counts.iter().all(|&k| k > 0), "{cov:?}");
    }
}
