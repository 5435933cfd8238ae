//! Holm–de Lichtenberg–Thorup fully-dynamic connectivity.
//!
//! One Euler-tour-tree forest per level `0..=L` (`L = ceil(log2 n)`);
//! forest `F_i` spans the edges of level `>= i`. A deleted tree edge of
//! level `l` triggers the standard replacement search: push the smaller
//! side's level-`l` tree edges down to level `l+1`, then scan its level-`l`
//! non-tree edges — each either reconnects (becomes a tree edge) or is
//! pushed to level `l+1`, paying for itself. Amortized O(log^2 n).

use crate::ProbeCounted;
use dmpc_eulertour::EttForest;
use dmpc_graph::{Edge, V};
use std::collections::{BTreeSet, HashMap};

/// Fully-dynamic connectivity structure.
pub struct HdtConnectivity {
    n: usize,
    levels: Vec<EttForest>,
    /// Per level, per vertex: incident non-tree edges at exactly that level.
    nontree: Vec<Vec<BTreeSet<V>>>,
    /// level and tree-flag of each live edge.
    edges: HashMap<Edge, (usize, bool)>,
    probes: u64,
}

impl HdtConnectivity {
    /// Creates the structure on `n` vertices.
    pub fn new(n: usize) -> Self {
        let l_max = (n.max(2) as f64).log2().ceil() as usize + 2;
        HdtConnectivity {
            n,
            levels: (0..l_max)
                .map(|i| EttForest::new(n, 0x4d7 ^ i as u64))
                .collect(),
            nontree: vec![vec![BTreeSet::new(); n]; l_max],
            edges: HashMap::new(),
            probes: 0,
        }
    }

    fn probe(&mut self, k: u64) {
        self.probes += k;
    }

    /// True if `a` and `b` are connected.
    pub fn connected(&mut self, a: V, b: V) -> bool {
        self.probe(2);
        self.levels[0].connected(a, b)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    fn set_vertex_mark(&mut self, level: usize, v: V) {
        let has = !self.nontree[level][v as usize].is_empty();
        self.levels[level].mark_vertex(v, has);
        self.probes += 1;
    }

    /// Inserts edge `e` (must be absent).
    pub fn insert(&mut self, e: Edge) {
        assert!(!self.edges.contains_key(&e), "duplicate edge {e}");
        self.probe(4);
        if !self.levels[0].connected(e.u, e.v) {
            self.levels[0].link(e.u, e.v);
            self.levels[0].mark_edge(e, true);
            self.edges.insert(e, (0, true));
        } else {
            self.nontree[0][e.u as usize].insert(e.v);
            self.nontree[0][e.v as usize].insert(e.u);
            self.set_vertex_mark(0, e.u);
            self.set_vertex_mark(0, e.v);
            self.edges.insert(e, (0, false));
        }
    }

    /// Deletes edge `e` (must be present).
    pub fn delete(&mut self, e: Edge) {
        let (level, is_tree) = self.edges.remove(&e).expect("absent edge");
        self.probe(4);
        if !is_tree {
            self.nontree[level][e.u as usize].remove(&e.v);
            self.nontree[level][e.v as usize].remove(&e.u);
            self.set_vertex_mark(level, e.u);
            self.set_vertex_mark(level, e.v);
            return;
        }
        // Cut from every forest containing it, then search replacements.
        self.levels[level].mark_edge(e, false);
        for i in 0..=level {
            self.levels[i].cut(e.u, e.v);
            self.probes += 1;
        }
        for i in (0..=level).rev() {
            if let Some(r) = self.search_replacement(i, e) {
                // Reconnect with r as a tree edge at level i.
                self.nontree[i][r.u as usize].remove(&r.v);
                self.nontree[i][r.v as usize].remove(&r.u);
                self.set_vertex_mark(i, r.u);
                self.set_vertex_mark(i, r.v);
                for j in 0..=i {
                    self.levels[j].link(r.u, r.v);
                    self.probes += 1;
                }
                self.levels[i].mark_edge(r, true);
                self.edges.insert(r, (i, true));
                return;
            }
        }
    }

    /// The replacement search at level `i` for the cut edge `e`.
    fn search_replacement(&mut self, i: usize, e: Edge) -> Option<Edge> {
        // Smaller side first (drives the amortization).
        let (su, sv) = (self.levels[i].tree_size(e.u), self.levels[i].tree_size(e.v));
        self.probe(2);
        let (small, other) = if su <= sv { (e.u, e.v) } else { (e.v, e.u) };
        // 1. Promote the small side's level-i tree edges to level i+1.
        while let Some(t) = self.levels[i].find_marked_edge(small) {
            self.probe(4);
            self.levels[i].mark_edge(t, false);
            self.levels[i + 1].link(t.u, t.v);
            self.levels[i + 1].mark_edge(t, true);
            self.edges.insert(t, (i + 1, true));
        }
        // 2. Scan the small side's level-i non-tree edges.
        while let Some(x) = self.levels[i].find_marked_vertex(small) {
            let nbrs: Vec<V> = self.nontree[i][x as usize].iter().copied().collect();
            for y in nbrs {
                self.probe(3);
                if self.levels[i].connected(y, other) {
                    return Some(Edge::new(x, y));
                }
                // Not a replacement: push to level i+1.
                self.nontree[i][x as usize].remove(&y);
                self.nontree[i][y as usize].remove(&x);
                self.nontree[i + 1][x as usize].insert(y);
                self.nontree[i + 1][y as usize].insert(x);
                self.edges.insert(Edge::new(x, y), (i + 1, false));
                self.set_vertex_mark(i, y);
                self.set_vertex_mark(i + 1, x);
                self.set_vertex_mark(i + 1, y);
            }
            self.set_vertex_mark(i, x);
        }
        None
    }
}

impl ProbeCounted for HdtConnectivity {
    fn take_probes(&mut self) -> u64 {
        std::mem::take(&mut self.probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpc_graph::{streams, UnionFind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_union_find_recompute() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..8 {
            let n = 32;
            let mut hdt = HdtConnectivity::new(n);
            let mut live: Vec<Edge> = Vec::new();
            for _ in 0..300 {
                let a = rng.gen_range(0..n as V);
                let b = rng.gen_range(0..n as V);
                if a == b {
                    continue;
                }
                let e = Edge::new(a, b);
                let present = live.contains(&e);
                if !present && rng.gen_bool(0.6) {
                    hdt.insert(e);
                    live.push(e);
                } else if present {
                    hdt.delete(e);
                    live.retain(|&x| x != e);
                }
                let mut uf = UnionFind::new(n);
                for le in &live {
                    uf.union(le.u, le.v);
                }
                for _ in 0..8 {
                    let x = rng.gen_range(0..n as V);
                    let y = rng.gen_range(0..n as V);
                    assert_eq!(hdt.connected(x, y), uf.same(x, y), "trial {trial}");
                }
            }
        }
    }

    /// A non-tree edge pushed up a level must be deleted from that level.
    /// Dense uniform churn pushes many; checked against a union-find
    /// recompute after every update.
    #[test]
    fn pushed_non_tree_edges_are_deleted_at_their_level() {
        let n = 128;
        let mut hdt = HdtConnectivity::new(n);
        let mut live: Vec<Edge> = Vec::new();
        for (k, u) in streams::churn_stream(n, 2 * n, 2000, 0.5, 7)
            .iter()
            .enumerate()
        {
            match *u {
                streams::Update::Insert(e) => {
                    hdt.insert(e);
                    live.push(e);
                }
                streams::Update::Delete(e) => {
                    hdt.delete(e);
                    live.retain(|&x| x != e);
                }
            }
            let mut uf = UnionFind::new(n);
            for e in &live {
                uf.union(e.u, e.v);
            }
            for v in 1..n as V {
                assert_eq!(hdt.connected(0, v), uf.same(0, v), "update {k}, vertex {v}");
            }
        }
    }

    #[test]
    fn tree_churn_worst_case() {
        let n = 64;
        let mut hdt = HdtConnectivity::new(n);
        let ups = streams::tree_churn_stream(n, 150, 3);
        let mut uf_edges: Vec<Edge> = Vec::new();
        for u in &ups {
            match *u {
                streams::Update::Insert(e) => {
                    hdt.insert(e);
                    uf_edges.push(e);
                }
                streams::Update::Delete(e) => {
                    hdt.delete(e);
                    uf_edges.retain(|&x| x != e);
                }
            }
        }
        let mut uf = UnionFind::new(n);
        for e in &uf_edges {
            uf.union(e.u, e.v);
        }
        for v in 1..n as V {
            assert_eq!(hdt.connected(0, v), uf.same(0, v));
        }
    }

    #[test]
    fn probes_stay_polylog_amortized() {
        let n = 128;
        let mut hdt = HdtConnectivity::new(n);
        let ups = streams::churn_stream(n, 2 * n, 600, 0.5, 1);
        let mut total = 0u64;
        let mut count = 0u64;
        for u in &ups {
            match *u {
                streams::Update::Insert(e) => hdt.insert(e),
                streams::Update::Delete(e) => hdt.delete(e),
            }
            total += hdt.take_probes();
            count += 1;
        }
        let avg = total as f64 / count as f64;
        let lg = (n as f64).log2();
        assert!(
            avg <= 40.0 * lg * lg,
            "amortized probes {avg} exceed polylog budget"
        );
    }
}
