//! Seeded inputs. Every op a workload issues is drawn here from `--seed`,
//! so one seed reproduces a run's whole input; the program under test only
//! ever sees the generated ops.

use dmpc_graph::{DynamicGraph, Edge, Op, Query, Update, V};

/// Salt of the write stream.
const SALT_WRITES: u64 = 0x5772_1735_0000_0001;
/// Salt of the read stream, kept apart from the writes so that two
/// workloads over one seed issue the same writes whatever they read.
const SALT_READS: u64 = 0x5265_6164_0000_0002;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, domain-separated by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }
}

/// What the reads of a workload ask.
#[derive(Clone, Copy, Debug)]
pub enum ReadMix {
    /// `Connected` and `ComponentOf`, one each on average.
    Connectivity,
    /// `IsMatched` three times in four, `MatchingSize` otherwise.
    Matching,
}

/// Valid-by-construction edge churn over `communities` equal vertex ranges
/// (one community is uniform churn): every insert adds an absent edge and
/// every delete removes a present one, so no op fails. It keeps the graph
/// its writes build, which is the oracle the checks compare against.
pub struct Churn {
    writes: Rng,
    reads: Rng,
    span: V,
    present: Vec<Vec<Edge>>,
    graph: DynamicGraph,
}

impl Churn {
    /// Churn over `n` vertices split into `communities` ranges.
    pub fn new(n: usize, communities: usize, seed: u64) -> Self {
        assert!(
            communities >= 1 && n / communities >= 4,
            "communities too small"
        );
        Churn {
            writes: Rng::new(seed, SALT_WRITES),
            reads: Rng::new(seed, SALT_READS),
            span: (n / communities) as V,
            present: vec![Vec::new(); communities],
            graph: DynamicGraph::new(n),
        }
    }

    /// The oracle: the graph after every write drawn so far.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The build-up: `per_community` random inserts in every community,
    /// returned for `bulk_load` and already applied to the oracle.
    pub fn build_up(&mut self, per_community: usize) -> Vec<Edge> {
        let mut edges = Vec::with_capacity(per_community * self.present.len());
        for c in 0..self.present.len() {
            for _ in 0..per_community {
                edges.push(self.insert_absent(c));
            }
        }
        edges
    }

    /// The next write: a uniformly random community, then an insert of an
    /// absent edge or a delete of a present one with equal odds.
    pub fn next_update(&mut self) -> Update {
        let c = self.writes.below(self.present.len() as u64) as usize;
        if self.writes.coin() || self.present[c].is_empty() {
            Update::Insert(self.insert_absent(c))
        } else {
            let list = &mut self.present[c];
            let e = list.swap_remove(self.writes.below(list.len() as u64) as usize);
            self.graph.delete(e).expect("deleted edge is present");
            Update::Delete(e)
        }
    }

    /// The next `k` writes.
    pub fn chunk(&mut self, k: usize) -> Vec<Update> {
        (0..k).map(|_| self.next_update()).collect()
    }

    /// A read: its vertices lie in one uniformly random community.
    pub fn next_read(&mut self, mix: ReadMix) -> Query {
        let c = self.reads.below(self.present.len() as u64) as V;
        let a = c * self.span + self.reads.below(u64::from(self.span)) as V;
        let b = c * self.span + self.reads.below(u64::from(self.span - 1)) as V;
        let b = if b >= a { b + 1 } else { b };
        match mix {
            ReadMix::Connectivity if self.reads.coin() => Query::Connected(a, b),
            ReadMix::Connectivity => Query::ComponentOf(a),
            ReadMix::Matching if self.reads.below(4) == 0 => Query::MatchingSize,
            ReadMix::Matching => Query::IsMatched(a),
        }
    }

    /// The next `k` reads.
    pub fn reads(&mut self, k: usize, mix: ReadMix) -> Vec<Query> {
        (0..k).map(|_| self.next_read(mix)).collect()
    }

    /// The next `k` ops of a mixed stream: reads and writes with equal
    /// odds, the writes in stream order.
    pub fn mixed(&mut self, k: usize, mix: ReadMix) -> Vec<Op> {
        (0..k)
            .map(|_| {
                if self.reads.coin() {
                    Op::Read(self.next_read(mix))
                } else {
                    Op::Write(self.next_update())
                }
            })
            .collect()
    }

    fn insert_absent(&mut self, c: usize) -> Edge {
        let lo = c as V * self.span;
        loop {
            let a = lo + self.writes.below(u64::from(self.span)) as V;
            let b = lo + self.writes.below(u64::from(self.span)) as V;
            if a == b {
                continue;
            }
            let e = Edge::new(a, b);
            if self.graph.insert(e).is_ok() {
                self.present[c].push(e);
                return e;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_writes_ignore_reads() {
        let mut a = Churn::new(64, 4, 7);
        let mut b = Churn::new(64, 4, 7);
        assert_eq!(a.build_up(8), b.build_up(8));
        let _ = b.reads(5, ReadMix::Matching);
        assert_eq!(a.chunk(50), b.chunk(50));
        assert_ne!(Churn::new(64, 4, 8).build_up(8), a.build_up(8));
    }

    #[test]
    fn writes_stay_in_their_community_and_are_valid() {
        let mut c = Churn::new(64, 4, 3);
        let mut g = DynamicGraph::new(64);
        for e in c.build_up(10) {
            g.insert(e).expect("valid build-up");
        }
        for u in c.chunk(500) {
            let e = u.edge();
            assert_eq!(e.u / 16, e.v / 16);
            match u {
                Update::Insert(e) => g.insert(e).expect("valid insert"),
                Update::Delete(e) => g.delete(e).expect("valid delete"),
            }
        }
        assert_eq!(g.components(), c.graph().components());
    }
}
