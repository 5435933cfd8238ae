//! Golden-value suite for the Section 3 matching storage machines: every
//! stream is checked two ways.
//!
//! * **Oracle.** On random seeds, the structural audit against the
//!   `DynamicGraph` ground truth passes, the query plane agrees with the
//!   extracted matching, and no update violates the model.
//! * **Golden.** On fixed seeds, the final `state_digest` and an FNV-1a fold
//!   of every update's scalar [`UpdateMetrics`] equal committed constants. The
//!   constants were captured from a run that first asserted the legacy
//!   per-vertex map storage and the SoA entry arena agreed on that seed.
//!
//! Entry order is semantic in the alive sets (mate-first, split-at-tau,
//! first-hit scans), and snapshots emit entries positionally, so the digests
//! pin that order too, including across a kill + full-log-replay revive.

use dmpc_core::{
    run_chaos_stream, DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm, QueryableAlgorithm,
};
use dmpc_graph::streams::{self, Update};
use dmpc_graph::{DynamicGraph, Query, QueryAnswer};
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::chaos::fnv1a;
use dmpc_mpc::{BatchMetrics, ChaosCaps, ChaosPlan, UpdateMetrics};
use proptest::prelude::*;

/// `(final state_digest, metrics fold)` of one stream.
type Golden = (u64, u64);

/// Fixed seeds of the churn and chaos goldens.
const SEEDS: [u64; 4] = [3, 17, 42, 0xC0FFEE];

const CHURN_GOLDEN: [Golden; 4] = [
    (0x28824c5ea3d1247e, 0x8fa8cecb60b8c45a),
    (0x84eda7f8e608965f, 0xaaf5a0e8c28d1694),
    (0xd54c1ce9e58b5fe6, 0xe266d4c378eb49e7),
    (0x87e441dfe0f3ce60, 0x4596786041851905),
];
const CHAOS_GOLDEN: [Golden; 4] = [
    (0x4067ca60f84e180e, 0x452d0698a86a3076),
    (0xe281694e096231b4, 0xa91401417bfb6e1d),
    (0xb2f1211e3cc6f15f, 0xf06ae7e4dc20f817),
    (0x66860abca35b2427, 0xb55a4abe2bc9326c),
];

/// FNV-1a over the scalar metric fields of a stream's updates, in order.
/// (`flows` is a `HashMap`, so `Debug` text would not be stable.)
#[derive(Default)]
struct MetricsFold(Vec<u8>);

impl MetricsFold {
    fn words(&mut self, xs: &[usize]) {
        for &x in xs {
            self.0.extend_from_slice(&(x as u64).to_le_bytes());
        }
    }

    fn update(&mut self, m: &UpdateMetrics) {
        self.words(&[
            m.rounds,
            m.max_active_machines,
            m.machines_touched,
            m.max_words_per_round,
            m.total_words,
            m.total_messages,
            m.total_words_sent,
            m.lost_words,
            m.lost_messages,
            m.violations.len(),
        ]);
    }

    /// A batch's scalars (chaos streams apply whole batches).
    fn batch(&mut self, m: &BatchMetrics) {
        self.words(&[
            m.rounds,
            m.max_active_machines,
            m.machines_touched,
            m.max_words_per_round,
            m.total_words,
            m.total_messages,
            m.lost_words,
            m.lost_messages,
            m.violations,
        ]);
    }

    fn finish(&self) -> u64 {
        fnv1a(&self.0)
    }
}

fn matching(n: usize, m_max: usize) -> DmpcMaximalMatching {
    DmpcMaximalMatching::new(DmpcParams::new(n, m_max))
}

/// Mixed churn, audited against the oracle; the query plane answers from
/// the maintained matching.
fn churn(seed: u64) -> Golden {
    let n = 40;
    let mut alg = matching(n, 160);
    let mut g = DynamicGraph::new(n);
    let mut fold = MetricsFold::default();
    for (step, &u) in streams::churn_stream(n, 60, 140, 0.55, seed)
        .iter()
        .enumerate()
    {
        let m = match u {
            Update::Insert(e) => {
                g.insert(e).unwrap();
                alg.insert(e)
            }
            Update::Delete(e) => {
                g.delete(e).unwrap();
                alg.delete(e)
            }
        };
        assert!(m.clean(), "seed {seed} step {step}: {:?}", m.violations);
        fold.update(&m);
    }
    alg.audit(&g).unwrap();
    let queries: Vec<Query> = (0..n as u32)
        .map(Query::IsMatched)
        .chain(std::iter::once(Query::MatchingSize))
        .collect();
    let (answers, _) = alg.answer_queries(&queries);
    let mm = alg.matching();
    let want: Vec<QueryAnswer> = (0..n as u32)
        .map(|v| QueryAnswer::Bool(mm.is_matched(v)))
        .chain(std::iter::once(QueryAnswer::Count(mm.size())))
        .collect();
    assert_eq!(answers, want, "seed {seed}: query answers");
    (alg.state_digest(), fold.finish())
}

/// Chaos run (kills + full-log-replay revives); the fold covers every batch
/// the harness applies, replica replays included.
fn chaos(seed: u64) -> Golden {
    let n = 32;
    let batches = streams::chaos_churn_batches(n, 4, 4, 70, 8, seed);
    let p = matching(n, 160).n_shards();
    // Matching has no shard migration (full-log replay only), and the
    // coordinator (machine 0) is treated as reliable: kills only.
    let caps = ChaosCaps {
        kill_revive: true,
        split_merge: false,
        protect: 1,
    };
    let plan = ChaosPlan::generate(seed, batches.len(), p, 4, caps);
    let mut fold = MetricsFold::default();
    let apply = |a: &mut DmpcMaximalMatching, batch: &[Update]| {
        let m = a.apply_batch(batch);
        fold.batch(&m);
        m
    };
    let r = run_chaos_stream(|| matching(n, 160), apply, &batches, &plan, 3);
    assert_eq!(r.recovery.violations, 0, "seed {seed}: recovery violations");
    assert_eq!(r.workload.violations, 0, "seed {seed}: workload violations");
    (r.final_digest, fold.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn churn_streams_match_oracle(seed in 0u64..1u64 << 48) {
        churn(seed);
    }

    #[test]
    fn chaos_runs_are_clean(seed in 0u64..1u64 << 48) {
        chaos(seed);
    }
}

#[test]
fn churn_streams_match_golden() {
    for (seed, want) in SEEDS.into_iter().zip(CHURN_GOLDEN) {
        assert_eq!(churn(seed), want, "churn seed {seed}");
    }
}

#[test]
fn chaos_runs_match_golden() {
    for (seed, want) in SEEDS.into_iter().zip(CHAOS_GOLDEN) {
        assert_eq!(chaos(seed), want, "chaos seed {seed}");
    }
}
