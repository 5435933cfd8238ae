//! Golden-value suite for the connectivity and MST storage: every stream is
//! checked two ways.
//!
//! * **Oracle.** On random seeds, the maintained partition equals the
//!   `DynamicGraph` ground truth's, the structural audits pass, and no update
//!   violates the model.
//! * **Golden.** On fixed seeds, the final `state_digest` and an FNV-1a fold
//!   of every update's scalar [`UpdateMetrics`] equal committed constants. The
//!   constants were captured from a run that first asserted the legacy
//!   per-vertex map storage and the SoA shard agreed on that seed, so they pin
//!   the protocol (messages, rounds, words, snapshot lines) bit for bit.
//!
//! Snapshots sort by vertex and far endpoint, so the digests are
//! storage-independent, including across kill/revive recovery and
//! split/merge shard migration.

use dmpc_connectivity::{DmpcConnectivity, DmpcMst};
use dmpc_core::{
    run_chaos_stream, DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm,
    WeightedDynamicGraphAlgorithm,
};
use dmpc_graph::mst::msf_weight;
use dmpc_graph::streams::{self, Update, WeightedUpdate};
use dmpc_graph::{DynamicGraph, Edge, Weight};
use dmpc_mpc::chaos::fnv1a;
use dmpc_mpc::{BatchMetrics, ChaosCaps, ChaosPlan, UpdateMetrics};
use proptest::prelude::*;

/// `(final state_digest, metrics fold)` of one stream.
type Golden = (u64, u64);

/// Fixed seeds of the churn, split/merge and chaos goldens.
const SEEDS: [u64; 4] = [3, 17, 42, 0xC0FFEE];

const CHURN_GOLDEN: [Golden; 4] = [
    (0x8510c74777aa7c52, 0x655c973d02bb740f),
    (0xcc16e9b62a6f50d3, 0x0218dced30422f49),
    (0xe777968f67929a1c, 0xb178a2ac9844c02f),
    (0x1ab413d0fcefb1bd, 0xe5b1efb004b76df7),
];
const SPLIT_MERGE_GOLDEN: [Golden; 4] = [
    (0x4ffd14ebf37736be, 0x1efe48fc62d82bc4),
    (0xb3a2210316c49ab8, 0x7010e9b4e7b6ed13),
    (0xdbf1e042fc2bda0e, 0x902ae559efda58b5),
    (0xeae44594dfaf2d5b, 0x8d76d4126da2be48),
];
const CHAOS_GOLDEN: [Golden; 4] = [
    (0xa8637adc390e1bc1, 0x8a5623b4dfff905c),
    (0x7d84f1ab5ca49de7, 0x51addcd16383d05a),
    (0xa5cbb091ba860d35, 0x227037b99fe62970),
    (0x3adb2e23aa25cc43, 0xf914629a9bf8ca4e),
];
/// MST goldens, seeds `0..3`.
const MST_GOLDEN: [Golden; 3] = [
    (0xc9d92cef60c1c45f, 0x3c6c098734d73cea),
    (0xfd16e2c937268634, 0x19f89cd337378638),
    (0xcb50fbd21486df19, 0xe708bfdded4bc587),
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

fn partitions_equal(a: &[u32], b: &[u32]) -> bool {
    let norm = |labels: &[u32]| {
        let mut map = std::collections::HashMap::new();
        labels
            .iter()
            .map(|&l| {
                let next = map.len() as u32;
                *map.entry(l).or_insert(next)
            })
            .collect::<Vec<u32>>()
    };
    norm(a) == norm(b)
}

fn conn(n: usize, m_max: usize) -> DmpcConnectivity {
    DmpcConnectivity::new(DmpcParams::new(n, m_max))
}

fn mst(n: usize, m_max: usize) -> DmpcMst {
    DmpcMst::new(DmpcParams::new(n, m_max), 0.1)
}

/// Applies `u` to the algorithm and the oracle; checks the update is clean.
fn apply(alg: &mut DmpcConnectivity, g: &mut DynamicGraph, u: Update) -> UpdateMetrics {
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
    assert!(m.clean(), "violations on {u:?}: {:?}", m.violations);
    m
}

/// Mixed churn; the partition matches the oracle after every update.
fn churn(seed: u64) -> Golden {
    let n = 48;
    let mut alg = conn(n, 4 * n);
    let mut g = DynamicGraph::new(n);
    let mut fold = MetricsFold::default();
    for (step, &u) in streams::churn_stream(n, 80, 160, 0.55, seed)
        .iter()
        .enumerate()
    {
        fold.update(&apply(&mut alg, &mut g, u));
        assert!(
            partitions_equal(&alg.component_labels(), &g.components()),
            "seed {seed} step {step} ({u:?}): partition differs from the oracle"
        );
    }
    alg.driver().audit().unwrap();
    (alg.state_digest(), fold.finish())
}

/// Clustered churn with two splits and a merge mid-stream.
fn split_merge(seed: u64) -> Golden {
    let n = 64;
    let mut alg = conn(n, 4 * n);
    let mut g = DynamicGraph::new(n);
    let mut fold = MetricsFold::default();
    let ups = streams::clustered_churn_stream(n, 8, 10, 120, 0.6, seed);
    let (pre, post) = ups.split_at(ups.len() / 2);
    for &u in pre {
        fold.update(&apply(&mut alg, &mut g, u));
    }
    for victim in [0u32, 3] {
        let m = alg.driver_mut().split_shard(victim).expect("splittable");
        assert!(m.clean(), "split of {victim}: {:?}", m.violations);
        fold.update(&m);
    }
    let m = alg.driver_mut().merge_shard(0).expect("mergeable");
    assert!(m.clean(), "merge: {:?}", m.violations);
    fold.update(&m);
    alg.driver().audit_directory().unwrap();
    assert!(partitions_equal(&alg.component_labels(), &g.components()));
    for &u in post {
        fold.update(&apply(&mut alg, &mut g, u));
    }
    assert!(partitions_equal(&alg.component_labels(), &g.components()));
    alg.driver().audit().unwrap();
    alg.driver().audit_directory().unwrap();
    (alg.state_digest(), fold.finish())
}

/// Chaos run (kill + checkpoint/replay revive, split/merge events); the
/// fold covers every batch the harness applies, replica replays included.
fn chaos(seed: u64) -> Golden {
    let n = 40;
    let p = 5;
    let batches = streams::chaos_churn_batches(n, 5, 4, 90, 9, seed);
    let plan = ChaosPlan::generate(seed, batches.len(), p, 6, ChaosCaps::default());
    let mut fold = MetricsFold::default();
    let apply = |a: &mut DmpcConnectivity, batch: &[Update]| {
        let m = a.apply_batch(batch);
        fold.batch(&m);
        m
    };
    let r = run_chaos_stream(|| conn(n, 4 * n), apply, &batches, &plan, 3);
    assert_eq!(r.recovery.violations, 0, "seed {seed}: recovery violations");
    assert_eq!(r.workload.violations, 0, "seed {seed}: workload violations");
    (r.final_digest, fold.finish())
}

/// MST mode (weights, path-max swap cuts); the forest stays an exact MSF of
/// the live graph.
fn mst_stream(seed: u64) -> Golden {
    let n = 32;
    let mut alg = mst(n, 160);
    let mut live: Vec<(Edge, Weight)> = Vec::new();
    let mut fold = MetricsFold::default();
    let ups = streams::with_weights(&streams::churn_stream(n, 50, 120, 0.5, seed), 100, seed);
    for (step, &u) in ups.iter().enumerate() {
        let m = match u {
            WeightedUpdate::Insert(e, w) => {
                live.push((e, w));
                alg.insert(e, w)
            }
            WeightedUpdate::Delete(e) => {
                live.retain(|&(x, _)| x != e);
                alg.delete(e)
            }
        };
        assert!(m.clean(), "seed {seed} step {step}: {:?}", m.violations);
        fold.update(&m);
        assert_eq!(
            alg.forest_weight(),
            msf_weight(n, &live),
            "seed {seed} step {step}"
        );
    }
    alg.driver().audit().unwrap();
    (ElasticAlgorithm::state_digest(&alg), fold.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn churn_streams_match_oracle(seed in 0u64..1u64 << 48) {
        churn(seed);
    }

    #[test]
    fn split_merge_matches_oracle(seed in 0u64..1u64 << 48) {
        split_merge(seed);
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
fn split_merge_matches_golden() {
    for (seed, want) in SEEDS.into_iter().zip(SPLIT_MERGE_GOLDEN) {
        assert_eq!(split_merge(seed), want, "split/merge seed {seed}");
    }
}

#[test]
fn chaos_runs_match_golden() {
    for (seed, want) in SEEDS.into_iter().zip(CHAOS_GOLDEN) {
        assert_eq!(chaos(seed), want, "chaos seed {seed}");
    }
}

#[test]
fn mst_matches_oracle_and_golden() {
    for (seed, want) in (0..).zip(MST_GOLDEN) {
        assert_eq!(mst_stream(seed), want, "MST seed {seed}");
    }
}
