//! Million-vertex scaling trajectory + the canonical SoA cell: writes
//! `BENCH_PR7.json`.
//!
//! **What it measures.** Two things the compact machine-state refactor is
//! accountable for:
//!
//! 1. **Canonical cell** (n = 256, 1024 churn updates, seed 42 — the exact
//!    BENCH_PR3.json configuration): the arena-backed SoA storage on the
//!    serial executor, reported in updates/sec against the shipped pre-PR
//!    baseline, with the final state digest checked against a golden
//!    constant. Like BENCH_PR3.json, the speedup is core-count
//!    fingerprinted: `canonical` is true only on a host matching the
//!    capture fingerprint, so recorded speedups always refer to the capture
//!    host.
//! 2. **Large-n trajectory**: n = 2^10 … 2^20 with `P = Θ(N/S)` machines
//!    (2048 at n = 2^20), over the clustered churn workload (256-vertex
//!    component grain — see `trajectory_workload` for why owner-set
//!    locality is what makes a one-host simulation of the model feasible
//!    at millions of vertices). Each cell reports wall-clock updates/sec,
//!    the peak resident-words proxy (which must grow ~linearly in the
//!    input), and the model-violation count (which must be zero).
//!
//! Usage: `large_scale [json-path] [exp...]` — defaults: `BENCH_PR7.json`,
//! exps `10 12 14 16 18 20` (`n = 2^exp`). Connectivity runs at every n;
//! matching joins at n >= 2^14 (its coordinator protocol dominates below).
//! CI smokes the single n = 2^14 cell and gates on the JSON via
//! `ci/check_perf_floor.py`.

use dmpc_bench::{canonical_workload, time_stream_batched, trajectory_workload, TimedRun};
use dmpc_connectivity::DmpcConnectivity;
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::Update;
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::ExecOptions;

/// The canonical configuration (matches BENCH_PR3.json).
const CANON_N: usize = 256;
const CANON_UPDATES: usize = 1024;
/// Host fingerprint of the floor capture (a 1-core CI container).
const BASELINE_HOST_CORES: usize = 1;
const SEED: u64 = 42;
/// Repetitions for the small canonical cells; the fastest run is kept.
const CANON_REPS: usize = 3;
/// Batched-replay chunk for the trajectory cells (the PR 5 batch plane).
const K: usize = 64;
/// Matching joins the trajectory here.
const MATCHING_MIN_EXP: u32 = 14;

/// Churn tail per trajectory cell: enough steps for a stable rate at small
/// n, capped so the 2^20 cell (whose 2n-insert build-up already dominates)
/// stays minutes, not hours.
fn churn_steps(n: usize) -> usize {
    (n / 4).clamp(1024, 1 << 18)
}

/// Pre-PR map-layout capture at the canonical configuration, serial
/// executor, on the fingerprinted 1-core host: `(alg, k,
/// updates_per_sec, peak_resident_words)`. Captured by running the
/// `throughput` bin on the pre-refactor working tree (the commit this PR
/// stacks on), whose machines stored per-vertex `BTreeMap` state; the
/// trajectory claim is against the *shipped* pre-PR numbers below.
const PRE_PR_BASELINE: &[(&str, usize, f64, usize)] = &[
    ("connectivity", 1, 39450.8, 6706),
    ("connectivity", 64, 41513.7, 6670),
    ("matching", 1, 175506.4, 6284),
    ("matching", 64, 200749.2, 6320),
];

/// The tentpole's canonical-cell floor: SoA connectivity must beat the
/// pre-PR layout by this factor on the capture host.
const MIN_CONN_SPEEDUP: f64 = 1.5;

/// Final state digest of each canonical cell, `(alg, k, digest)`. Captured
/// in a run that asserted the per-vertex map storage and the SoA storage
/// reached the same digest, so a match pins the SoA state bit for bit.
const GOLDEN_DIGESTS: &[(&str, usize, u64)] = &[
    ("connectivity", 1, 0x41360df2dafbddaa),
    ("connectivity", 64, 0x0bb36fc32dd39d97),
    ("matching", 1, 0x637d38b643be57cf),
    ("matching", 64, 0xf593ba1d7ff67074),
];

fn pre_pr_baseline(alg: &str, k: usize) -> Option<(f64, usize)> {
    PRE_PR_BASELINE
        .iter()
        .find(|b| b.0 == alg && b.1 == k)
        .map(|b| (b.2, b.3))
}

fn golden_digest(alg: &str, k: usize) -> u64 {
    GOLDEN_DIGESTS
        .iter()
        .find(|g| g.0 == alg && g.1 == k)
        .expect("golden digest for every canonical cell")
        .2
}

fn make_canon(alg: &str, params: DmpcParams) -> Box<dyn CanonAlg> {
    match alg {
        "connectivity" => Box::new(DmpcConnectivity::new(params)),
        "matching" => Box::new(DmpcMaximalMatching::new(params)),
        other => panic!("unknown algorithm {other}"),
    }
}

/// The canonical cell needs both the update plane and the digest.
trait CanonAlg: DynamicGraphAlgorithm {
    fn digest(&self) -> u64;
}
impl CanonAlg for DmpcConnectivity {
    fn digest(&self) -> u64 {
        ElasticAlgorithm::state_digest(self)
    }
}
impl CanonAlg for DmpcMaximalMatching {
    fn digest(&self) -> u64 {
        ElasticAlgorithm::state_digest(self)
    }
}

/// Fastest of [`CANON_REPS`] timed replays plus the final-state digest
/// (identical across reps: the stream is fixed).
fn canon_run(alg: &str, params: DmpcParams, ups: &[Update], k: usize) -> (TimedRun, u64) {
    let mut best: Option<TimedRun> = None;
    let mut digest = 0;
    for _ in 0..CANON_REPS {
        let mut a = make_canon(alg, params);
        let run = time_stream_batched(a.as_mut(), ups, k);
        digest = a.digest();
        if best.as_ref().is_none_or(|b| run.secs < b.secs) {
            best = Some(run);
        }
    }
    (best.expect("at least one rep"), digest)
}

struct CanonConfig {
    alg: &'static str,
    k: usize,
    soa: TimedRun,
    /// The final digest equals [`GOLDEN_DIGESTS`].
    digests_match: bool,
}

struct Cell {
    alg: &'static str,
    n: usize,
    p: usize,
    stream_len: usize,
    run: TimedRun,
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".into()
    }
}

fn timed_json(r: &TimedRun) -> String {
    format!(
        concat!(
            "{{\"updates_per_sec\": {}, \"secs\": {}, \"rounds\": {}, ",
            "\"total_words\": {}, \"peak_resident_words\": {}, \"violations\": {}}}"
        ),
        json_f64(r.updates_per_sec()),
        json_f64(r.secs),
        r.batch.rounds,
        r.batch.total_words,
        r.peak_resident_words,
        r.batch.violations,
    )
}

fn main() {
    let json_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR7.json".into());
    let exps: Vec<u32> = {
        let given: Vec<u32> = std::env::args()
            .skip(2)
            .map(|s| s.parse().expect("exp arguments must be integers"))
            .collect();
        if given.is_empty() {
            vec![10, 12, 14, 16, 18, 20]
        } else {
            given
        }
    };
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(0);
    let canonical = host_cores == BASELINE_HOST_CORES;

    // ----- canonical cell ------------------------------------------------
    let (params, ups) = canonical_workload(CANON_N, CANON_UPDATES, SEED);
    println!(
        "Canonical cell: n = {CANON_N}, {} churn updates, serial executor\n",
        ups.len()
    );
    println!(
        "{:<13} | {:>4} | {:>13} | {:>9} | {:>7}",
        "algorithm", "k", "soa updates/s", "vs prePR", "digest"
    );
    let mut canon: Vec<CanonConfig> = Vec::new();
    for alg in ["connectivity", "matching"] {
        for k in [1usize, 64] {
            let (soa, ds) = canon_run(alg, params, &ups, k);
            let digests_match = ds == golden_digest(alg, k);
            assert!(
                digests_match,
                "{alg} k={k}: digest {ds:#018x} differs from the golden digest"
            );
            assert_eq!(soa.batch.violations, 0, "{alg}: violated the model");
            let vs_pre_pr = pre_pr_baseline(alg, k)
                .map(|(base, _)| soa.updates_per_sec() / base)
                .filter(|_| canonical);
            if alg == "connectivity" && canonical {
                let s = vs_pre_pr.expect("baseline covers connectivity");
                assert!(
                    s >= MIN_CONN_SPEEDUP,
                    "connectivity k={k}: {s:.2}x vs the pre-PR layout, floor {MIN_CONN_SPEEDUP}x"
                );
            }
            println!(
                "{alg:<13} | {k:>4} | {:>13.1} | {:>9} | {:>7}",
                soa.updates_per_sec(),
                vs_pre_pr
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "--".into()),
                if digests_match { "match" } else { "DIFFER" },
            );
            canon.push(CanonConfig {
                alg,
                k,
                soa,
                digests_match,
            });
        }
    }
    if !canonical {
        println!(
            "\nnote: host has {host_cores} cores, capture fingerprint is \
             {BASELINE_HOST_CORES}; pre-PR speedups suppressed (they would \
             reflect hardware, not the storage)."
        );
    }

    // ----- large-n trajectory -------------------------------------------
    println!("\nLarge-n trajectory: clustered churn, lean serial executor, k = {K}\n");
    println!(
        "{:<13} | {:>8} | {:>5} | {:>8} | {:>11} | {:>9} | {:>12} | {:>5}",
        "algorithm", "n", "P", "stream", "updates/s", "secs", "peak words", "viol"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for &e in &exps {
        let n = 1usize << e;
        let (params, ups) = trajectory_workload(n, churn_steps(n), SEED);
        let mut algs: Vec<(&'static str, Box<dyn DynamicGraphAlgorithm>)> = vec![(
            "connectivity",
            Box::new(DmpcConnectivity::with_exec(params, ExecOptions::lean())),
        )];
        if e >= MATCHING_MIN_EXP {
            algs.push((
                "matching",
                Box::new(DmpcMaximalMatching::with_exec(params, ExecOptions::lean())),
            ));
        }
        for (alg, mut a) in algs {
            let run = time_stream_batched(a.as_mut(), &ups, K);
            assert_eq!(
                run.batch.violations, 0,
                "{alg} at n=2^{e}: model violations"
            );
            println!(
                "{alg:<13} | {n:>8} | {:>5} | {:>8} | {:>11.1} | {:>9.3} | {:>12} | {:>5}",
                params.storage_machines(),
                ups.len(),
                run.updates_per_sec(),
                run.secs,
                run.peak_resident_words,
                run.batch.violations,
            );
            cells.push(Cell {
                alg,
                n,
                p: params.storage_machines(),
                stream_len: ups.len(),
                run,
            });
        }
    }

    // ----- JSON ----------------------------------------------------------
    let canon_json: Vec<String> = canon
        .iter()
        .map(|c| {
            let (base, vs_pre_pr) = match pre_pr_baseline(c.alg, c.k) {
                Some((ups, words)) if canonical => (
                    format!(
                        "{{\"updates_per_sec\": {}, \"peak_resident_words\": {}}}",
                        json_f64(ups),
                        words
                    ),
                    json_f64(c.soa.updates_per_sec() / ups),
                ),
                _ => ("null".into(), "null".into()),
            };
            format!(
                concat!(
                    "    {{\"alg\": \"{}\", \"k\": {},\n",
                    "     \"soa\": {},\n",
                    "     \"pre_pr\": {},\n",
                    "     \"speedup_vs_pre_pr\": {}, ",
                    "\"digests_match\": {}}}"
                ),
                c.alg,
                c.k,
                timed_json(&c.soa),
                base,
                vs_pre_pr,
                c.digests_match,
            )
        })
        .collect();
    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| {
            let input = c.n + 3 * c.n;
            format!(
                concat!(
                    "    {{\"alg\": \"{}\", \"n\": {}, \"p\": {}, \"stream_len\": {},\n",
                    "     \"current\": {},\n",
                    "     \"words_per_input\": {}}}"
                ),
                c.alg,
                c.n,
                c.p,
                c.stream_len,
                timed_json(&c.run),
                json_f64(c.run.peak_resident_words as f64 / input as f64),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"large_scale\",\n",
            "  \"pr\": 7,\n",
            "  \"seed\": {},\n",
            "  \"k\": {},\n",
            "  \"canonical_n\": {},\n",
            "  \"canonical_updates\": {},\n",
            "  \"host_cores\": {},\n",
            "  \"baseline_host_cores\": {},\n",
            "  \"canonical\": {},\n",
            "  \"canonical_comparison\": [\n{}\n  ],\n",
            "  \"cells\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SEED,
        K,
        CANON_N,
        CANON_UPDATES,
        host_cores,
        BASELINE_HOST_CORES,
        canonical,
        canon_json.join(",\n"),
        cell_json.join(",\n"),
    );
    std::fs::write(&json_path, &json).expect("write large-scale JSON");
    println!("\nwrote {json_path}");
}
