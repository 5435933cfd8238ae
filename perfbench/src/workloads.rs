//! The three workloads: their passes over the seeded inputs, the checks of
//! every output, and the metrics a run reports.
//!
//! A pass always completes its *exact-count prefix*, a fixed number of ops
//! set by `--seconds`, and the model counts (`rounds_per_op`,
//! `words_per_op`, `*_p99_rounds`) are taken over that prefix only, so they
//! repeat exactly for a seed. An untraced pass then goes on until the
//! measured time reaches `--seconds`, and its wall-clock metrics cover all
//! of it. A traced run measures the prefix alone, twice: once untraced as
//! the reference for the tracing overhead, once traced. Every wall-clock
//! figure is rescaled to reference host speed (see [`crate::speed`]).

use crate::adapter::{self, connectivity_answer_ok, Driven, Layer, Sequential, SetupTimes};
use crate::inputs::{Churn, ReadMix};
use crate::speed::HostSpeed;
use crate::trace::Tracer;
use crate::{Corrupt, Outcome, RunConfig, Workload};
use dmpc_connectivity::DmpcConnectivity;
use dmpc_graph::arrivals::{arrival_trace, ArrivalProcess};
use dmpc_graph::{DynamicGraph, Edge, Op, QueryAnswer, Update};
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::LatencyStats;
use dmpc_service::{CloseReason, ServiceReport};

/// Rates that size the exact-count prefix (ops per second, roughly what a
/// 2-core x86-64 host reaches): the prefix lasts about [`EXACT_SHARE`] of
/// `--seconds` there.
const CONN_RATE: f64 = 4_000.0;
const MATCH_RATE: f64 = 40_000.0;
const SVC_RATE: f64 = 60_000.0;
const EXACT_SHARE: f64 = 0.4;
/// The churn workloads issue [`READS`] point reads, one `answer_queries`
/// call each, after every [`READ_EVERY`] updates. One read per call gives
/// each run thousands of read latencies, so their p99 is steady.
const READS: usize = 16;
const READ_EVERY: usize = 128;
/// Steady service arrivals per simulated tick: an open loop, since the
/// simulated clock never waits on execution.
const ARRIVALS: ArrivalProcess = ArrivalProcess::Steady { ops_per_tick: 4.0 };

pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::ConnGiantChurn => churn::<DmpcConnectivity>(cfg, CONN_RATE),
        Workload::MatchChurn => churn::<DmpcMaximalMatching>(cfg, MATCH_RATE),
        Workload::SvcClusteredMixed => service(cfg),
    }
}

/// How long a pass runs: its exact-count prefix, then on until `seconds`
/// of measured time (0 in a traced run, which measures the prefix alone).
struct Budget {
    exact_ops: usize,
    seconds: f64,
}

impl Budget {
    fn new(cfg: &RunConfig, rate: f64) -> Self {
        Budget {
            exact_ops: ((rate * EXACT_SHARE * cfg.seconds).ceil() as usize).max(1),
            seconds: if cfg.trace { 0.0 } else { cfg.seconds },
        }
    }

    fn in_prefix(&self, ops: usize) -> bool {
        ops < self.exact_ops
    }

    fn more(&self, ops: usize, measured_s: f64) -> bool {
        self.in_prefix(ops) || measured_s < self.seconds
    }
}

/// Model counts over the exact-count prefix.
#[derive(Default)]
struct Exact {
    ops: usize,
    rounds: usize,
    words: usize,
    write_rounds: LatencyStats,
    read_rounds: LatencyStats,
}

/// Admission and windowing counts of the service loop.
#[derive(Default)]
struct ServiceStats {
    arrived: usize,
    admitted: usize,
    windows: usize,
    size_closed: usize,
    peak_buffered: usize,
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    /// Ops counted by `ops_per_s` (updates on churn, admitted ops on the
    /// service), the wall seconds they took, and those seconds rescaled to
    /// reference host speed call by call.
    ops: usize,
    ops_s: f64,
    scaled_s: f64,
    /// Per-op wall latency, in seconds; multiplied by `latency_scale` it is
    /// at reference host speed.
    write_secs: LatencyStats,
    read_secs: LatencyStats,
    latency_scale: f64,
    exact: Exact,
    service: ServiceStats,
    attempted: usize,
    failed: usize,
    /// Host speed during the pass.
    speed: HostSpeed,
    /// Peak resident memory when the exact-count prefix completed.
    peak_rss_mb: f64,
}

impl Pass {
    /// `ops_per_s` at reference host speed.
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.scaled_s
    }

    /// Records the peak resident memory once the prefix is done, so that it
    /// reflects a fixed amount of work rather than the run's length.
    fn note_rss(&mut self, exact: bool) {
        if !exact && self.peak_rss_mb == 0.0 {
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    /// Folds the final-state check in: a wrong state fails every op.
    fn check_state(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            eprintln!("check failed: final state: {e}");
            self.failed = self.attempted;
        }
    }
}

/// Builds `count` instances, timing each, and keeps the last `keep`. Each
/// build's times are rescaled by a kernel sample taken right after it.
fn build<A: Layer>(
    n: usize,
    edges: &[Edge],
    count: usize,
    keep: usize,
) -> (Vec<Driven<A>>, Vec<SetupTimes>) {
    let mut kept = Vec::new();
    let mut times = Vec::new();
    for i in 0..count.max(keep) {
        let (d, t) = adapter::setup::<A>(n, edges, None);
        let scale = HostSpeed::default().scale();
        times.push(SetupTimes {
            total_s: t.total_s * scale,
            load_s: t.load_s * scale,
        });
        if i + keep >= count.max(keep) {
            kept.push(d);
        }
    }
    (kept, times)
}

/// `conn-giant-churn` and `match-churn`: `2n` uniform edges bulk-loaded,
/// then uniform churn in chunks of `admission_budget()`, with point reads
/// after every [`READ_EVERY`] updates.
fn churn<A: Layer>(cfg: &RunConfig, rate: f64) -> Outcome {
    let n = cfg.scale.n;
    let budget = Budget::new(cfg, rate);
    let fresh = || {
        let mut gen = Churn::new(n, 1, cfg.seed);
        let bulk = gen.build_up(2 * n);
        (gen, bulk)
    };
    let (mut gen, bulk) = fresh();
    let (mut kept, setups) = build::<A>(n, &bulk, cfg.scale.setups, 1);
    let mut d = kept.pop().expect("one instance kept");
    let mut p = churn_pass(&mut d, &mut gen, &budget, cfg.corrupt);
    drop(d);
    let mut out = Outcome::new(cfg.trace);
    out.attempted += p.attempted as u64;
    out.failed += p.failed as u64;
    if !cfg.trace {
        end_to_end(&mut out, &setups, &mut p);
        return out;
    }
    let (mut gen, _) = fresh();
    let (mut traced, _) = adapter::setup::<A>(n, &bulk, Some(Tracer::default()));
    let mut tp = churn_pass(&mut traced, &mut gen, &budget, None);
    out.attempted += tp.attempted as u64;
    out.failed += tp.failed as u64;
    let (mut gen, _) = fresh();
    let chunk = traced.batch_budget();
    baseline::<A::Baseline>(&mut out, n, &bulk, &mut gen, budget.exact_ops, chunk);
    per_layer(&mut out, &setups, &traced, &p, &mut tp);
    write_trace(cfg, &traced);
    out
}

fn churn_pass<A: Layer>(
    d: &mut Driven<A>,
    gen: &mut Churn,
    budget: &Budget,
    corrupt: Option<Corrupt>,
) -> Pass {
    let chunk = d.batch_budget();
    // Churn latencies are rescaled call by call as they are recorded.
    let mut p = Pass {
        latency_scale: 1.0,
        ..Pass::default()
    };
    let (mut measured, mut unread) = (0.0, 0);
    while budget.more(p.ops, measured) {
        let exact = budget.in_prefix(p.ops);
        p.note_rss(exact);
        let updates = gen.chunk(chunk);
        let (bm, secs) = d.apply(&updates);
        let local = p.speed.local_scale();
        // Every op of a call completes when the call returns, and every
        // call carries equally many ops, so per-op percentiles are
        // per-call percentiles.
        p.write_secs.record(secs * local);
        if exact {
            p.exact.ops += updates.len();
            p.exact.rounds += bm.rounds;
            p.exact.words += bm.total_words;
            p.exact.write_rounds.record(bm.rounds as f64);
        }
        p.ops += updates.len();
        p.ops_s += secs;
        p.scaled_s += secs * local;
        p.attempted += updates.len();
        let mut iteration_s = secs;
        unread += updates.len();
        if unread >= READ_EVERY {
            unread = 0;
            let queries = gen.reads(READS, A::READS);
            let mut answers = Vec::with_capacity(READS);
            for q in &queries {
                let (a, qm, secs) = d.query(std::slice::from_ref(q));
                answers.extend(a);
                p.read_secs.record(secs * local);
                if exact {
                    p.exact.read_rounds.record(qm.rounds as f64);
                }
                iteration_s += secs;
            }
            if corrupt == Some(Corrupt::Answer) && p.read_secs.count() == READS {
                answers[0] = QueryAnswer::Unsupported;
            }
            p.failed += d.inner().wrong_answers(gen.graph(), &queries, &answers);
            p.attempted += READS;
        }
        // Sampled before a batch call rather than a read: the kernel leaves
        // caches cold, which a read of a few microseconds would feel.
        measured += iteration_s;
        p.speed.after(iteration_s);
    }
    p.note_rss(false);
    p.failed += d.model.violating_ops;
    p.check_state(d.inner().check_state(gen.graph()));
    p
}

/// `svc-clustered-mixed`: 16 bulk-loaded 256-vertex communities, then a
/// 50/50 mix of in-community writes and reads arriving steadily at the
/// service loop.
fn service(cfg: &RunConfig) -> Outcome {
    let n = cfg.scale.n;
    let span = n / cfg.scale.communities;
    let budget = Budget::new(cfg, SVC_RATE);
    let fresh = || {
        let mut gen = Churn::new(n, cfg.scale.communities, cfg.seed);
        let bulk = gen.build_up(2 * span);
        (gen, bulk)
    };
    let (mut gen, bulk) = fresh();
    let keep = if cfg.trace { 3 } else { 2 };
    let (mut kept, setups) = build::<DmpcConnectivity>(n, &bulk, cfg.scale.setups, keep);
    let mut replay = kept.pop().expect("replay instance kept");
    let mut online = kept.pop().expect("online instance kept");
    let mut p = service_pass(&mut online, &mut replay, &mut gen, &budget, cfg);
    drop((online, replay));
    let mut out = Outcome::new(cfg.trace);
    out.attempted += p.attempted as u64;
    out.failed += p.failed as u64;
    if !cfg.trace {
        end_to_end(&mut out, &setups, &mut p);
        return out;
    }
    let (mut gen, _) = fresh();
    let (mut traced, _) = adapter::setup::<DmpcConnectivity>(n, &bulk, Some(Tracer::default()));
    let mut replay = kept.pop().expect("second replay instance kept");
    let untraced_cfg = RunConfig {
        corrupt: None,
        ..cfg.clone()
    };
    let mut tp = service_pass(&mut traced, &mut replay, &mut gen, &budget, &untraced_cfg);
    out.attempted += tp.attempted as u64;
    out.failed += tp.failed as u64;
    let (mut gen, _) = fresh();
    let chunk = traced.batch_budget();
    let writes = tp.exact.ops / 2;
    baseline::<<DmpcConnectivity as Layer>::Baseline>(&mut out, n, &bulk, &mut gen, writes, chunk);
    per_layer(&mut out, &setups, &traced, &p, &mut tp);
    let tracer = traced.tracer.as_ref().expect("traced instance");
    let self_s = tracer.self_secs("run_service") * tp.speed.scale();
    let s = &tp.service;
    let windows = s.windows as f64;
    out.set("service.self_s", self_s);
    out.set("service.windows", windows);
    out.set("service.ops_per_window", s.admitted as f64 / windows);
    out.set(
        "service.runs_per_window",
        (traced.writes.calls + traced.reads.calls) as f64 / windows,
    );
    out.set("service.size_close_frac", s.size_closed as f64 / windows);
    out.set("service.peak_buffered", s.peak_buffered as f64);
    out.set("service.admit_frac", s.admitted as f64 / s.arrived as f64);
    write_trace(cfg, &traced);
    out
}

fn service_pass(
    online: &mut Driven<DmpcConnectivity>,
    replay: &mut Driven<DmpcConnectivity>,
    gen: &mut Churn,
    budget: &Budget,
    cfg: &RunConfig,
) -> Pass {
    let mut oracle = gen.graph().clone();
    let mut p = Pass::default();
    let mut segment = 0u64;
    while budget.more(p.ops, p.ops_s) {
        let exact = budget.in_prefix(p.ops);
        p.note_rss(exact);
        let ops = gen.mixed(cfg.scale.segment_ops, ReadMix::Connectivity);
        let arrivals = arrival_trace(&ops, ARRIVALS, cfg.seed ^ (segment << 32));
        let (mut rep, secs) = adapter::serve(online, &arrivals);
        let offline = adapter::replay(replay, &rep.windows);
        match cfg.corrupt {
            Some(Corrupt::Answer) if segment == 0 => rep.answers[0] = QueryAnswer::Unsupported,
            Some(Corrupt::Digest) if segment == 0 => rep.final_digest ^= 1,
            _ => {}
        }
        if rep.final_digest != offline.final_digest || rep.answers != offline.answers {
            eprintln!("check failed: segment {segment} differs from its offline replay");
            p.failed += rep.arrived;
        }
        p.failed += rep.shed.len() + wrong_service_answers(&mut oracle, &rep);
        p.write_secs.merge(&rep.write_latency.secs);
        p.read_secs.merge(&rep.read_latency.secs);
        if exact {
            p.exact.ops += rep.admitted;
            p.exact.rounds += rep.writes.rounds + rep.reads.rounds;
            p.exact.words += rep.writes.total_words + rep.reads.total_words;
            p.exact.write_rounds.merge(&rep.write_latency.rounds);
            p.exact.read_rounds.merge(&rep.read_latency.rounds);
        }
        let s = &mut p.service;
        s.arrived += rep.arrived;
        s.admitted += rep.admitted;
        s.windows += rep.windows.len();
        s.size_closed += rep
            .windows
            .iter()
            .filter(|w| w.reason == CloseReason::Size)
            .count();
        s.peak_buffered = s.peak_buffered.max(rep.peak_buffered);
        p.ops += rep.admitted;
        p.ops_s += secs;
        p.scaled_s += secs * p.speed.local_scale();
        p.speed.after(secs);
        p.attempted += rep.arrived;
        segment += 1;
    }
    p.note_rss(false);
    // `ServiceReport` latencies are rescaled by the pass's mean speed.
    p.latency_scale = p.speed.scale();
    p.failed += online.model.violating_ops;
    p.check_state(online.inner().check_state(gen.graph()));
    p
}

/// Replays the admitted ops on the oracle in admitted order and counts the
/// reads whose answer differs from it.
fn wrong_service_answers(oracle: &mut DynamicGraph, rep: &ServiceReport) -> usize {
    let mut answers = rep.answers.iter();
    let mut wrong = 0;
    for op in rep.windows.iter().flat_map(|w| &w.ops) {
        match *op {
            Op::Write(Update::Insert(e)) => wrong += usize::from(oracle.insert(e).is_err()),
            Op::Write(Update::Delete(e)) => wrong += usize::from(oracle.delete(e).is_err()),
            Op::Read(q) => match answers.next() {
                Some(&a) if connectivity_answer_ok(oracle, q, a) => {}
                _ => wrong += 1,
            },
        }
    }
    wrong + answers.count()
}

/// The sequential baseline on the same write stream: bulk inserts, then
/// `updates` churn updates, one by one. It is a reference rate, not the
/// system under test, so a wrong final state or a panic is reported in
/// `seqdyn.failed_checks` instead of failing the run's ops.
fn baseline<S: Sequential>(
    out: &mut Outcome,
    n: usize,
    bulk: &[Edge],
    gen: &mut Churn,
    updates: usize,
    chunk: usize,
) {
    let mut s = S::build(n);
    let inserts: Vec<Update> = bulk.iter().map(|&e| Update::Insert(e)).collect();
    let mut result = adapter::time_sequential(&mut s, &inserts).map(|_| ());
    let (mut done, mut secs, mut speed) = (0, 0.0, HostSpeed::default());
    while result.is_ok() && done < updates.max(1) {
        let ups = gen.chunk(chunk);
        match adapter::time_sequential(&mut s, &ups) {
            Ok(t) => {
                secs += t;
                done += ups.len();
                speed.after(t);
            }
            Err(e) => result = Err(e),
        }
    }
    let result = result.and_then(|()| s.check(gen.graph()));
    if let Err(e) = &result {
        eprintln!("seqdyn.{} check failed: {e}", S::NAME);
    }
    out.set(
        &format!("seqdyn.{}.ops_per_s", S::NAME),
        done as f64 / (secs * speed.scale()),
    );
    out.set("seqdyn.failed_checks", f64::from(u8::from(result.is_err())));
}

fn end_to_end(out: &mut Outcome, setups: &[SetupTimes], p: &mut Pass) {
    let ms = p.latency_scale * 1e3;
    let e = &p.exact;
    out.set("setup_s", median(setups.iter().map(|t| t.total_s)));
    out.set("write_p50_ms", p.write_secs.p50() * ms);
    out.set("write_p99_ms", p.write_secs.p99() * ms);
    out.set("read_p50_ms", p.read_secs.p50() * ms);
    out.set("read_p99_ms", p.read_secs.p99() * ms);
    out.set("write_p99_rounds", e.write_rounds.p99());
    out.set("read_p99_rounds", e.read_rounds.p99());
    out.set("rounds_per_op", e.rounds as f64 / e.ops as f64);
    out.set("words_per_op", e.words as f64 / e.ops as f64);
    out.set("peak_rss_mb", p.peak_rss_mb);
    out.set("ops_per_s", p.ops_per_s());
    eprintln!(
        "host: reference kernel {:.1} us on average; unscaled ops_per_s {:.1}",
        p.speed.mean_s() * 1e6,
        p.ops as f64 / p.ops_s
    );
}

/// The per-layer metrics of the traced pass `tp` of layer `A`; `p` is the
/// untraced reference pass over the same ops.
fn per_layer<A: Layer>(
    out: &mut Outcome,
    setups: &[SetupTimes],
    d: &Driven<A>,
    p: &Pass,
    tp: &mut Pass,
) {
    let t = d.tracer.as_ref().expect("traced instance");
    let l = A::NAME;
    let scale = tp.speed.scale();
    let per = |x: f64, y: usize| if y == 0 { 0.0 } else { x / y as f64 };
    let (w, r) = (&d.writes, &d.reads);
    let w_busy = t.self_secs("apply_batch") * scale;
    let r_busy = t.self_secs("answer_queries") * scale;
    out.set(&format!("{l}.apply_batch.calls"), w.calls as f64);
    out.set(&format!("{l}.apply_batch.busy_s"), w_busy);
    out.set(
        &format!("{l}.apply_batch.updates_per_call"),
        per(w.items as f64, w.calls),
    );
    out.set(
        &format!("{l}.apply_batch.p50_ms"),
        w.secs.p50() * scale * 1e3,
    );
    out.set(
        &format!("{l}.apply_batch.p99_ms"),
        w.secs.p99() * scale * 1e3,
    );
    out.set(
        &format!("{l}.apply_batch.ns_per_round"),
        per(w_busy * 1e9, w.rounds),
    );
    out.set(&format!("{l}.answer_queries.calls"), r.calls as f64);
    out.set(&format!("{l}.answer_queries.busy_s"), r_busy);
    out.set(
        &format!("{l}.answer_queries.queries_per_call"),
        per(r.items as f64, r.calls),
    );
    out.set(
        &format!("{l}.answer_queries.ns_per_round"),
        per(r_busy * 1e9, r.rounds),
    );
    out.set(
        &format!("{l}.bulk_load_s"),
        median(setups.iter().map(|t| t.load_s)),
    );
    let m = &d.model;
    if l == "connectivity" {
        out.set(
            "connectivity.conflict_groups",
            per(m.conflict_groups as f64, w.calls),
        );
        out.set(
            "connectivity.conflict_depth",
            per(m.conflict_depth as f64, w.calls),
        );
        out.set("connectivity.max_lanes", m.max_lanes as f64);
    }
    out.set("mpc.rounds", m.rounds as f64);
    out.set("mpc.words", m.words as f64);
    out.set("mpc.messages", m.messages as f64);
    out.set("mpc.words_per_message", per(m.words as f64, m.messages));
    out.set("mpc.max_words_per_round", m.max_words_per_round as f64);
    out.set("mpc.max_active_machines", m.max_active_machines as f64);
    out.set("mpc.machines_touched", m.machines_touched as f64);
    out.set("mpc.violations", m.violations as f64);
    out.set("mpc.lost_words", m.lost_words as f64);
    out.set("mpc.resident_words_peak", m.resident_words_peak as f64);
    out.set("host.ref_kernel_us", tp.speed.mean_s() * 1e6);
    out.set("trace.untraced_ops_per_s", p.ops_per_s());
    out.set("trace.traced_ops_per_s", tp.ops_per_s());
    out.set("trace.overhead_frac", 1.0 - tp.ops_per_s() / p.ops_per_s());
    out.set("trace.spans", t.span_count() as f64);
}

fn write_trace<A>(cfg: &RunConfig, d: &Driven<A>) {
    let (Some(dir), Some(t)) = (&cfg.trace_dir, &d.tracer) else {
        return;
    };
    let path = dir.join(format!("{}-seed{}.tsv", cfg.workload.name(), cfg.seed));
    match t.write_tsv(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident memory of this process (VmHWM), in MiB; NaN where the
/// kernel does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
