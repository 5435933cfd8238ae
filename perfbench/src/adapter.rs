//! The one file through which the benchmark calls the repository: building
//! and loading the algorithms, their batch and query planes, the service
//! loop and its offline replay, the state checks and the sequential
//! baselines. Every call is timed here, from outside, and the model metrics
//! it returns are summed here, so a change to a layer's public signatures is
//! a change to this file alone. Only default constructors are used.

use crate::inputs::ReadMix;
use crate::trace::Tracer;
use dmpc_connectivity::DmpcConnectivity;
use dmpc_core::{DmpcParams, DynamicGraphAlgorithm, ElasticAlgorithm};
use dmpc_graph::arrivals::Arrival;
use dmpc_graph::matching::{is_maximal_matching, is_valid_matching};
use dmpc_graph::{DynamicGraph, Edge, Query, QueryAnswer, Update, V};
use dmpc_matching::DmpcMaximalMatching;
use dmpc_mpc::{BatchMetrics, ChaosKind, LatencyStats, MachineId, QueryMetrics, UpdateMetrics};
use dmpc_seqdyn::{HdtConnectivity, NsMatching};
use dmpc_service::{
    replay_windows, run_service, OfflineReplay, ServiceAlgorithm, ServiceConfig, ServiceReport,
    WindowRecord,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// The canonical deployment at `n` vertices: `m_max = 3n`, so at
/// `n = 4096` the model has `P = 128` machines of `S = 4096` words.
pub fn params(n: usize) -> DmpcParams {
    DmpcParams::new(n, 3 * n)
}

/// A DMPC algorithm the workloads drive.
pub trait Layer: DynamicGraphAlgorithm + ElasticAlgorithm + Sized {
    /// Metric-name prefix of the layer.
    const NAME: &'static str;
    /// What the layer's reads ask.
    const READS: ReadMix;
    /// The single-threaded sequential algorithm run on the same stream.
    type Baseline: Sequential;

    /// An empty instance from the default constructor.
    fn build(n: usize) -> Self;
    /// Preprocesses the initial edge set.
    fn load(&mut self, edges: &[Edge]);
    /// Number of `answers` that disagree with the truth for `queries`,
    /// where `g` is the oracle after the same writes.
    fn wrong_answers(&self, g: &DynamicGraph, queries: &[Query], answers: &[QueryAnswer]) -> usize;
    /// Checks the whole maintained state against the oracle graph.
    fn check_state(&self, g: &DynamicGraph) -> Result<(), String>;
}

impl Layer for DmpcConnectivity {
    const NAME: &'static str = "connectivity";
    const READS: ReadMix = ReadMix::Connectivity;
    type Baseline = HdtConnectivity;

    fn build(n: usize) -> Self {
        DmpcConnectivity::new(params(n))
    }

    fn load(&mut self, edges: &[Edge]) {
        self.bulk_load(edges);
    }

    fn wrong_answers(&self, g: &DynamicGraph, queries: &[Query], answers: &[QueryAnswer]) -> usize {
        let labels = g.components();
        let connected = |a: V, b: V| labels[a as usize] == labels[b as usize];
        queries
            .iter()
            .zip(answers)
            .filter(|&(&q, &a)| !connectivity_ok(q, a, connected))
            .count()
    }

    fn check_state(&self, g: &DynamicGraph) -> Result<(), String> {
        if !same_partition(&self.component_labels(), &g.components()) {
            return Err("component labels differ from the oracle's components".into());
        }
        self.driver().audit()
    }
}

impl Layer for DmpcMaximalMatching {
    const NAME: &'static str = "matching";
    const READS: ReadMix = ReadMix::Matching;
    type Baseline = NsMatching;

    fn build(n: usize) -> Self {
        DmpcMaximalMatching::new(params(n))
    }

    fn load(&mut self, edges: &[Edge]) {
        self.bulk_load(edges);
    }

    fn wrong_answers(
        &self,
        _g: &DynamicGraph,
        queries: &[Query],
        answers: &[QueryAnswer],
    ) -> usize {
        let m = self.matching();
        queries
            .iter()
            .zip(answers)
            .filter(|&(&q, &a)| match (q, a) {
                (Query::IsMatched(v), QueryAnswer::Bool(b)) => b != m.is_matched(v),
                (Query::MatchingSize, QueryAnswer::Count(c)) => c != m.size(),
                _ => true,
            })
            .count()
    }

    fn check_state(&self, g: &DynamicGraph) -> Result<(), String> {
        self.audit(g)
    }
}

/// True when the two labelings group the vertices identically.
fn same_partition(a: &[V], b: &[V]) -> bool {
    let mut ab = HashMap::new();
    let mut ba = HashMap::new();
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| *ab.entry(x).or_insert(y) == y && *ba.entry(y).or_insert(x) == x)
}

/// True when `answer` is right for the connectivity read `q` on `g`.
pub fn connectivity_answer_ok(g: &DynamicGraph, q: Query, answer: QueryAnswer) -> bool {
    connectivity_ok(q, answer, |a, b| g.connected(a, b))
}

/// True when `answer` is right for the connectivity read `q`, given which
/// vertex pairs are `connected`. A component label is right when it names
/// a vertex of the same component.
fn connectivity_ok(q: Query, answer: QueryAnswer, connected: impl Fn(V, V) -> bool) -> bool {
    match (q, answer) {
        (Query::Connected(x, y), QueryAnswer::Bool(b)) => b == connected(x, y),
        (Query::ComponentOf(x), QueryAnswer::Component(c)) => connected(x, c),
        _ => false,
    }
}

/// Per-call counts and times of one plane (batch or query) of a layer.
#[derive(Default)]
pub struct Calls {
    pub calls: usize,
    /// Updates or queries handed over.
    pub items: usize,
    /// Model rounds the calls reported.
    pub rounds: usize,
    /// Wall seconds of each call.
    pub secs: LatencyStats,
}

impl Calls {
    fn add(&mut self, items: usize, rounds: usize, secs: f64) {
        self.calls += 1;
        self.items += items;
        self.rounds += rounds;
        self.secs.record(secs);
    }
}

/// The executor counts summed over the `BatchMetrics`/`QueryMetrics` the
/// calls returned.
#[derive(Default)]
pub struct Model {
    pub rounds: usize,
    pub words: usize,
    pub messages: usize,
    pub max_words_per_round: usize,
    pub max_active_machines: usize,
    pub machines_touched: usize,
    pub violations: usize,
    pub lost_words: usize,
    /// Ops in calls that reported a model violation.
    pub violating_ops: usize,
    /// Conflict groups and depth summed over batch calls; lanes maximal.
    pub conflict_groups: usize,
    pub conflict_depth: usize,
    pub max_lanes: usize,
    /// Peak resident words, sampled after each call of a traced run.
    pub resident_words_peak: usize,
}

impl Model {
    fn add_batch(&mut self, b: &BatchMetrics, ops: usize) {
        self.rounds += b.rounds;
        self.words += b.total_words;
        self.messages += b.total_messages;
        self.max_words_per_round = self.max_words_per_round.max(b.max_words_per_round);
        self.max_active_machines = self.max_active_machines.max(b.max_active_machines);
        self.machines_touched = self.machines_touched.max(b.machines_touched);
        self.violations += b.violations;
        if b.violations > 0 {
            self.violating_ops += ops;
        }
        self.lost_words += b.lost_words;
        self.conflict_groups += b.conflict_groups;
        self.conflict_depth += b.conflict_depth;
        self.max_lanes = self.max_lanes.max(b.max_lanes);
    }

    /// A query wave carries a subset of a batch's counts.
    fn add_query(&mut self, q: &QueryMetrics, ops: usize) {
        let as_batch = BatchMetrics {
            rounds: q.rounds,
            max_active_machines: q.max_active_machines,
            machines_touched: q.machines_touched,
            max_words_per_round: q.max_words_per_round,
            total_words: q.total_words,
            total_messages: q.total_messages,
            violations: q.violations,
            ..BatchMetrics::default()
        };
        self.add_batch(&as_batch, ops);
    }
}

/// A layer instance with its calls metered: the batch plane, the query
/// plane, the model counts and, in a traced run, a span log.
pub struct Driven<A> {
    inner: A,
    pub writes: Calls,
    pub reads: Calls,
    pub model: Model,
    pub tracer: Option<Tracer>,
}

/// Wall times of one build: construction plus `bulk_load`, and the load
/// alone.
pub struct SetupTimes {
    pub total_s: f64,
    pub load_s: f64,
}

/// Builds an instance and bulk-loads `edges`; with a tracer, the two calls
/// are its first spans.
pub fn setup<A: Layer>(
    n: usize,
    edges: &[Edge],
    mut tracer: Option<Tracer>,
) -> (Driven<A>, SetupTimes) {
    let t0 = Instant::now();
    let mut inner = A::build(n);
    let t1 = Instant::now();
    inner.load(edges);
    let t2 = Instant::now();
    if let Some(t) = &mut tracer {
        t.record("new", t0, t1);
        t.record("bulk_load", t1, t2);
    }
    let times = SetupTimes {
        total_s: (t2 - t0).as_secs_f64(),
        load_s: (t2 - t1).as_secs_f64(),
    };
    let driven = Driven {
        inner,
        writes: Calls::default(),
        reads: Calls::default(),
        model: Model::default(),
        tracer,
    };
    (driven, times)
}

impl<A: Layer> Driven<A> {
    /// The wrapped instance, for checks outside the timed region.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The layer's admission budget: the chunk size of its batches.
    pub fn batch_budget(&self) -> usize {
        DynamicGraphAlgorithm::admission_budget(&self.inner)
            .expect("the DMPC layers bound their batches")
    }

    /// `apply_batch`, timed; returns the batch metrics and wall seconds.
    pub fn apply(&mut self, updates: &[Update]) -> (BatchMetrics, f64) {
        let start = Instant::now();
        let bm = self.inner.apply_batch(updates);
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        self.writes.add(updates.len(), bm.rounds, secs);
        self.model.add_batch(&bm, updates.len());
        self.after_call("apply_batch", start, end);
        (bm, secs)
    }

    /// `answer_queries`, timed; returns the answers, the wave metrics and
    /// wall seconds.
    pub fn query(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics, f64) {
        let start = Instant::now();
        let (answers, qm) = self.inner.answer_queries(queries);
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        self.reads.add(queries.len(), qm.rounds, secs);
        self.model.add_query(&qm, queries.len());
        self.after_call("answer_queries", start, end);
        (answers, qm, secs)
    }

    fn after_call(&mut self, name: &'static str, start: Instant, end: Instant) {
        if let Some(t) = &mut self.tracer {
            t.record(name, start, end);
            if !t.in_span() {
                self.sample_resident();
            }
        }
    }

    /// Samples resident words between calls, outside any timed span.
    fn sample_resident(&mut self) {
        let words = self.inner.resident_words();
        self.model.resident_words_peak = self.model.resident_words_peak.max(words);
    }
}

/// Runs `arrivals` through `run_service` with `ServiceConfig::default()` on
/// `d`'s instance, which carries its state over from call to call. Returns
/// the report and the call's wall seconds.
pub fn serve<A: Layer>(d: &mut Driven<A>, arrivals: &[Arrival]) -> (ServiceReport, f64) {
    let start = Instant::now();
    let span = d.tracer.as_mut().map(|t| t.open("run_service", start));
    let report = {
        let slot = RefCell::new(Some(Served(&mut *d)));
        let take = || {
            slot.borrow_mut()
                .take()
                .expect("a fault-free service run builds its algorithm once")
        };
        run_service(take, arrivals, &ServiceConfig::default())
    };
    let end = Instant::now();
    if let (Some(t), Some(id)) = (d.tracer.as_mut(), span) {
        t.close(id, end);
        d.sample_resident();
    }
    (report, (end - start).as_secs_f64())
}

/// Re-executes a service run's windows offline on `d`'s instance.
pub fn replay<A: Layer>(d: &mut Driven<A>, windows: &[WindowRecord]) -> OfflineReplay {
    replay_windows(&mut Served(d), windows)
}

/// The service's view of a metered instance: its window calls go through
/// [`Driven::apply`] and [`Driven::query`], so they are timed and traced as
/// children of the `run_service` span.
struct Served<'a, A>(&'a mut Driven<A>);

impl<A: Layer> ServiceAlgorithm for Served<'_, A> {
    fn service_name(&self) -> &'static str {
        self.0.inner.name()
    }

    fn apply_window(&mut self, updates: &[Update]) -> BatchMetrics {
        self.0.apply(updates).0
    }

    fn answer_window(&mut self, queries: &[Query]) -> (Vec<QueryAnswer>, QueryMetrics) {
        let (answers, qm, _) = self.0.query(queries);
        (answers, qm)
    }

    fn admission_budget(&self) -> Option<usize> {
        DynamicGraphAlgorithm::admission_budget(&self.0.inner)
    }
}

impl<A: Layer> ElasticAlgorithm for Served<'_, A> {
    fn n_shards(&self) -> usize {
        self.0.inner.n_shards()
    }
    fn killable(&self, m: MachineId) -> bool {
        self.0.inner.killable(m)
    }
    fn is_alive(&self, m: MachineId) -> bool {
        self.0.inner.is_alive(m)
    }
    fn round_limit(&self) -> usize {
        self.0.inner.round_limit()
    }
    fn arm_in_round(&mut self, at_round: u32, kind: ChaosKind) {
        self.0.inner.arm_in_round(at_round, kind)
    }
    fn restore_machine(&mut self, m: MachineId, snap: &str) {
        self.0.inner.restore_machine(m, snap)
    }
    fn supports_restore(&self) -> bool {
        self.0.inner.supports_restore()
    }
    fn snapshot_machine(&self, m: MachineId) -> String {
        self.0.inner.snapshot_machine(m)
    }
    fn restore(&mut self, snaps: &[String]) {
        self.0.inner.restore(snaps)
    }
    fn kill(&mut self, m: MachineId) {
        self.0.inner.kill(m)
    }
    fn revive(&mut self, m: MachineId, snap: &str) -> UpdateMetrics {
        self.0.inner.revive(m, snap)
    }
    fn state_digest(&self) -> u64 {
        self.0.inner.state_digest()
    }
}

/// A single-threaded sequential dynamic algorithm (the `seqdyn` layer).
pub trait Sequential {
    /// Metric-name part of the baseline.
    const NAME: &'static str;
    /// An empty instance over `n` vertices.
    fn build(n: usize) -> Self;
    /// Applies one update.
    fn update(&mut self, u: Update);
    /// Checks the maintained state against the oracle graph.
    fn check(&mut self, g: &DynamicGraph) -> Result<(), String>;
}

impl Sequential for HdtConnectivity {
    const NAME: &'static str = "hdt";

    fn build(n: usize) -> Self {
        HdtConnectivity::new(n)
    }

    fn update(&mut self, u: Update) {
        match u {
            Update::Insert(e) => self.insert(e),
            Update::Delete(e) => self.delete(e),
        }
    }

    fn check(&mut self, g: &DynamicGraph) -> Result<(), String> {
        let labels = g.components();
        for v in 0..g.n() as V {
            let root = labels[v as usize];
            let next = (v + 1) % g.n() as V;
            let joined = labels[next as usize] == root;
            if !self.connected(v, root) || self.connected(v, next) != joined {
                return Err(format!("hdt disagrees with the oracle at vertex {v}"));
            }
        }
        Ok(())
    }
}

impl Sequential for NsMatching {
    const NAME: &'static str = "ns";

    fn build(n: usize) -> Self {
        NsMatching::new(n, 3 * n)
    }

    fn update(&mut self, u: Update) {
        match u {
            Update::Insert(e) => self.insert(e),
            Update::Delete(e) => self.delete(e),
        }
    }

    fn check(&mut self, g: &DynamicGraph) -> Result<(), String> {
        let m = self.matching();
        if is_valid_matching(g, &m) && is_maximal_matching(g, &m) {
            Ok(())
        } else {
            Err("ns matching is not a maximal matching of the oracle".into())
        }
    }
}

/// Applies `updates` one by one; returns the wall seconds they took, or the
/// panic message if the baseline panicked (its state is then unusable).
pub fn time_sequential<S: Sequential>(s: &mut S, updates: &[Update]) -> Result<f64, String> {
    let start = Instant::now();
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        for &u in updates {
            s.update(u);
        }
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap_or_else(|| "panicked".into())
    })?;
    Ok(start.elapsed().as_secs_f64())
}
