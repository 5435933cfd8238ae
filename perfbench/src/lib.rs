//! The repository benchmark. One command runs one seeded workload through
//! the layers' public entry points, checks every output against an oracle,
//! and prints its metrics by name with their units; see `README.md` for the
//! workloads and what each metric means.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer metrics, derived from spans the
//! benchmark records around its calls into the layers.

pub mod adapter;
pub mod inputs;
pub mod speed;
pub mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

/// Metrics of an untraced run, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("write_p99_rounds", "rounds"),
    ("read_p99_rounds", "rounds"),
    ("rounds_per_op", "rounds/op"),
    ("words_per_op", "words/op"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of a traced run, with their units. A layer a workload does not
/// run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.self_s", "s"),
    ("service.windows", "count"),
    ("service.ops_per_window", "ops/window"),
    ("service.runs_per_window", "runs/window"),
    ("service.size_close_frac", "frac"),
    ("service.peak_buffered", "ops"),
    ("service.admit_frac", "frac"),
    ("connectivity.apply_batch.calls", "count"),
    ("connectivity.apply_batch.busy_s", "s"),
    ("connectivity.apply_batch.updates_per_call", "ops/call"),
    ("connectivity.apply_batch.p50_ms", "ms"),
    ("connectivity.apply_batch.p99_ms", "ms"),
    ("connectivity.apply_batch.ns_per_round", "ns/round"),
    ("connectivity.answer_queries.calls", "count"),
    ("connectivity.answer_queries.busy_s", "s"),
    ("connectivity.answer_queries.queries_per_call", "ops/call"),
    ("connectivity.answer_queries.ns_per_round", "ns/round"),
    ("connectivity.bulk_load_s", "s"),
    ("connectivity.conflict_groups", "groups/call"),
    ("connectivity.conflict_depth", "ops/call"),
    ("connectivity.max_lanes", "lanes"),
    ("matching.apply_batch.calls", "count"),
    ("matching.apply_batch.busy_s", "s"),
    ("matching.apply_batch.updates_per_call", "ops/call"),
    ("matching.apply_batch.p50_ms", "ms"),
    ("matching.apply_batch.p99_ms", "ms"),
    ("matching.apply_batch.ns_per_round", "ns/round"),
    ("matching.answer_queries.calls", "count"),
    ("matching.answer_queries.busy_s", "s"),
    ("matching.answer_queries.queries_per_call", "ops/call"),
    ("matching.answer_queries.ns_per_round", "ns/round"),
    ("matching.bulk_load_s", "s"),
    ("mpc.rounds", "rounds"),
    ("mpc.words", "words"),
    ("mpc.messages", "count"),
    ("mpc.words_per_message", "words/msg"),
    ("mpc.max_words_per_round", "words"),
    ("mpc.max_active_machines", "machines"),
    ("mpc.machines_touched", "machines"),
    ("mpc.violations", "count"),
    ("mpc.lost_words", "words"),
    ("mpc.resident_words_peak", "words"),
    ("seqdyn.hdt.ops_per_s", "1/s"),
    ("seqdyn.ns.ops_per_s", "1/s"),
    ("seqdyn.failed_checks", "count"),
    ("host.ref_kernel_us", "us"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniform churn on one giant component, connectivity batch plane.
    ConnGiantChurn,
    /// The same stream on the maximal-matching coordinator.
    MatchChurn,
    /// Clustered read/write traffic through the service loop.
    SvcClusteredMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ConnGiantChurn,
        Workload::MatchChurn,
        Workload::SvcClusteredMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ConnGiantChurn => "conn-giant-churn",
            Workload::MatchChurn => "match-churn",
            Workload::SvcClusteredMixed => "svc-clustered-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is what the command runs; [`Scale::TINY`]
/// keeps the self-tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Vertices.
    pub n: usize,
    /// Communities of the service workload.
    pub communities: usize,
    /// Builds timed for `setup_s`.
    pub setups: usize,
    /// Ops per `run_service` call.
    pub segment_ops: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        n: 4096,
        communities: 16,
        setups: 11,
        segment_ops: 8192,
    };
    pub const TINY: Scale = Scale {
        n: 256,
        communities: 4,
        setups: 2,
        segment_ops: 512,
    };
}

/// A deliberate defect injected into what the checks see, to show that
/// they catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corrupt {
    /// The first read answer is replaced.
    Answer,
    /// The service's online state digest is altered.
    Digest,
}

/// One run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds of an untraced run; also sizes the exact-count
    /// prefix that every run completes.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub corrupt: Option<Corrupt>,
    /// Where a traced run writes its spans.
    pub trace_dir: Option<PathBuf>,
}

/// What a run measured and how many of its ops failed.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    trace: bool,
    values: Vec<Option<f64>>,
}

impl Outcome {
    fn new(trace: bool) -> Self {
        // Per-layer metrics of layers a workload does not run stay 0.
        let fill = if trace { Some(0.0) } else { None };
        Outcome {
            attempted: 0,
            failed: 0,
            trace,
            values: vec![fill; Self::registry(trace).len()],
        }
    }

    fn registry(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Sets metric `name`, which must be in this run's registry.
    fn set(&mut self, name: &str, value: f64) {
        let i = Self::registry(self.trace)
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        self.values[i] = Some(value);
    }

    /// The metrics in registry order: name, value, unit.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        Self::registry(self.trace)
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), v)| {
                let v = v.unwrap_or_else(|| panic!("metric {name} was never set"));
                (name, v, unit)
            })
            .collect()
    }

    /// True when no op failed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics().iter().all(|m| m.1.is_finite())
    }

    pub fn failed_ops_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The process exit code: 0 only for a correct run.
    pub fn exit_code(&self) -> i32 {
        if self.correct() && self.attempted > 0 {
            0
        } else {
            1
        }
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics().into_iter().enumerate() {
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    workloads::run(cfg)
}
