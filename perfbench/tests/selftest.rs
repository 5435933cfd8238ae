//! The benchmark's self-tests: tiny runs of every workload pass every
//! check, a corrupted answer or digest is caught and fails the exit code,
//! the model counts repeat exactly for a seed, the service's self time and
//! its child spans add up, and the metric names match `BENCHMARK.json`.

use dmpc_perfbench::speed::REF_NOMINAL_S;
use dmpc_perfbench::{run, Corrupt, Outcome, RunConfig, Scale, Workload, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 11,
        seconds: 0.2,
        trace,
        scale: Scale::TINY,
        corrupt: None,
        trace_dir: None,
    }
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics()
        .into_iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn tiny_runs_pass_every_check() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(w, trace));
            assert!(out.attempted > 0, "{w:?}: nothing attempted");
            assert_eq!(out.failed, 0, "{w:?} trace={trace}: failed ops");
            assert!(out.correct(), "{w:?} trace={trace}: {out:?}");
            assert_eq!(out.exit_code(), 0);
        }
        let out = run(&tiny(w, false));
        for (name, v, _) in out.metrics() {
            assert!(v > 0.0, "{w:?}: end-to-end metric {name} is {v}");
        }
    }
}

#[test]
fn corrupted_outputs_fail_the_run() {
    let cases = Workload::ALL
        .into_iter()
        .map(|w| (w, Corrupt::Answer))
        .chain([(Workload::SvcClusteredMixed, Corrupt::Digest)]);
    for (w, corrupt) in cases {
        let out = run(&RunConfig {
            corrupt: Some(corrupt),
            ..tiny(w, false)
        });
        assert!(out.failed > 0, "{w:?} {corrupt:?} went unnoticed");
        assert!(out.failed_ops_frac() > 0.0);
        assert!(!out.correct());
        assert_ne!(out.exit_code(), 0);
        assert!(out.to_json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn model_counts_repeat_exactly_for_a_seed() {
    let exact = [
        "rounds_per_op",
        "words_per_op",
        "write_p99_rounds",
        "read_p99_rounds",
    ];
    for w in Workload::ALL {
        let (a, b) = (run(&tiny(w, false)), run(&tiny(w, false)));
        for name in exact {
            assert_eq!(value(&a, name), value(&b, name), "{w:?} {name}");
        }
    }
}

#[test]
fn service_self_time_and_children_add_up_to_the_service_span() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("selftest-traces");
    let cfg = RunConfig {
        trace_dir: Some(dir.clone()),
        ..tiny(Workload::SvcClusteredMixed, true)
    };
    let out = run(&cfg);
    assert!(out.correct());
    let tsv =
        std::fs::read_to_string(dir.join("svc-clustered-mixed-seed11.tsv")).expect("trace written");
    // id parent name start_ns end_ns
    let spans: Vec<(Option<usize>, String, u64)> = tsv
        .lines()
        .skip(1)
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let dur = f[4].parse::<u64>().unwrap() - f[3].parse::<u64>().unwrap();
            (f[1].parse().ok(), f[2].to_string(), dur)
        })
        .collect();
    let mut children: HashMap<usize, u64> = HashMap::new();
    for (parent, name, dur) in &spans {
        if let Some(p) = parent {
            assert_eq!(spans[*p].1, "run_service");
            assert!(name == "apply_batch" || name == "answer_queries");
            *children.entry(*p).or_default() += dur;
        }
    }
    let (mut total, mut child) = (0u64, 0u64);
    for (id, (_, name, dur)) in spans.iter().enumerate() {
        if name == "run_service" {
            let c = children.get(&id).copied().unwrap_or(0);
            assert!(c <= *dur, "children outlast their service span");
            total += dur;
            child += c;
        }
    }
    assert!(total > 0 && child > 0);
    // Reported times are rescaled to reference host speed.
    let scale = REF_NOMINAL_S / (value(&out, "host.ref_kernel_us") * 1e-6);
    let self_s = value(&out, "service.self_s");
    assert!((self_s - (total - child) as f64 * 1e-9 * scale).abs() < 1e-6);
}

/// The `"name"` values inside the array that follows `"key"` in `json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let registry = |r: &[(&str, &str)]| r.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
    assert_eq!(names_in(&json, "end_to_end"), registry(END_TO_END));
    assert_eq!(names_in(&json, "per_layer"), registry(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
    for trace in [false, true] {
        let out = run(&tiny(Workload::MatchChurn, trace));
        let printed: Vec<String> = out.metrics().iter().map(|m| m.0.to_string()).collect();
        let expected = if trace { PER_LAYER } else { END_TO_END };
        assert_eq!(printed, registry(expected));
        for (name, _, unit) in out.metrics() {
            assert!(out
                .to_json()
                .contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(out.to_json().contains(&format!("\"unit\": \"{unit}\"")));
        }
    }
}
