//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and the metrics with their
//! units. A readable report goes to standard error. The exit code is 0 only
//! when every check passed.

use dmpc_perfbench::{run, RunConfig, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(" | "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<u32>().map_err(|_| bad("whole seconds"))?;
                seconds = Some(
                    (1..=600)
                        .contains(&s)
                        .then_some(f64::from(s))
                        .ok_or_else(|| bad("1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        scale: Scale::FULL,
        corrupt: None,
        trace_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    eprintln!(
        "{} seed {} ({} run)",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" }
    );
    for (name, value, unit) in out.metrics() {
        eprintln!("  {name:<44} {value:>16.6} {unit}");
    }
    eprintln!(
        "  {:<44} {:>16.6} ({} of {} ops)",
        "failed_ops_frac",
        out.failed_ops_frac(),
        out.failed,
        out.attempted
    );
    println!("{}", out.to_json());
    ExitCode::from(out.exit_code() as u8)
}
