//! `pq-perf` — the repository's one performance benchmark.
//!
//! ```text
//! pq-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! pq-perf run [--seed <n>] [--rounds <r>] [--trace] [--out <dir>]
//! pq-perf compare <a.json> <b.json>
//! ```
//!
//! The first form measures one workload for `s` seconds and prints one
//! JSON result object as its last line (`--trace 0`: the end-to-end
//! metrics; `--trace 1`: the per-layer metrics of a traced run). `run`
//! measures all three workloads round-robin and writes
//! `<dir>/result.json`; `compare` holds two such files against the
//! bounds. See `README.md` next to this package.

#![forbid(unsafe_code)]

mod bulk;
mod compare;
mod counters;
mod driver;
mod probes;
mod procstat;
mod spans;
mod stats;
mod traced;
mod workloads;

use driver::{WorkloadRun, END_TO_END};
use pq_obs::json::Value;
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Workload, PINNED_SEED, WORKLOADS};

const USAGE: &str = "usage:
  pq-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
  pq-perf run [--seed <n>] [--rounds <r>] [--trace] [--out <dir>]
  pq-perf compare <a.json> <b.json>
workloads: paper_grid_serial lossy_edge_serial study_resample";

/// Where result and trace files go unless `--out` says otherwise;
/// relative to the repository root the command is run from.
const DEFAULT_OUT: &str = "benches/perf/out";

/// `--flag value` pairs and bare `--flag`s of one invocation.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| usage(format!("{flag}: cannot parse {raw:?}"))),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// An error message that ends with the usage text.
fn usage(why: impl std::fmt::Display) -> String {
    format!("{why}\n{USAGE}")
}

fn workload_arg(name: Option<&str>) -> Result<&'static Workload, String> {
    let name = name.ok_or_else(|| usage("missing workload name"))?;
    workloads::by_name(name).ok_or_else(|| usage(format!("unknown workload {name:?}")))
}

/// The one JSON object a contract-mode run ends with.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    Value::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics)
        .to_string()
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj().with("value", value).with("unit", unit)
}

/// `--workload … --trace 0`: the closed loop for `seconds`, every
/// end-to-end metric's headline value.
fn untraced(w: &'static Workload, seed: u64, seconds: f64) -> Result<(), String> {
    let run = driver::measure(w, seed, seconds);
    run.print();
    if run.outcome().is_none() {
        return Err(format!("{}: no repeat passed its checks", w.name));
    }
    let mut metrics = Value::obj();
    for m in &END_TO_END {
        metrics.set(m.name, metric(m.headline_of(&run.summary(m.name)), m.unit));
    }
    let failed = run.failures.len() as u64;
    println!(
        "{}",
        result_line(failed == 0, run.attempted, failed, metrics)
    );
    Ok(())
}

/// Print a traced run's per-layer metrics by name and unit, and
/// return them as the result line's `metrics` object.
fn per_layer(t: &traced::Traced) -> Value {
    let mut metrics = Value::obj();
    for (name, unit, value) in &t.metrics {
        println!("  {name:<44} {value:>16.4} {unit}");
        metrics.set(name, metric(*value, unit));
    }
    metrics
}

/// `--workload … --trace 1`: the traced run's per-layer metrics.
fn traced(w: &'static Workload, seed: u64, out: &Path) -> Result<(), String> {
    let t = traced::run(w, seed, out)?;
    let failed = t.failures.len() as u64;
    println!(
        "{}",
        result_line(failed == 0, t.attempted, failed, per_layer(&t))
    );
    Ok(())
}

/// `run`: every workload, round-robin, so machine drift during the
/// run hits all three alike; then optionally the traced pass.
fn run_all(seed: u64, rounds: u64, trace: bool, out: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut runs: Vec<WorkloadRun> = WORKLOADS
        .iter()
        .map(|w| WorkloadRun::new(w, seed))
        .collect();
    for round in 0..rounds {
        for run in &mut runs {
            eprintln!(
                "[pq-perf] round {}/{rounds}: {}",
                round + 1,
                run.workload.name
            );
            run.attempt();
        }
    }
    let mut ok = true;
    for run in &runs {
        run.print();
        ok &= run.failures.is_empty() && run.outcome().is_some();
    }
    let mut result = driver::result_json(seed, rounds, &runs);
    if trace {
        let mut per_layer_all = Value::obj();
        for w in &WORKLOADS {
            println!("== {} — traced run ==", w.name);
            let t = traced::run(w, seed, out)?;
            per_layer_all.set(w.name, per_layer(&t));
            ok &= t.failures.is_empty();
        }
        result.set("per_layer", per_layer_all);
    }
    let path = out.join("result.json");
    std::fs::write(&path, result.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// `child`: set-up, one timed repeat (in `passes` passes), one JSON line.
fn child(args: &[String]) -> Result<(), String> {
    let w = workload_arg(args.first().map(String::as_str))?;
    let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).ok_or("bad seed")?;
    let spawned_ns: u128 = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .ok_or("bad spawn time")?;
    let mut rec = Recorder::off();
    let inputs = workloads::setup(&w.spec(), seed, &mut rec);
    let setup_s = driver::epoch_ns().saturating_sub(spawned_ns) as f64 / 1e9;
    let timed = if args.iter().any(|a| a == "--setup-only") {
        None
    } else {
        let mut rep = workloads::repeat(&inputs, seed, &mut rec);
        for pass in 1..w.passes {
            let again = workloads::repeat(&inputs, seed, &mut rec);
            again
                .outcome
                .check_against(&rep.outcome)
                .map_err(|e| format!("pass {} differs from the first: {e}", pass + 1))?;
            rep.keep_faster(&again);
        }
        Some(driver::Timed {
            wall_s: rep.wall_s(),
            cpu_s: rep.cpu_s(),
            peak_rss_mb: procstat::peak_rss_mib(),
            outcome: rep.outcome,
        })
    };
    println!("{}", driver::Sample { setup_s, timed }.to_json());
    Ok(())
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let args = Args(argv.to_vec());
    let out = PathBuf::from(args.value("--out").unwrap_or(DEFAULT_OUT));
    match argv.first().map(String::as_str) {
        Some("child") => child(&argv[1..]).map(|()| ExitCode::SUCCESS),
        Some("compare") => match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => compare::run(Path::new(a), Path::new(b)),
            _ => Err(usage("compare needs two result files")),
        },
        Some("run") => {
            let ok = run_all(
                args.parsed("--seed", PINNED_SEED)?,
                args.parsed("--rounds", 5)?,
                args.has("--trace"),
                &out,
            )?;
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some(flag) if flag.starts_with("--") => {
            let w = workload_arg(args.value("--workload"))?;
            let seed = args.parsed("--seed", PINNED_SEED)?;
            match args.parsed("--trace", 0u8)? {
                0 => untraced(w, seed, args.parsed("--seconds", 15.0)?)?,
                1 => traced(w, seed, &out)?,
                other => return Err(usage(format!("--trace takes 0 or 1, not {other}"))),
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(usage("no command")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("pq-perf: {why}");
            ExitCode::from(2)
        }
    }
}
