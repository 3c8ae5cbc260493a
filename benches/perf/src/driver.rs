//! The closed loop: one client, one repeat at a time, each in a fresh
//! child process (`pq-perf child …`), so set-up time and peak memory
//! are a new process's and no repeat inherits another's heap.

use crate::stats::Summary;
use crate::workloads::{Outcome, Workload, PINNED_SEED};
use pq_obs::json::Value;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Which statistic of a run's samples stands for the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Headline {
    /// The best sample: the minimum of a time, the maximum of a rate.
    /// Repeats are deterministic CPU-bound work, so every disturbance
    /// (a busy neighbour on the host, a cold cache) makes a sample
    /// worse and none makes it better; the best sample is the one
    /// least disturbed (README.md, "Why the best repeat").
    Best,
    /// The median: for memory, which is not disturbed one-sidedly.
    Median,
}

/// An end-to-end metric: what a user of the pipeline sees.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub headline: Headline,
    /// Share of the baseline value by which the metric may worsen
    /// before it is a regression. The same numbers as `BENCHMARK.json`.
    pub bound: f64,
}

impl MetricDef {
    /// The value that stands for a run (or a set of rounds).
    pub fn headline_of(&self, s: &Summary) -> f64 {
        match (self.headline, self.higher_is_better) {
            (Headline::Median, _) => s.median,
            (Headline::Best, false) => s.min,
            (Headline::Best, true) => s.max,
        }
    }
}

const fn def(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    headline: Headline,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        headline,
        bound,
    }
}

pub const END_TO_END: [MetricDef; 5] = [
    def("wall_s", "s", false, Headline::Best, 0.25),
    def("cpu_s", "s", false, Headline::Best, 0.25),
    def("work_per_s", "1/s", true, Headline::Best, 0.25),
    def("peak_rss_mb", "MiB", false, Headline::Median, 0.15),
    def("setup_s", "s", false, Headline::Best, 0.25),
];

/// Set-up is short, so it is sampled more often than the repeat it
/// precedes: before each timed child, set-up-only children run until
/// they have used this many seconds or there are this many of them.
const SETUP_ONLY_BUDGET_S: f64 = 0.5;
const SETUP_ONLY_MAX: usize = 20;

/// Nanoseconds since the Unix epoch: a clock parent and child share.
pub fn epoch_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("the system clock is past 1970")
        .as_nanos()
}

/// What one child reported.
#[derive(Clone, Debug)]
pub struct Sample {
    pub setup_s: f64,
    /// `None` from a set-up-only child.
    pub timed: Option<Timed>,
}

#[derive(Clone, Debug)]
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub outcome: Outcome,
}

impl Sample {
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj().with("setup_s", self.setup_s);
        if let Some(t) = &self.timed {
            v.set("wall_s", t.wall_s);
            v.set("cpu_s", t.cpu_s);
            v.set("peak_rss_mb", t.peak_rss_mb);
            for (name, val) in t.outcome.fields() {
                if matches!(name, "digest" | "analysis") {
                    v.set(name, format!("{val:016x}"));
                } else {
                    v.set(name, val);
                }
            }
        }
        v
    }

    pub fn from_json(v: &Value) -> Option<Sample> {
        let num = |k: &str| v.get(k)?.as_f64();
        let count = |k: &str| v.get(k)?.as_u64();
        let hex = |k: &str| u64::from_str_radix(v.get(k)?.as_str()?, 16).ok();
        let timed = match num("wall_s") {
            None => None,
            Some(wall_s) => Some(Timed {
                wall_s,
                cpu_s: num("cpu_s")?,
                peak_rss_mb: num("peak_rss_mb")?,
                outcome: Outcome {
                    digest: hex("digest")?,
                    analysis: hex("analysis")?,
                    loads: count("loads")?,
                    events: count("events")?,
                    incomplete: count("incomplete")?,
                    retries: count("retries")?,
                    quarantined: count("quarantined")?,
                    faults: count("faults")?,
                    votes: count("votes")?,
                },
            }),
        };
        Some(Sample {
            setup_s: num("setup_s")?,
            timed,
        })
    }
}

/// Run one child to completion and parse the line it prints. `Err`
/// says why the repeat failed: spawn error, time-out, non-zero exit,
/// or an unreadable line.
fn run_child(w: &Workload, seed: u64, setup_only: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .arg(w.name)
        .arg(seed.to_string())
        .arg(epoch_ns().to_string())
        .stdout(Stdio::piped());
    if setup_only {
        cmd.arg("--setup-only");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn failed: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs_f64(10.0 * w.base_cost_s);
    // The child prints one short line, far below the pipe's buffer, so
    // it never blocks on a parent that reads only after it has exited.
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("timed out after {:.0} s", 10.0 * w.base_cost_s));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait failed: {e}"));
            }
        }
    };
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    let mut line = String::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut line)
        .map_err(|e| format!("cannot read the child's line: {e}"))?;
    Value::parse(line.trim())
        .ok()
        .as_ref()
        .and_then(Sample::from_json)
        .ok_or_else(|| format!("unreadable child line: {line:?}"))
}

/// Everything measured on one workload.
pub struct WorkloadRun {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Timed repeats started.
    pub attempted: u64,
    /// Why each failed repeat failed.
    pub failures: Vec<String>,
    /// Every child that reported, timed or set-up-only.
    pub samples: Vec<Sample>,
}

impl WorkloadRun {
    pub fn new(workload: &'static Workload, seed: u64) -> WorkloadRun {
        WorkloadRun {
            workload,
            seed,
            attempted: 0,
            failures: Vec::new(),
            samples: Vec::new(),
        }
    }

    fn timed(&self) -> impl Iterator<Item = &Timed> {
        self.samples.iter().filter_map(|s| s.timed.as_ref())
    }

    /// The first passing repeat's outputs: what later repeats must
    /// reproduce exactly.
    pub fn outcome(&self) -> Option<Outcome> {
        self.timed().next().map(|t| t.outcome)
    }

    /// One closed-loop step: the set-up-only children, then one timed
    /// repeat, checked against the pins and the earlier repeats. A
    /// failed repeat contributes no sample.
    pub fn attempt(&mut self) {
        let t0 = Instant::now();
        for _ in 0..SETUP_ONLY_MAX {
            if t0.elapsed().as_secs_f64() >= SETUP_ONLY_BUDGET_S {
                break;
            }
            match run_child(self.workload, self.seed, true) {
                Ok(s) => self.samples.push(s),
                Err(why) => eprintln!("[pq-perf] {}: set-up-only child: {why}", self.workload.name),
            }
        }
        self.attempted += 1;
        let verdict = run_child(self.workload, self.seed, false).and_then(|s| {
            let got = s
                .timed
                .as_ref()
                .ok_or("child reported no timed repeat")?
                .outcome;
            self.workload.check(self.seed, &got)?;
            if let Some(first) = self.outcome() {
                got.check_against(&first)
                    .map_err(|e| format!("differs from the first repeat: {e}"))?;
            }
            Ok(s)
        });
        match verdict {
            Ok(s) => self.samples.push(s),
            Err(why) => {
                eprintln!("[pq-perf] {}: repeat FAILED: {why}", self.workload.name);
                self.failures.push(why);
            }
        }
    }

    /// The samples of one end-to-end metric.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        let units = |o: &Outcome| match self.workload.unit {
            "votes" => o.votes,
            _ => o.loads,
        } as f64;
        match metric {
            "setup_s" => self.samples.iter().map(|s| s.setup_s).collect(),
            "wall_s" => self.timed().map(|t| t.wall_s).collect(),
            "cpu_s" => self.timed().map(|t| t.cpu_s).collect(),
            "peak_rss_mb" => self.timed().map(|t| t.peak_rss_mb).collect(),
            "work_per_s" => self.timed().map(|t| units(&t.outcome) / t.wall_s).collect(),
            other => panic!("{other} is not an end-to-end metric"),
        }
    }

    pub fn summary(&self, metric: &str) -> Summary {
        Summary::of(&self.values(metric))
    }

    /// Print every end-to-end metric by name with its unit, then the
    /// checked outputs.
    pub fn print(&self) {
        let w = self.workload;
        println!(
            "== {} (seed {}, {} repeats, {} failed) ==",
            w.name,
            self.seed,
            self.attempted,
            self.failures.len()
        );
        for m in &END_TO_END {
            let s = self.summary(m.name);
            let what = if m.name == "work_per_s" {
                format!("{}/s", w.unit)
            } else {
                m.unit.to_string()
            };
            print!(
                "  {:<12} {:>12.4} {:<12} median {:.4} min {:.4} max {:.4} q1 {:.4} q3 {:.4} n {}",
                m.name,
                m.headline_of(&s),
                what,
                s.median,
                s.min,
                s.max,
                s.q1,
                s.q3,
                s.n
            );
            match s.tail {
                Some((pct, v)) => println!(" p{pct} {v:.4}"),
                None => println!(),
            }
        }
        println!(
            "  failed_share {} / {}",
            self.failures.len(),
            self.attempted
        );
        if let Some(o) = self.outcome() {
            let pinned = if self.seed == PINNED_SEED {
                "all pinned"
            } else {
                "seed-independent counts pinned, rest equal across repeats"
            };
            println!(
                "  outputs ({pinned}): digest {:016x} analysis {:016x} loads {} events {} \
                 incomplete {} retries {} quarantined {} faults {} votes {}",
                o.digest,
                o.analysis,
                o.loads,
                o.events,
                o.incomplete,
                o.retries,
                o.quarantined,
                o.faults,
                o.votes
            );
        }
    }

    pub fn to_json(&self) -> Value {
        let mut metrics = Value::obj();
        for m in &END_TO_END {
            metrics.set(m.name, self.summary(m.name).to_json(m.unit));
        }
        Value::obj()
            .with("attempted", self.attempted)
            .with("failed", self.failures.len())
            .with(
                "failures",
                self.failures
                    .iter()
                    .map(|f| Value::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("metrics", metrics)
            .with(
                "samples",
                self.samples.iter().map(Sample::to_json).collect::<Vec<_>>(),
            )
    }
}

/// The result file `run` writes and `compare` reads.
pub fn result_json(seed: u64, rounds: u64, runs: &[WorkloadRun]) -> Value {
    let mut workloads = Value::obj();
    for run in runs {
        workloads.set(run.workload.name, run.to_json());
    }
    Value::obj()
        .with("schema", 1u32)
        .with("seed", seed)
        .with("rounds", rounds)
        .with("nproc", pq_par::available_jobs())
        .with("pinned", seed == PINNED_SEED)
        .with("workloads", workloads)
}

/// Measure one workload for `seconds`: another repeat starts only if
/// one as long as the longest so far would end no later than a tenth
/// past `seconds`, so runs take `seconds` on average and all the
/// driver's runs together stay inside its time limit. There is always
/// at least one repeat.
pub fn measure(workload: &'static Workload, seed: u64, seconds: f64) -> WorkloadRun {
    let mut run = WorkloadRun::new(workload, seed);
    let t0 = Instant::now();
    let mut longest = 0.0_f64;
    loop {
        let started = t0.elapsed().as_secs_f64();
        run.attempt();
        let now = t0.elapsed().as_secs_f64();
        longest = longest.max(now - started);
        if now + longest > 1.1 * seconds {
            return run;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_round_trips_through_its_line() {
        let s = Sample {
            setup_s: 0.0123,
            timed: Some(Timed {
                wall_s: 6.71,
                cpu_s: 6.69,
                peak_rss_mb: 17.25,
                outcome: crate::workloads::WORKLOADS[0].pins,
            }),
        };
        let back = Sample::from_json(&Value::parse(&s.to_json().to_string()).unwrap()).unwrap();
        let t = back.timed.unwrap();
        assert_eq!(back.setup_s, 0.0123);
        assert_eq!(t.wall_s, 6.71);
        assert_eq!(t.outcome, crate::workloads::WORKLOADS[0].pins);

        let setup_only = Sample {
            setup_s: 0.4,
            timed: None,
        };
        let back = Sample::from_json(&Value::parse(&setup_only.to_json().to_string()).unwrap());
        assert!(back.unwrap().timed.is_none());
    }
}
