//! `pq-perf compare <a.json> <b.json>`: hold two result files against
//! the benchmark's bounds, one row per workload × end-to-end metric.

use crate::driver::{Headline, MetricDef, Sample, END_TO_END};
use crate::stats::{iqr_share, Summary};
use pq_obs::json::Value;
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The samples' [`spread`] is wider than the bound and the two sets
    /// of runs overlap: the samples cannot tell "unchanged" from
    /// "regressed", so the row says neither.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s headline value is than `a`'s, as a share of
/// `a`'s (negative: better).
pub fn worsening(m: &MetricDef, a: &Summary, b: &Summary) -> f64 {
    let (va, vb) = (m.headline_of(a), m.headline_of(b));
    let change = (vb - va) / va.abs();
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

/// How loosely a set of samples pins its headline value down, as a
/// share of it: the inter-quartile distance around a median; for a
/// best-of, the gap from the best sample to the runner-up — a best
/// value no second sample came near was not reproduced. (The slow tail
/// says nothing about a best-of: on a busy machine it is as long as
/// the disturbance was.)
pub fn spread(m: &MetricDef, s: &Summary) -> f64 {
    if m.headline == Headline::Median {
        return iqr_share(&s.values);
    }
    let mut v = s.values.clone();
    v.sort_by(f64::total_cmp);
    if m.higher_is_better {
        v.reverse();
    }
    match v[..] {
        [best, next, ..] if best != 0.0 => ((next - best) / best).abs(),
        _ => 0.0,
    }
}

pub fn verdict(m: &MetricDef, a: &Summary, b: &Summary) -> Verdict {
    let noisy = spread(m, a) > m.bound || spread(m, b) > m.bound;
    if noisy {
        // Every run of b better than every run of a settles it anyway.
        let clear_win = if m.higher_is_better {
            b.min > a.max
        } else {
            b.max < a.min
        };
        return if clear_win {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(m, a, b) > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.get("schema").and_then(Value::as_u64) != Some(1) {
        return Err(format!(
            "{}: not a pq-perf result (schema 1)",
            path.display()
        ));
    }
    Ok(v)
}

fn summary_in(result: &Value, workload: &str, metric: &str) -> Option<Summary> {
    Summary::from_json(
        result
            .get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?,
    )
}

/// Exit code 0: every row ok. 1: a row regressed or is unresolved, or
/// an exact count differs. 2: a file is missing or unreadable.
pub fn run(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut all_ok = true;
    println!(
        "{:<18} {:<12} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for w in &crate::workloads::WORKLOADS {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                summary_in(&a, w.name, m.name),
                summary_in(&b, w.name, m.name),
            ) else {
                return Err(format!(
                    "{}/{} is missing from a result file",
                    w.name, m.name
                ));
            };
            let v = verdict(m, &sa, &sb);
            all_ok &= v == Verdict::Ok;
            println!(
                "{:<18} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>6.0}%  {}",
                w.name,
                m.name,
                m.headline_of(&sa),
                m.headline_of(&sb),
                100.0 * worsening(m, &sa, &sb),
                100.0 * m.bound,
                v.label()
            );
        }
        // Exact outputs: the first timed sample of each file.
        let exact = |r: &Value| {
            let samples = r.get("workloads")?.get(w.name)?.get("samples")?.as_arr()?;
            samples
                .iter()
                .filter_map(Sample::from_json)
                .find_map(|s| s.timed.map(|t| t.outcome))
        };
        let same_seed = a.get("seed") == b.get("seed");
        if same_seed && exact(&a) != exact(&b) {
            println!("{:<18} exact outputs differ between the two files", w.name);
            all_ok = false;
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics with a 10 % bound, whatever the shipped bounds are.
    const WALL: &MetricDef = &MetricDef {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        headline: Headline::Best,
        bound: 0.10,
    };
    const WORK: &MetricDef = &MetricDef {
        name: "work_per_s",
        unit: "1/s",
        higher_is_better: true,
        headline: Headline::Best,
        bound: 0.10,
    };

    fn s(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn within_the_bound_is_ok_beyond_it_regressed() {
        let a = s(&[6.70, 6.71, 6.69, 6.72, 6.70]);
        assert_eq!(
            verdict(WALL, &a, &s(&[7.0, 7.1, 7.0, 7.05, 7.02])),
            Verdict::Ok
        );
        assert_eq!(
            verdict(WALL, &a, &s(&[7.5, 7.6, 7.5, 7.55, 7.52])),
            Verdict::Regressed
        );
        // Lower wall is an improvement however large.
        assert_eq!(
            verdict(WALL, &a, &s(&[3.0, 3.1, 3.0, 3.05, 3.02])),
            Verdict::Ok
        );
    }

    #[test]
    fn direction_follows_the_metric() {
        let a = s(&[400.0, 401.0, 399.0, 400.5, 400.2]);
        let slower = s(&[350.0, 351.0, 349.0, 350.5, 350.2]);
        assert!(worsening(WORK, &a, &slower) > 0.12);
        assert_eq!(verdict(WORK, &a, &slower), Verdict::Regressed);
        assert_eq!(verdict(WORK, &slower, &a), Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        // The best sample stands alone: the next one is 23 % away.
        let noisy = s(&[5.6, 7.5, 7.2, 8.0, 6.9]);
        assert!(spread(WALL, &noisy) > 0.10);
        // A long slow tail alone does not make a best-of unreliable.
        assert!(spread(WALL, &s(&[6.0, 6.01, 6.02, 9.0, 12.0])) < 0.01);
        assert_eq!(
            verdict(WALL, &noisy, &s(&[6.5, 6.6, 6.5, 6.55, 6.52])),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(WALL, &noisy, &s(&[5.0, 5.1, 5.0, 5.05, 5.02])),
            Verdict::Ok
        );
    }

    #[test]
    fn result_files_round_trip_through_compare() {
        use crate::driver::{result_json, Sample, Timed, WorkloadRun};
        use crate::workloads::WORKLOADS;
        let file = |walls: [f64; 3], name: &str| {
            let runs: Vec<WorkloadRun> = WORKLOADS
                .iter()
                .map(|w| {
                    let mut run = WorkloadRun::new(w, crate::workloads::PINNED_SEED);
                    for wall_s in walls {
                        run.attempted += 1;
                        run.samples.push(Sample {
                            setup_s: 0.002,
                            timed: Some(Timed {
                                wall_s,
                                cpu_s: wall_s * 0.99,
                                peak_rss_mb: 8.5,
                                outcome: w.pins,
                            }),
                        });
                    }
                    run
                })
                .collect();
            // Inside the package's git-ignored output directory.
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-compare");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(name);
            std::fs::write(&path, result_json(1910, 3, &runs).to_pretty()).unwrap();
            path
        };
        let base = file([6.70, 6.74, 6.71], "base.json");
        let same = file([6.72, 6.69, 6.75], "same.json");
        let slow = file([9.10, 9.15, 9.08], "slow.json");
        assert_eq!(run(&base, &same), Ok(ExitCode::SUCCESS));
        assert_eq!(run(&base, &slow), Ok(ExitCode::FAILURE));
        assert_eq!(run(&slow, &base), Ok(ExitCode::SUCCESS));
        assert!(run(&base, Path::new("no/such/file.json")).is_err());
        let read = summary_in(&load(&base).unwrap(), "lossy_edge_serial", "wall_s").unwrap();
        assert_eq!(read.values, [6.70, 6.74, 6.71]);
    }
}
