//! The run knobs, parsed once: [`parse`] turns `PQ_SCALE`, `PQ_SEED`,
//! `PQ_STACKS`, `PQ_FAULTS`, `PQ_JOBS` and `PQ_CELL_TIMEOUT_MS` into
//! one [`Knobs`] value before any subcommand runs. A malformed value
//! warns through the tracer and gives its documented default (README
//! "Knobs"); none is silently swallowed. pq-obs reads its own
//! `PQ_TRACE*` / `PQ_PROF*` knobs.

use pq_bench::{RunSpec, Scale};
use pq_fault::FaultPlan;
use pq_transport::Protocol;
use std::sync::Arc;

/// Everything the environment configures for one `pq` invocation.
pub struct Knobs {
    /// What to run.
    pub spec: RunSpec,
    /// `PQ_JOBS`: pool workers (default: available parallelism).
    pub jobs: usize,
    /// `PQ_CELL_TIMEOUT_MS`: the per-cell deadline (default: off).
    pub cell_timeout_ms: Option<u64>,
}

/// Warn through the tracer under category `$cat`.
macro_rules! warn {
    ($cat:literal, $($msg:tt)+) => {
        pq_obs::tracer().warn($cat, format!($($msg)+))
    };
}

/// Parse the knobs `lookup` finds (the process environment in `main`,
/// a table in the tests).
pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Knobs {
    let default = RunSpec::default();
    let scale = match lookup("PQ_SCALE").as_deref() {
        None | Some("reduced") => Scale::Reduced,
        Some("smoke") => Scale::Smoke,
        Some("full") => Scale::Full,
        Some(other) => {
            warn!(
                "bench",
                "unknown PQ_SCALE={other:?} (expected smoke|reduced|full); defaulting to reduced"
            );
            Scale::Reduced
        }
    };
    let seed = lookup("PQ_SEED").map_or(default.seed, |s| {
        s.parse().unwrap_or_else(|_| {
            warn!("bench", "unparsable PQ_SEED={s:?}; defaulting to 1910");
            default.seed
        })
    });
    let jobs = match lookup("PQ_JOBS").map(|raw| (raw.parse::<usize>(), raw)) {
        None => pq_par::available_jobs(),
        Some((Ok(n), _)) if n >= 1 => n,
        Some((_, raw)) => {
            let fallback = pq_par::available_jobs();
            warn!(
                "par",
                "unparsable PQ_JOBS={raw:?} (want an integer >= 1); \
                 defaulting to available parallelism ({fallback})"
            );
            fallback
        }
    };
    let faults = lookup("PQ_FAULTS")
        .filter(|spec| !spec.trim().is_empty())
        .and_then(|spec| match FaultPlan::parse(&spec) {
            Ok(plan) if plan.is_empty() => {
                warn!(
                    "fault",
                    "PQ_FAULTS={spec:?} names no fault class; fault injection stays OFF"
                );
                None
            }
            Ok(plan) => {
                let (summary, seed) = (plan.summary(), plan.seed);
                warn!("fault", "fault injection ACTIVE: {summary} (seed {seed})");
                Some(Arc::new(plan))
            }
            Err(err) => {
                warn!(
                    "fault",
                    "unparsable PQ_FAULTS: {err}; fault injection stays OFF"
                );
                None
            }
        });
    let stacks = lookup("PQ_STACKS").map_or(default.stacks, |raw| stacks(&raw));
    let cell_timeout_ms = lookup("PQ_CELL_TIMEOUT_MS").and_then(|raw| match raw.parse::<u64>() {
        Ok(0) => None,
        Ok(ms) => Some(ms),
        Err(_) => {
            warn!(
                "par",
                "unparsable PQ_CELL_TIMEOUT_MS={raw:?} (want milliseconds >= 1, \
                 or 0 to disable); the cell watchdog stays off"
            );
            None
        }
    });
    Knobs {
        spec: RunSpec {
            scale,
            seed,
            stacks,
            faults,
        },
        jobs,
        cell_timeout_ms,
    }
}

/// `PQ_STACKS` (README "Knobs"), sorted and deduplicated so that the
/// grid's order never depends on the spelling.
fn stacks(raw: &str) -> Vec<Protocol> {
    let mut stacks: Vec<Protocol> = match raw.trim() {
        "" | "table1" => return Protocol::ALL.to_vec(),
        "all" => return Protocol::ALL_WITH_EDGE.to_vec(),
        "edge" => return pq_bench::edge_stacks(),
        list => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .filter_map(|label| {
                let p = Protocol::from_label(label);
                if p.is_none() {
                    warn!("edge", "unknown stack {label:?} in PQ_STACKS; skipping it");
                }
                p
            })
            .collect(),
    };
    if stacks.is_empty() {
        warn!(
            "edge",
            "PQ_STACKS={raw:?} selected no stacks; defaulting to table1"
        );
        return Protocol::ALL.to_vec();
    }
    stacks.sort_unstable();
    stacks.dedup();
    stacks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(vars: &[(&str, &str)]) -> Knobs {
        parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        })
    }

    #[test]
    fn nothing_set_is_the_default_run() {
        let k = knobs(&[]);
        assert_eq!(k.spec.scale, Scale::Reduced);
        assert_eq!(k.spec.seed, 1910);
        assert_eq!(k.spec.stacks, Protocol::ALL);
        assert!(k.spec.faults.is_none());
        assert_eq!(k.jobs, pq_par::available_jobs());
        assert_eq!(k.cell_timeout_ms, None);
    }

    #[test]
    fn each_knob_parses_and_a_malformed_one_gives_its_default() {
        let scale = |v| knobs(&[("PQ_SCALE", v)]).spec.scale;
        for (v, want) in [
            ("smoke", Scale::Smoke),
            ("reduced", Scale::Reduced),
            ("full", Scale::Full),
            ("huge", Scale::Reduced),
        ] {
            assert_eq!(scale(v), want, "PQ_SCALE={v}");
        }

        let seed = |v| knobs(&[("PQ_SEED", v)]).spec.seed;
        for (v, want) in [("7", 7), ("x", 1910), ("-1", 1910)] {
            assert_eq!(seed(v), want, "PQ_SEED={v}");
        }

        let jobs = |v| knobs(&[("PQ_JOBS", v)]).jobs;
        let auto = pq_par::available_jobs();
        for (v, want) in [("4", 4), ("1", 1), ("0", auto), ("abc", auto)] {
            assert_eq!(jobs(v), want, "PQ_JOBS={v}");
        }

        let timeout = |v| knobs(&[("PQ_CELL_TIMEOUT_MS", v)]).cell_timeout_ms;
        for (v, want) in [("60000", Some(60_000)), ("0", None), ("abc", None)] {
            assert_eq!(timeout(v), want, "PQ_CELL_TIMEOUT_MS={v}");
        }

        let faults = |v| knobs(&[("PQ_FAULTS", v)]).spec.faults;
        let chaos = faults(pq_bench::CHAOS_SPEC).expect("the chaos spec is a plan");
        assert_eq!(chaos.spec, pq_bench::CHAOS_SPEC);
        // Unparsable, blank, and parsed but empty (a seed and no fault
        // class): all three are no plan.
        for v in ["gel:pgb=2", "bogus:p=0.1", "", "  ", "seed=7"] {
            assert!(faults(v).is_none(), "PQ_FAULTS={v:?}");
        }

        let stacks = |v| knobs(&[("PQ_STACKS", v)]).spec.stacks;
        use Protocol::{H2Edge, Quic, QuicEdge, QuicMbx, TcpPlus};
        for (v, want) in [
            ("table1", Protocol::ALL.to_vec()),
            ("", Protocol::ALL.to_vec()),
            ("all", Protocol::ALL_WITH_EDGE.to_vec()),
            ("edge", vec![TcpPlus, Quic, QuicEdge, QuicMbx, H2Edge]),
            ("QUIC-EDGE,QUIC,QUIC-EDGE,bogus", vec![Quic, QuicEdge]),
            ("bogus", Protocol::ALL.to_vec()),
        ] {
            assert_eq!(stacks(v), want, "PQ_STACKS={v:?}");
        }
    }
}
