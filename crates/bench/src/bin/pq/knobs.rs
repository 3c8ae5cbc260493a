//! The knobs, parsed once: [`parse`] turns every `PQ_*` variable the
//! workspace reads (README "Knobs") into one [`Knobs`] value before any
//! subcommand runs: `PQ_SCALE`, `PQ_SEED`, `PQ_STACKS` and `PQ_FAULTS`
//! into the [`RunSpec`], `PQ_JOBS` for the pool, `PQ_TRACE`, `PQ_TRACE_BUF` and `PQ_TRACE_OUT` for the tracer,
//! and `PQ_PROF_ALLOC`, `PQ_PROF_OUT` and `PQ_PROF_SVG` for the
//! profiler. A malformed value, or one that cannot take effect, gives
//! its documented default and a warning; none is silently swallowed.

use pq_bench::{RunSpec, Scale};
use pq_fault::FaultPlan;
use pq_obs::trace::DEFAULT_RING_CAPACITY;
use pq_obs::Level;
use pq_transport::Protocol;
use std::ffi::OsString;
use std::path::PathBuf;
use std::sync::Arc;

/// `(category, message)` warnings, in the order the knobs were parsed.
pub type Warnings = Vec<(&'static str, String)>;

/// Everything the environment configures for one `pq` invocation.
pub struct Knobs {
    /// What to run.
    pub spec: RunSpec,
    /// `PQ_JOBS`: pool workers (default: available parallelism).
    pub jobs: usize,
    /// `PQ_TRACE`: the tracer's level (default: off).
    pub trace: Level,
    /// `PQ_TRACE_BUF`: the trace ring's capacity in events (default:
    /// [`DEFAULT_RING_CAPACITY`]).
    pub trace_buf: usize,
    /// `PQ_TRACE_OUT`: where the Chrome trace goes at exit; `None`
    /// while tracing is off.
    pub trace_out: Option<PathBuf>,
    /// `PQ_PROF_ALLOC`: count allocations (set, and neither empty nor
    /// `0`).
    pub prof_alloc: bool,
    /// `PQ_PROF_OUT`: where the collapsed-stack profile goes at exit.
    pub prof_out: Option<PathBuf>,
    /// `PQ_PROF_SVG`: where the flamegraph SVG goes at exit.
    pub prof_svg: Option<PathBuf>,
    /// One per knob that is malformed or cannot take effect. `main`
    /// warns with them once the tracer level is set, so they reach the
    /// exported trace as well as stderr.
    pub warnings: Warnings,
}

/// Push a `(category, message)` warning onto `$to`.
macro_rules! warn {
    ($to:expr, $cat:literal, $($msg:tt)+) => {
        $to.push(($cat, format!($($msg)+)))
    };
}

/// The lookup, and the warnings parsing has collected so far.
struct Env<F> {
    lookup: F,
    warnings: Warnings,
}

impl<F: Fn(&str) -> Option<OsString>> Env<F> {
    /// `name` as text; a value that is not Unicode warns and reads as
    /// unset.
    fn text(&mut self, name: &str) -> Option<String> {
        let value = (self.lookup)(name)?.into_string();
        if value.is_err() {
            warn!(
                self.warnings,
                "env", "{name} is set but not valid unicode; ignoring it"
            );
        }
        value.ok()
    }

    /// `name` as a path, which need not be Unicode.
    fn path(&self, name: &str) -> Option<PathBuf> {
        (self.lookup)(name).map(PathBuf::from)
    }
}

/// Parse the knobs `lookup` finds (the process environment in `main`,
/// a table in the tests). Every knob is looked up whatever the others
/// say.
pub fn parse(lookup: impl Fn(&str) -> Option<OsString>) -> Knobs {
    let mut env = Env {
        lookup,
        warnings: Vec::new(),
    };
    let trace = env.text("PQ_TRACE").map_or(Level::Off, |raw| {
        Level::parse(&raw).unwrap_or_else(|| {
            warn!(
                env.warnings,
                "obs",
                "unknown PQ_TRACE={raw:?} (want off|error|warn|info|debug|trace); \
                 tracing stays off"
            );
            Level::Off
        })
    });
    let trace_buf = env.text("PQ_TRACE_BUF");
    let trace_out = env.path("PQ_TRACE_OUT");
    let (trace_buf, trace_out) = if trace == Level::Off {
        for (name, set) in [
            ("PQ_TRACE_BUF", trace_buf.is_some()),
            ("PQ_TRACE_OUT", trace_out.is_some()),
        ] {
            if set {
                warn!(
                    env.warnings,
                    "obs",
                    "{name} is set but PQ_TRACE is off, so it has no effect; \
                     set PQ_TRACE (e.g. info) to record a trace"
                );
            }
        }
        (DEFAULT_RING_CAPACITY, None)
    } else {
        let capacity = trace_buf.map_or(DEFAULT_RING_CAPACITY, |raw| match raw.parse() {
            Ok(capacity) if capacity > 0 => capacity,
            _ => {
                warn!(
                    env.warnings,
                    "obs",
                    "invalid PQ_TRACE_BUF={raw:?} (want a positive integer); \
                     keeping the default ({DEFAULT_RING_CAPACITY})"
                );
                DEFAULT_RING_CAPACITY
            }
        });
        (capacity, trace_out)
    };
    let prof_alloc = env
        .text("PQ_PROF_ALLOC")
        .is_some_and(|v| !v.is_empty() && v != "0");
    let prof_out = env.path("PQ_PROF_OUT");
    let prof_svg = env.path("PQ_PROF_SVG");

    let default = RunSpec::default();
    let scale = match env.text("PQ_SCALE").as_deref() {
        None | Some("reduced") => Scale::Reduced,
        Some("smoke") => Scale::Smoke,
        Some("full") => Scale::Full,
        Some(other) => {
            warn!(
                env.warnings,
                "bench",
                "unknown PQ_SCALE={other:?} (expected smoke|reduced|full); defaulting to reduced"
            );
            Scale::Reduced
        }
    };
    let seed = env.text("PQ_SEED").map_or(default.seed, |s| {
        s.parse().unwrap_or_else(|_| {
            warn!(
                env.warnings,
                "bench", "unparsable PQ_SEED={s:?}; defaulting to 1910"
            );
            default.seed
        })
    });
    let jobs = match env.text("PQ_JOBS").map(|raw| (raw.parse::<usize>(), raw)) {
        None => pq_par::available_jobs(),
        Some((Ok(n), _)) if n >= 1 => n,
        Some((_, raw)) => {
            let fallback = pq_par::available_jobs();
            warn!(
                env.warnings,
                "par",
                "unparsable PQ_JOBS={raw:?} (want an integer >= 1); \
                 defaulting to available parallelism ({fallback})"
            );
            fallback
        }
    };
    let faults = env
        .text("PQ_FAULTS")
        .filter(|spec| !spec.trim().is_empty())
        .and_then(|spec| match FaultPlan::parse(&spec) {
            Ok(plan) if plan.is_empty() => {
                warn!(
                    env.warnings,
                    "fault", "PQ_FAULTS={spec:?} names no fault class; fault injection stays OFF"
                );
                None
            }
            Ok(plan) => {
                let (summary, seed) = (plan.summary(), plan.seed);
                warn!(
                    env.warnings,
                    "fault", "fault injection ACTIVE: {summary} (seed {seed})"
                );
                Some(Arc::new(plan))
            }
            Err(err) => {
                warn!(
                    env.warnings,
                    "fault", "unparsable PQ_FAULTS: {err}; fault injection stays OFF"
                );
                None
            }
        });
    let stacks = env
        .text("PQ_STACKS")
        .map_or(default.stacks, |raw| stacks(&raw, &mut env.warnings));
    Knobs {
        spec: RunSpec {
            scale,
            seed,
            stacks,
            faults,
        },
        jobs,
        trace,
        trace_buf,
        trace_out,
        prof_alloc,
        prof_out,
        prof_svg,
        warnings: env.warnings,
    }
}

/// `PQ_STACKS` (README "Knobs"), sorted and deduplicated so that the
/// grid's order never depends on the spelling.
fn stacks(raw: &str, warnings: &mut Warnings) -> Vec<Protocol> {
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
                    warn!(
                        warnings,
                        "edge", "unknown stack {label:?} in PQ_STACKS; skipping it"
                    );
                }
                p
            })
            .collect(),
    };
    if stacks.is_empty() {
        warn!(
            warnings,
            "edge", "PQ_STACKS={raw:?} selected no stacks; defaulting to table1"
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
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    fn knobs(vars: &[(&str, &str)]) -> Knobs {
        parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| OsString::from(v))
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
        assert_eq!(k.trace, Level::Off);
        assert_eq!(k.trace_buf, DEFAULT_RING_CAPACITY);
        assert_eq!(k.trace_out, None);
        assert!(!k.prof_alloc);
        assert_eq!((k.prof_out, k.prof_svg), (None, None));
        assert!(k.warnings.is_empty(), "{:?}", k.warnings);
    }

    /// README's knob table and what [`parse`] reads cannot drift: the
    /// `PQ_*` names README mentions are exactly the names `parse` looks
    /// up.
    #[test]
    fn parse_reads_exactly_the_knobs_readme_names() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at the repository root");
        // Every maximal `PQ_[A-Z_]+` token.
        let mut documented = BTreeSet::new();
        let mut rest = readme.as_str();
        while let Some(at) = rest.find("PQ_") {
            let token = &rest[at..];
            let len = token
                .find(|c: char| !c.is_ascii_uppercase() && c != '_')
                .unwrap_or(token.len());
            if len > "PQ_".len() {
                documented.insert(token[..len].to_string());
            }
            rest = &token[len..];
        }
        let read = RefCell::new(BTreeSet::new());
        parse(|name| {
            read.borrow_mut().insert(name.to_string());
            None
        });
        assert_eq!(
            documented,
            read.into_inner(),
            "README.md (left) and the names knobs::parse looks up (right) disagree"
        );
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

        let trace = |v| {
            let k = knobs(&[("PQ_TRACE", v), ("PQ_TRACE_OUT", "t.json")]);
            (k.trace, k.trace_out)
        };
        let out = Some(PathBuf::from("t.json"));
        for (v, want) in [
            ("info", (Level::Info, out.clone())),
            ("WARN", (Level::Warn, out.clone())),
            ("trace", (Level::Trace, out)),
            ("off", (Level::Off, None)),
            ("bogus", (Level::Off, None)),
        ] {
            assert_eq!(trace(v), want, "PQ_TRACE={v}");
        }

        let trace_buf = |v| knobs(&[("PQ_TRACE", "info"), ("PQ_TRACE_BUF", v)]).trace_buf;
        for (v, want) in [
            ("64", 64),
            ("0", DEFAULT_RING_CAPACITY),
            ("abc", DEFAULT_RING_CAPACITY),
        ] {
            assert_eq!(trace_buf(v), want, "PQ_TRACE_BUF={v}");
        }
        // The ring's size is moot while tracing is off.
        let k = knobs(&[("PQ_TRACE_BUF", "64")]);
        assert_eq!(k.trace_buf, DEFAULT_RING_CAPACITY);

        let prof_alloc = |v| knobs(&[("PQ_PROF_ALLOC", v)]).prof_alloc;
        for (v, want) in [("1", true), ("yes", true), ("0", false), ("", false)] {
            assert_eq!(prof_alloc(v), want, "PQ_PROF_ALLOC={v:?}");
        }
        let k = knobs(&[("PQ_PROF_OUT", "p.folded"), ("PQ_PROF_SVG", "p.svg")]);
        assert_eq!(k.prof_out, Some(PathBuf::from("p.folded")));
        assert_eq!(k.prof_svg, Some(PathBuf::from("p.svg")));
    }

    /// Every value that is malformed or cannot take effect warns, under
    /// the knob's category and naming the knob; every valid one is
    /// silent except an active fault plan, which says so.
    #[test]
    fn a_knob_that_cannot_take_effect_warns() {
        for (vars, want) in [
            // Valid values.
            (&[("PQ_SCALE", "smoke"), ("PQ_SEED", "7")][..], &[][..]),
            (&[("PQ_JOBS", "2"), ("PQ_STACKS", "all")], &[]),
            (&[("PQ_FAULTS", "")], &[]),
            (
                &[
                    ("PQ_TRACE", "info"),
                    ("PQ_TRACE_BUF", "64"),
                    ("PQ_TRACE_OUT", "t.json"),
                ],
                &[],
            ),
            (
                &[
                    ("PQ_PROF_ALLOC", "1"),
                    ("PQ_PROF_OUT", "p.folded"),
                    ("PQ_PROF_SVG", "p.svg"),
                ],
                &[],
            ),
            (
                &[("PQ_FAULTS", pq_bench::CHAOS_SPEC)],
                &[("fault", "fault injection ACTIVE")],
            ),
            // Malformed run knobs.
            (
                &[("PQ_SCALE", "huge")],
                &[("bench", "unknown PQ_SCALE=\"huge\"")],
            ),
            (
                &[("PQ_SEED", "-1")],
                &[("bench", "unparsable PQ_SEED=\"-1\"")],
            ),
            (&[("PQ_JOBS", "0")], &[("par", "unparsable PQ_JOBS=\"0\"")]),
            (
                &[("PQ_FAULTS", "gel:pgb=2")],
                &[("fault", "unparsable PQ_FAULTS")],
            ),
            (
                &[("PQ_FAULTS", "seed=7")],
                &[("fault", "names no fault class")],
            ),
            (
                &[("PQ_STACKS", "QUIC,bogus")],
                &[("edge", "unknown stack \"bogus\" in PQ_STACKS")],
            ),
            (
                &[("PQ_STACKS", "bogus")],
                &[
                    ("edge", "unknown stack \"bogus\" in PQ_STACKS"),
                    ("edge", "PQ_STACKS=\"bogus\" selected no stacks"),
                ],
            ),
            // Trace knobs: unknown level, bad capacity, and the two that
            // cannot take effect while tracing is off.
            (
                &[("PQ_TRACE", "bogus")],
                &[("obs", "unknown PQ_TRACE=\"bogus\"")],
            ),
            (
                &[("PQ_TRACE", "info"), ("PQ_TRACE_BUF", "0")],
                &[("obs", "invalid PQ_TRACE_BUF=\"0\"")],
            ),
            (
                &[("PQ_TRACE_OUT", "t.json")],
                &[("obs", "PQ_TRACE_OUT is set but PQ_TRACE is off")],
            ),
            (
                &[("PQ_TRACE", "off"), ("PQ_TRACE_BUF", "64")],
                &[("obs", "PQ_TRACE_BUF is set but PQ_TRACE is off")],
            ),
            (
                &[("PQ_TRACE", "bogus"), ("PQ_TRACE_OUT", "t.json")],
                &[
                    ("obs", "unknown PQ_TRACE=\"bogus\""),
                    ("obs", "PQ_TRACE_OUT is set but PQ_TRACE is off"),
                ],
            ),
        ] {
            let got = knobs(vars).warnings;
            assert_eq!(got.len(), want.len(), "{vars:?} warned {got:?}");
            for ((cat, msg), (want_cat, want_msg)) in got.iter().zip(want) {
                assert_eq!(cat, want_cat, "{vars:?}: {msg}");
                assert!(
                    msg.contains(want_msg),
                    "{vars:?}: {msg:?} lacks {want_msg:?}"
                );
            }
        }
    }

    #[cfg(unix)]
    #[test]
    fn a_value_that_is_not_unicode_warns_unless_it_is_a_path() {
        use std::os::unix::ffi::OsStringExt;
        let k = parse(|name| match name {
            "PQ_TRACE" => Some("info".into()),
            "PQ_SCALE" | "PQ_TRACE_OUT" => Some(OsString::from_vec(b"\xff.json".to_vec())),
            _ => None,
        });
        assert_eq!(k.spec.scale, Scale::Reduced);
        assert_eq!(
            k.trace_out,
            Some(PathBuf::from(OsString::from_vec(b"\xff.json".to_vec())))
        );
        assert_eq!(
            k.warnings,
            [(
                "env",
                "PQ_SCALE is set but not valid unicode; ignoring it".to_string()
            )]
        );
    }
}
