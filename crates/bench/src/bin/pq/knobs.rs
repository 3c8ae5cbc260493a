//! The knobs, parsed once: [`parse`] turns every `PQ_*` variable the
//! workspace reads (README "Knobs") into one [`Knobs`] value before any
//! subcommand runs: `PQ_SCALE`, `PQ_SEED`, `PQ_STACKS` and `PQ_FAULTS`
//! into the [`RunSpec`], `PQ_JOBS` for the pool, `PQ_TRACE` and
//! `PQ_TRACE_OUT` for the trace, and `PQ_PROF_ALLOC` and `PQ_PROF_OUT`
//! for the profiler. An output runs exactly when its knob names a file:
//! `PQ_TRACE_OUT` turns the trace on (the grid's page loads, replayed
//! at exit, and the harness's rows), `PQ_PROF_OUT` the span profiler. A malformed value, or one that
//! cannot take effect, gives its documented default and a warning;
//! none is silently swallowed.

use pq_bench::{RunSpec, Scale};
use pq_obs::Level;
use pq_transport::Protocol;
use std::ffi::OsString;
use std::path::PathBuf;

/// The knobs that make the [`RunSpec`].
pub const RUN_KNOBS: [&str; 4] = ["PQ_SCALE", "PQ_SEED", "PQ_STACKS", "PQ_FAULTS"];

/// `(category, message)` warnings, in the order the knobs were parsed.
pub type Warnings = Vec<(&'static str, String)>;

/// Everything the environment configures for one `pq` invocation.
pub struct Knobs {
    /// What to run.
    pub spec: RunSpec,
    /// `PQ_JOBS`: pool workers (default: available parallelism).
    pub jobs: usize,
    /// The tracer's level: `PQ_TRACE` (default: info) while
    /// `PQ_TRACE_OUT` names a file, else off.
    pub trace: Level,
    /// `PQ_TRACE_OUT`: where the Chrome trace goes at exit; `None`
    /// while tracing is off.
    pub trace_out: Option<PathBuf>,
    /// `PQ_PROF_ALLOC`: count allocations (set, and neither empty nor
    /// `0`).
    pub prof_alloc: bool,
    /// `PQ_PROF_OUT`: where the collapsed-stack profile goes at exit;
    /// spans are collected exactly when it is set.
    pub prof_out: Option<PathBuf>,
    /// One per knob that is malformed or cannot take effect. `main`
    /// warns with them once the tracer level is set, so they reach the
    /// exported trace as well as stderr.
    pub warnings: Warnings,
    /// The knobs that are set, in lookup order.
    pub set: Vec<&'static str>,
}

/// Push a `(category, message)` warning onto `$to`.
macro_rules! warn {
    ($to:expr, $cat:literal, $($msg:tt)+) => {
        $to.push(($cat, format!($($msg)+)))
    };
}

/// The lookup, and the warnings and set knobs parsing has collected
/// so far.
struct Env<F> {
    lookup: F,
    warnings: Warnings,
    set: Vec<&'static str>,
}

impl<F: Fn(&str) -> Option<OsString>> Env<F> {
    /// `name` as text; a value that is not Unicode warns and reads as
    /// unset.
    fn text(&mut self, name: &'static str) -> Option<String> {
        let value = (self.lookup)(name)?.into_string();
        self.set.push(name);
        if value.is_err() {
            warn!(
                self.warnings,
                "env", "{name} is set but not valid unicode; ignoring it"
            );
        }
        value.ok()
    }

    /// `name` as a path, which need not be Unicode.
    fn path(&mut self, name: &'static str) -> Option<PathBuf> {
        let value = (self.lookup)(name)?;
        self.set.push(name);
        Some(PathBuf::from(value))
    }
}

/// Parse the knobs `lookup` finds (the process environment in `main`,
/// a table in the tests). Every knob is looked up whatever the others
/// say.
pub fn parse(lookup: impl Fn(&str) -> Option<OsString>) -> Knobs {
    let mut env = Env {
        lookup,
        warnings: Vec::new(),
        set: Vec::new(),
    };
    // `Some(None)`: set to an unknown level, which warns.
    let level = env.text("PQ_TRACE").map(|raw| {
        let level = Level::parse(&raw);
        if level.is_none() {
            warn!(
                env.warnings,
                "obs", "unknown PQ_TRACE={raw:?} (want off|warn|info|debug); tracing stays off"
            );
        }
        level
    });
    let trace_out = env.path("PQ_TRACE_OUT");
    let trace = match (&trace_out, level) {
        (None, _) => Level::Off,
        (Some(_), None) => Level::Info,
        (Some(_), Some(level)) => level.unwrap_or(Level::Off),
    };
    let trace_out = if trace == Level::Off {
        let (why, remedy) = match trace_out {
            None => ("PQ_TRACE_OUT is not set", "set PQ_TRACE_OUT"),
            Some(_) => ("PQ_TRACE is off", "unset PQ_TRACE"),
        };
        for (name, set) in [
            ("PQ_TRACE", level.flatten().is_some() && trace_out.is_none()),
            ("PQ_TRACE_OUT", trace_out.is_some()),
        ] {
            if set {
                warn!(
                    env.warnings,
                    "obs",
                    "{name} is set but {why}, so it has no effect; {remedy} to record a trace"
                );
            }
        }
        None
    } else {
        trace_out
    };
    let prof_alloc = env
        .text("PQ_PROF_ALLOC")
        .is_some_and(|v| !v.is_empty() && v != "0");
    let prof_out = env.path("PQ_PROF_OUT");

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
    let mut spec = RunSpec::at(scale);
    if let Some(raw) = env.text("PQ_SEED") {
        match raw.parse() {
            Ok(seed) => spec.seed = seed,
            Err(_) => warn!(
                env.warnings,
                "bench", "unparsable PQ_SEED={raw:?}; defaulting to 1910"
            ),
        }
    }
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
    if let Some(raw) = env.text("PQ_STACKS") {
        spec.stacks = stacks(&raw, &mut env.warnings);
    }
    if let Some(raw) = env.text("PQ_FAULTS").filter(|raw| !raw.trim().is_empty()) {
        match spec.clone().with_faults(&raw) {
            Ok(faulted) => match &faulted.faults {
                None => warn!(
                    env.warnings,
                    "fault", "PQ_FAULTS={raw:?} names no fault class; fault injection stays OFF"
                ),
                Some(plan) => {
                    warn!(
                        env.warnings,
                        "fault",
                        "fault injection ACTIVE: {} (seed {})",
                        plan.summary(),
                        plan.seed
                    );
                    spec = faulted;
                }
            },
            Err(err) => warn!(
                env.warnings,
                "fault", "unparsable PQ_FAULTS: {err}; fault injection stays OFF"
            ),
        }
    }
    Knobs {
        spec,
        jobs,
        trace,
        trace_out,
        prof_alloc,
        prof_out,
        warnings: env.warnings,
        set: env.set,
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
        assert_eq!((k.spec.sites.len(), k.spec.runs), (12, 11));
        assert_eq!(k.spec.seed, 1910);
        assert_eq!(k.spec.stacks, Protocol::ALL);
        assert!(k.spec.faults.is_none());
        assert_eq!(k.jobs, pq_par::available_jobs());
        assert_eq!(k.trace, Level::Off);
        assert_eq!(k.trace_out, None);
        assert!(!k.prof_alloc);
        assert_eq!(k.prof_out, None);
        assert!(k.warnings.is_empty(), "{:?}", k.warnings);
        assert!(k.set.is_empty(), "{:?}", k.set);
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
        let grid = |spec: RunSpec| (spec.sites.len(), spec.runs);
        for (v, want) in [
            ("smoke", Scale::Smoke),
            ("reduced", Scale::Reduced),
            ("full", Scale::Full),
            ("huge", Scale::Reduced),
        ] {
            let got = grid(knobs(&[("PQ_SCALE", v)]).spec);
            assert_eq!(got, grid(RunSpec::at(want)), "PQ_SCALE={v}");
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

        // `PQ_TRACE_OUT` turns the tracer on; `PQ_TRACE` only picks the
        // level, and alone it leaves the tracer off.
        let trace = |vars: &[(&str, &str)]| {
            let k = knobs(vars);
            (k.trace, k.trace_out)
        };
        let out = Some(PathBuf::from("t.json"));
        for (v, want) in [
            ("info", (Level::Info, out.clone())),
            ("WARN", (Level::Warn, out.clone())),
            ("debug", (Level::Debug, out.clone())),
            ("off", (Level::Off, None)),
            ("error", (Level::Off, None)),
            ("trace", (Level::Off, None)),
            ("bogus", (Level::Off, None)),
        ] {
            let got = trace(&[("PQ_TRACE", v), ("PQ_TRACE_OUT", "t.json")]);
            assert_eq!(got, want, "PQ_TRACE={v}");
            assert_eq!(
                trace(&[("PQ_TRACE", v)]),
                (Level::Off, None),
                "PQ_TRACE={v}"
            );
        }
        assert_eq!(trace(&[("PQ_TRACE_OUT", "t.json")]), (Level::Info, out));

        let prof_alloc = |v| knobs(&[("PQ_PROF_ALLOC", v)]).prof_alloc;
        for (v, want) in [("1", true), ("yes", true), ("0", false), ("", false)] {
            assert_eq!(prof_alloc(v), want, "PQ_PROF_ALLOC={v:?}");
        }
        // Spans run exactly when `PQ_PROF_OUT` names a file.
        let k = knobs(&[("PQ_PROF_OUT", "p.folded")]);
        assert_eq!(k.prof_out, Some(PathBuf::from("p.folded")));

        // Set, in lookup order, whether the value parses or not.
        let k = knobs(&[("PQ_SEED", "x"), ("PQ_TRACE_OUT", "t.json")]);
        assert_eq!(k.set, ["PQ_TRACE_OUT", "PQ_SEED"]);
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
            (&[("PQ_TRACE", "info"), ("PQ_TRACE_OUT", "t.json")], &[]),
            (&[("PQ_TRACE_OUT", "t.json")], &[]),
            (&[("PQ_PROF_ALLOC", "1"), ("PQ_PROF_OUT", "p.folded")], &[]),
            (&[("PQ_PROF_OUT", "p.folded")], &[]),
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
            // Trace knobs: unknown levels, and each one that cannot
            // take effect while tracing is off.
            (
                &[("PQ_TRACE", "bogus")],
                &[("obs", "unknown PQ_TRACE=\"bogus\"")],
            ),
            (
                &[("PQ_TRACE", "error"), ("PQ_TRACE_OUT", "t.json")],
                &[
                    ("obs", "unknown PQ_TRACE=\"error\""),
                    ("obs", "PQ_TRACE_OUT is set but PQ_TRACE is off"),
                ],
            ),
            (
                &[("PQ_TRACE", "trace"), ("PQ_TRACE_OUT", "t.json")],
                &[
                    ("obs", "unknown PQ_TRACE=\"trace\""),
                    ("obs", "PQ_TRACE_OUT is set but PQ_TRACE is off"),
                ],
            ),
            (
                &[("PQ_TRACE", "info")],
                &[("obs", "PQ_TRACE is set but PQ_TRACE_OUT is not set")],
            ),
            (
                &[("PQ_TRACE", "off"), ("PQ_TRACE_OUT", "t.json")],
                &[("obs", "PQ_TRACE_OUT is set but PQ_TRACE is off")],
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
            "PQ_SCALE" | "PQ_TRACE_OUT" => Some(OsString::from_vec(b"\xff.json".to_vec())),
            _ => None,
        });
        assert_eq!(k.spec.sites.len(), 12);
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
