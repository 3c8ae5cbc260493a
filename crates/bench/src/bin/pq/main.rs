//! `pq` — the experiment harness, one subcommand per artefact (see
//! [`commands`] and the table in `pq-bench`'s crate docs). Every `PQ_*`
//! knob is parsed from the environment once, here ([`knobs::parse`],
//! README "Knobs"): every subcommand that runs a grid gets the
//! resulting [`RunSpec`], a set run knob that a subcommand does not
//! read warns, and the tracer, the profiler and the pool are
//! configured before the command runs and their outputs written after
//! it, here and nowhere else. The trace holds the page loads of the
//! grid the command ran, replayed and drawn one at a time
//! ([`trace_loads`]).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod knobs;
mod runall;

use knobs::Knobs;
use pq_bench::{report, Experiment, RunSpec};
use pq_obs::export::ChromeTrace;
use pq_obs::Level;
use pq_web::LoadCounts;

/// What a subcommand runs.
enum Cmd {
    /// A static table.
    Table(fn()),
    /// One view of the experiment the spec describes. `runall` runs
    /// every one of these as a phase.
    View(report::View),
    /// The spec's [`RunSpec::edge_cell`]: its contract tree as `<key>
    /// <value>` lines, `results/contract.txt`'s `edge_cell` run (or
    /// `edge_cell_chaos`) at any `PQ_JOBS`.
    EdgeCell,
    /// Every table and view, then the manifest ([`runall::run`]).
    Runall,
}

use Cmd::{EdgeCell, Runall, Table, View};

impl Cmd {
    /// The run knobs this command does not read: each one that is set
    /// warns.
    fn unread(&self) -> &'static [&'static str] {
        match self {
            Table(_) => &knobs::RUN_KNOBS,
            EdgeCell => &["PQ_SCALE", "PQ_STACKS"],
            View(_) | Runall => &[],
        }
    }
}

/// The subcommands that are not [`report::VIEWS`]: in paper order,
/// `table1` and `table2` come before the views, `edge_cell` and
/// `runall` after them.
const PLAIN: [(&str, Cmd); 4] = [
    ("table1", Table(report::print_table1)),
    ("table2", Table(report::print_table2)),
    ("edge_cell", EdgeCell),
    ("runall", Runall),
];

/// Every subcommand, in paper order.
fn commands() -> impl Iterator<Item = (&'static str, Cmd)> {
    let [table1, table2, edge_cell, runall] = PLAIN;
    let views = report::VIEWS.map(|(name, view)| (name, View(view)));
    [table1, table2]
        .into_iter()
        .chain(views)
        .chain([edge_cell, runall])
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let Some((_, cmd)) = commands().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = commands().map(|(n, _)| n).collect();
        eprintln!("usage: pq <{}>", names.join("|"));
        std::process::exit(2);
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the one read of the environment; everything after takes the parsed knobs"
    )]
    let knobs = knobs::parse(|var| std::env::var_os(var));
    let tracer = pq_obs::tracer();
    tracer.set_level(knobs.trace);
    pq_prof::configure(knobs.prof_alloc, knobs.prof_out.is_some());
    for (cat, msg) in &knobs.warnings {
        tracer.warn(cat, msg.as_str());
    }
    for knob in cmd.unread().iter().filter(|knob| knobs.set.contains(knob)) {
        tracer.warn(
            "bench",
            format!("{knob} is set but `pq {name}` does not read it; ignoring it"),
        );
    }
    pq_par::set_jobs(Some(knobs.jobs));
    let spec = &knobs.spec;
    let ran = match cmd {
        Table(print) => {
            print();
            None
        }
        View(view) => Some(experiment(&name, spec)).inspect(|e| {
            print!("{}", report::render(view, e));
        }),
        EdgeCell => Some(experiment(&name, &spec.edge_cell())).inspect(|e| {
            for (key, value) in pq_bench::contract(e) {
                println!("{key} {value}");
            }
        }),
        Runall => Some(runall::run(spec)),
    };
    write_outputs(&name, &knobs, ran.as_ref());
}

/// At exit: the allocation summary on stderr, then the folded profile
/// and the Chrome trace wherever the knobs name a path; the trace
/// draws the page loads of `ran`, the grid the command ran.
/// A failed write warns rather than failing a finished run.
fn write_outputs(name: &str, knobs: &Knobs, ran: Option<&Experiment>) {
    if knobs.prof_alloc {
        eprintln!("[{name}] {}", alloc_summary());
    }
    if let Some(path) = &knobs.prof_out {
        match pq_prof::write_folded(path) {
            Ok(_) => eprintln!("[{name}] wrote {}", path.display()),
            Err(e) => {
                pq_obs::tracer().warn("prof", format!("failed to write {}: {e}", path.display()))
            }
        }
    }
    if let Some(path) = &knobs.trace_out {
        let loads = |trace: &mut ChromeTrace| match ran {
            Some(e) if knobs.trace >= Level::Info => trace_loads(e, knobs.trace, trace),
            _ => Ok(()),
        };
        match pq_obs::export::export(path, loads) {
            Ok(n) => eprintln!("[{name}] wrote {} ({n} events)", path.display()),
            Err(e) => eprintln!("[{name}] error: failed to write {}: {e}", path.display()),
        }
    }
}

/// Every page load `e`'s grid ran, replayed with its record on and
/// drawn at `level` into `trace`, one load at a time and in grid order:
/// attempts `0..loads` of each cell, quarantined cells' included. Each
/// load is a pure function of `(seed, cell, attempt)`, so the replay is
/// the run; a cell whose replayed counts differ from its own panics.
fn trace_loads(e: &Experiment, level: Level, trace: &mut ChromeTrace) -> std::io::Result<()> {
    let (spec, stimuli) = (&e.spec, &e.stimuli);
    for (si, site) in (0u16..).zip(&spec.sites) {
        for &network in &spec.networks {
            for &stack in &spec.stacks {
                let cell = (site.name.as_str(), network.name(), stack.label());
                let quarantined = stimuli
                    .quarantined()
                    .iter()
                    .find(|q| (q.site.as_str(), q.network.as_str(), q.protocol.as_str()) == cell);
                let want = stimuli.get(si, network, stack).map(|s| s.counts);
                let want = want.or(quarantined.map(|q| q.counts)).unwrap_or_default();
                let mut got = LoadCounts::default();
                for attempt in 0..want.loads as u32 {
                    let load = spec.load(si, network, stack, attempt, true);
                    let load = load.expect("a site of the grid");
                    got += load.counts;
                    if let Some(p) = load.render(site, level) {
                        trace.process(&p)?;
                    }
                }
                assert_eq!(got, want, "the replay of {cell:?} is not the run");
            }
        }
    }
    Ok(())
}

/// One line on the counting allocator's totals.
fn alloc_summary() -> String {
    let snap = pq_prof::alloc_snapshot();
    let mib = |bytes: u64| bytes as f64 / f64::from(1 << 20);
    format!(
        "alloc: {} allocations, {:.1} MiB total, {:.1} MiB peak live",
        snap.total_allocs,
        mib(snap.total_bytes),
        mib(snap.peak_bytes),
    )
}

/// Run the experiment `spec` describes, echoing the spec and its wall
/// time on stderr under `[header]`.
fn experiment(header: &str, spec: &RunSpec) -> Experiment {
    eprintln!("[{header}] {spec}, jobs={}", pq_par::jobs());
    #[expect(clippy::disallowed_methods, reason = "stderr progress line only")]
    let t0 = std::time::Instant::now();
    let e = spec.run();
    eprintln!("[{header}] pipeline done in {:.1?}", t0.elapsed());
    e
}
