//! `pq` — the experiment harness, one subcommand per artefact (see
//! [`commands`] and the table in `pq-bench`'s crate docs). Every `PQ_*`
//! knob is parsed from the environment once, here ([`knobs::parse`],
//! README "Knobs"): every subcommand that runs a grid gets the
//! resulting [`RunSpec`], a set run knob that a subcommand does not
//! read warns, and the tracer, the profiler and the pool are
//! configured before the command runs and their outputs written after
//! it, here and nowhere else.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod knobs;
mod runall;

use knobs::Knobs;
use pq_bench::{report, Experiment, RunSpec};

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
    tracer.set_capacity(knobs.trace_buf);
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
    match cmd {
        Table(print) => print(),
        View(view) => print!("{}", report::render(view, &experiment(&name, spec))),
        EdgeCell => {
            for (key, value) in pq_bench::contract(&experiment(&name, &spec.edge_cell())) {
                println!("{key} {value}");
            }
        }
        Runall => runall::run(spec),
    }
    write_outputs(&name, &knobs);
}

/// At exit: the allocation summary on stderr, then the folded profile
/// and the Chrome trace wherever the knobs name a path.
/// A failed write warns rather than failing a finished run.
fn write_outputs(name: &str, knobs: &Knobs) {
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
        let (_, recorded, dropped) = pq_obs::tracer().stats();
        match pq_obs::export::export(path) {
            Ok(n) => eprintln!(
                "[{name}] wrote {} ({n} events; {recorded} recorded, {dropped} dropped by the ring)",
                path.display()
            ),
            Err(e) => eprintln!("[{name}] error: failed to write {}: {e}", path.display()),
        }
    }
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
