//! `pq` — the experiment harness, one subcommand per artefact (see
//! [`COMMANDS`] and the table in `pq-bench`'s crate docs). Scale, seed,
//! stacks, faults, workers and the cell deadline are parsed from the
//! `PQ_*` environment once, here ([`knobs::parse`], README "Knobs"),
//! and every subcommand gets the resulting [`RunSpec`]; observability
//! is initialised before the command runs and flushed after it, here
//! and nowhere else.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod edge_cell;
mod export;
mod knobs;
mod runall;
mod sweep;

use pq_bench::{report, Experiment, RunSpec};

/// What a subcommand needs before it can run.
enum Cmd {
    /// The spec: it prints a static table or drives its own pipeline.
    Plain(fn(&RunSpec)),
    /// The experiment the spec describes ([`experiment`]), of which it
    /// prints one view. `runall` runs every one of these as a phase.
    View(fn(&Experiment)),
}

use Cmd::{Plain, View};

/// Every subcommand, in paper order.
const COMMANDS: [(&str, Cmd); 13] = [
    ("table1", Plain(|_| report::print_table1())),
    ("table2", Plain(|_| report::print_table2())),
    ("table3", View(report::print_table3)),
    ("fig3", View(report::print_fig3)),
    ("fig4", View(report::print_fig4)),
    ("fig5", View(report::print_fig5)),
    ("fig6", View(report::print_fig6)),
    ("agreement", View(report::print_agreement)),
    ("ablation", View(report::print_ablation)),
    ("sweep", Plain(sweep::run)),
    ("export", Plain(export::run)),
    ("edge_cell", Plain(edge_cell::run)),
    ("runall", Plain(runall::run)),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let Some((_, cmd)) = COMMANDS.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = COMMANDS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: pq <{}>", names.join("|"));
        std::process::exit(2);
    };
    pq_obs::init_from_env();
    #[expect(
        clippy::disallowed_methods,
        reason = "the one read of the run knobs; everything after takes the RunSpec"
    )]
    let knobs = knobs::parse(pq_obs::env::var);
    pq_par::set_jobs(Some(knobs.jobs));
    pq_par::set_cell_timeout_ms(knobs.cell_timeout_ms);
    match cmd {
        Plain(run) => run(&knobs.spec),
        View(print) => print(&experiment(&name, &knobs.spec)),
    }
    if let Some(summary) = pq_obs::profile::alloc_summary() {
        eprintln!("[{name}] {summary}");
    }
    if let Some(path) = pq_obs::profile::flush_to_env() {
        eprintln!("[{name}] wrote {}", path.display());
    }
    pq_obs::flush_to_env();
}

/// Run the experiment `spec` describes, echoing its setup and its wall
/// time on stderr under `[header]`.
fn experiment(header: &str, spec: &RunSpec) -> Experiment {
    let (sites, runs) = spec.scale.params();
    eprintln!(
        "[{header}] scale={} ({sites} sites × 4 networks × {} stacks × {runs} runs), \
         seed={}, jobs={}{}",
        spec.scale.label(),
        spec.stacks.len(),
        spec.seed,
        pq_par::jobs(),
        spec.faults.as_ref().map_or("", |_| ", faults=ON"),
    );
    #[expect(clippy::disallowed_methods, reason = "stderr progress line only")]
    let t0 = std::time::Instant::now();
    let e = pq_bench::run_experiment(spec);
    eprintln!("[{header}] pipeline done in {:.1?}", t0.elapsed());
    e
}
