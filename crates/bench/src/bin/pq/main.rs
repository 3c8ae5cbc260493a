//! `pq` — the experiment harness, one subcommand per artefact (see
//! [`COMMANDS`] and the table in `pq-bench`'s crate docs). Scale, seed,
//! workers, faults, stacks, tracing and profiling come from the `PQ_*`
//! environment (README "knobs"); observability is initialised before
//! the command runs and flushed after it, here and nowhere else.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod edge_cell;
mod export;
mod runall;
mod sweep;

use pq_bench::{report, Experiment};

/// What a subcommand needs before it can run.
enum Cmd {
    /// Nothing: it prints a static table or drives its own pipeline.
    Plain(fn()),
    /// The experiment the environment describes
    /// ([`pq_bench::run_experiment_from_env`]), of which it prints one
    /// view. `runall` runs every one of these as a phase.
    View(fn(&Experiment)),
}

use Cmd::{Plain, View};

/// Every subcommand, in paper order.
const COMMANDS: [(&str, Cmd); 13] = [
    ("table1", Plain(report::print_table1)),
    ("table2", Plain(report::print_table2)),
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
    match cmd {
        Plain(run) => run(),
        View(print) => print(&pq_bench::run_experiment_from_env(&name)),
    }
    if let Some(summary) = pq_obs::profile::alloc_summary() {
        eprintln!("[{name}] {summary}");
    }
    if let Some(path) = pq_obs::profile::flush_to_env() {
        eprintln!("[{name}] wrote {}", path.display());
    }
    pq_obs::flush_to_env();
}
