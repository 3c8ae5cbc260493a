//! `pq runall`: every table and figure in paper order over one shared
//! experiment execution, then the machine-readable run manifest
//! (`results/manifest.json`, see [`pq_bench::manifest::manifest_json`]).
//!
//! ## Crash safety
//!
//! The stimulus sweep is checkpointed through pq-ckpt's write-ahead
//! cell journal (`PQ_JOURNAL`, default `results/journal.jsonl`): every
//! completed grid cell is durable before the run proceeds, SIGINT /
//! SIGTERM checkpoint and exit cleanly (`resumable: true` in the
//! manifest, exit 0), and `PQ_RESUME=1` replays the journal — skipping
//! completed cells — to a `study_digest` bit-identical to an
//! uninterrupted run at any `PQ_JOBS`.

use crate::{Cmd, COMMANDS};
use pq_bench::manifest::{manifest_json, write_json};
use pq_bench::report;

/// Open (or resume) the write-ahead cell journal and bind it to this
/// run's configuration. A journal recorded under a different
/// scale/seed/faults/stacks is discarded with a warning — resuming it
/// would splice incompatible cells into the grid.
fn open_journal() {
    let resume = pq_obs::env::var("PQ_RESUME").as_deref() == Some("1");
    let path =
        pq_obs::env::var("PQ_JOURNAL").unwrap_or_else(|| "results/journal.jsonl".to_string());
    match pq_ckpt::journal_open(&path, resume) {
        Ok(replay) => {
            if resume {
                eprintln!(
                    "[runall] journal {path}: {} record(s) replayed{}",
                    replay.records,
                    if replay.torn {
                        " (torn tail truncated)"
                    } else {
                        ""
                    },
                );
            }
        }
        Err(err) => {
            eprintln!("[runall] journal {path} unavailable ({err}); checkpointing disabled");
            return;
        }
    }
    let scale = pq_bench::Scale::from_env();
    let seed = pq_bench::seed_from_env().to_string();
    let faults = pq_obs::env::var("PQ_FAULTS").unwrap_or_default();
    let stacks = pq_obs::env::var("PQ_STACKS").unwrap_or_default();
    let meta = [
        ("scale", scale.label()),
        ("seed", seed.as_str()),
        ("faults", faults.as_str()),
        ("stacks", stacks.as_str()),
    ];
    match pq_ckpt::journal_meta(&meta) {
        Ok(true) => eprintln!("[runall] journal matches this run's configuration"),
        Ok(false) => {}
        Err(err) => eprintln!("[runall] journal meta check failed: {err}"),
    }
}

pub fn run() {
    pq_ckpt::install_signal_handlers();
    open_journal();
    let mut timer = pq_obs::PhaseTimer::new();
    timer.phase("table1", report::print_table1);
    timer.phase("table2", report::print_table2);
    let e = timer.phase("experiment", || pq_bench::run_experiment_from_env("runall"));

    // Interruption of a checkpointed run is not a failure: every
    // completed cell is already durable in the journal, so write a
    // progress manifest, leave the journal for a PQ_RESUME=1 rerun and
    // exit cleanly.
    let interrupted = pq_ckpt::interrupted();
    if interrupted {
        eprintln!("[runall] interrupted — skipping figures; rerun with PQ_RESUME=1 to finish");
    } else {
        for (name, cmd) in COMMANDS {
            if let Cmd::View(print) = cmd {
                timer.phase(name, || print(&e));
            }
        }
    }
    let manifest = manifest_json(&e, &timer, interrupted);
    let note = if interrupted { " (resumable)" } else { "" };
    match write_json("results/manifest.json", &manifest) {
        Ok(()) => eprintln!("[runall] wrote results/manifest.json{note}"),
        Err(err) => eprintln!("[runall] failed to write manifest: {err}"),
    }
    // A completed grid's results are durable: retire the journal so
    // the next run starts fresh.
    if interrupted {
        pq_ckpt::journal_detach();
    } else if let Err(err) = pq_ckpt::journal_complete() {
        eprintln!("[runall] failed to retire journal: {err}");
    }
}
