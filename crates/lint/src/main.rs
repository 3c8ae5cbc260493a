//! `pq-lint` CLI — the CI gate.
//!
//! ```text
//! cargo run -p pq-lint --                    # report findings (exit 0)
//! cargo run -p pq-lint -- --deny             # CI gate: exit 1 on new/stale
//! cargo run -p pq-lint -- --write-baseline   # regenerate pq-lint.baseline
//! cargo run -p pq-lint -- --rules            # print the rule registry
//! cargo run -p pq-lint -- --root <dir>       # lint another checkout
//! ```

#![forbid(unsafe_code)]

use pq_lint::{baseline::Baseline, engine, rules};
use std::path::PathBuf;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let mut deny = false;
    let mut write = false;
    let mut show_rules = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--write-baseline" => write = true,
            "--rules" => show_rules = true,
            "--root" => root = args.next().map(PathBuf::from),
            "--baseline" => baseline_path = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                print_help();
                return 0;
            }
            other => {
                eprintln!("pq-lint: unknown argument {other:?} (try --help)");
                return 2;
            }
        }
    }

    if show_rules {
        println!("{:<12} {:<3} description", "rule", "fam");
        for r in rules::RULES {
            println!("{:<12} {:<3?} {}", r.name, r.family, r.what);
        }
        return 0;
    }

    let root = root.unwrap_or_else(|| PathBuf::from("."));
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("pq-lint.baseline"));

    if write {
        let counts = match engine::current_counts(&root) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("pq-lint: walking {} failed: {e}", root.display());
                return 2;
            }
        };
        let total: usize = counts.values().sum();
        let body = Baseline::render(&counts);
        if let Err(e) = std::fs::write(&baseline_path, body) {
            eprintln!("pq-lint: writing {} failed: {e}", baseline_path.display());
            return 2;
        }
        println!(
            "pq-lint: wrote {} ({} entries, {total} grandfathered findings)",
            baseline_path.display(),
            counts.len()
        );
        return 0;
    }

    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("pq-lint: {e}");
            return 2;
        }
    };
    let report = match engine::run(&root, &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pq-lint: walking {} failed: {e}", root.display());
            return 2;
        }
    };

    for f in &report.new {
        println!("{}", f.render());
    }
    for (rule, path, allowed, found) in &report.stale {
        println!(
            "STALE baseline entry: {rule} {path} expects {allowed} finding(s), found {found} \
             — debt was paid down; regenerate with --write-baseline (the baseline only shrinks)"
        );
    }
    println!(
        "pq-lint: {} file(s), {} new finding(s), {} stale baseline entr(ies), \
         {} grandfathered, {} suppressed inline [baseline: {}]",
        report.files,
        report.new.len(),
        report.stale.len(),
        report.grandfathered,
        report.suppressed,
        baseline.total(),
    );

    if !report.clean() && deny {
        eprintln!(
            "pq-lint: FAIL (--deny): fix the findings above, add a justified \
                   `// pq-lint: allow(<rule>) -- <reason>`, or pay down stale baseline debt"
        );
        return 1;
    }
    0
}

fn print_help() {
    println!(
        "pq-lint — workspace invariant checker (determinism / panic-safety / observability)\n\
         \n\
         USAGE: pq-lint [--deny] [--write-baseline] [--rules] [--root DIR] [--baseline FILE]\n\
         \n\
         --deny            exit 1 on new findings or stale baseline entries (the CI gate)\n\
         --write-baseline  regenerate the grandfathered-findings baseline\n\
         --rules           print the rule registry\n\
         --root DIR        workspace root to lint (default .)\n\
         --baseline FILE   baseline path (default <root>/pq-lint.baseline)\n\
         \n\
         Suppress a finding with `// pq-lint: allow(<rule>) -- <reason>` on the same\n\
         line or the line above; the reason is mandatory, and an allow that matches\n\
         no finding is itself reported."
    );
}
