//! End-to-end engine tests over the fixture mini-workspace in
//! `tests/fixtures/ws` (which the real workspace walk skips, so the
//! deliberately violation-laden files never pollute the CI gate).

use pq_lint::{engine, lint_source, Baseline, RULES};
use std::path::{Path, PathBuf};

fn ws() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn fixture(rel: &str) -> String {
    std::fs::read_to_string(ws().join(rel)).expect("fixture file")
}

#[test]
fn violation_fixture_hits_every_rule() {
    let src = fixture("crates/core/src/lib.rs");
    let (findings, suppressed) = lint_source("crates/core/src/lib.rs", &src);
    assert_eq!(suppressed, 0);
    let count = |r: &str| findings.iter().filter(|f| f.rule == r).count();
    assert_eq!(count("hash"), 2, "{findings:#?}");
    assert_eq!(count("time"), 1);
    assert_eq!(count("rng"), 1);
    assert_eq!(count("float-sum"), 1);
    assert_eq!(count("panic"), 1);
    assert_eq!(count("index"), 1);
    assert_eq!(count("unsafe"), 1);
    assert_eq!(count("env"), 1);
    assert_eq!(count("metric-name"), 1);
    assert_eq!(count("results-io"), 1);
    assert_eq!(count("prof-name"), 1);
    assert_eq!(count("suppression"), 1, "the reasonless allow");
    assert_eq!(findings.len(), 13);
    for r in RULES {
        assert!(count(r.name) > 0, "fixture misses rule {}", r.name);
    }
}

#[test]
fn findings_render_as_clickable_locations() {
    let src = fixture("crates/core/src/grandfathered.rs");
    let (findings, _) = lint_source("crates/core/src/grandfathered.rs", &src);
    assert_eq!(findings.len(), 2);
    let line = engine::FileFinding {
        path: "crates/core/src/grandfathered.rs".into(),
        finding: findings[0].clone(),
    }
    .render();
    assert!(
        line.starts_with("crates/core/src/grandfathered.rs:5:6: P[index]"),
        "{line}"
    );
    assert!(line.contains("v[…]"), "{line}");
}

#[test]
fn suppressed_fixture_is_quiet() {
    let src = fixture("crates/core/src/suppressed.rs");
    let (findings, suppressed) = lint_source("crates/core/src/suppressed.rs", &src);
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(suppressed, 3, "rng + index + panic");
}

#[test]
fn run_grandfathers_exactly_the_baseline() {
    let root = ws();
    let baseline = Baseline::load(&root.join("pq-lint.baseline")).expect("fixture baseline");
    let report = engine::run(&root, &baseline).expect("walk");
    assert_eq!(report.files, 3);
    assert_eq!(report.suppressed, 3, "suppressed.rs");
    assert_eq!(report.grandfathered, 2);
    assert!(report.stale.is_empty(), "{:?}", report.stale);
    assert_eq!(report.new.len(), 13, "lib.rs:\n{:#?}", report.new);
    assert!(!report.clean());
}

#[test]
fn stale_entries_fail_in_both_directions() {
    // Inflated count → stale; entry for a vanished file → stale.
    let baseline = Baseline::parse(
        "index crates/core/src/grandfathered.rs 3\npanic crates/core/src/gone.rs 1\n",
    )
    .expect("parses");
    let report = engine::run(&ws(), &baseline).expect("walk");
    assert_eq!(report.stale.len(), 2, "{:?}", report.stale);
    assert!(!report.clean());
}

#[test]
fn write_baseline_round_trips_to_clean() {
    // Absorbing the full debt (what --write-baseline does) must yield
    // a clean report, and the rendered form must re-parse.
    let counts = engine::current_counts(&ws()).expect("walk");
    let b = Baseline::parse(&Baseline::render(&counts)).expect("round-trips");
    let report = engine::run(&ws(), &b).expect("walk");
    assert!(
        report.clean(),
        "new={:?} stale={:?}",
        report.new,
        report.stale
    );
    assert_eq!(report.grandfathered, 15, "13 new + 2 previously baselined");
}
