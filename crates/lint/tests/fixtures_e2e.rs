//! End-to-end engine tests over the fixture mini-workspace in
//! `tests/fixtures/ws` (which the real workspace walk skips, so the
//! deliberately violation-laden files never pollute the CI gate).

use pq_lint::{engine, lint_source, RULES};
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
    let src = fixture("crates/core/src/unsuppressed.rs");
    let (findings, _) = lint_source("crates/core/src/unsuppressed.rs", &src);
    assert_eq!(findings.len(), 2);
    let line = engine::FileFinding {
        path: "crates/core/src/unsuppressed.rs".into(),
        finding: findings[0].clone(),
    }
    .render();
    assert!(
        line.starts_with("crates/core/src/unsuppressed.rs:4:6: P[index]"),
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
fn run_reports_every_unsuppressed_finding() {
    let report = engine::run(&ws()).expect("walk");
    assert_eq!(report.files, 3);
    assert_eq!(report.suppressed, 3, "suppressed.rs");
    assert_eq!(
        report.findings.len(),
        15,
        "lib.rs 13 + unsuppressed.rs 2:\n{:#?}",
        report.findings
    );
    assert!(!report.clean());
}
