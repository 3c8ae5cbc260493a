//! The self-test: the workspace must lint clean. This is the same
//! verdict `cargo run -p pq-lint -- --deny` gates CI on, so a violation
//! fails `cargo test` too — you cannot merge code that the gate would
//! reject. The same test caps the inline suppressions: the engine only
//! proves they match the code, this proves they did not grow.

use pq_lint::engine;
use std::path::Path;

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // Inline `allow(...)` comments ratchet: a new one replaces an old
    // one or comes with a lower count elsewhere.
    const MAX_SUPPRESSED: usize = 14;
    let report = engine::run(&root).expect("workspace walk");
    assert!(
        report.files > 50,
        "walk found too few files: {}",
        report.files
    );
    assert!(
        report.suppressed <= MAX_SUPPRESSED,
        "inline suppressions grew: {} > {MAX_SUPPRESSED}",
        report.suppressed
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.clean(),
        "pq-lint is not clean: {} finding(s)\n{}\nfix them or add a justified suppression",
        report.findings.len(),
        rendered.join("\n"),
    );
}
