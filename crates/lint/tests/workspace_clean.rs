//! The self-test: the workspace must lint clean modulo its committed
//! baseline. This is the same verdict `cargo run -p pq-lint -- --deny`
//! gates CI on, so a violation fails `cargo test` too — you cannot
//! merge code that the gate would reject. The same test caps the
//! baseline and the inline suppressions: the engine only proves they
//! match the code, this proves they did not grow.

use pq_lint::{engine, Baseline};
use std::path::Path;

#[test]
fn workspace_is_clean_modulo_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline = Baseline::load(&root.join("pq-lint.baseline")).expect("baseline parses");
    // The ratchet in numbers. Lower MAX_DEBT with every paydown; any
    // rule other than `index` is fixed or justified inline, never
    // grandfathered.
    const MAX_DEBT: usize = 37;
    assert!(
        baseline.total() <= MAX_DEBT,
        "pq-lint.baseline grew: {} > {MAX_DEBT} grandfathered findings",
        baseline.total()
    );
    // Inline `allow(...)` comments ratchet the same way: a new one
    // replaces an old one or comes with a lower count elsewhere.
    const MAX_SUPPRESSED: usize = 16;
    for (rule, path, count) in baseline.entries() {
        assert_eq!(
            rule, "index",
            "{rule} {path} {count}: only index debt is baselined"
        );
    }
    let report = engine::run(&root, &baseline).expect("workspace walk");
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
    let rendered: Vec<String> = report.new.iter().map(|f| f.render()).collect();
    assert!(
        report.clean(),
        "pq-lint is not clean: {} new finding(s), {} stale entr(ies)\n{}\nstale: {:?}\n\
         fix the findings, add a justified suppression, or (for stale entries) run \
         `cargo run -p pq-lint -- --write-baseline`",
        report.new.len(),
        report.stale.len(),
        rendered.join("\n"),
        report.stale,
    );
}
