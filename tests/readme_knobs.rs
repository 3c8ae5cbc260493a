//! The README knob tables cannot drift from the code: every `PQ_*`
//! variable the workspace may read (`pq_obs::env::KNOWN_VARS`, which
//! the env funnel enforces in debug builds) is named in README.md, and
//! README.md names no `PQ_*` variable that nothing reads.

use std::collections::BTreeSet;

#[test]
fn readme_names_exactly_the_known_pq_vars() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md at the repository root");
    // Every maximal `PQ_[A-Z_]+` token.
    let mut documented = BTreeSet::new();
    let mut rest = readme.as_str();
    while let Some(at) = rest.find("PQ_") {
        let token = &rest[at..];
        let len = token
            .find(|c: char| !c.is_ascii_uppercase() && c != '_')
            .unwrap_or(token.len());
        if len > "PQ_".len() {
            documented.insert(&token[..len]);
        }
        rest = &token[len..];
    }
    let known: BTreeSet<&str> = pq_obs::env::KNOWN_VARS
        .iter()
        .copied()
        .filter(|v| v.starts_with("PQ_"))
        .collect();
    assert_eq!(
        documented, known,
        "README.md (left) and pq_obs::env::KNOWN_VARS (right) disagree"
    );
}
