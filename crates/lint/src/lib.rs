//! # pq-lint — the workspace invariant checker
//!
//! The pipeline's central correctness property — study digests
//! bit-identical across `PQ_JOBS` worker counts and fault seeds — is a
//! *code* property: no randomized-iteration containers, no wall-clock
//! reads, no ad-hoc RNG keying in the layers that feed the digest.
//! Until this crate, that property rested on convention. `pq-lint`
//! turns it into a mechanical gate, the same way the paper's
//! conformance filter (Table 3, R1–R7) turns "valid study data" from a
//! judgement call into a rule table.
//!
//! The checker tokenizes every workspace `.rs` file with a small
//! hand-rolled lexer ([`lexer`] — comments, strings, idents, no
//! parse) and runs a registry of project-invariant rules ([`rules`])
//! over each file's token stream, one file at a time, in three
//! families:
//!
//! | family | rules | invariant |
//! |--------|-------|-----------|
//! | **D** (determinism) | `hash`, `time`, `rng`, `float-sum` | digest-affecting code is a pure function of `(seed, cell coordinates)` |
//! | **P** (panic-safety) | `panic`, `index`, `unsafe`, `results-io` | hot paths degrade through `PqError`, never abort the grid |
//! | **O** (observability) | `env`, `metric-name`, `prof-name` | config flows through `pq_obs::env`; metric names stay `crate.noun_verb` |
//!
//! Findings are reported as `file:line:col` with the offending span.
//! Inline suppression is `// pq-lint: allow(panic) -- reason` with a
//! **mandatory** reason, and a suppression that no longer matches a
//! finding is itself a finding (`suppression`). Nothing is
//! grandfathered: `cargo run -p pq-lint -- --deny` fails on any
//! unsuppressed finding. See [`engine`] for the exact semantics.
//!
//! What a token scan cannot see is measured, not approximated:
//! allocations per simulated event have a ceiling in
//! `tests/event_sequence.rs`, digests are pinned across `PQ_JOBS` in
//! `tests/determinism.rs`, and the env / metric / span name
//! registries are checked where the names are used
//! (`pq_obs::env`, `tests/end_to_end.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{lint_source, run, workspace_files, Report};
pub use rules::{Family, Finding, RuleInfo, RULES};
