//! Nothing: pq-lint's rules are the root `clippy.toml`, `[workspace.lints]`
//! and the crate-root `deny` lines now (README "Static analysis"). The empty
//! package stays only because removing it rewrites `benches/perf/Cargo.lock`.
