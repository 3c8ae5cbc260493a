//! The project-invariant lint registry.
//!
//! Three families, mirroring the repo's three hard conventions:
//!
//! * **D (determinism)** — the pipeline's headline guarantee is that
//!   study digests are bit-identical across `PQ_JOBS` and fault seeds;
//!   these rules reject the constructs that break it (randomized hash
//!   iteration, wall-clock reads, ad-hoc RNG keying, order-dependent
//!   float accumulation).
//! * **P (panic-safety)** — hot-path code degrades through `PqError`
//!   instead of panicking; these rules flag `unwrap`-family calls,
//!   panic macros, bare slice indexing, and missing
//!   `#![forbid(unsafe_code)]` at crate roots.
//! * **O (observability/config)** — configuration flows through
//!   `pq_obs::env` and metric names follow the `crate.noun_verb`
//!   convention, so runs stay explainable.
//!
//! The rules exploit cheap structural regularities of the token
//! stream — no parse, no type information, no cross-file state, by
//! design: like the paper's conformance filter (Table 3, R1–R7) — and
//! a reasoned inline suppression absorbs the grey zone. What a token scan
//! cannot see is measured instead of over-approximated: per-event
//! allocation by the ceiling in `tests/event_sequence.rs`, digest
//! stability by the `PQ_JOBS` pins in `tests/determinism.rs`, and the
//! name registries by the checks at the `pq_obs` sinks themselves.

use crate::lexer::{Tok, TokKind};

/// Crates whose output feeds the study digest: any nondeterminism
/// here invalidates every recorded baseline.
pub const DIGEST_CRATES: &[&str] = &["core", "edge", "sim", "transport", "web"];

/// Crates allowed to read wall-clock time (harness timing, never
/// digest-affecting values). `prof` observes wall time by design — it
/// measures the hot loop, it never feeds it.
pub const TIME_ALLOWED_CRATES: &[&str] = &["obs", "bench", "prof"];

/// The one file allowed to touch `std::env` directly.
pub const ENV_FUNNEL_FILE: &str = "crates/obs/src/env.rs";

/// Files that define the sanctioned seed-derivation machinery and may
/// therefore construct RNGs from raw integers.
pub const RNG_DEF_FILES: &[&str] = &["crates/sim/src/rng.rs", "crates/fault/src/rng.rs"];

/// Severity family of a rule (`D`/`P`/`O`, plus `L` for lint-usage
/// errors like malformed or stale suppressions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Determinism.
    D,
    /// Panic-safety.
    P,
    /// Observability / configuration.
    O,
    /// Lint usage (bad or stale suppression comments); never
    /// suppressible.
    L,
}

/// Static description of one rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable id used in suppressions (`hash`, `panic`, `env`, …).
    pub name: &'static str,
    /// Rule family.
    pub family: Family,
    /// One-line description for `--rules` and the README table.
    pub what: &'static str,
}

/// The registry, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash",
        family: Family::D,
        what: "HashMap/HashSet in a digest-affecting crate (randomized iteration order); \
               use BTreeMap/BTreeSet or a sorted Vec",
    },
    RuleInfo {
        name: "time",
        family: Family::D,
        what: "Instant::now/SystemTime::now/RandomState outside the obs/bench/prof \
               allowlist (wall-clock must never feed simulated data)",
    },
    RuleInfo {
        name: "rng",
        family: Family::D,
        what: "raw SimRng::new/FaultRng::new in a digest-affecting crate; seeds must \
               derive from run_seed/derive_seed (suppress at sanctioned derivation points)",
    },
    RuleInfo {
        name: "float-sum",
        family: Family::D,
        what: ".sum() float accumulation in a file that fans out over pq-par; summation \
               order must not depend on chunk placement",
    },
    RuleInfo {
        name: "panic",
        family: Family::P,
        what: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test \
               hot-path code; return PqError or document the invariant",
    },
    RuleInfo {
        name: "index",
        family: Family::P,
        what: "bare slice/array indexing in non-test hot-path code; prefer get()/get_mut() \
               or document why the index is in range",
    },
    RuleInfo {
        name: "unsafe",
        family: Family::P,
        what: "crate root missing #![forbid(unsafe_code)]",
    },
    RuleInfo {
        name: "results-io",
        family: Family::P,
        what: "direct fs::write/File::create/OpenOptions in a file that writes under \
               results/; go through pq_ckpt::{atomic_write, durable_append} so a crash \
               can never leave a torn artefact",
    },
    RuleInfo {
        name: "env",
        family: Family::O,
        what: "raw std::env::var outside pq_obs::env (config must flow through the \
               central funnel so misconfiguration warns once, loudly)",
    },
    RuleInfo {
        name: "metric-name",
        family: Family::O,
        what: "tracer/registry metric name not in crate.noun_verb form \
               (lowercase dotted segments, at least two)",
    },
    RuleInfo {
        name: "prof-name",
        family: Family::O,
        what: "profiler span literal not collapsed-stack-safe, or a prof-prefixed \
               metric name violating the dotted-lowercase convention",
    },
    RuleInfo {
        name: "suppression",
        family: Family::L,
        what: "malformed pq-lint suppression (unknown rule name or missing \
               '-- <reason>'), or one that no longer suppresses any finding",
    },
];

/// Look up a rule by name.
pub fn rule(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// One raw finding inside a single file (the engine adds the path and
/// applies suppressions).
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending span, verbatim.
    pub snippet: String,
    /// Human explanation.
    pub message: String,
}

/// Everything the rules need to know about one file.
pub struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// `crates/<name>/…` → `Some(name)`; the root crate → `None`.
    pub crate_name: Option<&'a str>,
    /// Whole file is test/bench/example context (path-based).
    pub is_test_file: bool,
    /// Line of the first `#[cfg(test)]`; everything at or after it is
    /// treated as test context (the repo convention keeps test
    /// modules at the bottom of each file).
    pub test_from_line: Option<u32>,
    /// Code tokens (comments excluded).
    pub tokens: &'a [Tok],
    /// Crate-root file (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`).
    pub is_crate_root: bool,
}

impl FileContext<'_> {
    pub(crate) fn in_test(&self, line: u32) -> bool {
        self.is_test_file || self.test_from_line.is_some_and(|t| line >= t)
    }

    fn in_digest_crate(&self) -> bool {
        self.crate_name.is_some_and(|c| DIGEST_CRATES.contains(&c))
    }
}

/// Line of the first `#[cfg(test)]` attribute in `toks`, if any.
pub fn first_cfg_test_line(toks: &[Tok]) -> Option<u32> {
    let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
    toks.windows(pat.len())
        .find(|w| w.iter().zip(pat).all(|(t, p)| t.text == p))
        .map(|w| w[0].line)
}

/// Run every rule over one file.
pub fn check_file(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_hash(ctx, &mut out);
    rule_time(ctx, &mut out);
    rule_rng(ctx, &mut out);
    rule_float_sum(ctx, &mut out);
    rule_panic(ctx, &mut out);
    rule_index(ctx, &mut out);
    rule_unsafe(ctx, &mut out);
    rule_results_io(ctx, &mut out);
    rule_env(ctx, &mut out);
    rule_metric_name(ctx, &mut out);
    rule_prof_name(ctx, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Does the token window starting at `i` match `pat` textually?
fn matches_at(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    toks.len() >= i + pat.len() && pat.iter().zip(&toks[i..]).all(|(p, t)| t.text == *p)
}

fn push(out: &mut Vec<Finding>, rule: &'static str, t: &Tok, snippet: String, message: String) {
    out.push(Finding {
        rule,
        line: t.line,
        col: t.col,
        snippet,
        message,
    });
}

/// D: `HashMap` / `HashSet` anywhere in a digest-affecting crate.
fn rule_hash(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_digest_crate() {
        return;
    }
    for t in ctx.tokens {
        if t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !ctx.in_test(t.line)
        {
            push(
                out,
                "hash",
                t,
                t.text.clone(),
                format!(
                    "{} has a randomized iteration order; digest-affecting crates must \
                     use BTreeMap/BTreeSet or a sorted Vec",
                    t.text
                ),
            );
        }
    }
}

/// D: wall-clock / random-state reads outside the harness allowlist.
fn rule_time(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if ctx
        .crate_name
        .is_some_and(|c| TIME_ALLOWED_CRATES.contains(&c))
    {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(t.line) {
            continue;
        }
        let bad = (matches_at(toks, i, &["Instant", ":", ":", "now"])
            || matches_at(toks, i, &["SystemTime", ":", ":", "now"]))
            && t.kind == TokKind::Ident;
        if bad {
            push(
                out,
                "time",
                t,
                format!("{}::now", t.text),
                format!(
                    "{}::now() reads the wall clock; simulated layers must stay on \
                     virtual SimTime (allowlisted crates: {})",
                    t.text,
                    TIME_ALLOWED_CRATES.join("/")
                ),
            );
        }
        if t.kind == TokKind::Ident && t.text == "RandomState" {
            push(
                out,
                "time",
                t,
                t.text.clone(),
                "RandomState seeds from the OS; deterministic code must not touch it".into(),
            );
        }
    }
}

/// D: raw RNG construction in digest-affecting crates.
fn rule_rng(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_digest_crate() || RNG_DEF_FILES.contains(&ctx.rel_path) {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(t.line) {
            continue;
        }
        if (matches_at(toks, i, &["SimRng", ":", ":", "new"])
            || matches_at(toks, i, &["FaultRng", ":", ":", "new"]))
            && t.kind == TokKind::Ident
        {
            push(
                out,
                "rng",
                t,
                format!("{}::new", t.text),
                "RNG streams must derive from run_seed/derive_seed so every value is a \
                 pure function of (seed, cell coordinates); suppress with the derivation \
                 invariant if this IS a sanctioned derivation point"
                    .into(),
            );
        }
    }
}

/// D: `.sum()` in a file that also fans out over the pq-par pool.
fn rule_float_sum(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_digest_crate() {
        return;
    }
    let toks = ctx.tokens;
    let uses_par = toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && matches!(t.text.as_str(), "par_map" | "try_par_map"));
    if !uses_par {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.text == "sum"
            && i > 0
            && toks[i - 1].text == "."
            && !ctx.in_test(t.line)
        {
            push(
                out,
                "float-sum",
                t,
                ".sum()".into(),
                "this file fans out over pq-par: float accumulation order must not \
                 depend on chunk placement — sum inside one cell (serial) or combine \
                 partials in index order, then suppress with that invariant"
                    .into(),
            );
        }
    }
}

/// P: panic-family calls in non-test hot-path code.
fn rule_panic(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_digest_crate() {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let method_call = |name: &str| {
            t.text == name
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
        };
        if method_call("unwrap") || method_call("expect") {
            push(
                out,
                "panic",
                t,
                format!(".{}(…)", t.text),
                format!(
                    ".{}() panics on the unhappy path; return a PqError (or Option) and \
                     let the caller quarantine/retry, or suppress with the invariant \
                     that makes this unreachable",
                    t.text
                ),
            );
            continue;
        }
        let is_macro = matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && toks.get(i + 1).is_some_and(|n| n.text == "!");
        if is_macro {
            push(
                out,
                "panic",
                t,
                format!("{}!", t.text),
                format!(
                    "{}! aborts the whole grid cell; hot paths degrade through PqError — \
                     suppress only with the invariant that makes this path impossible",
                    t.text
                ),
            );
        }
    }
}

/// P: bare slice indexing (`expr[...]`) in non-test hot-path code.
///
/// Lexical heuristic: a `[` *immediately* adjacent to a preceding
/// identifier, `)` or `]` is an index expression (types and slices are
/// written with a space or follow punctuation). Prefer `get()`,
/// iteration or destructuring.
fn rule_index(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.in_digest_crate() {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.text != "[" || i == 0 || ctx.in_test(t.line) {
            continue;
        }
        let prev = &toks[i - 1];
        let indexable = (prev.kind == TokKind::Ident && !is_keyword(&prev.text))
            || prev.text == ")"
            || prev.text == "]";
        let adjacent = prev.line == t.line && prev.end_col() == t.col;
        if indexable && adjacent {
            let base = if prev.kind == TokKind::Ident {
                prev.text.clone()
            } else {
                "…".into()
            };
            push(
                out,
                "index",
                t,
                format!("{base}[…]"),
                "bare indexing panics when out of range; prefer get()/get_mut() in hot \
                 paths, or suppress with the invariant that bounds the index"
                    .into(),
            );
        }
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "mut" | "dyn" | "ref" | "in" | "as" | "return" | "break" | "else" | "move" | "box"
    )
}

/// P: crate roots must carry `#![forbid(unsafe_code)]`.
fn rule_unsafe(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if !ctx.is_crate_root {
        return;
    }
    let pat = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let found = (0..ctx.tokens.len()).any(|i| matches_at(ctx.tokens, i, &pat));
    if !found {
        out.push(Finding {
            rule: "unsafe",
            line: 1,
            col: 1,
            snippet: ctx.rel_path.to_string(),
            message: "crate root lacks #![forbid(unsafe_code)]; the workspace is \
                      100% safe Rust and stays that way"
                .into(),
        });
    }
}

/// P: direct filesystem writes in a non-test file that names a
/// `results/` path. Everything under `results/` is a consumer-visible
/// artefact: it must be written through pq-ckpt (`atomic_write` =
/// temp + fsync + rename, `durable_append` = O_APPEND + fsync) so a
/// crash mid-write can never leave a torn or half-updated file.
/// pq-ckpt itself is the sanctioned implementation and is exempt.
fn rule_results_io(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if ctx.crate_name == Some("ckpt") {
        return;
    }
    let toks = ctx.tokens;
    let touches_results = toks
        .iter()
        .any(|t| t.kind == TokKind::Str && !ctx.in_test(t.line) && t.text.contains("results/"));
    if !touches_results {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let writer = if matches_at(toks, i, &["fs", ":", ":", "write"]) {
            "fs::write"
        } else if matches_at(toks, i, &["File", ":", ":", "create"]) {
            "File::create"
        } else if matches_at(toks, i, &["OpenOptions", ":", ":", "new"]) {
            "OpenOptions::new"
        } else {
            continue;
        };
        push(
            out,
            "results-io",
            t,
            writer.to_string(),
            format!(
                "{writer} in a file that writes under results/; use \
                 pq_ckpt::atomic_write (whole files) or pq_ckpt::durable_append \
                 (journals/history) so readers never observe a torn artefact"
            ),
        );
    }
}

/// O: `std::env::var` / `var_os` (or importing `std::env`) outside the
/// funnel file.
fn rule_env(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    if ctx.rel_path == ENV_FUNNEL_FILE {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "std" {
            continue;
        }
        let var = matches_at(toks, i, &["std", ":", ":", "env", ":", ":", "var"]);
        let var_os = matches_at(toks, i, &["std", ":", ":", "env", ":", ":", "var_os"]);
        let import = matches_at(toks, i, &["std", ":", ":", "env", ";"])
            && i >= 1
            && toks[i - 1].text == "use";
        // `var` also prefixes `var_os`; report whichever is exact.
        if var_os || var || import {
            let snippet = if import {
                "use std::env".to_string()
            } else if var_os {
                "std::env::var_os".to_string()
            } else {
                "std::env::var".to_string()
            };
            push(
                out,
                "env",
                t,
                snippet,
                "environment reads go through pq_obs::env::{var, var_os, var_parsed} — \
                 the funnel warns once on unparsable knobs and keeps every config \
                 surface greppable"
                    .into(),
            );
        }
    }
}

/// O: metric names passed to the registry/tracer must be
/// `crate.noun_verb`-style dotted lowercase.
fn rule_metric_name(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let is_sink = matches!(
            t.text.as_str(),
            "counter_add" | "observe" | "counter" | "gauge"
        );
        if !is_sink {
            continue;
        }
        // Pattern: `.sink("literal"` — only literal first arguments
        // are checkable; formatted names are exempt by construction.
        if i == 0 || toks[i - 1].text != "." {
            continue;
        }
        let Some(open) = toks.get(i + 1) else {
            continue;
        };
        let Some(arg) = toks.get(i + 2) else { continue };
        if open.text != "(" || arg.kind != TokKind::Str {
            continue;
        }
        let name = arg.text.trim_matches('"');
        if !metric_name_ok(name) {
            push(
                out,
                "metric-name",
                arg,
                arg.text.clone(),
                format!(
                    "metric name {name:?} violates the crate.noun_verb convention \
                     (lowercase dotted segments, at least two: e.g. \"web.pageloads\")"
                ),
            );
        }
    }
}

/// `seg(.seg)+` where each segment is `[a-z][a-z0-9_]*`.
fn metric_name_ok(name: &str) -> bool {
    let segs: Vec<&str> = name.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|s| {
            let mut chars = s.chars();
            chars.next().is_some_and(|c| c.is_ascii_lowercase())
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// A span frame name that survives collapsed-stack output: the
/// `;`-joined, space-separated folded format corrupts if a frame name
/// itself contains a space or `;` (and ` ` would split the count off).
fn folded_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_lowercase())
        && name.chars().all(|c| {
            c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '_' | ':' | '.' | '-')
        })
}

/// O: profiler naming. Two checks:
///
/// * literal frame names passed to `pq_prof::span(` must be
///   folded-safe (see [`folded_name_ok`]) — a space or `;`
///   silently corrupts every collapsed-stack line the frame appears in;
/// * any string literal starting with `prof.` is a profiler metric
///   name; stripped of a `{label="…"}` suffix it must pass the same
///   dotted-lowercase convention `metric-name` enforces on registry
///   sinks, so `prof.*` exposition stays greppable.
fn rule_prof_name(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test(t.line) {
            continue;
        }
        if t.kind == TokKind::Str {
            let name = t.text.trim_matches('"');
            let bare = name.split('{').next().unwrap_or(name);
            // pq-lint: allow(prof-name) -- the checker must name the prefix it checks
            if name.starts_with("prof.") && !metric_name_ok(bare) {
                push(
                    out,
                    "prof-name",
                    t,
                    t.text.clone(),
                    format!(
                        "prof metric name {bare:?} violates the crate.noun_verb convention \
                         (lowercase dotted segments, e.g. \"prof.alloc.total_bytes\")"
                    ),
                );
            }
            continue;
        }
        // `pq_prof::span("literal")` — formatted names (span_dyn
        // closures) are exempt by construction, same as metric-name.
        if !matches_at(toks, i, &["pq_prof", ":", ":", "span", "("]) {
            continue;
        }
        let Some(arg) = toks.get(i + 5) else { continue };
        if arg.kind != TokKind::Str {
            continue;
        }
        let name = arg.text.trim_matches('"');
        if !folded_name_ok(name) {
            push(
                out,
                "prof-name",
                arg,
                arg.text.clone(),
                format!(
                    "profiler frame name {name:?} is not collapsed-stack-safe \
                     (want lowercase start, then [a-z0-9_:.-]; spaces and ';' \
                     corrupt prof.folded lines)"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx_of<'a>(
        toks: &'a [Tok],
        path: &'a str,
        crate_name: Option<&'a str>,
        root: bool,
    ) -> FileContext<'a> {
        FileContext {
            rel_path: path,
            crate_name,
            is_test_file: false,
            test_from_line: first_cfg_test_line(toks),
            tokens: toks,
            is_crate_root: root,
        }
    }

    fn rules_hit(src: &str, path: &str, crate_name: Option<&str>) -> Vec<&'static str> {
        let (toks, _) = lex(src);
        let ctx = ctx_of(&toks, path, crate_name, false);
        check_file(&ctx).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hash_flagged_only_in_digest_crates() {
        let src = "use std::collections::HashMap; struct S { m: HashMap<u32, u32> }";
        assert_eq!(
            rules_hit(src, "crates/core/src/x.rs", Some("core")),
            ["hash", "hash"]
        );
        assert!(rules_hit(src, "crates/stats/src/x.rs", Some("stats")).is_empty());
    }

    #[test]
    fn cfg_test_region_is_exempt() {
        let src = "fn main() {}\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }";
        assert!(rules_hit(src, "crates/web/src/x.rs", Some("web")).is_empty());
    }

    #[test]
    fn time_allowlist() {
        let src = "let t = Instant::now();";
        assert_eq!(rules_hit(src, "crates/sim/src/x.rs", Some("sim")), ["time"]);
        assert!(rules_hit(src, "crates/obs/src/x.rs", Some("obs")).is_empty());
        assert!(rules_hit(src, "crates/bench/src/x.rs", Some("bench")).is_empty());
        // The profiler measures wall time by design.
        assert!(rules_hit(src, "crates/prof/src/x.rs", Some("prof")).is_empty());
    }

    #[test]
    fn rng_rule_spares_the_definition_files() {
        let src = "let r = SimRng::new(7);";
        assert_eq!(
            rules_hit(src, "crates/core/src/x.rs", Some("core")),
            ["rng"]
        );
        assert!(rules_hit(src, "crates/sim/src/rng.rs", Some("sim")).is_empty());
    }

    #[test]
    fn float_sum_requires_par_in_file() {
        let with_par = "fn f(v: &[f64]) -> f64 { pq_par::par_map(v, |x| *x); v.iter().sum() }";
        let without = "fn f(v: &[f64]) -> f64 { v.iter().sum() }";
        assert_eq!(
            rules_hit(with_par, "crates/core/src/x.rs", Some("core")),
            ["float-sum"]
        );
        assert!(rules_hit(without, "crates/core/src/x.rs", Some("core")).is_empty());
    }

    #[test]
    fn panic_family() {
        let src =
            "fn f(x: Option<u32>) -> u32 { let _ = x.unwrap(); x.expect(\"m\"); panic!(\"no\") }";
        assert_eq!(
            rules_hit(src, "crates/transport/src/x.rs", Some("transport")),
            ["panic", "panic", "panic"]
        );
        // unwrap_or is fine; field named unwrap is fine.
        let ok = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }";
        assert!(rules_hit(ok, "crates/transport/src/x.rs", Some("transport")).is_empty());
    }

    #[test]
    fn index_adjacency() {
        let hits = rules_hit(
            "fn f(v: &[u32], i: usize) -> u32 { v[i] }",
            "crates/web/src/x.rs",
            Some("web"),
        );
        assert_eq!(hits, ["index"]);
        // Types, attributes and array literals are not indexing.
        let ok = "#[derive(Debug)] struct S { a: [u8; 4] } fn g() -> Vec<u8> { vec![0; 4] }";
        assert!(rules_hit(ok, "crates/web/src/x.rs", Some("web")).is_empty());
    }

    #[test]
    fn unsafe_rule_on_crate_roots_only() {
        let (toks, _) = lex("pub mod x;");
        let ctx = ctx_of(&toks, "crates/sim/src/lib.rs", Some("sim"), true);
        assert_eq!(check_file(&ctx).len(), 1);
        let (toks2, _) = lex("#![forbid(unsafe_code)] pub mod x;");
        let ctx2 = ctx_of(&toks2, "crates/sim/src/lib.rs", Some("sim"), true);
        assert!(check_file(&ctx2).is_empty());
    }

    #[test]
    fn results_io_needs_both_a_results_path_and_a_raw_writer() {
        // A raw writer next to a results/ path literal: flagged.
        let bad = "fn w() { std::fs::write(\"results/manifest.json\", b\"x\").unwrap(); }";
        assert!(rules_hit(bad, "crates/bench/src/x.rs", Some("bench")).contains(&"results-io"));
        let bad2 = "fn w() { let f = File::create(\"results/a.json\"); }";
        assert!(rules_hit(bad2, "crates/bench/src/x.rs", Some("bench")).contains(&"results-io"));
        let bad3 = "fn w() { OpenOptions::new().append(true).open(\"results/h.jsonl\").unwrap(); }";
        assert!(rules_hit(bad3, "crates/bench/src/x.rs", Some("bench")).contains(&"results-io"));
        // A raw writer with no results/ involvement: someone else's
        // business.
        let ok = "fn w() { std::fs::write(\"notes.txt\", b\"x\").unwrap(); }";
        assert!(!rules_hit(ok, "crates/lint/src/x.rs", Some("lint")).contains(&"results-io"));
        // A results/ path going through the sanctioned API: fine.
        let ok2 = "fn w() { pq_ckpt::atomic_write(\"results/manifest.json\", b\"x\").unwrap(); }";
        assert!(!rules_hit(ok2, "crates/bench/src/x.rs", Some("bench")).contains(&"results-io"));
        // pq-ckpt itself implements the sanctioned writers.
        let imp = "fn w(p: &Path) { let f = File::create(p); } const D: &str = \"results/\";";
        assert!(
            !rules_hit(imp, "crates/ckpt/src/atomicio.rs", Some("ckpt")).contains(&"results-io")
        );
        // Test code is exempt.
        let test_only = "fn main() {}\n#[cfg(test)]\nmod tests { fn w() { \
                         std::fs::write(\"results/x\", b\"x\").unwrap(); } }";
        assert!(
            !rules_hit(test_only, "crates/bench/src/x.rs", Some("bench")).contains(&"results-io")
        );
    }

    #[test]
    fn env_rule_catches_raw_reads_and_imports() {
        assert_eq!(
            rules_hit(
                "let v = std::env::var(\"X\");",
                "crates/par/src/lib.rs",
                Some("par")
            ),
            ["env"]
        );
        assert_eq!(
            rules_hit("use std::env;", "crates/par/src/lib.rs", Some("par")),
            ["env"]
        );
        // The funnel itself is exempt, as are funnel calls.
        assert!(rules_hit(
            "let v = std::env::var(\"X\");",
            ENV_FUNNEL_FILE,
            Some("obs")
        )
        .is_empty());
        assert!(rules_hit(
            "let v = pq_obs::env::var(\"X\");",
            "crates/par/src/lib.rs",
            Some("par")
        )
        .is_empty());
    }

    #[test]
    fn metric_names_must_be_dotted_lowercase() {
        let bad = "reg.counter_add(\"Pageloads\", 1); reg.observe(\"plt\", 1.0);";
        assert_eq!(
            rules_hit(bad, "crates/stats/src/x.rs", Some("stats")),
            ["metric-name", "metric-name"]
        );
        let good = "reg.counter_add(\"web.pageloads\", 1); reg.observe(\"web.plt_ms\", 1.0);";
        assert!(rules_hit(good, "crates/stats/src/x.rs", Some("stats")).is_empty());
    }

    #[test]
    fn prof_frame_names_must_be_folded_safe() {
        let bad = "let _s = pq_prof::span(\"RTO retransmit\"); pq_prof::span(\"has;semi\");";
        assert_eq!(
            rules_hit(bad, "crates/transport/src/x.rs", Some("transport")),
            ["prof-name", "prof-name"]
        );
        let good =
            "let _s = pq_prof::span(\"transport:rto-retransmit\"); pq_prof::span(\"par:run\");";
        assert!(rules_hit(good, "crates/transport/src/x.rs", Some("transport")).is_empty());
        // Formatted names (span_dyn closures) are exempt by construction.
        let dy = "let _s = pq_prof::span_dyn(|| format!(\"link:{label}\"));";
        assert!(rules_hit(dy, "crates/sim/src/x.rs", Some("sim")).is_empty());
    }

    #[test]
    fn prof_metric_literals_follow_the_dotted_convention() {
        // Formatted registry names escape metric-name; prof-name still
        // checks the underlying literal before its `{label=...}` part.
        let bad = "reg.counter_add(&format!(\"prof.allocBytes{{w=\\\"{w}\\\"}}\"), 1);";
        assert_eq!(
            rules_hit(bad, "crates/obs/src/x.rs", Some("obs")),
            ["prof-name"]
        );
        let good = "reg.counter_add(\"prof.alloc.peak_bytes\", 1); \
                    reg.counter_add(&format!(\"prof.span.count{{path=\\\"{p}\\\"}}\"), 1);";
        assert!(rules_hit(good, "crates/obs/src/x.rs", Some("obs")).is_empty());
    }

    #[test]
    fn registry_is_consistent() {
        for r in RULES {
            assert!(rule(r.name).is_some());
            assert!(!r.what.is_empty());
        }
    }
}
