//! The lint engine: workspace walk → lex → token rules →
//! suppressions. One pass, one file at a time, no cross-file state.
//!
//! ## Suppressions
//!
//! A finding is suppressed by a comment on the same line or the line
//! directly above it:
//!
//! ```text
//! // pq-lint: allow(panic) -- tail index bounded by the loop above
//! let last = spans[spans.len() - 1];
//! ```
//!
//! The `-- <reason>` is **mandatory**: a reasonless (or unknown-rule)
//! suppression does not suppress anything and is itself reported under
//! the `suppression` rule. So is a suppression in non-test code that
//! matches no finding: an excuse whose offence is gone must be
//! deleted, so every remaining allow is live.
//!
//! There is no grandfathering: a finding is fixed or suppressed with
//! its reason, and the suppression count is capped in
//! `tests/workspace_clean.rs`.

use crate::lexer::{lex, Comment};
use crate::rules::{check_file, first_cfg_test_line, rule, FileContext, Finding};
use std::path::{Path, PathBuf};

/// A finding bound to its file.
#[derive(Clone, Debug)]
pub struct FileFinding {
    /// Workspace-relative path (`/` separators).
    pub path: String,
    /// The finding itself.
    pub finding: Finding,
}

impl FileFinding {
    /// `path:line:col: family[rule] message (snippet)` — one line per
    /// finding, clickable in editors and CI logs.
    pub fn render(&self) -> String {
        let fam = rule(self.finding.rule)
            .map(|r| r.family)
            .unwrap_or(crate::rules::Family::L);
        format!(
            "{}:{}:{}: {:?}[{}] {} [span: {}]",
            self.path,
            self.finding.line,
            self.finding.col,
            fam,
            self.finding.rule,
            self.finding.message,
            self.finding.snippet
        )
    }
}

/// Outcome of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, in file then line order.
    pub findings: Vec<FileFinding>,
    /// Suppressed findings (valid inline allows).
    pub suppressed: usize,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    /// Gate verdict: clean means no unsuppressed finding.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// One parsed suppression directive.
struct Suppression {
    rules: Vec<String>,
    has_reason: bool,
    line: u32,
    end_line: u32,
    col: u32,
    used: bool,
}

/// A `suppression` (family L) finding about a directive itself.
fn hygiene(line: u32, col: u32, snippet: String, message: String) -> Finding {
    Finding {
        rule: "suppression",
        line,
        col,
        snippet,
        message,
    }
}

/// Parse `allow(panic, index) -- reason` suppressions out of the
/// comments. Malformed directives come back as `suppression`
/// findings.
fn parse_suppressions(comments: &[Comment]) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut malformed = Vec::new();
    for c in comments {
        // Doc comments describe directives (this crate's own docs quote
        // them); only plain comments issue them.
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(at) = c.text.find("pq-lint:") else {
            continue;
        };
        let rest = c.text[at + "pq-lint:".len()..].trim_start();
        let parsed = rest.strip_prefix("allow(").and_then(|list| {
            let close = list.find(')')?;
            let rules: Vec<String> = list[..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            (!rules.is_empty()).then(|| (rules, list[close + 1..].trim_start()))
        });
        let Some((rules, tail)) = parsed else {
            // An unparsable directive is itself a lint error.
            malformed.push(hygiene(
                c.line,
                c.col,
                "pq-lint:".into(),
                "malformed suppression; expected \
                 `// pq-lint: allow(<rule>[, <rule>…]) -- <reason>`"
                    .into(),
            ));
            continue;
        };
        sups.push(Suppression {
            rules,
            has_reason: tail
                .strip_prefix("--")
                .is_some_and(|r| !r.trim().is_empty()),
            line: c.line,
            end_line: c.end_line,
            col: c.col,
            used: false,
        });
    }
    (sups, malformed)
}

/// Lint one file's source text: token rules, then suppressions, then
/// suppression hygiene. Returns unsuppressed findings plus the number
/// suppressed.
pub fn lint_source(rel_path: &str, src: &str) -> (Vec<Finding>, usize) {
    let (tokens, comments) = lex(src);
    let ctx = FileContext {
        rel_path,
        crate_name: crate_of(rel_path),
        is_test_file: is_test_path(rel_path),
        test_from_line: first_cfg_test_line(&tokens),
        tokens: &tokens,
        is_crate_root: is_crate_root(rel_path),
    };
    let (mut sups, mut findings) = parse_suppressions(&comments);
    let mut suppressed = 0usize;
    for f in check_file(&ctx) {
        let hit = sups.iter_mut().find(|s| {
            (f.line == s.line || f.line == s.end_line + 1)
                && s.has_reason
                && s.rules.iter().any(|r| r == f.rule || r == "all")
        });
        match hit {
            Some(s) => {
                s.used = true;
                suppressed += 1;
            }
            None => findings.push(f),
        }
    }
    // Hygiene: a missing reason, an unknown rule name, or an allow
    // that suppressed nothing. Test code is exempt from the rules, so an allow there has
    // nothing to match and is left alone.
    for s in &sups {
        let unknown: Vec<&str> = s
            .rules
            .iter()
            .filter(|r| r.as_str() != "all" && rule(r).is_none())
            .map(String::as_str)
            .collect();
        let snippet = format!("allow({})", s.rules.join(", "));
        if !s.has_reason {
            findings.push(hygiene(
                s.line,
                s.col,
                snippet,
                "suppression lacks the mandatory `-- <reason>`; say why the \
                 invariant holds"
                    .into(),
            ));
        } else if !unknown.is_empty() {
            findings.push(hygiene(
                s.line,
                s.col,
                format!("allow({})", unknown.join(", ")),
                format!(
                    "unknown rule name(s) {}; see --rules for the registry",
                    unknown.join(", ")
                ),
            ));
        } else if !s.used && !ctx.in_test(s.line) {
            findings.push(hygiene(
                s.line,
                s.col,
                snippet,
                "suppression matches no finding on its line or the next; the code it \
                 excused is gone or was never flagged — delete the comment"
                    .into(),
            ));
        }
    }
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    (findings, suppressed)
}

/// `crates/<name>/…` → `Some(name)`.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Whole-file test/bench/example context, by path.
fn is_test_path(rel: &str) -> bool {
    let file = rel.rsplit('/').next().unwrap_or(rel);
    rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/benches/")
        || rel.starts_with("benches/")
        || rel.contains("/examples/")
        || rel.starts_with("examples/")
        || file.ends_with("_tests.rs")
        || file == "testutil.rs"
}

/// Crate roots where `#![forbid(unsafe_code)]` is required.
fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs") || {
        // Binary roots: crates/<c>/src/bin/<b>.rs and
        // src/bin/<b>/main.rs, whose sibling files are its modules.
        rel.split_once("/src/bin/")
            .is_some_and(|(_, bin)| bin.ends_with("/main.rs") || !bin.contains('/'))
    }
}

/// Collect the workspace's `.rs` files under `root`, sorted, as
/// workspace-relative `/`-separated paths.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            // Build artefacts, VCS metadata, committed results and the
            // lint fixture corpus (deliberately violation-laden) are
            // not workspace source.
            if matches!(name.as_str(), "target" | ".git" | ".github" | "results") {
                continue;
            }
            let rel = rel_str(root, &path);
            if rel == "crates/lint/tests/fixtures" {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
pub fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint the whole workspace under `root`.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let files = workspace_files(root)?;
    let mut report = Report {
        files: files.len(),
        ..Report::default()
    };
    for path in &files {
        let rel = rel_str(root, path);
        let (findings, suppressed) = lint_source(&rel, &std::fs::read_to_string(path)?);
        report.suppressed += suppressed;
        report
            .findings
            .extend(findings.into_iter().map(|finding| FileFinding {
                path: rel.clone(),
                finding,
            }));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_same_line_and_line_above() {
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // pq-lint: allow(panic) -- x checked by caller
    let a = x.unwrap();
    let b = x.unwrap(); // pq-lint: allow(panic) -- ditto
    a + b
}
";
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(suppressed, 2);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn reason_is_mandatory() {
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // pq-lint: allow(panic)
    x.unwrap()
}
";
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(suppressed, 0);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"panic"), "finding not suppressed");
        assert!(rules.contains(&"suppression"), "directive itself flagged");
    }

    #[test]
    fn unknown_rule_names_are_flagged() {
        let src = "// pq-lint: allow(made-up) -- why\nfn f() {}\n";
        let (findings, _) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "suppression");
    }

    #[test]
    fn multi_rule_allow() {
        let src = "\
fn f(v: &[u32]) -> u32 {
    // pq-lint: allow(panic, index) -- v non-empty by contract
    v[0] + v.first().unwrap()
}
";
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(suppressed, 2);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn stale_suppressions_fire_outside_test_code() {
        // Used: quiet. Unused in non-test code: a `suppression`
        // finding. Unused below `#[cfg(test)]` or in a test file: the
        // rules skip test code, so there is nothing it could match.
        // A doc comment quoting a directive is not a directive.
        let src = "\
/// Callers write `// pq-lint: allow(panic) -- why` above the call.
fn f(x: Option<u32>) -> u32 {
    // pq-lint: allow(panic) -- x checked by caller
    let a = x.unwrap();
    // pq-lint: allow(panic) -- nothing panics here any more
    a + x.unwrap_or(0)
}
#[cfg(test)]
mod tests {
    // pq-lint: allow(rng) -- test-local seed
    fn g() {}
}
";
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(suppressed, 1);
        let stale: Vec<(&str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(stale, [("suppression", 5)], "{findings:?}");
        let (in_test_file, _) = lint_source("crates/core/tests/x.rs", src);
        assert!(in_test_file.is_empty(), "{in_test_file:?}");
    }

    #[test]
    fn crate_and_test_classification() {
        assert_eq!(crate_of("crates/sim/src/link.rs"), Some("sim"));
        assert_eq!(crate_of("src/lib.rs"), None);
        assert!(is_test_path("crates/sim/tests/proptests.rs"));
        assert!(is_test_path("tests/end_to_end.rs"));
        assert!(is_test_path("examples/quickstart.rs"));
        assert!(is_test_path("crates/web/src/browser_tests.rs"));
        assert!(is_test_path("crates/transport/src/testutil.rs"));
        assert!(!is_test_path("crates/web/src/browser.rs"));
        assert!(is_crate_root("crates/lint/src/bin/tool.rs"));
        assert!(is_crate_root("crates/bench/src/bin/pq/main.rs"));
        assert!(!is_crate_root("crates/bench/src/bin/pq/runall.rs"));
        assert!(is_crate_root("src/lib.rs"));
        assert!(!is_crate_root("crates/web/src/browser.rs"));
    }
}
