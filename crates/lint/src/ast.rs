//! A lightweight recursive-descent structural parser over the
//! [`crate::lexer`] token stream.
//!
//! This is deliberately **not** a full Rust grammar: the semantic rule
//! families (H hot-path, D2 determinism-dataflow, A API-hygiene) need
//! exactly five structural facts per file — where functions begin and
//! end (and which `impl` they belong to), where loops nest, where
//! calls and allocation-shaped expressions sit inside them, what a
//! function's return type mentions, and which constant string sets /
//! type aliases the file declares. Everything else (expressions,
//! patterns, generics) is skipped by token-bracket matching, so the
//! parser is total: any input produces *some* AST, and a half-edited
//! file still lints.
//!
//! The design mirrors the lexer's: cheap structural regularities over
//! type information, with the committed baseline absorbing the grey
//! zone.

use crate::lexer::{Tok, TokKind};

/// Method/function names that allocate on the heap. A call site with
/// one of these names inside a hot loop is the H-family's prime
/// target: per-event transient heap traffic.
pub const ALLOC_METHODS: &[&str] = &["clone", "to_string", "to_owned", "to_vec", "collect"];

/// `Type::ctor` pairs that allocate.
pub const ALLOC_CTORS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
    ("Box", "new"),
];

/// Macros that allocate.
pub const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Method names too common to draw conservative call-graph edges from
/// an unqualified `.name(…)` call — they would connect every container
/// in the workspace to every other. Workspace functions with these
/// names participate in the graph only through qualified
/// (`Type::name`) calls or a direct `hot-root` annotation.
pub const COMMON_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_mut",
    "as_ref",
    "as_str",
    "binary_search",
    "borrow",
    "borrow_mut",
    "ceil",
    "chain",
    "chunks",
    "clear",
    "clone",
    "clone_from",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "drain",
    "ends_with",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "filter",
    "find",
    "first",
    "flat_map",
    "floor",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "ne",
    "new",
    "next",
    "ok",
    "parse",
    "partial_cmp",
    "pop",
    "pop_front",
    "position",
    "push",
    "push_back",
    "read",
    "remove",
    "replace",
    "retain",
    "rev",
    "round",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "starts_with",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "windows",
    "write",
    "zip",
];

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// `Foo` in `Foo::name(…)` — the token two places left of the
    /// name across a `::`.
    pub qualifier: Option<String>,
    /// `.name(…)` receiver-method form.
    pub method: bool,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Number of enclosing loops *within the enclosing function*.
    pub loop_depth: u32,
}

/// One allocation-shaped expression inside a function body.
#[derive(Clone, Debug)]
pub struct AllocSite {
    /// Human-readable shape: `".clone()"`, `"Vec::new"`, `"format!"`.
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Number of enclosing loops within the enclosing function.
    pub loop_depth: u32,
}

/// One `.sum()` accumulation site.
#[derive(Clone, Debug)]
pub struct SumSite {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Turbofish element type when written (`.sum::<u64>()` → `u64`).
    pub turbofish: Option<String>,
}

/// One function definition (free or inside an `impl`).
#[derive(Clone, Debug, Default)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` block's type name, when any.
    pub impl_type: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Line of the body's closing brace.
    pub end_line: u32,
    /// Whether a `hot-root` directive comment names this fn.
    pub hot_root: bool,
    /// Folded-profile frame hint from `hot-root(<frame>)`, if given.
    pub root_frame: Option<String>,
    /// Return-type tokens (joined), empty for `()`.
    pub ret: String,
    /// Call expressions in the body.
    pub calls: Vec<CallSite>,
    /// Allocation-shaped expressions in the body.
    pub allocs: Vec<AllocSite>,
    /// `.sum()` sites in the body.
    pub sums: Vec<SumSite>,
    /// Literal frame names passed to `pq_prof::{span,tick,span_dyn,
    /// worker_span}` in the body (format literals keep their prefix
    /// before `{`), used to map findings onto measured profiles.
    pub span_literals: Vec<String>,
    /// Body fans out over `pq_par` (`par_map`/`try_par_map`).
    pub has_par_call: bool,
    has_body: bool,
}

/// A type alias or `use … as` rename.
#[derive(Clone, Debug)]
pub struct AliasDef {
    /// The introduced name.
    pub name: String,
    /// The aliased tokens mention `HashMap`/`HashSet`.
    pub aliases_hash: bool,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// A `const NAME: … = &[ "…", … ];` string-set declaration — how the
/// A-family reads its registries (`KNOWN_VARS`, `METRIC_NAMES`,
/// `SPAN_NAMES`) straight out of the source being linted.
#[derive(Clone, Debug)]
pub struct ConstStrSet {
    /// Constant name.
    pub name: String,
    /// The string literals, unquoted.
    pub values: Vec<String>,
}

/// Everything the semantic rules need to know about one file.
#[derive(Clone, Debug, Default)]
pub struct FileAst {
    /// Function definitions with bodies, in source order.
    pub fns: Vec<FnDef>,
    /// Type aliases / use-renames.
    pub aliases: Vec<AliasDef>,
    /// Constant string-set declarations.
    pub const_sets: Vec<ConstStrSet>,
}

/// A `hot-root` annotation parsed from the comments by the engine:
/// `(line, optional profile-frame hint)`.
#[derive(Clone, Debug)]
pub struct HotRootAnn {
    /// 1-based line the annotation comment sits on.
    pub line: u32,
    /// `hot-root(<frame>)` hint, when given.
    pub frame: Option<String>,
}

/// What a `{` opens.
#[derive(Clone, Debug)]
enum ScopeKind {
    Plain,
    Loop,
    Fn(usize),
    Impl(Option<String>),
}

/// Pending item announced by a keyword, resolved at the next `{` (or
/// dropped at `;`).
#[derive(Clone, Debug)]
enum Pending {
    Loop,
    Fn(usize),
    Impl(Option<String>),
}

fn is_stmt_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "fn"
            | "let"
            | "mut"
            | "move"
            | "in"
            | "as"
            | "ref"
            | "use"
            | "mod"
            | "pub"
            | "where"
            | "impl"
            | "dyn"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "unsafe"
            | "await"
    )
}

/// Skip an optional `::<…>` turbofish starting at `i`; returns the
/// index after it (and the joined contents) or `(i, None)`.
pub(crate) fn skip_turbofish(toks: &[Tok], i: usize) -> (usize, Option<String>) {
    if i + 2 < toks.len()
        && toks[i].text == ":"
        && toks[i + 1].text == ":"
        && toks[i + 2].text == "<"
    {
        let mut depth = 0usize;
        let mut j = i + 2;
        let mut body = String::new();
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return (j + 1, Some(body));
                    }
                }
                t => {
                    body.push_str(t);
                }
            }
            j += 1;
        }
        (j, Some(body))
    } else {
        (i, None)
    }
}

/// Parse one file's token stream into a [`FileAst`]. `hot_roots` are
/// the annotation lines the engine extracted from comments; each
/// attaches to the first `fn` within the three lines below it
/// (attributes and doc lines in between are fine).
pub fn parse(toks: &[Tok], hot_roots: &[HotRootAnn]) -> FileAst {
    let mut ast = FileAst::default();
    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut pending: Option<Pending> = None;
    // Return-type capture while a fn signature is pending.
    let mut in_ret = false;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" if t.kind == TokKind::Punct => {
                let kind = match pending.take() {
                    Some(Pending::Loop) => ScopeKind::Loop,
                    Some(Pending::Fn(fi)) => {
                        ast.fns[fi].has_body = true;
                        ScopeKind::Fn(fi)
                    }
                    Some(Pending::Impl(ty)) => ScopeKind::Impl(ty),
                    None => ScopeKind::Plain,
                };
                in_ret = false;
                scopes.push(kind);
                i += 1;
                continue;
            }
            "}" if t.kind == TokKind::Punct => {
                if let Some(ScopeKind::Fn(fi)) = scopes.pop() {
                    ast.fns[fi].end_line = t.line;
                }
                i += 1;
                continue;
            }
            ";" if t.kind == TokKind::Punct => {
                // A bodyless fn decl (trait method) or a dropped
                // pending loop-in-type-position.
                pending = None;
                in_ret = false;
                i += 1;
                continue;
            }
            _ => {}
        }

        // Return-type capture between `->` and the body `{`.
        if matches!(pending, Some(Pending::Fn(_))) {
            if t.text == "-" && toks.get(i + 1).is_some_and(|n| n.text == ">") {
                in_ret = true;
                i += 2;
                continue;
            }
            if in_ret {
                if let Some(Pending::Fn(fi)) = &pending {
                    if t.kind == TokKind::Ident {
                        if !ast.fns[*fi].ret.is_empty() {
                            ast.fns[*fi].ret.push(' ');
                        }
                        ast.fns[*fi].ret.push_str(&t.text);
                    }
                }
            }
        }

        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }

        match t.text.as_str() {
            "impl" if pending.is_none() => {
                pending = Some(Pending::Impl(impl_type_name(toks, i + 1)));
                i += 1;
                continue;
            }
            "fn" => {
                if let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    let impl_type = scopes.iter().rev().find_map(|s| match s {
                        ScopeKind::Impl(ty) => Some(ty.clone()),
                        _ => None,
                    });
                    ast.fns.push(FnDef {
                        name: name_tok.text.clone(),
                        impl_type: impl_type.flatten(),
                        line: t.line,
                        end_line: t.line,
                        ..FnDef::default()
                    });
                    pending = Some(Pending::Fn(ast.fns.len() - 1));
                    i += 2;
                    continue;
                }
            }
            "for" | "while" | "loop" if pending.is_none() => {
                pending = Some(Pending::Loop);
                i += 1;
                continue;
            }
            "type" if pending.is_none() => {
                if let Some((alias, skip)) = parse_type_alias(toks, i) {
                    ast.aliases.push(alias);
                    i += skip;
                    continue;
                }
            }
            "use" if pending.is_none() => {
                let (renames, skip) = parse_use_renames(toks, i);
                ast.aliases.extend(renames);
                i += skip;
                continue;
            }
            "const" if pending.is_none() => {
                if let Some((set, skip)) = parse_const_str_set(toks, i) {
                    ast.const_sets.push(set);
                    i += skip;
                    continue;
                }
            }
            _ => {}
        }

        // Body-level facts: only inside a function, never while a
        // signature or impl header is still pending.
        let fn_idx = scopes.iter().rev().find_map(|s| match s {
            ScopeKind::Fn(fi) => Some(*fi),
            _ => None,
        });
        let in_sig = matches!(pending, Some(Pending::Fn(_) | Pending::Impl(_)));
        if let (Some(fi), false) = (fn_idx, in_sig) {
            let loop_depth = loop_depth_of(&scopes);
            scan_body_token(toks, i, &mut ast.fns[fi], loop_depth);
        }
        i += 1;
    }
    ast.fns.retain(|f| f.has_body);
    // Attach hot-root annotations: each binds to the *first* fn
    // within the three lines below it (attributes in between are
    // fine), never to later siblings.
    for ann in hot_roots {
        if let Some(f) = ast
            .fns
            .iter_mut()
            .filter(|f| f.line > ann.line && f.line <= ann.line + 3)
            .min_by_key(|f| f.line)
        {
            f.hot_root = true;
            if f.root_frame.is_none() {
                f.root_frame = ann.frame.clone();
            }
        }
    }
    ast
}

/// Loops enclosing the current position, counted down to (not past)
/// the innermost function scope.
fn loop_depth_of(scopes: &[ScopeKind]) -> u32 {
    let mut depth = 0u32;
    for s in scopes.iter().rev() {
        match s {
            ScopeKind::Loop => depth += 1,
            ScopeKind::Fn(_) => break,
            _ => {}
        }
    }
    depth
}

/// The type name an `impl` header introduces: `impl Foo`,
/// `impl<T> Foo<T>`, `impl Trait for Foo`.
fn impl_type_name(toks: &[Tok], mut i: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut first_ident: Option<String> = None;
    let mut after_for = false;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" | ";" if angle == 0 => break,
            "<" => angle += 1,
            ">" => angle -= 1,
            "for" if angle == 0 => {
                after_for = true;
                first_ident = None;
            }
            _ => {
                if t.kind == TokKind::Ident && angle == 0 && first_ident.is_none() {
                    first_ident = Some(t.text.clone());
                    if after_for {
                        return first_ident;
                    }
                }
            }
        }
        i += 1;
    }
    first_ident
}

/// `type X = …;` — returns the alias and the token count to skip.
fn parse_type_alias(toks: &[Tok], i: usize) -> Option<(AliasDef, usize)> {
    let name_tok = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident)?;
    // Associated-type bounds (`type Item;`) have no `=` before `;`.
    let mut j = i + 2;
    let mut saw_eq = false;
    let mut hash = false;
    while j < toks.len() && toks[j].text != ";" {
        match toks[j].text.as_str() {
            "=" => saw_eq = true,
            "HashMap" | "HashSet" => hash = true,
            _ => {}
        }
        j += 1;
    }
    saw_eq.then(|| {
        (
            AliasDef {
                name: name_tok.text.clone(),
                aliases_hash: hash,
                line: name_tok.line,
            },
            j - i,
        )
    })
}

/// `use …::HashMap as X, …;` — every `as`-rename in the use tree.
fn parse_use_renames(toks: &[Tok], i: usize) -> (Vec<AliasDef>, usize) {
    let mut out = Vec::new();
    let mut j = i + 1;
    while j < toks.len() && toks[j].text != ";" {
        if toks[j].text == "as" && toks[j].kind == TokKind::Ident {
            let renamed_from = toks.get(j.wrapping_sub(1));
            if let Some(name_tok) = toks.get(j + 1).filter(|n| n.kind == TokKind::Ident) {
                out.push(AliasDef {
                    name: name_tok.text.clone(),
                    aliases_hash: renamed_from
                        .is_some_and(|p| p.text == "HashMap" || p.text == "HashSet"),
                    line: name_tok.line,
                });
            }
        }
        j += 1;
    }
    (out, j - i)
}

/// `const NAME: … = &[ "…", … ];` — a declared string set.
fn parse_const_str_set(toks: &[Tok], i: usize) -> Option<(ConstStrSet, usize)> {
    let name_tok = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident)?;
    let mut j = i + 2;
    let mut values = Vec::new();
    let mut saw_bracket = false;
    while j < toks.len() && toks[j].text != ";" {
        match toks[j].kind {
            TokKind::Punct if toks[j].text == "[" => saw_bracket = true,
            TokKind::Str if saw_bracket => {
                values.push(toks[j].text.trim_matches('"').to_string());
            }
            _ => {}
        }
        j += 1;
    }
    (saw_bracket && !values.is_empty()).then(|| {
        (
            ConstStrSet {
                name: name_tok.text.clone(),
                values,
            },
            j - i,
        )
    })
}

/// Record call/alloc/sum/span facts for the identifier at `i`.
fn scan_body_token(toks: &[Tok], i: usize, f: &mut FnDef, loop_depth: u32) {
    let t = &toks[i];

    // pq_prof span/tick literals (profile mapping).
    if t.text == "pq_prof"
        && toks.get(i + 1).is_some_and(|n| n.text == ":")
        && toks.get(i + 2).is_some_and(|n| n.text == ":")
        && toks.get(i + 3).is_some_and(|c| {
            matches!(
                c.text.as_str(),
                "span" | "tick" | "span_dyn" | "worker_span"
            )
        })
        && toks.get(i + 4).is_some_and(|n| n.text == "(")
    {
        // First string literal within the next few tokens (direct
        // literal, or the format!/closure literal of the dyn variants).
        if let Some(s) = toks[i + 5..toks.len().min(i + 13)]
            .iter()
            .find(|x| x.kind == TokKind::Str)
        {
            let lit = s.text.trim_matches('"');
            let prefix = lit.split('{').next().unwrap_or(lit);
            if !prefix.is_empty() {
                f.span_literals.push(prefix.to_string());
            }
        }
    }

    if is_stmt_keyword(&t.text) {
        return;
    }

    let prev = i.checked_sub(1).map(|p| &toks[p]);
    let is_method = prev.is_some_and(|p| p.text == ".");
    let qualifier = (i >= 3
        && toks[i - 1].text == ":"
        && toks[i - 2].text == ":"
        && toks[i - 3].kind == TokKind::Ident)
        .then(|| toks[i - 3].text.clone())
        // `Self::helper(…)` resolves against the enclosing impl type.
        .map(|q| match (q.as_str(), &f.impl_type) {
            ("Self", Some(ty)) => ty.clone(),
            _ => q,
        });

    // Macro calls: `format!(…)` / `vec![…]` allocate.
    if toks.get(i + 1).is_some_and(|n| n.text == "!") && ALLOC_MACROS.contains(&t.text.as_str()) {
        f.allocs.push(AllocSite {
            what: format!("{}!", t.text),
            line: t.line,
            col: t.col,
            loop_depth,
        });
        return;
    }

    // Callable position: name(…) possibly through a turbofish.
    let (after_tf, turbofish) = skip_turbofish(toks, i + 1);
    let is_call = toks.get(after_tf).is_some_and(|n| n.text == "(");
    if !is_call {
        return;
    }

    // `.sum()` — order-sensitivity candidate unless the turbofish
    // pins an integer element type (integer addition commutes).
    if is_method && t.text == "sum" {
        let int_tf = turbofish.as_deref().is_some_and(|tf| {
            matches!(
                tf,
                "u8" | "u16"
                    | "u32"
                    | "u64"
                    | "u128"
                    | "usize"
                    | "i8"
                    | "i16"
                    | "i32"
                    | "i64"
                    | "i128"
                    | "isize"
            )
        });
        if !int_tf {
            f.sums.push(SumSite {
                line: t.line,
                col: t.col,
                turbofish,
            });
        }
        return;
    }

    // Allocation shapes.
    if is_method && ALLOC_METHODS.contains(&t.text.as_str()) {
        f.allocs.push(AllocSite {
            what: format!(".{}()", t.text),
            line: t.line,
            col: t.col,
            loop_depth,
        });
        return;
    }
    if let Some(q) = &qualifier {
        if ALLOC_CTORS
            .iter()
            .any(|(ty, ctor)| q == ty && t.text == *ctor)
        {
            f.allocs.push(AllocSite {
                what: format!("{q}::{}", t.text),
                line: t.line,
                col: t.col,
                loop_depth,
            });
            return;
        }
    }

    if matches!(t.text.as_str(), "par_map" | "try_par_map") {
        f.has_par_call = true;
    }

    // Call-graph edge candidates: skip bare uppercase constructors
    // (`Some(…)`, `ObjectId(…)`) — qualified calls keep their
    // qualifier for precise resolution.
    let upper_start = t
        .text
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_uppercase());
    if upper_start && qualifier.is_none() {
        return;
    }
    f.calls.push(CallSite {
        name: t.text.clone(),
        qualifier,
        method: is_method,
        line: t.line,
        col: t.col,
        loop_depth,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> FileAst {
        let (toks, _) = lex(src);
        parse(&toks, &[])
    }

    #[test]
    fn fns_and_impls() {
        let ast = parse_src(
            "impl<E> Queue<E> { fn pop(&mut self) -> Option<E> { None } }\n\
             fn free() {}\n\
             impl Trait for Link { fn push(&mut self) {} }",
        );
        let names: Vec<(String, Option<String>)> = ast
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(
            names,
            [
                ("pop".to_string(), Some("Queue".to_string())),
                ("free".to_string(), None),
                ("push".to_string(), Some("Link".to_string())),
            ]
        );
        assert_eq!(ast.fns[0].ret, "Option E");
    }

    #[test]
    fn loops_nest_and_reset_per_fn() {
        let ast = parse_src(
            "fn f(v: &[u32]) { for x in v { while *x > 0 { g(*x); } } h(); }\n\
             fn g(x: u32) { let s = x.to_string(); }",
        );
        let f = &ast.fns[0];
        let g_call = f.calls.iter().find(|c| c.name == "g").expect("g call");
        assert_eq!(g_call.loop_depth, 2);
        let h_call = f.calls.iter().find(|c| c.name == "h").expect("h call");
        assert_eq!(h_call.loop_depth, 0);
        let g = &ast.fns[1];
        assert_eq!(g.allocs.len(), 1);
        assert_eq!(g.allocs[0].loop_depth, 0);
    }

    #[test]
    fn alloc_shapes() {
        let ast = parse_src(
            "fn f() { let v = Vec::new(); let s = format!(\"x{}\", 1); \
             let t = v.clone(); let u: Vec<u32> = t.iter().collect(); \
             let b = Box::new(3); let w = vec![0; 4]; }",
        );
        let whats: Vec<&str> = ast.fns[0].allocs.iter().map(|a| a.what.as_str()).collect();
        assert_eq!(
            whats,
            [
                "Vec::new",
                "format!",
                ".clone()",
                ".collect()",
                "Box::new",
                "vec!"
            ]
        );
    }

    #[test]
    fn integer_turbofish_sums_are_exempt() {
        let ast = parse_src(
            "fn f(v: &[f64], u: &[u64]) -> f64 { \
             let a: u64 = u.iter().sum::<u64>(); \
             v.iter().sum() }",
        );
        assert_eq!(ast.fns[0].sums.len(), 1, "{:?}", ast.fns[0].sums);
        assert!(ast.fns[0].sums[0].turbofish.is_none());
    }

    #[test]
    fn struct_literal_after_for_does_not_poison_scopes() {
        // `impl Trait for Foo` must not open a loop scope.
        let ast = parse_src("impl Iterator for Gen { fn next(&mut self) -> Option<u32> { let x = self.v.clone(); None } }");
        assert_eq!(ast.fns[0].allocs.len(), 1);
        assert_eq!(ast.fns[0].allocs[0].loop_depth, 0);
    }

    #[test]
    fn hot_root_attaches_to_next_fn() {
        let (toks, _) = lex(
            "fn cold() {}\n// annotation line below\nfn hot_one() { work(); }\nfn also_cold() {}",
        );
        let ast = parse(
            &toks,
            &[HotRootAnn {
                line: 2,
                frame: Some("experiment".into()),
            }],
        );
        let flags: Vec<(String, bool)> = ast
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.hot_root))
            .collect();
        assert_eq!(
            flags,
            [
                ("cold".to_string(), false),
                ("hot_one".to_string(), true),
                ("also_cold".to_string(), false),
            ]
        );
        assert_eq!(ast.fns[1].root_frame.as_deref(), Some("experiment"));
    }

    #[test]
    fn aliases_and_renames() {
        let ast = parse_src(
            "type FastMap = HashMap<u32, u32>;\n\
             type Plain = Vec<u32>;\n\
             use std::collections::HashMap as Dict;\n\
             use std::collections::BTreeMap as Sorted;",
        );
        let hashy: Vec<&str> = ast
            .aliases
            .iter()
            .filter(|a| a.aliases_hash)
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(hashy, ["FastMap", "Dict"]);
        let clean: Vec<&str> = ast
            .aliases
            .iter()
            .filter(|a| !a.aliases_hash)
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(clean, ["Plain", "Sorted"]);
    }

    #[test]
    fn const_str_sets() {
        let ast = parse_src(
            "pub const KNOWN_VARS: &[&str] = &[\"PQ_SEED\", \"PQ_JOBS\"];\n\
             const NOT_STRINGS: &[u32] = &[1, 2];",
        );
        assert_eq!(ast.const_sets.len(), 1);
        assert_eq!(ast.const_sets[0].name, "KNOWN_VARS");
        assert_eq!(ast.const_sets[0].values, ["PQ_SEED", "PQ_JOBS"]);
    }

    #[test]
    fn span_literals_with_dyn_prefixes() {
        let ast = parse_src(
            "fn f(label: &str) { let _a = pq_prof::span(\"event:arrival\"); \
             pq_prof::tick(\"quic:rto\"); \
             let _b = pq_prof::span_dyn(|| format!(\"link:{label}\")); }",
        );
        assert_eq!(
            ast.fns[0].span_literals,
            ["event:arrival", "quic:rto", "link:"]
        );
    }

    #[test]
    fn qualified_and_method_calls() {
        let ast = parse_src(
            "fn f(q: &mut Q) { Website::generate(7); q.schedule(now, ev); helper(); Some(3); }",
        );
        let calls: Vec<(String, Option<String>, bool)> = ast.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.clone(), c.qualifier.clone(), c.method))
            .collect();
        assert_eq!(
            calls,
            [
                ("generate".to_string(), Some("Website".to_string()), false),
                ("schedule".to_string(), None, true),
                ("helper".to_string(), None, false),
            ]
        );
    }

    #[test]
    fn bodyless_trait_decls_are_dropped() {
        let ast = parse_src("trait T { fn decl(&self); fn given(&self) { self.decl() } }");
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "given");
    }

    #[test]
    fn parser_is_total_on_half_edited_source() {
        let ast = parse_src("fn broken( { for x in { let y = ");
        // No panic; whatever parsed is fine.
        let _ = ast.fns.len();
    }
}
