//! The token-stream project lint rules (G002, G004, G006, G007 and G011;
//! the workspace-wide lock rules G008/G009 live in `lockgraph`).
//!
//! Rules are purely lexical: no type information, no macro expansion. That is
//! enough for the project conventions they enforce, and it keeps the driver
//! dependency-free. Conventions clippy or rustc can express are lint
//! attributes at the crate roots instead (DESIGN.md §8). Each rule can be
//! suppressed at a single site with
//!
//! ```text
//! // graphrep: allow(G004, reason why this site is fine)
//! ```
//!
//! which covers the directive's own line and the following line. A directive
//! with an empty reason is itself reported (rule `G000`).

use crate::lexer::{lex, Comment, Token, TokenKind};
use std::collections::BTreeMap;

/// Where a source file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Short crate name (the directory under `crates/`: `core`, `serve`,
    /// `shard`, …), or `root` for the root package.
    pub crate_name: String,
    /// True for files under `tests/`, `benches/`, or `examples/` — all rules
    /// skip those entirely (inline `#[cfg(test)]` modules are detected
    /// separately, per region).
    pub is_test_file: bool,
}

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`G002`..`G011`, or `G000` for malformed directives).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// A violation that an allow-directive suppressed, kept for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// Rule identifier that was suppressed.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the suppressed violation.
    pub line: usize,
    /// The justification given in the directive.
    pub reason: String,
}

/// Crates exempt from G007 (raw sockets and blocking sleeps allowed): the
/// serving layer owns all network I/O and shutdown-poll timing, and the CLI
/// fronts it.
const G007_EXEMPT: &[&str] = &["serve", "cli"];
/// Distance-work idents G011 bans from the shard coordinator: the engine
/// and oracle types themselves, plus their verification entry points when
/// invoked as methods.
const G011_TYPES: &[&str] = &["GedEngine", "DistanceOracle"];
const G011_METHODS: &[&str] = &["ask", "distance", "within"];
/// Atomic memory orderings that G002 requires a justification comment for.
/// Restricting to these avoids flagging `std::cmp::Ordering::{Less,…}`.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

struct AllowDirective {
    rule: String,
    reason: String,
    /// Directive line; suppression covers `line..=last_covered`.
    line: usize,
    last_covered: usize,
}

/// Lints one file's source text under the given scope.
///
/// Returns surviving findings plus the list of directive-suppressed ones.
pub fn lint_source(file: &str, src: &str, scope: &Scope) -> (Vec<Finding>, Vec<Suppressed>) {
    if scope.is_test_file {
        return (Vec::new(), Vec::new());
    }
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let comments = &lexed.comments;

    let (allows, mut findings) = parse_allow_directives(file, comments);
    let test_regions = test_regions(toks);
    let in_test = |line: usize| test_regions.iter().any(|&(a, b)| a <= line && line <= b);

    rule_g002(file, toks, comments, &in_test, &mut findings);
    rule_g004(file, toks, &in_test, &mut findings);
    rule_g006(file, toks, comments, &in_test, &mut findings);
    if !G007_EXEMPT.iter().any(|c| c == &scope.crate_name) {
        rule_g007(file, toks, &in_test, &mut findings);
    }
    if scope.crate_name == "shard" && file.ends_with("coordinator.rs") {
        rule_g011(file, toks, &in_test, &mut findings);
    }
    suppress(&allows, findings)
}

/// Applies this file's allow directives to findings produced
/// by an out-of-band analysis (the workspace-wide lock rules G008/G009, which
/// run outside [`lint_source`]). Malformed-directive findings are NOT
/// re-reported here — [`lint_source`] already owns those.
pub fn apply_allows(
    file: &str,
    src: &str,
    findings: Vec<Finding>,
) -> (Vec<Finding>, Vec<Suppressed>) {
    let lexed = lex(src);
    let (allows, _g000) = parse_allow_directives(file, &lexed.comments);
    suppress(&allows, findings)
}

/// A finding survives unless a directive with the matching rule id covers
/// its line; survivors come back sorted by (line, rule).
fn suppress(allows: &[AllowDirective], findings: Vec<Finding>) -> (Vec<Finding>, Vec<Suppressed>) {
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for f in findings {
        let hit = allows
            .iter()
            .find(|a| a.rule == f.rule && a.line <= f.line && f.line <= a.last_covered);
        match hit {
            Some(a) => suppressed.push(Suppressed {
                rule: f.rule,
                file: f.file,
                line: f.line,
                reason: a.reason.clone(),
            }),
            None => kept.push(f),
        }
    }
    kept.sort_by_key(|f| (f.line, f.rule));
    (kept, suppressed)
}

fn parse_allow_directives(file: &str, comments: &[Comment]) -> (Vec<AllowDirective>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("graphrep: allow(") else {
            continue;
        };
        let rest = &c.text[pos + "graphrep: allow(".len()..];
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                rule: "G000",
                file: file.to_string(),
                line: c.line,
                message: "malformed allow directive: missing closing parenthesis".into(),
            });
            continue;
        };
        let inner = &rest[..close];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        if reason.is_empty() || !rule.starts_with('G') {
            findings.push(Finding {
                rule: "G000",
                file: file.to_string(),
                line: c.line,
                message: format!(
                    "allow directive needs a rule id and a non-empty reason: `allow({inner})`"
                ),
            });
            continue;
        }
        allows.push(AllowDirective {
            rule: rule.to_string(),
            reason: reason.to_string(),
            line: c.line,
            last_covered: c.end_line + 1,
        });
    }
    (allows, findings)
}

/// Line spans of items gated behind `#[cfg(test)]`-style attributes.
///
/// Recognised shape: `#` `[` … `cfg` … `test` … `]`, followed by optional
/// further attributes, then an item whose body is the next brace-matched
/// block (or nothing, if a `;` comes first).
pub(crate) fn test_regions(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(is_punct(&toks[i], '#') && is_punct(&toks[i + 1], '[')) {
            i += 1;
            continue;
        }
        // Bracket-match the attribute body.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut saw_cfg = false;
        let mut test_at = None;
        while j < toks.len() {
            match toks[j].kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident => {
                    if toks[j].text == "cfg" {
                        saw_cfg = true;
                    }
                    if toks[j].text == "test" && test_at.is_none() {
                        test_at = Some(j);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let attr_end = j;
        // `#[cfg(not(test))]` gates *non*-test code: reject when the `test`
        // ident is directly wrapped in `not(…)`.
        let negated = test_at
            .is_some_and(|t| t >= 2 && is_punct(&toks[t - 1], '(') && toks[t - 2].text == "not");
        if !(saw_cfg && test_at.is_some() && !negated) {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then find the gated item's body.
        let mut k = attr_end + 1;
        while k + 1 < toks.len() && is_punct(&toks[k], '#') && is_punct(&toks[k + 1], '[') {
            let mut d = 0usize;
            while k < toks.len() {
                match toks[k].kind {
                    TokenKind::Punct('[') => d += 1,
                    TokenKind::Punct(']') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        // Scan to the item body `{` (or give up at `;`, e.g. `mod tests;`).
        while k < toks.len() && !is_punct(&toks[k], '{') && !is_punct(&toks[k], ';') {
            k += 1;
        }
        if k < toks.len() && is_punct(&toks[k], '{') {
            let start_line = toks[i].line;
            let mut d = 0usize;
            while k < toks.len() {
                match toks[k].kind {
                    TokenKind::Punct('{') => d += 1,
                    TokenKind::Punct('}') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let end_line = toks.get(k).map_or(usize::MAX, |t| t.line);
            regions.push((start_line, end_line));
        }
        i = k + 1;
    }
    regions
}

/// G002: atomic `Ordering::X` uses need a justification comment — on the same
/// line, on the line directly above, or carried down from the previous line of
/// a contiguous run of atomic accesses.
///
/// The carry rule exists so a batch of related counters reads as one justified
/// block: one real comment above the first access covers the consecutive lines
/// that follow, instead of forcing a filler comment (`// see above`) per line.
/// Any non-atomic line breaks the run, so the justification can never drift
/// far from the accesses it explains.
fn rule_g002(
    file: &str,
    toks: &[Token],
    comments: &[Comment],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    // First pass: every line with a qualified `Ordering::X` use, and the
    // ordering name on it (for the message). Requiring the `Ordering::`
    // qualifier keeps bare idents named `Release` etc. out of the rule.
    let mut ordering_lines: BTreeMap<usize, &str> = BTreeMap::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !ATOMIC_ORDERINGS.contains(&t.text.as_str())
            || in_test(t.line)
        {
            continue;
        }
        let qualified = i >= 3
            && is_punct(&toks[i - 1], ':')
            && is_punct(&toks[i - 2], ':')
            && toks[i - 3].text == "Ordering";
        if qualified {
            ordering_lines.entry(t.line).or_insert(&t.text);
        }
    }
    // Second pass in line order: a line is justified directly by a comment, or
    // transitively when the line immediately above is a justified atomic line.
    let mut prev: Option<(usize, bool)> = None;
    for (&line, &name) in &ordering_lines {
        let direct = comments
            .iter()
            .any(|c| !c.text.trim().is_empty() && (c.line == line || c.end_line + 1 == line));
        let carried = matches!(prev, Some((p, true)) if p + 1 == line);
        let justified = direct || carried;
        prev = Some((line, justified));
        if !justified {
            out.push(Finding {
                rule: "G002",
                file: file.to_string(),
                line,
                message: format!(
                    "`Ordering::{name}` without a justification comment on this line, the line \
                     above, or carried down a contiguous run of atomic accesses"
                ),
            });
        }
    }
}

/// G004: `==` / `!=` with a float-literal operand.
fn rule_g004(file: &str, toks: &[Token], in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    for i in 0..toks.len().saturating_sub(1) {
        let (a, b) = (&toks[i], &toks[i + 1]);
        let eq = is_punct(a, '=') && is_punct(b, '=');
        let ne = is_punct(a, '!') && is_punct(b, '=');
        if !(eq || ne) || a.line != b.line || in_test(a.line) {
            continue;
        }
        // `<=`, `>=`, `+=`, … all have a punct directly before the `=`; a
        // genuine `==` starts fresh after an operand or opening delimiter.
        if eq && i > 0 {
            if let TokenKind::Punct(p) = toks[i - 1].kind {
                if "<>=!+-*/%&|^".contains(p) {
                    continue;
                }
            }
        }
        let lhs_float = i > 0 && toks[i - 1].kind == TokenKind::Float;
        let rhs = toks.get(i + 2);
        let rhs_float = match rhs.map(|t| &t.kind) {
            Some(TokenKind::Float) => true,
            Some(TokenKind::Punct('-')) => {
                toks.get(i + 3).is_some_and(|t| t.kind == TokenKind::Float)
            }
            _ => false,
        };
        if lhs_float || rhs_float {
            out.push(Finding {
                rule: "G004",
                file: file.to_string(),
                line: a.line,
                message: "float literal compared with ==/!=: use an epsilon or integer guard"
                    .to_string(),
            });
        }
    }
}

/// G006: no fresh heap allocation inside functions marked hot-path.
///
/// A `// graphrep: hot-path` comment marks the next `fn` as part of the
/// zero-allocation GED search path: its body must reuse the per-thread
/// scratch buffers, so `Vec::new()` and `.collect(...)` (including
/// turbofish `collect::<...>(...)`) are flagged anywhere inside it.
fn rule_g006(
    file: &str,
    toks: &[Token],
    comments: &[Comment],
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for c in comments {
        if !c.text.contains("graphrep: hot-path") || in_test(c.line) {
            continue;
        }
        // The marked function: first `fn` token at or after the marker.
        let Some(fn_idx) = toks
            .iter()
            .position(|t| t.kind == TokenKind::Ident && t.text == "fn" && t.line >= c.end_line)
        else {
            continue;
        };
        // Scan to the body's opening brace; a `;` first means a body-less
        // declaration (trait method, extern) — nothing to check.
        let mut k = fn_idx + 1;
        while k < toks.len() && !is_punct(&toks[k], '{') && !is_punct(&toks[k], ';') {
            k += 1;
        }
        if k >= toks.len() || is_punct(&toks[k], ';') {
            continue;
        }
        let body_start = k;
        let mut depth = 0usize;
        while k < toks.len() {
            match toks[k].kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let body = &toks[body_start..k.min(toks.len())];
        for (i, t) in body.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let alloc = match t.text.as_str() {
                // `Vec::new(` — a fresh vector where a scratch buffer belongs.
                "Vec" => {
                    body.get(i + 1).is_some_and(|n| is_punct(n, ':'))
                        && body.get(i + 2).is_some_and(|n| is_punct(n, ':'))
                        && body.get(i + 3).is_some_and(|n| n.text == "new")
                }
                // `.collect(` / `.collect::<…>(` — an allocating adaptor.
                "collect" => i > 0 && is_punct(&body[i - 1], '.'),
                _ => false,
            };
            if alloc {
                out.push(Finding {
                    rule: "G006",
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        "`{}` inside a `graphrep: hot-path` function: reuse a scratch buffer",
                        if t.text == "Vec" {
                            "Vec::new"
                        } else {
                            ".collect"
                        }
                    ),
                });
            }
        }
    }
}

/// G007: no `std::net` or `std::thread::sleep` outside serve/cli.
///
/// Network I/O lives in `crates/serve` (fronted by `crates/cli`); blocking
/// sleeps are a serving-layer shutdown-poll idiom. Anywhere else, a socket
/// or a sleep is almost always a test-harness leftover or a latency bug in
/// disguise. Matched token shapes: `std :: net` (imports and fully
/// qualified paths alike) and `thread :: sleep` (which also covers
/// `std::thread::sleep` call sites and `use std::thread::sleep`).
fn rule_g007(file: &str, toks: &[Token], in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test(t.line) {
            continue;
        }
        let path_next = |name: &str| {
            toks.get(i + 1).is_some_and(|n| is_punct(n, ':'))
                && toks.get(i + 2).is_some_and(|n| is_punct(n, ':'))
                && toks.get(i + 3).is_some_and(|n| n.text == name)
        };
        let flagged = match t.text.as_str() {
            "std" => path_next("net").then_some("std::net"),
            "thread" => path_next("sleep").then_some("std::thread::sleep"),
            _ => None,
        };
        if let Some(what) = flagged {
            out.push(Finding {
                rule: "G007",
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "`{what}` outside crates/serve and crates/cli: sockets and blocking \
                     sleeps belong in the serving layer"
                ),
            });
        }
    }
}

/// G011: the shard coordinator never does distance work itself.
///
/// The scatter-gather design (DESIGN.md §14) keeps every GED computation
/// shard-side, behind `ShardState` methods — that is what makes per-shard
/// pruning measurable and a future remote shard transport possible. So
/// `crates/shard/src/coordinator.rs` must not name the engine or oracle
/// types (`GedEngine`, `DistanceOracle`) nor invoke their verification
/// entry points as methods (`.ask(…)`, `.distance(…)`, `.within(…)`).
/// Wrapper methods with other names (`center_distance_within`,
/// `home_members`) are the sanctioned surface: the rule matches whole
/// identifiers, so a wrapper that merely contains a banned name is not one.
fn rule_g011(file: &str, toks: &[Token], in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || in_test(t.line) {
            continue;
        }
        let flagged = if G011_TYPES.iter().any(|ty| t.text == *ty) {
            Some(format!(
                "`{}` in the shard coordinator: distance state lives shard-side",
                t.text
            ))
        } else if G011_METHODS.iter().any(|m| t.text == *m)
            && i > 0
            && is_punct(&toks[i - 1], '.')
            && toks.get(i + 1).is_some_and(|n| is_punct(n, '('))
        {
            Some(format!(
                "`.{}(…)` in the shard coordinator: route verification through \
                 shard-side methods instead",
                t.text
            ))
        } else {
            None
        };
        if let Some(message) = flagged {
            out.push(Finding {
                rule: "G011",
                file: file.to_string(),
                line: t.line,
                message,
            });
        }
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokenKind::Punct(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_scope() -> Scope {
        Scope {
            crate_name: "core".into(),
            is_test_file: false,
        }
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        let (f, _) = lint_source("t.rs", src, &core_scope());
        f.into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn g002_requires_comment() {
        assert_eq!(
            rules_of("fn f() { c.load(Ordering::Relaxed); }"),
            vec!["G002"]
        );
        assert_eq!(
            rules_of("fn f() { c.load(Ordering::Relaxed); // counters are independent\n }"),
            Vec::<&str>::new()
        );
        // std::cmp::Ordering variants are not atomic orderings.
        assert_eq!(
            rules_of("fn f() -> Ordering { Ordering::Less }"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn g002_justification_carries_down_contiguous_runs() {
        // One comment above the first access covers the consecutive lines.
        let run = "fn f() {\n\
                   // counters are independent monotonic tallies\n\
                   a.fetch_add(1, Ordering::Relaxed);\n\
                   b.fetch_add(1, Ordering::Relaxed);\n\
                   c.load(Ordering::Relaxed);\n\
                   }";
        assert_eq!(rules_of(run), Vec::<&str>::new());
        // A non-atomic line breaks the run: the access after the gap needs
        // its own comment again.
        let gap = "fn f() {\n\
                   // counters are independent\n\
                   a.fetch_add(1, Ordering::Relaxed);\n\
                   other_work();\n\
                   b.load(Ordering::Relaxed);\n\
                   }";
        assert_eq!(rules_of(gap), vec!["G002"]);
        // The carry starts at a justified line: an unjustified first access
        // does not launder the ones below it.
        let unjustified = "fn f() {\n\
                           a.fetch_add(1, Ordering::Relaxed);\n\
                           b.load(Ordering::Relaxed);\n\
                           }";
        assert_eq!(rules_of(unjustified), vec!["G002", "G002"]);
        // A comment mid-run covers the tail below it.
        let mid = "fn f() {\n\
                   a.fetch_add(1, Ordering::Relaxed);\n\
                   // publish after init (pairs with the Acquire load)\n\
                   b.store(1, Ordering::Release);\n\
                   c.load(Ordering::Acquire);\n\
                   }";
        assert_eq!(rules_of(mid), vec!["G002"]);
    }

    #[test]
    fn g004_flags_float_literal_compares() {
        assert_eq!(rules_of("fn f() { if x == 0.0 {} }"), vec!["G004"]);
        assert_eq!(rules_of("fn f() { if 1.5 != y {} }"), vec!["G004"]);
        assert_eq!(rules_of("fn f() { if x == -2.0 {} }"), vec!["G004"]);
        assert_eq!(rules_of("fn f() { if x <= 2.0 {} }"), Vec::<&str>::new());
        assert_eq!(rules_of("fn f() { if x == 0 {} }"), Vec::<&str>::new());
    }

    #[test]
    fn allow_directive_suppresses_and_records() {
        let src = "fn f() {\n // graphrep: allow(G004, exact sentinel)\n if x == 0.0 {}\n}\n";
        let (f, s) = lint_source("t.rs", src, &core_scope());
        assert!(f.is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rule, "G004");
        assert_eq!(s[0].reason, "exact sentinel");
    }

    #[test]
    fn g006_flags_allocation_in_hot_path_fn() {
        // Fixture: violating hot-path function (both alloc shapes).
        let src = "// graphrep: hot-path\nfn f(out: &mut Vec<u32>) {\n let v = Vec::new();\n let w: Vec<u32> = x.iter().collect();\n}\n";
        assert_eq!(rules_of(src), vec!["G006", "G006"]);
        // Turbofish collect is still an allocation.
        let src = "// graphrep: hot-path\nfn f() { let v = it.collect::<Vec<_>>(); }\n";
        assert_eq!(rules_of(src), vec!["G006"]);
    }

    #[test]
    fn g006_clean_hot_path_and_unmarked_fns_pass() {
        // Fixture: clean hot-path function reusing its scratch buffer.
        let src = "// graphrep: hot-path\nfn f(buf: &mut Vec<u32>) { buf.clear(); buf.push(1); }\n";
        assert_eq!(rules_of(src), Vec::<&str>::new());
        // Unmarked functions may allocate freely.
        let src = "fn g() { let v = Vec::new(); let w: Vec<_> = x.iter().collect(); }\n";
        assert_eq!(rules_of(src), Vec::<&str>::new());
        // The marker only covers the *next* fn, not later ones.
        let src = "// graphrep: hot-path\nfn f(b: &mut Vec<u32>) { b.clear(); }\nfn g() { let v = Vec::new(); }\n";
        assert_eq!(rules_of(src), Vec::<&str>::new());
    }

    #[test]
    fn g006_suppressed_by_allow_directive() {
        // Fixture: suppressed violation with a recorded reason.
        let src = "// graphrep: hot-path\nfn f() {\n // graphrep: allow(G006, one-time warm-up allocation before the search loop)\n let v = Vec::new();\n}\n";
        let (f, s) = lint_source("t.rs", src, &core_scope());
        assert!(f.is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rule, "G006");
        assert_eq!(
            s[0].reason,
            "one-time warm-up allocation before the search loop"
        );
    }

    #[test]
    fn g007_flags_sockets_and_sleeps_outside_serving_layer() {
        assert_eq!(
            rules_of("use std::net::TcpStream;\nfn f() {}"),
            vec!["G007"]
        );
        assert_eq!(rules_of("fn f() { std::thread::sleep(d); }"), vec!["G007"]);
        assert_eq!(
            rules_of("use std::thread;\nfn f() { thread::sleep(d); }"),
            vec!["G007"]
        );
        // Non-sleep thread APIs and unrelated std modules stay clean.
        assert_eq!(
            rules_of("fn f() { std::thread::spawn(|| {}); }"),
            Vec::<&str>::new()
        );
        assert_eq!(
            rules_of("use std::time::Duration;\nfn f() {}"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn g007_exempt_in_serve_and_cli_scopes() {
        let src = "use std::net::TcpListener;\nfn f() { std::thread::sleep(d); }";
        for name in ["serve", "cli"] {
            let scope = Scope {
                crate_name: name.into(),
                is_test_file: false,
            };
            let (f, _) = lint_source("t.rs", src, &scope);
            assert!(f.is_empty(), "{name}: {f:?}");
        }
    }

    #[test]
    fn g007_exempt_in_cfg_test_module() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { std::thread::sleep(d); }\n}\n";
        assert_eq!(rules_of(src), Vec::<&str>::new());
    }

    fn shard_coord(src: &str) -> Vec<&'static str> {
        let scope = Scope {
            crate_name: "shard".into(),
            is_test_file: false,
        };
        let (f, _) = lint_source("crates/shard/src/coordinator.rs", src, &scope);
        f.into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn g011_flags_distance_work_in_coordinator() {
        assert_eq!(
            shard_coord("use graphrep_ged::GedEngine;\nfn f() {}"),
            vec!["G011"]
        );
        assert_eq!(shard_coord("fn f(o: &DistanceOracle) {}"), vec!["G011"]);
        assert_eq!(
            shard_coord("fn f() { let d = oracle.distance(a, b); }"),
            vec!["G011"]
        );
        assert_eq!(
            shard_coord("fn f() { let v = o.ask(a, b, t).0; }"),
            vec!["G011"]
        );
        assert_eq!(shard_coord("fn f() { o.within(a, b, t); }"), vec!["G011"]);
        // The engine entry the sanctioned wrapper is built on stays banned.
        assert_eq!(
            shard_coord("fn f() { e.ask(g, c, p, q, t); }"),
            vec!["G011"]
        );
    }

    #[test]
    fn g011_permits_wrappers_other_files_and_other_crates() {
        // The sanctioned shard-side surface has distinct method names.
        assert_eq!(
            shard_coord("fn f() { let d = snap.center_distance_within(&g, &p, t); }"),
            Vec::<&str>::new()
        );
        assert_eq!(
            shard_coord("fn f() { let c = snap.engine_calls(); }"),
            Vec::<&str>::new()
        );
        // A bare `distance` ident that is not a method call is fine.
        assert_eq!(
            shard_coord("fn f() { let distance = 3; }"),
            Vec::<&str>::new()
        );
        // shard.rs is where the distance work belongs.
        let scope = Scope {
            crate_name: "shard".into(),
            is_test_file: false,
        };
        let (f, _) = lint_source(
            "crates/shard/src/shard.rs",
            "use graphrep_ged::GedEngine;\nfn f() {}",
            &scope,
        );
        assert!(f.is_empty(), "{f:?}");
        // A coordinator.rs in another crate is out of scope.
        let scope = Scope {
            crate_name: "serve".into(),
            is_test_file: false,
        };
        let (f, _) = lint_source(
            "crates/serve/src/coordinator.rs",
            "fn f(e: &GedEngine) {}",
            &scope,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn g011_suppressed_by_allow_directive() {
        let src = "// graphrep: allow(G011, measurement-only probe behind a bench gate)\nfn f() { o.distance(a, b); }";
        let scope = Scope {
            crate_name: "shard".into(),
            is_test_file: false,
        };
        let (f, s) = lint_source("crates/shard/src/coordinator.rs", src, &scope);
        assert!(f.is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].rule, "G011");
    }

    #[test]
    fn allow_without_reason_is_g000() {
        let src = "fn f() {\n // graphrep: allow(G004)\n if x == 0.0 {}\n}\n";
        let (f, _) = lint_source("t.rs", src, &core_scope());
        let rules: Vec<_> = f.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"G000"));
        assert!(rules.contains(&"G004"));
    }
}
