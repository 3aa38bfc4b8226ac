//! Flow-aware lock analysis: rules **G008** and **G009**.
//!
//! Built on [`crate::parser`], this module extracts a workspace-wide
//! **lock-acquisition graph** — nodes are named lock sites (struct fields
//! whose type is `Mutex`/`RwLock`/`TrackedMutex`/`TrackedRwLock`), edges are
//! "site B acquired while a guard for site A is live" — and checks two
//! semantic rules on top of it:
//!
//! * **G008** — no lock guard may be live across a *blocking sink*: a GED
//!   engine entry (`distance`, `within`, …), socket I/O (`read_message`,
//!   `write_all`, …), or `std::thread` spawn/join/sleep, matched by name.
//! * **G009** — the acquisition graph must be acyclic; each strongly
//!   connected component with two or more sites is reported as a potential
//!   deadlock, with its witness edges.
//!
//! ## Model
//!
//! Guard lifetimes follow Rust 2021 temporary scoping, conservatively:
//! a bound guard (`let g = x.lock();`) lives to the end of its enclosing
//! block or an explicit `drop(g)`; an unbound (temporary) guard lives to the
//! end of its statement *including* attached blocks (so an `if let` scrutinee
//! guard is held over the whole `if let`, and all guards in one struct
//! literal overlap). Calls are resolved interprocedurally via fixpoint
//! summaries (transitive acquisitions and reachable sinks per function), but
//! only when the callee is certain: a `self` method, a receiver with a known
//! field/local type, a globally unique method name, or a free function.
//! Ambiguous method names on unknown receivers are skipped — an unresolved
//! call can only miss edges, never invent a false cycle; the runtime
//! witness checks the edges it misses (DESIGN.md §12.4). Closures passed to
//! `spawn` run on another thread, so blocks following a `spawn(` in the same
//! statement are replayed with an empty held set (their *internal* edges are
//! still recorded). Same-site reentrant acquisition is out of scope (the
//! graph records order between *distinct* sites; self-edges are dropped).
//!
//! Site names are mechanical — `{crate}.{file-stem}.{Struct}.{field}` — and
//! the `lock-audit` runtime wrappers use the same strings, so the dynamic
//! witness's observed edges are directly comparable to this graph.

use crate::lexer::{lex, Lexed, Token, TokenKind};
use crate::parser::{parse, Ast, Block, FnDef, Item, ItemKind, Stmt, StmtKind, StmtPart};
use crate::rules::{test_regions, Finding};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// G008's blocking sinks: names that block regardless of arguments — GED
/// engine entries (oracle and raw engine), socket/stream I/O, thread control.
const SINKS: &[&str] = &[
    "ask",
    "distance",
    "within",
    "connect",
    "accept",
    "read_message",
    "write_frame",
    "read_exact",
    "write_all",
    "spawn",
    "sleep",
];
/// Sinks that only count with an empty argument list (`join()` — keeps
/// `Path::join("x")` and `Vec::join(", ")` out).
const SINKS_NO_ARGS: &[&str] = &["join"];

/// One named lock site (graph node).
#[derive(Debug, Clone)]
pub struct LockNode {
    /// Stable site name: `{crate}.{file-stem}.{Struct}.{field}`.
    pub name: String,
    /// File declaring the field.
    pub file: String,
    /// 1-based line of the field declaration.
    pub line: usize,
}

/// One acquired-while-holding edge (first witness location).
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Site already held.
    pub from: String,
    /// Site acquired while `from` was held.
    pub to: String,
    /// File of the witnessing acquisition.
    pub file: String,
    /// 1-based line of the witnessing acquisition.
    pub line: usize,
}

/// The extracted workspace lock-acquisition graph.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// All sites, sorted by name.
    pub nodes: Vec<LockNode>,
    /// All edges, sorted by (from, to).
    pub edges: Vec<LockEdge>,
}

/// Result of the workspace lock analysis.
#[derive(Debug, Default)]
pub struct LockAnalysis {
    /// The acquisition graph.
    pub graph: LockGraph,
    /// G008/G009 findings (allow-directives are applied by the caller).
    pub findings: Vec<Finding>,
}

/// One input file for [`analyze`].
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Short crate name (used as the site-name prefix).
    pub crate_name: String,
    /// Source text.
    pub src: String,
}

/// Type names treated as lock wrappers when they appear in a field type.
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "TrackedMutex", "TrackedRwLock"];
/// Wrapper idents excluded from a lock field's *content* type candidates.
const NON_CONTENT: &[&str] = &[
    "Mutex",
    "RwLock",
    "TrackedMutex",
    "TrackedRwLock",
    "Arc",
    "Box",
    "Option",
    "dyn",
    "mut",
];
/// Expression keywords that look like calls (`return (x)`) but are not.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "move", "in", "as", "break",
];

struct Site {
    name: String,
    file: String,
    line: usize,
    /// Idents of the guarded content type (for typing bound guards).
    content: Vec<String>,
}

struct FnInfo<'a> {
    file: usize,
    self_ty: Option<String>,
    name: String,
    def: &'a FnDef,
}

#[derive(Default)]
struct Tables<'a> {
    sites: Vec<Site>,
    /// (struct, field) → site index.
    by_struct_field: HashMap<(String, String), usize>,
    /// field → site indices (for the unique-field fallback).
    by_field: HashMap<String, Vec<usize>>,
    /// struct → [(field, type idents)] for receiver-chain typing.
    struct_fields: HashMap<String, Vec<(String, Vec<String>)>>,
    fns: Vec<FnInfo<'a>>,
    /// (self type, method) → fn index.
    method: HashMap<(String, String), usize>,
    /// method name → fn indices (for the unique-name fallback).
    by_name: HashMap<String, Vec<usize>>,
    /// free function name → fn index.
    free: HashMap<String, usize>,
}

#[derive(Default, Clone, PartialEq)]
struct Summary {
    /// Sites acquired in this fn or any resolved transitive callee.
    acquires: BTreeSet<usize>,
    /// Sink names reachable from this fn.
    sinks: BTreeSet<String>,
    /// Site whose guard this fn returns (tail acquisition), if any.
    guard_ret: Option<usize>,
    /// Resolved callees.
    calls: BTreeSet<usize>,
}

/// Runs the full lock analysis over the given files.
///
/// Files belonging to the `lockaudit` crate (the instrumentation layer
/// itself) are excluded — its `inner` fields are the mechanism, not subject
/// code. Items inside `#[cfg(test)]` regions are skipped, mirroring the
/// lexical rules.
pub fn analyze(files: &[SourceFile]) -> LockAnalysis {
    let parsed: Vec<(usize, Lexed, Ast)> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.crate_name != "lockaudit")
        .map(|(i, f)| {
            let lexed = lex(&f.src);
            let ast = parse(&lexed);
            (i, lexed, ast)
        })
        .collect();

    let mut tables = Tables::default();
    for (pi, (fi, lexed, ast)) in parsed.iter().enumerate() {
        let regions = test_regions(&lexed.tokens);
        let in_test = |line: usize| regions.iter().any(|&(a, b)| a <= line && line <= b);
        let f = &files[*fi];
        let stem = f
            .rel
            .rsplit('/')
            .next()
            .unwrap_or(&f.rel)
            .trim_end_matches(".rs")
            .to_string();
        collect_items(
            &ast.items,
            &lexed.tokens,
            &in_test,
            pi,
            &f.crate_name,
            &stem,
            &f.rel,
            &mut tables,
        );
    }

    // Interprocedural summaries, to fixpoint. Two walk rounds: the second
    // re-resolves receiver chains through guard bindings discovered via
    // `guard_ret` in the first (e.g. `let st = self.read(); st.index.f()`).
    let mut summaries: Vec<Summary> = vec![Summary::default(); tables.fns.len()];
    for _round in 0..2 {
        let mut direct: Vec<Summary> = Vec::with_capacity(tables.fns.len());
        for id in 0..tables.fns.len() {
            let mut scratch = Output::default();
            direct.push(walk_fn(
                id,
                &tables,
                &parsed,
                files,
                &summaries,
                &mut scratch,
            ));
        }
        summaries = fixpoint(direct);
    }

    // Final pass: emit edges and G008 findings with converged summaries.
    let mut out = Output::default();
    for id in 0..tables.fns.len() {
        let _ = walk_fn(id, &tables, &parsed, files, &summaries, &mut out);
    }

    let mut findings = out.findings;
    findings.extend(detect_cycles(&tables, &out.edges));

    let mut nodes: Vec<LockNode> = tables
        .sites
        .iter()
        .map(|s| LockNode {
            name: s.name.clone(),
            file: s.file.clone(),
            line: s.line,
        })
        .collect();
    nodes.sort_by(|a, b| a.name.cmp(&b.name));
    let mut edges: Vec<LockEdge> = out
        .edges
        .iter()
        .map(|(&(a, b), witness)| LockEdge {
            from: tables.sites[a].name.clone(),
            to: tables.sites[b].name.clone(),
            file: witness.0.clone(),
            line: witness.1,
        })
        .collect();
    edges.sort_by(|a, b| (a.from.as_str(), a.to.as_str()).cmp(&(b.from.as_str(), b.to.as_str())));
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });

    LockAnalysis {
        graph: LockGraph { nodes, edges },
        findings,
    }
}

/// Recursively collects lock sites, struct field tables, and functions.
#[allow(clippy::too_many_arguments)]
fn collect_items<'a>(
    items: &'a [Item],
    toks: &[Token],
    in_test: &dyn Fn(usize) -> bool,
    file_idx: usize,
    crate_name: &str,
    stem: &str,
    rel: &str,
    tables: &mut Tables<'a>,
) {
    for item in items {
        let line = toks.get(item.span.lo).map_or(0, |t| t.line);
        if in_test(line) {
            continue;
        }
        match &item.kind {
            ItemKind::Struct { name, fields } => {
                let mut field_tys = Vec::new();
                for fd in fields {
                    let idents: Vec<String> = fd
                        .ty
                        .split_whitespace()
                        .filter(|w| {
                            w.chars()
                                .next()
                                .is_some_and(|c| c.is_alphabetic() || c == '_')
                        })
                        .map(str::to_string)
                        .collect();
                    let is_lock = idents.iter().any(|w| LOCK_TYPES.contains(&w.as_str()));
                    if is_lock {
                        let content: Vec<String> = idents
                            .iter()
                            .filter(|w| !NON_CONTENT.contains(&w.as_str()))
                            .cloned()
                            .collect();
                        let fline = toks.get(fd.span.lo).map_or(line, |t| t.line);
                        let id = tables.sites.len();
                        tables
                            .by_struct_field
                            .insert((name.clone(), fd.name.clone()), id);
                        tables.by_field.entry(fd.name.clone()).or_default().push(id);
                        tables.sites.push(Site {
                            name: format!("{crate_name}.{stem}.{name}.{}", fd.name),
                            file: rel.to_string(),
                            line: fline,
                            content,
                        });
                    }
                    field_tys.push((fd.name.clone(), idents));
                }
                tables.struct_fields.insert(name.clone(), field_tys);
            }
            ItemKind::Impl { self_ty, fns, .. } => {
                for fd in fns {
                    let fline = toks.get(fd.span.lo).map_or(line, |t| t.line);
                    if in_test(fline) || fd.body.is_none() {
                        continue;
                    }
                    let id = tables.fns.len();
                    tables.fns.push(FnInfo {
                        file: file_idx,
                        self_ty: Some(self_ty.clone()),
                        name: fd.name.clone(),
                        def: fd,
                    });
                    tables.method.insert((self_ty.clone(), fd.name.clone()), id);
                    tables.by_name.entry(fd.name.clone()).or_default().push(id);
                }
            }
            ItemKind::Fn(fd) if fd.body.is_some() => {
                let id = tables.fns.len();
                tables.fns.push(FnInfo {
                    file: file_idx,
                    self_ty: None,
                    name: fd.name.clone(),
                    def: fd,
                });
                tables.free.insert(fd.name.clone(), id);
                tables.by_name.entry(fd.name.clone()).or_default().push(id);
            }
            ItemKind::Mod {
                items: Some(sub), ..
            } => {
                collect_items(sub, toks, in_test, file_idx, crate_name, stem, rel, tables);
            }
            _ => {}
        }
    }
}

fn fixpoint(direct: Vec<Summary>) -> Vec<Summary> {
    let mut s = direct;
    loop {
        let mut changed = false;
        for i in 0..s.len() {
            let callees: Vec<usize> = s[i].calls.iter().copied().collect();
            let mut acq = s[i].acquires.clone();
            let mut sinks = s[i].sinks.clone();
            for &c in &callees {
                acq.extend(s[c].acquires.iter().copied());
                sinks.extend(s[c].sinks.iter().cloned());
            }
            if acq != s[i].acquires || sinks != s[i].sinks {
                s[i].acquires = acq;
                s[i].sinks = sinks;
                changed = true;
            }
        }
        if !changed {
            return s;
        }
    }
}

#[derive(Default)]
struct Output {
    /// (from, to) → first witness (file, line).
    edges: BTreeMap<(usize, usize), (String, usize)>,
    findings: Vec<Finding>,
}

/// One scanned event inside a token run.
enum Ev {
    /// Acquisition of a site; `close` = token index just past the `()`.
    Acquire {
        site: usize,
        line: usize,
        close: usize,
    },
    /// A call: possibly resolved, possibly a named sink, possibly both.
    Call {
        f: Option<usize>,
        sink: Option<String>,
        name: String,
        line: usize,
        close: usize,
    },
    /// `drop(g)` / `mem::drop(g)` on a bound guard.
    DropG { name: String },
    /// A bare `spawn` ident — later blocks in this statement are new threads.
    Spawn,
}

/// Per-function walk: collects summary facts and (on every pass) emits edges
/// and G008 findings into `out`; summary rounds simply discard their output.
fn walk_fn(
    id: usize,
    tables: &Tables<'_>,
    parsed: &[(usize, Lexed, Ast)],
    files: &[SourceFile],
    summaries: &[Summary],
    out: &mut Output,
) -> Summary {
    let info = &tables.fns[id];
    let (file_idx, lexed, _) = &parsed[info.file];
    let rel = &files[*file_idx].rel;
    let toks = &lexed.tokens;
    let Some(body) = info.def.body.as_ref() else {
        return Summary::default();
    };

    let mut env: HashMap<String, Vec<String>> = HashMap::new();
    for (pname, pty) in &info.def.params {
        if pname == "self" || pname.is_empty() {
            continue;
        }
        let idents: Vec<String> = pty
            .split_whitespace()
            .filter(|w| {
                w.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
            })
            .filter(|w| *w != "mut" && *w != "dyn" && *w != "impl")
            .map(str::to_string)
            .collect();
        env.insert(pname.clone(), idents);
    }

    let mut ctx = Ctx {
        tables,
        toks,
        rel,
        self_ty: info.self_ty.clone(),
        summaries,
        facts: Summary::default(),
        held: Vec::new(),
        fn_name: info.name.clone(),
    };
    let tail = walk_block(body, &mut ctx, &mut env, out);
    // Guard-returning fn: the body's tail event is a terminal acquisition or
    // a call to a guard-returning fn.
    ctx.facts.guard_ret = tail;
    ctx.facts
}

struct Ctx<'t, 'a> {
    tables: &'t Tables<'a>,
    toks: &'t [Token],
    rel: &'t str,
    self_ty: Option<String>,
    summaries: &'t [Summary],
    facts: Summary,
    /// Live guards: (site, Some(binding name) for bound, None for temp).
    held: Vec<(usize, Option<String>)>,
    fn_name: String,
}

/// Walks a block; returns the site whose guard the block's tail expression
/// yields, if any (used for guard-returning functions).
fn walk_block(
    block: &Block,
    ctx: &mut Ctx<'_, '_>,
    env: &mut HashMap<String, Vec<String>>,
    out: &mut Output,
) -> Option<usize> {
    let held_base = ctx.held.len();
    let saved_env = env.clone();
    let mut tail: Option<usize> = None;
    for (si, stmt) in block.stmts.iter().enumerate() {
        tail = walk_stmt(stmt, ctx, env, out);
        if si + 1 != block.stmts.len() {
            tail = None;
        }
    }
    // Bound guards die at block end; env entries from this block go away.
    ctx.held.truncate(held_base);
    *env = saved_env;
    tail
}

/// Walks one statement; returns the guard site its terminal event yields.
fn walk_stmt(
    stmt: &Stmt,
    ctx: &mut Ctx<'_, '_>,
    env: &mut HashMap<String, Vec<String>>,
    out: &mut Output,
) -> Option<usize> {
    if let StmtKind::Item(_) = stmt.kind {
        return None; // Nested items are analyzed as their own functions.
    }
    let temp_base = ctx.held.len();
    let mut spawned = false;
    // The statement's last acquire/call event: (token past its `()`, what it
    // yields — Ok(site) for a direct acquisition, Err(fn) for a call).
    let mut last_ev: Option<(usize, Result<usize, usize>)> = None;
    let mut last_run_end = stmt.span.lo;

    for part in &stmt.parts {
        match part {
            StmtPart::Tokens(lo, hi) => {
                last_run_end = *hi;
                for ev in scan_run(*lo, *hi, ctx, env) {
                    match ev {
                        Ev::Acquire { site, line, close } => {
                            record_acquire(site, line, ctx, out);
                            ctx.held.push((site, None));
                            last_ev = Some((close, Ok(site)));
                        }
                        Ev::Call {
                            f,
                            sink,
                            name,
                            line,
                            close,
                        } => {
                            if name == "spawn" {
                                spawned = true;
                            }
                            if let Some(sname) = &sink {
                                if !ctx.held.is_empty() {
                                    g008(ctx, out, line, sname, None);
                                }
                                ctx.facts.sinks.insert(sname.clone());
                            }
                            if let Some(fid) = f {
                                ctx.facts.calls.insert(fid);
                                let (acq, has_sinks): (Vec<usize>, bool) = {
                                    let sum = &ctx.summaries[fid];
                                    (
                                        sum.acquires.iter().copied().collect(),
                                        !sum.sinks.is_empty(),
                                    )
                                };
                                for s in acq {
                                    record_callee_acquire(s, line, ctx, out);
                                }
                                if sink.is_none() && has_sinks && !ctx.held.is_empty() {
                                    let via: Vec<String> =
                                        ctx.summaries[fid].sinks.iter().cloned().collect();
                                    let callee = ctx.tables.fns[fid].name.clone();
                                    g008(ctx, out, line, &via.join(", "), Some(&callee));
                                }
                                last_ev = Some((close, Err(fid)));
                            } else if sink.is_some() {
                                // A sink with no resolution still ends any
                                // pending "terminal acquisition" claim.
                                last_ev = None;
                            }
                        }
                        Ev::DropG { name } => {
                            if let Some(pos) = ctx
                                .held
                                .iter()
                                .rposition(|(_, n)| n.as_deref() == Some(name.as_str()))
                            {
                                ctx.held.remove(pos);
                            }
                        }
                        Ev::Spawn => spawned = true,
                    }
                }
            }
            StmtPart::Block(b) => {
                if spawned {
                    // New thread: replay with an empty held set, but still
                    // record the closure's internal edges and acquisitions.
                    let held = std::mem::take(&mut ctx.held);
                    let mut benv = env.clone();
                    walk_block(b, ctx, &mut benv, out);
                    ctx.held = held;
                } else {
                    walk_block(b, ctx, env, out);
                }
            }
        }
    }

    // Terminal-event check: the statement's last acquire/call event is
    // terminal when only `;`/`?` follow it in the final token run.
    let tail_site = match last_ev {
        Some((close, yielded)) => {
            let mut i = close;
            let mut terminal = true;
            while i < last_run_end {
                match &ctx.toks[i].kind {
                    TokenKind::Punct(';') | TokenKind::Punct('?') => i += 1,
                    _ => {
                        terminal = false;
                        break;
                    }
                }
            }
            if terminal {
                match yielded {
                    Ok(site) => Some(site),
                    Err(fid) => ctx.summaries[fid].guard_ret,
                }
            } else {
                None
            }
        }
        None => None,
    };

    // Release this statement's temporaries; promote the terminal one to a
    // bound guard when the statement is a `let g = …` binding.
    let bound_name = match &stmt.kind {
        StmtKind::Let(Some(n)) => Some(n.clone()),
        _ => None,
    };
    ctx.held.truncate(temp_base);
    match (&bound_name, tail_site) {
        (Some(name), Some(site)) => {
            ctx.held.push((site, Some(name.clone())));
            env.insert(name.clone(), ctx.tables.sites[site].content.clone());
        }
        (Some(name), None) => {
            // Non-guard let: record the binding's type idents for chains.
            if let Some(tys) = let_rhs_types(stmt, ctx, env, last_ev) {
                env.insert(name.clone(), tys);
            }
        }
        _ => {}
    }
    tail_site
}

/// Types for a `let` binding that is not a guard: the return type of a
/// terminal resolved call, or the type of a plain field-chain RHS.
fn let_rhs_types(
    stmt: &Stmt,
    ctx: &Ctx<'_, '_>,
    env: &HashMap<String, Vec<String>>,
    last_ev: Option<(usize, Result<usize, usize>)>,
) -> Option<Vec<String>> {
    if let Some((_, Err(fid))) = last_ev {
        let ret = &ctx.tables.fns[fid].def.ret;
        let mut idents: Vec<String> = ret
            .split_whitespace()
            .filter(|w| {
                w.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
            })
            .filter(|w| !NON_CONTENT.contains(w) && *w != "impl" && *w != "Self")
            .map(str::to_string)
            .collect();
        if ret.split_whitespace().any(|w| w == "Self") {
            if let Some(st) = &ctx.tables.fns[fid].self_ty {
                idents.push(st.clone());
            }
        }
        return if idents.is_empty() {
            None
        } else {
            Some(idents)
        };
    }
    // Plain chain RHS: `let x = &self.f[i];` — type via the field table.
    let StmtPart::Tokens(lo, hi) = stmt.parts.first()? else {
        return None;
    };
    let mut i = *lo;
    while i < *hi && !matches!(ctx.toks[i].kind, TokenKind::Punct('=')) {
        i += 1;
    }
    i += 1;
    let mut chain = Vec::new();
    while i < *hi {
        match &ctx.toks[i].kind {
            TokenKind::Punct('&') | TokenKind::Punct('*') | TokenKind::Punct('.') => i += 1,
            TokenKind::Punct('[') => {
                let mut d = 0usize;
                while i < *hi {
                    match ctx.toks[i].kind {
                        TokenKind::Punct('[') => d += 1,
                        TokenKind::Punct(']') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                i += 1;
            }
            TokenKind::Ident if ctx.toks[i].text != "mut" => {
                chain.push(ctx.toks[i].text.clone());
                i += 1;
            }
            TokenKind::Punct(';') => break,
            _ => return None, // Not a plain chain.
        }
    }
    if chain.is_empty() {
        return None;
    }
    resolve_chain_types(&chain, ctx, env)
}

/// Resolves a member chain (`["self", "shards"]`) to the final element's
/// type idents via the struct-field tables.
fn resolve_chain_types(
    chain: &[String],
    ctx: &Ctx<'_, '_>,
    env: &HashMap<String, Vec<String>>,
) -> Option<Vec<String>> {
    let head = chain.first()?;
    let mut cands: Vec<String> = if head == "self" || head == "Self" {
        ctx.self_ty.clone().into_iter().collect()
    } else {
        env.get(head)?.clone()
    };
    for step in &chain[1..] {
        let mut next = Vec::new();
        for t in &cands {
            if let Some(fields) = ctx.tables.struct_fields.get(t) {
                if let Some((_, tys)) = fields.iter().find(|(f, _)| f == step) {
                    next.extend(tys.iter().cloned());
                }
            }
        }
        if next.is_empty() {
            return None;
        }
        cands = next;
    }
    Some(cands)
}

/// Records an acquisition: edges from everything held, plus summary facts.
fn record_acquire(site: usize, line: usize, ctx: &mut Ctx<'_, '_>, out: &mut Output) {
    ctx.facts.acquires.insert(site);
    for &(h, _) in &ctx.held {
        if h != site {
            out.edges
                .entry((h, site))
                .or_insert_with(|| (ctx.rel.to_string(), line));
        }
    }
}

/// Edges for a resolved call's transitive acquisitions (the callee acquires
/// `site` while everything currently held stays held).
fn record_callee_acquire(site: usize, line: usize, ctx: &mut Ctx<'_, '_>, out: &mut Output) {
    for &(h, _) in &ctx.held {
        if h != site {
            out.edges
                .entry((h, site))
                .or_insert_with(|| (ctx.rel.to_string(), line));
        }
    }
}

fn g008(ctx: &Ctx<'_, '_>, out: &mut Output, line: usize, sink: &str, via: Option<&str>) {
    let held: Vec<&str> = ctx
        .held
        .iter()
        .map(|(s, _)| ctx.tables.sites[*s].name.as_str())
        .collect();
    let msg = match via {
        Some(callee) => format!(
            "lock guard(s) [{}] held across call to `{}`, which reaches blocking call(s) `{}` (in `{}`)",
            held.join(", "),
            callee,
            sink,
            ctx.fn_name
        ),
        None => format!(
            "lock guard(s) [{}] held across blocking call `{}` (in `{}`)",
            held.join(", "),
            sink,
            ctx.fn_name
        ),
    };
    out.findings.push(Finding {
        rule: "G008",
        file: ctx.rel.to_string(),
        line,
        message: msg,
    });
}

/// Scans one flat token run for acquisition, call, drop, and spawn events.
fn scan_run(
    lo: usize,
    hi: usize,
    ctx: &Ctx<'_, '_>,
    env: &HashMap<String, Vec<String>>,
) -> Vec<Ev> {
    let toks = ctx.toks;
    let mut evs = Vec::new();
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        let open = i + 1 < hi && matches!(toks[i + 1].kind, TokenKind::Punct('('));
        if !open {
            if name == "spawn" {
                evs.push(Ev::Spawn);
            }
            i += 1;
            continue;
        }
        if EXPR_KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        let no_args = i + 2 < hi && matches!(toks[i + 2].kind, TokenKind::Punct(')'));
        let close = close_of(toks, i + 1, hi);
        let preceded_dot = i > lo && matches!(toks[i - 1].kind, TokenKind::Punct('.'));
        let preceded_path = i > lo + 1
            && matches!(toks[i - 1].kind, TokenKind::Punct(':'))
            && matches!(toks[i - 2].kind, TokenKind::Punct(':'));

        // drop(g) — releases a bound guard.
        if name == "drop"
            && i + 3 < hi
            && toks[i + 2].kind == TokenKind::Ident
            && matches!(toks[i + 3].kind, TokenKind::Punct(')'))
        {
            evs.push(Ev::DropG {
                name: toks[i + 2].text.clone(),
            });
            i = close;
            continue;
        }

        // Acquisition: `<chain>.lock()/.read()/.write()` with no args. When
        // the chain does not name a lock field (e.g. `self.read()` on the
        // registry), fall through to call resolution below.
        if preceded_dot && no_args && matches!(name, "lock" | "read" | "write") {
            if let Some(chain) = chain_before(toks, i, lo) {
                if let Some(site) = resolve_site(&chain, ctx, env) {
                    evs.push(Ev::Acquire {
                        site,
                        line: t.line,
                        close,
                    });
                    i = close;
                    continue;
                }
            }
        }

        // Sink check (any call shape).
        let is_sink = SINKS.contains(&name) || (no_args && SINKS_NO_ARGS.contains(&name));

        // Call resolution.
        let fid = if preceded_dot {
            match chain_before(toks, i, lo) {
                Some(chain) => resolve_method(&chain, name, ctx, env),
                None => unique_method(name, ctx),
            }
        } else if preceded_path {
            if i >= lo + 3 && toks[i - 3].kind == TokenKind::Ident {
                let ty = toks[i - 3].text.clone();
                let ty = if ty == "Self" {
                    ctx.self_ty.clone().unwrap_or(ty)
                } else {
                    ty
                };
                ctx.tables.method.get(&(ty, name.to_string())).copied()
            } else {
                None
            }
        } else {
            ctx.tables.free.get(name).copied()
        };

        if fid.is_some() || is_sink {
            evs.push(Ev::Call {
                f: fid,
                sink: if is_sink {
                    Some(name.to_string())
                } else {
                    None
                },
                name: name.to_string(),
                line: t.line,
                close,
            });
        }
        i += 1;
    }
    evs
}

/// Token index just past the `)` matching the `(` at `open` (clamped to hi).
fn close_of(toks: &[Token], open: usize, hi: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < hi {
        match toks[i].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    hi
}

/// Walks backwards from the method ident at `i` to extract the receiver
/// member chain: `self.shards[k].exact.read()` → `["self", "shards",
/// "exact"]`. Index expressions are skipped. Returns `None` when the chain
/// head is not a plain ident (e.g. `(expr).lock()` or `f().lock()`).
fn chain_before(toks: &[Token], i: usize, lo: usize) -> Option<Vec<String>> {
    let mut chain = Vec::new();
    let mut j = i.checked_sub(2)?; // Before the `.`.
    loop {
        // Skip a `[…]` index backwards.
        if matches!(toks[j].kind, TokenKind::Punct(']')) {
            let mut d = 0usize;
            loop {
                match toks[j].kind {
                    TokenKind::Punct(']') => d += 1,
                    TokenKind::Punct('[') => d -= 1,
                    _ => {}
                }
                if d == 0 {
                    break;
                }
                if j == lo {
                    return None;
                }
                j -= 1;
            }
            if j == lo {
                return None;
            }
            j -= 1;
        }
        if toks[j].kind != TokenKind::Ident {
            return None;
        }
        chain.push(toks[j].text.clone());
        if j < lo + 2 || !matches!(toks[j - 1].kind, TokenKind::Punct('.')) {
            break;
        }
        j -= 2;
        // A call-result receiver like `f().g.lock()` is not a member chain.
        if matches!(toks[j].kind, TokenKind::Punct(')')) {
            return None;
        }
        if toks[j].kind != TokenKind::Ident && !matches!(toks[j].kind, TokenKind::Punct(']')) {
            return None;
        }
    }
    chain.reverse();
    Some(chain)
}

/// Resolves an acquisition chain to a lock site.
fn resolve_site(
    chain: &[String],
    ctx: &Ctx<'_, '_>,
    env: &HashMap<String, Vec<String>>,
) -> Option<usize> {
    if chain.len() == 1 {
        // `x.lock()` on a local/param that *is* the lock: unique-field
        // fallback (e.g. a `queue` parameter threaded into a helper).
        let ids = ctx.tables.by_field.get(&chain[0])?;
        return if ids.len() == 1 { Some(ids[0]) } else { None };
    }
    let field = chain.last()?;
    let owner_chain = &chain[..chain.len() - 1];
    if let Some(tys) = resolve_chain_types(owner_chain, ctx, env) {
        let mut hits: Vec<usize> = tys
            .iter()
            .filter_map(|t| {
                ctx.tables
                    .by_struct_field
                    .get(&(t.clone(), field.clone()))
                    .copied()
            })
            .collect();
        hits.sort_unstable();
        hits.dedup();
        if hits.len() == 1 {
            return Some(hits[0]);
        }
    }
    let ids = ctx.tables.by_field.get(field)?;
    if ids.len() == 1 {
        Some(ids[0])
    } else {
        None
    }
}

/// Resolves a method call through the receiver chain, with the globally
/// unique-name fallback.
fn resolve_method(
    chain: &[String],
    name: &str,
    ctx: &Ctx<'_, '_>,
    env: &HashMap<String, Vec<String>>,
) -> Option<usize> {
    if let Some(tys) = resolve_chain_types(chain, ctx, env) {
        let mut hits: Vec<usize> = tys
            .iter()
            .filter_map(|t| {
                ctx.tables
                    .method
                    .get(&(t.clone(), name.to_string()))
                    .copied()
            })
            .collect();
        hits.sort_unstable();
        hits.dedup();
        if hits.len() == 1 {
            return Some(hits[0]);
        }
        if !hits.is_empty() {
            return None; // Genuinely ambiguous across candidate types.
        }
    }
    unique_method(name, ctx)
}

fn unique_method(name: &str, ctx: &Ctx<'_, '_>) -> Option<usize> {
    let ids = ctx.tables.by_name.get(name)?;
    if ids.len() == 1 {
        Some(ids[0])
    } else {
        None
    }
}

/// Kosaraju SCC over the site graph; every SCC with ≥ 2 sites is a G009
/// finding listing the cycle's sites and witness edges.
fn detect_cycles(
    tables: &Tables<'_>,
    edges: &BTreeMap<(usize, usize), (String, usize)>,
) -> Vec<Finding> {
    let n = tables.sites.len();
    let mut adj = vec![Vec::new(); n];
    let mut radj = vec![Vec::new(); n];
    for &(a, b) in edges.keys() {
        adj[a].push(b);
        radj[b].push(a);
    }
    // Pass 1: finish order.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            if *ei < adj[v].len() {
                let w = adj[v][*ei];
                *ei += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    // Pass 2: components on the transpose, reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut ncomp = 0usize;
    for &start in order.iter().rev() {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = ncomp;
        while let Some(v) = stack.pop() {
            for &w in &radj[v] {
                if comp[w] == usize::MAX {
                    comp[w] = ncomp;
                    stack.push(w);
                }
            }
        }
        ncomp += 1;
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for v in 0..n {
        if comp[v] != usize::MAX {
            members[comp[v]].push(v);
        }
    }
    let mut findings = Vec::new();
    for m in members.iter().filter(|m| m.len() >= 2) {
        let names: Vec<&str> = m.iter().map(|&v| tables.sites[v].name.as_str()).collect();
        let mut witness: Vec<String> = Vec::new();
        let mut anchor: Option<(String, usize)> = None;
        for (&(a, b), (file, line)) in edges {
            if m.contains(&a) && m.contains(&b) {
                witness.push(format!(
                    "{} -> {} ({file}:{line})",
                    tables.sites[a].name, tables.sites[b].name
                ));
                if anchor.is_none() {
                    anchor = Some((file.clone(), *line));
                }
            }
        }
        let (file, line) = anchor.unwrap_or_else(|| {
            let s = &tables.sites[m[0]];
            (s.file.clone(), s.line)
        });
        findings.push(Finding {
            rule: "G009",
            file,
            line,
            message: format!(
                "potential deadlock: lock-order cycle among [{}]; edges: {}",
                names.join(", "),
                witness.join("; ")
            ),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> LockAnalysis {
        let files = vec![SourceFile {
            rel: "crates/demo/src/demo.rs".into(),
            crate_name: "demo".into(),
            src: src.into(),
        }];
        analyze(&files)
    }

    #[test]
    fn discovers_sites_and_edges() {
        let src = r#"
use std::sync::Mutex;
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }
}
"#;
        let r = run(src);
        assert_eq!(r.graph.nodes.len(), 2);
        assert_eq!(r.graph.edges.len(), 1, "{:?}", r.graph.edges);
        assert_eq!(r.graph.edges[0].from, "demo.demo.S.a");
        assert_eq!(r.graph.edges[0].to, "demo.demo.S.b");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn cycle_is_a_g009_finding() {
        let src = r#"
use std::sync::Mutex;
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn ab(&self) { let ga = self.a.lock(); let _gb = self.b.lock(); }
    fn ba(&self) { let gb = self.b.lock(); let _ga = self.a.lock(); }
}
"#;
        let r = run(src);
        assert_eq!(r.graph.edges.len(), 2, "{:?}", r.graph.edges);
        let g009: Vec<_> = r.findings.iter().filter(|f| f.rule == "G009").collect();
        assert_eq!(g009.len(), 1, "{:?}", r.findings);
        assert!(g009[0].message.contains("demo.demo.S.a"));
        assert!(g009[0].message.contains("demo.demo.S.b"));
    }

    #[test]
    fn guard_across_sink_is_g008() {
        let src = r#"
use std::sync::Mutex;
struct S { a: Mutex<u32> }
impl S {
    fn bad(&self, x: &Engine) {
        let g = self.a.lock();
        x.distance(1, 2);
    }
    fn ok(&self, x: &Engine) {
        { let g = self.a.lock(); }
        x.distance(1, 2);
    }
}
"#;
        let r = run(src);
        let g008: Vec<_> = r.findings.iter().filter(|f| f.rule == "G008").collect();
        assert_eq!(g008.len(), 1, "{:?}", r.findings);
        assert!(g008[0].message.contains("demo.demo.S.a"));
        assert!(g008[0].message.contains("distance"));
    }

    #[test]
    fn interprocedural_sink_reaches_caller() {
        let src = r#"
use std::sync::Mutex;
struct S { a: Mutex<u32> }
fn engine_entry() { helper(); }
fn helper() { let e = Engine; e.distance(0, 1); }
impl S {
    fn bad(&self) {
        let g = self.a.lock();
        engine_entry();
    }
}
"#;
        let r = run(src);
        let g008: Vec<_> = r.findings.iter().filter(|f| f.rule == "G008").collect();
        assert_eq!(g008.len(), 1, "{:?}", r.findings);
        assert!(
            g008[0].message.contains("engine_entry"),
            "{}",
            g008[0].message
        );
    }

    #[test]
    fn temp_guard_dies_at_statement_end() {
        let src = r#"
use std::sync::Mutex;
struct S { a: Mutex<Vec<u32>>, b: Mutex<u32> }
impl S {
    fn ok(&self) {
        let n = self.a.lock().len();
        let g = self.b.lock();
    }
}
"#;
        let r = run(src);
        assert!(r.graph.edges.is_empty(), "{:?}", r.graph.edges);
    }

    #[test]
    fn if_let_scrutinee_guard_held_over_block() {
        let src = r#"
use std::sync::Mutex;
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn e(&self) {
        if let Some(v) = self.a.lock().checked_add(1) {
            let g = self.b.lock();
        }
        let h = self.b.lock();
    }
}
"#;
        let r = run(src);
        assert_eq!(r.graph.edges.len(), 1, "{:?}", r.graph.edges);
        assert_eq!(r.graph.edges[0].from, "demo.demo.S.a");
        assert_eq!(r.graph.edges[0].to, "demo.demo.S.b");
    }

    #[test]
    fn guard_returning_fn_binds_at_caller() {
        let src = r#"
use std::sync::RwLock;
struct S { state: RwLock<Inner>, b: RwLock<u32> }
struct Inner { n: u32 }
impl S {
    fn read(&self) -> Guard<'_> { self.state.read() }
    fn uses(&self) {
        let st = self.read();
        let g = self.b.read();
    }
}
"#;
        let r = run(src);
        assert_eq!(r.graph.edges.len(), 1, "{:?}", r.graph.edges);
        assert_eq!(r.graph.edges[0].from, "demo.demo.S.state");
        assert_eq!(r.graph.edges[0].to, "demo.demo.S.b");
    }

    #[test]
    fn spawn_closure_runs_on_fresh_thread() {
        let src = r#"
use std::sync::Mutex;
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self, s: Arc<S>) {
        let g = self.a.lock();
        thread::spawn(move || {
            let h = s.b.lock();
        });
    }
}
"#;
        let r = run(src);
        // Holding a across spawn is G008, but no a->b edge (other thread).
        assert!(r.graph.edges.is_empty(), "{:?}", r.graph.edges);
        assert_eq!(
            r.findings.iter().filter(|f| f.rule == "G008").count(),
            1,
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn ambiguous_methods_are_skipped() {
        let src = r#"
use std::sync::Mutex;
struct A { a: Mutex<u32> }
struct B { b: Mutex<u32> }
impl A { fn get(&self) { let g = self.a.lock(); } }
impl B { fn get(&self) { let g = self.b.lock(); } }
fn caller(x: &Unknown) {
    x.get();
}
"#;
        let r = run(src);
        assert!(r.graph.edges.is_empty(), "{:?}", r.graph.edges);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn join_needs_empty_args() {
        let src = r#"
use std::sync::Mutex;
struct S { a: Mutex<u32> }
impl S {
    fn ok(&self, p: &Path) { let g = self.a.lock(); let q = p.join("x"); }
    fn bad(&self, h: Handle) { let g = self.a.lock(); let r = h.join(); }
}
"#;
        let r = run(src);
        let g008: Vec<_> = r.findings.iter().filter(|f| f.rule == "G008").collect();
        assert_eq!(g008.len(), 1, "{:?}", r.findings);
    }

    #[test]
    fn test_modules_are_skipped() {
        let src = r#"
use std::sync::Mutex;
struct S { a: Mutex<u32>, b: Mutex<u32> }
#[cfg(test)]
mod tests {
    fn f(s: &super::S) { let g = s.a.lock(); let h = s.b.lock(); }
}
"#;
        let r = run(src);
        assert!(r.graph.edges.is_empty(), "{:?}", r.graph.edges);
    }

    #[test]
    fn struct_literal_overlaps_all_guards() {
        let src = r#"
use std::sync::RwLock;
struct Shard { x: RwLock<u32>, y: RwLock<u32> }
impl Shard {
    fn snapshot(&self) -> Shard {
        Shard {
            x: RwLock::new(self.x.read().clone()),
            y: RwLock::new(self.y.read().clone()),
        }
    }
}
"#;
        let r = run(src);
        assert_eq!(r.graph.edges.len(), 1, "{:?}", r.graph.edges);
        assert_eq!(r.graph.edges[0].from, "demo.demo.Shard.x");
        assert_eq!(r.graph.edges[0].to, "demo.demo.Shard.y");
    }
}
