//! The two lints.
//!
//! Both work on the token stream from [`crate::lexer`]; neither parses full
//! Rust. The patterns are chosen so the approximation errs toward
//! *silence* on code it cannot understand (an unrecognised receiver shape
//! is skipped, not guessed), and the fixture suite pins both the hits and
//! the non-hits.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{TokKind, Token};
use crate::{Diagnostic, SourceFile};

const LOCK_ORDER: &str = "lock-order";
const RELAXED_ATOMICS_AUDIT: &str = "relaxed-atomics-audit";

fn diag(lint: &'static str, file: &SourceFile, tok: &Token, message: String) -> Diagnostic {
    Diagnostic { lint, file: file.rel.clone(), line: tok.line, col: tok.col, message }
}

#[derive(Debug)]
struct HeldGuard {
    lock: String,
    /// `Some((var, depth))` for a bound guard: released by `drop(var)` or
    /// when the brace depth drops below `depth`. `None` for a temporary:
    /// released at the next `;` at its paren depth.
    binding: Option<(String, usize)>,
    paren_depth: usize,
    line: u32,
}

#[derive(Default)]
struct LockGraph {
    /// `held → acquired` with one witness site per edge.
    edges: BTreeMap<String, BTreeMap<String, (String, u32)>>,
}

/// `lock-order` — build the static lock-acquisition graph over every file
/// and report its cycles and self-deadlocks.
///
/// The model: an acquisition is `<name>.lock()`; the guard is *bound* when
/// the call is the entire right-hand side of a `let` (`let g = m.lock();`),
/// in which case it is held until `drop(g)` or the end of its block, and
/// *temporary* otherwise (held to the end of the statement). While any
/// guard is held, acquiring another lock records the edge
/// `held → acquired`. Locks are identified by receiver field/variable name
/// (`self.coordinator.lock()` → `coordinator`) — a deliberate
/// approximation: the runtime checker in `compat/parking_lot`
/// (`NMO_LOCK_CHECK=1`) tracks real lock instances and covers the
/// interprocedural orders this pass cannot see.
pub(crate) fn lock_order(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    let mut graph = LockGraph::default();
    for file in files {
        scan_file(file, &mut graph, diags);
    }
    report_cycles(&graph, diags);
}

fn scan_file(file: &SourceFile, graph: &mut LockGraph, diags: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    let mut held: Vec<HeldGuard> = Vec::new();
    let mut brace_depth = 0usize;
    let mut paren_depth = 0usize;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            brace_depth += 1;
            // A block open ends the preceding expression statement (an
            // `if cond {` condition's temporaries die here). `match`
            // scrutinee temporaries actually outlive this in real Rust,
            // which errs toward silence — the runtime checker covers it.
            held.retain(|g| g.binding.is_some());
        } else if t.is_punct('}') {
            brace_depth = brace_depth.saturating_sub(1);
            // A block close releases bound guards scoped inside it and
            // any temporary (an expression-form tail like
            // `self.inner.lock().head` has no `;` — the guard dies with
            // the enclosing block).
            held.retain(|g| match &g.binding {
                Some((_, depth)) => *depth <= brace_depth,
                None => false,
            });
        } else if t.is_punct('(') {
            paren_depth += 1;
        } else if t.is_punct(')') {
            paren_depth = paren_depth.saturating_sub(1);
        } else if t.is_punct(';') {
            // A temporary guard dies at the first `;` at or below the
            // paren depth it was created at (a `;` deeper inside a
            // closure argument does not end the outer statement).
            held.retain(|g| g.binding.is_some() || g.paren_depth < paren_depth);
        } else if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            let var = &toks[i + 2].text;
            held.retain(|g| g.binding.as_ref().map(|(v, _)| v != var).unwrap_or(true));
            i += 4;
            continue;
        } else if let Some((lock, site)) = match_acquisition(toks, i) {
            if !file.in_test_code(site.line) {
                for g in &held {
                    if g.lock == lock {
                        diags.push(diag(
                            LOCK_ORDER,
                            file,
                            site,
                            format!(
                                "lock `{lock}` acquired while already held \
                                     (first at line {}): self-deadlock",
                                g.line
                            ),
                        ));
                    } else {
                        graph
                            .edges
                            .entry(g.lock.clone())
                            .or_default()
                            .entry(lock.clone())
                            .or_insert_with(|| (file.rel.clone(), site.line));
                    }
                }
                let binding = binding_of(toks, i, brace_depth);
                held.push(HeldGuard { lock, binding, paren_depth, line: site.line });
            }
            // Skip past `. lock ( )`.
            i += 4;
            continue;
        }
        i += 1;
    }
}

/// Match `<ident> . lock ( )` at position `i` (pointing at the `.`).
/// Returns the receiver name and the `lock` token. `try_lock` is exempt:
/// it cannot block, so it cannot deadlock.
fn match_acquisition(toks: &[Token], i: usize) -> Option<(String, &Token)> {
    if !toks[i].is_punct('.') {
        return None;
    }
    let call = toks.get(i + 1)?;
    if !call.is_ident("lock") {
        return None;
    }
    if !toks.get(i + 2)?.is_punct('(') || !toks.get(i + 3)?.is_punct(')') {
        return None;
    }
    let recv = toks.get(i.checked_sub(1)?)?;
    if recv.kind != TokKind::Ident || recv.text == "self" {
        // `foo().lock()` or `self.lock()` — receiver shape we don't model.
        return None;
    }
    Some((recv.text.clone(), call))
}

/// Whether the acquisition at `i` (the `.` of `.lock()`) is the entire RHS
/// of a `let`: `let [mut] g = recv.lock() ;` — then the guard is bound to
/// `g` at the current brace depth.
fn binding_of(toks: &[Token], i: usize, brace_depth: usize) -> Option<(String, usize)> {
    // The token after `.lock()` must end the statement.
    if !toks.get(i + 4).is_some_and(|t| t.is_punct(';')) {
        return None;
    }
    // Walk back over the receiver chain: `a.b.c.lock()` — idents and dots.
    let mut j = i - 1; // receiver ident
    while j >= 2 && toks[j - 1].is_punct('.') && toks[j - 2].kind == TokKind::Ident {
        j -= 2;
    }
    // Optional leading `*` / `&` ignored (not produced by `let g = x.lock()`).
    if j < 2 || !toks[j - 1].is_punct('=') {
        return None;
    }
    let var = &toks[j - 2];
    if var.kind != TokKind::Ident {
        return None;
    }
    let let_pos = if toks.get(j.checked_sub(3)?).is_some_and(|t| t.is_ident("mut")) {
        j.checked_sub(4)?
    } else {
        j - 3
    };
    if toks.get(let_pos).is_some_and(|t| t.is_ident("let")) {
        Some((var.text.clone(), brace_depth))
    } else {
        None
    }
}

fn report_cycles(graph: &LockGraph, diags: &mut Vec<Diagnostic>) {
    // DFS with colouring; report each cycle once (dedup by node set).
    let nodes: Vec<&String> = graph.edges.keys().collect();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in nodes {
        let mut stack = vec![(start.clone(), vec![start.clone()])];
        let mut visited = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            if !visited.insert(node.clone()) {
                continue;
            }
            if let Some(next) = graph.edges.get(&node) {
                for follower in next.keys() {
                    if follower == start {
                        let mut cycle = path.clone();
                        let mut key = cycle.clone();
                        key.sort();
                        if reported.insert(key) {
                            cycle.push(start.clone());
                            let witnesses: Vec<String> = cycle
                                .windows(2)
                                .filter_map(|w| graph.edges.get(&w[0])?.get(&w[1]))
                                .map(|(f, l)| format!("{f}:{l}"))
                                .collect();
                            diags.push(Diagnostic {
                                lint: LOCK_ORDER,
                                file: witnesses
                                    .first()
                                    .and_then(|w| w.rsplit_once(':'))
                                    .map(|(f, _)| f.to_string())
                                    .unwrap_or_default(),
                                line: witnesses
                                    .first()
                                    .and_then(|w| w.rsplit_once(':'))
                                    .and_then(|(_, l)| l.parse().ok())
                                    .unwrap_or(1),
                                col: 1,
                                message: format!(
                                    "lock-order cycle: {} (acquisition sites: {})",
                                    cycle.join(" -> "),
                                    witnesses.join(", ")
                                ),
                            });
                        }
                    } else if !path.contains(follower) {
                        let mut p = path.clone();
                        p.push(follower.clone());
                        stack.push((follower.clone(), p));
                    }
                }
            }
        }
    }
}

/// `relaxed-atomics-audit` — every `Ordering::Relaxed` must carry a
/// `// relaxed-ok:` justification pinning why relaxed is sufficient.
pub(crate) fn relaxed_atomics_audit(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("Ordering") {
            continue;
        }
        if !(toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':')))
        {
            continue;
        }
        let Some(ord) = toks.get(i + 3) else { continue };
        if !ord.is_ident("Relaxed") {
            continue;
        }
        // The justification may sit on the `Relaxed` line, above it, or
        // (multi-line calls) attached to the line the statement starts
        // on — walk back to the previous statement boundary.
        let stmt_start = toks[..i]
            .iter()
            .rposition(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
            .and_then(|b| toks.get(b + 1))
            .map(|t| t.line)
            .unwrap_or(ord.line);
        if file.in_test_code(ord.line)
            || file.has_justification("relaxed-ok:", ord.line)
            || file.has_justification("relaxed-ok:", stmt_start)
        {
            continue;
        }
        diags.push(diag(
            RELAXED_ATOMICS_AUDIT,
            file,
            ord,
            "Ordering::Relaxed without a `// relaxed-ok: <why>` justification — \
                 pin why no happens-before edge is needed, or upgrade to Acquire/Release"
                .to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_lints;

    fn lint_src(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse("x.rs", src);
        run_lints(&[file])
    }

    fn ids(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.lint).collect()
    }

    #[test]
    fn lock_order_cycle_detected() {
        let src = "\
fn forward() {
    let a = alpha.lock();
    let b = beta.lock();
    drop(b);
    drop(a);
}
fn backward() {
    let b = beta.lock();
    let a = alpha.lock();
}
";
        let diags = lint_src(src);
        assert!(ids(&diags).contains(&"lock-order"), "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("alpha -> beta -> alpha")
            || d.message.contains("beta -> alpha -> beta")));
    }

    #[test]
    fn lock_order_consistent_is_clean() {
        let src = "\
fn one() {
    let a = alpha.lock();
    let b = beta.lock();
}
fn two() {
    let a = alpha.lock();
    let b = beta.lock();
}
";
        assert!(!ids(&lint_src(src)).contains(&"lock-order"));
    }

    #[test]
    fn lock_order_drop_releases() {
        // alpha is dropped before beta is taken, so no alpha->beta edge —
        // and the reverse order elsewhere therefore no cycle.
        let src = "\
fn one() {
    let a = alpha.lock();
    drop(a);
    let b = beta.lock();
}
fn two() {
    let b = beta.lock();
    let a = alpha.lock();
}
";
        assert!(!ids(&lint_src(src)).contains(&"lock-order"));
    }

    #[test]
    fn lock_order_temporary_guard_scope() {
        // A temporary guard (`x.lock().field`) dies at the statement end.
        let src = "\
fn one() {
    let t = alpha.lock().field;
    let b = beta.lock();
}
fn two() {
    let b = beta.lock();
    let t = alpha.lock().field;
}
";
        let diags = lint_src(src);
        // beta is held while alpha is temporarily taken in `two`, but the
        // reverse never happens: `one`'s alpha guard died at its `;`.
        assert!(!ids(&diags).contains(&"lock-order"), "{diags:?}");
    }

    #[test]
    fn lock_order_self_deadlock() {
        let src = "\
fn oops() {
    let a = alpha.lock();
    let b = alpha.lock();
}
";
        let diags = lint_src(src);
        assert!(diags
            .iter()
            .any(|d| d.lint == "lock-order" && d.message.contains("self-deadlock")));
    }

    #[test]
    fn relaxed_needs_justification() {
        let src = "\
fn f() {
    a.load(Ordering::Relaxed);
    // relaxed-ok: monotone counter, read for reporting only
    b.load(Ordering::Relaxed);
    c.load(Ordering::Acquire);
}
";
        let diags = lint_src(src);
        let hits: Vec<_> = diags.iter().filter(|d| d.lint == "relaxed-atomics-audit").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn relaxed_multiline_call_uses_expression_start() {
        let src = "\
fn f() {
    // relaxed-ok: simulated-time frontier, no data published through it
    x.compare_exchange_weak(
        prev,
        next,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
}
";
        // The comment sits above the call; both Relaxed tokens are justified
        // when the comment is attached to their own lines by the walk-up.
        let diags = lint_src(src);
        assert!(
            !ids(&diags).contains(&"relaxed-atomics-audit"),
            "walk-up over the argument lines should find the call comment: {diags:?}"
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
fn lib_code() {}
#[cfg(test)]
mod tests {
    fn f() {
        a.load(Ordering::Relaxed);
    }
}
";
        let diags = lint_src(src);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
