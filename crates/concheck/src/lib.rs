//! `ojv-concheck`: static concurrency soundness checks for the workspace.
//!
//! The same way `ojv-analysis` makes plan invariants machine-checked, this
//! crate makes concurrency invariants machine-checked. It is a token-level,
//! dependency-free pass (the substrate in [`scan`] is shared with the
//! `xtask` lint gate) that:
//!
//! * inventories every syntactic lock acquisition (`.lock()` / `.read()` /
//!   `.write()` with no arguments) and derives a **lock-acquisition-order
//!   graph** from guard live ranges, propagated across the workspace call
//!   graph — a cycle is a potential deadlock (`lock-order-cycle`);
//! * bans lock acquisition inside worker closures — every closure handed to
//!   a `spawn(..)`: workers coordinate through what they return at the
//!   join, not locks (`lock-in-worker`);
//! * bans holding a guard across a call to a caller-supplied callback,
//!   which would let user code re-enter the lock or block commit
//!   (`guard-across-callback`);
//! * bans `Ordering::Relaxed` atomics outside per-site justification —
//!   every relaxed site must argue why it is sound (`atomic-ordering`).
//!
//! Every check is suppressible per site with `// concheck:allow(id)` on the
//! offending line or the line above, and `#[cfg(test)]` regions are exempt.
//! Violations carry a stable invariant id plus `file:line`, exactly like
//! `PlanViolation` in `ojv-analysis`.

pub mod model;
pub mod scan;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::Path;

use model::FileModel;
use scan::{Masked, Tok};

/// One statically enforced concurrency invariant.
pub struct InvariantDef {
    /// Stable id, used in reports and `concheck:allow(..)` directives.
    pub id: &'static str,
    pub desc: &'static str,
    /// Where the invariant applies, for `--list` output.
    pub scope: &'static str,
}

/// All invariants, sorted by id (the `--list` golden test relies on this).
pub const INVARIANTS: [InvariantDef; 4] = [
    InvariantDef {
        id: "atomic-ordering",
        desc: "atomic ops must use SeqCst or Acquire/Release; each Relaxed site needs a concheck:allow with a reason",
        scope: "crates/*/src, src (non-test code)",
    },
    InvariantDef {
        id: "guard-across-callback",
        desc: "a lock guard must not be held across a call to a caller-supplied callback",
        scope: "crates/*/src, src (non-test code)",
    },
    InvariantDef {
        id: "lock-in-worker",
        desc: "no lock acquisition inside worker closures (spawn(..) arguments); workers coordinate via what they return at the join",
        scope: "crates/*/src, src (non-test code)",
    },
    InvariantDef {
        id: "lock-order-cycle",
        desc: "the workspace lock-acquisition-order graph must be acyclic (guard nesting + call-edge propagation)",
        scope: "workspace-wide graph over non-test code",
    },
];

/// A concurrency-invariant violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub invariant: &'static str,
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.invariant, self.detail
        )
    }
}

/// One edge of the lock-acquisition-order graph: while a `from`-class guard
/// is live, a `to`-class lock is acquired (directly or through a call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    /// 1-based line of the inner acquisition (or the propagating call).
    pub line: usize,
    /// `true` when the edge came from call-graph propagation rather than a
    /// lexically nested acquisition.
    pub via_call: bool,
}

/// Everything extracted from one file that the cross-file passes need,
/// owning its data so token lifetimes stay file-local.
struct Extracted {
    path: String,
    /// Per function: (name, acquires, calls) with token positions.
    fns: Vec<ExtractedFn>,
}

struct ExtractedFn {
    name: String,
    /// (class, method, 0-based line, tok, live_end) — test/allowed sites
    /// already filtered out for graph purposes.
    acquires: Vec<(String, &'static str, usize, usize, usize)>,
    /// (callee name, tok, 0-based line) for every syntactic call in the body.
    calls: Vec<(String, usize, usize)>,
}

/// Per-file checks plus extraction for the cross-file graph pass.
fn check_file(
    path: &str,
    masked: &Masked,
    toks: &[Tok<'_>],
    tests: &[bool],
    fm: &FileModel,
    out: &mut Vec<Violation>,
) -> Extracted {
    let exempt = |line: usize, id: &str| {
        tests.get(line).copied().unwrap_or(false) || masked.allowed(line, id)
    };

    // atomic-ordering: flag exactly `Ordering::Relaxed`. SeqCst, Acquire,
    // Release and AcqRel are allowed, and `cmp::Ordering` variants never
    // match this pattern.
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].text == "Ordering"
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && toks[i + 3].text == "Relaxed"
        {
            let line = toks[i + 3].line;
            if !exempt(line, "atomic-ordering") {
                out.push(Violation {
                    invariant: "atomic-ordering",
                    file: path.to_string(),
                    line: line + 1,
                    detail: "Ordering::Relaxed without a per-site justification".to_string(),
                });
            }
        }
    }

    // lock-in-worker: any acquisition lexically inside the argument list of
    // a `spawn(..)` call.
    let mut worker_spans: Vec<(usize, usize)> = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].text == "spawn" && toks[i + 1].text == "(" {
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < toks.len() {
                match toks[j].text {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            worker_spans.push((i + 1, j));
        }
    }
    for a in &fm.acquires {
        if worker_spans.iter().any(|&(s, e)| s < a.tok && a.tok < e)
            && !exempt(a.line, "lock-in-worker")
        {
            out.push(Violation {
                invariant: "lock-in-worker",
                file: path.to_string(),
                line: a.line + 1,
                detail: format!(
                    "`{}` {} acquired inside a spawned worker closure",
                    a.class, a.method
                ),
            });
        }
    }

    // guard-across-callback: a guard live range containing a call to one of
    // the enclosing function's callback parameters.
    for f in &fm.fns {
        if f.callback_params.is_empty() {
            continue;
        }
        for a in &fm.acquires {
            if a.tok < f.body.0 || a.tok > f.body.1 {
                continue;
            }
            // Only attribute to the innermost function.
            if fm
                .enclosing_fn(a.tok)
                .map(|inner| inner.fn_tok != f.fn_tok)
                .unwrap_or(true)
            {
                continue;
            }
            let end = a.live_end.min(f.body.1);
            for k in a.tok + 1..end {
                if k + 1 < toks.len()
                    && toks[k + 1].text == "("
                    && f.callback_params.iter().any(|p| p == toks[k].text)
                    && !exempt(a.line, "guard-across-callback")
                    && !exempt(toks[k].line, "guard-across-callback")
                {
                    out.push(Violation {
                        invariant: "guard-across-callback",
                        file: path.to_string(),
                        line: toks[k].line + 1,
                        detail: format!(
                            "guard on `{}` (acquired line {}) held across call to callback `{}`",
                            a.class,
                            a.line + 1,
                            toks[k].text
                        ),
                    });
                }
            }
        }
    }

    // Extraction for the workspace lock graph. Test-region and per-site
    // allowed acquires are dropped here so they never contribute edges.
    let mut fns = Vec::new();
    for f in &fm.fns {
        let mut acquires = Vec::new();
        for a in &fm.acquires {
            let innermost = fm
                .enclosing_fn(a.tok)
                .map(|inner| inner.fn_tok == f.fn_tok)
                .unwrap_or(false);
            if innermost && !exempt(a.line, "lock-order-cycle") {
                acquires.push((a.class.clone(), a.method, a.line, a.tok, a.live_end));
            }
        }
        // Call resolution is deliberately narrow: free calls (`helper(..)`)
        // and direct `self.method(..)` calls. Method calls on fields or
        // locals and `Type::assoc(..)` calls are NOT resolved — workspace
        // functions share names with std methods (`join`, `push`, `insert`,
        // `len`), and pooling those would connect the entire call graph to
        // every lock in the workspace.
        let mut calls = Vec::new();
        for k in f.body.0 + 1..f.body.1.min(toks.len().saturating_sub(1)) {
            let t = toks[k].text;
            if toks[k + 1].text != "("
                || model::is_keyword(t)
                || !t
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                || tests.get(toks[k].line).copied().unwrap_or(false)
            {
                continue;
            }
            let resolvable = if k == 0 {
                true
            } else {
                match toks[k - 1].text {
                    "fn" | ":" => false,
                    "." => {
                        k >= 2 && toks[k - 2].text == "self" && (k < 3 || toks[k - 3].text != ".")
                    }
                    _ => true,
                }
            };
            if resolvable {
                calls.push((t.to_string(), k, toks[k].line));
            }
        }
        fns.push(ExtractedFn {
            name: f.name.clone(),
            acquires,
            calls,
        });
    }
    Extracted {
        path: path.to_string(),
        fns,
    }
}

/// Transitive lock classes acquired by each function name, merged across the
/// workspace (same-name functions pool conservatively) and closed over the
/// call graph by fixpoint.
fn transitive_acquires(files: &[Extracted]) -> BTreeMap<String, BTreeSet<String>> {
    let mut acq: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut callees: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in files {
        for func in &f.fns {
            let a = acq.entry(func.name.clone()).or_default();
            for (class, ..) in &func.acquires {
                a.insert(class.clone());
            }
            let c = callees.entry(func.name.clone()).or_default();
            for (name, ..) in &func.calls {
                c.insert(name.clone());
            }
        }
    }
    let known: BTreeSet<String> = acq.keys().cloned().collect();
    loop {
        let mut changed = false;
        for name in &known {
            let called: Vec<String> = callees
                .get(name)
                .map(|s| s.iter().filter(|c| known.contains(*c)).cloned().collect())
                .unwrap_or_default();
            let mut add = BTreeSet::new();
            for c in &called {
                if let Some(set) = acq.get(c) {
                    add.extend(set.iter().cloned());
                }
            }
            let mine = acq.entry(name.clone()).or_default();
            for class in add {
                changed |= mine.insert(class);
            }
        }
        if !changed {
            break;
        }
    }
    acq
}

/// Build the lock-acquisition-order graph from extracted per-file data.
fn build_graph(files: &[Extracted]) -> Vec<LockEdge> {
    let trans = transitive_acquires(files);
    let known: BTreeSet<&String> = trans.keys().collect();
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let push = |edges: &mut Vec<LockEdge>,
                seen: &mut BTreeSet<(String, String)>,
                from: &str,
                to: &str,
                file: &str,
                line: usize,
                via_call: bool| {
        if seen.insert((from.to_string(), to.to_string())) {
            edges.push(LockEdge {
                from: from.to_string(),
                to: to.to_string(),
                file: file.to_string(),
                line: line + 1,
                via_call,
            });
        }
    };
    for f in files {
        for func in &f.fns {
            for (i, a) in func.acquires.iter().enumerate() {
                let (a_class, a_method, _a_line, a_tok, a_end) = a;
                // Direct nesting: a later acquire inside this guard range.
                for b in func.acquires.iter().skip(i + 1) {
                    let (b_class, b_method, b_line, b_tok, _b_end) = b;
                    if b_tok <= a_tok || *b_tok >= *a_end {
                        continue;
                    }
                    // Nested shared reads of one RwLock order nothing.
                    if a_class == b_class && *a_method == "read" && *b_method == "read" {
                        continue;
                    }
                    push(
                        &mut edges, &mut seen, a_class, b_class, &f.path, *b_line, false,
                    );
                }
                // Call propagation: a call inside the guard range pulls in
                // everything the callee transitively acquires.
                for (callee, c_tok, c_line) in &func.calls {
                    if c_tok <= a_tok || *c_tok >= *a_end || !known.contains(callee) {
                        continue;
                    }
                    if let Some(classes) = trans.get(callee) {
                        for to in classes {
                            push(&mut edges, &mut seen, a_class, to, &f.path, *c_line, true);
                        }
                    }
                }
            }
        }
    }
    edges
}

/// Strongly connected components (Tarjan) over the class graph; any SCC
/// with more than one node — or a self-loop — is a potential deadlock.
fn cycle_components(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut nodes: Vec<String> = Vec::new();
    for e in edges {
        if !nodes.contains(&e.from) {
            nodes.push(e.from.clone());
        }
        if !nodes.contains(&e.to) {
            nodes.push(e.to.clone());
        }
    }
    nodes.sort();
    let idx = |n: &str| nodes.iter().position(|x| x == n).unwrap();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for e in edges {
        adj[idx(&e.from)].push(idx(&e.to));
    }

    struct Tarjan<'a> {
        adj: &'a [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        sccs: Vec<Vec<usize>>,
    }
    impl Tarjan<'_> {
        fn visit(&mut self, v: usize) {
            self.index[v] = Some(self.next);
            self.low[v] = self.next;
            self.next += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for i in 0..self.adj[v].len() {
                let w = self.adj[v][i];
                if self.index[w].is_none() {
                    self.visit(w);
                    self.low[v] = self.low[v].min(self.low[w]);
                } else if self.on_stack[w] {
                    self.low[v] = self.low[v].min(self.index[w].unwrap());
                }
            }
            if self.low[v] == self.index[v].unwrap() {
                let mut comp = Vec::new();
                while let Some(w) = self.stack.pop() {
                    self.on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                self.sccs.push(comp);
            }
        }
    }
    let mut t = Tarjan {
        adj: &adj,
        index: vec![None; nodes.len()],
        low: vec![0; nodes.len()],
        on_stack: vec![false; nodes.len()],
        stack: Vec::new(),
        next: 0,
        sccs: Vec::new(),
    };
    for v in 0..nodes.len() {
        if t.index[v].is_none() {
            t.visit(v);
        }
    }
    let self_loops: BTreeSet<usize> = edges
        .iter()
        .filter(|e| e.from == e.to)
        .map(|e| idx(&e.from))
        .collect();
    let mut out: Vec<Vec<String>> = t
        .sccs
        .into_iter()
        .filter(|c| c.len() > 1 || self_loops.contains(&c[0]))
        .map(|c| {
            let mut names: Vec<String> = c.into_iter().map(|i| nodes[i].clone()).collect();
            names.sort();
            names
        })
        .collect();
    out.sort();
    out
}

/// Run the static analysis over `(path, source)` pairs.
pub fn check_sources(files: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut extracted = Vec::new();
    for (path, src) in files {
        let masked = scan::mask(src, "concheck:allow(");
        let toks = scan::tokenize(&masked.text);
        let tests = scan::test_lines(&masked.text);
        let fm = model::build(&toks);
        extracted.push(check_file(path, &masked, &toks, &tests, &fm, &mut out));
    }
    let edges = build_graph(&extracted);
    for comp in cycle_components(&edges) {
        let in_comp: Vec<&LockEdge> = edges
            .iter()
            .filter(|e| comp.contains(&e.from) && comp.contains(&e.to))
            .collect();
        let site = in_comp.first().expect("cycle component has an edge");
        let mut desc: Vec<String> = in_comp
            .iter()
            .map(|e| format!("{} -> {} ({}:{})", e.from, e.to, e.file, e.line))
            .collect();
        desc.sort();
        out.push(Violation {
            invariant: "lock-order-cycle",
            file: site.file.clone(),
            line: site.line,
            detail: format!(
                "lock-order cycle among {{{}}}: {}",
                comp.join(", "),
                desc.join("; ")
            ),
        });
    }
    out.sort_by(|a, b| (&a.file, a.line, a.invariant).cmp(&(&b.file, b.line, b.invariant)));
    out
}

/// The lock-acquisition-order graph for `(path, source)` pairs — exposed so
/// the runtime lock-witness can be cross-checked against the static view.
pub fn lock_graph(files: &[(String, String)]) -> Vec<LockEdge> {
    let mut extracted = Vec::new();
    let mut sink = Vec::new();
    for (path, src) in files {
        let masked = scan::mask(src, "concheck:allow(");
        let toks = scan::tokenize(&masked.text);
        let tests = scan::test_lines(&masked.text);
        let fm = model::build(&toks);
        extracted.push(check_file(path, &masked, &toks, &tests, &fm, &mut sink));
    }
    let mut edges = build_graph(&extracted);
    edges.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
    edges
}

/// Scan the workspace rooted at `root` (its `crates/` and `src/` trees).
pub fn run(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(check_sources(&scan::read_workspace(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(specs: &[(&str, &str)]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn invariant_ids_are_distinct_and_sorted() {
        let ids: Vec<&str> = INVARIANTS.iter().map(|d| d.id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(ids, sorted, "INVARIANTS must be sorted by id, unique");
    }

    #[test]
    fn seeded_relaxed_atomic_is_flagged() {
        let v = check_sources(&files(&[(
            "crates/x/src/lib.rs",
            "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }\n",
        )]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "atomic-ordering");
        assert_eq!(v[0].line, 1);
        assert_eq!(
            v[0].to_string(),
            format!("crates/x/src/lib.rs:1: [atomic-ordering] {}", v[0].detail)
        );
    }

    #[test]
    fn allow_and_cfg_test_suppress_atomic_ordering() {
        let allowed = "fn f(c: &AtomicUsize) {\n    // concheck:allow(atomic-ordering) monotonic counter\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(check_sources(&files(&[("crates/x/src/lib.rs", allowed)])).is_empty());
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn f(c: &AtomicUsize) { c.load(Ordering::Relaxed); }\n}\n";
        assert!(check_sources(&files(&[("crates/x/src/lib.rs", in_test)])).is_empty());
    }

    #[test]
    fn acquire_release_orderings_pass() {
        let src = "fn f(c: &AtomicUsize) {\n    c.store(1, Ordering::Release);\n    c.load(Ordering::Acquire);\n    c.fetch_add(1, Ordering::SeqCst);\n    c.fetch_or(1, Ordering::AcqRel);\n}\n";
        assert!(check_sources(&files(&[("crates/x/src/lib.rs", src)])).is_empty());
    }

    #[test]
    fn cmp_ordering_variants_never_match() {
        let src = "fn f(a: u32, b: u32) -> Ordering {\n    match a.cmp(&b) { Ordering::Less => Ordering::Less, o => o }\n}\n";
        assert!(check_sources(&files(&[("crates/x/src/lib.rs", src)])).is_empty());
    }

    #[test]
    fn seeded_lock_in_worker_is_flagged() {
        let src = "fn f(s: &Scope, m: &Mutex<u32>) {\n    s.spawn(move || {\n        let g = m.lock();\n        *g + 1\n    });\n}\n";
        let v = check_sources(&files(&[("crates/x/src/lib.rs", src)]));
        assert!(
            v.iter()
                .any(|v| v.invariant == "lock-in-worker" && v.line == 3),
            "{v:?}"
        );
    }

    #[test]
    fn lock_in_worker_allow_suppresses() {
        let src = "fn f(s: &Scope, m: &Mutex<u32>) {\n    s.spawn(move || {\n        // concheck:allow(lock-in-worker, lock-order-cycle) startup only\n        let g = m.lock();\n        *g + 1\n    });\n}\n";
        let v = check_sources(&files(&[("crates/x/src/lib.rs", src)]));
        assert!(v.iter().all(|v| v.invariant != "lock-in-worker"), "{v:?}");
    }

    #[test]
    fn seeded_guard_across_callback_is_flagged() {
        let src = "fn notify<F: FnMut(u64)>(m: &Mutex<u64>, cb: F) {\n    let g = m.lock();\n    cb(*g);\n}\n";
        let v = check_sources(&files(&[("crates/x/src/lib.rs", src)]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "guard-across-callback");
        assert_eq!(v[0].line, 3);
        assert!(v[0].detail.contains("`cb`"), "{}", v[0].detail);
    }

    #[test]
    fn callback_after_guard_drop_passes() {
        let src = "fn notify<F: FnMut(u64)>(m: &Mutex<u64>, cb: F) {\n    let v = { let g = m.lock(); *g };\n    cb(v);\n}\n";
        assert!(check_sources(&files(&[("crates/x/src/lib.rs", src)])).is_empty());
    }

    #[test]
    fn seeded_lock_order_cycle_is_flagged() {
        let src = "fn ab(a: &Mutex<u32>, b: &Mutex<u32>) {\n    let ga = a.lock();\n    let gb = b.lock();\n}\nfn ba(a: &Mutex<u32>, b: &Mutex<u32>) {\n    let gb = b.lock();\n    let ga = a.lock();\n}\n";
        let v = check_sources(&files(&[("crates/x/src/lib.rs", src)]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "lock-order-cycle");
        assert!(v[0].detail.contains("a -> b"), "{}", v[0].detail);
        assert!(v[0].detail.contains("b -> a"), "{}", v[0].detail);
    }

    #[test]
    fn cycle_through_call_edge_is_flagged() {
        let src = "fn helper(b: &Mutex<u32>) { let g = b.lock(); }\nfn ab(a: &Mutex<u32>, b: &Mutex<u32>) {\n    let ga = a.lock();\n    helper(b);\n}\nfn ba(a: &Mutex<u32>, b: &Mutex<u32>) {\n    let gb = b.lock();\n    let ga = a.lock();\n}\n";
        let v = check_sources(&files(&[("crates/x/src/lib.rs", src)]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "lock-order-cycle");
        let g = lock_graph(&files(&[("crates/x/src/lib.rs", src)]));
        assert!(
            g.iter().any(|e| e.from == "a" && e.to == "b" && e.via_call),
            "{g:?}"
        );
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let src = "fn ab(a: &Mutex<u32>, b: &Mutex<u32>) {\n    let ga = a.lock();\n    let gb = b.lock();\n}\nfn ab2(a: &Mutex<u32>, b: &Mutex<u32>) {\n    let ga = a.lock();\n    let gb = b.lock();\n}\n";
        let v = check_sources(&files(&[("crates/x/src/lib.rs", src)]));
        assert!(v.is_empty(), "{v:?}");
        let g = lock_graph(&files(&[("crates/x/src/lib.rs", src)]));
        assert_eq!(g.len(), 1);
        assert_eq!((g[0].from.as_str(), g[0].to.as_str()), ("a", "b"));
    }

    #[test]
    fn self_nested_lock_is_a_cycle_but_shared_reads_are_not() {
        let relock = "fn f(m: &Mutex<u32>) {\n    let g = m.lock();\n    let h = m.lock();\n}\n";
        let v = check_sources(&files(&[("crates/x/src/lib.rs", relock)]));
        assert!(v.iter().any(|v| v.invariant == "lock-order-cycle"), "{v:?}");
        let rr = "fn f(m: &RwLock<u32>) {\n    let g = m.read();\n    let h = m.read();\n}\n";
        assert!(check_sources(&files(&[("crates/x/src/lib.rs", rr)])).is_empty());
    }

    #[test]
    fn cross_file_cycle_is_flagged() {
        let v = check_sources(&files(&[
            (
                "crates/x/src/a.rs",
                "fn ab(a: &Mutex<u32>, b: &Mutex<u32>) { let g = a.lock(); let h = b.lock(); }\n",
            ),
            (
                "crates/y/src/b.rs",
                "fn ba(a: &Mutex<u32>, b: &Mutex<u32>) { let g = b.lock(); let h = a.lock(); }\n",
            ),
        ]));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "lock-order-cycle");
    }

    #[test]
    fn repo_scans_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("workspace root")
            .to_path_buf();
        let v = run(&root).expect("scan workspace");
        assert!(
            v.is_empty(),
            "concheck violations in repo:\n{}",
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
