//! Dependency-free token-level lint gate for the maintenance pipeline.
//!
//! The scanner (`scan.rs`) blanks string/char literals and comments
//! (preserving newlines), tokenizes the rest, and lints match token
//! sequences — so `FxHashMap::new()` never matches the `default-hasher` lint
//! and `"unsafe"` inside a string never matches `unsafe-code`. Two rules also
//! need function boundaries and guard live ranges, which `model.rs` derives
//! from the tokens. Each lint has a stable id and a per-line escape hatch:
//! `// lint:allow(<id>)` on the offending line or the line directly above
//! suppresses the finding.

use std::io;
use std::path::Path;

use crate::model::{self, FileModel};
use crate::scan::{self, Tok};

/// A lint rule known to the scanner.
pub struct LintDef {
    pub id: &'static str,
    /// Where the rule is enforced (the confinement scope `--list` prints).
    pub scope: &'static str,
    pub desc: &'static str,
}

/// All lints, sorted by id — the order `--list` prints them.
pub const LINTS: [LintDef; 16] = [
    LintDef {
        id: "atomic-ordering",
        scope: "crates/, src/ (non-test code)",
        desc: "atomic ops use SeqCst or Acquire/Release; each Ordering::Relaxed site needs a \
               lint:allow(atomic-ordering) with the reason it is sound",
    },
    LintDef {
        id: "cast",
        scope: "crates/durability/src/",
        desc: "no `as u32`/`as u64` in the WAL framing (crates/durability) — use try_from",
    },
    LintDef {
        id: "default-hasher",
        scope: "crates/exec/src/, crates/storage/src/",
        desc:
            "no HashMap::new()/HashSet::new() default hasher in exec/storage (use ojv_rel fxhash)",
    },
    LintDef {
        id: "engine-locks",
        scope: "crates/{rel,storage,exec,core,feed,durability}/src/",
        desc: "no Mutex/RwLock/Condvar in the engine's non-test code outside the snapshot \
               registry (core/src/snapshot.rs) and the feed hub (feed/src/hub.rs), and no \
               on_commit( call in snapshot.rs — with the crate graph this leaves hub -> \
               registry as the only possible lock order (DESIGN.md §11)",
    },
    LintDef {
        id: "feed-eval-confined",
        scope: "everywhere but crates/feed/src/",
        desc: "no subscription-predicate evaluation (matches_row) outside crates/feed — \
               per-subscriber filtering must go through the hub's deduplicated fan-out, \
               never ad hoc loops that re-evaluate once per subscriber",
    },
    LintDef {
        id: "fs-outside-durability",
        scope: "everywhere but crates/{durability,bench,xtask}/",
        desc: "no std::fs / File:: outside crates/durability, crates/bench and crates/xtask \
               (everything else goes through the Vfs trait)",
    },
    LintDef {
        id: "guard-across-callback",
        scope: "crates/, src/ (non-test code)",
        desc: "a lock guard is not held across a call to a caller-supplied callback \
               (an Fn/FnMut/FnOnce parameter), which could re-enter the lock or block commit",
    },
    LintDef {
        id: "no-engine-threads",
        scope: "crates/{rel,storage,exec,core,feed,durability}/src/",
        desc: "no thread::spawn, thread::scope or .spawn( in the engine's non-test code — \
               each commit runs on the caller's thread (a thread-count sweep never beat \
               serial); concurrency lives with the callers, e.g. snapshot readers",
    },
    LintDef {
        id: "owned-key-index",
        scope: "crates/{storage,exec,core,feed}/src/ except core/src/{agg_view,baseline}.rs, \
                feed/src/update_set.rs",
        desc:
            "no FxHashMap<Vec<Datum>, _> / FxHashSet<Vec<Datum>> in storage, exec, core or feed — \
               keyed structures are ojv_rel::PosTable (hash -> position) verified against rows \
               already held, so no key is owned beside them. Exceptions: \
               core/src/agg_view.rs (aggregate groups, still to be moved onto PosTable), \
               core/src/baseline.rs and feed/src/update_set.rs (reference implementations)",
    },
    LintDef {
        id: "panic-hot-path",
        scope: "crates/exec/src/{eval,ops/join,ops/dedup}.rs",
        desc: "no unwrap()/expect()/panic! in eval/join/dedup hot paths outside tests",
    },
    LintDef {
        id: "plan-compile-confined",
        scope: "crates/core/src/ except {compile,analyze}.rs",
        desc: "plan derivation/verification (primary_delta_plan, verify_static, \
               verify_maintenance, verify_from_view) only in core's compile/analyze modules \
               — everything else consumes CompiledMaintenancePlan",
    },
    LintDef {
        id: "sched-seed-logged",
        scope: "all scanned files",
        desc: "every run_seeded/interleavings call site must embed its seed (or trace) in a \
               nearby string — a failure that does not name its schedule cannot be replayed",
    },
    LintDef {
        id: "shard-routing-confined",
        scope: "everywhere but crates/storage/src/shard.rs, crates/core/src/shard.rs",
        desc: "no direct ShardId/ShardRouter construction or route_* calls outside the \
               router's module and core's shard engine (the durable layer above it names \
               no router) — a second routing decision point can disagree with the engine's \
               and send a row's maintenance to the wrong shard",
    },
    LintDef {
        id: "unsafe-code",
        scope: "everywhere but crates/rel/src/alloc.rs",
        desc: "unsafe only in the allowlisted crates/rel/src/alloc.rs",
    },
    LintDef {
        id: "vec-vec-datum",
        scope: "crates/exec/src/",
        desc: "no Vec<Vec<Datum>> row batches in crates/exec (use RowBuf)",
    },
    LintDef {
        id: "view-store-mutation",
        scope: "crates/core/src/ except {materialize,maintain,baseline}.rs",
        desc: "no direct ViewStore mutation (store_mut) outside the maintenance commit path \
               (core's materialize/maintain/baseline) — readers go through snapshots so the \
               registry's journaled tips never drift from the working stores",
    },
];

/// One finding: which lint fired, where, and the offending source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub lint: &'static str,
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub excerpt: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.excerpt
        )
    }
}

/// Does `lint` apply to the file at workspace-relative `path`?
fn applies(lint: &str, path: &str) -> bool {
    match lint {
        "vec-vec-datum" => path.starts_with("crates/exec/src/"),
        // An index keyed by owned keys stores every key a second time beside
        // the rows it indexes and allocates one per row on the apply path.
        // The exceptions are named (with reasons) in the rule's LintDef.
        "owned-key-index" => {
            [
                "crates/storage/src/",
                "crates/exec/src/",
                "crates/core/src/",
                "crates/feed/src/",
            ]
            .iter()
            .any(|dir| path.starts_with(dir))
                && !matches!(
                    path,
                    "crates/core/src/agg_view.rs"
                        | "crates/core/src/baseline.rs"
                        | "crates/feed/src/update_set.rs"
                )
        }
        "default-hasher" => {
            path.starts_with("crates/exec/src/") || path.starts_with("crates/storage/src/")
        }
        "panic-hot-path" => matches!(
            path,
            "crates/exec/src/eval.rs"
                | "crates/exec/src/ops/join.rs"
                | "crates/exec/src/ops/dedup.rs"
        ),
        "unsafe-code" => path != "crates/rel/src/alloc.rs",
        // Durability is where the real filesystem is abstracted behind the
        // Vfs trait; bench needs to emit result files; xtask *is* the file
        // scanner. Everyone else must go through a Vfs so fault injection
        // covers them.
        "fs-outside-durability" => {
            !path.starts_with("crates/durability/")
                && !path.starts_with("crates/bench/")
                && !path.starts_with("crates/xtask/")
        }
        // Silent truncation in record framing corrupts the log; the WAL
        // code converts with try_from and handles the error.
        "cast" => path.starts_with("crates/durability/src/"),
        // Plans are compiled (and statically verified) exactly once, in the
        // compile module; analyze hosts the derivation primitives. The rest
        // of the crate must go through the cached CompiledMaintenancePlan so
        // the hot path never re-derives or re-verifies.
        "plan-compile-confined" => {
            path.starts_with("crates/core/src/")
                && path != "crates/core/src/compile.rs"
                && path != "crates/core/src/analyze.rs"
        }
        // Every ViewStore mutation must be journaled for the snapshot
        // registry; mutations are confined to the commit path (maintain,
        // the GK/recompute baselines) and the store's own module. Anything
        // else mutating a store would bypass the journal and desynchronize
        // the registry's version chains.
        "view-store-mutation" => {
            path.starts_with("crates/core/src/")
                && path != "crates/core/src/materialize.rs"
                && path != "crates/core/src/maintain.rs"
                && path != "crates/core/src/baseline.rs"
        }
        // The engine spawns no threads: every commit's maintenance, shard
        // loop and feed fan-out run on the caller's thread. Benches, tests
        // and tools may spawn (reader stress, throughput panels). The engine
        // holds exactly two locks, whose homes `engine-locks` names.
        "no-engine-threads" | "engine-locks" => {
            ["rel", "storage", "exec", "core", "feed", "durability"]
                .iter()
                .any(|c| path.starts_with(&format!("crates/{c}/src/")))
        }
        // Library and tool code; the workspace-root suites count relaxed
        // throughput counters freely.
        "atomic-ordering" | "guard-across-callback" => {
            path.starts_with("crates/") || path.starts_with("src/")
        }
        // Subscription predicates are evaluated once per filter group inside
        // the feed hub's fan-out; a `matches_row` call site anywhere else is
        // a per-subscriber loop bypassing the dedup (the exact O(subscribers)
        // blow-up the hub exists to avoid).
        "feed-eval-confined" => !path.starts_with("crates/feed/src/"),
        // Routing is decided in exactly two places: the router's own module
        // and the core engine that owns the shards. Any other call site —
        // the durable layer above the engine included — could hash
        // differently (or construct a ShardId out of thin air) and route a
        // row's maintenance to a shard that does not own it.
        "shard-routing-confined" => {
            path != "crates/storage/src/shard.rs" && path != "crates/core/src/shard.rs"
        }
        // Seed discipline applies to every scanned file, test or not.
        "sched-seed-logged" => true,
        _ => false,
    }
}

/// Scan one file's source. `rel_path` is workspace-relative with `/`
/// separators; it decides which lints apply.
pub fn scan_file(rel_path: &str, src: &str) -> Vec<Violation> {
    let path = rel_path.replace('\\', "/");
    let masked = scan::mask(src);
    let toks = scan::tokenize(&masked.text);
    let test_lines = scan::test_lines(&masked.text);
    let in_test = |line: usize| test_lines.get(line).copied().unwrap_or(false);
    let src_lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();

    let seq = |i: usize, pat: &[&str]| {
        pat.iter()
            .enumerate()
            .all(|(k, p)| toks.get(i + k).is_some_and(|t| t.text == *p))
    };

    let record = |lint: &'static str, line: usize, out: &mut Vec<Violation>| {
        if masked.allowed(line, lint) {
            return;
        }
        out.push(Violation {
            lint,
            file: path.clone(),
            line: line + 1,
            excerpt: src_lines.get(line).map_or("", |l| l.trim()).to_string(),
        });
    };

    for (i, tok) in toks.iter().enumerate() {
        let line = tok.line;
        if applies("vec-vec-datum", &path) && seq(i, &["Vec", "<", "Vec", "<", "Datum", ">", ">"]) {
            record("vec-vec-datum", line, &mut out);
        }
        if applies("owned-key-index", &path)
            && (seq(i, &["FxHashMap", "<", "Vec", "<", "Datum", ">"])
                || seq(i, &["FxHashSet", "<", "Vec", "<", "Datum", ">"]))
        {
            record("owned-key-index", line, &mut out);
        }
        if applies("default-hasher", &path)
            && (tok.text == "HashMap" || tok.text == "HashSet")
            && seq(i + 1, &[":", ":", "new", "(", ")"])
        {
            record("default-hasher", line, &mut out);
        }
        if applies("panic-hot-path", &path)
            && !in_test(line)
            && (seq(i, &[".", "unwrap", "(", ")"])
                || seq(i, &[".", "expect", "("])
                || seq(i, &["panic", "!", "("]))
        {
            record("panic-hot-path", line, &mut out);
        }
        if applies("unsafe-code", &path) && tok.text == "unsafe" {
            record("unsafe-code", line, &mut out);
        }
        if applies("fs-outside-durability", &path)
            && (seq(i, &["std", ":", ":", "fs"]) || seq(i, &["File", ":", ":"]))
        {
            record("fs-outside-durability", line, &mut out);
        }
        if applies("cast", &path)
            && tok.text == "as"
            && toks
                .get(i + 1)
                .is_some_and(|t| t.text == "u32" || t.text == "u64")
        {
            record("cast", line, &mut out);
        }
        if applies("plan-compile-confined", &path)
            && !in_test(line)
            && matches!(
                tok.text,
                "primary_delta_plan" | "verify_static" | "verify_maintenance" | "verify_from_view"
            )
        {
            record("plan-compile-confined", line, &mut out);
        }
        if applies("view-store-mutation", &path) && !in_test(line) && tok.text == "store_mut" {
            record("view-store-mutation", line, &mut out);
        }
        // The registry and the hub own the engine's only locks; the
        // registry never calls back into an observer, so no code path can
        // take the hub lock while the registry lock is held.
        if applies("engine-locks", &path)
            && !in_test(line)
            && ((matches!(tok.text, "Mutex" | "RwLock" | "Condvar")
                && path != "crates/core/src/snapshot.rs"
                && path != "crates/feed/src/hub.rs")
                || (path == "crates/core/src/snapshot.rs"
                    && tok.text == "on_commit"
                    && seq(i + 1, &["("])
                    && !(i > 0 && toks[i - 1].text == "fn")))
        {
            record("engine-locks", line, &mut out);
        }
        // Exactly `Ordering::Relaxed`: `cmp::Ordering` variants never match.
        if applies("atomic-ordering", &path)
            && seq(i, &["Ordering", ":", ":", "Relaxed"])
            && !in_test(line)
        {
            record("atomic-ordering", toks[i + 3].line, &mut out);
        }
        if applies("no-engine-threads", &path)
            && !in_test(line)
            && (seq(i, &["thread", ":", ":", "spawn"])
                || seq(i, &["thread", ":", ":", "scope"])
                || seq(i, &[".", "spawn", "("]))
        {
            record("no-engine-threads", line, &mut out);
        }
        if applies("feed-eval-confined", &path) && !in_test(line) && tok.text == "matches_row" {
            record("feed-eval-confined", line, &mut out);
        }
        if applies("shard-routing-confined", &path)
            && !in_test(line)
            && ((matches!(tok.text, "ShardId" | "ShardRouter")
                && seq(i + 1, &[":", ":", "new", "("]))
                || (matches!(tok.text, "route" | "route_key" | "route_ref" | "route_with")
                    && i > 0
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|t| t.text == "(")))
        {
            record("shard-routing-confined", line, &mut out);
        }
    }

    let fm = model::build(&toks);
    // A guard live across a call of one of the enclosing function's
    // callback parameters. An allow on the acquisition covers every call.
    if applies("guard-across-callback", &path) {
        for a in &fm.acquires {
            let Some(f) = fm.enclosing_fn(a.tok) else {
                continue;
            };
            if f.callback_params.is_empty()
                || in_test(a.line)
                || masked.allowed(a.line, "guard-across-callback")
            {
                continue;
            }
            let live = &toks[a.tok + 1..a.live_end.min(f.body.1)];
            for (k, t) in live.iter().enumerate() {
                if seq(a.tok + 2 + k, &["("]) && f.callback_params.iter().any(|p| p == t.text) {
                    record("guard-across-callback", t.line, &mut out);
                }
            }
        }
    }
    if applies("sched-seed-logged", &path) {
        seed_logged(&path, &masked, &toks, &fm, &src_lines, &mut out);
    }
    out
}

/// The `sched-seed-logged` rule: a function that drives the deterministic
/// scheduler (`run_seeded(..)` or `interleavings(..)`) must mention its seed
/// (or recorded trace) in at least one string literal inside that function —
/// an assert message, a `println!`, a `format!` — so a failing schedule can
/// always be replayed from the output alone.
fn seed_logged(
    path: &str,
    masked: &scan::Masked,
    toks: &[Tok<'_>],
    fm: &FileModel,
    src_lines: &[&str],
    out: &mut Vec<Violation>,
) {
    for (i, tok) in toks.iter().enumerate() {
        if !matches!(tok.text, "run_seeded" | "interleavings") {
            continue;
        }
        // Call sites only: `run_seeded(`, not the definition (`fn
        // run_seeded(`) and not an import path segment or `use` list entry.
        let is_call = toks.get(i + 1).is_some_and(|t| t.text == "(");
        if !is_call || (i > 0 && toks[i - 1].text == "fn") {
            continue;
        }
        let Some(f) = fm.enclosing_fn(i) else {
            continue;
        };
        let mentions_seed = masked.strings.iter().any(|(l, s)| {
            (f.lines.0..=f.lines.1).contains(l)
                && (s.to_ascii_lowercase().contains("seed")
                    || s.to_ascii_lowercase().contains("trace"))
        });
        if !mentions_seed && !masked.allowed(tok.line, "sched-seed-logged") {
            out.push(Violation {
                lint: "sched-seed-logged",
                file: path.to_string(),
                line: tok.line + 1,
                excerpt: src_lines.get(tok.line).map_or("", |l| l.trim()).to_string(),
            });
        }
    }
}

/// Scan every `.rs` file under `crates/`, `src/`, and `tests/` of the
/// workspace rooted at `root`. Returns all findings, ordered by path.
pub fn run(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(scan::read_workspace(root)?
        .iter()
        .flat_map(|(rel, src)| scan_file(rel, src))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn lint_ids_are_distinct() {
        for (i, a) in LINTS.iter().enumerate() {
            for b in &LINTS[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    /// `--list` order is part of the golden output: ids sorted, stable.
    #[test]
    fn lints_are_sorted_by_id() {
        for w in LINTS.windows(2) {
            assert!(w[0].id < w[1].id, "{} !< {}", w[0].id, w[1].id);
        }
    }

    #[test]
    fn vec_vec_datum_detected_in_exec_only() {
        let src = "fn f() { let x: Vec<Vec<Datum>> = Vec::new(); }\n";
        let v = scan_file("crates/exec/src/ops/foo.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "vec-vec-datum");
        assert_eq!(v[0].line, 1);
        // Same code outside crates/exec is not in scope.
        assert!(scan_file("crates/core/src/foo.rs", src).is_empty());
    }

    #[test]
    fn vec_vec_datum_spanning_whitespace_still_matches() {
        let src = "fn f() { let x: Vec< Vec < Datum > > = make(); }\n";
        let v = scan_file("crates/exec/src/foo.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "vec-vec-datum");
    }

    #[test]
    fn owned_key_index_detected_in_storage_exec_core_and_feed() {
        let src = "struct T { unique: FxHashMap<Vec<Datum>, usize> }\n";
        let set = "fn f() { let seen: FxHashSet<Vec<Datum>> = FxHashSet::default(); }\n";
        for path in [
            "crates/storage/src/table.rs",
            "crates/exec/src/ops/dedup.rs",
            "crates/core/src/materialize.rs",
            "crates/feed/src/hub.rs",
        ] {
            for code in [src, set] {
                let v = scan_file(path, code);
                assert_eq!(v.len(), 1, "{path}: {code}");
                assert_eq!(v[0].lint, "owned-key-index");
            }
        }
        // Whitespace and a multi-valued payload do not hide it.
        let spaced = "fn f() { let m: FxHashMap< Vec <Datum>, Vec<usize>> = make(); }\n";
        assert_eq!(scan_file("crates/storage/src/foo.rs", spaced).len(), 1);
        // The named exceptions and other crates are out of scope.
        for path in [
            "crates/core/src/agg_view.rs",
            "crates/core/src/baseline.rs",
            "crates/feed/src/update_set.rs",
            "crates/rel/src/postable.rs",
        ] {
            assert!(scan_file(path, src).is_empty(), "{path}");
            assert!(scan_file(path, set).is_empty(), "{path}");
        }
        // Maps and sets keyed by anything else are fine.
        let by_name = "struct C { by_name: FxHashMap<String, usize>, ids: FxHashSet<u64> }\n";
        assert!(scan_file("crates/storage/src/catalog.rs", by_name).is_empty());
    }

    /// A seeded owned-key index fails the gate in each crate of the scope.
    #[test]
    fn seeded_owned_key_index_fails_the_gate() {
        let root = std::env::temp_dir().join(format!("xtask-lint-okey-{}", std::process::id()));
        let seeded = [
            (
                "crates/storage/src",
                "struct Idx { map: FxHashMap<Vec<Datum>, Vec<usize>> }\n",
            ),
            (
                "crates/exec/src/ops",
                "fn agg(rows: &RowBuf) { let groups: FxHashMap<Vec<Datum>, Acc> = make(); }\n",
            ),
            (
                "crates/core/src",
                "fn f() { let s: FxHashSet<Vec<Datum>> = make(); }\n",
            ),
            (
                "crates/feed/src",
                "struct Shadow { rows: FxHashMap<Vec<Datum>, Row> }\n",
            ),
        ];
        for (dir, src) in seeded {
            fs::create_dir_all(root.join(dir)).unwrap();
            fs::write(root.join(dir).join("seeded.rs"), src).unwrap();
        }
        let v = run(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|x| x.lint == "owned-key-index"));
        let files: Vec<&str> = v.iter().map(|x| x.file.as_str()).collect();
        for (dir, _) in seeded {
            assert!(
                files.contains(&format!("{dir}/seeded.rs").as_str()),
                "{files:?}"
            );
        }
    }

    #[test]
    fn default_hasher_detected_but_fxhash_is_fine() {
        let bad = "fn f() { return HashMap::new(); }\n";
        let v = scan_file("crates/storage/src/foo.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "default-hasher");
        // Identifier boundary: FxHashMap must NOT match HashMap.
        let good = "fn f() { let m: FxHashMap<u32, u32> = FxHashMap::default(); }\n";
        assert!(scan_file("crates/storage/src/foo.rs", good).is_empty());
        let set = "fn f() { let s = HashSet::new(); }\n";
        assert_eq!(
            scan_file("crates/exec/src/foo.rs", set)[0].lint,
            "default-hasher"
        );
    }

    #[test]
    fn panic_hot_path_skips_tests_and_out_of_scope_files() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
        let v = scan_file("crates/exec/src/eval.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "panic-hot-path");
        // The same code inside a #[cfg(test)] region is exempt.
        let tested =
            "#[cfg(test)]\nmod tests {\n    fn f(o: Option<u32>) -> u32 { o.unwrap() }\n}\n";
        assert!(scan_file("crates/exec/src/eval.rs", tested).is_empty());
        // Non-hot-path files are out of scope.
        assert!(scan_file("crates/exec/src/ops/agg.rs", src).is_empty());
        // expect and panic! also fire.
        let src2 = "fn g(o: Option<u32>) { o.expect(\"boom\"); panic!(\"no\"); }\n";
        let v2 = scan_file("crates/exec/src/ops/join.rs", src2);
        assert_eq!(v2.len(), 2);
    }

    #[test]
    fn unsafe_detected_everywhere_except_alloc() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
        let v = scan_file("crates/exec/src/foo.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "unsafe-code");
        assert!(scan_file("crates/rel/src/alloc.rs", src).is_empty());
        // Identifier boundary: `unsafe_code` (as in the forbid attribute) is
        // one token and must not match.
        let attr = "#![forbid(unsafe_code)]\n";
        assert!(scan_file("crates/core/src/lib.rs", attr).is_empty());
    }

    #[test]
    fn literals_and_comments_are_masked() {
        let src = concat!(
            "// unsafe HashMap::new() in a comment\n",
            "/* unsafe\n   Vec<Vec<Datum>> */\n",
            "fn f() -> &'static str { \"unsafe .unwrap() HashMap::new()\" }\n",
            "fn g() -> char { '\\'' }\n",
            "fn h() -> &'static str { r#\"unsafe \"quoted\" panic!(\"#  }\n",
        );
        assert!(scan_file("crates/exec/src/eval.rs", src).is_empty());
    }

    #[test]
    fn lint_allow_suppresses_on_same_or_previous_line() {
        let same = "fn f() { let m = HashMap::new(); } // lint:allow(default-hasher)\n";
        assert!(scan_file("crates/storage/src/foo.rs", same).is_empty());
        let above = "// lint:allow(default-hasher) keyed by small ints\nfn f() { let m = HashMap::new(); }\n";
        assert!(scan_file("crates/storage/src/foo.rs", above).is_empty());
        // The wrong id does not suppress.
        let wrong = "fn f() { let m = HashMap::new(); } // lint:allow(unsafe-code)\n";
        assert_eq!(scan_file("crates/storage/src/foo.rs", wrong).len(), 1);
        // An allow two lines up does not leak downward.
        let far = "// lint:allow(default-hasher)\n\nfn f() { let m = HashMap::new(); }\n";
        assert_eq!(scan_file("crates/storage/src/foo.rs", far).len(), 1);
    }

    #[test]
    fn fs_banned_outside_durability_bench_xtask() {
        let uses = "use std::fs;\nfn f() { let _ = std::fs::read(\"x\"); }\n";
        let v = scan_file("crates/core/src/durable.rs", uses);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.lint == "fs-outside-durability"));
        let file = "fn f() { let _ = File::open(\"x\"); }\n";
        assert_eq!(
            scan_file("crates/exec/src/foo.rs", file)[0].lint,
            "fs-outside-durability"
        );
        // Identifier boundary: FaultFile::new is not File::.
        let fault = "fn f() { let _ = FaultFile::new(inner, spec); }\n";
        assert!(scan_file("crates/testkit/src/fault.rs", fault).is_empty());
        // The allowlisted crates are exempt.
        for path in [
            "crates/durability/src/vfs.rs",
            "crates/bench/src/bin/repro.rs",
            "crates/xtask/src/scan.rs",
        ] {
            assert!(scan_file(path, uses).is_empty(), "{path}");
        }
        // The escape hatch still works.
        let allowed = "use std::fs; // lint:allow(fs-outside-durability)\n";
        assert!(scan_file("crates/core/src/foo.rs", allowed).is_empty());
    }

    #[test]
    fn cast_banned_in_wal_framing() {
        let src = "fn f(n: usize) -> u32 { n as u32 }\nfn g(n: usize) -> u64 { n as u64 }\n";
        let v = scan_file("crates/durability/src/wal.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.lint == "cast"));
        // Widening into usize is fine (cannot truncate).
        let widen = "fn f(n: u32) -> usize { n as usize }\n";
        assert!(scan_file("crates/durability/src/wal.rs", widen).is_empty());
        // Out of scope elsewhere.
        assert!(scan_file("crates/exec/src/eval.rs", src).is_empty());
        // Escape hatch.
        let allowed = "fn f(n: usize) -> u32 { n as u32 } // lint:allow(cast)\n";
        assert!(scan_file("crates/durability/src/wal.rs", allowed).is_empty());
    }

    #[test]
    fn plan_compile_confined_to_compile_and_analyze() {
        let src = "fn f(a: &ViewAnalysis) { let _ = a.primary_delta_plan(t, true, true); }\n";
        let v = scan_file("crates/core/src/maintain.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "plan-compile-confined");
        // The compile and analyze modules are the sanctioned homes.
        assert!(scan_file("crates/core/src/compile.rs", src).is_empty());
        assert!(scan_file("crates/core/src/analyze.rs", src).is_empty());
        // Other crates are out of scope (bench renders plans for reports).
        assert!(scan_file("crates/bench/src/bin/repro.rs", src).is_empty());
        // Every verifier entry point is covered.
        let verifiers = "fn g(a: &ViewAnalysis) {\n    a.verify_static(c);\n    a.verify_maintenance(t, true, true, &m, None);\n    a.verify_from_view(0);\n}\n";
        let v2 = scan_file("crates/core/src/sql.rs", verifiers);
        assert_eq!(v2.len(), 3);
        assert!(v2.iter().all(|x| x.lint == "plan-compile-confined"));
        // Tests may exercise the primitives directly.
        let tested = "#[cfg(test)]\nmod tests {\n    fn f(a: &ViewAnalysis) { a.primary_delta_plan(t, true, true); }\n}\n";
        assert!(scan_file("crates/core/src/sql.rs", tested).is_empty());
        // Escape hatch.
        let allowed =
            "fn f(a: &A) { a.primary_delta_plan(t, true, true); } // lint:allow(plan-compile-confined)\n";
        assert!(scan_file("crates/core/src/maintain.rs", allowed).is_empty());
        // Identifier boundary: verify_maintenance_graph is a different token.
        let other = "fn h() { ojv_analysis::verify_maintenance_graph(&g, &m, fks); }\n";
        assert!(scan_file("crates/core/src/maintain.rs", other).is_empty());
    }

    #[test]
    fn view_store_mutation_confined_to_commit_path() {
        let src = "fn f(v: &mut MaterializedView) { v.store_mut().insert(row, \"v\").unwrap(); }\n";
        let v = scan_file("crates/core/src/database.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "view-store-mutation");
        // The commit path and the store's own module are the sanctioned homes.
        for path in [
            "crates/core/src/materialize.rs",
            "crates/core/src/maintain.rs",
            "crates/core/src/baseline.rs",
        ] {
            assert!(scan_file(path, src).is_empty(), "{path}");
        }
        // Other crates are out of scope.
        assert!(scan_file("crates/bench/src/harness.rs", src).is_empty());
        // Tests may poke stores directly.
        let tested =
            "#[cfg(test)]\nmod tests {\n    fn f(v: &mut MaterializedView) { v.store_mut(); }\n}\n";
        assert!(scan_file("crates/core/src/database.rs", tested).is_empty());
        // Escape hatch.
        let allowed = "fn f(v: &mut MaterializedView) { v.store_mut(); } // lint:allow(view-store-mutation)\n";
        assert!(scan_file("crates/core/src/database.rs", allowed).is_empty());
        // Identifier boundary: `restore_mutations` is a different token.
        let other = "fn g() { restore_mutations(); }\n";
        assert!(scan_file("crates/core/src/database.rs", other).is_empty());
    }

    #[test]
    fn engine_locks_confined_to_registry_and_hub() {
        let src = "use std::sync::Mutex;\nfn f() { let m: Mutex<u32> = Mutex::new(0); }\n";
        let v = scan_file("crates/exec/src/ops/join.rs", src);
        assert_eq!(v.len(), 3, "both the use and both mentions fire");
        assert!(v.iter().all(|x| x.lint == "engine-locks"));
        // RwLock and Condvar are lock types too.
        let rw = "fn f() { let l = RwLock::new(0); let c = Condvar::new(); }\n";
        assert_eq!(scan_file("crates/exec/src/hashtbl.rs", rw).len(), 2);
        // Every engine crate is in scope.
        for crate_dir in ["rel", "storage", "exec", "core", "feed", "durability"] {
            let path = format!("crates/{crate_dir}/src/lib.rs");
            assert_eq!(scan_file(&path, src).len(), 3, "{path}");
        }
        // The registry and the hub are the two homes; benches, tests and
        // tools are out of scope.
        for path in [
            "crates/core/src/snapshot.rs",
            "crates/feed/src/hub.rs",
            "crates/bench/src/harness.rs",
            "crates/testkit/src/fault.rs",
            "tests/feed_interleavings.rs",
        ] {
            assert!(scan_file(path, src).is_empty(), "{path}");
        }
        // In-file test modules may lock (a gate serializing tests).
        let tested = "#[cfg(test)]\nmod tests {\n    static GATE: Mutex<()> = Mutex::new(());\n}\n";
        assert!(scan_file("crates/core/src/batch.rs", tested).is_empty());
        // Identifier boundary: MutexGuard and FakeMutex are other tokens.
        let other = "fn f(g: FakeMutex, h: MutexGuard<'_, u32>) {}\n";
        assert!(scan_file("crates/exec/src/ops/join.rs", other).is_empty());
        // Escape hatch.
        let allowed = "fn f() { let m = Mutex::new(0); } // lint:allow(engine-locks)\n";
        assert!(scan_file("crates/exec/src/ops/join.rs", allowed).is_empty());
    }

    #[test]
    fn registry_never_calls_an_observer() {
        let call = "fn commit(&self, obs: &dyn CommitObserver) {\n    obs.on_commit(1, &[]);\n}\n";
        let v = scan_file("crates/core/src/snapshot.rs", call);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].lint, v[0].line), ("engine-locks", 2));
        // A path call is the same call.
        let path_call = "fn f(o: &Hub) { CommitObserver::on_commit(o, 1, &[]); }\n";
        assert_eq!(scan_file("crates/core/src/snapshot.rs", path_call).len(), 1);
        // The trait declares the method in snapshot.rs; a declaration is
        // not a call.
        let decl =
            "pub trait CommitObserver {\n    fn on_commit(&self, lsn: Lsn, updates: &[Op]);\n}\n";
        assert!(scan_file("crates/core/src/snapshot.rs", decl).is_empty());
        // The database notifies observers after the registry lock is gone.
        assert!(scan_file("crates/core/src/database.rs", call).is_empty());
    }

    /// The three seeded lock violations fail the gate at their `file:line`,
    /// while the `#[cfg(test)]` locks of the real `batch.rs` and
    /// `database.rs` (and the real `snapshot.rs`) stay clean.
    #[test]
    fn seeded_engine_lock_violations_fail_the_gate() {
        let database = include_str!("../../core/src/database.rs");
        let snapshot = include_str!("../../core/src/snapshot.rs");
        let batch = include_str!("../../core/src/batch.rs");
        let struct_open = "pub struct Database {\n";
        let commit_open =
            "pub(crate) fn commit(&self, lsn: Lsn, batch: &Arc<CommitBatch>) -> Result<()> {\n";
        let line_after = |src: &str, anchor: &str| {
            let at = src
                .find(anchor)
                .unwrap_or_else(|| panic!("{anchor:?} not found"));
            src[..at + anchor.len()].lines().count() + 1
        };
        let seeded = [
            (
                "crates/core/src/database.rs",
                database.replacen(
                    struct_open,
                    &format!("{struct_open}    probes: std::sync::Mutex<usize>,\n"),
                    1,
                ),
                line_after(database, struct_open),
            ),
            (
                "crates/exec/src/ops/join.rs",
                "fn probe(seen: &std::sync::Mutex<usize>) {}\n".to_string(),
                1,
            ),
            (
                "crates/core/src/snapshot.rs",
                snapshot.replacen(
                    commit_open,
                    &format!("{commit_open}        obs.on_commit(lsn, &[]);\n"),
                    1,
                ),
                line_after(snapshot, commit_open),
            ),
        ];
        let root = std::env::temp_dir().join(format!("xtask-lint-locks-{}", std::process::id()));
        for (rel, src, _) in &seeded {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, src).unwrap();
        }
        fs::write(root.join("crates/core/src/batch.rs"), batch).unwrap();
        let v = run(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        let got: Vec<(&str, &str, usize)> = v
            .iter()
            .map(|x| (x.lint, x.file.as_str(), x.line))
            .collect();
        let mut want: Vec<(&str, &str, usize)> = seeded
            .iter()
            .map(|(rel, _, line)| ("engine-locks", *rel, *line))
            .collect();
        want.sort();
        assert_eq!(got, want, "{v:?}");
        // The unseeded sources carry `#[cfg(test)]` locks and scan clean.
        assert!(database.contains("#[cfg(test)]") && database.contains("Mutex<usize>"));
        assert!(batch.contains("static GATE: Mutex<()>"));
        for (rel, src) in [
            ("crates/core/src/database.rs", database),
            ("crates/core/src/snapshot.rs", snapshot),
            ("crates/core/src/batch.rs", batch),
        ] {
            assert!(scan_file(rel, src).is_empty(), "{rel}");
        }
    }

    #[test]
    fn seeded_relaxed_atomic_is_flagged() {
        let src = "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let v = scan_file("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].lint, v[0].line), ("atomic-ordering", 1));
        assert_eq!(
            v[0].to_string(),
            format!("crates/x/src/lib.rs:1: [atomic-ordering] {}", src.trim())
        );
        // The workspace-root suites are out of scope.
        assert!(scan_file("tests/snapshot_isolation.rs", src).is_empty());
    }

    #[test]
    fn allow_and_cfg_test_suppress_atomic_ordering() {
        let allowed = "fn f(c: &AtomicUsize) {\n    // lint:allow(atomic-ordering) monotonic counter\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(scan_file("crates/x/src/lib.rs", allowed).is_empty());
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn f(c: &AtomicUsize) { c.load(Ordering::Relaxed); }\n}\n";
        assert!(scan_file("crates/x/src/lib.rs", in_test).is_empty());
    }

    #[test]
    fn acquire_release_orderings_pass() {
        let src = "fn f(c: &AtomicUsize) {\n    c.store(1, Ordering::Release);\n    c.load(Ordering::Acquire);\n    c.fetch_add(1, Ordering::SeqCst);\n    c.fetch_or(1, Ordering::AcqRel);\n}\n";
        assert!(scan_file("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cmp_ordering_variants_never_match() {
        let src = "fn f(a: u32, b: u32) -> Ordering {\n    match a.cmp(&b) { Ordering::Less => Ordering::Less, o => o }\n}\n";
        assert!(scan_file("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn seeded_guard_across_callback_is_flagged() {
        let src = "fn notify<F: FnMut(u64)>(m: &Mutex<u64>, cb: F) {\n    let g = m.lock();\n    cb(*g);\n}\n";
        let v = scan_file("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].lint, v[0].line), ("guard-across-callback", 3));
        assert_eq!(v[0].excerpt, "cb(*g);");
        // The escape hatch on the acquisition or the call suppresses it.
        for allowed in [
            "fn notify<F: FnMut(u64)>(m: &Mutex<u64>, cb: F) {\n    let g = m.lock(); // lint:allow(guard-across-callback)\n    cb(*g);\n}\n",
            "fn notify<F: FnMut(u64)>(m: &Mutex<u64>, cb: F) {\n    let g = m.lock();\n    cb(*g); // lint:allow(guard-across-callback)\n}\n",
        ] {
            assert!(scan_file("crates/x/src/lib.rs", allowed).is_empty());
        }
    }

    #[test]
    fn callback_after_guard_drop_passes() {
        let src = "fn notify<F: FnMut(u64)>(m: &Mutex<u64>, cb: F) {\n    let v = { let g = m.lock(); *g };\n    cb(v);\n}\n";
        assert!(scan_file("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn engine_threads_detected_in_engine_crates_only() {
        let spawn = "fn f() { std::thread::spawn(|| work()); }\n";
        let scope = "fn f() { std::thread::scope(|s| { s.spawn(|| work()); }); }\n";
        let method = "fn f(b: Builder) { b.spawn(work).unwrap(); }\n";
        for crate_dir in ["rel", "storage", "exec", "core", "feed", "durability"] {
            let path = format!("crates/{crate_dir}/src/lib.rs");
            assert_eq!(scan_file(&path, spawn).len(), 1, "{path}");
            // `thread::scope` and the scope's `.spawn(` both fire.
            let v = scan_file(&path, scope);
            assert_eq!(v.len(), 2, "{path}: {v:?}");
            assert!(v.iter().all(|x| x.lint == "no-engine-threads"));
            assert_eq!(scan_file(&path, method).len(), 1, "{path}");
        }
        // Benches, tests, tools and the root suites may spawn.
        for path in [
            "crates/bench/src/harness.rs",
            "crates/testkit/src/sched.rs",
            "crates/xtask/src/main.rs",
            "tests/snapshot_isolation.rs",
        ] {
            assert!(scan_file(path, scope).is_empty(), "{path}");
        }
        // In-file test modules may spawn (reader threads against a pin).
        let tested = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::spawn(|| ()); }\n}\n";
        assert!(scan_file("crates/core/src/snapshot.rs", tested).is_empty());
        // A function merely named like one is fine.
        let other = "fn respawn() {}\nfn g() { spawn_count(); respawn(); }\n";
        assert!(scan_file("crates/core/src/shard.rs", other).is_empty());
        // Escape hatch.
        let allowed = "fn f() { std::thread::spawn(|| ()); } // lint:allow(no-engine-threads)\n";
        assert!(scan_file("crates/core/src/shard.rs", allowed).is_empty());
    }

    /// A thread pool seeded into the executor fails the gate end to end.
    #[test]
    fn seeded_engine_thread_fails_the_gate() {
        let root = std::env::temp_dir().join(format!("xtask-lint-thr-{}", std::process::id()));
        let dir = root.join("crates/exec/src");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("pool.rs"),
            "pub fn run(items: Vec<u32>) {\n    std::thread::scope(|s| {\n        for i in items {\n            s.spawn(move || i + 1);\n        }\n    });\n}\n",
        )
        .unwrap();
        let v = run(&root).unwrap();
        fs::remove_dir_all(&root).ok();
        let lines: Vec<usize> = v
            .iter()
            .filter(|x| x.lint == "no-engine-threads")
            .map(|x| x.line)
            .collect();
        assert_eq!(lines, vec![2, 4], "{v:?}");
        assert!(v.iter().all(|x| x.file == "crates/exec/src/pool.rs"));
    }

    #[test]
    fn feed_eval_confined_to_the_feed_crate() {
        let src = "fn f(fl: &FeedFilter, r: &[Datum]) -> bool { fl.matches_row(r, cols) }\n";
        let v = scan_file("crates/core/src/database.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "feed-eval-confined");
        // Integration suites are scanned too — a per-subscriber loop in a
        // test file is the same O(subscribers) bypass.
        assert_eq!(scan_file("tests/feed.rs", src).len(), 1);
        // The feed crate is the sanctioned home.
        assert!(scan_file("crates/feed/src/hub.rs", src).is_empty());
        assert!(scan_file("crates/feed/src/filter.rs", src).is_empty());
        // In-file test modules may exercise the predicate directly.
        let tested = "#[cfg(test)]\nmod tests {\n    fn f() { fl.matches_row(r, cols); }\n}\n";
        assert!(scan_file("crates/core/src/database.rs", tested).is_empty());
        // Escape hatch.
        let allowed = "fn f() { fl.matches_row(r, cols) } // lint:allow(feed-eval-confined)\n";
        assert!(scan_file("crates/bench/src/harness.rs", allowed).is_empty());
        // Identifier boundary: matches_rows / row_matches are different tokens.
        let other = "fn g() { matches_rows(); row_matches(); }\n";
        assert!(scan_file("crates/core/src/database.rs", other).is_empty());
    }

    #[test]
    fn shard_routing_confined_to_router_and_facade() {
        let ctor = "fn f() -> ShardId { ShardId::new(3) }\n";
        let v = scan_file("crates/core/src/database.rs", ctor);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "shard-routing-confined");
        // Building a private router is the same bypass.
        let router = "fn f() { let r = ShardRouter::new(4); }\n";
        assert_eq!(
            scan_file("crates/bench/src/bin/repro.rs", router)[0].lint,
            "shard-routing-confined"
        );
        // Every route_* call site is covered.
        let routes = "fn g(r: ShardRouter) {\n    r.route(row, cols);\n    r.route_key(key);\n    r.route_ref(rr, cols);\n    r.route_with(cols, get);\n}\n";
        let v2 = scan_file("crates/core/src/durable.rs", routes);
        assert_eq!(v2.len(), 4);
        assert!(v2.iter().all(|x| x.lint == "shard-routing-confined"));
        // The router's module and core's shard engine are the sanctioned homes…
        for path in ["crates/storage/src/shard.rs", "crates/core/src/shard.rs"] {
            assert!(scan_file(path, ctor).is_empty(), "{path}");
            assert!(scan_file(path, routes).is_empty(), "{path}");
        }
        // …and the durable layer above it is not one of them.
        for path in ["crates/core/src/group_log.rs", "crates/core/src/wal_log.rs"] {
            assert_eq!(scan_file(path, ctor).len(), 1, "{path}");
            assert_eq!(scan_file(path, routes).len(), 4, "{path}");
        }
        // In-file test modules may route directly.
        let tested = "#[cfg(test)]\nmod tests {\n    fn f() { let _ = ShardId::new(0); }\n}\n";
        assert!(scan_file("crates/core/src/database.rs", tested).is_empty());
        // Escape hatch.
        let allowed = "fn f() { ShardId::new(0); } // lint:allow(shard-routing-confined)\n";
        assert!(scan_file("crates/core/src/database.rs", allowed).is_empty());
        // Identifier boundary: shard_of_row / a struct field named route are
        // different tokens, and `ShardId` without `::new` (a type position)
        // is fine.
        let other = "fn h(id: ShardId) { db.shard_of_row(t, r); s.enroute(x); }\n";
        assert!(scan_file("crates/core/src/database.rs", other).is_empty());
    }

    /// A seeded routing violation fails the gate under tests/ — integration
    /// suites must go through the engine too — and in the durable layer,
    /// which sits above the engine and is outside the lint's scope of
    /// sanctioned files.
    #[test]
    fn seeded_shard_routing_violation_fails_the_gate() {
        let root = std::env::temp_dir().join(format!("xtask-lint-shard-{}", std::process::id()));
        let seeded = "fn f() { let r = ShardRouter::new(2); let _ = r.route_key(&key); }\n";
        for dir in ["tests", "crates/core/src"] {
            fs::create_dir_all(root.join(dir)).unwrap();
        }
        fs::write(root.join("tests/seeded.rs"), seeded).unwrap();
        fs::write(root.join("crates/core/src/group_log.rs"), seeded).unwrap();
        let v = run(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|x| x.lint == "shard-routing-confined"));
        let files: Vec<&str> = v.iter().map(|x| x.file.as_str()).collect();
        assert!(files.contains(&"tests/seeded.rs"), "{files:?}");
        assert!(files.contains(&"crates/core/src/group_log.rs"), "{files:?}");
    }

    /// A seeded feed-eval violation fails the gate like the older lints.
    #[test]
    fn seeded_feed_eval_violation_fails_the_gate() {
        let root = std::env::temp_dir().join(format!("xtask-lint-feed-{}", std::process::id()));
        let dir = root.join("crates/bench/src");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("seeded.rs"),
            "fn f() { for s in subs { s.filter.matches_row(row, cols); } }\n",
        )
        .unwrap();
        let v = run(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "feed-eval-confined");
        assert_eq!(v[0].file, "crates/bench/src/seeded.rs");
    }

    #[test]
    fn sched_seed_must_be_logged() {
        // A seeded run whose assertions never mention the seed: violation.
        let bad = "#[test]\nfn t() {\n    let tr = run_seeded(7, &mut actors);\n    assert_eq!(a, b);\n}\n";
        let v = scan_file("tests/foo.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "sched-seed-logged");
        assert_eq!(v[0].line, 3);
        // Embedding the seed in an assert message satisfies the rule.
        let good = "#[test]\nfn t() {\n    let tr = run_seeded(7, &mut actors);\n    assert_eq!(a, b, \"diverged under seed {seed}\");\n}\n";
        assert!(scan_file("tests/foo.rs", good).is_empty());
        // `interleavings` drivers may name the trace instead.
        let tr = "#[test]\nfn t() {\n    for trace in interleavings(&[2, 2]) {\n        step();\n        assert_eq!(a, b, \"replay trace {trace:?}\");\n    }\n}\n";
        assert!(scan_file("tests/foo.rs", tr).is_empty());
        // The definition site and `use` imports are not call sites.
        let def = "pub fn run_seeded(seed: u64, actors: &mut [Actor]) -> Vec<usize> { vec![] }\n";
        assert!(scan_file("crates/testkit/src/sched.rs", def).is_empty());
        let import = "use ojv_testkit::sched::{interleavings, run_seeded};\n";
        assert!(scan_file("tests/foo.rs", import).is_empty());
        // Escape hatch.
        let allowed =
            "fn t() {\n    // lint:allow(sched-seed-logged)\n    run_seeded(7, &mut actors);\n}\n";
        assert!(scan_file("tests/foo.rs", allowed).is_empty());
    }

    /// A seeded fs violation fails the gate just like the older lints.
    #[test]
    fn seeded_fs_violation_fails_the_gate() {
        let root = std::env::temp_dir().join(format!("xtask-lint-fs-{}", std::process::id()));
        let dir = root.join("crates/core/src");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("seeded.rs"),
            "fn f() { let _ = std::fs::read(\"x\"); }\n",
        )
        .unwrap();
        let v = run(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "fs-outside-durability");
        assert_eq!(v[0].file, "crates/core/src/seeded.rs");
    }

    /// The CI gate behavior: a seeded violation anywhere in the scanned tree
    /// makes `run` report it (and `main` turn that into a non-zero exit,
    /// which is what fails ci/check.sh).
    #[test]
    fn seeded_violation_fails_the_gate() {
        let root = std::env::temp_dir().join(format!("xtask-lint-seed-{}", std::process::id()));
        let dir = root.join("crates/exec/src");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("seeded.rs"),
            "fn f() { let rows: Vec<Vec<Datum>> = Vec::new(); }\n",
        )
        .unwrap();
        let v = run(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "vec-vec-datum");
        assert_eq!(v[0].file, "crates/exec/src/seeded.rs");
    }

    /// A seeded unlogged seed under tests/ also fails the gate — `run` scans
    /// the workspace-root integration suites too.
    #[test]
    fn seeded_unlogged_seed_under_tests_fails_the_gate() {
        let root = std::env::temp_dir().join(format!("xtask-lint-sched-{}", std::process::id()));
        let dir = root.join("tests");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("seeded.rs"),
            "fn t() {\n    run_seeded(3, &mut actors);\n    assert!(ok);\n}\n",
        )
        .unwrap();
        let v = run(&root).unwrap();
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "sched-seed-logged");
        assert_eq!(v[0].file, "tests/seeded.rs");
    }

    /// The repo itself must scan clean — this is the in-tree mirror of the
    /// `cargo run -p xtask -- lint` gate in ci/check.sh.
    #[test]
    fn repo_scans_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let v = run(root).unwrap();
        assert!(
            v.is_empty(),
            "lint violations:\n{}",
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
