//! Golden test for `xtask lint --list`.
//!
//! The table (id, confinement scope, description; one rule per line, sorted
//! by id) is part of the gate's contract: documentation and CI output link
//! to rule ids, so adding, removing, or re-scoping a rule must show up here
//! as an intentional diff.

use std::process::Command;

fn list_output(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("run xtask");
    assert!(out.status.success(), "{args:?} exited nonzero");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `(id, scope)` pairs per line, in printed order.
fn ids_and_scopes(listing: &str) -> Vec<(String, String)> {
    listing
        .lines()
        .map(|l| {
            let mut cols = l.split("  ").filter(|c| !c.trim().is_empty());
            let id = cols.next().expect("id column").trim().to_string();
            let scope = cols.next().expect("scope column").trim().to_string();
            (id, scope)
        })
        .collect()
}

#[test]
fn lint_list_is_sorted_and_scoped() {
    let listing = list_output(&["lint", "--list"]);
    let rows = ids_and_scopes(&listing);
    let golden = [
        ("atomic-ordering", "crates/, src/ (non-test code)"),
        ("cast", "crates/durability/src/"),
        (
            "commit-stage-confined",
            "crates/core/src/ except database.rs; publish_commit also {group_log,wal_log}.rs",
        ),
        ("default-hasher", "crates/exec/src/, crates/storage/src/"),
        (
            "engine-locks",
            "crates/{rel,storage,exec,core,feed,durability}/src/",
        ),
        ("feed-eval-confined", "everywhere but crates/feed/src/"),
        (
            "fs-outside-durability",
            "everywhere but crates/{durability,bench,xtask}/",
        ),
        ("guard-across-callback", "crates/, src/ (non-test code)"),
        (
            "no-engine-threads",
            "crates/{rel,storage,exec,core,feed,durability}/src/",
        ),
        (
            "owned-key-index",
            "crates/{storage,exec,core,feed}/src/ except core/src/baseline.rs, \
             feed/src/update_set.rs",
        ),
        (
            "panic-hot-path",
            "crates/exec/src/{eval,ops/join,ops/dedup}.rs",
        ),
        (
            "plan-compile-confined",
            "crates/core/src/ except {compile,analyze}.rs",
        ),
        ("sched-seed-logged", "all scanned files"),
        (
            "shard-routing-confined",
            "everywhere but crates/storage/src/shard.rs, crates/core/src/shard.rs",
        ),
        ("unsafe-code", "everywhere but crates/rel/src/alloc.rs"),
        ("vec-vec-datum", "crates/exec/src/"),
        (
            "view-store-mutation",
            "crates/core/src/ except {materialize,maintain,baseline}.rs",
        ),
    ];
    assert_eq!(
        rows,
        golden
            .iter()
            .map(|(i, s)| (i.to_string(), s.to_string()))
            .collect::<Vec<_>>(),
        "lint --list drifted from the golden table:\n{listing}"
    );
    // owned-key-index also covers hand-rolled hash -> chain-head maps.
    let owned_key = listing.lines().find(|l| l.starts_with("owned-key-index"));
    assert!(
        owned_key.is_some_and(|l| l.contains("FxHashMap<u64, _>")),
        "{listing}"
    );
}
