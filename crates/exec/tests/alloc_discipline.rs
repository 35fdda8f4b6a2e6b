//! Allocation discipline of the join probe hot path.
//!
//! Installs the counting global allocator from the testkit and asserts that
//! probing a join with non-matching keys performs **zero** heap allocations
//! per probe, through every access path of the one join loop (hash build
//! over wide rows or table rows, scan, index lookup): the borrowed-key
//! hash-then-verify design never builds an owned key, and a probe that
//! finds no candidates writes nothing.

use ojv_algebra::{Atom, ColRef, JoinKind, Pred, TableId, TableSet};
use ojv_exec::ops::{self, BuildAccess, IndexAccess, TableRows, WideRows};
use ojv_exec::{ExecEnv, KeyHashTable, ViewLayout};
use ojv_rel::{key_eq_rows, key_hash, Column, DataType, Datum, RowBuf};
use ojv_storage::Catalog;
use ojv_testkit::{alloc_snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn layout() -> (Catalog, ViewLayout) {
    let mut c = Catalog::new();
    c.create_table(
        "a",
        vec![
            Column::new("a", "id", DataType::Int, false),
            Column::new("a", "v", DataType::Int, true),
        ],
        &["id"],
    )
    .unwrap();
    c.create_table(
        "b",
        vec![
            Column::new("b", "id", DataType::Int, false),
            Column::new("b", "w", DataType::Int, true),
        ],
        &["id"],
    )
    .unwrap();
    let l = ViewLayout::new(&c, &["a", "b"]).unwrap();
    (c, l)
}

/// Widened `a` rows with ids in `lo..hi` (disjoint from the build side).
fn probes(l: &ViewLayout, lo: i64, hi: i64) -> RowBuf {
    let mut buf = RowBuf::new(l.width());
    for id in lo..hi {
        let row = buf.push_null_row();
        row[0] = Datum::Int(id);
        row[1] = Datum::Int(id * 2);
    }
    buf
}

/// Allocation counts of `join` over 10 and over 1000 non-matching probe
/// rows; the join must find nothing.
fn allocs_for_10_and_1000_misses(
    l: &ViewLayout,
    mut join: impl FnMut(&RowBuf) -> RowBuf,
) -> [u64; 2] {
    [10i64, 1000].map(|n| {
        let left = probes(l, 1_000_000, 1_000_000 + n);
        min_alloc_count(|| assert!(join(&left).is_empty(), "no probe matches"))
    })
}

fn build_side(l: &ViewLayout, n: i64) -> RowBuf {
    let mut buf = RowBuf::new(l.width());
    for id in 0..n {
        let row = buf.push_null_row();
        row[2] = Datum::Int(id);
        row[3] = Datum::Int(id + 100);
    }
    buf
}

/// Minimum allocation count of `f` over a few repeats. The counters are
/// process-global, so a background thread (libtest's own machinery) can leak
/// stray allocations into one measured window; it cannot *remove* the
/// allocations a leaky probe path would perform every time, so the minimum
/// is the honest per-run cost.
fn min_alloc_count(mut f: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let before = alloc_snapshot();
            f();
            alloc_snapshot().since(&before).count
        })
        .min()
        .expect("at least one attempt")
}

/// Everything in one test function: the counters are process-global, so
/// concurrently running tests would pollute each other's deltas.
#[test]
fn non_matching_probes_do_not_allocate() {
    let (mut c, l) = layout();

    // 1. The raw probe loop: hash + bucket walk, borrowed keys only.
    //    Exactly zero allocations across 10k misses.
    let right = build_side(&l, 128);
    let table = KeyHashTable::build(
        right.len(),
        |i| Some(key_hash(right.row(i), &[2])),
        |i, j| key_eq_rows(right.row(i), &[2], right.row(j), &[2]),
    );
    let misses = probes(&l, 1_000_000, 1_010_000);
    let mut found = 0usize;
    let count = min_alloc_count(|| {
        found = 0;
        for probe in misses.iter() {
            let is_key = |j| key_eq_rows(right.row(j), &[2], probe, &[0]);
            found += table.rows_of(key_hash(probe, &[0]), is_key).count();
        }
    });
    assert_eq!(found, 0, "probe ids are disjoint from the build side");
    assert!(
        alloc_snapshot().count > 0,
        "counting allocator must be installed for this test to mean anything"
    );
    assert_eq!(
        count, 0,
        "non-matching probes must not touch the heap (saw {count} allocations)",
    );

    // 2. The full hash-join operator: per-probe cost must be zero, so the
    //    operator's allocation count is independent of the number of
    //    non-matching probe rows (fixed setup cost only).
    let env = ExecEnv::new(&l);
    let pred = Pred::atom(Atom::eq(
        ColRef::new(TableId(0), 0),
        ColRef::new(TableId(1), 0),
    ));
    let (ls, rs) = (
        TableSet::singleton(TableId(0)),
        TableSet::singleton(TableId(1)),
    );
    let mut deltas = Vec::new();
    for n in [10i64, 1000] {
        let left = probes(&l, 1_000_000, 1_000_000 + n);
        let right = build_side(&l, 128);
        // The per-attempt clones cost a fixed allocation count (buffer
        // clones; the Int datums never touch the heap), identical for both
        // probe counts, so they cancel in the equality below.
        let count = min_alloc_count(|| {
            let out = ops::hash_join_buf(
                &env,
                JoinKind::Inner,
                &pred,
                left.clone(),
                right.clone(),
                ls,
                rs,
            );
            assert!(out.is_empty(), "no probe matches the build side");
        });
        deltas.push(count);
    }
    assert_eq!(
        deltas[0], deltas[1],
        "join allocation count must not scale with non-matching probes: \
         {} allocs for 10 probes vs {} for 1000",
        deltas[0], deltas[1]
    );

    // 3. The other access paths of the one join loop: an index lookup, a
    //    hash build over a base table's own rows, and the scan of a tiny
    //    build. Each join's allocation count is a fixed setup cost,
    //    independent of the number of non-matching probe rows.
    let b_rows = (0..128).map(|id| vec![Datum::Int(id), Datum::Int(id + 100)]);
    c.insert("b", b_rows.collect()).unwrap();
    let b = c.table("b").unwrap();
    let (a_id, b_id) = (ColRef::new(TableId(0), 0), ColRef::new(TableId(1), 0));
    let no_residual = Pred::true_();
    let (index, _) = b.index_on(&[0]).unwrap();
    let index_join = allocs_for_10_and_1000_misses(&l, |left| {
        let mut access = IndexAccess::new(&l, b, TableId(1), index, vec![a_id], None);
        let left = ops::wide_side(&l, left, ls);
        ops::probe_join(&env, JoinKind::LeftSemi, left, &mut access, &no_residual)
    });
    let table_hash = allocs_for_10_and_1000_misses(&l, |left| {
        let rows = TableRows {
            table: b,
            id: TableId(1),
            offset: l.slot(TableId(1)).offset,
            keep: None,
        };
        let mut access = BuildAccess::hash(&env, rows, &[(a_id, b_id)]);
        let left = ops::wide_side(&l, left, ls);
        ops::probe_join(&env, JoinKind::Inner, left, &mut access, &no_residual)
    });
    let tiny = build_side(&l, 4);
    let scan = allocs_for_10_and_1000_misses(&l, |left| {
        let rows = WideRows {
            layout: &l,
            rows: &tiny,
            sources: rs,
        };
        let mut access = BuildAccess::scan(rows, &[(a_id, b_id)]);
        let left = ops::wide_side(&l, left, ls);
        ops::probe_join(&env, JoinKind::Inner, left, &mut access, &no_residual)
    });
    for (path, [few, many]) in [
        ("index", index_join),
        ("table-row hash", table_hash),
        ("scan", scan),
    ] {
        assert_eq!(
            few, many,
            "{path} join allocation count must not scale with non-matching probes: \
             {few} allocs for 10 probes vs {many} for 1000"
        );
    }
}
