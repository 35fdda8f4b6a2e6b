//! Skew gate: deleting from a table must not get slower with the frequency
//! of a secondary-index key.
//!
//! No wall-clock threshold — the two runs are compared with each other, in
//! one process and one build: 20 000 rows are deleted from a table whose
//! secondary index holds **one** distinct key, and from a table whose index
//! holds 20 000. With a per-row back-pointer into its bucket both cost O(1)
//! per row; when removal and the swap-remove fix-up each scanned the bucket
//! the skewed table was quadratic (≥ 10× the uniform one at this size).
//! Run in release by CI as well (`ci/check.sh`): optimizations shrink the
//! constant work both runs share, which is what makes the ratio sharp.

use std::time::{Duration, Instant};

use ojv::prelude::*;
use ojv::rel::{Column, DataType};

const ROWS: i64 = 20_000;

/// A table `t(id, grp)` keyed by `id`, indexed on `grp`, holding `ROWS` rows
/// over `distinct` group values.
fn table(distinct: i64) -> Catalog {
    let mut c = Catalog::new();
    c.create_table(
        "t",
        vec![
            Column::new("t", "id", DataType::Int, false),
            Column::new("t", "grp", DataType::Int, false),
        ],
        &["id"],
    )
    .unwrap();
    c.table_mut("t").unwrap().add_secondary_index(vec![1]);
    let rows = (0..ROWS)
        .map(|id| vec![Datum::Int(id), Datum::Int(id % distinct)])
        .collect();
    c.insert("t", rows).unwrap();
    c
}

/// Every key once, in an order that is neither heap nor reverse-heap order
/// (7 919 is prime and does not divide `ROWS`), so victims and the rows the
/// swap-remove moves land all over their buckets.
fn keys() -> Vec<Vec<Datum>> {
    (0..ROWS)
        .map(|i| vec![Datum::Int(i * 7_919 % ROWS)])
        .collect()
}

/// Fastest of three timed deletes of all rows, one batch each.
fn delete_all(distinct: i64) -> Duration {
    let keys = keys();
    (0..3)
        .map(|_| {
            let mut c = table(distinct);
            let started = Instant::now();
            let deleted = c.delete("t", &keys).unwrap();
            let took = started.elapsed();
            assert_eq!(deleted.rows.len(), keys.len());
            assert!(c.table("t").unwrap().is_empty());
            took
        })
        .min()
        .expect("three attempts")
}

#[test]
fn delete_cost_does_not_depend_on_key_frequency() {
    let uniform = delete_all(ROWS);
    let skewed = delete_all(1);
    println!("delete {ROWS} rows: {uniform:?} over {ROWS} keys, {skewed:?} over one key");
    assert!(
        skewed <= uniform * 5,
        "deleting {ROWS} rows sharing one index key took {skewed:?}, \
         more than 5x the {uniform:?} of {ROWS} distinct keys"
    );
}
