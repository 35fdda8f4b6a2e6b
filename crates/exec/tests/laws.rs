//! Property-based tests for the §2.1 laws of removal of subsumed tuples (`↓`)
//! and minimum union (`⊕`), checked against the engine's one implementation
//! of both: [`ops::clean_dup_buf`] (`↓` followed by `δ`; `⊕` of batches
//! concatenated into one input).
//!
//! Inputs are *table-granular* wide rows — every table's slots hold either a
//! complete base row determined by its key or nulls — the only shape the
//! maintenance expressions produce and the one `clean_dup_buf` is exact on.
//! The oracle is the paper's tuple-level definition of subsumption,
//! evaluated naively over every pair.

use ojv_algebra::TableId;
use ojv_exec::{ops, ExecEnv, ViewLayout};
use ojv_rel::{Column, DataType, Datum, Row, RowBuf};
use ojv_storage::Catalog;
use ojv_testkit::{property, strategy, vec_of, Rng, Strategy};

const TABLES: [&str; 3] = ["a", "b", "c"];

/// Three tables `(id, v)` keyed on `id`, in one wide layout.
fn layout() -> ViewLayout {
    let mut c = Catalog::new();
    for name in TABLES {
        c.create_table(
            name,
            vec![
                Column::new(name, "id", DataType::Int, false),
                Column::new(name, "v", DataType::Int, true),
            ],
            &["id"],
        )
        .expect("fresh table");
    }
    ViewLayout::new(&c, &TABLES).expect("tables exist")
}

/// A wide row from one optional key per table: a present key fills the
/// table's slots with its base row (`v` is a function of the key, null for
/// key 0), an absent one leaves them null.
fn wide(l: &ViewLayout, keys: &[Option<i64>]) -> Row {
    let mut row = vec![Datum::Null; l.width()];
    for (t, key) in keys.iter().enumerate() {
        if let Some(k) = *key {
            let off = l.slot(TableId(t as u8)).offset;
            row[off] = Datum::Int(k);
            row[off + 1] = if k == 0 {
                Datum::Null
            } else {
                Datum::Int(k * 10)
            };
        }
    }
    row
}

/// Per-table keys over a tiny domain with plenty of absent tables, so
/// subsumption and duplicates are common. At least one table is present.
fn keys_strategy() -> impl Strategy<Value = Vec<Option<i64>>> {
    strategy(
        |rng: &mut Rng| {
            let mut keys: Vec<Option<i64>> = (0..TABLES.len())
                .map(|_| rng.gen_bool(0.6).then(|| rng.gen_range(0i64..3)))
                .collect();
            if keys.iter().all(Option::is_none) {
                keys[rng.gen_range(0usize..TABLES.len())] = Some(rng.gen_range(0i64..3));
            }
            keys
        },
        |keys: &Vec<Option<i64>>| {
            // Drop one present table, as long as another stays present.
            let present = keys.iter().filter(|k| k.is_some()).count();
            (0..keys.len())
                .filter(|&i| keys[i].is_some() && present > 1)
                .map(|i| {
                    let mut smaller = keys.clone();
                    smaller[i] = None;
                    smaller
                })
                .collect()
        },
    )
}

fn batch_strategy() -> impl Strategy<Value = Vec<Vec<Option<i64>>>> {
    vec_of(keys_strategy(), 0..8)
}

fn rows(l: &ViewLayout, keys: &[Vec<Option<i64>>]) -> Vec<Row> {
    keys.iter().map(|k| wide(l, k)).collect()
}

/// `clean_dup_buf` over a row list.
fn clean(l: &ViewLayout, rows: &[Row]) -> Vec<Row> {
    ops::clean_dup_buf(&ExecEnv::new(l), RowBuf::from_rows(l.width(), rows)).into_rows()
}

/// `a ⊕ b`: one batch of both, cleaned.
fn min_union(l: &ViewLayout, a: &[Row], b: &[Row]) -> Vec<Row> {
    clean(l, &[a, b].concat())
}

/// Tuple subsumption (§2.1): every non-null column of `t2` is non-null in
/// `t1` with the same value, and `t1` is non-null somewhere `t2` is null.
fn subsumes(t1: &[Datum], t2: &[Datum]) -> bool {
    let mut strictly_more = false;
    for (a, b) in t1.iter().zip(t2) {
        match (a.is_null(), b.is_null()) {
            (true, false) => return false,
            (false, false) if a != b => return false,
            (false, true) => strictly_more = true,
            _ => {}
        }
    }
    strictly_more
}

/// The naive quadratic `↓` followed by `δ` (first occurrences, in order).
fn naive_clean(rows: &[Row]) -> Vec<Row> {
    let mut out: Vec<Row> = Vec::new();
    for r in rows {
        if !rows.iter().any(|s| subsumes(s, r)) && !out.contains(r) {
            out.push(r.clone());
        }
    }
    out
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

property! {
    #[cases = 256]
    fn removal_of_subsumed_is_idempotent(keys in batch_strategy()) {
        let l = layout();
        let once = clean(&l, &rows(&l, &keys));
        assert_eq!(clean(&l, &once), once);
    }

    #[cases = 256]
    fn removal_output_has_no_subsumed_rows(keys in batch_strategy()) {
        let l = layout();
        let out = clean(&l, &rows(&l, &keys));
        for (i, a) in out.iter().enumerate() {
            for (j, b) in out.iter().enumerate() {
                if i != j {
                    assert!(!subsumes(a, b), "row {j} still subsumed by {i}");
                }
            }
        }
    }

    /// `⊕` is commutative (paper §2.1: "minimum union is both commutative
    /// and associative").
    #[cases = 256]
    fn minimum_union_commutative(a in batch_strategy(), b in batch_strategy()) {
        let l = layout();
        let (a, b) = (rows(&l, &a), rows(&l, &b));
        assert_eq!(sorted(min_union(&l, &a, &b)), sorted(min_union(&l, &b, &a)));
    }

    /// `⊕` is associative.
    #[cases = 256]
    fn minimum_union_associative(
        a in batch_strategy(),
        b in batch_strategy(),
        c in batch_strategy(),
    ) {
        let l = layout();
        let (a, b, c) = (rows(&l, &a), rows(&l, &b), rows(&l, &c));
        let left = min_union(&l, &min_union(&l, &a, &b), &c);
        let right = min_union(&l, &a, &min_union(&l, &b, &c));
        assert_eq!(sorted(left), sorted(right));
    }

    /// The grouped (source-mask) implementation agrees with the naive
    /// quadratic definition, row for row and in order.
    #[cases = 256]
    fn removal_matches_naive_definition(keys in batch_strategy()) {
        let l = layout();
        let input = rows(&l, &keys);
        assert_eq!(clean(&l, &input), naive_clean(&input));
    }
}
