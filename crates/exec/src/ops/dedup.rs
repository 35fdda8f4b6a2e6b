//! Duplicate elimination and the null-if cleanup operator.
//!
//! Both operators run hash-then-verify over flat [`RowBuf`] batches: rows
//! are hashed in place into a [`PosTable`] of row positions, equality is
//! verified against the rows themselves, and survivors are compacted in
//! place — no owned key vectors, no per-row `HashSet` entries.

use std::time::Instant;

use ojv_algebra::TableSet;
use ojv_rel::postable::{idx, pos32, PosTable};
use ojv_rel::{alloc_snapshot, key_eq_rows, key_hash, FxHashMap, RowBuf};

use crate::stats::ExecEnv;

/// Plain duplicate elimination (`δ`) over a batch, with counters. Kept rows
/// (first occurrences) are compacted in input order.
pub fn distinct_in(env: &ExecEnv<'_>, mut rows: RowBuf) -> RowBuf {
    let started = Instant::now();
    let alloc0 = alloc_snapshot();
    let n_in = rows.len();
    let keep = first_occurrences(&rows);
    rows.retain_rows(&keep);
    env.record(|s| &s.dedup, n_in, rows.len(), started, alloc0);
    rows
}

/// Mark the first occurrence of every distinct row, scanning in index
/// order: a [`PosTable`] of the kept rows, verified against them.
fn first_occurrences(rows: &RowBuf) -> Vec<bool> {
    let cols: Vec<usize> = (0..rows.width()).collect();
    let mut seen = PosTable::default();
    seen.reserve(rows.len());
    let mut keep = vec![false; rows.len()];
    for (i, row) in rows.iter().enumerate() {
        let h = key_hash(row, &cols);
        if seen.find(h, |j| rows.row(idx(j)) == row).is_none() {
            seen.insert(h, pos32(i));
            keep[i] = true;
        }
    }
    keep
}

/// The cleanup paired with a null-if operator (§4.1): remove exact
/// duplicates **and** rows subsumed by another row in the input.
///
/// Wide rows produced by delta expressions are *table-granular*: a table's
/// slots either hold a complete base row or are entirely null, and a table's
/// slot content is determined by its key. Subsumption therefore reduces to:
/// row `r` is subsumed by `r'` iff `r'`'s source-table set strictly contains
/// `r`'s and the two agree on all of `r`'s source slots. That is what this
/// operator implements, and it is exact for the well-formed rows the
/// maintenance expressions produce.
///
/// Rows are grouped by source set, each set is checked against the rows of
/// its strict supersets, and kept rows are compacted in input order. The
/// same operator is the paper's minimum union `⊕` (§2.1) of batches
/// concatenated into one input.
pub fn clean_dup_buf(env: &ExecEnv<'_>, rows: RowBuf) -> RowBuf {
    let mut rows = distinct_in(env, rows);
    let layout = env.layout;
    let started = Instant::now();
    let alloc0 = alloc_snapshot();
    let n_in = rows.len();
    let mut by_sources: FxHashMap<TableSet, Vec<usize>> = FxHashMap::default();
    for (i, r) in rows.iter().enumerate() {
        by_sources
            .entry(layout.sources_of_row(r))
            .or_default()
            .push(i);
    }
    let mut keep = vec![true; rows.len()];
    for (&m, members) in &by_sources {
        let cols: Vec<usize> = m
            .iter()
            .flat_map(|t| layout.slot(t).offset..layout.slot(t).offset + layout.slot(t).len)
            .collect();
        let same = |i: usize, j: usize| key_eq_rows(rows.row(i), &cols, rows.row(j), &cols);
        // The distinct projections onto m's columns of every row whose
        // sources strictly contain m, verified against the rows themselves.
        let mut super_proj = PosTable::default();
        for (_, supers) in by_sources
            .iter()
            .filter(|(m2, _)| m.is_proper_subset_of(**m2))
        {
            for &j in supers {
                let h = key_hash(rows.row(j), &cols);
                if super_proj.find(h, |k| same(idx(k), j)).is_none() {
                    super_proj.insert(h, pos32(j));
                }
            }
        }
        for &i in members.iter().filter(|_| !super_proj.is_empty()) {
            let h = key_hash(rows.row(i), &cols);
            if super_proj.find(h, |j| same(i, idx(j))).is_some() {
                keep[i] = false;
            }
        }
    }
    rows.retain_rows(&keep);
    env.record(|s| &s.subsume, n_in, rows.len(), started, alloc0);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ViewLayout;
    use ojv_algebra::TableId;
    use ojv_rel::{Column, DataType, Datum, Row};
    use ojv_storage::Catalog;

    fn layout() -> ViewLayout {
        let mut c = Catalog::new();
        for name in ["a", "b"] {
            c.create_table(
                name,
                vec![
                    Column::new(name, "id", DataType::Int, false),
                    Column::new(name, "v", DataType::Int, true),
                ],
                &["id"],
            )
            .unwrap();
        }
        ViewLayout::new(&c, &["a", "b"]).unwrap()
    }

    fn ab(l: &ViewLayout, a: i64, b: i64) -> Row {
        let mut r = l.widen(TableId(0), &[Datum::Int(a), Datum::Int(a)]);
        r[2] = Datum::Int(b);
        r[3] = Datum::Int(b);
        r
    }

    fn a_only(l: &ViewLayout, a: i64) -> Row {
        l.widen(TableId(0), &[Datum::Int(a), Datum::Int(a)])
    }

    fn clean_dup(l: &ViewLayout, rows: Vec<Row>) -> Vec<Row> {
        clean_dup_buf(&ExecEnv::new(l), RowBuf::from_rows(l.width(), &rows)).into_rows()
    }

    #[test]
    fn distinct_removes_duplicates() {
        let l = layout();
        let rows = [a_only(&l, 1), a_only(&l, 1), a_only(&l, 2)];
        let out = distinct_in(&ExecEnv::new(&l), RowBuf::from_rows(l.width(), &rows));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn clean_dup_removes_subsumed_rows() {
        let l = layout();
        // (a=1,b=5) subsumes (a=1, b null); (a=2, null) survives.
        let rows = vec![ab(&l, 1, 5), a_only(&l, 1), a_only(&l, 2)];
        let out = clean_dup(&l, rows);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|r| !l.is_null_on(TableId(1), r)));
        assert!(out
            .iter()
            .any(|r| r[0] == Datum::Int(2) && l.is_null_on(TableId(1), r)));
    }

    #[test]
    fn clean_dup_keeps_distinct_joined_rows() {
        let l = layout();
        let rows = vec![ab(&l, 1, 5), ab(&l, 1, 6)];
        assert_eq!(clean_dup(&l, rows).len(), 2);
    }

    #[test]
    fn clean_dup_collapses_duplicates_and_subsumed() {
        let l = layout();
        let rows = vec![a_only(&l, 1), a_only(&l, 1), ab(&l, 1, 5)];
        let out = clean_dup(&l, rows);
        assert_eq!(out.len(), 1);
        assert!(!l.is_null_on(TableId(1), &out[0]));
    }

    #[test]
    fn rows_with_different_keys_do_not_subsume() {
        let l = layout();
        let rows = vec![ab(&l, 1, 5), a_only(&l, 2)];
        assert_eq!(clean_dup(&l, rows).len(), 2);
    }

    #[test]
    fn empty_input() {
        let l = layout();
        assert!(clean_dup(&l, Vec::new()).is_empty());
    }
}
