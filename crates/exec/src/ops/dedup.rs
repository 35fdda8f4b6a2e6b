//! Duplicate elimination and the null-if cleanup operator.
//!
//! Both operators run hash-then-verify over flat [`RowBuf`] batches: rows
//! are hashed in place with the deterministic fx hasher, equality is
//! verified on borrowed slices, and survivors are compacted in place — no
//! owned key vectors, no per-row `HashSet` entries.

use std::time::Instant;

use ojv_rel::{
    alloc_snapshot, fx_map_with_capacity, key_eq_rows, key_hash, Datum, FxHashMap, RowBuf,
};

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

/// Scan rows in increasing index order and mark the first occurrence of
/// every distinct row — chained hash-then-verify over rows hashed in place
/// with the seeded fx hasher, no owned keys.
fn first_occurrences(rows: &RowBuf) -> Vec<bool> {
    const NIL: u32 = u32::MAX;
    let cols: Vec<usize> = (0..rows.width()).collect();
    let mut keep = vec![false; rows.len()];
    let mut head: FxHashMap<u64, u32> = FxHashMap::default();
    let mut next = vec![NIL; rows.len()];
    'rows: for i in 0..rows.len() {
        let slot = head.entry(key_hash(rows.row(i), &cols)).or_insert(NIL);
        let mut cur = *slot;
        while cur != NIL {
            if key_eq_rows(rows.row(i), &cols, rows.row(cur as usize), &cols) {
                continue 'rows; // duplicate of an earlier row
            }
            cur = next[cur as usize];
        }
        next[i] = *slot;
        *slot = i as u32;
        keep[i] = true;
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
/// operator implements (grouping by source mask, then probing superset
/// masks), and it is exact for the well-formed rows the maintenance
/// expressions produce.
///
/// Rows are grouped by source mask, each mask is checked against the rows
/// of its superset masks, and kept rows are compacted in input order. The
/// same operator is the paper's minimum union `⊕` (§2.1) of batches
/// concatenated into one input.
pub fn clean_dup_buf(env: &ExecEnv<'_>, rows: RowBuf) -> RowBuf {
    let mut rows = distinct_in(env, rows);
    let layout = env.layout;
    let n_tables = layout.table_count();
    let started = Instant::now();
    let alloc0 = alloc_snapshot();
    let n_in = rows.len();
    let mask_of = |r: &[Datum]| -> u32 {
        let mut m = 0u32;
        for i in 0..n_tables {
            if !layout.is_null_on(ojv_algebra::TableId(i as u8), r) {
                m |= 1 << i;
            }
        }
        m
    };
    // Columns of each mask = concatenated slots of its tables.
    let cols_of_mask = |m: u32| -> Vec<usize> {
        let mut cols = Vec::new();
        for i in 0..n_tables {
            if m & (1 << i) != 0 {
                let slot = layout.slot(ojv_algebra::TableId(i as u8));
                cols.extend(slot.offset..slot.offset + slot.len);
            }
        }
        cols
    };

    let masks: Vec<u32> = rows.iter().map(mask_of).collect();
    let mut by_mask: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
    for (i, &m) in masks.iter().enumerate() {
        by_mask.entry(m).or_default().push(i);
    }
    let mut distinct_masks: Vec<u32> = by_mask.keys().copied().collect();
    distinct_masks.sort_unstable();

    let mut keep = vec![true; rows.len()];
    for &m in &distinct_masks {
        let cols = cols_of_mask(m);
        // Hash-then-verify over projections of every superset-mask row onto
        // m's columns — the projections stay borrowed.
        let mut super_proj: FxHashMap<u64, Vec<u32>> = fx_map_with_capacity(8);
        for &m2 in &distinct_masks {
            if m2 != m && m2 & m == m {
                for &j in &by_mask[&m2] {
                    let h = key_hash(rows.row(j), &cols);
                    super_proj.entry(h).or_default().push(j as u32);
                }
            }
        }
        if super_proj.is_empty() {
            continue;
        }
        for &i in &by_mask[&m] {
            let h = key_hash(rows.row(i), &cols);
            let subsumed = super_proj.get(&h).is_some_and(|js| {
                js.iter()
                    .any(|&j| key_eq_rows(rows.row(i), &cols, rows.row(j as usize), &cols))
            });
            if subsumed {
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
    use ojv_rel::{Column, DataType, Row};
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
