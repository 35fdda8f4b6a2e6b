//! Joins: one probe loop over a left *row side* and a right *access path*,
//! and key-based semi/anti joins.
//!
//! A left row side is a wide batch row or a base table's own row before
//! widening (a delta row or a columnar table row) — anything that is a
//! [`RowSide`]. An [`Access`] path hands the loop the right rows that may
//! pair with one left row: an index lookup on a base table
//! ([`IndexAccess`]), or the rows of a build ([`BuildAccess`]: a base
//! table's columnar rows or a wide batch), either chained by key (a hash
//! build) or compared one by one (a scan: a build of at most
//! [`TINY_BUILD_MAX`] rows, where the scan beats the hash, or a join with
//! no equijoin key — a nested loop).
//!
//! [`probe_join`] is the one loop. It walks the left rows in order, runs
//! the residual predicate on the *virtual* merge of each candidate pair
//! ([`eval_pred_pair`]; a rejected candidate is never materialized), and
//! writes survivors straight into one output batch, then the unmatched
//! rows every [`JoinKind`] keeps. Probes hash and verify keys on borrowed
//! rows, so a probe that finds nothing allocates nothing.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use ojv_algebra::{ColRef, JoinKind, Pred, TableId, TableSet};
use ojv_rel::{alloc_snapshot, Datum, FxHasher, Row, RowBuf};
use ojv_storage::{IndexRef, RowRef, Table};

use crate::eval::{eval_pred_pair, BaseRow, RowSide, WideRow};
use crate::hashtbl::{KeyHashTable, KeySet};
use crate::layout::ViewLayout;
use crate::stats::{ExecEnv, ExecStats, OpStats};

/// Largest build a join scans instead of chaining by key.
pub const TINY_BUILD_MAX: usize = 4;

/// Merge a right wide row into a left wide row: copy the slots of all
/// tables in `right_sources` (the two source sets are disjoint).
pub fn merge_rows(layout: &ViewLayout, left: &Row, right: &Row, right_sources: TableSet) -> Row {
    let mut out = left.clone();
    for t in right_sources.iter() {
        let slot = layout.slot(t);
        out[slot.offset..slot.offset + slot.len]
            .clone_from_slice(&right[slot.offset..slot.offset + slot.len]);
    }
    out
}

/// The rows of a wide batch carrying `sources`, as a join's left side.
pub fn wide_side<'a>(
    layout: &'a ViewLayout,
    rows: &'a RowBuf,
    sources: TableSet,
) -> impl Iterator<Item = WideRow<'a>> + Clone {
    rows.iter().map(move |row| WideRow {
        layout,
        sources,
        row,
    })
}

/// One base table's own rows — delta rows or columnar rows of table `t` —
/// as a join side.
pub fn base_side<R>(
    layout: &ViewLayout,
    t: TableId,
    rows: impl Iterator<Item = R> + Clone,
) -> impl Iterator<Item = BaseRow<R>> + Clone {
    let offset = layout.slot(t).offset;
    rows.map(move |row| BaseRow {
        table: t,
        offset,
        row,
    })
}

/// How a join reaches the right rows that may pair with one left row.
pub trait Access<'r> {
    type Row: RowSide<'r>;

    /// The counter the join is recorded under.
    fn counter(stats: &ExecStats) -> &OpStats;

    /// Call `visit(i, row)` on every right row whose key equals `left`'s,
    /// in build (or index) order, until it returns false. `i` numbers the
    /// build rows (an index lookup, which lists none, passes 0); a null
    /// left key has no candidates.
    fn probe<'l>(&mut self, left: impl RowSide<'l>, visit: impl FnMut(usize, Self::Row) -> bool);

    /// The number of build rows, or `None` when the path cannot list its
    /// rows (an index lookup): the right-preserving kinds need them.
    fn build_len(&self) -> Option<usize> {
        None
    }

    /// Build row `i`, unless a keep mask drops it.
    fn build_row(&self, _i: usize) -> Option<Self::Row> {
        None
    }
}

/// The one join loop. Every left row probes `access`; each candidate that
/// satisfies `residual` on the merged pair is a match. Output: the left
/// rows in order, each followed by its matches in access order (semi/anti
/// kinds keep the left row itself on a match or on none, outer kinds keep
/// it null-extended on none), then, for the right-preserving kinds, the
/// unmatched build rows in build order.
pub fn probe_join<'l, 'r, L: RowSide<'l>, A: Access<'r>>(
    env: &ExecEnv<'_>,
    kind: JoinKind,
    left: impl IntoIterator<Item = L>,
    access: &mut A,
    residual: &Pred,
) -> RowBuf {
    let keep_pairs = !matches!(kind, JoinKind::LeftSemi | JoinKind::LeftAnti);
    let build_len = match kind {
        JoinKind::RightOuter | JoinKind::FullOuter => access.build_len(),
        _ => Some(0),
    };
    assert!(
        build_len.is_some(),
        "an index lookup cannot keep unmatched right rows"
    );
    let started = Instant::now();
    let alloc0 = alloc_snapshot();
    let mut out = RowBuf::new(env.layout.width());
    let mut right_matched = vec![false; build_len.unwrap_or(0)];
    let mut rows_in = 0;
    for l in left {
        rows_in += 1;
        let mut matched = false;
        access.probe(l, |i, r| {
            if eval_pred_pair(residual, l, r) {
                matched = true;
                if let Some(m) = right_matched.get_mut(i) {
                    *m = true;
                }
                if keep_pairs {
                    let n = l.push_into(&mut out);
                    r.write_into(out.row_mut(n));
                }
                return keep_pairs;
            }
            true
        });
        let keep_left = match kind {
            JoinKind::LeftOuter | JoinKind::FullOuter | JoinKind::LeftAnti => !matched,
            JoinKind::LeftSemi => matched,
            JoinKind::Inner | JoinKind::RightOuter => false,
        };
        if keep_left {
            l.push_into(&mut out);
        }
    }
    for (i, _) in right_matched.iter().enumerate().filter(|(_, &m)| !m) {
        if let Some(r) = access.build_row(i) {
            r.push_into(&mut out);
        }
    }
    env.record(A::counter, rows_in, out.len(), started, alloc0);
    out
}

/// Index lookups on base table `table` at view position `id`: the left
/// key probes `index` (unique or secondary) and every row it finds is a
/// candidate, in index order. `exclude`, when set, holds unique keys to
/// skip — the current delta's, which is how the pre-update state of the
/// delta table (`Expr::OldState`, §5.3) is probed without materializing
/// it. Serves the left-preserving and semi/anti kinds.
pub struct IndexAccess<'a> {
    table: &'a Table,
    id: TableId,
    offset: usize,
    index: IndexRef,
    /// Left key columns, in the index's column order.
    keys: Vec<ColRef>,
    /// The probe key, reused across left rows.
    key: Vec<Datum>,
    exclude: Option<KeySet<'a>>,
}

impl<'a> IndexAccess<'a> {
    pub fn new(
        layout: &ViewLayout,
        table: &'a Table,
        id: TableId,
        index: IndexRef,
        keys: Vec<ColRef>,
        exclude: Option<KeySet<'a>>,
    ) -> Self {
        IndexAccess {
            table,
            id,
            offset: layout.slot(id).offset,
            index,
            key: vec![Datum::Null; keys.len()],
            keys,
            exclude,
        }
    }
}

impl<'a> Access<'a> for IndexAccess<'a> {
    type Row = BaseRow<RowRef<'a>>;

    fn counter(stats: &ExecStats) -> &OpStats {
        &stats.index_join
    }

    #[inline]
    fn probe<'l>(
        &mut self,
        left: impl RowSide<'l>,
        mut visit: impl FnMut(usize, Self::Row) -> bool,
    ) {
        if self.keys.iter().any(|&c| left.is_null(c)) {
            return;
        }
        for (slot, &c) in self.key.iter_mut().zip(&self.keys) {
            *slot = left.datum(c);
        }
        let (table, offset, excluded) = (self.id, self.offset, self.exclude.as_ref());
        for row in self.table.index_lookup(self.index, &self.key) {
            if excluded.is_some_and(|ex| ex.contains_ref(row, self.table.key_cols())) {
                continue;
            }
            if !visit(0, BaseRow { table, offset, row }) {
                break;
            }
        }
    }
}

/// The rows of a join build, by number.
pub trait BuildRows<'r> {
    type Row: RowSide<'r>;
    /// The number of rows.
    fn count(&self) -> usize;
    fn row(&self, i: usize) -> Self::Row;
    /// May row `i` match at all?
    fn kept(&self, _i: usize) -> bool {
        true
    }
}

/// Base table `table`'s columnar rows at view position `id`, less those
/// `keep` masks out (a failed scan predicate, delta exclusion): a build
/// over a base scan that is never widened.
pub struct TableRows<'a> {
    pub table: &'a Table,
    pub id: TableId,
    pub offset: usize,
    pub keep: Option<Vec<bool>>,
}

impl<'a> BuildRows<'a> for TableRows<'a> {
    type Row = BaseRow<RowRef<'a>>;

    fn count(&self) -> usize {
        self.table.len()
    }

    #[inline]
    fn row(&self, i: usize) -> Self::Row {
        BaseRow {
            table: self.id,
            offset: self.offset,
            row: self.table.row_ref(i),
        }
    }

    #[inline]
    fn kept(&self, i: usize) -> bool {
        self.keep.as_ref().is_none_or(|k| k[i])
    }
}

/// The rows of a wide batch carrying `sources`.
pub struct WideRows<'a> {
    pub layout: &'a ViewLayout,
    pub rows: &'a RowBuf,
    pub sources: TableSet,
}

impl<'a> BuildRows<'a> for WideRows<'a> {
    type Row = WideRow<'a>;

    fn count(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    fn row(&self, i: usize) -> Self::Row {
        WideRow {
            layout: self.layout,
            sources: self.sources,
            row: self.rows.row(i),
        }
    }
}

/// The key hash of `row`'s columns `cols` — [`ojv_rel::key_hash`]'s
/// stream, read through a row side.
fn side_key_hash<'a>(row: impl RowSide<'a>, cols: &[ColRef]) -> u64 {
    let mut h = FxHasher::default();
    cols.len().hash(&mut h);
    for &c in cols {
        row.col(c).hash(&mut h);
    }
    h.finish()
}

/// Do `a` at `a_cols` and `b` at `b_cols` carry the same key?
#[inline]
fn same_key<'a, 'b>(
    a: impl RowSide<'a>,
    a_cols: &[ColRef],
    b: impl RowSide<'b>,
    b_cols: &[ColRef],
) -> bool {
    a_cols
        .iter()
        .zip(b_cols)
        .all(|(&x, &y)| a.col(x) == b.col(y))
}

/// The rows of a build, keyed on the right columns of the equijoin pairs
/// `(left, right)`: chained by key ([`Self::hash`]) or scanned
/// ([`Self::scan`]).
pub struct BuildAccess<B> {
    rows: B,
    left_keys: Vec<ColRef>,
    right_keys: Vec<ColRef>,
    chains: Option<KeyHashTable>,
}

impl<'r, B: BuildRows<'r>> BuildAccess<B> {
    /// Probes compare the key with every kept build row, in order: a tiny
    /// build, or (with no keys) a nested loop.
    pub fn scan(rows: B, keys: &[(ColRef, ColRef)]) -> Self {
        BuildAccess {
            rows,
            left_keys: keys.iter().map(|k| k.0).collect(),
            right_keys: keys.iter().map(|k| k.1).collect(),
            chains: None,
        }
    }

    /// Chain the kept build rows with a non-null key by key, recorded as
    /// the join's build; probes walk the probe key's chain.
    pub fn hash(env: &ExecEnv<'_>, rows: B, keys: &[(ColRef, ColRef)]) -> Self {
        let started = Instant::now();
        let alloc0 = alloc_snapshot();
        let mut access = Self::scan(rows, keys);
        let (rows, cols) = (&access.rows, &access.right_keys);
        let chains = KeyHashTable::build(
            rows.count(),
            |i| {
                let r = rows.row(i);
                let usable = rows.kept(i) && !cols.iter().any(|&c| r.is_null(c));
                usable.then(|| side_key_hash(r, cols))
            },
            |i, j| same_key(rows.row(i), cols, rows.row(j), cols),
        );
        env.record(
            |s| &s.join_build,
            rows.count(),
            chains.distinct_keys(),
            started,
            alloc0,
        );
        access.chains = Some(chains);
        access
    }
}

impl<'r, B: BuildRows<'r>> Access<'r> for BuildAccess<B> {
    type Row = B::Row;

    fn counter(stats: &ExecStats) -> &OpStats {
        &stats.join_probe
    }

    #[inline]
    fn probe<'l>(
        &mut self,
        left: impl RowSide<'l>,
        mut visit: impl FnMut(usize, Self::Row) -> bool,
    ) {
        if self.left_keys.iter().any(|&c| left.is_null(c)) {
            return;
        }
        // A build row equal to a non-null key has no null key column.
        let rows = &self.rows;
        let is_key = |j| same_key(left, &self.left_keys, rows.row(j), &self.right_keys);
        match &self.chains {
            Some(chains) => {
                for j in chains.rows_of(side_key_hash(left, &self.left_keys), is_key) {
                    if !visit(j, rows.row(j)) {
                        break;
                    }
                }
            }
            None => {
                for j in (0..rows.count()).filter(|&j| rows.kept(j) && is_key(j)) {
                    if !visit(j, rows.row(j)) {
                        break;
                    }
                }
            }
        }
    }

    fn build_len(&self) -> Option<usize> {
        Some(self.rows.count())
    }

    fn build_row(&self, i: usize) -> Option<Self::Row> {
        self.rows.kept(i).then(|| self.rows.row(i))
    }
}

/// Join two wide batches: a hash build over `right` (a scan when it is
/// tiny, a nested loop when `pred` has no equijoin key). All
/// [`JoinKind`]s are supported.
pub fn hash_join_buf(
    env: &ExecEnv<'_>,
    kind: JoinKind,
    pred: &Pred,
    left: RowBuf,
    right: RowBuf,
    left_sources: TableSet,
    right_sources: TableSet,
) -> RowBuf {
    let (keys, residual) = pred.equi_split(left_sources, right_sources);
    let rows = WideRows {
        layout: env.layout,
        rows: &right,
        sources: right_sources,
    };
    let mut access = if keys.is_empty() || right.len() <= TINY_BUILD_MAX {
        BuildAccess::scan(rows, &keys)
    } else {
        BuildAccess::hash(env, rows, &keys)
    };
    let left = wide_side(env.layout, &left, left_sources);
    probe_join(env, kind, left, &mut access, &residual)
}

/// Key-based semi/anti join: keep (or drop) left rows whose key at
/// `left_cols` appears among the right rows' keys at `right_cols`.
///
/// This implements the paper's `⋉ls_{eq(T_i)}` and `▷la_{eq(T_i)}` operators
/// from the secondary-delta expressions (§5.2, §5.3). Rows whose key contains
/// a null never match (the equijoin is null-rejecting). A [`KeySet`] over
/// the borrowed right rows answers each left row, and the left batch is
/// filtered in place — no key is copied on either side.
pub fn semi_anti_by_key_buf<'r>(
    mut left: RowBuf,
    left_cols: &[usize],
    right: impl Iterator<Item = &'r [Datum]>,
    right_cols: &[usize],
    anti: bool,
) -> RowBuf {
    let keys = KeySet::build(right, right_cols);
    let keep: Vec<bool> = left
        .iter()
        .map(|l| keys.contains(l, left_cols) != anti)
        .collect();
    left.retain_rows(&keep);
    left
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ojv_algebra::{Atom, CmpOp};
    use ojv_rel::{Column, DataType};
    use ojv_storage::Catalog;

    /// Two tables: a(id, x), b(id, aid, y). View order [a, b].
    fn setup() -> (Catalog, ViewLayout) {
        let mut c = Catalog::new();
        c.create_table(
            "a",
            vec![
                Column::new("a", "id", DataType::Int, false),
                Column::new("a", "x", DataType::Int, true),
            ],
            &["id"],
        )
        .unwrap();
        c.create_table(
            "b",
            vec![
                Column::new("b", "id", DataType::Int, false),
                Column::new("b", "aid", DataType::Int, false),
                Column::new("b", "y", DataType::Int, true),
            ],
            &["id"],
        )
        .unwrap();
        let l = ViewLayout::new(&c, &["a", "b"]).unwrap();
        (c, l)
    }

    fn a_rows(l: &ViewLayout, ids: &[i64]) -> Vec<Row> {
        ids.iter()
            .map(|&i| l.widen(TableId(0), &[Datum::Int(i), Datum::Int(i * 10)]))
            .collect()
    }

    /// b rows as (id, aid).
    fn b_rows(l: &ViewLayout, rows: &[(i64, i64)]) -> Vec<Row> {
        rows.iter()
            .map(|&(id, aid)| {
                l.widen(
                    TableId(1),
                    &[Datum::Int(id), Datum::Int(aid), Datum::Int(0)],
                )
            })
            .collect()
    }

    fn join_pred() -> Pred {
        Pred::atom(Atom::eq(
            ColRef::new(TableId(0), 0),
            ColRef::new(TableId(1), 1),
        ))
    }

    fn buf(l: &ViewLayout, rows: &[Row]) -> RowBuf {
        RowBuf::from_rows(l.width(), rows)
    }

    /// `a ⋈ b` through [`hash_join_buf`], as rows.
    fn join(l: &ViewLayout, kind: JoinKind, pred: &Pred, left: &[Row], right: &[Row]) -> Vec<Row> {
        hash_join_buf(
            &ExecEnv::new(l),
            kind,
            pred,
            buf(l, left),
            buf(l, right),
            TableSet::singleton(TableId(0)),
            TableSet::singleton(TableId(1)),
        )
        .into_rows()
    }

    fn run(kind: JoinKind, left: Vec<Row>, right: Vec<Row>, l: &ViewLayout) -> Vec<Row> {
        join(l, kind, &join_pred(), &left, &right)
    }

    #[test]
    fn inner_join_matches() {
        let (_c, l) = setup();
        let out = run(
            JoinKind::Inner,
            a_rows(&l, &[1, 2, 3]),
            b_rows(&l, &[(10, 1), (11, 1), (12, 9)]),
            &l,
        );
        assert_eq!(out.len(), 2);
        for r in &out {
            assert_eq!(r[0], Datum::Int(1));
            assert!(!l.is_null_on(TableId(1), r));
        }
    }

    #[test]
    fn left_outer_preserves_left() {
        let (_c, l) = setup();
        let out = run(
            JoinKind::LeftOuter,
            a_rows(&l, &[1, 2]),
            b_rows(&l, &[(10, 1)]),
            &l,
        );
        assert_eq!(out.len(), 2);
        let unmatched: Vec<_> = out.iter().filter(|r| l.is_null_on(TableId(1), r)).collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0][0], Datum::Int(2));
    }

    #[test]
    fn right_outer_preserves_right() {
        let (_c, l) = setup();
        let out = run(
            JoinKind::RightOuter,
            a_rows(&l, &[1]),
            b_rows(&l, &[(10, 1), (11, 7)]),
            &l,
        );
        assert_eq!(out.len(), 2);
        let unmatched: Vec<_> = out.iter().filter(|r| l.is_null_on(TableId(0), r)).collect();
        assert_eq!(unmatched.len(), 1);
        assert_eq!(unmatched[0][2], Datum::Int(11));
    }

    #[test]
    fn full_outer_preserves_both() {
        let (_c, l) = setup();
        let out = run(
            JoinKind::FullOuter,
            a_rows(&l, &[1, 2]),
            b_rows(&l, &[(10, 1), (11, 7)]),
            &l,
        );
        // 1 match + 1 unmatched left + 1 unmatched right.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn semi_and_anti_joins() {
        let (_c, l) = setup();
        let semi = run(
            JoinKind::LeftSemi,
            a_rows(&l, &[1, 2]),
            b_rows(&l, &[(10, 1), (11, 1)]),
            &l,
        );
        assert_eq!(semi.len(), 1);
        assert_eq!(semi[0][0], Datum::Int(1));
        // Semi join never duplicates.
        let anti = run(
            JoinKind::LeftAnti,
            a_rows(&l, &[1, 2]),
            b_rows(&l, &[(10, 1), (11, 1)]),
            &l,
        );
        assert_eq!(anti.len(), 1);
        assert_eq!(anti[0][0], Datum::Int(2));
    }

    #[test]
    fn null_keys_never_match() {
        let (_c, l) = setup();
        // A b-row null-extended on a (null aid is impossible in base data,
        // but a null-extended wide row probes with null).
        let mut left = a_rows(&l, &[1]);
        l.null_out(TableSet::singleton(TableId(0)), &mut left[0]);
        let out = run(JoinKind::Inner, left, b_rows(&l, &[(10, 1)]), &l);
        assert!(out.is_empty());
    }

    #[test]
    fn residual_predicate_applies_after_key_match() {
        let (_c, l) = setup();
        let pred = join_pred().and(&Pred::atom(Atom::Const(
            ColRef::new(TableId(1), 0),
            CmpOp::Gt,
            Datum::Int(10),
        )));
        let out = join(
            &l,
            JoinKind::Inner,
            &pred,
            &a_rows(&l, &[1]),
            &b_rows(&l, &[(10, 1), (11, 1)]),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][2], Datum::Int(11));
    }

    #[test]
    fn nested_loop_fallback_without_equijoin() {
        let (_c, l) = setup();
        let pred = Pred::atom(Atom::Cols(
            ColRef::new(TableId(0), 0),
            CmpOp::Lt,
            ColRef::new(TableId(1), 1),
        ));
        let out = join(
            &l,
            JoinKind::Inner,
            &pred,
            &a_rows(&l, &[1, 5]),
            &b_rows(&l, &[(10, 3)]),
        );
        // a.id < b.aid: only a(1) < 3.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Datum::Int(1));
    }

    const KINDS: [JoinKind; 6] = [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::RightOuter,
        JoinKind::FullOuter,
        JoinKind::LeftSemi,
        JoinKind::LeftAnti,
    ];

    /// The scan of a tiny build must be indistinguishable from the hash
    /// build — same rows, same order — for every join kind, including
    /// inputs with duplicate keys, null keys, and a residual predicate.
    #[test]
    fn tiny_build_scan_pins_hash_path_output() {
        let (_c, l) = setup();
        let mut left = a_rows(&l, &[1, 2, 3, 1]);
        l.null_out(TableSet::singleton(TableId(0)), &mut left[2]);
        let (left, right) = (
            buf(&l, &left),
            buf(&l, &b_rows(&l, &[(10, 1), (11, 2), (12, 1), (13, 9)])),
        );
        assert!(right.len() <= TINY_BUILD_MAX);
        let residual = Pred::atom(Atom::Const(
            ColRef::new(TableId(1), 0),
            CmpOp::Gt,
            Datum::Int(9),
        ));
        let (ls, rs) = (
            TableSet::singleton(TableId(0)),
            TableSet::singleton(TableId(1)),
        );
        let (keys, _) = join_pred().equi_split(ls, rs);
        let env = ExecEnv::new(&l);
        let rows = || WideRows {
            layout: &l,
            rows: &right,
            sources: rs,
        };
        for kind in KINDS {
            let left = || wide_side(&l, &left, ls);
            let mut scan = BuildAccess::scan(rows(), &keys);
            let mut hash = BuildAccess::hash(&env, rows(), &keys);
            assert_eq!(
                probe_join(&env, kind, left(), &mut scan, &residual),
                probe_join(&env, kind, left(), &mut hash, &residual),
                "{kind:?}"
            );
        }
    }

    /// The hash build over a base table's own rows must match widening the
    /// table first and hash-joining — same rows, same order.
    #[test]
    fn table_row_build_matches_widened_hash_join() {
        let (mut c, l) = setup();
        let b_data: Vec<Row> = (0..20)
            .map(|i| vec![Datum::Int(100 + i), Datum::Int(i % 5), Datum::Int(0)])
            .collect();
        c.insert("b", b_data.clone()).unwrap();
        let table = c.table("b").unwrap();
        let left = buf(&l, &a_rows(&l, &[0, 1, 2, 9]));
        let keep: Vec<bool> = b_data.iter().map(|r| r[0] != Datum::Int(103)).collect();
        let (ls, rs) = (
            TableSet::singleton(TableId(0)),
            TableSet::singleton(TableId(1)),
        );
        let (keys, _) = join_pred().equi_split(ls, rs);
        for kind in KINDS {
            let env = ExecEnv::new(&l);
            let rows = TableRows {
                table,
                id: TableId(1),
                offset: l.slot(TableId(1)).offset,
                keep: Some(keep.clone()),
            };
            let mut access = BuildAccess::hash(&env, rows, &keys);
            let narrow = probe_join(
                &env,
                kind,
                wide_side(&l, &left, ls),
                &mut access,
                &Pred::true_(),
            );
            let wide_right: Vec<Row> = b_data
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(r, _)| l.widen(TableId(1), r))
                .collect();
            let reference = join(&l, kind, &join_pred(), &left.to_rows(), &wide_right);
            assert_eq!(narrow.into_rows(), reference, "{kind:?}");
        }
    }

    /// A row of [`oracle_catalog`]'s tables; `None` is NULL.
    pub(crate) type OracleRow = [Option<i64>; 3];

    /// a(id, x, k) and b(id, ak, y), no foreign keys: `x`, `k`, `ak` and
    /// `y` are nullable, `k` and `ak` may dangle, and b has a secondary
    /// index on `ak`. Layout [a, b].
    pub(crate) fn oracle_catalog(a: &[OracleRow], b: &[OracleRow]) -> (Catalog, ViewLayout) {
        let mut c = Catalog::new();
        let col = |t: &str, n: &str, nullable| Column::new(t, n, DataType::Int, nullable);
        for (t, [c1, c2]) in [("a", ["x", "k"]), ("b", ["ak", "y"])] {
            let cols = vec![col(t, "id", false), col(t, c1, true), col(t, c2, true)];
            c.create_table(t, cols, &["id"]).unwrap();
        }
        c.table_mut("b").unwrap().add_secondary_index(vec![1]);
        let rows = |rs: &[OracleRow]| -> Vec<Row> {
            rs.iter()
                .map(|r| {
                    r.iter()
                        .map(|v| v.map_or(Datum::Null, Datum::Int))
                        .collect()
                })
                .collect()
        };
        c.insert("a", rows(a)).unwrap();
        c.insert("b", rows(b)).unwrap();
        let l = ViewLayout::new(&c, &["a", "b"]).unwrap();
        (c, l)
    }

    /// Rows of [`oracle_catalog`]: eight a rows with some null `x` and `k`,
    /// sixteen b rows sharing `ak` values (some null), and one b row that
    /// is null but for its key.
    pub(crate) fn oracle_rows() -> (Vec<OracleRow>, Vec<OracleRow>) {
        let a = (1..=8)
            .map(|i| {
                [
                    Some(i),
                    (i % 3 != 0).then_some(i * 10),
                    (i % 4 != 0).then_some(100 + i % 6),
                ]
            })
            .collect();
        let mut b: Vec<_> = (100..116)
            .map(|i| [Some(i), (i % 5 != 0).then_some(i % 7), Some((i - 100) * 7)])
            .collect();
        b.push([Some(200), None, None]);
        (a, b)
    }

    /// The reference join: every pair of widened rows, `pred` run on the
    /// merged row by the single-row evaluator, then the unmatched rows
    /// `kind` keeps. Sorted, so outputs compare as multisets.
    fn nested_loop_reference(
        l: &ViewLayout,
        kind: JoinKind,
        pred: &Pred,
        left: &[Row],
        right: &[Row],
    ) -> Vec<Row> {
        let mut out = Vec::new();
        let mut right_matched = vec![false; right.len()];
        for lr in left {
            let mut matched = false;
            for (j, rr) in right.iter().enumerate() {
                let merged = merge_rows(l, lr, rr, TableSet::singleton(TableId(1)));
                if crate::eval::eval_pred(l, pred, &merged) {
                    matched = true;
                    right_matched[j] = true;
                    if !matches!(kind, JoinKind::LeftSemi | JoinKind::LeftAnti) {
                        out.push(merged);
                    }
                }
            }
            match kind {
                JoinKind::LeftOuter | JoinKind::FullOuter | JoinKind::LeftAnti if !matched => {
                    out.push(lr.clone())
                }
                JoinKind::LeftSemi if matched => out.push(lr.clone()),
                _ => {}
            }
        }
        if matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter) {
            let unmatched = right.iter().zip(&right_matched).filter(|(_, &m)| !m);
            out.extend(unmatched.map(|(r, _)| r.clone()));
        }
        out.sort();
        out
    }

    /// What the oracle needs of one catalog: b's rows, widened; the keys
    /// of a pretend delta of b (every third row); and a keep mask.
    struct OracleRight<'a> {
        table: &'a Table,
        wide: RowBuf,
        delta: Vec<Row>,
        keep: Vec<bool>,
    }

    impl OracleRight<'_> {
        /// The widened b rows an access path exposes.
        fn rows(&self, l: &ViewLayout, path: &str) -> Vec<Row> {
            let excluded = KeySet::build(self.delta.iter().map(Vec::as_slice), &[0]);
            let all = self.table.iter_refs().enumerate();
            all.filter(|&(i, r)| match path {
                "index, delta excluded" => !excluded.contains_ref(r, &[0]),
                "table-row hash, masked" => self.keep[i],
                _ => true,
            })
            .map(|(_, r)| l.widen(TableId(1), &r.to_row()))
            .collect()
        }
    }

    /// The join of `left` with b through every access path `kind` allows:
    /// (path, sorted output).
    fn every_access<'l, L: RowSide<'l>>(
        l: &ViewLayout,
        b: &OracleRight<'_>,
        kind: JoinKind,
        left: impl Iterator<Item = L> + Clone,
        keys: &[(ColRef, ColRef)],
        residual: &Pred,
        full: &Pred,
    ) -> Vec<(&'static str, Vec<Row>)> {
        let env = ExecEnv::new(l);
        let bt = TableId(1);
        let mut out = Vec::new();
        macro_rules! run {
            ($path:expr, $access:expr, $residual:expr) => {{
                let mut access = $access;
                let rows = probe_join(&env, kind, left.clone(), &mut access, $residual);
                let mut rows = rows.into_rows();
                rows.sort();
                out.push(($path, rows));
            }};
        }
        if !matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter) {
            let local: Vec<usize> = keys.iter().map(|k| k.1.col).collect();
            let (index, perm) = b.table.index_on(&local).unwrap();
            let index_keys = || perm.iter().map(|&p| keys[p].0).collect();
            let access = IndexAccess::new(l, b.table, bt, index, index_keys(), None);
            run!("index", access, residual);
            let exclude = KeySet::build(b.delta.iter().map(Vec::as_slice), b.table.key_cols());
            let access = IndexAccess::new(l, b.table, bt, index, index_keys(), Some(exclude));
            run!("index, delta excluded", access, residual);
        }
        let rows = TableRows {
            table: b.table,
            id: bt,
            offset: l.slot(bt).offset,
            keep: Some(b.keep.clone()),
        };
        run!(
            "table-row hash, masked",
            BuildAccess::hash(&env, rows, keys),
            residual
        );
        let wide = || WideRows {
            layout: l,
            rows: &b.wide,
            sources: TableSet::singleton(bt),
        };
        run!("wide hash", BuildAccess::hash(&env, wide(), keys), residual);
        run!("scan", BuildAccess::scan(wide(), keys), residual);
        run!("nested loop", BuildAccess::scan(wide(), &[]), full);
        out
    }

    /// The one join loop against an independent nested loop over widened
    /// rows, as multisets: every join kind, every access path (index with
    /// and without delta exclusion, table-row hash with a keep mask, wide
    /// hash, scan, nested loop) and every left row side (wide, delta,
    /// columnar), over null probe and build keys, a multi-match secondary
    /// index, residuals on either side and across both, and empty inputs.
    #[test]
    fn probe_join_matches_a_nested_loop_over_widened_rows() {
        let (a, bt) = (TableId(0), TableId(1));
        let cr = ColRef::new;
        let cmp = |c: ColRef, op, v: i64| Atom::Const(c, op, Datum::Int(v));
        // a.id = b.ak probes b's secondary index; a.k = b.id probes its
        // unique key from a nullable, partly dangling column.
        let key_pairs = [(cr(a, 0), cr(bt, 1)), (cr(a, 2), cr(bt, 0))];
        let residuals = [
            Pred::true_(),
            Pred::atom(Atom::Cols(cr(a, 1), CmpOp::Le, cr(bt, 2))),
            Pred::new(vec![
                cmp(cr(a, 1), CmpOp::Gt, 20),
                cmp(cr(bt, 2), CmpOp::Lt, 70),
            ]),
        ];
        let (a_data, b_data) = oracle_rows();
        let datasets = [
            (a_data.clone(), b_data.clone()),
            (vec![], b_data),
            (a_data, vec![]),
        ];
        let mut nonempty = 0;
        for (a_data, b_data) in &datasets {
            let (c, l) = oracle_catalog(a_data, b_data);
            let (ta, table) = (c.table("a").unwrap(), c.table("b").unwrap());
            let widen = |t: &Table, id| {
                let mut out = RowBuf::new(l.width());
                t.iter_refs()
                    .for_each(|r| l.widen_ref_into(id, r, &mut out));
                out
            };
            let b = OracleRight {
                table,
                wide: widen(table, bt),
                delta: table.iter_rows().step_by(3).collect(),
                keep: (0..table.len()).map(|i| i % 2 == 1).collect(),
            };
            let wide_a = widen(ta, a);
            let a_rows: Vec<Row> = ta.iter_rows().collect();
            let delta_side = base_side(&l, a, a_rows.iter().map(Vec::as_slice));
            let columnar_side = base_side(&l, a, ta.iter_refs());
            for &(lk, rk) in &key_pairs {
                for residual in &residuals {
                    let full = Pred::atom(Atom::eq(lk, rk)).and(residual);
                    for kind in KINDS {
                        let sides = [
                            (
                                "wide",
                                every_access(
                                    &l,
                                    &b,
                                    kind,
                                    wide_side(&l, &wide_a, TableSet::singleton(a)),
                                    &[(lk, rk)],
                                    residual,
                                    &full,
                                ),
                            ),
                            (
                                "delta",
                                every_access(
                                    &l,
                                    &b,
                                    kind,
                                    delta_side.clone(),
                                    &[(lk, rk)],
                                    residual,
                                    &full,
                                ),
                            ),
                            (
                                "columnar",
                                every_access(
                                    &l,
                                    &b,
                                    kind,
                                    columnar_side.clone(),
                                    &[(lk, rk)],
                                    residual,
                                    &full,
                                ),
                            ),
                        ];
                        for (side, paths) in sides {
                            for (path, got) in paths {
                                let right = b.rows(&l, path);
                                let want = nested_loop_reference(
                                    &l,
                                    kind,
                                    &full,
                                    &wide_a.to_rows(),
                                    &right,
                                );
                                assert_eq!(got, want, "{kind:?}, {side} left, {path}, on {full:?}");
                                nonempty += usize::from(!want.is_empty());
                            }
                        }
                    }
                }
            }
        }
        assert!(nonempty > 0);
    }

    #[test]
    fn semi_anti_by_key_basics() {
        let (_c, l) = setup();
        let left = a_rows(&l, &[1, 2, 3]);
        let right = a_rows(&l, &[2, 3, 4]);
        let by_key = |anti| {
            let right = right.iter().map(|r| r.as_slice());
            semi_anti_by_key_buf(buf(&l, &left), &[0], right, &[0], anti)
        };
        assert_eq!(by_key(false).len(), 2);
        let anti = by_key(true);
        assert_eq!(anti.len(), 1);
        assert_eq!(anti.row(0)[0], Datum::Int(1));
    }
}
