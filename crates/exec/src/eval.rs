//! Scalar predicate evaluation over wide rows and join row pairs.

use ojv_algebra::{Atom, ColRef, Pred, TableId, TableSet};
use ojv_rel::{Datum, DatumRef, RowBuf};
use ojv_storage::RowRef;

use crate::layout::ViewLayout;

/// Evaluate a conjunction on a wide row under SQL three-valued logic
/// collapsed to boolean: unknown (any null operand) is false — which is
/// exactly the *null-rejecting* behaviour the paper requires of all view
/// predicates.
pub fn eval_pred(layout: &ViewLayout, pred: &Pred, row: &[Datum]) -> bool {
    let get = |c: &ColRef| row[layout.global(*c)].as_ref();
    pred.atoms().iter().all(|a| eval_atom_with(a, get))
}

/// One side of a join pair: a wide batch row ([`WideRow`]), or one base
/// table's own row before widening ([`BaseRow`]: a delta row or a table's
/// columnar [`RowRef`]). The join loop reads keys and residual columns
/// through this, and writes only the pairs that survive.
pub trait RowSide<'a>: Copy {
    /// Does the row answer for the columns of table `t`?
    fn holds(self, t: TableId) -> bool;
    /// Borrowed view of column `c`.
    fn col(self, c: ColRef) -> DatumRef<'a>;
    /// Owned value of column `c` (strings clone the backing `Arc`).
    fn datum(self, c: ColRef) -> Datum;
    /// Is column `c` NULL?
    fn is_null(self, c: ColRef) -> bool;
    /// Write the row's table slots into the wide row `out`, leaving the
    /// other slots as they are.
    fn write_into(self, out: &mut [Datum]);
    /// Append the row to `out`, null on every other table; returns its
    /// index in `out`.
    fn push_into(self, out: &mut RowBuf) -> usize {
        self.write_into(out.push_null_row());
        out.len() - 1
    }
}

/// A row of a wide batch, carrying the tables in `sources`.
#[derive(Clone, Copy)]
pub struct WideRow<'a> {
    pub layout: &'a ViewLayout,
    pub sources: TableSet,
    pub row: &'a [Datum],
}

impl<'a> RowSide<'a> for WideRow<'a> {
    #[inline]
    fn holds(self, t: TableId) -> bool {
        self.sources.contains(t)
    }

    #[inline]
    fn col(self, c: ColRef) -> DatumRef<'a> {
        self.row[self.layout.global(c)].as_ref()
    }

    #[inline]
    fn datum(self, c: ColRef) -> Datum {
        self.row[self.layout.global(c)].clone()
    }

    #[inline]
    fn is_null(self, c: ColRef) -> bool {
        self.row[self.layout.global(c)].is_null()
    }

    fn write_into(self, out: &mut [Datum]) {
        for t in self.sources.iter() {
            let slot = self.layout.slot(t);
            let cols = slot.offset..slot.offset + slot.len;
            out[cols.clone()].clone_from_slice(&self.row[cols]);
        }
    }

    /// The whole row, copied as it is.
    fn push_into(self, out: &mut RowBuf) -> usize {
        out.push_row(self.row);
        out.len() - 1
    }
}

/// One base table's own row, not yet widened: a delta row (`&[Datum]`) or
/// a table's columnar [`RowRef`], of table `table` whose layout slot starts
/// at `offset`. Column references index the row by `col.col`.
#[derive(Clone, Copy)]
pub struct BaseRow<R> {
    pub table: TableId,
    pub offset: usize,
    pub row: R,
}

impl<'a> RowSide<'a> for BaseRow<&'a [Datum]> {
    #[inline]
    fn holds(self, t: TableId) -> bool {
        t == self.table
    }

    #[inline]
    fn col(self, c: ColRef) -> DatumRef<'a> {
        debug_assert_eq!(c.table, self.table);
        self.row[c.col].as_ref()
    }

    #[inline]
    fn datum(self, c: ColRef) -> Datum {
        debug_assert_eq!(c.table, self.table);
        self.row[c.col].clone()
    }

    #[inline]
    fn is_null(self, c: ColRef) -> bool {
        debug_assert_eq!(c.table, self.table);
        self.row[c.col].is_null()
    }

    fn write_into(self, out: &mut [Datum]) {
        out[self.offset..self.offset + self.row.len()].clone_from_slice(self.row);
    }
}

impl<'a> RowSide<'a> for BaseRow<RowRef<'a>> {
    #[inline]
    fn holds(self, t: TableId) -> bool {
        t == self.table
    }

    #[inline]
    fn col(self, c: ColRef) -> DatumRef<'a> {
        debug_assert_eq!(c.table, self.table);
        self.row.dat(c.col)
    }

    #[inline]
    fn datum(self, c: ColRef) -> Datum {
        debug_assert_eq!(c.table, self.table);
        self.row.datum(c.col)
    }

    #[inline]
    fn is_null(self, c: ColRef) -> bool {
        debug_assert_eq!(c.table, self.table);
        self.row.is_null(c.col)
    }

    fn write_into(self, out: &mut [Datum]) {
        self.row
            .copy_into(&mut out[self.offset..self.offset + self.row.width()]);
    }
}

/// Evaluate a conjunction on the *virtual* merge of a join pair: columns
/// of the tables `right` holds resolve against it, every other column
/// against `left`. Join loops use this to reject a candidate before any
/// slot is copied — only survivors are written into the output batch.
#[inline]
pub fn eval_pred_pair<'l, 'r>(
    pred: &Pred,
    left: impl RowSide<'l>,
    right: impl RowSide<'r>,
) -> bool {
    let get = |c: &ColRef| {
        if right.holds(c.table) {
            right.col(*c)
        } else {
            left.col(*c)
        }
    };
    pred.atoms().iter().all(|a| eval_atom_with(a, get))
}

/// One atom under SQL three-valued logic, columns resolved by `get`.
///
/// The getter returns a borrowed [`DatumRef`] view so this one evaluator
/// serves wide-row slices and columnar rows alike — `DatumRef::sql_cmp`
/// mirrors `Datum::sql_cmp` exactly (pinned by a property test in
/// `ojv-rel`).
#[inline]
fn eval_atom_with<'r>(atom: &Atom, get: impl Fn(&ColRef) -> DatumRef<'r>) -> bool {
    match atom {
        Atom::Cols(a, op, b) => get(a).sql_cmp(get(b)).map(|o| op.eval(o)).unwrap_or(false),
        Atom::Const(c, op, lit) => get(c)
            .sql_cmp_datum(lit)
            .map(|o| op.eval(o))
            .unwrap_or(false),
        Atom::Between(c, lo, hi) => match (get(c).sql_cmp_datum(lo), get(c).sql_cmp_datum(hi)) {
            (Some(a), Some(b)) => a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater,
            _ => false,
        },
    }
}

/// Evaluate a **single-table** conjunction on a columnar base-table row:
/// column references index the row directly (`col.col`), no layout needed,
/// so pushed-down scan predicates evaluate straight off the column pages
/// before any widening. The caller must guarantee every atom references
/// only the scanned table.
pub fn eval_pred_narrow_ref(pred: &Pred, row: RowRef<'_>) -> bool {
    let get = |c: &ColRef| row.dat(c.col);
    pred.atoms().iter().all(|a| eval_atom_with(a, get))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ojv_algebra::{CmpOp, ColRef, TableId};
    use ojv_rel::{Column, DataType};
    use ojv_storage::Catalog;

    fn layout() -> ViewLayout {
        let mut c = Catalog::new();
        c.create_table(
            "t",
            vec![
                Column::new("t", "id", DataType::Int, false),
                Column::new("t", "v", DataType::Int, true),
            ],
            &["id"],
        )
        .unwrap();
        c.create_table(
            "u",
            vec![
                Column::new("u", "id", DataType::Int, false),
                Column::new("u", "tid", DataType::Int, false),
            ],
            &["id"],
        )
        .unwrap();
        ViewLayout::new(&c, &["t", "u"]).unwrap()
    }

    fn cr(t: u8, c: usize) -> ColRef {
        ColRef::new(TableId(t), c)
    }

    #[test]
    fn equijoin_atom() {
        let l = layout();
        let p = Pred::atom(Atom::eq(cr(0, 0), cr(1, 1)));
        let hit = vec![Datum::Int(1), Datum::Null, Datum::Int(9), Datum::Int(1)];
        let miss = vec![Datum::Int(1), Datum::Null, Datum::Int(9), Datum::Int(2)];
        assert!(eval_pred(&l, &p, &hit));
        assert!(!eval_pred(&l, &p, &miss));
    }

    #[test]
    fn null_operands_reject() {
        let l = layout();
        let p = Pred::atom(Atom::eq(cr(0, 0), cr(1, 1)));
        let null_left = vec![Datum::Null, Datum::Null, Datum::Int(9), Datum::Int(1)];
        assert!(!eval_pred(&l, &p, &null_left));
        let cmp = Pred::atom(Atom::Const(cr(0, 1), CmpOp::Lt, Datum::Int(5)));
        let null_col = vec![Datum::Int(1), Datum::Null, Datum::Null, Datum::Null];
        assert!(!eval_pred(&l, &cmp, &null_col));
    }

    #[test]
    fn between_atom_inclusive() {
        let l = layout();
        let p = Pred::atom(Atom::Between(cr(0, 1), Datum::Int(2), Datum::Int(4)));
        let mk = |v: i64| vec![Datum::Int(1), Datum::Int(v), Datum::Null, Datum::Null];
        assert!(eval_pred(&l, &p, &mk(2)));
        assert!(eval_pred(&l, &p, &mk(3)));
        assert!(eval_pred(&l, &p, &mk(4)));
        assert!(!eval_pred(&l, &p, &mk(1)));
        assert!(!eval_pred(&l, &p, &mk(5)));
        let null_row = vec![Datum::Int(1), Datum::Null, Datum::Null, Datum::Null];
        assert!(!eval_pred(&l, &p, &null_row));
    }

    #[test]
    fn conjunction_semantics() {
        let l = layout();
        let p = Pred::new(vec![
            Atom::eq(cr(0, 0), cr(1, 1)),
            Atom::Const(cr(0, 1), CmpOp::Ge, Datum::Int(0)),
        ]);
        let good = vec![Datum::Int(1), Datum::Int(0), Datum::Int(9), Datum::Int(1)];
        let bad = vec![Datum::Int(1), Datum::Int(-1), Datum::Int(9), Datum::Int(1)];
        assert!(eval_pred(&l, &p, &good));
        assert!(!eval_pred(&l, &p, &bad));
        assert!(eval_pred(&l, &Pred::true_(), &bad));
    }
}
