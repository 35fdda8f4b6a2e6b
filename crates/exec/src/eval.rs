//! Scalar predicate evaluation over wide rows.

use ojv_algebra::{Atom, Pred};
use ojv_rel::{Datum, DatumRef};
use ojv_storage::RowRef;

use crate::layout::ViewLayout;

/// Evaluate a conjunction on a wide row under SQL three-valued logic
/// collapsed to boolean: unknown (any null operand) is false — which is
/// exactly the *null-rejecting* behaviour the paper requires of all view
/// predicates.
pub fn eval_pred(layout: &ViewLayout, pred: &Pred, row: &[Datum]) -> bool {
    let get = |c: &ojv_algebra::ColRef| row[layout.global(*c)].as_ref();
    pred.atoms().iter().all(|a| eval_atom_with(a, get))
}

/// Evaluate a conjunction on a *virtual* merged row made of two wide rows:
/// columns of tables in `right_sources` resolve against `right`, everything
/// else against `left`. Join probe loops use this to reject a candidate
/// before materializing the merged row — the merge (a slot copy with
/// possible string clones) only happens for rows that survive.
pub fn eval_pred_merged(
    layout: &ViewLayout,
    pred: &Pred,
    left: &[Datum],
    right: &[Datum],
    right_sources: ojv_algebra::TableSet,
) -> bool {
    let get = |c: &ojv_algebra::ColRef| {
        let row = if right_sources.contains(c.table) {
            right
        } else {
            left
        };
        row[layout.global(*c)].as_ref()
    };
    pred.atoms().iter().all(|a| eval_atom_with(a, get))
}

/// [`eval_pred_merged`] where the right side is a *columnar* base-table row
/// occupying the layout slot `[offset, offset + right.width())`: right
/// columns read straight from the table's column pages, left columns from
/// the wide probe row — the shape index-nested-loop and narrow-build joins
/// probe.
pub fn eval_pred_split_ref(
    layout: &ViewLayout,
    pred: &Pred,
    left: &[Datum],
    right: RowRef<'_>,
    offset: usize,
) -> bool {
    let get = |c: &ojv_algebra::ColRef| {
        let g = layout.global(*c);
        match g.checked_sub(offset) {
            Some(local) if local < right.width() => right.dat(local),
            _ => left[g].as_ref(),
        }
    };
    pred.atoms().iter().all(|a| eval_atom_with(a, get))
}

/// A *narrow* row — one base table's columns, not yet widened to the view
/// layout: a delta row (`&[Datum]`) or a table's columnar [`RowRef`]. The
/// narrow-left index join reads its probe rows through this, so delta
/// maintenance and full evaluation share one operator.
pub trait NarrowRow<'a>: Copy {
    /// Borrowed view of column `col`.
    fn dat(self, col: usize) -> DatumRef<'a>;
    /// Owned value of column `col` (strings clone the backing `Arc`).
    fn datum(self, col: usize) -> Datum;
    /// Is column `col` NULL?
    fn is_null(self, col: usize) -> bool;
    /// Write the row into `out` (exactly its width: a wide row's slot).
    fn copy_into(self, out: &mut [Datum]);
}

impl<'a> NarrowRow<'a> for &'a [Datum] {
    #[inline]
    fn dat(self, col: usize) -> DatumRef<'a> {
        self[col].as_ref()
    }

    #[inline]
    fn datum(self, col: usize) -> Datum {
        self[col].clone()
    }

    #[inline]
    fn is_null(self, col: usize) -> bool {
        self[col].is_null()
    }

    #[inline]
    fn copy_into(self, out: &mut [Datum]) {
        out.clone_from_slice(self);
    }
}

impl<'a> NarrowRow<'a> for RowRef<'a> {
    #[inline]
    fn dat(self, col: usize) -> DatumRef<'a> {
        RowRef::dat(self, col)
    }

    #[inline]
    fn datum(self, col: usize) -> Datum {
        RowRef::datum(self, col)
    }

    #[inline]
    fn is_null(self, col: usize) -> bool {
        RowRef::is_null(self, col)
    }

    #[inline]
    fn copy_into(self, out: &mut [Datum]) {
        RowRef::copy_into(self, out);
    }
}

/// Evaluate a conjunction over two *narrow* rows of distinct tables, the
/// right one columnar — the shape of a narrow-left index join before any
/// widening. Every atom must reference only `lt` and `rt` (guaranteed for
/// the residual of an `equi_split` between the two tables' singleton source
/// sets).
pub fn eval_pred_two_narrow_ref<'l>(
    pred: &Pred,
    lt: ojv_algebra::TableId,
    left: impl NarrowRow<'l>,
    rt: ojv_algebra::TableId,
    right: RowRef<'_>,
) -> bool {
    let get = |c: &ojv_algebra::ColRef| {
        if c.table == lt {
            left.dat(c.col)
        } else {
            debug_assert_eq!(c.table, rt, "atom references a third table");
            right.dat(c.col)
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
fn eval_atom_with<'r>(atom: &Atom, get: impl Fn(&ojv_algebra::ColRef) -> DatumRef<'r>) -> bool {
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
    let get = |c: &ojv_algebra::ColRef| row.dat(c.col);
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
