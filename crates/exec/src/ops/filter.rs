//! Selection.

use std::time::Instant;

use ojv_algebra::Pred;
use ojv_rel::{alloc_snapshot, Datum, RowBuf};

use crate::eval::eval_pred;
use crate::stats::ExecEnv;

/// Selection: keep the rows satisfying `pred` (a null-rejecting
/// conjunction). The batch is compacted in place — kept rows stay in input
/// order, with no per-row allocation.
pub fn filter_buf(env: &ExecEnv<'_>, pred: &Pred, mut rows: RowBuf) -> RowBuf {
    if pred.is_true() {
        return rows;
    }
    let layout = env.layout;
    let started = Instant::now();
    let alloc0 = alloc_snapshot();
    let n_in = rows.len();
    let keep: Vec<bool> = rows.iter().map(|r| eval_pred(layout, pred, r)).collect();
    rows.retain_rows(&keep);
    env.record(|s| &s.filter, n_in, rows.len(), started, alloc0);
    rows
}

/// Filtered projection into a flat batch: run `keep` over each wide row and
/// append only the accepted rows' `cols` cells to `out` (whose width must be
/// `cols.len()`). A rejected row costs exactly the predicate call — it is
/// never widened, copied, or projected — so scanning a large view for a
/// selective consumer allocates in proportion to the matches, not the scan.
/// The predicate is a plain closure: its *semantics* stay with the caller
/// (the change-feed layer evaluates subscription filters through this for
/// its catch-up materialization scans).
pub fn filter_project_into<'a, I, F>(rows: I, mut keep: F, cols: &[usize], out: &mut RowBuf)
where
    I: IntoIterator<Item = &'a [Datum]>,
    F: FnMut(&[Datum]) -> bool,
{
    assert_eq!(out.width(), cols.len(), "projection width mismatch");
    for row in rows {
        if keep(row) {
            let dst = out.push_null_row();
            for (slot, &c) in dst.iter_mut().zip(cols) {
                *slot = row[c].clone();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ViewLayout;
    use ojv_algebra::{Atom, CmpOp, ColRef, TableId};
    use ojv_rel::{Column, DataType, Datum};
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
        ViewLayout::new(&c, &["t"]).unwrap()
    }

    #[test]
    fn filters_by_predicate() {
        let l = layout();
        let p = Pred::atom(Atom::Const(
            ColRef::new(TableId(0), 1),
            CmpOp::Gt,
            Datum::Int(5),
        ));
        let rows = RowBuf::from_rows(
            2,
            &[
                vec![Datum::Int(1), Datum::Int(10)],
                vec![Datum::Int(2), Datum::Int(3)],
                vec![Datum::Int(3), Datum::Null],
            ],
        );
        let out = filter_buf(&ExecEnv::new(&l), &p, rows);
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0)[0], Datum::Int(1));
    }

    #[test]
    fn true_predicate_is_identity() {
        let l = layout();
        let rows = RowBuf::from_rows(2, &[vec![Datum::Int(1), Datum::Null]]);
        let out = filter_buf(&ExecEnv::new(&l), &Pred::true_(), rows.clone());
        assert_eq!(out, rows);
    }

    #[test]
    fn filter_project_appends_matches_only() {
        let rows = [
            vec![Datum::Int(1), Datum::Int(10), Datum::str("a")],
            vec![Datum::Int(2), Datum::Int(3), Datum::str("b")],
            vec![Datum::Int(3), Datum::Int(7), Datum::str("c")],
        ];
        let mut out = RowBuf::new(2);
        filter_project_into(
            rows.iter().map(|r| r.as_slice()),
            |r| r[1] > Datum::Int(5),
            &[2, 0],
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.row(0), &[Datum::str("a"), Datum::Int(1)]);
        assert_eq!(out.row(1), &[Datum::str("c"), Datum::Int(3)]);
        // Appending is cumulative: a second scan extends the same batch.
        filter_project_into(
            rows.iter().map(|r| r.as_slice()),
            |r| r[1] == Datum::Int(3),
            &[2, 0],
            &mut out,
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out.row(2), &[Datum::str("b"), Datum::Int(2)]);
    }

    #[test]
    #[should_panic(expected = "projection width mismatch")]
    fn filter_project_rejects_width_mismatch() {
        let mut out = RowBuf::new(1);
        filter_project_into(std::iter::empty(), |_| true, &[0, 1], &mut out);
    }
}
