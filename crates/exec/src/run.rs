//! Evaluation of delta expressions against the catalog.

use std::time::Instant;

use ojv_algebra::{Expr, JoinKind, Pred, TableId, TableSet};
use ojv_rel::{alloc_snapshot, Relation, RowBuf};
use ojv_storage::{Catalog, Table};

use crate::error::{ExecError, ExecResult};
use crate::eval::{eval_pred, eval_pred_narrow_ref};
use crate::hashtbl::KeySet;
use crate::layout::ViewLayout;
use crate::ops;
use crate::stats::{ExecEnv, ExecStats};

/// The update batch `ΔT` made available to `Expr::Delta`/`Expr::OldState`
/// leaves. Rows are in the base table's (narrow) schema.
#[derive(Debug, Clone, Copy)]
pub struct DeltaInput<'a> {
    pub table: TableId,
    pub rows: &'a Relation,
}

/// Evaluation context: the catalog, the view's wide layout, and (during
/// maintenance) the current update batch.
#[derive(Clone, Copy)]
pub struct ExecCtx<'a> {
    pub catalog: &'a Catalog,
    pub layout: &'a ViewLayout,
    pub delta: Option<DeltaInput<'a>>,
    /// When false, joins never use index access, and so a base leaf never
    /// probes narrow either (only index access keeps a join's left operand
    /// unwidened): every join widens its left operand and builds (or
    /// scans) its right — the plans of baselines that model optimizers
    /// without index-aware delta plans.
    pub prefer_index_joins: bool,
    /// Per-operator counters, when set.
    pub stats: Option<&'a ExecStats>,
}

impl<'a> ExecCtx<'a> {
    pub fn new(catalog: &'a Catalog, layout: &'a ViewLayout) -> Self {
        ExecCtx {
            catalog,
            layout,
            delta: None,
            prefer_index_joins: true,
            stats: None,
        }
    }

    pub fn with_delta(catalog: &'a Catalog, layout: &'a ViewLayout, delta: DeltaInput<'a>) -> Self {
        ExecCtx {
            delta: Some(delta),
            ..Self::new(catalog, layout)
        }
    }

    /// Attach per-operator counters.
    pub fn with_stats(mut self, stats: &'a ExecStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The operator environment this context implies.
    pub fn env(&self) -> ExecEnv<'a> {
        ExecEnv {
            layout: self.layout,
            stats: self.stats,
        }
    }

    fn base_table(&self, t: TableId) -> ExecResult<&'a ojv_storage::Table> {
        let name = &self.layout.slot(t).name;
        self.catalog
            .table(name)
            .map_err(|_| ExecError::UnknownTable {
                table: name.clone(),
            })
    }
}

/// Evaluate a delta expression to a flat wide-row batch.
///
/// Returns [`ExecError::UnknownTable`] when the expression references a
/// table the catalog no longer has (e.g. dropped after view analysis).
///
/// # Panics
/// Panics on internal invariant violations (e.g. a `Delta` leaf without a
/// delta input, or a right-preserving spine join) — these indicate planner
/// bugs, not runtime conditions.
pub fn eval_expr_buf(ctx: &ExecCtx<'_>, expr: &Expr) -> ExecResult<RowBuf> {
    let width = ctx.layout.width();
    match expr {
        Expr::Empty => Ok(RowBuf::new(width)),
        Expr::Delta(t) => {
            let delta = ctx.delta.expect("Delta leaf requires a delta input");
            assert_eq!(delta.table, *t, "Delta leaf for the wrong table");
            let mut out = RowBuf::with_capacity(width, delta.rows.rows().len());
            for r in delta.rows.rows() {
                ctx.layout.widen_into(*t, r, &mut out);
            }
            Ok(out)
        }
        Expr::Table(t) | Expr::OldState(t) => {
            // An `OldState` leaf is T current minus ΔT by key: the
            // pre-update state after an insert (§5.3's `T± ▷_{eq(T)} ΔT`).
            let table = ctx.base_table(*t)?;
            let old_state = matches!(expr, Expr::OldState(_));
            let excluded = old_state.then(|| delta_keys(ctx, *t, table));
            let mut out = RowBuf::with_capacity(width, table.len());
            for r in table.iter_refs() {
                if !excluded
                    .as_ref()
                    .is_some_and(|ex| ex.contains_ref(r, table.key_cols()))
                {
                    ctx.layout.widen_ref_into(*t, r, &mut out);
                }
            }
            Ok(out)
        }
        Expr::Select(pred, input) => {
            let rows = eval_expr_buf(ctx, input)?;
            Ok(ops::filter_buf(&ctx.env(), pred, rows))
        }
        Expr::NullIf {
            null_tables,
            pred,
            input,
        } => {
            let rows = eval_expr_buf(ctx, input)?;
            Ok(null_if_buf(ctx, *null_tables, pred, rows))
        }
        Expr::CleanDup(input) => {
            let rows = eval_expr_buf(ctx, input)?;
            Ok(ops::clean_dup_buf(&ctx.env(), rows))
        }
        Expr::Join {
            kind,
            pred,
            left,
            right,
        } => join(ctx, *kind, pred, Left::Expr(left), left.sources(), right),
    }
}

/// The paper's `λ^c_p` on a materialized batch: null out the columns of
/// `null_tables` on every row *failing* `pred`, in place.
pub fn null_if_buf(
    ctx: &ExecCtx<'_>,
    null_tables: TableSet,
    pred: &Pred,
    mut rows: RowBuf,
) -> RowBuf {
    for i in 0..rows.len() {
        if !eval_pred(ctx.layout, pred, rows.row(i)) {
            ctx.layout.null_out(null_tables, rows.row_mut(i));
        }
    }
    rows
}

/// Apply one left-spine step to an already-materialized prefix batch whose
/// source set is `sources`. This is how the batch maintenance layer fans a
/// shared prefix's rows out into per-view plan remainders: joins go through
/// the same planner `eval_expr_buf` uses, so the access paths (index,
/// table-row hash, hash or scan of the evaluated right) are the ones
/// evaluating the full plan from scratch would take.
pub fn apply_spine_step(
    ctx: &ExecCtx<'_>,
    step: &ojv_algebra::SpineStep,
    rows: RowBuf,
    sources: TableSet,
) -> ExecResult<RowBuf> {
    use ojv_algebra::SpineStep;
    match step {
        SpineStep::Join { kind, pred, right } => {
            join_buf_expr(ctx, *kind, pred, rows, sources, right)
        }
        SpineStep::Select(pred) => Ok(ops::filter_buf(&ctx.env(), pred, rows)),
        SpineStep::NullIf { null_tables, pred } => Ok(null_if_buf(ctx, *null_tables, pred, rows)),
        SpineStep::CleanDup => Ok(ops::clean_dup_buf(&ctx.env(), rows)),
    }
}

/// Join a materialized left batch against a right *expression* — the join
/// arm of [`eval_expr_buf`] for a left operand already widened, exposed so
/// the maintenance layer can run the paper's §5.3 anti-semijoins
/// (`candidates ▷ E'_{ip}`) against constructed expressions with the same
/// plan choices.
pub fn join_buf_expr(
    ctx: &ExecCtx<'_>,
    kind: JoinKind,
    pred: &Pred,
    left_rows: RowBuf,
    left_sources: TableSet,
    right: &Expr,
) -> ExecResult<RowBuf> {
    join(ctx, kind, pred, Left::Rows(left_rows), left_sources, right)
}

/// A join's left operand: a batch already widened, or an expression not
/// yet evaluated (a base leaf may then probe narrow).
enum Left<'e> {
    Rows(RowBuf),
    Expr(&'e Expr),
}

impl Left<'_> {
    fn widen(self, ctx: &ExecCtx<'_>) -> ExecResult<RowBuf> {
        match self {
            Left::Rows(rows) => Ok(rows),
            Left::Expr(e) => eval_expr_buf(ctx, e),
        }
    }
}

/// The join planner: pick the right access path and the left row side,
/// then run [`ops::probe_join`]. The right operand gets, in order of
/// preference:
///
/// 1. **index access** when it is a base scan (`Table`, `OldState`, or a
///    single-table selection over one) with equijoin keys and a covering
///    index, `prefer_index_joins` is set, and the kind is left-preserving
///    or semi/anti. The scan's selection joins the residual, and an
///    `OldState` scan skips the delta's keys;
/// 2. a **hash build over its table rows** when it is any other base scan
///    with equijoin keys: the scan's selection and delta exclusion fold
///    into a keep mask, and the table is never widened;
/// 3. otherwise a **hash build or a scan over the evaluated right**.
///
/// The left operand stays narrow only with index access, and only when it
/// is a base leaf — the delta `ΔT`, or a scan of a base table whose
/// selection then runs on the columnar rows: its rows probe the index from
/// their own form and only the rows the join emits are widened.
fn join(
    ctx: &ExecCtx<'_>,
    kind: JoinKind,
    pred: &Pred,
    left: Left<'_>,
    left_sources: TableSet,
    right: &Expr,
) -> ExecResult<RowBuf> {
    let (env, layout) = (ctx.env(), ctx.layout);
    let right_sources = right.sources();
    let split = base_scan_of(right).map(|s| (s, pred.equi_split(left_sources, right_sources)));
    let Some((scan, (keys, residual))) = split.filter(|(_, (keys, _))| !keys.is_empty()) else {
        let left_rows = left.widen(ctx)?;
        let right_rows = eval_expr_buf(ctx, right)?;
        return Ok(ops::hash_join_buf(
            &env,
            kind,
            pred,
            left_rows,
            right_rows,
            left_sources,
            right_sources,
        ));
    };
    let table = ctx.base_table(scan.table)?;
    let exclude = scan
        .exclude_delta
        .then(|| delta_keys(ctx, scan.table, table));
    let local: Vec<usize> = keys.iter().map(|(_, r)| r.col).collect();
    let indexed = ctx.prefer_index_joins
        && matches!(
            kind,
            JoinKind::Inner | JoinKind::LeftOuter | JoinKind::LeftSemi | JoinKind::LeftAnti
        );
    if let Some((index, perm)) = indexed.then(|| table.index_on(&local)).flatten() {
        let residual = match scan.pred {
            Some(p) => residual.and(p),
            None => residual,
        };
        let keys = perm.iter().map(|&p| keys[p].0).collect();
        let mut access = ops::IndexAccess::new(layout, table, scan.table, index, keys, exclude);
        return probe_indexed(ctx, kind, left, left_sources, &mut access, &residual);
    }
    let kept = |r| {
        let excluded = exclude
            .as_ref()
            .is_some_and(|ex| ex.contains_ref(r, table.key_cols()));
        !excluded && scan.pred.is_none_or(|p| eval_pred_narrow_ref(p, r))
    };
    let masked = scan.pred.is_some() || exclude.is_some();
    let keep = masked.then(|| table.iter_refs().map(kept).collect());
    let left_rows = left.widen(ctx)?;
    let rows = ops::TableRows {
        table,
        id: scan.table,
        offset: layout.slot(scan.table).offset,
        keep,
    };
    let mut access = ops::BuildAccess::hash(&env, rows, &keys);
    let left = ops::wide_side(layout, &left_rows, left_sources);
    Ok(ops::probe_join(&env, kind, left, &mut access, &residual))
}

/// Run an index join from the left operand's narrowest form: a delta's own
/// rows, or a base table's columnar rows after its selection (recorded as
/// the filter the widened path would have run); any other operand is
/// widened first.
fn probe_indexed(
    ctx: &ExecCtx<'_>,
    kind: JoinKind,
    left: Left<'_>,
    left_sources: TableSet,
    access: &mut ops::IndexAccess<'_>,
    residual: &Pred,
) -> ExecResult<RowBuf> {
    let (env, layout) = (ctx.env(), ctx.layout);
    let leaf_scan = match &left {
        Left::Expr(Expr::Delta(t)) => {
            let delta = ctx.delta.expect("Delta leaf requires a delta input");
            assert_eq!(delta.table, *t, "Delta leaf for the wrong table");
            let rows = ops::base_side(layout, *t, delta.rows.rows().iter().map(Vec::as_slice));
            return Ok(ops::probe_join(&env, kind, rows, access, residual));
        }
        Left::Expr(e) => base_scan_of(e).filter(|s| !s.exclude_delta),
        Left::Rows(_) => None,
    };
    let Some(scan) = leaf_scan else {
        let rows = left.widen(ctx)?;
        let left = ops::wide_side(layout, &rows, left_sources);
        return Ok(ops::probe_join(&env, kind, left, access, residual));
    };
    let table = ctx.base_table(scan.table)?;
    let Some(p) = scan.pred else {
        let rows = ops::base_side(layout, scan.table, table.iter_refs());
        return Ok(ops::probe_join(&env, kind, rows, access, residual));
    };
    let started = Instant::now();
    let alloc0 = alloc_snapshot();
    let kept: Vec<_> = table
        .iter_refs()
        .filter(|r| eval_pred_narrow_ref(p, *r))
        .collect();
    if !p.is_true() {
        env.record(|s| &s.filter, table.len(), kept.len(), started, alloc0);
    }
    let rows = ops::base_side(layout, scan.table, kept.into_iter());
    Ok(ops::probe_join(&env, kind, rows, access, residual))
}

/// The unique keys of the current delta of `t`: the rows an `OldState(t)`
/// scan leaves out.
fn delta_keys<'a>(ctx: &ExecCtx<'a>, t: TableId, table: &Table) -> KeySet<'a> {
    let delta = ctx.delta.expect("OldState leaf requires a delta input");
    assert_eq!(delta.table, t, "OldState leaf for the wrong table");
    KeySet::build(
        delta.rows.rows().iter().map(Vec::as_slice),
        table.key_cols(),
    )
}

struct BaseScan<'e> {
    table: TableId,
    pred: Option<&'e Pred>,
    /// True for `OldState`: rows whose key is in the delta must be skipped.
    exclude_delta: bool,
}

/// If `e` is a base-table scan — `Table(t)`, `OldState(t)`, or a
/// single-table selection over one — return its description.
fn base_scan_of(e: &Expr) -> Option<BaseScan<'_>> {
    let (pred, leaf) = match e {
        Expr::Select(p, inner) => (Some(p), inner.as_ref()),
        _ => (None, e),
    };
    let (table, exclude_delta) = match leaf {
        Expr::Table(t) => (*t, false),
        Expr::OldState(t) => (*t, true),
        _ => return None,
    };
    let single_table = pred.is_none_or(|p| p.tables().is_subset_of(TableSet::singleton(table)));
    single_table.then_some(BaseScan {
        table,
        pred,
        exclude_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ojv_algebra::{Atom, CmpOp, ColRef, Pred};
    use ojv_rel::{Column, DataType, Datum, Row};

    fn eval(ctx: &ExecCtx<'_>, expr: &Expr) -> ExecResult<Vec<Row>> {
        Ok(eval_expr_buf(ctx, expr)?.into_rows())
    }

    /// part(0) fo (orders(1) lo lineitem(2)) — the paper's Example 1 shape,
    /// tiny data.
    fn setup() -> (Catalog, ViewLayout) {
        let mut c = Catalog::new();
        c.create_table(
            "part",
            vec![
                Column::new("part", "pk", DataType::Int, false),
                Column::new("part", "pname", DataType::Str, true),
            ],
            &["pk"],
        )
        .unwrap();
        c.create_table(
            "orders",
            vec![
                Column::new("orders", "ok", DataType::Int, false),
                Column::new("orders", "cust", DataType::Int, true),
            ],
            &["ok"],
        )
        .unwrap();
        c.create_table(
            "lineitem",
            vec![
                Column::new("lineitem", "lk", DataType::Int, false),
                Column::new("lineitem", "lok", DataType::Int, false),
                Column::new("lineitem", "lpk", DataType::Int, false),
            ],
            &["lk"],
        )
        .unwrap();
        c.add_foreign_key("fk_l_o", "lineitem", &["lok"], "orders")
            .unwrap();
        c.add_foreign_key("fk_l_p", "lineitem", &["lpk"], "part")
            .unwrap();
        let l = ViewLayout::new(&c, &["part", "orders", "lineitem"]).unwrap();
        (c, l)
    }

    fn populate(c: &mut Catalog) {
        c.insert(
            "part",
            vec![
                vec![Datum::Int(1), Datum::str("bolt")],
                vec![Datum::Int(2), Datum::str("nut")],
            ],
        )
        .unwrap();
        c.insert(
            "orders",
            vec![
                vec![Datum::Int(10), Datum::Int(100)],
                vec![Datum::Int(11), Datum::Int(101)],
            ],
        )
        .unwrap();
        c.insert(
            "lineitem",
            vec![vec![Datum::Int(1000), Datum::Int(10), Datum::Int(1)]],
        )
        .unwrap();
    }

    fn view_expr() -> Expr {
        let p_pk_lpk = Pred::atom(Atom::eq(
            ColRef::new(TableId(0), 0),
            ColRef::new(TableId(2), 2),
        ));
        let p_ok_lok = Pred::atom(Atom::eq(
            ColRef::new(TableId(1), 0),
            ColRef::new(TableId(2), 1),
        ));
        Expr::full_outer(
            p_pk_lpk,
            Expr::table(TableId(0)),
            Expr::left_outer(p_ok_lok, Expr::table(TableId(1)), Expr::table(TableId(2))),
        )
    }

    #[test]
    fn full_view_evaluation_matches_example_1_semantics() {
        let (mut c, l) = setup();
        populate(&mut c);
        let ctx = ExecCtx::new(&c, &l);
        let rows = eval(&ctx, &view_expr()).unwrap();
        // Expected: {P,O,L} for part 1/order 10/line 1000, {O} for order 11,
        // {P} for part 2 → 3 rows.
        assert_eq!(rows.len(), 3);
        let full: Vec<_> = rows
            .iter()
            .filter(|r| l.row_matches_term(TableSet::first_n(3), r))
            .collect();
        assert_eq!(full.len(), 1);
        assert_eq!(full[0][0], Datum::Int(1));
        assert!(rows
            .iter()
            .any(|r| l.row_matches_term(TableSet::singleton(TableId(1)), r)
                && r[2] == Datum::Int(11)));
        assert!(rows.iter().any(
            |r| l.row_matches_term(TableSet::singleton(TableId(0)), r) && r[0] == Datum::Int(2)
        ));
    }

    #[test]
    fn delta_leaf_widens_update_rows() {
        let (mut c, l) = setup();
        populate(&mut c);
        let delta_rel = Relation::new(
            c.table("lineitem").unwrap().schema().clone(),
            vec![vec![Datum::Int(2000), Datum::Int(11), Datum::Int(2)]],
        );
        let ctx = ExecCtx::with_delta(
            &c,
            &l,
            DeltaInput {
                table: TableId(2),
                rows: &delta_rel,
            },
        );
        let rows = eval(&ctx, &Expr::Delta(TableId(2))).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(l.is_null_on(TableId(0), &rows[0]));
        assert_eq!(rows[0][4], Datum::Int(2000));
    }

    #[test]
    fn old_state_excludes_delta_keys() {
        let (mut c, l) = setup();
        populate(&mut c);
        // Pretend lineitem 1000 was just inserted.
        let delta_rel = Relation::new(
            c.table("lineitem").unwrap().schema().clone(),
            vec![vec![Datum::Int(1000), Datum::Int(10), Datum::Int(1)]],
        );
        let ctx = ExecCtx::with_delta(
            &c,
            &l,
            DeltaInput {
                table: TableId(2),
                rows: &delta_rel,
            },
        );
        let rows = eval(&ctx, &Expr::OldState(TableId(2))).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn empty_leaf() {
        let (c, l) = setup();
        let ctx = ExecCtx::new(&c, &l);
        assert!(eval(&ctx, &Expr::Empty).unwrap().is_empty());
    }

    #[test]
    fn missing_catalog_table_is_an_error_not_a_panic() {
        let (_c, l) = setup();
        // A catalog that lacks the layout's tables (e.g. dropped after the
        // view was analyzed) must surface as an error, not a panic.
        let empty = Catalog::new();
        let ctx = ExecCtx::new(&empty, &l);
        let err = eval(&ctx, &Expr::table(TableId(0))).unwrap_err();
        assert_eq!(
            err,
            ExecError::UnknownTable {
                table: "part".into()
            }
        );
        assert!(err.to_string().contains("part"));
        // The join fast path goes through the same lookup.
        let pred = Pred::atom(Atom::eq(
            ColRef::new(TableId(1), 0),
            ColRef::new(TableId(2), 1),
        ));
        let join = Expr::inner(pred, Expr::table(TableId(2)), Expr::table(TableId(1)));
        assert!(eval(&ctx, &join).is_err());
    }

    #[test]
    fn index_join_path_matches_hash_join() {
        let (mut c, l) = setup();
        populate(&mut c);
        // ΔL ⋈ orders on lok = ok — orders' unique key is covered, so the
        // index path fires; compare against forcing the hash path via an
        // equivalent evaluated-right join.
        let delta_rel = Relation::new(
            c.table("lineitem").unwrap().schema().clone(),
            vec![
                vec![Datum::Int(2000), Datum::Int(11), Datum::Int(2)],
                vec![Datum::Int(2001), Datum::Int(99), Datum::Int(2)], // dangling
            ],
        );
        let ctx = ExecCtx::with_delta(
            &c,
            &l,
            DeltaInput {
                table: TableId(2),
                rows: &delta_rel,
            },
        );
        let pred = Pred::atom(Atom::eq(
            ColRef::new(TableId(1), 0),
            ColRef::new(TableId(2), 1),
        ));
        let join = Expr::inner(
            pred.clone(),
            Expr::Delta(TableId(2)),
            Expr::table(TableId(1)),
        );
        let out = eval(&ctx, &join).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][2], Datum::Int(11));

        // lo variant keeps the dangling delta row.
        let lo = Expr::left_outer(pred, Expr::Delta(TableId(2)), Expr::table(TableId(1)));
        let out = eval(&ctx, &lo).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn index_join_with_scan_predicate_residual() {
        let (mut c, l) = setup();
        populate(&mut c);
        let delta_rel = Relation::new(
            c.table("lineitem").unwrap().schema().clone(),
            vec![vec![Datum::Int(2000), Datum::Int(10), Datum::Int(2)]],
        );
        let ctx = ExecCtx::with_delta(
            &c,
            &l,
            DeltaInput {
                table: TableId(2),
                rows: &delta_rel,
            },
        );
        let pred = Pred::atom(Atom::eq(
            ColRef::new(TableId(1), 0),
            ColRef::new(TableId(2), 1),
        ));
        // Selection on orders that rejects order 10.
        let scan = Expr::select(
            Pred::atom(Atom::Const(
                ColRef::new(TableId(1), 1),
                CmpOp::Gt,
                Datum::Int(100),
            )),
            Expr::table(TableId(1)),
        );
        let lo = Expr::left_outer(pred, Expr::Delta(TableId(2)), scan);
        let out = eval(&ctx, &lo).unwrap();
        assert_eq!(out.len(), 1);
        // Order 10 fails the scan predicate, so the delta row is preserved
        // null-extended on orders.
        assert!(l.is_null_on(TableId(1), &out[0]));
    }

    /// The index join of a base-table leaf probing narrow against the same
    /// join with the leaf widened first: the same rows in the same order
    /// and the same operator counters, across join kinds, scan selections
    /// on either side, null probe keys, a multi-match secondary index, and
    /// empty tables. (The join loop itself is checked against an
    /// independent nested loop in `ops::join`.)
    #[test]
    fn narrow_left_index_join_matches_widened_index_join() {
        let (a, b) = (TableId(0), TableId(1));
        let cr = ColRef::new;
        let eq = |l: ColRef, r: ColRef| Pred::atom(Atom::eq(l, r));
        let cmp = |c: ColRef, op: CmpOp, v: i64| Pred::atom(Atom::Const(c, op, Datum::Int(v)));
        // Each table is scanned whole and under a selection that keeps
        // some of its rows (a null `x` or `y` fails it).
        let scans = |t: TableId| {
            let p = if t == a {
                cmp(cr(a, 1), CmpOp::Gt, 20)
            } else {
                cmp(cr(b, 2), CmpOp::Lt, 70)
            };
            [Expr::table(t), Expr::select(p, Expr::table(t))]
        };
        // (left table, right table, join predicate): a.id = b.ak probes b's
        // secondary index (several b rows per a) with a cross-table
        // residual; a.k = b.id and b.ak = a.id probe unique keys from
        // nullable, partly dangling columns.
        let joins = [
            (
                a,
                b,
                eq(cr(a, 0), cr(b, 1)).and(&Pred::atom(Atom::Cols(cr(a, 1), CmpOp::Le, cr(b, 2)))),
            ),
            (a, b, eq(cr(a, 2), cr(b, 0))),
            (b, a, eq(cr(b, 1), cr(a, 0))),
        ];
        let (a_rows, b_rows) = crate::ops::join::tests::oracle_rows();
        let datasets = [
            (a_rows.clone(), b_rows.clone()),
            (vec![], b_rows),
            (a_rows, vec![]),
        ];
        let mut nonempty = 0;
        for (a_data, b_data) in &datasets {
            let (c, l) = crate::ops::join::tests::oracle_catalog(a_data, b_data);
            for (lt, rt, pred) in &joins {
                let (left_scans, right_scans) = (scans(*lt), scans(*rt));
                for (left, right) in left_scans
                    .iter()
                    .flat_map(|le| right_scans.iter().map(move |re| (le, re)))
                {
                    for kind in [
                        JoinKind::Inner,
                        JoinKind::LeftOuter,
                        JoinKind::LeftSemi,
                        JoinKind::LeftAnti,
                    ] {
                        let (narrow_stats, wide_stats) =
                            (ExecStats::default(), ExecStats::default());
                        let narrow_ctx = ExecCtx::new(&c, &l).with_stats(&narrow_stats);
                        let expr = Expr::join(kind, pred.clone(), left.clone(), right.clone());
                        let narrow = eval_expr_buf(&narrow_ctx, &expr).unwrap();
                        let wide_ctx = ExecCtx::new(&c, &l).with_stats(&wide_stats);
                        let rows = eval_expr_buf(&wide_ctx, left).unwrap();
                        let wide =
                            join_buf_expr(&wide_ctx, kind, pred, rows, left.sources(), right)
                                .unwrap();
                        let case = format!("{kind:?} {left:?} ⋈ {right:?} on {pred:?}");
                        assert_eq!(narrow, wide, "{case}");
                        let counts = |s: &ExecStats| {
                            let s = s.snapshot();
                            [s.filter, s.index_join].map(|o| (o.rows_in, o.rows_out, o.calls))
                        };
                        assert_eq!(counts(&narrow_stats), counts(&wide_stats), "{case}");
                        assert!(narrow_stats.snapshot().index_join.rows_in > 0 || wide.is_empty());
                        nonempty += usize::from(!wide.is_empty());
                    }
                }
            }
        }
        assert!(nonempty > 0);
    }

    /// Evaluating the JDNF terms and gluing them with minimum union must
    /// equal direct evaluation (paper, Theorem 1).
    #[test]
    fn normal_form_evaluation_equals_direct_evaluation() {
        let (mut c, l) = setup();
        populate(&mut c);
        // Add a second lineitem to make it more interesting.
        c.insert(
            "lineitem",
            vec![vec![Datum::Int(1001), Datum::Int(11), Datum::Int(1)]],
        )
        .unwrap();
        let ctx = ExecCtx::new(&c, &l);
        let direct = eval(&ctx, &view_expr()).unwrap();

        let terms = ojv_algebra::normalize_unpruned(&view_expr());
        let env = ExecEnv::new(&l);
        // Evaluate each term as a cross join + filter, then minimum-union.
        let mut all: Vec<Row> = Vec::new();
        for term in &terms {
            let mut rows: Vec<Row> = vec![vec![Datum::Null; l.width()]];
            for t in term.tables.iter() {
                let table_rows = eval(&ctx, &Expr::Table(t)).unwrap();
                let mut next = Vec::new();
                for r in &rows {
                    for tr in &table_rows {
                        next.push(ops::merge_rows(&l, r, tr, TableSet::singleton(t)));
                    }
                }
                rows = next;
            }
            let rows = RowBuf::from_rows(l.width(), &rows);
            all.extend(ops::filter_buf(&env, &term.pred, rows).into_rows());
        }
        // ⊕ over the per-term results: one batch of all terms, ↓ then δ.
        let glued = ops::clean_dup_buf(&env, RowBuf::from_rows(l.width(), &all)).into_rows();
        let mut a = direct;
        let mut b = glued;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
