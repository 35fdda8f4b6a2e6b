//! Evaluation of delta expressions against the catalog.

use std::time::Instant;

use ojv_algebra::{Expr, JoinKind, TableId, TableSet};
use ojv_rel::{alloc_snapshot, Relation, RowBuf};
use ojv_storage::Catalog;

use crate::error::{ExecError, ExecResult};
use crate::eval::{eval_pred, eval_pred_narrow_ref, NarrowRow};
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
    /// When false, joins never take the index-nested-loop fast path — used
    /// by baselines that model optimizers without index-aware delta plans.
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
        Expr::Table(t) => {
            let table = ctx.base_table(*t)?;
            let mut out = RowBuf::with_capacity(width, table.len());
            for r in table.iter_refs() {
                ctx.layout.widen_ref_into(*t, r, &mut out);
            }
            Ok(out)
        }
        Expr::Delta(t) => {
            let delta = ctx.delta.expect("Delta leaf requires a delta input");
            assert_eq!(delta.table, *t, "Delta leaf for the wrong table");
            let mut out = RowBuf::with_capacity(width, delta.rows.rows().len());
            for r in delta.rows.rows() {
                ctx.layout.widen_into(*t, r, &mut out);
            }
            Ok(out)
        }
        Expr::OldState(t) => {
            // T current minus ΔT by key: the pre-update state after an
            // insert (§5.3's `T± ▷_{eq(T)} ΔT`). The delta keys live in a
            // borrowed-key set, so the scan allocates nothing per row.
            let delta = ctx.delta.expect("OldState leaf requires a delta input");
            assert_eq!(delta.table, *t, "OldState leaf for the wrong table");
            let table = ctx.base_table(*t)?;
            let key_cols = table.key_cols();
            let delta_keys =
                KeySet::build(delta.rows.rows().iter().map(|r| r.as_slice()), key_cols);
            let mut out = RowBuf::with_capacity(width, table.len());
            for r in table.iter_refs() {
                if !delta_keys.contains_ref(r, key_cols) {
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
        } => {
            // A base leaf's first join: when the left operand is the raw
            // delta or a base-table scan and the right is an indexed base
            // scan, probe from the narrow rows and widen only survivors —
            // the bulk of a selective join's left input is never
            // materialized at view width.
            if let Some(out) = narrow_left_index_join(ctx, *kind, pred, left, right)? {
                return Ok(out);
            }
            let left_rows = eval_expr_buf(ctx, left)?;
            join_buf_expr(ctx, *kind, pred, left_rows, left.sources(), right)
        }
    }
}

/// The paper's `λ^c_p` on a materialized batch: null out the columns of
/// `null_tables` on every row *failing* `pred`, in place.
pub fn null_if_buf(
    ctx: &ExecCtx<'_>,
    null_tables: TableSet,
    pred: &ojv_algebra::Pred,
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
/// the same [`join_buf_expr`] ladder `eval_expr_buf` uses, so the access-path
/// choices (index NL, narrow build, hash) are identical to evaluating the
/// full plan from scratch.
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

/// Join a materialized left batch against a right *expression*, choosing —
/// in order of preference:
///
/// 1. an **index-nested-loop** plan when the right operand is a base-table
///    scan (or the pre-update `OldState` of the delta table) with a
///    covering index,
/// 2. a **narrow-build hash join** when the right operand is a base-table
///    scan without a covering index: the build indexes the table's narrow
///    rows in place instead of widening the whole table first,
/// 3. a hash join against the evaluated right expression otherwise.
///
/// This is the join arm of [`eval_expr_buf`], exposed so the maintenance
/// layer can run the paper's §5.3 anti-semijoins (`candidates ▷ E'_{ip}`)
/// against constructed expressions with the same plan choices.
pub fn join_buf_expr(
    ctx: &ExecCtx<'_>,
    kind: JoinKind,
    pred: &ojv_algebra::Pred,
    left_rows: RowBuf,
    left_sources: TableSet,
    right: &Expr,
) -> ExecResult<RowBuf> {
    let right_sources = right.sources();
    if let Some(scan) = base_scan_of(right) {
        let (keys, residual) = pred.equi_split(left_sources, right_sources);
        if !keys.is_empty() {
            let table = ctx.base_table(scan.table)?;
            let slot_offset = ctx.layout.slot(scan.table).offset;
            let local: Vec<usize> = keys
                .iter()
                .map(|(_, r)| ctx.layout.global(*r) - slot_offset)
                .collect();
            let probe: Vec<usize> = keys.iter().map(|(l, _)| ctx.layout.global(*l)).collect();
            let delta_exclusion = || {
                let delta = ctx.delta.expect("OldState leaf requires a delta input");
                assert_eq!(delta.table, scan.table, "OldState leaf for the wrong table");
                KeySet::build(
                    delta.rows.rows().iter().map(|r| r.as_slice()),
                    table.key_cols(),
                )
            };
            // Index-nested-loop fast path: a covering index on the equijoin
            // columns, for the left-preserving kinds the spine produces.
            if ctx.prefer_index_joins
                && matches!(
                    kind,
                    JoinKind::Inner | JoinKind::LeftOuter | JoinKind::LeftSemi | JoinKind::LeftAnti
                )
            {
                if let Some((index, perm)) = table.index_on(&local) {
                    let mut full_residual = residual.clone();
                    if let Some(p) = scan.pred {
                        full_residual = full_residual.and(p);
                    }
                    let exclude = scan.exclude_delta.then(delta_exclusion);
                    return Ok(ops::index_join_excluding_buf(
                        &ctx.env(),
                        kind,
                        left_rows,
                        &probe,
                        table,
                        scan.table,
                        index,
                        &perm,
                        &full_residual,
                        exclude.as_ref(),
                    ));
                }
            }
            // Narrow-build fallback: hash-join against the table's narrow
            // rows in place — the whole base table is never widened. Scan
            // predicates and delta exclusion fold into the build-side keep
            // mask (narrow predicate evaluation), so right-preserving kinds
            // emit exactly the filtered unmatched rows.
            let keep: Option<Vec<bool>> = if scan.pred.is_some() || scan.exclude_delta {
                let excluded = scan.exclude_delta.then(delta_exclusion);
                let key_cols = table.key_cols();
                Some(
                    table
                        .iter_refs()
                        .map(|r| {
                            scan.pred.is_none_or(|p| eval_pred_narrow_ref(p, r))
                                && excluded
                                    .as_ref()
                                    .is_none_or(|ex| !ex.contains_ref(r, key_cols))
                        })
                        .collect(),
                )
            } else {
                None
            };
            return Ok(ops::narrow_build_join_buf(
                &ctx.env(),
                kind,
                left_rows,
                &probe,
                table,
                scan.table,
                &local,
                keep.as_deref(),
                &residual,
            ));
        }
    }
    let right_rows = eval_expr_buf(ctx, right)?;
    Ok(ops::hash_join_buf(
        &ctx.env(),
        kind,
        pred,
        left_rows,
        right_rows,
        left_sources,
        right_sources,
    ))
}

/// The narrow-left fast path of [`eval_expr_buf`]'s join arm: `L ⋈ scan`
/// where `L` is a base leaf — the delta `Δt`, or a scan of a base table
/// (`Table`, or a single-table selection over one) — and `scan` has a
/// covering index on the equijoin columns. The left rows probe straight
/// from their narrow form (see [`ops::index_join_narrow_left_buf`]): a
/// table scan's selection runs on the columnar rows, and only join
/// survivors (plus, for `LeftOuter`, unmatched left rows) are widened.
/// Returns `Ok(None)` when the shape doesn't apply and the caller should
/// widen the left operand and take the regular join ladder.
fn narrow_left_index_join(
    ctx: &ExecCtx<'_>,
    kind: JoinKind,
    pred: &ojv_algebra::Pred,
    left: &Expr,
    right: &Expr,
) -> ExecResult<Option<RowBuf>> {
    if !ctx.prefer_index_joins
        || !matches!(
            kind,
            JoinKind::Inner | JoinKind::LeftOuter | JoinKind::LeftSemi | JoinKind::LeftAnti
        )
    {
        return Ok(None);
    }
    let (lt, left_scan) = match left {
        Expr::Delta(t) => (*t, None),
        _ => match base_scan_of(left) {
            Some(scan) if !scan.exclude_delta => (scan.table, Some(scan)),
            _ => return Ok(None),
        },
    };
    let Some(scan) = base_scan_of(right) else {
        return Ok(None);
    };
    if scan.exclude_delta {
        // `L ⋈ OldState(t)` probes with a delta-key exclusion that only
        // the wide-probe index join carries; let the widened path handle it.
        return Ok(None);
    }
    let (keys, residual) = pred.equi_split(TableSet::singleton(lt), right.sources());
    if keys.is_empty() {
        return Ok(None);
    }
    let table = ctx.base_table(scan.table)?;
    let slot_offset = ctx.layout.slot(scan.table).offset;
    let local: Vec<usize> = keys
        .iter()
        .map(|(_, r)| ctx.layout.global(*r) - slot_offset)
        .collect();
    let Some((index, perm)) = table.index_on(&local) else {
        return Ok(None);
    };
    let probe_local: Vec<usize> = keys
        .iter()
        .map(|(l, _)| {
            debug_assert_eq!(l.table, lt, "left key column outside the left table");
            l.col
        })
        .collect();
    let mut full_residual = residual;
    if let Some(p) = scan.pred {
        full_residual = full_residual.and(p);
    }
    let join = NarrowJoin {
        kind,
        left: lt,
        probe_local,
        table,
        right: scan.table,
        index,
        perm,
        residual: full_residual,
    };
    let env = ctx.env();
    let out = match left_scan {
        None => {
            let delta = ctx.delta.expect("Delta leaf requires a delta input");
            assert_eq!(delta.table, lt, "Delta leaf for the wrong table");
            join.run(&env, delta.rows.rows().iter().map(Vec::as_slice))
        }
        Some(BaseScan { pred: None, .. }) => join.run(&env, ctx.base_table(lt)?.iter_refs()),
        Some(BaseScan { pred: Some(p), .. }) => {
            // The selection runs on the columnar rows, with the counters
            // the widened path's filter would have recorded.
            let left_table = ctx.base_table(lt)?;
            let started = Instant::now();
            let alloc0 = alloc_snapshot();
            let kept: Vec<_> = left_table
                .iter_refs()
                .filter(|r| eval_pred_narrow_ref(p, *r))
                .collect();
            if !p.is_true() {
                env.record(|s| &s.filter, left_table.len(), kept.len(), started, alloc0);
            }
            join.run(&env, kept)
        }
    };
    Ok(Some(out))
}

/// A narrow-left index join with everything resolved but its left rows.
struct NarrowJoin<'a> {
    kind: JoinKind,
    left: TableId,
    probe_local: Vec<usize>,
    table: &'a ojv_storage::Table,
    right: TableId,
    index: ojv_storage::IndexRef,
    perm: Vec<usize>,
    residual: ojv_algebra::Pred,
}

impl NarrowJoin<'_> {
    fn run<'l, L: NarrowRow<'l>>(
        &self,
        env: &ExecEnv<'_>,
        rows: impl IntoIterator<Item = L>,
    ) -> RowBuf {
        ops::index_join_narrow_left_buf(
            env,
            self.kind,
            rows,
            self.left,
            &self.probe_local,
            self.table,
            self.right,
            self.index,
            &self.perm,
            &self.residual,
        )
    }
}

struct BaseScan<'e> {
    table: TableId,
    pred: Option<&'e ojv_algebra::Pred>,
    /// True for `OldState`: rows whose key is in the delta must be skipped.
    exclude_delta: bool,
}

/// If `e` is a base-table scan — `Table(t)`, `OldState(t)`, or a
/// single-table selection over one — return its description.
fn base_scan_of(e: &Expr) -> Option<BaseScan<'_>> {
    match e {
        Expr::Table(t) => Some(BaseScan {
            table: *t,
            pred: None,
            exclude_delta: false,
        }),
        Expr::OldState(t) => Some(BaseScan {
            table: *t,
            pred: None,
            exclude_delta: true,
        }),
        Expr::Select(p, inner) => match inner.as_ref() {
            Expr::Table(t) if p.tables().is_subset_of(TableSet::singleton(*t)) => Some(BaseScan {
                table: *t,
                pred: Some(p),
                exclude_delta: false,
            }),
            Expr::OldState(t) if p.tables().is_subset_of(TableSet::singleton(*t)) => {
                Some(BaseScan {
                    table: *t,
                    pred: Some(p),
                    exclude_delta: true,
                })
            }
            _ => None,
        },
        _ => None,
    }
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

    /// a(id, x, k) and b(id, ak, y), no foreign keys: `x`, `k` and `ak` are
    /// nullable, `k` and `ak` may dangle, and b has a secondary index on
    /// `ak`. Layout [a, b].
    fn narrow_oracle_setup(
        a: &[[Option<i64>; 3]],
        b: &[[Option<i64>; 3]],
    ) -> (Catalog, ViewLayout) {
        let mut c = Catalog::new();
        let col = |t: &str, n: &str, nullable| Column::new(t, n, DataType::Int, nullable);
        c.create_table(
            "a",
            vec![
                col("a", "id", false),
                col("a", "x", true),
                col("a", "k", true),
            ],
            &["id"],
        )
        .unwrap();
        c.create_table(
            "b",
            vec![
                col("b", "id", false),
                col("b", "ak", true),
                col("b", "y", true),
            ],
            &["id"],
        )
        .unwrap();
        c.table_mut("b").unwrap().add_secondary_index(vec![1]);
        let rows = |rs: &[[Option<i64>; 3]]| -> Vec<Row> {
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

    /// The independent reference for `left ⋈ right` over two base scans:
    /// widen every left row, run the left selection on the wide batch, then
    /// the wide-probe [`ops::index_join_excluding_buf`] with the right
    /// selection folded into the residual.
    fn widened_index_join(
        ctx: &ExecCtx<'_>,
        kind: JoinKind,
        pred: &Pred,
        left: &Expr,
        right: &Expr,
    ) -> RowBuf {
        let (ls, rs) = (base_scan_of(left).unwrap(), base_scan_of(right).unwrap());
        let env = ctx.env();
        let mut rows = RowBuf::new(ctx.layout.width());
        for r in ctx.base_table(ls.table).unwrap().iter_refs() {
            ctx.layout.widen_ref_into(ls.table, r, &mut rows);
        }
        if let Some(p) = ls.pred {
            rows = ops::filter_buf(&env, p, rows);
        }
        let (keys, residual) = pred.equi_split(left.sources(), right.sources());
        let local: Vec<usize> = keys.iter().map(|(_, r)| r.col).collect();
        let probe: Vec<usize> = keys.iter().map(|(l, _)| ctx.layout.global(*l)).collect();
        let table = ctx.base_table(rs.table).unwrap();
        let (index, perm) = table.index_on(&local).unwrap();
        let residual = rs.pred.map_or(residual.clone(), |p| residual.and(p));
        ops::index_join_excluding_buf(
            &env, kind, rows, &probe, table, rs.table, index, &perm, &residual, None,
        )
    }

    /// The narrow-left index join of a base-table leaf against the
    /// explicitly widened wide-probe index join: the same rows in the same
    /// order and the same operator counters, across join kinds, scan
    /// selections on either side, null probe keys, a multi-match secondary
    /// index, and empty tables. The recompute oracle of the maintenance
    /// tests evaluates views through the narrow path itself, so this is
    /// the check that does not.
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
        let a_rows: Vec<[Option<i64>; 3]> = (1..=8)
            .map(|i| {
                [
                    Some(i),
                    (i % 3 != 0).then_some(i * 10),
                    (i % 4 != 0).then_some(100 + i % 6),
                ]
            })
            .collect();
        let mut b_rows: Vec<[Option<i64>; 3]> = (100..116)
            .map(|i| [Some(i), (i % 5 != 0).then_some(i % 7), Some((i - 100) * 7)])
            .collect();
        b_rows.push([Some(200), None, None]);
        let datasets = [
            (a_rows.clone(), b_rows.clone()),
            (vec![], b_rows),
            (a_rows, vec![]),
        ];
        let mut nonempty = 0;
        for (a_data, b_data) in &datasets {
            let (c, l) = narrow_oracle_setup(a_data, b_data);
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
                        let narrow = narrow_left_index_join(&narrow_ctx, kind, pred, left, right)
                            .unwrap()
                            .expect("the narrow-left path applies");
                        let wide_ctx = ExecCtx::new(&c, &l).with_stats(&wide_stats);
                        let wide = widened_index_join(&wide_ctx, kind, pred, left, right);
                        let case = format!("{kind:?} {left:?} ⋈ {right:?} on {pred:?}");
                        assert_eq!(narrow, wide, "{case}");
                        let counts = |s: &ExecStats| {
                            let s = s.snapshot();
                            [s.filter, s.index_join].map(|o| (o.rows_in, o.rows_out, o.calls))
                        };
                        assert_eq!(counts(&narrow_stats), counts(&wide_stats), "{case}");
                        // Through the evaluator, the join takes the same path.
                        let expr = Expr::join(kind, pred.clone(), left.clone(), right.clone());
                        assert_eq!(
                            eval_expr_buf(&ExecCtx::new(&c, &l), &expr).unwrap(),
                            wide,
                            "{case}"
                        );
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
