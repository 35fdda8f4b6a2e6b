//! Aggregated outer-join views (paper §3.3).
//!
//! An aggregated outer-join view is an SPOJ view with a group-by on top. Per
//! the paper, the maintained state keeps, for every group, a regular row
//! count (zero ⇒ the group disappears) and not-null counts so aggregates
//! over a table's columns become `NULL` when no remaining row in the group
//! carries that table. The incremental step computes the same `ΔV^D`/`ΔV^I`
//! as a non-aggregated view, aggregates them, and merges the signed result —
//! with `ΔV^I` computed **from base tables** (§5.3), because the aggregated
//! view cannot expose its terms.
//!
//! As in SQL Server's indexed views, the maintainable aggregate set is
//! `COUNT(*)`, `COUNT(col)`, and `SUM(col)`.

use std::sync::Arc;

use ojv_algebra::TableId;
use ojv_exec::{eval_expr_buf, ExecCtx, ExecStats};
use ojv_rel::{key_of, Column, DataType, Datum, ExactFloatSum, FxHashMap, Relation, Row, Schema};
use ojv_storage::{Catalog, Update, UpdateOp};

use crate::analyze::{analyze, ViewAnalysis};
use crate::compile::{CompiledMaintenancePlan, PlanCache, PlanConfig};
use crate::error::{CoreError, Result};
use crate::maintain::{delta_ctx, IndirectTermView, MaintenanceReport};
use crate::policy::MaintenancePolicy;
use crate::secondary::{self, SecondaryCtx};
use crate::view_def::ViewDef;

/// An aggregate over the inner view's columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggSpec {
    /// `COUNT(*)`.
    CountRows,
    /// `COUNT(table.column)`.
    CountNonNull { table: String, column: String },
    /// `SUM(table.column)`.
    Sum { table: String, column: String },
}

/// An aggregated view definition: group-by columns and named aggregates over
/// an inner SPOJ view.
#[derive(Debug, Clone, PartialEq)]
pub struct AggViewDef {
    pub name: String,
    pub inner: ViewDef,
    pub group_by: Vec<(String, String)>,
    pub aggs: Vec<(String, AggSpec)>,
}

impl AggViewDef {
    pub fn new(name: &str, inner: ViewDef) -> Self {
        AggViewDef {
            name: name.to_string(),
            inner,
            group_by: Vec::new(),
            aggs: Vec::new(),
        }
    }

    pub fn group_by(mut self, table: &str, column: &str) -> Self {
        self.group_by.push((table.to_string(), column.to_string()));
        self
    }

    pub fn agg(mut self, out_name: &str, spec: AggSpec) -> Self {
        self.aggs.push((out_name.to_string(), spec));
        self
    }
}

#[derive(Debug, Clone)]
enum AggAcc {
    Count(i64),
    SumInt {
        sum: i64,
        non_null: i64,
    },
    /// Float sums use an exact accumulator so that adding and removing
    /// contributions in maintenance order yields bit-identical results to a
    /// from-scratch recompute (plain `f64` addition is order-dependent).
    SumFloat {
        sum: Box<ExactFloatSum>,
        non_null: i64,
    },
}

#[derive(Debug, Clone)]
struct GroupState {
    /// `COUNT(*)` over the group — zero means the group row is deleted.
    count: i64,
    /// Per null-extendable table: rows in the group carrying that table.
    notnull: Vec<i64>,
    aggs: Vec<AggAcc>,
}

#[derive(Debug, Clone, Copy)]
enum AggCol {
    CountRows,
    CountNonNull(usize),
    SumInt(usize),
    SumFloat(usize),
}

/// A materialized aggregated outer-join view.
#[derive(Debug, Clone)]
pub struct MaterializedAggView {
    def: AggViewDef,
    pub analysis: ViewAnalysis,
    group_cols: Vec<usize>,
    agg_cols: Vec<AggCol>,
    /// Tables that are null-extended in at least one term (§3.3).
    notnull_tables: Vec<TableId>,
    groups: FxHashMap<Vec<Datum>, GroupState>,
    plans: PlanCache,
}

impl MaterializedAggView {
    /// Analyze the inner view and materialize the aggregated contents.
    pub fn create(catalog: &Catalog, def: AggViewDef) -> Result<Self> {
        let analysis = analyze(catalog, &def.inner)?;
        if def.group_by.is_empty() {
            return Err(CoreError::InvalidView {
                view: def.name.clone(),
                detail: "aggregated view requires at least one group-by column".into(),
            });
        }
        let mut group_cols = Vec::with_capacity(def.group_by.len());
        for (t, c) in &def.group_by {
            let cr = analysis
                .layout
                .col(t, c)
                .map_err(|_| CoreError::InvalidView {
                    view: def.name.clone(),
                    detail: format!("group-by column {t}.{c} not found"),
                })?;
            group_cols.push(analysis.layout.global(cr));
        }
        let mut agg_cols = Vec::with_capacity(def.aggs.len());
        for (out, spec) in &def.aggs {
            agg_cols.push(match spec {
                AggSpec::CountRows => AggCol::CountRows,
                AggSpec::CountNonNull { table, column } => {
                    let cr =
                        analysis
                            .layout
                            .col(table, column)
                            .map_err(|_| CoreError::InvalidView {
                                view: def.name.clone(),
                                detail: format!("aggregate {out}: column not found"),
                            })?;
                    AggCol::CountNonNull(analysis.layout.global(cr))
                }
                AggSpec::Sum { table, column } => {
                    let cr =
                        analysis
                            .layout
                            .col(table, column)
                            .map_err(|_| CoreError::InvalidView {
                                view: def.name.clone(),
                                detail: format!("aggregate {out}: column not found"),
                            })?;
                    let g = analysis.layout.global(cr);
                    match analysis.layout.wide_schema().column(g).ty {
                        DataType::Int => AggCol::SumInt(g),
                        DataType::Float => AggCol::SumFloat(g),
                        other => {
                            return Err(CoreError::InvalidView {
                                view: def.name.clone(),
                                detail: format!("SUM over non-numeric column of type {other}"),
                            })
                        }
                    }
                }
            });
        }
        // Tables null-extended in some term: not in every term's source set.
        let notnull_tables: Vec<TableId> = (0..analysis.layout.table_count())
            .map(|i| TableId(i as u8))
            .filter(|t| analysis.terms.iter().any(|term| !term.tables.contains(*t)))
            .collect();

        let mut view = MaterializedAggView {
            def,
            analysis,
            group_cols,
            agg_cols,
            notnull_tables,
            groups: FxHashMap::default(),
            plans: PlanCache::default(),
        };
        let ctx = ExecCtx::new(catalog, &view.analysis.layout);
        let rows = eval_expr_buf(&ctx, &view.analysis.expr)?.into_rows();
        view.apply_rows(&rows, 1);
        Ok(view)
    }

    pub fn name(&self) -> &str {
        &self.def.name
    }

    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Merge wide rows into the group states with the given sign.
    fn apply_rows(&mut self, rows: &[Row], sign: i64) {
        for row in rows {
            let key = key_of(row, &self.group_cols);
            let state = self
                .groups
                .entry(key.clone())
                .or_insert_with(|| GroupState {
                    count: 0,
                    notnull: vec![0; self.notnull_tables.len()],
                    aggs: self
                        .agg_cols
                        .iter()
                        .map(|a| match a {
                            AggCol::CountRows | AggCol::CountNonNull(_) => AggAcc::Count(0),
                            AggCol::SumInt(_) => AggAcc::SumInt {
                                sum: 0,
                                non_null: 0,
                            },
                            AggCol::SumFloat(_) => AggAcc::SumFloat {
                                sum: Box::new(ExactFloatSum::new()),
                                non_null: 0,
                            },
                        })
                        .collect(),
                });
            state.count += sign;
            for (slot, t) in self.notnull_tables.iter().enumerate() {
                if !self.analysis.layout.is_null_on(*t, row) {
                    state.notnull[slot] += sign;
                }
            }
            for (acc, col) in state.aggs.iter_mut().zip(&self.agg_cols) {
                match (acc, col) {
                    (AggAcc::Count(c), AggCol::CountRows) => *c += sign,
                    (AggAcc::Count(c), AggCol::CountNonNull(g)) => {
                        if !row[*g].is_null() {
                            *c += sign;
                        }
                    }
                    (AggAcc::SumInt { sum, non_null }, AggCol::SumInt(g)) => {
                        if let Some(v) = row[*g].as_int() {
                            *sum += sign * v;
                            *non_null += sign;
                        }
                    }
                    (AggAcc::SumFloat { sum, non_null }, AggCol::SumFloat(g)) => {
                        if let Some(v) = row[*g].as_float() {
                            if sign > 0 {
                                sum.add(v);
                            } else {
                                sum.sub(v);
                            }
                            *non_null += sign;
                        }
                    }
                    _ => unreachable!("accumulator/column shape mismatch"),
                }
            }
            if state.count == 0 {
                self.groups.remove(&key);
            }
        }
    }

    /// The compiled maintenance plan for updates of `t` under `cfg`,
    /// compiling on first use.
    pub fn compiled_plan(
        &mut self,
        catalog: &Catalog,
        t: TableId,
        cfg: PlanConfig,
    ) -> Result<Arc<CompiledMaintenancePlan>> {
        self.plans.get_or_compile(&self.analysis, catalog, t, cfg)
    }

    /// Eagerly compile the maintenance plan for every referenced table under
    /// `policy` — called at view creation so steady-state maintenance never
    /// compiles.
    pub fn warm_plans(&mut self, catalog: &Catalog, policy: &MaintenancePolicy) -> Result<()> {
        let cfg = PlanConfig::of(policy);
        for i in 0..self.analysis.layout.table_count() {
            self.compiled_plan(catalog, TableId(i as u8), cfg)?;
        }
        Ok(())
    }

    /// Compute the secondary delta and merge both deltas into the group
    /// states, given an already-evaluated primary delta — the batch layer's
    /// per-view step, which may share that delta with other views.
    ///
    /// The aggregated store is independent of the delta computations (the
    /// secondary delta always comes from base tables, §3.3), so both deltas
    /// are computed first, then merged.
    pub(crate) fn apply_with_primary(
        &mut self,
        catalog: &Catalog,
        stats: &ExecStats,
        update: &Update,
        compiled: &CompiledMaintenancePlan,
        primary: &[Row],
        report: &mut MaintenanceReport,
    ) -> Result<()> {
        let t = compiled.table;
        report.direct_terms = compiled.mgraph.direct.len();
        report.indirect_terms = compiled.indirect.len();
        report.verified_checks = compiled.verified_checks;
        report.plan_fingerprint = compiled.fingerprint;
        report.primary_rows = primary.len();
        let sign = match update.op {
            UpdateOp::Insert => 1,
            UpdateOp::Delete => -1,
        };

        let start = std::time::Instant::now();
        let mut secondary_rows: Vec<Row> = Vec::new();
        if !compiled.indirect.is_empty() && !primary.is_empty() {
            let exec = delta_ctx(catalog, &self.analysis.layout, t, update, stats);
            let sctx = SecondaryCtx {
                layout: &self.analysis.layout,
                terms: &self.analysis.terms,
                updated: t,
            };
            for ind in &compiled.indirect {
                let insert = update.op == UpdateOp::Insert;
                let ind = IndirectTermView::from(ind);
                secondary_rows.extend(secondary::from_base(&sctx, &exec, &ind, primary, insert)?);
            }
        }
        report.secondary_rows = secondary_rows.len();
        report.secondary_time = start.elapsed();

        let start = std::time::Instant::now();
        self.apply_rows(primary, sign);
        self.apply_rows(&secondary_rows, -sign);
        report.primary_apply = start.elapsed();
        Ok(())
    }

    /// The aggregated output: group-by columns followed by the aggregates.
    pub fn output(&self) -> Relation {
        let layout = &self.analysis.layout;
        let mut cols: Vec<Column> = self
            .group_cols
            .iter()
            .map(|&g| layout.wide_schema().column(g).clone())
            .collect();
        for (name, spec) in &self.def.aggs {
            let ty = match spec {
                AggSpec::CountRows | AggSpec::CountNonNull { .. } => DataType::Int,
                AggSpec::Sum { .. } => match self.agg_cols[cols.len() - self.group_cols.len()] {
                    AggCol::SumInt(_) => DataType::Int,
                    _ => DataType::Float,
                },
            };
            cols.push(Column::new("agg", name, ty, true));
        }
        let schema = Schema::shared(cols).expect("aggregate output columns are distinct");
        let mut rows: Vec<Row> = self
            .groups
            .iter()
            .map(|(key, state)| {
                let mut row = key.clone();
                for acc in &state.aggs {
                    row.push(match acc {
                        AggAcc::Count(c) => Datum::Int(*c),
                        AggAcc::SumInt { non_null: 0, .. }
                        | AggAcc::SumFloat { non_null: 0, .. } => Datum::Null,
                        AggAcc::SumInt { sum, .. } => Datum::Int(*sum),
                        AggAcc::SumFloat { sum, .. } => Datum::Float(sum.to_f64()),
                    });
                }
                row
            })
            .collect();
        rows.sort();
        Relation::new(schema, rows)
    }

    /// Per-group not-null count for a table (the §3.3 bookkeeping), for
    /// inspection and tests.
    pub fn notnull_count(&self, group: &[Datum], table: &str) -> Option<i64> {
        let t = self.analysis.layout.table_id(table)?;
        let slot = self.notnull_tables.iter().position(|x| *x == t)?;
        self.groups.get(group).map(|g| g.notnull[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::maintain_batch;
    use crate::fixtures::*;
    use std::slice;

    fn agg_def() -> AggViewDef {
        AggViewDef::new("agg_view", oj_view_def())
            .group_by("part", "p_partkey")
            .agg("cnt", AggSpec::CountRows)
            .agg(
                "line_cnt",
                AggSpec::CountNonNull {
                    table: "lineitem".into(),
                    column: "l_orderkey".into(),
                },
            )
            .agg(
                "qty_sum",
                AggSpec::Sum {
                    table: "lineitem".into(),
                    column: "l_quantity".into(),
                },
            )
    }

    /// Recompute the aggregate from scratch and compare outputs.
    fn assert_matches_recompute(view: &MaterializedAggView, catalog: &Catalog) {
        let fresh = MaterializedAggView::create(catalog, view.def.clone()).unwrap();
        let a = view.output();
        let b = fresh.output();
        assert!(
            a.bag_eq(&b),
            "aggregated view diverged:\nmaintained:\n{a}\nrecomputed:\n{b}"
        );
    }

    #[test]
    fn create_and_group() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 6, 9);
        let view = MaterializedAggView::create(&c, agg_def()).unwrap();
        // One group per part (+ the NULL-part group for orphaned orders).
        assert!(view.group_count() >= 6);
        assert_matches_recompute(&view, &c);
    }

    #[test]
    fn maintain_under_lineitem_inserts_and_deletes() {
        let paper = MaintenancePolicy::paper();
        let mut c = example1_catalog();
        populate_example1(&mut c, 6, 9);
        let mut view = MaterializedAggView::create(&c, agg_def()).unwrap();
        let up = c
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        let reports = maintain_batch(&mut [], slice::from_mut(&mut view), &c, &up, &paper);
        assert!(reports.unwrap()[0].primary_rows > 0);
        assert_matches_recompute(&view, &c);

        let down = c
            .delete("lineitem", &[vec![Datum::Int(3), Datum::Int(1)]])
            .unwrap();
        maintain_batch(&mut [], slice::from_mut(&mut view), &c, &down, &paper).unwrap();
        assert_matches_recompute(&view, &c);
    }

    #[test]
    fn maintain_under_part_inserts() {
        let paper = MaintenancePolicy::paper();
        let mut c = example1_catalog();
        populate_example1(&mut c, 6, 9);
        let mut view = MaterializedAggView::create(&c, agg_def()).unwrap();
        let before = view.group_count();
        let up = c.insert("part", vec![part_row(50, "new", 9.0)]).unwrap();
        maintain_batch(&mut [], slice::from_mut(&mut view), &c, &up, &paper).unwrap();
        assert_eq!(view.group_count(), before + 1);
        assert_matches_recompute(&view, &c);
    }

    #[test]
    fn group_disappears_at_zero_count() {
        let paper = MaintenancePolicy::paper();
        let mut c = example1_catalog();
        c.insert("part", vec![part_row(1, "only", 1.0)]).unwrap();
        let mut view = MaterializedAggView::create(&c, agg_def()).unwrap();
        assert_eq!(view.group_count(), 1);
        let down = c.delete("part", &[vec![Datum::Int(1)]]).unwrap();
        maintain_batch(&mut [], slice::from_mut(&mut view), &c, &down, &paper).unwrap();
        assert_eq!(view.group_count(), 0);
        assert_matches_recompute(&view, &c);
    }

    #[test]
    fn sum_becomes_null_when_contributors_vanish() {
        let paper = MaintenancePolicy::paper();
        let mut c = example1_catalog();
        populate_example1(&mut c, 4, 4);
        let mut view = MaterializedAggView::create(&c, agg_def()).unwrap();
        // Delete all lineitems of part 2's group: the group's qty_sum must
        // become NULL while the part row keeps the group alive.
        let l = c.table("lineitem").unwrap();
        let part_col = l.schema().index_of("lineitem", "l_partkey").unwrap();
        let keys: Vec<Vec<Datum>> = l
            .iter_refs()
            .filter(|r| r.datum(part_col) == Datum::Int(2))
            .map(|r| vec![r.datum(0), r.datum(1)])
            .collect();
        if keys.is_empty() {
            return; // fixture produced no such lines; nothing to test
        }
        let down = c.delete("lineitem", &keys).unwrap();
        maintain_batch(&mut [], slice::from_mut(&mut view), &c, &down, &paper).unwrap();
        assert_matches_recompute(&view, &c);
        let group = vec![Datum::Int(2)];
        assert_eq!(view.notnull_count(&group, "lineitem"), Some(0));
        let out = view.output();
        let row = out
            .rows()
            .iter()
            .find(|r| r[0] == Datum::Int(2))
            .expect("part 2 group survives via the part row");
        // qty_sum (last column) must be NULL.
        assert_eq!(row[row.len() - 1], Datum::Null);
    }

    #[test]
    fn rejects_missing_group_by() {
        let c = example1_catalog();
        let def = AggViewDef::new("bad", oj_view_def()).agg("cnt", AggSpec::CountRows);
        assert!(MaterializedAggView::create(&c, def).is_err());
    }

    #[test]
    fn rejects_sum_over_strings() {
        let c = example1_catalog();
        let def = agg_def().agg(
            "bad",
            AggSpec::Sum {
                table: "part".into(),
                column: "p_name".into(),
            },
        );
        assert!(MaterializedAggView::create(&c, def).is_err());
    }
}
