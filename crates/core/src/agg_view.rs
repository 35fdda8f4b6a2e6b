//! Aggregated outer-join views (paper §3.3).
//!
//! An aggregated outer-join view is an SPOJ view with a group-by on top. Per
//! the paper, the maintained state keeps, for every group, a regular row
//! count (zero ⇒ the group disappears) and not-null counts so aggregates
//! over a table's columns become `NULL` when no remaining row in the group
//! carries that table. The incremental step is the plain view's
//! (`maintain::apply_with_primary`): the same `ΔV^D` and the same
//! per-term `ΔV^I`, folded into the groups with a sign instead of stored —
//! with `ΔV^I` computed **from base tables** (§5.3), because the aggregated
//! view cannot expose its terms.
//!
//! As in SQL Server's indexed views, the maintainable aggregate set is
//! `COUNT(*)`, `COUNT(col)`, and `SUM(col)`.

use ojv_algebra::TableId;
use ojv_exec::{eval_expr_buf, ExecCtx};
use ojv_rel::{
    key_hash, Column, DataType, Datum, ExactFloatSum, KeyArena, Relation, Row, RowBuf, Schema,
};
use ojv_storage::Catalog;

use crate::analyze::{analyze, ViewAnalysis};
use crate::compile::PlanCache;
use crate::error::{CoreError, Result};
use crate::maintain::{Maintained, ViewParts, ViewSink};
use crate::materialize::ViewStore;
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

impl GroupState {
    fn new(notnull_tables: usize, agg_cols: &[AggCol]) -> Self {
        GroupState {
            count: 0,
            notnull: vec![0; notnull_tables],
            aggs: agg_cols
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
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum AggCol {
    CountRows,
    CountNonNull(usize),
    SumInt(usize),
    SumFloat(usize),
}

/// The aggregated view's sink: one [`GroupState`] per group key, the keys
/// in a [`KeyArena`], so folding a row hashes its group columns in place
/// and copies a key only when the group is new.
#[derive(Debug, Clone)]
struct GroupStore {
    group_cols: Vec<usize>,
    /// Per null-extendable table: the wide column that is null exactly when
    /// a row is null-extended on that table (its first key column).
    notnull_cols: Vec<usize>,
    agg_cols: Vec<AggCol>,
    groups: KeyArena<GroupState>,
}

/// The group store folds `ΔV^D` and every term's `∆D_i` into the groups
/// with a sign. It cannot answer §5.2's probes: its secondary deltas come
/// from base tables (§5.3).
impl ViewSink for GroupStore {
    fn apply(&mut self, rows: &RowBuf, insert: bool, _view: &str) -> Result<()> {
        let sign = if insert { 1 } else { -1 };
        for row in rows {
            let hash = key_hash(row, &self.group_cols);
            let s = self.groups.find_or_insert(hash, row, &self.group_cols, || {
                GroupState::new(self.notnull_cols.len(), &self.agg_cols)
            });
            let state = self.groups.value_mut(s);
            state.count += sign;
            for (n, &c) in state.notnull.iter_mut().zip(&self.notnull_cols) {
                if !row[c].is_null() {
                    *n += sign;
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
                            if insert {
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
                self.groups.swap_remove(hash, s);
            }
        }
        Ok(())
    }

    fn row_store(&self) -> Option<&ViewStore> {
        None
    }
}

/// A materialized aggregated outer-join view.
#[derive(Debug, Clone)]
pub struct MaterializedAggView {
    def: AggViewDef,
    pub analysis: ViewAnalysis,
    /// Tables that are null-extended in at least one term (§3.3), in the
    /// order of the groups' not-null counts.
    notnull_tables: Vec<TableId>,
    store: GroupStore,
    plans: PlanCache,
}

impl MaterializedAggView {
    /// Analyze the inner view and materialize the aggregated contents.
    pub fn create(catalog: &Catalog, def: AggViewDef) -> Result<Self> {
        let analysis = analyze(catalog, &def.inner)?;
        let invalid = |detail: String| CoreError::InvalidView {
            view: def.name.clone(),
            detail,
        };
        let global = |table: &str, column: &str| {
            let cr = analysis.layout.col(table, column).ok()?;
            Some(analysis.layout.global(cr))
        };
        if def.group_by.is_empty() {
            let detail = "aggregated view requires at least one group-by column";
            return Err(invalid(detail.into()));
        }
        let group_cols = def
            .group_by
            .iter()
            .map(|(t, c)| {
                global(t, c).ok_or_else(|| invalid(format!("group-by column {t}.{c} not found")))
            })
            .collect::<Result<Vec<_>>>()?;
        let mut agg_cols = Vec::with_capacity(def.aggs.len());
        for (out, spec) in &def.aggs {
            let input = |table: &str, column: &str| {
                global(table, column)
                    .ok_or_else(|| invalid(format!("aggregate {out}: column not found")))
            };
            agg_cols.push(match spec {
                AggSpec::CountRows => AggCol::CountRows,
                AggSpec::CountNonNull { table, column } => {
                    AggCol::CountNonNull(input(table, column)?)
                }
                AggSpec::Sum { table, column } => {
                    let g = input(table, column)?;
                    match analysis.layout.wide_schema().column(g).ty {
                        DataType::Int => AggCol::SumInt(g),
                        DataType::Float => AggCol::SumFloat(g),
                        other => {
                            let detail = format!("SUM over non-numeric column of type {other}");
                            return Err(invalid(detail));
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
        let notnull_cols = notnull_tables
            .iter()
            .map(|&t| analysis.layout.slot(t).key_cols[0])
            .collect();

        let mut store = GroupStore {
            groups: KeyArena::new(group_cols.len()),
            group_cols,
            notnull_cols,
            agg_cols,
        };
        let ctx = ExecCtx::new(catalog, &analysis.layout);
        let rows = eval_expr_buf(&ctx, &analysis.expr)?;
        store.apply(&rows, true, &def.name)?;
        Ok(MaterializedAggView {
            def,
            analysis,
            notnull_tables,
            store,
            plans: PlanCache::default(),
        })
    }

    pub fn name(&self) -> &str {
        &self.def.name
    }

    pub fn group_count(&self) -> usize {
        self.store.groups.len()
    }

    /// The aggregated output: group-by columns followed by the aggregates.
    pub fn output(&self) -> Relation {
        let layout = &self.analysis.layout;
        let store = &self.store;
        let mut cols: Vec<Column> = store
            .group_cols
            .iter()
            .map(|&g| layout.wide_schema().column(g).clone())
            .collect();
        for ((name, _), col) in self.def.aggs.iter().zip(&store.agg_cols) {
            let ty = match col {
                AggCol::SumFloat(_) => DataType::Float,
                _ => DataType::Int,
            };
            cols.push(Column::new("agg", name, ty, true));
        }
        let schema = Schema::shared(cols).expect("aggregate output columns are distinct");
        let mut rows: Vec<Row> = store
            .groups
            .iter()
            .map(|(key, state)| {
                let mut row = key.to_vec();
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
        let key_cols: Vec<usize> = (0..group.len()).collect();
        let groups = &self.store.groups;
        let g = groups.find(key_hash(group, &key_cols), group, &key_cols)?;
        Some(groups.value(g).notnull[slot])
    }
}

impl Maintained for MaterializedAggView {
    fn name(&self) -> &str {
        &self.def.name
    }

    fn analysis(&self) -> &ViewAnalysis {
        &self.analysis
    }

    fn plans(&mut self) -> (&ViewAnalysis, &mut PlanCache) {
        (&self.analysis, &mut self.plans)
    }

    fn parts(&mut self) -> ViewParts<'_> {
        ViewParts {
            name: &self.def.name,
            analysis: &self.analysis,
            sink: &mut self.store,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::maintain_batch;
    use crate::fixtures::*;
    use crate::policy::MaintenancePolicy;
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
