//! The two steps of incremental maintenance (paper §3.2) after the primary
//! delta is known: apply `ΔV^D`, then compute and apply each indirect term's
//! secondary delta. [`crate::batch::maintain_batch`], the one maintenance
//! entry, evaluates the primary deltas and runs these steps per view, plain
//! or aggregated (§3.3): the two kinds differ only in the sink the rows
//! land in.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ojv_algebra::TableId;
use ojv_exec::{eval_expr_buf, DeltaInput, ExecCtx, ExecStats, ExecStatsSnapshot, ViewLayout};
use ojv_rel::{Datum, RowBuf};
use ojv_storage::{Catalog, Update, UpdateOp};

use crate::analyze::ViewAnalysis;
use crate::compile::{CompiledMaintenancePlan, PlanCache, PlanConfig};
use crate::error::Result;
use crate::materialize::{MaterializedView, ViewStore};
use crate::policy::MaintenancePolicy;
use crate::secondary;

/// What one maintenance run did, with per-phase wall-clock timings — the
/// measurements behind the Figure 5 reproduction.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    pub view: String,
    pub table: String,
    /// Rows in the applied base-table update.
    pub update_rows: usize,
    /// True when the maintenance graph was empty (view untouched). The batch
    /// layer returns no report for such a view, so only callers that report
    /// every run set it: the paper harness (`ojv-bench`) and
    /// [`crate::baseline::maintain_gk`].
    pub noop: bool,
    pub direct_terms: usize,
    pub indirect_terms: usize,
    /// Rows in `ΔV^D`.
    pub primary_rows: usize,
    /// Rows deleted/inserted by the secondary step.
    pub secondary_rows: usize,
    /// Time to compute `ΔV^D`.
    pub primary_compute: Duration,
    /// Time to apply `ΔV^D` to the view store.
    pub primary_apply: Duration,
    /// Time to compute and apply `ΔV^I`.
    pub secondary_time: Duration,
    /// Per-operator executor counters (rows in/out, calls, time, allocations)
    /// for the whole run — filter, join build/probe, index join, dedup,
    /// subsumption.
    pub exec: ExecStatsSnapshot,
    /// Static-verifier checks passed when this run's plan was *compiled*
    /// (every compiled plan is verified, in every build). Cache hits report
    /// the checks of the original compilation.
    pub verified_checks: usize,
    /// Canonical fingerprint of the primary-delta plan this run executed
    /// (0 when there was no primary plan).
    pub plan_fingerprint: u64,
    /// How many views of the batch consumed the same evaluated primary
    /// delta rows, this one included (1 when no other view shares them);
    /// 0 when the view has no primary plan.
    pub shared_with: usize,
}

impl MaintenanceReport {
    pub fn total_time(&self) -> Duration {
        self.primary_compute + self.primary_apply + self.secondary_time
    }
}

/// The executor context of one maintenance run: the catalog, the view's
/// layout, the update's rows as `ΔT` for `table`, and the run's counters.
pub(crate) fn delta_ctx<'a>(
    catalog: &'a Catalog,
    layout: &'a ViewLayout,
    table: TableId,
    update: &'a Update,
    stats: &'a ExecStats,
) -> ExecCtx<'a> {
    let delta = DeltaInput {
        table,
        rows: &update.rows,
    };
    ExecCtx::with_delta(catalog, layout, delta).with_stats(stats)
}

/// Where a view's maintenance lands: a plain view's row store, or an
/// aggregated view's group store (§3.3). Both take `ΔV^D` and each term's
/// `∆D_i` as row batches; only a row store answers §5.2's probes.
pub(crate) trait ViewSink {
    /// Apply `rows` as inserts, or as deletes when `insert` is false.
    fn apply(&mut self, rows: &RowBuf, insert: bool, view: &str) -> Result<()>;

    /// The row store §5.2 computes orphans from; `None` sends every
    /// indirect term to base tables (§5.3).
    fn row_store(&self) -> Option<&ViewStore>;
}

/// A maintained view split into disjoint borrows, so maintenance reads the
/// analysis while it mutates the sink.
pub(crate) struct ViewParts<'a> {
    pub name: &'a str,
    pub analysis: &'a ViewAnalysis,
    pub sink: &'a mut dyn ViewSink,
}

/// A view the batch layer maintains, plain or aggregated. Plan lookup,
/// warm-up and [`apply_with_primary`] are written once over its parts; the
/// two kinds differ only in their [`ViewSink`].
pub(crate) trait Maintained {
    fn name(&self) -> &str;

    fn analysis(&self) -> &ViewAnalysis;

    /// The analysis and the plan cache. Apart from [`Maintained::parts`]:
    /// looking a plan up must not make a plain view's shared image
    /// writable, which would copy it.
    fn plans(&mut self) -> (&ViewAnalysis, &mut PlanCache);

    /// The parts maintenance writes through: only an affected view's job
    /// takes them.
    fn parts(&mut self) -> ViewParts<'_>;

    /// The compiled maintenance plan for updates of `t` under the policy
    /// configuration `cfg`, compiling on first use (or after DDL / a policy
    /// flip invalidated the cached entry).
    fn compiled_plan(
        &mut self,
        catalog: &Catalog,
        t: TableId,
        cfg: PlanConfig,
    ) -> Result<Arc<CompiledMaintenancePlan>> {
        let (analysis, plans) = self.plans();
        plans.get_or_compile(analysis, catalog, t, cfg)
    }

    /// Eagerly compile the maintenance plan for every referenced table under
    /// `policy` — called at view creation so steady-state maintenance never
    /// compiles (the compile counter stays flat).
    fn warm_plans(&mut self, catalog: &Catalog, policy: &MaintenancePolicy) -> Result<()> {
        let cfg = PlanConfig::of(policy);
        for i in 0..self.analysis().layout.table_count() {
            self.compiled_plan(catalog, TableId(i as u8), cfg)?;
        }
        Ok(())
    }
}

/// Apply an already-computed primary delta and run the secondary step —
/// everything in a maintenance run *after* `ΔV^D` evaluation, which the
/// batch layer may share between several views.
///
/// Fills every report field except `primary_compute` and `exec`, which
/// depend on how the caller evaluated the primary.
pub(crate) fn apply_with_primary(
    view: &mut dyn Maintained,
    catalog: &Catalog,
    stats: &ExecStats,
    update: &Update,
    compiled: &CompiledMaintenancePlan,
    primary: &RowBuf,
    report: &mut MaintenanceReport,
) -> Result<()> {
    let t = compiled.table;
    let ViewParts {
        name,
        analysis,
        sink,
    } = view.parts();
    report.direct_terms = compiled.mgraph.direct.len();
    report.indirect_terms = compiled.indirect.len();
    report.verified_checks = compiled.verified_checks;
    report.plan_fingerprint = compiled.fingerprint;
    report.primary_rows = primary.len();
    let insert = update.op == UpdateOp::Insert;

    let start = Instant::now();
    sink.apply(primary, insert, name)?;
    report.primary_apply = start.elapsed();

    // Step 2: secondary delta (§5), applied with the inverse operation, one
    // term at a time in the maintenance graph's supersets-first order. Each
    // term's orphans are applied before the next term is computed, so a
    // term's coverage check sees the orphans its supersets just inserted.
    let start = Instant::now();
    if !compiled.indirect.is_empty() && !primary.is_empty() {
        let exec = delta_ctx(catalog, &analysis.layout, t, update, stats);
        for ind in &compiled.indirect {
            // §5.2 column availability (resolved at compile time): "If a
            // view does not output the columns required by the expressions
            // above, then the expression cannot be used and ∆D_i has to be
            // computed using base tables" (§5.3). A group store never
            // exposes its terms, so an aggregated view always takes §5.3.
            let orphans = match sink.row_store().filter(|_| ind.from_view_ok) {
                Some(store) => secondary::from_view(&analysis.layout, store, ind, primary, insert),
                None => secondary::from_base(&exec, ind, primary, insert)?,
            };
            report.secondary_rows += orphans.len();
            sink.apply(&orphans, !insert, name)?;
        }
    }
    report.secondary_time = start.elapsed();
    Ok(())
}

/// Recompute the view from scratch and verify that the maintained contents
/// match — the correctness oracle used by tests. Both sides are sorted as
/// row references: the oracle copies no stored row, so checking a view
/// costs one recomputation of it, not two more images.
pub fn verify_against_recompute(view: &MaterializedView, catalog: &Catalog) -> bool {
    let ctx = ExecCtx::new(catalog, &view.analysis.layout);
    let recomputed = eval_expr_buf(&ctx, &view.analysis.expr)
        .expect("recompute oracle: every view table is in the catalog");
    let mut fresh: Vec<&[Datum]> = recomputed.iter().collect();
    let mut have: Vec<&[Datum]> = view.wide_rows().iter().map(Vec::as_slice).collect();
    fresh.sort();
    have.sort();
    fresh == have
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;
    use crate::policy::MaintenancePolicy;
    use ojv_algebra::TableSet;
    use ojv_rel::Row;

    fn policies() -> Vec<MaintenancePolicy> {
        vec![
            MaintenancePolicy::paper(),
            MaintenancePolicy::naive(),
            MaintenancePolicy {
                use_fk: false,
                ..Default::default()
            },
            MaintenancePolicy {
                left_deep: false,
                ..Default::default()
            },
        ]
    }

    /// Example 1 end-to-end: inserting lineitems must add full rows and
    /// remove orphaned part/orders rows; every policy agrees with recompute.
    #[test]
    fn lineitem_insert_all_policies() {
        for policy in policies() {
            let mut c = example1_catalog();
            populate_example1(&mut c, 8, 9);
            let mut view = MaterializedView::create(&c, oj_view_def()).unwrap();
            // Order 3 is orphaned (multiple of 3); insert its first lineitem
            // referencing part 7, which only order 6's second line uses —
            // engineered below to make both an order and a part lose orphan
            // status.
            let up = c
                .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
                .unwrap();
            let report = maintain_alone(&mut view, &c, &up, &policy);
            let report = report.unwrap_or_else(|| panic!("policy {policy:?}: view untouched"));
            assert_eq!(report.primary_rows, 1);
            assert!(
                verify_against_recompute(&view, &c),
                "policy {policy:?} diverged from recompute"
            );
        }
    }

    #[test]
    fn lineitem_delete_all_policies() {
        for policy in policies() {
            let mut c = example1_catalog();
            populate_example1(&mut c, 8, 9);
            let mut view = MaterializedView::create(&c, oj_view_def()).unwrap();
            // Delete order 2's only... order 2 has lines 1 and 2; delete
            // line 1 first (partial), then line 2 (order 2 becomes orphan).
            for ln in [1i64, 2] {
                let up = c
                    .delete("lineitem", &[vec![Datum::Int(2), Datum::Int(ln)]])
                    .unwrap();
                maintain_alone(&mut view, &c, &up, &policy);
                assert!(
                    verify_against_recompute(&view, &c),
                    "policy {policy:?} diverged after deleting line {ln}"
                );
            }
            // Order 2 must now appear as an orphan row.
            let o = view.analysis.layout.table_id("orders").unwrap();
            let orphan_orders = view
                .wide_rows()
                .iter()
                .filter(|r| {
                    view.analysis
                        .layout
                        .row_matches_term(TableSet::singleton(o), r)
                        && r[view.analysis.layout.slot(o).offset] == Datum::Int(2)
                })
                .count();
            assert_eq!(orphan_orders, 1, "policy {policy:?}");
        }
    }

    /// Example 1's headline: inserting parts or orders only touches the
    /// view with the new rows themselves (FK fast path), and the report
    /// shows no secondary work.
    #[test]
    fn part_insert_fast_path() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut view = MaterializedView::create(&c, oj_view_def()).unwrap();
        let before = view.len();
        let up = c
            .insert("part", vec![part_row(100, "new part", 1.0)])
            .unwrap();
        let report = maintain_alone(&mut view, &c, &up, &MaintenancePolicy::paper()).unwrap();
        assert_eq!(report.primary_rows, 1);
        assert_eq!(report.secondary_rows, 0);
        assert_eq!(report.indirect_terms, 0);
        assert_eq!(view.len(), before + 1);
        assert!(verify_against_recompute(&view, &c));
    }

    #[test]
    fn orders_insert_fast_path_and_delete() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut view = MaterializedView::create(&c, oj_view_def()).unwrap();
        let up = c.insert("orders", vec![order_row(100, 5)]).unwrap();
        let report = maintain_alone(&mut view, &c, &up, &MaintenancePolicy::paper()).unwrap();
        assert_eq!(report.primary_rows, 1);
        assert!(verify_against_recompute(&view, &c));
        // Deleting it again (it has no lineitems) removes the orphan row.
        let down = c.delete("orders", &[vec![Datum::Int(100)]]).unwrap();
        let report = maintain_alone(&mut view, &c, &down, &MaintenancePolicy::paper()).unwrap();
        assert_eq!(report.primary_rows, 1);
        assert!(verify_against_recompute(&view, &c));
    }

    /// Without FK knowledge the same part insert must still be correct —
    /// just with more work (two direct terms instead of one).
    #[test]
    fn part_insert_without_fk_is_equivalent() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut view = MaterializedView::create(&c, oj_view_def()).unwrap();
        let mut view2 = view.clone();
        let up = c.insert("part", vec![part_row(100, "p", 1.0)]).unwrap();
        maintain_alone(&mut view, &c, &up, &MaintenancePolicy::paper());
        maintain_alone(&mut view2, &c, &up, &MaintenancePolicy::naive());
        let mut a: Vec<Row> = view.wide_rows().to_vec();
        let mut b: Vec<Row> = view2.wide_rows().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    /// §5.2 column availability: a view whose output hides key columns must
    /// still maintain correctly — every term's secondary delta comes from
    /// base tables (§5.3).
    #[test]
    fn projected_view_falls_back_to_base_tables() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let def = oj_view_def().with_projection(vec![
            ("part", "p_partkey"),
            ("orders", "o_orderkey"),
            ("lineitem", "l_quantity"), // nullable: lineitem unavailable
        ]);
        let mut view = MaterializedView::create(&c, def).unwrap();
        assert!((0..view.analysis.terms.len()).all(|i| !view.analysis.from_view_available(i)));
        let policy = MaintenancePolicy::paper();
        let up = c
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        maintain_alone(&mut view, &c, &up, &policy);
        assert!(verify_against_recompute(&view, &c));
        let down = c
            .delete("lineitem", &[vec![Datum::Int(3), Datum::Int(1)]])
            .unwrap();
        maintain_alone(&mut view, &c, &down, &policy);
        assert!(verify_against_recompute(&view, &c));
    }

    /// The static verifier runs on every maintenance plan and every plan
    /// the existing fixtures produce verifies clean.
    #[test]
    fn plans_verify_clean_and_report_checks() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut view = MaterializedView::create(&c, oj_view_def()).unwrap();
        let policy = MaintenancePolicy::default();
        let up = c
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        let report = maintain_alone(&mut view, &c, &up, &policy).unwrap();
        assert!(
            report.verified_checks > 0,
            "verifier did not run: {report:?}"
        );
        assert!(verify_against_recompute(&view, &c));
    }

    /// An update to a table the view does not reference is a no-op.
    #[test]
    fn unrelated_table_is_noop() {
        let mut c = example1_catalog();
        c.create_table(
            "other",
            vec![ojv_rel::Column::new(
                "other",
                "id",
                ojv_rel::DataType::Int,
                false,
            )],
            &["id"],
        )
        .unwrap();
        populate_example1(&mut c, 4, 4);
        let mut view = MaterializedView::create(&c, oj_view_def()).unwrap();
        let up = c.insert("other", vec![vec![Datum::Int(1)]]).unwrap();
        let report = maintain_alone(&mut view, &c, &up, &MaintenancePolicy::paper());
        assert!(report.is_none());
    }

    /// V1 (four tables, fo/lo mix): random-ish update sequences against all
    /// four tables, checked against recompute after every step.
    #[test]
    fn v1_update_sequences() {
        for policy in policies() {
            let mut c = v1_catalog();
            for (name, n) in [("r", 6i64), ("s", 5), ("t", 7), ("u", 4)] {
                let rows: Vec<Row> = (1..=n).map(|i| v1_row(i, i % 4, i)).collect();
                c.insert(name, rows).unwrap();
            }
            let mut view = MaterializedView::create(&c, v1_view_def()).unwrap();
            // Inserts into every table.
            for (name, id, jc) in [
                ("t", 100i64, 1i64),
                ("r", 101, 2),
                ("s", 102, 3),
                ("u", 103, 0),
            ] {
                let up = c.insert(name, vec![v1_row(id, jc, 0)]).unwrap();
                maintain_alone(&mut view, &c, &up, &policy);
                assert!(
                    verify_against_recompute(&view, &c),
                    "policy {policy:?} diverged after insert into {name}"
                );
            }
            // Deletes from every table.
            for (name, id) in [("t", 100i64), ("u", 2), ("s", 1), ("r", 3)] {
                let up = c.delete(name, &[vec![Datum::Int(id)]]).unwrap();
                maintain_alone(&mut view, &c, &up, &policy);
                assert!(
                    verify_against_recompute(&view, &c),
                    "policy {policy:?} diverged after delete from {name}"
                );
            }
        }
    }
}
