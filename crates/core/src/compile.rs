//! The compile layer: typed physical maintenance plans, built and verified
//! **once** per (view, updated table, policy configuration) and cached on the
//! view.
//!
//! The primary delta plan (§4), the maintenance graph (§3.1), the static
//! verifier's result and the §5.2 column-availability condition depend only
//! on the view definition, the catalog schema and the policy, not on the
//! update at hand. A [`CompiledMaintenancePlan`] captures them; the hot path
//! keeps only the cheap per-run delta arity check.
//!
//! Cache invalidation is by construction: every compiled plan records the
//! [`Catalog::schema_version`] and the [`PlanConfig`] it was built under, and
//! [`PlanCache::get_or_compile`] discards entries whose version or config no
//! longer match. Schema-changing DDL bumps the version; policy flips change
//! the config; either forces a recompile on the next maintenance run.
//!
//! This module is the **only** place (outside `analyze`, where the derivation
//! primitives live) allowed to call `primary_delta_plan` or the compile-time
//! verifiers — enforced by the `plan-compile-confined` lint in `xtask`.

use std::cell::Cell;
use std::sync::Arc;

use ojv_algebra::{fingerprint_expr, Expr, MaintenanceGraph, Spine, TableId};
use ojv_storage::Catalog;

use crate::analyze::ViewAnalysis;
use crate::error::Result;
use crate::policy::MaintenancePolicy;

thread_local! {
    /// Count of physical-plan compilations (cache misses) on this thread.
    /// Plan resolution always happens on the thread driving the database
    /// (the batch layer resolves plans in its serial phase, before fanning
    /// out), so a thread-local counter sees every compile a workload causes
    /// while staying immune to concurrently running tests.
    static COMPILE_COUNT: Cell<usize> = const { Cell::new(0) };
}

/// Total [`PlanCache`] compilations on the calling thread since it started.
/// Monotone; compare before/after a workload rather than against an absolute
/// value.
pub fn compile_count() -> usize {
    COMPILE_COUNT.with(Cell::get)
}

/// The policy-derived knobs a compiled plan depends on. Two maintenance runs
/// with equal `PlanConfig`s (and an unchanged catalog schema) can share one
/// compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Effective FK usage (`policy.fk_enabled()`, i.e. `use_fk` minus the
    /// update-decomposition override).
    pub use_fk: bool,
    /// §4.1 left-deep conversion.
    pub left_deep: bool,
}

impl PlanConfig {
    pub fn of(policy: &MaintenancePolicy) -> Self {
        PlanConfig {
            use_fk: policy.fk_enabled(),
            left_deep: policy.left_deep,
        }
    }
}

/// An indirectly affected term with everything the §5 secondary-delta
/// strategies need, resolved at compile time.
#[derive(Debug, Clone)]
pub struct CompiledIndirect {
    /// Term index in the view's normal form.
    pub term: usize,
    /// Directly affected parents.
    pub pard: Vec<usize>,
    /// All minimal-superset parents (for the `Q_i` null filter).
    pub all_parents: Vec<usize>,
    /// §5.2 column availability, evaluated once: can this term's secondary
    /// delta be computed from the view's output?
    pub from_view_ok: bool,
}

/// A fully compiled physical maintenance plan for one (view, updated table)
/// pair under one [`PlanConfig`]: maintenance graph, primary-delta operator
/// tree with its canonical fingerprint and left-spine decomposition, and the
/// per-term secondary-delta artifacts. Built by [`PlanCache::get_or_compile`]
/// at view creation (or first use) and reused verbatim by every subsequent
/// maintenance run until DDL or a policy flip invalidates it.
#[derive(Debug, Clone)]
pub struct CompiledMaintenancePlan {
    /// The updated table this plan maintains against.
    pub table: TableId,
    /// Policy configuration the plan was compiled under.
    pub cfg: PlanConfig,
    /// Catalog schema version at compile time; a mismatch means stale.
    pub schema_version: u64,
    /// True when the maintenance graph is empty — updates of `table` cannot
    /// affect the view and the run is a no-op.
    pub noop: bool,
    /// The (possibly FK-reduced) maintenance graph (§3.1, §6.2).
    pub mgraph: MaintenanceGraph,
    /// The `ΔV^D` operator tree (§4), or `None` when no term is directly
    /// affected.
    pub plan: Option<Expr>,
    /// Canonical structural fingerprint of `plan` (0 when `plan` is `None`).
    /// Equal fingerprints ⇒ structurally identical operator trees, the unit
    /// of cross-view sharing in the batch layer.
    pub fingerprint: u64,
    /// Left-spine decomposition of `plan`, for shared-prefix factoring.
    pub spine: Option<Spine>,
    /// Fingerprint of the view's wide-row layout. Views can only share
    /// materialized rows when their layouts agree.
    pub layout_sig: u64,
    /// Indirectly affected terms with compile-time-resolved parent sets and
    /// §5.2 availability.
    pub indirect: Vec<CompiledIndirect>,
    /// Static-verifier checks passed at compile time. Every compiled plan is
    /// verified, in every build, so this is never 0.
    pub verified_checks: usize,
}

/// Structural fingerprint of a view layout: table names, widths, and key
/// columns. Two views over the same tables in the same order share one
/// signature (their wide rows are interchangeable).
pub fn layout_signature(analysis: &ViewAnalysis) -> u64 {
    let mut f = ojv_algebra::Fingerprinter::new();
    let layout = &analysis.layout;
    f.write_usize(layout.table_count());
    for slot in layout.slots() {
        f.write_str(slot.schema.column(0).qualifier.as_str());
        f.write_usize(slot.schema.len());
        f.write_usize(slot.key_cols.len());
        for &k in &slot.key_cols {
            f.write_usize(k);
        }
    }
    f.finish()
}

/// Compile the maintenance plan for updates of `t` under `cfg`, without
/// touching any cache or counter. The `explain`/`sql` read-only paths use
/// this directly.
pub fn compile_uncached(
    analysis: &ViewAnalysis,
    catalog: &Catalog,
    t: TableId,
    cfg: PlanConfig,
) -> Result<CompiledMaintenancePlan> {
    let mgraph = analysis.maintenance_graph(t, cfg.use_fk);
    let noop = mgraph.is_empty();
    let plan = if noop || mgraph.direct.is_empty() {
        None
    } else {
        Some(analysis.primary_delta_plan(t, cfg.use_fk, cfg.left_deep))
    };
    // Compile-time verification, in every build: a plan compiles once per
    // (view, table, config), so the few microseconds are paid once. A
    // violation fails the compile, so a bad plan is rejected before any
    // maintenance run can touch the view store.
    let mut verified_checks = analysis.verify_static(catalog)?;
    verified_checks +=
        analysis.verify_maintenance(t, cfg.use_fk, cfg.left_deep, &mgraph, plan.as_ref())?;
    let fingerprint = plan.as_ref().map_or(0, fingerprint_expr);
    let spine = plan.as_ref().map(Spine::of);
    let mut indirect = Vec::with_capacity(mgraph.indirect.len());
    for ind in &mgraph.indirect {
        let from_view_ok = analysis.from_view_available(ind.term);
        if from_view_ok {
            verified_checks += analysis.verify_from_view(ind.term)?;
        }
        indirect.push(CompiledIndirect {
            term: ind.term,
            pard: ind.pard.clone(),
            all_parents: analysis.graph.parents(ind.term).to_vec(),
            from_view_ok,
        });
    }
    Ok(CompiledMaintenancePlan {
        table: t,
        cfg,
        schema_version: catalog.schema_version(),
        noop,
        mgraph,
        plan,
        fingerprint,
        spine,
        layout_sig: layout_signature(analysis),
        indirect,
        verified_checks,
    })
}

/// Derive just the `ΔV^D` operator tree, uncached and unverified — for the
/// SQL script generator and EXPLAIN, which render plans without executing
/// them.
pub fn derive_plan(analysis: &ViewAnalysis, t: TableId, use_fk: bool, left_deep: bool) -> Expr {
    analysis.primary_delta_plan(t, use_fk, left_deep)
}

/// Per-view cache of compiled maintenance plans, keyed by (updated table,
/// [`PlanConfig`]). Entries are `Arc`-shared so cloning a view (checkpoints,
/// tests) is cheap and the batch layer can hold plans across jobs.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entries: Vec<Arc<CompiledMaintenancePlan>>,
}

impl PlanCache {
    /// Look up the compiled plan for `(t, cfg)`, compiling (and counting a
    /// cache miss) when absent or stale. Stale entries — compiled under an
    /// older catalog schema version — are evicted for every table, not just
    /// `t`, so DDL invalidates the whole cache at once.
    pub fn get_or_compile(
        &mut self,
        analysis: &ViewAnalysis,
        catalog: &Catalog,
        t: TableId,
        cfg: PlanConfig,
    ) -> Result<Arc<CompiledMaintenancePlan>> {
        let version = catalog.schema_version();
        self.entries.retain(|p| p.schema_version == version);
        if let Some(hit) = self.entries.iter().find(|p| p.table == t && p.cfg == cfg) {
            return Ok(Arc::clone(hit));
        }
        COMPILE_COUNT.with(|c| c.set(c.get() + 1));
        let compiled = Arc::new(compile_uncached(analysis, catalog, t, cfg)?);
        self.entries.push(Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Number of cached plans (for tests).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every cached plan (explicit invalidation).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::fixtures::*;

    fn cfg() -> PlanConfig {
        PlanConfig {
            use_fk: true,
            left_deep: true,
        }
    }

    #[test]
    fn compile_produces_plan_and_fingerprint() {
        let c = example1_catalog();
        let a = analyze(&c, &oj_view_def()).unwrap();
        let t = a.layout.table_id("lineitem").unwrap();
        let p = compile_uncached(&a, &c, t, cfg()).unwrap();
        assert!(!p.noop);
        assert!(p.plan.is_some());
        assert_ne!(p.fingerprint, 0);
        assert!(p.verified_checks > 0);
    }

    /// The batch layer evaluates a plan as its spine's reassembly, never
    /// `plan` itself, so the two must be equal for every compiled plan: here
    /// V1 and the Example 1 views, over every table and every config.
    #[test]
    fn spine_reassembles_every_plan() {
        let mut plans = 0;
        for (c, def) in [
            (v1_catalog(), v1_view_def()),
            (example1_catalog(), oj_view_def()),
            (example1_catalog(), oj_view_variant("qa", 10)),
        ] {
            let a = analyze(&c, &def).unwrap();
            for t in 0..a.layout.table_count() {
                for (use_fk, left_deep) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let cfg = PlanConfig { use_fk, left_deep };
                    let p = compile_uncached(&a, &c, TableId(t as u8), cfg).unwrap();
                    let spine = p.spine.as_ref().map(|s| s.prefix_expr(s.steps.len()));
                    assert_eq!(spine, p.plan, "{} table {t} {cfg:?}", def.name());
                    plans += usize::from(p.plan.is_some());
                }
            }
        }
        assert!(plans > 0);
    }

    #[test]
    fn identical_views_share_fingerprints() {
        let c = example1_catalog();
        let a1 = analyze(&c, &oj_view_def()).unwrap();
        let a2 = analyze(&c, &oj_view_def().with_name("other")).unwrap();
        let t = a1.layout.table_id("lineitem").unwrap();
        let p1 = compile_uncached(&a1, &c, t, cfg()).unwrap();
        let p2 = compile_uncached(&a2, &c, t, cfg()).unwrap();
        assert_eq!(p1.fingerprint, p2.fingerprint);
        assert_eq!(p1.layout_sig, p2.layout_sig);
    }

    #[test]
    fn cache_hits_do_not_recompile() {
        let c = example1_catalog();
        let a = analyze(&c, &oj_view_def()).unwrap();
        let t = a.layout.table_id("lineitem").unwrap();
        let mut cache = PlanCache::default();
        let before = compile_count();
        let p1 = cache.get_or_compile(&a, &c, t, cfg()).unwrap();
        assert_eq!(compile_count(), before + 1);
        let p2 = cache.get_or_compile(&a, &c, t, cfg()).unwrap();
        assert_eq!(compile_count(), before + 1, "second lookup must hit");
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn config_flip_recompiles() {
        let c = example1_catalog();
        let a = analyze(&c, &oj_view_def()).unwrap();
        let t = a.layout.table_id("lineitem").unwrap();
        let mut cache = PlanCache::default();
        cache.get_or_compile(&a, &c, t, cfg()).unwrap();
        let before = compile_count();
        let flipped = PlanConfig {
            left_deep: false,
            ..cfg()
        };
        cache.get_or_compile(&a, &c, t, flipped).unwrap();
        assert_eq!(compile_count(), before + 1, "config flip must recompile");
        assert_eq!(cache.len(), 2, "both configs stay cached");
    }

    #[test]
    fn ddl_invalidates_whole_cache() {
        let mut c = example1_catalog();
        let a = analyze(&c, &oj_view_def()).unwrap();
        let t = a.layout.table_id("lineitem").unwrap();
        let o = a.layout.table_id("orders").unwrap();
        let mut cache = PlanCache::default();
        cache.get_or_compile(&a, &c, t, cfg()).unwrap();
        cache.get_or_compile(&a, &c, o, cfg()).unwrap();
        assert_eq!(cache.len(), 2);
        c.create_table(
            "unrelated",
            vec![ojv_rel::Column::new(
                "unrelated",
                "id",
                ojv_rel::DataType::Int,
                false,
            )],
            &["id"],
        )
        .unwrap();
        let before = compile_count();
        cache.get_or_compile(&a, &c, t, cfg()).unwrap();
        assert_eq!(compile_count(), before + 1, "schema bump must recompile");
        assert_eq!(cache.len(), 1, "stale entries for all tables evicted");
    }

    fn fresh_db(views: usize) -> crate::database::Database {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut db = crate::database::Database::new(c);
        for i in 0..views {
            db.create_view(oj_view_def().with_name(&format!("v{i}")))
                .unwrap();
        }
        db
    }

    /// View creation compiles exactly one plan per (view, base table), and a
    /// 100-batch steady-state workload compiles nothing more.
    #[test]
    fn exactly_one_compile_per_view_table_pair() {
        let before = compile_count();
        let mut db = fresh_db(3);
        let tables = 3; // part, orders, lineitem
        assert_eq!(
            compile_count(),
            before + 3 * tables,
            "creation compiles one plan per (view, table)"
        );
        for i in 0..100i64 {
            db.insert("lineitem", vec![lineitem_row(6, 200 + i, 2, 4, 1.0)])
                .unwrap();
        }
        assert_eq!(
            compile_count(),
            before + 3 * tables,
            "steady-state maintenance must be compile-free"
        );
    }

    /// DDL through the database bumps the schema version; the next
    /// maintenance run recompiles and the view stays correct.
    #[test]
    fn database_ddl_recompiles() {
        let mut db = fresh_db(1);
        db.insert("lineitem", vec![lineitem_row(3, 50, 2, 4, 1.0)])
            .unwrap();
        let before = compile_count();
        db.catalog_mut()
            .create_table(
                "unrelated",
                vec![ojv_rel::Column::new(
                    "unrelated",
                    "id",
                    ojv_rel::DataType::Int,
                    false,
                )],
                &["id"],
            )
            .unwrap();
        db.insert("lineitem", vec![lineitem_row(3, 51, 2, 4, 1.0)])
            .unwrap();
        assert_eq!(compile_count(), before + 1, "DDL must force a recompile");
        assert!(crate::maintain::verify_against_recompute(
            db.view("v0").unwrap(),
            db.catalog()
        ));
    }

    /// Flipping each plan-relevant policy knob (`left_deep`, `use_fk`)
    /// recompiles exactly once; repeating the same update
    /// under the flipped policy hits the cache.
    #[test]
    fn database_policy_flips_recompile() {
        let mut db = fresh_db(1);
        db.insert("lineitem", vec![lineitem_row(3, 60, 2, 4, 1.0)])
            .unwrap();
        let mut key = 61i64;
        let mut insert = |db: &mut crate::database::Database| {
            db.insert("lineitem", vec![lineitem_row(3, key, 2, 4, 1.0)])
                .unwrap();
            key += 1;
        };
        for flip in 0..2usize {
            match flip {
                0 => db.policy.left_deep = !db.policy.left_deep,
                _ => db.policy.use_fk = !db.policy.use_fk,
            }
            let before = compile_count();
            insert(&mut db);
            assert_eq!(
                compile_count(),
                before + 1,
                "policy flip {flip} must recompile exactly once"
            );
            insert(&mut db);
            assert_eq!(
                compile_count(),
                before + 1,
                "repeat under flipped policy {flip} must hit the cache"
            );
            assert!(crate::maintain::verify_against_recompute(
                db.view("v0").unwrap(),
                db.catalog()
            ));
        }
    }

    #[test]
    fn fk_reduced_part_plan_is_bare_delta() {
        let c = example1_catalog();
        let a = analyze(&c, &oj_view_def()).unwrap();
        let t = a.layout.table_id("part").unwrap();
        let p = compile_uncached(&a, &c, t, cfg()).unwrap();
        let spine = p.spine.as_ref().unwrap();
        assert_eq!(spine.leaf, Expr::Delta(t));
        assert!(spine.steps.is_empty());
        assert!(p.indirect.is_empty());
    }
}
