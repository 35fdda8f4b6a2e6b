//! The batch layer: maintain every affected view of one base-table update
//! with cross-view sharing of common plan prefixes.
//!
//! Given one `Update`, [`maintain_batch`]:
//!
//! 1. collects the affected views, plain and aggregated, into one job list
//!    with their cached [`CompiledMaintenancePlan`]s (compiling on first
//!    use),
//! 2. factors shared leading subplans — the `ΔT` scan and common leftmost
//!    join prefixes — into a trie, so shared work executes once and fans
//!    its rows out into the per-view remainders,
//! 3. applies the per-view deltas one view at a time, each view borrowed in
//!    place; a panic at the job boundary ([`ojv_exec::catch_each`])
//!    surfaces as [`CoreError::MaintenancePanic`] while the other views
//!    still complete.
//!
//! Sharing is safe because primary-delta evaluation reads only the catalog
//! and the update's rows — never a view store — so evaluating all primaries
//! before applying any is byte-identical to the interleaved order.
//! Two plans may share rows only when their views' wide-row layouts agree
//! (equal `layout_sig`); within a layout group the trie is keyed by the
//! fingerprints [`Spine::of`] recorded at compile time (`Spine::fps`), so a
//! commit derives no plan: building the trie clones no expression, and a
//! commit builds only the prefix expressions it evaluates. The primary
//! delta a view receives is the [`RowBuf`] the executor produced, shared
//! through an `Arc`; the view store makes the one allocation a stored row
//! needs.
//!
//! The bare `ΔT` leaf is **never** materialized for non-terminal sharing:
//! children of the trie root evaluate their prefix symbolically through the
//! ordinary executor, preserving its narrow-left delta index-join fast path.
//! From depth 1 on, a prefix with two or more interested parties (child
//! branches or views ending there) is materialized once and fanned out.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ojv_algebra::{fingerprint_expr, Spine, TableId};
use ojv_exec::{
    apply_spine_step, catch_each, eval_expr_buf, DeltaInput, ExecCtx, ExecStats, ViewLayout,
};
use ojv_rel::{Relation, RowBuf};
use ojv_storage::{Catalog, Update};

use crate::agg_view::MaterializedAggView;
use crate::compile::{CompiledMaintenancePlan, PlanConfig};
use crate::error::{CoreError, Result};
use crate::maintain::{apply_with_primary, Maintained, MaintenanceReport};
use crate::materialize::MaterializedView;
use crate::policy::MaintenancePolicy;

/// One unit of batched maintenance: a view and its compiled plan.
struct Job<'v> {
    view: &'v mut dyn Maintained,
    compiled: Arc<CompiledMaintenancePlan>,
}

/// Maintain every affected view and aggregated view for `update`, which has
/// already been applied to the catalog. Returns one report per non-noop
/// view, in registration order (views first, then aggregated views).
pub fn maintain_batch(
    views: &mut [MaterializedView],
    agg_views: &mut [MaterializedAggView],
    catalog: &Catalog,
    update: &Update,
    policy: &MaintenancePolicy,
) -> Result<Vec<MaintenanceReport>> {
    let cfg = PlanConfig::of(policy);

    // Phase 1: resolve plans, skip unaffected views, run the cheap per-run
    // arity check.
    let plain = views.iter_mut().map(|v| -> &mut dyn Maintained { v });
    let aggregated = agg_views.iter_mut().map(|v| -> &mut dyn Maintained { v });
    let mut jobs: Vec<Job> = Vec::new();
    for view in plain.chain(aggregated) {
        let Some(t) = view.analysis().layout.table_id(&update.table) else {
            continue;
        };
        let compiled = view.compiled_plan(catalog, t, cfg)?;
        if compiled.noop {
            continue;
        }
        let layout = &view.analysis().layout;
        ojv_analysis::verify_delta_arity(layout, t, update.rows.schema().len())
            .map_err(CoreError::Plan)?;
        jobs.push(Job { view, compiled });
    }
    if jobs.is_empty() {
        return Ok(Vec::new());
    }

    // Per-job executor counters, shared between the shared-prefix evaluation
    // (attributed to each subtree's owner job) and the per-job remainder.
    let stats: Vec<ExecStats> = jobs.iter().map(|_| ExecStats::default()).collect();

    // Phase 2: evaluate every primary delta through the tries.
    let shared = eval_shared(&jobs, catalog, update, &stats)?;

    // Phase 3: apply each view's primary delta and run its secondary step.
    // One broken view cannot take down its siblings: a panic is caught at
    // the job boundary and the other jobs still complete.
    let results = catch_each(&mut jobs, |k, job| -> Result<MaintenanceReport> {
        #[cfg(test)]
        test_panic::maybe_panic(job.view.name());
        let mut report = MaintenanceReport {
            view: job.view.name().to_string(),
            table: update.table.clone(),
            update_rows: update.rows.len(),
            ..Default::default()
        };
        let primary = &shared.primaries[k];
        apply_with_primary(
            &mut *job.view,
            catalog,
            &stats[k],
            update,
            &job.compiled,
            primary,
            &mut report,
        )?;
        report.primary_compute = shared.durations[k];
        report.shared_with = shared.shared_with[k];
        report.exec = stats[k].snapshot();
        Ok(report)
    });
    let mut reports = Vec::with_capacity(results.len());
    for (result, job) in results.into_iter().zip(&jobs) {
        let panicked = |detail| CoreError::MaintenancePanic {
            view: job.view.name().to_string(),
            detail,
        };
        reports.push(result.map_err(panicked)??);
    }
    Ok(reports)
}

/// Output of the shared-prefix evaluation, indexed by job.
struct SharedPrimaries {
    /// Each job's primary delta, the buffer the executor produced. A job
    /// without a primary plan keeps the empty delta it starts with; every
    /// other job ends at a trie terminal.
    primaries: Vec<Arc<RowBuf>>,
    durations: Vec<Duration>,
    /// Views consuming the same final primary rows; 0 for a job without a
    /// primary plan.
    shared_with: Vec<usize>,
}

/// A node of the sharing trie of one layout group, keyed by the spines'
/// compile-time fingerprints. A root (depth 0) is a leaf, usually `ΔT`; a
/// node at depth `d` is step `d - 1` applied to its parent's prefix.
struct TrieNode {
    /// `spine.fps[depth]` of every job through this node.
    fp: u64,
    depth: usize,
    /// First (lowest-index) job through this node: its spine spells the
    /// prefix, and executor counters and compute time for shared work are
    /// attributed to it.
    owner: usize,
    children: Vec<TrieNode>,
    /// Jobs whose whole plan ends exactly here.
    terminals: Vec<usize>,
}

impl TrieNode {
    /// Views whose plans run through this node.
    fn terminal_count(&self) -> usize {
        let below: usize = self.children.iter().map(TrieNode::terminal_count).sum();
        self.terminals.len() + below
    }

    /// Whether this prefix is evaluated to rows, given whether its parent
    /// handed rows down: then one step applies to them. Otherwise it is
    /// evaluated when a view's plan ends here, or, from depth 1 on, when two
    /// or more branches would re-evaluate it. A pass-through chain (one
    /// child, no terminals, symbolic parent) stays symbolic and collapses
    /// into one evaluation at the next materialization point.
    fn materialized(&self, handed: bool) -> bool {
        handed || !self.terminals.is_empty() || (self.depth > 0 && self.children.len() >= 2)
    }

    /// Whether this prefix's rows go to its children. The root never hands
    /// the bare leaf down: its children evaluate their prefixes from it
    /// symbolically, so the executor's delta index-join fast path fires.
    fn hands_down(&self, handed: bool) -> bool {
        self.depth > 0 && self.materialized(handed)
    }
}

/// Everything the trie evaluation needs to build per-node executor contexts.
struct BatchEnv<'a, 'v> {
    catalog: &'a Catalog,
    layout: &'a ViewLayout,
    table: TableId,
    rows: &'a Relation,
    stats: &'a [ExecStats],
    jobs: &'a [Job<'v>],
}

impl BatchEnv<'_, '_> {
    fn ctx(&self, owner: usize) -> ExecCtx<'_> {
        ExecCtx::with_delta(
            self.catalog,
            self.layout,
            DeltaInput {
                table: self.table,
                rows: self.rows,
            },
        )
        .with_stats(&self.stats[owner])
    }
}

/// Group the jobs' spines by wide-row layout and factor each group into one
/// trie per leaf. `spines` has one entry per job — its `(layout_sig,
/// spine)`, or `None` for a job without a primary plan — and the job's
/// position is its index in the tries. Groups come in order of their first
/// job, so a group's first root is owned by that job; jobs arrive in index
/// order, so each node's creator is its owner.
fn layout_tries<'a>(
    spines: impl IntoIterator<Item = Option<(u64, &'a Spine)>>,
) -> Vec<Vec<TrieNode>> {
    let mut groups: Vec<(u64, Vec<TrieNode>)> = Vec::new();
    for (job, entry) in spines.into_iter().enumerate() {
        let Some((sig, spine)) = entry else {
            continue;
        };
        let g = groups
            .iter()
            .position(|(s, _)| *s == sig)
            .unwrap_or_else(|| {
                groups.push((sig, Vec::new()));
                groups.len() - 1
            });
        let mut level = &mut groups[g].1;
        for (depth, &fp) in spine.fps.iter().enumerate() {
            let pos = level.iter().position(|n| n.fp == fp).unwrap_or_else(|| {
                level.push(TrieNode {
                    fp,
                    depth,
                    owner: job,
                    children: Vec::new(),
                    terminals: Vec::new(),
                });
                level.len() - 1
            });
            if depth + 1 == spine.fps.len() {
                level[pos].terminals.push(job);
                break;
            }
            level = &mut level[pos].children;
        }
    }
    groups.into_iter().map(|(_, roots)| roots).collect()
}

/// Evaluate every job's primary delta through the layout-grouped tries.
fn eval_shared(
    jobs: &[Job],
    catalog: &Catalog,
    update: &Update,
    stats: &[ExecStats],
) -> Result<SharedPrimaries> {
    let n = jobs.len();
    let empty = Arc::new(RowBuf::new(0));
    let mut out = SharedPrimaries {
        primaries: vec![empty; n],
        durations: vec![Duration::ZERO; n],
        shared_with: vec![0; n],
    };
    let spines = jobs.iter().map(|j| {
        j.compiled
            .spine
            .as_ref()
            .map(|s| (j.compiled.layout_sig, s))
    });
    for roots in layout_tries(spines) {
        let lead = roots[0].owner;
        let env = BatchEnv {
            catalog,
            layout: &jobs[lead].view.analysis().layout,
            table: jobs[lead].compiled.table,
            rows: &update.rows,
            stats,
            jobs,
        };
        for root in &roots {
            eval_trie_node(root, None, &env, &mut out)?;
        }
    }
    Ok(out)
}

/// Evaluate `node` if [`TrieNode::materialized`] says so: apply its step to
/// the rows `handed` down, or else evaluate its prefix from the leaf — the
/// owner's compiled plan itself when the prefix is that whole plan.
fn eval_trie_node(
    node: &TrieNode,
    handed: Option<&RowBuf>,
    env: &BatchEnv<'_, '_>,
    out: &mut SharedPrimaries,
) -> Result<()> {
    let rows = if node.materialized(handed.is_some()) {
        let compiled = &env.jobs[node.owner].compiled;
        let spine = compiled.spine.as_ref().expect("trie jobs have a spine");
        let exec = env.ctx(node.owner);
        let start = Instant::now();
        let produced = match (handed, &compiled.plan) {
            (Some(buf), _) => {
                let d = node.depth - 1;
                apply_spine_step(&exec, &spine.steps[d], buf.clone(), spine.prefix_sources(d))?
            }
            (None, Some(plan)) if node.depth == spine.steps.len() => eval_expr_buf(&exec, plan)?,
            (None, _) => eval_expr_buf(&exec, &spine.prefix_expr(node.depth))?,
        };
        out.durations[node.owner] += start.elapsed();
        Some(produced)
    } else {
        None
    };
    let down = rows.as_ref().filter(|_| node.hands_down(handed.is_some()));
    for child in &node.children {
        eval_trie_node(child, down, env, out)?;
    }
    if !node.terminals.is_empty() {
        let rows = Arc::new(rows.expect("materialized when terminals exist"));
        for &j in &node.terminals {
            out.shared_with[j] = node.terminals.len();
            out.primaries[j] = Arc::clone(&rows);
        }
    }
    Ok(())
}

/// Render the batch plan for an update of `table` over the given compiled
/// plans: one line per view, then one `shared:` line per prefix the batch
/// executor evaluates once for two or more consumers. Used by
/// `Database::explain_batch`.
pub fn render_batch_plan(table: &str, plans: &[(String, CompiledMaintenancePlan)]) -> String {
    let mut s = format!("batch maintenance plan for Δ{table}:\n");
    for (name, p) in plans {
        if p.noop {
            s.push_str(&format!("  view {name}: noop\n"));
        } else if p.plan.is_none() {
            s.push_str(&format!(
                "  view {name}: no primary delta (indirect only)\n"
            ));
        } else {
            s.push_str(&format!("  view {name}: plan {:016x}\n", p.fingerprint));
        }
    }
    let spines: Vec<_> = plans
        .iter()
        .map(|(_, p)| p.spine.as_ref().map(|sp| (p.layout_sig, sp)))
        .collect();
    render_shared(&spines, &mut s);
    s
}

/// One `shared:` line per prefix the batch executor evaluates once for two
/// or more consumers, read off the tries it evaluates: the prefix is
/// [`TrieNode::materialized`], and its terminals plus the children it hands
/// its rows to number at least two. `spines` is as for [`layout_tries`].
fn render_shared(spines: &[Option<(u64, &Spine)>], s: &mut String) {
    fn node(n: &TrieNode, handed: bool, spines: &[Option<(u64, &Spine)>], s: &mut String) {
        let down = n.hands_down(handed);
        let consumers = n.terminals.len() + if down { n.children.len() } else { 0 };
        if n.materialized(handed) && consumers >= 2 {
            let (_, spine) = spines[n.owner].expect("trie jobs have a spine");
            let fp = fingerprint_expr(&spine.prefix_expr(n.depth));
            let views = n.terminal_count();
            s.push_str(&format!("  shared: {fp:016x} ({views} views)\n"));
        }
        for child in &n.children {
            node(child, down, spines, s);
        }
    }
    for root in layout_tries(spines.iter().copied()).iter().flatten() {
        node(root, false, spines, s);
    }
}

/// Test-only panic injection: while armed, any job maintaining a view named
/// `panic_me` panics inside its job, exercising the catch-and-surface
/// path. The flag is process-wide, so arming also takes a gate: tests that
/// arm run one at a time.
#[cfg(test)]
pub(crate) mod test_panic {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard};

    static ARMED: AtomicBool = AtomicBool::new(false);
    static GATE: Mutex<()> = Mutex::new(());

    /// Armed until dropped.
    pub struct Armed {
        _gate: MutexGuard<'static, ()>,
    }

    pub fn arm() -> Armed {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        ARMED.store(true, Ordering::SeqCst);
        Armed { _gate }
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            ARMED.store(false, Ordering::SeqCst);
        }
    }

    pub fn maybe_panic(view: &str) {
        if view == "panic_me" && ARMED.load(Ordering::SeqCst) {
            panic!("injected maintenance panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::fixtures::*;
    use crate::maintain::verify_against_recompute;
    use crate::view_def::ViewDef;
    use ojv_rel::Datum;

    fn populated() -> Catalog {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        c
    }

    fn db_with_views(n: usize) -> Database {
        let mut db = Database::new(populated());
        for i in 0..n {
            db.create_view(oj_view_def().with_name(&format!("v{i}")))
                .unwrap();
        }
        db
    }

    fn db_with(def: ViewDef) -> Database {
        let mut db = Database::new(populated());
        db.create_view(def).unwrap();
        db
    }

    /// A batch member must equal the same view maintained on its own: the
    /// same rows in the same heap order, and the same count-index contents.
    fn assert_same_view(batched: &MaterializedView, alone: &MaterializedView) {
        let name = batched.name();
        assert_eq!(
            batched.wide_rows(),
            alone.wide_rows(),
            "view {name}: heap diverged"
        );
        assert_eq!(
            batched.store().count_index_snapshot(),
            alone.store().count_index_snapshot(),
            "view {name}: count indexes diverged"
        );
    }

    /// Shared-plan batching must be byte-identical to maintaining each view
    /// in a database of its own, across inserts and deletes.
    #[test]
    fn shared_batch_matches_unshared_serial() {
        let mut shared = db_with_views(4);
        let mut alone: Vec<Database> = (0..4)
            .map(|i| db_with(oj_view_def().with_name(&format!("v{i}"))))
            .collect();
        let ops: Vec<(bool, i64, i64)> =
            vec![(true, 3, 1), (true, 6, 9), (false, 3, 1), (false, 2, 1)];
        for (insert, ok, ln) in ops {
            for db in std::iter::once(&mut shared).chain(&mut alone) {
                if insert {
                    db.insert("lineitem", vec![lineitem_row(ok, ln, 2, 4, 42.0)])
                        .unwrap();
                } else {
                    db.delete("lineitem", &[vec![Datum::Int(ok), Datum::Int(ln)]])
                        .unwrap();
                }
            }
            for db in &alone {
                let b = db.views().next().unwrap();
                let a = shared.view(b.name()).unwrap();
                assert_same_view(a, b);
                assert!(verify_against_recompute(a, shared.catalog()));
            }
        }
    }

    /// Identical views share one primary evaluation: every report carries
    /// the same plan fingerprint and `shared_with == number of views`.
    #[test]
    fn identical_views_share_primary() {
        let mut db = db_with_views(3);
        let reports = db
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        assert_eq!(reports.len(), 3);
        let fp = reports[0].plan_fingerprint;
        assert_ne!(fp, 0);
        for r in &reports {
            assert_eq!(r.plan_fingerprint, fp);
            assert_eq!(r.shared_with, 3);
            assert_eq!(r.primary_rows, reports[0].primary_rows);
        }
        // Exactly one job paid the primary compute; the others rode along.
        let paying = reports
            .iter()
            .filter(|r| r.primary_compute > Duration::ZERO)
            .count();
        assert_eq!(paying, 1);
    }

    /// A panicking job surfaces as `MaintenancePanic` instead of taking the
    /// process down, and the view after it in the batch is still maintained
    /// and published.
    #[test]
    fn job_panic_is_caught_and_surfaced() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut db = Database::new(c);
        db.create_view(oj_view_def().with_name("panic_me")).unwrap();
        db.create_view(oj_view_def().with_name("ok_view")).unwrap();
        let armed = test_panic::arm();
        let err = db.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)]);
        drop(armed);
        match err {
            Err(CoreError::MaintenancePanic { view, detail }) => {
                assert_eq!(view, "panic_me");
                assert!(detail.contains("injected"), "detail: {detail}");
            }
            other => panic!("expected MaintenancePanic, got {other:?}"),
        }
        // The sibling ran to completion: its delta was journaled and
        // published, and it matches a recompute.
        assert!(
            db.last_commit_deltas()
                .iter()
                .any(|(view, ins, _)| view == "ok_view" && *ins > 0),
            "sibling delta missing: {:?}",
            db.last_commit_deltas()
        );
        assert!(verify_against_recompute(
            db.view("ok_view").unwrap(),
            db.catalog()
        ));
    }

    /// Steady state compiles nothing: after view creation warms the caches,
    /// a 100-batch workload leaves the compile counter untouched.
    #[test]
    fn steady_state_never_compiles() {
        let mut db = db_with_views(4);
        // Warm-up round so every (view, table) pair in this workload is
        // compiled (creation already warmed them eagerly).
        db.insert("lineitem", vec![lineitem_row(3, 99, 2, 4, 1.0)])
            .unwrap();
        let before = crate::compile::compile_count();
        for i in 0..100i64 {
            db.insert("lineitem", vec![lineitem_row(6, 100 + i, 2, 4, 1.0)])
                .unwrap();
        }
        assert_eq!(
            crate::compile::compile_count(),
            before,
            "steady-state batches must not compile"
        );
    }

    fn db_with_family() -> Database {
        let mut db = Database::new(populated());
        db.create_view(oj_view_variant("qa", 10)).unwrap();
        db.create_view(oj_view_variant("qb", 10)).unwrap();
        db.create_view(oj_view_variant("qc", 20)).unwrap();
        db
    }

    fn compiled_for(db: &Database, view: &str, table: &str) -> CompiledMaintenancePlan {
        let v = db.view(view).unwrap();
        let t = v.analysis.layout.table_id(table).unwrap();
        crate::compile::compile_uncached(&v.analysis, db.catalog(), t, PlanConfig::of(&db.policy))
            .unwrap()
    }

    /// Golden EXPLAIN: three identical Example-1 views share the whole plan,
    /// the batch plan pins exactly one `shared:` line carrying the full plan
    /// fingerprint, and the snapshot footer reports the commit LSN (0 — no
    /// batch has committed yet).
    #[test]
    fn explain_batch_pins_full_sharing() {
        let db = db_with_views(3);
        let text = db.explain_batch("lineitem").unwrap();
        let fp = compiled_for(&db, "v0", "lineitem").fingerprint;
        let expected = format!(
            "batch maintenance plan for Δlineitem:\n\
             \x20 view v0: plan {fp:016x}\n\
             \x20 view v1: plan {fp:016x}\n\
             \x20 view v2: plan {fp:016x}\n\
             \x20 shared: {fp:016x} (3 views)\n\
             \x20 snapshot lsn=0\n"
        );
        assert_eq!(text, expected);
    }

    /// The snapshot footer tracks the commit LSN: after two maintenance
    /// batches the same plan renders with `snapshot lsn=2`.
    #[test]
    fn explain_batch_snapshot_footer_tracks_commits() {
        let mut db = db_with_views(1);
        db.insert(
            "lineitem",
            vec![crate::fixtures::lineitem_row(3, 1, 2, 4, 42.0)],
        )
        .unwrap();
        db.delete(
            "lineitem",
            &[vec![ojv_rel::Datum::Int(3), ojv_rel::Datum::Int(1)]],
        )
        .unwrap();
        let text = db.explain_batch("lineitem").unwrap();
        assert!(
            text.ends_with("  snapshot lsn=2\n"),
            "footer must carry the post-batch LSN:\n{text}"
        );
        assert_eq!(db.commit_lsn(), 2);
    }

    /// Golden EXPLAIN for the TPC-H view family: all three members share the
    /// `Δlineitem ⋈ orders` prefix (3 views), and the two identical members
    /// additionally share the whole plan (2 views).
    #[test]
    fn explain_batch_pins_prefix_sharing() {
        let db = db_with_family();
        let text = db.explain_batch("lineitem").unwrap();
        let pa = compiled_for(&db, "qa", "lineitem");
        let pb = compiled_for(&db, "qb", "lineitem");
        let pc = compiled_for(&db, "qc", "lineitem");
        assert_eq!(
            pa.fingerprint, pb.fingerprint,
            "equal constants, equal plans"
        );
        assert_ne!(
            pa.fingerprint, pc.fingerprint,
            "different constants diverge"
        );
        // The shared prefix is the longest common leading subplan of the
        // family's spines; pin the EXPLAIN lines to its fingerprint.
        let sa = pa.spine.as_ref().unwrap();
        let sc = pc.spine.as_ref().unwrap();
        assert_eq!(sa.leaf_fingerprint(), sc.leaf_fingerprint());
        let mut k = 0;
        while k < sa.steps.len()
            && k < sc.steps.len()
            && sa.steps[k].fingerprint() == sc.steps[k].fingerprint()
        {
            k += 1;
        }
        assert!(k >= 1, "family must share at least the first join step");
        let prefix_fp = fingerprint_expr(&sa.prefix_expr(k));
        assert!(
            text.contains(&format!("shared: {prefix_fp:016x} (3 views)")),
            "missing 3-view prefix line in:\n{text}"
        );
        assert!(
            text.contains(&format!("shared: {:016x} (2 views)", pa.fingerprint)),
            "missing 2-view full-plan line in:\n{text}"
        );
    }

    /// Golden EXPLAIN over synthetic spines: a `shared:` line marks exactly
    /// the prefixes the executor evaluates once for two or more consumers.
    /// A root with two children and no terminal evaluates nothing (each
    /// child starts from `ΔT`), while an interior node with one terminal and
    /// one child is evaluated once for both views.
    #[test]
    fn explain_shared_lines_follow_materialization() {
        use ojv_algebra::{Atom, ColRef, Expr, Pred};
        let join = |left, r: u8| {
            let on = Atom::eq(ColRef::new(TableId(0), 0), ColRef::new(TableId(r), 0));
            Expr::inner(Pred::atom(on), left, Expr::table(TableId(r)))
        };
        let a = Spine::of(&join(Expr::Delta(TableId(0)), 1));
        let b = Spine::of(&join(Expr::Delta(TableId(0)), 2));
        let c = Spine::of(&join(join(Expr::Delta(TableId(0)), 1), 2));
        let mut s = String::new();
        render_shared(&[Some((1, &a)), Some((1, &b))], &mut s);
        assert_eq!(s, "", "two branches from the bare leaf share nothing");
        render_shared(&[Some((1, &a)), Some((1, &c))], &mut s);
        let fp = fingerprint_expr(&a.prefix_expr(1));
        assert_eq!(s, format!("  shared: {fp:016x} (2 views)\n"));
    }

    /// Prefix sharing must also be byte-identical: the family diverges after
    /// the shared prefix, and every member of the batch matches the same
    /// view maintained in a database of its own.
    #[test]
    fn family_prefix_sharing_matches_unshared() {
        let mut shared = db_with_family();
        let mut alone: Vec<Database> = [("qa", 10), ("qb", 10), ("qc", 20)]
            .into_iter()
            .map(|(name, qty)| db_with(oj_view_variant(name, qty)))
            .collect();
        for (ok, ln, qty) in [(3i64, 1i64, 5i64), (6, 9, 15), (2, 7, 25)] {
            let row = lineitem_row(ok, ln, 2, qty, 7.0);
            let a = shared.insert("lineitem", vec![row.clone()]).unwrap();
            // `shared_with` counts views consuming the same final primary
            // rows: qa and qb share theirs (2), qc finishes its tail alone
            // after the shared prefix (1), as does every view on its own.
            let shares: Vec<usize> = a.iter().map(|r| r.shared_with).collect();
            assert_eq!(shares, vec![2, 2, 1]);
            for db in &mut alone {
                let b = db.insert("lineitem", vec![row.clone()]).unwrap();
                assert_eq!(b.len(), 1);
                assert_eq!(b[0].shared_with, 1);
            }
        }
        for db in &alone {
            let b = db.views().next().unwrap();
            let a = shared.view(b.name()).unwrap();
            assert_same_view(a, b);
            assert!(verify_against_recompute(a, shared.catalog()));
        }
    }

    /// End-to-end identity through the durable layer: every view of a
    /// four-view durable database ends the workload exactly as the same view
    /// in a durable database of its own.
    #[test]
    fn durable_state_bytes_identical_shared_vs_unshared() {
        let run = |defs: &[ViewDef]| {
            let mut d = crate::durable::DurableDatabase::create(
                ojv_durability::MemVfs::new(),
                populated(),
                MaintenancePolicy::default(),
            )
            .unwrap();
            for def in defs {
                d.create_view(def.clone()).unwrap();
            }
            for i in 0..10i64 {
                d.insert(
                    "lineitem",
                    vec![lineitem_row(6, 300 + i, 1 + (i % 8), i % 15, 1.0)],
                )
                .unwrap();
            }
            d.delete("lineitem", &[vec![Datum::Int(6), Datum::Int(300)]])
                .unwrap();
            d
        };
        let defs = [
            oj_view_variant("qa", 10),
            oj_view_variant("qb", 10),
            oj_view_variant("qc", 20),
            oj_view_def(),
        ];
        let shared = run(&defs);
        for def in &defs {
            let alone = run(std::slice::from_ref(def));
            let name = def.name();
            assert_same_view(shared.view(name).unwrap(), alone.view(name).unwrap());
        }
    }

    /// Views over different tables coexist in a batch: unaffected views are
    /// skipped, affected ones maintained.
    #[test]
    fn unaffected_views_are_skipped() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut db = Database::new(c);
        db.create_view(oj_view_def()).unwrap();
        let reports = db
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        assert_eq!(reports.len(), 1);
    }
}
