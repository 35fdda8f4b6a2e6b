//! The batch layer: maintain every affected view of one base-table update
//! with cross-view sharing of common plan prefixes.
//!
//! Given one `Update`, [`maintain_batch`]:
//!
//! 1. collects the affected views and their cached
//!    [`CompiledMaintenancePlan`]s (compiling on first use),
//! 2. fingerprints the plans and factors shared leading subplans — the `ΔT`
//!    scan and common leftmost join prefixes — into a trie, so shared work
//!    executes once and fans its rows out into the per-view remainders,
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
//! structural fingerprints of the spine steps.
//!
//! The bare `ΔT` leaf is **never** materialized for non-terminal sharing:
//! children of the trie root evaluate their prefix symbolically through the
//! ordinary executor, preserving its narrow-left delta index-join fast path.
//! From depth 1 on, a prefix with two or more interested parties (child
//! branches or views ending there) is materialized once and fanned out.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ojv_algebra::{fingerprint_expr, Expr, Spine, SpineStep, TableId, TableSet};
use ojv_exec::{
    apply_spine_step, catch_each, eval_expr_buf, DeltaInput, ExecCtx, ExecStats, ViewLayout,
};
use ojv_rel::{Relation, Row, RowBuf};
use ojv_storage::{Catalog, Update};

use crate::agg_view::MaterializedAggView;
use crate::compile::{CompiledMaintenancePlan, PlanConfig};
use crate::error::{CoreError, Result};
use crate::maintain::MaintenanceReport;
use crate::materialize::MaterializedView;
use crate::policy::MaintenancePolicy;

/// Which view a batch job maintains.
#[derive(Debug, Clone, Copy)]
enum JobTarget {
    View(usize),
    Agg(usize),
}

/// One unit of batched maintenance: a view and its compiled plan.
struct Job {
    target: JobTarget,
    name: String,
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
    let mut jobs: Vec<Job> = Vec::new();
    for (i, v) in views.iter_mut().enumerate() {
        let Some(t) = v.analysis.layout.table_id(&update.table) else {
            continue;
        };
        let compiled = v.compiled_plan(catalog, t, cfg)?;
        if compiled.noop {
            continue;
        }
        ojv_analysis::verify_delta_arity(&v.analysis.layout, t, update.rows.schema().len())
            .map_err(CoreError::Plan)?;
        jobs.push(Job {
            target: JobTarget::View(i),
            name: v.name().to_string(),
            compiled,
        });
    }
    for (i, v) in agg_views.iter_mut().enumerate() {
        let Some(t) = v.analysis.layout.table_id(&update.table) else {
            continue;
        };
        let compiled = v.compiled_plan(catalog, t, cfg)?;
        if compiled.noop {
            continue;
        }
        ojv_analysis::verify_delta_arity(&v.analysis.layout, t, update.rows.schema().len())
            .map_err(CoreError::Plan)?;
        jobs.push(Job {
            target: JobTarget::Agg(i),
            name: v.name().to_string(),
            compiled,
        });
    }
    if jobs.is_empty() {
        return Ok(Vec::new());
    }

    // Per-job executor counters, shared between the shared-prefix evaluation
    // (attributed to each subtree's owner job) and the per-job remainder.
    let stats: Vec<ExecStats> = jobs.iter().map(|_| ExecStats::default()).collect();

    // Phase 2: evaluate every primary delta through the tries.
    let layouts: Vec<&ViewLayout> = jobs
        .iter()
        .map(|job| match job.target {
            JobTarget::View(i) => &views[i].analysis.layout,
            JobTarget::Agg(i) => &agg_views[i].analysis.layout,
        })
        .collect();
    let shared = eval_shared(&jobs, &layouts, catalog, update, &stats)?;

    // Phase 3: apply each view's primary delta and run its secondary step.
    // One broken view cannot take down its siblings: a panic is caught at
    // the job boundary and the other jobs still complete.
    let results = catch_each(&jobs, |k, job| -> Result<MaintenanceReport> {
        #[cfg(test)]
        test_panic::maybe_panic(&job.name);
        let mut report = MaintenanceReport {
            view: job.name.clone(),
            table: update.table.clone(),
            update_rows: update.rows.len(),
            ..Default::default()
        };
        let primary = &shared.primaries[k];
        match job.target {
            JobTarget::View(i) => crate::maintain::apply_with_primary(
                &mut views[i],
                catalog,
                &stats[k],
                update,
                &job.compiled,
                primary,
                &mut report,
            )?,
            JobTarget::Agg(i) => agg_views[i].apply_with_primary(
                catalog,
                &stats[k],
                update,
                &job.compiled,
                primary,
                &mut report,
            )?,
        }
        report.primary_compute = shared.durations[k];
        report.shared_with = shared.shared_with[k];
        report.exec = stats[k].snapshot();
        Ok(report)
    });
    let mut reports = Vec::with_capacity(results.len());
    for (result, job) in results.into_iter().zip(&jobs) {
        let view = job.name.clone();
        reports.push(result.map_err(|detail| CoreError::MaintenancePanic { view, detail })??);
    }
    Ok(reports)
}

/// Output of the shared-prefix evaluation, indexed by job.
struct SharedPrimaries {
    /// Each job's primary delta. A job without a primary plan keeps the
    /// empty delta it starts with; every other job ends at a trie terminal.
    primaries: Vec<Arc<Vec<Row>>>,
    durations: Vec<Duration>,
    /// Views consuming the same final primary rows; 0 for a job without a
    /// primary plan.
    shared_with: Vec<usize>,
}

/// A trie of spine steps over one layout group. The root is a shared leaf
/// (usually `ΔT`); each node is one step applied to its parent's prefix.
struct Trie {
    /// The leaf expression all plans in this trie start from.
    prefix: Expr,
    leaf_fp: u64,
    sources: TableSet,
    children: Vec<TrieNode>,
    /// Jobs whose whole plan is the bare leaf.
    terminals: Vec<usize>,
    owner: usize,
}

struct TrieNode {
    step: SpineStep,
    step_fp: u64,
    /// `leaf ∘ steps[..=this]` — evaluated directly when the parent stayed
    /// symbolic.
    prefix: Expr,
    prefix_fp: u64,
    /// Source set of the *input* rows (the parent prefix).
    sources_in: TableSet,
    sources_out: TableSet,
    children: Vec<TrieNode>,
    /// Jobs whose whole plan ends exactly here.
    terminals: Vec<usize>,
    /// First (lowest-index) job through this subtree — executor counters and
    /// compute time for shared work are attributed to it.
    owner: usize,
}

fn trie_insert(trie: &mut Trie, steps: &[SpineStep], job: usize) {
    trie.owner = trie.owner.min(job);
    let Trie {
        prefix,
        sources,
        children,
        terminals,
        ..
    } = trie;
    let Some((step, rest)) = steps.split_first() else {
        terminals.push(job);
        return;
    };
    let pos = find_or_create(children, prefix, *sources, step, job);
    trie_insert_node(&mut children[pos], rest, job);
}

fn trie_insert_node(node: &mut TrieNode, steps: &[SpineStep], job: usize) {
    node.owner = node.owner.min(job);
    let TrieNode {
        prefix,
        sources_out,
        children,
        terminals,
        ..
    } = node;
    let Some((step, rest)) = steps.split_first() else {
        terminals.push(job);
        return;
    };
    let pos = find_or_create(children, prefix, *sources_out, step, job);
    trie_insert_node(&mut children[pos], rest, job);
}

fn find_or_create(
    children: &mut Vec<TrieNode>,
    parent_prefix: &Expr,
    parent_sources: TableSet,
    step: &SpineStep,
    job: usize,
) -> usize {
    let fp = step.fingerprint();
    if let Some(pos) = children.iter().position(|c| c.step_fp == fp) {
        return pos;
    }
    let prefix = step.reapply(parent_prefix.clone());
    let prefix_fp = fingerprint_expr(&prefix);
    children.push(TrieNode {
        step: step.clone(),
        step_fp: fp,
        prefix,
        prefix_fp,
        sources_in: parent_sources,
        sources_out: step.apply_sources(parent_sources),
        children: Vec::new(),
        terminals: Vec::new(),
        owner: job,
    });
    children.len() - 1
}

/// Everything the trie evaluation needs to build per-node executor contexts.
struct BatchEnv<'a> {
    catalog: &'a Catalog,
    layout: &'a ViewLayout,
    table: TableId,
    rows: &'a Relation,
    stats: &'a [ExecStats],
}

impl BatchEnv<'_> {
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
/// job, so a group's first trie is owned by that job.
fn layout_tries<'a>(spines: impl IntoIterator<Item = Option<(u64, &'a Spine)>>) -> Vec<Vec<Trie>> {
    let mut groups: Vec<(u64, Vec<Trie>)> = Vec::new();
    for (job, entry) in spines.into_iter().enumerate() {
        let Some((sig, spine)) = entry else {
            continue;
        };
        let g = match groups.iter().position(|(s, _)| *s == sig) {
            Some(g) => g,
            None => {
                groups.push((sig, Vec::new()));
                groups.len() - 1
            }
        };
        let tries = &mut groups[g].1;
        let leaf_fp = spine.leaf_fingerprint();
        let pos = match tries.iter().position(|t| t.leaf_fp == leaf_fp) {
            Some(p) => p,
            None => {
                tries.push(Trie {
                    prefix: spine.leaf.clone(),
                    leaf_fp,
                    sources: spine.leaf.sources(),
                    children: Vec::new(),
                    terminals: Vec::new(),
                    owner: job,
                });
                tries.len() - 1
            }
        };
        trie_insert(&mut tries[pos], &spine.steps, job);
    }
    groups.into_iter().map(|(_, tries)| tries).collect()
}

/// Evaluate every job's primary delta through the layout-grouped tries;
/// `layouts[k]` is the wide-row layout of job `k`'s view.
fn eval_shared(
    jobs: &[Job],
    layouts: &[&ViewLayout],
    catalog: &Catalog,
    update: &Update,
    stats: &[ExecStats],
) -> Result<SharedPrimaries> {
    let n = jobs.len();
    let empty = Arc::new(Vec::new());
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
    for tries in layout_tries(spines) {
        let lead = tries[0].owner;
        let env = BatchEnv {
            catalog,
            layout: layouts[lead],
            table: jobs[lead].compiled.table,
            rows: &update.rows,
            stats,
        };
        for trie in &tries {
            // Views whose whole plan is the bare leaf share its scan; the
            // children always evaluate symbolically from the leaf so the
            // executor's delta index-join fast path keeps firing.
            if !trie.terminals.is_empty() {
                let exec = env.ctx(trie.owner);
                let start = Instant::now();
                let rows = eval_expr_buf(&exec, &trie.prefix)?;
                out.durations[trie.owner] += start.elapsed();
                share_rows(&rows, &trie.terminals, &mut out);
            }
            for child in &trie.children {
                eval_trie_node(child, None, &env, &mut out)?;
            }
        }
    }
    Ok(out)
}

fn share_rows(rows: &RowBuf, terminals: &[usize], out: &mut SharedPrimaries) {
    let shared = Arc::new(rows.to_rows());
    for &j in terminals {
        out.shared_with[j] = terminals.len();
        out.primaries[j] = Arc::clone(&shared);
    }
}

fn eval_trie_node(
    node: &TrieNode,
    cur: Option<&RowBuf>,
    env: &BatchEnv<'_>,
    out: &mut SharedPrimaries,
) -> Result<()> {
    // Materialize this prefix when the parent handed rows down (one step to
    // apply), when a view's plan ends here, or when two or more branches
    // would otherwise re-evaluate it. A pass-through chain (one child, no
    // terminals, symbolic parent) stays symbolic and collapses into a single
    // evaluation at the next materialization point.
    let compute = cur.is_some() || !node.terminals.is_empty() || node.children.len() >= 2;
    let rows: Option<RowBuf> = if compute {
        let exec = env.ctx(node.owner);
        let start = Instant::now();
        let produced = match cur {
            Some(buf) => apply_spine_step(&exec, &node.step, buf.clone(), node.sources_in)?,
            None => eval_expr_buf(&exec, &node.prefix)?,
        };
        out.durations[node.owner] += start.elapsed();
        Some(produced)
    } else {
        None
    };
    if !node.terminals.is_empty() {
        share_rows(
            rows.as_ref().expect("computed when terminals exist"),
            &node.terminals,
            out,
        );
    }
    for child in &node.children {
        eval_trie_node(child, rows.as_ref(), env, out)?;
    }
    Ok(())
}

/// Render the batch plan for an update of `table` over the given compiled
/// plans: one line per view, then one `shared:` line per subplan that two or
/// more views have in common, read off the same tries the batch executor
/// evaluates. Used by `Database::explain_batch`.
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
    let spines = plans
        .iter()
        .map(|(_, p)| p.spine.as_ref().map(|sp| (p.layout_sig, sp)));
    for trie in layout_tries(spines).iter().flatten() {
        let root_terms = trie_terminal_count(trie);
        if root_terms >= 2 && (!trie.terminals.is_empty() || trie.children.len() >= 2) {
            s.push_str(&format!(
                "  shared: {:016x} ({} views)\n",
                trie.leaf_fp, root_terms
            ));
        }
        for child in &trie.children {
            render_shared_nodes(child, &mut s);
        }
    }
    s
}

fn trie_terminal_count(trie: &Trie) -> usize {
    trie.terminals.len() + trie.children.iter().map(node_terminal_count).sum::<usize>()
}

fn node_terminal_count(node: &TrieNode) -> usize {
    node.terminals.len() + node.children.iter().map(node_terminal_count).sum::<usize>()
}

fn render_shared_nodes(node: &TrieNode, s: &mut String) {
    let subtree = node_terminal_count(node);
    if subtree >= 2 && (node.terminals.len() >= 2 || node.children.len() >= 2) {
        s.push_str(&format!(
            "  shared: {:016x} ({} views)\n",
            node.prefix_fp, subtree
        ));
    }
    for child in &node.children {
        render_shared_nodes(child, s);
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
