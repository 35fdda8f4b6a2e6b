//! The shard unit — and, used alone, the unsharded in-memory engine.
//!
//! A `Database` owns one catalog, the views materialized over it and their
//! snapshot registry, and exposes the three shard-local commit stages every
//! engine composes: **apply** ([`Database::apply_insert`] /
//! [`Database::apply_delete`]: constraints enforced, `ΔT` returned),
//! **maintain** (`maintain_views_only`: the paper's primary + secondary
//! delta procedure over every registered view) and **publish**
//! (`publish_commit`: journals → snapshot registry → commit observer, at one
//! LSN). [`Database::insert`] / [`Database::delete`] / [`Database::update`]
//! run them back to back under a dense local LSN, one LSN per call — an
//! `UPDATE`'s two halves included;
//! [`crate::shard::ShardedDatabase`] runs the same stages across N of these.

use ojv_durability::Lsn;
use ojv_rel::{Datum, Row};
use ojv_storage::{Catalog, Update, ValidInsert};

use crate::agg_view::{AggViewDef, MaterializedAggView};
use crate::compile::PlanConfig;
use crate::error::{CoreError, Result};
use crate::maintain::{Maintained, MaintenanceReport};
use crate::materialize::MaterializedView;
use crate::policy::MaintenancePolicy;
use crate::snapshot::{CommitObserver, Snapshot, SnapshotRegistry};
use crate::view_def::ViewDef;

use std::sync::Arc;

/// The catalog plus registered materialized (and aggregated) views.
#[derive(Debug)]
pub struct Database {
    catalog: Catalog,
    views: Vec<MaterializedView>,
    agg_views: Vec<MaterializedAggView>,
    /// LSN of the last committed maintenance batch. Standalone databases
    /// number commits 1, 2, … themselves; under a durable database this is
    /// driven by the WAL so snapshot LSNs are durable LSNs.
    commit_lsn: Lsn,
    /// Versioned images of every non-aggregate view for concurrent
    /// snapshot reads. Aggregate views keep their own stores and are not
    /// versioned (a documented limitation of the snapshot layer).
    snapshots: SnapshotRegistry,
    /// Downstream consumer of committed deltas (e.g. the `ojv-feed` hub),
    /// invoked once per commit after the registry has published the batch.
    observer: Option<Arc<dyn CommitObserver>>,
    /// Per-view `(name, inserts, deletes)` of the last commit's journaled
    /// delta, for `explain_batch`'s `delta` lines. Only touched views appear.
    last_deltas: Vec<(String, usize, usize)>,
    /// Maintenance policy applied to every view on every update.
    pub policy: MaintenancePolicy,
}

impl Clone for Database {
    /// Cloning forks the database: the clone gets its *own* snapshot
    /// registry (re-seeded from the cloned view stores at the same commit
    /// LSN), so pins against the original never retain the clone's versions
    /// and vice versa. For the same reason the clone carries *no* commit
    /// observer — a feed hub subscribed to the original must not receive
    /// the fork's commits.
    fn clone(&self) -> Self {
        let snapshots = SnapshotRegistry::new();
        for v in &self.views {
            snapshots
                .register(v, self.commit_lsn)
                .expect("re-registering a registered view cannot fail");
        }
        Database {
            catalog: self.catalog.clone(),
            views: self.views.clone(),
            agg_views: self.agg_views.clone(),
            commit_lsn: self.commit_lsn,
            snapshots,
            observer: None,
            last_deltas: self.last_deltas.clone(),
            policy: self.policy,
        }
    }
}

impl Database {
    pub fn new(catalog: Catalog) -> Self {
        Database {
            catalog,
            views: Vec::new(),
            agg_views: Vec::new(),
            commit_lsn: 0,
            snapshots: SnapshotRegistry::new(),
            observer: None,
            last_deltas: Vec::new(),
            policy: MaintenancePolicy::default(),
        }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access: the sharded engine applies batches it has
    /// validated on every shard first; tests run DDL under live views.
    pub(crate) fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Create and materialize an outer-join view.
    pub fn create_view(&mut self, def: ViewDef) -> Result<&MaterializedView> {
        self.check_name_free(def.name())?;
        let view = MaterializedView::create(&self.catalog, def)?;
        self.install_view(view)?;
        Ok(self.views.last().expect("just installed"))
    }

    fn check_name_free(&self, name: &str) -> Result<()> {
        if self.maintained().any(|v| v.name() == name) {
            return Err(CoreError::DuplicateView {
                view: name.to_string(),
            });
        }
        Ok(())
    }

    /// Create a view from a SQL `SELECT` statement (see [`crate::parser`])
    /// and materialize it.
    pub fn create_view_sql(&mut self, name: &str, sql: &str) -> Result<&MaterializedView> {
        let def = crate::parser::parse_view(&self.catalog, name, sql)?;
        self.create_view(def)
    }

    /// Render the maintenance procedure the engine would run for an update
    /// of `table` against the named view, as SQL (the paper's Q1–Q4 form).
    pub fn explain_maintenance(
        &self,
        view: &str,
        table: &str,
        op: ojv_storage::UpdateOp,
    ) -> Result<String> {
        let v = self.view(view).ok_or_else(|| CoreError::UnknownView {
            view: view.to_string(),
        })?;
        crate::sql::maintenance_script(
            &v.analysis,
            &self.catalog,
            view,
            table,
            op,
            PlanConfig::of(&self.policy),
        )
    }

    /// Create and materialize an aggregated outer-join view.
    pub fn create_agg_view(&mut self, def: AggViewDef) -> Result<&MaterializedAggView> {
        self.check_name_free(&def.name)?;
        let mut view = MaterializedAggView::create(&self.catalog, def)?;
        view.warm_plans(&self.catalog, &self.policy)?;
        self.agg_views.push(view);
        Ok(self.agg_views.last().expect("just pushed"))
    }

    /// Drop a view by name. Snapshots pinned before the drop keep their
    /// image of the view; new snapshots no longer include it.
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        let before = self.views.len() + self.agg_views.len();
        self.views.retain(|v| v.name() != name);
        self.agg_views.retain(|v| v.name() != name);
        if self.views.len() + self.agg_views.len() == before {
            return Err(CoreError::UnknownView {
                view: name.to_string(),
            });
        }
        self.snapshots.unregister(name);
        Ok(())
    }

    pub fn view(&self, name: &str) -> Option<&MaterializedView> {
        self.views.iter().find(|v| v.name() == name)
    }

    pub fn agg_view(&self, name: &str) -> Option<&MaterializedAggView> {
        self.agg_views.iter().find(|v| v.name() == name)
    }

    pub fn views(&self) -> impl Iterator<Item = &MaterializedView> {
        self.views.iter()
    }

    /// Every registered view of either kind, in the batch layer's order:
    /// plain views first.
    fn maintained(&self) -> impl Iterator<Item = &dyn Maintained> {
        let plain = self.views.iter().map(|v| -> &dyn Maintained { v });
        plain.chain(self.agg_views.iter().map(|v| -> &dyn Maintained { v }))
    }

    /// Insert rows into a base table (constraints enforced) and maintain
    /// every registered view. Returns one report per non-noop view.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        let update = self.apply_insert(table, rows)?;
        self.maintain_update(&update)
    }

    /// Delete rows by unique key and maintain every registered view.
    pub fn delete(&mut self, table: &str, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>> {
        let update = self.apply_delete(table, keys)?;
        self.maintain_update(&update)
    }

    /// The apply stage: insert into the catalog only — no view maintenance —
    /// and return the applied delta. Split from maintenance so a durable
    /// engine can log the delta *before* maintenance runs (a crash
    /// mid-maintain then replays the whole batch).
    pub fn apply_insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Update> {
        Ok(self.catalog.insert(table, rows)?)
    }

    /// Apply a delete to the catalog only (see [`Database::apply_insert`]).
    pub fn apply_delete(&mut self, table: &str, keys: &[Vec<Datum>]) -> Result<Update> {
        Ok(self.catalog.delete(table, keys)?)
    }

    /// Maintain every registered view for an update that has already been
    /// applied to the catalog (via [`Database::apply_insert`] /
    /// [`Database::apply_delete`]) and publish the resulting view deltas as
    /// one atomic commit numbered `commit_lsn + 1`. Returns one report per
    /// non-noop view.
    pub fn maintain_update(&mut self, update: &Update) -> Result<Vec<MaintenanceReport>> {
        let result = self.maintain_views_only(update, false);
        self.publish_next(result)
    }

    /// Publish the commit numbered `commit_lsn + 1` — even when its
    /// maintenance errored, so the registry's tips always track the working
    /// stores — and return the maintenance result.
    fn publish_next(
        &mut self,
        maintained: Result<Vec<MaintenanceReport>>,
    ) -> Result<Vec<MaintenanceReport>> {
        let published = self.publish_commit(self.commit_lsn + 1);
        let reports = maintained?;
        published?;
        Ok(reports)
    }

    /// The maintain-and-apply steps of one commit on this shard, after its
    /// delete half (if any) was applied and the commit logged: maintain the
    /// views for the delete half, apply the validated insert half, maintain
    /// the views for it. Every engine's `UPDATE` and every replayed commit
    /// runs exactly this sequence, so one commit reads the same base-table
    /// states live and in recovery. The insert half is applied even when
    /// the delete half's maintenance fails — the log holds both halves, so
    /// the base tables must too — and the first error is returned.
    /// Publishing is the caller's: one publish per commit.
    pub(crate) fn commit_halves(
        &mut self,
        deleted: Option<&Update>,
        insert: Option<ValidInsert>,
        decomposed: bool,
    ) -> Result<Vec<MaintenanceReport>> {
        let mut reports = Vec::new();
        let mut first_err = None;
        let mut keep = |result: Result<Vec<MaintenanceReport>>| match result {
            Ok(r) => reports.extend(r),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        };
        if let Some(deleted) = deleted {
            keep(self.maintain_views_only(deleted, decomposed));
        }
        if let Some(batch) = insert {
            let inserted = self.catalog.apply_insert(batch);
            keep(self.maintain_views_only(&inserted, decomposed));
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(reports),
        }
    }

    /// The maintain stage: run the maintenance procedure for every view
    /// *without* publishing to the snapshot registry. `decomposed` marks
    /// `update` as one half of an SQL `UPDATE` (delete + insert, §3): the §6
    /// FK shortcuts are off for the pair. The bit travels with the commit —
    /// the effective policy is a local `Copy`, the stored one is never
    /// touched. The sharded engine runs this per shard and publishes every
    /// shard afterwards via [`Database::publish_commit`].
    pub(crate) fn maintain_views_only(
        &mut self,
        update: &Update,
        decomposed: bool,
    ) -> Result<Vec<MaintenanceReport>> {
        let effective = MaintenancePolicy {
            update_decomposition: self.policy.update_decomposition || decomposed,
            ..self.policy
        };
        crate::batch::maintain_batch(
            &mut self.views,
            &mut self.agg_views,
            &self.catalog,
            update,
            &effective,
        )
    }

    /// The publish stage: drain the view journals and publish them to the
    /// snapshot registry as one atomic commit at `lsn`, then notify the
    /// commit observer. Journals are drained and published even when
    /// maintenance errored, so the registry's tips always track the working
    /// stores. Safe to call with nothing journaled — an empty commit just
    /// advances the registry to `lsn` (how untouched shards join a group
    /// commit).
    pub(crate) fn publish_commit(&mut self, lsn: Lsn) -> Result<()> {
        let drained: Arc<crate::snapshot::CommitBatch> = Arc::new(
            self.views
                .iter_mut()
                .map(|v| (v.name().to_string(), v.take_journal()))
                .collect(),
        );
        let published = self.snapshots.commit(lsn, &drained);
        self.commit_lsn = self.commit_lsn.max(lsn);
        self.last_deltas = drained
            .iter()
            .filter(|(_, ops)| !ops.is_empty())
            .map(|(name, ops)| {
                let (ins, del) = crate::snapshot::delta_counts(ops);
                (name.clone(), ins, del)
            })
            .collect();
        // Notified even when maintenance errored: the journals above were
        // drained and published regardless, and a feed that skipped them
        // would drift from the registry tips it mirrors.
        if let Some(obs) = &self.observer {
            obs.on_commit(lsn, &drained);
        }
        published
    }

    /// Attach a commit observer: from now on every commit hands its
    /// LSN-stamped view deltas to `obs` after the snapshot registry has
    /// published them. One observer at a time; attaching replaces any
    /// previous one. A change-feed hub attaches itself here.
    pub fn attach_commit_observer(&mut self, obs: Arc<dyn CommitObserver>) {
        self.observer = Some(obs);
    }

    /// Detach the commit observer, if any.
    pub fn detach_commit_observer(&mut self) {
        self.observer = None;
    }

    /// Per-view `(name, inserts, deletes)` journaled by the last commit
    /// (touched views only, in registration order).
    pub fn last_commit_deltas(&self) -> &[(String, usize, usize)] {
        &self.last_deltas
    }

    /// Register a materialized view — freshly created, or restored from a
    /// checkpoint by recovery (which does not re-evaluate the definition).
    pub(crate) fn install_view(&mut self, mut view: MaterializedView) -> Result<()> {
        self.check_name_free(view.name())?;
        // Compile (and statically verify) the maintenance plans once, here,
        // so the update hot path only hits the cache.
        view.warm_plans(&self.catalog, &self.policy)?;
        view.enable_journal();
        self.snapshots.register(&view, self.commit_lsn)?;
        self.views.push(view);
        Ok(())
    }

    /// The shared snapshot registry. Clone the handle onto reader threads;
    /// pins taken there stay consistent while this database keeps
    /// committing.
    pub fn snapshots(&self) -> &SnapshotRegistry {
        &self.snapshots
    }

    /// Pin a consistent snapshot of every registered view at the newest
    /// committed LSN.
    pub fn snapshot(&self) -> Result<Snapshot> {
        self.snapshots.pin()
    }

    /// Pin a consistent snapshot as of LSN `lsn` (fails with
    /// [`CoreError::SnapshotUnavailable`] once reclamation has freed that
    /// version).
    pub fn snapshot_at(&self, lsn: Lsn) -> Result<Snapshot> {
        self.snapshots.pin_at(lsn)
    }

    /// LSN of the last committed maintenance batch.
    pub fn commit_lsn(&self) -> Lsn {
        self.commit_lsn
    }

    /// Recovery hook: re-anchor the commit LSN (and the registry) at a
    /// checkpoint LSN before replay, so replayed batches land on the same
    /// LSNs the original run produced.
    pub(crate) fn set_commit_lsn(&mut self, lsn: Lsn) {
        self.commit_lsn = lsn;
        self.snapshots
            .commit(lsn, &Arc::default())
            .expect("an empty commit only advances the registry LSN and cannot fail");
    }

    /// SQL-style `UPDATE`, modeled as a delete followed by an insert (paper
    /// §3) and committed as one unit: both halves are validated before
    /// either applies ([`Catalog::validate_update`]), so a refused `UPDATE`
    /// changes nothing; then the halves are maintained in order
    /// (`commit_halves`) and published once, at one LSN — no snapshot
    /// reader or commit observer sees half of it. The §6 foreign-key fast
    /// paths are disabled for the pair, per the paper's caveat list.
    /// Returns one report per non-noop view per half.
    pub fn update(
        &mut self,
        table: &str,
        keys: &[Vec<Datum>],
        new_rows: Vec<Row>,
    ) -> Result<Vec<MaintenanceReport>> {
        let (delete, insert) = self
            .catalog
            .validate_update(table, keys, new_rows)?
            .into_halves();
        let deleted = self.catalog.apply_delete(delete);
        let result = self.commit_halves(Some(&deleted), Some(insert), true);
        self.publish_next(result)
    }

    /// Render the batched physical maintenance plan the engine would run for
    /// an update of `table`: one line per affected view plus `shared:` lines
    /// for every subplan factored out across views.
    pub fn explain_batch(&self, table: &str) -> Result<String> {
        let cfg = PlanConfig::of(&self.policy);
        let mut plans = Vec::new();
        for v in self.maintained() {
            if let Some(t) = v.analysis().layout.table_id(table) {
                let compiled =
                    crate::compile::compile_uncached(v.analysis(), &self.catalog, t, cfg)?;
                plans.push((v.name().to_string(), compiled));
            }
        }
        let mut rendered = crate::batch::render_batch_plan(table, &plans);
        // Observability lines: what the last commit changed per view, and —
        // when a feed hub is attached — how wide the fan-out is and how much
        // of it dedup collapsed. Both render only when present, so a fresh
        // database's explain output is unchanged.
        for (name, ins, del) in &self.last_deltas {
            rendered.push_str(&format!("  delta {name}: +{ins}/-{del} rows\n"));
        }
        if let Some(stats) = self.observer.as_ref().and_then(|o| o.fanout_stats()) {
            rendered.push_str(&format!(
                "  subscribers: {} ({} shared evals)\n",
                stats.subscribers, stats.shared_evals
            ));
        }
        rendered.push_str(&format!("  snapshot lsn={}\n", self.commit_lsn));
        Ok(rendered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg_view::AggSpec;
    use crate::fixtures::*;
    use crate::maintain::verify_against_recompute;

    fn db() -> Database {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        Database::new(c)
    }

    #[test]
    fn create_insert_delete_roundtrip() {
        let mut db = db();
        db.create_view(oj_view_def()).unwrap();
        let reports = db
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        assert_eq!(reports.len(), 1);
        assert!(verify_against_recompute(
            db.view("oj_view").unwrap(),
            db.catalog()
        ));
        let reports = db
            .delete("lineitem", &[vec![Datum::Int(3), Datum::Int(1)]])
            .unwrap();
        assert_eq!(reports.len(), 1);
        assert!(verify_against_recompute(
            db.view("oj_view").unwrap(),
            db.catalog()
        ));
    }

    #[test]
    fn duplicate_view_names_rejected() {
        let mut db = db();
        db.create_view(oj_view_def()).unwrap();
        assert!(matches!(
            db.create_view(oj_view_def()),
            Err(CoreError::DuplicateView { .. })
        ));
    }

    #[test]
    fn drop_view() {
        let mut db = db();
        db.create_view(oj_view_def()).unwrap();
        db.drop_view("oj_view").unwrap();
        assert!(db.view("oj_view").is_none());
        assert!(db.drop_view("oj_view").is_err());
    }

    #[test]
    fn multiple_views_maintained_together() {
        let mut db = db();
        db.create_view(oj_view_def()).unwrap();
        let agg = crate::agg_view::AggViewDef::new("agg", oj_view_def())
            .group_by("part", "p_partkey")
            .agg("cnt", AggSpec::CountRows);
        db.create_agg_view(agg).unwrap();
        let reports = db
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn update_decomposition_is_correct_without_fk_fast_path() {
        let mut db = db();
        db.create_view(oj_view_def()).unwrap();
        // Modify lineitem (2,1): change quantity. Update = delete + insert
        // of the same key, which must not trigger FK shortcuts.
        let reports = db
            .update(
                "lineitem",
                &[vec![Datum::Int(2), Datum::Int(1)]],
                vec![lineitem_row(2, 1, 3, 99, 1.0)],
            )
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert!(verify_against_recompute(
            db.view("oj_view").unwrap(),
            db.catalog()
        ));
        // The stored policy is never touched.
        assert!(!db.policy.update_decomposition);
    }

    #[test]
    fn create_view_from_sql_and_explain() {
        let mut db = db();
        db.create_view_sql(
            "sql_view",
            "select * from part \
             full outer join (orders left outer join lineitem \
                              on l_orderkey = o_orderkey) \
             on p_partkey = l_partkey",
        )
        .unwrap();
        db.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        assert!(verify_against_recompute(
            db.view("sql_view").unwrap(),
            db.catalog()
        ));
        let script = db
            .explain_maintenance("sql_view", "lineitem", ojv_storage::UpdateOp::Insert)
            .unwrap();
        assert!(script.contains("-- Q1: compute primary delta"));
        let noop = db
            .explain_maintenance("sql_view", "part", ojv_storage::UpdateOp::Insert)
            .unwrap();
        assert!(noop.contains("delta_part"));
        assert!(db
            .explain_maintenance("missing", "part", ojv_storage::UpdateOp::Insert)
            .is_err());
    }

    /// Test observer: counts the ops it was handed and reports fixed
    /// fan-out stats, so the golden below pins the explain wiring without
    /// pulling in the real feed hub (which lives downstream in `ojv-feed`).
    #[derive(Debug, Default)]
    struct Probe {
        ops_seen: std::sync::Mutex<usize>,
        commits: std::sync::Mutex<Vec<ojv_durability::Lsn>>,
    }

    impl crate::snapshot::CommitObserver for Probe {
        fn on_commit(
            &self,
            lsn: ojv_durability::Lsn,
            updates: &[(String, Vec<crate::snapshot::ViewOp>)],
        ) {
            *self.ops_seen.lock().unwrap() +=
                updates.iter().map(|(_, ops)| ops.len()).sum::<usize>();
            self.commits.lock().unwrap().push(lsn);
        }

        fn fanout_stats(&self) -> Option<crate::snapshot::FanoutStats> {
            Some(crate::snapshot::FanoutStats {
                subscribers: 12,
                shared_evals: 3,
            })
        }
    }

    /// Golden: after a commit, `explain_batch` renders the last commit's
    /// per-view delta counts and the attached observer's fan-out line, in
    /// that order, above the snapshot footer.
    #[test]
    fn explain_batch_reports_deltas_and_subscribers() {
        let mut db = db();
        db.create_view(oj_view_def()).unwrap();
        let probe = std::sync::Arc::new(Probe::default());
        db.attach_commit_observer(probe.clone());
        // A brand-new part matches no lineitem: the full outer join gains
        // exactly one null-extended row, so the delta is exactly +1/-0.
        db.insert("part", vec![part_row(100, "probe", 1.0)])
            .unwrap();
        assert!(
            *probe.ops_seen.lock().unwrap() >= 1,
            "observer received the commit's journaled ops"
        );
        assert_eq!(*probe.commits.lock().unwrap(), vec![1]);
        let text = db.explain_batch("part").unwrap();
        assert!(
            text.ends_with(
                "  delta oj_view: +1/-0 rows\n\
                 \x20 subscribers: 12 (3 shared evals)\n\
                 \x20 snapshot lsn=1\n"
            ),
            "explain must render delta and subscriber lines:\n{text}"
        );
        // Detaching removes the subscribers line but keeps the delta lines.
        db.detach_commit_observer();
        let text = db.explain_batch("part").unwrap();
        assert!(!text.contains("subscribers:"), "{text}");
        assert!(text.contains("  delta oj_view: +1/-0 rows\n"), "{text}");
        assert_eq!(db.last_commit_deltas(), &[("oj_view".to_string(), 1, 0)]);
    }

    /// An update that touches no view journals nothing: no delta lines.
    #[test]
    fn explain_batch_omits_delta_lines_without_commits() {
        let mut db = db();
        db.create_view(oj_view_def()).unwrap();
        let text = db.explain_batch("part").unwrap();
        assert!(!text.contains("delta "), "{text}");
        assert!(!text.contains("subscribers:"), "{text}");
    }

    #[test]
    fn constraint_violations_propagate() {
        let mut db = db();
        db.create_view(oj_view_def()).unwrap();
        let err = db.insert("lineitem", vec![lineitem_row(999, 1, 1, 1, 1.0)]);
        assert!(err.is_err()); // order 999 does not exist
    }
}
