//! The shard unit, the one commit pipeline, and — used alone — the
//! unsharded in-memory engine.
//!
//! A `Database` owns one catalog, the views materialized over it and their
//! snapshot registry. `commit` is the commit pipeline every engine runs,
//! written once over a slice of these units: **validate** → **apply** the
//! delete halves → **log** (a parameter: the next dense LSN in memory, a
//! WAL append under a durable engine, nothing in recovery) → **maintain**
//! (the paper's primary + secondary delta procedure; the insert half is
//! applied between its two halves) → **publish** (journals → snapshot
//! registry → commit observer, every unit at one LSN). [`Database::insert`]
//! / [`Database::delete`] / [`Database::update`] run it over this unit
//! alone, one dense local LSN per call.

use ojv_durability::Lsn;
use ojv_exec::catch_each;
use ojv_rel::{Datum, Row};
use ojv_storage::{Catalog, Update, ValidDelete, ValidInsert};

use crate::agg_view::{AggViewDef, MaterializedAggView};
use crate::compile::PlanConfig;
use crate::error::{CoreError, Result};
use crate::maintain::{Maintained, MaintenanceReport};
use crate::materialize::MaterializedView;
use crate::policy::MaintenancePolicy;
use crate::snapshot::{CommitBatch, CommitObserver, Snapshot, SnapshotRegistry};
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

    /// Mutable catalog access: tests run DDL under live views.
    #[cfg(test)]
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
        self.commit_next(table, None, Some(rows))
    }

    /// Delete rows by unique key and maintain every registered view.
    pub fn delete(&mut self, table: &str, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>> {
        self.commit_next(table, Some(keys), None)
    }

    /// SQL-style `UPDATE`, modeled as a delete followed by an insert (paper
    /// §3) and committed as one unit: both halves are validated before
    /// either applies ([`Catalog::validate_update`]), so a refused `UPDATE`
    /// changes nothing; then the halves are maintained in order and
    /// published once, at one LSN — no snapshot reader or commit observer
    /// sees half of it. The §6 foreign-key fast paths are disabled for the
    /// pair, per the paper's caveat list. Returns one report per non-noop
    /// view per half.
    pub fn update(
        &mut self,
        table: &str,
        keys: &[Vec<Datum>],
        new_rows: Vec<Row>,
    ) -> Result<Vec<MaintenanceReport>> {
        self.commit_next(table, Some(keys), Some(new_rows))
    }

    /// The pipeline over this unit alone (it owns every half: nothing to
    /// probe) with the next dense LSN as its log stage. Both halves: an
    /// `UPDATE`, flagged *decomposed* (§6 FK shortcuts off).
    fn commit_next(
        &mut self,
        table: &str,
        keys: Option<&[Vec<Datum>]>,
        rows: Option<Vec<Row>>,
    ) -> Result<Vec<MaintenanceReport>> {
        let next = self.commit_lsn + 1;
        let decomposed = keys.is_some() && rows.is_some();
        let units = std::slice::from_mut(self);
        commit(
            units,
            table,
            [(keys, rows)],
            decomposed,
            |_, _| Ok(()),
            |_| Ok(Some(next)),
        )
    }

    /// Apply an insert to the catalog only — no view maintenance, no
    /// publish — and return the applied delta. With
    /// [`Database::maintain_update`] this is [`Database::insert`] in two
    /// calls, so a caller can time the stages apart.
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
    /// one atomic commit numbered `commit_lsn + 1` — even when maintenance
    /// errored, so the registry's tips are always the maintained images.
    /// Returns one report per non-noop view.
    pub fn maintain_update(&mut self, update: &Update) -> Result<Vec<MaintenanceReport>> {
        let lsn = self.commit_lsn + 1;
        let unit = InFlight::begin(std::slice::from_mut(self), &update.table);
        let this = &mut unit.units[0];
        let maintained = this.maintain_views_only(update, false);
        this.publish_commit(lsn);
        maintained
    }

    /// The validate stage, the one place a commit's halves are checked:
    /// this unit's delete keys and insert rows against its catalog,
    /// changing nothing — both at once when it owns both (an `UPDATE`:
    /// [`Catalog::validate_update`], the insert checked against the state
    /// after the delete).
    fn validate_halves<'k, K: AsRef<[Datum]>>(
        &self,
        table: &str,
        keys: Option<&'k [K]>,
        rows: Option<Vec<Row>>,
    ) -> Result<Validated<'k, K>> {
        let catalog = &self.catalog;
        Ok(match (keys, rows) {
            (Some(keys), Some(rows)) => {
                let (delete, insert) = catalog.validate_update(table, keys, rows)?.into_halves();
                (Some(delete), Some(insert))
            }
            (Some(keys), None) => (Some(catalog.validate_delete(table, keys)?), None),
            (None, Some(rows)) => (None, Some(catalog.validate_insert(table, rows)?)),
            (None, None) => (None, None),
        })
    }

    /// The maintain-and-apply steps of one commit on this unit, after its
    /// delete half (if any) was applied and the commit logged: maintain the
    /// views for the delete half, apply the validated insert half, maintain
    /// the views for it. The insert half is applied even when the delete
    /// half's maintenance fails — the log holds both halves, so the base
    /// tables must too — and the first error is returned.
    fn commit_halves(
        &mut self,
        deleted: Option<&Update>,
        insert: Option<ValidInsert>,
        decomposed: bool,
    ) -> Result<Vec<MaintenanceReport>> {
        let deleted = deleted.map(|d| self.maintain_views_only(d, decomposed));
        let inserted = insert.map(|batch| self.catalog.apply_insert(batch));
        let inserted = inserted.map(|i| self.maintain_views_only(&i, decomposed));
        let mut reports = deleted.transpose()?.unwrap_or_default();
        append(&mut reports, inserted.transpose()?.unwrap_or_default());
        Ok(reports)
    }

    /// The maintain stage: run the maintenance procedure for every view
    /// *without* publishing to the snapshot registry. `decomposed` marks
    /// `update` as one half of an SQL `UPDATE` (delete + insert, §3): the §6
    /// FK shortcuts are off for the pair. The bit travels with the commit —
    /// the effective policy is a local `Copy`, the stored one is never
    /// touched.
    fn maintain_views_only(
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

    /// The start step, after the log stage and before maintain: the
    /// snapshot registry gives every view `table` feeds a writable image
    /// (see [`SnapshotRegistry::begin`]). Views the table does not feed keep
    /// sharing their image with the registry untouched.
    fn begin_maintenance(&mut self, table: &str) {
        let fed = self.views.iter_mut();
        let fed = fed.filter(|v| v.analysis.layout.table_id(table).is_some());
        self.snapshots.begin(fed);
    }

    /// The publish stage: install the maintained images, then notify the
    /// commit observer (see [`Database::install`] and [`Database::observe`]).
    /// Outside [`commit`], which installs every unit before it notifies
    /// any, only recovery calls it, on its topology's clock.
    pub(crate) fn publish_commit(&mut self, lsn: Lsn) {
        let drained = self.install(lsn);
        self.observe(lsn, &drained);
    }

    /// Drain the view journals and install the maintained images in the
    /// snapshot registry as one atomic commit at `lsn`. Journals are
    /// drained and images installed even when maintenance errored, so the
    /// registry's tips are always the views' images. Safe to call with
    /// nothing journaled — an empty commit just advances the registry to
    /// `lsn` (how untouched shards join a group commit). Returns the
    /// drained journals, for the commit observer.
    fn install(&mut self, lsn: Lsn) -> Arc<CommitBatch> {
        let drained: Arc<CommitBatch> = Arc::new(
            self.views
                .iter_mut()
                .map(|v| (v.name().to_string(), v.take_journal()))
                .collect(),
        );
        self.snapshots.commit(lsn, &drained, &self.views);
        self.commit_lsn = self.commit_lsn.max(lsn);
        self.last_deltas = drained
            .iter()
            .filter(|(_, ops)| !ops.is_empty())
            .map(|(name, ops)| {
                let (ins, del) = crate::snapshot::delta_counts(ops);
                (name.clone(), ins, del)
            })
            .collect();
        drained
    }

    /// Hand an installed commit to the commit observer. Notified even when
    /// maintenance errored: the journals were drained and installed
    /// regardless, and a feed that skipped them would drift from the
    /// registry tips it mirrors.
    fn observe(&self, lsn: Lsn, drained: &CommitBatch) {
        if let Some(obs) = &self.observer {
            obs.on_commit(lsn, drained);
        }
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
        self.snapshots.commit(lsn, &Arc::default(), &[]);
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

/// One unit's halves after the validate stage.
pub(crate) type Validated<'k, K> = (Option<ValidDelete<'k, K>>, Option<ValidInsert>);

/// One unit's halves after the apply stage — what the log stage frames: the
/// applied delete half's delta, then the validated insert half, not yet
/// applied. `(None, None)` for a unit the commit does not touch.
pub(crate) type Staged = (Option<Update>, Option<ValidInsert>);

/// The commit pipeline, written once: one operation on `table` —
/// `parts[u]` is unit `u`'s delete keys and insert rows, `None` where it
/// owns none — commits as one unit, in this order:
///
/// 1. **validate** every unit's halves, then `probe` (what no unit can
///    check alone: the cross-shard FK probes) — a refused operation changes
///    nothing and never reaches the log;
/// 2. **apply** each unit's delete half;
/// 3. **log** returns the commit LSN, or `None` in recovery, which publishes
///    on its topology's clock; a log failure returns here, delete halves
///    applied (the durable layer poisons itself);
/// 4. **begin**: each unit's snapshot registry gives the views the table
///    feeds a writable image ([`SnapshotRegistry::begin`]);
/// 5. per unit, behind the [`catch_each`] panic boundary: **maintain** the
///    delete half, **apply** the insert half, **maintain** it;
/// 6. **publish** every unit at that LSN, untouched ones with an empty
///    commit, so all registries move in lockstep, and only then notify the
///    units' commit observers: a reader that holds an observer's lock while
///    it pins a unit never waits on a unit this commit has yet to install.
///    A maintenance error or panic is returned only after.
pub(crate) fn commit<'k, K: AsRef<[Datum]> + 'k>(
    units: &mut [Database],
    table: &str,
    parts: impl IntoIterator<Item = (Option<&'k [K]>, Option<Vec<Row>>)>,
    decomposed: bool,
    probe: impl FnOnce(&[Database], &[Validated<'k, K>]) -> Result<()>,
    log: impl FnOnce(&[Staged]) -> Result<Option<Lsn>>,
) -> Result<Vec<MaintenanceReport>> {
    let mut valid = Vec::with_capacity(units.len());
    for (unit, (keys, rows)) in units.iter().zip(parts) {
        valid.push(unit.validate_halves(table, keys, rows)?);
    }
    probe(units, &valid)?;
    let staged: Vec<Staged> = units
        .iter_mut()
        .zip(valid)
        .map(|(unit, (delete, insert))| (delete.map(|d| unit.catalog.apply_delete(d)), insert))
        .collect();
    let lsn = log(&staged)?;
    let in_flight = InFlight::begin(units, table);
    let units = &mut *in_flight.units;
    let results = catch_each(
        units.iter_mut().zip(staged),
        |_, (unit, (deleted, insert))| {
            (deleted.is_some() || insert.is_some())
                .then(|| unit.commit_halves(deleted.as_ref(), insert, decomposed))
        },
    );
    if let Some(lsn) = lsn {
        let installed: Vec<_> = units.iter_mut().map(|unit| unit.install(lsn)).collect();
        for (unit, drained) in units.iter().zip(&installed) {
            unit.observe(lsn, drained);
        }
    }
    let mut reports = Vec::new();
    for (unit, result) in results.into_iter().enumerate() {
        let maintained = result.map_err(|detail| CoreError::MaintenancePanic {
            view: format!("<shard {unit}>"),
            detail,
        })?;
        if let Some(unit_reports) = maintained {
            append(&mut reports, unit_reports?);
        }
    }
    Ok(reports)
}

/// The units of a commit past its start step. If the commit unwinds before
/// it publishes, dropping this puts back the tips it left in flight
/// ([`SnapshotRegistry::release`]), so no pin waits forever; the images
/// stay as maintenance left them.
struct InFlight<'u> {
    units: &'u mut [Database],
}

impl<'u> InFlight<'u> {
    /// Run the start step of a commit of `table` on every unit.
    fn begin(units: &'u mut [Database], table: &str) -> Self {
        for unit in units.iter_mut() {
            unit.begin_maintenance(table);
        }
        InFlight { units }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for unit in self.units.iter() {
                unit.snapshots.release(&unit.views);
            }
        }
    }
}

/// `into.extend(more)`, but taking `more` whole when `into` is empty — a
/// one-unit, one-half commit then allocates no second report vector.
fn append<T>(into: &mut Vec<T>, more: Vec<T>) {
    if into.is_empty() {
        *into = more;
    } else {
        into.extend(more);
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

    /// Pin `registry` on another thread; fails the test unless the pin
    /// returns within ten seconds.
    fn pin_from_another_thread(registry: &SnapshotRegistry) -> Snapshot {
        let registry = registry.clone();
        let (send, recv) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || send.send(registry.pin().unwrap()).unwrap());
        let snap = recv
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a pin returns once no chain is in flight");
        reader.join().expect("the reader finished");
        snap
    }

    /// A commit whose job panics still publishes, so it leaves no chain in
    /// flight: a pin from another thread returns the whole commit — the
    /// sibling view as a twin without the panicking view maintains it.
    #[test]
    fn a_panicking_job_leaves_no_chain_in_flight() {
        let mut db = db();
        db.create_view(oj_view_def().with_name("panic_me")).unwrap();
        db.create_view(oj_view_def()).unwrap();
        let mut twin = self::db();
        twin.create_view(oj_view_def()).unwrap();
        let armed = crate::batch::test_panic::arm();
        let row = lineitem_row(3, 1, 2, 4, 42.0);
        let err = db.insert("lineitem", vec![row.clone()]);
        drop(armed);
        assert!(matches!(err, Err(CoreError::MaintenancePanic { .. })));
        twin.insert("lineitem", vec![row]).unwrap();
        let snap = pin_from_another_thread(db.snapshots());
        assert_eq!(snap.lsn(), 1);
        let whole = twin.snapshot().unwrap();
        assert_eq!(
            snap.view("oj_view").unwrap().wide_rows(),
            whole.view("oj_view").unwrap().wide_rows()
        );
    }

    /// A commit that unwinds between its start step and its publish puts
    /// the tips it took in flight back, so a later pin still returns.
    #[test]
    fn an_unwound_commit_releases_its_chains() {
        let mut db = db();
        db.create_view(oj_view_def()).unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _in_flight = InFlight::begin(std::slice::from_mut(&mut db), "lineitem");
            panic!("unwinds before its publish");
        }));
        assert!(unwound.is_err());
        let snap = pin_from_another_thread(db.snapshots());
        assert_eq!(snap.lsn(), 0);
        assert_eq!(
            snap.view("oj_view").unwrap().wide_rows(),
            db.view("oj_view").unwrap().wide_rows()
        );
    }

    #[test]
    fn constraint_violations_propagate() {
        let mut db = db();
        db.create_view(oj_view_def()).unwrap();
        let err = db.insert("lineitem", vec![lineitem_row(999, 1, 1, 1, 1.0)]);
        assert!(err.is_err()); // order 999 does not exist
    }
}
