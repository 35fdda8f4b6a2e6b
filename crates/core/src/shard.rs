//! `ShardedDatabase`: the hash-partitioned engine, and the one owner of the
//! cross-shard commit stages — validate → route → apply → (log) → maintain
//! fan-out → group publish (`ShardedDatabase::commit_with`). The durable
//! engines ([`crate::durable::Durable`]) run the same function and only
//! supply the log stage.
//!
//! The engine is partitioned into N independent [`Database`] shards, each
//! owning a hash partition of every base table and every view. Routing is
//! **strictly key-aligned** (the only partitioning under which outer-join
//! maintenance stays shard-local — broadcast or replicated schemes are
//! unsound for outer joins because a null-extended row must exist on
//! *exactly one* shard):
//!
//! * every table declares routing columns that are a **subset of its unique
//!   key**, so equal keys route identically and shard-local unique
//!   enforcement is globally sound;
//! * a view is accepted only if the routing columns of all its tables are
//!   pairwise connected through the view's equijoin atoms (checked by
//!   equivalence-class closure at creation). Rows that can ever join then
//!   agree on their routing values and live on one shard, so every
//!   maintenance plan — primary and secondary deltas included — runs
//!   entirely within the delta's owner shard.
//!
//! An update routes its delta batch to owner shards, maintains each touched
//! shard in turn (a panic in one shard's maintenance is caught at the shard
//! boundary, [`ojv_exec::catch_each`], and the other shards still run), and
//! then publishes every shard's snapshot registry at one global commit LSN
//! — untouched shards publish an empty commit — so cross-shard snapshot
//! reads are atomic: [`ShardedDatabase::snapshot`] pins all shards at the
//! same LSN.
//!
//! Because per-shard heap orders depend on the partitioning, cross-shard
//! comparisons use the *canonical* [`ShardedDatabase::state_bytes`]: rows
//! sorted by encoded bytes, count indexes merged by key. An N-shard façade
//! is byte-identical to a 1-shard façade (and to a freshly recomputed twin)
//! over the same logical content — the differential property suites pin
//! exactly this.

use std::collections::BTreeMap;

use ojv_durability::Lsn;
use ojv_exec::catch_each;
use ojv_rel::{put_row, put_str, put_u32, put_u64, Datum, Relation, Row};
use ojv_storage::{Catalog, ShardId, ShardRouter, StorageError, Update};

use crate::checkpoint_state::fit_u32;
use crate::database::Database;
use crate::error::{CoreError, Result};
use crate::maintain::MaintenanceReport;
use crate::policy::MaintenancePolicy;
use crate::snapshot::Snapshot;
use crate::view_def::{NamedAtom, ViewDef, ViewExpr};

/// Per-table routing declaration: table name → routing column names.
///
/// Routing columns must be a subset of the table's unique key (validated by
/// [`ShardedDatabase::new`]).
#[derive(Debug, Clone, Default)]
pub struct RoutingSpec {
    entries: Vec<(String, Vec<String>)>,
}

impl RoutingSpec {
    pub fn new() -> Self {
        RoutingSpec::default()
    }

    /// Declare `table` as routed by `cols` (in order).
    pub fn table(mut self, table: &str, cols: &[&str]) -> Self {
        self.entries.push((
            table.to_string(),
            cols.iter().map(|c| c.to_string()).collect(),
        ));
        self
    }

    /// The declared `(table, routing columns)` pairs, in declaration order
    /// (the durable layer serializes these into its coordinator checkpoint).
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.entries.iter().map(|(t, c)| (t.as_str(), c.as_slice()))
    }
}

/// Resolved routing for one table.
#[derive(Debug, Clone)]
struct TableRouting {
    /// Routing column names (for view-alignment checks).
    col_names: Vec<String>,
    /// Routing column indexes into the table's rows.
    cols: Vec<usize>,
    /// Position of each routing column inside the table's `key_cols` order —
    /// extracts routing values from a delete key without touching the row.
    key_pos: Vec<usize>,
}

/// Resolve and validate `routing` against a catalog's schema: every table
/// must have a declaration, and routing columns must exist and be a subset
/// of the table's unique key (equal keys must route identically or
/// shard-local unique enforcement would be unsound globally).
fn resolve_routing(
    catalog: &Catalog,
    routing: &RoutingSpec,
) -> Result<BTreeMap<String, TableRouting>> {
    let mut resolved: BTreeMap<String, TableRouting> = BTreeMap::new();
    for t in catalog.tables() {
        let (_, names) = routing
            .entries
            .iter()
            .find(|(n, _)| n == t.name())
            .ok_or_else(|| CoreError::InvalidView {
                view: "<sharding>".to_string(),
                detail: format!("table {} has no routing declaration", t.name()),
            })?;
        if names.is_empty() {
            return Err(CoreError::InvalidView {
                view: "<sharding>".to_string(),
                detail: format!("table {} declares no routing columns", t.name()),
            });
        }
        let schema = t.schema();
        let mut cols = Vec::with_capacity(names.len());
        let mut key_pos = Vec::with_capacity(names.len());
        for c in names {
            let idx = schema
                .index_of(t.name(), c)
                .map_err(|_| StorageError::UnknownColumn {
                    table: t.name().to_string(),
                    column: c.clone(),
                })?;
            let pos = t.key_cols().iter().position(|&k| k == idx).ok_or_else(|| {
                CoreError::InvalidView {
                    view: "<sharding>".to_string(),
                    detail: format!(
                        "routing column {}.{c} is not part of the unique key; \
                         equal keys could land on different shards",
                        t.name()
                    ),
                }
            })?;
            cols.push(idx);
            key_pos.push(pos);
        }
        resolved.insert(
            t.name().to_string(),
            TableRouting {
                col_names: names.clone(),
                cols,
                key_pos,
            },
        );
    }
    Ok(resolved)
}

/// One user operation on one base table — the unit the commit pipeline
/// runs. An SQL `UPDATE` is a delete followed by an insert (paper §3) whose
/// two halves are flagged *decomposed*: the flag rides with each half
/// through the log record into maintenance, where it switches the §6 FK
/// shortcuts off for the pair.
pub(crate) enum TableOp<'a> {
    Insert {
        table: &'a str,
        rows: Vec<Row>,
    },
    Delete {
        table: &'a str,
        keys: &'a [Vec<Datum>],
    },
    Update {
        table: &'a str,
        keys: &'a [Vec<Datum>],
        rows: Vec<Row>,
    },
}

/// The hash-partitioned engine façade (see module docs).
#[derive(Debug)]
pub struct ShardedDatabase {
    shards: Vec<Database>,
    router: ShardRouter,
    /// Resolved routing per table. `None` when the façade adopted one
    /// existing database as its only shard ([`ShardedDatabase::adopt`]):
    /// that shard owns every row, so there is nothing to declare or to
    /// align, and its own catalog keeps enforcing constraints.
    routing: Option<BTreeMap<String, TableRouting>>,
    /// Names of created views, in creation order.
    views: Vec<String>,
    /// Global commit LSN — every shard's registry is published at this.
    commit_lsn: Lsn,
    /// Enforce FK constraints across shards (mirrors
    /// [`Catalog::enforce_constraints`]; partitioned shard catalogs always
    /// run with enforcement off because the façade checks globally).
    pub enforce_constraints: bool,
}

impl ShardedDatabase {
    /// Partition `template` into `shards` shards under `routing`.
    ///
    /// The template's schema (tables, keys, secondary FK indexes, flags) is
    /// replicated into every shard and its rows are routed to their owners.
    /// Every table must have a routing entry whose columns are a subset of
    /// the table's unique key.
    pub fn new(template: &Catalog, shards: usize, routing: RoutingSpec) -> Result<Self> {
        if shards == 0 {
            return Err(CoreError::InvalidView {
                view: "<sharding>".to_string(),
                detail: "shard count must be at least 1".to_string(),
            });
        }
        let router = ShardRouter::new(shards);
        let resolved = resolve_routing(template, &routing)?;
        // Replicate the schema into per-shard catalogs and route the
        // template's rows to their owners. Shard catalogs never enforce
        // constraints themselves — children need not be colocated with the
        // parents they reference, so the façade checks globally instead.
        let mut shard_dbs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let mut c = Catalog::new();
            for t in template.tables() {
                let key_names: Vec<&str> = t
                    .key_cols()
                    .iter()
                    .map(|&k| t.schema().columns()[k].name.as_str())
                    .collect();
                c.create_table(t.name(), t.schema().columns().to_vec(), &key_names)?;
            }
            for fk in template.foreign_keys() {
                let child = template.table(&fk.child)?;
                let child_cols: Vec<&str> = fk
                    .child_cols
                    .iter()
                    .map(|&i| child.schema().columns()[i].name.as_str())
                    .collect();
                c.add_foreign_key(&fk.name, &fk.child, &child_cols, &fk.parent)?;
                let mirrored = c
                    .foreign_keys_mut()
                    .last_mut()
                    .expect("foreign key was just added");
                mirrored.cascade_delete = fk.cascade_delete;
                mirrored.deferrable = fk.deferrable;
            }
            c.enforce_constraints = false;
            shard_dbs.push(Database::new(c));
        }
        for t in template.tables() {
            let tr = &resolved[t.name()];
            let mut parts: Vec<Vec<Row>> = vec![Vec::new(); shards];
            for r in t.iter_refs() {
                parts[router.route_ref(r, &tr.cols).index()].push(r.to_row());
            }
            for (db, rows) in shard_dbs.iter_mut().zip(parts) {
                if !rows.is_empty() {
                    db.apply_insert(t.name(), rows)?;
                }
            }
        }
        Ok(ShardedDatabase {
            shards: shard_dbs,
            router,
            routing: Some(resolved),
            views: Vec::new(),
            commit_lsn: 0,
            enforce_constraints: template.enforce_constraints,
        })
    }

    /// The N = 1 engine over an existing database: `shard` becomes shard 0
    /// as it is — catalog, views and registry move in, no row is copied.
    /// Its catalog's own `enforce_constraints` stays in charge (the façade's
    /// flag is off, so FK checks run in exactly one place), and no routing
    /// is declared: one shard owns everything.
    pub(crate) fn adopt(shard: Database) -> Self {
        ShardedDatabase {
            router: ShardRouter::new(1),
            routing: None,
            views: shard.views().map(|v| v.name().to_string()).collect(),
            commit_lsn: shard.commit_lsn(),
            enforce_constraints: false,
            shards: vec![shard],
        }
    }

    /// Reassemble a façade from recovered per-shard databases (the durable
    /// layer restores each shard from its own checkpoint + WAL tail). The
    /// shards must share one schema and one view list; `routing` is
    /// re-resolved against it, re-running the key-alignment validation.
    pub(crate) fn from_recovered(
        shards: Vec<Database>,
        routing: &RoutingSpec,
        enforce_constraints: bool,
        commit_lsn: Lsn,
    ) -> Result<Self> {
        assert!(!shards.is_empty(), "recovered shard set cannot be empty");
        let resolved = resolve_routing(shards[0].catalog(), routing)?;
        let views = shards[0]
            .views()
            .map(|v| v.name().to_string())
            .collect::<Vec<_>>();
        let router = ShardRouter::new(shards.len());
        Ok(ShardedDatabase {
            shards,
            router,
            routing: Some(resolved),
            views,
            commit_lsn,
            enforce_constraints,
        })
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The routing declarations this façade was built with, reconstructed
    /// (table-name order) — the durable layer persists these.
    pub fn routing_spec(&self) -> RoutingSpec {
        let mut spec = RoutingSpec::new();
        for (table, tr) in self.routing.iter().flatten() {
            let cols: Vec<&str> = tr.col_names.iter().map(String::as_str).collect();
            spec = spec.table(table, &cols);
        }
        spec
    }

    /// Read-only access to one shard (benches and tests introspect through
    /// this; all mutation flows through the façade).
    pub fn shard(&self, id: ShardId) -> &Database {
        &self.shards[id.index()]
    }

    /// The shards in shard order (read-only).
    pub fn shards(&self) -> impl Iterator<Item = &Database> {
        self.shards.iter()
    }

    /// The adopted shard of an N = 1 engine (see [`ShardedDatabase::adopt`]).
    pub(crate) fn only_shard(&self) -> &Database {
        debug_assert!(self.routing.is_none() && self.shards.len() == 1);
        &self.shards[0]
    }

    pub(crate) fn only_shard_mut(&mut self) -> &mut Database {
        debug_assert!(self.routing.is_none() && self.shards.len() == 1);
        &mut self.shards[0]
    }

    /// The owner shard of a `table` row.
    pub fn shard_of_row(&self, table: &str, row: &[Datum]) -> Result<ShardId> {
        match self.table_routing(table)? {
            Some(tr) => Ok(self.router.route(row, &tr.cols)),
            None => Ok(ShardId::new(0)),
        }
    }

    /// Global commit LSN — every shard's registry has published up to this.
    pub fn commit_lsn(&self) -> Lsn {
        self.commit_lsn
    }

    /// Apply `policy` to every shard.
    pub fn set_policy(&mut self, policy: MaintenancePolicy) {
        for s in &mut self.shards {
            s.policy = policy;
        }
    }

    /// `table`'s routing; `None` on an adopted single shard, which routes
    /// nothing.
    fn table_routing(&self, table: &str) -> Result<Option<&TableRouting>> {
        let Some(routing) = &self.routing else {
            return Ok(None);
        };
        routing.get(table).map(Some).ok_or_else(|| {
            CoreError::Storage(StorageError::UnknownTable {
                name: table.to_string(),
            })
        })
    }

    /// Create an outer-join view on every shard, after checking that the
    /// view is **routing-aligned**: the routing columns of all referenced
    /// tables must be pairwise connected through the view's equijoin atoms.
    /// Misaligned views are rejected — their joins would cross shards.
    pub fn create_view(&mut self, def: ViewDef) -> Result<()> {
        self.check_alignment(&def)?;
        for s in &mut self.shards {
            s.create_view(def.clone())?;
        }
        self.views.push(def.name().to_string());
        Ok(())
    }

    /// Create a view from SQL (see [`crate::parser`]) on every shard.
    pub fn create_view_sql(&mut self, name: &str, sql: &str) -> Result<()> {
        let def = crate::parser::parse_view(self.shards[0].catalog(), name, sql)?;
        self.create_view(def)
    }

    /// Drop a view from every shard.
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        for s in &mut self.shards {
            s.drop_view(name)?;
        }
        self.views.retain(|v| v != name);
        Ok(())
    }

    /// Created view names, in creation order.
    pub fn view_names(&self) -> &[String] {
        &self.views
    }

    /// Total stored rows of a view across all shards.
    pub fn view_len(&self, name: &str) -> Result<usize> {
        let mut n = 0;
        for s in &self.shards {
            n += s
                .view(name)
                .ok_or_else(|| CoreError::UnknownView {
                    view: name.to_string(),
                })?
                .len();
        }
        Ok(n)
    }

    /// The view's merged output: shard outputs concatenated in shard order
    /// (bag semantics — canonical comparisons go through
    /// [`ShardedDatabase::state_bytes`]).
    pub fn output(&self, name: &str) -> Result<Relation> {
        let mut merged: Option<Relation> = None;
        for s in &self.shards {
            let v = s.view(name).ok_or_else(|| CoreError::UnknownView {
                view: name.to_string(),
            })?;
            let part = v.output()?;
            merged = Some(match merged {
                None => part,
                Some(acc) => {
                    let schema = acc.schema().clone();
                    let mut rows = acc.into_rows();
                    rows.extend(part.into_rows());
                    Relation::new(schema, rows)
                }
            });
        }
        merged.ok_or_else(|| CoreError::UnknownView {
            view: name.to_string(),
        })
    }

    /// Insert rows into a base table: constraints are checked globally,
    /// rows route to their owner shards, per-shard maintenance runs, and
    /// all shards publish at one global commit LSN.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.commit(TableOp::Insert { table, rows })
    }

    /// Delete rows by unique key (checked and routed like
    /// [`ShardedDatabase::insert`]).
    pub fn delete(&mut self, table: &str, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>> {
        self.commit(TableOp::Delete { table, keys })
    }

    /// SQL-style `UPDATE` (delete + insert, §3): the §6 FK fast paths are
    /// disabled for the pair, exactly like [`Database::update`]. Commits
    /// twice (one global LSN per half).
    pub fn update(
        &mut self,
        table: &str,
        keys: &[Vec<Datum>],
        new_rows: Vec<Row>,
    ) -> Result<Vec<MaintenanceReport>> {
        self.commit(TableOp::Update {
            table,
            keys,
            rows: new_rows,
        })
    }

    /// In-memory commit: the pipeline with no log stage — every half takes
    /// the next dense LSN.
    fn commit(&mut self, op: TableOp<'_>) -> Result<Vec<MaintenanceReport>> {
        let mut next = self.commit_lsn;
        self.commit_with(op, |_, _| {
            next += 1;
            Ok(next)
        })
    }

    /// The commit pipeline, written once. `op` runs as one half (insert,
    /// delete) or two (`UPDATE`: delete then insert, both *decomposed*); per
    /// half:
    ///
    /// 1. **validate · route · apply** — the batch is checked globally and
    ///    applied to its owner shards, all or nothing; a refused batch
    ///    changes nothing and never reaches the log;
    /// 2. **log** — `log(applied per-shard deltas, decomposed)` returns the
    ///    half's commit LSN: the next dense number in memory, the LSN at
    ///    which the deltas became durable under a [`crate::durable::Durable`];
    /// 3. **maintain** — per-shard view maintenance, one shard after
    ///    another;
    /// 4. **publish · observe** — every shard's registry (and observer)
    ///    advances to that one LSN on this thread.
    ///
    /// A log failure returns before stage 3 with base tables already
    /// changed; what that means is the log owner's business (the durable
    /// layer poisons itself).
    pub(crate) fn commit_with(
        &mut self,
        op: TableOp<'_>,
        mut log: impl FnMut(&[Option<Update>], bool) -> Result<Lsn>,
    ) -> Result<Vec<MaintenanceReport>> {
        let (table, keys, rows, decomposed) = match op {
            TableOp::Insert { table, rows } => (table, None, Some(rows), false),
            TableOp::Delete { table, keys } => (table, Some(keys), None, false),
            TableOp::Update { table, keys, rows } => (table, Some(keys), Some(rows), true),
        };
        let mut reports = Vec::new();
        if let Some(keys) = keys {
            let updates = self.apply_delete_routed(table, keys)?;
            let lsn = log(&updates, decomposed)?;
            reports.extend(self.maintain_and_publish_at(&updates, decomposed, lsn)?);
        }
        if let Some(rows) = rows {
            let updates = self.apply_insert_routed(table, rows)?;
            let lsn = log(&updates, decomposed)?;
            reports.extend(self.maintain_and_publish_at(&updates, decomposed, lsn)?);
        }
        Ok(reports)
    }

    /// Validate, route, and apply an insert batch to its owner shards
    /// *without* maintaining views. One entry per shard, `None` for
    /// untouched shards.
    ///
    /// Validation is total before the first mutation: every owner shard's
    /// [`Catalog::validate_insert`] (row shape, null and duplicate keys —
    /// equal keys route alike, so a shard sees all of a key's copies) and
    /// then the cross-shard FK parent probes run for *all* shards before
    /// any shard applies, after which applying cannot fail. A refused
    /// batch leaves every shard bit-identical.
    pub(crate) fn apply_insert_routed(
        &mut self,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<Vec<Option<Update>>> {
        let Some(tr) = self.table_routing(table)? else {
            // One adopted shard: its catalog validates the whole batch —
            // FK parents included, under its own flag — before applying.
            return Ok(vec![Some(self.shards[0].apply_insert(table, rows)?)]);
        };
        let mut parts: Vec<Vec<Row>> = vec![Vec::new(); self.shards.len()];
        for row in rows {
            parts[self.route_or_first(&row, &tr.cols).index()].push(row);
        }
        let mut batches = Vec::with_capacity(self.shards.len());
        for (db, part) in self.shards.iter().zip(parts) {
            batches.push(if part.is_empty() {
                None
            } else {
                Some(db.catalog().validate_insert(table, part)?)
            });
        }
        if self.enforce_constraints {
            for batch in batches.iter().flatten() {
                self.check_fk_parents(table, batch.rows())?;
            }
        }
        Ok(self
            .shards
            .iter_mut()
            .zip(batches)
            .map(|(db, batch)| batch.map(|b| db.catalog_mut().apply_insert(b)))
            .collect())
    }

    /// Validate, route, and apply a delete batch to its owner shards
    /// *without* maintaining views (see
    /// [`ShardedDatabase::apply_insert_routed`]): every owner shard's
    /// [`Catalog::validate_delete`] (missing keys, keys repeated inside the
    /// batch) and the cross-shard restrict probes run before any shard
    /// applies.
    pub(crate) fn apply_delete_routed(
        &mut self,
        table: &str,
        keys: &[Vec<Datum>],
    ) -> Result<Vec<Option<Update>>> {
        let Some(tr) = self.table_routing(table)? else {
            // One adopted shard: its catalog validates the whole batch —
            // restrict included, under its own flag — before applying.
            return Ok(vec![Some(self.shards[0].apply_delete(table, keys)?)]);
        };
        let mut parts: Vec<Vec<&[Datum]>> = vec![Vec::new(); self.shards.len()];
        for key in keys {
            parts[self.route_or_first(key, &tr.key_pos).index()].push(key);
        }
        let mut batches = Vec::with_capacity(self.shards.len());
        for (db, part) in self.shards.iter().zip(&parts) {
            batches.push(if part.is_empty() {
                None
            } else {
                Some(db.catalog().validate_delete(table, part)?)
            });
        }
        if self.enforce_constraints {
            // No child row anywhere may still reference a deleted parent.
            for key in keys {
                for s in &self.shards {
                    if let Some(fk) = s.catalog().fk_restricting(table, key)? {
                        return Err(CoreError::Storage(fk.restricts(key)));
                    }
                }
            }
        }
        Ok(self
            .shards
            .iter_mut()
            .zip(batches)
            .map(|(db, batch)| batch.map(|b| db.catalog_mut().apply_delete(b)))
            .collect())
    }

    /// Owner shard of a row (or delete key) by its routing columns. A row
    /// too short to carry them goes to shard 0, whose validator refuses it
    /// for its shape — routing never indexes out of bounds, and the shape
    /// check stays in one place.
    fn route_or_first(&self, row: &[Datum], cols: &[usize]) -> ShardId {
        if cols.iter().all(|&c| c < row.len()) {
            self.router.route(row, cols)
        } else {
            ShardId::new(0)
        }
    }

    /// Run per-shard maintenance for the routed updates and publish every
    /// shard's registry at the global commit LSN `lsn`. Untouched shards
    /// publish an empty commit, so all registries advance in lockstep and
    /// [`ShardedDatabase::snapshot`] can pin them at the same LSN — also
    /// when a shard's maintenance failed or panicked: the error is returned
    /// only after every shard has published.
    fn maintain_and_publish_at(
        &mut self,
        updates: &[Option<Update>],
        decomposed: bool,
        lsn: Lsn,
    ) -> Result<Vec<MaintenanceReport>> {
        let results = catch_each(self.shards.iter_mut().zip(updates), |_, (db, up)| {
            up.as_ref().map(|u| db.maintain_views_only(u, decomposed))
        });
        // Group publish: every shard commits at `lsn`.
        let mut publish_err = None;
        for db in &mut self.shards {
            if let Err(e) = db.publish_commit(lsn) {
                publish_err.get_or_insert(e);
            }
        }
        self.commit_lsn = lsn;
        // Deterministic shard-order merge of the per-shard reports.
        let mut reports = Vec::new();
        for (shard, result) in results.into_iter().enumerate() {
            let maintained = result.map_err(|detail| CoreError::MaintenancePanic {
                view: format!("<shard {shard}>"),
                detail,
            })?;
            if let Some(shard_reports) = maintained {
                reports.extend(shard_reports?);
            }
        }
        match publish_err {
            Some(e) => Err(e),
            None => Ok(reports),
        }
    }

    /// The cross-shard half of insert validation: a parent may live on any
    /// shard, so every shard's unique index is probed — in place, no key is
    /// built — for each non-null foreign key value.
    fn check_fk_parents(&self, table: &str, rows: &[Row]) -> Result<()> {
        let catalog = self.shards[0].catalog();
        for fk in catalog.fks_from(table) {
            for row in rows {
                // SQL semantics: null FK values are not checked.
                if fk.child_cols.iter().any(|&c| row[c].is_null()) {
                    continue;
                }
                let exists = self.shards.iter().any(|s| {
                    s.catalog()
                        .table(&fk.parent)
                        .is_ok_and(|t| t.contains_key_of(row, &fk.child_cols))
                });
                if !exists {
                    return Err(CoreError::Storage(fk.parent_missing(row)));
                }
            }
        }
        Ok(())
    }

    /// Pin a consistent cross-shard snapshot at the newest global LSN: one
    /// pinned [`Snapshot`] per shard, all at the same LSN.
    pub fn snapshot(&self) -> Result<ShardedSnapshot> {
        self.snapshot_at(self.commit_lsn)
    }

    /// Pin a consistent cross-shard snapshot as of global LSN `lsn`.
    pub fn snapshot_at(&self, lsn: Lsn) -> Result<ShardedSnapshot> {
        let parts = self
            .shards
            .iter()
            .map(|s| s.snapshot_at(lsn))
            .collect::<Result<Vec<Snapshot>>>()?;
        Ok(ShardedSnapshot { lsn, parts })
    }

    /// Canonical encoding of the full logical state: global LSN, every
    /// table's rows (sorted by encoded bytes, merged across shards), and
    /// every view's rows plus count indexes (merged by key). Two façades
    /// with the same logical content are byte-equal regardless of shard
    /// count — N-shard == 1-shard == recomputed twin.
    pub fn state_bytes(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.commit_lsn);
        // Base tables, sorted by name, rows merged + sorted canonically.
        let mut table_names: Vec<String> = self.shards[0]
            .catalog()
            .tables()
            .map(|t| t.name().to_string())
            .collect();
        table_names.sort_unstable();
        put_u32(&mut buf, fit_u32(table_names.len(), "table count")?);
        for name in &table_names {
            put_str(&mut buf, name).map_err(CoreError::Rel)?;
            let mut encoded: Vec<Vec<u8>> = Vec::new();
            for s in &self.shards {
                for row in s.catalog().table(name)?.iter_rows() {
                    let mut e = Vec::new();
                    put_row(&mut e, &row).map_err(CoreError::Rel)?;
                    encoded.push(e);
                }
            }
            encoded.sort_unstable();
            put_u32(&mut buf, fit_u32(encoded.len(), "row count")?);
            for e in encoded {
                buf.extend_from_slice(&e);
            }
        }
        // Views, sorted by name.
        let mut view_names = self.views.clone();
        view_names.sort_unstable();
        put_u32(&mut buf, fit_u32(view_names.len(), "view count")?);
        for name in &view_names {
            put_str(&mut buf, name).map_err(CoreError::Rel)?;
            let stores: Vec<&crate::materialize::ViewStore> = self
                .shards
                .iter()
                .map(|s| {
                    s.view(name)
                        .map(|v| v.store())
                        .ok_or_else(|| CoreError::UnknownView { view: name.clone() })
                })
                .collect::<Result<_>>()?;
            encode_merged_stores(&mut buf, &stores)?;
        }
        Ok(buf)
    }

    /// Reject views whose joins would cross shards: every referenced
    /// table's routing columns must be pairwise connected to the first
    /// table's through the view's equijoin atoms.
    fn check_alignment(&self, def: &ViewDef) -> Result<()> {
        if self.routing.is_none() {
            return Ok(()); // one shard owns every row: nothing can cross
        }
        let tables = def.expr().tables();
        let mut atoms = Vec::new();
        collect_eq_atoms(def.expr(), &mut atoms);
        let mut uf = UnionFind::default();
        for (a, b) in &atoms {
            uf.union(a, b);
        }
        let unrouted = "partitioned façades resolve routing for every table";
        let first = &tables[0];
        let first_routing = self.table_routing(first)?.expect(unrouted);
        for t in tables.iter().skip(1) {
            let tr = self.table_routing(t)?.expect(unrouted);
            if tr.col_names.len() != first_routing.col_names.len() {
                return Err(misaligned(
                    def.name(),
                    format!(
                        "{t} routes by {} column(s) but {first} routes by {}",
                        tr.col_names.len(),
                        first_routing.col_names.len()
                    ),
                ));
            }
            for (j, c) in tr.col_names.iter().enumerate() {
                let a = (first.clone(), first_routing.col_names[j].clone());
                let b = (t.clone(), c.clone());
                if !uf.connected(&a, &b) {
                    return Err(misaligned(
                        def.name(),
                        format!(
                            "routing column {t}.{c} is not connected to {first}.{} \
                             by the view's equijoin atoms; maintaining this view \
                             would require cross-shard joins",
                            first_routing.col_names[j]
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

fn misaligned(view: &str, detail: String) -> CoreError {
    CoreError::InvalidView {
        view: view.to_string(),
        detail: format!("shard-misaligned: {detail}"),
    }
}

/// Canonical merged encoding of one view's per-shard stores: rows sorted by
/// encoded bytes; count indexes merged by key (index column sets are
/// identical across shards — every shard analyzed the same definition).
fn encode_merged_stores(
    buf: &mut Vec<u8>,
    stores: &[&crate::materialize::ViewStore],
) -> Result<()> {
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    for store in stores {
        for row in store.rows() {
            let mut e = Vec::new();
            put_row(&mut e, row).map_err(CoreError::Rel)?;
            encoded.push(e);
        }
    }
    encoded.sort_unstable();
    put_u32(buf, fit_u32(encoded.len(), "view row count")?);
    for e in encoded {
        buf.extend_from_slice(&e);
    }
    // Merge count indexes by column set, in the first store's order.
    let first_snapshot = stores[0].count_index_snapshot();
    put_u32(buf, fit_u32(first_snapshot.len(), "index count")?);
    for (cols, _) in &first_snapshot {
        let mut merged: BTreeMap<Vec<Datum>, usize> = BTreeMap::new();
        for store in stores {
            for (c, entries) in store.count_index_snapshot() {
                if &c == cols {
                    for (key, count) in entries {
                        *merged.entry(key).or_insert(0) += count;
                    }
                }
            }
        }
        put_u32(buf, fit_u32(cols.len(), "index column count")?);
        for &c in cols {
            put_u32(buf, fit_u32(c, "index column")?);
        }
        put_u32(buf, fit_u32(merged.len(), "index entry count")?);
        for (key, count) in merged {
            put_row(buf, &key).map_err(CoreError::Rel)?;
            put_u64(buf, count as u64); // lint:allow(cast) — usize widens into u64 on 64-bit
        }
    }
    Ok(())
}

/// A pinned cross-shard snapshot: one [`Snapshot`] per shard, all at the
/// same global LSN. Holding it pins every shard's version chains.
#[derive(Debug)]
pub struct ShardedSnapshot {
    lsn: Lsn,
    parts: Vec<Snapshot>,
}

impl ShardedSnapshot {
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The per-shard pinned snapshots, in shard order.
    pub fn parts(&self) -> &[Snapshot] {
        &self.parts
    }

    /// Total rows of a view across all shards, as of this snapshot.
    pub fn view_len(&self, name: &str) -> usize {
        self.parts
            .iter()
            .filter_map(|p| p.view(name))
            .map(|v| v.len())
            .sum()
    }

    /// Canonical encoding of every view image across shards (same shape as
    /// [`ShardedDatabase::state_bytes`]'s view section): two cross-shard
    /// snapshots of identical logical content are byte-equal regardless of
    /// shard count.
    pub fn state_bytes(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.lsn);
        let mut names: Vec<&str> = self
            .parts
            .first()
            .map(|p| p.views().map(|v| v.name()).collect())
            .unwrap_or_default();
        names.sort_unstable();
        put_u32(&mut buf, fit_u32(names.len(), "view count")?);
        for name in names {
            put_str(&mut buf, name).map_err(CoreError::Rel)?;
            let stores: Vec<&crate::materialize::ViewStore> = self
                .parts
                .iter()
                .filter_map(|p| p.view(name))
                .map(|v| v.store())
                .collect();
            encode_merged_stores(&mut buf, &stores)?;
        }
        Ok(buf)
    }
}

/// A `(table, column)` name pair, as equality atoms name columns.
type NamedCol = (String, String);

/// Equality atoms of the whole view expression, as `(table, col)` pairs.
fn collect_eq_atoms(expr: &ViewExpr, out: &mut Vec<(NamedCol, NamedCol)>) {
    let grab = |atoms: &[NamedAtom], out: &mut Vec<(NamedCol, NamedCol)>| {
        for a in atoms {
            if let NamedAtom::Cols {
                left,
                op: ojv_algebra::CmpOp::Eq,
                right,
            } = a
            {
                out.push((left.clone(), right.clone()));
            }
        }
    };
    match expr {
        ViewExpr::Table(_) => {}
        ViewExpr::Select(atoms, input) => {
            grab(atoms, out);
            collect_eq_atoms(input, out);
        }
        ViewExpr::Join(_, atoms, l, r) => {
            grab(atoms, out);
            collect_eq_atoms(l, out);
            collect_eq_atoms(r, out);
        }
    }
}

/// Union-find over `(table, column)` name pairs — the equivalence closure of
/// the view's equijoin atoms.
#[derive(Default)]
struct UnionFind {
    ids: BTreeMap<(String, String), usize>,
    parent: Vec<usize>,
}

impl UnionFind {
    fn id(&mut self, key: &(String, String)) -> usize {
        if let Some(&i) = self.ids.get(key) {
            return i;
        }
        let i = self.parent.len();
        self.ids.insert(key.clone(), i);
        self.parent.push(i);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: &(String, String), b: &(String, String)) {
        let (ia, ib) = (self.id(a), self.id(b));
        let (ra, rb) = (self.find(ia), self.find(ib));
        self.parent[ra] = rb;
    }

    fn connected(&mut self, a: &(String, String), b: &(String, String)) -> bool {
        a == b || {
            let (ia, ib) = (self.id(a), self.id(b));
            self.find(ia) == self.find(ib)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;
    use crate::maintain::verify_against_recompute;

    /// Example-1 routing aligned on the part⟷lineitem join: part by
    /// p_partkey, lineitem by l_partkey… which is NOT part of lineitem's
    /// key. The alignable family for example 1 is orders⟕lineitem on
    /// orderkey, so most tests use the two-table view below.
    fn orderkey_routing() -> RoutingSpec {
        RoutingSpec::new()
            .table("part", &["p_partkey"])
            .table("orders", &["o_orderkey"])
            .table("lineitem", &["l_orderkey"])
    }

    /// orders ⟕ lineitem ON l_orderkey = o_orderkey: every table routes by
    /// the join key, so the view is alignable at any shard count.
    fn ol_view_def() -> ViewDef {
        ViewDef::new(
            "ol_view",
            ViewExpr::left_outer(
                vec![crate::view_def::col_eq(
                    "orders",
                    "o_orderkey",
                    "lineitem",
                    "l_orderkey",
                )],
                ViewExpr::table("orders"),
                ViewExpr::table("lineitem"),
            ),
        )
    }

    fn sharded(n: usize) -> ShardedDatabase {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut db = ShardedDatabase::new(&c, n, orderkey_routing()).unwrap();
        db.create_view(ol_view_def()).unwrap();
        db
    }

    #[test]
    fn single_shard_facade_matches_plain_database() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut plain = Database::new(c.clone());
        plain.create_view(ol_view_def()).unwrap();
        let mut sharded = ShardedDatabase::new(&c, 1, orderkey_routing()).unwrap();
        sharded.create_view(ol_view_def()).unwrap();
        let row = lineitem_row(3, 7, 2, 4, 42.0);
        plain.insert("lineitem", vec![row.clone()]).unwrap();
        sharded.insert("lineitem", vec![row]).unwrap();
        assert_eq!(
            plain.view("ol_view").unwrap().len(),
            sharded.view_len("ol_view").unwrap()
        );
        assert!(plain
            .view("ol_view")
            .unwrap()
            .output()
            .unwrap()
            .bag_eq(&sharded.output("ol_view").unwrap()));
    }

    #[test]
    fn n_shard_state_bytes_match_one_shard() {
        for n in [2usize, 3, 8] {
            let mut one = sharded(1);
            let mut many = sharded(n);
            for (ok, ln) in [(3i64, 7i64), (5, 7), (6, 8)] {
                let row = lineitem_row(ok, ln, 2, 4, 42.0);
                one.insert("lineitem", vec![row.clone()]).unwrap();
                many.insert("lineitem", vec![row]).unwrap();
            }
            one.delete("lineitem", &[vec![Datum::Int(3), Datum::Int(7)]])
                .unwrap();
            many.delete("lineitem", &[vec![Datum::Int(3), Datum::Int(7)]])
                .unwrap();
            assert_eq!(
                one.state_bytes().unwrap(),
                many.state_bytes().unwrap(),
                "{n}-shard façade diverged from 1-shard"
            );
        }
    }

    #[test]
    fn every_shard_view_verifies_against_its_own_recompute() {
        let mut db = sharded(4);
        db.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 1.0)])
            .unwrap();
        db.delete("lineitem", &[vec![Datum::Int(3), Datum::Int(7)]])
            .unwrap();
        for s in db.shards() {
            assert!(verify_against_recompute(
                s.view("ol_view").unwrap(),
                s.catalog()
            ));
        }
    }

    #[test]
    fn misaligned_view_is_rejected() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 4, 4);
        let mut db = ShardedDatabase::new(&c, 4, orderkey_routing()).unwrap();
        // oj_view joins part⟷lineitem on p_partkey = l_partkey, but
        // lineitem routes by l_orderkey: misaligned, must be rejected.
        let err = db.create_view(oj_view_def()).unwrap_err();
        match err {
            CoreError::InvalidView { detail, .. } => {
                assert!(detail.contains("shard-misaligned"), "{detail}")
            }
            other => panic!("expected InvalidView, got {other:?}"),
        }
        // …but it IS accepted when every table routes by the partkey class.
        let mut db = ShardedDatabase::new(
            &c,
            4,
            RoutingSpec::new()
                .table("part", &["p_partkey"])
                .table("orders", &["o_orderkey"])
                .table("lineitem", &["l_orderkey"]),
        )
        .unwrap();
        assert!(db.create_view(ol_view_def()).is_ok());
    }

    #[test]
    fn routing_must_be_key_aligned() {
        let c = example1_catalog();
        // lineitem routed by l_partkey (not in its key) must be rejected:
        // two rows with the same (orderkey, linenumber) key but different
        // partkeys would land on different shards.
        let err = ShardedDatabase::new(
            &c,
            2,
            RoutingSpec::new()
                .table("part", &["p_partkey"])
                .table("orders", &["o_orderkey"])
                .table("lineitem", &["l_partkey"]),
        )
        .unwrap_err();
        match err {
            CoreError::InvalidView { detail, .. } => {
                assert!(detail.contains("not part of the unique key"), "{detail}")
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn cross_shard_constraints_enforced() {
        let mut db = sharded(4);
        // Unique keys are global: re-inserting an existing lineitem fails
        // even when the duplicate would land on a different shard than the
        // probe (routing is key-aligned, so it cannot).
        let err = db.insert("lineitem", vec![lineitem_row(2, 1, 1, 1, 1.0)]);
        assert!(matches!(
            err,
            Err(CoreError::Storage(StorageError::DuplicateKey { .. }))
        ));
        // FK parents are checked across shards: order 999 exists nowhere.
        let err = db.insert("lineitem", vec![lineitem_row(999, 1, 1, 1, 1.0)]);
        assert!(matches!(
            err,
            Err(CoreError::Storage(StorageError::ForeignKeyViolation { .. }))
        ));
        // FK restrict on delete: order 2 still has lineitems (on possibly
        // other shards than the order row itself). Order 3 is orphaned by
        // the fixture, so deleting it must succeed afterwards.
        let err = db.delete("orders", &[vec![Datum::Int(2)]]);
        assert!(matches!(
            err,
            Err(CoreError::Storage(StorageError::ForeignKeyViolation { .. }))
        ));
        // Deleting a missing key reports KeyNotFound before touching state.
        let err = db.delete("lineitem", &[vec![Datum::Int(777), Datum::Int(1)]]);
        assert!(matches!(
            err,
            Err(CoreError::Storage(StorageError::KeyNotFound { .. }))
        ));
        // Childless parents delete cleanly.
        db.delete("orders", &[vec![Datum::Int(3)]]).unwrap();
    }

    #[test]
    fn snapshots_pin_all_shards_at_one_lsn() {
        let mut db = sharded(3);
        db.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 1.0)])
            .unwrap();
        let snap1 = db.snapshot().unwrap();
        assert_eq!(snap1.lsn(), 1);
        assert!(snap1.parts().iter().all(|p| p.lsn() == 1));
        let before = snap1.view_len("ol_view");
        db.insert("lineitem", vec![lineitem_row(5, 9, 2, 4, 1.0)])
            .unwrap();
        // The pinned snapshot still reads the old version on every shard.
        assert_eq!(snap1.view_len("ol_view"), before);
        let snap2 = db.snapshot().unwrap();
        assert_eq!(snap2.lsn(), 2);
        assert_eq!(snap2.view_len("ol_view"), before + 1);
        // Historical pin at LSN 1 matches the still-held snap1, byte for
        // byte, across shard counts.
        let historic = db.snapshot_at(1).unwrap();
        assert_eq!(
            historic.state_bytes().unwrap(),
            snap1.state_bytes().unwrap()
        );
    }

    /// One panic policy: a panicking view job is an error, not an unwind
    /// through the façade — its sibling views are still maintained on every
    /// shard, every shard's registry still publishes at the one global LSN,
    /// a cross-shard snapshot still pins, and the engine keeps committing.
    #[test]
    fn worker_panic_is_an_error_and_every_shard_still_publishes() {
        let mut db = sharded(4);
        db.create_view(ol_view_def().with_name("panic_me")).unwrap();
        db.create_view(ol_view_def().with_name("after_panic"))
            .unwrap();
        let rows =
            |ln: i64| -> Vec<Row> { (1..=8).map(|ok| lineitem_row(ok, ln, 2, 4, 1.0)).collect() };
        let before = db.commit_lsn();
        let armed = crate::batch::test_panic::arm();
        let err = db.insert("lineitem", rows(70));
        drop(armed);
        match err {
            Err(CoreError::MaintenancePanic { view, detail }) => {
                assert_eq!(view, "panic_me");
                assert!(detail.contains("injected"), "{detail}");
            }
            other => panic!("expected MaintenancePanic, got {other:?}"),
        }
        // Every shard still maintained the views around the panicking one,
        // the one registered after it included.
        for s in db.shards() {
            for view in ["ol_view", "after_panic"] {
                assert!(crate::maintain::verify_against_recompute(
                    s.view(view).unwrap(),
                    s.catalog()
                ));
            }
        }
        assert!(db
            .output("after_panic")
            .unwrap()
            .bag_eq(&db.output("ol_view").unwrap()));
        let lsn = db.commit_lsn();
        assert_eq!(lsn, before + 1);
        assert!(db.shards().all(|s| s.commit_lsn() == lsn));
        let snap = db.snapshot().unwrap();
        assert!(snap.parts().iter().all(|p| p.lsn() == lsn));
        drop(snap);
        db.insert("lineitem", rows(71)).unwrap();
        assert!(db.shards().all(|s| s.commit_lsn() == lsn + 1));
    }

    #[test]
    fn updates_route_and_decompose() {
        let mut one = sharded(1);
        let mut many = sharded(8);
        for db in [&mut one, &mut many] {
            db.update(
                "lineitem",
                &[vec![Datum::Int(2), Datum::Int(1)]],
                vec![lineitem_row(2, 1, 3, 99, 1.0)],
            )
            .unwrap();
        }
        assert_eq!(one.state_bytes().unwrap(), many.state_bytes().unwrap());
        // The stored policies are never touched.
        assert!(many.shards().all(|s| !s.policy.update_decomposition));
    }
}
