//! What the four workloads share: the recorder that turns commits into
//! samples and per-layer sums, the engine adapters (with the traced split of
//! a `Database` commit), the read transaction, and the setup loader.
//!
//! Tracing is done from outside: spans are taken here, around calls into the
//! engine's public functions, and from the `MaintenanceReport`s those calls
//! return. End-to-end numbers come from a run with `traced == false`, where
//! none of the extra timestamps are taken.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ojv_core::prelude::*;
use ojv_tpch::{create_tpch_catalog, TpchGen};

use crate::script::{Key, Op, OpKind};
use crate::vfs::{VfsCounts, VfsStats};

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

/// Latency samples of one kind, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(ns(d));
    }

    /// The `q`-quantile (nearest rank on the sorted samples); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    pub fn min(&self) -> f64 {
        self.0.iter().copied().min().unwrap_or(0) as f64
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().max().unwrap_or(0) as f64
    }

    pub fn merged(parts: &[&Samples]) -> Samples {
        Samples(parts.iter().flat_map(|s| s.0.iter().copied()).collect())
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// Sums of one executor operator over the timed phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpSum {
    pub ns: u64,
    pub rows_in: u64,
    pub rows_out: u64,
}

/// Per-layer sums over the timed commits. Counts are taken in every run
/// (they come free with the reports); `*_ns` fields fed by extra timestamps
/// stay 0 unless the run is traced.
#[derive(Debug, Default)]
pub struct LayerSums {
    // storage
    pub apply_ns: u64,
    pub violating: u64,
    pub refused: u64,
    // core.maintain, from the reports
    pub reports: u64,
    pub view_slots: u64,
    pub delta_rows: u64,
    pub primary_rows: u64,
    pub secondary_rows: u64,
    pub primary_compute_ns: u64,
    pub primary_apply_ns: u64,
    pub secondary_ns: u64,
    pub shared_with: u64,
    /// filter, join_build, join_probe, index_join, dedup, subsume: the order
    /// `spec::PER_LAYER` lists them in.
    pub exec: [OpSum; 6],
    // core.batch / core.snapshot
    pub maintain_wall_ns: u64,
    pub observer_ns: u64,
    pub pin_ns: u64,
    pub pins: u64,
    pub lookup_ns: u64,
    pub lookups: u64,
    pub scan_ns: u64,
    pub scans: u64,
    pub retained_versions: u64,
    pub registry_samples: u64,
    // feed
    pub drain_ns: u64,
    pub delivered_rows: u64,
    pub rebases: u64,
    // durability: file-system calls inside timed commits / checkpoints
    pub vfs_commit: VfsCounts,
    pub vfs_checkpoint: VfsCounts,
    pub checkpoint_ns: u64,
    pub checkpoints: u64,
    // core.shard
    pub route_ns: u64,
    pub skew_sum: f64,
    pub routed_commits: u64,
    pub shard_max_ns: u64,
    pub shard_sum_ns: u64,
}

/// Collects everything one pass over a script measures.
#[derive(Debug)]
pub struct Recorder {
    pub traced: bool,
    /// False during the warm-up ops: nothing is recorded.
    pub timing: bool,
    pub insert: Samples,
    pub delete: Samples,
    pub update: Samples,
    pub read: Samples,
    pub delivery: Samples,
    /// Base rows committed in the timed phase.
    pub rows: u64,
    /// Wall time of the timed phase with the script generator's time taken
    /// out (commits, checkpoints, drains and reads only).
    pub wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub sums: LayerSums,
    /// Commits since the last checkpoint (what a failed recovery loses).
    pub since_checkpoint: u64,
}

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Recorder {
            traced,
            timing: false,
            insert: Samples::default(),
            delete: Samples::default(),
            update: Samples::default(),
            read: Samples::default(),
            delivery: Samples::default(),
            rows: 0,
            wall: Duration::ZERO,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            sums: LayerSums::default(),
            since_checkpoint: 0,
        }
    }

    pub fn commits(&self) -> u64 {
        (self.insert.0.len() + self.delete.0.len() + self.update.0.len()) as u64
    }

    pub fn all_commits(&self) -> Samples {
        Samples::merged(&[&self.insert, &self.delete, &self.update])
    }

    /// Count `weight` failed operations against `what`.
    pub fn fail(&mut self, what: impl Into<String>, weight: u64) {
        self.failed += weight;
        self.failures.push(what.into());
    }

    /// An end-of-run gate: failing it counts `weight` operations as failed.
    pub fn gate(&mut self, what: &str, ok: bool, weight: u64) {
        if !ok {
            self.fail(format!("gate failed: {what}"), weight);
        }
    }

    fn commit_sample(&mut self, kind: OpKind, wall: Duration, rows: usize) {
        match kind {
            OpKind::Insert => self.insert.push(wall),
            OpKind::Delete => self.delete.push(wall),
            OpKind::Update => self.update.push(wall),
        }
        self.rows += rows as u64;
    }

    fn reports(&mut self, reports: &[MaintenanceReport], view_slots: usize, delta_rows: usize) {
        let s = &mut self.sums;
        s.view_slots += view_slots as u64;
        s.delta_rows += delta_rows as u64;
        let (mut max, mut sum) = (0u64, 0u64);
        for r in reports {
            s.reports += 1;
            s.primary_rows += r.primary_rows as u64;
            s.secondary_rows += r.secondary_rows as u64;
            s.primary_compute_ns += ns(r.primary_compute);
            s.primary_apply_ns += ns(r.primary_apply);
            s.secondary_ns += ns(r.secondary_time);
            s.shared_with += r.shared_with as u64;
            let e = &r.exec;
            for (slot, op) in s.exec.iter_mut().zip([
                e.filter,
                e.join_build,
                e.join_probe,
                e.index_join,
                e.dedup,
                e.subsume,
            ]) {
                slot.ns += op.time_ns;
                slot.rows_in += op.rows_in;
                slot.rows_out += op.rows_out;
            }
            let total = ns(r.total_time());
            max = max.max(total);
            sum += total;
        }
        s.shard_max_ns += max;
        s.shard_sum_ns += sum;
    }
}

// ---------------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------------

/// Extra spans of one traced commit that only the adapter can take.
#[derive(Debug, Default)]
pub struct CommitSpans {
    pub apply_ns: u64,
    pub maintain_wall_ns: u64,
}

/// The three facades behind one shape, so one function executes an op
/// against any of them.
pub trait Engine {
    fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>>;
    fn delete(&mut self, table: &str, keys: &[Key]) -> Result<Vec<MaintenanceReport>>;
    fn update(
        &mut self,
        table: &str,
        keys: &[Key],
        rows: Vec<Row>,
    ) -> Result<Vec<MaintenanceReport>>;

    /// The same user operation with the facade's stages called one by one
    /// and timed, where the facade exposes them. Default: it does not.
    fn traced(&mut self, op: Op, _spans: &mut CommitSpans) -> Result<Vec<MaintenanceReport>> {
        self.user_call(op)
    }

    /// `op` as the one call a user would make.
    fn user_call(&mut self, op: Op) -> Result<Vec<MaintenanceReport>> {
        match op {
            Op::Insert { table, rows } | Op::Refused { table, rows } => self.insert(table, rows),
            Op::Delete { table, keys } => self.delete(table, &keys),
            Op::Update { table, keys, rows } => self.update(table, &keys, rows),
            Op::Checkpoint => Ok(Vec::new()),
        }
    }

    /// Registered views (one report slot each per commit).
    fn view_count(&self) -> usize;
    /// Total rows over all views: the state a refused batch must not change.
    fn view_rows(&self) -> usize;
    /// File-system counters, on durable facades.
    fn vfs_counts(&self) -> Option<VfsCounts> {
        None
    }
}

impl Engine for Database {
    fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        Database::insert(self, table, rows)
    }

    fn delete(&mut self, table: &str, keys: &[Key]) -> Result<Vec<MaintenanceReport>> {
        Database::delete(self, table, keys)
    }

    fn update(
        &mut self,
        table: &str,
        keys: &[Key],
        rows: Vec<Row>,
    ) -> Result<Vec<MaintenanceReport>> {
        Database::update(self, table, keys, rows)
    }

    /// `Database::insert` is `apply_insert` then `maintain_update` (and
    /// `update` is a delete and an insert under `update_decomposition`), all
    /// public, so the traced run makes the same calls with a clock between.
    fn traced(&mut self, op: Op, spans: &mut CommitSpans) -> Result<Vec<MaintenanceReport>> {
        fn halves(
            db: &mut Database,
            spans: &mut CommitSpans,
            apply: impl FnOnce(&mut Database) -> Result<Update>,
        ) -> Result<Vec<MaintenanceReport>> {
            let t = Instant::now();
            let update = apply(db)?;
            spans.apply_ns += ns(t.elapsed());
            let t = Instant::now();
            let reports = db.maintain_update(&update);
            spans.maintain_wall_ns += ns(t.elapsed());
            reports
        }
        match op {
            Op::Insert { table, rows } | Op::Refused { table, rows } => {
                halves(self, spans, |db| db.apply_insert(table, rows))
            }
            Op::Delete { table, keys } => halves(self, spans, |db| db.apply_delete(table, &keys)),
            Op::Update { table, keys, rows } => {
                let saved = self.policy;
                self.policy.update_decomposition = true;
                let result = (|| {
                    let mut reports = halves(self, spans, |db| db.apply_delete(table, &keys))?;
                    reports.extend(halves(self, spans, |db| db.apply_insert(table, rows))?);
                    Ok(reports)
                })();
                self.policy = saved;
                result
            }
            Op::Checkpoint => Ok(Vec::new()),
        }
    }

    fn view_count(&self) -> usize {
        self.views().count()
    }

    fn view_rows(&self) -> usize {
        self.views().map(|v| v.len()).sum()
    }
}

/// A durable facade plus the counters of the `TracedVfs`es under it.
pub struct Durable<D> {
    pub db: D,
    pub vfs: std::sync::Arc<VfsStats>,
}

impl<V: Vfs> Engine for Durable<DurableDatabase<V>> {
    fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.db.insert(table, rows)
    }

    fn delete(&mut self, table: &str, keys: &[Key]) -> Result<Vec<MaintenanceReport>> {
        self.db.delete(table, keys)
    }

    fn update(
        &mut self,
        table: &str,
        keys: &[Key],
        rows: Vec<Row>,
    ) -> Result<Vec<MaintenanceReport>> {
        self.db.update(table, keys, rows)
    }

    fn view_count(&self) -> usize {
        self.db.database().views().count()
    }

    fn view_rows(&self) -> usize {
        self.db.database().views().map(|v| v.len()).sum()
    }

    fn vfs_counts(&self) -> Option<VfsCounts> {
        Some(self.vfs.counts())
    }
}

impl<V: Vfs> Engine for Durable<ShardedDurableDatabase<V>> {
    fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.db.insert(table, rows)
    }

    fn delete(&mut self, table: &str, keys: &[Key]) -> Result<Vec<MaintenanceReport>> {
        self.db.delete(table, keys)
    }

    fn update(
        &mut self,
        table: &str,
        keys: &[Key],
        rows: Vec<Row>,
    ) -> Result<Vec<MaintenanceReport>> {
        self.db.update(table, keys, rows)
    }

    fn view_count(&self) -> usize {
        self.db.database().view_names().len()
    }

    fn view_rows(&self) -> usize {
        let db = self.db.database();
        db.view_names()
            .iter()
            .map(|v| db.view_len(v).unwrap_or(0))
            .sum()
    }

    fn vfs_counts(&self) -> Option<VfsCounts> {
        Some(self.vfs.counts())
    }
}

/// Execute one commit op (or an FK-violating batch that must be refused)
/// and record it. Returns the commit's wall time when it was a commit.
pub fn commit<E: Engine>(engine: &mut E, op: Op, rec: &mut Recorder) -> Option<Duration> {
    rec.attempted += 1;
    let rows = op.rows();
    let Some(kind) = op.kind() else {
        // `Op::Refused`: the whole batch must bounce and change nothing.
        let before = engine.view_rows();
        let accepted = engine.user_call(op).is_ok();
        if rec.timing {
            rec.sums.violating += 1;
            rec.sums.refused += u64::from(!accepted);
        }
        if accepted {
            rec.fail("an FK-violating batch was accepted", 1);
        } else if engine.view_rows() != before {
            rec.fail("a refused batch changed a view", 1);
        }
        return None;
    };
    let tracing = rec.traced && rec.timing;
    // Byte and sync counts are exact and free, so every run takes them;
    // only the traced run's `TracedVfs` puts times next to them.
    let vfs_before = engine.vfs_counts();
    let mut spans = CommitSpans::default();
    let start = Instant::now();
    let result = if tracing {
        engine.traced(op, &mut spans)
    } else {
        engine.user_call(op)
    };
    let wall = start.elapsed();
    rec.since_checkpoint += 1;
    let reports = match result {
        Ok(reports) => reports,
        Err(e) => {
            rec.fail(format!("{kind:?} failed: {e}"), 1);
            return None;
        }
    };
    if rec.timing {
        rec.commit_sample(kind, wall, rows);
        // An `UPDATE` is a delete and an insert inside: two deltas of
        // `rows` rows, two report slots per view.
        let deltas = if kind == OpKind::Update { 2 } else { 1 };
        rec.reports(&reports, engine.view_count() * deltas, rows * deltas);
        rec.sums.apply_ns += spans.apply_ns;
        rec.sums.maintain_wall_ns += spans.maintain_wall_ns;
        if let (Some(before), Some(after)) = (vfs_before, engine.vfs_counts()) {
            rec.sums.vfs_commit.add(&after.since(&before));
        }
    }
    black_box(&reports);
    Some(wall)
}

// ---------------------------------------------------------------------------
// Feed observer span
// ---------------------------------------------------------------------------

/// Times the forwarded `on_commit` of the observer it wraps (the feed hub):
/// the `feed` span of a traced commit.
#[derive(Debug)]
pub struct TimedObserver<O> {
    inner: O,
    ns: AtomicU64,
}

impl<O> TimedObserver<O> {
    pub fn new(inner: O) -> Self {
        TimedObserver {
            inner,
            ns: AtomicU64::new(0),
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

impl<O: CommitObserver> CommitObserver for TimedObserver<O> {
    fn on_commit(&self, lsn: ojv_durability::Lsn, updates: &[(String, Vec<ViewOp>)]) {
        let start = Instant::now();
        self.inner.on_commit(lsn, updates);
        self.ns.fetch_add(ns(start.elapsed()), Ordering::Relaxed);
    }

    fn fanout_stats(&self) -> Option<FanoutStats> {
        self.inner.fanout_stats()
    }
}

// ---------------------------------------------------------------------------
// Read transaction
// ---------------------------------------------------------------------------

/// Lookups per read transaction; half of the keys exist.
pub const READ_LOOKUPS: usize = 256;

/// The inputs of the read transaction, sampled from the initial view state
/// during setup so the timed phase only reads.
#[derive(Debug, Clone)]
pub struct ReadSet {
    pub view: String,
    keys: Vec<Key>,
    /// Wide-row index of `l_extendedprice`, the column the scan sums.
    sum_col: usize,
}

impl ReadSet {
    /// Sample keys from `parts` (the view's image, one per shard).
    pub fn sample(view: &str, parts: &[&SnapshotView]) -> ReadSet {
        let first = parts[0];
        let out = first
            .schema()
            .index_of("lineitem", "l_extendedprice")
            .expect("every benchmark view carries lineitem");
        let sum_col = first.projection()[out];
        let key_cols = first.key_cols();
        let rows: Vec<&Row> = parts.iter().flat_map(|p| p.wide_rows()).collect();
        let hits = READ_LOOKUPS / 2;
        let mut keys = Vec::with_capacity(READ_LOOKUPS);
        for i in 0..hits.min(rows.len()) {
            let row = rows[i * rows.len() / hits.min(rows.len())];
            let key: Key = key_cols.iter().map(|&c| row[c].clone()).collect();
            // The miss twin: same shape, integer parts no row ever has.
            let miss = key
                .iter()
                .map(|d| match d {
                    Datum::Int(v) => Datum::Int(-1 - v),
                    other => other.clone(),
                })
                .collect();
            keys.push(key);
            keys.push(miss);
        }
        ReadSet {
            view: view.to_string(),
            keys,
            sum_col,
        }
    }

    /// One read transaction on a pinned image: the point lookups, then a
    /// full scan summing one column. Records one `read` sample.
    pub fn read(&self, parts: &[&SnapshotView], rec: &mut Recorder) {
        let start = Instant::now();
        let mut found = 0usize;
        for key in &self.keys {
            found += usize::from(parts.iter().any(|p| p.get_by_key(key).is_some()));
        }
        black_box(found);
        let looked_up = Instant::now();
        let mut sum = 0.0;
        for part in parts {
            for row in part.wide_rows() {
                if let Datum::Float(v) = row[self.sum_col] {
                    sum += v;
                }
            }
        }
        black_box(sum);
        let end = Instant::now();
        if rec.timing {
            rec.read.push(end - start);
            rec.sums.lookup_ns += ns(looked_up - start);
            rec.sums.lookups += self.keys.len() as u64;
            rec.sums.scan_ns += ns(end - looked_up);
            rec.sums.scans += 1;
        }
    }
}

/// Pin the newest snapshot, recording the pin's cost.
pub fn pin<S>(take: impl FnOnce() -> Result<S>, rec: &mut Recorder) -> Option<S> {
    let start = Instant::now();
    let snap = take();
    if rec.timing {
        rec.sums.pin_ns += ns(start.elapsed());
        rec.sums.pins += 1;
    }
    match snap {
        Ok(s) => Some(s),
        Err(e) => {
            rec.fail(format!("snapshot pin failed: {e}"), 1);
            None
        }
    }
}

/// Sample the snapshot registry's retained history (traced runs only: it
/// takes the registry lock).
pub fn sample_registry(registry: &SnapshotRegistry, rec: &mut Recorder) {
    if rec.traced && rec.timing {
        rec.sums.retained_versions += registry.stats().retained_versions as u64;
        rec.sums.registry_samples += 1;
    }
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

/// Spans of one setup, by the layer that spent them.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupSpans {
    pub total: Duration,
    pub gen: Duration,
    pub populate: Duration,
    pub view_create: Duration,
    pub register: Duration,
}

/// Generate and load TPC-H, as `TpchGen::populate` does, with generation and
/// loading timed apart.
pub fn load_tpch(gen: &TpchGen, spans: &mut SetupSpans) -> Catalog {
    let mut catalog = create_tpch_catalog().expect("TPC-H schema builds");
    // The generated data is FK-consistent by construction; like
    // `TpchGen::populate`, suspend enforcement for the bulk load only.
    catalog.enforce_constraints = false;
    let mut load = |table: &str, make: &dyn Fn() -> Vec<Row>| {
        let t = Instant::now();
        let rows = make();
        spans.gen += t.elapsed();
        let t = Instant::now();
        catalog.insert(table, rows).expect("TPC-H data loads");
        spans.populate += t.elapsed();
    };
    load("region", &|| gen.gen_region());
    load("nation", &|| gen.gen_nation());
    load("supplier", &|| gen.gen_supplier());
    load("part", &|| gen.gen_part());
    load("partsupp", &|| gen.gen_partsupp());
    load("customer", &|| gen.gen_customer());
    let t = Instant::now();
    let (orders, lines) = gen.gen_orders_and_lineitems();
    spans.gen += t.elapsed();
    let t = Instant::now();
    catalog.insert("orders", orders).expect("orders load");
    catalog.insert("lineitem", lines).expect("lineitem loads");
    spans.populate += t.elapsed();
    catalog.enforce_constraints = true;
    catalog
}

/// Columnar heap footprint of a catalog, in bytes.
pub fn heap_bytes(catalog: &Catalog) -> usize {
    catalog.tables().map(|t| t.heap().approx_bytes()).sum()
}

/// Mean cost of compiling one maintenance plan, probed directly on
/// `compile_uncached` (no cache, no counter) over every (view, table) pair.
pub fn plan_probe_us<'a>(
    views: impl Iterator<Item = &'a MaterializedView>,
    catalog: &Catalog,
    policy: &MaintenancePolicy,
) -> f64 {
    let cfg = PlanConfig::of(policy);
    let (mut total, mut plans) = (Duration::ZERO, 0u32);
    for view in views {
        for table in ["lineitem", "orders", "customer", "part"] {
            let Some(t) = view.analysis.layout.table_id(table) else {
                continue;
            };
            let start = Instant::now();
            let plan = ojv_core::compile::compile_uncached(&view.analysis, catalog, t, cfg);
            total += start.elapsed();
            plans += 1;
            black_box(plan.is_ok());
        }
    }
    if plans == 0 {
        0.0
    } else {
        total.as_secs_f64() * 1e6 / f64::from(plans)
    }
}
