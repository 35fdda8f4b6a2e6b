//! The four workloads: how each one builds its engine, what it does around
//! every commit, and the gates it must pass at the end.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ojv_core::prelude::*;
use ojv_feed::{
    scan_state_bytes, Drained, FeedFilter, FeedHub, Resumed, SubscriberState, Subscription,
    SubscriptionSpec,
};

use crate::run::{
    commit, heap_bytes, load_tpch, ns, pin, plan_probe_us, sample_registry, Durable, ReadSet,
    Recorder, SetupSpans, TimedObserver,
};
use crate::script::{base_data, Op, Profile};
use crate::vfs::{TracedVfs, VfsStats};
use crate::views::{ol_def, tpch_routing, v3_def, v3_family, OL, V3};

/// What one setup (and the pass that follows it) is given.
pub struct Ctx {
    pub profile: Profile,
    /// Seed of the op script (the database is the same for every seed).
    pub seed: u64,
    /// Take the traced run's extra timestamps in this pass.
    pub traced: bool,
    /// A fresh directory for this setup's WALs and checkpoints.
    pub dir: PathBuf,
}

/// Values only known once a pass is over.
#[derive(Debug, Default)]
pub struct Finals {
    pub heap_bytes: usize,
    pub plan_us: f64,
    pub high_water_ops: u64,
    pub evals_per_commit: u64,
    pub recovery: Duration,
    pub replayed_records: u64,
    /// Recovery time outside file-system calls: checkpoint decode plus
    /// replay through the engine (traced runs only).
    pub replay_ns: u64,
    pub verify: Duration,
}

pub trait Bench: Sized {
    /// Everything before the first commit: data generation, load, view
    /// creation, subscriber registration or durable create.
    fn setup(ctx: &Ctx) -> (Self, SetupSpans);

    /// The warm-up is over; remember counter baselines.
    fn begin_timing(&mut self) {}

    /// One op of the script and whatever the workload does around it.
    fn step(&mut self, op: Op, rec: &mut Recorder);

    /// Crash and recover (durable facades), then run the end-of-run gates.
    fn finish(self, ctx: &Ctx, rec: &mut Recorder) -> Finals;
}

/// Commits between read transactions on the workloads whose reader does not
/// span commits.
const READ_EVERY: u64 = 10;

type DiskLog = TracedVfs<DiskVfs>;

fn open_log(dir: PathBuf, stats: &Arc<VfsStats>, timed: bool) -> DiskLog {
    let disk = DiskVfs::open(dir).expect("scratch directory opens");
    TracedVfs::new(disk, Arc::clone(stats), timed).expect("scratch directory lists")
}

fn create_timed(spans: &mut SetupSpans, create: impl FnOnce()) {
    let t = Instant::now();
    create();
    spans.view_create += t.elapsed();
}

/// The gates every workload shares: each view equals its recomputation, and
/// the snapshot registry holds no pin and never retained history (unless
/// the workload's reader spans commits).
fn verify_views(db: &Database, rec: &mut Recorder, pins_span_commits: bool) -> u64 {
    for view in db.views() {
        let ok = verify_against_recompute(view, db.catalog());
        rec.gate(&format!("{} == recompute", view.name()), ok, 1);
    }
    let stats = db.snapshots().stats();
    rec.gate("no pin left at exit", stats.active_pins == 0, 1);
    if !pins_span_commits {
        rec.gate(
            "pin-free workload retained no history",
            stats.high_water_ops == 0,
            1,
        );
    }
    stats.high_water_ops as u64
}

/// A scripted `checkpoint()`: timed as a whole, with the file-system work
/// it caused booked apart from the commits'.
fn checkpoint(vfs: &VfsStats, run: impl FnOnce() -> Result<()>, rec: &mut Recorder) {
    let before = vfs.counts();
    let start = Instant::now();
    if let Err(e) = run() {
        rec.fail(format!("checkpoint failed: {e}"), 1);
    }
    if rec.timing {
        rec.sums.checkpoint_ns += ns(start.elapsed());
        rec.sums.checkpoints += 1;
        rec.sums.vfs_checkpoint.add(&vfs.counts().since(&before));
    }
    rec.since_checkpoint = 0;
}

fn snapshot_parts<'a>(snap: &'a Snapshot, view: &str) -> Vec<&'a SnapshotView> {
    snap.view(view).into_iter().collect()
}

// ---------------------------------------------------------------------------
// v3_stream
// ---------------------------------------------------------------------------

pub struct V3Stream {
    db: Database,
    reads: ReadSet,
    commits: u64,
}

impl Bench for V3Stream {
    fn setup(ctx: &Ctx) -> (Self, SetupSpans) {
        let mut spans = SetupSpans::default();
        let start = Instant::now();
        let gen = base_data(ctx.profile.sf);
        let mut db = Database::new(load_tpch(&gen, &mut spans));
        create_timed(&mut spans, || {
            db.create_view(v3_def(V3, 2000.0)).expect("V3 materializes");
        });
        let reads = {
            let snap = db.snapshot().expect("snapshot pins");
            ReadSet::sample(V3, &snapshot_parts(&snap, V3))
        };
        spans.total = start.elapsed();
        (
            V3Stream {
                db,
                reads,
                commits: 0,
            },
            spans,
        )
    }

    fn step(&mut self, op: Op, rec: &mut Recorder) {
        if commit(&mut self.db, op, rec).is_none() {
            return;
        }
        self.commits += 1;
        if self.commits.is_multiple_of(READ_EVERY) {
            if let Some(snap) = pin(|| self.db.snapshot(), rec) {
                self.reads.read(&snapshot_parts(&snap, V3), rec);
            }
        }
        sample_registry(self.db.snapshots(), rec);
    }

    fn finish(self, ctx: &Ctx, rec: &mut Recorder) -> Finals {
        let start = Instant::now();
        let high_water_ops = verify_views(&self.db, rec, false);
        let verify = start.elapsed();
        Finals {
            heap_bytes: heap_bytes(self.db.catalog()),
            plan_us: if ctx.traced {
                plan_probe_us(self.db.views(), self.db.catalog(), &self.db.policy)
            } else {
                0.0
            },
            high_water_ops,
            verify,
            ..Finals::default()
        }
    }
}

// ---------------------------------------------------------------------------
// durable_oltp
// ---------------------------------------------------------------------------

pub struct DurableOltp {
    engine: Durable<DurableDatabase<DiskLog>>,
    reads: ReadSet,
    commits: u64,
}

impl Bench for DurableOltp {
    fn setup(ctx: &Ctx) -> (Self, SetupSpans) {
        let mut spans = SetupSpans::default();
        let start = Instant::now();
        let gen = base_data(ctx.profile.sf);
        let catalog = load_tpch(&gen, &mut spans);
        let vfs = Arc::new(VfsStats::default());
        let log = open_log(ctx.dir.join("db"), &vfs, ctx.traced);
        // `MaintenancePolicy::default()` carries fsync = Always.
        let mut db = DurableDatabase::create(log, catalog, MaintenancePolicy::default())
            .expect("durable database creates");
        create_timed(&mut spans, || {
            db.create_view(v3_def(V3, 2000.0)).expect("V3 materializes");
            db.create_view(ol_def()).expect("ol materializes");
        });
        let reads = {
            let snap = db.snapshot().expect("snapshot pins");
            ReadSet::sample(V3, &snapshot_parts(&snap, V3))
        };
        spans.total = start.elapsed();
        (
            DurableOltp {
                engine: Durable { db, vfs },
                reads,
                commits: 0,
            },
            spans,
        )
    }

    fn step(&mut self, op: Op, rec: &mut Recorder) {
        if matches!(op, Op::Checkpoint) {
            let db = &mut self.engine.db;
            checkpoint(&self.engine.vfs, || db.checkpoint().map(drop), rec);
            return;
        }
        if commit(&mut self.engine, op, rec).is_none() {
            return;
        }
        self.commits += 1;
        if self.commits.is_multiple_of(READ_EVERY) {
            if let Some(snap) = pin(|| self.engine.db.snapshot(), rec) {
                self.reads.read(&snapshot_parts(&snap, V3), rec);
            }
        }
        sample_registry(self.engine.db.snapshots(), rec);
    }

    fn finish(self, ctx: &Ctx, rec: &mut Recorder) -> Finals {
        let start = Instant::now();
        let db = self.engine.db;
        let stats = db.snapshots().stats();
        rec.gate("no pin left at exit", stats.active_pins == 0, 1);
        rec.gate(
            "pin-free workload retained no history",
            stats.high_water_ops == 0,
            1,
        );
        let acknowledged = db.state_bytes().expect("state encodes");
        let lost_if_wrong = rec.since_checkpoint.max(1);
        let before_crash = start.elapsed();

        // Crash: keep only what the last sync of each file covered.
        let (disk, _discarded) = db.into_vfs().crash().expect("crash truncates");
        let vfs = Arc::new(VfsStats::default());
        let log = TracedVfs::new(disk, Arc::clone(&vfs), ctx.traced).expect("directory lists");
        let reopen = Instant::now();
        let opened = DurableDatabase::open(log, MaintenancePolicy::default());
        let recovery = reopen.elapsed();
        let mut fin = Finals {
            recovery,
            high_water_ops: stats.high_water_ops as u64,
            ..Finals::default()
        };
        let verify_start = Instant::now();
        match opened {
            Ok((recovered, report)) => {
                fin.replayed_records = report.replayed_updates as u64;
                fin.replay_ns = ns(recovery).saturating_sub(vfs.counts().total_ns());
                let same = recovered.state_bytes().is_ok_and(|b| b == acknowledged);
                rec.gate(
                    "recovered state == last acknowledged commit",
                    same,
                    lost_if_wrong,
                );
                verify_views(recovered.database(), rec, false);
                fin.heap_bytes = heap_bytes(recovered.database().catalog());
                if ctx.traced {
                    let inner = recovered.database();
                    fin.plan_us = plan_probe_us(inner.views(), inner.catalog(), &inner.policy);
                }
            }
            Err(e) => rec.fail(format!("recovery failed: {e}"), lost_if_wrong),
        }
        fin.verify = before_crash + verify_start.elapsed();
        fin
    }
}

// ---------------------------------------------------------------------------
// fanout_read
// ---------------------------------------------------------------------------

/// A subscriber whose applied stream is checked against a fresh scan.
struct Sampled {
    sub: Subscription,
    spec: SubscriptionSpec,
    state: SubscriberState,
}

pub struct FanoutRead {
    db: Database,
    hub: FeedHub,
    /// The hub behind a stopwatch: attached instead of the bare hub in the
    /// traced run.
    observer: Option<Arc<TimedObserver<FeedHub>>>,
    subs: Vec<Subscription>,
    sampled: Vec<Sampled>,
    reads: ReadSet,
    /// The pin taken before the previous commit; released after this one's
    /// read, so a pin always spans a commit.
    held: Option<Snapshot>,
    observer_ns_at_start: u64,
    hub_ns_at_start: u64,
}

/// `distinct` specs over the view family: price thresholds spread across the
/// observed `l_extendedprice` range, alternately with the full projection
/// and projecting only the price, dealt round-robin over the views.
fn feed_specs(db: &Database, views: &[(String, f64)], distinct: usize) -> Vec<SubscriptionSpec> {
    let snap = db.snapshot().expect("snapshot pins");
    let first = snap.view(&views[0].0).expect("family view in snapshot");
    let price = first
        .schema()
        .index_of("lineitem", "l_extendedprice")
        .expect("price column in view output");
    let wide = first.projection()[price];
    let (mut lo, mut hi) = (f64::MAX, f64::MIN);
    for row in first.wide_rows() {
        if let Datum::Float(v) = row[wide] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if lo >= hi {
        (lo, hi) = (0.0, 1.0);
    }
    let per_view = distinct.div_ceil(views.len());
    (0..distinct)
        .map(|s| {
            let (view, _) = &views[s % views.len()];
            let j = s / views.len();
            let threshold = lo + (hi - lo) * (j / 2 + 1) as f64 / (per_view / 2 + 2) as f64;
            let spec = SubscriptionSpec::on(view).with_filter(FeedFilter::cmp(
                price,
                CmpOp::Gt,
                Datum::Float(threshold),
            ));
            if j % 2 == 1 {
                spec.with_projection(vec![price])
            } else {
                spec
            }
        })
        .collect()
}

impl FanoutRead {
    /// Drain every subscriber; returns when the last one holds this
    /// commit's update sets.
    fn drain_all(&mut self, rec: &mut Recorder) {
        let mut delivered = 0u64;
        let mut rebases = 0u64;
        let mut tally = |drained: &Drained| match drained {
            Drained::Updates(sets) => {
                for set in sets {
                    let (ins, del) = set.counts();
                    delivered += (ins + del) as u64;
                }
            }
            Drained::Rebase(image) => {
                delivered += image.rows.len() as u64;
                rebases += 1;
            }
        };
        for sub in &self.subs {
            match sub.drain() {
                Ok(drained) => tally(&drained),
                Err(e) => rec.fail(format!("drain failed: {e}"), 1),
            }
        }
        for s in &mut self.sampled {
            match s.sub.drain() {
                Ok(drained) => {
                    tally(&drained);
                    match drained {
                        Drained::Updates(sets) => {
                            sets.iter().for_each(|set| s.state.apply(set));
                        }
                        Drained::Rebase(image) => s.state.rebase(&image),
                    }
                }
                Err(e) => rec.fail(format!("drain failed: {e}"), 1),
            }
        }
        if rec.timing {
            rec.sums.delivered_rows += delivered;
            rec.sums.rebases += rebases;
        }
    }
}

impl Bench for FanoutRead {
    fn setup(ctx: &Ctx) -> (Self, SetupSpans) {
        let mut spans = SetupSpans::default();
        let start = Instant::now();
        let gen = base_data(ctx.profile.sf);
        let mut db = Database::new(load_tpch(&gen, &mut spans));
        let family = v3_family();
        create_timed(&mut spans, || {
            for (name, cutoff) in &family {
                db.create_view(v3_def(name, *cutoff))
                    .expect("family view materializes");
            }
        });

        let registering = Instant::now();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        let observer = ctx.traced.then(|| {
            let timed = Arc::new(TimedObserver::new(hub.clone()));
            db.attach_commit_observer(Arc::clone(&timed) as Arc<dyn CommitObserver>);
            timed
        });
        let specs = feed_specs(&db, &family, ctx.profile.specs);
        let n_sampled = 16.min(ctx.profile.subscribers);
        let tip = db.commit_lsn();
        // `resume` at the tip skips the initial image scan `subscribe` runs,
        // so the population registers in O(subscribers).
        let subs = (0..ctx.profile.subscribers - n_sampled)
            .map(|i| {
                let (sub, resumed) = hub
                    .resume(&specs[i % specs.len()], tip)
                    .expect("resume at the tip");
                assert!(matches!(resumed, Resumed::Stream), "tip resumes stream");
                sub
            })
            .collect();
        let sampled = (0..n_sampled)
            .map(|i| {
                let spec = specs[i * specs.len() / n_sampled].clone();
                let (sub, image) = hub.subscribe(&spec).expect("subscribe");
                Sampled {
                    sub,
                    spec,
                    state: SubscriberState::new(&image),
                }
            })
            .collect();
        spans.register = registering.elapsed();

        let reads = {
            let snap = db.snapshot().expect("snapshot pins");
            ReadSet::sample(&family[0].0, &snapshot_parts(&snap, &family[0].0))
        };
        spans.total = start.elapsed();
        (
            FanoutRead {
                db,
                hub,
                observer,
                subs,
                sampled,
                reads,
                held: None,
                observer_ns_at_start: 0,
                hub_ns_at_start: 0,
            },
            spans,
        )
    }

    fn begin_timing(&mut self) {
        self.observer_ns_at_start = self.observer.as_ref().map_or(0, |o| o.total_ns());
        self.hub_ns_at_start = self.hub.stats().total_fanout_nanos;
    }

    fn step(&mut self, op: Op, rec: &mut Recorder) {
        let before = pin(|| self.db.snapshot(), rec);
        let Some(commit_wall) = commit(&mut self.db, op, rec) else {
            return;
        };
        let draining = Instant::now();
        self.drain_all(rec);
        let drain = draining.elapsed();
        if rec.timing {
            rec.sums.drain_ns += ns(drain);
            rec.delivery.push(commit_wall + drain);
        }
        sample_registry(self.db.snapshots(), rec);
        if let Some(snap) = &before {
            self.reads
                .read(&snapshot_parts(snap, &self.reads.view), rec);
        }
        // Dropping the previous pin releases it.
        self.held = before;
    }

    fn finish(mut self, ctx: &Ctx, rec: &mut Recorder) -> Finals {
        let start = Instant::now();
        self.held = None;
        if let Some(observer) = &self.observer {
            rec.sums.observer_ns = observer.total_ns() - self.observer_ns_at_start;
            let hub_ns = self.hub.stats().total_fanout_nanos - self.hub_ns_at_start;
            rec.gate(
                "observer span covers the hub's own fan-out time",
                rec.sums.observer_ns >= hub_ns,
                1,
            );
        }
        rec.gate("no fan-out job failed", self.hub.take_error().is_none(), 1);
        self.drain_all(rec);
        {
            let snap = self.db.snapshot().expect("snapshot pins");
            for s in &self.sampled {
                let scanned = snap
                    .view(&s.spec.view)
                    .and_then(|v| scan_state_bytes(v, &s.spec).ok());
                rec.gate(
                    "sampled subscriber == fresh filtered scan",
                    scanned.is_some_and(|bytes| bytes == s.state.state_bytes()),
                    1,
                );
            }
        }
        let evals_per_commit = self.hub.stats().shared_evals as u64;
        self.subs.clear();
        self.sampled.clear();
        let high_water_ops = verify_views(&self.db, rec, true);
        let verify = start.elapsed();
        Finals {
            heap_bytes: heap_bytes(self.db.catalog()),
            plan_us: if ctx.traced {
                plan_probe_us(self.db.views(), self.db.catalog(), &self.db.policy)
            } else {
                0.0
            },
            high_water_ops,
            evals_per_commit,
            verify,
            ..Finals::default()
        }
    }
}

// ---------------------------------------------------------------------------
// sharded_refresh
// ---------------------------------------------------------------------------

pub const SHARDS: usize = 2;

pub struct ShardedRefresh {
    engine: Durable<ShardedDurableDatabase<DiskLog>>,
    reads: ReadSet,
    commits: u64,
}

fn sharded_parts<'a>(snap: &'a ShardedSnapshot, view: &str) -> Vec<&'a SnapshotView> {
    snap.parts().iter().filter_map(|p| p.view(view)).collect()
}

impl ShardedRefresh {
    /// Replay the facade's routing decision over the batch, outside the
    /// commit: what routing costs and how evenly the rows spread.
    fn trace_routing(&self, op: &Op, rec: &mut Recorder) {
        let db = self.engine.db.database();
        let (table, rows): (&str, &[Vec<Datum>]) = match op {
            Op::Insert { table, rows } | Op::Update { table, rows, .. } => (table, rows),
            // Routing columns are a prefix of the key (o_orderkey,
            // l_orderkey), so a key routes like its row.
            Op::Delete { table, keys } => (table, keys),
            Op::Refused { .. } | Op::Checkpoint => return,
        };
        let mut per_shard = [0u64; SHARDS];
        let start = Instant::now();
        for row in rows {
            if let Ok(shard) = db.shard_of_row(table, row) {
                per_shard[shard.index()] += 1;
            }
        }
        rec.sums.route_ns += ns(start.elapsed());
        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
        let mean = rows.len() as f64 / SHARDS as f64;
        if mean > 0.0 {
            rec.sums.skew_sum += max / mean;
            rec.sums.routed_commits += 1;
        }
    }
}

impl Bench for ShardedRefresh {
    fn setup(ctx: &Ctx) -> (Self, SetupSpans) {
        let mut spans = SetupSpans::default();
        let start = Instant::now();
        let gen = base_data(ctx.profile.sf);
        let catalog = load_tpch(&gen, &mut spans);
        let vfs = Arc::new(VfsStats::default());
        let shard_logs = (0..SHARDS)
            .map(|s| open_log(ctx.dir.join(format!("shard{s}")), &vfs, ctx.traced))
            .collect();
        let coordinator = open_log(ctx.dir.join("coordinator"), &vfs, ctx.traced);
        let mut db = ShardedDurableDatabase::create(
            shard_logs,
            coordinator,
            &catalog,
            tpch_routing(),
            MaintenancePolicy::default(),
        )
        .expect("sharded durable database creates");
        drop(catalog);
        create_timed(&mut spans, || {
            db.create_view(ol_def()).expect("ol is orderkey-aligned");
        });
        let reads = {
            let snap = db.snapshot().expect("snapshot pins");
            ReadSet::sample(OL, &sharded_parts(&snap, OL))
        };
        spans.total = start.elapsed();
        (
            ShardedRefresh {
                engine: Durable { db, vfs },
                reads,
                commits: 0,
            },
            spans,
        )
    }

    fn step(&mut self, op: Op, rec: &mut Recorder) {
        if matches!(op, Op::Checkpoint) {
            let db = &mut self.engine.db;
            checkpoint(&self.engine.vfs, || db.checkpoint().map(drop), rec);
            return;
        }
        if rec.traced && rec.timing {
            self.trace_routing(&op, rec);
        }
        if commit(&mut self.engine, op, rec).is_none() {
            return;
        }
        self.commits += 1;
        if self.commits.is_multiple_of(READ_EVERY) {
            if let Some(snap) = pin(|| self.engine.db.snapshot(), rec) {
                self.reads.read(&sharded_parts(&snap, OL), rec);
            }
        }
    }

    fn finish(self, ctx: &Ctx, rec: &mut Recorder) -> Finals {
        let start = Instant::now();
        let db = self.engine.db;
        let mut high_water_ops = 0;
        for shard in db.database().shards() {
            let stats = shard.snapshots().stats();
            rec.gate("no pin left at exit", stats.active_pins == 0, 1);
            high_water_ops += stats.high_water_ops as u64;
        }
        rec.gate(
            "pin-free workload retained no history",
            high_water_ops == 0,
            1,
        );
        let acknowledged = db.state_bytes().expect("state encodes");
        let lost_if_wrong = rec.since_checkpoint.max(1);
        let before_crash = start.elapsed();

        let (shard_logs, coordinator) = db.into_vfs();
        let vfs = Arc::new(VfsStats::default());
        let mut reopen_log = |log: DiskLog| {
            let (disk, _discarded) = log.crash().expect("crash truncates");
            TracedVfs::new(disk, Arc::clone(&vfs), ctx.traced).expect("directory lists")
        };
        let shard_logs: Vec<DiskLog> = shard_logs.into_iter().map(&mut reopen_log).collect();
        let coordinator = reopen_log(coordinator);
        let reopen = Instant::now();
        let opened =
            ShardedDurableDatabase::open(shard_logs, coordinator, MaintenancePolicy::default());
        let recovery = reopen.elapsed();
        let mut fin = Finals {
            recovery,
            high_water_ops,
            ..Finals::default()
        };
        let verify_start = Instant::now();
        match opened {
            Ok((recovered, report)) => {
                fin.replayed_records = report.replayed_updates as u64;
                fin.replay_ns = ns(recovery).saturating_sub(vfs.counts().total_ns());
                let same = recovered.state_bytes().is_ok_and(|b| b == acknowledged);
                rec.gate(
                    "recovered state == last acknowledged commit",
                    same,
                    lost_if_wrong,
                );
                for shard in recovered.database().shards() {
                    for view in shard.views() {
                        let ok = verify_against_recompute(view, shard.catalog());
                        rec.gate("shard view == recompute", ok, 1);
                    }
                    fin.heap_bytes += heap_bytes(shard.catalog());
                }
                if ctx.traced {
                    if let Some(shard) = recovered.database().shards().next() {
                        fin.plan_us = plan_probe_us(shard.views(), shard.catalog(), &shard.policy);
                    }
                }
            }
            Err(e) => rec.fail(format!("recovery failed: {e}"), lost_if_wrong),
        }
        fin.verify = before_crash + verify_start.elapsed();
        fin
    }
}
