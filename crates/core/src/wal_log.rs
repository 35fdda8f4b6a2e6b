//! [`WalLog`]: the single-stream log topology, and the
//! [`DurableDatabase`] instantiation of [`Durable`] over it.
//!
//! One WAL in one directory, fsynced per [`ojv_durability::FsyncPolicy`];
//! the record's own LSN is the commit LSN. The engine above is an N = 1
//! [`crate::shard::ShardedDatabase`] that *adopted* the caller's catalog
//! (no row copied, the catalog's own constraint flag in charge), so
//! [`DurableDatabase::database`] is a plain [`Database`].
//!
//! [`Durable::checkpoint`] serializes the catalog and every view store (rows
//! in heap order plus the canonical count-index snapshot) to an atomic
//! snapshot stamped with the WAL high-water LSN, then prunes WAL segments
//! and older checkpoints. DDL ([`Durable::create_view`],
//! [`DurableDatabase::create_deferred_view`]) checkpoints immediately — view
//! definitions live in snapshots, not the log.
//!
//! # Deferred views
//!
//! This topology also owns the deferred views: a deferred view's *pending
//! queue* is exactly "the logged updates newer than its refresh watermark",
//! so it is fed by [`CommitLog::append`] and never checkpointed. Its
//! snapshot carries the **refresh watermark**: the LSN of the last update
//! reflected in the view's store. Recovery re-enqueues every logged update
//! with `lsn > watermark`, and replays [`REC_REFRESH`] markers by re-running
//! the deterministic [`DeferredView::refresh`] — so a refresh that was
//! durable before the crash is durable after it, and one that was not is
//! simply re-done from the queue. Replaying the same WAL tail twice (the
//! idempotence the watermark buys) cannot double-apply a batch.

use ojv_durability::{
    is_checkpoint_file, is_segment_file, prune_checkpoints, read_latest_checkpoint,
    write_checkpoint, DurabilityError, Lsn, Vfs, Wal, WalOptions, WalRecord,
};
use ojv_rel::{put_str, put_u64, ByteReader};
use ojv_storage::{Catalog, Update};

use crate::checkpoint_state::{encode_state, restore_state};
use crate::database::Database;
use crate::deferred::DeferredView;
use crate::durable::{
    decode_update_record, open_wal_after, replay_update, update_record, CommitLog, Durable,
    DurableDatabase, REC_UPDATE,
};
use crate::error::{CoreError, Result};
use crate::maintain::MaintenanceReport;
use crate::materialize::MaterializedView;
use crate::policy::MaintenancePolicy;
use crate::shard::ShardedDatabase;
use crate::view_def::ViewDef;

/// WAL record kind: a deferred view completed a refresh.
/// Payload: `[str view name][u64 up_to_lsn]`.
pub const REC_REFRESH: u8 = 2;

struct DurableDeferred {
    dv: DeferredView,
    /// LSN of the newest WAL record reflected in the view's store (set by
    /// refresh / view creation). Pending entries are exactly the logged
    /// updates with a greater LSN.
    watermark: Lsn,
}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// High-water LSN of the checkpoint the state was loaded from.
    pub checkpoint_lsn: Lsn,
    /// `REC_UPDATE` records re-applied to the catalog and eager views.
    pub replayed_updates: usize,
    /// Update batches re-enqueued onto deferred views' pending queues.
    pub reenqueued: usize,
    /// `REC_REFRESH` markers replayed through [`DeferredView::refresh`].
    pub replayed_refreshes: usize,
    /// Newest LSN in the recovered log (0 if the log was empty).
    pub last_lsn: Lsn,
    /// Why the WAL tail was cut, when a torn/corrupt record was found.
    pub wal_truncated: Option<String>,
}

/// One WAL stream in one directory (see module docs).
pub struct WalLog<V: Vfs> {
    vfs: V,
    wal: Wal,
    deferred: Vec<DurableDeferred>,
    checkpoint_lsn: Lsn,
}

impl<V: Vfs> WalLog<V> {
    fn deferred_sections(&self) -> Vec<(&MaterializedView, Lsn)> {
        self.deferred
            .iter()
            .map(|d| (d.dv.view(), d.watermark))
            .collect()
    }
}

impl<V: Vfs> CommitLog for WalLog<V> {
    /// One record, flushed per the WAL's fsync policy; its LSN is the commit
    /// LSN. The delta joins every deferred view's queue here, at the point
    /// it enters the log — the queue *is* the log suffix above the
    /// watermark, which is also how recovery rebuilds it.
    fn append(&mut self, updates: &[Option<Update>], decomposed: bool) -> Result<Lsn> {
        let [Some(update)] = updates else {
            unreachable!("a WalLog sits under exactly one shard, which every commit touches");
        };
        let payload = update_record(update, decomposed)?;
        let lsn = self.wal.append(&mut self.vfs, REC_UPDATE, &payload)?;
        for d in &mut self.deferred {
            d.dv.enqueue(update);
        }
        Ok(lsn)
    }

    /// Checkpoint at the WAL high-water LSN, then prune what no recovery can
    /// need: records at or below both the checkpoint LSN and every deferred
    /// watermark.
    fn checkpoint(&mut self, db: &ShardedDatabase) -> Result<Lsn> {
        self.wal.sync(&mut self.vfs)?;
        let lsn = self.wal.last_lsn();
        let payload = encode_state(db.only_shard(), &self.deferred_sections())?;
        write_checkpoint(&mut self.vfs, lsn, &payload)?;
        self.checkpoint_lsn = lsn;
        let floor = self
            .deferred
            .iter()
            .map(|d| d.watermark)
            .fold(lsn, Lsn::min);
        self.wal.prune_below(&mut self.vfs, floor + 1)?;
        prune_checkpoints(&mut self.vfs, lsn)?;
        Ok(lsn)
    }

    fn sync(&mut self) -> Result<()> {
        Ok(self.wal.sync(&mut self.vfs)?)
    }
}

fn wal_options(policy: &MaintenancePolicy) -> WalOptions {
    WalOptions {
        policy: policy.fsync,
        ..WalOptions::default()
    }
}

impl<V: Vfs> DurableDatabase<V> {
    /// Initialize a fresh durable database in an empty directory: writes the
    /// first WAL segment and a checkpoint of the starting catalog. The
    /// catalog is adopted as it is — no row is copied.
    ///
    /// Fails if the directory already holds WAL segments or checkpoints —
    /// overwriting the first segment of an existing database while leaving
    /// its later segments and snapshots in place would create a
    /// mixed-generation directory a later [`DurableDatabase::open`] could
    /// misread. Use `open` for existing directories.
    pub fn create(mut vfs: V, catalog: Catalog, policy: MaintenancePolicy) -> Result<Self> {
        if let Some(name) = vfs
            .list()?
            .into_iter()
            .find(|n| is_segment_file(n) || is_checkpoint_file(n))
        {
            return Err(CoreError::Durability(DurabilityError::Corrupt {
                file: name,
                detail: "directory already holds a durable database; open() it instead of \
                         create()-ing over it"
                    .to_string(),
            }));
        }
        let wal = Wal::create(&mut vfs, wal_options(&policy), 1)?;
        let mut db = Database::new(catalog);
        db.policy = policy;
        let mut this = Durable {
            db: ShardedDatabase::adopt(db),
            log: WalLog {
                vfs,
                wal,
                deferred: Vec::new(),
                checkpoint_lsn: 0,
            },
            poisoned: None,
        };
        this.checkpoint()?;
        Ok(this)
    }

    /// Open an existing durable database: load the latest valid checkpoint,
    /// scan the WAL tail (stopping at the first torn or corrupt record),
    /// and replay the tail through the incremental maintenance engine.
    ///
    /// `policy` must match the one the log was written under for the replay
    /// to reproduce the original plans (the results are identical under any
    /// policy; the *reports* and costs differ).
    pub fn open(mut vfs: V, policy: MaintenancePolicy) -> Result<(Self, RecoveryReport)> {
        let ckpt = read_latest_checkpoint(&mut vfs)?.ok_or_else(|| {
            CoreError::Durability(DurabilityError::Corrupt {
                file: "checkpoint".to_string(),
                detail: "no valid checkpoint found (directory never initialized?)".to_string(),
            })
        })?;
        let (wal, scan) = open_wal_after(&mut vfs, wal_options(&policy), ckpt.lsn)?;
        let (mut db, deferred) = restore_state(&ckpt.payload, policy, ckpt.lsn)?;
        let mut deferred: Vec<DurableDeferred> = deferred
            .into_iter()
            .map(|(view, watermark)| DurableDeferred {
                dv: DeferredView::new(view),
                watermark,
            })
            .collect();

        let mut report = RecoveryReport {
            checkpoint_lsn: ckpt.lsn,
            replayed_updates: 0,
            reenqueued: 0,
            replayed_refreshes: 0,
            last_lsn: wal.last_lsn(),
            wal_truncated: scan.truncated.map(|t| t.reason),
        };
        for rec in &scan.records {
            replay_record(&mut db, &mut deferred, ckpt.lsn, rec, &mut report)?;
        }

        Ok((
            Durable {
                db: ShardedDatabase::adopt(db),
                log: WalLog {
                    vfs,
                    wal,
                    deferred,
                    checkpoint_lsn: ckpt.lsn,
                },
                poisoned: None,
            },
            report,
        ))
    }

    /// Create a deferred view, watermarked at the current log position, and
    /// checkpoint.
    pub fn create_deferred_view(&mut self, def: ViewDef) -> Result<()> {
        self.check_usable()?;
        if self.view(def.name()).is_some() || self.deferred_view(def.name()).is_some() {
            return Err(CoreError::DuplicateView {
                view: def.name().to_string(),
            });
        }
        let view = MaterializedView::create(self.database().catalog(), def)?;
        self.log.deferred.push(DurableDeferred {
            dv: DeferredView::new(view),
            watermark: self.log.wal.last_lsn(),
        });
        self.checkpoint_after_ddl()
    }

    /// Refresh a deferred view and log the completion marker: after this
    /// returns, a crash-and-recover re-runs the refresh from the same queue
    /// instead of losing it, and a *second* recovery cannot apply the
    /// consumed batches again (watermark idempotence).
    pub fn refresh(&mut self, view: &str) -> Result<Vec<MaintenanceReport>> {
        self.check_usable()?;
        let shard = self.db.only_shard();
        let log = &mut self.log;
        let d = log
            .deferred
            .iter_mut()
            .find(|d| d.dv.view().name() == view)
            .ok_or_else(|| CoreError::UnknownView {
                view: view.to_string(),
            })?;
        let reports = d.dv.refresh(shard.catalog(), &shard.policy)?;
        let up_to = log.wal.last_lsn();
        let mut payload = Vec::new();
        put_str(&mut payload, view)?;
        put_u64(&mut payload, up_to);
        // The refresh above already consumed the pending queue and mutated
        // the store; if the completion marker cannot be logged, the stale
        // watermark must never reach a checkpoint (recovery would re-apply
        // the consumed batches on top of the refreshed rows) — poison.
        log.wal
            .append(&mut log.vfs, REC_REFRESH, &payload)
            .map_err(|e| {
                Self::poison(
                    &mut self.poisoned,
                    "WAL append of a refresh marker",
                    CoreError::Durability(e),
                )
            })?;
        d.watermark = up_to;
        Ok(reports)
    }

    /// Canonical encoding of the full in-memory state (catalog, eager view
    /// stores and count indexes, deferred stores and watermarks). Two
    /// databases with byte-equal `state_bytes` hold identical state — the
    /// crash tests compare a recovered database against its uncrashed twin
    /// with exactly this.
    pub fn state_bytes(&self) -> Result<Vec<u8>> {
        encode_state(self.database(), &self.log.deferred_sections())
    }

    /// The wrapped in-memory database (catalog and eager views).
    pub fn database(&self) -> &Database {
        self.db.only_shard()
    }

    /// Attach a commit observer to the wrapped database (see
    /// [`Database::attach_commit_observer`]). Under the durable layer the
    /// observer sees *WAL* LSNs, so a change-feed cursor is a durable
    /// position: after a crash and recovery, re-subscribing from the last
    /// drained LSN resumes exactly where the feed left off.
    pub fn attach_commit_observer(
        &mut self,
        obs: std::sync::Arc<dyn crate::snapshot::CommitObserver>,
    ) {
        self.db.only_shard_mut().attach_commit_observer(obs);
    }

    /// Detach the commit observer, if any.
    pub fn detach_commit_observer(&mut self) {
        self.db.only_shard_mut().detach_commit_observer();
    }

    /// The shared snapshot registry of the wrapped database. Snapshot LSNs
    /// are WAL LSNs here: a pin at LSN `n` is the view state as of durable
    /// LSN `n`.
    pub fn snapshots(&self) -> &crate::snapshot::SnapshotRegistry {
        self.database().snapshots()
    }

    /// Pin a consistent snapshot of every eager view at the newest durable
    /// LSN.
    pub fn snapshot(&self) -> Result<crate::snapshot::Snapshot> {
        self.database().snapshot()
    }

    /// Pin a consistent snapshot as of durable LSN `lsn`.
    pub fn snapshot_at(&self, lsn: Lsn) -> Result<crate::snapshot::Snapshot> {
        self.database().snapshot_at(lsn)
    }

    /// An eager view by name.
    pub fn view(&self, name: &str) -> Option<&MaterializedView> {
        self.database().view(name)
    }

    /// A deferred view by name (possibly stale; see
    /// [`DurableDatabase::refresh`]).
    pub fn deferred_view(&self, name: &str) -> Option<&DeferredView> {
        self.log
            .deferred
            .iter()
            .find(|d| d.dv.view().name() == name)
            .map(|d| &d.dv)
    }

    /// Refresh watermark of a deferred view.
    pub fn watermark(&self, name: &str) -> Option<Lsn> {
        self.log
            .deferred
            .iter()
            .find(|d| d.dv.view().name() == name)
            .map(|d| d.watermark)
    }

    /// Newest LSN in the log.
    pub fn last_lsn(&self) -> Lsn {
        self.log.wal.last_lsn()
    }

    /// High-water LSN of the newest checkpoint.
    pub fn checkpoint_lsn(&self) -> Lsn {
        self.log.checkpoint_lsn
    }

    /// The underlying virtual filesystem (tests inspect files directly).
    pub fn vfs(&self) -> &V {
        &self.log.vfs
    }

    /// Consume the database, returning the filesystem — the fault-injection
    /// tests "crash" by dropping the database and keeping only the bytes.
    pub fn into_vfs(self) -> V {
        self.log.vfs
    }
}

fn replay_record(
    db: &mut Database,
    deferred: &mut [DurableDeferred],
    ckpt_lsn: Lsn,
    rec: &WalRecord,
    report: &mut RecoveryReport,
) -> Result<()> {
    match rec.kind {
        REC_UPDATE => {
            let (update, decomposed) = decode_update_record(db, rec)?;
            if rec.lsn > ckpt_lsn {
                // Not reflected in the checkpoint: re-apply and re-maintain
                // exactly as the original call did, at the original LSN.
                replay_update(db, &update, decomposed)?;
                db.publish_commit(rec.lsn)?;
                report.replayed_updates += 1;
            }
            // Regardless of the checkpoint: batches newer than a
            // deferred view's refresh watermark belong on its queue
            // (queues are rebuilt from the log, never checkpointed).
            for d in deferred.iter_mut() {
                if rec.lsn > d.watermark {
                    let before = d.dv.pending_len();
                    d.dv.enqueue(&update);
                    report.reenqueued += d.dv.pending_len() - before;
                }
            }
        }
        REC_REFRESH => {
            let mut r = ByteReader::new(&rec.payload);
            let name = r
                .str("refresh view name")
                .map_err(CoreError::Rel)?
                .to_string();
            let up_to = r.u64("refresh up-to lsn").map_err(CoreError::Rel)?;
            if rec.lsn > ckpt_lsn {
                let d = deferred
                    .iter_mut()
                    .find(|d| d.dv.view().name() == name)
                    .ok_or(CoreError::UnknownView { view: name })?;
                // Deterministic re-run: the queue holds exactly the
                // batches the original refresh consumed, and the catalog
                // is in the state it was in at the marker's position.
                d.dv.refresh(db.catalog(), &db.policy)?;
                d.watermark = up_to;
                report.replayed_refreshes += 1;
            }
        }
        other => {
            return Err(CoreError::Durability(DurabilityError::Corrupt {
                file: "wal".to_string(),
                detail: format!("unknown WAL record kind {other} at lsn {}", rec.lsn),
            }))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;
    use ojv_durability::{FsyncPolicy, MemVfs};
    use ojv_rel::Datum;

    fn policy() -> MaintenancePolicy {
        MaintenancePolicy::default()
    }

    fn seeded() -> Catalog {
        let mut c = example1_catalog();
        populate_example1(&mut c, 6, 9);
        c
    }

    #[test]
    fn create_insert_reopen_is_byte_identical() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.delete("lineitem", &[vec![Datum::Int(3), Datum::Int(1)]])
            .unwrap();
        let expected = d.state_bytes().unwrap();
        let vfs = d.into_vfs(); // crash: keep only the (synced) bytes

        let (r, report) = DurableDatabase::open(vfs, policy()).unwrap();
        assert_eq!(r.state_bytes().unwrap(), expected);
        assert_eq!(report.replayed_updates, 2);
        assert!(report.wal_truncated.is_none());
    }

    #[test]
    fn checkpoint_bounds_replay() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.checkpoint().unwrap();
        d.insert("lineitem", vec![lineitem_row(6, 9, 5, 1, 2.0)])
            .unwrap();
        let expected = d.state_bytes().unwrap();
        let (r, report) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        assert_eq!(report.replayed_updates, 1, "only the post-checkpoint batch");
        assert_eq!(r.state_bytes().unwrap(), expected);
    }

    #[test]
    fn update_decomposition_flag_survives_replay() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.update(
            "lineitem",
            &[vec![Datum::Int(2), Datum::Int(1)]],
            vec![lineitem_row(2, 1, 3, 99, 1.0)],
        )
        .unwrap();
        let expected = d.state_bytes().unwrap();
        let (r, report) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        assert_eq!(report.replayed_updates, 2);
        assert_eq!(r.state_bytes().unwrap(), expected);
        assert!(crate::maintain::verify_against_recompute(
            r.view("oj_view").unwrap(),
            r.database().catalog()
        ));
    }

    #[test]
    fn deferred_queue_rebuilds_from_wal() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_deferred_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.insert("lineitem", vec![lineitem_row(6, 9, 5, 1, 2.0)])
            .unwrap();
        assert_eq!(d.deferred_view("oj_view").unwrap().pending_len(), 2);
        let expected = d.state_bytes().unwrap();

        let (r, report) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        // Pending queues are not checkpointed: both batches re-enqueue.
        assert_eq!(report.reenqueued, 2);
        assert_eq!(r.deferred_view("oj_view").unwrap().pending_len(), 2);
        assert_eq!(r.state_bytes().unwrap(), expected);
    }

    #[test]
    fn refresh_watermark_is_idempotent_across_recoveries() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_deferred_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.refresh("oj_view").unwrap();
        let expected = d.state_bytes().unwrap();

        // First recovery: the refresh marker replays the (re-enqueued)
        // batch; the result matches the pre-crash state.
        let (r1, rep1) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        assert_eq!(rep1.replayed_refreshes, 1);
        assert!(r1.deferred_view("oj_view").unwrap().is_fresh());
        assert_eq!(r1.state_bytes().unwrap(), expected);

        // Second recovery over the *same* log: the watermark prevents the
        // consumed batch from being applied twice.
        let (r2, rep2) = DurableDatabase::open(r1.into_vfs(), policy()).unwrap();
        assert_eq!(rep2.replayed_refreshes, 1);
        assert_eq!(r2.state_bytes().unwrap(), expected);
        assert!(crate::maintain::verify_against_recompute(
            r2.deferred_view("oj_view").unwrap().view(),
            r2.database().catalog()
        ));
    }

    #[test]
    fn checkpoint_after_refresh_skips_marker_replay() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_deferred_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.refresh("oj_view").unwrap();
        d.checkpoint().unwrap();
        let expected = d.state_bytes().unwrap();
        let (r, report) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        assert_eq!(report.replayed_refreshes, 0, "marker is pre-checkpoint");
        assert_eq!(report.reenqueued, 0, "batch is below the watermark");
        assert_eq!(r.state_bytes().unwrap(), expected);
    }

    /// Flip one bit in the payload of the last record of the newest WAL
    /// segment (rewriting the file durably, as media corruption would).
    fn corrupt_newest_segment_tail(vfs: &mut MemVfs) {
        let segment = vfs
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| ojv_durability::is_segment_file(n))
            .max()
            .expect("a live WAL segment");
        let mut data = vfs.read(&segment).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x40;
        vfs.create(&segment).unwrap();
        vfs.append(&segment, &data).unwrap();
        vfs.sync(&segment).unwrap();
    }

    #[test]
    fn wal_truncated_below_checkpoint_resumes_past_it() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.checkpoint().unwrap();
        let expected = d.state_bytes().unwrap();
        let ckpt_lsn = d.checkpoint_lsn();
        assert_eq!(d.last_lsn(), ckpt_lsn, "log tail is below the checkpoint");
        let mut vfs = d.into_vfs();
        // Corrupt the record at the checkpoint LSN itself: the scan cuts the
        // log to *below* the checkpoint.
        corrupt_newest_segment_tail(&mut vfs);

        let (mut r, report) = DurableDatabase::open(vfs, policy()).unwrap();
        assert!(report.wal_truncated.is_some());
        assert_eq!(report.replayed_updates, 0);
        // The checkpoint vouches for the lost record; state is intact and
        // the log resumed past the checkpoint, not inside it.
        assert_eq!(r.state_bytes().unwrap(), expected);
        assert_eq!(r.last_lsn(), ckpt_lsn);

        // The regression: a post-recovery write must get an LSN above the
        // checkpoint, so the *next* recovery replays it instead of silently
        // skipping it.
        r.insert("lineitem", vec![lineitem_row(6, 9, 5, 1, 2.0)])
            .unwrap();
        assert!(r.last_lsn() > ckpt_lsn);
        let expected2 = r.state_bytes().unwrap();
        let (r2, rep2) = DurableDatabase::open(r.into_vfs(), policy()).unwrap();
        assert_eq!(rep2.replayed_updates, 1, "post-recovery write must replay");
        assert_eq!(r2.state_bytes().unwrap(), expected2);
    }

    #[test]
    fn create_refuses_existing_database_directory() {
        let d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        let vfs = d.into_vfs();
        assert!(matches!(
            DurableDatabase::create(vfs, seeded(), policy()),
            Err(CoreError::Durability(DurabilityError::Corrupt { .. }))
        ));
    }

    #[test]
    fn open_without_checkpoint_is_an_error() {
        assert!(matches!(
            DurableDatabase::open(MemVfs::new(), policy()),
            Err(CoreError::Durability(DurabilityError::Corrupt { .. }))
        ));
    }

    #[test]
    fn fsync_never_relies_on_explicit_sync() {
        let mut p = policy();
        p.fsync = FsyncPolicy::Never;
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), p).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        let expected = d.state_bytes().unwrap();
        d.sync().unwrap();
        let (r, _) = DurableDatabase::open(d.into_vfs(), p).unwrap();
        assert_eq!(r.state_bytes().unwrap(), expected);
    }
}
