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
//! snapshot stamped with the WAL high-water LSN, then prunes the WAL
//! segments and older checkpoints at or below it. DDL
//! ([`Durable::create_view`]) checkpoints immediately — view definitions
//! live in snapshots, not the log. Recovery replays every record above the
//! checkpoint LSN through the commit pipeline the live commit runs
//! (`durable::replay_record`, shared with the sharded topology)
//! and publishes it at the record's own LSN.

use ojv_durability::{
    is_checkpoint_file, is_segment_file, prune_checkpoints, read_latest_checkpoint,
    write_checkpoint, DurabilityError, Lsn, Vfs, Wal, WalOptions,
};
use ojv_storage::{Catalog, Update};

use crate::checkpoint_state::{encode_state, restore_state};
use crate::database::Database;
use crate::durable::{
    check_commit_kind, commit_record, open_wal_after, replay_record, CommitLog, Durable,
    DurableDatabase,
};
use crate::error::{CoreError, Result};
use crate::materialize::MaterializedView;
use crate::policy::MaintenancePolicy;
use crate::shard::ShardedDatabase;

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// High-water LSN of the checkpoint the state was loaded from.
    pub checkpoint_lsn: Lsn,
    /// Commit records (`REC_UPDATE` or `REC_COMMIT`) re-applied to the
    /// catalog and views — one per replayed commit, an `UPDATE` included.
    pub replayed_updates: usize,
    /// Newest LSN in the recovered log (0 if the log was empty).
    pub last_lsn: Lsn,
    /// Why the WAL tail was cut, when a torn/corrupt record was found.
    pub wal_truncated: Option<String>,
}

/// One WAL stream in one directory (see module docs).
pub struct WalLog<V: Vfs> {
    vfs: V,
    wal: Wal,
    checkpoint_lsn: Lsn,
}

impl<V: Vfs> CommitLog for WalLog<V> {
    /// One record, flushed per the WAL's fsync policy; its LSN is the commit
    /// LSN.
    fn append(&mut self, commit: &[Vec<&Update>], decomposed: bool) -> Result<Lsn> {
        let [deltas] = commit else {
            unreachable!("a WalLog sits under exactly one shard, which every commit touches");
        };
        let (kind, payload) = commit_record(deltas, decomposed)?;
        Ok(self.wal.append(&mut self.vfs, kind, &payload)?)
    }

    /// Checkpoint at the WAL high-water LSN, then prune what no recovery can
    /// need: every record at or below the checkpoint LSN.
    fn checkpoint(&mut self, db: &ShardedDatabase) -> Result<Lsn> {
        self.wal.sync(&mut self.vfs)?;
        let lsn = self.wal.last_lsn();
        write_checkpoint(&mut self.vfs, lsn, &encode_state(db.only_shard())?)?;
        self.checkpoint_lsn = lsn;
        self.wal.prune_below(&mut self.vfs, lsn + 1)?;
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
        let mut db = restore_state(&ckpt.payload, policy, ckpt.lsn)?;

        let mut report = RecoveryReport {
            checkpoint_lsn: ckpt.lsn,
            replayed_updates: 0,
            last_lsn: wal.last_lsn(),
            wal_truncated: scan.truncated.map(|t| t.reason),
        };
        for rec in &scan.records {
            // A record of a retired kind is refused wherever it sits; what
            // the checkpoint vouches for is skipped without decoding it.
            if rec.lsn <= ckpt.lsn {
                check_commit_kind(rec)?;
                continue;
            }
            // Re-apply and re-maintain exactly as the original call did, at
            // the original LSN.
            replay_record(&mut db, rec)?;
            db.publish_commit(rec.lsn);
            report.replayed_updates += 1;
        }

        Ok((
            Durable {
                db: ShardedDatabase::adopt(db),
                log: WalLog {
                    vfs,
                    wal,
                    checkpoint_lsn: ckpt.lsn,
                },
                poisoned: None,
            },
            report,
        ))
    }

    /// Canonical encoding of the full in-memory state (catalog, view stores
    /// and count indexes). Two databases with byte-equal `state_bytes` hold
    /// identical state — the crash tests compare a recovered database
    /// against its uncrashed twin with exactly this.
    pub fn state_bytes(&self) -> Result<Vec<u8>> {
        encode_state(self.database())
    }

    /// The wrapped in-memory database (catalog and views).
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

    /// Pin a consistent snapshot of every view at the newest durable LSN.
    pub fn snapshot(&self) -> Result<crate::snapshot::Snapshot> {
        self.database().snapshot()
    }

    /// Pin a consistent snapshot as of durable LSN `lsn`.
    pub fn snapshot_at(&self, lsn: Lsn) -> Result<crate::snapshot::Snapshot> {
        self.database().snapshot_at(lsn)
    }

    /// A view by name.
    pub fn view(&self, name: &str) -> Option<&MaterializedView> {
        self.database().view(name)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint_state::old_format::{assert_refused, with_deferred_view};
    use crate::durable::{decode_commit_record, replay_commit, REC_COMMIT, REC_UPDATE};
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

    /// One `UPDATE` is one `REC_COMMIT` record at one LSN, and replaying it
    /// keeps the decomposition flag.
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
        assert_eq!(d.last_lsn(), 1, "one UPDATE, one LSN");
        assert_eq!(d.database().commit_lsn(), 1);
        let expected = d.state_bytes().unwrap();
        let (r, report) = DurableDatabase::open(d.into_vfs(), policy()).unwrap();
        assert_eq!(report.replayed_updates, 1, "one record for both halves");
        assert_eq!(r.state_bytes().unwrap(), expected);
        assert!(crate::maintain::verify_against_recompute(
            r.view("oj_view").unwrap(),
            r.database().catalog()
        ));
    }

    /// The two halves of `UPDATE lineitem (2, 1)`, as applied to `seeded()`.
    fn update_halves() -> (Update, Update) {
        let mut c = seeded();
        let deleted = c
            .delete("lineitem", &[vec![Datum::Int(2), Datum::Int(1)]])
            .unwrap();
        let inserted = c
            .insert("lineitem", vec![lineitem_row(2, 1, 3, 99, 1.0)])
            .unwrap();
        (deleted, inserted)
    }

    fn commit_rec(payload: Vec<u8>) -> ojv_durability::WalRecord {
        ojv_durability::WalRecord {
            lsn: 7,
            kind: REC_COMMIT,
            payload,
        }
    }

    fn assert_corrupt(db: &Database, payload: Vec<u8>, what: &str) {
        match decode_commit_record(db, &commit_rec(payload)) {
            Err(CoreError::Durability(DurabilityError::Corrupt { .. })) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }

    /// A `REC_COMMIT` payload round-trips, and replaying the decoded halves
    /// lands on the state a live `UPDATE` leaves.
    #[test]
    fn commit_record_round_trips_and_replays_like_a_live_update() {
        let (deleted, inserted) = update_halves();
        let (kind, payload) = commit_record(&[&deleted, &inserted], true).unwrap();
        assert_eq!(kind, REC_COMMIT);
        // One delta alone keeps the pre-existing `REC_UPDATE` bytes.
        let (one, _) = commit_record(&[&inserted], false).unwrap();
        assert_eq!(one, REC_UPDATE);

        let mut replayed = Database::new(seeded());
        replayed.create_view(oj_view_def()).unwrap();
        let rec = commit_rec(payload);
        let (deltas, decomposed) = decode_commit_record(&replayed, &rec).unwrap();
        assert!(decomposed);
        let encoded: Vec<Vec<u8>> = deltas
            .iter()
            .map(|u| ojv_storage::encode_update(u).unwrap())
            .collect();
        let expected: Vec<Vec<u8>> = [&deleted, &inserted]
            .iter()
            .map(|u| ojv_storage::encode_update(u).unwrap())
            .collect();
        assert_eq!(encoded, expected);
        replay_commit(&mut replayed, &rec, deltas, decomposed).unwrap();
        replayed.publish_commit(1);

        let mut live = Database::new(seeded());
        live.create_view(oj_view_def()).unwrap();
        live.update(
            "lineitem",
            &[vec![Datum::Int(2), Datum::Int(1)]],
            vec![lineitem_row(2, 1, 3, 99, 1.0)],
        )
        .unwrap();
        assert_eq!(
            encode_state(&replayed).unwrap(),
            encode_state(&live).unwrap()
        );

        // The halves in the wrong order are refused, not replayed.
        let (_, swapped) = commit_record(&[&inserted, &deleted], true).unwrap();
        let rec = commit_rec(swapped);
        let (deltas, _) = decode_commit_record(&replayed, &rec).unwrap();
        let mut fresh = Database::new(seeded());
        assert!(matches!(
            replay_commit(&mut fresh, &rec, deltas, true),
            Err(CoreError::Durability(DurabilityError::Corrupt { .. }))
        ));
    }

    /// A malformed `REC_COMMIT` frame is `Corrupt`, never a panic: every
    /// truncation, a length past the end, no delta, trailing bytes.
    #[test]
    fn malformed_commit_records_are_corrupt() {
        let (deleted, inserted) = update_halves();
        let (_, payload) = commit_record(&[&deleted, &inserted], true).unwrap();
        let db = Database::new(seeded());
        for cut in 1..payload.len() {
            assert_corrupt(&db, payload[..cut].to_vec(), &format!("cut at {cut}"));
        }
        // The first delta's length (bytes 5..9) pointing past the record.
        let mut overlong = payload.clone();
        overlong[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_corrupt(&db, overlong, "overlong length");
        assert_corrupt(&db, vec![1, 0, 0, 0, 0], "zero count");
        let mut trailing = payload;
        trailing.push(0xAA);
        assert_corrupt(&db, trailing, "trailing bytes");
    }

    /// FNV-1a 64 of a byte string, for the format golden below.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The on-disk format, pinned: a fixed Example 1 script (two views,
    /// three commits, a checkpoint) must produce these exact `state_bytes`
    /// and checkpoint file. A change here is a format change — every
    /// existing directory would stop opening — and must be deliberate.
    #[test]
    fn checkpoint_format_golden() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.create_view(oj_view_variant("oj_view_q5", 5)).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        d.delete("lineitem", &[vec![Datum::Int(2), Datum::Int(1)]])
            .unwrap();
        d.insert("part", vec![part_row(50, "golden", 7.5)]).unwrap();
        d.checkpoint().unwrap();
        let snap = d
            .vfs()
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.starts_with("ckpt-") && n.ends_with(".snap"))
            .max()
            .expect("a checkpoint");
        assert_eq!(snap, "ckpt-0000000000000003.snap");
        let state = fnv1a64(&d.state_bytes().unwrap());
        let file = fnv1a64(&d.vfs().read(&snap).unwrap());
        assert_eq!(
            state, 0xd45a_a303_3a4d_0471,
            "state_bytes FNV is {state:#018x}"
        );
        assert_eq!(file, 0x2b15_f326_c00c_fece, "{snap} FNV is {file:#018x}");
    }

    /// A directory written while deferred views existed: its checkpoint
    /// carries a deferred section. Opening it is refused, not half-restored.
    #[test]
    fn checkpoint_with_a_deferred_view_is_refused() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        let old = with_deferred_view(&d.state_bytes().unwrap());
        let mut vfs = d.into_vfs();
        write_checkpoint(&mut vfs, 0, &old).unwrap();
        assert_refused(DurableDatabase::open(vfs, policy()), "deferred view");
    }

    /// A WAL holding a deferred-view refresh marker (record kind 2) is
    /// refused whether the marker sits above the checkpoint or below it.
    #[test]
    fn wal_with_a_refresh_marker_is_refused() {
        let mut d = DurableDatabase::create(MemVfs::new(), seeded(), policy()).unwrap();
        d.create_view(oj_view_def()).unwrap();
        d.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        let state = d.state_bytes().unwrap();
        let mut vfs = d.into_vfs();
        let (mut wal, _) = Wal::open(&mut vfs, wal_options(&policy()), 1).unwrap();
        let mut marker = Vec::new();
        ojv_rel::put_str(&mut marker, "oj_view").unwrap();
        ojv_rel::put_u64(&mut marker, 1);
        assert_eq!(wal.append(&mut vfs, 2, &marker).unwrap(), 2);

        assert_refused(DurableDatabase::open(vfs.clone(), policy()), "deferred");
        // A checkpoint above the marker does not make it acceptable.
        write_checkpoint(&mut vfs, 2, &state).unwrap();
        assert_refused(DurableDatabase::open(vfs, policy()), "deferred");
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
