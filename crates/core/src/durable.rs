//! Durable maintenance: one [`Durable<L>`] engine over a
//! [`ShardedDatabase`], generic over the on-disk log topology `L`.
//!
//! # Protocol
//!
//! Every base-table change — [`Durable::insert`], [`Durable::delete`],
//! [`Durable::update`] — is one call of the commit pipeline
//! (`ShardedDatabase::commit_with`) with the log stage supplied here:
//!
//! 1. the batch is validated and applied to the in-memory catalog(s)
//!    (constraints enforced, per-shard deltas computed),
//! 2. the applied deltas are handed to [`CommitLog::append`], which frames
//!    them as [`REC_UPDATE`] records and returns the commit LSN once they
//!    are as durable as the topology's fsync policy promises,
//! 3. views are maintained incrementally and every shard's snapshot
//!    registry publishes at that LSN — a snapshot LSN *is* a log position.
//!
//! A crash after step 2 therefore loses nothing: recovery replays the
//! logged delta through the same maintenance stage the live system uses
//! (`replay_update`), so the recovered stores are *byte-identical* to an
//! uncrashed twin — not merely set-equal. A crash between 1 and 2 loses only
//! RAM state that was never acknowledged as durable. If step 2 *fails* (I/O
//! error, framing limit), RAM is ahead of the log and recovery could never
//! reproduce it: the database **poisons** itself — every later durable
//! operation, including `checkpoint`, returns [`CoreError::Poisoned`] — so
//! the diverged image can neither grow nor be snapshotted; reopening from
//! the log lands on the last consistent state. Maintenance failures after
//! step 2 do not poison: the deltas are durable, and recovery replays
//! maintenance from them.
//!
//! # Topologies
//!
//! Two [`CommitLog`]s exist because two on-disk layouts really differ:
//!
//! * [`WalLog`] — one stream in one directory, fsync per
//!   [`ojv_durability::FsyncPolicy`]. [`DurableDatabase`] is
//!   `Durable<WalLog<V>>` over an adopted single shard.
//! * [`GroupLog`] — one stream per shard plus a coordinator stream whose
//!   [`crate::group_log::REC_GROUP`] record is the commit point (K touched
//!   shards cost K+1 fsyncs). [`ShardedDurableDatabase`] is
//!   `Durable<GroupLog<V>>`.
//!
//! Their recovery halves (`open`) are genuinely different procedures and
//! live with the topologies; everything else — usability check, poisoning,
//! record framing and replay, DDL-then-checkpoint, the commit itself — is
//! written once, below.

use ojv_durability::{Lsn, Vfs, Wal, WalOptions, WalRecord, WalScan};
use ojv_rel::{key_of, ByteReader, Datum, Row};
use ojv_storage::{decode_update, encode_update, Update, UpdateOp};

use crate::database::Database;
use crate::error::{CoreError, Result};
use crate::maintain::MaintenanceReport;
use crate::shard::{ShardedDatabase, TableOp};
use crate::view_def::ViewDef;

pub use crate::group_log::GroupLog;
pub use crate::wal_log::{RecoveryReport, WalLog};

/// WAL record kind: one applied base-table update batch.
/// Payload: `[u8 flags][encoded Update]` (see [`ojv_storage::encode_update`]).
pub const REC_UPDATE: u8 = 1;

/// `REC_UPDATE` flag bit: this batch is half of an SQL `UPDATE`
/// decomposition, so replay must disable the §6 FK fast paths exactly as
/// the original run did.
const FLAG_UPDATE_DECOMPOSITION: u8 = 1;

/// The payload of a [`REC_UPDATE`] record for one applied delta.
pub(crate) fn update_record(update: &Update, decomposed: bool) -> Result<Vec<u8>> {
    let body = encode_update(update)?;
    let flags = if decomposed {
        FLAG_UPDATE_DECOMPOSITION
    } else {
        0
    };
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(flags);
    payload.extend_from_slice(&body);
    Ok(payload)
}

/// Decode a [`REC_UPDATE`] payload against `shard`'s schema:
/// `(delta, decomposed)`.
pub(crate) fn decode_update_record(shard: &Database, rec: &WalRecord) -> Result<(Update, bool)> {
    let mut r = ByteReader::new(&rec.payload);
    let flags = r.u8("update flags").map_err(CoreError::Rel)?;
    let update = decode_update(rec.payload.get(1..).unwrap_or(&[]), shard.catalog())?;
    Ok((update, flags & FLAG_UPDATE_DECOMPOSITION != 0))
}

/// Replay one logged delta against the shard that logged it: re-apply it to
/// the catalog and re-run view maintenance exactly as the original commit
/// did (decomposition flag included). Publishing is the caller's: the two
/// topologies stamp recovered commits differently.
pub(crate) fn replay_update(shard: &mut Database, update: &Update, decomposed: bool) -> Result<()> {
    match update.op {
        UpdateOp::Insert => {
            shard.apply_insert(&update.table, update.rows.rows().to_vec())?;
        }
        UpdateOp::Delete => {
            let key_cols = shard.catalog().table(&update.table)?.key_cols().to_vec();
            let keys: Vec<Vec<Datum>> = update
                .rows
                .rows()
                .iter()
                .map(|row| key_of(row, &key_cols))
                .collect();
            shard.apply_delete(&update.table, &keys)?;
        }
    }
    shard.maintain_views_only(update, decomposed)?;
    Ok(())
}

/// Open the WAL stream whose newest checkpoint is stamped `ckpt_lsn`.
///
/// A corrupt record *below* the checkpoint LSN can cut the scan short:
/// pruning deletes whole segments only, so the segment holding the
/// checkpoint LSN keeps the records before it. Appending at an
/// already-checkpointed LSN would create records the `lsn > ckpt_lsn`
/// replay filter silently skips on the next open — acknowledged data lost.
/// The checkpoint vouches for every LSN at or below its own, so the log
/// resumes past it.
pub(crate) fn open_wal_after<V: Vfs>(
    vfs: &mut V,
    opts: WalOptions,
    ckpt_lsn: Lsn,
) -> Result<(Wal, WalScan)> {
    let (mut wal, scan) = Wal::open(vfs, opts, ckpt_lsn + 1)?;
    if wal.next_lsn() <= ckpt_lsn {
        wal.begin_after(vfs, ckpt_lsn + 1)?;
    }
    Ok((wal, scan))
}

/// The log stage of the commit pipeline — what differs between the on-disk
/// topologies, and nothing else.
///
/// # Contract
///
/// `append` receives the per-shard deltas of one commit half **after** they
/// were applied in memory (`updates[s]` is shard `s`'s delta, `None` for an
/// untouched shard). Before it returns `Ok(lsn)`:
///
/// * every delta is framed with `update_record` and appended to the
///   stream that owns its shard, and whatever fsyncs the topology's policy
///   promises have completed — a crash after the return loses nothing the
///   policy covers;
/// * `lsn` is the commit's position on the topology's one global clock,
///   strictly above every LSN returned before; the caller publishes every
///   shard's snapshot registry at exactly this LSN;
/// * recovery of the files as they are at the return replays the commit
///   whole or (if the policy left it unsynced) not at all — never a part.
///
/// Any `Err` leaves RAM ahead of the log: the caller **poisons** the
/// engine. The same holds for a failed `checkpoint` right after DDL (the
/// new view exists only in RAM); a failed *routine* `checkpoint` or `sync`
/// changes no in-memory state and is simply returned.
pub trait CommitLog {
    /// Make one applied commit half durable and return its commit LSN.
    fn append(&mut self, updates: &[Option<Update>], decomposed: bool) -> Result<Lsn>;

    /// Serialize `db`'s full state at the current log head, then prune what
    /// no recovery can need any more. Returns the checkpoint's LSN.
    fn checkpoint(&mut self, db: &ShardedDatabase) -> Result<Lsn>;

    /// Flush every stream to stable storage.
    fn sync(&mut self) -> Result<()>;
}

/// A [`ShardedDatabase`] whose commits survive crashes: log + checkpoints +
/// replay through the incremental engine (see module docs).
///
/// The log topologies are generic over the [`ojv_durability::Vfs`], so
/// tests drive them against [`ojv_durability::MemVfs`] (and the testkit's
/// fault injector) while production uses [`ojv_durability::DiskVfs`].
pub struct Durable<L: CommitLog> {
    pub(crate) db: ShardedDatabase,
    pub(crate) log: L,
    /// Set when a durable write failed after an in-memory mutation: RAM is
    /// ahead of the log, so further durable operations are refused (see
    /// [`CoreError::Poisoned`]).
    pub(crate) poisoned: Option<String>,
}

/// The single-stream durable engine: one adopted shard, one WAL.
pub type DurableDatabase<V> = Durable<WalLog<V>>;

/// The sharded durable engine: per-shard WALs under a group-commit
/// coordinator.
pub type ShardedDurableDatabase<V> = Durable<GroupLog<V>>;

impl<L: CommitLog> Durable<L> {
    /// Refuse the operation if an earlier durable-write failure left RAM
    /// ahead of the log.
    pub(crate) fn check_usable(&self) -> Result<()> {
        match &self.poisoned {
            Some(detail) => Err(CoreError::Poisoned {
                detail: detail.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Record that a durable write failed after an in-memory mutation. The
    /// live state can no longer be reproduced by recovery (and later logged
    /// deltas would be computed against a catalog replay never sees), so
    /// every subsequent durable operation — including `checkpoint`, which
    /// would persist the diverged state — is rejected from here on. Takes
    /// the flag, not `self`, so the log stage can poison while the pipeline
    /// holds the database.
    pub(crate) fn poison(poisoned: &mut Option<String>, during: &str, err: CoreError) -> CoreError {
        if poisoned.is_none() {
            *poisoned = Some(format!("{during} failed: {err}"));
        }
        err
    }

    /// The one durable commit: the shared pipeline with this engine's log
    /// as its log stage. The in-memory mutation has already happened by the
    /// time the log runs, so a log failure poisons.
    fn commit(&mut self, op: TableOp<'_>) -> Result<Vec<MaintenanceReport>> {
        self.check_usable()?;
        let (log, poisoned) = (&mut self.log, &mut self.poisoned);
        self.db.commit_with(op, |updates, decomposed| {
            log.append(updates, decomposed)
                .map_err(|e| Self::poison(poisoned, "log append of an applied update", e))
        })
    }

    /// Durable insert: apply, log, maintain, publish at the log's LSN.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.commit(TableOp::Insert { table, rows })
    }

    /// Durable delete by unique key (see [`Durable::insert`]).
    pub fn delete(&mut self, table: &str, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>> {
        self.commit(TableOp::Delete { table, keys })
    }

    /// Durable SQL-style `UPDATE`: delete + insert, two commits, both logged
    /// with the decomposition flag so replay also disables the §6 fast
    /// paths.
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

    /// Create an eagerly-maintained view (on every shard, routing-aligned)
    /// and checkpoint immediately — view definitions live in checkpoints,
    /// not in the log.
    ///
    /// The DDL changed RAM only; if its checkpoint fails, no recovery can
    /// see the new view — poison.
    pub fn create_view(&mut self, def: ViewDef) -> Result<()> {
        self.check_usable()?;
        self.db.create_view(def)?;
        self.checkpoint()
            .map(drop)
            .map_err(|e| Self::poison(&mut self.poisoned, "checkpoint after view creation", e))
    }

    /// Write a checkpoint of the full in-memory state, then prune log
    /// segments and checkpoints that no recovery can need.
    pub fn checkpoint(&mut self) -> Result<Lsn> {
        self.check_usable()?;
        self.log.checkpoint(&self.db)
    }

    /// Flush every outstanding log record to stable storage (useful under
    /// [`ojv_durability::FsyncPolicy::EveryN`] before an intentional stop).
    pub fn sync(&mut self) -> Result<()> {
        self.log.sync()
    }

    /// Why the database refuses durable operations, if a durable write
    /// failed after an in-memory mutation (see [`CoreError::Poisoned`]).
    pub fn poison_reason(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }
}
