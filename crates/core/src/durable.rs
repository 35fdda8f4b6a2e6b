//! Durable maintenance: one [`Durable<L>`] engine over a
//! [`ShardedDatabase`], generic over the on-disk log topology `L`.
//!
//! # Protocol
//!
//! Every base-table change — [`Durable::insert`], [`Durable::delete`],
//! [`Durable::update`] — is one commit of the commit pipeline
//! (`database::commit`, routed by `ShardedDatabase::commit_with`)
//! with the log stage supplied here:
//!
//! 1. the whole operation is validated — both halves of an `UPDATE` at
//!    once ([`ojv_storage::Catalog::validate_update`]), so a refused
//!    operation changes nothing — and its delete half is applied to the
//!    in-memory catalog(s);
//! 2. each touched shard's deltas (delete half, then insert half, the
//!    latter taken from the validated rows) are handed to
//!    [`CommitLog::append`], which frames them as one record per stream —
//!    [`REC_UPDATE`] for one delta, [`REC_COMMIT`] for both halves of an
//!    `UPDATE` — and returns the commit LSN once they are as durable as the
//!    topology's fsync policy promises;
//! 3. views are maintained for the delete half, the insert half is
//!    applied and maintained, and every shard's snapshot registry
//!    publishes once, at that LSN — a snapshot LSN *is* a log position, and
//!    an `UPDATE` takes exactly one.
//!
//! A crash after step 2 therefore loses nothing: recovery decodes each
//! logged record back into the halves it came from and replays them
//! through the same pipeline with no log stage (`replay_record`), so the
//! recovered stores are *byte-identical* to an uncrashed twin — not merely
//! set-equal. A crash between 1 and 2 loses only
//! RAM state that was never acknowledged as durable. If step 2 *fails* (I/O
//! error, framing limit), RAM may be ahead of the log and recovery could
//! never reproduce it: the database **poisons** itself — every later durable
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
//! Their recovery halves (`open`) differ in what they replay and in the
//! clock they publish on, and live with the topologies; everything else —
//! usability check, poisoning, record framing and replay,
//! DDL-then-checkpoint, the commit itself — is written once, below.

use ojv_durability::{DurabilityError, Lsn, Vfs, Wal, WalOptions, WalRecord, WalScan};
use ojv_rel::{key_of, put_u32, ByteReader, Datum, Row};
use ojv_storage::{decode_update, encode_update, Update, UpdateOp, ValidInsert};

use crate::checkpoint_state::fit_u32;

use crate::database::{self, Database, Staged};
use crate::error::{CoreError, Result};
use crate::maintain::MaintenanceReport;
use crate::shard::ShardedDatabase;
use crate::view_def::ViewDef;

pub use crate::group_log::GroupLog;
pub use crate::wal_log::{RecoveryReport, WalLog};

/// WAL record kind: one applied base-table update batch — a commit with
/// one delta on its stream.
/// Payload: `[u8 flags][encoded Update]` (see [`ojv_storage::encode_update`]).
pub const REC_UPDATE: u8 = 1;

/// WAL record kind: one commit's ordered delta list on one stream — the
/// delete and insert halves of an SQL `UPDATE`, delete first. Payload:
/// `[u8 flags][u32 count][count × (u32 len, encoded Update)]`, `count ≥ 1`.
/// A commit with a single delta on a stream writes [`REC_UPDATE`] instead,
/// so insert and delete commits log the same bytes as before this kind
/// existed.
pub const REC_COMMIT: u8 = 4;

/// Record flag bit: the deltas are the halves of an SQL `UPDATE`
/// decomposition, so replay must disable the §6 FK fast paths exactly as
/// the original run did.
const FLAG_UPDATE_DECOMPOSITION: u8 = 1;

fn corrupt_record(rec: &WalRecord, detail: impl std::fmt::Display) -> CoreError {
    CoreError::Durability(DurabilityError::Corrupt {
        file: "wal".to_string(),
        detail: format!("commit record at lsn {}: {detail}", rec.lsn),
    })
}

/// The record of one commit's deltas on one stream, in commit order:
/// `(kind, payload)` — [`REC_UPDATE`] for one delta, [`REC_COMMIT`] for more.
pub(crate) fn commit_record(deltas: &[&Update], decomposed: bool) -> Result<(u8, Vec<u8>)> {
    let flags = if decomposed {
        FLAG_UPDATE_DECOMPOSITION
    } else {
        0
    };
    let mut payload = vec![flags];
    if let [one] = deltas {
        payload.extend_from_slice(&encode_update(one)?);
        return Ok((REC_UPDATE, payload));
    }
    assert!(
        !deltas.is_empty(),
        "a touched stream logs at least one delta"
    );
    put_u32(&mut payload, fit_u32(deltas.len(), "commit delta count")?);
    for delta in deltas {
        let body = encode_update(delta)?;
        put_u32(&mut payload, fit_u32(body.len(), "commit delta length")?);
        payload.extend_from_slice(&body);
    }
    Ok((REC_COMMIT, payload))
}

/// Refuse a record of any kind but [`REC_UPDATE`] and [`REC_COMMIT`] —
/// the retired deferred-view refresh marker (kind 2) by name.
pub(crate) fn check_commit_kind(rec: &WalRecord) -> Result<()> {
    match rec.kind {
        REC_UPDATE | REC_COMMIT => Ok(()),
        2 => Err(corrupt_record(
            rec,
            "a deferred-view refresh marker (WAL record kind 2); deferred views are no longer \
             supported",
        )),
        other => Err(corrupt_record(
            rec,
            format!("unknown WAL record kind {other}"),
        )),
    }
}

/// Decode a [`REC_UPDATE`] or [`REC_COMMIT`] record against `shard`'s
/// schema: `(deltas in commit order, decomposed)`. A malformed
/// [`REC_COMMIT`] frame — truncated, a length past its end, no delta,
/// trailing bytes — is [`DurabilityError::Corrupt`].
pub(crate) fn decode_commit_record(
    shard: &Database,
    rec: &WalRecord,
) -> Result<(Vec<Update>, bool)> {
    let mut r = ByteReader::new(&rec.payload);
    let flags = r.u8("update flags").map_err(CoreError::Rel)?;
    let decomposed = flags & FLAG_UPDATE_DECOMPOSITION != 0;
    match rec.kind {
        REC_UPDATE => {
            let body = rec.payload.get(1..).unwrap_or(&[]);
            Ok((vec![decode_update(body, shard.catalog())?], decomposed))
        }
        REC_COMMIT => {
            let count = r
                .u32("commit delta count")
                .map_err(|_| corrupt_record(rec, "truncated before its delta count"))?
                as usize; // lint:allow(cast) — u32 widens into usize
            if count == 0 {
                return Err(corrupt_record(rec, "no deltas"));
            }
            let mut deltas = Vec::with_capacity(count.min(r.remaining()));
            for i in 0..count {
                let len = r
                    .u32("commit delta length")
                    .map_err(|_| corrupt_record(rec, format!("truncated before delta {i}")))?
                    as usize; // lint:allow(cast) — u32 widens into usize
                let left = r.remaining();
                let body = r.bytes(len, "commit delta").map_err(|_| {
                    corrupt_record(rec, format!("delta {i} claims {len} bytes, {left} left"))
                })?;
                deltas.push(decode_update(body, shard.catalog())?);
            }
            if !r.is_empty() {
                return Err(corrupt_record(
                    rec,
                    format!("{} trailing bytes after {count} deltas", r.remaining()),
                ));
            }
            Ok((deltas, decomposed))
        }
        other => Err(corrupt_record(
            rec,
            format!("unknown WAL record kind {other}"),
        )),
    }
}

/// The replay step of both topologies: check a record's kind, decode it and
/// replay its deltas ([`replay_commit`]) against the shard that logged it.
/// Publishing is the caller's, on its topology's clock.
pub(crate) fn replay_record(shard: &mut Database, rec: &WalRecord) -> Result<()> {
    check_commit_kind(rec)?;
    let (deltas, decomposed) = decode_commit_record(shard, rec)?;
    replay_commit(shard, rec, deltas, decomposed)
}

/// Replay one logged commit's deltas: turn them back into the halves the
/// original commit had — the delete half's keys, the insert half's rows —
/// and run them through the commit pipeline with no log stage, exactly as
/// the original commit did (validation and decomposition flag included).
pub(crate) fn replay_commit(
    shard: &mut Database,
    rec: &WalRecord,
    deltas: Vec<Update>,
    decomposed: bool,
) -> Result<()> {
    let mut deltas = deltas.into_iter();
    let (table, delete, insert) = match (deltas.next(), deltas.next(), deltas.next()) {
        (Some(d), None, None) if d.op == UpdateOp::Delete => (d.table.clone(), Some(d), None),
        (Some(i), None, None) => (i.table.clone(), None, Some(i)),
        (Some(d), Some(i), None)
            if d.op == UpdateOp::Delete && i.op == UpdateOp::Insert && d.table == i.table =>
        {
            (d.table.clone(), Some(d), Some(i))
        }
        _ => {
            return Err(corrupt_record(
                rec,
                "deltas are not a delete and/or an insert of one table, in that order",
            ))
        }
    };
    let key_cols = shard.catalog().table(&table)?.key_cols();
    let key = |row: &Row| key_of(row, key_cols);
    let keys: Option<Vec<_>> = delete.map(|d| d.rows.rows().iter().map(key).collect());
    let part = [(keys.as_deref(), insert.map(|i| i.rows.into_rows()))];
    let units = std::slice::from_mut(shard);
    database::commit(units, &table, part, decomposed, |_, _| Ok(()), |_| Ok(None))?;
    Ok(())
}

/// Each unit's deltas in commit order — its applied delete half, then its
/// validated insert half; empty for an untouched unit — as
/// [`CommitLog::append`] takes them.
pub(crate) fn stream_deltas(staged: &[Staged]) -> Vec<Vec<&Update>> {
    staged
        .iter()
        .map(|(deleted, insert)| {
            let insert = insert.iter().map(ValidInsert::delta);
            deleted.iter().chain(insert).collect()
        })
        .collect()
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
/// `append` receives one commit's per-shard deltas in commit order
/// (`commit[s]` is shard `s`'s: its applied delete half, then its validated
/// insert half; empty for an untouched shard). Before it returns `Ok(lsn)`:
///
/// * every touched shard's deltas are framed as one record by
///   `commit_record` and appended to the stream that owns the shard, and
///   whatever fsyncs the topology's policy promises have completed — a
///   crash after the return loses nothing the policy covers;
/// * `lsn` is the commit's position on the topology's one global clock,
///   strictly above every LSN returned before; the caller publishes every
///   shard's snapshot registry at exactly this LSN;
/// * recovery of the files as they are at the return replays the commit
///   whole or (if the policy left it unsynced) not at all — never a part.
///
/// Any `Err` may leave RAM ahead of the log: the caller **poisons** the
/// engine. The same holds for a failed `checkpoint` right after DDL (the
/// new view exists only in RAM); a failed *routine* `checkpoint` or `sync`
/// changes no in-memory state and is simply returned.
pub trait CommitLog {
    /// Make one commit durable and return its commit LSN.
    fn append(&mut self, commit: &[Vec<&Update>], decomposed: bool) -> Result<Lsn>;

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
    /// as its log stage. A delete half has already been applied by the time
    /// the log runs, so a log failure poisons.
    fn commit(
        &mut self,
        table: &str,
        keys: Option<&[Vec<Datum>]>,
        rows: Option<Vec<Row>>,
    ) -> Result<Vec<MaintenanceReport>> {
        self.check_usable()?;
        let (log, poisoned) = (&mut self.log, &mut self.poisoned);
        self.db
            .commit_with(table, keys, rows, |staged, decomposed| {
                log.append(&stream_deltas(staged), decomposed)
                    .map_err(|e| Self::poison(poisoned, "log append of an applied update", e))
            })
    }

    /// Durable insert: apply, log, maintain, publish at the log's LSN.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.commit(table, None, Some(rows))
    }

    /// Durable delete by unique key (see [`Durable::insert`]).
    pub fn delete(&mut self, table: &str, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>> {
        self.commit(table, Some(keys), None)
    }

    /// Durable SQL-style `UPDATE`: delete + insert as one commit — both
    /// halves validated before either applies, logged as one record per
    /// touched stream under one LSN (one fsync under
    /// [`ojv_durability::FsyncPolicy::Always`]), published once. The record
    /// carries the decomposition flag, so replay also disables the §6 fast
    /// paths.
    pub fn update(
        &mut self,
        table: &str,
        keys: &[Vec<Datum>],
        new_rows: Vec<Row>,
    ) -> Result<Vec<MaintenanceReport>> {
        self.commit(table, Some(keys), Some(new_rows))
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
