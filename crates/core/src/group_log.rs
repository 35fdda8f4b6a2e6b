//! [`GroupLog`]: per-shard WAL streams under a group-commit coordinator,
//! and the [`ShardedDurableDatabase`] instantiation of [`Durable`] over it.
//!
//! # Log topology
//!
//! Every shard owns a private WAL (its own [`Vfs`] directory) holding that
//! shard's applied delta batches, appended **without** fsync
//! ([`FsyncPolicy::Never`]). A separate **coordinator** stream holds one
//! [`REC_GROUP`] record per logical commit: the vector of per-shard local
//! last-LSNs as of that commit. The coordinator record's own LSN *is* the
//! global commit LSN — the same LSN every shard's snapshot registry
//! publishes at, so durable LSNs and snapshot LSNs are one clock.
//!
//! # Group commit
//!
//! A logical commit touching K of N shards costs:
//!
//! 1. append one record per touched shard to its WAL (buffered, no fsync):
//!    that shard's deltas in commit order — both halves of an `UPDATE`
//!    share one record,
//! 2. **one fsync per touched shard** — the cross-shard barrier,
//! 3. one coordinator append + fsync of the group record.
//!
//! That is K+1 fsyncs per commit batch, not one per (shard, record): a
//! batch of M rows fanning out to K shards still pays K+1, which is the
//! "group" in group commit. The group record is the commit point — shard
//! records above the newest durable group record are, by definition, from
//! commits that never happened.
//!
//! # Recovery
//!
//! [`ShardedDurableDatabase::open`] converges on the **group-commit LSN
//! floor**: it reads the newest durable group record (global LSN `G`, local
//! floor vector `F`), restores each shard from its own checkpoint, and
//! replays that shard's WAL records with local LSN ≤ `F[s]` — records
//! *above* the floor (shard WALs that were fsynced when the crash hit
//! before the coordinator record became durable) are discarded, and a fresh
//! shard checkpoint is written over them so they can never resurface. A
//! shard record *missing* below the floor is real corruption (the group
//! record vouched for it) and fails recovery. Either way, all N shards land
//! on exactly the commits `≤ G` — byte-identical, via the canonical
//! [`ShardedDatabase::state_bytes`], to an uncrashed twin that stopped at
//! `G`.

use ojv_durability::{
    prune_checkpoints, read_latest_checkpoint, write_checkpoint, DurabilityError, FsyncPolicy, Lsn,
    Vfs, Wal, WalOptions, WalRecord,
};
use ojv_rel::{put_u32, put_u64, ByteReader};
use ojv_storage::{Catalog, Update};

use crate::checkpoint_state::{codec_err, encode_state, fit_u32, restore_state};
use crate::database::Database;
use crate::durable::{
    commit_record, open_wal_after, replay_record, CommitLog, Durable, ShardedDurableDatabase,
};
use crate::error::{CoreError, Result};
use crate::policy::MaintenancePolicy;
use crate::shard::{RoutingSpec, ShardedDatabase, ShardedSnapshot};

/// Coordinator WAL record kind: one group commit.
/// Payload: `[u32 shard_count][u64 local last-LSN per shard]`.
pub const REC_GROUP: u8 = 3;

fn corrupt(file: impl Into<String>, detail: impl Into<String>) -> CoreError {
    CoreError::Durability(DurabilityError::Corrupt {
        file: file.into(),
        detail: detail.into(),
    })
}

// ---------------------------------------------------------------------------
// Coordinator codecs
// ---------------------------------------------------------------------------

fn encode_group(floors: &[Lsn]) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(4 + 8 * floors.len());
    put_u32(&mut buf, fit_u32(floors.len(), "shard count")?);
    for &f in floors {
        put_u64(&mut buf, f);
    }
    Ok(buf)
}

fn decode_group(rec: &WalRecord, shards: usize) -> Result<Vec<Lsn>> {
    let mut r = ByteReader::new(&rec.payload);
    let n = r.u32("group shard count").map_err(CoreError::Rel)? as usize; // lint:allow(cast) — u32 widens into usize
    if n != shards {
        return Err(corrupt(
            "coordinator wal",
            format!(
                "group record at lsn {} names {n} shards, directory has {shards}",
                rec.lsn
            ),
        ));
    }
    let mut floors = Vec::with_capacity(n);
    for _ in 0..n {
        floors.push(r.u64("group shard floor").map_err(CoreError::Rel)?);
    }
    Ok(floors)
}

/// Coordinator checkpoint payload: the constraint flag, the floor vector as
/// of the checkpoint, and the routing spec (the one piece of façade state
/// that lives in no shard).
fn encode_coord_state(enforce: bool, floors: &[Lsn], routing: &RoutingSpec) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    buf.push(u8::from(enforce));
    put_u32(&mut buf, fit_u32(floors.len(), "shard count")?);
    for &f in floors {
        put_u64(&mut buf, f);
    }
    let entries: Vec<(&str, &[String])> = routing.entries().collect();
    put_u32(&mut buf, fit_u32(entries.len(), "table count")?);
    for (table, cols) in entries {
        ojv_rel::put_str(&mut buf, table).map_err(CoreError::Rel)?;
        put_u32(&mut buf, fit_u32(cols.len(), "column count")?);
        for c in cols {
            ojv_rel::put_str(&mut buf, c).map_err(CoreError::Rel)?;
        }
    }
    Ok(buf)
}

fn decode_coord_state(data: &[u8]) -> Result<(bool, Vec<Lsn>, RoutingSpec)> {
    let mut r = ByteReader::new(data);
    let enforce = r.u8("enforce flag").map_err(CoreError::Rel)? != 0;
    let n = r.u32("shard count").map_err(CoreError::Rel)? as usize; // lint:allow(cast) — u32 widens into usize
    let mut floors = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        floors.push(r.u64("shard floor").map_err(CoreError::Rel)?);
    }
    let n_tables = r.u32("table count").map_err(CoreError::Rel)? as usize; // lint:allow(cast) — u32 widens into usize
    let mut routing = RoutingSpec::new();
    for _ in 0..n_tables {
        let table = r.str("routing table").map_err(CoreError::Rel)?.to_string();
        let n_cols = r.u32("routing column count").map_err(CoreError::Rel)? as usize; // lint:allow(cast) — u32 widens into usize
        let mut cols = Vec::with_capacity(n_cols.min(r.remaining()));
        for _ in 0..n_cols {
            cols.push(r.str("routing column").map_err(CoreError::Rel)?.to_string());
        }
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        routing = routing.table(&table, &col_refs);
    }
    if !r.is_empty() {
        return Err(codec_err(format!(
            "{} trailing bytes after coordinator state",
            r.remaining()
        )));
    }
    Ok((enforce, floors, routing))
}

// ---------------------------------------------------------------------------
// GroupLog
// ---------------------------------------------------------------------------

/// One shard's private log: its directory and WAL stream.
struct ShardLog<V: Vfs> {
    vfs: V,
    wal: Wal,
}

/// What sharded recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedRecoveryReport {
    /// Global LSN of the newest durable group record — the commit floor all
    /// shards converged on.
    pub group_lsn: Lsn,
    /// High-water LSN of the coordinator checkpoint.
    pub checkpoint_lsn: Lsn,
    /// Shard WAL records re-applied (across all shards) — one per touched
    /// shard per replayed commit, an `UPDATE` included.
    pub replayed_updates: usize,
    /// Shard WAL records above the group floor, discarded: their shard WAL
    /// was fsynced but the crash hit before the group record was.
    pub discarded_records: usize,
    /// Per-stream torn/corrupt-tail reasons (index N = coordinator).
    pub truncated: Vec<Option<String>>,
}

/// K shard streams plus the coordinator stream (see module docs).
pub struct GroupLog<V: Vfs> {
    shards: Vec<ShardLog<V>>,
    coord_vfs: V,
    coord_wal: Wal,
}

/// Shard appends never fsync themselves: durability comes from the
/// group-commit barrier.
fn shard_wal_options() -> WalOptions {
    WalOptions {
        policy: FsyncPolicy::Never,
        ..WalOptions::default()
    }
}

fn coord_wal_options(policy: &MaintenancePolicy) -> WalOptions {
    WalOptions {
        policy: policy.fsync,
        ..WalOptions::default()
    }
}

/// Checkpoint one shard at its log head: the head-stamped snapshot covers
/// every LSN the stream has issued, so everything below it can be pruned.
fn checkpoint_shard<V: Vfs>(log: &mut ShardLog<V>, shard: &Database) -> Result<Lsn> {
    log.wal.sync(&mut log.vfs)?;
    let head = log.wal.last_lsn();
    write_checkpoint(&mut log.vfs, head, &encode_state(shard)?)?;
    log.wal.prune_below(&mut log.vfs, head + 1)?;
    prune_checkpoints(&mut log.vfs, head)?;
    Ok(head)
}

impl<V: Vfs> CommitLog for GroupLog<V> {
    /// The group-commit barrier: buffered appends to the owner shards' WALs,
    /// one fsync per touched shard, then the coordinator's group record —
    /// the commit point, whose LSN is the global commit LSN.
    fn append(&mut self, commit: &[Vec<&Update>], decomposed: bool) -> Result<Lsn> {
        for (log, deltas) in self.shards.iter_mut().zip(commit) {
            if !deltas.is_empty() {
                let (kind, payload) = commit_record(deltas, decomposed)?;
                log.wal.append(&mut log.vfs, kind, &payload)?;
            }
        }
        for (log, deltas) in self.shards.iter_mut().zip(commit) {
            if !deltas.is_empty() {
                log.wal.sync(&mut log.vfs)?;
            }
        }
        // The group record names every shard's log head (touched or not).
        let floors: Vec<Lsn> = self.shards.iter().map(|l| l.wal.last_lsn()).collect();
        let payload = encode_group(&floors)?;
        Ok(self
            .coord_wal
            .append(&mut self.coord_vfs, REC_GROUP, &payload)?)
    }

    /// Checkpoint every shard and the coordinator, then prune the logs:
    /// each shard's state is serialized at its current log head, and the
    /// coordinator checkpoint pins the matching floor vector.
    fn checkpoint(&mut self, db: &ShardedDatabase) -> Result<Lsn> {
        let mut floors = Vec::with_capacity(self.shards.len());
        for (log, shard) in self.shards.iter_mut().zip(db.shards()) {
            floors.push(checkpoint_shard(log, shard)?);
        }
        self.coord_wal.sync(&mut self.coord_vfs)?;
        let lsn = self.coord_wal.last_lsn();
        let payload = encode_coord_state(db.enforce_constraints, &floors, &db.routing_spec())?;
        write_checkpoint(&mut self.coord_vfs, lsn, &payload)?;
        self.coord_wal.prune_below(&mut self.coord_vfs, lsn + 1)?;
        prune_checkpoints(&mut self.coord_vfs, lsn)?;
        Ok(lsn)
    }

    fn sync(&mut self) -> Result<()> {
        for log in &mut self.shards {
            log.wal.sync(&mut log.vfs)?;
        }
        self.coord_wal.sync(&mut self.coord_vfs)?;
        Ok(())
    }
}

impl<V: Vfs> ShardedDurableDatabase<V> {
    /// Initialize a fresh sharded durable database: one directory per shard
    /// plus the coordinator's. Shard count = `shard_vfs.len()`; the
    /// template's rows are routed to their owner shards and every directory
    /// gets its genesis checkpoint.
    pub fn create(
        shard_vfs: Vec<V>,
        coord_vfs: V,
        template: &Catalog,
        routing: RoutingSpec,
        policy: MaintenancePolicy,
    ) -> Result<Self> {
        let mut db = ShardedDatabase::new(template, shard_vfs.len(), routing.clone())?;
        db.set_policy(policy);
        let mut shards = Vec::with_capacity(shard_vfs.len());
        for (mut vfs, shard) in shard_vfs.into_iter().zip(db.shards()) {
            let wal = Wal::create(&mut vfs, shard_wal_options(), 1)?;
            write_checkpoint(&mut vfs, 0, &encode_state(shard)?)?;
            shards.push(ShardLog { vfs, wal });
        }
        let mut coord_vfs = coord_vfs;
        let coord_wal = Wal::create(&mut coord_vfs, coord_wal_options(&policy), 1)?;
        let floors = vec![0; shards.len()];
        write_checkpoint(
            &mut coord_vfs,
            0,
            &encode_coord_state(db.enforce_constraints, &floors, &routing)?,
        )?;
        Ok(Durable {
            db,
            log: GroupLog {
                shards,
                coord_vfs,
                coord_wal,
            },
            poisoned: None,
        })
    }

    /// Open an existing sharded durable database, converging every shard on
    /// the group-commit LSN floor (see module docs).
    pub fn open(
        shard_vfs: Vec<V>,
        coord_vfs: V,
        policy: MaintenancePolicy,
    ) -> Result<(Self, ShardedRecoveryReport)> {
        let n_shards = shard_vfs.len();
        let mut coord_vfs = coord_vfs;
        let ckpt = read_latest_checkpoint(&mut coord_vfs)?.ok_or_else(|| {
            corrupt(
                "coordinator checkpoint",
                "no valid coordinator checkpoint found (directory never initialized?)",
            )
        })?;
        let (enforce, ckpt_floors, routing) = decode_coord_state(&ckpt.payload)?;
        if ckpt_floors.len() != n_shards {
            return Err(corrupt(
                "coordinator checkpoint",
                format!(
                    "checkpoint names {} shards, caller supplied {n_shards} directories",
                    ckpt_floors.len()
                ),
            ));
        }
        let (coord_wal, coord_scan) =
            open_wal_after(&mut coord_vfs, coord_wal_options(&policy), ckpt.lsn)?;
        // Fold the group records into the final floor: the newest durable
        // group record defines both the global commit LSN and each shard's
        // local replay ceiling.
        let mut group_lsn = ckpt.lsn;
        let mut floors = ckpt_floors;
        for rec in &coord_scan.records {
            if rec.kind != REC_GROUP {
                return Err(corrupt(
                    "coordinator wal",
                    format!("unknown record kind {} at lsn {}", rec.kind, rec.lsn),
                ));
            }
            if rec.lsn <= ckpt.lsn {
                continue; // already reflected in the checkpointed floor
            }
            floors = decode_group(rec, n_shards)?;
            group_lsn = rec.lsn;
        }

        let mut report = ShardedRecoveryReport {
            group_lsn,
            checkpoint_lsn: ckpt.lsn,
            replayed_updates: 0,
            discarded_records: 0,
            truncated: Vec::with_capacity(n_shards + 1),
        };

        let mut shard_dbs = Vec::with_capacity(n_shards);
        let mut shard_logs = Vec::with_capacity(n_shards);
        for (s, mut vfs) in shard_vfs.into_iter().enumerate() {
            let label = format!("shard{s} wal");
            let ckpt = read_latest_checkpoint(&mut vfs)?
                .ok_or_else(|| corrupt(&label, "no valid shard checkpoint found"))?;
            // The shard checkpoint is stamped with a *local* WAL LSN, but
            // the snapshot registry runs on the *global* commit clock —
            // anchor the restored chains at 0 and publish once at the group
            // floor below; pins below the floor die with the crash anyway.
            let mut db = restore_state(&ckpt.payload, policy, 0)?;
            let (wal, scan) = open_wal_after(&mut vfs, shard_wal_options(), ckpt.lsn)?;
            report.truncated.push(scan.truncated.map(|t| t.reason));
            // Replay this shard's committed tail: records in
            // (checkpoint, floor]. Anything above the floor was never group
            // committed; anything missing below it is corruption the group
            // record vouched against.
            let floor = floors[s];
            let mut next_expected = ckpt.lsn + 1;
            let mut discarded = 0usize;
            for rec in &scan.records {
                if rec.lsn <= ckpt.lsn {
                    continue; // pre-checkpoint record in an unpruned segment
                }
                if rec.lsn > floor {
                    discarded += 1;
                    continue;
                }
                if rec.lsn != next_expected {
                    return Err(corrupt(
                        &label,
                        format!("gap before lsn {} (expected {next_expected})", rec.lsn),
                    ));
                }
                next_expected += 1;
                replay_record(&mut db, rec)?;
                report.replayed_updates += 1;
            }
            if next_expected <= floor {
                return Err(corrupt(
                    &label,
                    format!(
                        "log ends at lsn {} but the durable group record vouches for {floor}",
                        next_expected - 1
                    ),
                ));
            }
            // Converge the shard's registry on the global commit LSN so
            // cross-shard snapshots pin cleanly at `group_lsn`.
            if group_lsn > 0 {
                db.publish_commit(group_lsn);
            }
            db.set_commit_lsn(group_lsn);
            let mut log = ShardLog { vfs, wal };
            if discarded > 0 {
                // Bury the uncommitted records: a fresh checkpoint stamped
                // at the log head covers their LSNs with the *committed*
                // state, so no later recovery can replay them.
                checkpoint_shard(&mut log, &db)?;
            }
            report.discarded_records += discarded;
            shard_dbs.push(db);
            shard_logs.push(log);
        }
        report
            .truncated
            .push(coord_scan.truncated.map(|t| t.reason));

        let db = ShardedDatabase::from_recovered(shard_dbs, &routing, enforce)?;
        Ok((
            Durable {
                db,
                log: GroupLog {
                    shards: shard_logs,
                    coord_vfs,
                    coord_wal,
                },
                poisoned: None,
            },
            report,
        ))
    }

    /// The wrapped in-memory façade.
    pub fn database(&self) -> &ShardedDatabase {
        &self.db
    }

    /// Canonical cross-shard state encoding (see
    /// [`ShardedDatabase::state_bytes`]) — recovery compares against an
    /// uncrashed twin with exactly this.
    pub fn state_bytes(&self) -> Result<Vec<u8>> {
        self.db.state_bytes()
    }

    /// Pin a consistent cross-shard snapshot at the newest group commit.
    pub fn snapshot(&self) -> Result<ShardedSnapshot> {
        self.db.snapshot()
    }

    /// Global commit LSN (== coordinator WAL LSN of the newest group
    /// record).
    pub fn commit_lsn(&self) -> Lsn {
        self.db.commit_lsn()
    }

    /// Tear the database apart into its filesystems (`N` shard directories
    /// + coordinator) — crash tests keep only the bytes.
    pub fn into_vfs(self) -> (Vec<V>, V) {
        (
            self.log.shards.into_iter().map(|l| l.vfs).collect(),
            self.log.coord_vfs,
        )
    }

    /// Per-shard VFS access for fault inspection.
    pub fn shard_vfs(&self, shard: usize) -> &V {
        &self.log.shards[shard].vfs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint_state::old_format::{assert_refused, with_deferred_view};
    use crate::durable::stream_deltas;
    use crate::fixtures::*;
    use crate::view_def::{col_eq, ViewDef, ViewExpr};
    use ojv_durability::MemVfs;
    use ojv_rel::Datum;

    fn routing() -> RoutingSpec {
        RoutingSpec::new()
            .table("part", &["p_partkey"])
            .table("orders", &["o_orderkey"])
            .table("lineitem", &["l_orderkey"])
    }

    fn ol_view() -> ViewDef {
        ViewDef::new(
            "ol_view",
            ViewExpr::left_outer(
                vec![col_eq("orders", "o_orderkey", "lineitem", "l_orderkey")],
                ViewExpr::table("orders"),
                ViewExpr::table("lineitem"),
            ),
        )
    }

    fn fresh(n: usize) -> ShardedDurableDatabase<MemVfs> {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let vfs: Vec<MemVfs> = (0..n).map(|_| MemVfs::new()).collect();
        let mut d = ShardedDurableDatabase::create(
            vfs,
            MemVfs::new(),
            &c,
            routing(),
            MaintenancePolicy::default(),
        )
        .unwrap();
        d.create_view(ol_view()).unwrap();
        d
    }

    /// "Crash": keep only each stream's durable (synced) bytes.
    fn crash(d: ShardedDurableDatabase<MemVfs>) -> (Vec<MemVfs>, MemVfs) {
        let (shards, coord) = d.into_vfs();
        (shards.iter().map(MemVfs::crash).collect(), coord.crash())
    }

    /// A shard checkpoint written while deferred views existed is refused.
    #[test]
    fn shard_checkpoint_with_a_deferred_view_is_refused() {
        let (mut shards, coord) = crash(fresh(2));
        let ckpt = read_latest_checkpoint(&mut shards[1]).unwrap().unwrap();
        let old = with_deferred_view(&ckpt.payload);
        write_checkpoint(&mut shards[1], ckpt.lsn, &old).unwrap();
        let res = ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default());
        assert_refused(res, "deferred view");
    }

    #[test]
    fn commit_crash_reopen_is_byte_identical() {
        for n in [1usize, 2, 4] {
            let mut d = fresh(n);
            d.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 42.0)])
                .unwrap();
            d.insert("lineitem", vec![lineitem_row(5, 8, 1, 1, 7.0)])
                .unwrap();
            d.delete("lineitem", &[vec![Datum::Int(3), Datum::Int(7)]])
                .unwrap();
            let expected = d.state_bytes().unwrap();
            let lsn = d.commit_lsn();
            let (shards, coord) = crash(d);
            let (r, report) =
                ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
            assert_eq!(report.group_lsn, lsn, "{n} shards");
            assert_eq!(r.state_bytes().unwrap(), expected, "{n} shards");
            assert_eq!(r.commit_lsn(), lsn);
        }
    }

    #[test]
    fn unsynced_shard_tail_rolls_back_to_group_floor() {
        let mut d = fresh(3);
        d.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 42.0)])
            .unwrap();
        let committed = d.state_bytes().unwrap();
        let floor = d.commit_lsn();

        // A half-finished commit: the owner shard's WAL gets the record and
        // even an fsync, but the coordinator record never lands (crash
        // between barrier steps 2 and 3).
        let row = lineitem_row(5, 8, 1, 1, 7.0);
        let log = &mut d.log;
        let crashed =
            d.db.commit_with("lineitem", None, Some(vec![row]), |staged, decomposed| {
                for (log, deltas) in log.shards.iter_mut().zip(stream_deltas(staged)) {
                    if !deltas.is_empty() {
                        let (kind, payload) = commit_record(&deltas, decomposed).unwrap();
                        log.wal.append(&mut log.vfs, kind, &payload).unwrap();
                        log.wal.sync(&mut log.vfs).unwrap();
                    }
                }
                Err(CoreError::Poisoned {
                    detail: "crash before the group record".to_string(),
                })
            });
        assert!(crashed.is_err());
        let (shards, coord) = crash(d);

        let (r, report) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        assert_eq!(report.group_lsn, floor);
        assert_eq!(report.discarded_records, 1, "the orphaned shard record");
        assert_eq!(r.state_bytes().unwrap(), committed);

        // And the discarded record must stay dead across ANOTHER cycle.
        let (shards, coord) = crash(r);
        let (r2, rep2) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        assert_eq!(rep2.discarded_records, 0);
        assert_eq!(r2.state_bytes().unwrap(), committed);
    }

    #[test]
    fn checkpoint_bounds_replay() {
        let mut d = fresh(2);
        d.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 42.0)])
            .unwrap();
        d.checkpoint().unwrap();
        d.insert("lineitem", vec![lineitem_row(5, 8, 1, 1, 7.0)])
            .unwrap();
        let expected = d.state_bytes().unwrap();
        let (shards, coord) = crash(d);
        let (r, report) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        assert_eq!(report.replayed_updates, 1, "only the post-checkpoint batch");
        assert_eq!(r.state_bytes().unwrap(), expected);
    }

    #[test]
    fn update_decomposition_survives_replay() {
        let mut d = fresh(4);
        d.update(
            "lineitem",
            &[vec![Datum::Int(2), Datum::Int(1)]],
            vec![lineitem_row(2, 1, 3, 99, 1.0)],
        )
        .unwrap();
        let expected = d.state_bytes().unwrap();
        let (shards, coord) = crash(d);
        let (r, report) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        // Both halves route to the key's one owner shard: one record.
        assert_eq!(report.replayed_updates, 1);
        assert_eq!(r.state_bytes().unwrap(), expected);
        for s in r.database().shards() {
            assert!(crate::maintain::verify_against_recompute(
                s.view("ol_view").unwrap(),
                s.catalog()
            ));
        }
    }

    #[test]
    fn recovered_database_keeps_committing() {
        let mut d = fresh(2);
        d.insert("lineitem", vec![lineitem_row(3, 7, 2, 4, 42.0)])
            .unwrap();
        let (shards, coord) = crash(d);
        let (mut r, _) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        r.insert("lineitem", vec![lineitem_row(5, 8, 1, 1, 7.0)])
            .unwrap();
        let expected = r.state_bytes().unwrap();
        let (shards, coord) = crash(r);
        let (r2, _) =
            ShardedDurableDatabase::open(shards, coord, MaintenancePolicy::default()).unwrap();
        assert_eq!(r2.state_bytes().unwrap(), expected);
    }
}
