//! Property suite for the sharded engine.
//!
//! Two claims, both differential:
//!
//! 1. **Shard-count transparency** — the same random insert/delete/UPDATE
//!    sequence driven through [`ShardedDatabase`] at shard counts 1, 2, 3,
//!    and 8 ends in byte-identical [`ShardedDatabase::state_bytes`], every
//!    shard's view verifies against its own recompute, and constraint
//!    rejections (duplicate keys, FK restricts, multi-key deletes with a
//!    missing or a repeated key) are identical at every shard count — and
//!    a *refused* op leaves `state_bytes()` untouched on every twin.
//!    Failing sequences shrink toward shorter, simpler ones.
//!    Two durable twins ride the same script — [`DurableDatabase`] and a
//!    1-shard [`ShardedDurableDatabase`], both on [`MemVfs`]: same verdicts
//!    op by op, same view contents, and after drop-and-`open` each equals
//!    its uncrashed self.
//!
//! 2. **Group-commit floor convergence** — for every subset of shards whose
//!    WALs made it to stable storage before a crash (the coordinator's
//!    group record did not), recovery converges on the durable group-commit
//!    floor: the torn commit disappears completely, whichever shards kept
//!    fragments of it, and the reopened database keeps committing.

use ojv::prelude::*;
use ojv_testkit::{property, strategy, vec_of, FaultFile, FaultSpec, Rng, Strategy};

use ojv::rel::{Column, DataType};

/// Parent/child schema where the child's key *starts with* the parent key,
/// so routing both tables by `pid` is key-aligned and the join
/// `child.pid = parent.pid` is shard-local.
fn schema() -> Catalog {
    let mut c = Catalog::new();
    c.create_table(
        "parent",
        vec![
            Column::new("parent", "pid", DataType::Int, false),
            Column::new("parent", "pdata", DataType::Int, true),
        ],
        &["pid"],
    )
    .unwrap();
    c.create_table(
        "child",
        vec![
            Column::new("child", "pid", DataType::Int, false),
            Column::new("child", "cid", DataType::Int, false),
            Column::new("child", "cdata", DataType::Int, true),
        ],
        &["pid", "cid"],
    )
    .unwrap();
    c.add_foreign_key("fk_child_parent", "child", &["pid"], "parent")
        .unwrap();
    c
}

fn routing() -> RoutingSpec {
    RoutingSpec::new()
        .table("parent", &["pid"])
        .table("child", &["pid"])
}

/// The maintained views: a left-outer and a full-outer join over the
/// aligned key, the second with a non-key filter (predicates don't affect
/// alignment; only the equality atoms do).
fn views() -> Vec<ViewDef> {
    vec![
        ViewDef::new(
            "pc_lo",
            ViewExpr::left_outer(
                vec![col_eq("parent", "pid", "child", "pid")],
                ViewExpr::table("parent"),
                ViewExpr::table("child"),
            ),
        ),
        ViewDef::new(
            "pc_fo",
            ViewExpr::full_outer(
                vec![
                    col_eq("parent", "pid", "child", "pid"),
                    col_cmp("child", "cdata", CmpOp::Ge, 10i64),
                ],
                ViewExpr::table("parent"),
                ViewExpr::table("child"),
            ),
        ),
    ]
}

fn sharded(n: usize) -> ShardedDatabase {
    let mut db = ShardedDatabase::new(&schema(), n, routing()).unwrap();
    for def in views() {
        db.create_view(def).unwrap();
    }
    db
}

/// The durable twins of the differential property, views created.
fn durable_twins() -> (DurableDatabase<MemVfs>, ShardedDurableDatabase<MemVfs>) {
    let policy = MaintenancePolicy::default();
    let mut wal = DurableDatabase::create(MemVfs::new(), schema(), policy).unwrap();
    let mut group = ShardedDurableDatabase::create(
        vec![MemVfs::new()],
        MemVfs::new(),
        &schema(),
        routing(),
        policy,
    )
    .unwrap();
    for def in views() {
        wal.create_view(def.clone()).unwrap();
        group.create_view(def).unwrap();
    }
    (wal, group)
}

/// One randomized facade operation. Indices pick from the driver's mirror
/// of live rows (modulo its size), so every generated op is meaningful for
/// any database state and shrinks toward index 0.
#[derive(Debug, Clone)]
enum Op {
    InsertParent {
        pdata: i64,
    },
    InsertChild {
        parent: usize,
        cdata: i64,
    },
    DeleteChild {
        child: usize,
    },
    /// Attempted on an *arbitrary* parent: with children it must be
    /// rejected (FK restrict) identically at every shard count, without it
    /// must succeed everywhere.
    DeleteParent {
        parent: usize,
    },
    UpdateChild {
        child: usize,
        cdata: i64,
    },
    /// A multi-key delete that must be refused as a whole: up to three
    /// live children (spread over shards by their parents) with a key that
    /// does not exist in the middle of the batch, or — `repeat` — with the
    /// batch's first key once more at its end.
    RefusedDeleteChildren {
        child: usize,
        repeat: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    strategy(
        |rng: &mut Rng| match rng.gen_range(0..6) {
            0 => Op::InsertParent {
                pdata: rng.gen_range(0i64..40),
            },
            1 => Op::InsertChild {
                parent: rng.gen_range(0usize..8),
                cdata: rng.gen_range(0i64..40),
            },
            2 => Op::DeleteChild {
                child: rng.gen_range(0usize..8),
            },
            3 => Op::DeleteParent {
                parent: rng.gen_range(0usize..8),
            },
            4 => Op::RefusedDeleteChildren {
                child: rng.gen_range(0usize..8),
                repeat: rng.gen_bool(0.5),
            },
            _ => Op::UpdateChild {
                child: rng.gen_range(0usize..8),
                cdata: rng.gen_range(0i64..40),
            },
        },
        |op: &Op| match op {
            Op::InsertParent { pdata } if *pdata > 0 => {
                vec![Op::InsertParent { pdata: pdata / 2 }]
            }
            Op::InsertChild { parent, cdata } => {
                let mut out = Vec::new();
                if *parent > 0 {
                    out.push(Op::InsertChild {
                        parent: parent - 1,
                        cdata: *cdata,
                    });
                }
                if *cdata > 0 {
                    out.push(Op::InsertChild {
                        parent: *parent,
                        cdata: cdata / 2,
                    });
                }
                out
            }
            Op::DeleteChild { child } if *child > 0 => {
                vec![Op::DeleteChild { child: child - 1 }]
            }
            Op::DeleteParent { parent } if *parent > 0 => {
                vec![Op::DeleteParent { parent: parent - 1 }]
            }
            Op::RefusedDeleteChildren { child, repeat } if *child > 0 => {
                vec![Op::RefusedDeleteChildren {
                    child: child - 1,
                    repeat: *repeat,
                }]
            }
            Op::UpdateChild { child, cdata } => {
                let mut out = Vec::new();
                if *child > 0 {
                    out.push(Op::UpdateChild {
                        child: child - 1,
                        cdata: *cdata,
                    });
                }
                if *cdata > 0 {
                    out.push(Op::UpdateChild {
                        child: *child,
                        cdata: cdata / 2,
                    });
                }
                out
            }
            _ => Vec::new(),
        },
    )
}

/// Shard counts every differential assertion runs at. 1 is the serial
/// twin; 3 exercises non-power-of-two routing; 8 leaves most shards nearly
/// empty on small sequences.
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

property! {
    /// Random op sequences end byte-identical at every shard count, with
    /// every shard's views verified against recompute and constraint
    /// rejections agreeing across shard counts.
    #[cases = 32]
    fn shard_count_is_transparent(
        seed in 0u64..10_000,
        ops in vec_of(op_strategy(), 1..14),
    ) {
        let mut dbs: Vec<ShardedDatabase> = SHARD_COUNTS.iter().map(|&n| sharded(n)).collect();
        let (mut wal, mut group) = durable_twins();

        // Driver-side mirror of live rows, advanced only when ops succeed.
        let mut parents: Vec<i64> = Vec::new();
        let mut children: Vec<(i64, i64)> = Vec::new();
        let (mut next_pid, mut next_cid) = (1i64, 1i64);

        for op in &ops {
            // Resolve the op against the mirror into one concrete call made
            // identically on every twin.
            enum Call {
                Insert(&'static str, Row),
                Delete(&'static str, Vec<Vec<Datum>>),
                Update(&'static str, Vec<Datum>, Row),
            }
            let call = match op {
                Op::InsertParent { pdata } => {
                    next_pid += 1;
                    Call::Insert("parent", vec![Datum::Int(next_pid), Datum::Int(*pdata)])
                }
                Op::InsertChild { parent, cdata } => {
                    if parents.is_empty() {
                        continue;
                    }
                    let pid = parents[parent % parents.len()];
                    next_cid += 1;
                    Call::Insert(
                        "child",
                        vec![Datum::Int(pid), Datum::Int(next_cid), Datum::Int(*cdata)],
                    )
                }
                Op::DeleteChild { child } => {
                    if children.is_empty() {
                        continue;
                    }
                    let (pid, cid) = children[child % children.len()];
                    Call::Delete("child", vec![vec![Datum::Int(pid), Datum::Int(cid)]])
                }
                Op::DeleteParent { parent } => {
                    if parents.is_empty() {
                        continue;
                    }
                    let pid = parents[parent % parents.len()];
                    Call::Delete("parent", vec![vec![Datum::Int(pid)]])
                }
                Op::RefusedDeleteChildren { child, repeat } => {
                    if children.is_empty() {
                        continue;
                    }
                    let mut keys: Vec<Vec<Datum>> = (0..children.len().min(3))
                        .map(|i| children[(child + i) % children.len()])
                        .map(|(pid, cid)| vec![Datum::Int(pid), Datum::Int(cid)])
                        .collect();
                    if *repeat {
                        keys.push(keys[0].clone());
                    } else {
                        // `next_cid` is the highest cid ever issued.
                        let missing = vec![Datum::Int(1), Datum::Int(next_cid + 1)];
                        keys.insert(keys.len() / 2, missing);
                    }
                    Call::Delete("child", keys)
                }
                Op::UpdateChild { child, cdata } => {
                    if children.is_empty() {
                        continue;
                    }
                    let (pid, cid) = children[child % children.len()];
                    Call::Update(
                        "child",
                        vec![Datum::Int(pid), Datum::Int(cid)],
                        vec![Datum::Int(pid), Datum::Int(cid), Datum::Int(*cdata)],
                    )
                }
            };

            // Apply to every twin; all must agree on success vs rejection.
            // The three engine types share no trait; a macro makes the one
            // call on each.
            macro_rules! verdict {
                ($db:expr) => {
                    match &call {
                        Call::Insert(t, row) => $db.insert(t, vec![row.clone()]).is_ok(),
                        Call::Delete(t, keys) => $db.delete(t, keys).is_ok(),
                        Call::Update(t, key, row) => $db
                            .update(t, std::slice::from_ref(key), vec![row.clone()])
                            .is_ok(),
                    }
                };
            }
            macro_rules! states {
                () => {{
                    let mut states: Vec<Vec<u8>> =
                        dbs.iter().map(|db| db.state_bytes().unwrap()).collect();
                    states.push(wal.state_bytes().unwrap());
                    states.push(group.state_bytes().unwrap());
                    states
                }};
            }
            let before = states!();
            let mut verdicts: Vec<bool> = dbs.iter_mut().map(|db| verdict!(db)).collect();
            verdicts.push(verdict!(wal));
            verdicts.push(verdict!(group));
            assert!(
                verdicts.iter().all(|&v| v == verdicts[0]),
                "twins disagree on op outcome: {verdicts:?} for {op:?} (seed={seed})"
            );
            if let Op::RefusedDeleteChildren { .. } = op {
                assert!(!verdicts[0], "{op:?} must be refused (seed={seed})");
            }
            // Refused ⇒ bit-identical, on every twin: the in-memory façades
            // at each shard count (canonical bytes: no row may be gone) and
            // both durable engines (`DurableDatabase`'s bytes are in heap
            // order: no row may have moved either).
            if !verdicts[0] {
                for (twin, (was, is)) in before.iter().zip(states!()).enumerate() {
                    assert!(
                        *was == is,
                        "refused {op:?} changed the state of twin #{twin} (seed={seed})"
                    );
                }
            }

            // Advance the mirror only on success.
            if verdicts[0] {
                match (&call, op) {
                    (Call::Insert(_, _), Op::InsertParent { .. }) => parents.push(next_pid),
                    (Call::Insert(_, row), Op::InsertChild { .. }) => {
                        let (Datum::Int(pid), Datum::Int(cid)) = (&row[0], &row[1]) else {
                            unreachable!()
                        };
                        children.push((*pid, *cid));
                    }
                    (Call::Delete(_, keys), Op::DeleteChild { .. }) => {
                        let (Datum::Int(pid), Datum::Int(cid)) = (&keys[0][0], &keys[0][1]) else {
                            unreachable!()
                        };
                        children.retain(|c| *c != (*pid, *cid));
                    }
                    (Call::Delete(_, keys), Op::DeleteParent { .. }) => {
                        let Datum::Int(pid) = &keys[0][0] else { unreachable!() };
                        parents.retain(|p| p != pid);
                    }
                    _ => {}
                }
            }
        }

        // Final differential check: byte-identical state at every shard
        // count, and every shard's views verify against recompute.
        let reference = dbs[0].state_bytes().unwrap();
        for (db, &n) in dbs.iter().zip(&SHARD_COUNTS) {
            assert_eq!(
                db.state_bytes().unwrap(),
                reference,
                "{n}-shard state diverged from the 1-shard twin (seed={seed}, ops={ops:?})"
            );
            for shard in db.shards() {
                for def in views() {
                    let v = shard.view(def.name()).unwrap();
                    assert!(
                        ojv::core::maintain::verify_against_recompute(v, shard.catalog()),
                        "{n}-shard view {} diverged from recompute (seed={seed})",
                        def.name()
                    );
                }
            }
        }

        // The durable twins: same view contents as the in-memory 1-shard
        // twin, views == recompute, and — dropped and reopened from their
        // files — each recovers to exactly its uncrashed self.
        for def in views() {
            let v = wal.view(def.name()).unwrap();
            assert!(
                v.output().unwrap().bag_eq(&dbs[0].output(def.name()).unwrap()),
                "DurableDatabase view {} diverged from the in-memory twin (seed={seed})",
                def.name()
            );
            assert!(
                ojv::core::maintain::verify_against_recompute(v, wal.database().catalog()),
                "DurableDatabase view {} diverged from recompute (seed={seed})",
                def.name()
            );
        }
        let uncrashed = wal.state_bytes().unwrap();
        let (recovered, _) =
            DurableDatabase::open(wal.into_vfs().crash(), MaintenancePolicy::default()).unwrap();
        assert_eq!(
            recovered.state_bytes().unwrap(),
            uncrashed,
            "recovered DurableDatabase differs from its uncrashed self (seed={seed})"
        );

        assert_eq!(
            group.state_bytes().unwrap(),
            reference,
            "1-shard ShardedDurableDatabase diverged from the in-memory twin (seed={seed})"
        );
        let (shards, coord) = group.into_vfs();
        let (recovered, _) = ShardedDurableDatabase::open(
            shards.iter().map(MemVfs::crash).collect(),
            coord.crash(),
            MaintenancePolicy::default(),
        )
        .unwrap();
        assert_eq!(
            recovered.state_bytes().unwrap(),
            reference,
            "recovered ShardedDurableDatabase differs from its uncrashed self (seed={seed})"
        );
    }
}

/// The reproduced N > 1 hole, pinned on the README's quickstart fixture: a
/// delete batch naming one key twice passed the façade's per-key existence
/// pre-check, failed mid-apply on the repeated key's owner shard, and the
/// shards applied before it kept their deletions — base rows gone with no
/// view maintenance run. Validation is total now: at every shard count the
/// batch is refused and nothing changes.
#[test]
fn repeated_delete_key_is_refused_without_touching_any_shard() {
    use ojv::core::fixtures;
    for n in [1usize, 2, 3, 4, 8] {
        let mut catalog = fixtures::example1_catalog();
        fixtures::populate_example1(&mut catalog, 10, 12);
        let routing = RoutingSpec::new()
            .table("part", &["p_partkey"])
            .table("orders", &["o_orderkey"])
            .table("lineitem", &["l_orderkey"]);
        let mut db = ShardedDatabase::new(&catalog, n, routing).unwrap();
        db.create_view_sql(
            "order_lines",
            "select * from orders left outer join lineitem on l_orderkey = o_orderkey",
        )
        .unwrap();
        let before = db.state_bytes().unwrap();

        // Line 1 of orders 1, 2, 4, 5, 7, 8 — then order 8's once more.
        let mut keys: Vec<Vec<Datum>> = [1i64, 2, 4, 5, 7, 8]
            .iter()
            .map(|&o| vec![Datum::Int(o), Datum::Int(1)])
            .collect();
        keys.push(keys[5].clone());
        assert!(db.delete("lineitem", &keys).is_err(), "{n} shards");
        assert!(
            db.state_bytes().unwrap() == before,
            "refused delete changed the {n}-shard state"
        );

        // Without the repeat the same batch commits.
        keys.pop();
        db.delete("lineitem", &keys).unwrap();
        for shard in db.shards() {
            assert!(ojv::core::maintain::verify_against_recompute(
                shard.view("order_lines").unwrap(),
                shard.catalog()
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Crash-point matrix: partial shard-WAL durability.
// ---------------------------------------------------------------------------

/// Build a durable sharded database over `n` plain in-memory filesystems,
/// commit a couple of batches, and return its durable file sets plus the
/// committed floor state.
fn committed_floor(n: usize) -> (Vec<MemVfs>, MemVfs, Vec<u8>, u64) {
    let shard_vfs: Vec<MemVfs> = (0..n).map(|_| MemVfs::new()).collect();
    let policy = MaintenancePolicy {
        fsync: FsyncPolicy::Always,
        ..Default::default()
    };
    let mut db =
        ShardedDurableDatabase::create(shard_vfs, MemVfs::new(), &schema(), routing(), policy)
            .unwrap();
    for def in views() {
        db.create_view(def).unwrap();
    }
    let mut rows = Vec::new();
    for pid in 1..=12i64 {
        rows.push(vec![Datum::Int(pid), Datum::Int(pid * 3)]);
    }
    db.insert("parent", rows).unwrap();
    let mut kids = Vec::new();
    for cid in 1..=18i64 {
        kids.push(vec![
            Datum::Int(cid % 12 + 1),
            Datum::Int(cid),
            Datum::Int(cid * 2),
        ]);
    }
    db.insert("child", kids).unwrap();
    db.sync().unwrap();
    let floor_state = db.state_bytes().unwrap();
    let lsn = db.commit_lsn();
    let (shards, coord) = db.into_vfs();
    (shards, coord, floor_state, lsn)
}

/// For every subset of shards whose WAL syncs survive, tear one commit in
/// half: the surviving shards keep their slice of the batch, the others
/// lose theirs, and the coordinator's group record never becomes durable.
/// Recovery must converge on the pre-crash floor in every case.
#[test]
fn torn_group_commit_converges_on_the_floor_for_every_sync_subset() {
    const N: usize = 3;
    for subset in 0u32..(1 << N) {
        let (shards, coord, floor_state, floor_lsn) = committed_floor(N);

        // Wrap each durable file set in a fault injector: shards outside
        // the subset drop their syncs for the torn commit, and the
        // coordinator always does (its group record is the commit point —
        // if it survived, the commit would too).
        let drop = |dropped: bool| FaultSpec {
            drop_syncs: dropped,
            truncate_back: 0,
            flip: None,
        };
        let shard_vfs: Vec<FaultFile> = shards
            .into_iter()
            .enumerate()
            .map(|(s, vfs)| FaultFile::new(vfs, drop(subset & (1 << s) == 0)))
            .collect();
        let coord_vfs = FaultFile::new(coord, drop(true));
        let policy = MaintenancePolicy {
            fsync: FsyncPolicy::Always,
            ..Default::default()
        };
        let (mut db, report) = ShardedDurableDatabase::open(shard_vfs, coord_vfs, policy).unwrap();
        assert_eq!(
            report.group_lsn, floor_lsn,
            "clean reopen, subset={subset:#b}"
        );
        assert_eq!(db.state_bytes().unwrap(), floor_state);

        // The torn commit: touches every shard (pids 101.. spread by hash).
        let rows: Vec<Row> = (101..=112i64)
            .map(|pid| vec![Datum::Int(pid), Datum::Int(pid)])
            .collect();
        db.insert("parent", rows).unwrap();

        // Crash. Shards in the subset keep their slice of the commit as a
        // junk tail; the rest lose it; the group record is gone either way.
        let (shard_ff, coord_ff) = db.into_vfs();
        let crashed_shards: Vec<MemVfs> = shard_ff.into_iter().map(FaultFile::crash).collect();
        let crashed_coord = coord_ff.crash();

        let (mut db, report) =
            ShardedDurableDatabase::open(crashed_shards, crashed_coord, policy).unwrap();
        assert_eq!(
            report.group_lsn, floor_lsn,
            "recovery must land on the durable group floor, subset={subset:#b}"
        );
        assert_eq!(
            db.state_bytes().unwrap(),
            floor_state,
            "torn commit must vanish whichever shard WALs survived, subset={subset:#b}"
        );
        // Shards that synced their slice had tail records above the floor
        // to discard; shards that lost theirs did not.
        assert_eq!(
            report.discarded_records > 0,
            subset != 0,
            "discards come exactly from the surviving sync subset {subset:#b}"
        );

        // The survivor keeps committing: the same batch now commits fully
        // and durably, and survives a clean crash/reopen cycle.
        let rows: Vec<Row> = (101..=112i64)
            .map(|pid| vec![Datum::Int(pid), Datum::Int(pid)])
            .collect();
        db.insert("parent", rows).unwrap();
        db.sync().unwrap();
        let committed = db.state_bytes().unwrap();
        let lsn = db.commit_lsn();
        let (shards, coord) = db.into_vfs();
        let (db, report) = ShardedDurableDatabase::open(
            shards.iter().map(MemVfs::crash).collect(),
            coord.crash(),
            MaintenancePolicy {
                fsync: FsyncPolicy::Always,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.group_lsn, lsn, "subset={subset:#b}");
        assert_eq!(db.state_bytes().unwrap(), committed, "subset={subset:#b}");
    }
}

/// The recovered N-shard database is byte-identical to a 1-shard in-memory
/// twin that replayed only the committed prefix — recovery is exactly "the
/// group floor happened, nothing else did".
#[test]
fn recovery_matches_the_serial_twin_at_the_floor() {
    let (shards, coord, _, _) = committed_floor(4);
    let policy = MaintenancePolicy {
        fsync: FsyncPolicy::Always,
        ..Default::default()
    };
    let (db, _) = ShardedDurableDatabase::open(shards, coord, policy).unwrap();

    let mut twin = sharded(1);
    let mut rows = Vec::new();
    for pid in 1..=12i64 {
        rows.push(vec![Datum::Int(pid), Datum::Int(pid * 3)]);
    }
    twin.insert("parent", rows).unwrap();
    let mut kids = Vec::new();
    for cid in 1..=18i64 {
        kids.push(vec![
            Datum::Int(cid % 12 + 1),
            Datum::Int(cid),
            Datum::Int(cid * 2),
        ]);
    }
    twin.insert("child", kids).unwrap();

    assert_eq!(
        db.state_bytes().unwrap(),
        twin.state_bytes().unwrap(),
        "4-shard recovery must equal the 1-shard in-memory twin"
    );
}
