//! Property tests for the snapshot registry's epoch-based reclamation:
//! arbitrary pin / release / commit sequences must never reclaim a pinned
//! version, must always reclaim unpinned dead versions, and must retain
//! nothing at all under a pin-free workload. A deterministic differential
//! test drives the pin patterns of a reader that spans every commit, and
//! bounds both the images retained and the pinned tips cloned.

use ojv::prelude::*;
use ojv::tpch::{create_tpch_catalog, TpchGen};
use ojv_bench::views::v3_def;
use ojv_core::fixtures;
use ojv_core::snapshot::{Snapshot, SnapshotStats};
use ojv_testkit::{property, strategy, vec_of, Rng, Strategy};

/// One abstract command; numeric arguments are resolved against the live
/// state inside the property body (so every generated sequence is valid).
#[derive(Debug, Clone, PartialEq)]
enum Cmd {
    /// Apply one maintenance batch (advances the LSN by one).
    Commit,
    /// Pin the newest version and remember its bytes.
    Pin,
    /// Pin a historical version chosen by `pick` among the reachable LSNs.
    PinAt { pick: u8 },
    /// Drop the pin chosen by `pick` among the held pins.
    Release { pick: u8 },
    /// A reader spanning a commit: pin the tip, commit, then drop the pin
    /// the previous such command took.
    SpanCommit,
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    strategy(
        |rng: &mut Rng| match rng.gen_range(0u8..5) {
            0 => Cmd::Commit,
            1 => Cmd::Pin,
            2 => Cmd::PinAt {
                pick: rng.gen_range(0u8..8),
            },
            3 => Cmd::SpanCommit,
            _ => Cmd::Release {
                pick: rng.gen_range(0u8..8),
            },
        },
        // Shrinking: drop parameters toward zero and commands toward Commit.
        |cmd: &Cmd| match cmd {
            Cmd::Commit => vec![],
            Cmd::Pin => vec![Cmd::Commit],
            Cmd::PinAt { pick } if *pick > 0 => vec![Cmd::PinAt { pick: pick - 1 }, Cmd::Pin],
            Cmd::PinAt { .. } => vec![Cmd::Pin],
            Cmd::Release { pick } if *pick > 0 => vec![Cmd::Release { pick: pick - 1 }],
            Cmd::Release { .. } => vec![Cmd::Commit],
            Cmd::SpanCommit => vec![Cmd::Commit],
        },
    )
}

fn build_db() -> Database {
    let mut c = fixtures::example1_catalog();
    fixtures::populate_example1(&mut c, 6, 9);
    let mut db = Database::new(c);
    db.create_view(fixtures::oj_view_def()).unwrap();
    db
}

property! {
    /// Pinned versions stay byte-stable through arbitrary command
    /// sequences; with no pins outstanding the registry retains nothing.
    #[cases = 64]
    fn reclamation_respects_pins(
        cmds in vec_of(cmd_strategy(), 1..24),
        data_seed in 0u64..1000,
    ) {
        let mut db = build_db();
        let mut rng = Rng::seed_from_u64(data_seed);
        let mut next_ln = 500i64;
        // Reference bytes per LSN, recorded at commit time.
        let mut refs = vec![db.snapshot().unwrap().state_bytes().unwrap()];
        // Held pins with the bytes they returned when taken.
        let mut pins: Vec<(u64, Snapshot, Vec<u8>)> = Vec::new();
        // LSN of the pin the last `SpanCommit` took, while still held.
        let mut spanning: Option<u64> = None;

        for cmd in &cmds {
            let mut commit = |db: &mut Database, refs: &mut Vec<Vec<u8>>| {
                let ok = 1 + rng.gen_range(0..9i64);
                let pk = 1 + rng.gen_range(0..6i64);
                next_ln += 1;
                db.insert(
                    "lineitem",
                    vec![fixtures::lineitem_row(ok, next_ln, pk, 3, 9.0)],
                )
                .unwrap();
                refs.push(db.snapshot().unwrap().state_bytes().unwrap());
                assert_eq!(refs.len() as u64, db.commit_lsn() + 1);
            };
            match cmd {
                Cmd::Commit => commit(&mut db, &mut refs),
                Cmd::SpanCommit => {
                    let snap = db.snapshot().unwrap();
                    let (lsn, bytes) = (snap.lsn(), snap.state_bytes().unwrap());
                    commit(&mut db, &mut refs);
                    if let Some(i) = spanning.and_then(|l| pins.iter().position(|p| p.0 == l)) {
                        pins.swap_remove(i);
                    }
                    pins.push((lsn, snap, bytes));
                    spanning = Some(lsn);
                }
                Cmd::Pin => {
                    let snap = db.snapshot().unwrap();
                    let bytes = snap.state_bytes().unwrap();
                    assert_eq!(bytes, refs[snap.lsn() as usize]);
                    pins.push((snap.lsn(), snap, bytes));
                }
                Cmd::PinAt { pick } => {
                    let floor = db.snapshots().stats().floor_lsn;
                    let current = db.commit_lsn();
                    let lsn = floor + u64::from(*pick) % (current - floor + 1);
                    let snap = db.snapshot_at(lsn).unwrap();
                    let bytes = snap.state_bytes().unwrap();
                    assert_eq!(
                        bytes, refs[lsn as usize],
                        "historical pin at lsn {lsn} differs from its commit-time bytes"
                    );
                    pins.push((lsn, snap, bytes));
                }
                Cmd::Release { pick } => {
                    if !pins.is_empty() {
                        let i = usize::from(*pick) % pins.len();
                        pins.swap_remove(i);
                    }
                }
            }

            // A pinned version is never reclaimed: every held snapshot's
            // bytes re-encode identically after every command.
            for (lsn, snap, bytes) in &pins {
                assert_eq!(
                    &snap.state_bytes().unwrap(),
                    bytes,
                    "held pin at lsn {lsn} changed bytes"
                );
            }
            let stats = db.snapshots().stats();
            assert_eq!(stats.active_pins, pins.len());
            if pins.is_empty() {
                // An unpinned dead version is always reclaimed immediately.
                assert_eq!(stats.retained_ops, 0);
                assert_eq!(stats.retained_versions, 0);
                assert_eq!(stats.floor_lsn, stats.current_lsn);
            } else {
                let min_pin = pins.iter().map(|&(l, _, _)| l).min().unwrap();
                assert!(
                    stats.floor_lsn <= min_pin,
                    "floor {} climbed above the oldest pin {min_pin}",
                    stats.floor_lsn
                );
                // Beyond the images the pins hold, one view retains at most
                // its base and one spare.
                assert!(
                    stats.retained_versions <= pins.len() + 2,
                    "{} images retained for {} pins",
                    stats.retained_versions,
                    pins.len()
                );
            }
        }

        // Dropping the last pin reclaims all history.
        pins.clear();
        let stats = db.snapshots().stats();
        assert_eq!(stats.active_pins, 0);
        assert_eq!(stats.retained_ops, 0);
        assert_eq!(stats.retained_versions, 0);
    }
}

property! {
    /// Memory high-water is bounded under a pin-free workload: no history
    /// is ever built, however many batches commit.
    #[cases = 16]
    fn pin_free_workload_builds_no_history(
        batches in 1usize..40,
        data_seed in 0u64..1000,
    ) {
        let mut db = build_db();
        let mut rng = Rng::seed_from_u64(data_seed ^ 0x9e37);
        for i in 0..batches {
            let ok = 1 + rng.gen_range(0..9i64);
            let pk = 1 + rng.gen_range(0..6i64);
            db.insert(
                "lineitem",
                vec![fixtures::lineitem_row(ok, 2000 + i as i64, pk, 2, 4.0)],
            )
            .unwrap();
        }
        let stats = db.snapshots().stats();
        assert_eq!(stats.current_lsn, batches as u64);
        assert_eq!(stats.retained_ops, 0);
        assert_eq!(stats.retained_versions, 0);
        assert_eq!(
            stats.high_water_ops, 0,
            "pin-free maintenance must never materialize history"
        );
    }
}

/// One lineitem operation of the differential pin-pattern test.
enum Op {
    Insert(Vec<Row>),
    Delete(Vec<Vec<Datum>>),
    /// SQL `UPDATE`: one commit, the delete half then the insert half.
    Update(Vec<Vec<Datum>>, Vec<Row>),
}

fn apply(db: &mut Database, op: &Op) {
    match op {
        Op::Insert(rows) => db.insert("lineitem", rows.clone()).map(drop),
        Op::Delete(keys) => db.delete("lineitem", keys).map(drop),
        Op::Update(keys, rows) => db.update("lineitem", keys, rows.clone()).map(drop),
    }
    .unwrap();
}

/// `n` ops cycling through an insert of `batch(i)`, an `UPDATE` that bumps
/// the quantity (column `qty`) of the rows just inserted, and a delete of
/// them. Lineitem keys are the first two columns.
fn op_stream(n: usize, qty: usize, batch: impl Fn(usize) -> Vec<Row>) -> Vec<Op> {
    let keys = |rows: &[Row]| -> Vec<Vec<Datum>> { rows.iter().map(|r| r[..2].to_vec()).collect() };
    (0..n)
        .map(|i| {
            let rows = batch(i - i % 3);
            match i % 3 {
                0 => Op::Insert(rows),
                1 => {
                    let bumped = rows
                        .iter()
                        .map(|r| {
                            let mut r = r.clone();
                            if let Datum::Int(q) = r[qty] {
                                r[qty] = Datum::Int(q + 1);
                            }
                            r
                        })
                        .collect();
                    Op::Update(keys(&rows), bumped)
                }
                _ => Op::Delete(keys(&rows)),
            }
        })
        .collect()
}

fn example1_ops(n: usize) -> Vec<Op> {
    op_stream(n, 3, |i| {
        let i = i as i64;
        (0..3)
            .map(|j| {
                fixtures::lineitem_row(1 + (i + j) % 9, 1000 + 3 * i + j, 1 + (i + j) % 6, 3, 9.0)
            })
            .collect()
    })
}

const V3_SF: f64 = 0.002;
const V3_SEED: u64 = 5;

/// A database over TPC-H at [`V3_SF`] with the paper's view V3.
fn v3_db() -> Database {
    let mut catalog = create_tpch_catalog().unwrap();
    TpchGen::new(V3_SF, V3_SEED).populate(&mut catalog).unwrap();
    let mut db = Database::new(catalog);
    db.create_view(v3_def()).unwrap();
    db
}

fn v3_ops(n: usize) -> Vec<Op> {
    let gen = TpchGen::new(V3_SF, V3_SEED);
    op_stream(n, 4, |i| gen.lineitem_insert_batch(40, i as u64))
}

/// The pin pattern of a reader that spans every commit: pin the tip, run
/// the op, read the pin just taken, then drop the pin taken one op
/// earlier. With `hold_floor`, a pin at LSN 0 is also held throughout.
/// A pin-free twin runs the same ops: after every op each held snapshot
/// is byte-identical to the twin as it was at the snapshot's LSN, the
/// floor stays pinnable, and the retained images stay within the held
/// pins plus two per view (base and spare). Returns the registry stats
/// after the first three ops and at the end.
fn drive_pin_pattern(
    mut live: Database,
    mut twin: Database,
    ops: &[Op],
    hold_floor: bool,
) -> (SnapshotStats, SnapshotStats) {
    let views = live.views().count();
    let twin_bytes = |twin: &Database| twin.snapshot().unwrap().state_bytes().unwrap();
    let bounded = |live: &Database, when: String| {
        let stats = live.snapshots().stats();
        assert!(
            stats.retained_versions <= (stats.active_pins + 2) * views,
            "{when}: {} images retained for {} pins",
            stats.retained_versions,
            stats.active_pins
        );
        stats
    };
    let mut held: Vec<(Snapshot, Vec<u8>)> = Vec::new();
    if hold_floor {
        held.push((live.snapshot().unwrap(), twin_bytes(&twin)));
    }
    let mut previous: Option<(Snapshot, Vec<u8>)> = None;
    let mut warm = None;
    for (i, op) in ops.iter().enumerate() {
        let before = (live.snapshot().unwrap(), twin_bytes(&twin));
        apply(&mut live, op);
        apply(&mut twin, op);
        assert_eq!(
            before.0.state_bytes().unwrap(),
            before.1,
            "op {i}: the pin spanning it"
        );
        for (snap, bytes) in held.iter().chain(&previous) {
            assert_eq!(
                &snap.state_bytes().unwrap(),
                bytes,
                "op {i}: pin at lsn {}",
                snap.lsn()
            );
        }
        bounded(&live, format!("op {i}"));
        // Drops the pin taken one op earlier.
        previous = Some(before);

        let stats = live.snapshots().stats();
        let at_floor = live
            .snapshot_at(stats.floor_lsn)
            .expect("the floor stays pinnable");
        if let Some((_, bytes)) = held
            .iter()
            .chain(&previous)
            .find(|(s, _)| s.lsn() == stats.floor_lsn)
        {
            assert_eq!(
                &at_floor.state_bytes().unwrap(),
                bytes,
                "op {i}: pin_at(floor)"
            );
        }
        drop(at_floor);
        let stats = bounded(&live, format!("op {i}, after unpin"));
        if i == 2 {
            warm = Some(stats);
        }
    }
    (warm.expect("at least three ops"), live.snapshots().stats())
}

/// A reader that spans every commit costs no copy of the view once the
/// registry holds a spare: after the first three ops no pinned tip is
/// cloned, whether or not a parked pin holds the floor at LSN 0 for 200
/// commits. The few warm-up clones are forced: with two pins spanning a
/// commit (three with the parked one) as many distinct images must exist
/// at once, and the registry starts with one.
#[test]
fn spanning_pins_recycle_images_instead_of_copying_tips() {
    for (name, hold_floor, ops) in [
        ("example 1", false, 60),
        ("example 1, parked pin", true, 150),
        ("v3", false, 30),
        ("v3, parked pin", true, 150),
    ] {
        let (live, twin, ops) = if name.starts_with("v3") {
            (v3_db(), v3_db(), v3_ops(ops))
        } else {
            (build_db(), build_db(), example1_ops(ops))
        };
        let commits = ops.len() + ops.iter().filter(|op| matches!(op, Op::Update(..))).count();
        let (warm, end) = drive_pin_pattern(live, twin, &ops, hold_floor);
        let forced = if hold_floor { 3 } else { 2 };
        println!(
            "{name}: {commits} commits, {} tip copies, {} images retained",
            end.tip_copies, end.retained_versions
        );
        assert!(
            end.tip_copies <= forced,
            "{name}: {} tip copies",
            end.tip_copies
        );
        assert_eq!(
            end.tip_copies, warm.tip_copies,
            "{name}: a tip was cloned after the warm-up"
        );
        if hold_floor {
            assert!(
                commits >= 200,
                "{name}: the parked pin spans {commits} commits"
            );
            assert_eq!(end.floor_lsn, 0);
        }
    }
}
