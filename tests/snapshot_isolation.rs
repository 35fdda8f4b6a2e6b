//! Concurrency stress: reader threads pin snapshots while maintenance
//! streams batches.
//!
//! A deterministic workload of insert/delete batches is generated up front
//! and applied twice: once serially against a *twin* database, recording
//! `Snapshot::state_bytes()` after every commit (the per-LSN reference),
//! and once on the live database while N reader threads continuously pin
//! snapshots through a cloned [`SnapshotRegistry`] handle. Every pinned
//! snapshot must byte-equal the twin's bytes at the same LSN — any torn
//! read (a batch half-applied) or LSN skew (view A at LSN n, view B at
//! n−1 in one snapshot) changes the bytes and fails the comparison.
//!
//! With `hold`, the writer additionally pins LSN 0 and *holds* the pin
//! across the whole maintenance stream, re-verifying its bytes at the end —
//! the epoch-reclamation protocol must keep that version intact while
//! unpinned versions are freed. Without it, a commit that starts while no
//! reader holds a pin writes the tips in place, and the readers' pins race
//! that commit: they wait for its publish (`SnapshotStats::pin_waits`,
//! printed per run).
//!
//! The default tests run 8 readers on one seed, with and without the held
//! pin; the `--ignored` sweep runs the full threads × seeds × hold matrix
//! (see `ci/check.sh`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use ojv::prelude::*;
use ojv_core::fixtures;
use ojv_testkit::Rng;

const N_PARTS: i64 = 8;
const N_ORDERS: i64 = 9;

/// One pre-validated update batch.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Row>),
    Delete(Vec<Vec<Datum>>),
}

/// A deterministic stream of valid batches: inserts use fresh
/// `(orderkey, linenumber)` keys against existing orders/parts, deletes
/// pick a previously inserted live key. No batch violates a constraint,
/// so twin and live runs apply identically.
fn workload(seed: u64, batches: usize) -> Vec<Op> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut next_ln = 1000i64;
    let mut live_keys: Vec<(i64, i64)> = Vec::new();
    let mut ops = Vec::with_capacity(batches);
    for _ in 0..batches {
        let delete = !live_keys.is_empty() && rng.gen_bool(0.35);
        if delete {
            let pick = rng.gen_range(0..live_keys.len());
            let (ok, ln) = live_keys.swap_remove(pick);
            ops.push(Op::Delete(vec![vec![Datum::Int(ok), Datum::Int(ln)]]));
        } else {
            let n = rng.gen_range(1..4usize);
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let ok = 1 + rng.gen_range(0..N_ORDERS);
                let pk = 1 + rng.gen_range(0..N_PARTS);
                let ln = next_ln;
                next_ln += 1;
                live_keys.push((ok, ln));
                rows.push(fixtures::lineitem_row(ok, ln, pk, 5, 1.5 * ln as f64));
            }
            ops.push(Op::Insert(rows));
        }
    }
    ops
}

fn apply(db: &mut Database, op: &Op) {
    match op {
        Op::Insert(rows) => db.insert("lineitem", rows.clone()).unwrap(),
        Op::Delete(keys) => db.delete("lineitem", keys).unwrap(),
    };
}

/// Two views (the Example 1 view plus a predicate variant) so LSN-skew
/// *across* views inside one snapshot is observable.
fn build_db() -> Database {
    let mut c = fixtures::example1_catalog();
    fixtures::populate_example1(&mut c, N_PARTS, N_ORDERS);
    let mut db = Database::new(c);
    db.create_view(fixtures::oj_view_def()).unwrap();
    db.create_view(fixtures::oj_view_variant("oj_narrow", 6))
        .unwrap();
    db
}

/// Serially replay the workload on a twin, returning the reference bytes
/// for every LSN 0..=batches.
fn reference_bytes(twin: &mut Database, ops: &[Op]) -> Vec<Vec<u8>> {
    let mut refs = vec![twin.snapshot().unwrap().state_bytes().unwrap()];
    for op in ops {
        apply(twin, op);
        let snap = twin.snapshot().unwrap();
        assert_eq!(snap.lsn() as usize, refs.len(), "twin LSNs are dense");
        refs.push(snap.state_bytes().unwrap());
    }
    refs
}

/// The stress harness: `readers` threads pin-and-verify against the serial
/// reference while the main thread streams `ops`, holding a pin at LSN 0
/// throughout when `hold` is set.
fn run_stress(seed: u64, readers: usize, batches: usize, hold: bool) {
    let ops = workload(seed, batches);
    let mut db = build_db();
    let mut twin = db.clone();
    let refs = Arc::new(reference_bytes(&mut twin, &ops));

    let registry = db.snapshots().clone();
    let done = AtomicBool::new(false);
    let overlapped = AtomicUsize::new(0);
    let total_reads = AtomicUsize::new(0);
    // Writer waits for every reader to be running before the first batch, so
    // the readers genuinely overlap the maintenance stream.
    let start = Barrier::new(readers + 1);

    std::thread::scope(|scope| {
        for r in 0..readers {
            let registry = registry.clone();
            let refs = Arc::clone(&refs);
            let (done, overlapped, total_reads, start) = (&done, &overlapped, &total_reads, &start);
            scope.spawn(move || {
                let mut rng = Rng::seed_from_u64(seed ^ (r as u64) << 32);
                start.wait();
                loop {
                    let during = !done.load(Ordering::Acquire);
                    let snap = registry.pin().unwrap();
                    let lsn = snap.lsn() as usize;
                    assert!(lsn < refs.len(), "snapshot LSN {lsn} out of range");
                    assert_eq!(
                        snap.state_bytes().unwrap(),
                        refs[lsn],
                        "snapshot at lsn {lsn} differs from the serial twin"
                    );
                    // While this pin holds the floor down, older LSNs up to
                    // the tip stay materializable: spot-check one.
                    let current = registry.current_lsn() as usize;
                    if current > lsn {
                        // Racy by design; a commit may slip in, so only the
                        // lower bound is guaranteed.
                        let probe = lsn + rng.gen_range(0..(current - lsn));
                        let old = registry.pin_at(probe as u64).unwrap();
                        assert_eq!(
                            old.state_bytes().unwrap(),
                            refs[probe],
                            "re-pinned lsn {probe} differs from the serial twin"
                        );
                    }
                    drop(snap);
                    total_reads.fetch_add(1, Ordering::Relaxed);
                    if during {
                        overlapped.fetch_add(1, Ordering::Relaxed);
                    } else {
                        break;
                    }
                }
            });
        }

        // One long-lived pin taken at LSN 0, held across the entire stream.
        let held = hold.then(|| {
            let held = registry.pin().unwrap();
            let bytes = held.state_bytes().unwrap();
            assert_eq!(bytes, refs[held.lsn() as usize]);
            (held, bytes)
        });

        start.wait();
        for op in &ops {
            apply(&mut db, op);
        }
        // A release-mode writer can stream every batch before a lone reader
        // finishes its first verification; hold `done` down until one read
        // has landed so the overlap assertion below is deterministic. Any
        // read counted here loaded `during` before this store, so it also
        // increments `overlapped`.
        while total_reads.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);

        // The held pin survived every commit and reclamation pass untouched.
        if let Some((held, bytes)) = held {
            assert_eq!(held.state_bytes().unwrap(), bytes);
        }
    });

    assert_eq!(db.commit_lsn() as usize, batches);
    assert!(
        total_reads.load(Ordering::Relaxed) >= readers,
        "every reader verified at least one snapshot"
    );
    assert!(
        overlapped.load(Ordering::Relaxed) > 0,
        "no read overlapped the maintenance stream"
    );
    // Last unpin dropped: the registry must be back to tip-only storage.
    let stats = registry.stats();
    println!(
        "seed {seed}, {readers} readers, held pin {hold}: {} pins waited {} µs in all, \
         {} tip copies",
        stats.pin_waits,
        stats.pin_wait_ns / 1_000,
        stats.tip_copies
    );
    assert_eq!(stats.active_pins, 0);
    assert_eq!(stats.retained_ops, 0, "history reclaimed after last unpin");

    // Final state cross-check against the serially maintained twin.
    assert_eq!(
        db.snapshot().unwrap().state_bytes().unwrap(),
        *refs.last().unwrap()
    );
}

/// Default stress: 8 readers overlapping a 300-batch stream.
#[test]
fn eight_readers_see_serial_twin_bytes() {
    run_stress(42, 8, 300, true);
}

/// The same with no pin held across the stream: commits that start while
/// no reader holds a pin write the tips in place, and pins wait for them.
#[test]
fn eight_readers_without_a_held_pin_see_serial_twin_bytes() {
    run_stress(42, 8, 300, false);
}

/// Full threads × seeds × held-pin matrix (CI runs this via `--ignored`).
#[test]
#[ignore = "full sweep; run via ci/check.sh or --ignored"]
fn reader_matrix_full_sweep() {
    for &threads in &[1usize, 8, 32] {
        for seed in [11u64, 12, 13] {
            for hold in [true, false] {
                run_stress(seed, threads, 150, hold);
            }
        }
    }
}
