//! An SQL `UPDATE` is one commit on every facade: a refused `UPDATE`
//! changes nothing — neither its delete half nor its insert half — and an
//! accepted one advances the commit LSN, the snapshot registry and the
//! change feed by exactly one commit, so no reader, subscriber or crash can
//! observe half of it. Plain inserts and deletes take the same commit
//! pipeline and keep the same promise.
//!
//! Three facades run the same checks: the in-memory [`Database`], a
//! [`DurableDatabase`] over a [`MemVfs`] (its WAL length is part of the
//! state a refused `UPDATE` must not change), and a 2-shard
//! [`ShardedDatabase`].

use ojv::feed::{Drained, FeedHub, Subscription, SubscriptionSpec};
use ojv::prelude::*;
use ojv::storage::encode_catalog;
use ojv_core::fixtures;

/// The observable state of one facade after a call.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    state: Vec<u8>,
    commit_lsn: u64,
    snapshot_lsn: u64,
    wal_len: u64,
}

/// One facade under test, with the feed subscription it carries (if any).
trait Facade {
    fn insert(&mut self, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>>;
    fn delete(&mut self, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>>;
    fn update(&mut self, keys: &[Vec<Datum>], rows: Vec<Row>) -> Result<Vec<MaintenanceReport>>;
    fn observe(&self) -> Observed;
    /// Feed sets delivered since the last call (`None`: no feed attached).
    fn drain_sets(&self) -> Option<usize>;
}

fn key(order: i64, line: i64) -> Vec<Datum> {
    vec![Datum::Int(order), Datum::Int(line)]
}

fn catalog() -> Catalog {
    let mut c = fixtures::example1_catalog();
    fixtures::populate_example1(&mut c, 8, 9);
    c
}

/// `orders ⟕ lineitem` on the order key: alignable when every table routes
/// by its order key.
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

fn drained(sub: &Subscription) -> usize {
    match sub.drain().unwrap() {
        Drained::Updates(sets) => sets.len(),
        Drained::Rebase(_) => panic!("a subscriber that keeps up never rebases"),
    }
}

struct InMemory {
    db: Database,
    _hub: FeedHub,
    sub: Subscription,
}

impl InMemory {
    fn new() -> Self {
        let mut db = Database::new(catalog());
        db.create_view(fixtures::oj_view_def()).unwrap();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        let (sub, _) = hub.subscribe(&SubscriptionSpec::on("oj_view")).unwrap();
        InMemory { db, _hub: hub, sub }
    }
}

impl Facade for InMemory {
    fn insert(&mut self, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.db.insert("lineitem", rows)
    }

    fn delete(&mut self, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>> {
        self.db.delete("lineitem", keys)
    }

    fn update(&mut self, keys: &[Vec<Datum>], rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.db.update("lineitem", keys, rows)
    }

    fn observe(&self) -> Observed {
        let mut state = encode_catalog(self.db.catalog()).unwrap();
        for v in self.db.views() {
            for row in v.output().unwrap().rows() {
                state.extend(format!("{row:?}").bytes());
            }
        }
        Observed {
            state,
            commit_lsn: self.db.commit_lsn(),
            snapshot_lsn: self.db.snapshot().unwrap().lsn(),
            wal_len: 0,
        }
    }

    fn drain_sets(&self) -> Option<usize> {
        Some(drained(&self.sub))
    }
}

struct OnDisk {
    db: DurableDatabase<MemVfs>,
    _hub: FeedHub,
    sub: Subscription,
}

impl OnDisk {
    fn new() -> Self {
        let mut db =
            DurableDatabase::create(MemVfs::new(), catalog(), MaintenancePolicy::default())
                .unwrap();
        db.create_view(fixtures::oj_view_def()).unwrap();
        let hub = FeedHub::new();
        hub.attach_durable(&mut db);
        let (sub, _) = hub.subscribe(&SubscriptionSpec::on("oj_view")).unwrap();
        OnDisk { db, _hub: hub, sub }
    }
}

impl Facade for OnDisk {
    fn insert(&mut self, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.db.insert("lineitem", rows)
    }

    fn delete(&mut self, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>> {
        self.db.delete("lineitem", keys)
    }

    fn update(&mut self, keys: &[Vec<Datum>], rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.db.update("lineitem", keys, rows)
    }

    fn observe(&self) -> Observed {
        let vfs = self.db.vfs();
        let wal_len = vfs
            .list()
            .unwrap()
            .iter()
            .filter(|n| ojv::durability::is_segment_file(n))
            .map(|n| vfs.len(n).unwrap())
            .sum();
        Observed {
            state: self.db.state_bytes().unwrap(),
            commit_lsn: self.db.last_lsn(),
            snapshot_lsn: self.db.snapshot().unwrap().lsn(),
            wal_len,
        }
    }

    fn drain_sets(&self) -> Option<usize> {
        Some(drained(&self.sub))
    }
}

struct Sharded(ShardedDatabase);

impl Sharded {
    fn new() -> Self {
        let routing = RoutingSpec::new()
            .table("part", &["p_partkey"])
            .table("orders", &["o_orderkey"])
            .table("lineitem", &["l_orderkey"]);
        let mut db = ShardedDatabase::new(&catalog(), 2, routing).unwrap();
        db.create_view(ol_view()).unwrap();
        Sharded(db)
    }
}

impl Facade for Sharded {
    fn insert(&mut self, rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.0.insert("lineitem", rows)
    }

    fn delete(&mut self, keys: &[Vec<Datum>]) -> Result<Vec<MaintenanceReport>> {
        self.0.delete("lineitem", keys)
    }

    fn update(&mut self, keys: &[Vec<Datum>], rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.0.update("lineitem", keys, rows)
    }

    fn observe(&self) -> Observed {
        let snapshot = self.0.snapshot().unwrap();
        assert!(snapshot.parts().iter().all(|p| p.lsn() == snapshot.lsn()));
        Observed {
            state: self.0.state_bytes().unwrap(),
            commit_lsn: self.0.commit_lsn(),
            snapshot_lsn: snapshot.lsn(),
            wal_len: 0,
        }
    }

    fn drain_sets(&self) -> Option<usize> {
        None
    }
}

fn facades() -> Vec<(&'static str, Box<dyn Facade>)> {
    vec![
        ("Database", Box::new(InMemory::new())),
        ("DurableDatabase", Box::new(OnDisk::new())),
        ("2-shard ShardedDatabase", Box::new(Sharded::new())),
    ]
}

/// Refuse the insert half of an `UPDATE` whose delete half is valid: the
/// call fails and the facade is exactly as it was — the deleted row is
/// still there, no LSN was taken, nothing was logged or delivered.
#[test]
fn refused_update_changes_nothing() {
    for (name, mut f) in facades() {
        let before = f.observe();
        let refused: [(&str, Vec<Row>); 2] = [
            (
                "duplicate key among the new rows",
                vec![
                    fixtures::lineitem_row(2, 1, 3, 99, 1.0),
                    fixtures::lineitem_row(2, 1, 4, 98, 2.0),
                ],
            ),
            (
                "missing FK parent",
                vec![fixtures::lineitem_row(999, 1, 3, 99, 1.0)],
            ),
        ];
        for (why, rows) in refused {
            let err = f.update(&[key(2, 1)], rows);
            assert!(err.is_err(), "{name}: {why} must be refused");
            assert_eq!(
                f.observe(),
                before,
                "{name}: a refused UPDATE ({why}) changed state"
            );
            if let Some(sets) = f.drain_sets() {
                assert_eq!(sets, 0, "{name}: a refused UPDATE ({why}) reached the feed");
            }
        }
        // The same delete half with a valid insert half commits.
        f.update(&[key(2, 1)], vec![fixtures::lineitem_row(2, 1, 3, 99, 1.0)])
            .unwrap();
        assert_eq!(f.observe().commit_lsn, before.commit_lsn + 1, "{name}");
    }
}

/// Every accepted `UPDATE` — one row, several rows, a key moved to another
/// order — advances the commit LSN and the snapshot registry by exactly one
/// and hands the feed exactly one set.
#[test]
fn each_update_is_one_lsn_one_publish_one_feed_set() {
    for (name, mut f) in facades() {
        let updates: [(Vec<Vec<Datum>>, Vec<Row>); 3] = [
            (
                vec![key(2, 1)],
                vec![fixtures::lineitem_row(2, 1, 3, 99, 1.0)],
            ),
            (
                vec![key(1, 1), key(4, 1)],
                vec![
                    fixtures::lineitem_row(1, 1, 2, 5, 7.0),
                    fixtures::lineitem_row(4, 1, 2, 5, 8.0),
                ],
            ),
            (
                vec![key(2, 1)],
                vec![fixtures::lineitem_row(5, 9, 3, 99, 1.0)],
            ),
        ];
        for (keys, rows) in updates {
            let before = f.observe();
            let reports = f.update(&keys, rows).unwrap();
            assert!(!reports.is_empty(), "{name}: the view sees the UPDATE");
            let after = f.observe();
            assert_eq!(after.commit_lsn, before.commit_lsn + 1, "{name}");
            assert_eq!(after.snapshot_lsn, before.snapshot_lsn + 1, "{name}");
            if let Some(sets) = f.drain_sets() {
                assert_eq!(sets, 1, "{name}: one UPDATE, one feed set");
            }
        }
    }
}

/// A refused insert — a key repeated inside the batch, or a missing FK
/// parent — and a refused delete — a key no row carries — change nothing:
/// no row, no LSN, no WAL byte, no feed set.
#[test]
fn refused_insert_or_delete_changes_nothing() {
    for (name, mut f) in facades() {
        let before = f.observe();
        let inserts: [(&str, Vec<Row>); 2] = [
            (
                "duplicate key inside the batch",
                vec![
                    fixtures::lineitem_row(5, 9, 3, 99, 1.0),
                    fixtures::lineitem_row(5, 9, 4, 98, 2.0),
                ],
            ),
            (
                "missing FK parent",
                vec![fixtures::lineitem_row(999, 1, 3, 99, 1.0)],
            ),
        ];
        for (why, rows) in inserts {
            assert!(f.insert(rows).is_err(), "{name}: {why} must be refused");
            assert_eq!(
                f.observe(),
                before,
                "{name}: a refused insert ({why}) changed state"
            );
            if let Some(sets) = f.drain_sets() {
                assert_eq!(sets, 0, "{name}: a refused insert ({why}) reached the feed");
            }
        }
        // The first key exists; the second names no row.
        assert!(
            f.delete(&[key(2, 1), key(7, 77)]).is_err(),
            "{name}: a missing key must be refused"
        );
        assert_eq!(
            f.observe(),
            before,
            "{name}: a refused delete changed state"
        );
        if let Some(sets) = f.drain_sets() {
            assert_eq!(sets, 0, "{name}: a refused delete reached the feed");
        }
    }
}

/// An accepted insert and an accepted delete each advance the commit LSN,
/// the snapshot registry, the WAL and the feed by exactly one commit.
#[test]
fn each_insert_or_delete_is_one_lsn_one_publish_one_feed_set() {
    for (name, mut f) in facades() {
        for what in ["insert", "delete"] {
            let before = f.observe();
            let reports = match what {
                "insert" => f.insert(vec![fixtures::lineitem_row(5, 9, 3, 99, 1.0)]),
                _ => f.delete(&[key(5, 9), key(2, 1)]),
            }
            .unwrap();
            assert!(!reports.is_empty(), "{name}: the view sees the {what}");
            let after = f.observe();
            assert_ne!(after.state, before.state, "{name}: {what}");
            assert_eq!(after.commit_lsn, before.commit_lsn + 1, "{name}: {what}");
            assert_eq!(
                after.snapshot_lsn,
                before.snapshot_lsn + 1,
                "{name}: {what}"
            );
            if before.wal_len > 0 {
                assert!(after.wal_len > before.wal_len, "{name}: {what} is logged");
            }
            if let Some(sets) = f.drain_sets() {
                assert_eq!(sets, 1, "{name}: one {what}, one feed set");
            }
        }
    }
}
