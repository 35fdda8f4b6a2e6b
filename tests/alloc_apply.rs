//! Allocation discipline of base-table apply, index probes, and view-store
//! apply.
//!
//! Installs the counting global allocator and pins what the borrowed-key
//! indexes promise: a probe builds no key and boxes no iterator, and
//! applying a batch allocates per *batch* (plus the one owned row each
//! deleted base-table key must hand back), not per row, per key, or per
//! index. The view store's key index and count index own no key either, so
//! its batch apply allocates only when a vector doubles. A commit that a
//! snapshot pin spans allocates per delta row too, not per stored row. A
//! one-view commit rebuilds no maintenance plan and copies each `ΔV` row
//! once, into the view store; through the durable engine it adds only its
//! log record. An aggregated rollup beside the view folds
//! `ΔV` into its groups without building a key per row. Creating a view
//! widens only the base rows its first join keeps, and registering it with
//! the snapshot registry copies none of its rows.

use std::sync::Mutex;

use ojv::core::materialize::ViewStore;
use ojv::prelude::*;
use ojv::storage::IndexRef;
use ojv::tpch::{create_tpch_catalog, TpchGen};
use ojv_bench::views::{v3_def, v3_rollup_def};
use ojv_testkit::{alloc_snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are process-global: the tests of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const SF: f64 = 0.002;
const BATCH: usize = 1000;
const ATTEMPTS: usize = 5;

/// What one validate-then-append insert may allocate whatever the batch
/// size, beyond one vector per column when the batch opens a new heap
/// segment (at most once: `BATCH < SEG_ROWS`): the delta's table name, the
/// in-batch duplicate-key slots, and the odd amortized growth of a flat
/// index vector (none once warm).
const INSERT_ALLOCS: u64 = 8;
/// The same for a delete, on top of the one owned row per key it returns.
const DELETE_ALLOCS: u64 = 8;
/// Inserting `BATCH` rows into an empty view store: the doublings of its
/// row vector, key index, count index and that index's key arena.
const VIEW_INSERT_ALLOCS: u64 = 64;
/// Deleting them all again: nothing beyond noise.
const VIEW_DELETE_ALLOCS: u64 = 16;

fn tpch() -> Catalog {
    let mut catalog = create_tpch_catalog().unwrap();
    TpchGen::new(SF, 42).populate(&mut catalog).unwrap();
    catalog
}

/// Minimum allocation counts of an insert of `BATCH` fresh lineitems and
/// of the matching delete, over a few rounds of the same batch. The
/// counters are process-global, so a stray allocation from libtest's own
/// threads can leak into one window; it cannot *remove* allocations the
/// apply path performs every time, so the minimum is the honest cost (the
/// `min_alloc_count` discipline of `crates/exec/tests/alloc_discipline.rs`).
fn apply_allocs(catalog: &mut Catalog) -> (u64, u64) {
    let rows = TpchGen::new(SF, 42).lineitem_insert_batch(BATCH, 1);
    assert_eq!(rows.len(), BATCH);
    let keys: Vec<Vec<Datum>> = rows
        .iter()
        .map(|r| vec![r[0].clone(), r[1].clone()])
        .collect();
    // The batches move into the catalog: clone them outside the windows.
    let mut batches = vec![rows; ATTEMPTS];
    let (mut insert, mut delete) = (u64::MAX, u64::MAX);
    while let Some(batch) = batches.pop() {
        let before = alloc_snapshot();
        let inserted = catalog.insert("lineitem", batch).unwrap();
        let mid = alloc_snapshot();
        let deleted = catalog.delete("lineitem", &keys).unwrap();
        let after = alloc_snapshot();
        insert = insert.min(mid.since(&before).count);
        delete = delete.min(after.since(&mid).count);
        assert_eq!(inserted.rows.len(), BATCH);
        assert_eq!(deleted.rows.len(), BATCH);
    }
    (insert, delete)
}

/// Minimum allocation counts of inserting `BATCH` distinct-key rows into a
/// fresh view store (key `[0, 1]`, one count index on column 0, journal
/// off) and of deleting them all again by key.
fn view_store_allocs() -> (u64, u64) {
    let rows: Vec<Row> = (0..BATCH as i64)
        .map(|i| vec![Datum::Int(i % 50), Datum::Int(i), Datum::str("payload")])
        .collect();
    let keys: Vec<Row> = rows.iter().map(|r| r[..2].to_vec()).collect();
    let (mut insert, mut delete) = (u64::MAX, u64::MAX);
    for _ in 0..ATTEMPTS {
        let mut store = ViewStore::new(vec![0, 1]);
        store.add_count_index(vec![0]);
        let batch = rows.clone();
        let before = alloc_snapshot();
        for row in batch {
            store.insert(row, "v").unwrap();
        }
        let mid = alloc_snapshot();
        for key in &keys {
            store.delete(key, "v").unwrap();
        }
        let after = alloc_snapshot();
        insert = insert.min(mid.since(&before).count);
        delete = delete.min(after.since(&mid).count);
        assert!(store.is_empty());
    }
    (insert, delete)
}

/// Everything in one test function: the counters are process-global, so
/// concurrently running tests would pollute each other's deltas.
#[test]
fn probes_and_batch_apply_allocate_per_batch_not_per_row() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut catalog = tpch();
    assert!(
        alloc_snapshot().count > 0,
        "counting allocator must be installed for this test to mean anything"
    );

    // (i) 10k non-matching probes of a unique and of a secondary index:
    //     hash in place, verify nothing, return a concrete iterator.
    let orders = catalog.table("orders").unwrap();
    let lineitem = catalog.table("lineitem").unwrap();
    let (by_order, _) = lineitem.index_on(&[0]).expect("FK index on l_orderkey");
    assert!(matches!(by_order, IndexRef::Secondary(_)));
    let mut found = 0usize;
    let before = alloc_snapshot();
    for k in 0..10_000i64 {
        let key = [Datum::Int(-1 - k)];
        found += orders.index_lookup(IndexRef::Unique, &key).count();
        found += lineitem.index_lookup(by_order, &key).count();
    }
    let probes = alloc_snapshot().since(&before).count;
    assert_eq!(found, 0, "probe keys are disjoint from the data");
    assert_eq!(
        probes, 0,
        "non-matching index probes must not touch the heap"
    );

    // (ii) A 1 000-row lineitem insert and the matching delete.
    let insert_pin = INSERT_ALLOCS + lineitem.schema().len() as u64;
    let (insert, delete) = apply_allocs(&mut catalog);
    println!("lineitem x{BATCH}: insert {insert} allocations, delete {delete}");
    assert!(
        insert <= insert_pin,
        "insert of {BATCH} rows allocated {insert} times (pinned: {insert_pin})"
    );
    assert!(
        delete <= BATCH as u64 + DELETE_ALLOCS,
        "delete of {BATCH} keys allocated {delete} times (pinned: one row each + {DELETE_ALLOCS})"
    );

    // The pins hold with three more secondary indexes on the table — of
    // low (7 ship modes), middling (50 quantities) and high (ship dates)
    // cardinality: no index owns a key or allocates per row.
    let t = catalog.table_mut("lineitem").unwrap();
    let before_indexes = t.secondary_col_sets().len();
    for col in ["l_shipmode", "l_quantity", "l_shipdate"] {
        let c = t.schema().index_of("lineitem", col).unwrap();
        t.add_secondary_index(vec![c]);
    }
    assert_eq!(t.secondary_col_sets().len(), before_indexes + 3);
    let (insert7, delete7) = apply_allocs(&mut catalog);
    println!("with 3 more indexes: insert {insert7} allocations, delete {delete7}");
    assert!(
        insert7 <= insert_pin && delete7 <= BATCH as u64 + DELETE_ALLOCS,
        "allocations grew with the number of secondary indexes: \
         insert {insert} -> {insert7}, delete {delete} -> {delete7}"
    );

    // (iii) The view store: 1 000 distinct-key rows in, then out by key.
    let (insert, delete) = view_store_allocs();
    println!("view store x{BATCH}: insert {insert} allocations, delete {delete}");
    assert!(
        insert <= VIEW_INSERT_ALLOCS,
        "view-store insert of {BATCH} rows allocated {insert} times (pinned: {VIEW_INSERT_ALLOCS})"
    );
    assert!(
        delete <= VIEW_DELETE_ALLOCS,
        "view-store delete of {BATCH} keys allocated {delete} times (pinned: {VIEW_DELETE_ALLOCS})"
    );
}

/// The delta of the pinned-publish gate, and the scale factors it runs at.
const PINNED_DELTA: usize = 100;
const PINNED_SMALL_SF: f64 = 0.002;
const PINNED_LARGE_SF: f64 = 0.02;
/// Allowed growth of the allocations per pinned commit from the small to
/// the large scale factor (the store grows tenfold).
const PINNED_GROWTH: f64 = 1.5;

/// Minimum allocations of one commit of V3 at `sf` that a reader's pin
/// spans, as `ojvbench`'s `fanout_read` does: pin the tip, commit, then drop
/// the pin taken before the previous commit. The commit alternately inserts
/// the same `PINNED_DELTA` lineitems and deletes them again; each window
/// covers the pin, the commit and the unpin. Two warm-up commits run first.
fn pinned_commit_allocs(sf: f64, rows: &[Row]) -> (u64, usize) {
    let mut catalog = create_tpch_catalog().unwrap();
    TpchGen::new(sf, 42).populate(&mut catalog).unwrap();
    let mut db = Database::new(catalog);
    db.create_view(v3_def()).unwrap();
    let keys: Vec<Vec<Datum>> = rows.iter().map(|r| r[..2].to_vec()).collect();
    let mut batches = vec![rows.to_vec(); 2 + ATTEMPTS];
    let mut held = None;
    let mut fewest = u64::MAX;
    for commit in 0..2 * (2 + ATTEMPTS) {
        // The insert half moves its batch into the catalog: take it out of
        // the window.
        let batch = (commit % 2 == 0).then(|| batches.pop().expect("one batch per insert"));
        let before = alloc_snapshot();
        let pin = db.snapshot().unwrap();
        let touched = match batch {
            Some(batch) => db.insert("lineitem", batch).unwrap().len(),
            None => db.delete("lineitem", &keys).unwrap().len(),
        };
        held = Some(pin);
        let allocs = alloc_snapshot().since(&before).count;
        assert_eq!(touched, 1, "the delta touches V3");
        if commit >= 2 {
            fewest = fewest.min(allocs);
        }
    }
    drop(held);
    (fewest, db.view("v3").unwrap().len())
}

/// A commit that a pin spans recycles a history image instead of cloning
/// the pinned store, so what it allocates does not grow with the view.
#[test]
fn pinned_publish_allocates_per_delta_not_per_stored_row() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rows = TpchGen::new(PINNED_SMALL_SF, 42).lineitem_insert_batch(PINNED_DELTA, 1);
    let (small, small_rows) = pinned_commit_allocs(PINNED_SMALL_SF, &rows);
    let (large, large_rows) = pinned_commit_allocs(PINNED_LARGE_SF, &rows);
    println!(
        "pinned V3 commit of {PINNED_DELTA} lineitems: {small} allocations at {small_rows} view rows, \
         {large} at {large_rows}"
    );
    assert!(
        large_rows >= 5 * small_rows,
        "the large view is {large_rows} rows, the small {small_rows}"
    );
    assert!(
        large as f64 <= PINNED_GROWTH * small as f64,
        "allocations per pinned commit grew from {small} to {large} with the view"
    );
}

/// A 1-lineitem commit whose `ΔV` is empty: the delta and its storage
/// apply, the one-view batch (its sharing trie, executor buffers and
/// report) and the publish; no maintenance plan is rebuilt. Measured: 44.
const COMMIT_EMPTY_DV_ALLOCS: u64 = 50;
/// The `BATCH`-lineitem insert: what the empty commit allocates, plus the
/// executor's batches and hash tables, one allocation per stored `ΔV` row
/// (94 at `SF`), and the §5 candidates and orphans. Measured: 306 (402 when
/// the publish replayed every `ΔV` row onto the registry's own image).
const COMMIT_INSERT_ALLOCS: u64 = 345;
/// The matching delete: the same, plus the one owned row per key that the
/// base-table delete hands back (`BATCH`) and the orphans the view store
/// gains. Measured: 1 120 (1 130).
const COMMIT_DELETE_ALLOCS: u64 = 1160;

/// The two engines whose one-view commits are pinned: the in-memory
/// `Database` and the single-stream `DurableDatabase`.
trait V3Engine {
    fn insert(&mut self, rows: Vec<Row>) -> Vec<MaintenanceReport>;
    fn delete(&mut self, keys: &[Vec<Datum>]) -> Vec<MaintenanceReport>;
}

impl V3Engine for Database {
    fn insert(&mut self, rows: Vec<Row>) -> Vec<MaintenanceReport> {
        Database::insert(self, "lineitem", rows).unwrap()
    }

    fn delete(&mut self, keys: &[Vec<Datum>]) -> Vec<MaintenanceReport> {
        Database::delete(self, "lineitem", keys).unwrap()
    }
}

impl V3Engine for DurableDatabase<MemVfs> {
    fn insert(&mut self, rows: Vec<Row>) -> Vec<MaintenanceReport> {
        DurableDatabase::insert(self, "lineitem", rows).unwrap()
    }

    fn delete(&mut self, keys: &[Vec<Datum>]) -> Vec<MaintenanceReport> {
        DurableDatabase::delete(self, "lineitem", keys).unwrap()
    }
}

/// Minimum allocations of four commits to a warmed one-view V3 engine at
/// `SF`: a 1-lineitem insert whose `ΔV` is empty, the 1-key delete of that
/// lineitem, the `BATCH`-lineitem insert from
/// `lineitem_insert_batch(BATCH, 1)`, and that insert's matching delete,
/// with the insert's `ΔV` row count. Two warm-up rounds run first.
fn one_view_commit_allocs(db: &mut impl V3Engine) -> ([u64; 4], usize) {
    let quiet = TpchGen::new(SF, 42)
        .lineitem_insert_batch(BATCH, 2)
        .into_iter()
        .find(|row| {
            let reports = db.insert(vec![row.clone()]);
            db.delete(&[row[..2].to_vec()]);
            reports[0].primary_rows == 0
        })
        .expect("some generated lineitem's order is outside V3's date window");
    let quiet_key = [quiet[..2].to_vec()];
    let rows = TpchGen::new(SF, 42).lineitem_insert_batch(BATCH, 1);
    let keys: Vec<Vec<Datum>> = rows.iter().map(|r| r[..2].to_vec()).collect();
    let (mut fewest, mut dv_rows) = ([u64::MAX; 4], 0);
    for round in 0..2 + ATTEMPTS {
        // The inserts move their batches into the catalog: clone them
        // outside the windows.
        let (one, batch) = (vec![quiet.clone()], rows.clone());
        let before = alloc_snapshot();
        let empty = db.insert(one);
        let after_empty = alloc_snapshot();
        db.delete(&quiet_key);
        let before_insert = alloc_snapshot();
        let inserted = db.insert(batch);
        let after_insert = alloc_snapshot();
        let deleted = db.delete(&keys);
        let after_delete = alloc_snapshot();
        assert_eq!(empty[0].primary_rows, 0);
        assert!(inserted[0].primary_rows > 0 && deleted[0].primary_rows > 0);
        dv_rows = inserted[0].primary_rows;
        if round >= 2 {
            let counts = [
                after_empty.since(&before).count,
                before_insert.since(&after_empty).count,
                after_insert.since(&before_insert).count,
                after_delete.since(&after_insert).count,
            ];
            for (min, n) in fewest.iter_mut().zip(counts) {
                *min = (*min).min(n);
            }
        }
    }
    (fewest, dv_rows)
}

fn v3_database() -> Database {
    let mut db = Database::new(tpch());
    db.create_view(v3_def()).unwrap();
    db
}

/// Creating V3 evaluates its join tree once over the base tables. Its
/// first join, lineitem ⋈ orders in V3's date window, probes orders' key
/// straight from lineitem's columnar rows, so only the lineitems that
/// survive it are widened to the view layout; widening all of lineitem
/// first would alone request `lineitem.len() × width × size_of::<Datum>()`
/// bytes (11 864 088 at `SF`). Measured: 21 070 724 bytes when every
/// lineitem was widened first, 9 206 572 when registering the view also
/// copied its stored image, 7 748 196 now.
#[test]
fn view_creation_widens_only_the_rows_its_first_join_keeps() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = tpch();
    let lineitems = catalog.table("lineitem").unwrap().len();
    let (mut fewest, mut width) = (u64::MAX, 0);
    for _ in 0..ATTEMPTS {
        let mut db = Database::new(catalog.clone());
        let before = alloc_snapshot();
        width = db.create_view(v3_def()).unwrap().analysis.layout.width();
        let after = alloc_snapshot();
        fewest = fewest.min(after.since(&before).bytes);
    }
    let widened = (lineitems * width * std::mem::size_of::<Datum>()) as u64;
    println!(
        "creating V3 over {lineitems} lineitems: {fewest} bytes requested; widening \
         lineitem to {width} columns alone would request {widened}"
    );
    assert!(
        fewest < widened,
        "creating V3 requested {fewest} bytes, no fewer than widening lineitem alone ({widened})"
    );
}

/// How many bytes `Database::create_view` may request per byte that
/// `MaterializedView::create` requests for the same view: the rest is the
/// plan warm-up and the registry's chain. Measured at `SF`: 7 747 230 bytes
/// through `Database`, ×1.003 of the 7 721 008 that materializing alone
/// requests; 9 193 390 (×1.19) when registering copied the stored image.
const CREATE_OVER_MATERIALIZE: f64 = 1.1;

/// Registering a view with the snapshot registry shares its stored image
/// instead of copying it: creating V3 through `Database` requests little
/// more than materializing it alone.
#[test]
fn registering_a_view_shares_its_image() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = tpch();
    let (mut alone, mut registered) = (u64::MAX, u64::MAX);
    for _ in 0..ATTEMPTS {
        let (def, mut db) = (v3_def(), Database::new(catalog.clone()));
        let before = alloc_snapshot();
        let view = MaterializedView::create(&catalog, def).unwrap();
        let after = alloc_snapshot();
        alone = alone.min(after.since(&before).bytes);
        drop(view);
        let def = v3_def();
        let before = alloc_snapshot();
        db.create_view(def).unwrap();
        let after = alloc_snapshot();
        registered = registered.min(after.since(&before).bytes);
    }
    println!(
        "V3 at SF {SF}: MaterializedView::create requested {alone} bytes, \
         Database::create_view {registered}"
    );
    assert!(
        registered as f64 <= CREATE_OVER_MATERIALIZE * alone as f64,
        "Database::create_view requested {registered} bytes, over \
         {CREATE_OVER_MATERIALIZE} × the {alone} of MaterializedView::create"
    );
}

/// A one-view commit allocates for what it evaluates and stores, not for
/// re-deriving its sharing plan or re-boxing `ΔV` on the way to the store.
#[test]
fn one_view_commits_allocate_what_they_evaluate_and_store() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ([empty, _, insert, delete], dv_rows) = one_view_commit_allocs(&mut v3_database());
    println!(
        "one-view V3 commits: 1-lineitem insert with empty ΔV {empty} allocations, \
         {BATCH}-lineitem insert ({dv_rows} ΔV rows) {insert}, delete {delete}"
    );
    assert!(
        empty <= COMMIT_EMPTY_DV_ALLOCS,
        "empty-ΔV commit allocated {empty} times (pinned: {COMMIT_EMPTY_DV_ALLOCS})"
    );
    assert!(
        insert <= COMMIT_INSERT_ALLOCS,
        "{BATCH}-lineitem insert commit allocated {insert} times (pinned: {COMMIT_INSERT_ALLOCS})"
    );
    assert!(
        delete <= COMMIT_DELETE_ALLOCS,
        "{BATCH}-lineitem delete commit allocated {delete} times (pinned: {COMMIT_DELETE_ALLOCS})"
    );
}

/// The durable commits of the same one-view V3 engine, through
/// `DurableDatabase` over `MemVfs` with `FsyncPolicy::Never`: on top of the
/// in-memory commit, the record's framing and its WAL append. Measured: 57
/// (60 when the durable commit ran its own copy of the commit loop).
const DURABLE_EMPTY_DV_ALLOCS: u64 = 63;
/// The 1-key delete of that lineitem. Measured: 60 (63).
const DURABLE_DELETE_ONE_ALLOCS: u64 = 66;
/// The `BATCH`-lineitem insert. Measured: 328 (424 when the publish
/// replayed every `ΔV` row onto the registry's own image).
const DURABLE_INSERT_ALLOCS: u64 = 365;

/// A durable commit allocates what the in-memory commit does plus a
/// per-commit constant for the log record, not a second copy of the
/// commit path.
#[test]
fn durable_one_view_commits_allocate_the_memory_commit_plus_its_record() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let policy = MaintenancePolicy {
        fsync: FsyncPolicy::Never,
        ..MaintenancePolicy::default()
    };
    let mut db = DurableDatabase::create(MemVfs::new(), tpch(), policy).unwrap();
    db.create_view(v3_def()).unwrap();
    let ([empty, delete_one, insert, delete], dv_rows) = one_view_commit_allocs(&mut db);
    println!(
        "durable one-view V3 commits: 1-lineitem insert with empty ΔV {empty} allocations, \
         1-key delete {delete_one}, {BATCH}-lineitem insert ({dv_rows} ΔV rows) {insert}, \
         delete {delete}"
    );
    for (what, n, pin) in [
        ("empty-ΔV insert", empty, DURABLE_EMPTY_DV_ALLOCS),
        ("1-key delete", delete_one, DURABLE_DELETE_ONE_ALLOCS),
        ("BATCH-lineitem insert", insert, DURABLE_INSERT_ALLOCS),
    ] {
        assert!(
            n <= pin,
            "durable {what} commit allocated {n} times (pinned: {pin})"
        );
    }
}

/// What adding the A4 rollup of V3 (grouped by customer) to a V3 database
/// may add to a lineitem commit beyond what V3 alone allocates: the
/// rollup's job and report, and its §5.3 secondary delta's executor
/// buffers and hash tables, which grow by doubling. Folding a `ΔV` row into
/// its group allocates nothing, and the §5.3 join chains come compiled.
/// Measured: insert +160, delete +134 at 1 000 lineitems (94 `ΔV` rows);
/// +177 and +147 at 4 000 (350 rows). Planning the chains on every commit
/// instead adds 27 allocations per commit; building a key per `ΔV` row adds
/// two per row.
const ROLLUP_EXTRA_ALLOCS: u64 = 190;
/// How much that extra may grow from the small commit to the large one.
/// Measured: 17 and 13.
const ROLLUP_EXTRA_GROWTH: u64 = 32;
/// The small and the large commit, in lineitems.
const ROLLUP_BATCHES: [usize; 2] = [BATCH, 4 * BATCH];

/// Minimum allocations of an insert of `lines` lineitems from
/// `lineitem_insert_batch(lines, 1)` and of its matching delete, committed
/// to a warmed `Database` with V3 and, when `rollup` is set, the A4
/// rollup of V3, with the insert's `ΔV` row count. Two warm-up rounds run
/// first.
fn rollup_commit_allocs(rollup: bool, lines: usize) -> ([u64; 2], usize) {
    let mut db = v3_database();
    if rollup {
        db.create_agg_view(v3_rollup_def()).unwrap();
    }
    let rows = TpchGen::new(SF, 42).lineitem_insert_batch(lines, 1);
    let keys: Vec<Vec<Datum>> = rows.iter().map(|r| r[..2].to_vec()).collect();
    let (mut fewest, mut dv_rows) = ([u64::MAX; 2], 0);
    for round in 0..2 + ATTEMPTS {
        // The insert moves its batch into the catalog: clone it outside
        // the window.
        let batch = rows.clone();
        let before = alloc_snapshot();
        let inserted = db.insert("lineitem", batch).unwrap();
        let after_insert = alloc_snapshot();
        let deleted = db.delete("lineitem", &keys).unwrap();
        let after_delete = alloc_snapshot();
        assert_eq!(inserted.len(), 1 + usize::from(rollup));
        assert_eq!(deleted.len(), inserted.len());
        dv_rows = inserted[0].primary_rows;
        if round >= 2 {
            let counts = [
                after_insert.since(&before).count,
                after_delete.since(&after_insert).count,
            ];
            for (min, n) in fewest.iter_mut().zip(counts) {
                *min = (*min).min(n);
            }
        }
    }
    (fewest, dv_rows)
}

/// The rollup shares V3's `ΔV` and folds each row into its group in
/// place: beside V3 it adds a per-commit constant, not a key per `ΔV` row.
#[test]
fn a_rollup_beside_v3_allocates_per_commit_not_per_dv_row() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut extras = Vec::new();
    for lines in ROLLUP_BATCHES {
        let (alone, dv_rows) = rollup_commit_allocs(false, lines);
        let (both, _) = rollup_commit_allocs(true, lines);
        let extra = [0, 1].map(|i| both[i].saturating_sub(alone[i]));
        println!(
            "{lines}-lineitem commits ({dv_rows} ΔV rows): V3 alone insert {} delete {}, \
             the rollup adds {} and {}",
            alone[0], alone[1], extra[0], extra[1]
        );
        extras.push((dv_rows, extra));
    }
    for (i, op) in ["insert", "delete"].into_iter().enumerate() {
        let [(small_dv, small), (large_dv, large)] = [extras[0], extras[1]].map(|(d, e)| (d, e[i]));
        assert!(
            large <= ROLLUP_EXTRA_ALLOCS,
            "the rollup added {large} allocations to the {op} commit of {large_dv} ΔV rows \
             (pinned: {ROLLUP_EXTRA_ALLOCS})"
        );
        assert!(
            large.saturating_sub(small) <= ROLLUP_EXTRA_GROWTH,
            "the rollup's extra allocations per {op} commit grew {small} -> {large} \
             from {small_dv} to {large_dv} ΔV rows (pinned growth: {ROLLUP_EXTRA_GROWTH})"
        );
    }
}
