//! End-to-end tests over the TPC-H substrate: the evaluation's view V3
//! maintained through realistic refresh streams, checked against recompute.

use ojv::core::agg_view::{AggSpec, AggViewDef};
use ojv::core::maintain::verify_against_recompute;
use ojv::prelude::*;
use ojv::rel::datum::date;
use ojv::tpch::{create_tpch_catalog, TpchGen};

fn v3_def() -> ViewDef {
    ViewDef::new(
        "v3",
        ViewExpr::full_outer(
            vec![
                col_eq("lineitem", "l_partkey", "part", "p_partkey"),
                col_cmp("part", "p_retailprice", CmpOp::Lt, 2000.0),
            ],
            ViewExpr::right_outer(
                vec![col_eq("customer", "c_custkey", "orders", "o_custkey")],
                ViewExpr::inner(
                    vec![
                        col_eq("lineitem", "l_orderkey", "orders", "o_orderkey"),
                        col_between(
                            "orders",
                            "o_orderdate",
                            date("1994-06-01"),
                            date("1994-12-31"),
                        ),
                    ],
                    ViewExpr::table("lineitem"),
                    ViewExpr::table("orders"),
                ),
                ViewExpr::table("customer"),
            ),
            ViewExpr::table("part"),
        ),
    )
}

fn setup(sf: f64, seed: u64) -> (Database, TpchGen) {
    let gen = TpchGen::new(sf, seed);
    let mut catalog = create_tpch_catalog().unwrap();
    gen.populate(&mut catalog).unwrap();
    (Database::new(catalog), gen)
}

#[test]
fn v3_lineitem_refresh_stream() {
    let (mut db, gen) = setup(0.002, 11);
    db.create_view(v3_def()).unwrap();
    // Three insert batches, then delete batches, verifying throughout.
    for batch in 0..3u64 {
        let rows = gen.lineitem_insert_batch(120, batch);
        db.insert("lineitem", rows).unwrap();
        assert!(
            verify_against_recompute(db.view("v3").unwrap(), db.catalog()),
            "diverged after insert batch {batch}"
        );
    }
    for batch in 0..2u64 {
        let keys = gen.lineitem_delete_keys(80, batch + 10);
        // Some keys may already be gone if batches overlap; delete the ones
        // present.
        let live: Vec<_> = keys
            .into_iter()
            .filter(|k| db.catalog().table("lineitem").unwrap().get(k).is_some())
            .collect();
        db.delete("lineitem", &live).unwrap();
        assert!(
            verify_against_recompute(db.view("v3").unwrap(), db.catalog()),
            "diverged after delete batch {batch}"
        );
    }
}

#[test]
fn v3_order_refresh_rf1_rf2() {
    let (mut db, gen) = setup(0.002, 13);
    db.create_view(v3_def()).unwrap();
    // RF1: new orders + lineitems.
    let (orders, lines) = gen.order_insert_batch(40, 0);
    let reports = db.insert("orders", orders).unwrap();
    // Orders updates never affect V3 (FK between lineitem and orders).
    assert!(reports.is_empty());
    db.insert("lineitem", lines).unwrap();
    assert!(verify_against_recompute(
        db.view("v3").unwrap(),
        db.catalog()
    ));

    // RF2: delete some base orders with their lineitems.
    let (okeys, lkeys) = gen.order_delete_batch(25, 0);
    db.delete("lineitem", &lkeys).unwrap();
    let reports = db.delete("orders", &okeys).unwrap();
    assert!(reports.is_empty());
    assert!(verify_against_recompute(
        db.view("v3").unwrap(),
        db.catalog()
    ));
}

#[test]
fn v3_customer_fast_path() {
    let (mut db, gen) = setup(0.002, 17);
    db.create_view(v3_def()).unwrap();
    let new_key = gen.customer_count() + 1;
    let row: Row = vec![
        Datum::Int(new_key),
        Datum::str("Customer#new"),
        Datum::str("addr"),
        Datum::Int(3),
        Datum::str("13-000-000-0000"),
        Datum::Float(0.0),
        Datum::str("BUILDING"),
        Datum::str("c"),
    ];
    let before = db.view("v3").unwrap().len();
    let reports = db.insert("customer", vec![row]).unwrap();
    // Exactly one row (the orphaned customer) is added; no secondary work.
    assert_eq!(reports[0].primary_rows, 1);
    assert_eq!(reports[0].secondary_rows, 0);
    assert_eq!(db.view("v3").unwrap().len(), before + 1);
    assert!(verify_against_recompute(
        db.view("v3").unwrap(),
        db.catalog()
    ));

    // Deleting the (childless) customer removes it again.
    let reports = db.delete("customer", &[vec![Datum::Int(new_key)]]).unwrap();
    assert_eq!(reports[0].primary_rows, 1);
    assert_eq!(db.view("v3").unwrap().len(), before);
    assert!(verify_against_recompute(
        db.view("v3").unwrap(),
        db.catalog()
    ));
}

#[test]
fn aggregated_revenue_rollup_over_v3() {
    let (mut db, gen) = setup(0.002, 19);
    let agg = AggViewDef::new("rev_by_customer", v3_def())
        .group_by("customer", "c_custkey")
        .agg("rows", AggSpec::CountRows)
        .agg(
            "lines",
            AggSpec::CountNonNull {
                table: "lineitem".into(),
                column: "l_orderkey".into(),
            },
        )
        .agg(
            "revenue",
            AggSpec::Sum {
                table: "lineitem".into(),
                column: "l_extendedprice".into(),
            },
        );
    db.create_agg_view(agg.clone()).unwrap();

    let assert_agg_fresh = |db: &Database| {
        let fresh =
            ojv::core::agg_view::MaterializedAggView::create(db.catalog(), agg.clone()).unwrap();
        assert!(db
            .agg_view("rev_by_customer")
            .unwrap()
            .output()
            .bag_eq(&fresh.output()));
    };

    let rows = gen.lineitem_insert_batch(150, 3);
    db.insert("lineitem", rows).unwrap();
    assert_agg_fresh(&db);

    let keys = gen.lineitem_delete_keys(100, 4);
    let live: Vec<_> = keys
        .into_iter()
        .filter(|k| db.catalog().table("lineitem").unwrap().get(k).is_some())
        .collect();
    db.delete("lineitem", &live).unwrap();
    assert_agg_fresh(&db);
}

#[test]
fn gk_baseline_agrees_on_tpch() {
    let gen = TpchGen::new(0.002, 23);
    let mut catalog = create_tpch_catalog().unwrap();
    gen.populate(&mut catalog).unwrap();
    let mut ours = ojv::core::materialize::MaterializedView::create(&catalog, v3_def()).unwrap();
    let mut gk = ours.clone();

    let rows = gen.lineitem_insert_batch(100, 0);
    let up = catalog.insert("lineitem", rows).unwrap();
    ojv::core::maintain::maintain(&mut ours, &catalog, &up, &MaintenancePolicy::paper()).unwrap();
    ojv::core::baseline::maintain_gk(&mut gk, &catalog, &up).unwrap();

    let mut a: Vec<Row> = ours.wide_rows().to_vec();
    let mut b: Vec<Row> = gk.wide_rows().to_vec();
    a.sort();
    b.sort();
    assert_eq!(a, b, "GK and the paper's maintenance must agree");
    assert!(verify_against_recompute(&ours, &catalog));
}
