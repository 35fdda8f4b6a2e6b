//! Integration tests that replay the paper's worked examples end-to-end
//! through the public facade crate.

use ojv::core::analyze::analyze;
use ojv::core::fixtures;
use ojv::core::maintain::verify_against_recompute;
use ojv::prelude::*;
use ojv::rel::datum::date;

/// The evaluation's view V3 (§8): `(lineitem ⋈ orders) ⟖ customer ⟗ part`
/// with the paper's date and retail-price predicates.
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

/// Example 1, step by step: the oj_view over part/orders/lineitem contains
/// three tuple types, and the maintenance statements behave as the paper
/// describes.
#[test]
fn example_1_walkthrough() {
    let mut catalog = fixtures::example1_catalog();
    // part 1 and 2; order 10 with a lineitem for part 1; order 11 empty.
    catalog
        .insert(
            "part",
            vec![
                fixtures::part_row(1, "bolt", 100.0),
                fixtures::part_row(2, "nut", 150.0),
            ],
        )
        .unwrap();
    catalog
        .insert(
            "orders",
            vec![fixtures::order_row(10, 7), fixtures::order_row(11, 8)],
        )
        .unwrap();
    catalog
        .insert("lineitem", vec![fixtures::lineitem_row(10, 1, 1, 5, 10.0)])
        .unwrap();

    let mut db = Database::new(catalog);
    db.create_view(fixtures::oj_view_def()).unwrap();
    // "the view may contain tuples of three types: {part, orders, lineitem},
    // {orders}, and {part}": full row for (1,10), orphan order 11, orphan
    // part 2.
    assert_eq!(db.view("oj_view").unwrap().len(), 3);

    // "Suppose we insert new tuples into the part table. The view can then
    // be brought up to date simply by inserting the new tuples".
    let reports = db
        .insert("part", vec![fixtures::part_row(3, "washer", 10.0)])
        .unwrap();
    assert_eq!(reports[0].primary_rows, 1);
    assert_eq!(reports[0].secondary_rows, 0);
    assert_eq!(db.view("oj_view").unwrap().len(), 4);

    // "Insertions into the orders table can be handled in the same way."
    let reports = db
        .insert("orders", vec![fixtures::order_row(12, 9)])
        .unwrap();
    assert_eq!(reports[0].primary_rows, 1);
    assert_eq!(reports[0].secondary_rows, 0);

    // "The new lineitem tuples may cause some orphaned part or orders tuples
    // to be eliminated from the view": insert order 11's first lineitem for
    // part 2 — both orphans must disappear, one full row appears.
    let before = db.view("oj_view").unwrap().len();
    let reports = db
        .insert("lineitem", vec![fixtures::lineitem_row(11, 1, 2, 3, 4.5)])
        .unwrap();
    assert_eq!(reports[0].primary_rows, 1);
    assert_eq!(
        reports[0].secondary_rows, 2,
        "exactly the orphaned order 11 and orphaned part 2 are deleted"
    );
    assert_eq!(db.view("oj_view").unwrap().len(), before + 1 - 2);
    assert!(verify_against_recompute(
        db.view("oj_view").unwrap(),
        db.catalog()
    ));

    // Deleting that lineitem re-orphans both.
    let reports = db
        .delete("lineitem", &[vec![Datum::Int(11), Datum::Int(1)]])
        .unwrap();
    assert_eq!(reports[0].primary_rows, 1);
    assert_eq!(reports[0].secondary_rows, 2);
    assert!(verify_against_recompute(
        db.view("oj_view").unwrap(),
        db.catalog()
    ));
}

/// The Gupta–Mumick counterexample from §8: a single lineitem insertion must
/// remove BOTH an orphaned part and an orphaned orders tuple ("Gupta's and
/// Mumick's algorithm would modify one of the tuples but not delete the
/// other one").
#[test]
fn gupta_mumick_counterexample() {
    let mut catalog = fixtures::example1_catalog();
    catalog
        .insert("part", vec![fixtures::part_row(1, "p", 1.0)])
        .unwrap();
    catalog
        .insert("orders", vec![fixtures::order_row(1, 1)])
        .unwrap();
    let mut db = Database::new(catalog);
    db.create_view(fixtures::oj_view_def()).unwrap();
    assert_eq!(db.view("oj_view").unwrap().len(), 2); // two orphans

    // "the new lineitem tuple is the first line item of the order and nobody
    // has ordered this particular part before".
    db.insert("lineitem", vec![fixtures::lineitem_row(1, 1, 1, 1, 1.0)])
        .unwrap();
    let view = db.view("oj_view").unwrap();
    assert_eq!(view.len(), 1, "both orphans removed, one full row added");
    assert!(verify_against_recompute(view, db.catalog()));
}

/// V1's maintenance (the running example): update every table, verifying
/// against recompute, for V1 and for a projection of V1 that fails §5.2
/// column availability — so both secondary-delta strategies run; exercises
/// the rule 4/5 null-if path (updating R or S makes the right operand
/// `T fo U` bushy).
#[test]
fn v1_running_example_full_matrix() {
    let projected = fixtures::v1_view_def()
        .with_projection(["r", "s", "t", "u"].map(|t| (t, "payload")).to_vec());
    for (def, from_view) in [(fixtures::v1_view_def(), true), (projected, false)] {
        let mut catalog = fixtures::v1_catalog();
        for (name, n) in [("r", 5i64), ("s", 6), ("t", 7), ("u", 8)] {
            let rows: Vec<Row> = (1..=n).map(|i| fixtures::v1_row(i, i % 3, i)).collect();
            catalog.insert(name, rows).unwrap();
        }
        let mut db = Database::new(catalog);
        let v = db.create_view(def).unwrap();
        assert!((0..v.analysis.terms.len()).all(|i| v.analysis.from_view_available(i) == from_view));

        for (name, id, jc) in [
            ("r", 50i64, 0i64),
            ("s", 51, 1),
            ("t", 52, 2),
            ("u", 53, 0),
            ("t", 54, 0),
        ] {
            db.insert(name, vec![fixtures::v1_row(id, jc, 0)]).unwrap();
            assert!(
                verify_against_recompute(db.view("v1").unwrap(), db.catalog()),
                "from_view={from_view} diverged after insert into {name}"
            );
        }
        for (name, id) in [("t", 1i64), ("u", 2), ("r", 3), ("s", 4), ("t", 52)] {
            db.delete(name, &[vec![Datum::Int(id)]]).unwrap();
            assert!(
                verify_against_recompute(db.view("v1").unwrap(), db.catalog()),
                "from_view={from_view} diverged after delete from {name}"
            );
        }
    }
}

/// Theorem 1: the view equals the disjoint outer union of the terms' net
/// contributions — term cardinalities partition the view.
#[test]
fn net_contributions_partition_the_view() {
    let mut catalog = fixtures::example1_catalog();
    fixtures::populate_example1(&mut catalog, 10, 15);
    let mut db = Database::new(catalog);
    db.create_view(fixtures::oj_view_def()).unwrap();
    let view = db.view("oj_view").unwrap();
    let total: usize = view.term_cardinalities().iter().map(|(_, n)| n).sum();
    assert_eq!(total, view.len());
    // Each row matches exactly one term pattern (checked by construction of
    // term_cardinalities + this total).
}

/// An update modeled as delete+insert (§3 / §6 caveat 1) must stay correct
/// even when it touches FK-parent tables.
#[test]
fn update_decomposition_on_parent_table() {
    let mut catalog = fixtures::example1_catalog();
    fixtures::populate_example1(&mut catalog, 6, 6);
    let mut db = Database::new(catalog);
    db.create_view(fixtures::oj_view_def()).unwrap();
    // "Update" part 3's name: delete + reinsert the same key. With the FK
    // fast path this would be wrong to shortcut, because the delete must
    // first verify no lineitems reference part 3 — it does, so the restrict
    // check fires and the update fails cleanly.
    let result = db.update(
        "part",
        &[vec![Datum::Int(3)]],
        vec![fixtures::part_row(3, "renamed", 1.0)],
    );
    // Part 3 is referenced by fixture lineitems → FK restrict error, view
    // untouched and still correct.
    assert!(result.is_err());
    assert!(verify_against_recompute(
        db.view("oj_view").unwrap(),
        db.catalog()
    ));

    // An unreferenced part updates fine.
    db.insert("part", vec![fixtures::part_row(100, "tmp", 2.0)])
        .unwrap();
    db.update(
        "part",
        &[vec![Datum::Int(100)]],
        vec![fixtures::part_row(100, "renamed", 3.0)],
    )
    .unwrap();
    assert!(verify_against_recompute(
        db.view("oj_view").unwrap(),
        db.catalog()
    ));
}

/// Restricted projections: §5.2's column-availability analysis must flag
/// views that cannot expose their terms, while maintenance (which keeps the
/// full wide state internally) stays correct and `output()` shows only the
/// projected columns.
#[test]
fn projected_view_maintenance() {
    let mut catalog = fixtures::example1_catalog();
    fixtures::populate_example1(&mut catalog, 6, 6);
    let def = fixtures::oj_view_def().with_projection(vec![
        ("part", "p_partkey"),
        ("part", "p_name"),
        ("orders", "o_orderkey"),
        ("lineitem", "l_quantity"),
    ]);
    let mut db = Database::new(catalog);
    db.create_view(def).unwrap();
    {
        let view = db.view("oj_view").unwrap();
        assert_eq!(view.output().unwrap().schema().len(), 4);
        // lineitem exposes no non-nullable column → no term is from-view
        // maintainable per the paper's condition.
        for i in 0..view.analysis.terms.len() {
            assert!(!view.analysis.from_view_available(i));
        }
    }
    db.insert("lineitem", vec![fixtures::lineitem_row(3, 1, 2, 9, 9.0)])
        .unwrap();
    assert!(verify_against_recompute(
        db.view("oj_view").unwrap(),
        db.catalog()
    ));
}

/// Golden test: V3's join-disjunctive normal form has exactly the four terms
/// the paper derives — `{L,O,C,P}`, `{L,O,C}`, `{C}`, `{P}`. The candidate
/// term `{C,P}` is pruned because the full-outer predicate references
/// lineitem, which is null-extended there.
#[test]
fn v3_jdnf_terms_golden() {
    let catalog = ojv::tpch::create_tpch_catalog().unwrap();
    let a = analyze(&catalog, &v3_def()).unwrap();
    let term_tables: Vec<Vec<&str>> = a
        .terms
        .iter()
        .map(|t| {
            t.tables
                .iter()
                .map(|tid| a.layout.slot(tid).name.as_str())
                .collect()
        })
        .collect();
    assert_eq!(
        term_tables,
        vec![
            vec!["lineitem", "orders", "customer", "part"],
            vec!["lineitem", "orders", "customer"],
            vec!["customer"],
            vec!["part"],
        ]
    );
}

/// Golden test: the maintenance graph (§6) for every base table of V3, with
/// and without foreign-key simplification. FK simplification makes orders
/// updates no-ops (every order row joins its lineitems through the FK) and
/// shrinks customer/part updates to their single-table terms.
#[test]
fn v3_maintenance_graph_classification_golden() {
    let catalog = ojv::tpch::create_tpch_catalog().unwrap();
    let a = analyze(&catalog, &v3_def()).unwrap();
    // (table, use_fk, direct terms, indirect terms) — term indices refer to
    // the JDNF order pinned in `v3_jdnf_terms_golden`.
    let expected: &[(&str, bool, &[usize], &[usize])] = &[
        ("lineitem", false, &[0, 1], &[2, 3]),
        ("lineitem", true, &[0, 1], &[2, 3]),
        ("orders", false, &[0, 1], &[2, 3]),
        ("orders", true, &[], &[]),
        ("customer", false, &[0, 1, 2], &[3]),
        ("customer", true, &[2], &[]),
        ("part", false, &[0, 3], &[1]),
        ("part", true, &[3], &[]),
    ];
    for (table, fk, direct, indirect) in expected {
        let t = a.layout.table_id(table).unwrap();
        let g = a.maintenance_graph(t, *fk);
        assert_eq!(&g.direct, direct, "{table} fk={fk}: direct terms");
        let got: Vec<usize> = g.indirect.iter().map(|i| i.term).collect();
        assert_eq!(&got, indirect, "{table} fk={fk}: indirect terms");
    }
}

/// Golden test: Table 1 of the paper pins the view's term cardinalities for
/// the generated TPC-H database. Our deterministic generator at SF=0.05,
/// seed 42 yields the cardinalities below; any change to the generator, the
/// normal form, or the executor shows up here as an exact diff.
#[test]
fn v3_table1_term_cardinalities_golden() {
    let gen = ojv::tpch::TpchGen::new(0.05, 42);
    let mut catalog = ojv::tpch::create_tpch_catalog().unwrap();
    gen.populate(&mut catalog).unwrap();
    assert_eq!(catalog.table("lineitem").unwrap().len(), 300_867);
    assert_eq!(catalog.table("orders").unwrap().len(), 75_000);
    assert_eq!(catalog.table("customer").unwrap().len(), 7_500);
    assert_eq!(catalog.table("part").unwrap().len(), 10_000);

    let v = ojv::core::materialize::MaterializedView::create(&catalog, v3_def()).unwrap();
    let cards = v.term_cardinalities();
    let got: Vec<(String, usize)> = cards.iter().map(|(n, c)| (format!("{n}"), *c)).collect();
    assert_eq!(
        got,
        vec![
            ("{T0,T1,T2,T3}".to_string(), 24_608),
            ("{T0,T1,T2}".to_string(), 2_340),
            ("{T2}".to_string(), 3_011),
            ("{T3}".to_string(), 1_480),
        ]
    );
    assert_eq!(v.len(), 31_439);
}
