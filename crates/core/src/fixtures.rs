//! Shared fixtures: small catalogs and views mirroring the paper's running
//! examples. Used by unit tests, integration tests, and examples.

use ojv_rel::{Column, DataType, Datum, Row};
use ojv_storage::Catalog;

use crate::view_def::{col_cmp, col_eq, ViewDef, ViewExpr};

/// The Example 1 schema: `part`, `orders`, `lineitem` with foreign keys
/// `lineitem → orders` and `lineitem → part`.
pub fn example1_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.create_table(
        "part",
        vec![
            Column::new("part", "p_partkey", DataType::Int, false),
            Column::new("part", "p_name", DataType::Str, true),
            Column::new("part", "p_retailprice", DataType::Float, true),
        ],
        &["p_partkey"],
    )
    .expect("fixture schema");
    c.create_table(
        "orders",
        vec![
            Column::new("orders", "o_orderkey", DataType::Int, false),
            Column::new("orders", "o_custkey", DataType::Int, true),
        ],
        &["o_orderkey"],
    )
    .expect("fixture schema");
    c.create_table(
        "lineitem",
        vec![
            Column::new("lineitem", "l_orderkey", DataType::Int, false),
            Column::new("lineitem", "l_linenumber", DataType::Int, false),
            Column::new("lineitem", "l_partkey", DataType::Int, false),
            Column::new("lineitem", "l_quantity", DataType::Int, true),
            Column::new("lineitem", "l_extendedprice", DataType::Float, true),
        ],
        &["l_orderkey", "l_linenumber"],
    )
    .expect("fixture schema");
    c.add_foreign_key("fk_lineitem_orders", "lineitem", &["l_orderkey"], "orders")
        .expect("fixture fk");
    c.add_foreign_key("fk_lineitem_part", "lineitem", &["l_partkey"], "part")
        .expect("fixture fk");
    c
}

/// A part row.
pub fn part_row(pk: i64, name: &str, price: f64) -> Row {
    vec![Datum::Int(pk), Datum::str(name), Datum::Float(price)]
}

/// An orders row.
pub fn order_row(ok: i64, custkey: i64) -> Row {
    vec![Datum::Int(ok), Datum::Int(custkey)]
}

/// A lineitem row.
pub fn lineitem_row(ok: i64, ln: i64, pk: i64, qty: i64, price: f64) -> Row {
    vec![
        Datum::Int(ok),
        Datum::Int(ln),
        Datum::Int(pk),
        Datum::Int(qty),
        Datum::Float(price),
    ]
}

/// Populate the Example 1 catalog with a small deterministic data set:
/// `n_parts` parts, `n_orders` orders, and one lineitem for every
/// (order, order % n_parts) pair plus extras for even orders.
pub fn populate_example1(c: &mut Catalog, n_parts: i64, n_orders: i64) {
    let parts: Vec<Row> = (1..=n_parts)
        .map(|i| part_row(i, &format!("part{i}"), 100.0 + i as f64))
        .collect();
    c.insert("part", parts).expect("fixture parts");
    let orders: Vec<Row> = (1..=n_orders).map(|i| order_row(i, 1000 + i)).collect();
    c.insert("orders", orders).expect("fixture orders");
    let mut lines = Vec::new();
    for o in 1..=n_orders {
        // Orders divisible by 3 stay empty (orphaned orders).
        if o % 3 == 0 {
            continue;
        }
        lines.push(lineitem_row(o, 1, 1 + (o % n_parts), 5, 10.0 * o as f64));
        if o % 2 == 0 {
            lines.push(lineitem_row(
                o,
                2,
                1 + ((o + 1) % n_parts),
                7,
                5.0 * o as f64,
            ));
        }
    }
    c.insert("lineitem", lines).expect("fixture lineitems");
}

/// The paper's Example 1 view:
/// `part fo (orders lo lineitem on l_orderkey=o_orderkey) on p_partkey=l_partkey`.
pub fn oj_view_def() -> ViewDef {
    ViewDef::new(
        "oj_view",
        ViewExpr::full_outer(
            vec![col_eq("part", "p_partkey", "lineitem", "l_partkey")],
            ViewExpr::table("part"),
            ViewExpr::left_outer(
                vec![col_eq("orders", "o_orderkey", "lineitem", "l_orderkey")],
                ViewExpr::table("orders"),
                ViewExpr::table("lineitem"),
            ),
        ),
    )
}

/// A member of the Example 1 view family: same shape as [`oj_view_def`] but
/// with an extra `l_quantity < max_qty` predicate on the part join. Family
/// members share the `Δlineitem ⋈ orders` prefix of their maintenance plans
/// and diverge at the part join, so batched maintenance shares the common
/// prefix without sharing whole plans. Members with equal `max_qty` have
/// identical plans.
pub fn oj_view_variant(name: &str, max_qty: i64) -> ViewDef {
    ViewDef::new(
        name,
        ViewExpr::full_outer(
            vec![
                col_eq("part", "p_partkey", "lineitem", "l_partkey"),
                col_cmp("lineitem", "l_quantity", ojv_algebra::CmpOp::Lt, max_qty),
            ],
            ViewExpr::table("part"),
            ViewExpr::left_outer(
                vec![col_eq("orders", "o_orderkey", "lineitem", "l_orderkey")],
                ViewExpr::table("orders"),
                ViewExpr::table("lineitem"),
            ),
        ),
    )
}

/// The running-example view V1 over four generic tables
/// `(R fo S) lo (T fo U)`, with single-column keys and integer join columns.
pub fn v1_catalog() -> Catalog {
    let mut c = Catalog::new();
    for name in ["r", "s", "t", "u"] {
        c.create_table(
            name,
            vec![
                Column::new(name, "id", DataType::Int, false),
                Column::new(name, "jc", DataType::Int, false),
                Column::new(name, "payload", DataType::Int, true),
            ],
            &["id"],
        )
        .expect("fixture schema");
    }
    c
}

/// `V1 = (R fo_{r.jc=s.jc} S) lo_{r.jc=t.jc} (T fo_{t.jc=u.jc} U)`.
pub fn v1_view_def() -> ViewDef {
    ViewDef::new(
        "v1",
        ViewExpr::left_outer(
            vec![col_eq("r", "jc", "t", "jc")],
            ViewExpr::full_outer(
                vec![col_eq("r", "jc", "s", "jc")],
                ViewExpr::table("r"),
                ViewExpr::table("s"),
            ),
            ViewExpr::full_outer(
                vec![col_eq("t", "jc", "u", "jc")],
                ViewExpr::table("t"),
                ViewExpr::table("u"),
            ),
        ),
    )
}

/// A generic row for the V1 tables.
pub fn v1_row(id: i64, jc: i64, payload: i64) -> Row {
    vec![Datum::Int(id), Datum::Int(jc), Datum::Int(payload)]
}

/// Maintain `view` alone after `update` through the one maintenance entry,
/// [`crate::batch::maintain_batch`], over a one-view slice. `None` when the
/// update leaves the view untouched (the batch reports only affected views).
#[cfg(test)]
pub(crate) fn maintain_alone(
    view: &mut crate::materialize::MaterializedView,
    catalog: &Catalog,
    update: &ojv_storage::Update,
    policy: &crate::policy::MaintenancePolicy,
) -> Option<crate::maintain::MaintenanceReport> {
    let views = std::slice::from_mut(view);
    let reports = crate::batch::maintain_batch(views, &mut [], catalog, update, policy);
    reports.expect("maintenance").pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example1_fixture_is_consistent() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 10, 12);
        assert_eq!(c.table("part").unwrap().len(), 10);
        assert_eq!(c.table("orders").unwrap().len(), 12);
        assert!(!c.table("lineitem").unwrap().is_empty());
    }

    #[test]
    fn v1_fixture_builds() {
        let c = v1_catalog();
        assert_eq!(c.tables().count(), 4);
        assert_eq!(v1_view_def().expr().tables(), vec!["r", "s", "t", "u"]);
    }
}
