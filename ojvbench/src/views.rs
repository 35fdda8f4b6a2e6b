//! The benchmark's own copies of the view definitions it maintains, so the
//! repository's `repro` panels can change without touching the benchmark.

use ojv_core::prelude::*;
use ojv_rel::datum::date;

/// The paper's view V3 (§7): `((lineitem ⋈ orders in a 7-month window)
/// ⟖ customer) ⟗ part with p_retailprice < cutoff`. The paper's cutoff is
/// 2000; family members differ only in the cutoff, so their lineitem
/// maintenance plans share the `Δlineitem ⋈ orders ⋈ customer` prefix.
pub fn v3_def(name: &str, price_cutoff: f64) -> ViewDef {
    let lineitem_orders = ViewExpr::inner(
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
    );
    let with_customer = ViewExpr::join(
        JoinKind::RightOuter,
        vec![col_eq("customer", "c_custkey", "orders", "o_custkey")],
        lineitem_orders,
        ViewExpr::table("customer"),
    );
    ViewDef::new(
        name,
        ViewExpr::join(
            JoinKind::FullOuter,
            vec![
                col_eq("lineitem", "l_partkey", "part", "p_partkey"),
                col_cmp("part", "p_retailprice", CmpOp::Lt, price_cutoff),
            ],
            with_customer,
            ViewExpr::table("part"),
        ),
    )
}

pub const V3: &str = "v3";
pub const OL: &str = "ol";

/// `orders ⟕ lineitem`, aligned with the orderkey routing below.
pub fn ol_def() -> ViewDef {
    ViewDef::new(
        OL,
        ViewExpr::left_outer(
            vec![col_eq("orders", "o_orderkey", "lineitem", "l_orderkey")],
            ViewExpr::table("orders"),
            ViewExpr::table("lineitem"),
        ),
    )
}

/// Names and cutoffs of the 8-view V3 family of `fanout_read`.
pub fn v3_family() -> Vec<(String, f64)> {
    (0..8)
        .map(|i| (format!("v3_f{i}"), 1300.0 + 100.0 * f64::from(i)))
        .collect()
}

/// Key-aligned routing for the eight TPC-H tables; lineitem routes by
/// `l_orderkey` so it is colocated with its order.
pub fn tpch_routing() -> RoutingSpec {
    RoutingSpec::new()
        .table("region", &["r_regionkey"])
        .table("nation", &["n_nationkey"])
        .table("supplier", &["s_suppkey"])
        .table("part", &["p_partkey"])
        .table("partsupp", &["ps_partkey"])
        .table("customer", &["c_custkey"])
        .table("orders", &["o_orderkey"])
        .table("lineitem", &["l_orderkey"])
}
