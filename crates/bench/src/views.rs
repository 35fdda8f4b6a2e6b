//! The evaluation's view definitions (paper §7).

use ojv_core::prelude::*;
use ojv_rel::datum::date;

/// The paper's view V3:
///
/// ```sql
/// create view V3 as select ... from
///   ((select * from lineitem, orders
///      where l_orderkey = o_orderkey
///        and o_orderdate between '1994-06-01' and '1994-12-31')
///    right outer join customer on c_custkey = o_custkey)
///   full outer join part on l_partkey = p_partkey
///                       and p_retailprice < 2000
/// ```
pub fn v3_def() -> ViewDef {
    ViewDef::new("v3", v3_expr(JoinKind::RightOuter, JoinKind::FullOuter))
}

/// V3 projected onto one non-nullable, non-key column per table. It hides
/// every table's key, so no term passes §5.2 column availability and every
/// secondary delta comes from base tables (§5.3): the other arm of the A3
/// ablation, chosen by the view's shape rather than by a policy.
pub fn v3_keyless_def() -> ViewDef {
    v3_def().with_name("v3_keyless").with_projection(vec![
        ("lineitem", "l_shipdate"),
        ("orders", "o_orderdate"),
        ("customer", "c_name"),
        ("part", "p_name"),
    ])
}

/// The *core view* of V3: all outer joins replaced by inner joins, same
/// predicates and indexes (paper §7).
pub fn v3_core_def() -> ViewDef {
    ViewDef::new("v3_core", v3_expr(JoinKind::Inner, JoinKind::Inner))
}

fn v3_expr(customer_join: JoinKind, part_join: JoinKind) -> ViewExpr {
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
        customer_join,
        vec![col_eq("customer", "c_custkey", "orders", "o_custkey")],
        lineitem_orders,
        ViewExpr::table("customer"),
    );
    ViewExpr::join(
        part_join,
        vec![
            col_eq("lineitem", "l_partkey", "part", "p_partkey"),
            col_cmp("part", "p_retailprice", CmpOp::Lt, 2000.0),
        ],
        with_customer,
        ViewExpr::table("part"),
    )
}

/// The paper's Example 11 view V2 over TPC-H:
/// `V2 = σ_pc C fo_{ck=ock} (σ_po O fo_{ok=lok} L)` — with the customer and
/// orders selections expressed as account-balance and total-price filters.
pub fn v2_def() -> ViewDef {
    ViewDef::new(
        "v2",
        ViewExpr::full_outer(
            vec![col_eq("customer", "c_custkey", "orders", "o_custkey")],
            ViewExpr::select(
                vec![col_cmp("customer", "c_acctbal", CmpOp::Ge, 0.0)],
                ViewExpr::table("customer"),
            ),
            ViewExpr::full_outer(
                vec![col_eq("orders", "o_orderkey", "lineitem", "l_orderkey")],
                ViewExpr::select(
                    vec![col_cmp("orders", "o_totalprice", CmpOp::Ge, 1000.0)],
                    ViewExpr::table("orders"),
                ),
                ViewExpr::table("lineitem"),
            ),
        ),
    )
}

/// The introduction's `oj_view` over the TPC-H schema (Example 1):
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

#[cfg(test)]
mod tests {
    use super::*;
    use ojv_core::analyze::analyze;
    use ojv_core::compile::compile_uncached;
    use ojv_tpch::{create_tpch_catalog, TpchGen};

    #[test]
    fn v3_normal_form_matches_table_1_terms() {
        let mut c = create_tpch_catalog().unwrap();
        TpchGen::new(0.001, 1).populate(&mut c).unwrap();
        let a = analyze(&c, &v3_def()).unwrap();
        // Paper Table 1: terms COLP, COL, C, P.
        let mut sizes: Vec<usize> = a.terms.iter().map(|t| t.tables.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 3, 4]);
        let l = a.layout.table_id("lineitem").unwrap();
        let c_id = a.layout.table_id("customer").unwrap();
        let p = a.layout.table_id("part").unwrap();
        assert!(a
            .terms
            .iter()
            .any(|t| t.tables.len() == 1 && t.tables.contains(c_id)));
        assert!(a
            .terms
            .iter()
            .any(|t| t.tables.len() == 1 && t.tables.contains(p)));
        assert!(a
            .terms
            .iter()
            .any(|t| t.tables.len() == 3 && !t.tables.contains(p) && t.tables.contains(l)));
    }

    /// Example 11 / Figure 4: V2's unpruned maintenance graph for orders
    /// updates has 4 direct + 2 indirect terms; the FK L.lok→O.ok reduces it
    /// to {C,O},{O} direct and {C} indirect.
    #[test]
    fn v2_maintenance_graphs_match_figure_4() {
        let mut c = create_tpch_catalog().unwrap();
        TpchGen::new(0.001, 1).populate(&mut c).unwrap();
        let a = analyze(&c, &v2_def()).unwrap();
        let o = a.layout.table_id("orders").unwrap();
        let unreduced = a.maintenance_graph(o, false);
        assert_eq!(unreduced.direct.len(), 4);
        assert_eq!(unreduced.indirect.len(), 2);
        let reduced = a.maintenance_graph(o, true);
        assert_eq!(reduced.direct.len(), 2);
        assert_eq!(reduced.indirect.len(), 1);
        // The surviving indirect term is {C}.
        let cu = a.layout.table_id("customer").unwrap();
        let ind_term = &a.terms[reduced.indirect[0].term];
        assert_eq!(ind_term.tables.len(), 1);
        assert!(ind_term.tables.contains(cu));
    }

    /// The §5.2 deletion case probes the term-key count index the view
    /// keeps for every term with a parent, with no scan fallback — so every
    /// indirect term of every maintenance graph (with and without the FK
    /// reduction) of the Example 1, V2 and V3 views must have a parent.
    #[test]
    fn every_indirect_term_has_a_parent() {
        let mut c = create_tpch_catalog().unwrap();
        TpchGen::new(0.001, 1).populate(&mut c).unwrap();
        let mut checked = 0;
        for def in [oj_view_def(), v3_def(), v2_def()] {
            let a = analyze(&c, &def).unwrap();
            for t in 0..a.layout.table_count() {
                for use_fk in [false, true] {
                    let t = ojv_algebra::TableId(t as u8);
                    for ind in a.maintenance_graph(t, use_fk).indirect {
                        assert!(!a.graph.parents(ind.term).is_empty(), "{}", def.name());
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0);
    }

    /// The A3 arms: V3 takes §5.2 for every term, its keyless projection
    /// takes §5.3 for every term.
    #[test]
    fn v3_keyless_fails_from_view_availability() {
        let mut c = create_tpch_catalog().unwrap();
        TpchGen::new(0.001, 1).populate(&mut c).unwrap();
        let full = analyze(&c, &v3_def()).unwrap();
        let keyless = analyze(&c, &v3_keyless_def()).unwrap();
        assert!((0..full.terms.len()).all(|i| full.from_view_available(i)));
        assert!((0..keyless.terms.len()).all(|i| !keyless.from_view_available(i)));
    }

    /// A one-view batch evaluates a plan as its spine's reassembly, so the
    /// two must be equal for every compiled plan of every TPC-H view, over
    /// every table and every config.
    #[test]
    fn spine_reassembles_every_plan() {
        let c = create_tpch_catalog().unwrap();
        let mut plans = 0;
        for def in [
            v2_def(),
            v3_def(),
            v3_core_def(),
            v3_keyless_def(),
            oj_view_def(),
        ] {
            let a = analyze(&c, &def).unwrap();
            for t in 0..a.layout.table_count() {
                for (use_fk, left_deep) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let cfg = PlanConfig { use_fk, left_deep };
                    let t = ojv_algebra::TableId(t as u8);
                    let p = compile_uncached(&a, &c, t, cfg).unwrap();
                    let spine = p.spine.as_ref().map(|s| s.prefix_expr(s.steps.len()));
                    assert_eq!(spine, p.plan, "{} {t:?} {cfg:?}", def.name());
                    plans += usize::from(p.plan.is_some());
                }
            }
        }
        assert!(plans > 0);
    }

    #[test]
    fn v3_core_has_single_term() {
        let mut c = create_tpch_catalog().unwrap();
        TpchGen::new(0.001, 1).populate(&mut c).unwrap();
        let a = analyze(&c, &v3_core_def()).unwrap();
        assert_eq!(a.terms.len(), 1);
        assert_eq!(a.terms[0].tables.len(), 4);
    }

    #[test]
    fn orders_updates_do_not_affect_v3() {
        // Paper: "Because of the foreign key constraint between lineitem and
        // orders, insertion or deletion of order rows does not affect the
        // view."
        let mut c = create_tpch_catalog().unwrap();
        TpchGen::new(0.001, 1).populate(&mut c).unwrap();
        let a = analyze(&c, &v3_def()).unwrap();
        let o = a.layout.table_id("orders").unwrap();
        let m = a.maintenance_graph(o, true);
        assert!(m.is_empty());
    }

    #[test]
    fn customer_updates_touch_only_the_c_term() {
        let mut c = create_tpch_catalog().unwrap();
        TpchGen::new(0.001, 1).populate(&mut c).unwrap();
        let a = analyze(&c, &v3_def()).unwrap();
        let cu = a.layout.table_id("customer").unwrap();
        let m = a.maintenance_graph(cu, true);
        assert_eq!(m.direct.len(), 1);
        assert!(m.indirect.is_empty());
        assert_eq!(a.terms[m.direct[0]].tables.len(), 1);
    }
}
