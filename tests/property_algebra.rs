//! Property-based tests for the algebraic core over *evaluated* semantics:
//! Theorem 1 (normal form ≡ direct evaluation), term disjointness, and
//! plan-transformation equivalences (derivation, left-deep conversion,
//! SimplifyTree) on random views and data.

use ojv_testkit::{property, Rng};

use ojv::algebra::{derive_primary_delta, normalize_unpruned, to_left_deep, Expr, TableSet};
use ojv::core::analyze::analyze;
use ojv::exec::{eval_expr_buf, ops, DeltaInput, ExecCtx, ExecEnv};
use ojv::prelude::*;
use ojv::rel::{Column, DataType, Relation, RowBuf};

const TABLES: [&str; 4] = ["ta", "tb", "tc", "td"];

fn catalog(n: usize) -> Catalog {
    let mut c = Catalog::new();
    for name in TABLES.iter().take(n) {
        c.create_table(
            name,
            vec![
                Column::new(name, "id", DataType::Int, false),
                Column::new(name, "jc", DataType::Int, false),
            ],
            &["id"],
        )
        .unwrap();
    }
    c
}

fn populate(c: &mut Catalog, n: usize, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    for name in TABLES.iter().take(n) {
        let rows: Vec<Row> = (1..=6i64)
            .map(|i| vec![Datum::Int(i), Datum::Int(rng.gen_range(0..3))])
            .collect();
        c.insert(name, rows).unwrap();
    }
}

fn random_view(seed: u64, n: usize) -> ViewDef {
    let mut rng = Rng::seed_from_u64(seed);
    let mut forest: Vec<(ViewExpr, Vec<&str>)> = TABLES[..n]
        .iter()
        .map(|t| (ViewExpr::table(t), vec![*t]))
        .collect();
    while forest.len() > 1 {
        let right = forest.pop().expect("len > 1");
        let left = forest.pop().expect("len > 1");
        let lt = left.1[rng.gen_range(0..left.1.len())];
        let rt = right.1[rng.gen_range(0..right.1.len())];
        let kind = match rng.gen_range(0..4) {
            0 => JoinKind::Inner,
            1 => JoinKind::LeftOuter,
            2 => JoinKind::RightOuter,
            _ => JoinKind::FullOuter,
        };
        let mut tables = left.1;
        tables.extend(right.1);
        forest.push((
            ViewExpr::join(kind, vec![col_eq(lt, "jc", rt, "jc")], left.0, right.0),
            tables,
        ));
    }
    ViewDef::new("v", forest.pop().expect("single tree").0)
}

/// Evaluate an expression to wide rows.
fn eval(ctx: &ExecCtx<'_>, expr: &Expr) -> Vec<Row> {
    eval_expr_buf(ctx, expr).unwrap().into_rows()
}

/// Evaluate a term (σ over a cross join) naively.
fn eval_term(
    ctx: &ExecCtx<'_>,
    layout: &ojv::exec::ViewLayout,
    term: &ojv::algebra::Term,
) -> Vec<Row> {
    let mut rows: Vec<Row> = vec![vec![Datum::Null; layout.width()]];
    for t in term.tables.iter() {
        let table_rows = eval(ctx, &Expr::Table(t));
        let mut next = Vec::new();
        for r in &rows {
            for tr in &table_rows {
                next.push(ops::merge_rows(layout, r, tr, TableSet::singleton(t)));
            }
        }
        rows = next;
    }
    let rows = RowBuf::from_rows(layout.width(), &rows);
    ops::filter_buf(&ExecEnv::new(layout), &term.pred, rows).into_rows()
}

property! {
    /// Theorem 1: `E = E_1 ⊕ … ⊕ E_n` — evaluating the normal form's terms
    /// and gluing with subsumption cleanup equals direct evaluation.
    #[cases = 40]
    fn normal_form_evaluates_to_the_view(
        view_seed in 0u64..400,
        data_seed in 0u64..400,
        n in 2usize..=4,
    ) {
        let mut c = catalog(n);
        populate(&mut c, n, data_seed);
        let def = random_view(view_seed, n);
        let a = analyze(&c, &def).unwrap();
        let ctx = ExecCtx::new(&c, &a.layout);

        let direct = eval(&ctx, &a.expr);

        let terms = normalize_unpruned(&a.expr);
        let mut all: Vec<Row> = Vec::new();
        for term in &terms {
            all.extend(eval_term(&ctx, &a.layout, term));
        }
        let all = RowBuf::from_rows(a.layout.width(), &all);
        let glued = ops::clean_dup_buf(&ExecEnv::new(&a.layout), all).into_rows();

        let s = a.layout.wide_schema().clone();
        let ra = Relation::new(s.clone(), direct);
        let rb = Relation::new(s, glued);
        assert!(ra.bag_eq(&rb), "JDNF evaluation diverged from direct evaluation");
    }

    /// Net contributions are disjoint: every view row matches exactly one
    /// term's source-set pattern.
    #[cases = 40]
    fn each_view_row_matches_exactly_one_term(
        view_seed in 0u64..300,
        data_seed in 0u64..300,
    ) {
        let mut c = catalog(3);
        populate(&mut c, 3, data_seed);
        let def = random_view(view_seed, 3);
        let a = analyze(&c, &def).unwrap();
        let ctx = ExecCtx::new(&c, &a.layout);
        let rows = eval(&ctx, &a.expr);
        for row in &rows {
            let matching = a
                .terms
                .iter()
                .filter(|t| a.layout.row_matches_term(t.tables, row))
                .count();
            assert_eq!(matching, 1);
        }
    }

    /// The ΔV^D plan transformations preserve results: bushy derivation vs
    /// left-deep conversion give identical delta rows for a fresh insert.
    #[cases = 40]
    fn left_deep_conversion_preserves_delta(
        view_seed in 0u64..400,
        data_seed in 0u64..400,
        t_idx in 0usize..3,
    ) {
        let mut c = catalog(3);
        populate(&mut c, 3, data_seed);
        let def = random_view(view_seed, 3);
        let a = analyze(&c, &def).unwrap();
        let table = TABLES[t_idx];
        let tid = a.layout.table_id(table).unwrap();

        let delta_rel = Relation::new(
            c.table(table).unwrap().schema().clone(),
            vec![
                vec![Datum::Int(100), Datum::Int(1)],
                vec![Datum::Int(101), Datum::Int(2)],
            ],
        );
        // The delta expression references other tables' current state plus
        // ΔT; insert the rows so FK-free state is consistent either way.
        c.insert(table, delta_rel.rows().to_vec()).unwrap();

        let ctx = ExecCtx::with_delta(
            &c,
            &a.layout,
            DeltaInput { table: tid, rows: &delta_rel },
        );
        let bushy = derive_primary_delta(&a.expr, tid);
        let left_deep = to_left_deep(bushy.clone());
        let r1 = eval(&ctx, &bushy);
        let r2 = eval(&ctx, &left_deep);
        let s = a.layout.wide_schema().clone();
        assert!(
            Relation::new(s.clone(), r1).bag_eq(&Relation::new(s, r2)),
            "left-deep plan diverged from bushy plan\nbushy: {bushy:?}"
        );
    }

    /// The primary delta contains exactly the directly-affected terms' rows:
    /// every ΔV^D row's source set includes the updated table.
    #[cases = 40]
    fn primary_delta_rows_contain_updated_table(
        view_seed in 0u64..200,
        data_seed in 0u64..200,
    ) {
        let mut c = catalog(3);
        populate(&mut c, 3, data_seed);
        let def = random_view(view_seed, 3);
        let a = analyze(&c, &def).unwrap();
        let tid = a.layout.table_id("tb").unwrap();
        let delta_rel = Relation::new(
            c.table("tb").unwrap().schema().clone(),
            vec![vec![Datum::Int(55), Datum::Int(0)]],
        );
        c.insert("tb", delta_rel.rows().to_vec()).unwrap();
        let ctx = ExecCtx::with_delta(&c, &a.layout, DeltaInput { table: tid, rows: &delta_rel });
        let plan = to_left_deep(derive_primary_delta(&a.expr, tid));
        for row in eval(&ctx, &plan) {
            assert!(!a.layout.is_null_on(tid, &row));
            // And the row really is the delta row, not an existing one.
            assert_eq!(row[a.layout.slot(tid).offset].clone(), Datum::Int(55));
        }
    }
}
