//! Property-based tests: randomized SPOJ views over randomized databases,
//! maintained through randomized update sequences, must always equal a full
//! recompute — under every maintenance policy, for a projected twin whose
//! secondary deltas all come from base tables (§5.3), and for the GK
//! baseline. A seeded suite per join shape (three-table inner, left, right
//! and full outer chains, plus mixed two-kind chains) checks the same
//! against recompute after every insert and delete batch.

use std::slice;

use ojv_testkit::{property, strategy, vec_of, Rng, Strategy};

use ojv::core::baseline::{maintain_gk, maintain_recompute};
use ojv::core::batch::maintain_batch;
use ojv::core::maintain::verify_against_recompute;
use ojv::core::materialize::MaterializedView;
use ojv::prelude::*;
use ojv::rel::{Column, DataType};

const TABLES: [&str; 4] = ["ta", "tb", "tc", "td"];

/// Build a catalog of `n_tables` generic tables `(id PK, jc, payload)`.
fn catalog(n_tables: usize) -> Catalog {
    let mut c = Catalog::new();
    for name in TABLES.iter().take(n_tables) {
        c.create_table(
            name,
            vec![
                Column::new(name, "id", DataType::Int, false),
                Column::new(name, "jc", DataType::Int, false),
                Column::new(name, "payload", DataType::Int, true),
            ],
            &["id"],
        )
        .unwrap();
    }
    c
}

/// Build a random SPOJ tree over the first `n_tables` tables, seeded.
///
/// The tree is a random-shaped binary join over a random permutation of the
/// tables; each join's predicate connects one table from the left subtree
/// with one from the right on `jc = jc`, optionally adding a constant
/// conjunct; join kinds are uniformly random SPOJ kinds; a top-level
/// selection is added sometimes.
fn random_view(seed: u64, n_tables: usize) -> ViewDef {
    let mut rng = Rng::seed_from_u64(seed);
    let mut names: Vec<&str> = TABLES[..n_tables].to_vec();
    // Random permutation.
    for i in (1..names.len()).rev() {
        names.swap(i, rng.gen_range(0..=i));
    }
    // Each entry carries (expr, tables inside).
    let mut forest: Vec<(ViewExpr, Vec<&str>)> = names
        .iter()
        .map(|n| (ViewExpr::table(n), vec![*n]))
        .collect();
    while forest.len() > 1 {
        let right = forest.pop().expect("len > 1");
        let left = forest.pop().expect("len > 1");
        let lt = left.1[rng.gen_range(0..left.1.len())];
        let rt = right.1[rng.gen_range(0..right.1.len())];
        let mut on = vec![col_eq(lt, "jc", rt, "jc")];
        if rng.gen_bool(0.3) {
            on.push(col_cmp(rt, "jc", CmpOp::Le, rng.gen_range(0i64..4)));
        }
        let kind = match rng.gen_range(0..4) {
            0 => JoinKind::Inner,
            1 => JoinKind::LeftOuter,
            2 => JoinKind::RightOuter,
            _ => JoinKind::FullOuter,
        };
        let mut tables = left.1;
        tables.extend(right.1);
        forest.push((ViewExpr::join(kind, on, left.0, right.0), tables));
    }
    let (mut expr, tables) = forest.pop().expect("one tree left");
    if rng.gen_bool(0.25) {
        let t = tables[rng.gen_range(0..tables.len())];
        expr = ViewExpr::select(
            vec![col_cmp(t, "jc", CmpOp::Ge, rng.gen_range(0i64..2))],
            expr,
        );
    }
    ViewDef::new("rand_view", expr)
}

/// The projected twin of a random view: it outputs only each table's
/// nullable `payload` column, so no term passes §5.2 column availability
/// and every indirect term's secondary delta is computed from base tables.
fn projected_twin(def: &ViewDef, n_tables: usize) -> ViewDef {
    def.clone()
        .with_projection(TABLES[..n_tables].iter().map(|t| (*t, "payload")).collect())
}

/// Populate each table with `rows_per_table` rows (ids 1.., jc in 0..4).
fn populate(c: &mut Catalog, n_tables: usize, rows_per_table: usize, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed ^ 0xfeed);
    for name in TABLES.iter().take(n_tables) {
        let rows: Vec<Row> = (1..=rows_per_table as i64)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    Datum::Int(rng.gen_range(0..4)),
                    Datum::Int(rng.gen_range(0..100)),
                ]
            })
            .collect();
        c.insert(name, rows).unwrap();
    }
}

/// One randomized operation against a random table.
#[derive(Debug, Clone)]
enum Op {
    Insert { table: usize, jc: i64 },
    Delete { table: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    strategy(
        |rng: &mut Rng| {
            if rng.gen_bool(0.5) {
                Op::Insert {
                    table: rng.gen_range(0usize..4),
                    jc: rng.gen_range(0i64..4),
                }
            } else {
                Op::Delete {
                    table: rng.gen_range(0usize..4),
                }
            }
        },
        |op: &Op| match op {
            Op::Insert { table, jc } => {
                let mut out = Vec::new();
                if *table > 0 {
                    out.push(Op::Insert {
                        table: table - 1,
                        jc: *jc,
                    });
                }
                if *jc > 0 {
                    out.push(Op::Insert {
                        table: *table,
                        jc: jc - 1,
                    });
                }
                out
            }
            Op::Delete { table } if *table > 0 => vec![Op::Delete { table: table - 1 }],
            Op::Delete { .. } => Vec::new(),
        },
    )
}

fn policies() -> Vec<MaintenancePolicy> {
    vec![
        MaintenancePolicy::paper(),
        MaintenancePolicy::naive(),
        MaintenancePolicy {
            left_deep: false,
            ..Default::default()
        },
        MaintenancePolicy {
            use_fk: false,
            ..Default::default()
        },
    ]
}

property! {
    /// Incremental maintenance ≡ recompute for random views, random data,
    /// random update sequences, every policy, the projected twin, and the GK
    /// baseline.
    #[cases = 48]
    fn maintenance_equals_recompute(
        view_seed in 0u64..500,
        data_seed in 0u64..500,
        n_tables in 2usize..=4,
        ops in vec_of(op_strategy(), 1..8),
    ) {
        let mut base = catalog(n_tables);
        populate(&mut base, n_tables, 6, data_seed);
        let def = random_view(view_seed, n_tables);

        let mut variants: Vec<(String, Catalog, MaterializedView, Option<MaintenancePolicy>)> =
            Vec::new();
        for (i, p) in policies().into_iter().enumerate() {
            let c = base.clone();
            let v = MaterializedView::create(&c, def.clone()).unwrap();
            variants.push((format!("policy{i}"), c, v, Some(p)));
        }
        {
            let c = base.clone();
            let v = MaterializedView::create(&c, projected_twin(&def, n_tables)).unwrap();
            assert!(
                (0..v.analysis.terms.len()).all(|i| !v.analysis.from_view_available(i)),
                "the projected twin must take §5.3 for every term (view_seed={view_seed})"
            );
            variants.push(("projected".into(), c, v, Some(MaintenancePolicy::paper())));
        }
        {
            let c = base.clone();
            let v = MaterializedView::create(&c, def.clone()).unwrap();
            variants.push(("gk".into(), c, v, None));
        }

        let mut next_id = 1000i64;
        let mut rng = Rng::seed_from_u64(view_seed ^ data_seed);
        for op in &ops {
            // Resolve the op into a concrete update (same for all variants).
            let (table, is_insert, row, key) = match op {
                Op::Insert { table, jc } => {
                    let t = TABLES[*table % n_tables];
                    next_id += 1;
                    (
                        t,
                        true,
                        Some(vec![Datum::Int(next_id), Datum::Int(*jc), Datum::Int(7)]),
                        None,
                    )
                }
                Op::Delete { table } => {
                    let t = TABLES[*table % n_tables];
                    let tbl = base.table(t).unwrap();
                    if tbl.is_empty() {
                        continue;
                    }
                    let victim = tbl.row_ref(rng.gen_range(0..tbl.len())).datum(0);
                    (t, false, None, Some(vec![victim]))
                }
            };
            // Apply to the reference catalog first to keep `base` in sync.
            if is_insert {
                base.insert(table, vec![row.clone().unwrap()]).unwrap();
            } else {
                base.delete(table, &[key.clone().unwrap()]).unwrap();
            }
            for (label, c, v, policy) in variants.iter_mut() {
                let update = if is_insert {
                    c.insert(table, vec![row.clone().unwrap()]).unwrap()
                } else {
                    c.delete(table, &[key.clone().unwrap()]).unwrap()
                };
                match policy {
                    Some(p) => {
                        maintain_batch(slice::from_mut(v), &mut [], c, &update, p).unwrap();
                    }
                    None => {
                        maintain_gk(v, c, &update).unwrap();
                    }
                }
                assert!(
                    verify_against_recompute(v, c),
                    "{label} diverged on view_seed={view_seed} data_seed={data_seed} op={op:?}"
                );
            }
        }
    }

    /// The recompute "baseline" maintains correctly too (it is the oracle
    /// used elsewhere, so make sure it converges on random input).
    #[cases = 48]
    fn recompute_baseline_self_consistent(
        view_seed in 0u64..200,
        data_seed in 0u64..200,
    ) {
        let mut c = catalog(3);
        populate(&mut c, 3, 5, data_seed);
        let def = random_view(view_seed, 3);
        let mut v = MaterializedView::create(&c, def).unwrap();
        let up = c
            .insert("ta", vec![vec![Datum::Int(999), Datum::Int(1), Datum::Null]])
            .unwrap();
        maintain_recompute(&mut v, &c, &up).unwrap();
        assert!(verify_against_recompute(&v, &c));
    }

    /// Term cardinalities always partition the view, for any random view.
    #[cases = 48]
    fn terms_partition_random_views(
        view_seed in 0u64..300,
        data_seed in 0u64..300,
    ) {
        let mut c = catalog(4);
        populate(&mut c, 4, 6, data_seed);
        let def = random_view(view_seed, 4);
        let v = MaterializedView::create(&c, def).unwrap();
        let total: usize = v.term_cardinalities().iter().map(|(_, n)| n).sum();
        assert_eq!(total, v.len());
    }
}

// ---------------------------------------------------------------------------
// Seeded join-shape suite: 100 cases per shape over three tables.
// ---------------------------------------------------------------------------

const CHAIN_TABLES: [&str; 3] = ["ta", "tb", "tc"];
const CHAIN_CASES: u64 = 100;

/// Three tables `(id PK, jc, payload FLOAT)`.
fn chain_catalog() -> Catalog {
    let mut c = Catalog::new();
    for name in CHAIN_TABLES {
        c.create_table(
            name,
            vec![
                Column::new(name, "id", DataType::Int, false),
                Column::new(name, "jc", DataType::Int, false),
                Column::new(name, "payload", DataType::Float, true),
            ],
            &["id"],
        )
        .unwrap();
    }
    c
}

fn chain_row(rng: &mut Rng, id: i64) -> Row {
    vec![
        Datum::Int(id),
        Datum::Int(rng.gen_range(0..4)),
        Datum::Float(rng.gen_range(0..10_000) as f64 / 100.0),
    ]
}

fn chain_populate(c: &mut Catalog, rng: &mut Rng) {
    for name in CHAIN_TABLES {
        let n = rng.gen_range(4i64..10);
        let rows: Vec<Row> = (1..=n).map(|i| chain_row(rng, i)).collect();
        c.insert(name, rows).unwrap();
    }
}

/// `ta ∘k1 tb ∘k2 tc` on `jc = jc`.
fn chain_view(name: &str, k1: JoinKind, k2: JoinKind) -> ViewDef {
    ViewDef::new(
        name,
        ViewExpr::join(
            k2,
            vec![col_eq("tb", "jc", "tc", "jc")],
            ViewExpr::join(
                k1,
                vec![col_eq("ta", "jc", "tb", "jc")],
                ViewExpr::table("ta"),
                ViewExpr::table("tb"),
            ),
            ViewExpr::table("tc"),
        ),
    )
}

/// Per case: random data, then one insert batch and one delete batch
/// against a random table each, checked against recompute after each.
fn run_chain_shape(kind: JoinKind) {
    let def = chain_view("chain", kind, kind);
    let policy = MaintenancePolicy::default();
    for case in 0..CHAIN_CASES {
        let mut rng = Rng::seed_from_u64(case * 4 + kind as u64);
        let mut c = chain_catalog();
        chain_populate(&mut c, &mut rng);
        let mut view = MaterializedView::create(&c, def.clone()).unwrap();

        let mut next_id = 500i64;
        for op in 0..2 {
            let table = CHAIN_TABLES[rng.gen_range(0..CHAIN_TABLES.len())];
            let update = if op == 0 {
                let n = rng.gen_range(1usize..5);
                let rows = (0..n)
                    .map(|_| {
                        next_id += 1;
                        chain_row(&mut rng, next_id)
                    })
                    .collect();
                c.insert(table, rows).unwrap()
            } else {
                let n = rng.gen_range(1usize..3).min(c.table(table).unwrap().len());
                if n == 0 {
                    continue;
                }
                let mut keys: Vec<Vec<Datum>> = Vec::new();
                for _ in 0..n {
                    let tbl = c.table(table).unwrap();
                    let victim = tbl.row_ref(rng.gen_range(0..tbl.len())).datum(0);
                    if !keys.contains(&vec![victim.clone()]) {
                        keys.push(vec![victim]);
                    }
                }
                c.delete(table, &keys).unwrap()
            };
            maintain_batch(slice::from_mut(&mut view), &mut [], &c, &update, &policy).unwrap();
            assert!(
                verify_against_recompute(&view, &c),
                "{kind:?} case {case} (seed {}) op {op}: diverged from recompute",
                case * 4 + kind as u64
            );
        }
    }
}

#[test]
fn inner_chain_equals_recompute() {
    run_chain_shape(JoinKind::Inner);
}

#[test]
fn left_outer_chain_equals_recompute() {
    run_chain_shape(JoinKind::LeftOuter);
}

#[test]
fn right_outer_chain_equals_recompute() {
    run_chain_shape(JoinKind::RightOuter);
}

#[test]
fn full_outer_chain_equals_recompute() {
    run_chain_shape(JoinKind::FullOuter);
}

/// Mixed shapes: two random join kinds per case, one insert batch.
#[test]
fn mixed_shape_equals_recompute() {
    let kinds = [
        JoinKind::Inner,
        JoinKind::LeftOuter,
        JoinKind::RightOuter,
        JoinKind::FullOuter,
    ];
    let policy = MaintenancePolicy::default();
    for case in 0..CHAIN_CASES {
        let mut rng = Rng::seed_from_u64(0xD1FF ^ case);
        let mut c = chain_catalog();
        chain_populate(&mut c, &mut rng);
        let k1 = kinds[rng.gen_range(0..4usize)];
        let k2 = kinds[rng.gen_range(0..4usize)];
        let mut view = MaterializedView::create(&c, chain_view("mixed", k1, k2)).unwrap();
        let rows: Vec<Row> = (0..3).map(|i| chain_row(&mut rng, 900 + i)).collect();
        let table = CHAIN_TABLES[rng.gen_range(0..CHAIN_TABLES.len())];
        let up = c.insert(table, rows).unwrap();
        maintain_batch(slice::from_mut(&mut view), &mut [], &c, &up, &policy).unwrap();
        assert!(
            verify_against_recompute(&view, &c),
            "{k1:?}/{k2:?} case {case} (seed {}): diverged from recompute",
            0xD1FF ^ case
        );
    }
}
