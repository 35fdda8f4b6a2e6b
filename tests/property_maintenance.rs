//! Property-based tests: randomized SPOJ views over randomized databases,
//! maintained through randomized update sequences, must always equal a full
//! recompute — under every maintenance policy, for a projected twin whose
//! secondary deltas all come from base tables (§5.3), and for the GK
//! baseline. Each random view carries a random rollup (§3.3), maintained in
//! the same batch, which must equal a fresh rollup after every op. Random
//! views maintained together in one batch, across two layout groups, must
//! equal each view maintained on its own, heap order included. A seeded
//! suite per join shape (three-table inner, left, right and full outer
//! chains, plus mixed two-kind chains) checks the same against recompute
//! after every insert and delete batch.

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

/// A random rollup of `def` (§3.3), seeded: one or two distinct group-by
/// columns, `COUNT(*)`, `COUNT(col)` and `SUM` of an int column, each over
/// a random column of the view's tables.
fn random_rollup(def: &ViewDef, seed: u64, n_tables: usize) -> AggViewDef {
    let mut rng = Rng::seed_from_u64(seed ^ 0xa99);
    let pick = |rng: &mut Rng| {
        let table = TABLES[rng.gen_range(0..n_tables)].to_string();
        let column = ["id", "jc", "payload"][rng.gen_range(0..3usize)].to_string();
        (table, column)
    };
    let first = pick(&mut rng);
    let mut rollup = AggViewDef::new("rollup", def.clone()).group_by(&first.0, &first.1);
    let second = pick(&mut rng);
    if second != first && rng.gen_bool(0.5) {
        rollup = rollup.group_by(&second.0, &second.1);
    }
    let (table, column) = pick(&mut rng);
    let counted = AggSpec::CountNonNull { table, column };
    let (table, column) = pick(&mut rng);
    rollup
        .agg("rows", AggSpec::CountRows)
        .agg("counted", counted)
        .agg("total", AggSpec::Sum { table, column })
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

/// One arm of [`maintenance_equals_recompute`]: a view on a catalog of its
/// own, maintained under `policy` (the GK baseline when `None`), and the
/// arm's rollup with its definition, maintained in the same batch.
struct Variant {
    label: String,
    catalog: Catalog,
    view: MaterializedView,
    rollup: Option<(AggViewDef, MaterializedAggView)>,
    policy: Option<MaintenancePolicy>,
}

impl Variant {
    fn new(
        label: &str,
        base: &Catalog,
        def: ViewDef,
        rollup: Option<AggViewDef>,
        policy: Option<MaintenancePolicy>,
    ) -> Self {
        let catalog = base.clone();
        let view = MaterializedView::create(&catalog, def).unwrap();
        let rollup = rollup.map(|r| {
            let created = MaterializedAggView::create(&catalog, r.clone()).unwrap();
            (r, created)
        });
        Variant {
            label: label.to_string(),
            catalog,
            view,
            rollup,
            policy,
        }
    }
}

property! {
    /// Incremental maintenance ≡ recompute for random views, random data,
    /// random update sequences, every policy, the projected twin, and the GK
    /// baseline; and every arm's random rollup, maintained in the same
    /// batch as its view, ≡ a fresh rollup.
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

        let rollup = random_rollup(&def, view_seed, n_tables);
        let mut variants: Vec<Variant> = Vec::new();
        for (i, p) in policies().into_iter().enumerate() {
            let label = format!("policy{i}");
            let rollup = Some(rollup.clone());
            variants.push(Variant::new(&label, &base, def.clone(), rollup, Some(p)));
        }
        {
            let twin = projected_twin(&def, n_tables);
            let rollup = AggViewDef { inner: twin.clone(), ..rollup.clone() };
            let paper = Some(MaintenancePolicy::paper());
            let v = Variant::new("projected", &base, twin, Some(rollup), paper);
            let analysis = &v.view.analysis;
            assert!(
                (0..analysis.terms.len()).all(|i| !analysis.from_view_available(i)),
                "the projected twin must take §5.3 for every term (view_seed={view_seed})"
            );
            variants.push(v);
        }
        variants.push(Variant::new("gk", &base, def.clone(), None, None));

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
            for Variant { label, catalog: c, view: v, rollup, policy } in variants.iter_mut() {
                let update = if is_insert {
                    c.insert(table, vec![row.clone().unwrap()]).unwrap()
                } else {
                    c.delete(table, &[key.clone().unwrap()]).unwrap()
                };
                let rollups = match rollup {
                    Some((_, r)) => slice::from_mut(r),
                    None => &mut [],
                };
                match policy {
                    Some(p) => {
                        maintain_batch(slice::from_mut(v), rollups, c, &update, p).unwrap();
                    }
                    None => {
                        maintain_gk(v, c, &update).unwrap();
                    }
                }
                assert!(
                    verify_against_recompute(v, c),
                    "{label} diverged on view_seed={view_seed} data_seed={data_seed} op={op:?}"
                );
                if let Some((def, r)) = rollup {
                    let fresh = MaterializedAggView::create(c, def.clone()).unwrap();
                    assert!(
                        r.output().bag_eq(&fresh.output()),
                        "{label}'s rollup diverged on view_seed={view_seed} \
                         data_seed={data_seed} op={op:?}:\n{}\nrecomputed:\n{}",
                        r.output(),
                        fresh.output()
                    );
                }
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

/// Resolve `op` against `c` into a concrete change, the same for every
/// catalog in step with `c`: `(table, true, row)` inserts `row`, `(table,
/// false, key)` deletes the row with primary key `key`. `None` when the
/// delete's table is empty.
fn resolve(
    op: &Op,
    c: &Catalog,
    n_tables: usize,
    next_id: &mut i64,
    rng: &mut Rng,
) -> Option<(&'static str, bool, Row)> {
    match op {
        Op::Insert { table, jc } => {
            *next_id += 1;
            let row = vec![Datum::Int(*next_id), Datum::Int(*jc), Datum::Int(7)];
            Some((TABLES[*table % n_tables], true, row))
        }
        Op::Delete { table } => {
            let t = TABLES[*table % n_tables];
            let tbl = c.table(t).unwrap();
            if tbl.is_empty() {
                return None;
            }
            let victim = tbl.row_ref(rng.gen_range(0..tbl.len())).datum(0);
            Some((t, false, vec![victim]))
        }
    }
}

fn apply(c: &mut Catalog, (table, insert, row): &(&str, bool, Row)) -> Update {
    if *insert {
        c.insert(table, vec![row.clone()]).unwrap()
    } else {
        c.delete(table, slice::from_ref(row)).unwrap()
    }
}

property! {
    /// Three random views maintained in one `maintain_batch` call per op —
    /// view A, A's projected twin (A's layout group: they may share plan
    /// prefixes) and view B over a strict subset of A's tables (a second
    /// layout group) — equal each view maintained in a one-view batch on a
    /// catalog of its own: the same wide rows in the same heap order, under
    /// every policy, and equal to recompute.
    #[cases = 32]
    fn multi_view_batch_equals_one_view_batches(
        view_seed in 0u64..500,
        data_seed in 0u64..500,
        n_tables in 3usize..=4,
        ops in vec_of(op_strategy(), 1..8),
    ) {
        let mut base = catalog(n_tables);
        populate(&mut base, n_tables, 6, data_seed);
        let a = random_view(view_seed, n_tables).with_name("a");
        let defs = [
            projected_twin(&a, n_tables).with_name("a_twin"),
            random_view(view_seed ^ 0x5eed, n_tables - 1).with_name("b"),
            a,
        ];
        for policy in policies() {
            let mut c = base.clone();
            let create = |c: &Catalog, d: &ViewDef| MaterializedView::create(c, d.clone()).unwrap();
            let mut batch: Vec<MaterializedView> = defs.iter().map(|d| create(&c, d)).collect();
            let mut alone: Vec<(Catalog, MaterializedView)> = defs
                .iter()
                .map(|d| (base.clone(), create(&base, d)))
                .collect();
            let mut next_id = 1000i64;
            let mut rng = Rng::seed_from_u64(view_seed ^ data_seed);
            for op in &ops {
                let Some(change) = resolve(op, &c, n_tables, &mut next_id, &mut rng) else {
                    continue;
                };
                let update = apply(&mut c, &change);
                maintain_batch(&mut batch, &mut [], &c, &update, &policy).unwrap();
                for (v, (ac, av)) in batch.iter().zip(alone.iter_mut()) {
                    let update = apply(ac, &change);
                    maintain_batch(slice::from_mut(av), &mut [], ac, &update, &policy).unwrap();
                    let ctx = format!(
                        "view {} under {policy:?}, view_seed={view_seed} \
                         data_seed={data_seed} op={op:?}",
                        v.name()
                    );
                    assert_eq!(v.wide_rows(), av.wide_rows(), "{ctx}: batch and alone differ");
                    assert!(verify_against_recompute(v, &c), "{ctx}: recompute differs");
                }
            }
        }
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
