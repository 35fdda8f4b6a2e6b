//! Workload builders and timed maintenance runners.

use std::slice;
use std::time::{Duration, Instant};

use ojv_core::agg_view::MaterializedAggView;
use ojv_core::analyze::analyze;
use ojv_core::baseline::maintain_gk;
use ojv_core::batch::maintain_batch;
use ojv_core::maintain::{verify_against_recompute, MaintenanceReport};
use ojv_core::materialize::MaterializedView;
use ojv_core::policy::MaintenancePolicy;
use ojv_core::view_def::ViewDef;
use ojv_rel::{Datum, Row};
use ojv_storage::{Catalog, Update};
use ojv_tpch::{create_tpch_catalog, TpchGen};

use crate::views::{v3_core_def, v3_def, v3_keyless_def, v3_rollup_def};

/// Experiment configuration: scale factor, seed, batch sizes, repetitions.
#[derive(Debug, Clone)]
pub struct Config {
    pub sf: f64,
    pub seed: u64,
    /// Lineitem batch sizes (the paper uses 60 / 600 / 6,000 / 60,000 at
    /// its scale; defaults scale the 1:10:100:1000 ladder down).
    pub batch_sizes: Vec<usize>,
    pub repetitions: usize,
    /// Verify maintained views against recompute after each timed run
    /// (slow; used by tests, off for benchmarks).
    pub verify: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sf: 0.05,
            seed: 42,
            batch_sizes: vec![10, 100, 1_000, 10_000],
            repetitions: 3,
            verify: false,
        }
    }
}

impl Config {
    /// The small smoke run: every maintained view is verified.
    pub fn quick() -> Self {
        Config {
            sf: 0.005,
            batch_sizes: vec![10, 100, 1_000],
            repetitions: 2,
            verify: true,
            ..Default::default()
        }
    }
}

/// The systems Figure 5 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The inner-join core view, maintained with our procedure.
    CoreView,
    /// The outer-join view V3, maintained with the paper's procedure.
    OuterJoin,
    /// The outer-join view maintained with Griffin–Kumar-style propagation.
    OuterJoinGk,
}

impl System {
    pub const ALL: [System; 3] = [System::CoreView, System::OuterJoin, System::OuterJoinGk];

    pub fn label(self) -> &'static str {
        match self {
            System::CoreView => "Core View",
            System::OuterJoin => "Outer Join View",
            System::OuterJoinGk => "Outer Join View (GK)",
        }
    }

    pub fn view_def(self) -> ViewDef {
        match self {
            System::CoreView => v3_core_def(),
            System::OuterJoin | System::OuterJoinGk => v3_def(),
        }
    }
}

/// A fully prepared experiment environment: populated catalog (shared
/// baseline, cloned per run) and the generator.
pub struct Env {
    pub gen: TpchGen,
    pub catalog: Catalog,
}

impl Env {
    pub fn new(cfg: &Config) -> Self {
        let gen = TpchGen::new(cfg.sf, cfg.seed);
        let mut catalog = create_tpch_catalog().expect("TPC-H schema builds");
        gen.populate(&mut catalog).expect("TPC-H data loads");
        Env { gen, catalog }
    }
}

/// One measured maintenance run.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub system: System,
    pub batch: usize,
    /// Wall-clock maintenance time (delta computation + application),
    /// excluding the base-table update itself.
    pub time: Duration,
    /// Row counts and per-operator executor counters (heap allocations
    /// when the counting allocator is installed).
    pub report: MaintenanceReport,
}

/// Run one Figure 5 measurement: fresh view, apply a lineitem insert (or
/// delete) batch, time the maintenance.
fn run_lineitems(
    env: &Env,
    cfg: &Config,
    system: System,
    batch: usize,
    rep: u64,
    deletes: bool,
) -> Measurement {
    let change = if deletes {
        Change::DeleteLineitems(batch, rep)
    } else {
        Change::InsertLineitems(batch, rep)
    };
    let paper = MaintenancePolicy::paper();
    let (time, report, _view) = maintain_fresh(
        env,
        cfg.verify,
        &system.view_def(),
        change,
        |view, c, u| match system {
            System::OuterJoinGk => maintain_gk(view, c, u).expect("GK maintenance"),
            _ => ours(&paper)(view, c, u),
        },
    );
    Measurement {
        system,
        batch,
        time,
        report,
    }
}

/// The median time of `cfg.repetitions` runs of `run` (called with the
/// repetition number), and the first run. The counts a caller reports come
/// from that fixed repetition, not from whichever one ran in the median
/// time: repetitions may maintain different batches, so the counts must
/// not depend on timing.
fn median<T>(
    cfg: &Config,
    time: impl Fn(&T) -> Duration,
    run: impl FnMut(u64) -> T,
) -> (Duration, T) {
    let mut runs: Vec<T> = (0..cfg.repetitions.max(1) as u64).map(run).collect();
    let mut times: Vec<Duration> = runs.iter().map(time).collect();
    times.sort_unstable();
    (times[times.len() / 2], runs.swap_remove(0))
}

/// Median wall time of `cfg.repetitions` calls of `f`.
fn median_time(cfg: &Config, f: &dyn Fn()) -> Duration {
    let run = |_| {
        let start = Instant::now();
        f();
        start.elapsed()
    };
    median(cfg, |t: &Duration| *t, run).0
}

/// Figure 5 series: median maintenance time per (system, batch size), with
/// the counts of the first repetition.
pub fn run_fig5(env: &Env, cfg: &Config, deletes: bool) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &batch in &cfg.batch_sizes {
        for system in System::ALL {
            let run = |rep| run_lineitems(env, cfg, system, batch, rep, deletes);
            let (time, first) = median(cfg, |m: &Measurement| m.time, run);
            out.push(Measurement { time, ..first });
        }
    }
    out
}

/// Table 1 data: per-term cardinalities of V3 plus rows affected by a
/// lineitem insert batch.
pub struct Table1 {
    /// `(term label, cardinality, rows affected)`.
    pub rows: Vec<(String, usize, usize)>,
    pub batch: usize,
}

pub fn run_table1(env: &Env, batch: usize) -> Table1 {
    let mut catalog = env.catalog.clone();
    let mut view = MaterializedView::create(&catalog, v3_def()).expect("view materializes");
    let before = view.term_cardinalities();
    let update = Change::InsertLineitems(batch, 0).apply(env, &mut catalog);
    ours(&MaintenancePolicy::paper())(&mut view, &catalog, &update);
    let after = view.term_cardinalities();

    let layout = &view.analysis.layout;
    let label = |tables: ojv_algebra::TableSet| -> String {
        let mut s = String::new();
        for t in tables.iter() {
            let name = &layout.slot(t).name;
            s.push(name.chars().next().unwrap_or('?').to_ascii_uppercase());
        }
        s
    };
    let rows = before
        .iter()
        .zip(&after)
        .map(|((tables, b), (_, a))| (label(*tables), *b, a.abs_diff(*b)))
        .collect();
    Table1 { rows, batch }
}

/// `n` new parts, keyed after the generated ones; no lineitem references
/// them.
fn new_parts(gen: &TpchGen, n: usize) -> Vec<Row> {
    (0..n as i64)
        .map(|i| {
            let key = gen.part_count() + 1 + i;
            vec![
                Datum::Int(key),
                Datum::str(format!("repro part {i}")),
                Datum::str("Manufacturer#1"),
                Datum::str("Brand#11"),
                Datum::str("STANDARD ANODIZED TIN"),
                Datum::Int(10),
                Datum::str("SM BOX"),
                Datum::Float(TpchGen::retail_price(key)),
                Datum::str("repro"),
            ]
        })
        .collect()
}

/// The Example 1 fast paths on V3, each on a fresh view: a part insert is
/// a plain view insert, an orders insert leaves the view untouched.
pub fn run_fast_paths(env: &Env) -> Vec<(&'static str, Duration, MaintenanceReport)> {
    let paper = MaintenancePolicy::paper();
    let v3 = v3_def();
    [
        (
            "insert 1 part into V3 (FK fast path: plain view insert)",
            Change::Parts(1),
        ),
        (
            "insert 1 order into V3 (FK proves: view unaffected)",
            Change::Orders(1),
        ),
    ]
    .into_iter()
    .map(|(what, change)| {
        let (time, report, _view) = maintain_fresh(env, false, &v3, change, ours(&paper));
        (what, time, report)
    })
    .collect()
}

/// One arm of a §7 ablation (DESIGN.md A1–A4): the median of
/// `cfg.repetitions` timed runs of the same change.
pub struct AblationArm {
    /// `"A1"` … `"A4"`.
    pub ablation: &'static str,
    pub arm: String,
    pub time: Duration,
    /// The first run's report; `None` for a materialization arm.
    pub report: Option<MaintenanceReport>,
}

/// A base-table change an experiment applies; the same value always
/// generates the same rows.
#[derive(Debug, Clone, Copy)]
enum Change {
    Parts(usize),
    Orders(usize),
    /// `(rows, batch number)`; the number picks the generator's batch.
    InsertLineitems(usize, u64),
    DeleteLineitems(usize, u64),
}

impl Change {
    fn apply(self, env: &Env, c: &mut Catalog) -> Update {
        let gen = &env.gen;
        match self {
            Change::Parts(n) => c.insert("part", new_parts(gen, n)),
            Change::Orders(n) => c.insert("orders", gen.order_insert_batch(n, 0).0),
            Change::InsertLineitems(n, b) => c.insert("lineitem", gen.lineitem_insert_batch(n, b)),
            Change::DeleteLineitems(n, b) => c.delete("lineitem", &gen.lineitem_delete_keys(n, b)),
        }
        .expect("change applies")
    }

    fn label(self) -> String {
        match self {
            Change::Parts(1) => "insert 1 part".into(),
            Change::Parts(n) => format!("insert {n} parts"),
            Change::Orders(n) => format!("insert {n} orders"),
            Change::InsertLineitems(n, _) => format!("insert {n} lineitems"),
            Change::DeleteLineitems(n, _) => format!("delete {n} lineitems"),
        }
    }
}

/// Our maintenance under `policy`: `maintain_batch`, the engine's one
/// maintenance entry, over a one-view slice. The batch reports only the
/// views an update affects, so a run that leaves its view untouched reports
/// `noop`.
fn ours(
    policy: &MaintenancePolicy,
) -> impl Fn(&mut MaterializedView, &Catalog, &Update) -> MaintenanceReport + '_ {
    move |view, catalog, update| {
        let reports = maintain_batch(slice::from_mut(view), &mut [], catalog, update, policy);
        let noop = MaintenanceReport {
            noop: true,
            ..Default::default()
        };
        reports.expect("maintenance").pop().unwrap_or(noop)
    }
}

/// Maintain a fresh `def` with `algorithm` over a catalog clone that
/// `change` changed; the time covers maintenance only. With `verify` the
/// view is checked against recompute.
fn maintain_fresh(
    env: &Env,
    verify: bool,
    def: &ViewDef,
    change: Change,
    algorithm: impl FnOnce(&mut MaterializedView, &Catalog, &Update) -> MaintenanceReport,
) -> (Duration, MaintenanceReport, MaterializedView) {
    let mut catalog = env.catalog.clone();
    let mut view = MaterializedView::create(&catalog, def.clone()).expect("view materializes");
    let update = change.apply(env, &mut catalog);
    let start = Instant::now();
    let report = algorithm(&mut view, &catalog, &update);
    let time = start.elapsed();
    if verify {
        assert!(verify_against_recompute(&view, &catalog), "{}", def.name());
    }
    (time, report, view)
}

/// One arm that maintains `def` under `policy` after `change`: the median
/// of `cfg.repetitions` runs.
fn view_arm(
    env: &Env,
    cfg: &Config,
    ablation: &'static str,
    label: &str,
    def: &ViewDef,
    policy: MaintenancePolicy,
    change: Change,
) -> AblationArm {
    let run = |_| {
        let (time, report, _view) = maintain_fresh(env, cfg.verify, def, change, ours(&policy));
        (time, report)
    };
    let (time, (_, report)) = median(cfg, |r| r.0, run);
    AblationArm {
        ablation,
        arm: format!("{label}, {}", change.label()),
        time,
        report: Some(report),
    }
}

/// A1: the left-deep conversion of §4.1. A part insert into V3 derives the
/// bushy `ΔP lo ((L ⋈ O) ro C)`, whose right operand joins base tables
/// only. FK is off, since `SimplifyTree` would prune the join altogether
/// (that is A2).
fn ablation_left_deep(env: &Env, cfg: &Config) -> Vec<AblationArm> {
    let mut arms = Vec::new();
    for change in [Change::Parts(1), Change::Parts(100)] {
        for (label, left_deep) in [("bushy", false), ("left-deep", true)] {
            let policy = MaintenancePolicy {
                use_fk: false,
                left_deep,
                ..Default::default()
            };
            arms.push(view_arm(env, cfg, "A1", label, &v3_def(), policy, change));
        }
    }
    arms
}

/// A2: foreign keys (§6). With them, a part insert is a plain view insert
/// and an orders insert a no-op (Theorem 3 empties the maintenance graph).
fn ablation_fk(env: &Env, cfg: &Config) -> Vec<AblationArm> {
    let mut arms = Vec::new();
    for change in [Change::Parts(100), Change::Orders(100)] {
        for (label, use_fk) in [("FK off", false), ("FK on", true)] {
            let policy = MaintenancePolicy {
                use_fk,
                ..Default::default()
            };
            arms.push(view_arm(env, cfg, "A2", label, &v3_def(), policy, change));
        }
    }
    arms
}

/// A3: the secondary delta from the view (§5.2) vs from base tables (§5.3).
/// There is no policy switch: the keyless projection of V3 fails column
/// availability for every term, so it takes §5.3 everywhere.
fn ablation_secondary(env: &Env, cfg: &Config) -> Vec<AblationArm> {
    let mut arms = Vec::new();
    for change in [
        Change::InsertLineitems(600, 0),
        Change::DeleteLineitems(600, 0),
    ] {
        for (label, def) in [
            ("from view (V3)", v3_def()),
            ("from base (V3 keyless)", v3_keyless_def()),
        ] {
            let policy = MaintenancePolicy::paper();
            arms.push(view_arm(env, cfg, "A3", label, &def, policy, change));
        }
    }
    arms
}

/// A4: the aggregated rollup of V3 vs plain V3 (§3.3): materialization,
/// then maintenance of a 600-row lineitem insert. With `cfg.verify` the
/// rollup is checked against a fresh one.
fn ablation_aggregate(env: &Env, cfg: &Config) -> Vec<AblationArm> {
    let materialize = |label: &str, create: &dyn Fn()| AblationArm {
        ablation: "A4",
        arm: format!("{label}, materialize"),
        time: median_time(cfg, create),
        report: None,
    };
    let change = Change::InsertLineitems(600, 0);
    let policy = MaintenancePolicy::paper();
    let create_rollup = |c: &Catalog| MaterializedAggView::create(c, v3_rollup_def()).unwrap();
    let run_rollup = |_| {
        let mut catalog = env.catalog.clone();
        let mut rollup = create_rollup(&catalog);
        let update = change.apply(env, &mut catalog);
        let start = Instant::now();
        let rollups = slice::from_mut(&mut rollup);
        let reports = maintain_batch(&mut [], rollups, &catalog, &update, &policy);
        let report = reports.expect("maintenance").remove(0);
        let time = start.elapsed();
        if cfg.verify {
            let fresh = create_rollup(&catalog).output();
            assert!(rollup.output().bag_eq(&fresh), "rollup != recompute");
        }
        (time, report)
    };
    let mut arms = vec![
        materialize("plain V3", &|| {
            drop(MaterializedView::create(&env.catalog, v3_def()).unwrap())
        }),
        materialize("aggregated", &|| drop(create_rollup(&env.catalog))),
        view_arm(env, cfg, "A4", "plain V3", &v3_def(), policy, change),
    ];
    let (time, (_, report)) = median(cfg, |r| r.0, run_rollup);
    arms.push(AblationArm {
        ablation: "A4",
        arm: format!("aggregated, {}", change.label()),
        time,
        report: Some(report),
    });
    arms
}

/// A1–A4 in order.
pub fn run_ablations(env: &Env, cfg: &Config) -> Vec<AblationArm> {
    let mut arms = ablation_left_deep(env, cfg);
    arms.extend(ablation_fk(env, cfg));
    arms.extend(ablation_secondary(env, cfg));
    arms.extend(ablation_aggregate(env, cfg));
    arms
}

/// The cost of the static analysis behind Table 1 (medians): analyzing V3,
/// classifying the maintenance graphs of its four tables, and the per-term
/// cardinality scan of the materialized view.
pub fn run_analysis_cost(env: &Env, cfg: &Config) -> [(&'static str, Duration); 3] {
    let analysis = analyze(&env.catalog, &v3_def()).expect("V3 analyzes");
    let view = MaterializedView::create(&env.catalog, v3_def()).expect("view materializes");
    let graphs = || {
        for t in ["lineitem", "orders", "customer", "part"] {
            let t = analysis.layout.table_id(t).expect("V3 table");
            std::hint::black_box(analysis.maintenance_graph(t, true));
        }
    };
    [
        (
            "analyze",
            median_time(cfg, &|| drop(analyze(&env.catalog, &v3_def()))),
        ),
        (
            "maintenance graphs of its 4 tables",
            median_time(cfg, &graphs),
        ),
        (
            "term-cardinality scan",
            median_time(cfg, &|| drop(view.term_cardinalities())),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            sf: 0.001,
            seed: 7,
            batch_sizes: vec![5, 50],
            repetitions: 1,
            verify: true,
        }
    }

    fn reports(arms: &[AblationArm]) -> Vec<&MaintenanceReport> {
        arms.iter().map(|a| a.report.as_ref().unwrap()).collect()
    }

    #[test]
    fn fig5_runs_and_verifies() {
        let cfg = tiny();
        let env = Env::new(&cfg);
        for deletes in [false, true] {
            let ms = run_fig5(&env, &cfg, deletes);
            assert_eq!(ms.len(), cfg.batch_sizes.len() * System::ALL.len());
            // The largest batch must touch the outer-join view (only ~9% of
            // orders fall in V3's date range, so tiny batches may miss).
            let largest = *cfg.batch_sizes.last().unwrap();
            assert!(ms.iter().any(|m| m.batch == largest
                && m.system == System::OuterJoin
                && m.report.primary_rows > 0));
        }
    }

    /// Each repetition maintains a different lineitem batch, so the counts
    /// must come from a fixed one: two runs agree whatever their timings.
    #[test]
    fn fig5_counts_do_not_depend_on_timing() {
        let cfg = Config {
            repetitions: 3,
            ..tiny()
        };
        let env = Env::new(&cfg);
        let counts = || {
            run_fig5(&env, &cfg, false)
                .into_iter()
                .map(|m| {
                    (
                        m.system,
                        m.batch,
                        m.report.primary_rows,
                        m.report.secondary_rows,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(), counts());
    }

    #[test]
    fn table1_reports_four_terms() {
        let cfg = tiny();
        let env = Env::new(&cfg);
        let t = run_table1(&env, 100);
        let mut terms: Vec<&str> = t.rows.iter().map(|(l, _, _)| l.as_str()).collect();
        terms.sort_unstable();
        assert_eq!(terms, ["C", "LOC", "LOCP", "P"], "Table 1's terms");
        let total: usize = t.rows.iter().map(|(_, c, _)| *c).sum();
        assert!(total > 0);
        // The big term (4 letters) must dominate cardinality.
        let colp = t.rows.iter().find(|(l, _, _)| l.len() == 4).unwrap();
        assert!(t.rows.iter().all(|(_, c, _)| *c <= colp.1));
    }

    #[test]
    fn fast_paths_behave_as_example_1() {
        let cfg = tiny();
        let env = Env::new(&cfg);
        let demos: Vec<_> = run_fast_paths(&env).into_iter().map(|d| d.2).collect();
        assert_eq!((demos[0].primary_rows, demos[0].secondary_rows), (1, 0));
        assert!(!demos[0].noop && demos[1].noop);

        // A2 at 100 rows; every arm verifies against recompute. Arms:
        // FK off/on × 100 parts, then FK off/on × 100 orders.
        let arms = ablation_fk(&env, &cfg);
        let r = reports(&arms);
        let joins = |r: &MaintenanceReport| r.exec.join_probe.calls + r.exec.index_join.calls;
        // FK on: a pure view insert — no indirect term, no join — and an
        // orders insert that touches nothing.
        assert_eq!((r[1].primary_rows, r[1].secondary_rows), (100, 0));
        assert_eq!((r[1].indirect_terms, joins(r[1])), (0, 0));
        assert!(r[3].noop);
        // FK off: the same 100 rows through the joins and an indirect term,
        // and the orders insert runs its (empty) primary delta.
        assert_eq!((r[0].primary_rows, r[0].secondary_rows), (100, 0));
        assert!(r[0].indirect_terms > 0 && joins(r[0]) > 0);
        assert!(!r[2].noop);
        assert_eq!(r[2].primary_rows, 0);
    }

    /// A1: the bushy and the left-deep plan are different plans that leave
    /// byte-identical views.
    #[test]
    fn left_deep_on_and_off_leave_identical_views() {
        let cfg = tiny();
        let (env, v3) = (Env::new(&cfg), v3_def());
        for n in [1, 100] {
            let parts = Change::Parts(n);
            let [bushy, left_deep] = [false, true].map(|left_deep| {
                let policy = MaintenancePolicy {
                    use_fk: false,
                    left_deep,
                    ..Default::default()
                };
                maintain_fresh(&env, true, &v3, parts, ours(&policy))
            });
            assert_ne!(bushy.1.plan_fingerprint, left_deep.1.plan_fingerprint);
            assert_eq!((bushy.1.primary_rows, left_deep.1.primary_rows), (n, n));
            assert_eq!(bushy.2.wide_rows(), left_deep.2.wide_rows());
        }
        assert_eq!(ablation_left_deep(&env, &cfg).len(), 4);
    }

    /// A3: V3 (§5.2) and its keyless projection (§5.3) both verify after
    /// the insert and after the delete, with the same delta-row counts.
    #[test]
    fn secondary_from_view_and_from_base_agree() {
        let cfg = tiny();
        let env = Env::new(&cfg);
        let arms = ablation_secondary(&env, &cfg);
        for pair in reports(&arms).chunks(2) {
            let [view, base] = [pair[0], pair[1]];
            assert_eq!(
                (view.view.as_str(), base.view.as_str()),
                ("v3", "v3_keyless")
            );
            assert_eq!(view.primary_rows, base.primary_rows);
            assert_eq!(view.secondary_rows, base.secondary_rows);
            assert!(view.primary_rows > 0);
        }
        assert_eq!(arms.len(), 4);
    }

    /// A4: the rollup verifies against a fresh one after the insert, from
    /// the same primary delta as plain V3.
    #[test]
    fn aggregated_rollup_verifies() {
        let cfg = tiny();
        let env = Env::new(&cfg);
        let arms = ablation_aggregate(&env, &cfg);
        assert!(arms[0].report.is_none() && arms[1].report.is_none());
        let [plain, agg] = [&arms[2], &arms[3]].map(|a| a.report.as_ref().unwrap());
        assert_eq!(agg.view, "rev_by_customer");
        assert_eq!(plain.primary_rows, agg.primary_rows);
        assert!(agg.primary_rows > 0);
    }
}
