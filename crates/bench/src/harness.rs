//! Workload builders and timed maintenance runners.

use std::time::{Duration, Instant};

use ojv_core::baseline::maintain_gk;
use ojv_core::maintain::{maintain, verify_against_recompute};
use ojv_core::materialize::MaterializedView;
use ojv_core::policy::MaintenancePolicy;
use ojv_core::view_def::ViewDef;
use ojv_rel::Datum;
use ojv_storage::{Catalog, Update};
use ojv_tpch::{create_tpch_catalog, TpchGen};

use crate::views::{v3_core_def, v3_def};

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
    pub fn quick() -> Self {
        Config {
            sf: 0.005,
            batch_sizes: vec![10, 100, 1_000],
            repetitions: 2,
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

    /// Create and materialize a system's view over a clone of the base
    /// catalog.
    pub fn fresh_view(&self, system: System) -> (Catalog, MaterializedView) {
        let catalog = self.catalog.clone();
        let view =
            MaterializedView::create(&catalog, system.view_def()).expect("view materializes");
        (catalog, view)
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
    pub primary_rows: usize,
    pub secondary_rows: usize,
    /// Per-operator executor counters for the measured run (rows, calls,
    /// wall-clock, heap allocations when the counting allocator is
    /// installed).
    pub exec: ojv_exec::ExecStatsSnapshot,
}

/// Maintain `view` for one update with the given system's algorithm and the
/// paper policy, returning the maintenance report.
pub fn maintain_with(
    system: System,
    view: &mut MaterializedView,
    catalog: &Catalog,
    update: &Update,
) -> ojv_core::maintain::MaintenanceReport {
    let policy = MaintenancePolicy::paper();
    match system {
        System::CoreView | System::OuterJoin => {
            maintain(view, catalog, update, &policy).expect("maintenance")
        }
        System::OuterJoinGk => maintain_gk(view, catalog, update).expect("GK maintenance"),
    }
}

/// Run one insertion measurement: fresh view, apply a lineitem batch, time
/// the maintenance.
pub fn run_insert(env: &Env, cfg: &Config, system: System, batch: usize, rep: u64) -> Measurement {
    let (mut catalog, mut view) = env.fresh_view(system);
    let rows = env.gen.lineitem_insert_batch(batch, rep);
    let update = catalog.insert("lineitem", rows).expect("batch applies");
    let start = Instant::now();
    let report = maintain_with(system, &mut view, &catalog, &update);
    let time = start.elapsed();
    if cfg.verify && system != System::CoreView {
        assert!(verify_against_recompute(&view, &catalog));
    }
    Measurement {
        system,
        batch,
        time,
        primary_rows: report.primary_rows,
        secondary_rows: report.secondary_rows,
        exec: report.exec,
    }
}

/// Run one deletion measurement.
pub fn run_delete(env: &Env, cfg: &Config, system: System, batch: usize, rep: u64) -> Measurement {
    let (mut catalog, mut view) = env.fresh_view(system);
    let keys = env.gen.lineitem_delete_keys(batch, rep);
    let update = catalog.delete("lineitem", &keys).expect("batch applies");
    let start = Instant::now();
    let report = maintain_with(system, &mut view, &catalog, &update);
    let time = start.elapsed();
    if cfg.verify && system != System::CoreView {
        assert!(verify_against_recompute(&view, &catalog));
    }
    Measurement {
        system,
        batch,
        time,
        primary_rows: report.primary_rows,
        secondary_rows: report.secondary_rows,
        exec: report.exec,
    }
}

/// Figure 5 series: median maintenance time per (system, batch size).
pub fn run_fig5(env: &Env, cfg: &Config, deletes: bool) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &batch in &cfg.batch_sizes {
        for system in System::ALL {
            let mut times: Vec<Measurement> = (0..cfg.repetitions)
                .map(|rep| {
                    if deletes {
                        run_delete(env, cfg, system, batch, rep as u64)
                    } else {
                        run_insert(env, cfg, system, batch, rep as u64)
                    }
                })
                .collect();
            times.sort_by_key(|m| m.time);
            out.push(times[times.len() / 2].clone());
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
    let (mut catalog, mut view) = env.fresh_view(System::OuterJoin);
    let before = view.term_cardinalities();
    let rows = env.gen.lineitem_insert_batch(batch, 0);
    let update = catalog.insert("lineitem", rows).expect("batch applies");
    maintain(&mut view, &catalog, &update, &MaintenancePolicy::paper()).expect("maintenance");
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

/// The Example 1 fast-path demonstration: part/orders/customer updates on
/// V3 and the `oj_view`.
pub struct FastPathDemo {
    pub description: String,
    pub primary_rows: usize,
    pub secondary_rows: usize,
    pub noop: bool,
    pub time: Duration,
}

pub fn run_fast_paths(env: &Env) -> Vec<FastPathDemo> {
    let mut out = Vec::new();
    // Insert a part into V3: only the P term gains the row.
    let (mut catalog, mut view) = env.fresh_view(System::OuterJoin);
    let new_part_key = env.gen.part_count() + 1;
    let part_row = vec![
        Datum::Int(new_part_key),
        Datum::str("repro part"),
        Datum::str("Manufacturer#1"),
        Datum::str("Brand#11"),
        Datum::str("STANDARD ANODIZED TIN"),
        Datum::Int(10),
        Datum::str("SM BOX"),
        Datum::Float(TpchGen::retail_price(new_part_key)),
        Datum::str("repro"),
    ];
    let update = catalog.insert("part", vec![part_row]).expect("part insert");
    let start = Instant::now();
    let report = maintain(&mut view, &catalog, &update, &MaintenancePolicy::paper()).unwrap();
    out.push(FastPathDemo {
        description: "insert 1 part into V3 (FK fast path: plain view insert)".into(),
        primary_rows: report.primary_rows,
        secondary_rows: report.secondary_rows,
        noop: report.noop,
        time: start.elapsed(),
    });

    // Insert an order into V3: no effect at all.
    let (orders, _) = env.gen.order_insert_batch(1, 7);
    let update = catalog.insert("orders", orders).expect("order insert");
    let start = Instant::now();
    let report = maintain(&mut view, &catalog, &update, &MaintenancePolicy::paper()).unwrap();
    out.push(FastPathDemo {
        description: "insert 1 order into V3 (FK proves: view unaffected)".into(),
        primary_rows: report.primary_rows,
        secondary_rows: report.secondary_rows,
        noop: report.noop,
        time: start.elapsed(),
    });
    out
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

    #[test]
    fn fig5_insert_runs_and_verifies() {
        let cfg = tiny();
        let env = Env::new(&cfg);
        let ms = run_fig5(&env, &cfg, false);
        assert_eq!(ms.len(), cfg.batch_sizes.len() * System::ALL.len());
        // The largest batch must touch the outer-join view (only ~9% of
        // orders fall in V3's date range, so tiny batches may miss).
        let largest = *cfg.batch_sizes.last().unwrap();
        assert!(ms
            .iter()
            .any(|m| m.batch == largest && m.system == System::OuterJoin && m.primary_rows > 0));
    }

    #[test]
    fn fig5_delete_runs_and_verifies() {
        let cfg = tiny();
        let env = Env::new(&cfg);
        let ms = run_fig5(&env, &cfg, true);
        assert_eq!(ms.len(), cfg.batch_sizes.len() * System::ALL.len());
    }

    #[test]
    fn table1_reports_four_terms() {
        let cfg = tiny();
        let env = Env::new(&cfg);
        let t = run_table1(&env, 100);
        assert_eq!(t.rows.len(), 4);
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
        let demos = run_fast_paths(&env);
        assert_eq!(demos[0].primary_rows, 1);
        assert_eq!(demos[0].secondary_rows, 0);
        assert!(!demos[0].noop);
        assert!(demos[1].noop);
    }
}
