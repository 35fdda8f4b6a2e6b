//! `cargo test --manifest-path ojvbench/Cargo.toml`: the benchmark checks
//! its own contract at `--smoke` sizes.

use std::sync::Arc;

use ojv_core::prelude::*;
use ojv_tpch::{create_tpch_catalog, TpchGen};

use crate::run::{commit, Engine, Recorder};
use crate::script::{Key, Op, Script, Workload};
use crate::vfs::{TracedVfs, VfsStats};
use crate::{output_dir, profile, run_workload, spec, RunConfig, RunResult};

fn smoke(workload: Workload, seed: u64, traced: bool) -> RunResult {
    run_workload(&RunConfig {
        workload,
        seed,
        seconds: 1,
        traced,
        smoke: true,
        scratch: output_dir().join("test"),
    })
}

fn value(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

fn valid_name(name: &str) -> bool {
    let charset = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(charset)
}

#[test]
fn committed_benchmark_json_is_the_spec() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `ojvbench --print-benchmark-json > BENCHMARK.json`"
    );
}

#[test]
fn spec_stays_inside_the_contract() {
    let names: Vec<&str> = (spec::WORKLOADS.iter().map(|w| w.0))
        .chain(spec::END_TO_END.iter().map(|m| m.name))
        .chain(spec::PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(valid_name(name), "{name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for (name, why) in spec::WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        assert!(Workload::from_name(name).is_some(), "{name}");
    }
    let units =
        (spec::END_TO_END.iter().map(|m| m.unit)).chain(spec::PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        assert!(
            !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
            "{unit}"
        );
    }
    for m in &spec::END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    assert!(spec::END_TO_END.iter().any(|m| m.name == "setup_s"));
    assert!(spec::benchmark_json().len() < 64 * 1024);
}

/// Every workload, untraced and traced, at smoke sizes: no failed op, and
/// exactly the metric names `BENCHMARK.json` lists.
#[test]
fn smoke_runs_report_exactly_the_listed_metrics() {
    for workload in Workload::ALL {
        let untraced = smoke(workload, 7, false);
        assert_eq!(untraced.failed, 0, "{:?}", untraced.failures);
        assert!(untraced.attempted >= 40);
        let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, listed);
        for m in &untraced.metrics {
            assert!(m.value > 0.0, "{} is 0 on {workload:?}", m.name);
        }

        let traced = smoke(workload, 7, true);
        assert_eq!(traced.failed, 0, "{:?}", traced.failures);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, listed);
        assert_eq!(traced.script_fnv, untraced.script_fnv);
        assert_eq!(value(&traced, "core.compile.steady_count"), 0.0);

        // Each workload reaches the layers it claims and no others.
        let on = |prefix: &str| {
            traced
                .metrics
                .iter()
                .filter(|m| m.name.starts_with(prefix))
                .any(|m| m.value != 0.0)
        };
        let durable = matches!(workload, Workload::DurableOltp | Workload::ShardedRefresh);
        assert_eq!(on("durability."), durable, "{workload:?}");
        assert_eq!(
            on("feed."),
            workload == Workload::FanoutRead,
            "{workload:?}"
        );
        assert_eq!(on("core.shard."), workload == Workload::ShardedRefresh);
        assert_eq!(
            value(&traced, "core.snapshot.high_water_ops") > 0.0,
            workload == Workload::FanoutRead
        );
        if workload == Workload::ShardedRefresh {
            assert_eq!(value(&traced, "storage.fk_refused_share"), 1.0);
        }
    }
}

/// Same seed: same script and same exact counts. Another seed: another
/// script.
#[test]
fn a_seed_names_its_script_and_its_counts() {
    const EXACT: [&str; 5] = [
        "storage.rows_applied",
        "core.maintain.primary_rows",
        "durability.append_bytes",
        "durability.wal_bytes_per_row",
        "feed.delivered_rows",
    ];
    for workload in [Workload::DurableOltp, Workload::FanoutRead] {
        let a = smoke(workload, 11, true);
        let b = smoke(workload, 11, true);
        assert_eq!(a.script_fnv, b.script_fnv);
        for name in EXACT {
            assert_eq!(value(&a, name), value(&b, name), "{name} on {workload:?}");
        }
        let c = smoke(workload, 12, true);
        assert_ne!(a.script_fnv, c.script_fnv);
    }
}

#[test]
fn scripts_are_pure_functions_of_the_seed() {
    for workload in Workload::ALL {
        let fnv = |seed| {
            let mut script = Script::new(workload, profile(workload, 1, true), seed);
            let ops = script.by_ref().count();
            assert!(ops >= 40);
            script.fnv()
        };
        assert_eq!(fnv(5), fnv(5));
        assert_ne!(fnv(5), fnv(6));
    }
}

/// An engine that repairs FK-violating rows instead of refusing them: the
/// broken twin the outcome counters must catch.
struct Lenient(Database);

impl Engine for Lenient {
    fn insert(&mut self, table: &str, mut rows: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        if table == "lineitem" {
            for row in &mut rows {
                if self.0.catalog().table("orders")?.get(&row[..1]).is_none() {
                    row[0] = Datum::Int(1);
                    row[1] = Datum::Int(1_000_000);
                }
            }
        }
        self.0.insert(table, rows)
    }

    fn delete(&mut self, table: &str, keys: &[Key]) -> Result<Vec<MaintenanceReport>> {
        self.0.delete(table, keys)
    }

    fn update(&mut self, t: &str, k: &[Key], r: Vec<Row>) -> Result<Vec<MaintenanceReport>> {
        self.0.update(t, k, r)
    }

    fn view_count(&self) -> usize {
        self.0.view_count()
    }

    fn view_rows(&self) -> usize {
        self.0.view_rows()
    }
}

#[test]
fn an_accepted_violating_batch_is_a_failed_op() {
    let gen = TpchGen::new(0.002, 1);
    let mut catalog = create_tpch_catalog().unwrap();
    gen.populate(&mut catalog).unwrap();
    let mut rows = gen.lineitem_insert_batch(20, 1);
    rows[7][0] = Datum::Int(gen.order_count() * 1000 + 7);
    let violating = || Op::Refused {
        table: "lineitem",
        rows: rows.clone(),
    };

    let mut honest = Database::new(catalog.clone());
    let mut rec = Recorder::new(false);
    assert!(commit(&mut honest, violating(), &mut rec).is_none());
    assert_eq!((rec.attempted, rec.failed), (1, 0));

    let mut lenient = Lenient(Database::new(catalog));
    let mut rec = Recorder::new(false);
    commit(&mut lenient, violating(), &mut rec);
    assert_eq!(rec.failed, 1, "{:?}", rec.failures);
}

#[test]
fn a_crash_keeps_only_synced_bytes() {
    let stats = Arc::new(VfsStats::default());
    let mut vfs = TracedVfs::new(MemVfs::new(), Arc::clone(&stats), true).unwrap();
    vfs.create("wal-0000000000000001.log").unwrap();
    vfs.append("wal-0000000000000001.log", b"synced").unwrap();
    vfs.sync("wal-0000000000000001.log").unwrap();
    vfs.append("wal-0000000000000001.log", b" lost").unwrap();
    vfs.create("tmp").unwrap();
    vfs.append("tmp", b"checkpoint").unwrap();
    vfs.rename("tmp", "snap").unwrap();
    let counts = stats.counts();
    assert_eq!((counts.appends, counts.syncs), (3, 1));
    assert_eq!((counts.append_bytes, counts.wal_bytes), (21, 11));

    let (disk, discarded) = vfs.crash().unwrap();
    assert_eq!(discarded, 5);
    assert_eq!(disk.read("wal-0000000000000001.log").unwrap(), b"synced");
    assert_eq!(disk.read("snap").unwrap(), b"checkpoint");
}
