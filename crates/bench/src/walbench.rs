//! WAL overhead benchmark: Figure-5-style lineitem insert batches run
//! through [`DurableDatabase`] over a real on-disk WAL, at each
//! [`FsyncPolicy`], against the in-memory [`Database`] baseline.
//!
//! The interesting number is the `fsync=never` series: it measures pure
//! framing + buffered-write overhead of write-ahead logging, and should sit
//! within a few percent of the in-memory path (the same numbers `repro
//! fig5a` emits to `BENCH_pr2.json`). `fsync=always` then shows what the
//! durability *guarantee* costs, and `EveryN(16)` the group-commit middle
//! ground: one fsync per 16 commits, so a crash may lose up to the last 15.

use std::path::Path;
use std::time::{Duration, Instant};

use ojv_core::database::Database;
use ojv_core::durable::DurableDatabase;
use ojv_core::policy::MaintenancePolicy;
use ojv_durability::{DiskVfs, FsyncPolicy, Vfs};

use crate::harness::{Config, Env};
use crate::views::v3_def;

/// One measured durable-insert point.
#[derive(Debug, Clone)]
pub struct WalMeasurement {
    /// Series label (`in-memory`, `fsync=never`, ...).
    pub series: &'static str,
    pub batch: usize,
    /// Wall-clock of the whole durable insert: catalog apply + WAL append
    /// (+ fsync per policy) + incremental maintenance.
    pub time: Duration,
    /// WAL bytes appended for this batch (0 for the in-memory baseline).
    pub wal_bytes: u64,
    pub primary_rows: usize,
}

/// The compared series: the in-memory engine, then the durable layer at
/// each fsync policy.
pub fn series() -> Vec<(&'static str, Option<FsyncPolicy>)> {
    vec![
        ("in-memory", None),
        ("fsync=never", Some(FsyncPolicy::Never)),
        ("fsync=every16", Some(FsyncPolicy::EveryN(16))),
        ("fsync=always", Some(FsyncPolicy::Always)),
    ]
}

fn wal_bytes_in(vfs: &DiskVfs) -> u64 {
    vfs.list()
        .unwrap_or_default()
        .into_iter()
        .filter(|n| n.starts_with("wal-") && n.ends_with(".log"))
        .map(|n| vfs.len(&n).unwrap_or(0))
        .sum()
}

fn one_run(
    env: &Env,
    batch: usize,
    rep: u64,
    series: &'static str,
    fsync: Option<FsyncPolicy>,
    scratch: &Path,
) -> WalMeasurement {
    let rows = env.gen.lineitem_insert_batch(batch, rep);
    match fsync {
        None => {
            let mut db = Database::new(env.catalog.clone());
            db.create_view(v3_def()).expect("V3 materializes");
            let start = Instant::now();
            let reports = db.insert("lineitem", rows).expect("batch applies");
            WalMeasurement {
                series,
                batch,
                time: start.elapsed(),
                wal_bytes: 0,
                primary_rows: reports.iter().map(|r| r.primary_rows).sum(),
            }
        }
        Some(policy) => {
            let dir = scratch.join(format!("{series}-{batch}-{rep}"));
            std::fs::create_dir_all(&dir).expect("scratch dir creates");
            let vfs = DiskVfs::open(&dir).expect("DiskVfs opens");
            let mp = MaintenancePolicy {
                fsync: policy,
                ..Default::default()
            };
            let mut d = DurableDatabase::create(vfs, env.catalog.clone(), mp)
                .expect("durable database creates");
            d.create_view(v3_def()).expect("V3 materializes");
            let before = wal_bytes_in(d.vfs());
            let start = Instant::now();
            let reports = d.insert("lineitem", rows).expect("batch applies");
            let time = start.elapsed();
            let wal_bytes = wal_bytes_in(d.vfs()) - before;
            drop(d);
            std::fs::remove_dir_all(&dir).ok();
            WalMeasurement {
                series,
                batch,
                time,
                wal_bytes,
                primary_rows: reports.iter().map(|r| r.primary_rows).sum(),
            }
        }
    }
}

/// Median durable-insert time per (series, batch size), Figure-5 style.
///
/// `scratch` is a directory for the on-disk WALs; every run gets a fresh
/// subdirectory (removed afterwards), so fsync costs are measured against
/// the real filesystem, not a warm page-cache replay of the same inode.
pub fn run_walbench(env: &Env, cfg: &Config, scratch: &Path) -> Vec<WalMeasurement> {
    let mut out = Vec::new();
    for &batch in &cfg.batch_sizes {
        for (label, fsync) in series() {
            let mut runs: Vec<WalMeasurement> = (0..cfg.repetitions.max(1))
                .map(|rep| one_run(env, batch, rep as u64, label, fsync, scratch))
                .collect();
            runs.sort_by_key(|m| m.time);
            let median = runs.remove(runs.len() / 2);
            out.push(median);
        }
    }
    out
}

/// Plain-text series table for the `repro` binary.
pub fn render_walbench(ms: &[WalMeasurement]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "WAL overhead — lineitem insert maintenance of V3 (median of reps):"
    );
    let _ = writeln!(
        s,
        "  {:<16} {:>8} {:>12} {:>12} {:>10}",
        "series", "batch", "time", "wal bytes", "Δrows"
    );
    for m in ms {
        let _ = writeln!(
            s,
            "  {:<16} {:>8} {:>12} {:>12} {:>10}",
            m.series,
            m.batch,
            format!("{:.3?}", m.time),
            m.wal_bytes,
            m.primary_rows
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walbench_runs_and_never_matches_in_memory_rows() {
        let cfg = Config {
            sf: 0.001,
            seed: 7,
            batch_sizes: vec![50],
            repetitions: 1,
            verify: false,
        };
        let env = Env::new(&cfg);
        let scratch =
            std::env::temp_dir().join(format!("ojv-walbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let ms = run_walbench(&env, &cfg, &scratch);
        std::fs::remove_dir_all(&scratch).ok();
        assert_eq!(ms.len(), series().len());
        // Every series maintains the same delta; the durable ones log bytes.
        assert!(ms.iter().all(|m| m.primary_rows == ms[0].primary_rows));
        assert!(ms
            .iter()
            .filter(|m| m.series != "in-memory")
            .all(|m| m.wal_bytes > 0));
        assert!(!render_walbench(&ms).is_empty());
    }
}
