//! Reader throughput against the versioned view store: N reader threads
//! pin snapshots and scan a V3-family view while (optionally) a writer
//! streams lineitem insert batches through maintenance.
//!
//! Two questions are measured:
//!
//! 1. **Snapshot tax** — a single reader with no maintenance running,
//!    scanning the view directly ([`Database::view`] → `wide_rows`) vs
//!    through a pinned snapshot. The snapshot path adds one registry lock
//!    and per-view `Arc` clones per pin; amortized over a whole-view scan
//!    it must stay within a few percent of the direct path.
//! 2. **Read scaling under maintenance** — aggregate reads/sec at 1, 8 and
//!    32 reader threads while the writer commits batches as fast as it can.
//!    Readers never block the writer and vice versa: each pin is a
//!    consistent version, so throughput should scale with threads instead
//!    of collapsing behind a store-wide lock.
//!
//! Every read is the same unit of work on both paths: scan the view's wide
//! rows and fold a checksum (sampled first-column values), kept honest with
//! [`std::hint::black_box`].

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ojv_core::prelude::*;
use ojv_rel::{Datum, Row};

use crate::harness::{Config, Env};
use crate::views::v3_family_def;

/// The benchmark view: one V3-family member (mid-range price cutoff).
const VIEW: &str = "v3_readers";

/// One measured point of the reader panel.
#[derive(Debug, Clone)]
pub struct ReadPoint {
    /// `"direct"` (borrow the live view) or `"snapshot"` (pin per read).
    pub path: &'static str,
    pub readers: usize,
    /// Whether a writer streamed maintenance batches during the reads.
    pub maintenance: bool,
    /// Total reads completed, summed over reader threads.
    pub reads: u64,
    /// Maintenance batches committed while the readers ran (0 when idle).
    pub batches: u64,
    /// Median wall clock for the whole read volume.
    pub time: Duration,
    /// Aggregate reads per second at the median repetition.
    pub qps: f64,
}

fn build_db(env: &Env) -> Database {
    let mut db = Database::new(env.catalog.clone());
    db.create_view(v3_family_def(VIEW, 1500.0))
        .expect("reader-bench view materializes");
    db
}

/// One read's unit of work: scan every wide row, folding a checksum over
/// the leading column.
fn checksum(rows: &[Row]) -> u64 {
    let mut acc = rows.len() as u64;
    for row in rows {
        if let Some(Datum::Int(v)) = row.first() {
            acc = acc.wrapping_mul(31).wrapping_add(*v as u64);
        }
    }
    acc
}

/// Single-reader, no-maintenance baselines: the same scan through the live
/// view reference and through a fresh pin per read.
fn run_baseline(env: &Env, cfg: &Config, reads: u64) -> Vec<ReadPoint> {
    let mut out = Vec::new();
    for path in ["direct", "snapshot"] {
        let mut reps: Vec<Duration> = Vec::new();
        for _ in 0..cfg.repetitions.max(1) {
            let db = build_db(env);
            // Warm both paths once so neither pays first-touch costs.
            black_box(checksum(db.view(VIEW).expect("view exists").wide_rows()));
            black_box(checksum(
                db.snapshot()
                    .expect("snapshot pins")
                    .view(VIEW)
                    .expect("view in snapshot")
                    .wide_rows(),
            ));
            let start = Instant::now();
            match path {
                "direct" => {
                    for _ in 0..reads {
                        let view = db.view(VIEW).expect("view exists");
                        black_box(checksum(view.wide_rows()));
                    }
                }
                _ => {
                    for _ in 0..reads {
                        let snap = db.snapshot().expect("snapshot pins");
                        let view = snap.view(VIEW).expect("view in snapshot");
                        black_box(checksum(view.wide_rows()));
                    }
                }
            }
            reps.push(start.elapsed());
        }
        reps.sort();
        let time = reps[reps.len() / 2];
        out.push(ReadPoint {
            path,
            readers: 1,
            maintenance: false,
            reads,
            batches: 0,
            time,
            qps: reads as f64 / time.as_secs_f64().max(f64::EPSILON),
        });
    }
    out
}

/// Concurrent panel: `readers` threads each complete `reads_per_thread`
/// snapshot reads while the writer streams insert batches until the last
/// reader finishes.
fn run_concurrent(env: &Env, cfg: &Config, readers: usize, reads_per_thread: u64) -> ReadPoint {
    let mut reps: Vec<(Duration, u64)> = Vec::new();
    for rep in 0..cfg.repetitions.max(1) as u64 {
        let mut db = build_db(env);
        // One warm-up batch so the writer's timed stream never compiles.
        let rows = env.gen.lineitem_insert_batch(100, 90_000 + rep);
        db.insert("lineitem", rows).expect("warm-up batch");

        let registry = db.snapshots().clone();
        let done = AtomicBool::new(false);
        let batches = AtomicU64::new(0);
        let start_gate = Barrier::new(readers + 1);
        let mut elapsed = Duration::ZERO;

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..readers {
                let registry = registry.clone();
                let start_gate = &start_gate;
                handles.push(scope.spawn(move || {
                    start_gate.wait();
                    for _ in 0..reads_per_thread {
                        let snap = registry.pin().expect("snapshot pins");
                        let view = snap.view(VIEW).expect("view in snapshot");
                        black_box(checksum(view.wide_rows()));
                    }
                }));
            }

            start_gate.wait();
            let start = Instant::now();
            let mut batch_seed = rep << 32;
            while !done.load(Ordering::Acquire) {
                batch_seed += 1;
                let rows = env.gen.lineitem_insert_batch(100, batch_seed);
                db.insert("lineitem", rows).expect("maintenance batch");
                // lint:allow(atomic-ordering) throughput counter, read after join
                batches.fetch_add(1, Ordering::Relaxed);
                if handles.iter().all(|h| h.is_finished()) {
                    done.store(true, Ordering::Release);
                }
            }
            for h in handles {
                h.join().expect("reader thread");
            }
            elapsed = start.elapsed();
        });

        // lint:allow(atomic-ordering) all writers joined above
        reps.push((elapsed, batches.load(Ordering::Relaxed)));
        // Readers pin and drop; nothing may leak once they are done.
        let stats = db.snapshots().stats();
        assert_eq!(stats.active_pins, 0, "reader pins must all release");
        assert_eq!(stats.retained_ops, 0, "history must reclaim after reads");
    }
    reps.sort_by_key(|&(t, _)| t);
    let (time, batch_count) = reps[reps.len() / 2];
    let reads = reads_per_thread * readers as u64;
    ReadPoint {
        path: "snapshot",
        readers,
        maintenance: true,
        reads,
        batches: batch_count,
        time,
        qps: reads as f64 / time.as_secs_f64().max(f64::EPSILON),
    }
}

/// Run the full reader panel: direct/snapshot baselines, then snapshot
/// reads at each thread count with maintenance streaming.
pub fn run_readbench(
    env: &Env,
    cfg: &Config,
    reads_per_thread: u64,
    thread_counts: &[usize],
) -> Vec<ReadPoint> {
    let mut out = run_baseline(env, cfg, reads_per_thread);
    for &n in thread_counts {
        out.push(run_concurrent(env, cfg, n, reads_per_thread));
    }
    out
}

/// Plain-text table, with the snapshot-vs-direct baseline ratio called out.
pub fn render_readbench(points: &[ReadPoint]) -> String {
    let mut s = String::new();
    s.push_str("Reader throughput vs the versioned view store (V3 family scan):\n");
    s.push_str("  path      readers  maint  reads    batches  elapsed       reads/s\n");
    for p in points {
        s.push_str(&format!(
            "  {:<8}  {:>7}  {:>5}  {:>7}  {:>7}  {:>10.3?}  {:>10.0}\n",
            p.path,
            p.readers,
            if p.maintenance { "yes" } else { "no" },
            p.reads,
            p.batches,
            p.time,
            p.qps,
        ));
    }
    let direct = points.iter().find(|p| p.path == "direct");
    let pinned = points
        .iter()
        .find(|p| p.path == "snapshot" && !p.maintenance);
    if let (Some(d), Some(p)) = (direct, pinned) {
        s.push_str(&format!(
            "  snapshot/direct single-reader ratio: {:.3} (pin overhead per scan)\n",
            d.qps / p.qps.max(f64::EPSILON)
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            sf: 0.002,
            seed: 7,
            batch_sizes: vec![50],
            repetitions: 1,
            verify: false,
        }
    }

    /// Smoke: both baselines and a 2-thread concurrent point run, reads
    /// all complete, maintenance genuinely commits batches underneath.
    #[test]
    fn reader_panel_smoke() {
        let cfg = tiny();
        let env = Env::new(&cfg);
        let points = run_readbench(&env, &cfg, 50, &[2]);
        assert_eq!(points.len(), 3);
        let direct = &points[0];
        let pinned = &points[1];
        assert_eq!((direct.path, direct.maintenance), ("direct", false));
        assert_eq!((pinned.path, pinned.maintenance), ("snapshot", false));
        assert!(direct.qps > 0.0 && pinned.qps > 0.0);
        let concurrent = &points[2];
        assert_eq!(concurrent.readers, 2);
        assert_eq!(concurrent.reads, 100);
        assert!(
            concurrent.batches > 0,
            "writer must commit at least one batch while readers run"
        );
        let text = render_readbench(&points);
        assert!(text.contains("snapshot/direct single-reader ratio"));
    }
}
