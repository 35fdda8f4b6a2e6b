//! Shard-count scaling of batched maintenance through [`ShardedDatabase`].
//!
//! The question: what does hash-partitioning the engine buy (and cost) for
//! batch maintenance of an orderkey-aligned outer-join view, as the shard
//! count grows at a fixed scale factor?
//!
//! Every TPC-H table routes by a prefix of its primary key, with orders and
//! lineitem both routed by orderkey so the benchmark view
//! `orders ⟕ lineitem on l_orderkey = o_orderkey` is shard-aligned: every
//! join partner lives on the same shard and maintenance decomposes into
//! independent per-shard runs. Each measured point builds the sharded
//! database (routing every base row to its owner), then times whole
//! commits — constraint checks, routing, per-shard maintenance, and the
//! global publish — for lineitem insert and delete batches. Inserts are
//! undone by deleting the same keys, so every repetition and every shard
//! count maintains identical state.
//!
//! Per-shard maintenance runs one shard after another on the committing
//! thread, so shard scaling shows the overhead curve (routing + N small
//! runs vs one large run), not a parallel speedup. The runner still records
//! the core count it saw.

use std::time::{Duration, Instant};

use ojv_core::prelude::*;

use crate::harness::{Config, Env};

/// The benchmark view: orders left-outer-join lineitem, aligned with the
/// orderkey routing below.
pub fn ol_shard_def() -> ViewDef {
    ViewDef::new(
        "ol_shard",
        ViewExpr::left_outer(
            vec![col_eq("orders", "o_orderkey", "lineitem", "l_orderkey")],
            ViewExpr::table("orders"),
            ViewExpr::table("lineitem"),
        ),
    )
}

/// Key-aligned routing for all eight TPC-H tables: each table routes by a
/// prefix of its primary key, and lineitem routes by `l_orderkey` so it is
/// colocated with its order.
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

/// One shard-count measurement point.
#[derive(Debug, Clone)]
pub struct ShardPoint {
    pub shards: usize,
    /// Lineitem rows per measured batch.
    pub batch: usize,
    /// Building the sharded database: routing every base row to its owner
    /// shard and materializing the view per shard.
    pub build: Duration,
    /// Columnar heap footprint across all shards and tables after build.
    pub heap_bytes: usize,
    /// Lineitem rows on the smallest / largest shard (routing balance).
    pub min_shard_rows: usize,
    pub max_shard_rows: usize,
    /// Median whole-commit wall clock for the insert / delete batch.
    pub insert: Duration,
    pub delete: Duration,
    /// Primary delta rows of the insert commit (identical across shard
    /// counts: the work is the same, only its partitioning differs).
    pub primary_rows: usize,
    /// `insert` of the 1-shard point divided by this point's `insert`
    /// (1.0 until the 1-shard point exists).
    pub speedup: f64,
}

/// Build a sharded database over a clone of the environment's catalog with
/// the benchmark view materialized.
pub fn build_sharded(env: &Env, shards: usize) -> ShardedDatabase {
    let mut db = ShardedDatabase::new(&env.catalog, shards, tpch_routing())
        .expect("TPC-H routing is key-aligned");
    db.create_view(ol_shard_def())
        .expect("orderkey-aligned view materializes");
    db
}

fn heap_bytes(db: &ShardedDatabase) -> usize {
    db.shards()
        .map(|s| {
            s.catalog()
                .tables()
                .map(|t| t.heap().approx_bytes())
                .sum::<usize>()
        })
        .sum()
}

fn lineitem_balance(db: &ShardedDatabase) -> (usize, usize) {
    let sizes: Vec<usize> = db
        .shards()
        .map(|s| s.catalog().table("lineitem").map_or(0, |t| t.len()))
        .collect();
    (
        sizes.iter().copied().min().unwrap_or(0),
        sizes.iter().copied().max().unwrap_or(0),
    )
}

/// Run the sweep: one point per shard count, medians over
/// `cfg.repetitions` insert+delete commit pairs of `batch` lineitems.
pub fn run_shardbench(
    env: &Env,
    cfg: &Config,
    batch: usize,
    shard_counts: &[usize],
) -> Vec<ShardPoint> {
    let mut out: Vec<ShardPoint> = Vec::new();
    let mut serial = Duration::ZERO;
    for &n in shard_counts {
        let t0 = Instant::now();
        let mut db = build_sharded(env, n);
        let build = t0.elapsed();
        let heap = heap_bytes(&db);
        let (min_rows, max_rows) = lineitem_balance(&db);

        let mut inserts: Vec<(Duration, usize)> = Vec::new();
        let mut deletes: Vec<Duration> = Vec::new();
        for rep in 0..cfg.repetitions.max(1) {
            let rows = env.gen.lineitem_insert_batch(batch, rep as u64);
            // Lineitem's key is (l_orderkey, l_linenumber) — columns 0, 1.
            let keys: Vec<Vec<Datum>> = rows
                .iter()
                .map(|r| vec![r[0].clone(), r[1].clone()])
                .collect();
            let t = Instant::now();
            let reports = db.insert("lineitem", rows).expect("insert commit");
            let ins = t.elapsed();
            let primary: usize = reports.iter().map(|r| r.primary_rows).sum();
            if cfg.verify {
                for s in db.shards() {
                    let v = s.view("ol_shard").expect("view on every shard");
                    assert!(
                        ojv_core::maintain::verify_against_recompute(v, s.catalog()),
                        "{n}-shard maintenance diverged from recompute"
                    );
                }
            }
            let t = Instant::now();
            db.delete("lineitem", &keys).expect("delete commit");
            deletes.push(t.elapsed());
            inserts.push((ins, primary));
        }
        inserts.sort_by_key(|(t, _)| *t);
        deletes.sort();
        let (insert, primary_rows) = inserts[inserts.len() / 2];
        let delete = deletes[deletes.len() / 2];
        if serial.is_zero() {
            serial = insert;
        }
        out.push(ShardPoint {
            shards: n,
            batch,
            build,
            heap_bytes: heap,
            min_shard_rows: min_rows,
            max_shard_rows: max_rows,
            insert,
            delete,
            primary_rows,
            speedup: serial.as_secs_f64() / insert.as_secs_f64().max(f64::EPSILON),
        });
    }
    out
}

/// Plain-text panel.
pub fn render_shardbench(points: &[ShardPoint], cores: usize) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "Shard scaling: batch maintenance of ol_shard (orders lo lineitem), {} core(s) visible\n",
        cores
    ));
    s.push_str(
        "  shards  build       heap (MiB)  lineitem min/max     batch   insert      delete      speedup\n",
    );
    for p in points {
        s.push_str(&format!(
            "  {:>6}  {:>10.3?}  {:>10.1}  {:>8} /{:>8}  {:>6}  {:>10.3?}  {:>10.3?}  {:>6.2}x\n",
            p.shards,
            p.build,
            p.heap_bytes as f64 / (1024.0 * 1024.0),
            p.min_shard_rows,
            p.max_shard_rows,
            p.batch,
            p.insert,
            p.delete,
            p.speedup,
        ));
    }
    s.push_str(
        "  note: shards are maintained one after another on the committing thread;\n  \
         the sweep reports partitioning overhead, not parallel speedup\n",
    );
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
            verify: true,
        }
    }

    /// Smoke: the sweep runs at 1 and 2 shards, every point verifies against
    /// recompute, and both shard counts commit identical logical state.
    #[test]
    fn shard_sweep_matches_across_shard_counts() {
        let cfg = tiny();
        let env = Env::new(&cfg);
        let points = run_shardbench(&env, &cfg, 50, &[1, 2]);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].shards, 1);
        assert!(points[0].heap_bytes > 0);
        assert_eq!(
            points[0].primary_rows, points[1].primary_rows,
            "identical batch must produce identical deltas at every shard count"
        );

        // Differential replay: the same insert through 1 and 2 shards ends
        // byte-identical (commit LSNs advance in lockstep).
        let rows = env.gen.lineitem_insert_batch(40, 9);
        let mut one = build_sharded(&env, 1);
        let mut two = build_sharded(&env, 2);
        one.insert("lineitem", rows.clone()).unwrap();
        two.insert("lineitem", rows).unwrap();
        assert_eq!(
            one.state_bytes().unwrap(),
            two.state_bytes().unwrap(),
            "sharded state must be independent of the shard count"
        );

        let text = render_shardbench(&points, 1);
        assert!(text.contains("Shard scaling"));
        assert!(text.contains("one after another"));
    }

    /// The full matrix the PR reports: SF = 1, shard counts {1, 2, 4, 8},
    /// 10k-row batches. Minutes of wall clock and ~1.3 GiB of heap, so it is
    /// ignored by default; CI runs it explicitly with
    /// `cargo test --release -p ojv-bench -- --ignored`.
    #[test]
    #[ignore = "SF=1 x {1,2,4,8} shards: minutes of wall clock; run with --release -- --ignored"]
    fn full_matrix_sf1_through_eight_shards() {
        let cfg = Config {
            sf: 1.0,
            seed: 42,
            batch_sizes: vec![10_000],
            repetitions: 1,
            verify: false,
        };
        let env = Env::new(&cfg);
        let points = run_shardbench(&env, &cfg, 10_000, &[1, 2, 4, 8]);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert_eq!(
                p.primary_rows, points[0].primary_rows,
                "the same batch must produce the same delta at every shard count"
            );
            assert!(p.heap_bytes > 0);
            assert!(
                p.max_shard_rows > 0 && p.max_shard_rows < p.min_shard_rows * 2,
                "orderkey routing should stay roughly balanced at SF=1: {} / {}",
                p.min_shard_rows,
                p.max_shard_rows
            );
        }
    }
}
