//! Change-feed fan-out at scale: one view, 100k filtered subscribers.
//!
//! The question: what does delivering a maintenance batch to a large
//! subscriber population cost through the hub's deduplicated fan-out,
//! versus the naive architecture where every subscriber re-scans the view
//! after every batch?
//!
//! Setup registers `subscribers` subscriptions drawn round-robin from
//! `distinct` distinct `(filter, projection)` specs — price-threshold
//! filters over a V3-family view, half with a column projection — so the
//! fingerprint trie collapses the population to `distinct` shared
//! evaluations (measured and reported). Each measured batch then:
//!
//! 1. commits a lineitem insert batch (maintenance + hub fan-out, timed
//!    separately via the hub's per-commit counter),
//! 2. drains every subscriber, counting delivered net rows (subscribers of
//!    one evaluation group drain clones of the same `Arc`),
//! 3. times the naive baseline on a subscriber *sample* — a full filtered
//!    re-scan of the view per subscriber — and extrapolates linearly to
//!    the whole population (the sample size and the extrapolation are both
//!    recorded; the naive cost is per-subscriber by construction, so
//!    linear scaling is exact up to cache effects that favor the baseline).

use std::hint::black_box;
use std::time::{Duration, Instant};

use ojv_core::prelude::*;
use ojv_feed::{Drained, FeedFilter, FeedHub, Resumed, Subscription, SubscriptionSpec};
use ojv_rel::Datum;

use crate::harness::{Config, Env};
use crate::views::v3_family_def;

/// The benchmark view: one V3-family member (mid-range price cutoff).
const VIEW: &str = "v3_feed";

/// Population-level facts, fixed across the measured batches.
#[derive(Debug, Clone)]
pub struct FeedSetup {
    pub subscribers: usize,
    /// Distinct `(filter, projection)` specs in the population.
    pub distinct_specs: usize,
    /// Shared evaluations the hub actually runs per commit (must equal
    /// `distinct_specs`: the dedup claim, measured).
    pub shared_evals: usize,
    /// Filter groups (specs differing only in projection share one).
    pub filter_groups: usize,
    /// Rows in the view when the subscribers registered.
    pub view_rows: usize,
    /// Wall clock to register the whole population.
    pub setup: Duration,
}

/// One measured batch.
#[derive(Debug, Clone)]
pub struct FeedPoint {
    /// Lineitem rows in the insert batch.
    pub batch: usize,
    /// Whole-commit wall clock (maintenance + fan-out).
    pub commit: Duration,
    /// Hub fan-out share of the commit (evaluate + publish, per-commit
    /// counter).
    pub fanout: Duration,
    /// Draining every subscriber once.
    pub drain: Duration,
    /// Net rows delivered across all drained sets.
    pub delivered: u64,
    /// Subscribers the naive baseline actually re-scanned.
    pub naive_sample: usize,
    /// Wall clock for those sample re-scans.
    pub naive_sample_time: Duration,
    /// Sample time scaled to the full population.
    pub naive_est: Duration,
    /// `naive_est / (fanout + drain)` — the headline ratio.
    pub speedup: f64,
}

fn build_db(env: &Env) -> Database {
    let mut db = Database::new(env.catalog.clone());
    db.create_view(v3_family_def(VIEW, 1500.0))
        .expect("feed-bench view materializes");
    db
}

/// `distinct` specs: price thresholds spread across the observed
/// `l_extendedprice` range, each threshold once with the full projection
/// and once projecting only the price column.
fn build_specs(db: &Database, distinct: usize) -> Vec<SubscriptionSpec> {
    let snap = db.snapshot().expect("snapshot pins");
    let view = snap.view(VIEW).expect("view in snapshot");
    let price = view
        .schema()
        .index_of("lineitem", "l_extendedprice")
        .expect("price column in view output");
    let wide = view.projection()[price];
    let (mut lo, mut hi) = (f64::MAX, f64::MIN);
    for row in view.wide_rows() {
        if let Some(Datum::Float(v)) = row.get(wide) {
            lo = lo.min(*v);
            hi = hi.max(*v);
        }
    }
    if lo >= hi {
        (lo, hi) = (0.0, 1.0);
    }
    let filters = (distinct / 2).max(1);
    let mut specs = Vec::with_capacity(filters * 2);
    for i in 0..filters {
        let t = lo + (hi - lo) * (i as f64 + 1.0) / (filters as f64 + 1.0);
        let f = FeedFilter::cmp(price, CmpOp::Gt, Datum::Float(t));
        specs.push(SubscriptionSpec::on(VIEW).with_filter(f.clone()));
        specs.push(
            SubscriptionSpec::on(VIEW)
                .with_filter(f)
                .with_projection(vec![price]),
        );
    }
    specs
}

/// Register `subscribers` subscriptions at the current tip. `resume` at the
/// tip skips the initial image scan `subscribe` would run per subscriber —
/// the population registers in O(subscribers), not
/// O(subscribers × view rows).
fn register(
    hub: &FeedHub,
    specs: &[SubscriptionSpec],
    subscribers: usize,
    tip: u64,
) -> Vec<Subscription> {
    let mut subs = Vec::with_capacity(subscribers);
    for i in 0..subscribers {
        let (sub, resumed) = hub
            .resume(&specs[i % specs.len()], tip)
            .expect("resume at the tip");
        assert!(
            matches!(resumed, Resumed::Stream),
            "resume at the tip must stream, not rebase"
        );
        subs.push(sub);
    }
    subs
}

/// The naive architecture, measured on a subscriber sample: every
/// subscriber re-scans the whole view and re-evaluates its own filter.
fn naive_rescan(db: &Database, specs: &[SubscriptionSpec], sample: usize) -> Duration {
    let snap = db.snapshot().expect("snapshot pins");
    let view = snap.view(VIEW).expect("view in snapshot");
    let out_cols = view.projection();
    let start = Instant::now();
    for i in 0..sample {
        let spec = &specs[i % specs.len()];
        let mut matched = 0u64;
        for row in view.wide_rows() {
            // This loop IS the naive per-subscriber baseline the lint bans
            // everywhere else: lint:allow(feed-eval-confined)
            if spec.filter.matches_row(row, out_cols) {
                matched += 1;
            }
        }
        black_box(matched);
    }
    start.elapsed()
}

/// Run the fan-out panel: register the population, then measure `batches`
/// insert batches of `batch` lineitems each.
pub fn run_feedbench(
    env: &Env,
    _cfg: &Config,
    batch: usize,
    subscribers: usize,
    distinct: usize,
    naive_sample: usize,
    batches: usize,
) -> (FeedSetup, Vec<FeedPoint>) {
    let mut db = build_db(env);
    let hub = FeedHub::new();
    hub.attach(&mut db);
    let specs = build_specs(&db, distinct);
    let view_rows = db.view(VIEW).expect("view exists").len();

    let start = Instant::now();
    let subs = register(&hub, &specs, subscribers, db.commit_lsn());
    let setup_time = start.elapsed();
    let stats = hub.stats();
    let setup = FeedSetup {
        subscribers: stats.subscribers,
        distinct_specs: specs.len(),
        shared_evals: stats.shared_evals,
        filter_groups: stats.filter_groups,
        view_rows,
        setup: setup_time,
    };

    let mut points = Vec::with_capacity(batches);
    for b in 0..batches {
        let rows = env.gen.lineitem_insert_batch(batch, 0x9e00 + b as u64);
        let t0 = Instant::now();
        db.insert("lineitem", rows).expect("maintenance batch");
        let commit = t0.elapsed();
        let fanout = Duration::from_nanos(hub.stats().last_fanout_nanos);

        let t1 = Instant::now();
        let mut delivered = 0u64;
        for sub in &subs {
            match sub.drain().expect("drain") {
                Drained::Updates(sets) => {
                    for set in sets {
                        let (ins, del) = set.counts();
                        delivered += (ins + del) as u64;
                    }
                }
                Drained::Rebase(image) => delivered += image.rows.len() as u64,
            }
        }
        black_box(delivered);
        let drain = t1.elapsed();

        let naive_sample_time = naive_rescan(&db, &specs, naive_sample);
        let naive_est = naive_sample_time.mul_f64(subscribers as f64 / naive_sample.max(1) as f64);
        let feed_total = (fanout + drain).as_secs_f64().max(f64::EPSILON);
        points.push(FeedPoint {
            batch,
            commit,
            fanout,
            drain,
            delivered,
            naive_sample,
            naive_sample_time,
            naive_est,
            speedup: naive_est.as_secs_f64() / feed_total,
        });
    }
    assert!(hub.take_error().is_none(), "no fan-out job may fail");
    drop(subs);
    (setup, points)
}

/// Plain-text panel.
pub fn render_feedbench(setup: &FeedSetup, points: &[FeedPoint]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "Change-feed fan-out: {} subscribers over {} view rows, {} distinct specs \
         -> {} shared evals in {} filter groups (registered in {:.3?})\n",
        setup.subscribers,
        setup.view_rows,
        setup.distinct_specs,
        setup.shared_evals,
        setup.filter_groups,
        setup.setup,
    ));
    s.push_str("  batch   commit      fanout      drain       delivered  naive(est)    speedup\n");
    for p in points {
        s.push_str(&format!(
            "  {:>5}  {:>10.3?}  {:>10.3?}  {:>10.3?}  {:>9}  {:>10.3?}  {:>8.1}x\n",
            p.batch, p.commit, p.fanout, p.drain, p.delivered, p.naive_est, p.speedup,
        ));
    }
    s.push_str(&format!(
        "  naive baseline measured on {} subscribers, scaled linearly to {}\n",
        points.first().map_or(0, |p| p.naive_sample),
        setup.subscribers,
    ));
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

    /// Smoke: a small population over a tiny scale factor registers, dedups
    /// to the distinct spec count, delivers rows on every batch, and the
    /// naive estimate is recorded alongside an honest sample size.
    #[test]
    fn feed_panel_smoke() {
        let cfg = tiny();
        let env = Env::new(&cfg);
        let (setup, points) = run_feedbench(&env, &cfg, 50, 60, 6, 10, 2);
        assert_eq!(setup.subscribers, 60);
        assert_eq!(setup.distinct_specs, 6);
        assert_eq!(setup.shared_evals, 6, "60 subscribers dedup to 6 evals");
        assert_eq!(setup.filter_groups, 3, "6 specs share 3 filters");
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.delivered > 0, "every batch delivers net rows");
            assert_eq!(p.naive_sample, 10);
            assert!(p.naive_est >= p.naive_sample_time);
            assert!(p.speedup > 0.0);
        }
        let text = render_feedbench(&setup, &points);
        assert!(text.contains("shared evals"));
        assert!(text.contains("speedup"));
    }
}
