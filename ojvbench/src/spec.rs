//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` is rendered from these
//! tables (`ojvbench --print-benchmark-json`) and a unit test keeps the
//! committed file in sync, so a name exists in exactly one place.

use crate::json::Json;

pub const RUN_SECONDS: u32 = 10;

/// `(name, why)` — names are fixed; later issues cite them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "v3_stream",
        "1000-row lineitem deltas on paper view V3 through in-memory Database: storage apply, exec operators and core.maintain do all the work; no WAL, feed or shards",
    ),
    (
        "durable_oltp",
        "10-row commits on V3 + orders-lineitem through DurableDatabase with fsync Always: exec is idle, WAL framing, fsync, checkpoint and recovery dominate",
    ),
    (
        "fanout_read",
        "large deltas over an 8-view V3 family with feed subscribers and a pinned reader spanning every commit: prefix sharing, snapshot copy-on-write, feed netting and drain",
    ),
    (
        "sharded_refresh",
        "TPC-H RF1/RF2 and lineitem batches on 2 durable shards at 3x the data: routing, global FK checks (1% violating batches refused), group commit, recovery",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Metrics a user of the engine sees, defined on every workload. Every
/// timing carries the largest bound the contract allows: the reference box
/// drifts by 10-20% over minutes (README.md "Bounds" has the observed
/// spreads), and a bound below the machine's own spread would reject noise.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("commit_ms_p50", "ms", "lower", 0.25),
    e2e("commit_ms_p95", "ms", "lower", 0.25),
    e2e("insert_ms_p50", "ms", "lower", 0.25),
    e2e("delete_ms_p50", "ms", "lower", 0.25),
    e2e("update_ms_p50", "ms", "lower", 0.25),
    e2e("read_ms_p50", "ms", "lower", 0.25),
    e2e("rows_per_s", "rows/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer metrics, collected in the traced run only. A metric of a
/// layer the workload does not reach reads 0. README.md says which
/// end-to-end metric each one should move, and on which workload.
pub const PER_LAYER: [PerLayer; 69] = [
    pl("tpch.gen_s", "s", "lower"),
    pl("tpch.populate_s", "s", "lower"),
    pl("storage.apply_ms", "ms", "lower"),
    pl("storage.rows_applied", "count", "higher"),
    pl("storage.heap_mb", "MiB", "lower"),
    pl("storage.fk_refused_share", "share", "higher"),
    pl("core.compile.view_create_s", "s", "lower"),
    pl("core.compile.plan_us", "us", "lower"),
    pl("core.compile.steady_count", "count", "lower"),
    pl("core.maintain.primary_compute_ms", "ms", "lower"),
    pl("core.maintain.primary_apply_ms", "ms", "lower"),
    pl("core.maintain.secondary_ms", "ms", "lower"),
    pl("core.maintain.primary_rows", "count", "lower"),
    pl("core.maintain.secondary_rows", "count", "lower"),
    pl("core.maintain.noop_share", "share", "higher"),
    pl(
        "core.maintain.primary_rows_per_update_row",
        "ratio",
        "lower",
    ),
    pl("exec.filter.ms", "ms", "lower"),
    pl("exec.filter.rows_in", "count", "lower"),
    pl("exec.filter.rows_out", "count", "lower"),
    pl("exec.join_build.ms", "ms", "lower"),
    pl("exec.join_build.rows_in", "count", "lower"),
    pl("exec.join_build.rows_out", "count", "lower"),
    pl("exec.join_probe.ms", "ms", "lower"),
    pl("exec.join_probe.rows_in", "count", "lower"),
    pl("exec.join_probe.rows_out", "count", "lower"),
    pl("exec.index_join.ms", "ms", "lower"),
    pl("exec.index_join.rows_in", "count", "lower"),
    pl("exec.index_join.rows_out", "count", "lower"),
    pl("exec.dedup.ms", "ms", "lower"),
    pl("exec.dedup.rows_in", "count", "lower"),
    pl("exec.dedup.rows_out", "count", "lower"),
    pl("exec.subsume.ms", "ms", "lower"),
    pl("exec.subsume.rows_in", "count", "lower"),
    pl("exec.subsume.rows_out", "count", "lower"),
    pl("core.batch.shared_with_mean", "count", "higher"),
    pl("core.batch.wall_over_sum", "ratio", "lower"),
    pl("core.snapshot.publish_ms", "ms", "lower"),
    pl("core.snapshot.pin_us", "us", "lower"),
    pl("core.snapshot.lookup_us", "us", "lower"),
    pl("core.snapshot.scan_ms", "ms", "lower"),
    pl("core.snapshot.high_water_ops", "count", "lower"),
    pl("core.snapshot.retained_versions", "count", "lower"),
    pl("feed.fanout_ms", "ms", "lower"),
    pl("feed.drain_ms", "ms", "lower"),
    pl("feed.evals_per_commit", "count", "lower"),
    pl("feed.delivered_rows", "count", "lower"),
    pl("feed.rebases", "count", "lower"),
    pl("feed.register_ms", "ms", "lower"),
    pl("feed.delivery_ms_p50", "ms", "lower"),
    pl("durability.append_ms", "ms", "lower"),
    pl("durability.append_bytes", "B", "lower"),
    pl("durability.fsyncs_per_commit", "count", "lower"),
    pl("durability.fsync_ms", "ms", "lower"),
    pl("durability.checkpoint_ms", "ms", "lower"),
    pl("durability.checkpoint_mb", "MiB", "lower"),
    pl("durability.replayed_records", "count", "lower"),
    pl("durability.replay_ms", "ms", "lower"),
    pl("durability.recovery_s", "s", "lower"),
    pl("durability.wal_bytes_per_row", "B/row", "lower"),
    pl("core.shard.route_ms", "ms", "lower"),
    pl("core.shard.rows_max_over_mean", "ratio", "lower"),
    pl("core.shard.shard_maintain_ms_max", "ms", "lower"),
    pl("core.shard.shard_maintain_ms_sum", "ms", "lower"),
    pl("core.shard.group_fsyncs_per_commit", "count", "lower"),
    pl("core.shard.facade_other_ms", "ms", "lower"),
    pl("harness.unattributed_ms", "ms", "lower"),
    pl("harness.unattributed_share", "share", "lower"),
    pl("harness.trace_overhead_pct", "%", "lower"),
    pl("harness.verify_s", "s", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let s = |v: &str| Json::Str(v.to_string());
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|i| s(i)).collect());
    Json::obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "ojvbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["ojvbench"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| Json::obj(vec![("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}
