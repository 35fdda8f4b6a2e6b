//! `ojvbench`: one end-to-end + per-layer benchmark of the commit pipeline.
//!
//! ```text
//! ojvbench --seed 42                      every workload, untraced then traced,
//!                                         each in its own process; writes results.json
//! ojvbench --workload v3_stream --seed 1 --seconds 10 --trace 0
//!                                         one run; the last line of standard output is
//!                                         the JSON object the benchmark driver reads
//! ojvbench --smoke                        tiny sizes, seconds instead of minutes
//! ojvbench --print-benchmark-json         the text of BENCHMARK.json
//! ```
//!
//! See README.md for the workloads, the metrics and what moves what.

mod json;
mod run;
mod script;
mod spec;
#[cfg(test)]
mod tests;
mod vfs;
mod views;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use ojv_core::compile::compile_count;

use json::Json;
use run::{Recorder, Samples, SetupSpans};
use script::{Profile, Script, Workload};
use workloads::{Bench, Ctx, DurableOltp, FanoutRead, Finals, ShardedRefresh, V3Stream};

// ---------------------------------------------------------------------------
// Sizes
// ---------------------------------------------------------------------------

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The sizes of a workload. The op count is fixed by `(workload, seconds)`,
/// never by how fast the engine turns out to be, so both sides of any
/// comparison run the same script; the per-second rates below put the timed
/// phase of each workload near `--seconds` on the 2-core reference box.
pub fn profile(workload: Workload, seconds: u32, smoke: bool) -> Profile {
    if smoke {
        let base = Profile {
            sf: 0.002,
            ops: 40,
            batch: 100,
            rf_orders: 20,
            update_rows: 5,
            subscribers: 0,
            specs: 0,
        };
        return match workload {
            Workload::V3Stream => base,
            // An `UPDATE` compiles the FK-free plan on each shard it lands
            // on; 60 rows span about 15 orders, so the warm-up's `UPDATE`
            // reaches both shards whatever the seed.
            Workload::ShardedRefresh => Profile {
                update_rows: 60,
                ..base
            },
            Workload::DurableOltp => Profile { batch: 10, ..base },
            Workload::FanoutRead => Profile {
                batch: 200,
                subscribers: 200,
                specs: 24,
                ..base
            },
        };
    }
    let ops = |per_second: usize| per_second * seconds as usize;
    match workload {
        Workload::V3Stream => Profile {
            sf: 0.01,
            ops: ops(180),
            batch: 1000,
            rf_orders: 0,
            update_rows: 10,
            subscribers: 0,
            specs: 0,
        },
        Workload::DurableOltp => Profile {
            sf: 0.01,
            ops: ops(1600),
            batch: 10,
            rf_orders: 0,
            update_rows: 10,
            subscribers: 0,
            specs: 0,
        },
        Workload::FanoutRead => Profile {
            sf: 0.005,
            ops: ops(22),
            batch: 1000,
            rf_orders: 0,
            // 100 consecutive lineitems span ~25 orders, so nearly every
            // `UPDATE` touches V3's 7-month window and pays the pinned
            // publish; with 10 rows three in four would not, and the median
            // would flip between the two costs from seed to seed.
            update_rows: 100,
            subscribers: 10_000,
            specs: 250,
        },
        Workload::ShardedRefresh => Profile {
            sf: 0.03,
            ops: ops(40),
            batch: 2000,
            rf_orders: 500,
            update_rows: 100,
            subscribers: 0,
            specs: 0,
        },
    }
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u32,
    pub traced: bool,
    pub smoke: bool,
    /// Where this run may create its WAL directories.
    pub scratch: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value, and their range (in the value's unit).
    pub count: usize,
    pub min: f64,
    pub max: f64,
}

impl Metric {
    fn single(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            count: 1,
            min: value,
            max: value,
        }
    }

    /// A latency quantile, in milliseconds.
    fn latency_ms(name: &'static str, samples: &Samples, q: f64) -> Metric {
        Metric {
            name,
            value: samples.quantile(q) / MS,
            count: samples.0.len(),
            min: samples.min() / MS,
            max: samples.max() / MS,
        }
    }
}

#[derive(Debug)]
pub struct RunResult {
    pub config: RunConfig,
    pub profile: Profile,
    pub script_fnv: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The contract's metrics for this kind of run: every end-to-end metric
    /// (untraced) or every per-layer metric (traced), in `spec` order.
    pub metrics: Vec<Metric>,
    /// Untraced runs only: user-visible metrics that exist on some facades
    /// only, so the contract lists them per layer (`feed.delivery_ms_p50`,
    /// `durability.recovery_s`, `durability.wal_bytes_per_row`).
    pub facade_metrics: Vec<Metric>,
}

/// One pass over the script on a freshly set-up engine.
struct Pass {
    rec: Recorder,
    fin: Finals,
    setup: SetupSpans,
    script_fnv: u64,
    steady_compiles: usize,
}

fn run_pass<B: Bench>(mut bench: B, ctx: &Ctx, workload: Workload, setup: SetupSpans) -> Pass {
    let mut script = Script::new(workload, ctx.profile, ctx.seed);
    let mut rec = Recorder::new(ctx.traced);
    let warmup = script.warmup_ops();
    for op in script.by_ref().take(warmup) {
        bench.step(op, &mut rec);
    }
    bench.begin_timing();
    rec.timing = true;
    let compiles = compile_count();
    // The script generates each op with the clock stopped, so every commit
    // meets the same cache state (just after one op's rows were generated)
    // and the script never sits in memory whole.
    for op in script.by_ref() {
        let start = Instant::now();
        bench.step(op, &mut rec);
        rec.wall += start.elapsed();
    }
    rec.timing = false;
    let steady_compiles = compile_count() - compiles;
    rec.gate(
        "no plan compiled in the timed phase",
        steady_compiles == 0,
        1,
    );
    let fin = bench.finish(ctx, &mut rec);
    Pass {
        rec,
        fin,
        setup,
        script_fnv: script.fnv(),
        steady_compiles,
    }
}

static RUN_COUNTER: AtomicU32 = AtomicU32::new(0);

fn drive<B: Bench>(config: &RunConfig) -> RunResult {
    let profile = profile(config.workload, config.seconds, config.smoke);
    let run_dir = config.scratch.join(format!(
        "run-{}-{}-{}",
        config.workload.name(),
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    // Every run sets up SETUPS times so `setup_s` is a median. The last
    // setup carries the measured pass; in a traced run the one before it
    // carries an untraced pass over the same script, which is what
    // `harness.trace_overhead_pct` compares against.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut untraced = None;
    let mut traced = None;
    for k in 0..SETUPS {
        // Which pass, if any, this setup carries: Some(traced?).
        let pass = match (config.traced, SETUPS - 1 - k) {
            (true, 0) => Some(true),
            (true, 1) | (false, 0) => Some(false),
            _ => None,
        };
        let ctx = Ctx {
            profile,
            seed: config.seed,
            traced: pass == Some(true),
            dir: run_dir.join(format!("setup{k}")),
        };
        let (bench, spans) = B::setup(&ctx);
        setups.push(spans);
        match pass {
            Some(true) => traced = Some(run_pass(bench, &ctx, config.workload, spans)),
            Some(false) => untraced = Some(run_pass(bench, &ctx, config.workload, spans)),
            None => drop(bench),
        }
        let _ = std::fs::remove_dir_all(&ctx.dir);
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    let untraced = untraced.expect("every run has an untraced pass");

    let mut failures = untraced.rec.failures.clone();
    let (metrics, facade_metrics, attempted, failed) = match &traced {
        None => (
            end_to_end(&untraced, &setups),
            facade_metrics(&untraced),
            untraced.rec.attempted,
            untraced.rec.failed,
        ),
        Some(t) => {
            failures.extend(t.rec.failures.iter().cloned());
            (
                per_layer(config.workload, t, &untraced),
                Vec::new(),
                t.rec.attempted,
                t.rec.failed + untraced.rec.failed,
            )
        }
    };
    RunResult {
        config: config.clone(),
        profile,
        script_fnv: traced.as_ref().unwrap_or(&untraced).script_fnv,
        attempted,
        failed,
        failures,
        metrics,
        facade_metrics,
    }
}

pub fn run_workload(config: &RunConfig) -> RunResult {
    match config.workload {
        Workload::V3Stream => drive::<V3Stream>(config),
        Workload::DurableOltp => drive::<DurableOltp>(config),
        Workload::FanoutRead => drive::<FanoutRead>(config),
        Workload::ShardedRefresh => drive::<ShardedRefresh>(config),
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

const MS: f64 = 1e6;
const MIB: f64 = 1024.0 * 1024.0;

fn rows_per_s(rec: &Recorder) -> f64 {
    rec.rows as f64 / rec.wall.as_secs_f64()
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn end_to_end(pass: &Pass, setups: &[SetupSpans]) -> Vec<Metric> {
    let rec = &pass.rec;
    let mut totals: Vec<f64> = setups.iter().map(|s| s.total.as_secs_f64()).collect();
    totals.sort_by(f64::total_cmp);
    let commits = rec.all_commits();
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: totals[totals.len() / 2],
            count: totals.len(),
            min: totals[0],
            max: totals[totals.len() - 1],
        },
        Metric::latency_ms("commit_ms_p50", &commits, 0.50),
        Metric::latency_ms("commit_ms_p95", &commits, 0.95),
        Metric::latency_ms("insert_ms_p50", &rec.insert, 0.50),
        Metric::latency_ms("delete_ms_p50", &rec.delete, 0.50),
        Metric::latency_ms("update_ms_p50", &rec.update, 0.50),
        Metric::latency_ms("read_ms_p50", &rec.read, 0.50),
        Metric::single("rows_per_s", rows_per_s(rec)),
        Metric::single("peak_rss_mb", peak_rss_mb()),
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| m.name)
        .eq(spec::END_TO_END.iter().map(|m| m.name)));
    metrics
}

fn wal_bytes_per_row(rec: &Recorder) -> f64 {
    let wal = rec.sums.vfs_commit.wal_bytes + rec.sums.vfs_checkpoint.wal_bytes;
    wal as f64 / rec.rows as f64
}

fn facade_metrics(pass: &Pass) -> Vec<Metric> {
    let mut out = Vec::new();
    if !pass.rec.delivery.0.is_empty() {
        out.push(Metric::latency_ms(
            "feed.delivery_ms_p50",
            &pass.rec.delivery,
            0.50,
        ));
    }
    if !pass.fin.recovery.is_zero() {
        out.push(Metric::single(
            "durability.recovery_s",
            pass.fin.recovery.as_secs_f64(),
        ));
        out.push(Metric::single(
            "durability.wal_bytes_per_row",
            wal_bytes_per_row(&pass.rec),
        ));
    }
    out
}

/// `a / b`, reading 0 when the layer behind `b` was never reached.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(workload: Workload, traced: &Pass, untraced: &Pass) -> Vec<Metric> {
    let rec = &traced.rec;
    let s = &rec.sums;
    let fin = &traced.fin;
    let commits = rec.commits() as f64;
    let commit_ns: u64 = rec.all_commits().0.iter().sum();
    let per_commit_ms = |nanos: u64| ratio(nanos as f64 / MS, commits);
    let sharded = workload == Workload::ShardedRefresh;
    let durable = fin.recovery > std::time::Duration::ZERO;

    let report_ns = s.primary_compute_ns + s.primary_apply_ns + s.secondary_ns;
    // What `maintain_update` spent outside per-view maintenance and the
    // observer: journal drain and the registry's copy-on-write publish.
    let publish_ns = s.maintain_wall_ns.saturating_sub(report_ns + s.observer_ns);
    let attributed = s.apply_ns + report_ns + publish_ns + s.observer_ns + s.vfs_commit.total_ns();
    let unattributed = commit_ns.saturating_sub(attributed);
    let overhead_pct = {
        let base = rows_per_s(&untraced.rec);
        (base - rows_per_s(rec)) / base * 100.0
    };

    let mut m: Vec<Metric> = Vec::with_capacity(spec::PER_LAYER.len());
    let mut put = |name: &'static str, value: f64| m.push(Metric::single(name, value));

    put("tpch.gen_s", traced.setup.gen.as_secs_f64());
    put("tpch.populate_s", traced.setup.populate.as_secs_f64());
    put("storage.apply_ms", per_commit_ms(s.apply_ns));
    put("storage.rows_applied", rec.rows as f64);
    put("storage.heap_mb", fin.heap_bytes as f64 / MIB);
    put(
        "storage.fk_refused_share",
        ratio(s.refused as f64, s.violating as f64),
    );
    put(
        "core.compile.view_create_s",
        traced.setup.view_create.as_secs_f64(),
    );
    put("core.compile.plan_us", fin.plan_us);
    put("core.compile.steady_count", traced.steady_compiles as f64);
    put(
        "core.maintain.primary_compute_ms",
        per_commit_ms(s.primary_compute_ns),
    );
    put(
        "core.maintain.primary_apply_ms",
        per_commit_ms(s.primary_apply_ns),
    );
    put("core.maintain.secondary_ms", per_commit_ms(s.secondary_ns));
    put("core.maintain.primary_rows", s.primary_rows as f64);
    put("core.maintain.secondary_rows", s.secondary_rows as f64);
    put(
        "core.maintain.noop_share",
        ratio(
            s.view_slots.saturating_sub(s.reports) as f64,
            s.view_slots as f64,
        ),
    );
    put(
        "core.maintain.primary_rows_per_update_row",
        ratio(s.primary_rows as f64, s.delta_rows as f64),
    );
    let exec_names = spec::PER_LAYER
        .iter()
        .map(|p| p.name)
        .filter(|name| name.starts_with("exec."));
    let exec_values = s.exec.iter().flat_map(|op| {
        [
            per_commit_ms(op.ns),
            ratio(op.rows_in as f64, commits),
            ratio(op.rows_out as f64, commits),
        ]
    });
    for (name, value) in exec_names.zip(exec_values) {
        put(name, value);
    }
    put(
        "core.batch.shared_with_mean",
        ratio(s.shared_with as f64, s.reports as f64),
    );
    put(
        "core.batch.wall_over_sum",
        ratio(s.maintain_wall_ns as f64, report_ns as f64),
    );
    put("core.snapshot.publish_ms", per_commit_ms(publish_ns));
    put(
        "core.snapshot.pin_us",
        ratio(s.pin_ns as f64 / 1e3, s.pins as f64),
    );
    put(
        "core.snapshot.lookup_us",
        ratio(s.lookup_ns as f64 / 1e3, s.lookups as f64),
    );
    put(
        "core.snapshot.scan_ms",
        ratio(s.scan_ns as f64 / MS, s.scans as f64),
    );
    put("core.snapshot.high_water_ops", fin.high_water_ops as f64);
    put(
        "core.snapshot.retained_versions",
        ratio(s.retained_versions as f64, s.registry_samples as f64),
    );
    put("feed.fanout_ms", per_commit_ms(s.observer_ns));
    put("feed.drain_ms", per_commit_ms(s.drain_ns));
    put("feed.evals_per_commit", fin.evals_per_commit as f64);
    put("feed.delivered_rows", s.delivered_rows as f64);
    put("feed.rebases", s.rebases as f64);
    put(
        "feed.register_ms",
        traced.setup.register.as_secs_f64() * 1e3,
    );
    put("feed.delivery_ms_p50", rec.delivery.quantile(0.50) / MS);
    put(
        "durability.append_ms",
        per_commit_ms(s.vfs_commit.append_ns),
    );
    put("durability.append_bytes", s.vfs_commit.append_bytes as f64);
    put(
        "durability.fsyncs_per_commit",
        ratio(s.vfs_commit.syncs as f64, commits),
    );
    put("durability.fsync_ms", per_commit_ms(s.vfs_commit.sync_ns));
    put(
        "durability.checkpoint_ms",
        ratio(s.checkpoint_ns as f64 / MS, s.checkpoints as f64),
    );
    put(
        "durability.checkpoint_mb",
        ratio(
            s.vfs_checkpoint.append_bytes as f64 / MIB,
            s.checkpoints as f64,
        ),
    );
    put("durability.replayed_records", fin.replayed_records as f64);
    put("durability.replay_ms", fin.replay_ns as f64 / MS);
    put("durability.recovery_s", fin.recovery.as_secs_f64());
    put(
        "durability.wal_bytes_per_row",
        if durable { wal_bytes_per_row(rec) } else { 0.0 },
    );
    let shard = |value: f64| if sharded { value } else { 0.0 };
    put("core.shard.route_ms", per_commit_ms(s.route_ns));
    put(
        "core.shard.rows_max_over_mean",
        ratio(s.skew_sum, s.routed_commits as f64),
    );
    put(
        "core.shard.shard_maintain_ms_max",
        shard(per_commit_ms(s.shard_max_ns)),
    );
    put(
        "core.shard.shard_maintain_ms_sum",
        shard(per_commit_ms(s.shard_sum_ns)),
    );
    put(
        "core.shard.group_fsyncs_per_commit",
        shard(ratio(s.vfs_commit.syncs as f64, commits)),
    );
    put(
        "core.shard.facade_other_ms",
        shard(per_commit_ms(
            commit_ns.saturating_sub(s.shard_max_ns + s.vfs_commit.sync_ns),
        )),
    );
    put("harness.unattributed_ms", per_commit_ms(unattributed));
    put(
        "harness.unattributed_share",
        ratio(unattributed as f64, commit_ns as f64),
    );
    put("harness.trace_overhead_pct", overhead_pct);
    put("harness.verify_s", fin.verify.as_secs_f64());
    debug_assert!(m
        .iter()
        .map(|x| x.name)
        .eq(spec::PER_LAYER.iter().map(|p| p.name)));
    m
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

fn metric_json(m: &Metric) -> Json {
    Json::obj(vec![
        ("value", Json::Num(m.value)),
        ("unit", Json::Str(spec::unit_of(m.name).to_string())),
        ("count", Json::Num(m.count as f64)),
        ("min", Json::Num(m.min)),
        ("max", Json::Num(m.max)),
    ])
}

impl RunResult {
    /// The object the benchmark driver reads from the last line of stdout.
    pub fn driver_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::Str(spec::unit_of(m.name).to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .compact()
    }

    /// The full record of this run, for `results.json`.
    pub fn record(&self) -> Json {
        let p = &self.profile;
        Json::obj(vec![
            ("workload", Json::Str(self.config.workload.name().into())),
            ("traced", Json::Bool(self.config.traced)),
            ("seed", Json::Num(self.config.seed as f64)),
            ("seconds", Json::Num(f64::from(self.config.seconds))),
            ("smoke", Json::Bool(self.config.smoke)),
            ("script_fnv", Json::Str(format!("{:016x}", self.script_fnv))),
            (
                "sizes",
                Json::obj(vec![
                    ("sf", Json::Num(p.sf)),
                    ("ops", Json::Num(p.ops as f64)),
                    ("batch_rows", Json::Num(p.batch as f64)),
                    ("rf_orders", Json::Num(p.rf_orders as f64)),
                    ("update_rows", Json::Num(p.update_rows as f64)),
                    ("subscribers", Json::Num(p.subscribers as f64)),
                    ("specs", Json::Num(p.specs as f64)),
                ]),
            ),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .chain(&self.facade_metrics)
                        .map(|m| (m.name.to_string(), metric_json(m)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name, with its unit.
    pub fn print(&self) {
        println!(
            "== {} ({}, seed {}, script_fnv {:016x}, SF {}, {} ops) ==",
            self.config.workload.name(),
            if self.config.traced {
                "traced"
            } else {
                "untraced"
            },
            self.config.seed,
            self.script_fnv,
            self.profile.sf,
            self.profile.ops,
        );
        for m in self.metrics.iter().chain(&self.facade_metrics) {
            let range = if m.count > 1 {
                format!("  (n={}, min {:.4}, max {:.4})", m.count, m.min, m.max)
            } else {
                String::new()
            };
            println!(
                "  {:<44} {:>16.4} {}{}",
                m.name,
                m.value,
                spec::unit_of(m.name),
                range
            );
        }
        println!(
            "  {:<44} {:>16}\n  {:<44} {:>16}",
            "ops_attempted", self.attempted, "ops_failed", self.failed
        );
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u32,
    /// `None`: both kinds of run (all-workloads mode) or untraced (one
    /// workload).
    traced: Option<bool>,
    smoke: bool,
    reps: u32,
    json_out: Option<PathBuf>,
    print_benchmark_json: bool,
}

const USAGE: &str = "usage: ojvbench [--workload <name>] [--seed <n>] [--seconds <n>] \
[--trace <0|1> | --traced] [--smoke] [--reps <n>] [--print-benchmark-json]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS,
        traced: None,
        smoke: false,
        reps: 1,
        json_out: None,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.traced = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => args.traced = Some(true),
            "--smoke" => args.smoke = true,
            "--reps" => {
                args.reps = value("a number")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?
            }
            "--json-out" => args.json_out = Some(PathBuf::from(value("a path")?)),
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `<cargo target dir>/ojvbench`: everything the benchmark writes lives
/// here, never in the repository root. The target directory is found from
/// the executable (cargo marks it with `CACHEDIR.TAG`).
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let target = exe
        .ancestors()
        .find(|dir| dir.join("CACHEDIR.TAG").is_file())
        .or(exe.parent())
        .expect("the executable has a parent directory");
    target.join("ojvbench")
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn machine_block() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(command_output("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(command_output("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Every workload, each run in a child process of its own (so
/// `peak_rss_mb` is per workload), untraced and traced; `results.json`
/// gathers the children's records.
fn run_all(args: &Args, out: &Path) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    std::fs::create_dir_all(out)?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        for rep in 0..args.reps {
            for traced in [false, true] {
                if args.traced.is_some_and(|only| only != traced) {
                    continue;
                }
                let record = out.join(format!(
                    "{}-{}-{rep}.json",
                    workload.name(),
                    u8::from(traced)
                ));
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload.name()])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--json-out")
                    .arg(&record);
                if args.smoke {
                    child.arg("--smoke");
                }
                // `status` waits for the child, so none outlives this loop.
                all_correct &= child.status()?.success();
                if let Ok(text) = std::fs::read_to_string(&record) {
                    records.push(Json::Raw(text.trim_end().to_string()));
                }
                let _ = std::fs::remove_file(&record);
            }
        }
    }
    let results = Json::obj(vec![
        ("machine", machine_block()),
        ("seed", Json::Num(args.seed as f64)),
        ("runs", Json::Arr(records)),
    ]);
    let path = out.join("results.json");
    std::fs::write(&path, results.pretty())?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let out = output_dir();
    let Some(workload) = args.workload else {
        return match run_all(&args, &out) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ojvbench: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let result = run_workload(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced.unwrap_or(false),
        smoke: args.smoke,
        scratch: out,
    });
    result.print();
    if let Some(path) = &args.json_out {
        if let Err(e) = std::fs::write(path, result.record().compact()) {
            eprintln!("ojvbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.driver_line());
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
