//! Reproduce the paper's tables and figures.
//!
//! ```text
//! repro [--sf 0.05] [--seed 42] [--quick] [--shards 1,2,4,8] \
//!       [table1|fig5a|fig5b|example1|graphs|walbench|readers|feedbench|shardbench|all]
//! ```
//!
//! * `table1` — Table 1: term cardinalities of V3 and rows affected by a
//!   lineitem insert batch,
//! * `fig5a` / `fig5b` — Figure 5(a)/(b): maintenance cost for lineitem
//!   insertions/deletions across batch sizes, for the core view, the
//!   outer-join view, and the GK baseline,
//! * `example1` — the §1/§6 foreign-key fast paths,
//! * `graphs` — the subsumption and maintenance graphs of Figures 1 and 4,
//! * `walbench` — Figure-5-style insert maintenance through the durable
//!   WAL at each fsync policy vs the in-memory engine (`BENCH_pr4.json`),
//! * `readers` — snapshot-reader throughput at 1/8/32 reader threads while
//!   maintenance streams insert batches, plus the single-reader
//!   snapshot-vs-direct baseline (`BENCH_pr6.json`),
//! * `feedbench` — change-feed fan-out of per-batch deltas to 100k filtered
//!   subscribers vs naive per-subscriber re-scans (`BENCH_pr9.json`),
//! * `shardbench` — batch maintenance through the hash-partitioned
//!   `ShardedDatabase` at 1/2/4/8 shards, with columnar heap footprints and
//!   honest machine metadata (`BENCH_pr10.json`),
//! * `all` — everything above except `walbench`, `readers`, `feedbench` and
//!   `shardbench`.

use std::fmt::Write as _;
use std::time::Instant;

use ojv_bench::harness::{run_fast_paths, run_fig5, run_table1, Config, Env, Measurement};
use ojv_bench::report::{render_fig5, render_rows, render_table1};
use ojv_bench::views::{v2_def, v3_def};

// Count heap allocations so the emitted per-operator stats include real
// allocation numbers, not zeros. Two relaxed atomic adds per allocation —
// noise next to the allocations themselves.
#[global_allocator]
static ALLOC: ojv_rel::CountingAlloc = ojv_rel::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Config::default();
    let mut command = "all".to_string();
    let mut shards: Vec<usize> = vec![1, 2, 4, 8];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => {
                i += 1;
                shards = args[i]
                    .split(',')
                    .map(|s| s.trim().parse().expect("--shards takes integers"))
                    .collect();
            }
            "--sf" => {
                i += 1;
                cfg.sf = args[i].parse().expect("--sf takes a number");
            }
            "--seed" => {
                i += 1;
                cfg.seed = args[i].parse().expect("--seed takes an integer");
            }
            "--reps" => {
                i += 1;
                cfg.repetitions = args[i].parse().expect("--reps takes an integer");
            }
            "--quick" => {
                let seed = cfg.seed;
                cfg = Config::quick();
                cfg.seed = seed;
            }
            other => command = other.to_string(),
        }
        i += 1;
    }

    println!(
        "# Reproduction of Larson & Zhou, ICDE 2007 — SF={}, seed={}\n",
        cfg.sf, cfg.seed
    );
    let start = Instant::now();
    print!("loading TPC-H data ... ");
    let env = Env::new(&cfg);
    println!(
        "done in {:.1}s ({} lineitems)\n",
        start.elapsed().as_secs_f64(),
        env.gen.lineitem_count()
    );

    let mut json_panels: Vec<(&str, Vec<Measurement>)> = Vec::new();
    match command.as_str() {
        "table1" => table1(&env, &cfg),
        "fig5a" => json_panels.push(("fig5a_insert", fig5(&env, &cfg, false))),
        "fig5b" => json_panels.push(("fig5b_delete", fig5(&env, &cfg, true))),
        "example1" => example1(&env),
        "graphs" => graphs(&env),
        "sql" => sql(&env),
        "walbench" => walbench(&env, &cfg),
        "readers" => readers(&env, &cfg),
        "feedbench" => feedbench(&env, &cfg),
        "shardbench" => shardbench(&env, &cfg, &shards),
        "all" => {
            graphs(&env);
            sql(&env);
            example1(&env);
            table1(&env, &cfg);
            json_panels.push(("fig5a_insert", fig5(&env, &cfg, false)));
            json_panels.push(("fig5b_delete", fig5(&env, &cfg, true)));
        }
        other => {
            eprintln!(
                "unknown command {other}; use table1|fig5a|fig5b|example1|graphs|sql|walbench|readers|feedbench|shardbench|all"
            );
            std::process::exit(2);
        }
    }
    if !json_panels.is_empty() {
        let path = "BENCH_pr2.json";
        match std::fs::write(path, render_json(&cfg, &json_panels)) {
            Ok(()) => println!("machine-readable results written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// Hand-rolled JSON (the workspace has no serde): per measured point the
/// wall-clock, row counts, and per-operator executor counters including
/// heap allocations from the counting allocator above.
fn render_json(cfg: &Config, panels: &[(&str, Vec<Measurement>)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(
        s,
        "  \"config\": {{ \"sf\": {}, \"seed\": {}, \"repetitions\": {} }},",
        cfg.sf, cfg.seed, cfg.repetitions
    );
    let _ = writeln!(s, "  \"panels\": [");
    for (pi, (panel, ms)) in panels.iter().enumerate() {
        let _ = writeln!(s, "    {{ \"panel\": \"{panel}\", \"measurements\": [");
        for (mi, m) in ms.iter().enumerate() {
            let _ = write!(
                s,
                "      {{ \"system\": \"{}\", \"batch\": {}, \"time_ns\": {}, \
                 \"primary_rows\": {}, \"secondary_rows\": {}, \"operators\": {{",
                m.system.label(),
                m.batch,
                m.time.as_nanos(),
                m.primary_rows,
                m.secondary_rows,
            );
            let ops = [
                ("filter", &m.exec.filter),
                ("join_build", &m.exec.join_build),
                ("join_probe", &m.exec.join_probe),
                ("index_join", &m.exec.index_join),
                ("dedup", &m.exec.dedup),
                ("subsume", &m.exec.subsume),
            ];
            for (oi, (name, op)) in ops.iter().enumerate() {
                let _ = write!(
                    s,
                    " \"{name}\": {{ \"rows_in\": {}, \"rows_out\": {}, \"calls\": {}, \
                     \"time_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {} }}{}",
                    op.rows_in,
                    op.rows_out,
                    op.calls,
                    op.time_ns,
                    op.allocs,
                    op.alloc_bytes,
                    if oi + 1 < ops.len() { "," } else { "" },
                );
            }
            let _ = writeln!(s, " }} }}{}", if mi + 1 < ms.len() { "," } else { "" });
        }
        let _ = writeln!(
            s,
            "    ] }}{}",
            if pi + 1 < panels.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Durable WAL overhead sweep; emits `BENCH_pr4.json` next to the pr2 file.
fn walbench(env: &Env, cfg: &Config) {
    let scratch = std::env::temp_dir().join(format!("ojv-walbench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir creates");
    let ms = ojv_bench::walbench::run_walbench(env, cfg, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    println!("{}", ojv_bench::walbench::render_walbench(&ms));

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(
        s,
        "  \"config\": {{ \"sf\": {}, \"seed\": {}, \"repetitions\": {} }},",
        cfg.sf, cfg.seed, cfg.repetitions
    );
    let _ = writeln!(s, "  \"panels\": [");
    let _ = writeln!(
        s,
        "    {{ \"panel\": \"walbench_insert\", \"measurements\": ["
    );
    for (mi, m) in ms.iter().enumerate() {
        let _ = writeln!(
            s,
            "      {{ \"system\": \"{}\", \"batch\": {}, \"time_ns\": {}, \
             \"wal_bytes\": {}, \"primary_rows\": {} }}{}",
            m.series,
            m.batch,
            m.time.as_nanos(),
            m.wal_bytes,
            m.primary_rows,
            if mi + 1 < ms.len() { "," } else { "" },
        );
    }
    let _ = writeln!(s, "    ] }}");
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    let path = "BENCH_pr4.json";
    match std::fs::write(path, s) {
        Ok(()) => println!("machine-readable results written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Reader-throughput panel against the versioned view store; emits
/// `BENCH_pr6.json`.
fn readers(env: &Env, cfg: &Config) {
    let thread_counts = [1usize, 8, 32];
    let reads_per_thread = 400u64;
    let points = ojv_bench::readbench::run_readbench(env, cfg, reads_per_thread, &thread_counts);
    println!("{}", ojv_bench::readbench::render_readbench(&points));

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(
        s,
        "  \"config\": {{ \"sf\": {}, \"seed\": {}, \"repetitions\": {}, \
         \"reads_per_thread\": {} }},",
        cfg.sf, cfg.seed, cfg.repetitions, reads_per_thread
    );
    let _ = writeln!(s, "  \"panels\": [");
    let _ = writeln!(
        s,
        "    {{ \"panel\": \"reader_throughput\", \"measurements\": ["
    );
    for (mi, p) in points.iter().enumerate() {
        let _ = writeln!(
            s,
            "      {{ \"path\": \"{}\", \"readers\": {}, \"maintenance\": {}, \
             \"reads\": {}, \"batches\": {}, \"time_ns\": {}, \"qps\": {:.1} }}{}",
            p.path,
            p.readers,
            p.maintenance,
            p.reads,
            p.batches,
            p.time.as_nanos(),
            p.qps,
            if mi + 1 < points.len() { "," } else { "" },
        );
    }
    let _ = writeln!(s, "    ] }}");
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    let path = "BENCH_pr6.json";
    match std::fs::write(path, s) {
        Ok(()) => println!("machine-readable results written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn feedbench(env: &Env, cfg: &Config) {
    let batch = (*cfg.batch_sizes.last().expect("batch sizes configured")).max(10_000);
    let (subscribers, distinct, sample, batches) = (100_000usize, 250usize, 200usize, 3usize);
    let (setup, points) = ojv_bench::feedbench::run_feedbench(
        env,
        cfg,
        batch,
        subscribers,
        distinct,
        sample,
        batches,
    );
    println!(
        "{}",
        ojv_bench::feedbench::render_feedbench(&setup, &points)
    );

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(
        s,
        "  \"config\": {{ \"sf\": {}, \"seed\": {}, \"batch\": {}, \"subscribers\": {}, \
         \"distinct_specs\": {}, \"naive_sample\": {}, \"batches\": {} }},",
        cfg.sf, cfg.seed, batch, subscribers, distinct, sample, batches
    );
    let _ = writeln!(
        s,
        "  \"setup\": {{ \"subscribers\": {}, \"distinct_specs\": {}, \"shared_evals\": {}, \
         \"filter_groups\": {}, \"view_rows\": {}, \"register_ns\": {} }},",
        setup.subscribers,
        setup.distinct_specs,
        setup.shared_evals,
        setup.filter_groups,
        setup.view_rows,
        setup.setup.as_nanos()
    );
    let _ = writeln!(s, "  \"panels\": [");
    let _ = writeln!(s, "    {{ \"panel\": \"feed_fanout\", \"measurements\": [");
    for (mi, p) in points.iter().enumerate() {
        let _ = writeln!(
            s,
            "      {{ \"batch\": {}, \"commit_ns\": {}, \"fanout_ns\": {}, \"drain_ns\": {}, \
             \"delivered\": {}, \"naive_sample\": {}, \"naive_sample_ns\": {}, \
             \"naive_est_ns\": {}, \"speedup\": {:.1} }}{}",
            p.batch,
            p.commit.as_nanos(),
            p.fanout.as_nanos(),
            p.drain.as_nanos(),
            p.delivered,
            p.naive_sample,
            p.naive_sample_time.as_nanos(),
            p.naive_est.as_nanos(),
            p.speedup,
            if mi + 1 < points.len() { "," } else { "" },
        );
    }
    let _ = writeln!(s, "    ] }}");
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    let path = "BENCH_pr9.json";
    match std::fs::write(path, s) {
        Ok(()) => println!("machine-readable results written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Shard-count scaling sweep through the hash-partitioned engine; emits
/// `BENCH_pr10.json` with the machine's core count (shards are maintained
/// one after another, so the sweep shows partitioning overhead, and says
/// so).
fn shardbench(env: &Env, cfg: &Config, shard_counts: &[usize]) {
    let batch = (*cfg.batch_sizes.last().expect("batch sizes configured")).min(10_000);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let points = ojv_bench::shardbench::run_shardbench(env, cfg, batch, shard_counts);
    println!(
        "{}",
        ojv_bench::shardbench::render_shardbench(&points, cores)
    );

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(
        s,
        "  \"config\": {{ \"sf\": {}, \"seed\": {}, \"repetitions\": {}, \"batch\": {} }},",
        cfg.sf, cfg.seed, cfg.repetitions, batch
    );
    let _ = writeln!(
        s,
        "  \"machine\": {{ \"cores\": {cores}, \"note\": \"shards are maintained one after \
         another on the committing thread; the sweep measures partitioning overhead, not \
         parallel speedup\" }},"
    );
    let _ = writeln!(s, "  \"panels\": [");
    let _ = writeln!(
        s,
        "    {{ \"panel\": \"shard_scaling\", \"measurements\": ["
    );
    for (mi, p) in points.iter().enumerate() {
        let _ = writeln!(
            s,
            "      {{ \"shards\": {}, \"sf\": {}, \"batch\": {}, \"build_ns\": {}, \
             \"heap_bytes\": {}, \"min_shard_rows\": {}, \"max_shard_rows\": {}, \
             \"insert_ns\": {}, \"delete_ns\": {}, \"primary_rows\": {}, \
             \"speedup\": {:.3} }}{}",
            p.shards,
            cfg.sf,
            p.batch,
            p.build.as_nanos(),
            p.heap_bytes,
            p.min_shard_rows,
            p.max_shard_rows,
            p.insert.as_nanos(),
            p.delete.as_nanos(),
            p.primary_rows,
            p.speedup,
            if mi + 1 < points.len() { "," } else { "" },
        );
    }
    let _ = writeln!(s, "    ] }}");
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    let path = "BENCH_pr10.json";
    match std::fs::write(path, s) {
        Ok(()) => println!("machine-readable results written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn table1(env: &Env, cfg: &Config) {
    let batch = *cfg.batch_sizes.last().expect("batch sizes configured");
    let t = run_table1(env, batch);
    println!("{}", render_table1(&t));
}

fn fig5(env: &Env, cfg: &Config, deletes: bool) -> Vec<Measurement> {
    let (panel, verb) = if deletes {
        (
            "Figure 5(b). Maintenance costs for V3 — deletion",
            "Deleted",
        )
    } else {
        (
            "Figure 5(a). Maintenance costs for V3 — insertion",
            "Inserted",
        )
    };
    let ms = run_fig5(env, cfg, deletes);
    println!("{}", render_fig5(panel, &ms));
    println!("{verb} rows touched per system/batch:");
    println!("{}", render_rows(&ms));
    ms
}

fn example1(env: &Env) {
    println!("Example 1 / Section 6 foreign-key fast paths:");
    for demo in run_fast_paths(env) {
        println!(
            "  {:<62} primary={} secondary={} noop={} time={:?}",
            demo.description, demo.primary_rows, demo.secondary_rows, demo.noop, demo.time
        );
    }
    println!();
}

fn sql(env: &Env) {
    use ojv_core::analyze::analyze;
    use ojv_storage::UpdateOp;
    let a = analyze(&env.catalog, &v3_def()).expect("V3 analyzes");
    println!("Maintenance script for a lineitem insert into V3 (cf. the paper's Q1–Q4):\n");
    println!(
        "{}",
        ojv_core::sql::maintenance_script(&a, "V3", "lineitem", UpdateOp::Insert, true, true)
    );
    println!("Maintenance script for a part insert (FK fast path):\n");
    println!(
        "{}",
        ojv_core::sql::maintenance_script(&a, "V3", "part", UpdateOp::Insert, true, true)
    );
    println!("Maintenance script for an orders insert (FK no-op):\n");
    println!(
        "{}",
        ojv_core::sql::maintenance_script(&a, "V3", "orders", UpdateOp::Insert, true, true)
    );
}

fn graphs(env: &Env) {
    use ojv_core::analyze::analyze;
    // Figure 4 (Example 11): V2's maintenance graphs for orders updates,
    // without and with the L.l_orderkey → O.o_orderkey foreign key.
    let v2 = analyze(&env.catalog, &v2_def()).expect("V2 analyzes");
    let o = v2.layout.table_id("orders").expect("orders in V2");
    println!("V2 maintenance graph, update orders (Figure 4(a)):");
    println!("  {}", v2.maintenance_graph(o, false));
    println!("V2 reduced maintenance graph (Figure 4(b)):");
    println!(
        "  {}
",
        v2.maintenance_graph(o, true)
    );

    let a = analyze(&env.catalog, &v3_def()).expect("V3 analyzes");
    println!("V3 subsumption graph (cf. Figure 1(a) for V1):");
    print!("{}", a.graph);
    println!();
    for table in ["lineitem", "customer", "orders", "part"] {
        let t = a.layout.table_id(table).expect("V3 table");
        let m = a.maintenance_graph(t, true);
        println!("reduced maintenance graph, update {table}: {m}");
    }
    println!();
    let l = a.layout.table_id("lineitem").expect("lineitem in V3");
    println!("ΔV3^D plan for a lineitem update (left-deep, FK-simplified):");
    let plan = a.primary_delta_plan(l, true, true);
    print!("{}", plan.tree_string(&|t| a.layout.slot(t).name.clone()));
    println!();
}
