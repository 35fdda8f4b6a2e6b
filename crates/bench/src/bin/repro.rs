//! Reproduce the paper's tables and figures.
//!
//! ```text
//! repro [--sf 0.05] [--seed 42] [--reps 3] [--quick] \
//!       [table1|fig5a|fig5b|example1|graphs|sql|all|ablations]
//! ```
//!
//! * `table1` — Table 1: term cardinalities of V3 and rows affected by a
//!   lineitem insert batch,
//! * `fig5a` / `fig5b` — Figure 5(a)/(b): maintenance cost for lineitem
//!   insertions/deletions across batch sizes, for the core view, the
//!   outer-join view, and the GK baseline,
//! * `example1` — the §1/§6 foreign-key fast paths,
//! * `graphs` — the subsumption and maintenance graphs of Figures 1 and 4,
//! * `sql` — the maintenance SQL for lineitem, part and orders inserts
//!   (cf. the paper's Q1–Q4),
//! * `all` — everything above, in the order of `repro_sf005.txt`,
//! * `ablations` — DESIGN.md's A1–A4 (left-deep, FK, §5.2 vs §5.3,
//!   aggregated vs plain V3) and the cost of V3's static analysis.
//!
//! `fig5a`, `fig5b` and `all` also write the measured points, with
//! per-operator executor counters, to `repro/fig5.json` in the cargo target
//! directory that holds the binary (`target/repro/fig5.json`), wherever it
//! runs from.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ojv_bench::harness::{
    run_ablations, run_analysis_cost, run_fast_paths, run_fig5, run_table1, Config, Env,
    Measurement,
};
use ojv_bench::report::{render_ablations, render_fig5, render_rows, render_table1};
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
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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
        "all" => {
            graphs(&env);
            sql(&env);
            example1(&env);
            table1(&env, &cfg);
            json_panels.push(("fig5a_insert", fig5(&env, &cfg, false)));
            json_panels.push(("fig5b_delete", fig5(&env, &cfg, true)));
        }
        "ablations" => {
            let arms = run_ablations(&env, &cfg);
            let cost = run_analysis_cost(&env, &cfg);
            println!("{}", render_ablations(&arms, &cost, cfg.repetitions));
        }
        other => {
            eprintln!(
                "unknown command {other}; use table1|fig5a|fig5b|example1|graphs|sql|all|ablations"
            );
            std::process::exit(2);
        }
    }
    if !json_panels.is_empty() {
        let json = render_json(&cfg, &json_panels);
        match std::env::current_exe().and_then(|exe| write_fig5_json(&exe, &json)) {
            Ok(path) => println!("machine-readable results written to {}", path.display()),
            Err(e) => eprintln!("could not write the fig5 JSON: {e}"),
        }
    }
}

/// Write the Figure 5 JSON to `repro/fig5.json` in the cargo target
/// directory that holds `exe` (`target/release/repro` →
/// `target/repro/fig5.json`), creating the directory. The target directory
/// is ignored by git, so no run, from any working directory, overwrites a
/// tracked `BENCH_pr*.json`.
fn write_fig5_json(exe: &Path, json: &str) -> std::io::Result<PathBuf> {
    let target = exe
        .ancestors()
        .nth(2)
        .ok_or_else(|| std::io::Error::other("repro binary lies outside a target directory"))?;
    let dir = target.join("repro");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("fig5.json");
    std::fs::write(&path, json)?;
    Ok(path)
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
                m.report.primary_rows,
                m.report.secondary_rows,
            );
            let ops = [
                ("filter", &m.report.exec.filter),
                ("join_build", &m.report.exec.join_build),
                ("join_probe", &m.report.exec.join_probe),
                ("index_join", &m.report.exec.index_join),
                ("dedup", &m.report.exec.dedup),
                ("subsume", &m.report.exec.subsume),
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
    for (what, time, r) in run_fast_paths(env) {
        println!(
            "  {what:<62} primary={} secondary={} noop={} time={time:?}",
            r.primary_rows, r.secondary_rows, r.noop
        );
    }
    println!();
}

fn sql(env: &Env) {
    use ojv_core::analyze::analyze;
    use ojv_core::compile::PlanConfig;
    use ojv_storage::UpdateOp;
    let a = analyze(&env.catalog, &v3_def()).expect("V3 analyzes");
    let cfg = PlanConfig {
        use_fk: true,
        left_deep: true,
    };
    for (what, table) in [
        (
            "a lineitem insert into V3 (cf. the paper's Q1–Q4)",
            "lineitem",
        ),
        ("a part insert (FK fast path)", "part"),
        ("an orders insert (FK no-op)", "orders"),
    ] {
        println!("Maintenance script for {what}:\n");
        let script =
            ojv_core::sql::maintenance_script(&a, &env.catalog, "V3", table, UpdateOp::Insert, cfg);
        println!("{}", script.expect("V3's plans compile"));
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_json_lands_in_the_binarys_target_dir() {
        let dir = std::env::temp_dir().join(format!("repro-json-{}", std::process::id()));
        let exe = dir.join("target").join("release").join("repro");
        let path = write_fig5_json(&exe, "{}\n").unwrap();
        assert_eq!(path, dir.join("target/repro/fig5.json"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}\n");
        let top: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(top, ["target"], "nothing beside target/");
        std::fs::remove_dir_all(&dir).ok();
        assert!(write_fig5_json(Path::new("repro"), "{}").is_err());
    }
}
