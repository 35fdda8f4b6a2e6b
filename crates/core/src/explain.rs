//! `EXPLAIN`-style rendering of maintenance plans with coarse cardinality
//! estimates.
//!
//! The estimates use only what the storage layer tracks for free — table
//! row counts and index fan-outs (rows per distinct key) — and a fixed
//! default selectivity for non-equijoin conjuncts. They are deliberately
//! coarse: their purpose is to show *why* a plan is delta-proportional (the
//! left-deep spine carries `|ΔT| × fan-out` rows) or not (a bushy right
//! operand carries `|R ⋈ S|` rows), mirroring the discussion around the
//! paper's Example 4.

use ojv_algebra::{Expr, JoinKind, TableId};
use ojv_exec::ExecStatsSnapshot;
use ojv_storage::Catalog;

use crate::analyze::ViewAnalysis;

/// Default selectivity for residual (non-key) conjuncts.
const RESIDUAL_SELECTIVITY: f64 = 0.3;

/// One line of an explain tree.
struct Line {
    depth: usize,
    text: String,
    est_rows: f64,
}

/// Render an expression with estimated output cardinalities, assuming the
/// delta contains `delta_rows` rows.
///
/// The footer reports the static verifier's verdict on the plan — `verified:
/// ok (N invariants)` or the first violation — so a plan dump doubles as
/// verification evidence.
pub fn explain_plan(
    catalog: &Catalog,
    analysis: &ViewAnalysis,
    expr: &Expr,
    delta_rows: usize,
) -> String {
    let mut lines = Vec::new();
    let total = walk(catalog, analysis, expr, delta_rows as f64, 0, &mut lines);
    let mut out = String::new();
    out.push_str(&format!("estimated output rows: {:.0}\n", total));
    for l in &lines {
        out.push_str(&format!(
            "{}{}  [~{:.0} rows]\n",
            "  ".repeat(l.depth),
            l.text,
            l.est_rows
        ));
    }
    let verdict = ojv_analysis::verify_layout(&analysis.layout, Some(catalog))
        .and_then(|n| Ok(n + ojv_analysis::verify_jdnf(&analysis.graph)?))
        .and_then(|n| Ok(n + ojv_analysis::verify_plan(&analysis.layout, expr, find_delta(expr))?));
    match verdict {
        Ok(n) => out.push_str(&format!("verified: ok ({n} invariants)\n")),
        Err(v) => out.push_str(&format!("verified: FAILED {v}\n")),
    }
    out
}

/// The table whose Δ/old-state leaves appear in the plan, if any — what the
/// plan is a maintenance expression *for*.
fn find_delta(expr: &Expr) -> Option<TableId> {
    match expr {
        Expr::Delta(t) | Expr::OldState(t) => Some(*t),
        Expr::Table(_) | Expr::Empty => None,
        Expr::Select(_, i) | Expr::NullIf { input: i, .. } | Expr::CleanDup(i) => find_delta(i),
        Expr::Join { left, right, .. } => find_delta(left).or_else(|| find_delta(right)),
    }
}

fn table_len(catalog: &Catalog, analysis: &ViewAnalysis, t: TableId) -> f64 {
    let name = &analysis.layout.slot(t).name;
    catalog.table(name).map(|t| t.len() as f64).unwrap_or(0.0)
}

fn walk(
    catalog: &Catalog,
    analysis: &ViewAnalysis,
    expr: &Expr,
    delta_rows: f64,
    depth: usize,
    lines: &mut Vec<Line>,
) -> f64 {
    let layout = &analysis.layout;
    match expr {
        Expr::Table(t) => {
            let n = table_len(catalog, analysis, *t);
            lines.push(Line {
                depth,
                text: format!("scan {}", layout.slot(*t).name),
                est_rows: n,
            });
            n
        }
        Expr::Delta(t) => {
            lines.push(Line {
                depth,
                text: format!("scan Δ{}", layout.slot(*t).name),
                est_rows: delta_rows,
            });
            delta_rows
        }
        Expr::OldState(t) => {
            let n = (table_len(catalog, analysis, *t) - delta_rows).max(0.0);
            lines.push(Line {
                depth,
                text: format!("scan old({})", layout.slot(*t).name),
                est_rows: n,
            });
            n
        }
        Expr::Empty => {
            lines.push(Line {
                depth,
                text: "∅ (proved empty by foreign keys)".to_string(),
                est_rows: 0.0,
            });
            0.0
        }
        Expr::Select(p, input) => {
            let idx = lines.len();
            let inner = walk(catalog, analysis, input, delta_rows, depth + 1, lines);
            let est = inner * RESIDUAL_SELECTIVITY.powi(p.atoms().len() as i32);
            lines.insert(
                idx,
                Line {
                    depth,
                    text: format!("σ [{p}]"),
                    est_rows: est,
                },
            );
            est
        }
        Expr::Join {
            kind,
            pred,
            left,
            right,
        } => {
            let idx = lines.len();
            let left_est = walk(catalog, analysis, left, delta_rows, depth + 1, lines);
            // Describe the right operand's access path.
            let (right_est, access, per_probe) = describe_right(catalog, analysis, expr, right);
            let right_idx = lines.len();
            let right_rows = walk(catalog, analysis, right, delta_rows, depth + 1, lines);
            let _ = right_rows;
            let est = match kind {
                JoinKind::Inner => left_est * per_probe * RESIDUAL_SELECTIVITY.max(0.3),
                JoinKind::LeftOuter => (left_est * per_probe).max(left_est),
                JoinKind::RightOuter => (left_est * per_probe).max(right_est),
                JoinKind::FullOuter => (left_est * per_probe).max(left_est + right_est),
                JoinKind::LeftSemi | JoinKind::LeftAnti => left_est,
            };
            let _ = right_idx;
            lines.insert(
                idx,
                Line {
                    depth,
                    text: format!("{kind} ON {pred} via {access}"),
                    est_rows: est,
                },
            );
            est
        }
        Expr::NullIf {
            null_tables,
            pred,
            input,
        } => {
            let idx = lines.len();
            let inner = walk(catalog, analysis, input, delta_rows, depth + 1, lines);
            lines.insert(
                idx,
                Line {
                    depth,
                    text: format!("λ null {null_tables} unless {pred}"),
                    est_rows: inner,
                },
            );
            inner
        }
        Expr::CleanDup(input) => {
            let idx = lines.len();
            let inner = walk(catalog, analysis, input, delta_rows, depth + 1, lines);
            lines.insert(
                idx,
                Line {
                    depth,
                    text: "δ↓ cleanup".to_string(),
                    est_rows: inner,
                },
            );
            inner
        }
    }
}

/// Render the per-operator executor counters a maintenance run collected
/// (see [`crate::maintain::MaintenanceReport::exec`]) — actual rows in/out,
/// calls, wall-clock, and heap allocations per operator, the
/// measured counterpart to [`explain_plan`]'s estimates. Operators that
/// never ran are omitted; the allocation columns read 0 unless the process
/// installed the counting allocator (`ojv_rel::CountingAlloc`).
pub fn render_exec_stats(stats: &ExecStatsSnapshot) -> String {
    let ops = [
        ("filter", &stats.filter),
        ("join build", &stats.join_build),
        ("join probe", &stats.join_probe),
        ("index join", &stats.index_join),
        ("dedup", &stats.dedup),
        ("subsume", &stats.subsume),
    ];
    let mut out = String::from("operator counters:\n");
    let mut any = false;
    for (name, op) in ops {
        if op.calls == 0 {
            continue;
        }
        any = true;
        out.push_str(&format!(
            "  {name:<11} {:>8} rows in  {:>8} rows out  {:>5} calls  {:>9.3} ms  {:>7} allocs  {:>10} B\n",
            op.rows_in,
            op.rows_out,
            op.calls,
            op.time_ns as f64 / 1e6,
            op.allocs,
            op.alloc_bytes,
        ));
    }
    if !any {
        out.push_str("  (no operators ran)\n");
    }
    out
}

/// Estimate the right operand: `(base cardinality, access-path label,
/// rows per probe)`.
fn describe_right(
    catalog: &Catalog,
    analysis: &ViewAnalysis,
    join: &Expr,
    right: &Expr,
) -> (f64, String, f64) {
    let Expr::Join { pred, left, .. } = join else {
        unreachable!("describe_right is called on joins");
    };
    let scan_table = match right {
        Expr::Table(t) | Expr::OldState(t) => Some(*t),
        Expr::Select(_, inner) => match inner.as_ref() {
            Expr::Table(t) | Expr::OldState(t) => Some(*t),
            _ => None,
        },
        _ => None,
    };
    if let Some(t) = scan_table {
        let name = analysis.layout.slot(t).name.clone();
        if let Ok(table) = catalog.table(&name) {
            let (keys, _) = pred.equi_split(left.sources(), right.sources());
            if !keys.is_empty() {
                let offset = analysis.layout.slot(t).offset;
                let local: Vec<usize> = keys
                    .iter()
                    .map(|(_, r)| analysis.layout.global(*r) - offset)
                    .collect();
                if let Some((index, _)) = table.index_on(&local) {
                    let fanout = table.index_fanout(index);
                    let label = match index {
                        ojv_storage::IndexRef::Unique => {
                            format!("unique index on {name} (fan-out 1)")
                        }
                        ojv_storage::IndexRef::Secondary(_) => {
                            format!("secondary index on {name} (fan-out ~{fanout:.1})")
                        }
                    };
                    return (table.len() as f64, label, fanout);
                }
            }
            return (
                table.len() as f64,
                format!("hash build over {name} ({} rows)", table.len()),
                1.0,
            );
        }
    }
    (0.0, "hash build over subplan".to_string(), 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::fixtures::*;

    #[test]
    fn explain_shows_index_paths_and_delta_scaling() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 20, 30);
        let a = analyze(&c, &oj_view_def()).unwrap();
        let l = a.layout.table_id("lineitem").unwrap();
        let plan = a.primary_delta_plan(l, true, true);
        let text = explain_plan(&c, &a, &plan, 100);
        assert!(text.contains("scan Δlineitem"));
        assert!(text.contains("unique index on orders"));
        assert!(text.contains("unique index on part"));
        assert!(text.contains("[~100 rows]"));
        assert!(text.contains("verified: ok ("), "got:\n{text}");
    }

    #[test]
    fn explain_reports_the_first_violation() {
        let c = example1_catalog();
        let a = analyze(&c, &oj_view_def()).unwrap();
        // A λ with no δ above it: the footer must carry the violation id.
        let t = a.layout.table_id("lineitem").unwrap();
        let bad = ojv_algebra::Expr::NullIf {
            null_tables: ojv_algebra::TableSet::singleton(t),
            pred: ojv_algebra::Pred::true_(),
            input: Box::new(ojv_algebra::Expr::Delta(t)),
        };
        let text = explain_plan(&c, &a, &bad, 5);
        assert!(
            text.contains("verified: FAILED [LEFTDEEP-MISSING-DELTA]"),
            "got:\n{text}"
        );
    }

    #[test]
    fn explain_marks_fk_proved_empty_plans() {
        let c = example1_catalog();
        let a = analyze(&c, &oj_view_def()).unwrap();
        // Build an artificial empty plan.
        let text = explain_plan(&c, &a, &ojv_algebra::Expr::Empty, 5);
        assert!(text.contains("proved empty by foreign keys"));
        assert!(text.contains("estimated output rows: 0"));
    }

    #[test]
    fn exec_stats_render_actual_counters() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut view = crate::materialize::MaterializedView::create(&c, oj_view_def()).unwrap();
        let up = c
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        let policy = crate::policy::MaintenancePolicy::paper();
        let report = maintain_alone(&mut view, &c, &up, &policy).unwrap();
        let text = render_exec_stats(&report.exec);
        // The lineitem insert probes part and orders through their indexes.
        assert!(text.contains("index join"), "got:\n{text}");
        assert!(!text.contains("no operators ran"));
        let empty = render_exec_stats(&ExecStatsSnapshot::default());
        assert!(empty.contains("no operators ran"));
    }

    #[test]
    fn explain_contrasts_bushy_and_left_deep() {
        let mut c = v1_catalog();
        for (name, n) in [("r", 50i64), ("s", 60), ("t", 70), ("u", 80)] {
            let rows: Vec<ojv_rel::Row> = (1..=n).map(|i| v1_row(i, i % 10, i)).collect();
            c.insert(name, rows).unwrap();
        }
        let a = analyze(&c, &v1_view_def()).unwrap();
        let t = a.layout.table_id("t").unwrap();
        let bushy = a.primary_delta_plan(t, false, false);
        let left_deep = a.primary_delta_plan(t, false, true);
        let b = explain_plan(&c, &a, &bushy, 2);
        let ld = explain_plan(&c, &a, &left_deep, 2);
        // The bushy plan hash-builds over a subplan (the R fo S join);
        // the left-deep plan probes base tables only.
        assert!(b.contains("hash build over subplan"));
        assert!(!ld.contains("hash build over subplan"));
    }
}
