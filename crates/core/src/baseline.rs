//! Baselines the paper compares against.
//!
//! * [`maintain_recompute`] — recompute the view from scratch and diff; the
//!   correctness oracle and an upper-bound baseline.
//! * [`maintain_gk`] — a Griffin–Kumar-style change-propagation baseline
//!   (reference \[2\] in the paper). It is faithful to the three cost characteristics
//!   the paper attributes to GK (§8): (a) delta and fix-up expressions join
//!   **base tables only**, with no index-aware left-deep plans, so
//!   intermediate results scale with the database rather than the delta;
//!   (b) the maintained view itself is never consulted; (c) no
//!   null-rejection or foreign-key reasoning prunes unaffected terms, so
//!   (empty) deltas are computed for every term of the *unpruned* normal
//!   form.

use std::time::Instant;

use ojv_algebra::{
    normalize_unpruned, Atom, Expr, Pred, SubsumptionGraph, TableId, TableSet, Term,
};
use ojv_exec::{eval_expr_buf, DeltaInput, ExecCtx};
use ojv_rel::{key_of, Datum, FxHashSet, Row};
use ojv_storage::{Catalog, Update, UpdateOp};

use crate::error::Result;
use crate::maintain::MaintenanceReport;
use crate::materialize::MaterializedView;

/// Recompute the view from scratch, diff against the stored contents by
/// view key, and apply the difference.
pub fn maintain_recompute(
    view: &mut MaterializedView,
    catalog: &Catalog,
    update: &Update,
) -> Result<MaintenanceReport> {
    let mut report = MaintenanceReport {
        view: view.name().to_string(),
        table: update.table.clone(),
        update_rows: update.rows.len(),
        ..Default::default()
    };
    let start = Instant::now();
    let ctx = ExecCtx::new(catalog, &view.analysis.layout);
    let fresh = eval_expr_buf(&ctx, &view.analysis.expr)?.into_rows();
    report.primary_compute = start.elapsed();

    let start = Instant::now();
    let name = view.name().to_string();
    let fresh_keys: FxHashSet<Vec<Datum>> =
        fresh.iter().map(|r| view.store().key_of_row(r)).collect();
    let stale: Vec<Row> = view
        .wide_rows()
        .iter()
        .filter(|r| !fresh_keys.contains(&view.store().key_of_row(r)))
        .cloned()
        .collect();
    for row in stale {
        view.store_mut().delete(&row, &name)?;
        report.secondary_rows += 1;
    }
    for row in fresh {
        if !view.store().contains_row(&row) {
            view.store_mut().insert(row, &name)?;
            report.primary_rows += 1;
        }
    }
    report.primary_apply = start.elapsed();
    Ok(report)
}

/// Griffin–Kumar-style maintenance: per-term change propagation computed
/// from base tables only.
pub fn maintain_gk(
    view: &mut MaterializedView,
    catalog: &Catalog,
    update: &Update,
) -> Result<MaintenanceReport> {
    let mut report = MaintenanceReport {
        view: view.name().to_string(),
        table: update.table.clone(),
        update_rows: update.rows.len(),
        ..Default::default()
    };
    let Some(t) = view.analysis.layout.table_id(&update.table) else {
        report.noop = true;
        return Ok(report);
    };
    // GK works over the unpruned normal form: no FK or null-rejection
    // shortcuts (cost characteristic (c)).
    let terms = normalize_unpruned(&view.analysis.expr);
    let graph = SubsumptionGraph::new(terms.clone());
    // Cloned so the execution context can borrow it while the store mutates.
    let layout = view.analysis.layout.clone();

    let delta_input = DeltaInput {
        table: t,
        rows: &update.rows,
    };
    let mut exec = ExecCtx::with_delta(catalog, &layout, delta_input);
    // Cost characteristic (a): no index-aware plans.
    exec.prefer_index_joins = false;

    let direct: Vec<usize> = (0..terms.len())
        .filter(|&i| terms[i].tables.contains(t))
        .collect();
    report.direct_terms = direct.len();

    // Phase 1: full per-term deltas ∆E_i for every direct term, computed
    // from base tables (hash joins over full scans).
    let start = Instant::now();
    let mut term_deltas: Vec<Option<Vec<Row>>> = vec![None; terms.len()];
    for &i in &direct {
        let expr = term_expr(&terms[i], t, TermLeaf::Delta);
        term_deltas[i] = Some(eval_expr_buf(&exec, &expr)?.into_rows());
    }
    // Net deltas: a direct term's delta row is net unless a parent's delta
    // covers its key (parents of direct terms are direct).
    let name = view.name().to_string();
    let mut primary_rows = 0usize;
    for &i in &direct {
        let ti_keys = layout.term_key_cols(terms[i].tables);
        let mut covered: FxHashSet<Vec<Datum>> = FxHashSet::default();
        for &p in graph.parents(i) {
            if let Some(rows) = &term_deltas[p] {
                for r in rows {
                    covered.insert(key_of(r, &ti_keys));
                }
            }
        }
        let rows = term_deltas[i].as_ref().expect("computed above");
        for row in rows {
            if covered.contains(&key_of(row, &ti_keys)) {
                continue;
            }
            // Project onto the term's tables: ∆E_i rows may carry no other
            // slots by construction, but keep this defensive.
            let mut net = row.clone();
            layout.null_out(layout.all_tables().difference(terms[i].tables), &mut net);
            primary_rows += 1;
            match update.op {
                UpdateOp::Insert => {
                    view.store_mut().insert(net, &name)?;
                }
                UpdateOp::Delete => {
                    view.store_mut().delete(&net, &name)?;
                }
            }
        }
    }
    report.primary_rows = primary_rows;
    report.primary_compute = start.elapsed();

    // Phase 2: orphan fix-ups for indirect terms, with orphan status decided
    // by recomputing parent term extents from base tables (cost
    // characteristic (b): the view is never consulted).
    let start = Instant::now();
    for i in 0..terms.len() {
        if terms[i].tables.contains(t) {
            continue;
        }
        let pard: Vec<usize> = graph
            .parents(i)
            .iter()
            .copied()
            .filter(|&p| terms[p].tables.contains(t))
            .collect();
        if pard.is_empty() {
            continue;
        }
        report.indirect_terms += 1;
        let ti = terms[i].tables;
        let ti_keys = layout.term_key_cols(ti);

        // Candidates: key projections of the direct parents' deltas.
        let mut candidates: Vec<Row> = Vec::new();
        let mut seen: FxHashSet<Vec<Datum>> = FxHashSet::default();
        for &p in &pard {
            for row in term_deltas[p].as_ref().expect("parents are direct") {
                let key = key_of(row, &ti_keys);
                if seen.insert(key) {
                    let mut c = row.clone();
                    layout.null_out(layout.all_tables().difference(ti), &mut c);
                    candidates.push(c);
                }
            }
        }
        if candidates.is_empty() {
            continue;
        }

        // Coverage check against every parent's extent, computed from base
        // tables: the OLD state for insertions ("was it an orphan?"), the
        // NEW state for deletions ("is it an orphan now?").
        let mut covered: FxHashSet<Vec<Datum>> = FxHashSet::default();
        for &p in graph.parents(i) {
            let leaf = if terms[p].tables.contains(t) {
                match update.op {
                    UpdateOp::Insert => TermLeaf::OldState,
                    UpdateOp::Delete => TermLeaf::Table,
                }
            } else {
                TermLeaf::Table
            };
            let expr = term_expr(&terms[p], t, leaf);
            for row in eval_expr_buf(&exec, &expr)?.iter() {
                covered.insert(key_of(row, &ti_keys));
            }
        }
        for c in candidates {
            if covered.contains(&key_of(&c, &ti_keys)) {
                continue;
            }
            report.secondary_rows += 1;
            match update.op {
                UpdateOp::Insert => {
                    // Was an orphan, now subsumed: delete from the view.
                    view.store_mut().delete(&c, &name)?;
                }
                UpdateOp::Delete => {
                    // Newly orphaned: insert into the view.
                    view.store_mut().insert(c, &name)?;
                }
            }
        }
    }
    report.secondary_time = start.elapsed();
    Ok(report)
}

/// Which leaf stands in for the updated table in a term expression.
#[derive(Clone, Copy, PartialEq)]
enum TermLeaf {
    /// `ΔT` — computing the term's delta.
    Delta,
    /// `T` current state.
    Table,
    /// `T ▷ ΔT` — the pre-insert state.
    OldState,
}

/// Build an inner-join tree evaluating term `σ_{p}(T_{i1} × … × T_{im})`
/// from base tables, with `leaf` standing in for table `t`.
///
/// Tables are joined greedily along connecting conjuncts starting from the
/// updated table (or the first source table when `t` is not a source).
fn term_expr(term: &Term, t: TableId, leaf: TermLeaf) -> Expr {
    let mut atoms: Vec<Atom> = term.pred.atoms().to_vec();
    let has_t = term.tables.contains(t);
    let start = if has_t {
        t
    } else {
        term.tables.iter().next().expect("terms are non-empty")
    };
    let mut expr = if has_t {
        match leaf {
            TermLeaf::Delta => Expr::Delta(t),
            TermLeaf::Table => Expr::Table(t),
            TermLeaf::OldState => Expr::OldState(t),
        }
    } else {
        Expr::Table(start)
    };
    let mut joined = TableSet::singleton(start);
    // Single-table atoms on the start table become a selection on the leaf.
    let (applicable, rest): (Vec<_>, Vec<_>) = atoms
        .into_iter()
        .partition(|a| a.tables().is_subset_of(joined));
    if !applicable.is_empty() {
        expr = Expr::select(Pred::new(applicable), expr);
    }
    atoms = rest;

    let mut remaining: Vec<TableId> = term.tables.remove(start).iter().collect();
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|&x| {
                atoms
                    .iter()
                    .any(|a| a.tables().contains(x) && a.tables().is_subset_of(joined.insert(x)))
            })
            .unwrap_or(0);
        let x = remaining.swap_remove(pick);
        let next = joined.insert(x);
        let (applicable, rest): (Vec<_>, Vec<_>) = atoms
            .into_iter()
            .partition(|a| a.tables().is_subset_of(next) && a.tables().contains(x));
        atoms = rest;
        expr = Expr::inner(Pred::new(applicable), expr, Expr::Table(x));
        joined = next;
    }
    debug_assert!(atoms.is_empty(), "unplaced term atoms");
    expr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;
    use crate::maintain::verify_against_recompute;
    use crate::policy::MaintenancePolicy;

    #[test]
    fn recompute_baseline_is_correct() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut view = MaterializedView::create(&c, oj_view_def()).unwrap();
        let up = c
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        maintain_recompute(&mut view, &c, &up).unwrap();
        assert!(verify_against_recompute(&view, &c));
        let down = c
            .delete(
                "lineitem",
                &[vec![ojv_rel::Datum::Int(3), ojv_rel::Datum::Int(1)]],
            )
            .unwrap();
        maintain_recompute(&mut view, &c, &down).unwrap();
        assert!(verify_against_recompute(&view, &c));
    }

    #[test]
    fn gk_matches_our_maintenance_on_example_1() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut ours = MaterializedView::create(&c, oj_view_def()).unwrap();
        let mut gk = ours.clone();
        let up = c
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        maintain_alone(&mut ours, &c, &up, &MaintenancePolicy::paper());
        maintain_gk(&mut gk, &c, &up).unwrap();
        assert!(verify_against_recompute(&gk, &c));
        let mut a: Vec<Row> = ours.wide_rows().to_vec();
        let mut b: Vec<Row> = gk.wide_rows().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn gk_handles_deletes() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut view = MaterializedView::create(&c, oj_view_def()).unwrap();
        for ln in [1i64, 2] {
            let up = c
                .delete(
                    "lineitem",
                    &[vec![ojv_rel::Datum::Int(2), ojv_rel::Datum::Int(ln)]],
                )
                .unwrap();
            maintain_gk(&mut view, &c, &up).unwrap();
            assert!(verify_against_recompute(&view, &c));
        }
    }

    #[test]
    fn gk_handles_part_and_orders_updates() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut view = MaterializedView::create(&c, oj_view_def()).unwrap();
        let up = c.insert("part", vec![part_row(100, "p", 1.0)]).unwrap();
        maintain_gk(&mut view, &c, &up).unwrap();
        assert!(verify_against_recompute(&view, &c));
        let up = c.insert("orders", vec![order_row(100, 5)]).unwrap();
        maintain_gk(&mut view, &c, &up).unwrap();
        assert!(verify_against_recompute(&view, &c));
        let down = c
            .delete("orders", &[vec![ojv_rel::Datum::Int(100)]])
            .unwrap();
        maintain_gk(&mut view, &c, &down).unwrap();
        assert!(verify_against_recompute(&view, &c));
    }

    #[test]
    fn gk_on_v1_update_sequences() {
        let mut c = v1_catalog();
        for (name, n) in [("r", 6i64), ("s", 5), ("t", 7), ("u", 4)] {
            let rows: Vec<Row> = (1..=n).map(|i| v1_row(i, i % 4, i)).collect();
            c.insert(name, rows).unwrap();
        }
        let mut view = MaterializedView::create(&c, v1_view_def()).unwrap();
        for (name, id, jc) in [
            ("t", 100i64, 1i64),
            ("r", 101, 2),
            ("s", 102, 3),
            ("u", 103, 0),
        ] {
            let up = c.insert(name, vec![v1_row(id, jc, 0)]).unwrap();
            maintain_gk(&mut view, &c, &up).unwrap();
            assert!(
                verify_against_recompute(&view, &c),
                "GK diverged after insert into {name}"
            );
        }
        for (name, id) in [("t", 100i64), ("u", 2), ("s", 1), ("r", 3)] {
            let up = c.delete(name, &[vec![ojv_rel::Datum::Int(id)]]).unwrap();
            maintain_gk(&mut view, &c, &up).unwrap();
            assert!(
                verify_against_recompute(&view, &c),
                "GK diverged after delete from {name}"
            );
        }
    }
}
