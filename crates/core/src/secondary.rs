//! Computation of the secondary delta `ΔV^I` (paper §5).
//!
//! The secondary delta fixes up *indirectly affected* terms: orphaned tuples
//! that stop being orphans after an insertion (and must be deleted from the
//! view), or tuples that become orphans after a deletion (and must be
//! inserted). Two strategies are implemented:
//!
//! * **from the view** (§5.2) — the orphan test probes the maintained view
//!   itself, exploiting its unique key (an orphan of term `T_i` has a view
//!   key that is null everywhere outside `T_i`, so the probe is an index
//!   lookup — this is what the paper's Q3/Q4 statements do with V3's
//!   clustered index);
//! * **from base tables** (§5.3) — the orphan test anti-joins candidate
//!   tuples against each directly affected parent's "rest expression"
//!   `E'_{ip}`, built from base tables and the pre/post state of the updated
//!   table.
//!
//! The maintenance procedure picks per term, at compile time: from the view
//! whenever the view outputs the columns the term needs (§5.2 column
//! availability), from base tables otherwise. Everything either strategy
//! reads besides the rows — term keys, parent source sets, the `Q_i` null
//! filter and the §5.3 join chains — is compiled into the term's
//! [`CompiledIndirect`]; this module only evaluates.

use ojv_algebra::JoinKind;
use ojv_exec::ops::semi_anti_by_key_buf;
use ojv_exec::{join_buf_expr, ExecCtx, ExecResult, ViewLayout};
use ojv_rel::postable::{idx, pos32};
use ojv_rel::{key_eq_rows, key_hash, Datum, PosTable, RowBuf};

use crate::compile::{ChainStep, CompiledIndirect};
use crate::materialize::ViewStore;

/// `δ π_{T_i.*}` fed one delta row at a time: the distinct `T_i`
/// projections in first-seen order, deduplicated on the term key by a
/// [`PosTable`] verified against the candidates already held. Each
/// projection is the delta row copied into `rows` with every table outside
/// `T_i` nulled in place.
struct Candidates<'a> {
    layout: &'a ViewLayout,
    ind: &'a CompiledIndirect,
    seen: PosTable,
    rows: RowBuf,
}

impl<'a> Candidates<'a> {
    fn new(layout: &'a ViewLayout, ind: &'a CompiledIndirect) -> Self {
        Candidates {
            layout,
            ind,
            seen: PosTable::default(),
            rows: RowBuf::new(layout.width()),
        }
    }

    fn offer(&mut self, row: &[Datum]) {
        let (keys, rows) = (&self.ind.key_cols, &self.rows);
        let hash = key_hash(row, keys);
        if self
            .seen
            .find(hash, |c| key_eq_rows(rows.row(idx(c)), keys, row, keys))
            .is_none()
        {
            let i = self.rows.len();
            self.seen.insert(hash, pos32(i));
            self.rows.push_row(row);
            self.layout.null_out(self.ind.nulled, self.rows.row_mut(i));
        }
    }
}

/// §5.2: the secondary delta `∆D_i` of the indirect term `ind`, computed
/// from the view itself.
///
/// * Insertion: `∆D_i = σ_{nn(T_i)∧n(S_i)}(V + ∆V^D) ⋉_{eq(T_i)} σ_{P_i} ∆V^D`,
///   the prior orphans to delete, as `T_i` projections carrying their view
///   keys. An orphan of `T_i` has the unique view key "`T_i` keys ++
///   nulls", which each qualifying delta row determines completely, so the
///   semijoin is one key probe per candidate.
/// * Deletion: `∆D_i = (δ π_{T_i.*} σ_{P_i} ∆V^D) ▷_{eq(T_i)} (V − ∆V^D)`,
///   the new orphans to insert (wide, `T_i` slots only). The anti join is
///   one lookup per candidate in the term-key count index (the paper's
///   `V4_idx`) the view keeps for every term with a parent — and every
///   indirect term has one, so there is no scan fallback. `store` must
///   already hold the orphans of the terms maintained before this one
///   (supersets first, see `MaintenanceGraph::build`), since those keep
///   covering their sub-tuples.
pub fn from_view(
    layout: &ViewLayout,
    store: &ViewStore,
    ind: &CompiledIndirect,
    primary: &RowBuf,
    insert: bool,
) -> RowBuf {
    // `σ_{P_i}`: the rows added to (or removed from) some directly affected
    // parent.
    let mut cands = Candidates::new(layout, ind);
    for row in primary {
        let sources = layout.sources_of_row(row);
        if ind.pard.iter().any(|p| p.tables.is_subset_of(sources)) {
            cands.offer(row);
        }
    }
    let mut rows = cands.rows;
    let keep: Vec<bool> = rows
        .iter()
        .map(|c| {
            if insert {
                store.contains_row(c)
            } else {
                store
                    .count_by_row(&ind.key_cols, c)
                    .expect("every term with a parent has a term-key count index")
                    == 0
            }
        })
        .collect();
    rows.retain_rows(&keep);
    rows
}

/// §5.3: compute `∆D_i` from base tables, `ΔT`, and the primary delta.
///
/// `insert` selects between the insertion formula (anti joins against the
/// *old* state `T± ▷ ΔT`, returning prior orphans to delete) and the
/// deletion formula (anti joins against the *new* state `T±`, returning new
/// orphans to insert). Both share the candidate extraction
/// `δ π_{T_i.*} σ_{Q_i} ∆V^D`, where `Q_i = nn(T_i) ∧ n(tables added by
/// parents that are NOT directly affected)`: a candidate covered by an
/// unchanged parent term was not, and does not become, an orphan.
pub fn from_base(
    exec: &ExecCtx<'_>,
    ind: &CompiledIndirect,
    primary: &RowBuf,
    insert: bool,
) -> ExecResult<RowBuf> {
    let mut cands = Candidates::new(exec.layout, ind);
    for row in primary {
        let sources = exec.layout.sources_of_row(row);
        if ind.tables.is_subset_of(sources) && sources.intersect(ind.unchanged).is_empty() {
            cands.offer(row);
        }
    }
    let mut candidates = cands.rows;
    // Anti join against every directly affected parent's rest expression.
    for parent in &ind.pard {
        if candidates.is_empty() {
            break;
        }
        candidates = anti_join_rest_expression(exec, ind, &parent.chain, candidates, insert)?;
    }
    Ok(candidates)
}

/// Compute `candidates ▷_{q_ip} E'_{ip}` (§5.3) without materializing the
/// rest expression: join the candidates through the parent's compiled
/// `chain` (index-nested-loop where an index covers the equijoin columns,
/// e.g. the FK secondary indexes), then anti-filter the candidates by which
/// term keys survived it. The chain and the final anti join run on batches
/// from end to end.
fn anti_join_rest_expression(
    exec: &ExecCtx<'_>,
    ind: &CompiledIndirect,
    chain: &[ChainStep],
    candidates: RowBuf,
    insert: bool,
) -> ExecResult<RowBuf> {
    let mut rows = candidates.clone();
    let mut joined = ind.tables;
    for step in chain {
        if rows.is_empty() {
            break;
        }
        let leaf = step.leaf(insert);
        rows = join_buf_expr(exec, JoinKind::Inner, &step.pred, rows, joined, leaf)?;
        joined = joined.insert(step.table);
    }
    let keys = &ind.key_cols;
    Ok(semi_anti_by_key_buf(
        candidates,
        keys,
        rows.iter(),
        keys,
        true,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::PlanConfig;
    use crate::fixtures::*;
    use crate::maintain::{verify_against_recompute, Maintained, ViewSink};
    use crate::materialize::MaterializedView;
    use ojv_exec::{eval_expr_buf, DeltaInput};
    use ojv_rel::Row;
    use ojv_storage::{Catalog, Update, UpdateOp};

    /// One maintenance step by hand, computing every indirect term's `∆D_i`
    /// both from the view (§5.2) and from base tables (§5.3): the two must
    /// return the same orphan set. Returns (terms compared, orphans found).
    fn both_ways_agree(
        view: &mut MaterializedView,
        catalog: &Catalog,
        update: &Update,
        use_fk: bool,
    ) -> (usize, usize) {
        let t = view.analysis.layout.table_id(&update.table).unwrap();
        let cfg = PlanConfig {
            use_fk,
            left_deep: true,
        };
        let compiled = view.compiled_plan(catalog, t, cfg).unwrap();
        let analysis = view.analysis.clone();
        let delta = DeltaInput {
            table: t,
            rows: &update.rows,
        };
        let exec = ExecCtx::with_delta(catalog, &analysis.layout, delta);
        let primary = match &compiled.plan {
            None => RowBuf::new(analysis.layout.width()),
            Some(plan) => eval_expr_buf(&exec, plan).unwrap(),
        };
        let name = view.name().to_string();
        let insert = update.op == UpdateOp::Insert;
        view.store_mut().apply(&primary, insert, &name).unwrap();
        let (mut terms, mut orphans) = (0, 0);
        for ind in &compiled.indirect {
            assert!(ind.from_view_ok, "full views pass §5.2 availability");
            let by_view = from_view(&analysis.layout, view.store(), ind, &primary, insert);
            let by_base = from_base(&exec, ind, &primary, insert).unwrap();
            let (mut a, mut b) = (by_view.to_rows(), by_base.to_rows());
            a.sort();
            b.sort();
            assert_eq!(
                a,
                b,
                "{}: term {} after {:?} of {}",
                view.name(),
                ind.term,
                update.op,
                update.table
            );
            terms += 1;
            orphans += a.len();
            view.store_mut().apply(&by_view, !insert, &name).unwrap();
        }
        assert!(verify_against_recompute(view, catalog));
        (terms, orphans)
    }

    /// §5.2 and §5.3 compute the same `∆D_i` for every indirect term of
    /// Example 1 and V1, over the maintenance tests' insert/delete matrices,
    /// with and without the FK-reduced maintenance graph.
    #[test]
    fn from_view_and_from_base_agree_on_every_term() {
        let (mut terms, mut orphans) = (0, 0);
        let mut tally = |(t, o): (usize, usize)| {
            terms += t;
            orphans += o;
        };
        for use_fk in [true, false] {
            let mut c = example1_catalog();
            populate_example1(&mut c, 8, 9);
            let mut view = MaterializedView::create(&c, oj_view_def()).unwrap();
            let up = c
                .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
                .unwrap();
            tally(both_ways_agree(&mut view, &c, &up, use_fk));
            for ln in [1i64, 2] {
                let up = c
                    .delete("lineitem", &[vec![Datum::Int(2), Datum::Int(ln)]])
                    .unwrap();
                tally(both_ways_agree(&mut view, &c, &up, use_fk));
            }

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
                tally(both_ways_agree(&mut view, &c, &up, use_fk));
            }
            for (name, id) in [("t", 100i64), ("u", 2), ("s", 1), ("r", 3)] {
                let up = c.delete(name, &[vec![Datum::Int(id)]]).unwrap();
                tally(both_ways_agree(&mut view, &c, &up, use_fk));
            }
        }
        assert!(terms > 0 && orphans > 0, "{terms} terms, {orphans} orphans");
    }
}
