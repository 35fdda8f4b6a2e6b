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
//! availability), from base tables otherwise.

use ojv_algebra::{Expr, JoinKind, Pred, TableId, TableSet, Term};
use ojv_exec::ops::semi_anti_by_key_buf;
use ojv_exec::{join_buf_expr, ExecCtx, ExecResult, ViewLayout};
use ojv_rel::postable::{idx, pos32};
use ojv_rel::{key_eq_rows, key_hash, Datum, PosTable, RowBuf};

use crate::maintain::IndirectTermView;
use crate::materialize::ViewStore;

/// Static context shared by the secondary-delta computations of one
/// maintenance run.
pub struct SecondaryCtx<'a> {
    pub layout: &'a ViewLayout,
    pub terms: &'a [Term],
    /// The updated table.
    pub updated: TableId,
}

impl SecondaryCtx<'_> {
    fn parent_sources(&self, parents: &[usize]) -> Vec<TableSet> {
        parents.iter().map(|&k| self.terms[k].tables).collect()
    }
}

/// `δ π_{T_i.*}` fed one delta row at a time: the distinct `T_i`
/// projections in first-seen order, deduplicated on the term key by a
/// [`PosTable`] verified against the candidates already held. Each
/// projection is the delta row copied into `rows` with every table outside
/// `T_i` nulled in place.
struct Candidates {
    /// The tables outside `T_i`.
    nulled: TableSet,
    ti_keys: Vec<usize>,
    seen: PosTable,
    rows: RowBuf,
}

impl Candidates {
    fn new(ctx: &SecondaryCtx<'_>, ti: TableSet) -> Self {
        Candidates {
            nulled: ctx.layout.all_tables().difference(ti),
            ti_keys: ctx.layout.term_key_cols(ti),
            seen: PosTable::default(),
            rows: RowBuf::new(ctx.layout.width()),
        }
    }

    fn offer(&mut self, ctx: &SecondaryCtx<'_>, row: &[Datum]) {
        let (keys, rows) = (&self.ti_keys, &self.rows);
        let hash = key_hash(row, keys);
        if self
            .seen
            .find(hash, |c| key_eq_rows(rows.row(idx(c)), keys, row, keys))
            .is_none()
        {
            let i = self.rows.len();
            self.seen.insert(hash, pos32(i));
            self.rows.push_row(row);
            ctx.layout.null_out(self.nulled, self.rows.row_mut(i));
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
    ctx: &SecondaryCtx<'_>,
    store: &ViewStore,
    ind: &IndirectTermView<'_>,
    primary: &RowBuf,
    insert: bool,
) -> RowBuf {
    // `σ_{P_i}`: the rows added to (or removed from) some directly affected
    // parent.
    let pard_sources = ctx.parent_sources(ind.pard);
    let mut cands = Candidates::new(ctx, ctx.terms[ind.term].tables);
    for row in primary {
        let sources = ctx.layout.sources_of_row(row);
        if pard_sources.iter().any(|tk| tk.is_subset_of(sources)) {
            cands.offer(ctx, row);
        }
    }
    let Candidates {
        ti_keys, mut rows, ..
    } = cands;
    let keep: Vec<bool> = rows
        .iter()
        .map(|c| {
            if insert {
                store.contains_row(c)
            } else {
                store
                    .count_by_row(&ti_keys, c)
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
/// `δ π_{T_i.*} σ_{Q_i} ∆V^D`.
pub fn from_base(
    ctx: &SecondaryCtx<'_>,
    exec: &ExecCtx<'_>,
    ind: &IndirectTermView<'_>,
    primary: &RowBuf,
    insert: bool,
) -> ExecResult<RowBuf> {
    let ti = ctx.terms[ind.term].tables;

    // Q_i = nn(T_i) ∧ n(tables added by parents that are NOT directly
    // affected): a candidate covered by an unchanged parent term was not,
    // and does not become, an orphan.
    let unchanged_parent_tables: TableSet = ind
        .all_parents
        .iter()
        .filter(|p| !ind.pard.contains(p))
        .map(|&k| ctx.terms[k].tables.difference(ti))
        .fold(TableSet::empty(), TableSet::union);

    let mut cands = Candidates::new(ctx, ti);
    for row in primary {
        let sources = ctx.layout.sources_of_row(row);
        if ti.is_subset_of(sources) && sources.intersect(unchanged_parent_tables).is_empty() {
            cands.offer(ctx, row);
        }
    }
    let mut candidates = cands.rows;

    // Anti join against every directly affected parent's rest expression,
    // evaluated as a candidate-driven semijoin chain (see
    // `anti_join_rest_expression`).
    for &k in ind.pard {
        if candidates.is_empty() {
            break;
        }
        candidates = anti_join_rest_expression(ctx, exec, ti, &ctx.terms[k], candidates, insert)?;
    }
    Ok(candidates)
}

/// Compute `candidates ▷_{q_ip} E'_{ip}` (§5.3) without materializing the
/// rest expression.
///
/// Evaluating `E'_{ip}` standalone joins base tables in full — exactly the
/// cost the paper criticizes GK for. A cost-aware optimizer instead drives
/// the probe from the (small) candidate set: we join the candidates through
/// the parent's tables along connecting conjuncts (index-nested-loop where
/// an index covers the equijoin columns, e.g. the FK secondary indexes),
/// then anti-filter the candidates by which term keys survived the chain.
/// The updated table's leaf is its *old* state for the insertion formula
/// (`T ▷ ΔT`, probed with delta-key exclusion) and its new state for the
/// deletion formula. The chain and the final anti join run on batches from
/// end to end.
fn anti_join_rest_expression(
    ctx: &SecondaryCtx<'_>,
    exec: &ExecCtx<'_>,
    ti: TableSet,
    parent: &Term,
    candidates: RowBuf,
    insert: bool,
) -> ExecResult<RowBuf> {
    let t = ctx.updated;
    let ti_keys = ctx.layout.term_key_cols(ti);
    // Atoms of the parent's predicate not already satisfied within T_i.
    let mut atoms: Vec<ojv_algebra::Atom> = parent
        .pred
        .atoms()
        .iter()
        .filter(|a| !a.tables().is_subset_of(ti))
        .cloned()
        .collect();

    let mut rows = candidates.clone();
    let mut joined = ti;
    let mut remaining: Vec<TableId> = parent.tables.difference(ti).iter().collect();
    while !remaining.is_empty() && !rows.is_empty() {
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
        let single_table: Vec<_>;
        let (leaf, join_pred) = if x == t && insert {
            // q(T)-only atoms filter the leaf; the rest drive the join.
            let (on_t, cross): (Vec<_>, Vec<_>) = applicable
                .into_iter()
                .partition(|a| a.tables().is_subset_of(TableSet::singleton(t)));
            single_table = on_t;
            let leaf = if single_table.is_empty() {
                Expr::OldState(t)
            } else {
                Expr::select(Pred::new(single_table.clone()), Expr::OldState(t))
            };
            (leaf, Pred::new(cross))
        } else {
            let (on_x, cross): (Vec<_>, Vec<_>) = applicable
                .into_iter()
                .partition(|a| a.tables().is_subset_of(TableSet::singleton(x)));
            single_table = on_x;
            let leaf = if single_table.is_empty() {
                Expr::Table(x)
            } else {
                Expr::select(Pred::new(single_table.clone()), Expr::Table(x))
            };
            (leaf, Pred::new(cross))
        };
        rows = join_buf_expr(exec, JoinKind::Inner, &join_pred, rows, joined, &leaf)?;
        joined = next;
    }
    debug_assert!(
        atoms.is_empty() || rows.is_empty(),
        "unplaced parent-term atoms"
    );
    Ok(semi_anti_by_key_buf(
        candidates,
        &ti_keys,
        rows.iter(),
        &ti_keys,
        true,
    ))
}

/// Build the parent's rest expression `E'_{ip}` and the anti-join predicate
/// `q_{ip} = q(S_i, R_{ip}, T)` — the literal §5.3 formula.
///
/// [`from_base`] evaluates the same anti-semijoin through the candidate-
/// driven chain of `anti_join_rest_expression`; this builder is exposed
/// for inspection (plan printing, tests) and as the reference form.
///
/// The parent term is `σ_{p_k}(T_i × R_{ip} × T)`; its predicate conjuncts
/// are split by reference set: atoms within `T_i` are already satisfied by
/// the candidates; atoms touching `T_i` and the rest become the anti-join
/// predicate; everything else goes into the rest expression, which joins the
/// updated table's old (insert) or new (delete) state with the `R_{ip}`
/// tables.
pub fn rest_expression(
    ctx: &SecondaryCtx<'_>,
    ti: TableSet,
    parent: &Term,
    insert: bool,
) -> (Expr, Pred) {
    let t = ctx.updated;
    let rip = parent.tables.difference(ti).remove(t);
    let rip_t = rip.insert(t);

    let mut q_t: Vec<ojv_algebra::Atom> = Vec::new();
    let mut qip: Vec<ojv_algebra::Atom> = Vec::new();
    let mut rest: Vec<ojv_algebra::Atom> = Vec::new();
    for atom in parent.pred.atoms() {
        let tabs = atom.tables();
        if tabs.is_subset_of(ti) {
            // Within the candidate tuple — already satisfied.
        } else if !tabs.intersect(ti).is_empty() {
            // Connects T_i with the rest: the anti-join predicate.
            qip.push(atom.clone());
        } else if tabs.is_subset_of(TableSet::singleton(t)) {
            q_t.push(atom.clone());
        } else {
            debug_assert!(tabs.is_subset_of(rip_t));
            rest.push(atom.clone());
        }
    }

    // Leaf for the updated table: old state for the insertion formula, new
    // state for the deletion formula.
    let mut expr = if insert {
        Expr::OldState(t)
    } else {
        Expr::Table(t)
    };
    if !q_t.is_empty() {
        expr = Expr::select(Pred::new(q_t), expr);
    }

    // Greedily join in the R_{ip} tables along connecting predicates.
    let mut joined = TableSet::singleton(t);
    let mut remaining: Vec<TableId> = rip.iter().collect();
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|&x| {
                rest.iter()
                    .any(|a| a.tables().contains(x) && a.tables().is_subset_of(joined.insert(x)))
            })
            .unwrap_or(0);
        let x = remaining.swap_remove(pick);
        let next = joined.insert(x);
        let (applicable, leftover): (Vec<_>, Vec<_>) = rest
            .into_iter()
            .partition(|a| a.tables().is_subset_of(next) && a.tables().contains(x));
        rest = leftover;
        expr = Expr::inner(Pred::new(applicable), expr, Expr::Table(x));
        joined = next;
    }
    debug_assert!(rest.is_empty(), "unplaced rest-expression atoms");
    (expr, Pred::new(qip))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::PlanConfig;
    use crate::fixtures::*;
    use crate::maintain::{verify_against_recompute, Maintained, ViewSink};
    use crate::materialize::MaterializedView;
    use ojv_algebra::Atom;
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
        let ctx = SecondaryCtx {
            layout: &analysis.layout,
            terms: &analysis.terms,
            updated: t,
        };
        let (mut terms, mut orphans) = (0, 0);
        for ind in &compiled.indirect {
            assert!(ind.from_view_ok, "full views pass §5.2 availability");
            let term = IndirectTermView::from(ind);
            let by_view = from_view(&ctx, view.store(), &term, &primary, insert);
            let by_base = from_base(&ctx, &exec, &term, &primary, insert).unwrap();
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

    #[test]
    fn rest_expression_for_v1_insert() {
        // V1, update T(=2), indirect term R(=0) with direct parent TR.
        // Parent pred = p(r,t). R_{ip} is empty, so E' is just old(T) and
        // q_ip = p(r,t).
        let mut c = crate::fixtures::v1_catalog();
        let _ = &mut c;
        let a = crate::analyze::analyze(&c, &crate::fixtures::v1_view_def()).unwrap();
        let t = a.layout.table_id("t").unwrap();
        let r = a.layout.table_id("r").unwrap();
        let ti = TableSet::singleton(r);
        let parent = a
            .terms
            .iter()
            .find(|x| x.tables == TableSet::from_iter([r, t]))
            .unwrap();
        let ctx = SecondaryCtx {
            layout: &a.layout,
            terms: &a.terms,
            updated: t,
        };
        let (eprime, qip) = rest_expression(&ctx, ti, parent, true);
        assert_eq!(eprime, Expr::OldState(t));
        assert_eq!(qip.atoms().len(), 1);
        assert!(matches!(qip.atoms()[0], Atom::Cols(..)));

        let (eprime_del, _) = rest_expression(&ctx, ti, parent, false);
        assert_eq!(eprime_del, Expr::Table(t));
    }

    #[test]
    fn rest_expression_with_extra_tables() {
        // Indirect term {R} with direct parent {T,U,R}: R_{ip} = {U}, the
        // rest expression joins old(T) with U on p(t,u).
        let c = crate::fixtures::v1_catalog();
        let a = crate::analyze::analyze(&c, &crate::fixtures::v1_view_def()).unwrap();
        let t = a.layout.table_id("t").unwrap();
        let u = a.layout.table_id("u").unwrap();
        let r = a.layout.table_id("r").unwrap();
        let parent = a
            .terms
            .iter()
            .find(|x| x.tables == TableSet::from_iter([r, t, u]))
            .unwrap();
        let ctx = SecondaryCtx {
            layout: &a.layout,
            terms: &a.terms,
            updated: t,
        };
        let (eprime, qip) = rest_expression(&ctx, TableSet::singleton(r), parent, true);
        match &eprime {
            Expr::Join {
                kind, left, right, ..
            } => {
                assert_eq!(*kind, JoinKind::Inner);
                assert_eq!(**left, Expr::OldState(t));
                assert_eq!(**right, Expr::Table(u));
            }
            other => panic!("expected join, got {other:?}"),
        }
        assert_eq!(qip.atoms().len(), 1);
    }
}
