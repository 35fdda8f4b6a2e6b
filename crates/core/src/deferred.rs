//! Deferred view maintenance: queue update batches, refresh on demand.
//!
//! Production systems often maintain expensive views lazily — updates are
//! logged and the view is refreshed when read (or on a schedule), trading
//! staleness for update latency.
//!
//! Replaying a queued delta through the incremental procedure evaluates its
//! `ΔV^D` against the *current* (final) base-table state, so replay is only
//! equivalent to eager maintenance when later queued updates cannot have
//! changed the tables that delta joins with. [`DeferredView::refresh`]
//! therefore distinguishes two cases:
//!
//! * **single-table window** — every queued batch updates the same base
//!   table: the other tables are untouched, and the §5.2 secondary delta
//!   only consults the view's own (sequentially maintained) state, so
//!   in-order incremental replay is exact when every term can use it;
//! * **multi-table window** — replay could double-count combinations that
//!   two queued deltas both see (e.g. a queued order insert followed by a
//!   queued lineitem insert referencing it), so the refresh falls back to
//!   the recompute-and-diff baseline, which is also typically the cheaper
//!   plan for large pending windows.
//!
//! The §6 caveat carries over to the incremental path: a queued delete +
//! insert pair on the same table may be an UPDATE decomposition, so FK fast
//! paths are disabled conservatively for such windows.

use std::collections::HashSet;

use ojv_storage::{Catalog, Update, UpdateOp};

use crate::error::Result;
use crate::maintain::{maintain, MaintenanceReport};
use crate::materialize::MaterializedView;
use crate::policy::MaintenancePolicy;

/// A materialized view with a pending-update queue.
#[derive(Debug, Clone)]
pub struct DeferredView {
    view: MaterializedView,
    pending: Vec<Update>,
}

impl DeferredView {
    pub fn new(view: MaterializedView) -> Self {
        DeferredView {
            view,
            pending: Vec::new(),
        }
    }

    /// Queue an applied base-table update for later maintenance. Cheap:
    /// clones the delta relation, touches nothing else.
    pub fn enqueue(&mut self, update: &Update) {
        if self.view.analysis.layout.table_id(&update.table).is_some() {
            self.pending.push(update.clone());
        }
    }

    /// Number of queued update batches.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// True iff the view reflects the catalog (nothing queued).
    pub fn is_fresh(&self) -> bool {
        self.pending.is_empty()
    }

    /// Bring the view up to date. The catalog must already contain every
    /// queued update (which the [`crate::database::Database`]-style flow
    /// guarantees: base updates are applied before enqueueing).
    ///
    /// Single-table windows replay incrementally; multi-table windows use
    /// the recompute-and-diff fallback (see the module docs for why).
    pub fn refresh(
        &mut self,
        catalog: &Catalog,
        policy: &MaintenancePolicy,
    ) -> Result<Vec<MaintenanceReport>> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        let single_table = self
            .pending
            .iter()
            .all(|u| u.table == self.pending[0].table);
        // Incremental replay is exact only for the §5.2 secondary delta,
        // which reads the view the replay maintains itself. A term whose
        // columns the view does not output (§5.2 column availability) takes
        // §5.3 from base tables, which would read the *final* base-table
        // state for every replayed step — unsound for multi-batch windows.
        // Use the recompute path instead.
        let from_view_ok =
            (0..self.view.analysis.terms.len()).all(|i| self.view.analysis.from_view_available(i));
        if !single_table || (!from_view_ok && self.pending.len() > 1) {
            let last = self.pending.last().expect("non-empty queue").clone();
            self.pending.clear();
            let report =
                crate::baseline::maintain_recompute(&mut self.view, catalog, &last, policy)?;
            return Ok(vec![report]);
        }

        // Conservative §6 check: a table that sees a Delete and later an
        // Insert inside the window could be an UPDATE decomposition.
        let mut deleted: HashSet<&str> = HashSet::new();
        let mut suspicious = false;
        for u in &self.pending {
            match u.op {
                UpdateOp::Delete => {
                    deleted.insert(u.table.as_str());
                }
                UpdateOp::Insert => {
                    if deleted.contains(u.table.as_str()) {
                        suspicious = true;
                    }
                }
            }
        }
        let mut effective = *policy;
        if suspicious {
            effective.update_decomposition = true;
        }

        let mut reports = Vec::with_capacity(self.pending.len());
        for update in std::mem::take(&mut self.pending) {
            reports.push(maintain(&mut self.view, catalog, &update, &effective)?);
        }
        Ok(reports)
    }

    /// The (possibly stale) view. Call [`Self::refresh`] first for fresh
    /// reads.
    pub fn view(&self) -> &MaterializedView {
        &self.view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;
    use crate::maintain::verify_against_recompute;
    use ojv_rel::Datum;

    #[test]
    fn single_table_window_replays_incrementally() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut dv = DeferredView::new(MaterializedView::create(&c, oj_view_def()).unwrap());

        // Three lineitem updates without refreshing in between.
        let u1 = c
            .insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        dv.enqueue(&u1);
        let u2 = c
            .insert("lineitem", vec![lineitem_row(6, 9, 5, 1, 2.0)])
            .unwrap();
        dv.enqueue(&u2);
        let u3 = c
            .delete("lineitem", &[vec![Datum::Int(3), Datum::Int(1)]])
            .unwrap();
        dv.enqueue(&u3);

        assert_eq!(dv.pending_len(), 3);
        assert!(!dv.is_fresh());
        // The stale view does not yet reflect the updates.
        assert!(!verify_against_recompute(dv.view(), &c));

        let reports = dv.refresh(&c, &MaintenancePolicy::paper()).unwrap();
        assert_eq!(reports.len(), 3, "incremental replay, one report per batch");
        assert!(dv.is_fresh());
        assert!(verify_against_recompute(dv.view(), &c));
    }

    /// A multi-table window where naive replay would double-count: a queued
    /// order insert followed by a queued lineitem insert referencing it.
    /// The recompute fallback handles it.
    #[test]
    fn multi_table_window_falls_back_to_recompute() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut dv = DeferredView::new(MaterializedView::create(&c, oj_view_def()).unwrap());

        let u1 = c.insert("orders", vec![order_row(100, 1)]).unwrap();
        dv.enqueue(&u1);
        let u2 = c
            .insert("lineitem", vec![lineitem_row(100, 1, 2, 4, 42.0)])
            .unwrap();
        dv.enqueue(&u2);

        let reports = dv.refresh(&c, &MaintenancePolicy::paper()).unwrap();
        assert_eq!(reports.len(), 1, "one recompute-style refresh");
        assert!(dv.is_fresh());
        assert!(verify_against_recompute(dv.view(), &c));
    }

    #[test]
    fn updates_to_unreferenced_tables_are_not_queued() {
        let mut c = example1_catalog();
        c.create_table(
            "other",
            vec![ojv_rel::Column::new(
                "other",
                "id",
                ojv_rel::DataType::Int,
                false,
            )],
            &["id"],
        )
        .unwrap();
        populate_example1(&mut c, 4, 4);
        let mut dv = DeferredView::new(MaterializedView::create(&c, oj_view_def()).unwrap());
        let u = c.insert("other", vec![vec![Datum::Int(1)]]).unwrap();
        dv.enqueue(&u);
        assert!(dv.is_fresh());
    }

    #[test]
    fn delete_then_insert_window_disables_fk_fast_paths() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut dv = DeferredView::new(MaterializedView::create(&c, oj_view_def()).unwrap());
        // Modify part 100 via delete + reinsert inside one window.
        let u0 = c.insert("part", vec![part_row(100, "v1", 5.0)]).unwrap();
        dv.enqueue(&u0);
        dv.refresh(&c, &MaintenancePolicy::paper()).unwrap();

        let u1 = c.delete("part", &[vec![Datum::Int(100)]]).unwrap();
        dv.enqueue(&u1);
        let u2 = c.insert("part", vec![part_row(100, "v2", 6.0)]).unwrap();
        dv.enqueue(&u2);
        dv.refresh(&c, &MaintenancePolicy::paper()).unwrap();
        assert!(verify_against_recompute(dv.view(), &c));
        // The renamed part is present.
        let p = dv.view().analysis.layout.table_id("part").unwrap();
        let name_col = dv.view().analysis.layout.slot(p).offset + 1;
        assert!(dv
            .view()
            .wide_rows()
            .iter()
            .any(|r| r[name_col] == Datum::str("v2")));
    }

    #[test]
    fn interleaved_refreshes_stay_consistent() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 6, 9);
        let mut dv = DeferredView::new(MaterializedView::create(&c, oj_view_def()).unwrap());
        for i in 0..4i64 {
            let u = c
                .insert("lineitem", vec![lineitem_row(3, i + 1, 2, 1, 1.0)])
                .unwrap();
            dv.enqueue(&u);
            if i % 2 == 1 {
                dv.refresh(&c, &MaintenancePolicy::paper()).unwrap();
                assert!(verify_against_recompute(dv.view(), &c));
            }
        }
        dv.refresh(&c, &MaintenancePolicy::paper()).unwrap();
        assert!(verify_against_recompute(dv.view(), &c));
    }
}
