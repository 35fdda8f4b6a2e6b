//! Materialized view storage and initial materialization.

use std::sync::Arc;

use ojv_rel::postable::{idx, pos32};
use ojv_rel::{
    fx_hash_one, key_eq, key_eq_rows, key_hash, key_of, Datum, FxHashMap, KeyArena, PosTable,
    Relation, Row, RowBuf,
};
use ojv_storage::Catalog;

use crate::analyze::{analyze, ViewAnalysis};
use crate::compile::PlanCache;
use crate::error::{CoreError, Result};
use crate::maintain::{Maintained, ViewParts, ViewSink};
use crate::snapshot::ViewOp;
use crate::view_def::ViewDef;

/// One count index in canonical form: `(cols, entries sorted by key)`.
pub type CountIndexSnapshot = (Vec<usize>, Vec<(Vec<Datum>, usize)>);

/// A non-unique count index over a subset of the view's key columns.
///
/// The secondary-delta anti-joins (§5.2) only need *existence* of a view row
/// with a given term key, so the index stores multiplicities rather than row
/// positions — the analogue of the paper's secondary index `V4_idx` on the
/// view. Rows with a null in the indexed columns are not indexed (the
/// equijoin `eq(T_i)` is null-rejecting).
///
/// The keys live in a [`KeyArena`], not in the store's rows: the row a key
/// was first counted from may be deleted while other rows keep the count
/// positive.
#[derive(Debug, Clone)]
struct KeyCountIndex {
    cols: Vec<usize>,
    counts: KeyArena<usize>,
}

impl KeyCountIndex {
    fn add(&mut self, row: &[Datum]) {
        if self.cols.iter().any(|&c| row[c].is_null()) {
            return;
        }
        let hash = key_hash(row, &self.cols);
        let s = self.counts.find_or_insert(hash, row, &self.cols, || 0);
        *self.counts.value_mut(s) += 1;
    }

    fn remove(&mut self, row: &[Datum]) {
        if self.cols.iter().any(|&c| row[c].is_null()) {
            return;
        }
        let hash = key_hash(row, &self.cols);
        let Some(s) = self.counts.find(hash, row, &self.cols) else {
            debug_assert!(false, "count index out of sync");
            return;
        };
        let n = self.counts.value_mut(s);
        if *n > 1 {
            *n -= 1;
        } else {
            self.counts.swap_remove(hash, s);
        }
    }
}

/// Row storage for a materialized view: wide rows indexed by the view's
/// unique key (the concatenated, null-padded keys of all referenced tables —
/// the same shape as the paper's clustered index on V3), plus optional
/// term-key count indexes (the paper's `V4_idx`).
///
/// Unlike base tables, the view key *contains nulls* (a `{part}`-term row is
/// null on every other table's key), so this store treats null as an
/// ordinary key value: keys compare with `Datum` equality, under which
/// `Null == Null`.
#[derive(Debug, Clone)]
pub struct ViewStore {
    key_cols: Vec<usize>,
    rows: Vec<Row>,
    /// hash(view key) → position in `rows`, verified against the row it
    /// points at: no key is stored beside the rows.
    index: PosTable,
    secondary: Vec<KeyCountIndex>,
    /// When enabled, every successful `insert`/`delete` is recorded as a
    /// [`ViewOp`] for the snapshot registry's redo chains. `None` (the
    /// default) costs nothing on the maintenance hot path.
    journal: Option<Vec<ViewOp>>,
}

impl ViewStore {
    pub fn new(key_cols: Vec<usize>) -> Self {
        ViewStore {
            key_cols,
            rows: Vec::new(),
            index: PosTable::default(),
            secondary: Vec::new(),
            journal: None,
        }
    }

    /// Start journaling mutations afresh: an image the snapshot registry
    /// hands to maintenance carries no op of an earlier commit.
    pub(crate) fn enable_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Drain the pending journaled ops. Empty when journaling is disabled.
    pub(crate) fn take_journal(&mut self) -> Vec<ViewOp> {
        match &mut self.journal {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    /// Re-execute a journaled op, journaling nothing: a history image the
    /// snapshot registry advances must not record its replay. Replay goes
    /// through the same insert/delete (swap-remove) code that produced the
    /// op, so a replayed store is byte-identical to the original — heap
    /// order and index contents included. A delete replays by its row's key
    /// columns.
    pub(crate) fn apply_op(&mut self, op: &ViewOp, view: &str) -> Result<()> {
        match op {
            ViewOp::Insert(row) => self.insert_row(row.clone(), view),
            ViewOp::Delete(row) => self.delete_row(row, view).map(drop),
        }
    }

    /// Add a count index over `cols` (deduplicated; adding the view key
    /// itself or an existing column set is a no-op). Existing rows are
    /// indexed immediately.
    pub fn add_count_index(&mut self, cols: Vec<usize>) {
        if cols == self.key_cols || self.secondary.iter().any(|i| i.cols == cols) {
            return;
        }
        let mut idx = KeyCountIndex {
            counts: KeyArena::new(cols.len()),
            cols,
        };
        for row in &self.rows {
            idx.add(row);
        }
        self.secondary.push(idx);
    }

    /// Number of stored rows agreeing with the wide row `row` on `cols`
    /// (hashed in place; a null there counts nothing), from the count index
    /// over `cols`. Returns `None` when there is none (the view key has
    /// none: [`ViewStore::contains_row`] answers for it).
    pub fn count_by_row(&self, cols: &[usize], row: &[Datum]) -> Option<usize> {
        let index = self.secondary.iter().find(|i| i.cols == cols)?;
        let slot = index.counts.find(key_hash(row, cols), row, cols);
        Some(slot.map_or(0, |s| *index.counts.value(s)))
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Wide-row column indexes forming the view's unique key.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    pub fn key_of_row(&self, row: &[Datum]) -> Vec<Datum> {
        key_of(row, &self.key_cols)
    }

    /// Position of the stored row with the view key of the wide row `row`,
    /// whose key columns hash to `hash`.
    fn find_row(&self, hash: u64, row: &[Datum]) -> Option<usize> {
        let cols = &self.key_cols;
        let pos = self
            .index
            .find(hash, |p| key_eq_rows(&self.rows[idx(p)], cols, row, cols));
        pos.map(idx)
    }

    /// Is a row with the view key of the wide row `row` stored?
    pub fn contains_row(&self, row: &[Datum]) -> bool {
        self.find_row(key_hash(row, &self.key_cols), row).is_some()
    }

    /// Look up a stored row by view key without building an owned key.
    pub fn get_by_key(&self, key: &[Datum]) -> Option<&Row> {
        let pos = self.index.find(fx_hash_one(key), |p| {
            key_eq(&self.rows[idx(p)], &self.key_cols, key)
        });
        pos.map(|p| &self.rows[idx(p)])
    }

    /// Insert a wide row. A duplicate view key indicates a maintenance bug
    /// and is reported as an error.
    pub fn insert(&mut self, row: Row, view: &str) -> Result<()> {
        let journaled = self.journal.is_some().then(|| row.clone());
        self.insert_row(row, view)?;
        if let (Some(journal), Some(row)) = (&mut self.journal, journaled) {
            journal.push(ViewOp::Insert(row));
        }
        Ok(())
    }

    /// [`ViewStore::insert`] without the journal.
    fn insert_row(&mut self, row: Row, view: &str) -> Result<()> {
        let hash = key_hash(&row, &self.key_cols);
        if self.find_row(hash, &row).is_some() {
            return Err(CoreError::InvalidView {
                view: view.to_string(),
                detail: format!(
                    "maintenance produced duplicate view key {}",
                    ojv_rel::row_display(&self.key_of_row(&row))
                ),
            });
        }
        for idx in &mut self.secondary {
            idx.add(&row);
        }
        self.index.insert(hash, pos32(self.rows.len()));
        self.rows.push(row);
        Ok(())
    }

    /// Canonical snapshot of every count index: `(cols, entries)` with the
    /// entries sorted by key. The arena's order depends on the path that
    /// built the index, so sorting is what makes the encoding — and the
    /// byte-level differential tests built on it — independent of that path.
    pub fn count_index_snapshot(&self) -> Vec<CountIndexSnapshot> {
        self.secondary
            .iter()
            .map(|idx| {
                let mut entries: Vec<(Vec<Datum>, usize)> =
                    idx.counts.iter().map(|(k, &c)| (k.to_vec(), c)).collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                (idx.cols.clone(), entries)
            })
            .collect()
    }

    /// Delete the stored row with the view key of the wide row `row` (only
    /// its key columns are read). The removed row moves into the journal as
    /// the delete's pre-image. A missing key indicates a maintenance bug.
    pub fn delete(&mut self, row: &[Datum], view: &str) -> Result<()> {
        let removed = self.delete_row(row, view)?;
        if let Some(journal) = &mut self.journal {
            journal.push(ViewOp::Delete(removed));
        }
        Ok(())
    }

    /// [`ViewStore::delete`] without the journal: returns the removed row.
    fn delete_row(&mut self, row: &[Datum], view: &str) -> Result<Row> {
        let hash = key_hash(row, &self.key_cols);
        let pos = self
            .find_row(hash, row)
            .ok_or_else(|| CoreError::InvalidView {
                view: view.to_string(),
                detail: format!(
                    "maintenance tried to delete missing view key {}",
                    ojv_rel::row_display(&self.key_of_row(row))
                ),
            })?;
        self.index.remove(hash, pos32(pos));
        let removed = self.rows.swap_remove(pos);
        for idx in &mut self.secondary {
            idx.remove(&removed);
        }
        if let Some(moved) = self.rows.get(pos) {
            let moved = key_hash(moved, &self.key_cols);
            self.index
                .replace(moved, pos32(self.rows.len()), pos32(pos));
        }
        Ok(removed)
    }
}

/// A materialized outer-join view: definition, analysis, stored rows, and
/// the cache of compiled maintenance plans.
///
/// The rows are one image, shared by `Arc`: once the view is registered
/// with a [`crate::snapshot::SnapshotRegistry`], the same `Arc` is that
/// registry's tip, so the view is stored once however many readers pin it.
/// Maintenance writes it through [`Arc::make_mut`], after the registry's
/// start step (`SnapshotRegistry::begin`) made it this view's alone — in
/// place, or by handing it a history image — so the `make_mut` copies
/// nothing.
#[derive(Debug)]
pub struct MaterializedView {
    def: ViewDef,
    pub analysis: ViewAnalysis,
    store: Arc<ViewStore>,
    plans: PlanCache,
}

impl Clone for MaterializedView {
    /// A clone owns a copy of the rows: it is a fork, and sharing the
    /// image would make the next commit on either side copy it anyway.
    fn clone(&self) -> Self {
        MaterializedView {
            def: self.def.clone(),
            analysis: self.analysis.clone(),
            store: Arc::new(ViewStore::clone(&self.store)),
            plans: self.plans.clone(),
        }
    }
}

impl MaterializedView {
    /// Analyze the definition and materialize the initial contents by
    /// directly evaluating the view's operator tree.
    pub fn create(catalog: &Catalog, def: ViewDef) -> Result<Self> {
        let analysis = analyze(catalog, &def)?;
        let ctx = ojv_exec::ExecCtx::new(catalog, &analysis.layout);
        let rows = ojv_exec::eval_expr_buf(&ctx, &analysis.expr)?;
        Self::from_rows(def, analysis, rows.into_rows())
    }

    /// Rebuild a view from checkpointed wide rows instead of re-evaluating
    /// the definition. Rows must be in store (heap) order — inserting them
    /// in that order reproduces the exact store state, so a recovered view
    /// is byte-identical to the one that was checkpointed.
    pub fn restore(catalog: &Catalog, def: ViewDef, rows: Vec<Row>) -> Result<Self> {
        let analysis = analyze(catalog, &def)?;
        Self::from_rows(def, analysis, rows)
    }

    fn from_rows(def: ViewDef, analysis: ViewAnalysis, rows: Vec<Row>) -> Result<Self> {
        let mut store = ViewStore::new(analysis.view_key.clone());
        // One count index per term that can ever be indirectly affected
        // (i.e. has a parent in the subsumption graph) — the §5.2 anti-joins
        // probe these instead of scanning the view (the paper's `V4_idx`).
        for (i, term) in analysis.terms.iter().enumerate() {
            if !analysis.graph.parents(i).is_empty() {
                store.add_count_index(analysis.layout.term_key_cols(term.tables));
            }
        }
        // One reservation per bulk load: the key index never regrows.
        store.rows.reserve(rows.len());
        store.index.reserve(rows.len());
        for row in rows {
            store.insert(row, def.name())?;
        }
        Ok(MaterializedView {
            def,
            analysis,
            store: Arc::new(store),
            plans: PlanCache::default(),
        })
    }

    pub fn name(&self) -> &str {
        self.def.name()
    }

    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    pub fn len(&self) -> usize {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The stored wide rows (internal representation).
    pub fn wide_rows(&self) -> &[Row] {
        self.store.rows()
    }

    pub(crate) fn store_mut(&mut self) -> &mut ViewStore {
        Arc::make_mut(&mut self.store)
    }

    pub(crate) fn store(&self) -> &ViewStore {
        &self.store
    }

    /// The shared image: the snapshot registry installs it as the tip.
    pub(crate) fn image(&self) -> &Arc<ViewStore> {
        &self.store
    }

    /// The image slot the registry's start step swaps a writable image into.
    pub(crate) fn image_mut(&mut self) -> &mut Arc<ViewStore> {
        &mut self.store
    }

    /// Start journaling this view's mutations for the snapshot registry.
    pub(crate) fn enable_journal(&mut self) {
        self.store_mut().enable_journal();
    }

    /// Drain the ops journaled since the last drain. Copies nothing when
    /// there are none, whoever shares the image.
    pub(crate) fn take_journal(&mut self) -> Vec<ViewOp> {
        if self.store.journal.as_ref().is_none_or(Vec::is_empty) {
            return Vec::new();
        }
        self.store_mut().take_journal()
    }

    /// The view's *output*: the projected relation a reader sees.
    ///
    /// Errors if the projected columns do not form a valid schema (e.g. a
    /// duplicate-name collision), instead of panicking.
    pub fn output(&self) -> crate::error::Result<Relation> {
        let cols: Vec<ojv_rel::Column> = self
            .analysis
            .projection
            .iter()
            .map(|&g| self.analysis.layout.wide_schema().column(g).clone())
            .collect();
        let schema = ojv_rel::Schema::shared(cols)?;
        let rows = self
            .store
            .rows()
            .iter()
            .map(|r| key_of(r, &self.analysis.projection))
            .collect();
        Ok(Relation::new(schema, rows))
    }

    /// Count stored rows per term (source-set pattern) — the paper's
    /// Table 1 "Cardinality" column.
    pub fn term_cardinalities(&self) -> Vec<(ojv_algebra::TableSet, usize)> {
        // Count by source-set first — O(rows), not O(rows × terms) — then
        // read the tally back out in term order.
        let mut by_set: FxHashMap<ojv_algebra::TableSet, usize> = FxHashMap::default();
        for row in self.store.rows() {
            *by_set
                .entry(self.analysis.layout.sources_of_row(row))
                .or_insert(0) += 1;
        }
        self.analysis
            .terms
            .iter()
            .map(|t| (t.tables, by_set.get(&t.tables).copied().unwrap_or(0)))
            .collect()
    }
}

impl Maintained for MaterializedView {
    fn name(&self) -> &str {
        self.def.name()
    }

    fn analysis(&self) -> &ViewAnalysis {
        &self.analysis
    }

    fn plans(&mut self) -> (&ViewAnalysis, &mut PlanCache) {
        (&self.analysis, &mut self.plans)
    }

    fn parts(&mut self) -> ViewParts<'_> {
        ViewParts {
            name: self.def.name(),
            analysis: &self.analysis,
            sink: Arc::<ViewStore>::make_mut(&mut self.store),
        }
    }
}

/// The row store takes `ΔV^D` and every term's `∆D_i` row by row, and
/// answers §5.2's probes.
impl ViewSink for ViewStore {
    fn apply(&mut self, rows: &RowBuf, insert: bool, view: &str) -> Result<()> {
        for row in rows {
            if insert {
                self.insert(row.to_vec(), view)?;
            } else {
                self.delete(row, view)?;
            }
        }
        Ok(())
    }

    fn row_store(&self) -> Option<&ViewStore> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;
    use ojv_algebra::TableSet;

    #[test]
    fn materialize_example_1() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 6, 9);
        let view = MaterializedView::create(&c, oj_view_def()).unwrap();
        // Sanity: every lineitem appears exactly once in a full tuple.
        let full = view
            .term_cardinalities()
            .into_iter()
            .find(|(s, _)| s.len() == 3)
            .unwrap();
        assert_eq!(full.1, c.table("lineitem").unwrap().len());
        // Orphaned orders: multiples of 3 (9/3 = 3 of them).
        let orders_only = view
            .term_cardinalities()
            .into_iter()
            .find(|(s, _)| s.only() == view.analysis.layout.table_id("orders"))
            .unwrap();
        assert_eq!(orders_only.1, 3);
        assert_eq!(
            view.len(),
            view.term_cardinalities()
                .iter()
                .map(|(_, n)| n)
                .sum::<usize>()
        );
    }

    #[test]
    fn view_store_insert_delete_roundtrip() {
        let mut s = ViewStore::new(vec![0, 1]);
        s.enable_journal();
        let half = vec![Datum::Int(1), Datum::Null, Datum::Int(5)];
        s.insert(half.clone(), "v").unwrap();
        s.insert(vec![Datum::Int(1), Datum::Int(2), Datum::Int(6)], "v")
            .unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.get_by_key(&[Datum::Int(1), Datum::Null]).is_some());
        let dup = s.insert(vec![Datum::Int(1), Datum::Null, Datum::Int(9)], "v");
        assert!(dup.is_err());
        // Only the probe's key columns are read; the journal gets the
        // stored row as the delete's pre-image.
        s.delete(&[Datum::Int(1), Datum::Null, Datum::Int(0)], "v")
            .unwrap();
        assert!(!s.contains_row(&[Datum::Int(1), Datum::Null]));
        assert!(s.delete(&[Datum::Int(9), Datum::Null], "v").is_err());
        // The swap-removed survivor is still findable.
        assert!(s.contains_row(&[Datum::Int(1), Datum::Int(2)]));
        assert_eq!(s.take_journal().last(), Some(&ViewOp::Delete(half)));
    }

    /// Count-index churn against a model: counts, the sorted snapshot and
    /// the key arena's swap-remove fix-up agree at every step, including a
    /// key whose first-counted row is gone while its count stays positive.
    #[test]
    fn count_index_tracks_a_model_through_churn() {
        let mut s = ViewStore::new(vec![0, 1]);
        s.add_count_index(vec![0]);
        let row = |i: i64| {
            let k = if i % 11 == 0 {
                Datum::Null
            } else {
                Datum::Int(i % 7)
            };
            vec![k, Datum::Int(i)]
        };
        let mut model = std::collections::BTreeMap::new();
        let check = |s: &ViewStore, model: &std::collections::BTreeMap<i64, usize>| {
            for k in 0..7 {
                let want = model.get(&k).copied().unwrap_or(0);
                assert_eq!(
                    s.count_by_row(&[0], &[Datum::Int(k)]),
                    Some(want),
                    "key {k}"
                );
            }
            let entries: Vec<(Vec<Datum>, usize)> = model
                .iter()
                .map(|(&k, &n)| (vec![Datum::Int(k)], n))
                .collect();
            assert_eq!(s.count_index_snapshot(), vec![(vec![0], entries)]);
        };
        for i in 0..60 {
            s.insert(row(i), "v").unwrap();
            if i % 11 != 0 {
                *model.entry(i % 7).or_insert(0) += 1;
            }
            check(&s, &model);
        }
        assert_eq!(s.count_by_row(&[0], &[Datum::Null]), Some(0));
        for j in 0..60 {
            let i = (j * 37) % 60;
            s.delete(&row(i), "v").unwrap();
            if i % 11 != 0 {
                let n = model.get_mut(&(i % 7)).unwrap();
                *n -= 1;
                if *n == 0 {
                    model.remove(&(i % 7));
                }
            }
            check(&s, &model);
        }
        assert!(s.is_empty());
    }

    /// The §5.2 deletion case probes a term-key count index and has no scan
    /// fallback: every term with a parent has one (`tpch`'s view tests pin
    /// that every indirect term has a parent).
    #[test]
    fn every_term_with_a_parent_has_a_count_index() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 6, 9);
        let view = MaterializedView::create(&c, oj_view_def()).unwrap();
        let a = &view.analysis;
        let probe = vec![Datum::Null; a.layout.wide_schema().len()];
        for (i, term) in a.terms.iter().enumerate() {
            if !a.graph.parents(i).is_empty() {
                let keys = a.layout.term_key_cols(term.tables);
                assert!(
                    view.store().count_by_row(&keys, &probe).is_some(),
                    "term {i}"
                );
            }
        }
    }

    #[test]
    fn output_projects_columns() {
        let mut c = example1_catalog();
        populate_example1(&mut c, 4, 4);
        let def =
            oj_view_def().with_projection(vec![("part", "p_partkey"), ("orders", "o_orderkey")]);
        let view = MaterializedView::create(&c, def).unwrap();
        let out = view.output().unwrap();
        assert_eq!(out.schema().len(), 2);
        assert_eq!(out.len(), view.len());
    }

    #[test]
    fn empty_tables_give_empty_view() {
        let c = example1_catalog();
        let view = MaterializedView::create(&c, oj_view_def()).unwrap();
        assert!(view.is_empty());
        let _ = TableSet::EMPTY;
    }
}
