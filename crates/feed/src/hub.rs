//! The change-feed hub: subscription registry, per-commit netting, shared
//! fan-out, and LSN-ordered delivery.
//!
//! # Architecture
//!
//! The hub attaches to a [`Database`] as its [`CommitObserver`]. Every
//! committed batch arrives as the journaled `(view, Vec<ViewOp>)` pairs the
//! snapshot registry just published, tagged with the commit LSN — the feed
//! therefore sees exactly the deltas maintenance computed, in commit order,
//! and never re-derives them.
//!
//! Subscriptions dedup through a three-level trie mirroring the batch
//! planner's plan trie: **view → filter group → evaluation leaf**. All
//! subscriptions with the same filter share one predicate evaluation per
//! changed row; within a filter group, subscriptions with the same
//! projection share one [`UpdateSet`] per commit, delivered as `Arc` clones.
//! 100 000 subscribers over 250 distinct `(filter, projection)` specs cost
//! 250 evaluations per commit, not 100 000. Across filter groups, every
//! leaf with the same projection shares one buffer of projected rows per
//! commit: a row is cloned once per `(view, projection)`, however many
//! groups deliver it, and only if at least one of them does. The hub
//! counts what the rings still select of each buffer; a buffer whose
//! remaining ring sets select fewer rows than it holds is let go and those
//! sets are rebuilt over a buffer of just their rows, so what the rings
//! retain never exceeds what per-leaf copies would.
//!
//! Per commit the hub first **nets** each view's ops straight from the
//! journal, which carries whole rows both ways: per view key, the pre-image
//! is the row of the key's first op if that op is a delete, and the
//! post-image the row of its last op if that op is an insert. A row
//! inserted and deleted inside one batch nets to nothing; an UPDATE
//! decomposes into its delete/insert halves only when a projected column
//! actually changed. The hub keeps no copy of any view. Netted events fan
//! out to filter groups one group at a time, outside the hub lock, under
//! the workspace's one panic policy ([`ojv_exec::catch_each`], the one
//! batched maintenance uses): a panic is caught at the group boundary,
//! sibling groups still publish, and the affected group's subscribers lapse
//! to a snapshot rebase.
//!
//! Delivery is pull-based: each evaluation leaf retains a bounded ring of
//! recent `Arc<UpdateSet>`s; a subscriber's [`Subscription::drain`] returns
//! the sets past its cursor, found from the ring's newest end, so a drain
//! touches only the sets it owes plus one. Subscriptions live in a dense
//! slot table indexed by their id. A cursor that falls behind the ring's
//! floor lapses and is rebased from a snapshot pin; [`FeedHub::resume`]
//! catches a returning subscriber up from any LSN the snapshot registry can
//! still pin (PR 6's version chains), as a single synthetic diff set.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use ojv_core::prelude::{
    CommitObserver, CoreError, Database, DurableDatabase, FanoutStats, SnapshotRegistry,
    SnapshotView, Vfs, ViewOp,
};
use ojv_durability::Lsn;
use ojv_exec::filter_project_into;
use ojv_rel::postable::{idx, pos32};
use ojv_rel::{
    fx_map_with_capacity, key_eq_rows, key_hash, Datum, FxHashMap, PosTable, Row, RowBuf,
};

use crate::error::{FeedError, Result};
use crate::filter::{FeedFilter, SubscriptionSpec};
use crate::update_set::{
    Drained, Materialization, Resumed, SharedRows, SubscriberState, UpdateSet,
};

/// Default per-leaf ring capacity: how many non-empty update sets a
/// subscriber may lag behind before it lapses to a snapshot rebase.
const DEFAULT_RETAINED: usize = 64;

// ---------------------------------------------------------------------------
// Trie state
// ---------------------------------------------------------------------------

/// One subscription's registration: its leaf coordinates plus its delivery
/// cursor (sets with `lsn > cursor` are still owed to it).
#[derive(Debug, Clone, Copy)]
struct SubEntry {
    view_idx: usize,
    group_idx: usize,
    leaf_idx: usize,
    cursor: Lsn,
}

/// Live subscriptions, indexed by id: a dense slot table with a free list.
/// An id is `generation << 32 | slot`, and freeing a slot bumps its
/// generation, so an id is not reused (until one slot has been freed 2³²
/// times) and the table never grows past the peak live count.
#[derive(Debug, Default)]
struct SubTable {
    slots: Vec<SubSlot>,
    free: Vec<u32>,
}

#[derive(Debug)]
struct SubSlot {
    generation: u32,
    entry: Option<SubEntry>,
}

impl SubTable {
    fn insert(&mut self, entry: SubEntry) -> u64 {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(SubSlot {
                    generation: 0,
                    entry: None,
                });
                pos32(self.slots.len() - 1)
            }
        };
        let s = &mut self.slots[idx(slot)];
        s.entry = Some(entry);
        (u64::from(s.generation) << 32) | u64::from(slot)
    }

    /// The slot `id` names, if it is live and its generation current.
    fn find(&self, id: u64) -> Option<usize> {
        let slot = idx(u32::try_from(id & u64::from(u32::MAX)).ok()?);
        let s = self.slots.get(slot)?;
        (u64::from(s.generation) == id >> 32 && s.entry.is_some()).then_some(slot)
    }

    fn get(&self, id: u64) -> Option<&SubEntry> {
        self.slots[self.find(id)?].entry.as_ref()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut SubEntry> {
        let slot = self.find(id)?;
        self.slots[slot].entry.as_mut()
    }

    fn remove(&mut self, id: u64) -> Option<SubEntry> {
        let slot = self.find(id)?;
        self.free_slot(slot)
    }

    /// Remove every entry `keep` rejects.
    fn retain(&mut self, mut keep: impl FnMut(&SubEntry) -> bool) {
        for slot in 0..self.slots.len() {
            if self.slots[slot].entry.as_ref().is_some_and(|e| !keep(e)) {
                self.free_slot(slot);
            }
        }
    }

    /// Empty `slot` and retire its id.
    fn free_slot(&mut self, slot: usize) -> Option<SubEntry> {
        let s = &mut self.slots[slot];
        s.generation = s.generation.wrapping_add(1);
        self.free.push(pos32(slot));
        s.entry.take()
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Leaf of the dedup trie: one `(filter, projection)` evaluation shared by
/// every subscriber with that fingerprint.
#[derive(Debug)]
struct EvalLeaf {
    /// Fingerprint of `(view, filter, resolved projection)`.
    fp: u64,
    /// The resolved projection, as output column indexes.
    proj_out: Arc<[usize]>,
    /// `proj_out` mapped to wide-row column indexes.
    proj_global: Arc<[usize]>,
    /// Commit LSN the leaf (re-)joined at; sets at or before it are already
    /// reflected in its subscribers' initial images.
    born_lsn: Lsn,
    /// Oldest cursor the ring can still serve; a cursor below it lapses.
    floor_lsn: Lsn,
    /// Recent non-empty update sets, oldest first, shared with subscribers.
    ring: VecDeque<Arc<UpdateSet>>,
    subscribers: usize,
}

/// Mid level of the trie: all leaves sharing one filter, so the predicate
/// runs once per netted event for the whole group.
#[derive(Debug)]
struct FilterGroup {
    filter_fp: u64,
    filter: Arc<FeedFilter>,
    leaves: Vec<EvalLeaf>,
}

/// Root level: per-view state — the view's layout and its filter groups.
#[derive(Debug)]
struct ViewFeed {
    name: Arc<str>,
    key_cols: Arc<[usize]>,
    /// Output column `i` of the view lives at wide index `out_cols[i]`.
    out_cols: Arc<[usize]>,
    groups: Vec<FilterGroup>,
    /// Every shared buffer a ring of this view holds, by address (stable
    /// while a ring set holds the buffer's `Arc`, and an entry lives no
    /// longer than that).
    buffers: FxHashMap<usize, BufferUse>,
    /// Buffers a ring took up or let go of since the last
    /// [`ViewFeed::settle`].
    unsettled: Vec<usize>,
}

/// What the rings of one view hold of one shared buffer.
#[derive(Debug)]
struct BufferUse {
    /// Commit the buffer was built at.
    lsn: Lsn,
    /// Ring sets selecting from it.
    sets: usize,
    /// `(inserts, deletes)` those sets select, summed.
    selected: (usize, usize),
    /// The buffer's own `(rows, keys)`.
    size: (usize, usize),
}

impl BufferUse {
    /// Whether the buffer holds rows no ring set over it selects.
    fn overheld(&self) -> bool {
        self.selected.0 < self.size.0 || self.selected.1 < self.size.1
    }
}

/// Address of the buffer `set` selects from: the key of
/// [`ViewFeed::buffers`].
fn buffer_of(set: &UpdateSet) -> usize {
    Arc::as_ptr(set.shared()).addr()
}

impl ViewFeed {
    /// Append `set` to leaf `(gi, li)`'s ring and count what it selects.
    fn hold(&mut self, gi: usize, li: usize, set: UpdateSet) {
        let (ins, del) = set.counts();
        let shared = set.shared();
        let size = (shared.rows.len(), shared.keys.len());
        let (lsn, addr) = (set.lsn, buffer_of(&set));
        let buffer = self.buffers.entry(addr).or_insert_with(|| {
            self.unsettled.push(addr);
            BufferUse {
                lsn,
                sets: 0,
                selected: (0, 0),
                size,
            }
        });
        buffer.sets += 1;
        buffer.selected.0 += ins;
        buffer.selected.1 += del;
        self.groups[gi].leaves[li].ring.push_back(Arc::new(set));
    }

    /// Drop the oldest sets of leaf `(gi, li)`'s ring until at most `keep`
    /// remain; returns the LSN of the last set dropped.
    fn trim(&mut self, gi: usize, li: usize, keep: usize) -> Option<Lsn> {
        let ring = &mut self.groups[gi].leaves[li].ring;
        let mut dropped = None;
        while ring.len() > keep {
            let Some(old) = ring.pop_front() else { break };
            dropped = Some(old.lsn);
            let addr = buffer_of(&old);
            let buffer = self
                .buffers
                .get_mut(&addr)
                .expect("every ring set's buffer is counted");
            let (ins, del) = old.counts();
            buffer.sets -= 1;
            buffer.selected.0 -= ins;
            buffer.selected.1 -= del;
            if buffer.sets == 0 {
                self.buffers.remove(&addr);
            } else {
                self.unsettled.push(addr);
            }
        }
        dropped
    }

    /// Keep what the rings retain at or below what their sets select: a
    /// buffer whose remaining ring sets select fewer rows than it holds
    /// (its other holders have moved on) is replaced, for those sets, by a
    /// buffer of just their rows. Call after every batch of
    /// [`ViewFeed::hold`]s and [`ViewFeed::trim`]s.
    fn settle(&mut self) {
        let mut addrs = std::mem::take(&mut self.unsettled);
        addrs.sort_unstable();
        addrs.dedup();
        for addr in addrs {
            if !self.buffers.get(&addr).is_some_and(BufferUse::overheld) {
                continue;
            }
            let mut buffer = self.buffers.remove(&addr).expect("present above");
            let lsn = buffer.lsn;
            // Each leaf holds at most one set per buffer, at its commit.
            let mut held: Vec<&mut Arc<UpdateSet>> = self
                .groups
                .iter_mut()
                .flat_map(|g| &mut g.leaves)
                .filter_map(|leaf| {
                    let from = leaf.ring.partition_point(|s| s.lsn < lsn);
                    leaf.ring
                        .range_mut(from..)
                        .take_while(|s| s.lsn == lsn)
                        .find(|s| buffer_of(s) == addr)
                })
                .collect();
            debug_assert_eq!(held.len(), buffer.sets);
            if let Some(shared) = UpdateSet::compact(&mut held) {
                buffer.size = (shared.rows.len(), shared.keys.len());
                self.buffers.insert(Arc::as_ptr(&shared).addr(), buffer);
            }
        }
    }
}

#[derive(Debug)]
struct HubInner {
    /// Highest commit LSN published through the hub.
    lsn: Lsn,
    registry: Option<SnapshotRegistry>,
    views: Vec<ViewFeed>,
    subs: SubTable,
    /// Retention pins left by [`Subscription::park`]: each holds the
    /// snapshot registry's version chains back to its LSN so the parked
    /// client can later [`FeedHub::resume`] with a catch-up diff instead of
    /// a full rebase. Released by the matching resume.
    parked: Vec<(Lsn, ojv_core::prelude::Snapshot)>,
    max_retained: usize,
    /// Last fan-out failure (a caught job panic), kept for
    /// [`FeedHub::take_error`].
    last_error: Option<FeedError>,
    commits_seen: u64,
    last_fanout_nanos: u64,
    total_fanout_nanos: u64,
}

/// Aggregate hub counters (see [`FeedHub::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeedStats {
    /// Live subscriptions.
    pub subscribers: usize,
    /// Evaluation leaves with at least one subscriber — the number of
    /// per-commit evaluations actually performed. The dedup ratio is
    /// `subscribers / shared_evals`.
    pub shared_evals: usize,
    /// Filter groups with at least one live leaf — the number of predicate
    /// evaluations per netted event.
    pub filter_groups: usize,
    /// Views with feed state.
    pub views: usize,
    /// Update sets currently retained across all rings.
    pub retained_sets: usize,
    /// Rows the retained sets hold: deleted keys plus inserted rows, each
    /// shared buffer counted once however many leaves select from it.
    pub retained_rows: usize,
    /// Commits fanned out since attach.
    pub commits_seen: u64,
    /// Wall-clock nanoseconds of the most recent fan-out (netting +
    /// evaluation + publication).
    pub last_fanout_nanos: u64,
    /// Total fan-out nanoseconds since attach.
    pub total_fanout_nanos: u64,
}

// ---------------------------------------------------------------------------
// Netting
// ---------------------------------------------------------------------------

/// One view key's net change in a commit: `pre` (row before) and `post`
/// (row after), borrowed from the journal's ops. `pre = None` → net insert;
/// `post = None` → net delete; both `Some` → update. Never both `None` —
/// full intra-batch cancellation is dropped during netting.
#[derive(Debug)]
struct NetEvent<'a> {
    pre: Option<&'a Row>,
    post: Option<&'a Row>,
}

/// The row a journaled op carries: the inserted row or the deleted one.
fn op_row(op: &ViewOp) -> &Row {
    match op {
        ViewOp::Insert(row) | ViewOp::Delete(row) => row,
    }
}

/// Net a commit's ops per view key (insert/delete multiset netting): the
/// pre-image is the row of the key's first op if that op is a delete — it
/// removed the row the view held before the commit — and the post-image is
/// the row of its last op if that op is an insert. First-touch order is
/// preserved so output is deterministic.
fn net_events<'a>(ops: &'a [ViewOp], key_cols: &[usize]) -> Vec<NetEvent<'a>> {
    // (first op, last op) per key, in first-touch order; a PosTable maps
    // the key hash to its entry, verified against the first op's row.
    let mut touched: Vec<(usize, usize)> = Vec::new();
    let mut keys = PosTable::default();
    keys.reserve(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let row = op_row(op);
        let hash = key_hash(row, key_cols);
        let seen = keys.find(hash, |e| {
            key_eq_rows(op_row(&ops[touched[idx(e)].0]), key_cols, row, key_cols)
        });
        match seen {
            Some(e) => touched[idx(e)].1 = i,
            None => {
                keys.insert(hash, pos32(touched.len()));
                touched.push((i, i));
            }
        }
    }
    touched
        .into_iter()
        .filter_map(|(first, last)| {
            let pre = matches!(ops[first], ViewOp::Delete(_)).then(|| op_row(&ops[first]));
            let post = matches!(ops[last], ViewOp::Insert(_)).then(|| op_row(&ops[last]));
            // Inserted and deleted inside the same batch: nets to nothing.
            (pre.is_some() || post.is_some()).then_some(NetEvent { pre, post })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fan-out
// ---------------------------------------------------------------------------

/// One view's share of a fan-out. Self-contained (`Arc` shares of immutable
/// state, and the commit's ops, borrowed for the fan-out) so evaluation runs
/// outside the hub lock.
struct ViewJob<'a> {
    view: Arc<str>,
    view_idx: usize,
    key_cols: Arc<[usize]>,
    out_cols: Arc<[usize]>,
    events: Vec<NetEvent<'a>>,
    /// The distinct projections (wide-row column indexes) of the live
    /// leaves: one shared row buffer each.
    projs: Vec<Arc<[usize]>>,
    groups: Vec<GroupJob>,
}

/// One filter group with at least one live leaf.
struct GroupJob {
    group_idx: usize,
    filter: Arc<FeedFilter>,
    /// `(leaf index, index into ViewJob::projs)` of each live leaf.
    leaves: Vec<(usize, usize)>,
}

/// A netted event a group's filter accepted on at least one side:
/// `(event index, pre-image matches, post-image matches)`.
type Hit = (u32, bool, bool);

struct JobResult {
    view_idx: usize,
    group_idx: usize,
    leaf_idxs: Vec<usize>,
    outcome: std::result::Result<Vec<(usize, UpdateSet)>, FeedError>,
}

/// Run one group's filter once per netted event.
fn eval_filter(job: &ViewJob<'_>, filter: &FeedFilter) -> Vec<Hit> {
    test_panic::maybe_panic(&job.view);
    let matches = |row: Option<&Row>| row.is_some_and(|r| filter.matches_row(r, &job.out_cols));
    job.events
        .iter()
        .enumerate()
        .filter_map(|(i, ev)| {
            let (pre, post) = (matches(ev.pre), matches(ev.post));
            (pre || post).then(|| (pos32(i), pre, post))
        })
        .collect()
}

/// Slot of an event's row in a shared buffer that has not been built yet.
const UNBUILT: u32 = u32::MAX;

/// Per-event state of one projection's shared buffer.
#[derive(Clone, Copy)]
struct EventRows {
    /// Position of the event's deleted key in `SharedRows::keys`.
    key: u32,
    /// Position of its `[key | projected]` row in `SharedRows::rows`.
    row: u32,
    /// Whether a projected column differs between its two images:
    /// unknown until first asked.
    changed: Option<bool>,
}

/// One `(view, projection)`'s shared buffer, built lazily: an event's key
/// or row is cloned the first time a leaf delivers it and selected by
/// position from then on.
struct SharedBuilder<'p> {
    key_cols: &'p [usize],
    proj: &'p [usize],
    events: Vec<EventRows>,
    shared: SharedRows,
}

impl<'p> SharedBuilder<'p> {
    fn new(key_cols: &'p [usize], proj: &'p [usize], events: usize) -> Self {
        let unbuilt = EventRows {
            key: UNBUILT,
            row: UNBUILT,
            changed: None,
        };
        SharedBuilder {
            key_cols,
            proj,
            events: vec![unbuilt; events],
            shared: SharedRows {
                keys: RowBuf::new(key_cols.len()),
                rows: RowBuf::new(key_cols.len() + proj.len()),
            },
        }
    }

    /// Whether event `e`'s UPDATE changes a projected column.
    fn changed(&mut self, e: u32, pre: &[Datum], post: &[Datum]) -> bool {
        let proj = self.proj;
        *self.events[idx(e)]
            .changed
            .get_or_insert_with(|| proj.iter().any(|&c| pre[c] != post[c]))
    }

    /// Position of event `e`'s deleted key, read from its pre-image (equal
    /// to the post-image's key: netting is per view key).
    fn key(&mut self, e: u32, pre: &[Datum]) -> u32 {
        let slot = &mut self.events[idx(e)].key;
        if *slot == UNBUILT {
            *slot = pos32(self.shared.keys.len());
            let dst = self.shared.keys.push_null_row();
            for (d, &c) in dst.iter_mut().zip(self.key_cols) {
                *d = pre[c].clone();
            }
        }
        *slot
    }

    /// Position of event `e`'s `[key | projected post-image]` row.
    fn row(&mut self, e: u32, post: &[Datum]) -> u32 {
        let slot = &mut self.events[idx(e)].row;
        if *slot == UNBUILT {
            *slot = pos32(self.shared.rows.len());
            let dst = self.shared.rows.push_null_row();
            for (d, &c) in dst.iter_mut().zip(self.key_cols.iter().chain(self.proj)) {
                *d = post[c].clone();
            }
        }
        *slot
    }
}

/// Build every live leaf's update set from its group's hits (`Err` for a
/// group whose filter panicked), one shared buffer per projection. Per
/// leaf, an event contributes a delete, an insert, both (an UPDATE of a
/// projected column), or nothing (projected columns unchanged). Returns one
/// list of `(leaf index, set)` per group, in group order; a leaf with
/// nothing to deliver gets no set.
fn build_sets(
    job: &ViewJob<'_>,
    hits: &[std::result::Result<Vec<Hit>, String>],
    lsn: Lsn,
) -> Vec<Vec<(usize, UpdateSet)>> {
    let mut out: Vec<Vec<(usize, UpdateSet)>> = job.groups.iter().map(|_| Vec::new()).collect();
    for (pi, proj) in job.projs.iter().enumerate() {
        let mut b = SharedBuilder::new(&job.key_cols, proj, job.events.len());
        let mut selected = Vec::new();
        for (gi, (group, hits)) in job.groups.iter().zip(hits).enumerate() {
            let Ok(hits) = hits else { continue };
            for &(li, _) in group.leaves.iter().filter(|(_, p)| *p == pi) {
                let (mut ins, mut del) = (Vec::new(), Vec::new());
                for &(e, pre_m, post_m) in hits {
                    let ev = &job.events[idx(e)];
                    match (ev.pre.filter(|_| pre_m), ev.post.filter(|_| post_m)) {
                        (Some(pre), Some(post)) => {
                            if b.changed(e, pre, post) {
                                del.push(b.key(e, pre));
                                ins.push(b.row(e, post));
                            }
                        }
                        (Some(pre), None) => del.push(b.key(e, pre)),
                        (None, Some(post)) => ins.push(b.row(e, post)),
                        (None, None) => {}
                    }
                }
                if !ins.is_empty() || !del.is_empty() {
                    selected.push((gi, li, ins, del));
                }
            }
        }
        let shared = Arc::new(b.shared);
        for (gi, li, ins, del) in selected {
            let set = UpdateSet::select(lsn, job.key_cols.len(), Arc::clone(&shared), ins, del);
            out[gi].push((li, set));
        }
    }
    out
}

/// Evaluate every job under [`ojv_exec::catch_each`]: each filter group's
/// predicate, then each view's sets. A panicking group becomes a failed
/// [`JobResult`] and its siblings still publish; a panic while building a
/// view's sets fails every group of that view.
fn run_jobs(jobs: &[ViewJob<'_>], lsn: Lsn) -> Vec<JobResult> {
    let groups = jobs
        .iter()
        .flat_map(|job| job.groups.iter().map(move |group| (job, group)));
    let mut hits =
        ojv_exec::catch_each(groups, |_, (job, group)| eval_filter(job, &group.filter)).into_iter();
    let hits: Vec<Vec<_>> = jobs
        .iter()
        .map(|job| hits.by_ref().take(job.groups.len()).collect())
        .collect();
    let built = ojv_exec::catch_each(jobs.iter().zip(&hits), |_, (job, hits)| {
        build_sets(job, hits, lsn)
    });
    let mut results = Vec::new();
    for ((job, hits), built) in jobs.iter().zip(hits).zip(built) {
        let mut built = built.map(Vec::into_iter);
        for (group, hit) in job.groups.iter().zip(hits) {
            let sets = match &mut built {
                Ok(sets) => Ok(sets.next().unwrap_or_default()),
                Err(detail) => Err(detail.clone()),
            };
            results.push(JobResult {
                view_idx: job.view_idx,
                group_idx: group.group_idx,
                leaf_idxs: group.leaves.iter().map(|&(li, _)| li).collect(),
                outcome: hit.and(sets).map_err(|detail| FeedError::FanoutPanic {
                    view: job.view.to_string(),
                    detail,
                }),
            });
        }
    }
    results
}

// ---------------------------------------------------------------------------
// Scans and diffs (catch-up, initial images)
// ---------------------------------------------------------------------------

/// Filtered, projected image of a snapshot view in `[key | proj]` layout.
/// Filtering happens on the stored wide rows — rejected rows are never
/// widened or copied (see [`filter_project_into`]).
fn scan_image(
    view: &SnapshotView,
    filter: &FeedFilter,
    proj_global: &[usize],
    lsn: Lsn,
) -> Materialization {
    let key_cols = view.key_cols();
    let mut cols = Vec::with_capacity(key_cols.len() + proj_global.len());
    cols.extend_from_slice(key_cols);
    cols.extend_from_slice(proj_global);
    let out_cols = view.projection();
    let mut rows = RowBuf::new(cols.len());
    filter_project_into(
        view.wide_rows().iter().map(|r| r.as_slice()),
        |r| filter.matches_row(r, out_cols),
        &cols,
        &mut rows,
    );
    Materialization {
        lsn,
        key_width: key_cols.len(),
        rows,
    }
}

/// Net diff between two images of the same subscription at different LSNs —
/// the catch-up set moving a subscriber state at `old.lsn` to `lsn`.
fn diff_images(old: &Materialization, new: &Materialization, lsn: Lsn) -> UpdateSet {
    let kw = new.key_width;
    let mut deletes = RowBuf::new(kw);
    let mut inserts = RowBuf::new(new.rows.width());
    let mut old_map: FxHashMap<&[Datum], &[Datum]> = fx_map_with_capacity(old.rows.len());
    for row in old.rows.iter() {
        old_map.insert(&row[..kw], row);
    }
    for row in new.rows.iter() {
        match old_map.remove(&row[..kw]) {
            Some(prev) if prev == row => {}
            Some(_) => {
                deletes.push_row(&row[..kw]);
                inserts.push_row(row);
            }
            None => inserts.push_row(row),
        }
    }
    let mut gone: Vec<&[Datum]> = old_map.into_keys().collect();
    gone.sort();
    for key in gone {
        deletes.push_row(key);
    }
    UpdateSet::from_rows(lsn, kw, deletes, inserts)
}

/// Canonical state bytes of a fresh filtered scan — the differential twin of
/// [`SubscriberState::state_bytes`]. Tests compare a drained subscriber
/// against this without evaluating predicates themselves.
pub fn scan_state_bytes(view: &SnapshotView, spec: &SubscriptionSpec) -> Result<Vec<u8>> {
    let out_cols = view.projection();
    let proj_out = spec.resolve(out_cols.len())?;
    let proj_global: Vec<usize> = proj_out.iter().map(|&i| out_cols[i]).collect();
    let image = scan_image(view, &spec.filter, &proj_global, 0);
    Ok(SubscriberState::new(&image).state_bytes())
}

// ---------------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------------

/// Shared handle to the change-feed hub. Cheap to clone; all clones address
/// the same state. Attach it to a [`Database`] (or
/// [`DurableDatabase`]) and it translates every commit into per-subscriber
/// update sets.
#[derive(Clone)]
pub struct FeedHub {
    inner: Arc<Mutex<HubInner>>,
}

impl fmt::Debug for FeedHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Deliberately lock-free: Debug may run while the hub lock is held.
        f.debug_struct("FeedHub").finish_non_exhaustive()
    }
}

impl Default for FeedHub {
    fn default() -> Self {
        Self::new()
    }
}

impl FeedHub {
    /// An empty hub; attach it to a database to start translating commits.
    pub fn new() -> Self {
        FeedHub {
            inner: Arc::new(Mutex::new(HubInner {
                lsn: 0,
                registry: None,
                views: Vec::new(),
                subs: SubTable::default(),
                parked: Vec::new(),
                max_retained: DEFAULT_RETAINED,
                last_error: None,
                commits_seen: 0,
                last_fanout_nanos: 0,
                total_fanout_nanos: 0,
            })),
        }
    }

    /// Cap each leaf's retained ring at `sets` update sets (≥ 1). A
    /// subscriber lagging further lapses to a snapshot rebase on its next
    /// drain.
    pub fn set_retention(&self, sets: usize) {
        self.lock().max_retained = sets.max(1);
    }

    fn lock(&self) -> MutexGuard<'_, HubInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Attach to a database: future commits flow into the hub. Replaces any
    /// previously attached observer.
    pub fn attach(&self, db: &mut Database) {
        {
            let mut g = self.lock();
            g.registry = Some(db.snapshots().clone());
            g.lsn = db.commit_lsn();
        }
        db.attach_commit_observer(Arc::new(self.clone()));
    }

    /// Attach to a durable database; cursors and catch-up LSNs are then WAL
    /// LSNs, valid across restarts of the process (state is rebuilt by
    /// re-attaching and letting subscribers [`FeedHub::resume`]).
    pub fn attach_durable<V: Vfs>(&self, db: &mut DurableDatabase<V>) {
        {
            let mut g = self.lock();
            g.registry = Some(db.snapshots().clone());
            g.lsn = db.database().commit_lsn();
        }
        db.attach_commit_observer(Arc::new(self.clone()));
    }

    /// Register a subscription. Returns the handle plus the initial filtered
    /// image of the view at the subscription's starting LSN; subsequent
    /// [`Subscription::drain`]s deliver exactly the commits after it.
    pub fn subscribe(&self, spec: &SubscriptionSpec) -> Result<(Subscription, Materialization)> {
        let mut g = self.lock();
        let registry = g.registry.clone().ok_or(FeedError::NotAttached)?;
        // Lock order is hub → registry, everywhere: commits release the
        // registry lock before the observer runs, so no inversion.
        let pin = registry.pin()?;
        let view = pin.view(&spec.view).ok_or_else(|| FeedError::UnknownView {
            view: spec.view.clone(),
        })?;
        let proj_out = spec.resolve(view.projection().len())?;
        let fp = spec.fingerprint(&proj_out);
        let view_idx = g.ensure_view(view, pin.lsn());
        let (group_idx, leaf_idx) = g.ensure_leaf(view_idx, spec, fp, &proj_out, pin.lsn());
        let leaf = &mut g.views[view_idx].groups[group_idx].leaves[leaf_idx];
        leaf.subscribers += 1;
        let proj_global = Arc::clone(&leaf.proj_global);
        let id = g.subs.insert(SubEntry {
            view_idx,
            group_idx,
            leaf_idx,
            cursor: pin.lsn(),
        });
        let image = scan_image(view, &spec.filter, &proj_global, pin.lsn());
        Ok((
            Subscription {
                hub: self.clone(),
                id,
                view: Arc::from(spec.view.as_str()),
            },
            image,
        ))
    }

    /// Re-register a subscription whose client last applied `from_lsn`:
    ///
    /// * the leaf's ring still covers `from_lsn` → [`Resumed::Stream`]
    ///   (keep local state, just drain);
    /// * the ring lapsed but the snapshot registry can still pin `from_lsn`
    ///   → [`Resumed::CatchUp`] (one synthetic diff set from `from_lsn` to
    ///   now);
    /// * `from_lsn` is below the snapshot floor → [`Resumed::Rebase`]
    ///   (fresh full image).
    pub fn resume(
        &self,
        spec: &SubscriptionSpec,
        from_lsn: Lsn,
    ) -> Result<(Subscription, Resumed)> {
        let mut g = self.lock();
        let registry = g.registry.clone().ok_or(FeedError::NotAttached)?;
        let pin = registry.pin()?;
        let view = pin.view(&spec.view).ok_or_else(|| FeedError::UnknownView {
            view: spec.view.clone(),
        })?;
        let proj_out = spec.resolve(view.projection().len())?;
        let fp = spec.fingerprint(&proj_out);
        let view_idx = g.ensure_view(view, pin.lsn());
        let (group_idx, leaf_idx) = g.ensure_leaf(view_idx, spec, fp, &proj_out, pin.lsn());
        let (floor, proj_global) = {
            let leaf = &g.views[view_idx].groups[group_idx].leaves[leaf_idx];
            (leaf.floor_lsn, Arc::clone(&leaf.proj_global))
        };
        let (resumed, cursor) = if from_lsn >= floor {
            (Resumed::Stream, from_lsn)
        } else {
            match registry.pin_at(from_lsn) {
                Ok(old_pin) => {
                    let old_view =
                        old_pin
                            .view(&spec.view)
                            .ok_or_else(|| FeedError::UnknownView {
                                view: spec.view.clone(),
                            })?;
                    let old = scan_image(old_view, &spec.filter, &proj_global, old_pin.lsn());
                    let new = scan_image(view, &spec.filter, &proj_global, pin.lsn());
                    let set = diff_images(&old, &new, pin.lsn());
                    (Resumed::CatchUp(Arc::new(set)), pin.lsn())
                }
                Err(CoreError::SnapshotUnavailable { .. }) => {
                    let image = scan_image(view, &spec.filter, &proj_global, pin.lsn());
                    (Resumed::Rebase(image), pin.lsn())
                }
                Err(e) => return Err(e.into()),
            }
        };
        // The client is back: its parked retention pin (if any) has done its
        // job and the registry may reclaim history behind the new cursor.
        if let Some(i) = g.parked.iter().position(|(l, _)| *l == from_lsn) {
            g.parked.swap_remove(i);
        }
        let leaf = &mut g.views[view_idx].groups[group_idx].leaves[leaf_idx];
        leaf.subscribers += 1;
        let id = g.subs.insert(SubEntry {
            view_idx,
            group_idx,
            leaf_idx,
            cursor,
        });
        Ok((
            Subscription {
                hub: self.clone(),
                id,
                view: Arc::from(spec.view.as_str()),
            },
            resumed,
        ))
    }

    /// Aggregate counters.
    pub fn stats(&self) -> FeedStats {
        let g = self.lock();
        let mut stats = FeedStats {
            subscribers: g.subs.len(),
            views: g.views.len(),
            commits_seen: g.commits_seen,
            last_fanout_nanos: g.last_fanout_nanos,
            total_fanout_nanos: g.total_fanout_nanos,
            ..FeedStats::default()
        };
        // (buffer, rows) per retained set; leaves of one projection share
        // a buffer, so it is counted once.
        let mut buffers: Vec<(*const SharedRows, usize)> = Vec::new();
        for vf in &g.views {
            for group in &vf.groups {
                let live = group.leaves.iter().filter(|l| l.subscribers > 0).count();
                if live > 0 {
                    stats.filter_groups += 1;
                }
                stats.shared_evals += live;
                for set in group.leaves.iter().flat_map(|l| &l.ring) {
                    stats.retained_sets += 1;
                    buffers.push((Arc::as_ptr(set.shared()), set.shared().len()));
                }
            }
        }
        buffers.sort_unstable_by_key(|&(buffer, _)| buffer);
        buffers.dedup_by_key(|&mut (buffer, _)| buffer);
        stats.retained_rows = buffers.iter().map(|&(_, rows)| rows).sum();
        stats
    }

    /// Take (and clear) the last fan-out failure — a job panic caught at
    /// the job boundary. The affected group's subscribers have lapsed and
    /// will rebase on their next drain.
    pub fn take_error(&self) -> Option<FeedError> {
        let mut g = self.lock();
        g.last_error.take()
    }

    /// First half of a fan-out: under the hub lock, net each watched view's
    /// ops and assemble one job per view; then (lock released) evaluate its
    /// filter groups and build its leaves' sets.
    /// Nothing is visible to subscribers until
    /// [`FeedHub::publish_fanout`]. Split out so tests can interleave
    /// subscriber operations between the two halves deterministically.
    pub fn begin_fanout(&self, lsn: Lsn, updates: &[(String, Vec<ViewOp>)]) -> FanoutBatch {
        let started = Instant::now();
        let jobs = self.lock().view_jobs(updates);
        let results = run_jobs(&jobs, lsn);
        FanoutBatch {
            lsn,
            started,
            results,
        }
    }

    /// Second half of a fan-out: append the evaluated sets to their leaves'
    /// rings (atomically, under the hub lock) and advance the hub LSN. A
    /// leaf that (re-)subscribed at or after this LSN is skipped — its
    /// initial image already includes the commit. A failed job fences its
    /// leaves instead: their subscribers lapse and rebase.
    pub fn publish_fanout(&self, batch: FanoutBatch) {
        let elapsed = batch.started.elapsed().as_nanos() as u64; // lint:allow(cast) — ~584 years of headroom
        let mut g = self.lock();
        let cap = g.max_retained;
        for res in batch.results {
            let (vf, gi) = (&mut g.views[res.view_idx], res.group_idx);
            match res.outcome {
                Ok(sets) => {
                    for (li, set) in sets {
                        let leaf = &vf.groups[gi].leaves[li];
                        if set.lsn <= leaf.born_lsn || leaf.subscribers == 0 {
                            continue;
                        }
                        vf.hold(gi, li, set);
                        if let Some(floor) = vf.trim(gi, li, cap) {
                            vf.groups[gi].leaves[li].floor_lsn = floor;
                        }
                    }
                }
                Err(e) => {
                    for &li in &res.leaf_idxs {
                        vf.trim(gi, li, 0);
                        vf.groups[gi].leaves[li].floor_lsn = batch.lsn;
                    }
                    g.last_error = Some(e);
                }
            }
        }
        for vf in &mut g.views {
            vf.settle();
        }
        if batch.lsn > g.lsn {
            g.lsn = batch.lsn;
        }
        g.commits_seen += 1;
        g.last_fanout_nanos = elapsed;
        g.total_fanout_nanos += elapsed;
    }

    fn drain_sub(&self, id: u64) -> Result<Drained> {
        let mut g = self.lock();
        let entry = *g.subs.get(id).ok_or(FeedError::UnknownSubscriber { id })?;
        let hub_lsn = g.lsn;
        let leaf = &g.views[entry.view_idx].groups[entry.group_idx].leaves[entry.leaf_idx];
        if entry.cursor < leaf.floor_lsn {
            // Lapsed past the ring (or fenced by a fan-out failure):
            // replace the subscriber's state from a fresh pin.
            let registry = g.registry.clone().ok_or(FeedError::NotAttached)?;
            let pin = registry.pin()?;
            let vf = &g.views[entry.view_idx];
            let view = pin.view(&vf.name).ok_or_else(|| FeedError::UnknownView {
                view: vf.name.to_string(),
            })?;
            let group = &vf.groups[entry.group_idx];
            let filter = Arc::clone(&group.filter);
            let proj_global = Arc::clone(&group.leaves[entry.leaf_idx].proj_global);
            let image = scan_image(view, &filter, &proj_global, pin.lsn());
            let cursor = pin.lsn();
            g.subs.get_mut(id).expect("present above").cursor = cursor;
            return Ok(Drained::Rebase(image));
        }
        // The ring is in LSN order: the owed sets are its newest ones.
        let owed = leaf
            .ring
            .iter()
            .rev()
            .take_while(|s| s.lsn > entry.cursor)
            .count();
        let sets: Vec<Arc<UpdateSet>> =
            leaf.ring.range(leaf.ring.len() - owed..).cloned().collect();
        let cursor = hub_lsn.max(entry.cursor);
        g.subs.get_mut(id).expect("present above").cursor = cursor;
        Ok(Drained::Updates(sets))
    }

    fn cursor_of(&self, id: u64) -> Result<Lsn> {
        let g = self.lock();
        g.subs
            .get(id)
            .map(|e| e.cursor)
            .ok_or(FeedError::UnknownSubscriber { id })
    }

    fn park_id(&self, id: u64) -> Result<Lsn> {
        let mut g = self.lock();
        let cursor = g
            .subs
            .get(id)
            .map(|e| e.cursor)
            .ok_or(FeedError::UnknownSubscriber { id })?;
        let registry = g.registry.clone().ok_or(FeedError::NotAttached)?;
        // Pinning the cursor keeps every later version materializable, so a
        // future resume(spec, cursor) is guaranteed a catch-up diff rather
        // than a rebase (hub → registry lock order, as everywhere).
        let pin = registry.pin_at(cursor)?;
        g.parked.push((cursor, pin));
        Ok(cursor)
    }

    fn unsubscribe_id(&self, id: u64) -> Result<()> {
        let mut g = self.lock();
        let entry = g
            .subs
            .remove(id)
            .ok_or(FeedError::UnknownSubscriber { id })?;
        let vf = &mut g.views[entry.view_idx];
        let leaf = &mut vf.groups[entry.group_idx].leaves[entry.leaf_idx];
        leaf.subscribers -= 1;
        if leaf.subscribers == 0 {
            // Keep the leaf (stable indices, cheap re-subscribe) but drop
            // its retained sets: nobody can drain them any more.
            vf.trim(entry.group_idx, entry.leaf_idx, 0);
            vf.settle();
        }
        Ok(())
    }
}

impl HubInner {
    /// One job per updated view with live leaves: its netted events, its
    /// filter groups with live leaves, and their distinct projections. A
    /// view nobody listens to is not netted; a batch that cancels out
    /// entirely makes no job.
    fn view_jobs<'a>(&self, updates: &'a [(String, Vec<ViewOp>)]) -> Vec<ViewJob<'a>> {
        let mut jobs = Vec::new();
        for (name, ops) in updates {
            if ops.is_empty() {
                continue;
            }
            let Some(view_idx) = self
                .views
                .iter()
                .position(|v| v.name.as_ref() == name.as_str())
            else {
                continue; // no subscribers have ever touched this view
            };
            let vf = &self.views[view_idx];
            let mut projs: Vec<Arc<[usize]>> = Vec::new();
            let mut groups = Vec::new();
            for (group_idx, group) in vf.groups.iter().enumerate() {
                let leaves: Vec<(usize, usize)> = group
                    .leaves
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.subscribers > 0)
                    .map(|(li, l)| {
                        let pi = match projs.iter().position(|p| *p == l.proj_global) {
                            Some(pi) => pi,
                            None => {
                                projs.push(Arc::clone(&l.proj_global));
                                projs.len() - 1
                            }
                        };
                        (li, pi)
                    })
                    .collect();
                if !leaves.is_empty() {
                    groups.push(GroupJob {
                        group_idx,
                        filter: Arc::clone(&group.filter),
                        leaves,
                    });
                }
            }
            if groups.is_empty() {
                continue;
            }
            let events = net_events(ops, &vf.key_cols);
            if events.is_empty() {
                continue;
            }
            jobs.push(ViewJob {
                view: Arc::clone(&vf.name),
                view_idx,
                key_cols: Arc::clone(&vf.key_cols),
                out_cols: Arc::clone(&vf.out_cols),
                events,
                projs,
                groups,
            });
        }
        jobs
    }

    /// Find or create the per-view feed state for the pinned `view`. A view
    /// re-created with another layout (key or projection) since the state
    /// was made gets the new layout, and every existing leaf is re-resolved
    /// against it and lapses, so its subscribers rebase onto the new view.
    /// A leaf whose filter or projection no longer fits the new output
    /// width is retired: its subscriptions end.
    fn ensure_view(&mut self, view: &SnapshotView, lsn: Lsn) -> usize {
        let Some(i) = self
            .views
            .iter()
            .position(|v| v.name.as_ref() == view.name())
        else {
            self.views.push(ViewFeed {
                name: Arc::from(view.name()),
                key_cols: view.key_cols().into(),
                out_cols: view.projection().into(),
                groups: Vec::new(),
                buffers: FxHashMap::default(),
                unsettled: Vec::new(),
            });
            return self.views.len() - 1;
        };
        let vf = &mut self.views[i];
        if *vf.key_cols == *view.key_cols() && *vf.out_cols == *view.projection() {
            return i;
        }
        vf.key_cols = view.key_cols().into();
        vf.out_cols = view.projection().into();
        let width = vf.out_cols.len();
        let mut retired = Vec::new();
        // Every ring empties below, so no buffer is held any more.
        vf.buffers.clear();
        vf.unsettled.clear();
        for (gi, group) in vf.groups.iter_mut().enumerate() {
            let filter_fits = group.filter.max_col().is_none_or(|c| c < width);
            for (li, leaf) in group.leaves.iter_mut().enumerate() {
                leaf.ring.clear();
                // Above every live cursor (all are at or below `lsn`).
                leaf.floor_lsn = lsn + 1;
                leaf.born_lsn = lsn;
                if filter_fits && leaf.proj_out.iter().all(|&c| c < width) {
                    leaf.proj_global = leaf.proj_out.iter().map(|&c| vf.out_cols[c]).collect();
                } else if leaf.subscribers > 0 {
                    leaf.subscribers = 0;
                    retired.push((gi, li));
                }
            }
        }
        self.subs
            .retain(|e| e.view_idx != i || !retired.contains(&(e.group_idx, e.leaf_idx)));
        i
    }

    /// Find or create the `(filter, projection)` leaf; a leaf revived from
    /// zero subscribers restarts at `lsn` (its stale ring is useless).
    fn ensure_leaf(
        &mut self,
        view_idx: usize,
        spec: &SubscriptionSpec,
        fp: u64,
        proj_out: &[usize],
        lsn: Lsn,
    ) -> (usize, usize) {
        let filter_fp = spec.filter_fingerprint();
        let vf = &mut self.views[view_idx];
        let out_cols = Arc::clone(&vf.out_cols);
        let gi = match vf.groups.iter().position(|g| g.filter_fp == filter_fp) {
            Some(i) => i,
            None => {
                vf.groups.push(FilterGroup {
                    filter_fp,
                    filter: Arc::new(spec.filter.clone()),
                    leaves: Vec::new(),
                });
                vf.groups.len() - 1
            }
        };
        let group = &mut vf.groups[gi];
        let li = match group.leaves.iter().position(|l| l.fp == fp) {
            Some(i) => {
                let leaf = &mut group.leaves[i];
                if leaf.subscribers == 0 {
                    leaf.born_lsn = lsn;
                    leaf.floor_lsn = lsn;
                    vf.trim(gi, i, 0);
                    vf.settle();
                }
                i
            }
            None => {
                group.leaves.push(EvalLeaf {
                    fp,
                    proj_out: proj_out.into(),
                    proj_global: proj_out.iter().map(|&i| out_cols[i]).collect(),
                    born_lsn: lsn,
                    floor_lsn: lsn,
                    ring: VecDeque::new(),
                    subscribers: 0,
                });
                group.leaves.len() - 1
            }
        };
        (gi, li)
    }
}

impl CommitObserver for FeedHub {
    fn on_commit(&self, lsn: Lsn, updates: &[(String, Vec<ViewOp>)]) {
        let batch = self.begin_fanout(lsn, updates);
        self.publish_fanout(batch);
    }

    fn fanout_stats(&self) -> Option<FanoutStats> {
        let stats = self.stats();
        Some(FanoutStats {
            subscribers: stats.subscribers,
            shared_evals: stats.shared_evals,
        })
    }
}

/// An evaluated-but-unpublished fan-out (see [`FeedHub::begin_fanout`]).
#[must_use = "publish_fanout(batch) makes the fan-out visible to subscribers"]
pub struct FanoutBatch {
    lsn: Lsn,
    started: Instant,
    results: Vec<JobResult>,
}

impl FanoutBatch {
    /// Commit LSN this batch carries.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }
}

impl fmt::Debug for FanoutBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanoutBatch")
            .field("lsn", &self.lsn)
            .field("jobs", &self.results.len())
            .finish_non_exhaustive()
    }
}

/// A live subscription handle. Dropping it unsubscribes.
#[derive(Debug)]
pub struct Subscription {
    hub: FeedHub,
    id: u64,
    view: Arc<str>,
}

impl Subscription {
    /// Stable subscriber id within the hub.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// View this subscription watches.
    pub fn view(&self) -> &str {
        &self.view
    }

    /// The LSN the hub believes this subscriber has applied (advances on
    /// every drain). Persist it to [`FeedHub::resume`] later.
    pub fn cursor(&self) -> Result<Lsn> {
        self.hub.cursor_of(self.id)
    }

    /// Pull everything committed since the last drain, in LSN order.
    pub fn drain(&self) -> Result<Drained> {
        self.hub.drain_sub(self.id)
    }

    /// Explicitly unsubscribe (equivalent to dropping the handle).
    pub fn unsubscribe(self) {}

    /// Gracefully disconnect: unsubscribe, but leave a retention pin at the
    /// current cursor so the snapshot registry keeps every later version
    /// alive. Returns the cursor to persist; a later
    /// [`FeedHub::resume`]`(spec, cursor)` is then guaranteed a catch-up
    /// diff (never a full rebase) and releases the pin. An abrupt `drop`
    /// leaves no pin — resuming still works while the leaf's ring covers
    /// the cursor, and degrades to a rebase beyond that.
    pub fn park(self) -> Result<Lsn> {
        self.hub.park_id(self.id)
        // `self` drops here, unsubscribing.
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let _ = self.hub.unsubscribe_id(self.id);
    }
}

/// Deterministic panic injection for exercising the fan-out's
/// `catch_unwind` boundary from integration tests. Mirrors
/// `ojv_core::batch`'s test hook, but always compiled (hidden) so external
/// tests can reach it.
#[doc(hidden)]
pub mod test_panic {
    use std::sync::atomic::{AtomicBool, Ordering};

    static ARMED: AtomicBool = AtomicBool::new(false);

    /// Fan-out jobs for this view panic while armed.
    pub const PANIC_VIEW: &str = "panic_feed";

    pub fn arm() {
        ARMED.store(true, Ordering::SeqCst);
    }

    pub fn disarm() {
        ARMED.store(false, Ordering::SeqCst);
    }

    pub(crate) fn maybe_panic(view: &str) {
        if view == PANIC_VIEW && ARMED.swap(false, Ordering::SeqCst) {
            panic!("armed feed fan-out panic for view {view}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ojv_algebra::CmpOp;
    use ojv_core::fixtures;
    use ojv_core::prelude::Database;

    fn db() -> Database {
        let mut catalog = fixtures::example1_catalog();
        fixtures::populate_example1(&mut catalog, 10, 12);
        let mut db = Database::new(catalog);
        db.create_view(fixtures::oj_view_def()).unwrap();
        db
    }

    /// Subscription over all rows whose part side is present
    /// (`p_partkey IS NOT NULL`), projecting part key and name.
    fn part_spec() -> SubscriptionSpec {
        SubscriptionSpec::on("oj_view")
            .with_filter(FeedFilter::new(vec![crate::filter::FeedAtom::IsNotNull {
                col: 0,
            }]))
            .with_projection(vec![0, 1])
    }

    fn apply_all(state: &mut SubscriberState, drained: Drained) {
        match drained {
            Drained::Updates(sets) => {
                for set in sets {
                    state.apply(&set);
                }
            }
            Drained::Rebase(image) => state.rebase(&image),
        }
    }

    /// The differential harness: after every commit, a drained subscriber
    /// must byte-match a fresh filtered scan of the current snapshot.
    fn assert_converged(db: &Database, spec: &SubscriptionSpec, state: &SubscriberState) {
        let pin = db.snapshots().pin().unwrap();
        let view = pin.view(&spec.view).unwrap();
        let want = scan_state_bytes(view, spec).unwrap();
        assert_eq!(
            state.state_bytes(),
            want,
            "subscriber state diverged from the snapshot scan"
        );
    }

    #[test]
    fn subscribe_stream_converges_with_snapshot_scans() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        let spec = part_spec();
        let (sub, image) = hub.subscribe(&spec).unwrap();
        let mut state = SubscriberState::new(&image);
        assert_converged(&db, &spec, &state);

        // Insert: one new null-extended part row.
        db.insert("part", vec![fixtures::part_row(100, "new", 9.0)])
            .unwrap();
        apply_all(&mut state, sub.drain().unwrap());
        assert_converged(&db, &spec, &state);

        // Lineitem insert joins an existing part: the view rewrites rows.
        db.insert("lineitem", vec![fixtures::lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        apply_all(&mut state, sub.drain().unwrap());
        assert_converged(&db, &spec, &state);

        // Delete the part again.
        db.delete("part", &[vec![Datum::Int(100)]]).unwrap();
        apply_all(&mut state, sub.drain().unwrap());
        assert_converged(&db, &spec, &state);

        // Empty drain afterwards — nothing new, cursor is at the tip.
        match sub.drain().unwrap() {
            Drained::Updates(sets) => assert!(sets.is_empty()),
            other => panic!("expected empty Updates, got {other:?}"),
        }
    }

    #[test]
    fn identical_specs_share_one_evaluation() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        let spec = part_spec();
        let subs: Vec<_> = (0..10).map(|_| hub.subscribe(&spec).unwrap()).collect();
        // A different projection of the same filter adds a leaf, not a group.
        let other = SubscriptionSpec::on("oj_view")
            .with_filter(spec.filter.clone())
            .with_projection(vec![2]);
        let (_other_sub, _img) = hub.subscribe(&other).unwrap();
        let stats = hub.stats();
        assert_eq!(stats.subscribers, 11);
        assert_eq!(stats.shared_evals, 2);
        assert_eq!(stats.filter_groups, 1);

        db.insert("part", vec![fixtures::part_row(200, "shared", 1.0)])
            .unwrap();
        // All ten identical subscribers drain clones of the same set.
        let mut first: Option<Arc<UpdateSet>> = None;
        for (sub, _) in &subs {
            match sub.drain().unwrap() {
                Drained::Updates(sets) => {
                    assert_eq!(sets.len(), 1);
                    if let Some(prev) = &first {
                        assert!(Arc::ptr_eq(prev, &sets[0]), "sets must be shared");
                    }
                    first = Some(Arc::clone(&sets[0]));
                }
                other => panic!("expected Updates, got {other:?}"),
            }
        }
    }

    #[test]
    fn unsubscribe_releases_leaves() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        let (sub_a, _) = hub.subscribe(&part_spec()).unwrap();
        let (sub_b, _) = hub.subscribe(&part_spec()).unwrap();
        assert_eq!(hub.stats().subscribers, 2);
        assert_eq!(hub.stats().shared_evals, 1);
        drop(sub_a);
        assert_eq!(hub.stats().subscribers, 1);
        assert_eq!(hub.stats().shared_evals, 1);
        sub_b.unsubscribe();
        let stats = hub.stats();
        assert_eq!(stats.subscribers, 0);
        assert_eq!(stats.shared_evals, 0);
        assert_eq!(stats.retained_sets, 0);
        // With no subscribers the commit is neither netted nor evaluated,
        // and no sets are retained.
        db.insert("part", vec![fixtures::part_row(300, "idle", 1.0)])
            .unwrap();
        assert_eq!(hub.stats().retained_sets, 0);
    }

    #[test]
    fn lagging_subscriber_lapses_and_rebases() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.set_retention(2);
        hub.attach(&mut db);
        let spec = part_spec();
        let (sub, image) = hub.subscribe(&spec).unwrap();
        let mut state = SubscriberState::new(&image);
        // Four commits against a retention of two: the ring floor moves past
        // the subscriber's cursor.
        for i in 0..4 {
            db.insert("part", vec![fixtures::part_row(400 + i, "lag", 1.0)])
                .unwrap();
        }
        match sub.drain().unwrap() {
            Drained::Rebase(img) => state.rebase(&img),
            other => panic!("expected Rebase, got {other:?}"),
        }
        assert_converged(&db, &spec, &state);
        // Once rebased, streaming resumes normally.
        db.insert("part", vec![fixtures::part_row(500, "back", 1.0)])
            .unwrap();
        apply_all(&mut state, sub.drain().unwrap());
        assert_converged(&db, &spec, &state);
    }

    #[test]
    fn park_then_resume_catches_up_from_a_pinned_lsn() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        let spec = part_spec();
        let (sub, image) = hub.subscribe(&spec).unwrap();
        let mut state = SubscriberState::new(&image);
        db.insert("part", vec![fixtures::part_row(600, "r1", 1.0)])
            .unwrap();
        apply_all(&mut state, sub.drain().unwrap());
        // Graceful disconnect: unsubscribes but pins the cursor so the
        // registry retains history across the gap.
        let cursor = sub.park().unwrap();

        // Commits while disconnected — including a delete of a row the
        // client still holds, which the catch-up diff must retract.
        db.insert("part", vec![fixtures::part_row(601, "r2", 1.0)])
            .unwrap();
        db.delete("part", &[vec![Datum::Int(600)]]).unwrap();

        let (sub2, resumed) = hub.resume(&spec, cursor).unwrap();
        match resumed {
            Resumed::CatchUp(set) => state.apply(&set),
            other => panic!("expected CatchUp, got {other:?}"),
        }
        assert_converged(&db, &spec, &state);

        // The resume released the parked pin: with no other pins the next
        // commit rebuilds no history, so resuming from `cursor` again can
        // no longer catch up and degrades to a rebase.
        db.insert("part", vec![fixtures::part_row(602, "r3", 1.0)])
            .unwrap();
        apply_all(&mut state, sub2.drain().unwrap());
        assert_converged(&db, &spec, &state);
        let (sub3, resumed) = hub.resume(&spec, cursor).unwrap();
        match resumed {
            Resumed::Rebase(img) => {
                let fresh = SubscriberState::new(&img);
                assert_converged(&db, &spec, &fresh);
            }
            other => panic!("expected Rebase after the pin was released, got {other:?}"),
        }
        drop(sub3);

        // An abrupt drop (no park) followed by more commits: the dead
        // leaf's ring is cleared, nothing pins history → rebase.
        drop(sub2);
        db.insert("part", vec![fixtures::part_row(603, "r4", 1.0)])
            .unwrap();
        let (_sub4, resumed) = hub.resume(&spec, cursor).unwrap();
        assert!(
            matches!(resumed, Resumed::Rebase(_)),
            "unparked resume across reclaimed history must rebase"
        );
    }

    /// An `UPDATE` is one commit, so each leaf receives exactly one netted
    /// set for it: a pre-image (deleted key) and a post-image (inserted
    /// row) per changed view row, or nothing when no projected column
    /// changed.
    #[test]
    fn update_is_one_netted_set_of_pre_and_post_images() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        // Project the lineitem price (output column 9) so updates to it are
        // visible.
        let spec = SubscriptionSpec::on("oj_view")
            .with_filter(FeedFilter::new(vec![crate::filter::FeedAtom::IsNotNull {
                col: 5,
            }]))
            .with_projection(vec![0, 9]);
        let (sub, image) = hub.subscribe(&spec).unwrap();
        let mut state = SubscriberState::new(&image);
        let lsn = db.commit_lsn();
        // UPDATE lineitem (1,1)'s price: delete + insert per affected view
        // row, netted within the one commit.
        db.update(
            "lineitem",
            &[vec![Datum::Int(1), Datum::Int(1)]],
            vec![fixtures::lineitem_row(1, 1, 2, 5, 999.0)],
        )
        .unwrap();
        assert_eq!(db.commit_lsn(), lsn + 1, "one UPDATE, one commit");
        match sub.drain().unwrap() {
            Drained::Updates(sets) => {
                assert_eq!(sets.len(), 1, "exactly one netted set: {sets:?}");
                let set = &sets[0];
                assert_eq!(set.lsn, lsn + 1);
                let (ins, del) = set.counts();
                assert!(ins > 0 && ins == del, "{ins} post-images, {del} pre-images");
                let key_of = |row: &[Datum]| row[..set.key_width].to_vec();
                let mut pre: Vec<Vec<Datum>> = set.deletes().map(<[Datum]>::to_vec).collect();
                let mut post: Vec<Vec<Datum>> = set.inserts().map(key_of).collect();
                pre.sort();
                post.sort();
                assert_eq!(pre, post, "each changed row has both images");
                state.apply(set);
            }
            other => panic!("expected Updates, got {other:?}"),
        }
        assert_converged(&db, &spec, &state);

        // An UPDATE that leaves the projected columns untouched nets to
        // nothing for this leaf (part name, output column 1, does not
        // change when a lineitem price does): no set is delivered.
        let spec_name = SubscriptionSpec::on("oj_view")
            .with_filter(FeedFilter::new(vec![crate::filter::FeedAtom::IsNotNull {
                col: 5,
            }]))
            .with_projection(vec![0, 1]);
        let (sub_name, image) = hub.subscribe(&spec_name).unwrap();
        let name_state = SubscriberState::new(&image);
        db.update(
            "lineitem",
            &[vec![Datum::Int(1), Datum::Int(1)]],
            vec![fixtures::lineitem_row(1, 1, 2, 5, 123.0)],
        )
        .unwrap();
        match sub_name.drain().unwrap() {
            Drained::Updates(sets) => {
                assert!(
                    sets.is_empty(),
                    "price change must net to nothing: {sets:?}"
                )
            }
            other => panic!("expected Updates, got {other:?}"),
        }
        assert_converged(&db, &spec_name, &name_state);
        // The price projection does see it, as one set.
        match sub.drain().unwrap() {
            Drained::Updates(sets) => {
                assert_eq!(sets.len(), 1, "{sets:?}");
                state.apply(&sets[0]);
            }
            other => panic!("expected Updates, got {other:?}"),
        }
        assert_converged(&db, &spec, &state);
    }

    #[test]
    fn filtered_subscriber_sees_rows_enter_and_leave_the_filter() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        // Only expensive lineitems (output column 9 = l_extendedprice; the
        // fixture's prices all stay below 500).
        let spec = SubscriptionSpec::on("oj_view")
            .with_filter(FeedFilter::cmp(9, CmpOp::Gt, Datum::Float(500.0)))
            .with_projection(vec![0, 9]);
        let (sub, image) = hub.subscribe(&spec).unwrap();
        let mut state = SubscriberState::new(&image);
        assert!(state.is_empty(), "no fixture lineitem costs more than 500");

        // Enters the filter.
        db.update(
            "lineitem",
            &[vec![Datum::Int(1), Datum::Int(1)]],
            vec![fixtures::lineitem_row(1, 1, 2, 5, 700.0)],
        )
        .unwrap();
        apply_all(&mut state, sub.drain().unwrap());
        assert_converged(&db, &spec, &state);
        assert!(!state.is_empty());

        // Leaves the filter: delivered as a delete, not silently dropped.
        db.update(
            "lineitem",
            &[vec![Datum::Int(1), Datum::Int(1)]],
            vec![fixtures::lineitem_row(1, 1, 2, 5, 10.0)],
        )
        .unwrap();
        apply_all(&mut state, sub.drain().unwrap());
        assert_converged(&db, &spec, &state);
        assert!(state.is_empty());
    }

    #[test]
    fn fanout_panic_is_contained_and_subscriber_rebases() {
        let mut db = db();
        db.create_view(fixtures::oj_view_variant(test_panic::PANIC_VIEW, 1_000))
            .unwrap();
        // Fanned out after the panicking view's group.
        db.create_view(fixtures::oj_view_variant("after_panic", 1_000))
            .unwrap();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        let panicking = SubscriptionSpec::on(test_panic::PANIC_VIEW);
        let healthy = part_spec();
        let later = SubscriptionSpec::on("after_panic");
        let (sub_p, image_p) = hub.subscribe(&panicking).unwrap();
        let (sub_h, image_h) = hub.subscribe(&healthy).unwrap();
        let (sub_l, image_l) = hub.subscribe(&later).unwrap();
        let mut state_p = SubscriberState::new(&image_p);
        let mut state_h = SubscriberState::new(&image_h);
        let mut state_l = SubscriberState::new(&image_l);

        test_panic::arm();
        db.insert("part", vec![fixtures::part_row(700, "boom", 1.0)])
            .unwrap();
        test_panic::disarm();

        // The failure is surfaced, not swallowed; the healthy view's
        // subscriber is unaffected.
        match hub.take_error() {
            Some(FeedError::FanoutPanic { view, .. }) => {
                assert_eq!(view, test_panic::PANIC_VIEW);
            }
            other => panic!("expected FanoutPanic, got {other:?}"),
        }
        apply_all(&mut state_h, sub_h.drain().unwrap());
        assert_converged(&db, &healthy, &state_h);
        // The group after the panicking one still delivered the new part.
        match sub_l.drain().unwrap() {
            Drained::Updates(sets) => {
                assert!(sets.iter().any(|set| !set.is_empty()), "{sets:?}");
                for set in sets {
                    state_l.apply(&set);
                }
            }
            other => panic!("expected streamed updates, got {other:?}"),
        }
        assert_converged(&db, &later, &state_l);

        // The panicked group's subscriber lapses and self-heals via rebase.
        match sub_p.drain().unwrap() {
            Drained::Rebase(img) => state_p.rebase(&img),
            other => panic!("expected Rebase after a fan-out panic, got {other:?}"),
        }
        assert_converged(&db, &panicking, &state_p);

        // Subsequent commits stream normally again.
        db.insert("part", vec![fixtures::part_row(701, "calm", 1.0)])
            .unwrap();
        apply_all(&mut state_p, sub_p.drain().unwrap());
        assert_converged(&db, &panicking, &state_p);
    }

    /// Commit `n` new parts (keys `from..from + n`): each adds one
    /// null-extended row to the view, i.e. one netted insert event.
    fn insert_parts(db: &mut Database, from: i64, n: i64) {
        let rows = (from..from + n)
            .map(|pk| fixtures::part_row(pk, "p", 1.0))
            .collect();
        db.insert("part", rows).unwrap();
    }

    #[test]
    fn filter_groups_over_one_projection_retain_each_row_once() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        // Sixteen distinct filters, each matching every new part row.
        let subs: Vec<_> = (0..16)
            .map(|i| {
                let spec = SubscriptionSpec::on("oj_view")
                    .with_filter(FeedFilter::cmp(0, CmpOp::Ge, Datum::Int(-i)))
                    .with_projection(vec![0, 1]);
                hub.subscribe(&spec).unwrap().0
            })
            .collect();
        assert_eq!(hub.stats().filter_groups, 16);
        insert_parts(&mut db, 100, 5);
        let stats = hub.stats();
        assert_eq!(stats.retained_sets, 16);
        assert_eq!(stats.retained_rows, 5, "one row per netted event, not 16x");
        assert_eq!(per_leaf_rows(&hub), 16 * 5);
        let sets: Vec<Arc<UpdateSet>> = subs
            .iter()
            .map(|sub| match sub.drain().unwrap() {
                Drained::Updates(mut sets) => {
                    assert_eq!(sets.len(), 1);
                    sets.pop().unwrap()
                }
                other => panic!("expected Updates, got {other:?}"),
            })
            .collect();
        for set in &sets {
            assert_eq!(set.counts(), (5, 0));
            assert!(Arc::ptr_eq(set.shared(), sets[0].shared()));
        }
    }

    #[test]
    fn lone_key_equality_subscriber_retains_only_its_rows() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        let spec = SubscriptionSpec::on("oj_view")
            .with_filter(FeedFilter::cmp(0, CmpOp::Eq, Datum::Int(102)))
            .with_projection(vec![0, 1]);
        let (sub, image) = hub.subscribe(&spec).unwrap();
        let mut state = SubscriberState::new(&image);
        insert_parts(&mut db, 100, 5);
        db.delete("part", &[vec![Datum::Int(102)], vec![Datum::Int(103)]])
            .unwrap();
        assert_eq!(hub.stats().retained_rows, 2, "one insert, one delete");
        let mut delivered = 0;
        match sub.drain().unwrap() {
            Drained::Updates(sets) => {
                for set in sets {
                    let (ins, del) = set.counts();
                    delivered += ins + del;
                    state.apply(&set);
                }
            }
            other => panic!("expected Updates, got {other:?}"),
        }
        assert_eq!(delivered, hub.stats().retained_rows);
        assert_converged(&db, &spec, &state);
    }

    /// Rows the rings would hold if every set kept its own copy of what it
    /// selects: the bound on `retained_rows`.
    fn per_leaf_rows(hub: &FeedHub) -> usize {
        let g = hub.lock();
        let leaves = g
            .views
            .iter()
            .flat_map(|v| &v.groups)
            .flat_map(|g| &g.leaves);
        leaves
            .flat_map(|l| &l.ring)
            .map(|set| set.counts().0 + set.counts().1)
            .sum()
    }

    #[test]
    fn sparse_leaf_does_not_pin_a_dense_leafs_buffers() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.set_retention(4);
        hub.attach(&mut db);
        // All on the default projection: match-all, `p_partkey = 102`, and
        // `p_partkey <= 102`. The new parts below miss the sparse filters
        // after the first commit.
        let on = |op, key| SubscriptionSpec::on("oj_view").with_filter(FeedFilter::cmp(0, op, key));
        let (key, low) = (
            on(CmpOp::Eq, Datum::Int(102)),
            on(CmpOp::Le, Datum::Int(102)),
        );
        let (dense_sub, _) = hub.subscribe(&SubscriptionSpec::on("oj_view")).unwrap();
        let (key_sub, image) = hub.subscribe(&key).unwrap();
        let mut state = SubscriberState::new(&image);
        let (low_sub, _) = hub.subscribe(&low).unwrap();
        insert_parts(&mut db, 100, 5);
        let first = match key_sub.drain().unwrap() {
            Drained::Updates(mut sets) => sets.pop().unwrap(),
            other => panic!("expected Updates, got {other:?}"),
        };
        state.apply(&first);
        assert_eq!(hub.stats().retained_rows, 5, "one buffer, shared");
        assert_eq!(per_leaf_rows(&hub), 5 + 1 + 3);
        // More than the ring's capacity of commits that miss both sparse
        // filters.
        for i in 0..6 {
            insert_parts(&mut db, 200 + 10 * i, 2);
            let retained = hub.stats().retained_rows;
            assert!(retained <= per_leaf_rows(&hub), "commit {i}");
        }
        // The dense ring holds its last 4 sets (2 rows each). The two
        // sparse sets of the first commit now share a buffer of just their
        // rows: parts 100 to 102.
        assert_eq!(hub.stats().retained_rows, 4 * 2 + 3);
        assert_eq!(per_leaf_rows(&hub), 4 * 2 + 1 + 3);
        let oldest = |sub: &Subscription| {
            let g = hub.lock();
            let e = *g.subs.get(sub.id()).unwrap();
            let leaf = &g.views[e.view_idx].groups[e.group_idx].leaves[e.leaf_idx];
            Arc::clone(&leaf.ring[0])
        };
        let (kept, kept_low) = (oldest(&key_sub), oldest(&low_sub));
        assert_eq!(kept.lsn, first.lsn);
        assert_eq!(kept.counts(), first.counts());
        assert!(kept.inserts().eq(first.inserts()));
        assert_eq!(kept_low.counts(), (3, 0));
        assert_eq!(kept.shared().len(), 3);
        assert!(Arc::ptr_eq(kept.shared(), kept_low.shared()));
        // Dropping the wider sparse subscriber shrinks the buffer to the
        // key's row; dropping the dense one lets its buffers go.
        drop(low_sub);
        assert_eq!(oldest(&key_sub).shared().len(), 1);
        insert_parts(&mut db, 300, 5);
        assert!(hub.stats().retained_rows <= per_leaf_rows(&hub));
        drop(dense_sub);
        assert_eq!(hub.stats().retained_rows, 1);
        assert_eq!(per_leaf_rows(&hub), 1);
        apply_all(&mut state, key_sub.drain().unwrap());
        assert_converged(&db, &key, &state);
        assert_eq!(hub.lock().views[0].buffers.len(), 1, "the key set's");
    }

    /// What a drain owed before the ring was searched from its newest end:
    /// every retained set past the cursor, or a rebase below the floor.
    fn reference_drain(hub: &FeedHub, id: u64) -> Option<Vec<Arc<UpdateSet>>> {
        let g = hub.lock();
        let entry = *g.subs.get(id).unwrap();
        let leaf = &g.views[entry.view_idx].groups[entry.group_idx].leaves[entry.leaf_idx];
        (entry.cursor >= leaf.floor_lsn).then(|| {
            leaf.ring
                .iter()
                .filter(|s| s.lsn > entry.cursor)
                .cloned()
                .collect()
        })
    }

    #[test]
    fn drain_owes_what_the_filter_all_sets_reference_owes() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.set_retention(4);
        hub.attach(&mut db);
        let spec = part_spec();
        let (sub, _) = hub.subscribe(&spec).unwrap();
        for i in 0..6 {
            insert_parts(&mut db, 100 + 10 * i, 2);
        }
        let (floor, newest) = {
            let g = hub.lock();
            let leaf = &g.views[0].groups[0].leaves[0];
            assert_eq!(leaf.ring.len(), 4);
            (leaf.floor_lsn, leaf.ring.back().unwrap().lsn)
        };
        let tip = db.commit_lsn();
        assert_eq!(newest, tip);
        let cases = [
            ("below the floor", floor - 1),
            ("at the floor", floor),
            ("mid-ring", floor + 2),
            ("at the newest set", newest),
        ];
        for (case, cursor) in cases {
            hub.lock().subs.get_mut(sub.id()).unwrap().cursor = cursor;
            let want = reference_drain(&hub, sub.id());
            match (sub.drain().unwrap(), want) {
                (Drained::Updates(got), Some(want)) => {
                    assert_eq!(got.len(), want.len(), "{case}");
                    for (g, w) in got.iter().zip(&want) {
                        assert!(Arc::ptr_eq(g, w), "{case}");
                    }
                }
                (Drained::Rebase(_), None) => {}
                (got, want) => panic!("{case}: drained {got:?}, reference owes {want:?}"),
            }
            assert_eq!(sub.cursor().unwrap(), tip, "{case}");
        }
        // A price UPDATE leaves the projected part columns alone: the hub
        // advances past the newest set without retaining one, and a resume
        // at that tip holds a cursor above every set.
        db.update(
            "lineitem",
            &[vec![Datum::Int(1), Datum::Int(1)]],
            vec![fixtures::lineitem_row(1, 1, 2, 5, 123.0)],
        )
        .unwrap();
        let (above, resumed) = hub.resume(&spec, db.commit_lsn()).unwrap();
        assert!(matches!(resumed, Resumed::Stream));
        assert!(above.cursor().unwrap() > newest);
        let want = reference_drain(&hub, above.id()).unwrap();
        assert!(want.is_empty());
        match above.drain().unwrap() {
            Drained::Updates(got) => assert!(got.is_empty(), "above the newest set: {got:?}"),
            other => panic!("expected Updates, got {other:?}"),
        }
    }

    #[test]
    fn slot_table_never_reuses_ids_or_outgrows_the_peak() {
        let mut db = db();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        let spec = part_spec();
        let tip = db.commit_lsn();
        let mut seen = std::collections::BTreeSet::new();
        let mut live: VecDeque<Subscription> = VecDeque::new();
        let mut peak = 0;
        for i in 0..1_000 {
            let (sub, _) = hub.resume(&spec, tip).unwrap();
            assert!(seen.insert(sub.id()), "id {} reused at cycle {i}", sub.id());
            live.push_back(sub);
            peak = peak.max(live.len());
            // Hold between one and three live subscriptions.
            while live.len() > 1 + i % 3 {
                let gone = live.pop_front().unwrap();
                let id = gone.id();
                drop(gone);
                assert!(matches!(
                    hub.drain_sub(id),
                    Err(FeedError::UnknownSubscriber { .. })
                ));
            }
            let g = hub.lock();
            assert_eq!(g.subs.len(), live.len());
            assert!(g.subs.slots.len() <= peak, "table outgrew the peak");
        }
        // Three held plus the newcomer.
        assert_eq!(peak, 4);
    }

    #[test]
    fn intra_batch_insert_delete_cancels() {
        // Netting straight from the journal, one op shape per case: the
        // pre-image is the first op's row if it is a delete, the post-image
        // the last op's row if it is an insert.
        let row = |k: i64, v: &str| vec![Datum::Int(k), Datum::str(v)];
        let (a, b) = (row(1, "a"), row(1, "b"));
        let ins = |r: &Row| ViewOp::Insert(r.clone());
        let del = |r: &Row| ViewOp::Delete(r.clone());
        type Events = Vec<(Option<Row>, Option<Row>)>;
        let cases: Vec<(&str, Vec<ViewOp>, Events)> = vec![
            ("[I]", vec![ins(&a)], vec![(None, Some(a.clone()))]),
            ("[D]", vec![del(&a)], vec![(Some(a.clone()), None)]),
            (
                "[D,I] update",
                vec![del(&a), ins(&b)],
                vec![(Some(a.clone()), Some(b.clone()))],
            ),
            ("[I,D] cancels", vec![ins(&a), del(&a)], vec![]),
            (
                "[D,I,D]",
                vec![del(&a), ins(&b), del(&b)],
                vec![(Some(a.clone()), None)],
            ),
            (
                "[I,D,I]",
                vec![ins(&a), del(&a), ins(&b)],
                vec![(None, Some(b.clone()))],
            ),
            (
                "two keys, first-touch order",
                vec![ins(&row(2, "c")), del(&a), ins(&b)],
                vec![
                    (None, Some(row(2, "c"))),
                    (Some(a.clone()), Some(b.clone())),
                ],
            ),
        ];
        for (shape, ops, want) in cases {
            let got: Events = net_events(&ops, &[0])
                .into_iter()
                .map(|e| (e.pre.cloned(), e.post.cloned()))
                .collect();
            assert_eq!(got, want, "{shape}");
        }
    }
}
