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
//! 250 evaluations per commit, not 100 000.
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
//! the sets past its cursor. A cursor that falls behind the ring's floor
//! lapses and is rebased from a snapshot pin; [`FeedHub::resume`] catches a
//! returning subscriber up from any LSN the snapshot registry can still pin
//! (PR 6's version chains), as a single synthetic diff set.

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
use crate::update_set::{Drained, Materialization, Resumed, SubscriberState, UpdateSet};

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
}

#[derive(Debug)]
struct HubInner {
    /// Highest commit LSN published through the hub.
    lsn: Lsn,
    registry: Option<SnapshotRegistry>,
    views: Vec<ViewFeed>,
    subs: FxHashMap<u64, SubEntry>,
    /// Retention pins left by [`Subscription::park`]: each holds the
    /// snapshot registry's version chains back to its LSN so the parked
    /// client can later [`FeedHub::resume`] with a catch-up diff instead of
    /// a full rebase. Released by the matching resume.
    parked: Vec<(Lsn, ojv_core::prelude::Snapshot)>,
    next_sub: u64,
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

/// One fan-out job: evaluate one filter group's netted events for all of its
/// live leaves. Self-contained (`Arc` shares of immutable state, and the
/// commit's ops, borrowed for the fan-out) so evaluation runs outside the
/// hub lock.
struct Job<'a> {
    view: Arc<str>,
    view_idx: usize,
    group_idx: usize,
    key_cols: Arc<[usize]>,
    out_cols: Arc<[usize]>,
    filter: Arc<FeedFilter>,
    /// `(leaf index, projection)` of each live leaf.
    leaves: Vec<(usize, Arc<[usize]>)>,
    events: Arc<Vec<NetEvent<'a>>>,
}

struct JobResult {
    view_idx: usize,
    group_idx: usize,
    leaf_idxs: Vec<usize>,
    outcome: std::result::Result<Vec<(usize, UpdateSet)>, FeedError>,
}

/// Evaluate one group: the filter runs once per event; per live leaf, the
/// event contributes a delete, an insert, both (an UPDATE of a projected
/// column), or nothing (projected columns unchanged).
fn eval_group(job: &Job<'_>, lsn: Lsn) -> Vec<(usize, UpdateSet)> {
    test_panic::maybe_panic(&job.view);
    let mut sets: Vec<(usize, UpdateSet)> = job
        .leaves
        .iter()
        .map(|(li, proj)| (*li, UpdateSet::empty(lsn, job.key_cols.len(), proj.len())))
        .collect();
    for ev in job.events.iter() {
        let pre_m = ev
            .pre
            .is_some_and(|r| job.filter.matches_row(r, &job.out_cols));
        let post_m = ev
            .post
            .is_some_and(|r| job.filter.matches_row(r, &job.out_cols));
        if !pre_m && !post_m {
            continue;
        }
        for ((_, proj), (_, set)) in job.leaves.iter().zip(sets.iter_mut()) {
            match (ev.pre.filter(|_| pre_m), ev.post.filter(|_| post_m)) {
                (Some(pre), Some(post)) => {
                    // UPDATE halves — emitted only if a projected column
                    // actually changed for this leaf.
                    if proj.iter().any(|&c| pre[c] != post[c]) {
                        push_key(&mut set.deletes, post, &job.key_cols);
                        push_insert(set, &job.key_cols, post, proj);
                    }
                }
                (Some(pre), None) => push_key(&mut set.deletes, pre, &job.key_cols),
                (None, Some(post)) => push_insert(set, &job.key_cols, post, proj),
                (None, None) => {}
            }
        }
    }
    sets
}

/// Append `row`'s view key to `keys` without an intermediate allocation.
fn push_key(keys: &mut RowBuf, row: &[Datum], key_cols: &[usize]) {
    for (slot, &c) in keys.push_null_row().iter_mut().zip(key_cols) {
        *slot = row[c].clone();
    }
}

/// Append `[key | projected row]` without an intermediate allocation.
fn push_insert(set: &mut UpdateSet, key_cols: &[usize], row: &[Datum], proj: &[usize]) {
    let dst = set.inserts.push_null_row();
    for (slot, &c) in dst.iter_mut().zip(key_cols.iter().chain(proj.iter())) {
        *slot = row[c].clone();
    }
}

/// Run every job in order under [`ojv_exec::catch_each`]. A panicking group
/// becomes a failed [`JobResult`]; its siblings still publish.
fn run_jobs(jobs: Vec<Job<'_>>, lsn: Lsn) -> Vec<JobResult> {
    let outcomes = ojv_exec::catch_each(&jobs, |_, job| eval_group(job, lsn));
    jobs.into_iter()
        .zip(outcomes)
        .map(|(job, outcome)| JobResult {
            view_idx: job.view_idx,
            group_idx: job.group_idx,
            leaf_idxs: job.leaves.iter().map(|(li, _)| *li).collect(),
            outcome: outcome.map_err(|detail| FeedError::FanoutPanic {
                view: job.view.to_string(),
                detail,
            }),
        })
        .collect()
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
    let proj_width = new.rows.width() - kw;
    let mut set = UpdateSet::empty(lsn, kw, proj_width);
    let mut old_map: FxHashMap<&[Datum], &[Datum]> = fx_map_with_capacity(old.rows.len());
    for row in old.rows.iter() {
        old_map.insert(&row[..kw], row);
    }
    for row in new.rows.iter() {
        match old_map.remove(&row[..kw]) {
            Some(prev) if prev == row => {}
            Some(_) => {
                set.deletes.push_row(&row[..kw]);
                set.inserts.push_row(row);
            }
            None => set.inserts.push_row(row),
        }
    }
    let mut gone: Vec<&[Datum]> = old_map.into_keys().collect();
    gone.sort();
    for key in gone {
        set.deletes.push_row(key);
    }
    set
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
                subs: fx_map_with_capacity(0),
                parked: Vec::new(),
                next_sub: 1,
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
        let id = g.next_sub;
        g.next_sub += 1;
        g.subs.insert(
            id,
            SubEntry {
                view_idx,
                group_idx,
                leaf_idx,
                cursor: pin.lsn(),
            },
        );
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
        let id = g.next_sub;
        g.next_sub += 1;
        g.subs.insert(
            id,
            SubEntry {
                view_idx,
                group_idx,
                leaf_idx,
                cursor,
            },
        );
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
        for vf in &g.views {
            for group in &vf.groups {
                let live = group.leaves.iter().filter(|l| l.subscribers > 0).count();
                if live > 0 {
                    stats.filter_groups += 1;
                }
                stats.shared_evals += live;
                stats.retained_sets += group.leaves.iter().map(|l| l.ring.len()).sum::<usize>();
            }
        }
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
    /// ops and assemble per-group jobs; then (lock released) evaluate them.
    /// Nothing is visible to subscribers until
    /// [`FeedHub::publish_fanout`]. Split out so tests can interleave
    /// subscriber operations between the two halves deterministically.
    pub fn begin_fanout(&self, lsn: Lsn, updates: &[(String, Vec<ViewOp>)]) -> FanoutBatch {
        let started = Instant::now();
        let jobs = {
            let g = self.lock();
            let mut jobs = Vec::new();
            for (name, ops) in updates {
                if ops.is_empty() {
                    continue;
                }
                let Some(view_idx) = g
                    .views
                    .iter()
                    .position(|v| v.name.as_ref() == name.as_str())
                else {
                    continue; // no subscribers have ever touched this view
                };
                let vf = &g.views[view_idx];
                // Netted on the first live group: nobody listening, no work.
                let mut events: Option<Arc<Vec<NetEvent>>> = None;
                for (gi, group) in vf.groups.iter().enumerate() {
                    let live: Vec<(usize, Arc<[usize]>)> = group
                        .leaves
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| l.subscribers > 0)
                        .map(|(li, l)| (li, Arc::clone(&l.proj_global)))
                        .collect();
                    if live.is_empty() {
                        continue;
                    }
                    let events =
                        events.get_or_insert_with(|| Arc::new(net_events(ops, &vf.key_cols)));
                    if events.is_empty() {
                        break; // the whole batch cancelled out
                    }
                    jobs.push(Job {
                        view: Arc::clone(&vf.name),
                        view_idx,
                        group_idx: gi,
                        key_cols: Arc::clone(&vf.key_cols),
                        out_cols: Arc::clone(&vf.out_cols),
                        filter: Arc::clone(&group.filter),
                        leaves: live,
                        events: Arc::clone(events),
                    });
                }
            }
            jobs
        };
        let results = run_jobs(jobs, lsn);
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
            match res.outcome {
                Ok(sets) => {
                    for (li, set) in sets {
                        if set.is_empty() {
                            continue;
                        }
                        let leaf = &mut g.views[res.view_idx].groups[res.group_idx].leaves[li];
                        if set.lsn <= leaf.born_lsn || leaf.subscribers == 0 {
                            continue;
                        }
                        leaf.ring.push_back(Arc::new(set));
                        while leaf.ring.len() > cap {
                            if let Some(old) = leaf.ring.pop_front() {
                                leaf.floor_lsn = old.lsn;
                            }
                        }
                    }
                }
                Err(e) => {
                    for &li in &res.leaf_idxs {
                        let leaf = &mut g.views[res.view_idx].groups[res.group_idx].leaves[li];
                        leaf.ring.clear();
                        leaf.floor_lsn = batch.lsn;
                    }
                    g.last_error = Some(e);
                }
            }
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
        let entry = g
            .subs
            .get(&id)
            .copied()
            .ok_or(FeedError::UnknownSubscriber { id })?;
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
            g.subs.get_mut(&id).expect("present above").cursor = cursor;
            return Ok(Drained::Rebase(image));
        }
        let sets: Vec<Arc<UpdateSet>> = leaf
            .ring
            .iter()
            .filter(|s| s.lsn > entry.cursor)
            .cloned()
            .collect();
        let cursor = hub_lsn.max(entry.cursor);
        g.subs.get_mut(&id).expect("present above").cursor = cursor;
        Ok(Drained::Updates(sets))
    }

    fn cursor_of(&self, id: u64) -> Result<Lsn> {
        let g = self.lock();
        g.subs
            .get(&id)
            .map(|e| e.cursor)
            .ok_or(FeedError::UnknownSubscriber { id })
    }

    fn park_id(&self, id: u64) -> Result<Lsn> {
        let mut g = self.lock();
        let cursor = g
            .subs
            .get(&id)
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
            .remove(&id)
            .ok_or(FeedError::UnknownSubscriber { id })?;
        let leaf = &mut g.views[entry.view_idx].groups[entry.group_idx].leaves[entry.leaf_idx];
        leaf.subscribers -= 1;
        if leaf.subscribers == 0 {
            // Keep the leaf (stable indices, cheap re-subscribe) but drop
            // its retained sets: nobody can drain them any more.
            leaf.ring.clear();
        }
        Ok(())
    }
}

impl HubInner {
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
            .retain(|_, e| e.view_idx != i || !retired.contains(&(e.group_idx, e.leaf_idx)));
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
                    leaf.ring.clear();
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
                let mut pre: Vec<Vec<Datum>> =
                    (0..del).map(|i| set.deletes.row(i).to_vec()).collect();
                let mut post: Vec<Vec<Datum>> =
                    (0..ins).map(|i| key_of(set.inserts.row(i))).collect();
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
