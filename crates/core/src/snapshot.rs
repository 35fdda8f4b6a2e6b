//! LSN-versioned view storage: consistent snapshot reads concurrent with
//! maintenance.
//!
//! Each registered view is stored once. The [`MaterializedView`] holds its
//! [`ViewStore`] as an `Arc`, and that `Arc` is the tip of the view's chain
//! in the shared [`SnapshotRegistry`]: registering a view copies no row.
//! Maintenance still writes the store through the paper's insert/delete
//! hot path, and every mutation is journaled as a [`ViewOp`] for the
//! history below and for the commit observer.
//!
//! # Commit protocol
//!
//! A commit talks to the registry twice.
//!
//! * **Start** (`SnapshotRegistry::begin`), after the log stage and before
//!   maintenance: each view the commit's table feeds gets a writable image
//!   at the pre-commit LSN, one of three ways. When only the view and the
//!   chain hold the tip, the chain lets go of it and is marked *in flight*:
//!   maintenance writes the tip **in place**, and a [`SnapshotRegistry::pin`]
//!   from another thread waits on a `Condvar` until the publish (counted in
//!   `SnapshotStats::pin_waits`). When a reader or the history holds the
//!   tip, maintenance writes the **spare** instead — an older image only the
//!   registry holds, advanced by the retained deltas above its LSN — while
//!   readers keep pinning the old tip. With no spare, it writes a **clone**
//!   of the tip (`SnapshotStats::tip_copies`).
//! * **Publish** (`SnapshotRegistry::commit`): the drained journals of
//!   *all* registered views and their images are installed under a single
//!   commit LSN, atomically — readers can never observe view A at LSN n and
//!   view B at LSN n−1. Nothing is replayed: the new tips are the images
//!   maintenance wrote, so the lock is held for O(views), not O(|Δ|).
//!
//! A commit that unwinds between the two puts its in-flight tips back
//! (`SnapshotRegistry::release`), so no pin waits forever.
//!
//! # Version-chain layout
//!
//! Per view the registry holds:
//!
//! * `tip` — the view's image at the newest committed LSN (`None` while in
//!   flight).
//! * `hist` — present only while pins retain older versions: a `base` image
//!   at the oldest retained LSN, one redo delta (the journaled ops) per
//!   later commit, and a cache of images above the base. A version at LSN
//!   `v` is materialized by cloning `base` and replaying the deltas with
//!   `lsn <= v` — the *same* `insert`/`delete` calls (and therefore the same
//!   `swap_remove` heap order) a serially maintained twin would have
//!   executed, so a snapshot at LSN `v` is byte-identical to that twin, not
//!   merely set-equal. The same holds for a spare advanced for maintenance.
//!   The cache memoizes materializations per LSN, so repeated pins of the
//!   same version are `Arc` clones, and it keeps the superseded tips
//!   readers hold. A delta shares the whole commit's drained journals with
//!   the commit observer: retaining it copies no op.
//!
//! # Epoch-based reclamation
//!
//! Every pin registers its LSN; the *floor* is the smallest pinned LSN.
//! After each commit and each unpin the registry trims: with no pins the
//! whole history is dropped (`hist = None`) and only `tip` survives.
//! Otherwise `base` is advanced up to the floor — by taking the cached image
//! a reader pinned there, an `Arc` clone, or else by replaying (and then
//! discarding) the deltas below it. Of the images only the registry holds,
//! the displaced base included, trim keeps the newest as the spare,
//! advanced to the floor if it lies below, and drops the rest. Retained
//! images therefore stay within the live pinned images plus the base plus
//! one spare per view, however long a pin is held. A pinned version is
//! never reclaimed — it is either at or above the floor, and the snapshot
//! additionally holds its own `Arc` on the materialized image. An unpinned
//! dead version is always reclaimed (or recycled as the spare) by the next
//! trim. A [`Snapshot`] releases its images *before* it unpins, so the trim
//! its drop runs sees them as the registry's alone.
//!
//! # LSN ↔ WAL mapping
//!
//! A plain in-memory [`crate::database::Database`] numbers commits 1, 2, …
//! itself. Under [`crate::durable::DurableDatabase`] every update batch is
//! first appended to the WAL and the *WAL LSN* is passed down into the
//! commit, so a snapshot at LSN `n` is exactly "the view as of durable LSN
//! `n`" and crash recovery replays land the registry on the same LSNs the
//! original run produced.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use ojv_durability::Lsn;
use ojv_rel::{key_of, put_str, put_u32, put_u64, Datum, Relation, Row, SchemaRef};

use crate::checkpoint_state::put_store_section;
use crate::error::{CoreError, Result};
use crate::materialize::{MaterializedView, ViewStore};

/// One journaled mutation of a view store, in apply order. Replaying a
/// store's ops reproduces its exact state *including heap order*, because
/// the replay goes through the same `insert`/`delete` (swap-remove) code.
/// Both variants carry a whole wide row, so a commit's ops hold its
/// pre-images (deleted rows) and post-images (inserted rows).
#[derive(Debug, Clone, PartialEq)]
pub enum ViewOp {
    /// A wide row inserted by the commit path.
    Insert(Row),
    /// The wide row a delete removed, moved out of the store. Replay deletes
    /// by hashing its view-key columns in place.
    Delete(Row),
}

/// Count the journaled ops in one view's commit delta: `(inserts, deletes)`.
/// These are the raw per-commit counts `explain_batch` renders as
/// `+N/-M rows`; net-effect cancellation across a batch is the change-feed
/// layer's job (`ojv-feed`), not the registry's.
pub fn delta_counts(ops: &[ViewOp]) -> (usize, usize) {
    let inserts = ops
        .iter()
        .filter(|o| matches!(o, ViewOp::Insert(_)))
        .count();
    (inserts, ops.len() - inserts)
}

/// Fan-out statistics a [`CommitObserver`] exposes for `explain_batch`:
/// how many subscriptions are registered and how many *distinct* evaluations
/// actually run per commit after identical subscriptions are deduplicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FanoutStats {
    /// Registered subscriptions across all views.
    pub subscribers: usize,
    /// Deduplicated evaluation groups (≤ `subscribers`).
    pub shared_evals: usize,
}

/// Observer of committed view deltas. The database invokes it once per
/// commit, *after* the registry has published the batch at `lsn`, with the
/// exact journaled ops that advanced each view's tip — the hand-off point
/// for downstream consumers such as the change-feed hub in `ojv-feed`.
/// Implementations must tolerate empty per-view op lists (untouched views)
/// and commits for views they have never seen.
pub trait CommitObserver: Send + Sync + std::fmt::Debug {
    /// A batch committed at `lsn`; `updates` holds one `(view, ops)` entry
    /// per registered view (ops empty when the batch left it untouched).
    fn on_commit(&self, lsn: Lsn, updates: &[(String, Vec<ViewOp>)]);

    /// Current fan-out statistics, if the observer tracks subscriptions.
    fn fanout_stats(&self) -> Option<FanoutStats> {
        None
    }
}

/// The drained journals of one commit: one `(view, ops)` entry per
/// registered view. The registry's history and the commit observer share
/// it, so retaining a commit's deltas copies no op.
pub(crate) type CommitBatch = Vec<(String, Vec<ViewOp>)>;

/// One commit's redo delta for a single view: its entry in the commit's
/// shared batch.
#[derive(Debug, Clone)]
struct CommitDelta {
    lsn: Lsn,
    batch: Arc<CommitBatch>,
    /// Index of this view's entry in `batch`.
    entry: usize,
}

impl CommitDelta {
    fn ops(&self) -> &[ViewOp] {
        &self.batch[self.entry].1
    }
}

/// Replay every op of `deltas`, in order, onto `store`.
fn replay(store: &mut ViewStore, deltas: &[CommitDelta], view: &str) -> Result<()> {
    for delta in deltas {
        for op in delta.ops() {
            store.apply_op(op, view)?;
        }
    }
    Ok(())
}

/// Retained history of one view: the oldest pinnable image plus the redo
/// deltas that advance it to the tip. Present only while pins require it.
#[derive(Debug, Clone)]
struct ChainHist {
    base_lsn: Lsn,
    base: Arc<ViewStore>,
    /// Ascending LSNs, all `> base_lsn`.
    deltas: Vec<CommitDelta>,
    /// Images at or above the base: memoized materializations, tips that a
    /// commit superseded while a reader held them, and at most one spare —
    /// an image only the registry holds, which the next pinned commit's
    /// start step hands to maintenance as the view's new image.
    cache: Vec<(Lsn, Arc<ViewStore>)>,
}

impl ChainHist {
    /// The retained deltas with `after < lsn <= upto`.
    fn deltas_in(&self, after: Lsn, upto: Lsn) -> &[CommitDelta] {
        let end = self.deltas.partition_point(|d| d.lsn <= upto);
        &self.deltas[self.deltas.partition_point(|d| d.lsn <= after)..end]
    }

    /// Position in `cache` of the newest image only the registry holds.
    fn spare(&self) -> Option<usize> {
        self.cache
            .iter()
            .enumerate()
            .filter(|(_, (_, image))| Arc::strong_count(image) == 1)
            .max_by_key(|(_, (lsn, _))| *lsn)
            .map(|(pos, _)| pos)
    }

    /// Take the spare out of the cache, if it lies at or below `upto`.
    fn take_spare(&mut self, upto: Lsn) -> Option<(Lsn, ViewStore)> {
        let pos = self.spare().filter(|&pos| self.cache[pos].0 <= upto)?;
        let (lsn, image) = self.cache.swap_remove(pos);
        let store = Arc::try_unwrap(image).expect("the spare is the registry's alone");
        Some((lsn, store))
    }

    /// Advance the base to `floor`, keep at most one spare, and drop every
    /// other image no reader holds.
    fn trim(&mut self, floor: Lsn, view: &str) {
        let stale = self.deltas.partition_point(|d| d.lsn <= floor);
        if self.base_lsn < floor {
            if let Some(pos) = self.cache.iter().position(|(l, _)| *l == floor) {
                // A reader pinned the floor: its image becomes the base, an
                // Arc clone. The displaced base joins the spare candidates.
                let (_, at_floor) = self.cache.swap_remove(pos);
                let displaced = std::mem::replace(&mut self.base, at_floor);
                self.cache.push((self.base_lsn, displaced));
            } else if stale > 0 {
                // In place unless a clone of a snapshot view outlived its pin.
                replay(Arc::make_mut(&mut self.base), &self.deltas[..stale], view)
                    .expect(REPLAY_CANNOT_FAIL);
            }
            self.base_lsn = floor;
        }
        let spare = self.spare();
        let mut pos = 0;
        self.cache.retain(|(lsn, image)| {
            let keep = Some(pos) == spare || (*lsn >= floor && Arc::strong_count(image) > 1);
            pos += 1;
            keep
        });
        // The deltas below the floor are about to go: a spare under the
        // floor replays them now or could never catch up.
        if let Some((lsn, image)) = self.cache.iter_mut().find(|(l, _)| *l < floor) {
            let store = Arc::get_mut(image).expect("the spare is the registry's alone");
            let from = self.deltas.partition_point(|d| d.lsn <= *lsn);
            replay(store, &self.deltas[from..stale], view).expect(REPLAY_CANNOT_FAIL);
            *lsn = floor;
        }
        self.deltas.drain(..stale);
    }
}

const REPLAY_CANNOT_FAIL: &str = "redo replay onto a history image cannot fail: the same ops \
                                  already applied to the view's image in this order";

/// Version chain of one registered view.
#[derive(Debug, Clone)]
struct ViewChain {
    name: Arc<str>,
    /// Global wide-row column indexes of the view's projection.
    projection: Arc<[usize]>,
    /// Schema of the projected output.
    schema: SchemaRef,
    /// Image at the registry's current LSN — the same `Arc` the view
    /// holds. `None` while a commit writes it in place: the chain is *in
    /// flight*, and pins wait for the publish that puts it back.
    tip: Option<Arc<ViewStore>>,
    hist: Option<ChainHist>,
}

impl ViewChain {
    /// Smallest LSN this chain can still materialize.
    fn floor(&self, current: Lsn) -> Lsn {
        self.hist.as_ref().map_or(current, |h| h.base_lsn)
    }

    /// The tip. Pins wait while any chain is in flight, so a reader never
    /// finds it missing.
    fn tip(&self) -> &Arc<ViewStore> {
        self.tip
            .as_ref()
            .expect("pins wait while a chain is in flight")
    }

    /// Materialize the view image at `lsn` (callers have validated
    /// `lsn >= self.floor(current)`).
    fn materialize(&mut self, lsn: Lsn, current: Lsn) -> Result<Arc<ViewStore>> {
        let Some(hist) = self.hist.as_mut().filter(|_| lsn < current) else {
            // floor() == current without history, so a validated lsn is
            // >= current.
            return Ok(Arc::clone(self.tip()));
        };
        // Deltas ascend, so if the first one is already above `lsn` the base
        // image *is* the image at `lsn` — no replay, no copy (this is every
        // materialization of a view the pinned-over commits never touched).
        let replay_needed = hist.deltas.first().is_some_and(|d| d.lsn <= lsn);
        if !replay_needed {
            return Ok(Arc::clone(&hist.base));
        }
        if let Some((_, store)) = hist.cache.iter().find(|(l, _)| *l == lsn) {
            return Ok(Arc::clone(store));
        }
        let (from, mut store) = hist
            .take_spare(lsn)
            .unwrap_or_else(|| (hist.base_lsn, ViewStore::clone(&hist.base)));
        replay(&mut store, hist.deltas_in(from, lsn), &self.name)?;
        let store = Arc::new(store);
        hist.cache.push((lsn, Arc::clone(&store)));
        Ok(store)
    }

    /// The start step for one view the commit will maintain: make `image`
    /// (the view's `Arc`, the tip until now) writable at `prev`, the
    /// pre-commit LSN, copying nothing a reader could see change. When only
    /// the view and the chain hold the tip, the chain lets go of it and goes
    /// in flight: maintenance writes the tip in place. Otherwise a reader
    /// (or the history) holds it, and the view gets the spare advanced by
    /// the retained deltas above its LSN, or, with no spare, a clone of the
    /// tip; returns whether it cloned. A chain already in flight, or whose
    /// view already writes its own image, was started earlier in this
    /// commit (an `UPDATE`'s second half, or recovery replaying several
    /// records before one publish).
    fn begin(&mut self, image: &mut Arc<ViewStore>, prev: Lsn) -> bool {
        let Some(tip) = self.tip.as_ref().filter(|tip| Arc::ptr_eq(tip, image)) else {
            return false;
        };
        if Arc::strong_count(tip) == 2 {
            self.tip = None;
            return false;
        }
        let spare = self.hist.as_mut().and_then(|hist| {
            let (from, mut spare) = hist.take_spare(prev)?;
            replay(&mut spare, hist.deltas_in(from, Lsn::MAX), &self.name)
                .expect(REPLAY_CANNOT_FAIL);
            Some(spare)
        });
        let copied = spare.is_none();
        let mut store = spare.unwrap_or_else(|| ViewStore::clone(tip));
        store.enable_journal();
        *image = Arc::new(store);
        copied
    }

    /// Publish `image`, which maintenance advanced from the tip at `prev`,
    /// as the tip. When history is retained and the view wrote another
    /// image than the tip, the old tip stays in the cache at `prev` — a
    /// reader holds it — unless it is the base or already cached there.
    fn install(&mut self, image: &Arc<ViewStore>, prev: Lsn) {
        let Some(old) = self.tip.replace(Arc::clone(image)) else {
            return; // written in place
        };
        if let Some(hist) = &mut self.hist {
            let superseded = !Arc::ptr_eq(&old, image) && !Arc::ptr_eq(&old, &hist.base);
            if superseded && hist.cache.iter().all(|(l, _)| *l != prev) {
                hist.cache.push((prev, old));
            }
        }
    }
}

/// Point-in-time metrics of the registry (tests and benches read these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Newest committed LSN.
    pub current_lsn: Lsn,
    /// Oldest LSN any chain can still serve.
    pub floor_lsn: Lsn,
    /// Active pins across all snapshots.
    pub active_pins: usize,
    /// Redo ops currently retained across all chains (0 when no history).
    pub retained_ops: usize,
    /// Materialized historical images retained: bases, cached versions
    /// (memoized, superseded tips readers hold) and spares.
    pub retained_versions: usize,
    /// High-water mark of `retained_ops` since the registry was created.
    pub high_water_ops: usize,
    /// Pinned tips a commit had to clone because no spare existed, since
    /// the registry was created. Each is an O(|V|) copy.
    pub tip_copies: u64,
    /// Pins that waited for a commit writing a tip in place to publish,
    /// since the registry was created.
    pub pin_waits: u64,
    /// Nanoseconds those pins waited, in total.
    pub pin_wait_ns: u64,
}

#[derive(Debug)]
struct Inner {
    lsn: Lsn,
    chains: Vec<ViewChain>,
    /// Active pin counts, keyed by pinned LSN (unordered, few entries).
    pins: Vec<(Lsn, usize)>,
    high_water_ops: usize,
    tip_copies: u64,
    pin_waits: u64,
    pin_wait_ns: u64,
}

impl Inner {
    /// Is a commit writing some chain's tip in place?
    fn in_flight(&self) -> bool {
        self.chains.iter().any(|c| c.tip.is_none())
    }

    /// While pins are held, anchor every chain's history at the current
    /// LSN — also views the commit leaves untouched: a held pin below the
    /// next LSN must keep each view's old version materializable, and an
    /// unanchored chain's floor would jump to the new LSN. The base is the
    /// tip: an `Arc` clone, not a copy. A chain in flight is skipped: one
    /// goes in flight only when no pin needs it anchored, and no pin can
    /// be taken until it publishes.
    fn anchor(&mut self) {
        if self.pins.is_empty() {
            return;
        }
        let lsn = self.lsn;
        for chain in &mut self.chains {
            if let (Some(tip), None) = (&chain.tip, &chain.hist) {
                chain.hist = Some(ChainHist {
                    base_lsn: lsn,
                    base: Arc::clone(tip),
                    deltas: Vec::new(),
                    cache: Vec::new(),
                });
            }
        }
    }

    fn pin_floor(&self) -> Option<Lsn> {
        self.pins.iter().map(|&(l, _)| l).min()
    }

    fn retained_ops(&self) -> usize {
        self.chains
            .iter()
            .filter_map(|c| c.hist.as_ref())
            .map(|h| h.deltas.iter().map(|d| d.ops().len()).sum::<usize>())
            .sum()
    }

    /// Reclaim every version no pin can reach. With no pins the entire
    /// history drops; otherwise each chain's base advances to the pin floor
    /// and one spare survives (see [`ChainHist::trim`]).
    fn trim(&mut self) {
        let floor = self.pin_floor();
        for chain in &mut self.chains {
            match floor {
                Some(f) if f < self.lsn => {
                    if let Some(hist) = &mut chain.hist {
                        hist.trim(f, &chain.name);
                    }
                }
                // No pins below the tip: only the tip needs to survive.
                _ => chain.hist = None,
            }
        }
        self.high_water_ops = self.high_water_ops.max(self.retained_ops());
    }
}

/// Shared, thread-safe registry of versioned view images. Clone the handle
/// freely — readers on other threads pin snapshots through their own clone
/// while the owning [`crate::database::Database`] commits new versions.
#[derive(Debug, Clone)]
pub struct SnapshotRegistry {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    inner: Mutex<Inner>,
    /// Signalled when a publish puts back the tips a commit wrote in place:
    /// pins wait on it while a chain is in flight.
    published: Condvar,
}

impl Default for SnapshotRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotRegistry {
    pub fn new() -> Self {
        let inner = Inner {
            lsn: 0,
            chains: Vec::new(),
            pins: Vec::new(),
            high_water_ops: 0,
            tip_copies: 0,
            pin_waits: 0,
            pin_wait_ns: 0,
        };
        SnapshotRegistry {
            shared: Arc::new(Shared {
                inner: Mutex::new(inner),
                published: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.shared
            .inner
            .lock()
            .expect("snapshot registry mutex poisoned")
    }

    /// Register a view's current image as the tip of a new chain. Called
    /// when a view is created or installed. The tip *is* the view's image,
    /// an `Arc` clone: making a view snapshottable copies no row.
    pub(crate) fn register(&self, view: &MaterializedView, at: Lsn) -> Result<()> {
        let cols: Vec<ojv_rel::Column> = view
            .analysis
            .projection
            .iter()
            .map(|&g| view.analysis.layout.wide_schema().column(g).clone())
            .collect();
        let schema = ojv_rel::Schema::shared(cols)?;
        let mut inner = self.lock();
        inner.lsn = inner.lsn.max(at);
        inner.chains.push(ViewChain {
            name: Arc::from(view.name()),
            projection: Arc::from(view.analysis.projection.as_slice()),
            schema,
            tip: Some(Arc::clone(view.image())),
            hist: None,
        });
        Ok(())
    }

    /// Drop a view's chain. Outstanding snapshots keep their own `Arc`s and
    /// stay readable; new pins no longer include the view.
    pub(crate) fn unregister(&self, name: &str) {
        let mut inner = self.lock();
        inner.chains.retain(|c| c.name.as_ref() != name);
    }

    /// The start step of a commit, after its log stage and before it
    /// maintains `views` (those its table feeds): give each a writable
    /// image at the current LSN, in place or from history (see
    /// `ViewChain::begin`), anchoring every chain's history first while pins
    /// are held. Idempotent within one commit.
    pub(crate) fn begin<'v>(&self, views: impl IntoIterator<Item = &'v mut MaterializedView>) {
        let mut inner = self.lock();
        inner.anchor();
        let prev = inner.lsn;
        let mut copies = 0;
        for view in views {
            let name = view.name();
            if let Some(chain) = inner.chains.iter_mut().find(|c| c.name.as_ref() == name) {
                copies += u64::from(chain.begin(view.image_mut(), prev));
            }
        }
        inner.tip_copies += copies;
    }

    /// Publish one commit at `lsn`, atomically for all views: install each
    /// view's image as its chain's tip, and stamp the registry. `batch[i]`
    /// holds the ops that advanced `views[i]`'s image over this commit;
    /// while pins retain older versions, each chain's history keeps `batch`
    /// itself as the redo delta, not a copy of its ops. Nothing is replayed:
    /// the images are the ones maintenance wrote. Wakes the pins that waited
    /// for a chain in flight.
    pub(crate) fn commit(&self, lsn: Lsn, batch: &Arc<CommitBatch>, views: &[MaterializedView]) {
        let mut inner = self.lock();
        inner.anchor();
        let prev = inner.lsn;
        let retain_history = !inner.pins.is_empty();
        let woken = inner.in_flight();
        for (entry, (view, (_, ops))) in views.iter().zip(batch.iter()).enumerate() {
            let name = view.name();
            let Some(chain) = inner.chains.iter_mut().find(|c| c.name.as_ref() == name) else {
                continue;
            };
            if retain_history && !ops.is_empty() {
                let hist = chain.hist.as_mut().expect("anchored above");
                hist.deltas.push(CommitDelta {
                    lsn,
                    batch: Arc::clone(batch),
                    entry,
                });
            }
            chain.install(view.image(), prev);
        }
        inner.lsn = inner.lsn.max(lsn);
        inner.trim();
        drop(inner);
        if woken {
            self.shared.published.notify_all();
        }
    }

    /// Put back the tips of chains left in flight by a commit that unwound
    /// before its publish: each becomes its view's image as maintenance left
    /// it, at the unchanged LSN, so waiting and later pins return.
    pub(crate) fn release(&self, views: &[MaterializedView]) {
        let mut inner = self.lock();
        for view in views {
            let name = view.name();
            if let Some(chain) = inner.chains.iter_mut().find(|c| c.name.as_ref() == name) {
                chain.tip.get_or_insert_with(|| Arc::clone(view.image()));
            }
        }
        drop(inner);
        self.shared.published.notify_all();
    }

    /// Pin a consistent snapshot of every registered view at the newest
    /// committed LSN.
    pub fn pin(&self) -> Result<Snapshot> {
        self.pin_inner(None)
    }

    /// Pin a consistent snapshot at `lsn`. Every view is materialized at its
    /// newest version `<= lsn`; fails with [`CoreError::SnapshotUnavailable`]
    /// when reclamation has already freed that version.
    pub fn pin_at(&self, lsn: Lsn) -> Result<Snapshot> {
        self.pin_inner(Some(lsn))
    }

    fn pin_inner(&self, at: Option<Lsn>) -> Result<Snapshot> {
        let mut inner = self.lock();
        if inner.in_flight() {
            let start = Instant::now();
            inner = self
                .shared
                .published
                .wait_while(inner, |inner| inner.in_flight())
                .expect("snapshot registry mutex poisoned");
            inner.pin_waits += 1;
            inner.pin_wait_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        let current = inner.lsn;
        let lsn = at.unwrap_or(current);
        let floor = inner
            .chains
            .iter()
            .map(|c| c.floor(current))
            .max()
            .unwrap_or(current);
        if lsn < floor {
            return Err(CoreError::SnapshotUnavailable {
                requested: lsn,
                floor,
            });
        }
        let mut views = Vec::with_capacity(inner.chains.len());
        // Split-borrow: materialize needs &mut chains while `current` is a
        // copied scalar.
        let chains = &mut inner.chains;
        for chain in chains.iter_mut() {
            // Arc bumps only — pinning allocates nothing per view beyond
            // the `views` vec itself.
            views.push(SnapshotView {
                name: Arc::clone(&chain.name),
                projection: Arc::clone(&chain.projection),
                schema: Arc::clone(&chain.schema),
                store: chain.materialize(lsn, current)?,
            });
        }
        // Pins are keyed by the version they hold alive: a request above the
        // current LSN only ever reads the tip.
        let key = lsn.min(current);
        match inner.pins.iter_mut().find(|(l, _)| *l == key) {
            Some((_, n)) => *n += 1,
            None => inner.pins.push((key, 1)),
        }
        Ok(Snapshot {
            lsn,
            pin_key: key,
            views,
            registry: self.clone(),
        })
    }

    fn unpin(&self, key: Lsn) {
        let mut inner = self.lock();
        if let Some(pos) = inner.pins.iter().position(|(l, _)| *l == key) {
            inner.pins[pos].1 -= 1;
            if inner.pins[pos].1 == 0 {
                inner.pins.swap_remove(pos);
            }
        }
        inner.trim();
    }

    /// Newest committed LSN.
    pub fn current_lsn(&self) -> Lsn {
        let inner = self.lock();
        inner.lsn
    }

    /// Current registry metrics.
    pub fn stats(&self) -> SnapshotStats {
        let inner = self.lock();
        let current = inner.lsn;
        SnapshotStats {
            current_lsn: current,
            floor_lsn: inner
                .chains
                .iter()
                .map(|c| c.floor(current))
                .max()
                .unwrap_or(current),
            active_pins: inner.pins.iter().map(|&(_, n)| n).sum(),
            retained_ops: inner.retained_ops(),
            retained_versions: inner
                .chains
                .iter()
                .filter_map(|c| c.hist.as_ref())
                .map(|h| 1 + h.cache.len())
                .sum(),
            high_water_ops: inner.high_water_ops,
            tip_copies: inner.tip_copies,
            pin_waits: inner.pin_waits,
            pin_wait_ns: inner.pin_wait_ns,
        }
    }
}

/// One view inside a pinned [`Snapshot`]: an immutable image plus the
/// projection needed to render the view's output.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    name: Arc<str>,
    projection: Arc<[usize]>,
    schema: SchemaRef,
    store: Arc<ViewStore>,
}

impl SnapshotView {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn len(&self) -> usize {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The stored wide rows (internal representation, heap order).
    pub fn wide_rows(&self) -> &[Row] {
        self.store.rows()
    }

    /// The underlying store image — the sharded snapshot's canonical
    /// encoder reads rows *and* count indexes through this.
    pub(crate) fn store(&self) -> &ViewStore {
        &self.store
    }

    /// Global wide-row column indexes of the view's projected output.
    /// Subscription filters and projections in `ojv-feed` are declared over
    /// output columns and mapped through this onto the stored wide rows, so
    /// evaluation never widens or re-projects a row it rejects.
    pub fn projection(&self) -> &[usize] {
        &self.projection
    }

    /// Wide-row column indexes of the view's unique key (the identity
    /// [`ViewOp`]s are netted by).
    pub fn key_cols(&self) -> &[usize] {
        self.store.key_cols()
    }

    /// Schema of the projected output.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Look up a stored row by view key.
    pub fn get_by_key(&self, key: &[Datum]) -> Option<&Row> {
        self.store.get_by_key(key)
    }

    /// The view's projected output, as of the snapshot's LSN.
    pub fn output(&self) -> Result<Relation> {
        let rows = self
            .store
            .rows()
            .iter()
            .map(|r| key_of(r, &self.projection))
            .collect();
        Ok(Relation::new(Arc::clone(&self.schema), rows))
    }
}

/// A pinned, immutable image of every registered view at one LSN. Holding
/// it keeps that version materializable; dropping it releases the pin and
/// lets reclamation advance.
#[derive(Debug)]
pub struct Snapshot {
    lsn: Lsn,
    pin_key: Lsn,
    views: Vec<SnapshotView>,
    registry: SnapshotRegistry,
}

impl Snapshot {
    /// The LSN this snapshot was pinned at.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    pub fn view(&self, name: &str) -> Option<&SnapshotView> {
        self.views.iter().find(|v| v.name.as_ref() == name)
    }

    pub fn views(&self) -> impl Iterator<Item = &SnapshotView> {
        self.views.iter()
    }

    /// Canonical encoding of every view image in this snapshot (name, rows
    /// in heap order, sorted count-index entries) — the per-snapshot
    /// differential instrument: two snapshots at the same LSN of identically
    /// maintained databases are byte-equal, and a snapshot is byte-equal to
    /// a serially maintained twin paused at the same LSN.
    pub fn state_bytes(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.lsn);
        let n =
            u32::try_from(self.views.len()).map_err(|_| crate::error::CoreError::InvalidView {
                view: "<snapshot>".to_string(),
                detail: "view count exceeds u32 framing".to_string(),
            })?;
        put_u32(&mut buf, n);
        for v in &self.views {
            put_str(&mut buf, &v.name).map_err(CoreError::Rel)?;
            put_store_section(&mut buf, &v.store)?;
        }
        Ok(buf)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        // Release the images first: the trim this unpin runs recycles an
        // image only the registry holds, and would still count these Arcs.
        self.views.clear();
        self.registry.unpin(self.pin_key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::fixtures::*;

    fn db() -> Database {
        let mut c = example1_catalog();
        populate_example1(&mut c, 8, 9);
        let mut db = Database::new(c);
        db.create_view(oj_view_def()).unwrap();
        db
    }

    #[test]
    fn pin_latest_tracks_commits() {
        let mut db = db();
        let reg = db.snapshots().clone();
        assert_eq!(reg.current_lsn(), 0);
        let s0 = reg.pin().unwrap();
        assert_eq!(s0.lsn(), 0);
        let len0 = s0.view("oj_view").unwrap().len();

        db.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        assert_eq!(reg.current_lsn(), 1);
        let s1 = reg.pin().unwrap();
        assert_eq!(s1.lsn(), 1);
        // The old pin still sees the old image.
        assert_eq!(s0.view("oj_view").unwrap().len(), len0);
        assert_eq!(
            s1.view("oj_view").unwrap().wide_rows(),
            db.view("oj_view").unwrap().wide_rows()
        );
    }

    #[test]
    fn pinned_version_survives_later_commits_byte_exactly() {
        let mut live = db();
        let mut twin = db();
        live.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        twin.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        let pinned = live.snapshots().pin().unwrap(); // lsn 1
        let expect = twin.snapshots().pin().unwrap().state_bytes().unwrap();

        // Keep mutating the live database; the pin must not move.
        live.insert("lineitem", vec![lineitem_row(6, 9, 5, 1, 2.0)])
            .unwrap();
        live.delete("lineitem", &[vec![Datum::Int(3), Datum::Int(1)]])
            .unwrap();
        assert_eq!(pinned.state_bytes().unwrap(), expect);
        // And a fresh pin at the old LSN materializes the same bytes.
        let repinned = live.snapshots().pin_at(1).unwrap();
        assert_eq!(repinned.state_bytes().unwrap(), expect);
    }

    #[test]
    fn unpinned_history_is_reclaimed() {
        let mut db = db();
        let reg = db.snapshots().clone();
        let pin = reg.pin().unwrap(); // lsn 0
        db.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        db.insert("lineitem", vec![lineitem_row(6, 9, 5, 1, 2.0)])
            .unwrap();
        let stats = reg.stats();
        assert_eq!(stats.active_pins, 1);
        assert_eq!(stats.floor_lsn, 0);
        assert!(stats.retained_ops > 0, "history retained while pinned");

        drop(pin);
        let stats = reg.stats();
        assert_eq!(stats.active_pins, 0);
        assert_eq!(stats.retained_ops, 0, "history reclaimed on last unpin");
        assert_eq!(stats.floor_lsn, stats.current_lsn);
        // The reclaimed version is now unavailable.
        assert!(matches!(
            reg.pin_at(0),
            Err(CoreError::SnapshotUnavailable { .. })
        ));
    }

    #[test]
    fn pin_free_workload_retains_nothing() {
        let mut db = db();
        for i in 0..6i64 {
            db.insert("lineitem", vec![lineitem_row(3, 10 + i, 2, 1, 1.0)])
                .unwrap();
        }
        let stats = db.snapshots().stats();
        assert_eq!(stats.retained_ops, 0);
        assert_eq!(stats.retained_versions, 0);
        assert_eq!(stats.high_water_ops, 0, "no pins, no history ever built");
        assert_eq!(stats.tip_copies, 0, "every commit wrote the tip in place");
    }

    /// On one thread a pin never meets a commit in flight: nothing waits.
    #[test]
    fn single_threaded_pins_never_wait() {
        let mut db = db();
        let reg = db.snapshots().clone();
        let mut held = Vec::new();
        for i in 0..6i64 {
            db.insert("lineitem", vec![lineitem_row(3, 10 + i, 2, 1, 1.0)])
                .unwrap();
            let snap = reg.pin().unwrap();
            if i % 2 == 0 {
                held.push(snap);
            }
        }
        let stats = reg.stats();
        assert_eq!((stats.pin_waits, stats.pin_wait_ns), (0, 0));
    }

    #[test]
    fn mid_chain_pin_materializes_and_memoizes() {
        let mut db = db();
        let reg = db.snapshots().clone();
        let hold = reg.pin().unwrap(); // keeps lsn 0 alive
        let mut per_lsn = vec![reg.pin().unwrap().state_bytes().unwrap()];
        for i in 0..4i64 {
            db.insert("lineitem", vec![lineitem_row(3, 10 + i, 2, 1, 1.0)])
                .unwrap();
            per_lsn.push(reg.pin().unwrap().state_bytes().unwrap());
        }
        // Pin every retained LSN again; bytes must match what was seen live.
        for (lsn, expect) in per_lsn.iter().enumerate() {
            let s = reg.pin_at(lsn as u64).unwrap();
            let mut got = s.state_bytes().unwrap();
            // state_bytes embeds the pinned LSN; both were pinned at `lsn`.
            assert_eq!(&mut got, expect, "lsn {lsn}");
        }
        let stats = reg.stats();
        assert!(stats.retained_versions >= 1);
        drop(hold);
        assert_eq!(reg.stats().retained_ops, 0);
    }

    #[test]
    fn images_no_reader_holds_shrink_to_one_spare() {
        let mut live = db();
        let reg = live.snapshots().clone();
        let hold = reg.pin().unwrap(); // keeps lsn 0 alive
        for i in 0..4i64 {
            live.insert("lineitem", vec![lineitem_row(3, 10 + i, 2, 1, 1.0)])
                .unwrap();
        }
        // The first commit cloned the pinned tip; nobody held the later
        // ones, so they were written in place. Only the base is retained.
        assert_eq!(reg.stats().tip_copies, 1);
        assert_eq!(reg.stats().retained_versions, 1);
        let mids = (reg.pin_at(1).unwrap(), reg.pin_at(2).unwrap());
        assert_eq!(reg.stats().retained_versions, 3);
        drop(mids);
        assert_eq!(reg.stats().retained_versions, 2, "base + one spare");
        // A later version is built from the spare, not from a copy of the
        // base.
        let expect = reg.pin_at(3).unwrap().state_bytes().unwrap();
        assert_eq!(reg.stats().retained_versions, 2, "base + one spare");
        let mut twin = db();
        for i in 0..3i64 {
            twin.insert("lineitem", vec![lineitem_row(3, 10 + i, 2, 1, 1.0)])
                .unwrap();
        }
        assert_eq!(twin.snapshot().unwrap().state_bytes().unwrap(), expect);
        // The next commit spans a pin of the tip: maintenance writes the
        // spare, advanced to the tip's LSN, instead of a clone of the tip.
        let tip = reg.pin().unwrap();
        live.insert("lineitem", vec![lineitem_row(6, 20, 5, 1, 2.0)])
            .unwrap();
        let stats = reg.stats();
        assert_eq!(stats.tip_copies, 1);
        assert_eq!(stats.retained_versions, 2, "base + the superseded tip");
        drop((hold, tip));
        assert_eq!(reg.stats().retained_versions, 0);
    }

    #[test]
    fn snapshot_output_matches_view_output() {
        let mut db = db();
        db.insert("lineitem", vec![lineitem_row(3, 1, 2, 4, 42.0)])
            .unwrap();
        let snap = db.snapshots().pin().unwrap();
        let out = snap.view("oj_view").unwrap().output().unwrap();
        let live = db.view("oj_view").unwrap().output().unwrap();
        assert_eq!(out.schema().len(), live.schema().len());
        assert!(out.bag_eq(&live));
    }

    #[test]
    fn dropped_view_leaves_existing_snapshots_readable() {
        let mut db = db();
        let snap = db.snapshots().pin().unwrap();
        db.drop_view("oj_view").unwrap();
        assert!(snap.view("oj_view").is_some());
        let fresh = db.snapshots().pin().unwrap();
        assert!(fresh.view("oj_view").is_none());
    }
}
