//! Vector-clock happens-before race detector and runtime lock witness.
//!
//! This is the dynamic half of the concurrency soundness layer (the static
//! half is `ojv-concheck`). A test installs the detector with [`install`],
//! then every traced access — [`on_read`]/[`on_write`] on a named cell,
//! [`lock_acquired`]/[`lock_released`] on a named lock, [`publish`]/
//! [`observe`] on a named channel — is stamped with the acting thread's
//! vector clock. Two accesses to the same cell conflict when at least one
//! is a write; a conflicting pair with no happens-before edge between them
//! is reported as a [`Race`] carrying both access paths plus the seed label
//! given to `install`, so the interleaving replays deterministically.
//!
//! Happens-before edges come from:
//! * lock release → later acquire of the same lock (clock transfer);
//! * [`publish`] → [`observe`] on the same channel (spawn/join/commit
//!   edges are expressed this way);
//! * scheduler edges in [`crate::sched`]: every virtual thread starts
//!   after `run_seeded` begins and the scheduler rejoins all of them when
//!   the schedule ends.
//!
//! The same acquire stream feeds a **lock witness**: per-thread held-lock
//! stacks record every acquisition-order edge actually executed, which
//! tests cross-check against the static lock graph from `ojv-concheck`.
//!
//! Everything is a no-op until `install` is called, and `install` holds a
//! process-wide serialization lock so concurrently running tests cannot
//! corrupt each other's event streams. Real OS threads participate after
//! calling [`register_thread`]; the virtual threads of `sched::run_seeded`
//! are registered automatically.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One recorded access epoch: thread `slot` at local time `at`.
#[derive(Debug, Clone)]
struct Access {
    slot: usize,
    at: u32,
    thread: String,
    path: String,
}

/// A conflicting access pair with no happens-before edge.
#[derive(Debug, Clone)]
pub struct Race {
    pub cell: String,
    /// `"write-write"`, `"write-read"` or `"read-write"` (prior kind first).
    pub kind: &'static str,
    pub prior_thread: String,
    pub prior_path: String,
    pub current_thread: String,
    pub current_path: String,
    /// The label passed to [`install`] — by convention the scheduler seed.
    pub seed: String,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "race on `{}` ({}): {} at {} vs {} at {} [{}]",
            self.cell,
            self.kind,
            self.prior_thread,
            self.prior_path,
            self.current_thread,
            self.current_path,
            self.seed
        )
    }
}

/// One acquisition-order edge observed at runtime: `from` was held when
/// `to` was acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WitnessEdge {
    pub from: String,
    pub to: String,
    /// Source location of the inner acquisition.
    pub at: String,
}

struct CellState {
    write: Option<Access>,
    /// Most recent read per slot since the last write.
    reads: BTreeMap<usize, Access>,
}

struct Slot {
    name: String,
    clock: Vec<u32>,
}

struct State {
    seed: String,
    slots: Vec<Slot>,
    cells: BTreeMap<String, CellState>,
    /// Release clock per lock label.
    locks: BTreeMap<String, Vec<u32>>,
    /// Published clock per channel.
    chans: BTreeMap<String, Vec<u32>>,
    /// Held-lock stack per slot.
    held: BTreeMap<usize, Vec<String>>,
    witness: Vec<WitnessEdge>,
    races: Vec<Race>,
    events: u64,
    /// Virtual-thread slot ids for the active schedule, if any.
    virtuals: Vec<usize>,
    current_virtual: Option<usize>,
    sched_slot: usize,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<State>> = Mutex::new(None);
/// Serializes whole detector sessions across concurrently running tests.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    /// (generation, slot) — stale generations are ignored.
    static SLOT: Cell<Option<(u64, usize)>> = const { Cell::new(None) };
}
static GENERATION: Mutex<u64> = Mutex::new(0);

fn state() -> MutexGuard<'static, Option<State>> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Is a detector session active?
pub fn active() -> bool {
    ACTIVE.load(Ordering::SeqCst)
}

fn join(dst: &mut Vec<u32>, src: &[u32]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

impl State {
    fn new_slot(&mut self, name: String) -> usize {
        let id = self.slots.len();
        let mut clock = vec![0; id + 1];
        clock[id] = 1;
        self.slots.push(Slot { name, clock });
        id
    }

    fn tick(&mut self, slot: usize) -> u32 {
        let c = &mut self.slots[slot].clock;
        if c.len() <= slot {
            c.resize(slot + 1, 0);
        }
        c[slot] += 1;
        c[slot]
    }

    /// Did access `a` happen before the current state of `slot`?
    fn access(&mut self, slot: usize, path: String) -> Access {
        let at = self.tick(slot);
        Access {
            slot,
            at,
            thread: self.slots[slot].name.clone(),
            path,
        }
    }
}

/// The slot acting on this thread: the schedule's current virtual thread
/// when one is entered, else this OS thread's registered slot, else a
/// fresh anonymous slot.
fn acting_slot(st: &mut State, generation: u64) -> usize {
    if let Some(v) = st.current_virtual {
        return st.virtuals[v];
    }
    let tls = SLOT.with(|s| s.get());
    if let Some((g, slot)) = tls {
        if g == generation && slot < st.slots.len() {
            return slot;
        }
    }
    let slot = st.new_slot(format!("anon-{}", st.slots.len()));
    SLOT.with(|s| s.set(Some((generation, slot))));
    slot
}

fn current_generation() -> u64 {
    *GENERATION.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Report of a finished detector session.
#[derive(Debug)]
pub struct Report {
    pub seed: String,
    pub races: Vec<Race>,
    pub events: u64,
    pub witness: Vec<WitnessEdge>,
}

impl Report {
    /// Panic with every race if any were recorded.
    pub fn assert_no_races(&self) {
        assert!(
            self.races.is_empty(),
            "happens-before detector found {} race(s) [{}]:\n{}",
            self.races.len(),
            self.seed,
            self.races
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Labels forming a cycle in the witnessed acquisition-order graph, if
    /// one exists (sorted; `None` means the runtime order was consistent).
    pub fn witness_cycle(&self) -> Option<Vec<String>> {
        witness_cycle_in(&self.witness)
    }
}

/// Find a strongly connected component (or self-loop) in witness edges.
pub fn witness_cycle_in(edges: &[WitnessEdge]) -> Option<Vec<String>> {
    let mut nodes: Vec<&str> = Vec::new();
    for e in edges {
        if !nodes.contains(&e.from.as_str()) {
            nodes.push(&e.from);
        }
        if !nodes.contains(&e.to.as_str()) {
            nodes.push(&e.to);
        }
    }
    nodes.sort_unstable();
    let idx = |n: &str| nodes.iter().position(|x| *x == n).unwrap();
    let n = nodes.len();
    let mut reach = vec![vec![false; n]; n];
    for e in edges {
        reach[idx(&e.from)][idx(&e.to)] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                reach[i][j] = reach[i][j] || (reach[i][k] && reach[k][j]);
            }
        }
    }
    let cyc: Vec<String> = (0..n)
        .filter(|&i| reach[i][i])
        .map(|i| nodes[i].to_string())
        .collect();
    if cyc.is_empty() {
        None
    } else {
        Some(cyc)
    }
}

/// Active detector session. Ends (and uninstalls) on drop or [`finish`].
///
/// [`finish`]: DetectorGuard::finish
pub struct DetectorGuard {
    _serial: MutexGuard<'static, ()>,
    finished: bool,
}

impl DetectorGuard {
    /// Stop the session and return everything it recorded.
    pub fn finish(mut self) -> Report {
        self.finished = true;
        uninstall()
    }

    /// Panic with a full report if any race has been recorded so far.
    pub fn assert_no_races(&self) {
        let st = state();
        let st = st.as_ref().expect("detector active");
        assert!(
            st.races.is_empty(),
            "happens-before detector found {} race(s) [{}]:\n{}",
            st.races.len(),
            st.seed,
            st.races
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

impl Drop for DetectorGuard {
    fn drop(&mut self) {
        if !self.finished {
            uninstall();
        }
    }
}

fn uninstall() -> Report {
    ACTIVE.store(false, Ordering::SeqCst);
    {
        let mut g = GENERATION.lock().unwrap_or_else(PoisonError::into_inner);
        *g += 1;
    }
    let st = state().take().expect("detector was active");
    Report {
        seed: st.seed,
        races: st.races,
        events: st.events,
        witness: st.witness,
    }
}

/// Start a detector session. `seed` labels every race report (pass the
/// scheduler seed, e.g. `"seed=42"`, so failures replay). The calling
/// thread is registered as `"main"`.
pub fn install(seed: &str) -> DetectorGuard {
    let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let generation = {
        let mut g = GENERATION.lock().unwrap_or_else(PoisonError::into_inner);
        *g += 1;
        *g
    };
    let mut st = State {
        seed: seed.to_string(),
        slots: Vec::new(),
        cells: BTreeMap::new(),
        locks: BTreeMap::new(),
        chans: BTreeMap::new(),
        held: BTreeMap::new(),
        witness: Vec::new(),
        races: Vec::new(),
        events: 0,
        virtuals: Vec::new(),
        current_virtual: None,
        sched_slot: 0,
    };
    let main = st.new_slot("main".to_string());
    SLOT.with(|s| s.set(Some((generation, main))));
    *state() = Some(st);
    ACTIVE.store(true, Ordering::SeqCst);
    DetectorGuard {
        _serial: serial,
        finished: false,
    }
}

/// Register the calling OS thread under `name`. Pair with a
/// [`publish`]/[`observe`] channel to give it a spawn edge from its parent.
pub fn register_thread(name: &str) {
    if !active() {
        return;
    }
    let generation = current_generation();
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    let slot = st.new_slot(name.to_string());
    SLOT.with(|s| s.set(Some((generation, slot))));
}

fn record_read_or_write(cell: &str, is_write: bool, path: String) {
    let generation = current_generation();
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    st.events += 1;
    let slot = acting_slot(st, generation);
    let acc = st.access(slot, path);
    let seed = st.seed.clone();
    let entry = st.cells.entry(cell.to_string()).or_insert(CellState {
        write: None,
        reads: BTreeMap::new(),
    });
    // Split borrows: check against prior accesses, then record.
    let mut races: Vec<Race> = Vec::new();
    {
        let slots = &st.slots;
        let hb = |a: &Access| {
            a.slot == slot || slots[slot].clock.get(a.slot).copied().unwrap_or(0) >= a.at
        };
        if let Some(w) = &entry.write {
            if !hb(w) {
                races.push(Race {
                    cell: cell.to_string(),
                    kind: if is_write {
                        "write-write"
                    } else {
                        "write-read"
                    },
                    prior_thread: w.thread.clone(),
                    prior_path: w.path.clone(),
                    current_thread: acc.thread.clone(),
                    current_path: acc.path.clone(),
                    seed: seed.clone(),
                });
            }
        }
        if is_write {
            for r in entry.reads.values() {
                if !hb(r) {
                    races.push(Race {
                        cell: cell.to_string(),
                        kind: "read-write",
                        prior_thread: r.thread.clone(),
                        prior_path: r.path.clone(),
                        current_thread: acc.thread.clone(),
                        current_path: acc.path.clone(),
                        seed: seed.clone(),
                    });
                }
            }
        }
    }
    if is_write {
        entry.reads.clear();
        entry.write = Some(acc);
    } else {
        entry.reads.insert(slot, acc);
    }
    st.races.extend(races);
}

/// Record a read of the named cell by the acting thread.
#[track_caller]
pub fn on_read(cell: &str) {
    if !active() {
        return;
    }
    let loc = Location::caller();
    record_read_or_write(cell, false, format!("{}:{}", loc.file(), loc.line()));
}

/// Record a write of the named cell by the acting thread.
#[track_caller]
pub fn on_write(cell: &str) {
    if !active() {
        return;
    }
    let loc = Location::caller();
    record_read_or_write(cell, true, format!("{}:{}", loc.file(), loc.line()));
}

/// Record acquisition of the named lock: joins the lock's release clock
/// into the acting thread (the happens-before edge every `Mutex` grants)
/// and pushes a held-stack entry feeding the lock witness.
#[track_caller]
pub fn lock_acquired(label: &str) {
    if !active() {
        return;
    }
    let loc = Location::caller();
    let at = format!("{}:{}", loc.file(), loc.line());
    let generation = current_generation();
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    st.events += 1;
    let slot = acting_slot(st, generation);
    st.tick(slot);
    if let Some(rel) = st.locks.get(label).cloned() {
        join(&mut st.slots[slot].clock, &rel);
    }
    let held = st.held.entry(slot).or_default().clone();
    for h in &held {
        if h != label {
            let edge = WitnessEdge {
                from: h.clone(),
                to: label.to_string(),
                at: at.clone(),
            };
            if !st.witness.contains(&edge) {
                st.witness.push(edge);
            }
        }
    }
    st.held.entry(slot).or_default().push(label.to_string());
}

/// Record release of the named lock: stores the acting thread's clock as
/// the lock's release clock and pops the held stack.
pub fn lock_released(label: &str) {
    if !active() {
        return;
    }
    let generation = current_generation();
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    st.events += 1;
    let slot = acting_slot(st, generation);
    st.tick(slot);
    let clock = st.slots[slot].clock.clone();
    let rel = st.locks.entry(label.to_string()).or_default();
    join(rel, &clock);
    if let Some(stack) = st.held.get_mut(&slot) {
        if let Some(pos) = stack.iter().rposition(|l| l == label) {
            stack.remove(pos);
        }
    }
}

/// Publish the acting thread's clock on a named channel (the source half
/// of an explicit happens-before edge: spawn, join, commit-publish).
pub fn publish(chan: &str) {
    if !active() {
        return;
    }
    let generation = current_generation();
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    st.events += 1;
    let slot = acting_slot(st, generation);
    st.tick(slot);
    let clock = st.slots[slot].clock.clone();
    let c = st.chans.entry(chan.to_string()).or_default();
    join(c, &clock);
}

/// Join a named channel's published clock into the acting thread (the sink
/// half of an explicit happens-before edge).
pub fn observe(chan: &str) {
    if !active() {
        return;
    }
    let generation = current_generation();
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    st.events += 1;
    let slot = acting_slot(st, generation);
    st.tick(slot);
    if let Some(c) = st.chans.get(chan).cloned() {
        join(&mut st.slots[slot].clock, &c);
    }
}

/// Races recorded so far in the active session.
pub fn races() -> Vec<Race> {
    state()
        .as_ref()
        .map(|st| st.races.clone())
        .unwrap_or_default()
}

/// Events recorded so far (used by tests to prove the detector really ran).
pub fn events_recorded() -> u64 {
    state().as_ref().map(|st| st.events).unwrap_or(0)
}

/// Acquisition-order edges witnessed so far.
pub fn witness_edges() -> Vec<WitnessEdge> {
    let mut e = state()
        .as_ref()
        .map(|st| st.witness.clone())
        .unwrap_or_default();
    e.sort();
    e
}

// ---- scheduler integration (called by `crate::sched`) ----

/// Start a schedule of `n` virtual threads; each starts with a spawn edge
/// from the scheduling thread.
pub fn begin_schedule(n: usize) {
    if !active() {
        return;
    }
    let generation = current_generation();
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    let sched = acting_slot(st, generation);
    st.sched_slot = sched;
    st.tick(sched);
    let base = st.slots[sched].clock.clone();
    st.virtuals = (0..n)
        .map(|i| {
            let s = st.new_slot(format!("virtual-{i}"));
            join(&mut st.slots[s].clock, &base);
            s
        })
        .collect();
    st.current_virtual = None;
}

/// Enter (or with `None`, leave) a virtual thread for the next step.
pub fn enter_virtual(i: Option<usize>) {
    if !active() {
        return;
    }
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    st.current_virtual = i.filter(|&i| i < st.virtuals.len());
}

/// A virtual thread finished: join edge back into the scheduling thread.
pub fn virtual_done(i: usize) {
    if !active() {
        return;
    }
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    if i >= st.virtuals.len() {
        return;
    }
    let slot = st.virtuals[i];
    let clock = st.slots[slot].clock.clone();
    let sched = st.sched_slot;
    join(&mut st.slots[sched].clock, &clock);
}

/// End the schedule: join every virtual thread into the scheduler and drop
/// the virtual slots.
pub fn end_schedule() {
    if !active() {
        return;
    }
    let mut guard = state();
    let Some(st) = guard.as_mut() else { return };
    let sched = st.sched_slot;
    let virtuals = std::mem::take(&mut st.virtuals);
    for slot in virtuals {
        let clock = st.slots[slot].clock.clone();
        join(&mut st.slots[sched].clock, &clock);
    }
    st.current_virtual = None;
}

// ---- traced wrappers ----

/// A value whose reads and writes feed the detector under a named cell.
#[derive(Debug)]
pub struct Traced<T> {
    cell: String,
    value: T,
}

impl<T> Traced<T> {
    pub fn new(cell: impl Into<String>, value: T) -> Self {
        Traced {
            cell: cell.into(),
            value,
        }
    }

    /// Read access (recorded).
    #[track_caller]
    pub fn read(&self) -> &T {
        on_read(&self.cell);
        &self.value
    }

    /// Write access (recorded).
    #[track_caller]
    pub fn write(&mut self) -> &mut T {
        on_write(&self.cell);
        &mut self.value
    }

    pub fn into_inner(self) -> T {
        self.value
    }
}

/// A mutex whose acquire/release events feed the detector's clocks and the
/// lock witness.
#[derive(Debug, Default)]
pub struct TracedMutex<T> {
    label: String,
    inner: Mutex<T>,
}

/// Guard for [`TracedMutex`]; releases (and records) on drop.
pub struct TracedMutexGuard<'a, T> {
    label: &'a str,
    guard: MutexGuard<'a, T>,
}

impl<T> TracedMutex<T> {
    pub fn new(label: impl Into<String>, value: T) -> Self {
        TracedMutex {
            label: label.into(),
            inner: Mutex::new(value),
        }
    }

    #[track_caller]
    pub fn lock(&self) -> TracedMutexGuard<'_, T> {
        // Acquire first, record second: the recorded acquire must observe
        // the release clock of whoever actually held the mutex last.
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        lock_acquired(&self.label);
        TracedMutexGuard {
            label: &self.label,
            guard,
        }
    }
}

impl<T> std::ops::Deref for TracedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for TracedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TracedMutexGuard<'_, T> {
    fn drop(&mut self) {
        lock_released(self.label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{run_seeded, Actor};

    #[test]
    fn unordered_write_write_is_a_race_and_seed_is_embedded() {
        let det = install("seed=7");
        let mut actors: Vec<Actor> = vec![
            Box::new(|| {
                on_write("cell");
                false
            }),
            Box::new(|| {
                on_write("cell");
                false
            }),
        ];
        run_seeded(7, &mut actors);
        let report = det.finish();
        assert_eq!(report.races.len(), 1, "{:?}", report.races);
        assert_eq!(report.races[0].kind, "write-write");
        assert_eq!(report.races[0].seed, "seed=7");
        assert!(report.races[0].prior_path.contains("race.rs"));
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let det = install("seed=8");
        for _ in 0..2 {
            let mut actors: Vec<Actor> = (0..2)
                .map(|_| {
                    Box::new(|| {
                        lock_acquired("m");
                        on_write("cell-locked");
                        lock_released("m");
                        false
                    }) as Actor
                })
                .collect();
            run_seeded(8, &mut actors);
        }
        let report = det.finish();
        assert!(report.races.is_empty(), "{:?}", report.races);
        assert!(report.events > 0);
    }

    #[test]
    fn publish_observe_orders_across_virtuals() {
        let det = install("seed=9");
        // Actor 0 writes then publishes; actor 1 observes before reading.
        // The scheduler may still run 1's first step before 0's, so actor 1
        // spins (stays not-done) until the channel carries 0's clock.
        let flag = std::rc::Rc::new(std::cell::Cell::new(false));
        let flag2 = std::rc::Rc::clone(&flag);
        let mut actors: Vec<Actor> = vec![
            Box::new(move || {
                on_write("published-cell");
                publish("chan");
                flag2.set(true);
                false
            }),
            Box::new(move || {
                if !flag.get() {
                    return true; // not ready: stay live, try again later
                }
                observe("chan");
                on_read("published-cell");
                false
            }),
        ];
        run_seeded(9, &mut actors);
        let report = det.finish();
        assert!(report.races.is_empty(), "{:?}", report.races);
    }

    #[test]
    fn witness_records_nesting_and_detects_reversal() {
        let det = install("seed=10");
        let a = TracedMutex::new("a", 0u32);
        let b = TracedMutex::new("b", 0u32);
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        let report = det.finish();
        assert!(report.witness.iter().any(|e| e.from == "a" && e.to == "b"));
        assert!(report.witness.iter().any(|e| e.from == "b" && e.to == "a"));
        let cyc = report.witness_cycle().expect("reversed order is a cycle");
        assert_eq!(cyc, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn consistent_order_has_no_witness_cycle() {
        let det = install("seed=11");
        let a = TracedMutex::new("a", 0u32);
        let b = TracedMutex::new("b", 0u32);
        for _ in 0..2 {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let report = det.finish();
        assert!(report.witness_cycle().is_none());
    }

    #[test]
    fn os_threads_register_and_sync_via_channels() {
        let det = install("seed=12");
        let traced = TracedMutex::new("shared", Traced::new("shared-cell", 0u32));
        publish("spawn");
        std::thread::scope(|s| {
            for t in 0..2 {
                let traced = &traced;
                s.spawn(move || {
                    register_thread(&format!("worker-{t}"));
                    observe("spawn");
                    let mut g = traced.lock();
                    *g.write() += 1;
                    drop(g);
                    publish("join");
                });
            }
        });
        observe("join");
        assert_eq!(*traced.lock().read(), 2);
        let report = det.finish();
        report.assert_no_races();
        assert!(report.events > 0);
    }

    #[test]
    fn detector_inactive_hooks_are_noops() {
        // Sibling tests hold a session for their whole run: wait them out.
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!active());
        on_write("nothing");
        lock_acquired("nothing");
        lock_released("nothing");
        assert!(races().is_empty());
    }
}
