//! Deterministic-interleaving corpus for the change-feed hub, built on the
//! stepped fan-out API: [`FeedHub::begin_fanout`] (evaluate, nothing
//! visible) and [`FeedHub::publish_fanout`] (append to rings, advance the
//! hub LSN) run as *separate scheduler steps*, so subscribe and drain land
//! at every point of a commit's lifetime — including between a commit's
//! snapshot publication and its fan-out, the race the born-LSN guard
//! exists for.
//!
//! A `Recorder` observer captures each commit's journaled `ViewOp`s instead
//! of fanning out inline; a driver actor then replays them through the
//! stepped API one half per step. The invariant at every drain: the
//! subscriber's applied state byte-equals a serial twin's fresh filtered
//! scan at the subscriber's cursor LSN.
//!
//! Fixed seeds below are the regression corpus; exhaustive enumeration
//! covers the small scenario completely.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use ojv::feed::{
    scan_state_bytes, Drained, FanoutBatch, FeedFilter, FeedHub, Resumed, SubscriberState,
    Subscription, SubscriptionSpec,
};
use ojv::prelude::*;
use ojv_core::fixtures;
use ojv_durability::Lsn;
use ojv_testkit::sched::{interleavings, replay, run_seeded, Actor};

fn build_db() -> Database {
    let mut c = fixtures::example1_catalog();
    fixtures::populate_example1(&mut c, 6, 9);
    let mut db = Database::new(c);
    db.create_view(fixtures::oj_view_def()).unwrap();
    db
}

/// The i-th maintenance batch, identical across every run of a scenario;
/// prices alternate across the `> 500` filter threshold so filtered
/// subscribers see rows enter and leave.
fn batch(i: usize) -> Vec<Row> {
    let i = i as i64;
    let price = if i % 2 == 0 { 700.0 + i as f64 } else { 9.0 };
    vec![fixtures::lineitem_row(
        1 + i % 9,
        4000 + i,
        1 + i % 6,
        1 + i % 9,
        price,
    )]
}

/// Price-threshold subscription every scenario uses.
fn price_spec() -> SubscriptionSpec {
    SubscriptionSpec::on("oj_view").with_filter(FeedFilter::cmp(9, CmpOp::Gt, Datum::Float(500.0)))
}

/// Reference bytes per LSN from a serially maintained twin: the fresh
/// filtered scan a subscriber's applied state must match at that cursor.
fn feed_refs(spec: &SubscriptionSpec, batches: usize) -> Vec<Vec<u8>> {
    let mut twin = build_db();
    let scan = |db: &Database| {
        let snap = db.snapshot().unwrap();
        scan_state_bytes(snap.view("oj_view").unwrap(), spec).unwrap()
    };
    let mut refs = vec![scan(&twin)];
    for i in 0..batches {
        twin.insert("lineitem", batch(i)).unwrap();
        refs.push(scan(&twin));
    }
    refs
}

/// One journaled commit: its LSN and the per-view ops it published.
type RecordedCommit = (Lsn, Vec<(String, Vec<ViewOp>)>);

/// Commit observer that journals `(lsn, ops)` pairs instead of fanning out,
/// so a driver actor can replay them through the stepped fan-out API at
/// scheduler-chosen points.
#[derive(Debug, Default)]
struct Recorder {
    commits: Mutex<Vec<RecordedCommit>>,
}

impl CommitObserver for Recorder {
    fn on_commit(&self, lsn: Lsn, updates: &[(String, Vec<ViewOp>)]) {
        self.commits.lock().unwrap().push((lsn, updates.to_vec()));
    }
}

/// Hub + database wired so commits journal into the recorder: the hub gets
/// the registry at attach time, then the recorder replaces it as observer.
fn recorded_world() -> (Rc<RefCell<Database>>, FeedHub, Arc<Recorder>) {
    let mut db = build_db();
    let hub = FeedHub::new();
    hub.attach(&mut db);
    let recorder = Arc::new(Recorder::default());
    db.attach_commit_observer(Arc::clone(&recorder) as Arc<dyn CommitObserver>);
    (Rc::new(RefCell::new(db)), hub, recorder)
}

/// Driver actor: step 3i commits batch i, step 3i+1 begins its fan-out,
/// step 3i+2 publishes it.
fn driver(
    db: &Rc<RefCell<Database>>,
    hub: &FeedHub,
    recorder: &Arc<Recorder>,
    batches: usize,
) -> Actor {
    let db = Rc::clone(db);
    let hub = hub.clone();
    let recorder = Arc::clone(recorder);
    let mut step = 0usize;
    let mut pending: Option<FanoutBatch> = None;
    Box::new(move || {
        match step % 3 {
            0 => {
                db.borrow_mut().insert("lineitem", batch(step / 3)).unwrap();
            }
            1 => {
                let (lsn, ups) = recorder.commits.lock().unwrap()[step / 3].clone();
                pending = Some(hub.begin_fanout(lsn, &ups));
            }
            _ => hub.publish_fanout(pending.take().expect("begun in the previous step")),
        }
        step += 1;
        step < 3 * batches
    })
}

/// Drain and apply (or rebase, if lapsed).
fn apply_drain(sub: &Subscription, state: &mut SubscriberState) {
    match sub.drain().unwrap() {
        Drained::Updates(sets) => {
            for set in sets {
                state.apply(&set);
            }
        }
        Drained::Rebase(image) => state.rebase(&image),
    }
}

/// Scenario 1 (exhaustive): every interleaving of a 4-step subscriber
/// (subscribe · drain · drain · drain) against a 3-commit driver whose
/// commit / begin / publish halves are separate steps. Wherever the
/// subscription lands — before a commit, after its snapshot publication
/// but before its fan-out, between begin and publish — the applied state
/// must match the serial twin at the cursor, and the final drain must
/// converge on the tip.
#[test]
fn subscribe_during_commit_exhaustive() {
    const BATCHES: usize = 3;
    let spec = price_spec();
    let refs = feed_refs(&spec, BATCHES);
    for trace in interleavings(&[3 * BATCHES, 4]) {
        let (db, hub, recorder) = recorded_world();
        let client: Rc<RefCell<Option<(Subscription, SubscriberState)>>> =
            Rc::new(RefCell::new(None));
        let subscriber: Actor = {
            let hub = hub.clone();
            let client = Rc::clone(&client);
            let refs = refs.clone();
            let spec = spec.clone();
            let trace = trace.clone();
            let mut step = 0usize;
            Box::new(move || {
                let mut c = client.borrow_mut();
                if step == 0 {
                    let (sub, image) = hub.subscribe(&spec).unwrap();
                    let state = SubscriberState::new(&image);
                    let cursor = sub.cursor().unwrap() as usize;
                    assert_eq!(
                        state.state_bytes(),
                        refs[cursor],
                        "initial image at cursor {cursor} under trace {trace:?}"
                    );
                    *c = Some((sub, state));
                } else {
                    let (sub, state) = c.as_mut().expect("subscribed at step 0");
                    apply_drain(sub, state);
                    let cursor = sub.cursor().unwrap() as usize;
                    assert_eq!(
                        state.state_bytes(),
                        refs[cursor],
                        "drained state at cursor {cursor} under trace {trace:?}"
                    );
                }
                step += 1;
                step < 4
            })
        };
        replay(
            &trace,
            &mut [driver(&db, &hub, &recorder, BATCHES), subscriber],
        );
        // Every commit is published now: one more drain converges on the tip.
        let (sub, mut state) = client.borrow_mut().take().unwrap();
        apply_drain(&sub, &mut state);
        assert_eq!(
            sub.cursor().unwrap() as usize,
            BATCHES,
            "cursor stopped short of the tip under trace {trace:?}"
        );
        assert_eq!(
            state.state_bytes(),
            refs[BATCHES],
            "final state diverged under trace {trace:?}"
        );
        drop(sub);
        assert_eq!(hub.stats().subscribers, 0);
        assert!(hub.take_error().is_none());
    }
}

/// Scenario 2 (seeded sweep): random schedules over three actors — the
/// stepped driver, a filtered subscriber draining continuously, and a
/// projection subscriber that drops mid-stream and resumes from its last
/// cursor (exercising Stream / CatchUp / Rebase, whichever the schedule
/// produces).
#[test]
fn seeded_subscribe_drop_resume_corpus() {
    const SEEDS: [u64; 6] = [1, 7, 42, 0xfeed, 0xbead5, 271_828];
    const BATCHES: usize = 5;
    let spec_a = price_spec();
    let spec_b = SubscriptionSpec::on("oj_view").with_projection(vec![0, 9]);
    let refs_a = feed_refs(&spec_a, BATCHES);
    let refs_b = feed_refs(&spec_b, BATCHES);
    for seed in SEEDS {
        let (db, hub, recorder) = recorded_world();
        type Client = Rc<RefCell<Option<(Subscription, SubscriberState)>>>;
        let client_a: Client = Rc::new(RefCell::new(None));
        // Subscriber B's handle and state live in separate slots: between
        // its drop and its resume it has a state but no subscription.
        let sub_b_handle: Rc<RefCell<Option<Subscription>>> = Rc::new(RefCell::new(None));
        let sub_b_state: Rc<RefCell<Option<SubscriberState>>> = Rc::new(RefCell::new(None));

        let sub_a: Actor = {
            let hub = hub.clone();
            let client = Rc::clone(&client_a);
            let refs = refs_a.clone();
            let spec = spec_a.clone();
            let mut step = 0usize;
            Box::new(move || {
                let mut c = client.borrow_mut();
                if step == 0 {
                    let (sub, image) = hub.subscribe(&spec).unwrap();
                    let state = SubscriberState::new(&image);
                    *c = Some((sub, state));
                } else {
                    let (sub, state) = c.as_mut().expect("subscribed at step 0");
                    apply_drain(sub, state);
                    let cursor = sub.cursor().unwrap() as usize;
                    assert_eq!(
                        state.state_bytes(),
                        refs[cursor],
                        "filtered subscriber at cursor {cursor} diverged, seed {seed}"
                    );
                }
                step += 1;
                step < 6
            })
        };
        let sub_b: Actor = {
            let hub = hub.clone();
            let handle = Rc::clone(&sub_b_handle);
            let slot = Rc::clone(&sub_b_state);
            let refs = refs_b.clone();
            let spec = spec_b.clone();
            let mut step = 0usize;
            let mut cursor_at_drop: Lsn = 0;
            Box::new(move || {
                match step {
                    0 => {
                        let (sub, image) = hub.subscribe(&spec).unwrap();
                        *slot.borrow_mut() = Some(SubscriberState::new(&image));
                        *handle.borrow_mut() = Some(sub);
                    }
                    1 => {
                        let h = handle.borrow();
                        let sub = h.as_ref().expect("subscribed at step 0");
                        let mut s = slot.borrow_mut();
                        let state = s.as_mut().unwrap();
                        apply_drain(sub, state);
                        let cursor = sub.cursor().unwrap() as usize;
                        assert_eq!(
                            state.state_bytes(),
                            refs[cursor],
                            "projection subscriber at cursor {cursor} diverged, seed {seed}"
                        );
                    }
                    2 => {
                        // Abrupt drop (no park, no pin): the cursor is all
                        // the client keeps across the gap.
                        let sub = handle.borrow_mut().take().expect("still subscribed");
                        cursor_at_drop = sub.cursor().unwrap();
                        sub.unsubscribe();
                    }
                    3 => {
                        let (sub, resumed) = hub.resume(&spec, cursor_at_drop).unwrap();
                        let mut s = slot.borrow_mut();
                        let state = s.as_mut().unwrap();
                        match resumed {
                            Resumed::Stream => {}
                            Resumed::CatchUp(set) => state.apply(&set),
                            Resumed::Rebase(image) => state.rebase(&image),
                        }
                        *handle.borrow_mut() = Some(sub);
                    }
                    _ => {
                        let h = handle.borrow();
                        let sub = h.as_ref().expect("resumed at step 3");
                        let mut s = slot.borrow_mut();
                        let state = s.as_mut().unwrap();
                        apply_drain(sub, state);
                        let cursor = sub.cursor().unwrap() as usize;
                        assert_eq!(
                            state.state_bytes(),
                            refs[cursor],
                            "resumed subscriber at cursor {cursor} diverged, seed {seed}"
                        );
                    }
                }
                step += 1;
                step < 6
            })
        };
        run_seeded(
            seed,
            &mut [driver(&db, &hub, &recorder, BATCHES), sub_a, sub_b],
        );

        // Both subscribers live; distinct specs keep distinct evaluations.
        let stats = hub.stats();
        assert_eq!(stats.subscribers, 2, "seed {seed}");
        assert_eq!(stats.shared_evals, 2, "seed {seed}");

        // Everything is committed and published: both converge on the tip.
        let (sub, mut state) = client_a.borrow_mut().take().unwrap();
        apply_drain(&sub, &mut state);
        assert_eq!(
            state.state_bytes(),
            refs_a[BATCHES],
            "filtered subscriber failed to converge, seed {seed}"
        );
        let sub = sub_b_handle.borrow_mut().take().unwrap();
        let mut state = sub_b_state.borrow_mut().take().unwrap();
        apply_drain(&sub, &mut state);
        assert_eq!(
            state.state_bytes(),
            refs_b[BATCHES],
            "resumed subscriber failed to converge, seed {seed}"
        );
        drop(sub);
        assert!(hub.take_error().is_none(), "seed {seed}");
    }
}
