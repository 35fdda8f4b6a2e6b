//! Differential property tests for the change-feed hub.
//!
//! The instrument is byte equality of one canonical encoding computed two
//! ways: [`SubscriberState::state_bytes`] over the *applied stream* (initial
//! image + every drained update set, in LSN order) versus
//! [`scan_state_bytes`] over a *fresh filtered scan* of the view at the same
//! LSN. Arbitrary command sequences interleave maintenance batches (inserts,
//! deletes, decomposed updates, insert-then-delete net-zero pairs) with
//! subscriber lifecycle (subscribe mid-stream, drain, park, resume, drop)
//! under a deliberately tiny retention ring, so lapse-and-rebase paths run
//! too — and after every drain the two encodings must agree exactly.

use ojv::feed::{
    scan_state_bytes, Drained, FeedAtom, FeedFilter, FeedHub, Resumed, SubscriberState,
    Subscription, SubscriptionSpec,
};
use ojv::prelude::*;
use ojv_core::fixtures;
use ojv_testkit::{property, strategy, vec_of, Rng, Strategy};

/// One abstract command; numeric arguments are resolved against the live
/// state inside the property body (so every generated sequence is valid).
#[derive(Debug, Clone, PartialEq)]
enum Cmd {
    /// Commit one new lineitem (a fresh view row, price chosen so rows land
    /// on either side of the `> 500` filter threshold).
    Insert { ok: u8, pk: u8, price: u8 },
    /// Delete a previously inserted lineitem chosen by `pick`.
    Delete { pick: u8 },
    /// Decomposed UPDATE of a previously inserted lineitem: one commit
    /// whose delete and insert halves must net correctly.
    Update { pick: u8, qty: u8, price: u8 },
    /// Insert a row and immediately delete it again: two commits whose
    /// drained sets must net to zero state change.
    InsertDelete { ok: u8, pk: u8 },
    /// Commit a part no lineitem references: the full outer join gains a
    /// null-extended row (exercises `IsNull` filters).
    NewPart { price: u8 },
    /// Subscribe mid-stream with a spec from the fixed pool.
    Subscribe { spec: u8 },
    /// Drain one live subscriber and check it against a fresh scan.
    Drain { pick: u8 },
    /// Park one live subscriber (pins its cursor for a later catch-up).
    Park { pick: u8 },
    /// Resume the oldest parked subscriber.
    Resume,
    /// Drop one live subscriber (releases its evaluation leaf).
    Drop { pick: u8 },
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    strategy(
        |rng: &mut Rng| match rng.gen_range(0u8..10) {
            0 | 1 => Cmd::Insert {
                ok: rng.gen_range(0u8..9),
                pk: rng.gen_range(0u8..6),
                price: rng.gen_range(0u8..=255),
            },
            2 => Cmd::Delete {
                pick: rng.gen_range(0u8..8),
            },
            3 => Cmd::Update {
                pick: rng.gen_range(0u8..8),
                qty: rng.gen_range(0u8..9),
                price: rng.gen_range(0u8..=255),
            },
            4 => Cmd::InsertDelete {
                ok: rng.gen_range(0u8..9),
                pk: rng.gen_range(0u8..6),
            },
            5 => Cmd::NewPart {
                price: rng.gen_range(0u8..=255),
            },
            6 => Cmd::Subscribe {
                spec: rng.gen_range(0u8..8),
            },
            7 => Cmd::Drain {
                pick: rng.gen_range(0u8..8),
            },
            8 => Cmd::Park {
                pick: rng.gen_range(0u8..8),
            },
            _ => {
                if rng.gen_range(0u8..2) == 0 {
                    Cmd::Resume
                } else {
                    Cmd::Drop {
                        pick: rng.gen_range(0u8..8),
                    }
                }
            }
        },
        // Shrinking: drop parameters toward zero and commands toward Insert.
        |cmd: &Cmd| match cmd {
            Cmd::Insert { ok, pk, price } if *ok > 0 || *pk > 0 || *price > 0 => {
                vec![Cmd::Insert {
                    ok: ok / 2,
                    pk: pk / 2,
                    price: price / 2,
                }]
            }
            Cmd::Insert { .. } => vec![],
            Cmd::Delete { pick } if *pick > 0 => vec![Cmd::Delete { pick: pick - 1 }],
            Cmd::Update { pick, qty, price } if *pick > 0 || *qty > 0 || *price > 0 => {
                vec![
                    Cmd::Update {
                        pick: pick / 2,
                        qty: qty / 2,
                        price: price / 2,
                    },
                    Cmd::Delete { pick: *pick },
                ]
            }
            Cmd::InsertDelete { ok, pk } if *ok > 0 || *pk > 0 => vec![Cmd::InsertDelete {
                ok: ok / 2,
                pk: pk / 2,
            }],
            Cmd::Subscribe { spec } if *spec > 0 => vec![Cmd::Subscribe { spec: spec - 1 }],
            Cmd::Drain { pick } if *pick > 0 => vec![Cmd::Drain { pick: pick - 1 }],
            Cmd::Park { pick } => vec![Cmd::Drain { pick: *pick }],
            Cmd::Resume => vec![Cmd::Drain { pick: 0 }],
            Cmd::Drop { pick } => vec![Cmd::Drain { pick: *pick }],
            _ => vec![Cmd::Insert {
                ok: 0,
                pk: 0,
                price: 0,
            }],
        },
    )
}

/// Fixed subscription pool over `oj_view` (output columns: 0–2 part,
/// 3–4 orders, 5–9 lineitem; col 8 quantity, col 9 extended price). Entries
/// are pairwise-distinct `(filter, projection)` fingerprints; `FILTER_ID`
/// maps each to its filter-group identity for the dedup assertions.
fn spec_pool() -> Vec<SubscriptionSpec> {
    vec![
        SubscriptionSpec::on("oj_view"),
        SubscriptionSpec::on("oj_view").with_filter(FeedFilter::cmp(
            9,
            CmpOp::Gt,
            Datum::Float(500.0),
        )),
        SubscriptionSpec::on("oj_view")
            .with_filter(FeedFilter::new(vec![FeedAtom::IsNull { col: 3 }])),
        SubscriptionSpec::on("oj_view").with_projection(vec![0, 1]),
        SubscriptionSpec::on("oj_view")
            .with_filter(
                FeedFilter::cmp(8, CmpOp::Ge, Datum::Int(3)).and(FeedAtom::IsNotNull { col: 9 }),
            )
            .with_projection(vec![0, 8, 9]),
        SubscriptionSpec::on("oj_view")
            .with_filter(FeedFilter::cmp(9, CmpOp::Gt, Datum::Float(500.0)))
            .with_projection(vec![9]),
        // Spec 4's projection under another filter: one shared row buffer
        // serves two filter groups.
        SubscriptionSpec::on("oj_view")
            .with_filter(FeedFilter::new(vec![FeedAtom::IsNotNull { col: 5 }]))
            .with_projection(vec![0, 8, 9]),
        // Sparse: one order's lineitems only.
        SubscriptionSpec::on("oj_view")
            .with_filter(FeedFilter::cmp(5, CmpOp::Eq, Datum::Int(3)))
            .with_projection(vec![5, 6, 9]),
    ]
}

/// Filter-group identity of each pool entry (specs 0 and 3 share the
/// match-all filter; 1 and 5 share the price threshold).
const FILTER_ID: [usize; 8] = [0, 1, 2, 0, 3, 1, 4, 5];

fn build_db() -> Database {
    let mut c = fixtures::example1_catalog();
    fixtures::populate_example1(&mut c, 6, 9);
    let mut db = Database::new(c);
    db.create_view(fixtures::oj_view_def()).unwrap();
    db
}

/// The fresh-scan side of the differential: filter + project the view at
/// the current snapshot through the sanctioned hub entry point.
fn expected(db: &Database, spec: &SubscriptionSpec) -> Vec<u8> {
    let snap = db.snapshot().unwrap();
    scan_state_bytes(snap.view("oj_view").unwrap(), spec).unwrap()
}

/// The applied-stream side: drain and apply (or rebase, if lapsed).
fn drain_into(sub: &Subscription, state: &mut SubscriberState) {
    match sub.drain().unwrap() {
        Drained::Updates(sets) => {
            for set in sets {
                state.apply(&set);
            }
        }
        Drained::Rebase(image) => state.rebase(&image),
    }
}

property! {
    /// After any drain, a subscriber's applied stream byte-equals a fresh
    /// filtered scan — across subscribers joining mid-stream, parking and
    /// resuming, lapsing past a 3-set retention ring, decomposed updates,
    /// and insert-then-delete pairs netting to zero.
    #[cases = 48]
    fn applied_stream_equals_fresh_scan(
        cmds in vec_of(cmd_strategy(), 1..28),
    ) {
        let mut db = build_db();
        let hub = FeedHub::new();
        hub.attach(&mut db);
        // Tiny ring so lagging subscribers actually lapse and rebase.
        hub.set_retention(3);

        let specs = spec_pool();
        let mut live: Vec<(Subscription, SubscriberState, usize)> = Vec::new();
        let mut parked: Vec<(u64, SubscriberState, usize)> = Vec::new();
        let mut keys: Vec<(i64, i64)> = Vec::new();
        let mut next_ln = 5000i64;
        let mut next_pk = 1000i64;

        for cmd in &cmds {
            match cmd {
                Cmd::Insert { ok, pk, price } => {
                    next_ln += 1;
                    let ok = 1 + i64::from(*ok) % 9;
                    let pk = 1 + i64::from(*pk) % 6;
                    let qty = 1 + i64::from(*price) % 9;
                    db.insert(
                        "lineitem",
                        vec![fixtures::lineitem_row(
                            ok,
                            next_ln,
                            pk,
                            qty,
                            f64::from(*price) * 4.0,
                        )],
                    )
                    .unwrap();
                    keys.push((ok, next_ln));
                }
                Cmd::Delete { pick } => {
                    if keys.is_empty() {
                        continue;
                    }
                    let (ok, ln) = keys.swap_remove(usize::from(*pick) % keys.len());
                    db.delete("lineitem", &[vec![Datum::Int(ok), Datum::Int(ln)]])
                        .unwrap();
                }
                Cmd::Update { pick, qty, price } => {
                    if keys.is_empty() {
                        continue;
                    }
                    let (ok, ln) = keys[usize::from(*pick) % keys.len()];
                    let pk = 1 + i64::from(*qty) % 6;
                    let qty = 1 + i64::from(*qty) % 9;
                    db.update(
                        "lineitem",
                        &[vec![Datum::Int(ok), Datum::Int(ln)]],
                        vec![fixtures::lineitem_row(
                            ok,
                            ln,
                            pk,
                            qty,
                            f64::from(*price) * 4.0,
                        )],
                    )
                    .unwrap();
                }
                Cmd::InsertDelete { ok, pk } => {
                    next_ln += 1;
                    let ok = 1 + i64::from(*ok) % 9;
                    let pk = 1 + i64::from(*pk) % 6;
                    db.insert(
                        "lineitem",
                        vec![fixtures::lineitem_row(ok, next_ln, pk, 2, 900.0)],
                    )
                    .unwrap();
                    db.delete("lineitem", &[vec![Datum::Int(ok), Datum::Int(next_ln)]])
                        .unwrap();
                }
                Cmd::NewPart { price } => {
                    next_pk += 1;
                    db.insert(
                        "part",
                        vec![fixtures::part_row(next_pk, "feedprop", f64::from(*price) * 4.0)],
                    )
                    .unwrap();
                }
                Cmd::Subscribe { spec } => {
                    let si = usize::from(*spec) % specs.len();
                    let (sub, image) = hub.subscribe(&specs[si]).unwrap();
                    let state = SubscriberState::new(&image);
                    assert_eq!(
                        state.state_bytes(),
                        expected(&db, &specs[si]),
                        "initial image of spec {si} differs from a fresh scan"
                    );
                    live.push((sub, state, si));
                }
                Cmd::Drain { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let i = usize::from(*pick) % live.len();
                    let (sub, state, si) = &mut live[i];
                    drain_into(sub, state);
                    assert_eq!(
                        state.state_bytes(),
                        expected(&db, &specs[*si]),
                        "drained spec {si} diverged from a fresh scan at lsn {}",
                        db.commit_lsn()
                    );
                }
                Cmd::Park { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let i = usize::from(*pick) % live.len();
                    let (sub, mut state, si) = live.swap_remove(i);
                    // Drain first so the parked cursor is the current tip
                    // (a cursor strictly behind an unpinned tip has no
                    // snapshot left to pin).
                    drain_into(&sub, &mut state);
                    let cursor = sub.park().unwrap();
                    assert_eq!(cursor, db.commit_lsn(), "park pins the drained tip");
                    parked.push((cursor, state, si));
                }
                Cmd::Resume => {
                    if parked.is_empty() {
                        continue;
                    }
                    let (cursor, mut state, si) = parked.remove(0);
                    let (sub, resumed) = hub.resume(&specs[si], cursor).unwrap();
                    match resumed {
                        Resumed::Stream => {}
                        Resumed::CatchUp(set) => state.apply(&set),
                        Resumed::Rebase(_) => {
                            panic!("a parked cursor is pinned; resume must never rebase")
                        }
                    }
                    drain_into(&sub, &mut state);
                    assert_eq!(
                        state.state_bytes(),
                        expected(&db, &specs[si]),
                        "resumed spec {si} diverged after catch-up from lsn {cursor}"
                    );
                    live.push((sub, state, si));
                }
                Cmd::Drop { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (sub, _, _) = live.swap_remove(usize::from(*pick) % live.len());
                    sub.unsubscribe();
                }
            }
        }

        // Final sweep: every parked subscriber resumes and every live one
        // drains to the tip; all of them must agree with a fresh scan.
        while let Some((cursor, mut state, si)) = parked.pop() {
            let (sub, resumed) = hub.resume(&specs[si], cursor).unwrap();
            match resumed {
                Resumed::Stream => {}
                Resumed::CatchUp(set) => state.apply(&set),
                Resumed::Rebase(_) => {
                    panic!("a parked cursor is pinned; resume must never rebase")
                }
            }
            live.push((sub, state, si));
        }
        for (sub, state, si) in &mut live {
            drain_into(sub, state);
            assert_eq!(
                state.state_bytes(),
                expected(&db, &specs[*si]),
                "final drain of spec {si} diverged from a fresh scan"
            );
        }

        // Dedup bookkeeping: live leaves are exactly the distinct specs in
        // use, and filter groups collapse specs sharing a filter.
        let mut distinct: Vec<usize> = live.iter().map(|(_, _, si)| *si).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut groups: Vec<usize> = live.iter().map(|(_, _, si)| FILTER_ID[*si]).collect();
        groups.sort_unstable();
        groups.dedup();
        let stats = hub.stats();
        assert_eq!(stats.subscribers, live.len());
        assert_eq!(
            stats.shared_evals,
            distinct.len(),
            "identical specs must share one evaluation"
        );
        assert_eq!(
            stats.filter_groups,
            groups.len(),
            "specs sharing a filter must share its group"
        );
        assert!(hub.take_error().is_none(), "no fan-out job may fail");

        drop(live);
        assert_eq!(hub.stats().subscribers, 0);
    }
}

property! {
    /// Cancellation, pointedly: inserting rows and deleting them again
    /// returns every subscriber's applied state to its prior bytes, and a
    /// price-only UPDATE nets to zero for a projection that excludes the
    /// price while moving a price projection to the fresh-scan state.
    #[cases = 32]
    fn net_zero_batches_cancel_and_update_halves_net(
        n in 1usize..5,
        price in 0u16..300,
    ) {
        let mut db = build_db();
        let hub = FeedHub::new();
        hub.attach(&mut db);

        let price_spec = SubscriptionSpec::on("oj_view")
            .with_filter(FeedFilter::cmp(9, CmpOp::Gt, Datum::Float(500.0)));
        let name_spec = SubscriptionSpec::on("oj_view").with_projection(vec![0, 1]);
        let (price_sub, image) = hub.subscribe(&price_spec).unwrap();
        let mut price_state = SubscriberState::new(&image);
        let (name_sub, image) = hub.subscribe(&name_spec).unwrap();
        let mut name_state = SubscriberState::new(&image);

        // Insert n rows straddling the filter threshold, then delete them
        // all again: 2n commits whose drained sets must net to nothing.
        let before_price = price_state.state_bytes();
        let before_name = name_state.state_bytes();
        let int_keys: Vec<(i64, i64)> = (0..n)
            .map(|j| (1 + j as i64 % 9, 7000 + j as i64))
            .collect();
        for (j, &(ok, ln)) in int_keys.iter().enumerate() {
            let row_price = f64::from(price) * 4.0 + if j % 2 == 0 { 600.0 } else { 0.0 };
            db.insert(
                "lineitem",
                vec![fixtures::lineitem_row(ok, ln, 1 + j as i64 % 6, 2, row_price)],
            )
            .unwrap();
        }
        let keys: Vec<Vec<Datum>> = int_keys
            .iter()
            .map(|&(ok, ln)| vec![Datum::Int(ok), Datum::Int(ln)])
            .collect();
        db.delete("lineitem", &keys).unwrap();
        drain_into(&price_sub, &mut price_state);
        drain_into(&name_sub, &mut name_state);
        assert_eq!(
            price_state.state_bytes(),
            before_price,
            "insert-then-delete must net to zero under the price filter"
        );
        assert_eq!(
            name_state.state_bytes(),
            before_name,
            "insert-then-delete must net to zero under the name projection"
        );

        // Decomposed UPDATE of only the price: the name projection nets to
        // its prior bytes; the price filter tracks the fresh scan (the row
        // crosses the threshold in at least one direction).
        db.insert(
            "lineitem",
            vec![fixtures::lineitem_row(2, 7999, 2, 2, 100.0)],
        )
        .unwrap();
        drain_into(&price_sub, &mut price_state);
        drain_into(&name_sub, &mut name_state);
        let before_name = name_state.state_bytes();
        db.update(
            "lineitem",
            &[vec![Datum::Int(2), Datum::Int(7999)]],
            vec![fixtures::lineitem_row(2, 7999, 2, 2, 700.0 + f64::from(price))],
        )
        .unwrap();
        drain_into(&price_sub, &mut price_state);
        drain_into(&name_sub, &mut name_state);
        assert_eq!(
            price_state.state_bytes(),
            expected(&db, &price_spec),
            "price filter must track the decomposed update"
        );
        assert_eq!(
            name_state.state_bytes(),
            before_name,
            "a price-only update must net to zero under the name projection"
        );
        assert_eq!(name_state.state_bytes(), expected(&db, &name_spec));
    }
}

/// Subscribers of a re-created view. A row that entered the view only
/// through `create_view` is still deleted from a new subscriber's stream
/// (the delete carries its pre-image), and re-creating the view with
/// another projection re-resolves the feed's leaves against the new
/// layout: a subscription that still fits lapses and rebases onto it, one
/// that no longer fits ends.
#[test]
fn recreated_view_streams_deletes_and_relayouts_its_leaves() {
    let mut db = build_db();
    let hub = FeedHub::new();
    hub.attach(&mut db);
    let all = SubscriptionSpec::on("oj_view");
    let (sub, _) = hub.subscribe(&all).unwrap();
    sub.unsubscribe();

    db.drop_view("oj_view").unwrap();
    db.insert("part", vec![fixtures::part_row(100, "recreated", 9.0)])
        .unwrap();
    db.create_view(fixtures::oj_view_def()).unwrap();
    let (wide_sub, image) = hub.subscribe(&all).unwrap();
    let mut state = SubscriberState::new(&image);
    db.delete("part", &[vec![Datum::Int(100)]]).unwrap();
    drain_into(&wide_sub, &mut state);
    assert_eq!(
        state.state_bytes(),
        expected(&db, &all),
        "the delete of part 100 must reach a subscriber of the re-created view"
    );

    // Re-create with two output columns in another order while `wide_sub`
    // (all ten output columns) and `pair_sub` (output columns 0 and 1)
    // stay subscribed.
    let pair = SubscriptionSpec::on("oj_view").with_projection(vec![0, 1]);
    let (pair_sub, image) = hub.subscribe(&pair).unwrap();
    let mut pair_state = SubscriberState::new(&image);
    db.drop_view("oj_view").unwrap();
    db.create_view(
        fixtures::oj_view_def()
            .with_projection(vec![("orders", "o_orderkey"), ("part", "p_partkey")]),
    )
    .unwrap();
    let (narrow_sub, image) = hub.subscribe(&all).unwrap();
    let mut narrow_state = SubscriberState::new(&image);
    assert_eq!(narrow_state.state_bytes(), expected(&db, &all));
    db.insert("part", vec![fixtures::part_row(101, "narrow", 1.0)])
        .unwrap();
    drain_into(&narrow_sub, &mut narrow_state);
    assert_eq!(
        narrow_state.state_bytes(),
        expected(&db, &all),
        "a subscriber of the re-created view must see its new layout"
    );
    match pair_sub.drain().unwrap() {
        Drained::Rebase(image) => pair_state.rebase(&image),
        other => panic!("a leaf of the old layout must lapse to a rebase, got {other:?}"),
    }
    assert_eq!(pair_state.state_bytes(), expected(&db, &pair));
    assert!(
        wide_sub.drain().is_err(),
        "ten output columns no longer fit: the subscription ends"
    );
}
