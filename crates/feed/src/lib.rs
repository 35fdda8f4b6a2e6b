//! Change-feed subscriptions over materialized outer-join views.
//!
//! Clients subscribe to a view with an optional filter (a conjunction over
//! the view's output columns) and column projection. Every committed
//! maintenance batch is translated — once per distinct `(filter,
//! projection)`, not once per subscriber — into net update sets delivered
//! in LSN order with resumable cursors:
//!
//! * **Dedup:** identical subscriptions share one evaluation and one
//!   `Arc<UpdateSet>` per commit, via a fingerprint trie (view → filter →
//!   projection) mirroring the batch planner's plan trie; subscriptions
//!   with the same projection under different filters share one buffer of
//!   projected rows per commit, so each row is built once.
//! * **Cancellation:** a row inserted and deleted inside one batch nets to
//!   nothing; an UPDATE decomposes into delete/insert halves only when a
//!   projected column actually changed.
//! * **Catch-up:** a subscriber that parks and returns at an older LSN is
//!   caught up by one synthetic diff computed from PR-6 snapshot pins;
//!   past the snapshot floor it degrades to a full rebase.
//!
//! # Quick start
//!
//! ```
//! use ojv_core::fixtures;
//! use ojv_core::prelude::Database;
//! use ojv_feed::{Drained, FeedHub, SubscriberState, SubscriptionSpec};
//!
//! let mut catalog = fixtures::example1_catalog();
//! fixtures::populate_example1(&mut catalog, 10, 12);
//! let mut db = Database::new(catalog);
//! db.create_view(fixtures::oj_view_def()).unwrap();
//!
//! // Attach a hub and subscribe; the returned image is the view at the
//! // subscription's starting LSN.
//! let hub = FeedHub::new();
//! hub.attach(&mut db);
//! let (sub, image) = hub.subscribe(&SubscriptionSpec::on("oj_view")).unwrap();
//! let mut state = SubscriberState::new(&image);
//!
//! // Commit — maintenance runs, and the hub nets the view delta into
//! // update sets. Drain applies exactly the commits since the cursor.
//! db.insert("lineitem", vec![fixtures::lineitem_row(3, 9, 2, 4, 42.0)])
//!     .unwrap();
//! match sub.drain().unwrap() {
//!     Drained::Updates(sets) => {
//!         for set in sets {
//!             state.apply(&set);
//!         }
//!     }
//!     Drained::Rebase(image) => state.rebase(&image),
//! }
//! assert_eq!(state.len(), db.view("oj_view").unwrap().len());
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod filter;
pub mod hub;
pub mod update_set;

pub use error::{FeedError, Result};
pub use filter::{FeedAtom, FeedFilter, SubscriptionSpec};
pub use hub::{scan_state_bytes, FanoutBatch, FeedHub, FeedStats, Subscription};
pub use update_set::{Drained, Materialization, Resumed, SubscriberState, UpdateSet};

#[doc(hidden)]
pub use hub::test_panic;
