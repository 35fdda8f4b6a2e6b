//! In-repo test substrate: a deterministic PRNG and a minimal
//! shrink-capable property-testing harness.
//!
//! This crate exists so the workspace's tier-1 verify
//! (`cargo build --release && cargo test -q`) completes **fully offline**:
//! it replaces the `rand` and `proptest` crates-io dependencies with ~500
//! lines of plain Rust.
//!
//! * [`rng`] — SplitMix64-seeded xorshift128+ generator with a
//!   rand-compatible surface (`gen_range`, `gen_bool`),
//! * [`strategy`](mod@strategy) — value-based generation + shrinking ([`Strategy`]),
//! * [`check`] — the [`property!`] macro's case runner and shrink loop,
//! * [`sched`] — a deterministic virtual-thread scheduler (seeded, replayed,
//!   or exhaustively enumerated interleavings — the in-repo stand-in for
//!   `loom`),
//! * [`fault`] — a fault-injecting file for crash and torn-write tests.
//!
//! ```
//! use ojv_testkit::property;
//!
//! property! {
//!     #[cases = 32]
//!     fn addition_commutes(a in 0i64..100, b in 0i64..100) {
//!         assert_eq!(a + b, b + a);
//!     }
//! }
//! ```

#![forbid(unsafe_code)]

pub mod check;
pub mod fault;
pub mod rng;
pub mod sched;
pub mod strategy;

pub use check::run_property;
pub use fault::{fault_spec, FaultFile, FaultSpec, FaultSpecStrategy};
pub use rng::{mix, Rng};
pub use sched::{interleavings, replay, run_seeded, Actor};
pub use strategy::{choice, strategy, vec_of, Just, Strategy};

// Allocation-discipline instrumentation: a counting `#[global_allocator]`
// test harnesses can install to assert hot paths stay allocation-free.
// The counters live in `ojv_rel` (next to the operators they audit);
// re-exported here so test crates only need the testkit.
pub use ojv_rel::{alloc_counting_active, alloc_snapshot, AllocSnapshot, CountingAlloc};
