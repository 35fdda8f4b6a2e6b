//! Benchmark harness reproducing the paper's evaluation (§7).
//!
//! * [`views`] — the experiment's view definitions: V3 (outer joins over
//!   customer/orders/lineitem/part) and its *core view* (all inner joins),
//! * [`harness`] — workload builders and timed maintenance runners for the
//!   three compared systems (core view, outer-join view, GK baseline) and
//!   the A1–A4 ablations,
//! * [`report`] — plain-text table/series formatting for the `repro` binary.
//!
//! The commit pipeline (WAL, snapshots, feeds, shards) is measured end to
//! end by `ojvbench`, not here.

#![forbid(unsafe_code)]

pub mod harness;
pub mod report;
pub mod views;
