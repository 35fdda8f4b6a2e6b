//! Benchmark harness reproducing the paper's evaluation (§7).
//!
//! * [`views`] — the experiment's view definitions: V3 (outer joins over
//!   customer/orders/lineitem/part) and its *core view* (all inner joins),
//! * [`harness`] — workload builders and timed maintenance runners for the
//!   three compared systems (core view, outer-join view, GK baseline),
//! * [`report`] — plain-text table/series formatting for the `repro` binary,
//! * [`walbench`] — WAL overhead of durable maintenance per fsync policy,
//! * [`readbench`] — snapshot-reader throughput concurrent with maintenance,
//! * [`feedbench`] — change-feed fan-out to a 100k filtered-subscriber
//!   population versus naive per-subscriber re-scans,
//! * [`shardbench`] — batch maintenance through the hash-partitioned
//!   [`ShardedDatabase`](ojv_core::shard::ShardedDatabase) at 1/2/4/8
//!   shards.

#![forbid(unsafe_code)]

pub mod feedbench;
pub mod harness;
pub mod readbench;
pub mod report;
pub mod shardbench;
pub mod views;
pub mod walbench;
