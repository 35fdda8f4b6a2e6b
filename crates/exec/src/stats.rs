//! The operator environment and per-operator counters.
//!
//! Every commit runs on its caller's thread, so the counters are plain
//! [`Cell`]s: an [`ExecStats`] is shared by `&` between the operators of one
//! evaluation and read once it is done.

use std::cell::Cell;
use std::time::Instant;

use crate::layout::ViewLayout;

/// Counters for one physical operator.
#[derive(Debug, Default)]
pub struct OpStats {
    pub rows_in: Cell<u64>,
    pub rows_out: Cell<u64>,
    /// Invocations with a non-empty input.
    pub calls: Cell<u64>,
    pub time_ns: Cell<u64>,
    /// Heap allocations during the operator (process-wide; nonzero only
    /// when a [`ojv_rel::CountingAlloc`] is installed as the global
    /// allocator).
    pub allocs: Cell<u64>,
    /// Bytes requested by those allocations.
    pub alloc_bytes: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

impl OpStats {
    pub fn record(
        &self,
        rows_in: usize,
        rows_out: usize,
        started: Instant,
        alloc0: ojv_rel::AllocSnapshot,
    ) {
        bump(&self.rows_in, rows_in as u64);
        bump(&self.rows_out, rows_out as u64);
        bump(&self.calls, u64::from(rows_in > 0));
        bump(&self.time_ns, started.elapsed().as_nanos() as u64);
        let da = ojv_rel::alloc_snapshot().since(&alloc0);
        bump(&self.allocs, da.count);
        bump(&self.alloc_bytes, da.bytes);
    }

    pub fn snapshot(&self) -> OpStatsSnapshot {
        OpStatsSnapshot {
            rows_in: self.rows_in.get(),
            rows_out: self.rows_out.get(),
            calls: self.calls.get(),
            time_ns: self.time_ns.get(),
            allocs: self.allocs.get(),
            alloc_bytes: self.alloc_bytes.get(),
        }
    }
}

/// Plain-value copy of [`OpStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStatsSnapshot {
    pub rows_in: u64,
    pub rows_out: u64,
    pub calls: u64,
    pub time_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Per-operator counters for one evaluation (or one maintenance run).
/// Attach via `ExecCtx::with_stats`.
#[derive(Debug, Default)]
pub struct ExecStats {
    pub filter: OpStats,
    pub join_build: OpStats,
    pub join_probe: OpStats,
    pub index_join: OpStats,
    pub dedup: OpStats,
    pub subsume: OpStats,
}

impl ExecStats {
    pub fn snapshot(&self) -> ExecStatsSnapshot {
        ExecStatsSnapshot {
            filter: self.filter.snapshot(),
            join_build: self.join_build.snapshot(),
            join_probe: self.join_probe.snapshot(),
            index_join: self.index_join.snapshot(),
            dedup: self.dedup.snapshot(),
            subsume: self.subsume.snapshot(),
        }
    }
}

/// Plain-value copy of [`ExecStats`], carried on maintenance reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStatsSnapshot {
    pub filter: OpStatsSnapshot,
    pub join_build: OpStatsSnapshot,
    pub join_probe: OpStatsSnapshot,
    pub index_join: OpStatsSnapshot,
    pub dedup: OpStatsSnapshot,
    pub subsume: OpStatsSnapshot,
}

/// What a physical operator needs besides its inputs: the wide-row layout
/// and optional counters.
#[derive(Clone, Copy)]
pub struct ExecEnv<'a> {
    pub layout: &'a ViewLayout,
    pub stats: Option<&'a ExecStats>,
}

impl<'a> ExecEnv<'a> {
    /// Environment with no counters — for operator calls outside a
    /// maintenance run (tests, one-off evaluations).
    pub fn new(layout: &'a ViewLayout) -> Self {
        ExecEnv {
            layout,
            stats: None,
        }
    }

    pub(crate) fn record(
        &self,
        op: impl Fn(&ExecStats) -> &OpStats,
        rows_in: usize,
        rows_out: usize,
        started: Instant,
        alloc0: ojv_rel::AllocSnapshot,
    ) {
        if let Some(stats) = self.stats {
            op(stats).record(rows_in, rows_out, started, alloc0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stats_accumulate() {
        let stats = OpStats::default();
        let t = Instant::now();
        let a = ojv_rel::alloc_snapshot();
        stats.record(10, 4, t, a);
        stats.record(5, 1, t, a);
        stats.record(0, 0, t, a);
        let snap = stats.snapshot();
        assert_eq!(snap.rows_in, 15);
        assert_eq!(snap.rows_out, 5);
        assert_eq!(snap.calls, 2, "an empty input is not a call");
    }
}
