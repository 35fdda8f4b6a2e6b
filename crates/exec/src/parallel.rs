//! Morsel-parallel driver and per-operator counters.
//!
//! [`map_morsels`] is the single scheduling primitive every parallel operator
//! uses: morsels are dealt round-robin to the workers, and per-morsel results
//! are returned **in morsel order**, so concatenating them reproduces the
//! serial output exactly. [`map_parts`] is the same idea for work that is
//! naturally indexed by partition (hash-partitioned dedup, per-mask
//! subsumption) rather than by row range.
//!
//! Both run on [`run_pool`], the one bounded scoped-thread pool of the
//! workspace: batched view maintenance, the shard fan-out and the change-feed
//! fan-out use it too, so there is one place that spawns threads, one
//! panic→error policy and one set of happens-before edges.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::layout::ViewLayout;
use crate::morsel::{morsel_ranges, ParallelSpec};

/// Run `work` over every morsel of `0..len`, returning results in morsel
/// order. Serial (caller thread, in-order) when the spec says so or there is
/// at most one morsel; otherwise on up to `spec.threads` pool workers.
pub fn map_morsels<T, F>(spec: ParallelSpec, len: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = morsel_ranges(len, spec.morsel_rows);
    if !spec.is_parallel_for(len) || ranges.len() <= 1 {
        return ranges.into_iter().map(work).collect();
    }
    run_infallible(spec, ranges, work)
}

/// Run `work(p)` for every partition index `p in 0..nparts`, returning
/// results in partition order. Parallel whenever the spec has more than one
/// thread and there is more than one partition (partition counts are small;
/// no row-count cutoff applies).
pub fn map_parts<T, F>(spec: ParallelSpec, nparts: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if spec.threads <= 1 || nparts <= 1 {
        return (0..nparts).map(work).collect();
    }
    run_infallible(spec, (0..nparts).collect(), work)
}

/// [`run_pool`] for the operators, which keep infallible signatures: a
/// worker panic the pool caught is re-raised here, on the calling thread,
/// where the maintenance layer's per-job boundary turns it into an error.
fn run_infallible<I, T, F>(spec: ParallelSpec, items: Vec<I>, work: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    run_pool("exec.morsel", spec.threads, items, |_, item| work(item))
        .into_iter()
        .map(|r| r.unwrap_or_else(|detail| resume_unwind(Box::new(detail))))
        .collect()
}

/// Render a caught panic payload for error surfacing.
pub fn panic_detail(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The workspace's one worker pool: run `work(k, item)` for every item on
/// at most `threads` scoped workers and return one result per item **in
/// item order**.
///
/// * Bounded: `min(threads, items.len())` workers; item `k` goes to worker
///   `k % workers`. With one worker everything runs inline on the calling
///   thread, under the same per-item semantics.
/// * One panic policy: a panic inside `work` is caught at the item boundary
///   and becomes `Err(detail)` for that item only; every other item still
///   completes. Callers map the detail onto their own error type.
/// * Workers take no locks; results travel back through the join. The
///   happens-before edges are `{label}.spawn` (caller → every worker),
///   `{label}.join` (every worker → caller) and the `{label}.merge@<caller>`
///   write the caller performs once all workers are joined.
pub fn run_pool<I, T, F>(
    label: &str,
    threads: usize,
    items: Vec<I>,
    work: F,
) -> Vec<Result<T, String>>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let guarded = |k: usize, item: I| {
        catch_unwind(AssertUnwindSafe(|| work(k, item))).map_err(|p| panic_detail(p.as_ref()))
    };
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(k, item)| guarded(k, item))
            .collect();
    }
    let mut buckets: Vec<Vec<(usize, I)>> = (0..workers).map(|_| Vec::new()).collect();
    for (k, item) in items.into_iter().enumerate() {
        buckets[k % workers].push((k, item));
    }
    let (spawn, join) = (format!("{label}.spawn"), format!("{label}.join"));
    let mut slots: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
    // A worker that dies outside an item (only the trace shim can panic
    // there) takes its unreported items with it; they surface as errors.
    let mut lost = String::from("pool worker exited without reporting");
    crate::trace::publish(&spawn);
    std::thread::scope(|s| {
        let handles: Vec<_> = buckets
            .into_iter()
            .enumerate()
            .map(|(w, bucket)| {
                let (guarded, spawn, join) = (&guarded, &spawn, &join);
                s.spawn(move || {
                    if crate::trace::active() {
                        crate::trace::register_thread(&format!("{label}-worker-{w}"));
                    }
                    crate::trace::observe(spawn);
                    let out: Vec<(usize, Result<T, String>)> = bucket
                        .into_iter()
                        .map(|(k, item)| (k, guarded(k, item)))
                        .collect();
                    crate::trace::publish(join);
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(out) => {
                    for (k, r) in out {
                        slots[k] = Some(r);
                    }
                }
                Err(p) => lost = panic_detail(p.as_ref()),
            }
        }
        // All workers joined: pull their published clocks before the caller
        // touches the merged results.
        crate::trace::observe(&join);
    });
    // The merge buffer is this call's own. Pools of one label can run side by
    // side (a batch pool per shard worker), so the cell is named after the
    // calling thread: distinct buffers, distinct cells.
    let caller = std::thread::current().id();
    crate::trace::on_write(&format!("{label}.merge@{caller:?}"));
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err(lost.clone())))
        .collect()
}

/// Counters for one physical operator, shareable by `&` across workers.
#[derive(Debug, Default)]
pub struct OpStats {
    pub rows_in: AtomicU64,
    pub rows_out: AtomicU64,
    pub morsels: AtomicU64,
    pub time_ns: AtomicU64,
    /// Heap allocations during the operator (process-wide; nonzero only
    /// when a [`ojv_rel::CountingAlloc`] is installed as the global
    /// allocator).
    pub allocs: AtomicU64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: AtomicU64,
}

impl OpStats {
    pub fn record(
        &self,
        rows_in: usize,
        rows_out: usize,
        morsels: usize,
        started: Instant,
        alloc0: ojv_rel::AllocSnapshot,
    ) {
        // Monotonic stats counters, read only after the owning scope joins.
        // concheck:allow(atomic-ordering)
        self.rows_in.fetch_add(rows_in as u64, Ordering::Relaxed);
        self.rows_out.fetch_add(rows_out as u64, Ordering::Relaxed); // concheck:allow(atomic-ordering)
        self.morsels.fetch_add(morsels as u64, Ordering::Relaxed); // concheck:allow(atomic-ordering)
        self.time_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed); // concheck:allow(atomic-ordering)
        let da = ojv_rel::alloc_snapshot().since(&alloc0);
        self.allocs.fetch_add(da.count, Ordering::Relaxed); // concheck:allow(atomic-ordering)
        self.alloc_bytes.fetch_add(da.bytes, Ordering::Relaxed); // concheck:allow(atomic-ordering)
    }

    pub fn snapshot(&self) -> OpStatsSnapshot {
        OpStatsSnapshot {
            // Best-effort stats snapshot; exact values only required
            // after workers join.
            // concheck:allow(atomic-ordering)
            rows_in: self.rows_in.load(Ordering::Relaxed),
            rows_out: self.rows_out.load(Ordering::Relaxed), // concheck:allow(atomic-ordering)
            morsels: self.morsels.load(Ordering::Relaxed),   // concheck:allow(atomic-ordering)
            time_ns: self.time_ns.load(Ordering::Relaxed),   // concheck:allow(atomic-ordering)
            allocs: self.allocs.load(Ordering::Relaxed),     // concheck:allow(atomic-ordering)
            alloc_bytes: self.alloc_bytes.load(Ordering::Relaxed), // concheck:allow(atomic-ordering)
        }
    }
}

/// Plain-value copy of [`OpStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStatsSnapshot {
    pub rows_in: u64,
    pub rows_out: u64,
    pub morsels: u64,
    pub time_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Per-operator counters for one evaluation (or one maintenance run).
/// Attach via `ExecCtx::with_stats`; operators accumulate with relaxed
/// atomics so a single instance can be shared across all workers.
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

/// What a physical operator needs besides its inputs: the wide-row layout,
/// the parallelism spec, and optional counters.
#[derive(Clone, Copy)]
pub struct ExecEnv<'a> {
    pub layout: &'a ViewLayout,
    pub spec: ParallelSpec,
    pub stats: Option<&'a ExecStats>,
}

impl<'a> ExecEnv<'a> {
    /// Serial environment with no counters — what the legacy free-function
    /// operator entry points use.
    pub fn serial(layout: &'a ViewLayout) -> Self {
        ExecEnv {
            layout,
            spec: ParallelSpec::serial(),
            stats: None,
        }
    }

    pub(crate) fn record(
        &self,
        op: impl Fn(&ExecStats) -> &OpStats,
        rows_in: usize,
        rows_out: usize,
        morsels: usize,
        started: Instant,
        alloc0: ojv_rel::AllocSnapshot,
    ) {
        if let Some(stats) = self.stats {
            op(stats).record(rows_in, rows_out, morsels, started, alloc0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_morsels_preserves_order_serial_and_parallel() {
        let serial = map_morsels(ParallelSpec::serial().with_morsel_rows(3), 10, |r| {
            r.collect::<Vec<_>>()
        });
        let parallel = map_morsels(
            ParallelSpec::threads(4).with_morsel_rows(3).with_cutoff(0),
            10,
            |r| r.collect::<Vec<_>>(),
        );
        assert_eq!(serial, parallel);
        assert_eq!(
            serial.into_iter().flatten().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn map_morsels_empty_input() {
        let out = map_morsels(ParallelSpec::threads(4).with_cutoff(0), 0, |r| r.len());
        assert!(out.is_empty());
    }

    #[test]
    fn map_parts_runs_every_partition_once() {
        for spec in [ParallelSpec::serial(), ParallelSpec::threads(8)] {
            let out = map_parts(spec, 5, |p| p * 2);
            assert_eq!(out, vec![0, 2, 4, 6, 8]);
        }
    }

    /// The pool's contract: a panic on item k is `Err` for k only, every
    /// other item completes, and results stay in item order — inline and
    /// threaded alike.
    #[test]
    fn run_pool_isolates_a_panicking_item() {
        const N: usize = 11;
        const K: usize = 4;
        for threads in [1usize, 2, 8] {
            let out = run_pool("test.pool", threads, (0..N).collect(), |k, item: usize| {
                assert_eq!(k, item, "item index travels with the item");
                if item == K {
                    panic!("boom on {item}");
                }
                item * 10
            });
            assert_eq!(out.len(), N, "threads={threads}");
            for (k, r) in out.iter().enumerate() {
                if k == K {
                    let detail = r.as_ref().unwrap_err();
                    assert!(detail.contains("boom on 4"), "threads={threads}: {detail}");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(k * 10), "threads={threads}");
                }
            }
        }
    }

    /// Operators are infallible: the morsel wrapper re-raises a caught
    /// worker panic on the calling thread instead of swallowing it.
    #[test]
    fn map_parts_reraises_a_worker_panic_on_the_caller() {
        let caught = catch_unwind(|| {
            map_parts(ParallelSpec::threads(4), 6, |p| {
                if p == 3 {
                    panic!("partition 3 broke");
                }
                p
            })
        });
        let detail = panic_detail(caught.unwrap_err().as_ref());
        assert!(detail.contains("partition 3 broke"), "{detail}");
    }

    #[test]
    fn op_stats_accumulate() {
        let stats = OpStats::default();
        let t = Instant::now();
        let a = ojv_rel::alloc_snapshot();
        stats.record(10, 4, 2, t, a);
        stats.record(5, 1, 1, t, a);
        let snap = stats.snapshot();
        assert_eq!(snap.rows_in, 15);
        assert_eq!(snap.rows_out, 5);
        assert_eq!(snap.morsels, 3);
    }
}
