//! Heap-allocation accounting for EXPLAIN counters and discipline tests.
//!
//! [`CountingAlloc`] wraps the system allocator and bumps two relaxed global
//! counters on every allocation. It is **not** installed by this crate:
//! binaries or test harnesses that want accounting opt in with
//!
//! ```ignore
//! #[global_allocator]
//! static A: ojv_rel::CountingAlloc = ojv_rel::CountingAlloc;
//! ```
//!
//! When no such harness installs it, the counters simply stay at zero and
//! [`alloc_snapshot`] deltas read as 0 — operators report "allocation
//! counting off" rather than lying. The counters are process-wide, not
//! per-thread: a delta taken around an operator also counts whatever other
//! threads allocated meanwhile, which is why the discipline tests take the
//! minimum over repeats.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A `GlobalAlloc` that forwards to [`System`] and counts allocations.
pub struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter bumps have no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Process-wide traffic counters on the allocator hot path;
        // deltas are read across a scope join.
        // lint:allow(atomic-ordering)
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed); // lint:allow(atomic-ordering)
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed); // lint:allow(atomic-ordering)
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed); // lint:allow(atomic-ordering)
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed); // lint:allow(atomic-ordering)
                                                     // Count only the growth; shrinking reallocs don't add heap traffic.
        ALLOC_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed, // lint:allow(atomic-ordering)
        );
        System.realloc(ptr, layout, new_size)
    }
}

/// A point-in-time reading of the global allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    pub count: u64,
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas since `earlier` (saturating, in case of wrap).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            count: self.count.saturating_sub(earlier.count),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Read the global allocation counters. Zero unless a harness installed
/// [`CountingAlloc`] as its `#[global_allocator]`.
#[inline]
pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        // Snapshot of monotonic counters; callers only compare deltas
        // taken on one thread.
        // lint:allow(atomic-ordering)
        count: ALLOC_COUNT.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed), // lint:allow(atomic-ordering)
    }
}

/// True iff the counters have ever moved — i.e. a counting allocator is
/// actually installed in this process.
#[inline]
pub fn alloc_counting_active() -> bool {
    // lint:allow(atomic-ordering) heuristic probe, any stale read is fine
    ALLOC_COUNT.load(Ordering::Relaxed) != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let a = AllocSnapshot {
            count: 10,
            bytes: 100,
        };
        let b = AllocSnapshot {
            count: 13,
            bytes: 164,
        };
        assert_eq!(
            b.since(&a),
            AllocSnapshot {
                count: 3,
                bytes: 64
            }
        );
        // Saturates instead of wrapping.
        assert_eq!(a.since(&b), AllocSnapshot::default());
    }
}
