//! Morsel partitioning: fixed-size row ranges that parallel operators
//! process as independent work units.
//!
//! A *morsel* is a contiguous range of input row indices. Parallel operators
//! deal morsels round-robin to the pool's workers and merge per-morsel outputs
//! **in morsel order**, which makes every parallel operator bit-identical to
//! its serial counterpart regardless of thread count or scheduling.

use std::ops::Range;

/// Default rows per morsel: big enough to amortize dispatch, small enough to
/// load-balance skewed probe costs.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Inputs smaller than this stay on the serial path by default — thread
/// spawn/join overhead dominates below it.
pub const DEFAULT_PARALLEL_CUTOFF: usize = 8192;

/// Degree-of-parallelism configuration, threaded from `MaintenancePolicy`
/// through `ExecCtx` into every operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelSpec {
    /// Worker threads for parallel operators. `1` means fully serial.
    pub threads: usize,
    /// Rows per morsel.
    pub morsel_rows: usize,
    /// Minimum outer-input row count before an operator goes parallel.
    pub parallel_cutoff: usize,
}

impl ParallelSpec {
    /// Fully serial execution (the default).
    pub fn serial() -> Self {
        ParallelSpec {
            threads: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            parallel_cutoff: DEFAULT_PARALLEL_CUTOFF,
        }
    }

    /// `n` worker threads with default morsel size and cutoff.
    pub fn threads(n: usize) -> Self {
        ParallelSpec {
            threads: n.max(1),
            ..Self::serial()
        }
    }

    /// One worker per available core.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::threads(n)
    }

    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(1);
        self
    }

    pub fn with_cutoff(mut self, rows: usize) -> Self {
        self.parallel_cutoff = rows;
        self
    }

    /// Should an operator with `rows` outer rows run in parallel?
    pub fn is_parallel_for(&self, rows: usize) -> bool {
        self.threads > 1 && rows >= self.parallel_cutoff
    }
}

impl Default for ParallelSpec {
    fn default() -> Self {
        Self::serial()
    }
}

/// Split `0..len` into morsels of `morsel_rows` (last one may be short).
pub fn morsel_ranges(len: usize, morsel_rows: usize) -> Vec<Range<usize>> {
    let step = morsel_rows.max(1);
    (0..len)
        .step_by(step)
        .map(|start| start..(start + step).min(len))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_input_exactly_once() {
        for len in [0usize, 1, 7, 4096, 4097, 10_000] {
            for morsel in [1usize, 7, 4096] {
                let ranges = morsel_ranges(len, morsel);
                let mut covered = 0usize;
                let mut expected_start = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expected_start, "contiguous at len={len}");
                    assert!(r.end <= len);
                    covered += r.len();
                    expected_start = r.end;
                }
                assert_eq!(covered, len, "len={len} morsel={morsel}");
            }
        }
    }

    #[test]
    fn zero_morsel_rows_does_not_panic() {
        assert_eq!(morsel_ranges(3, 0).len(), 3);
    }

    #[test]
    fn spec_cutover() {
        let spec = ParallelSpec::threads(4).with_cutoff(100);
        assert!(!spec.is_parallel_for(99));
        assert!(spec.is_parallel_for(100));
        assert!(!ParallelSpec::serial().is_parallel_for(1_000_000));
    }

    #[test]
    fn serial_is_default() {
        assert_eq!(ParallelSpec::default(), ParallelSpec::serial());
        assert_eq!(ParallelSpec::threads(0).threads, 1);
    }
}
