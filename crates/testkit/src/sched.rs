//! A deterministic virtual-thread scheduler for interleaving tests.
//!
//! The workspace is zero-dependency, so instead of `loom` this module
//! provides the minimal equivalent: *actors* (closures advancing one
//! logical thread by one step) are interleaved either under a seeded PRNG
//! ([`run_seeded`]), by exhaustive enumeration ([`interleavings`] +
//! [`replay`]), or from a recorded trace ([`replay`] again — every run
//! returns the trace that reproduces it).
//!
//! Actors share state through plain `Rc<RefCell<…>>` captured by the
//! closures — the scheduler itself is single-threaded, which is exactly
//! what makes an interleaving reproducible: a trace is a total order of
//! steps, and replaying it performs the identical sequence of shared-state
//! operations. Concurrency bugs that depend on *orderings* (commit during a
//! read, reclamation racing a pin, a crash between commit and fsync) are
//! covered. Data races on actual CPUs are out of scope: the engine's shared
//! state lives inside its two `Mutex`es and its crates forbid `unsafe`, so
//! a data race cannot be written (DESIGN.md §11); the multi-threaded stress
//! suites check what readers observe against a serial twin.
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use ojv_testkit::sched::{interleavings, replay, run_seeded, Actor};
//!
//! let log = Rc::new(RefCell::new(Vec::new()));
//! let mk = |tag: char, n: usize| -> Actor {
//!     let log = Rc::clone(&log);
//!     let mut left = n;
//!     Box::new(move || {
//!         log.borrow_mut().push(tag);
//!         left -= 1;
//!         left > 0
//!     })
//! };
//! let trace = run_seeded(42, &mut [mk('a', 2), mk('b', 1)]);
//! assert_eq!(trace.len(), 3);
//! assert_eq!(interleavings(&[2, 1]).len(), 3); // aab aba baa
//! log.borrow_mut().clear();
//! replay(&trace, &mut [mk('a', 2), mk('b', 1)]); // reproduces the run
//! ```

use crate::rng::Rng;

/// One logical thread: each call advances it by one step and returns
/// whether it has more steps to run.
pub type Actor = Box<dyn FnMut() -> bool>;

/// Run `actors` to completion under a seeded random interleaving: at every
/// point one live actor is chosen uniformly by a [`Rng`] seeded with
/// `seed` and stepped once. Returns the trace of chosen actor indices —
/// feeding it to [`replay`] with freshly-built actors reproduces the run
/// exactly.
pub fn run_seeded(seed: u64, actors: &mut [Actor]) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut live: Vec<usize> = (0..actors.len()).collect();
    let mut trace = Vec::new();
    while !live.is_empty() {
        let pick = rng.gen_range(0..live.len());
        let idx = live[pick];
        trace.push(idx);
        if !actors[idx]() {
            live.remove(pick);
        }
    }
    trace
}

/// Replay a recorded trace: step the named actors in exactly that order.
///
/// Panics if the trace steps an actor that already finished or names an
/// out-of-range index — a replayed trace must come from an identically
/// constructed actor set.
pub fn replay(trace: &[usize], actors: &mut [Actor]) {
    let mut live = vec![true; actors.len()];
    for (step, &idx) in trace.iter().enumerate() {
        assert!(
            idx < actors.len(),
            "trace step {step} names actor {idx}, but only {} exist",
            actors.len()
        );
        assert!(
            live[idx],
            "trace step {step} steps actor {idx}, which already finished"
        );
        live[idx] = actors[idx]();
    }
}

/// Every interleaving of `steps.len()` actors where actor `i` runs
/// `steps[i]` steps, as traces for [`replay`]. The count is the multinomial
/// coefficient `(Σsteps)! / Π(steps[i]!)` — keep the step counts small
/// (e.g. `[3, 3]` → 20, `[4, 4]` → 70, `[3, 3, 2]` → 560).
pub fn interleavings(steps: &[usize]) -> Vec<Vec<usize>> {
    let total: usize = steps.iter().sum();
    let mut remaining = steps.to_vec();
    let mut out = Vec::new();
    let mut prefix = Vec::with_capacity(total);
    fn go(
        remaining: &mut [usize],
        prefix: &mut Vec<usize>,
        total: usize,
        out: &mut Vec<Vec<usize>>,
    ) {
        if prefix.len() == total {
            out.push(prefix.clone());
            return;
        }
        for i in 0..remaining.len() {
            if remaining[i] > 0 {
                remaining[i] -= 1;
                prefix.push(i);
                go(remaining, prefix, total, out);
                prefix.pop();
                remaining[i] += 1;
            }
        }
    }
    go(&mut remaining, &mut prefix, total, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// An actor appending `tag` to a shared log `n` times.
    fn logger(log: &Rc<RefCell<Vec<char>>>, tag: char, n: usize) -> Actor {
        let log = Rc::clone(log);
        let mut left = n;
        Box::new(move || {
            assert!(left > 0, "stepped past the end");
            log.borrow_mut().push(tag);
            left -= 1;
            left > 0
        })
    }

    #[test]
    fn run_seeded_is_deterministic_and_complete() {
        for seed in [0u64, 1, 7, 0xdead_beef] {
            let log_a = Rc::new(RefCell::new(Vec::new()));
            let trace_a = run_seeded(seed, &mut [logger(&log_a, 'a', 3), logger(&log_a, 'b', 2)]);
            let log_b = Rc::new(RefCell::new(Vec::new()));
            let trace_b = run_seeded(seed, &mut [logger(&log_b, 'a', 3), logger(&log_b, 'b', 2)]);
            assert_eq!(trace_a, trace_b, "same seed, same schedule");
            assert_eq!(log_a, log_b);
            assert_eq!(trace_a.len(), 5, "every step of every actor runs");
            assert_eq!(log_a.borrow().iter().filter(|&&c| c == 'a').count(), 3);
            assert_eq!(log_a.borrow().iter().filter(|&&c| c == 'b').count(), 2);
        }
    }

    #[test]
    fn seeds_explore_different_schedules() {
        let traces: Vec<Vec<usize>> = (0..16)
            .map(|seed| {
                let log = Rc::new(RefCell::new(Vec::new()));
                run_seeded(seed, &mut [logger(&log, 'a', 3), logger(&log, 'b', 3)])
            })
            .collect();
        let first = &traces[0];
        assert!(
            traces.iter().any(|t| t != first),
            "16 seeds must not all produce the same interleaving"
        );
    }

    #[test]
    fn replay_reproduces_a_recorded_run() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let trace = run_seeded(9, &mut [logger(&log, 'a', 4), logger(&log, 'b', 3)]);
        let original = log.borrow().clone();
        let log2 = Rc::new(RefCell::new(Vec::new()));
        replay(&trace, &mut [logger(&log2, 'a', 4), logger(&log2, 'b', 3)]);
        assert_eq!(*log2.borrow(), original, "replay of seed 9 trace {trace:?}");
    }

    #[test]
    fn interleavings_enumerate_the_multinomial() {
        assert_eq!(interleavings(&[1]), vec![vec![0]], "trace set for [1]");
        assert_eq!(interleavings(&[2, 1]).len(), 3, "trace count for [2,1]");
        assert_eq!(interleavings(&[3, 3]).len(), 20, "trace count for [3,3]");
        assert_eq!(
            interleavings(&[2, 2, 2]).len(),
            90,
            "trace count for [2,2,2]"
        );
        // All distinct, all complete.
        let all = interleavings(&[3, 2]);
        for t in &all {
            assert_eq!(t.iter().filter(|&&i| i == 0).count(), 3);
            assert_eq!(t.iter().filter(|&&i| i == 1).count(), 2);
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn every_interleaving_replays() {
        for trace in interleavings(&[2, 2]) {
            let log = Rc::new(RefCell::new(Vec::new()));
            replay(&trace, &mut [logger(&log, 'a', 2), logger(&log, 'b', 2)]);
            assert_eq!(
                log.borrow().len(),
                4,
                "incomplete replay of trace {trace:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn replay_rejects_overrunning_a_finished_actor() {
        let log = Rc::new(RefCell::new(Vec::new()));
        replay(&[0, 0], &mut [logger(&log, 'a', 1)]);
    }
}
