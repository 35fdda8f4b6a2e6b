//! Happens-before trace shim (the same shape as `ojv-core`'s).
//!
//! With the `concheck` feature (or under `cfg(test)`), these forward to the
//! vector-clock race detector in `ojv_testkit::race`; otherwise they are
//! inlined no-ops, so the default build carries zero instrumentation cost.

#[cfg(any(test, feature = "concheck"))]
pub(crate) use ojv_testkit::race::{lock_acquired, lock_released, on_read, on_write};

#[cfg(not(any(test, feature = "concheck")))]
mod noop {
    #[inline(always)]
    pub(crate) fn on_read(_cell: &str) {}
    #[inline(always)]
    pub(crate) fn on_write(_cell: &str) {}
    #[inline(always)]
    pub(crate) fn lock_acquired(_label: &str) {}
    #[inline(always)]
    pub(crate) fn lock_released(_label: &str) {}
}

#[cfg(not(any(test, feature = "concheck")))]
pub(crate) use noop::*;
