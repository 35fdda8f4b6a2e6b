//! Happens-before trace shim.
//!
//! With the `concheck` feature (or under `cfg(test)`), these forward to the
//! vector-clock race detector in `ojv_testkit::race`; otherwise they are
//! inlined no-ops, so the default build carries zero instrumentation cost.
//! The detector itself is also inert until a test installs it, so even
//! feature-enabled builds only pay when a session is active.

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
