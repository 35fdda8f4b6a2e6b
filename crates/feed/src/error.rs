//! Errors of the change-feed layer.

use std::fmt;

use ojv_core::prelude::CoreError;

/// Errors raised by subscription management and fan-out.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedError {
    /// An underlying snapshot/registry error (e.g. a catch-up pin below the
    /// reclamation floor surfaces as `Core(SnapshotUnavailable)`).
    Core(CoreError),
    /// The hub is not attached to a database yet.
    NotAttached,
    /// The subscribed view is not registered (or was dropped).
    UnknownView { view: String },
    /// A filter or projection references an output column the view does not
    /// have.
    BadColumn {
        view: String,
        column: usize,
        width: usize,
    },
    /// The subscriber id is unknown (already unsubscribed, or from another
    /// hub).
    UnknownSubscriber { id: u64 },
    /// A fan-out job panicked. The panic is caught at
    /// the job boundary: sibling groups still publish, the affected group's
    /// subscribers lapse (their next drain rebases from a snapshot), and
    /// the panic surfaces here instead of poisoning the process.
    FanoutPanic { view: String, detail: String },
}

impl fmt::Display for FeedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedError::Core(e) => write!(f, "{e}"),
            FeedError::NotAttached => {
                write!(f, "feed hub is not attached to a database")
            }
            FeedError::UnknownView { view } => write!(f, "unknown view {view}"),
            FeedError::BadColumn {
                view,
                column,
                width,
            } => write!(
                f,
                "subscription on {view} references output column {column}, \
                 but the view has {width} columns"
            ),
            FeedError::UnknownSubscriber { id } => write!(f, "unknown subscriber {id}"),
            FeedError::FanoutPanic { view, detail } => {
                write!(f, "fan-out for view {view} panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for FeedError {}

impl From<CoreError> for FeedError {
    fn from(e: CoreError) -> Self {
        FeedError::Core(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, FeedError>;
