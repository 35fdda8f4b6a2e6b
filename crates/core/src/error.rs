//! Errors for view definition and maintenance.

use std::fmt;

use ojv_analysis::PlanViolation;
use ojv_durability::DurabilityError;
use ojv_exec::ExecError;
use ojv_rel::RelError;
use ojv_storage::StorageError;

/// Errors raised by view creation, validation, and maintenance.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying storage or catalog error.
    Storage(StorageError),
    /// Data-model error.
    Rel(RelError),
    /// Delta-expression execution error (e.g. a view layout referencing a
    /// table the catalog no longer has).
    Exec(ExecError),
    /// The view definition violates one of the paper's §2 restrictions or
    /// references unknown catalog objects.
    InvalidView { view: String, detail: String },
    /// A view with this name already exists in the database.
    DuplicateView { view: String },
    /// The named view does not exist.
    UnknownView { view: String },
    /// The static plan verifier found a compiled plan violating one of the
    /// paper's invariants (see `ojv-analysis`).
    Plan(PlanViolation),
    /// WAL / checkpoint / filesystem error from the durability layer.
    Durability(DurabilityError),
    /// A maintenance job (one view, or one shard's maintenance) panicked.
    /// The panic is caught at the job boundary — sibling views finish their
    /// jobs and the panic surfaces as an error instead of poisoning the
    /// whole process.
    MaintenancePanic { view: String, detail: String },
    /// A snapshot was requested at an LSN the registry can no longer (or
    /// not yet) serve: epoch reclamation already freed every version below
    /// `floor`.
    SnapshotUnavailable { requested: u64, floor: u64 },
    /// A durable write failed *after* the in-memory state was mutated, so
    /// RAM is ahead of the log and no longer reproducible by recovery; the
    /// database refuses further durable operations. Reopen from the log to
    /// get back to a consistent (pre-failure) state.
    Poisoned { detail: String },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "{e}"),
            CoreError::Rel(e) => write!(f, "{e}"),
            CoreError::Exec(e) => write!(f, "{e}"),
            CoreError::InvalidView { view, detail } => {
                write!(f, "invalid view {view}: {detail}")
            }
            CoreError::DuplicateView { view } => write!(f, "view {view} already exists"),
            CoreError::UnknownView { view } => write!(f, "unknown view {view}"),
            CoreError::Plan(v) => write!(f, "plan verification failed: {v}"),
            CoreError::MaintenancePanic { view, detail } => {
                write!(f, "maintenance of view {view} panicked: {detail}")
            }
            CoreError::Durability(e) => write!(f, "{e}"),
            CoreError::SnapshotUnavailable { requested, floor } => {
                write!(
                    f,
                    "snapshot at lsn {requested} unavailable: oldest retained version is {floor}"
                )
            }
            CoreError::Poisoned { detail } => {
                write!(
                    f,
                    "durable database poisoned (in-memory state is ahead of the log): {detail}; \
                     reopen from the log to recover"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<RelError> for CoreError {
    fn from(e: RelError) -> Self {
        CoreError::Rel(e)
    }
}

impl From<ExecError> for CoreError {
    fn from(e: ExecError) -> Self {
        CoreError::Exec(e)
    }
}

impl From<PlanViolation> for CoreError {
    fn from(v: PlanViolation) -> Self {
        CoreError::Plan(v)
    }
}

impl From<DurabilityError> for CoreError {
    fn from(e: DurabilityError) -> Self {
        CoreError::Durability(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
