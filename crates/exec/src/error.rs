//! Execution errors.

use std::fmt;

/// Errors the executor can hit at runtime (as opposed to planner invariant
/// violations, which remain panics — see [`crate::run::eval_expr_buf`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A table named by the view layout is missing from the catalog — e.g.
    /// the table was dropped after the view was analyzed.
    UnknownTable { table: String },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable { table } => {
                write!(
                    f,
                    "table `{table}` referenced by the view layout is not in the catalog"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

pub type ExecResult<T> = Result<T, ExecError>;
