//! Execution substrate: physical operators over *wide rows*.
//!
//! Every expression over a view's tables is evaluated in the view-wide row
//! layout: one slot per column of every base table the view references, in
//! table order. A tuple that is null-extended on table `T` simply holds
//! nulls in `T`'s slots — exactly the representation the paper's `null(T)`
//! predicate assumes (`T.c IS NULL` for a non-nullable column `c` of `T`,
//! §2.1). This makes the delta-expression operators compositional: joins
//! merge disjoint slot ranges, the null-if operator clears slot ranges, and
//! term extraction (§5.1) is a null-pattern filter.
//!
//! Operators are materialize-at-each-node: one flat [`ojv_rel::RowBuf`]
//! batch in, one batch out, and each operator exists in that one form.
//! Every join runs one probe loop ([`ops::probe_join`]) over a left row
//! side and a right access path: an index lookup when the right operand is
//! a base-table scan with a covering index, else a hash build (or a scan of
//! a tiny build), mirroring the plans a production optimizer would choose
//! for small deltas.

#![forbid(unsafe_code)]

pub mod catch;
pub mod error;
pub mod eval;
pub mod hashtbl;
pub mod layout;
pub mod ops;
pub mod run;
pub mod stats;

pub use catch::{catch_each, panic_detail};
pub use error::{ExecError, ExecResult};
pub use hashtbl::{KeyHashTable, KeySet};
pub use layout::{TableSlot, ViewLayout};
pub use ops::filter::filter_project_into;
pub use run::{apply_spine_step, eval_expr_buf, join_buf_expr, null_if_buf, DeltaInput, ExecCtx};
pub use stats::{ExecEnv, ExecStats, ExecStatsSnapshot};
