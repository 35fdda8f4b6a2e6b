//! Static plan verification for the maintenance pipeline.
//!
//! The paper's correctness argument is a stack of structural invariants:
//! JDNF terms have unique source sets (§2.2), subsumption edges connect
//! only minimal supersets (§2.3), the maintenance graph classifies every
//! term exactly once (§3.1, §6.2), the left-deep conversion's rules 1/4/5
//! must pair every null-if λ with a cleanup δ (§4.1), and a from-view
//! secondary delta may only touch keys the view projects (§5.2). This crate
//! re-derives each of those properties from a compiled plan *without
//! executing it* and reports the first breach as a structured
//! [`PlanViolation`] carrying the operator path and a stable invariant id.
//!
//! `ojv-core` runs these passes on every maintenance plan it compiles, in
//! every build; EXPLAIN appends a `verified: ok (N invariants)` footer.

#![forbid(unsafe_code)]

pub mod verify;
pub mod violation;

pub use verify::{
    verify_delta_arity, verify_jdnf, verify_layout, verify_left_deep, verify_maintenance_graph,
    verify_plan, verify_secondary_from_view, VerifyReport,
};
pub use violation::{Invariant, PlanViolation};
