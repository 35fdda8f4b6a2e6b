//! Incremental maintenance of materialized outer-join views.
//!
//! This crate implements the maintenance procedure of Larson & Zhou,
//! *Efficient Maintenance of Materialized Outer-Join Views* (ICDE 2007), on
//! top of the workspace's storage (`ojv-storage`), algebra (`ojv-algebra`),
//! and execution (`ojv-exec`) substrates:
//!
//! * [`view_def`] — name-based SPOJ view definitions,
//! * [`analyze`] — resolution, normal form, subsumption graph, delta plans,
//! * [`materialize`] — initial materialization and view storage,
//! * [`compile`] — compiled physical maintenance plans, cached per view,
//! * [`batch`] — [`batch::maintain_batch`], the one maintenance entry:
//!   every affected view of an update, with cross-view sharing of common
//!   plan prefixes,
//! * [`maintain`] — the per-view steps after the primary delta (§3.2):
//!   apply it, then the secondary delta; and the recompute oracle,
//! * [`secondary`] — §5.2 (from-view) and §5.3 (from-base) strategies,
//! * [`agg_view`] — aggregated outer-join views (§3.3),
//! * [`baseline`] — Griffin–Kumar-style change propagation and full
//!   recompute, for the paper's experimental comparison,
//! * [`snapshot`] — LSN-versioned view images: consistent snapshot reads
//!   concurrent with maintenance, with epoch-based reclamation,
//!
//! and the one commit pipeline every engine is composed from:
//!
//! * [`database`] — the shard unit (catalog + views + registry: apply →
//!   maintain → publish) and, alone, the unsharded in-memory engine,
//! * [`shard`] — `ShardedDatabase`: validate → route → fan-out → group
//!   publish over N shard units, taking the log stage as a parameter,
//! * [`durable`] — `Durable<L: CommitLog>`: poisoning, `REC_UPDATE` framing
//!   and replay, DDL-then-checkpoint and the durable commit, written once,
//! * [`wal_log`] / [`group_log`] — the two on-disk topologies behind
//!   `CommitLog` (one stream; K shard streams + coordinator) with their
//!   `create`/`open`,
//! * [`checkpoint_state`] — the checkpoint payload codecs.
//!
//! # Quick start
//!
//! ```
//! use ojv_core::prelude::*;
//! use ojv_core::fixtures;
//!
//! // Build the paper's Example 1 schema and view.
//! let mut catalog = fixtures::example1_catalog();
//! fixtures::populate_example1(&mut catalog, 10, 12);
//! let mut db = Database::new(catalog);
//! db.create_view(fixtures::oj_view_def()).unwrap();
//!
//! // Inserting lineitems incrementally maintains the view.
//! let reports = db
//!     .insert("lineitem", vec![fixtures::lineitem_row(3, 1, 2, 4, 42.0)])
//!     .unwrap();
//! assert_eq!(reports.len(), 1);
//! assert!(db.view("oj_view").unwrap().len() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod agg_view;
pub mod analyze;
pub mod baseline;
pub mod batch;
pub mod checkpoint_state;
pub mod compile;
pub mod database;
pub mod durable;
pub mod error;
pub mod explain;
pub mod fixtures;
pub mod group_log;
pub mod maintain;
pub mod materialize;
pub mod parser;
pub mod policy;
pub mod secondary;
pub mod shard;
pub mod snapshot;
pub mod sql;
pub mod view_def;
pub mod wal_log;

/// The commonly used types, for `use ojv_core::prelude::*`.
pub mod prelude {
    pub use crate::agg_view::{AggSpec, AggViewDef, MaterializedAggView};
    pub use crate::analyze::{analyze, ViewAnalysis};
    pub use crate::compile::{compile_count, CompiledMaintenancePlan, PlanCache, PlanConfig};
    pub use crate::database::Database;
    pub use crate::durable::{DurableDatabase, ShardedDurableDatabase};
    pub use crate::error::{CoreError, Result};
    pub use crate::explain::{explain_plan, render_exec_stats};
    pub use crate::group_log::ShardedRecoveryReport;
    pub use crate::maintain::{verify_against_recompute, MaintenanceReport};
    pub use crate::materialize::MaterializedView;
    pub use crate::parser::parse_view;
    pub use crate::policy::MaintenancePolicy;
    pub use crate::shard::{RoutingSpec, ShardedDatabase, ShardedSnapshot};
    pub use crate::snapshot::{
        delta_counts, CommitObserver, FanoutStats, Snapshot, SnapshotRegistry, SnapshotStats,
        SnapshotView, ViewOp,
    };
    pub use crate::view_def::{col_between, col_cmp, col_eq, NamedAtom, ViewDef, ViewExpr};
    pub use crate::wal_log::RecoveryReport;
    pub use ojv_algebra::{CmpOp, JoinKind};
    pub use ojv_durability::{DiskVfs, FsyncPolicy, MemVfs, Vfs};
    pub use ojv_exec::ExecStatsSnapshot;
    pub use ojv_rel::{Datum, Relation, Row};
    pub use ojv_storage::{Catalog, Update, UpdateOp};
}
