//! In-memory storage substrate.
//!
//! Provides the base-table layer the view-maintenance engine sits on:
//!
//! * [`Table`] — a heap of rows with a mandatory non-null unique key backed
//!   by a hash index, plus optional secondary indexes,
//! * [`Catalog`] — the set of tables and declared [`ForeignKey`] constraints,
//!   with enforcement (unique keys, FK parent existence on insert, FK restrict
//!   on delete),
//! * [`Update`] — an applied batch change (`ΔT`), the input to view
//!   maintenance.
//!
//! The paper (§2) requires every base table to have a unique key that does
//! not contain nulls; [`Table`] enforces exactly that. Foreign keys are
//! declared against the parent's unique key, matching §6's assumption that an
//! FK references "a non-null, unique key".

#![forbid(unsafe_code)]

pub mod catalog;
pub mod codec;
pub mod delta;
pub mod error;
pub mod heap;
pub mod shard;
pub mod table;

pub use catalog::{Catalog, ForeignKey, ValidDelete, ValidInsert, ValidUpdate};
pub use codec::{
    decode_catalog, decode_update, encode_catalog, encode_catalog_into, encode_update,
};
pub use delta::{Update, UpdateOp};
pub use error::StorageError;
pub use heap::{ColumnHeap, RowRef, SEG_ROWS};
pub use shard::{ShardId, ShardRouter};
pub use table::{IndexLookup, IndexRef, SecondaryLookup, Table};
