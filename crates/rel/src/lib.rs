//! Relational data-model substrate for the outer-join view maintenance
//! library.
//!
//! This crate defines the value, schema, row, and relation types shared by
//! every other crate in the workspace:
//!
//! * [`Datum`] — a dynamically typed SQL-style value with a distinguished
//!   `NULL`,
//! * [`Schema`] / [`Column`] — ordered, named, typed column lists,
//! * [`Relation`] — a materialized bag of rows over a schema,
//! * [`RowBuf`] — the flat row batch every operator consumes and produces.
//!
//! Everything here is deliberately engine-agnostic: no constraints, no
//! relational operators (§2.1's `↓` and `⊕` are `ojv-exec`'s
//! `ops::clean_dup_buf`, over the wide rows the engine evaluates), and one
//! keyed index, [`PosTable`], which owns no key and which every layer above
//! builds on.

#![deny(unsafe_code)]

// SAFETY: the allocator shim must implement `GlobalAlloc`, an unsafe trait;
// it is the single allowlisted unsafe module in the workspace (the
// `unsafe-code` lint in `cargo run -p xtask -- lint` enforces this).
#[allow(unsafe_code)]
pub mod alloc;
pub mod codec;
pub mod datum;
pub mod error;
pub mod floatsum;
pub mod fxhash;
pub mod postable;
pub mod relation;
pub mod row;
pub mod rowbuf;
pub mod schema;

pub use alloc::{alloc_counting_active, alloc_snapshot, AllocSnapshot, CountingAlloc};
pub use codec::{
    decode_datum, encode_datum, put_datum, put_row, put_str, put_u32, put_u64, ByteReader,
};
pub use datum::{date, date_from_days, days_from_date, DataType, Datum, DatumRef};
pub use error::RelError;
pub use floatsum::ExactFloatSum;
pub use fxhash::{
    fx_hash_one, fx_map_with_capacity, fx_set_with_capacity, FxBuildHasher, FxHashMap, FxHashSet,
    FxHasher,
};
pub use postable::{KeyArena, PosTable};
pub use relation::Relation;
pub use row::{all_non_null, all_null, key_into, key_of, row_display, Row};
pub use rowbuf::{key_eq, key_eq_rows, key_hash, key_hash_with, RowBuf};
pub use schema::{Column, Schema, SchemaRef};
