//! Physical operators over wide rows.

pub mod dedup;
pub mod filter;
pub mod join;

pub use dedup::{clean_dup_buf, distinct_in};
pub use filter::filter_buf;
pub use join::{
    base_side, hash_join_buf, merge_rows, probe_join, semi_anti_by_key_buf, wide_side, Access,
    BuildAccess, BuildRows, IndexAccess, TableRows, WideRows, TINY_BUILD_MAX,
};
