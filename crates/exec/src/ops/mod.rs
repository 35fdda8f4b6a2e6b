//! Physical operators over wide rows.

pub mod dedup;
pub mod filter;
pub mod join;

pub use dedup::{clean_dup_buf, distinct_in};
pub use filter::filter_buf;
pub use join::{
    hash_join_buf, index_join_excluding_buf, index_join_narrow_left_buf, merge_rows,
    narrow_build_join_buf, semi_anti_by_key_buf, TINY_BUILD_MAX,
};
