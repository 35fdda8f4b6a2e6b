//! The workspace's one panic policy.
//!
//! Batched view maintenance, the shard fan-out and the change-feed fan-out
//! each run a list of independent items on the calling thread through
//! [`catch_each`]: a panic inside one item becomes that item's
//! `Err(detail)`, and every later item still runs.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Render a caught panic payload for error surfacing.
pub fn panic_detail(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `work(k, item)` for every item in order and return one result per
/// item. A panic inside `work` is caught at the item boundary and becomes
/// `Err(detail)` for that item only; every other item still completes.
/// Callers map the detail onto their own error type.
pub fn catch_each<I, T>(
    items: impl IntoIterator<Item = I>,
    mut work: impl FnMut(usize, I) -> T,
) -> Vec<Result<T, String>> {
    items
        .into_iter()
        .enumerate()
        .map(|(k, item)| {
            catch_unwind(AssertUnwindSafe(|| work(k, item))).map_err(|p| panic_detail(p.as_ref()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic on item k is `Err` for k only, every other item completes,
    /// and results stay in item order.
    #[test]
    fn catch_each_isolates_a_panicking_item() {
        const N: usize = 11;
        const K: usize = 4;
        let out = catch_each(0..N, |k, item: usize| {
            assert_eq!(k, item, "item index travels with the item");
            if item == K {
                panic!("boom on {item}");
            }
            item * 10
        });
        assert_eq!(out.len(), N);
        for (k, r) in out.iter().enumerate() {
            if k == K {
                let detail = r.as_ref().unwrap_err();
                assert!(detail.contains("boom on 4"), "{detail}");
            } else {
                assert_eq!(r.as_ref().unwrap(), &(k * 10));
            }
        }
    }
}
