//! Hash-partitioning primitives: shard identity and key routing.
//!
//! A [`ShardRouter`] deterministically maps a routing key (a column subset
//! of a row, hashed with the engine's fx hasher) to a [`ShardId`]. Routing
//! is *key-aligned* sharding's whole contract: two rows that agree on their
//! routing columns land on the same shard, for any table, so equijoins on
//! those columns never cross shard boundaries (Mistry et al.: shared
//! maintenance plans survive partitioning exactly when the partitioning is
//! key-aligned).
//!
//! `ShardId` construction is confined to this module and `core::shard` —
//! enforced by the `shard-routing-confined` xtask lint — so no caller can
//! fabricate a shard id and bypass the router.

use ojv_rel::{key_hash, key_hash_with, Datum, DatumRef};

use crate::heap::RowRef;

/// Identity of one shard: a dense index in `0..shard_count`.
///
/// Only [`ShardRouter`]'s `route_*` methods and `core::shard` may construct these
/// (lint: `shard-routing-confined`); everyone else receives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(u16);

impl ShardId {
    /// Construct a shard id from a dense index. Confined to routing code
    /// and the `ShardedDatabase` facade by the `shard-routing-confined`
    /// lint; arbitrary construction would bypass the router's alignment
    /// guarantee.
    pub fn new(index: usize) -> ShardId {
        ShardId(u16::try_from(index).expect("shard index fits u16"))
    }

    /// The dense index in `0..shard_count`.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// Deterministic hash router over `n` shards.
///
/// The routing hash is [`key_hash`] — the same deterministic fx stream the
/// join hash tables use — so `Int(2)` and `Float(2.0)` route identically
/// (they hash identically by construction), and a single-shard router maps
/// everything to shard 0, which is what makes the N=1 facade an exact twin
/// of the unsharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u16,
}

impl ShardRouter {
    /// A router over `shards` shards (at least 1).
    pub fn new(shards: usize) -> ShardRouter {
        assert!(shards >= 1, "a router needs at least one shard");
        ShardRouter {
            shards: u16::try_from(shards).expect("shard count fits u16"),
        }
    }

    pub fn shard_count(self) -> usize {
        usize::from(self.shards)
    }

    #[inline]
    fn of_hash(self, h: u64) -> ShardId {
        // Upper-bits mix: fx's low bits are its weakest, and the count is
        // tiny, so fold the high half in before reducing.
        let mixed = h ^ (h >> 32);
        ShardId((mixed % u64::from(self.shards)) as u16)
    }

    /// Route a row by its routing columns.
    #[inline]
    pub fn route(self, row: &[Datum], cols: &[usize]) -> ShardId {
        self.of_hash(key_hash(row, cols))
    }

    /// Route an owned key (columns already extracted, in routing order).
    #[inline]
    pub fn route_key(self, key: &[Datum]) -> ShardId {
        let all: Vec<usize> = (0..key.len()).collect();
        self.of_hash(key_hash(key, &all))
    }

    /// Route a columnar row by its routing columns without materializing.
    #[inline]
    pub fn route_ref(self, row: RowRef<'_>, cols: &[usize]) -> ShardId {
        self.of_hash(key_hash_with(cols, |c| row.dat(c)))
    }

    /// Route by accessor — for callers holding neither a slice nor a
    /// [`RowRef`] (e.g. wide rows resolved through a layout).
    #[inline]
    pub fn route_with<'a>(self, cols: &[usize], get: impl Fn(usize) -> DatumRef<'a>) -> ShardId {
        self.of_hash(key_hash_with(cols, get))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let r = ShardRouter::new(1);
        for i in 0..100 {
            assert_eq!(r.route(&[Datum::Int(i)], &[0]).index(), 0);
        }
    }

    #[test]
    fn routing_is_deterministic_and_only_reads_routing_cols() {
        let r = ShardRouter::new(4);
        let a = vec![Datum::Int(7), Datum::str("x")];
        let b = vec![Datum::Int(7), Datum::str("completely different")];
        assert_eq!(r.route(&a, &[0]), r.route(&b, &[0]));
    }

    #[test]
    fn int_float_keys_route_identically() {
        // Numeric widening must not split a key across shards.
        let r = ShardRouter::new(8);
        assert_eq!(
            r.route(&[Datum::Int(42)], &[0]),
            r.route(&[Datum::Float(42.0)], &[0])
        );
    }

    #[test]
    fn route_key_matches_route() {
        let r = ShardRouter::new(5);
        let row = vec![Datum::str("pad"), Datum::Int(9), Datum::Date(11)];
        assert_eq!(
            r.route(&row, &[1, 2]),
            r.route_key(&[Datum::Int(9), Datum::Date(11)])
        );
    }

    #[test]
    fn shards_get_reasonable_spread() {
        let r = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..10_000 {
            counts[r.route(&[Datum::Int(i)], &[0]).index()] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 1500, "shard {s} got {c} of 10000");
        }
    }
}
