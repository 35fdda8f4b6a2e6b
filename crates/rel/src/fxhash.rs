//! A fast, deterministic, in-repo hasher for join keys and index maps.
//!
//! Every hash structure on the delta hot path — join build tables, the
//! unique/secondary indexes of base tables, the view store's key index —
//! hashes short `Datum` keys. `std`'s default SipHash is DoS-resistant but
//! costs tens of cycles per write; for the maintenance workload the hash
//! table keys are never attacker-controlled (they come from the catalog),
//! so we trade that resistance for speed with an FxHash-style
//! multiply-rotate mix (the scheme rustc itself uses for its interner
//! tables). Zero dependencies, and — unlike `RandomState` — **seeded by a
//! constant**, so hash values, and therefore every hash table's bucket
//! layout, are reproducible across runs and machines.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from FxHash (derived from the golden ratio,
/// `2^64 / φ ≈ 0x9e3779b97f4a7c15`, with low bits tweaked for odd parity —
/// the constant used by Firefox and rustc).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Constant seed folded into every hasher so the empty hash is not 0 and
/// streams of zero bytes still diffuse.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// FxHash-style streaming hasher: `state = (rotl(state, 5) ^ word) * K`.
#[derive(Debug, Clone)]
pub struct FxHasher {
    state: u64,
}

impl Default for FxHasher {
    #[inline]
    fn default() -> Self {
        FxHasher { state: SEED }
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Multiplicative mixing only diffuses upward: bit k of a product
        // depends on bits 0..k of the operands, so the state's low bits carry
        // little entropy — and `std`'s hashbrown derives the bucket index
        // from the hash's *low* bits. Worse, `Datum` hashes integer keys
        // through their f64 bit pattern, whose low mantissa bits are all
        // zero for small integers. Fold the high bits down and re-multiply
        // so the bucket index sees the well-mixed half; without this, a
        // table of sequential integer keys collapses into a few buckets and
        // inserts go quadratic.
        let s = self.state;
        (s ^ (s >> 32)).wrapping_mul(K)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Fold the tail length in so "ab" + "c" != "a" + "bc".
            self.add(u64::from_le_bytes(buf) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.add(v as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.add(v as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] — deterministic (no per-map random state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` over the fast deterministic hasher. Construct with
/// `FxHashMap::default()` or [`fx_map_with_capacity`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` over the fast deterministic hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// [`FxHashMap`] with pre-allocated capacity (the custom hasher disables
/// `HashMap::with_capacity`).
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

/// [`FxHashSet`] with pre-allocated capacity.
pub fn fx_set_with_capacity<T>(capacity: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

/// Hash one `Hash` value to a `u64` with the fast hasher — the single-shot
/// form used for hash-then-verify probe tables.
#[inline]
pub fn fx_hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;

    #[test]
    fn deterministic_across_hashers() {
        let a = fx_hash_one(&[Datum::Int(7), Datum::str("x")][..]);
        let b = fx_hash_one(&[Datum::Int(7), Datum::str("x")][..]);
        assert_eq!(a, b);
        assert_ne!(a, fx_hash_one(&[Datum::Int(8), Datum::str("x")][..]));
    }

    #[test]
    fn int_and_float_keys_hash_alike() {
        // `Datum`'s Hash impl routes equal int/float values through the same
        // bits; the hasher must preserve that.
        assert_eq!(fx_hash_one(&Datum::Int(7)), fx_hash_one(&Datum::Float(7.0)));
    }

    #[test]
    fn byte_stream_tail_is_length_sensitive() {
        let mut a = FxHasher::default();
        a.write(b"ab");
        a.write(b"c");
        let mut b = FxHasher::default();
        b.write(b"a");
        b.write(b"bc");
        // Not required by the Hasher contract, but the tail-length fold
        // keeps short string keys from trivially colliding.
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<Vec<Datum>, usize> = fx_map_with_capacity(4);
        m.insert(vec![Datum::Int(1)], 10);
        // Borrowed-slice probe: no owned key materialized.
        assert_eq!(m.get(&[Datum::Int(1)][..]), Some(&10));
        let mut s: FxHashSet<i64> = fx_set_with_capacity(2);
        s.insert(42);
        assert!(s.contains(&42));
    }

    #[test]
    fn empty_hash_is_not_zero() {
        assert_ne!(FxHasher::default().finish(), 0);
    }
}
