//! `hash → position` slots: the one keyed index of the workspace (the
//! storage indexes, the view store and its count indexes, the secondary
//! delta's candidate sets, the feed's netting), which stores no key.
//!
//! A [`PosTable`] maps a 64-bit key hash to a `u32` payload — a position in
//! rows the caller already holds. A probe hashes the key columns in place
//! ([`crate::key_hash`] / [`crate::key_hash_with`]) and hands every
//! hash-matched payload to a caller-supplied `verify` closure, which
//! compares the candidate's row against the probe key. Two distinct keys
//! with one hash are therefore just two slots, and `Int(7)` finds
//! `Float(7.0)` (equal hash by construction, equal under comparison).
//!
//! Open addressing, linear probing, backward-shift deletion (no
//! tombstones, so a table that churns never degrades). A slot packs the
//! hash's upper 32 bits with the payload into one `u64`; the home slot is
//! taken from those same upper bits — the well-mixed half of the fx hash —
//! so a resize rehashes without touching the rows.
//!
//! Where no held row can stand for a key (a count or a group outlives the
//! row it was first seen in), [`KeyArena`] keeps each distinct key once in
//! a flat arena beside its value and verifies against that.

use crate::{fx_hash_one, key_eq, Datum, RowBuf};

/// A free slot. No stored entry can equal it: payloads stay below
/// `u32::MAX` ([`pos32`]).
const EMPTY: u64 = u64::MAX;

const MIN_SLOTS: usize = 8;

/// Narrow a row position or bucket id to the `u32` the slots store.
#[inline]
pub fn pos32(pos: usize) -> u32 {
    match u32::try_from(pos) {
        Ok(p) if p != u32::MAX => p,
        _ => panic!("index payload {pos} does not fit the 32-bit slot"),
    }
}

/// Widen a stored payload back to an index.
#[inline]
pub fn idx(val: u32) -> usize {
    val as usize
}

#[inline]
fn pack(hash: u64, val: u32) -> u64 {
    (hash & !0xFFFF_FFFF) | u64::from(val)
}

#[derive(Debug, Clone, Default)]
pub struct PosTable {
    /// Power-of-two length (or empty before the first insert), at most
    /// half full.
    slots: Vec<u64>,
    len: usize,
}

impl PosTable {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, slot: u64) -> usize {
        idx((slot >> 32) as u32) & (self.slots.len() - 1)
    }

    /// The first payload stored under `hash` that `verify` accepts.
    #[inline]
    pub fn find(&self, hash: u64, mut verify: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            if slot >> 32 == hash >> 32 && verify(slot as u32) {
                return Some(slot as u32);
            }
            i = (i + 1) & mask;
        }
    }

    /// Make room for `additional` more entries without growing again.
    pub fn reserve(&mut self, additional: usize) {
        let need = (self.len + additional) * 2;
        if need <= self.slots.len() {
            return;
        }
        let grown = need.next_power_of_two().max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; grown]);
        for slot in old {
            if slot != EMPTY {
                self.place(slot);
            }
        }
    }

    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut i = self.home(slot);
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Add `val` under `hash`. Entries are not deduplicated: the caller has
    /// already established that no equal key is present.
    pub fn insert(&mut self, hash: u64, val: u32) {
        debug_assert_ne!(val, u32::MAX, "payload collides with the empty marker");
        self.reserve(1);
        self.place(pack(hash, val));
        self.len += 1;
    }

    /// Slot index of the entry `(hash, val)`, which must be present.
    fn slot_of(&self, hash: u64, val: u32) -> usize {
        let mask = self.slots.len() - 1;
        let want = pack(hash, val);
        let mut i = self.home(want);
        while self.slots[i] != want {
            assert_ne!(
                self.slots[i], EMPTY,
                "index entry missing: rows and index diverged"
            );
            i = (i + 1) & mask;
        }
        i
    }

    /// Drop the entry `(hash, val)`, which must be present.
    pub fn remove(&mut self, hash: u64, val: u32) {
        let mask = self.slots.len() - 1;
        let mut hole = self.slot_of(hash, val);
        // Backward shift: pull every later entry of the cluster whose home
        // is at or before the hole into it, so probes never cross a gap.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let slot = self.slots[j];
            if slot == EMPTY {
                break;
            }
            let from_home = j.wrapping_sub(self.home(slot)) & mask;
            if from_home >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    /// Rewrite the payload of the entry `(hash, old)`, which must be
    /// present, to `new`.
    pub fn replace(&mut self, hash: u64, old: u32, new: u32) {
        let i = self.slot_of(hash, old);
        self.slots[i] = pack(hash, new);
    }
}

/// Distinct keys in a flat arena, one value per key, found through a
/// [`PosTable`] verified against the arena: the keyed map of the view
/// store's count indexes and of the aggregate groups. A probe reads its key
/// columns out of a wider row in place ([`crate::key_hash`]); only a new key is
/// copied, once, into the arena. Removal swap-removes, so the arena stays
/// dense and a slot is valid until the next removal.
#[derive(Debug, Clone)]
pub struct KeyArena<V> {
    /// hash(key) → slot in `keys` / `values`.
    slots: PosTable,
    keys: RowBuf,
    values: Vec<V>,
}

impl<V> KeyArena<V> {
    /// An empty arena of `width`-column keys.
    pub fn new(width: usize) -> Self {
        KeyArena {
            slots: PosTable::default(),
            keys: RowBuf::new(width),
            values: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Slot of the key `row` carries in `cols`, whose [`crate::key_hash`] is
    /// `hash`.
    #[inline]
    pub fn find(&self, hash: u64, row: &[Datum], cols: &[usize]) -> Option<usize> {
        self.slots
            .find(hash, |s| key_eq(row, cols, self.keys.row(idx(s))))
            .map(idx)
    }

    /// Slot of the key `row` carries in `cols`, adding the key with the
    /// value `init()` when it is absent.
    pub fn find_or_insert(
        &mut self,
        hash: u64,
        row: &[Datum],
        cols: &[usize],
        init: impl FnOnce() -> V,
    ) -> usize {
        if let Some(s) = self.find(hash, row, cols) {
            return s;
        }
        let s = self.values.len();
        self.slots.insert(hash, pos32(s));
        let key = self.keys.push_null_row();
        for (k, &c) in key.iter_mut().zip(cols) {
            *k = row[c].clone();
        }
        self.values.push(init());
        s
    }

    pub fn value(&self, slot: usize) -> &V {
        &self.values[slot]
    }

    pub fn value_mut(&mut self, slot: usize) -> &mut V {
        &mut self.values[slot]
    }

    /// Remove the key at `slot`, whose hash is `hash`, and return its value.
    /// The last key moves into `slot`.
    pub fn swap_remove(&mut self, hash: u64, slot: usize) -> V {
        let last = self.values.len() - 1;
        self.slots.remove(hash, pos32(slot));
        self.keys.swap_remove_row(slot);
        if slot < last {
            let moved = fx_hash_one(self.keys.row(slot));
            self.slots.replace(moved, pos32(last), pos32(slot));
        }
        self.values.swap_remove(slot)
    }

    /// Every key with its value, in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Datum], &V)> {
        self.keys.iter().zip(&self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fx_hash_one, FxHashMap};
    use ojv_testkit::Rng;

    #[test]
    fn find_insert_remove_roundtrip() {
        let mut t = PosTable::default();
        assert_eq!(t.find(42, |_| true), None);
        for v in 0..100u32 {
            t.insert(fx_hash_one(&v), v);
        }
        assert_eq!(t.len(), 100);
        for v in 0..100u32 {
            assert_eq!(t.find(fx_hash_one(&v), |c| c == v), Some(v));
        }
        for v in (0..100u32).step_by(2) {
            t.remove(fx_hash_one(&v), v);
        }
        for v in 0..100u32 {
            let want = (v % 2 == 1).then_some(v);
            assert_eq!(t.find(fx_hash_one(&v), |c| c == v), want);
        }
    }

    #[test]
    fn equal_hashes_coexist_and_verify_tells_them_apart() {
        let mut t = PosTable::default();
        for v in 0..5u32 {
            t.insert(7, v);
        }
        assert_eq!(t.find(7, |c| c == 3), Some(3));
        assert_eq!(t.find(7, |_| false), None);
        t.remove(7, 3);
        assert_eq!(t.find(7, |c| c == 3), None);
        t.replace(7, 4, 9);
        assert_eq!(t.find(7, |c| c == 9), Some(9));
        assert_eq!(t.len(), 4);
    }

    /// Random churn against a model map, with hashes squeezed into the last
    /// few home slots so clusters wrap around the table end and every
    /// backward-shift case is hit.
    #[test]
    fn churn_matches_a_model_map() {
        let mut rng = Rng::seed_from_u64(0x1DE5);
        let mut t = PosTable::default();
        let mut model: FxHashMap<u32, u64> = FxHashMap::default();
        for step in 0..20_000u32 {
            let v = rng.gen_range(0u32..300);
            match model.remove(&v) {
                Some(h) => t.remove(h, v),
                None => {
                    // Homes are the low tag bits: all ones minus 0..4 lands
                    // on the last four slots at every table size. The top
                    // tag bits vary so equal homes are not equal tags.
                    let h = (u64::from(0x00FF_FFFF - rng.gen_range(0u32..4)) << 32)
                        | (u64::from(rng.gen_range(0u32..64)) << 58);
                    t.insert(h, v);
                    model.insert(v, h);
                }
            }
            assert_eq!(t.len(), model.len());
            if step % 97 == 0 {
                for (&v, &h) in &model {
                    assert_eq!(t.find(h, |c| c == v), Some(v), "step {step}");
                }
            }
        }
    }
}
