//! Per-batch key tables for the join and semi/anti probes, on the
//! workspace's one keyed index, [`PosTable`].
//!
//! Neither table owns a key. A slot maps a key hash to a position in rows
//! the caller already holds, and every probe verifies the hash-matched
//! position's key against those rows — so distinct keys that share a hash
//! are just two slots:
//!
//! * [`KeyHashTable`] holds one slot per distinct key, pointing at the
//!   first row of that key's chain (`next`). A probe verifies the chain
//!   head once and then walks rows that all carry the probe's key, in
//!   ascending row order — the order join output is defined in.
//! * [`KeySet`] holds one slot per distinct key of the rows it was built
//!   from, and answers membership.
//!
//! Rows with a null key column never enter either table and never match a
//! probe: every equijoin the maintenance algebra generates is
//! null-rejecting (§2.1), so a null key cannot join — skipping them here is
//! both correct and what keeps outer-join dangling tuples dangling.

use ojv_rel::postable::{idx, pos32, PosTable};
use ojv_rel::{key_hash, key_hash_with, Datum, DatumRef};
use ojv_storage::RowRef;

const NIL: u32 = u32::MAX;

/// Build rows chained by key: one [`PosTable`] slot per distinct key.
pub struct KeyHashTable {
    heads: PosTable,
    next: Vec<u32>,
}

impl KeyHashTable {
    /// Chain `n` build rows by key. `hash(i)` is row `i`'s key hash, `None`
    /// for a row that must not match (null key, failed scan predicate,
    /// delta-excluded, …); `same_key(i, j)` compares two rows' keys.
    pub fn build(
        n: usize,
        mut hash: impl FnMut(usize) -> Option<u64>,
        same_key: impl Fn(usize, usize) -> bool,
    ) -> Self {
        let mut heads = PosTable::default();
        heads.reserve(n);
        let mut next = vec![NIL; n];
        // Reverse scan: each push-front leaves a chain in ascending order.
        for i in (0..n).rev() {
            let Some(h) = hash(i) else { continue };
            match heads.find(h, |j| same_key(i, idx(j))) {
                Some(j) => {
                    next[i] = j;
                    heads.replace(h, j, pos32(i));
                }
                None => heads.insert(h, pos32(i)),
            }
        }
        KeyHashTable { heads, next }
    }

    /// Number of distinct keys in the table.
    pub fn distinct_keys(&self) -> usize {
        self.heads.len()
    }

    /// The rows whose key is the probe's, ascending: `hash` is the probe
    /// key's hash and `is_key(j)` checks it against row `j`.
    #[inline]
    pub fn rows_of(
        &self,
        hash: u64,
        mut is_key: impl FnMut(usize) -> bool,
    ) -> impl Iterator<Item = usize> + '_ {
        let head = self.heads.find(hash, |j| is_key(idx(j)));
        std::iter::successors(head, |&i| Some(self.next[idx(i)]).filter(|&n| n != NIL)).map(idx)
    }
}

/// The keys (at `cols`) of a set of borrowed rows, verified against those
/// rows: semi/anti joins by key and delta-key exclusion ask it for
/// membership, with no key copied on either side.
pub struct KeySet<'r> {
    rows: Vec<&'r [Datum]>,
    cols: Vec<usize>,
    slots: PosTable,
}

impl<'r> KeySet<'r> {
    /// The distinct keys at `cols` of `rows`. Keys with a null column are
    /// left out — they can never equal a (null-rejecting) probe.
    pub fn build(rows: impl Iterator<Item = &'r [Datum]>, cols: &[usize]) -> Self {
        let n = rows.size_hint().0;
        let mut set = KeySet {
            rows: Vec::with_capacity(n),
            cols: cols.to_vec(),
            slots: PosTable::default(),
        };
        set.slots.reserve(n);
        for row in rows {
            if cols.iter().any(|&c| row[c].is_null()) {
                continue;
            }
            let h = key_hash(row, cols);
            if set.find(h, cols, |c| row[c].as_ref()).is_none() {
                set.slots.insert(h, pos32(set.rows.len()));
                set.rows.push(row);
            }
        }
        set
    }

    fn find<'a>(&self, h: u64, cols: &[usize], get: impl Fn(usize) -> DatumRef<'a>) -> Option<u32> {
        self.slots.find(h, |j| {
            let key = self.rows[idx(j)];
            self.cols
                .iter()
                .zip(cols)
                .all(|(&kc, &pc)| get(pc) == key[kc])
        })
    }

    fn contains_with<'a>(&self, cols: &[usize], get: impl Fn(usize) -> DatumRef<'a>) -> bool {
        !cols.iter().any(|&c| get(c).is_null())
            && self.find(key_hash_with(cols, &get), cols, get).is_some()
    }

    /// Does the set hold the key of `row` at `cols`? Null keys are never
    /// members. No allocation.
    #[inline]
    pub fn contains(&self, row: &[Datum], cols: &[usize]) -> bool {
        self.contains_with(cols, |c| row[c].as_ref())
    }

    /// [`Self::contains`] for a *columnar* probe row: `DatumRef`'s hash
    /// stream is byte-identical to `Datum`'s, so the probe hits the same
    /// slots. No allocation.
    #[inline]
    pub fn contains_ref(&self, row: RowRef<'_>, cols: &[usize]) -> bool {
        self.contains_with(cols, |c| row.dat(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ojv_rel::{key_eq_rows, RowBuf};

    fn d(i: i64) -> Datum {
        Datum::Int(i)
    }

    fn buf(rows: &[Vec<Datum>]) -> RowBuf {
        RowBuf::from_rows(rows[0].len(), rows)
    }

    /// A table over `rows` keyed on `cols`, hashed by `hash` (null keys
    /// excluded).
    fn table(rows: &RowBuf, cols: &[usize], hash: impl Fn(&[Datum]) -> u64) -> KeyHashTable {
        KeyHashTable::build(
            rows.len(),
            |i| {
                let r = rows.row(i);
                (!cols.iter().any(|&c| r[c].is_null())).then(|| hash(r))
            },
            |i, j| key_eq_rows(rows.row(i), cols, rows.row(j), cols),
        )
    }

    fn probe(t: &KeyHashTable, rows: &RowBuf, key: &[Datum], h: u64) -> Vec<usize> {
        t.rows_of(h, |j| key_eq_rows(rows.row(j), &[0], key, &[0]))
            .collect()
    }

    #[test]
    fn chains_ascend_per_key() {
        let rows = buf(&[
            vec![d(1), d(10)],
            vec![d(2), d(20)],
            vec![d(1), d(30)],
            vec![d(1), d(40)],
        ]);
        let t = table(&rows, &[0], |r| key_hash(r, &[0]));
        assert_eq!(t.distinct_keys(), 2);
        assert_eq!(
            probe(&t, &rows, &[d(1)], key_hash(&[d(1)], &[0])),
            [0, 2, 3]
        );
        assert_eq!(probe(&t, &rows, &[d(2)], key_hash(&[d(2)], &[0])), [1]);
        assert!(probe(&t, &rows, &[d(3)], key_hash(&[d(3)], &[0])).is_empty());
    }

    /// Distinct keys that share a hash keep separate chains: a probe walks
    /// only its own key's rows.
    #[test]
    fn colliding_keys_keep_separate_chains() {
        let rows = buf(&[vec![d(1)], vec![d(2)], vec![d(1)], vec![d(2)]]);
        let t = table(&rows, &[0], |_| 7);
        assert_eq!(t.distinct_keys(), 2);
        assert_eq!(probe(&t, &rows, &[d(1)], 7), [0, 2]);
        assert_eq!(probe(&t, &rows, &[d(2)], 7), [1, 3]);
    }

    #[test]
    fn null_build_keys_are_left_out() {
        let rows = buf(&[vec![Datum::Null, d(10)], vec![d(1), d(20)]]);
        let t = table(&rows, &[0], |r| key_hash(r, &[0]));
        assert_eq!(t.distinct_keys(), 1);
        let h = key_hash(&[Datum::Null], &[0]);
        assert!(probe(&t, &rows, &[Datum::Null], h).is_empty());
    }

    #[test]
    fn key_set_membership() {
        let rows = buf(&[
            vec![d(1), d(5)],
            vec![d(2), d(6)],
            vec![Datum::Null, d(7)],
            vec![d(1), d(8)],
        ]);
        let s = KeySet::build(rows.iter(), &[0]);
        assert_eq!(s.rows.len(), 2); // null key left out, duplicate key once
        assert!(s.contains(&[d(0), d(0), d(1)], &[2]));
        assert!(!s.contains(&[d(3)], &[0]));
        assert!(!s.contains(&[Datum::Null], &[0]));
    }

    #[test]
    fn key_set_multi_column() {
        let rows = buf(&[vec![d(1), d(2)], vec![d(3), d(4)]]);
        let s = KeySet::build(rows.iter(), &[0, 1]);
        assert!(s.contains(&[d(1), d(2)], &[0, 1]));
        assert!(s.contains(&[d(2), d(1)], &[1, 0]));
        assert!(!s.contains(&[d(2), d(1)], &[0, 1]));
    }
}
