//! Allocation-free key hash tables for the join hot path.
//!
//! The old build side was `HashMap<Vec<Datum>, Vec<usize>>`: one owned key
//! vector per build row, one candidate vector per distinct key, and one more
//! owned key per *probe*. [`KeyHashTable`] replaces all of that with
//! hash-then-verify over borrowed key slices:
//!
//! * build hashes each row's key columns **in place** ([`key_hash`]) and
//!   links equal-hash rows into an intrusive chain (`head` map + `next`
//!   vector) — two flat allocations total, none per row;
//! * probe hashes the probe row's key columns in place, walks the chain,
//!   and **verifies** candidate keys column-by-column ([`key_eq_rows`]) —
//!   hash collisions between distinct keys are filtered here, and no key
//!   vector ever materializes.
//!
//! Chains are built by scanning rows in *reverse* so each chain yields
//! candidates in ascending row order — exactly the order the old
//! `Vec<usize>` per key produced, so join output stays bit-identical to the
//! previous implementation.
//!
//! Rows with a null key column never enter the table and never match a
//! probe: every equijoin the maintenance algebra generates is
//! null-rejecting (§2.1), so a null key cannot join — skipping them here is
//! both correct and what keeps outer-join dangling tuples dangling.

use ojv_rel::{fx_map_with_capacity, key_hash, Datum, FxHashMap, RowBuf};
use ojv_storage::RowRef;

const NIL: u32 = u32::MAX;

/// A chained hash table over the key columns of a [`RowBuf`].
pub struct KeyHashTable {
    key_cols: Vec<usize>,
    head: FxHashMap<u64, u32>,
    next: Vec<u32>,
}

impl KeyHashTable {
    /// Index `rows` by their key columns. Rows with any null key column are
    /// skipped (null-rejecting equijoin semantics).
    pub fn build(rows: &RowBuf, key_cols: &[usize]) -> Self {
        let hashes: Vec<Option<u64>> = rows
            .iter()
            .map(|row| {
                if key_cols.iter().any(|&c| row[c].is_null()) {
                    None
                } else {
                    Some(key_hash(row, key_cols))
                }
            })
            .collect();
        Self::from_hashes(&hashes, key_cols)
    }

    /// Build from precomputed per-row key hashes (`None` = row excluded:
    /// null key, failed scan predicate, delta-excluded, …). Lets callers
    /// index rows they don't own contiguously — e.g. a base table's narrow
    /// `Vec<Row>` — without copying them into a [`RowBuf`].
    pub fn from_hashes(hashes: &[Option<u64>], key_cols: &[usize]) -> Self {
        let mut head: FxHashMap<u64, u32> = fx_map_with_capacity(hashes.len());
        let mut next = vec![NIL; hashes.len()];
        // Reverse scan: each push-front leaves chains in ascending row
        // order, matching the old per-key `Vec<usize>` candidate order.
        for i in (0..hashes.len()).rev() {
            if let Some(h) = hashes[i] {
                let slot = head.entry(h).or_insert(NIL);
                next[i] = *slot;
                *slot = i as u32;
            }
        }
        KeyHashTable {
            key_cols: key_cols.to_vec(),
            head,
            next,
        }
    }

    /// Number of distinct key hashes (≈ distinct keys) in the table.
    pub fn distinct_hashes(&self) -> usize {
        self.head.len()
    }

    /// Iterate the indices of build rows whose key *may* equal the probe
    /// row's key at `probe_cols` — ascending row order, hash-matched only.
    /// The caller must verify with [`Self::key_matches`]. Yields nothing for
    /// null probe keys.
    #[inline]
    pub fn candidates(&self, probe_row: &[Datum], probe_cols: &[usize]) -> Candidates<'_> {
        let cur = if probe_cols.iter().any(|&c| probe_row[c].is_null()) {
            NIL
        } else {
            let h = key_hash(probe_row, probe_cols);
            self.head.get(&h).copied().unwrap_or(NIL)
        };
        Candidates { table: self, cur }
    }

    /// Verify that build row `build_row` (a row slice of the indexed
    /// `RowBuf`) agrees with the probe key — the collision filter after a
    /// hash match.
    #[inline]
    pub fn key_matches(
        &self,
        build_row: &[Datum],
        probe_row: &[Datum],
        probe_cols: &[usize],
    ) -> bool {
        self.key_cols
            .iter()
            .zip(probe_cols)
            .all(|(&bc, &pc)| build_row[bc] == probe_row[pc])
    }

    /// [`Self::key_matches`] where the build row is *columnar*: candidate
    /// verification reads the key columns straight off the heap's column
    /// pages (`DatumRef` equality mirrors `Datum` equality).
    #[inline]
    pub fn key_matches_ref(
        &self,
        build_row: RowRef<'_>,
        probe_row: &[Datum],
        probe_cols: &[usize],
    ) -> bool {
        self.key_cols
            .iter()
            .zip(probe_cols)
            .all(|(&bc, &pc)| build_row.dat(bc) == probe_row[pc])
    }
}

/// Iterator over hash-matched build-row indices, ascending.
pub struct Candidates<'a> {
    table: &'a KeyHashTable,
    cur: u32,
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.cur == NIL {
            return None;
        }
        let i = self.cur as usize;
        self.cur = self.table.next[i];
        Some(i)
    }
}

/// A set of keys supporting membership tests against borrowed row slices —
/// the allocation-free replacement for `HashSet<Vec<Datum>>` in semi/anti
/// joins and delta-key exclusion.
///
/// Keys are stored as a contiguous key-only [`RowBuf`]; `contains` hashes
/// the probe columns in place and verifies by slice comparison.
pub struct KeySet {
    keys: RowBuf,
    all_cols: Vec<usize>,
    head: FxHashMap<u64, u32>,
    next: Vec<u32>,
}

impl KeySet {
    /// Collect the keys (at `key_cols`) of `rows`. Keys with a null column
    /// are not inserted — they can never equal a (null-rejecting) probe.
    pub fn build<'r>(rows: impl Iterator<Item = &'r [Datum]>, key_cols: &[usize]) -> Self {
        let mut keys = RowBuf::new(key_cols.len());
        for row in rows {
            if key_cols.iter().any(|&c| row[c].is_null()) {
                continue;
            }
            let dst = keys.push_null_row();
            for (slot, &c) in dst.iter_mut().zip(key_cols) {
                *slot = row[c].clone();
            }
        }
        let all_cols: Vec<usize> = (0..key_cols.len()).collect();
        let mut head: FxHashMap<u64, u32> = fx_map_with_capacity(keys.len());
        let mut next = vec![NIL; keys.len()];
        for (i, link) in next.iter_mut().enumerate() {
            let h = key_hash(keys.row(i), &all_cols);
            let slot = head.entry(h).or_insert(NIL);
            *link = *slot;
            *slot = i as u32;
        }
        KeySet {
            keys,
            all_cols,
            head,
            next,
        }
    }

    /// Number of stored keys (including duplicates).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Does the set contain the key of `row` at `cols`? Null keys are never
    /// members. No allocation.
    #[inline]
    pub fn contains(&self, row: &[Datum], cols: &[usize]) -> bool {
        if cols.iter().any(|&c| row[c].is_null()) {
            return false;
        }
        let h = key_hash(row, cols);
        let mut cur = self.head.get(&h).copied().unwrap_or(NIL);
        while cur != NIL {
            let k = self.keys.row(cur as usize);
            if self
                .all_cols
                .iter()
                .zip(cols)
                .all(|(&kc, &pc)| k[kc] == row[pc])
            {
                return true;
            }
            cur = self.next[cur as usize];
        }
        false
    }

    /// [`Self::contains`] for a *columnar* probe row: the key columns hash
    /// and compare via `DatumRef`, whose hash stream is byte-identical to
    /// `Datum`'s, so the probe hits the same buckets. No allocation.
    #[inline]
    pub fn contains_ref(&self, row: RowRef<'_>, cols: &[usize]) -> bool {
        if cols.iter().any(|&c| row.is_null(c)) {
            return false;
        }
        let h = ojv_rel::key_hash_with(cols, |c| row.dat(c));
        let mut cur = self.head.get(&h).copied().unwrap_or(NIL);
        while cur != NIL {
            let k = self.keys.row(cur as usize);
            if self
                .all_cols
                .iter()
                .zip(cols)
                .all(|(&kc, &pc)| row.dat(pc) == k[kc])
            {
                return true;
            }
            cur = self.next[cur as usize];
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: i64) -> Datum {
        Datum::Int(i)
    }

    fn buf(rows: &[Vec<Datum>]) -> RowBuf {
        RowBuf::from_rows(rows[0].len(), rows)
    }

    #[test]
    fn candidates_ascend_per_key() {
        let rows = buf(&[
            vec![d(1), d(10)],
            vec![d(2), d(20)],
            vec![d(1), d(30)],
            vec![d(1), d(40)],
        ]);
        let t = KeyHashTable::build(&rows, &[0]);
        let probe = vec![d(1)];
        let cands: Vec<usize> = t
            .candidates(&probe, &[0])
            .filter(|&i| t.key_matches(rows.row(i), &probe, &[0]))
            .collect();
        assert_eq!(cands, vec![0, 2, 3]);
    }

    #[test]
    fn null_build_and_probe_keys_never_match() {
        let rows = buf(&[vec![Datum::Null, d(10)], vec![d(1), d(20)]]);
        let t = KeyHashTable::build(&rows, &[0]);
        // Null build key was skipped.
        let probe = vec![Datum::Null];
        assert_eq!(t.candidates(&probe, &[0]).count(), 0);
        let probe = vec![d(1)];
        assert_eq!(t.candidates(&probe, &[0]).count(), 1);
    }

    #[test]
    fn cross_column_probe() {
        // Build keyed on col 1, probed with col 0 of a different row shape.
        let rows = buf(&[vec![d(9), d(7)], vec![d(9), d(8)]]);
        let t = KeyHashTable::build(&rows, &[1]);
        let probe = vec![d(7), d(0), d(0)];
        let m: Vec<usize> = t
            .candidates(&probe, &[0])
            .filter(|&i| t.key_matches(rows.row(i), &probe, &[0]))
            .collect();
        assert_eq!(m, vec![0]);
    }

    #[test]
    fn key_set_membership() {
        let rows = buf(&[vec![d(1), d(5)], vec![d(2), d(6)], vec![Datum::Null, d(7)]]);
        let s = KeySet::build(rows.iter(), &[0]);
        assert_eq!(s.len(), 2); // null key not inserted
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
