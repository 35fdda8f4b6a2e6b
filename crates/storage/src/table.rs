//! Heap tables with a unique-key hash index and secondary indexes.
//!
//! The indexes own no keys. Each is a [`PosTable`] of `key hash → heap
//! position` (unique) or `key hash → bucket of positions` (secondary); a
//! probe hashes the key columns in place and verifies hash-matched
//! candidates against the [`ColumnHeap`] row they point at, so the only
//! copy of a key is the one in the column pages.

use ojv_rel::postable::{idx, pos32, PosTable};
use ojv_rel::{fx_hash_one, fx_set_with_capacity, key_eq_rows, key_hash, key_hash_with};
use ojv_rel::{Datum, DatumRef, FxHashSet, Row, SchemaRef};

use crate::error::StorageError;
use crate::heap::{ColumnHeap, RowRef};

/// Do `heap`'s row `pos` and the probe agree on `cols`? `probe(k)` is the
/// probe's value for `cols[k]` (plain `Eq`, as the hash tables use — *not*
/// SQL null semantics; `Int`/`Float` compare by value).
#[inline]
fn row_has_key<'a>(
    heap: &ColumnHeap,
    pos: u32,
    cols: &[usize],
    probe: impl Fn(usize) -> DatumRef<'a>,
) -> bool {
    cols.iter()
        .enumerate()
        .all(|(k, &c)| heap.datum_ref(idx(pos), c) == probe(k))
}

/// A secondary (non-unique) hash index over a column subset.
///
/// Rows sharing a key form a *bucket* — the heap positions in the order
/// [`Table::lookup_secondary`] yields them: appended on insert,
/// `swap_remove`d on delete, rewritten in place when the heap's own
/// swap-remove moves a row. That order feeds view heap order and therefore
/// `state_bytes()`, so it is part of the contract. Every row carries a
/// back-pointer `(bucket, offset)` into its bucket, which makes both the
/// removal and the fix-up O(1) whatever the key's frequency.
#[derive(Debug, Clone, Default)]
struct SecondaryIndex {
    cols: Vec<usize>,
    /// Key hash → bucket id, verified against the bucket's first row.
    heads: PosTable,
    buckets: Vec<Vec<u32>>,
    /// Ids of emptied buckets, reused (with their capacity) by new keys.
    free: Vec<u32>,
    /// Heap position → (bucket id, offset in that bucket). Invariant:
    /// `buckets[b][i] == pos` iff `back[pos] == (b, i)`, and
    /// `back.len()` is the heap length.
    back: Vec<(u32, u32)>,
}

impl SecondaryIndex {
    fn bucket<'a>(
        &self,
        heap: &ColumnHeap,
        hash: u64,
        probe: impl Fn(usize) -> DatumRef<'a>,
    ) -> Option<u32> {
        self.heads.find(hash, |b| {
            row_has_key(heap, self.buckets[idx(b)][0], &self.cols, &probe)
        })
    }

    /// Bucket of an owned probe key (in index column order).
    fn bucket_of_key(&self, heap: &ColumnHeap, key: &[Datum]) -> Option<&[u32]> {
        if key.len() != self.cols.len() {
            return None;
        }
        self.bucket(heap, fx_hash_one(key), |k| key[k].as_ref())
            .map(|b| self.buckets[idx(b)].as_slice())
    }

    /// Index the row the heap just received at `pos` (the next position);
    /// `get(c)` reads its column `c`.
    fn insert<'a>(&mut self, heap: &ColumnHeap, pos: usize, get: impl Fn(usize) -> DatumRef<'a>) {
        debug_assert_eq!(
            pos,
            self.back.len(),
            "secondary index out of step with the heap"
        );
        let hash = key_hash_with(&self.cols, &get);
        let b = match self.bucket(heap, hash, |k| get(self.cols[k])) {
            Some(b) => b,
            None => {
                let b = self.free.pop().unwrap_or_else(|| {
                    self.buckets.push(Vec::new());
                    pos32(self.buckets.len() - 1)
                });
                self.heads.insert(hash, b);
                b
            }
        };
        let bucket = &mut self.buckets[idx(b)];
        self.back.push((b, pos32(bucket.len())));
        bucket.push(pos32(pos));
    }

    /// Unindex row `pos` and follow the heap's swap-remove: the last row
    /// is about to move into `pos`, so its bucket entry and back-pointer
    /// are rewritten in place. Must run while `pos` is still in the heap.
    fn remove(&mut self, heap: &ColumnHeap, pos: usize) {
        let (b, i) = self.back[pos];
        let bucket = &mut self.buckets[idx(b)];
        bucket.swap_remove(idx(i));
        if let Some(&moved) = bucket.get(idx(i)) {
            self.back[idx(moved)].1 = i;
        } else if bucket.is_empty() {
            let hash = key_hash_with(&self.cols, |c| heap.datum_ref(pos, c));
            self.heads.remove(hash, b);
            self.free.push(b);
        }
        let last = self.back.len() - 1;
        if pos != last {
            let (lb, li) = self.back[last];
            self.buckets[idx(lb)][idx(li)] = pos32(pos);
            self.back[pos] = (lb, li);
        }
        self.back.pop();
    }
}

/// Rows matching a key on a secondary index, in bucket order.
#[derive(Debug, Clone)]
pub struct SecondaryLookup<'a> {
    heap: &'a ColumnHeap,
    positions: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for SecondaryLookup<'a> {
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        self.positions.next().map(|&p| self.heap.row_ref(idx(p)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.positions.size_hint()
    }
}

/// Rows matching a key on either kind of index ([`Table::index_lookup`]).
#[derive(Debug, Clone)]
pub enum IndexLookup<'a> {
    Unique(std::option::IntoIter<RowRef<'a>>),
    Secondary(SecondaryLookup<'a>),
}

impl<'a> Iterator for IndexLookup<'a> {
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        match self {
            IndexLookup::Unique(it) => it.next(),
            IndexLookup::Secondary(it) => it.next(),
        }
    }
}

/// A handle to one of a table's indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexRef {
    /// The unique-key hash index.
    Unique,
    /// A secondary index by id.
    Secondary(usize),
}

/// An in-memory table: a columnar row heap plus a hash index on the unique
/// key.
///
/// Rows live in a [`ColumnHeap`] — segmented column-major pages with
/// per-column null bitmaps — and are addressed by dense position; deletion
/// uses swap-remove and fixes up index entries for the moved row, so both
/// insert and delete stay O(1) expected per row. Readers receive [`RowRef`]
/// handles (or materialize owned rows on cold paths).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: SchemaRef,
    key_cols: Vec<usize>,
    heap: ColumnHeap,
    /// Unique-key hash → heap position, verified against the heap row.
    unique: PosTable,
    secondary: Vec<SecondaryIndex>,
}

impl Table {
    /// Create an empty table. Every key column must be non-nullable
    /// (paper §2: "every base table has a unique key that does not contain
    /// nulls").
    pub fn new(name: &str, schema: SchemaRef, key_cols: Vec<usize>) -> Result<Self, StorageError> {
        if key_cols.is_empty() {
            return Err(StorageError::InvalidConstraint {
                detail: format!("table {name} must declare a unique key"),
            });
        }
        for &c in &key_cols {
            if c >= schema.len() {
                return Err(StorageError::UnknownColumn {
                    table: name.to_string(),
                    column: format!("#{c}"),
                });
            }
            if schema.column(c).nullable {
                return Err(StorageError::NullInKey {
                    table: name.to_string(),
                });
            }
        }
        Ok(Table {
            name: name.to_string(),
            schema: schema.clone(),
            key_cols,
            heap: ColumnHeap::new(schema),
            unique: PosTable::default(),
            secondary: Vec::new(),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Column indexes of the unique key.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The backing column-major heap — the zero-copy scan surface join
    /// builds and probes read from.
    pub fn heap(&self) -> &ColumnHeap {
        &self.heap
    }

    /// Borrowed handle to the row at heap position `pos`.
    #[inline]
    pub fn row_ref(&self, pos: usize) -> RowRef<'_> {
        self.heap.row_ref(pos)
    }

    /// Materialize the row at heap position `pos`.
    pub fn row(&self, pos: usize) -> Row {
        self.heap.row(pos)
    }

    /// Iterate all rows as borrowed handles, in heap order.
    pub fn iter_refs(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + Clone {
        self.heap.iter()
    }

    /// Iterate all rows materialized, in heap order — cold paths only
    /// (checkpoint encoding, tests); scans should use [`Self::iter_refs`].
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = Row> + '_ {
        (0..self.heap.len()).map(move |pos| self.heap.row(pos))
    }

    /// Add a secondary index over `cols`; returns its id. Existing rows are
    /// indexed immediately. Requesting an index over a column set that is
    /// already indexed returns the existing id instead of building a
    /// duplicate — catalog restore re-runs `add_foreign_key` after
    /// re-creating the recorded indexes, and the FK must land on the same
    /// index id it had before the snapshot.
    pub fn add_secondary_index(&mut self, cols: Vec<usize>) -> usize {
        if let Some(existing) = self.secondary.iter().position(|idx| idx.cols == cols) {
            return existing;
        }
        let mut index = SecondaryIndex {
            cols,
            ..SecondaryIndex::default()
        };
        for pos in 0..self.heap.len() {
            index.insert(&self.heap, pos, |c| self.heap.datum_ref(pos, c));
        }
        self.secondary.push(index);
        self.secondary.len() - 1
    }

    /// Column sets of all secondary indexes, in index-id order — recorded
    /// by catalog snapshots so restore can rebuild indexes with stable ids.
    pub fn secondary_col_sets(&self) -> Vec<Vec<usize>> {
        self.secondary.iter().map(|idx| idx.cols.clone()).collect()
    }

    /// Heap position of the row whose unique key hashes to `hash` and equals
    /// the probe, `probe(k)` being the probe's value for key column `k`.
    #[inline]
    fn stored<'a>(&self, hash: u64, probe: impl Fn(usize) -> DatumRef<'a>) -> Option<u32> {
        self.unique.find(hash, |pos| {
            row_has_key(&self.heap, pos, &self.key_cols, &probe)
        })
    }

    /// Key hash and heap position of the row whose unique key is `key`.
    #[inline]
    fn locate(&self, key: &[Datum]) -> Option<(u64, u32)> {
        if key.len() != self.key_cols.len() {
            return None;
        }
        let hash = fx_hash_one(key);
        self.stored(hash, |k| key[k].as_ref())
            .map(|pos| (hash, pos))
    }

    /// Look up a row by unique key.
    pub fn get(&self, key: &[Datum]) -> Option<RowRef<'_>> {
        self.locate(key).map(|(_, pos)| self.heap.row_ref(idx(pos)))
    }

    /// Find an index (unique or secondary) covering exactly the column set
    /// `cols`. Returns the index handle and, for each index column, its
    /// position within `cols`, so callers can permute probe keys into index
    /// order.
    pub fn index_on(&self, cols: &[usize]) -> Option<(IndexRef, Vec<usize>)> {
        let permutation = |index_cols: &[usize]| -> Option<Vec<usize>> {
            if index_cols.len() != cols.len() {
                return None;
            }
            index_cols
                .iter()
                .map(|ic| cols.iter().position(|c| c == ic))
                .collect()
        };
        if let Some(perm) = permutation(&self.key_cols) {
            return Some((IndexRef::Unique, perm));
        }
        for (i, idx) in self.secondary.iter().enumerate() {
            if let Some(perm) = permutation(&idx.cols) {
                return Some((IndexRef::Secondary(i), perm));
            }
        }
        None
    }

    /// Rows matching `key` (already in index column order) on `index`.
    #[inline]
    pub fn index_lookup<'a>(&'a self, index: IndexRef, key: &[Datum]) -> IndexLookup<'a> {
        match index {
            IndexRef::Unique => IndexLookup::Unique(self.get(key).into_iter()),
            IndexRef::Secondary(i) => IndexLookup::Secondary(self.lookup_secondary(i, key)),
        }
    }

    /// True iff a row with this unique key exists.
    pub fn contains_key(&self, key: &[Datum]) -> bool {
        self.locate(key).is_some()
    }

    /// True iff a row exists whose unique key equals `row`'s values at
    /// `cols` (aligned with the key columns) — the FK parent probe, hashed
    /// in place with no key built.
    pub fn contains_key_of(&self, row: &[Datum], cols: &[usize]) -> bool {
        self.holds_key_of(row, cols, &FxHashSet::default())
    }

    /// [`Table::contains_key_of`], counting the rows at positions `gone`
    /// as already removed.
    pub(crate) fn holds_key_of(
        &self,
        row: &[Datum],
        cols: &[usize],
        gone: &FxHashSet<u32>,
    ) -> bool {
        debug_assert_eq!(cols.len(), self.key_cols.len());
        self.stored(key_hash(row, cols), |k| row[cols[k]].as_ref())
            .is_some_and(|pos| !gone.contains(&pos))
    }

    /// Rows matching `key` on secondary index `idx`, in bucket order.
    #[inline]
    pub fn lookup_secondary(&self, idx: usize, key: &[Datum]) -> SecondaryLookup<'_> {
        let bucket = self.secondary[idx].bucket_of_key(&self.heap, key);
        SecondaryLookup {
            heap: &self.heap,
            positions: bucket.unwrap_or_default().iter(),
        }
    }

    /// Number of rows matching `key` on secondary index `idx`.
    pub fn count_secondary(&self, idx: usize, key: &[Datum]) -> usize {
        self.secondary[idx]
            .bucket_of_key(&self.heap, key)
            .map_or(0, <[u32]>::len)
    }

    /// Number of distinct keys in secondary index `idx` — the basis for
    /// fan-out estimates (`rows / distinct`).
    pub fn secondary_distinct(&self, idx: usize) -> usize {
        self.secondary[idx].heads.len()
    }

    /// Estimated rows per probe of an index: 1 for the unique index, the
    /// average bucket size for a secondary index (at least 1).
    pub fn index_fanout(&self, index: IndexRef) -> f64 {
        match index {
            IndexRef::Unique => 1.0,
            IndexRef::Secondary(i) => {
                let distinct = self.secondary_distinct(i).max(1);
                (self.heap.len() as f64 / distinct as f64).max(1.0)
            }
        }
    }

    /// Check a whole insert batch before anything is applied: row shape,
    /// null key values, and duplicate keys against the table **and inside
    /// the batch**. Stored rows at positions `gone` count as already
    /// removed (the delete half of an `UPDATE`). After `Ok`, `append` of the
    /// same rows — after removing `gone`, if any — cannot fail.
    pub(crate) fn validate_insert(
        &self,
        rows: &[Row],
        gone: &FxHashSet<u32>,
    ) -> Result<(), StorageError> {
        let key_cols = &self.key_cols;
        // Keys of the batch so far, as `hash → row number`.
        let mut batch = PosTable::default();
        batch.reserve(rows.len());
        for (i, row) in rows.iter().enumerate() {
            self.schema.check_row(row)?;
            if key_cols.iter().any(|&c| row[c].is_null()) {
                return Err(StorageError::NullInKey {
                    table: self.name.clone(),
                });
            }
            let hash = key_hash(row, key_cols);
            let stored = self
                .stored(hash, |k| row[key_cols[k]].as_ref())
                .filter(|pos| !gone.contains(pos));
            let earlier = batch.find(hash, |j| {
                key_eq_rows(&rows[idx(j)], key_cols, row, key_cols)
            });
            if stored.is_some() || earlier.is_some() {
                return Err(StorageError::DuplicateKey {
                    table: self.name.clone(),
                    key: ojv_rel::row_display(&ojv_rel::key_of(row, key_cols)),
                });
            }
            batch.insert(hash, pos32(i));
        }
        Ok(())
    }

    /// Append rows already accepted by `validate_insert`: the heap takes
    /// the batch column at a time, then each index in turn.
    pub(crate) fn append(&mut self, rows: &[Row]) {
        let base = self.heap.len();
        self.heap.append_rows(rows);
        self.unique.reserve(rows.len());
        for (i, row) in rows.iter().enumerate() {
            self.unique
                .insert(key_hash(row, &self.key_cols), pos32(base + i));
        }
        for index in &mut self.secondary {
            index.back.reserve(rows.len());
            for (i, row) in rows.iter().enumerate() {
                index.insert(&self.heap, base + i, |c| row[c].as_ref());
            }
        }
    }

    /// Insert a batch of rows, all or nothing: the whole batch is validated
    /// before the first row is applied.
    pub fn insert_batch(&mut self, rows: &[Row]) -> Result<(), StorageError> {
        self.validate_insert(rows, &FxHashSet::default())?;
        self.append(rows);
        Ok(())
    }

    /// Insert one row, enforcing schema and key uniqueness.
    pub fn insert(&mut self, row: Row) -> Result<(), StorageError> {
        self.insert_batch(std::slice::from_ref(&row))
    }

    /// Check a whole delete batch before anything is applied: every key
    /// must name a stored row, and none may repeat inside the batch (the
    /// second occurrence would not be found once the first is applied).
    /// After `Ok`, `remove` of the same keys in order cannot fail. Returns
    /// the heap positions the keys name.
    pub(crate) fn validate_delete<K: AsRef<[Datum]>>(
        &self,
        keys: &[K],
    ) -> Result<FxHashSet<u32>, StorageError> {
        // Two keys are the same key iff they resolve to the same position.
        let mut seen = fx_set_with_capacity(keys.len());
        for key in keys {
            let key = key.as_ref();
            match self.locate(key) {
                Some((_, pos)) if seen.insert(pos) => {}
                _ => {
                    return Err(StorageError::KeyNotFound {
                        table: self.name.clone(),
                        key: ojv_rel::row_display(key),
                    })
                }
            }
        }
        Ok(seen)
    }

    /// Remove the row with unique key `key`, already accepted by
    /// `validate_delete`, and return it. Swap-remove: the heap's last row
    /// moves into the vacated position and is re-hashed in place to repoint
    /// its unique-index entry.
    pub(crate) fn remove(&mut self, key: &[Datum]) -> Row {
        let (hash, pos) = self.locate(key).expect("delete key was validated");
        let at = idx(pos);
        let row = self.heap.row(at);
        for index in &mut self.secondary {
            index.remove(&self.heap, at);
        }
        self.unique.remove(hash, pos);
        let last = self.heap.len() - 1;
        self.heap.swap_remove(at);
        if at != last {
            let moved = key_hash_with(&self.key_cols, |c| self.heap.datum_ref(at, c));
            self.unique.replace(moved, pos32(last), pos);
        }
        row
    }

    /// Delete the row with the given unique key, returning it.
    pub fn delete(&mut self, key: &[Datum]) -> Result<Row, StorageError> {
        self.validate_delete(&[key])?;
        Ok(self.remove(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ojv_rel::{Column, DataType, Schema};

    fn table() -> Table {
        let schema = Schema::shared(vec![
            Column::new("t", "id", DataType::Int, false),
            Column::new("t", "grp", DataType::Int, false),
            Column::new("t", "val", DataType::Str, true),
        ])
        .unwrap();
        Table::new("t", schema, vec![0]).unwrap()
    }

    fn row(id: i64, grp: i64, val: &str) -> Row {
        vec![Datum::Int(id), Datum::Int(grp), Datum::str(val)]
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut t = table();
        t.insert(row(1, 10, "a")).unwrap();
        t.insert(row(2, 10, "b")).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&[Datum::Int(1)]).unwrap().datum(2), Datum::str("a"));
        let deleted = t.delete(&[Datum::Int(1)]).unwrap();
        assert_eq!(deleted[0], Datum::Int(1));
        assert!(t.get(&[Datum::Int(1)]).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = table();
        t.insert(row(1, 10, "a")).unwrap();
        assert!(matches!(
            t.insert(row(1, 11, "b")),
            Err(StorageError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn delete_missing_key_errors() {
        let mut t = table();
        assert!(matches!(
            t.delete(&[Datum::Int(99)]),
            Err(StorageError::KeyNotFound { .. })
        ));
    }

    #[test]
    fn nullable_key_column_rejected_at_create() {
        let schema = Schema::shared(vec![Column::new("t", "id", DataType::Int, true)]).unwrap();
        assert!(matches!(
            Table::new("t", schema, vec![0]),
            Err(StorageError::NullInKey { .. })
        ));
    }

    #[test]
    fn swap_remove_keeps_unique_index_consistent() {
        let mut t = table();
        for i in 0..10 {
            t.insert(row(i, i % 3, "x")).unwrap();
        }
        // Delete from the middle repeatedly; lookups must stay correct.
        t.delete(&[Datum::Int(0)]).unwrap();
        t.delete(&[Datum::Int(5)]).unwrap();
        t.delete(&[Datum::Int(9)]).unwrap();
        for i in [1i64, 2, 3, 4, 6, 7, 8] {
            assert_eq!(t.get(&[Datum::Int(i)]).unwrap().datum(0), Datum::Int(i));
        }
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn secondary_index_tracks_mutations() {
        let mut t = table();
        let idx = t.add_secondary_index(vec![1]);
        for i in 0..9 {
            t.insert(row(i, i % 3, "x")).unwrap();
        }
        assert_eq!(t.count_secondary(idx, &[Datum::Int(0)]), 3);
        t.delete(&[Datum::Int(0)]).unwrap();
        t.delete(&[Datum::Int(3)]).unwrap();
        assert_eq!(t.count_secondary(idx, &[Datum::Int(0)]), 1);
        let hits: Vec<_> = t.lookup_secondary(idx, &[Datum::Int(0)]).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].datum(0), Datum::Int(6));
    }

    #[test]
    fn secondary_index_built_over_existing_rows() {
        let mut t = table();
        for i in 0..6 {
            t.insert(row(i, i % 2, "x")).unwrap();
        }
        let idx = t.add_secondary_index(vec![1]);
        assert_eq!(t.count_secondary(idx, &[Datum::Int(1)]), 3);
    }

    /// `Int(2^53)` and `Int(2^53 + 1)` hash alike (ints hash through their
    /// f64 bits) but are different keys: two slots with one hash, told
    /// apart by verifying against the heap row.
    #[test]
    fn equal_hashes_of_distinct_keys_are_resolved_by_verification() {
        let (a, b) = (1i64 << 53, (1i64 << 53) + 1);
        assert_eq!(
            ojv_rel::fx_hash_one(&[Datum::Int(a)][..]),
            ojv_rel::fx_hash_one(&[Datum::Int(b)][..])
        );
        let mut t = table();
        let idx = t.add_secondary_index(vec![1]);
        t.insert_batch(&[row(a, a, "a"), row(b, b, "b"), row(7, a, "c")])
            .unwrap();
        assert_eq!(t.get(&[Datum::Int(a)]).unwrap().datum(2), Datum::str("a"));
        assert_eq!(t.get(&[Datum::Int(b)]).unwrap().datum(2), Datum::str("b"));
        assert_eq!(t.count_secondary(idx, &[Datum::Int(a)]), 2);
        assert_eq!(t.count_secondary(idx, &[Datum::Int(b)]), 1);
        assert_eq!(t.secondary_distinct(idx), 2);
        // The colliding key is not a duplicate; the same key is.
        assert!(matches!(
            t.insert(row(a, 0, "dup")),
            Err(StorageError::DuplicateKey { .. })
        ));
        t.delete(&[Datum::Int(a)]).unwrap();
        assert!(t.get(&[Datum::Int(a)]).is_none());
        assert_eq!(t.get(&[Datum::Int(b)]).unwrap().datum(2), Datum::str("b"));
        assert_eq!(t.count_secondary(idx, &[Datum::Int(a)]), 1);
        t.delete(&[Datum::Int(b)]).unwrap();
        assert_eq!(t.count_secondary(idx, &[Datum::Int(b)]), 0);
        assert_eq!(t.secondary_distinct(idx), 1);
    }

    #[test]
    fn float_probe_finds_the_equal_int_key() {
        let mut t = table();
        let idx = t.add_secondary_index(vec![1]);
        t.insert(row(3, 10, "x")).unwrap();
        assert!(t.contains_key(&[Datum::Float(3.0)]));
        assert!(!t.contains_key(&[Datum::Float(3.5)]));
        assert_eq!(t.count_secondary(idx, &[Datum::Float(10.0)]), 1);
        assert!(t.contains_key_of(&[Datum::Null, Datum::Float(3.0)], &[1]));
        // Wrong arity never matches (and never indexes out of bounds).
        assert!(t.get(&[]).is_none());
        assert!(t.get(&[Datum::Int(3), Datum::Int(10)]).is_none());
        assert_eq!(t.count_secondary(idx, &[]), 0);
    }

    /// The candidate order of a bucket is push on insert, `swap_remove` on
    /// delete, in-place rewrite when the heap moves a row.
    #[test]
    fn secondary_lookup_order_is_push_swap_remove_reposition() {
        let mut t = table();
        let idx = t.add_secondary_index(vec![1]);
        for i in 0..6 {
            t.insert(row(i, 0, "x")).unwrap();
        }
        t.insert(row(6, 1, "y")).unwrap();
        let ids = |t: &Table| -> Vec<i64> {
            t.lookup_secondary(idx, &[Datum::Int(0)])
                .map(|r| r.datum(0).as_int().unwrap())
                .collect()
        };
        assert_eq!(ids(&t), vec![0, 1, 2, 3, 4, 5]);
        // Bucket entry 1 is swap-removed (5 takes its place); the heap moves
        // row 6 — another bucket's — into position 1.
        t.delete(&[Datum::Int(1)]).unwrap();
        assert_eq!(ids(&t), vec![0, 5, 2, 3, 4]);
        // Victim and mover share the bucket: 4 takes 0's bucket slot, then
        // the heap's last row (5) moves to position 0 in place.
        t.delete(&[Datum::Int(0)]).unwrap();
        assert_eq!(ids(&t), vec![4, 5, 2, 3]);
        let heap_ids: Vec<i64> = t
            .iter_refs()
            .map(|r| r.datum(0).as_int().unwrap())
            .collect();
        assert_eq!(heap_ids, vec![5, 6, 2, 3, 4]);
    }

    #[test]
    fn refused_batches_change_nothing() {
        let mut t = table();
        let idx = t.add_secondary_index(vec![1]);
        for i in 0..5 {
            t.insert(row(i, i % 2, "x")).unwrap();
        }
        let before: Vec<Row> = t.iter_rows().collect();
        // Duplicate inside the batch, duplicate against the table, bad shape.
        for bad in [
            vec![row(10, 0, "a"), row(11, 0, "b"), row(10, 1, "c")],
            vec![row(10, 0, "a"), row(3, 0, "b")],
            vec![row(10, 0, "a"), vec![Datum::Int(11)]],
        ] {
            assert!(t.insert_batch(&bad).is_err());
            assert_eq!(t.iter_rows().collect::<Vec<_>>(), before);
            assert!(t.get(&[Datum::Int(10)]).is_none());
            assert_eq!(t.count_secondary(idx, &[Datum::Int(0)]), 3);
        }
        // Missing key mid-batch, and one key twice.
        let k = |i: i64| vec![Datum::Int(i)];
        for bad in [vec![k(1), k(99), k(2)], vec![k(1), k(2), k(1)]] {
            assert!(matches!(
                t.validate_delete(&bad),
                Err(StorageError::KeyNotFound { .. })
            ));
        }
        assert!(t.validate_delete(&[k(1), k(2)]).is_ok());
        assert_eq!(t.iter_rows().collect::<Vec<_>>(), before);
    }

    #[test]
    fn null_in_key_value_rejected() {
        // A nullable column sneaking a null into the key is impossible by
        // construction (key cols must be non-nullable), but check_row also
        // rejects nulls in non-nullable columns.
        let mut t = table();
        assert!(t
            .insert(vec![Datum::Null, Datum::Int(0), Datum::Null])
            .is_err());
    }

    #[test]
    fn heap_order_matches_insert_then_swap_remove_model() {
        // The heap must report rows in exactly the order the old
        // `Vec<Row>` + swap_remove storage did: checkpoint bytes and
        // restore determinism depend on it.
        let mut t = table();
        let mut model: Vec<Row> = Vec::new();
        for i in 0..50 {
            let r = row(i, i % 7, "v");
            t.insert(r.clone()).unwrap();
            model.push(r);
        }
        for key in [0i64, 25, 49, 13] {
            let pos = model.iter().position(|r| r[0] == Datum::Int(key)).unwrap();
            t.delete(&[Datum::Int(key)]).unwrap();
            model.swap_remove(pos);
        }
        let got: Vec<Row> = t.iter_rows().collect();
        assert_eq!(got, model);
    }
}
