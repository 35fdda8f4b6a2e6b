//! Flat wide-row batches.
//!
//! The executor's unit of data flow used to be `Vec<Row>` — a vector of
//! independently heap-allocated `Vec<Datum>` rows. Every operator that
//! produced rows paid one allocation per row, and iterating a batch chased a
//! pointer per row. [`RowBuf`] flattens a batch into **one contiguous
//! `Vec<Datum>`** with a fixed row stride (`width`), so producing a row is a
//! bump of the same backing vector and scanning a batch is a linear walk.
//! Rows are exposed as `&[Datum]` slices, which every existing helper
//! (`key_of`, `all_null`, predicate evaluation, …) already accepts.
//!
//! `width == 0` batches (legal for empty schemas) cannot carry a row count in
//! `data.len()`, so the count is tracked explicitly.

use crate::datum::Datum;
use crate::fxhash::FxHasher;
use crate::row::Row;
use std::hash::{Hash, Hasher};

/// A batch of rows stored in one contiguous `Vec<Datum>` with fixed stride.
#[derive(Debug, Clone, PartialEq)]
pub struct RowBuf {
    width: usize,
    len: usize,
    data: Vec<Datum>,
}

impl RowBuf {
    /// An empty batch of rows with `width` columns.
    pub fn new(width: usize) -> Self {
        RowBuf {
            width,
            len: 0,
            data: Vec::new(),
        }
    }

    /// An empty batch with room for `rows` rows.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        RowBuf {
            width,
            len: 0,
            data: Vec::with_capacity(width * rows),
        }
    }

    /// Build from materialized rows (each must have exactly `width` datums).
    pub fn from_rows(width: usize, rows: &[Row]) -> Self {
        let mut buf = RowBuf::with_capacity(width, rows.len());
        for r in rows {
            buf.push_row(r);
        }
        buf
    }

    /// Number of columns per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Datum] {
        debug_assert!(i < self.len);
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Datum] {
        debug_assert!(i < self.len);
        &mut self.data[i * self.width..(i + 1) * self.width]
    }

    /// Append a row by cloning from a slice. Panics if the width mismatches.
    #[inline]
    pub fn push_row(&mut self, row: &[Datum]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.data.extend_from_slice(row);
        self.len += 1;
    }

    /// Append `width` nulls and return a mutable view of the fresh row, so
    /// producers can write columns in place without a scratch row.
    #[inline]
    pub fn push_null_row(&mut self) -> &mut [Datum] {
        self.data.resize(self.data.len() + self.width, Datum::Null);
        self.len += 1;
        let start = (self.len - 1) * self.width;
        &mut self.data[start..]
    }

    /// Iterate rows as slices.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Datum]> + Clone {
        // `chunks_exact(0)` panics, so give the degenerate zero-width batch
        // a stride of 1 over an empty buffer padded per row.
        RowBufIter { buf: self, next: 0 }
    }

    /// Keep only rows whose flag is set, compacting in place — no per-row
    /// allocation, no datum clones (rows are moved by swapping).
    pub fn retain_rows(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len);
        let w = self.width;
        let mut dst = 0usize;
        for (src, &k) in keep.iter().enumerate() {
            if k {
                if src != dst && w > 0 {
                    let (lo, hi) = self.data.split_at_mut(src * w);
                    lo[dst * w..dst * w + w].swap_with_slice(&mut hi[..w]);
                }
                dst += 1;
            }
        }
        self.truncate_rows(dst);
    }

    /// Remove row `i` by moving the last row into its place (no allocation,
    /// no datum clone).
    pub fn swap_remove_row(&mut self, i: usize) {
        let (w, last) = (self.width, self.len - 1);
        if i != last && w > 0 {
            let (lo, hi) = self.data.split_at_mut(last * w);
            lo[i * w..i * w + w].swap_with_slice(&mut hi[..w]);
        }
        self.truncate_rows(last);
    }

    /// Drop all rows past `keep`.
    pub fn truncate_rows(&mut self, keep: usize) {
        if keep < self.len {
            self.data.truncate(keep * self.width);
            self.len = keep;
        }
    }

    /// Convert into the legacy `Vec<Row>` shape (one allocation per row) —
    /// only for API boundaries that still speak `Vec<Row>`.
    pub fn into_rows(self) -> Vec<Row> {
        let width = self.width;
        let mut out = Vec::with_capacity(self.len);
        if width == 0 {
            out.resize(self.len, Vec::new());
            return out;
        }
        let mut data = self.data.into_iter();
        for _ in 0..self.len {
            out.push(data.by_ref().take(width).collect());
        }
        out
    }

    /// Clone into `Vec<Row>` without consuming the batch.
    pub fn to_rows(&self) -> Vec<Row> {
        self.iter().map(|r| r.to_vec()).collect()
    }
}

/// Iterator over the rows of a [`RowBuf`] as borrowed slices.
#[derive(Clone)]
pub struct RowBufIter<'a> {
    buf: &'a RowBuf,
    next: usize,
}

impl<'a> Iterator for RowBufIter<'a> {
    type Item = &'a [Datum];

    #[inline]
    fn next(&mut self) -> Option<&'a [Datum]> {
        if self.next < self.buf.len {
            let r = self.buf.row(self.next);
            self.next += 1;
            Some(r)
        } else {
            None
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.buf.len - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RowBufIter<'_> {}

impl<'a> IntoIterator for &'a RowBuf {
    type Item = &'a [Datum];
    type IntoIter = RowBufIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        RowBufIter { buf: self, next: 0 }
    }
}

/// Hash the key columns of a row **in place** with the fast deterministic
/// hasher — no key vector is materialized.
///
/// Matches `fx_hash_one(&key_of(row, cols))` exactly: `Vec<Datum>` and
/// `[Datum]` share the slice `Hash` impl (length prefix then elements), so
/// this hash can probe any fx-hashed map keyed by owned `Vec<Datum>` keys.
#[inline]
pub fn key_hash(row: &[Datum], cols: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    cols.len().hash(&mut h);
    for &c in cols {
        row[c].hash(&mut h);
    }
    h.finish()
}

/// [`key_hash`] over an *accessor* instead of a row slice: hashes the key
/// columns produced by `get(col)` with the same deterministic stream, so a
/// columnar row (which cannot yield `&[Datum]`) probes the same buckets.
/// `DatumRef`'s `Hash` impl is byte-identical to `Datum`'s.
#[inline]
pub fn key_hash_with<'a>(cols: &[usize], get: impl Fn(usize) -> crate::DatumRef<'a>) -> u64 {
    let mut h = FxHasher::default();
    cols.len().hash(&mut h);
    for &c in cols {
        get(c).hash(&mut h);
    }
    h.finish()
}

/// True iff the key columns of `row` equal `key` element-wise (plain `Eq`,
/// the same equivalence hash tables use — *not* SQL null semantics).
#[inline]
pub fn key_eq(row: &[Datum], cols: &[usize], key: &[Datum]) -> bool {
    cols.len() == key.len() && cols.iter().zip(key).all(|(&c, k)| row[c] == *k)
}

/// True iff two rows agree on their respective key columns.
#[inline]
pub fn key_eq_rows(a: &[Datum], a_cols: &[usize], b: &[Datum], b_cols: &[usize]) -> bool {
    a_cols.len() == b_cols.len() && a_cols.iter().zip(b_cols).all(|(&ca, &cb)| a[ca] == b[cb])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::fx_hash_one;
    use crate::row::key_of;

    fn d(i: i64) -> Datum {
        Datum::Int(i)
    }

    #[test]
    fn push_and_view() {
        let mut b = RowBuf::new(3);
        b.push_row(&[d(1), d(2), d(3)]);
        b.push_row(&[d(4), d(5), d(6)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1), &[d(4), d(5), d(6)]);
        let rows: Vec<_> = b.iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], &[d(1), d(2), d(3)]);
        b.push_row(&[d(7), d(8), d(9)]);
        b.swap_remove_row(0);
        assert_eq!(
            b.to_rows(),
            vec![vec![d(7), d(8), d(9)], vec![d(4), d(5), d(6)]]
        );
        b.swap_remove_row(1);
        b.truncate_rows(1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.to_rows(), vec![vec![d(7), d(8), d(9)]]);
    }

    #[test]
    fn push_null_row_in_place_write() {
        let mut b = RowBuf::new(2);
        let r = b.push_null_row();
        r[1] = d(9);
        assert_eq!(b.row(0), &[Datum::Null, d(9)]);
    }

    #[test]
    fn zero_width_rows_are_counted() {
        let mut b = RowBuf::new(0);
        b.push_row(&[]);
        b.push_row(&[]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.iter().count(), 2);
        assert_eq!(b.into_rows(), vec![Vec::<Datum>::new(), Vec::new()]);
    }

    #[test]
    fn retain_compacts_in_place() {
        let mut b = RowBuf::from_rows(
            2,
            &[
                vec![d(1), d(2)],
                vec![d(3), d(4)],
                vec![d(5), d(6)],
                vec![d(7), d(8)],
            ],
        );
        b.retain_rows(&[false, true, false, true]);
        assert_eq!(b.to_rows(), vec![vec![d(3), d(4)], vec![d(7), d(8)]]);
        let mut empty = RowBuf::new(0);
        empty.push_row(&[]);
        empty.push_row(&[]);
        empty.retain_rows(&[false, true]);
        assert_eq!(empty.len(), 1);
    }

    #[test]
    fn round_trip_rows() {
        let rows = vec![vec![d(1), d(2)], vec![d(3), d(4)], vec![d(5), d(6)]];
        let b = RowBuf::from_rows(2, &rows);
        assert_eq!(b.to_rows(), rows);
        assert_eq!(b.into_rows(), rows);
    }

    #[test]
    fn key_hash_matches_owned_key_hash() {
        let row = vec![d(10), Datum::str("abc"), d(30), Datum::Null];
        for cols in [&[0usize, 2][..], &[1][..], &[3, 0][..], &[][..]] {
            assert_eq!(
                key_hash(&row, cols),
                fx_hash_one(&key_of(&row, cols)),
                "cols {cols:?}"
            );
        }
    }

    #[test]
    fn key_eq_checks() {
        let row = vec![d(1), d(2), d(3)];
        assert!(key_eq(&row, &[2, 0], &[d(3), d(1)]));
        assert!(!key_eq(&row, &[2, 0], &[d(3), d(2)]));
        assert!(!key_eq(&row, &[2], &[d(3), d(1)]));
        let other = vec![d(3), d(1)];
        assert!(key_eq_rows(&row, &[2, 0], &other, &[0, 1]));
        assert!(!key_eq_rows(&row, &[0, 2], &other, &[0, 1]));
    }
}
