//! Segmented column-major row heap with per-column null bitmaps.
//!
//! [`ColumnHeap`] replaces the old `Vec<Row>` (one boxed `Vec<Datum>` per
//! row, 32 bytes per datum plus a heap allocation per row) with typed
//! column vectors split into fixed-size segments:
//!
//! * each column stores its native representation (`i64`, `f64`, `i32`,
//!   `bool`, `Arc<str>`) contiguously — residual predicate evaluation and
//!   key hashing read sequential memory instead of striding across row
//!   allocations;
//! * nulls live in a per-segment bitmap (one bit per row), so a null costs
//!   one bit plus the column's default slot instead of a tagged enum;
//! * segments are fixed at [`SEG_ROWS`] rows, so growing to SF=1
//!   (~6M lineitem rows) never copies the whole heap the way one giant
//!   `Vec` realloc would;
//! * string columns intern through a per-heap pool: low-cardinality TPC-H
//!   columns (return flags, ship modes, priorities) collapse to one
//!   `Arc<str>` per distinct value. The pool forgets strings no row holds
//!   any more (an amortized sweep, see [`StrPool`]), so it stays within a
//!   constant factor of the live distinct strings.
//!
//! Rows are addressed by dense position (`0..len`), exactly like the old
//! heap; deletion is swap-remove. Readers get a [`RowRef`] — position +
//! heap — whose accessors return [`DatumRef`] views with `Datum`-identical
//! equality and hashing, or materialize owned datums by cloning the
//! backing `Arc` (never re-allocating string bytes).
//!
//! ## Numeric canonicalization
//!
//! Schemas admit `Int` datums in `Float` columns (numeric widening). The
//! heap stores a `Float` column as `f64`, so such datums are canonicalized
//! to `Float` on insert. This is invisible to the engine: `Datum` equality,
//! ordering, and hashing are already cross-type for exactly this pair, and
//! every maintenance path (including recompute and recovery replay) reads
//! the same canonicalized storage.

use std::sync::Arc;

use ojv_rel::{DataType, Datum, DatumRef, FxHashSet, Row, SchemaRef};

/// Rows per segment. 4096 keeps a segment's largest column (16-byte
/// `Arc<str>` slots) at 64 KiB — big enough to amortize per-segment
/// bookkeeping, small enough that growth never stalls on a huge copy.
pub const SEG_ROWS: usize = 4096;

const WORDS_PER_SEG: usize = SEG_ROWS / 64;

/// Typed storage for one segment of one column.
#[derive(Debug, Clone)]
enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<Arc<str>>),
    Date(Vec<i32>),
}

impl ColumnData {
    fn with_type(ty: DataType) -> ColumnData {
        match ty {
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Date(v) => v.len(),
        }
    }

    fn pop(&mut self) {
        match self {
            ColumnData::Bool(v) => {
                v.pop();
            }
            ColumnData::Int(v) => {
                v.pop();
            }
            ColumnData::Float(v) => {
                v.pop();
            }
            ColumnData::Str(v) => {
                v.pop();
            }
            ColumnData::Date(v) => {
                v.pop();
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.capacity(),
            ColumnData::Int(v) => v.capacity() * 8,
            ColumnData::Float(v) => v.capacity() * 8,
            // Arc slot only; the string bytes are shared and counted by the
            // intern pool estimate.
            ColumnData::Str(v) => v.capacity() * std::mem::size_of::<Arc<str>>(),
            ColumnData::Date(v) => v.capacity() * 4,
        }
    }
}

/// One column segment: up to [`SEG_ROWS`] values plus a null bitmap.
#[derive(Debug, Clone)]
struct Segment {
    nulls: [u64; WORDS_PER_SEG],
    data: ColumnData,
}

impl Segment {
    fn new(ty: DataType) -> Segment {
        Segment {
            nulls: [0; WORDS_PER_SEG],
            data: ColumnData::with_type(ty),
        }
    }

    #[inline]
    fn is_null(&self, off: usize) -> bool {
        self.nulls[off / 64] & (1 << (off % 64)) != 0
    }

    #[inline]
    fn set_null(&mut self, off: usize, null: bool) {
        let mask = 1u64 << (off % 64);
        if null {
            self.nulls[off / 64] |= mask;
        } else {
            self.nulls[off / 64] &= !mask;
        }
    }

    /// Append column `ci` of every row in `run` at offsets `off..`: the
    /// type dispatch happens once per run, not once per datum. Slots past
    /// the segment's length always carry a clear null bit, so only nulls
    /// touch the bitmap.
    fn append_run<R: AsRef<[Datum]>>(
        &mut self,
        run: &[R],
        ci: usize,
        off: usize,
        pool: &mut StrPool,
        empty: &Arc<str>,
    ) {
        fn extend<R: AsRef<[Datum]>, T: Clone>(
            v: &mut Vec<T>,
            nulls: &mut [u64; WORDS_PER_SEG],
            (run, ci, off): (&[R], usize, usize),
            null_slot: T,
            mut value: impl FnMut(&Datum) -> Option<T>,
        ) {
            v.reserve(run.len());
            for (k, row) in run.iter().enumerate() {
                let datum = &row.as_ref()[ci];
                match value(datum) {
                    Some(x) => v.push(x),
                    None if datum.is_null() => {
                        nulls[(off + k) / 64] |= 1 << ((off + k) % 64);
                        v.push(null_slot.clone());
                    }
                    None => {
                        unreachable!("datum {datum:?} in the wrong column (schema was checked)")
                    }
                }
            }
        }
        let at = (run, ci, off);
        match &mut self.data {
            ColumnData::Bool(v) => extend(v, &mut self.nulls, at, false, |d| match d {
                Datum::Bool(b) => Some(*b),
                _ => None,
            }),
            ColumnData::Int(v) => extend(v, &mut self.nulls, at, 0, |d| match d {
                Datum::Int(i) => Some(*i),
                _ => None,
            }),
            // Numeric widening: schemas admit Int datums in Float columns;
            // store the canonical float (see module docs).
            ColumnData::Float(v) => extend(v, &mut self.nulls, at, 0.0, |d| match d {
                Datum::Float(f) => Some(*f),
                Datum::Int(i) => Some(*i as f64),
                _ => None,
            }),
            ColumnData::Str(v) => extend(v, &mut self.nulls, at, empty.clone(), |d| match d {
                Datum::Str(s) => Some(pool.intern(s)),
                _ => None,
            }),
            ColumnData::Date(v) => extend(v, &mut self.nulls, at, 0, |d| match d {
                Datum::Date(x) => Some(*x),
                _ => None,
            }),
        }
    }
}

/// The per-heap string intern pool.
///
/// A string leaves the pool once no row (and no reader still holding a
/// materialized copy) references it: when the pool has doubled since the
/// last sweep, entries whose only owner is the pool itself are dropped.
/// The sweep is O(pool) and runs once per doubling, so interning stays
/// amortized O(1) and the pool never exceeds twice the strings that were
/// live at the last sweep (plus the floor below).
#[derive(Debug, Clone)]
struct StrPool {
    set: FxHashSet<Arc<str>>,
    sweep_at: usize,
}

/// Pools this small are not worth sweeping.
const MIN_SWEEP: usize = 1024;

impl StrPool {
    fn new() -> StrPool {
        StrPool {
            set: FxHashSet::default(),
            sweep_at: MIN_SWEEP,
        }
    }

    fn intern(&mut self, s: &Arc<str>) -> Arc<str> {
        if let Some(existing) = self.set.get(s.as_ref()) {
            return existing.clone();
        }
        if self.set.len() >= self.sweep_at {
            self.set.retain(|held| Arc::strong_count(held) > 1);
            self.sweep_at = (self.set.len() * 2).max(MIN_SWEEP);
        }
        self.set.insert(s.clone());
        s.clone()
    }
}

/// One column: its declared type and the segment chain.
#[derive(Debug, Clone)]
struct Column {
    ty: DataType,
    segs: Vec<Segment>,
}

/// A column-major row heap addressed by dense position.
#[derive(Debug, Clone)]
pub struct ColumnHeap {
    schema: SchemaRef,
    cols: Vec<Column>,
    len: usize,
    /// Intern pool for string values across all string columns.
    pool: StrPool,
    /// Shared empty string used as the slot default for null strings.
    empty: Arc<str>,
}

impl ColumnHeap {
    pub fn new(schema: SchemaRef) -> ColumnHeap {
        let cols = schema
            .columns()
            .iter()
            .map(|c| Column {
                ty: c.ty,
                segs: Vec::new(),
            })
            .collect();
        ColumnHeap {
            schema,
            cols,
            len: 0,
            pool: StrPool::new(),
            empty: Arc::from(""),
        }
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Append one row. The caller (the table) has already checked the row
    /// against the schema; a type mismatch here is a storage bug.
    pub fn push_row(&mut self, row: &[Datum]) {
        self.append_rows(&[row]);
    }

    /// Append a batch of schema-checked rows column at a time: per column,
    /// one segment lookup and one type dispatch per run of rows that lands
    /// in the same segment.
    pub fn append_rows<R: AsRef<[Datum]>>(&mut self, rows: &[R]) {
        debug_assert!(
            rows.iter().all(|r| r.as_ref().len() == self.cols.len()),
            "row arity mismatch"
        );
        for (ci, col) in self.cols.iter_mut().enumerate() {
            let mut done = 0;
            while done < rows.len() {
                let off = (self.len + done) % SEG_ROWS;
                if off == 0 {
                    col.segs.push(Segment::new(col.ty));
                }
                let run = &rows[done..rows.len().min(done + SEG_ROWS - off)];
                let seg = col.segs.last_mut().expect("segment just ensured");
                seg.append_run(run, ci, off, &mut self.pool, &self.empty);
                done += run.len();
            }
        }
        self.len += rows.len();
    }

    /// Remove the row at `pos` by moving the last row into its place
    /// (no-op move when `pos` is the last row). Mirrors `Vec::swap_remove`.
    pub fn swap_remove(&mut self, pos: usize) {
        assert!(pos < self.len, "swap_remove position out of bounds");
        let last = self.len - 1;
        let (lseg, loff) = (last / SEG_ROWS, last % SEG_ROWS);
        if pos != last {
            let (pseg, poff) = (pos / SEG_ROWS, pos % SEG_ROWS);
            for col in &mut self.cols {
                let moved_null = col.segs[lseg].is_null(loff);
                // Move the last value into `pos` within this column.
                if pseg == lseg {
                    let seg = &mut col.segs[pseg];
                    seg.set_null(poff, moved_null);
                    match &mut seg.data {
                        ColumnData::Bool(v) => v.swap(poff, loff),
                        ColumnData::Int(v) => v.swap(poff, loff),
                        ColumnData::Float(v) => v.swap(poff, loff),
                        ColumnData::Str(v) => v.swap(poff, loff),
                        ColumnData::Date(v) => v.swap(poff, loff),
                    }
                } else {
                    let (front, back) = col.segs.split_at_mut(lseg);
                    let psegment = &mut front[pseg];
                    let lsegment = &mut back[0];
                    psegment.set_null(poff, moved_null);
                    match (&mut psegment.data, &mut lsegment.data) {
                        (ColumnData::Bool(p), ColumnData::Bool(l)) => p[poff] = l[loff],
                        (ColumnData::Int(p), ColumnData::Int(l)) => p[poff] = l[loff],
                        (ColumnData::Float(p), ColumnData::Float(l)) => p[poff] = l[loff],
                        (ColumnData::Str(p), ColumnData::Str(l)) => {
                            p[poff] = std::mem::replace(&mut l[loff], self.empty.clone());
                        }
                        (ColumnData::Date(p), ColumnData::Date(l)) => p[poff] = l[loff],
                        _ => unreachable!("segments of one column share a type"),
                    }
                }
            }
        }
        // Truncate the tail slot in every column.
        for col in &mut self.cols {
            let seg = col.segs.last_mut().expect("non-empty heap has segments");
            seg.data.pop();
            seg.set_null(loff, false);
            if seg.data.len() == 0 {
                col.segs.pop();
            }
        }
        self.len -= 1;
    }

    /// Is the value at (`pos`, `col`) NULL?
    #[inline]
    pub fn is_null(&self, pos: usize, col: usize) -> bool {
        debug_assert!(pos < self.len);
        self.cols[col].segs[pos / SEG_ROWS].is_null(pos % SEG_ROWS)
    }

    /// Borrowed view of the value at (`pos`, `col`).
    #[inline]
    pub fn datum_ref(&self, pos: usize, col: usize) -> DatumRef<'_> {
        debug_assert!(pos < self.len, "row position out of bounds");
        let seg = &self.cols[col].segs[pos / SEG_ROWS];
        let off = pos % SEG_ROWS;
        if seg.is_null(off) {
            return DatumRef::Null;
        }
        match &seg.data {
            ColumnData::Bool(v) => DatumRef::Bool(v[off]),
            ColumnData::Int(v) => DatumRef::Int(v[off]),
            ColumnData::Float(v) => DatumRef::Float(v[off]),
            ColumnData::Str(v) => DatumRef::Str(&v[off]),
            ColumnData::Date(v) => DatumRef::Date(v[off]),
        }
    }

    /// Owned value at (`pos`, `col`); strings clone the backing `Arc`.
    #[inline]
    pub fn datum(&self, pos: usize, col: usize) -> Datum {
        let seg = &self.cols[col].segs[pos / SEG_ROWS];
        let off = pos % SEG_ROWS;
        if seg.is_null(off) {
            return Datum::Null;
        }
        match &seg.data {
            ColumnData::Bool(v) => Datum::Bool(v[off]),
            ColumnData::Int(v) => Datum::Int(v[off]),
            ColumnData::Float(v) => Datum::Float(v[off]),
            ColumnData::Str(v) => Datum::Str(v[off].clone()),
            ColumnData::Date(v) => Datum::Date(v[off]),
        }
    }

    /// Write row `pos` into `out[..width]` (a wide-row slot, say).
    pub fn copy_row_into(&self, pos: usize, out: &mut [Datum]) {
        debug_assert_eq!(out.len(), self.cols.len(), "slot width mismatch");
        for (ci, slot) in out.iter_mut().enumerate() {
            *slot = self.datum(pos, ci);
        }
    }

    /// Materialize row `pos` as an owned row.
    pub fn row(&self, pos: usize) -> Row {
        (0..self.cols.len()).map(|ci| self.datum(pos, ci)).collect()
    }

    /// Borrowed handle to row `pos`.
    #[inline]
    pub fn row_ref(&self, pos: usize) -> RowRef<'_> {
        debug_assert!(pos < self.len, "row position out of bounds");
        RowRef { heap: self, pos }
    }

    /// Iterate all rows as borrowed handles, in heap (position) order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + Clone {
        (0..self.len).map(move |pos| RowRef { heap: self, pos })
    }

    /// Rough heap footprint in bytes: column buffers, null bitmaps, and the
    /// intern pool's string bytes. Used by the bench memory report.
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0;
        for col in &self.cols {
            for seg in &col.segs {
                total += seg.data.heap_bytes() + WORDS_PER_SEG * 8;
            }
        }
        for s in &self.pool.set {
            total += s.len() + std::mem::size_of::<Arc<str>>();
        }
        total
    }
}

/// A borrowed row of a [`ColumnHeap`]: the position-stable handle probe
/// loops pass around instead of `&[Datum]`.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    heap: &'a ColumnHeap,
    pos: usize,
}

impl<'a> RowRef<'a> {
    /// Number of columns.
    #[inline]
    pub fn width(self) -> usize {
        self.heap.width()
    }

    /// Borrowed view of column `col`.
    #[inline]
    pub fn dat(self, col: usize) -> DatumRef<'a> {
        self.heap.datum_ref(self.pos, col)
    }

    /// Owned value of column `col` (strings clone the backing `Arc`).
    #[inline]
    pub fn datum(self, col: usize) -> Datum {
        self.heap.datum(self.pos, col)
    }

    /// Is column `col` NULL?
    #[inline]
    pub fn is_null(self, col: usize) -> bool {
        self.heap.is_null(self.pos, col)
    }

    /// Write this row into `out[..width]`.
    #[inline]
    pub fn copy_into(self, out: &mut [Datum]) {
        self.heap.copy_row_into(self.pos, out);
    }

    /// Materialize an owned row.
    pub fn to_row(self) -> Row {
        self.heap.row(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ojv_rel::{Column as SchemaColumn, Schema};

    fn schema() -> SchemaRef {
        Schema::shared(vec![
            SchemaColumn::new("t", "id", DataType::Int, false),
            SchemaColumn::new("t", "f", DataType::Float, true),
            SchemaColumn::new("t", "s", DataType::Str, true),
            SchemaColumn::new("t", "d", DataType::Date, true),
            SchemaColumn::new("t", "b", DataType::Bool, true),
        ])
        .unwrap()
    }

    fn row(id: i64, s: Option<&str>) -> Row {
        vec![
            Datum::Int(id),
            Datum::Float(id as f64 + 0.5),
            s.map_or(Datum::Null, Datum::str),
            Datum::Date(id as i32),
            Datum::Bool(id % 2 == 0),
        ]
    }

    #[test]
    fn push_and_read_back() {
        let mut h = ColumnHeap::new(schema());
        for i in 0..10 {
            h.push_row(&row(i, if i % 3 == 0 { None } else { Some("x") }));
        }
        assert_eq!(h.len(), 10);
        for i in 0..10usize {
            assert_eq!(
                h.row(i),
                row(i as i64, if i % 3 == 0 { None } else { Some("x") })
            );
            assert_eq!(h.is_null(i, 2), i % 3 == 0);
        }
    }

    #[test]
    fn swap_remove_matches_vec_model() {
        let mut h = ColumnHeap::new(schema());
        let mut model: Vec<Row> = Vec::new();
        for i in 0..200 {
            let r = row(i, Some(if i % 5 == 0 { "a" } else { "b" }));
            h.push_row(&r);
            model.push(r);
        }
        // Remove from front, middle, back in a scripted order.
        for &pos in &[0usize, 150, 150, 7, 99, 0, 100] {
            h.swap_remove(pos);
            model.swap_remove(pos);
            assert_eq!(h.len(), model.len());
        }
        for (i, m) in model.iter().enumerate() {
            assert_eq!(&h.row(i), m, "row {i}");
        }
    }

    #[test]
    fn crosses_segment_boundaries() {
        let mut h = ColumnHeap::new(schema());
        let n = SEG_ROWS * 2 + 17;
        for i in 0..n {
            h.push_row(&row(i as i64, Some("s")));
        }
        assert_eq!(h.len(), n);
        assert_eq!(h.row(SEG_ROWS)[0], Datum::Int(SEG_ROWS as i64));
        // Swap-remove across the segment boundary: the mover comes from the
        // tail segment into the first.
        h.swap_remove(3);
        assert_eq!(h.row(3)[0], Datum::Int((n - 1) as i64));
        assert_eq!(h.len(), n - 1);
        // Drain the tail far enough to drop a whole segment.
        for _ in 0..(SEG_ROWS + 20) {
            h.swap_remove(h.len() - 1);
        }
        assert_eq!(h.len(), n - 1 - SEG_ROWS - 20);
        assert_eq!(h.row(0)[0], Datum::Int(0));
    }

    #[test]
    fn int_in_float_column_is_canonicalized() {
        let mut h = ColumnHeap::new(schema());
        h.push_row(&[
            Datum::Int(1),
            Datum::Int(7), // Int into the Float column: widened on insert
            Datum::Null,
            Datum::Null,
            Datum::Null,
        ]);
        assert_eq!(h.datum(0, 1), Datum::Float(7.0));
        // Equality and hashing treat Int(7) and Float(7.0) identically.
        assert_eq!(h.datum(0, 1), Datum::Int(7));
    }

    #[test]
    fn interning_dedupes_strings() {
        let mut h = ColumnHeap::new(schema());
        for i in 0..100 {
            h.push_row(&row(i, Some("repeated")));
        }
        assert_eq!(h.pool.set.len(), 1);
        match (h.datum_ref(0, 2), h.datum_ref(99, 2)) {
            (DatumRef::Str(a), DatumRef::Str(b)) => {
                assert!(std::ptr::eq(a, b), "interned strings share storage");
            }
            other => panic!("expected strings, got {other:?}"),
        }
    }

    #[test]
    fn batch_append_equals_row_at_a_time() {
        // Batches that start mid-segment, span a whole segment and carry
        // nulls in every column kind must read back like single pushes.
        let rows: Vec<Row> = (0..(SEG_ROWS as i64 * 2 + 100))
            .map(|i| {
                let mut r = row(
                    i,
                    (i % 3 != 0).then_some(if i % 2 == 0 { "a" } else { "b" }),
                );
                if i % 7 == 0 {
                    r[1] = Datum::Null;
                    r[3] = Datum::Null;
                    r[4] = Datum::Null;
                } else if i % 5 == 0 {
                    r[1] = Datum::Int(i); // widened into the Float column
                }
                r
            })
            .collect();
        let mut one = ColumnHeap::new(schema());
        for r in &rows {
            one.push_row(r);
        }
        let mut batched = ColumnHeap::new(schema());
        let mut rest = rows.as_slice();
        for n in [10, SEG_ROWS - 3, 1, SEG_ROWS + 50, usize::MAX] {
            let (head, tail) = rest.split_at(n.min(rest.len()));
            batched.append_rows(head);
            rest = tail;
        }
        assert_eq!(batched.len(), rows.len());
        // A swap-removed tail slot must not leave a stale null bit behind.
        for h in [&mut one, &mut batched] {
            h.swap_remove(0);
            h.append_rows(&[row(-1, Some("tail"))]);
        }
        for pos in 0..one.len() {
            assert_eq!(batched.row(pos), one.row(pos), "row {pos}");
        }
    }

    #[test]
    fn intern_pool_forgets_deleted_strings() {
        // A stationary table of unique strings: the pool must track the
        // live set, not every string ever stored.
        let mut h = ColumnHeap::new(schema());
        let live = MIN_SWEEP;
        let mut next = 0i64;
        let mut after_round_10 = 0;
        for round in 0..200 {
            let batch: Vec<Row> = (0..live)
                .map(|_| {
                    next += 1;
                    row(next, Some(&format!("unique comment number {next}")))
                })
                .collect();
            h.append_rows(&batch);
            drop(batch);
            while h.len() > live {
                h.swap_remove(0);
            }
            if round == 10 {
                after_round_10 = h.approx_bytes();
            }
        }
        assert!(
            h.approx_bytes() <= 2 * after_round_10,
            "pool grew from {after_round_10} to {} bytes over 190 stationary rounds",
            h.approx_bytes()
        );
        assert!(h.pool.set.len() <= 4 * live, "{} pooled", h.pool.set.len());
    }

    #[test]
    fn datum_ref_equals_owned() {
        let mut h = ColumnHeap::new(schema());
        let r = row(42, Some("z"));
        h.push_row(&r);
        let rr = h.row_ref(0);
        for (ci, d) in r.iter().enumerate() {
            assert_eq!(rr.dat(ci), d.as_ref());
            assert_eq!(rr.datum(ci), *d);
        }
        let mut out = vec![Datum::Null; 5];
        rr.copy_into(&mut out);
        assert_eq!(out, r);
    }

    #[test]
    fn approx_bytes_grows_with_rows() {
        let mut h = ColumnHeap::new(schema());
        let empty = h.approx_bytes();
        for i in 0..1000 {
            h.push_row(&row(i, Some("abcdefgh")));
        }
        assert!(h.approx_bytes() > empty);
    }
}
