//! The view-wide row layout.

use ojv_algebra::{ColRef, TableId, TableSet};
use ojv_rel::{Column, Datum, Row, Schema, SchemaRef};
use ojv_storage::{Catalog, StorageError};

/// One base table's slot range within the wide row.
#[derive(Debug, Clone)]
pub struct TableSlot {
    pub name: String,
    /// First wide-row column of this table.
    pub offset: usize,
    /// Number of columns.
    pub len: usize,
    /// Wide-row (global) indexes of the table's unique-key columns.
    pub key_cols: Vec<usize>,
    /// The base table's own schema.
    pub schema: SchemaRef,
}

/// The wide-row layout for one view: the ordered list of base tables it
/// references, with each table's column range and key positions.
#[derive(Debug, Clone)]
pub struct ViewLayout {
    slots: Vec<TableSlot>,
    width: usize,
    wide_schema: SchemaRef,
}

impl ViewLayout {
    /// Build a layout for `tables` (in view order) resolved against the
    /// catalog.
    pub fn new(catalog: &Catalog, tables: &[&str]) -> Result<Self, StorageError> {
        if tables.len() > TableSet::MAX_TABLES {
            return Err(StorageError::TooManyTables {
                count: tables.len(),
                max: TableSet::MAX_TABLES,
            });
        }
        let mut slots = Vec::with_capacity(tables.len());
        let mut wide_cols: Vec<Column> = Vec::new();
        let mut offset = 0usize;
        for name in tables {
            let t = catalog.table(name)?;
            let schema = t.schema().clone();
            let key_cols = t.key_cols().iter().map(|&c| offset + c).collect();
            for c in schema.columns() {
                // Every wide column is nullable: any tuple may be
                // null-extended on this table.
                let mut c = c.clone();
                c.nullable = true;
                wide_cols.push(c);
            }
            let len = schema.len();
            slots.push(TableSlot {
                name: name.to_string(),
                offset,
                len,
                key_cols,
                schema,
            });
            offset += len;
        }
        Ok(ViewLayout {
            slots,
            width: offset,
            wide_schema: Schema::shared(wide_cols)?,
        })
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn table_count(&self) -> usize {
        self.slots.len()
    }

    pub fn slots(&self) -> &[TableSlot] {
        &self.slots
    }

    pub fn slot(&self, t: TableId) -> &TableSlot {
        &self.slots[t.index()]
    }

    /// The schema of wide rows (all columns nullable).
    pub fn wide_schema(&self) -> &SchemaRef {
        &self.wide_schema
    }

    /// The set of all tables in the layout.
    pub fn all_tables(&self) -> TableSet {
        TableSet::first_n(self.slots.len())
    }

    /// The `TableId` of a base table by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.slots
            .iter()
            .position(|s| s.name == name)
            .map(|i| TableId(i as u8))
    }

    /// The wide-row (global) index of a column reference.
    pub fn global(&self, col: ColRef) -> usize {
        let slot = self.slot(col.table);
        debug_assert!(col.col < slot.len, "column out of range for {}", slot.name);
        slot.offset + col.col
    }

    /// Resolve a `"table.column"`-style pair to a [`ColRef`].
    pub fn col(&self, table: &str, column: &str) -> Result<ColRef, StorageError> {
        let t = self
            .table_id(table)
            .ok_or_else(|| StorageError::UnknownTable {
                name: table.to_string(),
            })?;
        let slot = self.slot(t);
        let idx = slot
            .schema
            .index_of(table, column)
            .map_err(|_| StorageError::UnknownColumn {
                table: table.to_string(),
                column: column.to_string(),
            })?;
        Ok(ColRef::new(t, idx))
    }

    /// Widen a base-table row of table `t` into a wide row (all other
    /// tables' slots null).
    pub fn widen(&self, t: TableId, row: &[Datum]) -> Row {
        let slot = self.slot(t);
        debug_assert_eq!(row.len(), slot.len);
        let mut out = vec![Datum::Null; self.width];
        out[slot.offset..slot.offset + slot.len].clone_from_slice(row);
        out
    }

    /// Widen a base-table row of table `t` directly into a [`RowBuf`](ojv_rel::RowBuf) batch
    /// — the batch form of [`Self::widen`]: one amortized bump of the
    /// batch's backing vector instead of a fresh `Vec<Datum>` per row.
    pub fn widen_into(&self, t: TableId, row: &[Datum], out: &mut ojv_rel::RowBuf) {
        let slot = self.slot(t);
        debug_assert_eq!(row.len(), slot.len);
        debug_assert_eq!(out.width(), self.width);
        let dst = out.push_null_row();
        dst[slot.offset..slot.offset + slot.len].clone_from_slice(row);
    }

    /// [`Self::widen_into`] from a columnar row: the heap writes straight
    /// into the table's slot of a fresh null row (strings clone the backing
    /// `Arc`, scalars copy) — no intermediate `Vec<Datum>`.
    pub fn widen_ref_into(
        &self,
        t: TableId,
        row: ojv_storage::RowRef<'_>,
        out: &mut ojv_rel::RowBuf,
    ) {
        let slot = self.slot(t);
        debug_assert_eq!(row.width(), slot.len);
        debug_assert_eq!(out.width(), self.width);
        let dst = out.push_null_row();
        row.copy_into(&mut dst[slot.offset..slot.offset + slot.len]);
    }

    /// Extract table `t`'s portion of a wide row.
    pub fn narrow(&self, t: TableId, row: &[Datum]) -> Row {
        let slot = self.slot(t);
        row[slot.offset..slot.offset + slot.len].to_vec()
    }

    /// The paper's `null(T)`: true iff the wide row is null-extended on `t`
    /// (checked via the table's non-null key columns).
    pub fn is_null_on(&self, t: TableId, row: &[Datum]) -> bool {
        row[self.slot(t).key_cols[0]].is_null()
    }

    /// The set of tables a wide row actually carries (non-null-extended).
    pub fn sources_of_row(&self, row: &[Datum]) -> TableSet {
        (0..self.slots.len())
            .map(|i| TableId(i as u8))
            .filter(|&t| !self.is_null_on(t, row))
            .collect()
    }

    /// `nn(tables) ∧ n(complement)` — true iff the row's source set is
    /// exactly `tables` (used for term extraction, §5.1).
    pub fn row_matches_term(&self, tables: TableSet, row: &[Datum]) -> bool {
        for i in 0..self.slots.len() {
            let t = TableId(i as u8);
            if tables.contains(t) == self.is_null_on(t, row) {
                return false;
            }
        }
        true
    }

    /// Wide-row key columns of all tables in `tables`, in table order — the
    /// paper's `eq(T_i)` key for a term.
    pub fn term_key_cols(&self, tables: TableSet) -> Vec<usize> {
        tables
            .iter()
            .flat_map(|t| self.slot(t).key_cols.iter().copied())
            .collect()
    }

    /// Null out the slots of `tables` in `row` (the null-if operator's
    /// action).
    pub fn null_out(&self, tables: TableSet, row: &mut [Datum]) {
        for t in tables.iter() {
            let slot = self.slot(t);
            for cell in &mut row[slot.offset..slot.offset + slot.len] {
                *cell = Datum::Null;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ojv_rel::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "a",
            vec![
                Column::new("a", "id", DataType::Int, false),
                Column::new("a", "x", DataType::Str, true),
            ],
            &["id"],
        )
        .unwrap();
        c.create_table(
            "b",
            vec![
                Column::new("b", "id", DataType::Int, false),
                Column::new("b", "aid", DataType::Int, false),
                Column::new("b", "y", DataType::Float, true),
            ],
            &["id"],
        )
        .unwrap();
        c
    }

    #[test]
    fn layout_offsets_and_keys() {
        let c = catalog();
        let l = ViewLayout::new(&c, &["a", "b"]).unwrap();
        assert_eq!(l.width(), 5);
        assert_eq!(l.slot(TableId(0)).offset, 0);
        assert_eq!(l.slot(TableId(1)).offset, 2);
        assert_eq!(l.slot(TableId(1)).key_cols, vec![2]);
        assert_eq!(l.table_id("b"), Some(TableId(1)));
        assert_eq!(l.table_id("zzz"), None);
        assert_eq!(l.global(ColRef::new(TableId(1), 2)), 4);
        assert_eq!(l.col("b", "y").unwrap(), ColRef::new(TableId(1), 2));
        assert!(l.col("b", "nope").is_err());
    }

    #[test]
    fn widen_and_narrow_roundtrip() {
        let c = catalog();
        let l = ViewLayout::new(&c, &["a", "b"]).unwrap();
        let b_row = vec![Datum::Int(7), Datum::Int(1), Datum::Float(0.5)];
        let wide = l.widen(TableId(1), &b_row);
        assert_eq!(wide[0], Datum::Null);
        assert_eq!(wide[2], Datum::Int(7));
        assert_eq!(l.narrow(TableId(1), &wide), b_row);
        assert!(l.is_null_on(TableId(0), &wide));
        assert!(!l.is_null_on(TableId(1), &wide));
        assert_eq!(l.sources_of_row(&wide), TableSet::singleton(TableId(1)));
    }

    #[test]
    fn term_matching_and_keys() {
        let c = catalog();
        let l = ViewLayout::new(&c, &["a", "b"]).unwrap();
        let wide = l.widen(TableId(0), &[Datum::Int(3), Datum::str("v")]);
        assert!(l.row_matches_term(TableSet::singleton(TableId(0)), &wide));
        assert!(!l.row_matches_term(TableSet::first_n(2), &wide));
        assert_eq!(l.term_key_cols(TableSet::first_n(2)), vec![0, 2]);
    }

    #[test]
    fn null_out_clears_slots() {
        let c = catalog();
        let l = ViewLayout::new(&c, &["a", "b"]).unwrap();
        let mut wide = l.widen(TableId(0), &[Datum::Int(3), Datum::str("v")]);
        l.null_out(TableSet::singleton(TableId(0)), &mut wide);
        assert!(wide.iter().all(|d| d.is_null()));
    }

    #[test]
    fn too_many_tables_is_an_error_not_a_panic() {
        let mut c = Catalog::new();
        let mut names = Vec::new();
        for i in 0..=TableSet::MAX_TABLES {
            let name = format!("t{i}");
            c.create_table(
                &name,
                vec![Column::new(&name, "id", DataType::Int, false)],
                &["id"],
            )
            .unwrap();
            names.push(name);
        }
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        match ViewLayout::new(&c, &refs) {
            Err(StorageError::TooManyTables { count, max }) => {
                assert_eq!(count, TableSet::MAX_TABLES + 1);
                assert_eq!(max, TableSet::MAX_TABLES);
            }
            other => panic!("expected TooManyTables, got {other:?}"),
        }
    }

    #[test]
    fn wide_schema_is_fully_nullable() {
        let c = catalog();
        let l = ViewLayout::new(&c, &["a", "b"]).unwrap();
        assert!(l.wide_schema().columns().iter().all(|c| c.nullable));
        assert_eq!(l.wide_schema().len(), 5);
    }
}
