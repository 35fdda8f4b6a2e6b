//! The catalog: tables plus declared constraints.

use ojv_rel::{key_of, Column, Datum, FxHashMap, FxHashSet, Relation, Row, Schema};

use crate::delta::{Update, UpdateOp};
use crate::error::StorageError;
use crate::table::Table;

/// A foreign-key constraint from `child` columns to the `parent` table's
/// unique key (paper §6 assumes FKs reference a non-null unique key).
#[derive(Debug, Clone)]
pub struct ForeignKey {
    pub name: String,
    pub child: String,
    /// Column indexes in the child table, aligned with the parent key.
    pub child_cols: Vec<usize>,
    pub parent: String,
    /// Column indexes of the parent's unique key.
    pub parent_key: Vec<usize>,
    /// Secondary index id on the child table used for restrict checks.
    child_index: usize,
    /// Whether the constraint is declared with cascading deletes. The FK
    /// maintenance optimizations of §6 must be disabled in that case.
    pub cascade_delete: bool,
    /// Whether the constraint is deferrable; also disables §6 optimizations
    /// inside multi-statement transactions.
    pub deferrable: bool,
}

/// The set of base tables and constraints.
///
/// All updates flow through [`Catalog::insert`]/[`Catalog::delete`] — or their two
/// halves, `validate_*` then `apply_*` — which enforce constraints and
/// return the applied delta (`ΔT`) for view maintenance.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<Table>,
    by_name: FxHashMap<String, usize>,
    fks: Vec<ForeignKey>,
    /// When false, constraint checks are skipped (bulk load fast path).
    pub enforce_constraints: bool,
    /// Bumped by every schema-changing DDL (`create_table`,
    /// `add_foreign_key`). Cached maintenance plans are keyed on this so a
    /// schema change invalidates them; data changes do not bump it.
    schema_version: u64,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog {
            tables: Vec::new(),
            by_name: FxHashMap::default(),
            fks: Vec::new(),
            enforce_constraints: true,
            schema_version: 0,
        }
    }

    /// Monotone counter of schema-changing DDL statements.
    pub fn schema_version(&self) -> u64 {
        self.schema_version
    }

    /// Create a table. `key` lists the unique-key column names.
    pub fn create_table(
        &mut self,
        name: &str,
        columns: Vec<Column>,
        key: &[&str],
    ) -> Result<(), StorageError> {
        if self.by_name.contains_key(name) {
            return Err(StorageError::InvalidConstraint {
                detail: format!("table {name} already exists"),
            });
        }
        let schema = Schema::shared(columns)?;
        let mut key_cols = Vec::with_capacity(key.len());
        for k in key {
            key_cols.push(
                schema
                    .index_of(name, k)
                    .map_err(|_| StorageError::UnknownColumn {
                        table: name.to_string(),
                        column: k.to_string(),
                    })?,
            );
        }
        let table = Table::new(name, schema, key_cols)?;
        self.by_name.insert(name.to_string(), self.tables.len());
        self.tables.push(table);
        self.schema_version += 1;
        Ok(())
    }

    /// Declare a foreign key from `child.(child_cols)` to `parent`'s unique
    /// key. A secondary index on the child columns is created to make
    /// restrict checks cheap.
    pub fn add_foreign_key(
        &mut self,
        name: &str,
        child: &str,
        child_cols: &[&str],
        parent: &str,
    ) -> Result<(), StorageError> {
        let parent_key = self.table(parent)?.key_cols().to_vec();
        if parent_key.len() != child_cols.len() {
            return Err(StorageError::InvalidConstraint {
                detail: format!(
                    "foreign key {name}: {} child columns vs {}-column parent key",
                    child_cols.len(),
                    parent_key.len()
                ),
            });
        }
        let child_idx = self.index_of(child)?;
        let child_schema = self.tables[child_idx].schema().clone();
        let mut cols = Vec::with_capacity(child_cols.len());
        for c in child_cols {
            cols.push(child_schema.index_of(child, c).map_err(|_| {
                StorageError::UnknownColumn {
                    table: child.to_string(),
                    column: c.to_string(),
                }
            })?);
        }
        let child_index = self.tables[child_idx].add_secondary_index(cols.clone());
        self.fks.push(ForeignKey {
            name: name.to_string(),
            child: child.to_string(),
            child_cols: cols,
            parent: parent.to_string(),
            parent_key,
            child_index,
            cascade_delete: false,
            deferrable: false,
        });
        self.schema_version += 1;
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.by_name
            .get(name)
            .map(|&i| &self.tables[i])
            .ok_or_else(|| StorageError::UnknownTable {
                name: name.to_string(),
            })
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        match self.by_name.get(name) {
            Some(&i) => Ok(&mut self.tables[i]),
            None => Err(StorageError::UnknownTable {
                name: name.to_string(),
            }),
        }
    }

    fn index_of(&self, name: &str) -> Result<usize, StorageError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::UnknownTable {
                name: name.to_string(),
            })
    }

    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.fks
    }

    /// Mutable access to the declared foreign keys, for catalog restore to
    /// reapply the `cascade_delete`/`deferrable` flags `add_foreign_key`
    /// defaults to `false`.
    pub fn foreign_keys_mut(&mut self) -> &mut [ForeignKey] {
        &mut self.fks
    }

    /// Foreign keys whose child table is `child`.
    pub fn fks_from<'a>(&'a self, child: &'a str) -> impl Iterator<Item = &'a ForeignKey> + 'a {
        self.fks.iter().filter(move |fk| fk.child == child)
    }

    /// Foreign keys whose parent table is `parent`.
    pub fn fks_to<'a>(&'a self, parent: &'a str) -> impl Iterator<Item = &'a ForeignKey> + 'a {
        self.fks.iter().filter(move |fk| fk.parent == parent)
    }

    /// Does deleting `parent` key `key` violate a foreign key *against the
    /// rows of this catalog*? Returns the first violated constraint.
    ///
    /// This is the read half of [`Catalog::validate_delete`]'s restrict
    /// check, exposed for the sharded facade: children need not be
    /// colocated with the parent they reference, so the facade broadcasts
    /// this probe to every shard before routing the delete to the parent's
    /// owner.
    pub fn fk_restricting(
        &self,
        parent: &str,
        key: &[Datum],
    ) -> Result<Option<&ForeignKey>, StorageError> {
        for fk in self.fks.iter().filter(|fk| fk.parent == parent) {
            let child = self.table(&fk.child)?;
            if child.count_secondary(fk.child_index, key) > 0 {
                return Ok(Some(fk));
            }
        }
        Ok(None)
    }

    /// Check a whole insert batch against this catalog, changing nothing:
    /// row shape, null and duplicate keys (against the table and inside the
    /// batch) and, when constraints are enforced, that every non-null
    /// foreign key value has its parent row.
    ///
    /// Rows are canonicalized (numeric-widened datums take the heap's stored
    /// representation) so the applied delta — and hence the WAL record —
    /// matches the stored row byte for byte. The returned batch is the only
    /// way into [`Catalog::apply_insert`], which therefore cannot fail; it
    /// is valid for as long as the catalog is not changed in between.
    pub fn validate_insert(
        &self,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<ValidInsert, StorageError> {
        self.check_insert(self.index_of(table)?, rows, &FxHashSet::default())
    }

    /// Check a whole delete batch against this catalog, changing nothing:
    /// every key names a stored row, none repeats inside the batch and, when
    /// constraints are enforced, no child row still references a deleted
    /// parent (restrict). The returned batch is the only way into
    /// [`Catalog::apply_delete`]; it is valid for as long as the catalog is
    /// not changed in between.
    pub fn validate_delete<'k, K: AsRef<[Datum]>>(
        &self,
        table: &str,
        keys: &'k [K],
    ) -> Result<ValidDelete<'k, K>, StorageError> {
        let tidx = self.index_of(table)?;
        self.check_delete(tidx, keys)?;
        Ok(ValidDelete { table: tidx, keys })
    }

    /// Check both halves of an SQL `UPDATE` (paper §3: delete `keys`, then
    /// insert `rows`) against this catalog, changing nothing. The delete
    /// half is [`Catalog::validate_delete`]; the insert half is
    /// [`Catalog::validate_insert`] against the state *after* the delete —
    /// the deleted rows count as absent for duplicate keys and as parents.
    /// A refused `UPDATE` therefore changes nothing, and applying the two
    /// halves of the returned batch in order (delete first) cannot fail.
    pub fn validate_update<'k, K: AsRef<[Datum]>>(
        &self,
        table: &str,
        keys: &'k [K],
        rows: Vec<Row>,
    ) -> Result<ValidUpdate<'k, K>, StorageError> {
        let tidx = self.index_of(table)?;
        let gone = self.check_delete(tidx, keys)?;
        let insert = self.check_insert(tidx, rows, &gone)?;
        Ok(ValidUpdate {
            delete: ValidDelete { table: tidx, keys },
            insert,
        })
    }

    /// The insert checks, with the rows at positions `gone` of table `tidx`
    /// counted as deleted.
    fn check_insert(
        &self,
        tidx: usize,
        mut rows: Vec<Row>,
        gone: &FxHashSet<u32>,
    ) -> Result<ValidInsert, StorageError> {
        let t = &self.tables[tidx];
        for row in &mut rows {
            t.schema().canonicalize_row(row);
        }
        t.validate_insert(&rows, gone)?;
        if self.enforce_constraints {
            let none = FxHashSet::default();
            for fk in self.fks_from(t.name()) {
                let parent = self.table(&fk.parent)?;
                // Only a self-referencing key can name a deleted parent.
                let gone = if fk.parent == fk.child { gone } else { &none };
                for row in &rows {
                    // SQL semantics: null FK values are not checked.
                    if fk.child_cols.iter().any(|&c| row[c].is_null())
                        || parent.holds_key_of(row, &fk.child_cols, gone)
                    {
                        continue;
                    }
                    return Err(fk.parent_missing(row));
                }
            }
        }
        Ok(ValidInsert {
            table: tidx,
            delta: Update {
                table: t.name().to_string(),
                op: UpdateOp::Insert,
                rows: Relation::new(t.schema().clone(), rows),
            },
        })
    }

    /// The delete checks; returns the heap positions the keys name.
    fn check_delete<K: AsRef<[Datum]>>(
        &self,
        tidx: usize,
        keys: &[K],
    ) -> Result<FxHashSet<u32>, StorageError> {
        let t = &self.tables[tidx];
        let gone = t.validate_delete(keys)?;
        if self.enforce_constraints {
            for fk in self.fks_to(t.name()) {
                let child = self.table(&fk.child)?;
                for key in keys {
                    if child.count_secondary(fk.child_index, key.as_ref()) > 0 {
                        return Err(fk.restricts(key.as_ref()));
                    }
                }
            }
        }
        Ok(gone)
    }

    /// Append a validated insert batch and return the applied delta. The
    /// caller's rows move into the delta; nothing is cloned per row.
    pub fn apply_insert(&mut self, batch: ValidInsert) -> Update {
        self.tables[batch.table].append(batch.delta.rows.rows());
        batch.delta
    }

    /// Remove a validated delete batch and return the applied delta.
    pub fn apply_delete<K: AsRef<[Datum]>>(&mut self, batch: ValidDelete<'_, K>) -> Update {
        let t = &mut self.tables[batch.table];
        let deleted = batch.keys.iter().map(|k| t.remove(k.as_ref())).collect();
        Update {
            table: t.name().to_string(),
            op: UpdateOp::Delete,
            rows: Relation::new(t.schema().clone(), deleted),
        }
    }

    /// Insert a batch of rows, enforcing unique keys and FK parent existence.
    ///
    /// All-or-nothing: [`Catalog::validate_insert`] checks the whole batch
    /// before the first row is applied, so a refused batch leaves the
    /// catalog bit-identical. Returns the applied delta.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<Update, StorageError> {
        let batch = self.validate_insert(table, rows)?;
        Ok(self.apply_insert(batch))
    }

    /// Delete a batch of rows by unique key, enforcing FK restrict (no
    /// children may reference a deleted parent). All-or-nothing like
    /// [`Catalog::insert`]. Returns the applied delta.
    pub fn delete(&mut self, table: &str, keys: &[Vec<Datum>]) -> Result<Update, StorageError> {
        let batch = self.validate_delete(table, keys)?;
        Ok(self.apply_delete(batch))
    }
}

impl ForeignKey {
    /// The violation raised when child row `row` is inserted while no parent
    /// row carries its foreign key value.
    pub fn parent_missing(&self, row: &[Datum]) -> StorageError {
        StorageError::ForeignKeyViolation {
            constraint: self.name.clone(),
            detail: format!(
                "no {} row with key {}",
                self.parent,
                ojv_rel::row_display(&key_of(row, &self.child_cols))
            ),
        }
    }

    /// The restrict violation raised when `key` of the parent table is
    /// deleted while child rows still reference it.
    pub fn restricts(&self, key: &[Datum]) -> StorageError {
        StorageError::ForeignKeyViolation {
            constraint: self.name.clone(),
            detail: format!(
                "rows in {} still reference {} key {}",
                self.child,
                self.parent,
                ojv_rel::row_display(key)
            ),
        }
    }
}

/// An insert batch [`Catalog::validate_insert`] accepted: canonicalized rows
/// that [`Catalog::apply_insert`] can append without failing.
#[derive(Debug)]
pub struct ValidInsert {
    table: usize,
    /// The delta `apply_insert` returns: the canonicalized rows.
    delta: Update,
}

impl ValidInsert {
    /// The delta applying this batch will return — a commit logs it before
    /// the rows are applied.
    pub fn delta(&self) -> &Update {
        &self.delta
    }
}

/// A delete batch [`Catalog::validate_delete`] accepted.
#[derive(Debug)]
pub struct ValidDelete<'k, K> {
    table: usize,
    keys: &'k [K],
}

/// Both halves of an SQL `UPDATE` that [`Catalog::validate_update`]
/// accepted. Apply the delete half first, then the insert half.
#[derive(Debug)]
pub struct ValidUpdate<'k, K> {
    delete: ValidDelete<'k, K>,
    insert: ValidInsert,
}

impl<'k, K> ValidUpdate<'k, K> {
    /// The delete half and the insert half, in the order they apply.
    pub fn into_halves(self) -> (ValidDelete<'k, K>, ValidInsert) {
        (self.delete, self.insert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ojv_rel::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "parent",
            vec![
                Column::new("parent", "pk", DataType::Int, false),
                Column::new("parent", "v", DataType::Int, true),
            ],
            &["pk"],
        )
        .unwrap();
        c.create_table(
            "child",
            vec![
                Column::new("child", "ck", DataType::Int, false),
                Column::new("child", "fk", DataType::Int, false),
            ],
            &["ck"],
        )
        .unwrap();
        c.add_foreign_key("fk_child_parent", "child", &["fk"], "parent")
            .unwrap();
        c
    }

    #[test]
    fn insert_checks_fk_parent() {
        let mut c = catalog();
        c.insert("parent", vec![vec![Datum::Int(1), Datum::Int(0)]])
            .unwrap();
        assert!(c
            .insert("child", vec![vec![Datum::Int(10), Datum::Int(1)]])
            .is_ok());
        let err = c
            .insert("child", vec![vec![Datum::Int(11), Datum::Int(99)]])
            .unwrap_err();
        assert!(matches!(err, StorageError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn delete_restricts_on_children() {
        let mut c = catalog();
        c.insert("parent", vec![vec![Datum::Int(1), Datum::Int(0)]])
            .unwrap();
        c.insert("child", vec![vec![Datum::Int(10), Datum::Int(1)]])
            .unwrap();
        let err = c.delete("parent", &[vec![Datum::Int(1)]]).unwrap_err();
        assert!(matches!(err, StorageError::ForeignKeyViolation { .. }));
        c.delete("child", &[vec![Datum::Int(10)]]).unwrap();
        assert!(c.delete("parent", &[vec![Datum::Int(1)]]).is_ok());
    }

    #[test]
    fn insert_rollback_on_duplicate_is_all_or_nothing() {
        let mut c = catalog();
        c.insert("parent", vec![vec![Datum::Int(1), Datum::Int(0)]])
            .unwrap();
        let err = c.insert(
            "parent",
            vec![
                vec![Datum::Int(2), Datum::Int(0)],
                vec![Datum::Int(1), Datum::Int(0)], // duplicate
            ],
        );
        assert!(err.is_err());
        assert_eq!(c.table("parent").unwrap().len(), 1);
        assert!(c.table("parent").unwrap().get(&[Datum::Int(2)]).is_none());
    }

    /// ROADMAP item 1a: a refused delete used to roll back by re-inserting
    /// the already-deleted rows at the heap tail, reordering the table.
    #[test]
    fn refused_delete_leaves_heap_order_untouched() {
        let mut c = catalog();
        let rows = (1..=6)
            .map(|i| vec![Datum::Int(i), Datum::Int(0)])
            .collect();
        c.insert("parent", rows).unwrap();
        let before: Vec<Row> = c.table("parent").unwrap().iter_rows().collect();
        let k = |i: i64| vec![Datum::Int(i)];
        // Missing key after two good ones; then one key twice.
        for keys in [vec![k(1), k(2), k(99)], vec![k(3), k(4), k(3)]] {
            let err = c.delete("parent", &keys).unwrap_err();
            assert!(matches!(err, StorageError::KeyNotFound { .. }), "{err}");
            let after: Vec<Row> = c.table("parent").unwrap().iter_rows().collect();
            assert_eq!(after, before);
        }
    }

    #[test]
    fn refused_insert_with_fk_violation_mid_batch_changes_nothing() {
        let mut c = catalog();
        c.insert("parent", vec![vec![Datum::Int(1), Datum::Int(0)]])
            .unwrap();
        let err = c
            .insert(
                "child",
                vec![
                    vec![Datum::Int(10), Datum::Int(1)],
                    vec![Datum::Int(11), Datum::Int(99)], // no such parent
                    vec![Datum::Int(12), Datum::Int(1)],
                ],
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::ForeignKeyViolation { .. }));
        assert!(c.table("child").unwrap().is_empty());
    }

    #[test]
    fn validated_batches_apply_without_cloning_rows() {
        let mut c = catalog();
        let s: std::sync::Arc<str> = "payload".into();
        c.create_table(
            "t",
            vec![
                Column::new("t", "k", DataType::Int, false),
                Column::new("t", "s", DataType::Str, true),
            ],
            &["k"],
        )
        .unwrap();
        let batch = c
            .validate_insert("t", vec![vec![Datum::Int(1), Datum::Str(s.clone())]])
            .unwrap();
        assert!(
            c.table("t").unwrap().is_empty(),
            "validation applies nothing"
        );
        let up = c.apply_insert(batch);
        // The caller's row moved into the delta: same `Arc`, no copy.
        match &up.rows.rows()[0][1] {
            Datum::Str(moved) => assert!(std::sync::Arc::ptr_eq(moved, &s)),
            other => panic!("expected a string, got {other:?}"),
        }
        let keys = [[Datum::Int(1)]];
        let batch = c.validate_delete("t", &keys).unwrap();
        assert_eq!(c.apply_delete(batch).rows.len(), 1);
        assert!(c.table("t").unwrap().is_empty());
    }

    /// The insert half is checked against the state after the delete half:
    /// a deleted key may come back, a stored one may not, and a refused
    /// `UPDATE` changes nothing.
    #[test]
    fn validate_update_checks_the_insert_half_after_the_delete_half() {
        let mut c = catalog();
        let row = |k: i64, v: i64| vec![Datum::Int(k), Datum::Int(v)];
        c.insert("parent", vec![row(1, 0), row(2, 0)]).unwrap();
        let before: Vec<Row> = c.table("parent").unwrap().iter_rows().collect();
        let one = [vec![Datum::Int(1)]];
        for refused in [
            vec![row(2, 5)],
            vec![row(1, 5), row(1, 6)],
            vec![row(3, 5), row(3, 6)],
        ] {
            let err = c.validate_update("parent", &one, refused).unwrap_err();
            assert!(matches!(err, StorageError::DuplicateKey { .. }), "{err}");
        }
        assert!(c
            .validate_update("parent", &[vec![Datum::Int(9)]], vec![row(9, 1)])
            .is_err());
        let after: Vec<Row> = c.table("parent").unwrap().iter_rows().collect();
        assert_eq!(after, before, "validation changes nothing");

        let (delete, insert) = c
            .validate_update("parent", &one, vec![row(1, 7)])
            .unwrap()
            .into_halves();
        assert_eq!(c.apply_delete(delete).rows.len(), 1);
        assert_eq!(c.apply_insert(insert).rows.rows(), &[row(1, 7)][..]);
        assert_eq!(
            c.table("parent")
                .unwrap()
                .get(&[Datum::Int(1)])
                .unwrap()
                .to_row(),
            row(1, 7)
        );
    }

    /// A self-referencing key cannot name a parent the same `UPDATE`
    /// deletes — the verdict a delete followed by an insert would reach.
    #[test]
    fn validate_update_counts_deleted_rows_as_gone_parents() {
        let mut c = catalog();
        c.add_foreign_key("fk_parent_parent", "parent", &["v"], "parent")
            .unwrap();
        let row = |k: i64, v: i64| vec![Datum::Int(k), Datum::Int(v)];
        c.enforce_constraints = false;
        c.insert("parent", vec![row(1, 1), row(2, 1), row(3, 1)])
            .unwrap();
        c.enforce_constraints = true;
        let three = [vec![Datum::Int(3)]];
        let err = c
            .validate_update("parent", &three, vec![row(4, 3)])
            .unwrap_err();
        assert!(
            matches!(err, StorageError::ForeignKeyViolation { .. }),
            "{err}"
        );
        assert!(c.validate_update("parent", &three, vec![row(4, 2)]).is_ok());
    }

    #[test]
    fn delta_reports_applied_rows() {
        let mut c = catalog();
        let up = c
            .insert(
                "parent",
                vec![
                    vec![Datum::Int(1), Datum::Int(0)],
                    vec![Datum::Int(2), Datum::Null],
                ],
            )
            .unwrap();
        assert_eq!(up.op, UpdateOp::Insert);
        assert_eq!(up.rows.len(), 2);
        let down = c
            .delete("parent", &[vec![Datum::Int(1)], vec![Datum::Int(2)]])
            .unwrap();
        assert_eq!(down.op, UpdateOp::Delete);
        assert_eq!(down.rows.len(), 2);
        assert!(c.table("parent").unwrap().is_empty());
    }

    #[test]
    fn enforcement_can_be_disabled_for_bulk_load() {
        let mut c = catalog();
        c.enforce_constraints = false;
        // Child with a dangling FK loads fine in bulk mode.
        assert!(c
            .insert("child", vec![vec![Datum::Int(10), Datum::Int(42)]])
            .is_ok());
    }

    #[test]
    fn fk_declaration_validates_arity() {
        let mut c = catalog();
        let err = c.add_foreign_key("bad", "child", &["ck", "fk"], "parent");
        assert!(matches!(err, Err(StorageError::InvalidConstraint { .. })));
    }

    #[test]
    fn fks_from_and_to() {
        let c = catalog();
        assert_eq!(c.fks_from("child").count(), 1);
        assert_eq!(c.fks_to("parent").count(), 1);
        assert_eq!(c.fks_from("parent").count(), 0);
    }
}
