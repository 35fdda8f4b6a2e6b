//! Schemas: ordered, named, typed column lists.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::datum::{DataType, Datum};
use crate::error::RelError;
use crate::row::Row;

/// One column of a schema.
///
/// `qualifier` is the table (or alias) the column belongs to; view-wide
/// schemas concatenate the columns of several tables, so the qualifier is
/// what keeps `orders.o_orderkey` distinct from `lineitem.l_orderkey`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub qualifier: String,
    pub name: String,
    pub ty: DataType,
    pub nullable: bool,
}

impl Column {
    pub fn new(qualifier: &str, name: &str, ty: DataType, nullable: bool) -> Self {
        Column {
            qualifier: qualifier.to_string(),
            name: name.to_string(),
            ty,
            nullable,
        }
    }

    /// `qualifier.name`.
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.qualifier, self.name)
    }
}

/// An ordered list of columns with name-based lookup.
#[derive(Debug, Clone)]
pub struct Schema {
    columns: Vec<Column>,
    /// `(qualifier, name) -> index`. Unqualified lookup falls back to a scan.
    by_name: HashMap<(String, String), usize>,
}

/// Shared schema handle. Relations and operators clone this freely.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Build a schema, rejecting duplicate qualified names.
    pub fn new(columns: Vec<Column>) -> Result<Self, RelError> {
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            if by_name
                .insert((c.qualifier.clone(), c.name.clone()), i)
                .is_some()
            {
                return Err(RelError::DuplicateColumn {
                    qualifier: c.qualifier.clone(),
                    name: c.name.clone(),
                });
            }
        }
        Ok(Schema { columns, by_name })
    }

    /// Build a shared schema handle.
    pub fn shared(columns: Vec<Column>) -> Result<SchemaRef, RelError> {
        Self::new(columns).map(Arc::new)
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Index of `qualifier.name`.
    pub fn index_of(&self, qualifier: &str, name: &str) -> Result<usize, RelError> {
        self.by_name
            .get(&(qualifier.to_string(), name.to_string()))
            .copied()
            .ok_or_else(|| RelError::UnknownColumn {
                qualifier: qualifier.to_string(),
                name: name.to_string(),
            })
    }

    /// Concatenate two schemas (for join outputs).
    pub fn concat(&self, other: &Schema) -> Result<Schema, RelError> {
        let mut cols = self.columns.clone();
        cols.extend(other.columns.iter().cloned());
        Schema::new(cols)
    }

    /// Canonicalize numeric-widened datums in place: an `Int` datum in a
    /// `Float` column becomes the equal `Float` (the representation columnar
    /// storage keeps). Applied at the update boundary so the delta handed to
    /// maintenance, the WAL record, and the stored row are byte-identical.
    /// `Datum` equality/ordering/hashing are already cross-type for this
    /// pair, so the rewrite is unobservable to predicates and keys.
    pub fn canonicalize_row(&self, row: &mut Row) {
        for (datum, col) in row.iter_mut().zip(&self.columns) {
            if col.ty == DataType::Float {
                if let Datum::Int(v) = datum {
                    *datum = Datum::Float(*v as f64);
                }
            }
        }
    }

    /// Validate a row against this schema: arity, nullability, and types.
    pub fn check_row(&self, row: &Row) -> Result<(), RelError> {
        if row.len() != self.columns.len() {
            return Err(RelError::TypeMismatch {
                detail: format!(
                    "row arity {} does not match schema arity {}",
                    row.len(),
                    self.columns.len()
                ),
            });
        }
        for (datum, col) in row.iter().zip(&self.columns) {
            match datum {
                Datum::Null => {
                    if !col.nullable {
                        return Err(RelError::TypeMismatch {
                            detail: format!("NULL in non-nullable column {}", col.qualified_name()),
                        });
                    }
                }
                d => {
                    let ty = d.data_type().expect("non-null datum has a type");
                    // Ints are accepted in float columns (numeric widening).
                    let ok = ty == col.ty || (ty == DataType::Int && col.ty == DataType::Float);
                    if !ok {
                        return Err(RelError::TypeMismatch {
                            detail: format!(
                                "column {} expects {} but got {}",
                                col.qualified_name(),
                                col.ty,
                                ty
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", c.qualified_name(), c.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::new("t", "a", DataType::Int, false),
            Column::new("t", "b", DataType::Str, true),
            Column::new("u", "a", DataType::Int, true),
        ])
        .unwrap()
    }

    #[test]
    fn index_lookup_qualified() {
        let s = sample();
        assert_eq!(s.index_of("t", "a").unwrap(), 0);
        assert_eq!(s.index_of("u", "a").unwrap(), 2);
        assert!(s.index_of("v", "a").is_err());
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![
            Column::new("t", "a", DataType::Int, false),
            Column::new("t", "a", DataType::Int, false),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn check_row_enforces_nullability_and_types() {
        let s = sample();
        assert!(s
            .check_row(&vec![Datum::Int(1), Datum::str("x"), Datum::Null])
            .is_ok());
        assert!(s
            .check_row(&vec![Datum::Null, Datum::str("x"), Datum::Null])
            .is_err());
        assert!(s
            .check_row(&vec![Datum::str("no"), Datum::str("x"), Datum::Null])
            .is_err());
        assert!(s.check_row(&vec![Datum::Int(1)]).is_err());
    }

    #[test]
    fn concat_schemas() {
        let a = Schema::new(vec![Column::new("t", "a", DataType::Int, false)]).unwrap();
        let b = Schema::new(vec![Column::new("u", "b", DataType::Int, false)]).unwrap();
        let c = a.concat(&b).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.index_of("u", "b").unwrap(), 1);
    }
}
