//! Materialized relations (bags of rows over a schema).

use std::fmt;

use crate::row::{key_of, Row};
use crate::schema::SchemaRef;

/// A materialized bag of rows.
///
/// The execution layer materializes every operator's output as a `Relation`;
/// deltas (`ΔT`, `ΔV^D`, `ΔV^I`) are plain relations too.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: SchemaRef,
    rows: Vec<Row>,
}

impl Relation {
    pub fn new(schema: SchemaRef, rows: Vec<Row>) -> Self {
        Relation { schema, rows }
    }

    pub fn empty(schema: SchemaRef) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn push(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.schema.len());
        self.rows.push(row);
    }

    /// Project onto `cols` (by index), producing a relation over `schema`.
    pub fn project(&self, cols: &[usize], schema: SchemaRef) -> Relation {
        let rows = self.rows.iter().map(|r| key_of(r, cols)).collect();
        Relation::new(schema, rows)
    }

    /// Sort rows by the total datum order — handy for order-insensitive
    /// equality in tests.
    pub fn sorted(mut self) -> Relation {
        self.rows.sort();
        self
    }

    /// Order-insensitive bag equality with another relation.
    pub fn bag_eq(&self, other: &Relation) -> bool {
        if self.rows.len() != other.rows.len() {
            return false;
        }
        let mut a: Vec<&Row> = self.rows.iter().collect();
        let mut b: Vec<&Row> = other.rows.iter().collect();
        a.sort();
        b.sort();
        a == b
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for row in &self.rows {
            writeln!(f, "{}", crate::row::row_display(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::{DataType, Datum};
    use crate::schema::{Column, Schema};

    fn schema2() -> SchemaRef {
        Schema::shared(vec![
            Column::new("t", "a", DataType::Int, false),
            Column::new("t", "b", DataType::Int, true),
        ])
        .unwrap()
    }

    #[test]
    fn push_and_len() {
        let mut r = Relation::empty(schema2());
        assert!(r.is_empty());
        r.push(vec![Datum::Int(1), Datum::Int(2)]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn bag_eq_ignores_order() {
        let s = schema2();
        let a = Relation::new(
            s.clone(),
            vec![
                vec![Datum::Int(1), Datum::Int(2)],
                vec![Datum::Int(3), Datum::Null],
            ],
        );
        let b = Relation::new(
            s.clone(),
            vec![
                vec![Datum::Int(3), Datum::Null],
                vec![Datum::Int(1), Datum::Int(2)],
            ],
        );
        assert!(a.bag_eq(&b));
        let c = Relation::new(s, vec![vec![Datum::Int(1), Datum::Int(2)]]);
        assert!(!a.bag_eq(&c));
    }

    #[test]
    fn bag_eq_respects_multiplicity() {
        let s = schema2();
        let row = vec![Datum::Int(1), Datum::Int(2)];
        let a = Relation::new(s.clone(), vec![row.clone(), row.clone()]);
        let b = Relation::new(s, vec![row]);
        assert!(!a.bag_eq(&b));
    }

    #[test]
    fn project_extracts_columns() {
        let s = schema2();
        let single = Schema::shared(vec![Column::new("t", "b", DataType::Int, true)]).unwrap();
        let r = Relation::new(s, vec![vec![Datum::Int(1), Datum::Int(9)]]);
        let p = r.project(&[1], single);
        assert_eq!(p.rows()[0], vec![Datum::Int(9)]);
    }
}
