//! Binary encoding for [`Update`] batches and whole-[`Catalog`] snapshots.
//!
//! This sits on top of `ojv_rel::codec` (datum/row layer) and supplies the
//! storage-level framing the durable maintenance log needs:
//!
//! * [`encode_update`] / [`decode_update`] — the WAL record payload for one
//!   applied batch. Rows are self-describing, but the row *schema* is not
//!   serialized: decode resolves the table name against the live catalog,
//!   exactly as recovery does (the catalog at replay time is the
//!   checkpointed catalog, which the batch was originally applied against
//!   or after).
//! * [`encode_catalog`] (or [`encode_catalog_into`]) / [`decode_catalog`] —
//!   the catalog section of a checkpoint: every table's schema, key,
//!   secondary-index column sets, and rows in heap order, plus declared
//!   foreign keys and the enforcement flag.
//!
//! ## Restore determinism
//!
//! Decoding rebuilds tables through the same public construction path used
//! originally (`create_table`, `add_secondary_index`, per-row `insert`), in
//! recorded heap order. With the deterministic fx hasher this reproduces
//! not just equal contents but identical iteration behavior, which is what
//! lets recovered state be *byte*-identical to the pre-crash state when
//! re-encoded. Foreign keys are re-declared via `add_foreign_key` after the
//! recorded secondary indexes are rebuilt; `Table::add_secondary_index`
//! dedupes by column set, so each FK lands on the same index id it had
//! before the snapshot.

use ojv_rel::{put_row, put_str, put_u32, ByteReader, Column, DataType, RelError, Relation, Row};

use crate::catalog::Catalog;
use crate::delta::{Update, UpdateOp};
use crate::error::StorageError;
use crate::heap::SEG_ROWS;

fn dt_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Date => 4,
    }
}

fn dt_from_tag(tag: u8) -> Result<DataType, RelError> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Date,
        other => {
            return Err(RelError::Codec {
                detail: format!("unknown data-type tag {other}"),
            })
        }
    })
}

fn put_usize(buf: &mut Vec<u8>, v: usize, what: &str) -> Result<(), RelError> {
    let v = u32::try_from(v).map_err(|_| RelError::Codec {
        detail: format!("{what} of {v} exceeds u32 framing"),
    })?;
    put_u32(buf, v);
    Ok(())
}

fn codec_err(detail: impl Into<String>) -> StorageError {
    StorageError::InvalidConstraint {
        detail: format!("codec: {}", detail.into()),
    }
}

// ---------------------------------------------------------------------------
// Update batches (WAL payloads)
// ---------------------------------------------------------------------------

/// Encode one applied batch: table name, op, and full rows.
pub fn encode_update(update: &Update) -> Result<Vec<u8>, RelError> {
    let mut buf = Vec::new();
    put_str(&mut buf, &update.table)?;
    buf.push(match update.op {
        UpdateOp::Insert => 0,
        UpdateOp::Delete => 1,
    });
    put_usize(&mut buf, update.rows.len(), "update row count")?;
    for row in update.rows.rows() {
        put_row(&mut buf, row)?;
    }
    Ok(buf)
}

/// Decode an update batch, resolving the row schema through `catalog`.
pub fn decode_update(data: &[u8], catalog: &Catalog) -> Result<Update, StorageError> {
    let mut r = ByteReader::new(data);
    let table = r
        .str("update table name")
        .map_err(|e| codec_err(e.to_string()))?
        .to_string();
    let op = match r.u8("update op").map_err(|e| codec_err(e.to_string()))? {
        0 => UpdateOp::Insert,
        1 => UpdateOp::Delete,
        other => return Err(codec_err(format!("unknown update op tag {other}"))),
    };
    let schema = catalog.table(&table)?.schema().clone();
    let count = r
        .u32("update row count")
        .map_err(|e| codec_err(e.to_string()))? as usize; // lint:allow(cast) — u32 widens into usize
    let mut rows = Vec::with_capacity(count.min(r.remaining()));
    for _ in 0..count {
        rows.push(r.row().map_err(|e| codec_err(e.to_string()))?);
    }
    if !r.is_empty() {
        return Err(codec_err(format!(
            "{} trailing bytes after update batch",
            r.remaining()
        )));
    }
    Ok(Update {
        table,
        op,
        rows: Relation::new(schema, rows),
    })
}

// ---------------------------------------------------------------------------
// Catalog snapshots (checkpoint payloads)
// ---------------------------------------------------------------------------

/// Encode the full catalog: schemas, keys, secondary index definitions,
/// rows in heap order, foreign keys, and the enforcement flag.
pub fn encode_catalog(catalog: &Catalog) -> Result<Vec<u8>, RelError> {
    let mut buf = Vec::new();
    encode_catalog_into(catalog, &mut buf)?;
    Ok(buf)
}

/// [`encode_catalog`], appended to `buf` — so a checkpoint payload holds
/// the catalog section without a second copy of it.
pub fn encode_catalog_into(catalog: &Catalog, buf: &mut Vec<u8>) -> Result<(), RelError> {
    let tables: Vec<_> = catalog.tables().collect();
    put_usize(buf, tables.len(), "table count")?;
    for t in &tables {
        put_str(buf, t.name())?;
        let schema = t.schema();
        put_usize(buf, schema.len(), "column count")?;
        for col in schema.columns() {
            put_str(buf, &col.qualifier)?;
            put_str(buf, &col.name)?;
            buf.push(dt_tag(col.ty));
            buf.push(u8::from(col.nullable));
        }
        put_usize(buf, t.key_cols().len(), "key column count")?;
        for &c in t.key_cols() {
            put_usize(buf, c, "key column index")?;
        }
        let secondary = t.secondary_col_sets();
        put_usize(buf, secondary.len(), "secondary index count")?;
        for cols in &secondary {
            put_usize(buf, cols.len(), "secondary column count")?;
            for &c in cols {
                put_usize(buf, c, "secondary column index")?;
            }
        }
        put_usize(buf, t.len(), "row count")?;
        let mut scratch = vec![ojv_rel::Datum::Null; t.schema().len()];
        for pos in 0..t.len() {
            t.heap().copy_row_into(pos, &mut scratch);
            put_row(buf, &scratch)?;
        }
    }
    let fks = catalog.foreign_keys();
    put_usize(buf, fks.len(), "foreign key count")?;
    for fk in fks {
        put_str(buf, &fk.name)?;
        put_str(buf, &fk.child)?;
        put_str(buf, &fk.parent)?;
        put_usize(buf, fk.child_cols.len(), "fk column count")?;
        for &c in &fk.child_cols {
            put_usize(buf, c, "fk column index")?;
        }
        buf.push(u8::from(fk.cascade_delete));
        buf.push(u8::from(fk.deferrable));
    }
    buf.push(u8::from(catalog.enforce_constraints));
    Ok(())
}

/// Rebuild a catalog from [`encode_catalog`] bytes.
pub fn decode_catalog(data: &[u8]) -> Result<Catalog, StorageError> {
    let mut r = ByteReader::new(data);
    let rd = |e: RelError| codec_err(e.to_string());
    let mut catalog = Catalog::new();
    // Row loads below must not trip FK checks (children may decode before
    // parents); the recorded flag is restored at the end.
    catalog.enforce_constraints = false;

    let n_tables = r.u32("table count").map_err(rd)? as usize; // lint:allow(cast) — u32 widens into usize
    for _ in 0..n_tables {
        let name = r.str("table name").map_err(rd)?.to_string();
        let n_cols = r.u32("column count").map_err(rd)? as usize; // lint:allow(cast) — u32 widens into usize
        let mut columns = Vec::with_capacity(n_cols.min(r.remaining()));
        for _ in 0..n_cols {
            let qualifier = r.str("column qualifier").map_err(rd)?.to_string();
            let col_name = r.str("column name").map_err(rd)?.to_string();
            let ty = dt_from_tag(r.u8("column type").map_err(rd)?).map_err(rd)?;
            let nullable = r.u8("column nullable").map_err(rd)? != 0;
            columns.push(Column {
                qualifier,
                name: col_name,
                ty,
                nullable,
            });
        }
        let n_key = r.u32("key column count").map_err(rd)? as usize; // lint:allow(cast) — u32 widens into usize
        let mut key_names: Vec<String> = Vec::with_capacity(n_key.min(r.remaining()));
        for _ in 0..n_key {
            let idx = r.u32("key column index").map_err(rd)? as usize; // lint:allow(cast) — u32 widens into usize
            let col = columns
                .get(idx)
                .ok_or_else(|| codec_err(format!("key column #{idx} out of range in {name}")))?;
            key_names.push(col.name.clone());
        }
        let key_refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
        catalog.create_table(&name, columns, &key_refs)?;

        let n_secondary = r.u32("secondary index count").map_err(rd)? as usize; // lint:allow(cast) — u32 widens into usize
        for _ in 0..n_secondary {
            let n = r.u32("secondary column count").map_err(rd)? as usize; // lint:allow(cast) — u32 widens into usize
            let mut cols = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                cols.push(r.u32("secondary column index").map_err(rd)? as usize);
                // lint:allow(cast) — u32 widens into usize
            }
            catalog.table_mut(&name)?.add_secondary_index(cols);
        }

        let n_rows = r.u32("row count").map_err(rd)? as usize; // lint:allow(cast) — u32 widens into usize

        // One segment's worth at a time: the rows go through the same
        // validate-then-append batch path as live inserts without the
        // whole table ever being materialized row-wise.
        let table = catalog.table_mut(&name)?;
        let mut chunk: Vec<Row> = Vec::new();
        for i in 0..n_rows {
            chunk.push(r.row().map_err(rd)?);
            if chunk.len() == SEG_ROWS || i + 1 == n_rows {
                table.insert_batch(&chunk)?;
                chunk.clear();
            }
        }
    }

    let n_fks = r.u32("foreign key count").map_err(rd)? as usize; // lint:allow(cast) — u32 widens into usize
    for _ in 0..n_fks {
        let fk_name = r.str("fk name").map_err(rd)?.to_string();
        let child = r.str("fk child").map_err(rd)?.to_string();
        let parent = r.str("fk parent").map_err(rd)?.to_string();
        let n = r.u32("fk column count").map_err(rd)? as usize; // lint:allow(cast) — u32 widens into usize
        let mut col_names: Vec<String> = Vec::with_capacity(n.min(r.remaining()));
        {
            let child_schema = catalog.table(&child)?.schema().clone();
            for _ in 0..n {
                let idx = r.u32("fk column index").map_err(rd)? as usize; // lint:allow(cast) — u32 widens into usize
                if idx >= child_schema.len() {
                    return Err(codec_err(format!(
                        "fk column #{idx} out of range in {child}"
                    )));
                }
                col_names.push(child_schema.column(idx).name.clone());
            }
        }
        let cascade = r.u8("fk cascade flag").map_err(rd)? != 0;
        let deferrable = r.u8("fk deferrable flag").map_err(rd)? != 0;
        let col_refs: Vec<&str> = col_names.iter().map(String::as_str).collect();
        catalog.add_foreign_key(&fk_name, &child, &col_refs, &parent)?;
        let fk = catalog
            .foreign_keys_mut()
            .last_mut()
            .expect("fk just added");
        fk.cascade_delete = cascade;
        fk.deferrable = deferrable;
    }

    catalog.enforce_constraints = r.u8("enforce flag").map_err(rd)? != 0;
    if !r.is_empty() {
        return Err(codec_err(format!(
            "{} trailing bytes after catalog snapshot",
            r.remaining()
        )));
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ojv_rel::Datum;

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "parent",
            vec![
                Column::new("parent", "pk", DataType::Int, false),
                Column::new("parent", "v", DataType::Float, true),
                Column::new("parent", "s", DataType::Str, true),
            ],
            &["pk"],
        )
        .unwrap();
        c.create_table(
            "child",
            vec![
                Column::new("child", "ck", DataType::Int, false),
                Column::new("child", "fk", DataType::Int, false),
                Column::new("child", "d", DataType::Date, true),
            ],
            &["ck"],
        )
        .unwrap();
        c.add_foreign_key("fk_child_parent", "child", &["fk"], "parent")
            .unwrap();
        c.insert(
            "parent",
            vec![
                vec![Datum::Int(1), Datum::Float(-0.0), Datum::str("a")],
                vec![Datum::Int(2), Datum::Null, Datum::Null],
            ],
        )
        .unwrap();
        c.insert(
            "child",
            vec![
                vec![Datum::Int(10), Datum::Int(1), Datum::Date(123)],
                vec![Datum::Int(11), Datum::Int(2), Datum::Null],
            ],
        )
        .unwrap();
        c
    }

    #[test]
    fn update_round_trip() {
        let mut c = sample_catalog();
        let up = c
            .insert(
                "parent",
                vec![vec![Datum::Int(3), Datum::Float(2.5), Datum::str("z")]],
            )
            .unwrap();
        let bytes = encode_update(&up).unwrap();
        let back = decode_update(&bytes, &c).unwrap();
        assert_eq!(back.table, up.table);
        assert_eq!(back.op, up.op);
        assert_eq!(back.rows.rows(), up.rows.rows());
    }

    #[test]
    fn catalog_round_trip_is_byte_stable() {
        let c = sample_catalog();
        let bytes = encode_catalog(&c).unwrap();
        let restored = decode_catalog(&bytes).unwrap();
        // Re-encoding the restored catalog must reproduce identical bytes:
        // this is the property recovery's differential tests lean on.
        let bytes2 = encode_catalog(&restored).unwrap();
        assert_eq!(bytes, bytes2);
        // Structural spot checks.
        assert_eq!(restored.table("parent").unwrap().len(), 2);
        assert_eq!(restored.foreign_keys().len(), 1);
        assert!(restored.enforce_constraints);
        // The FK restrict check still works (its secondary index is wired).
        let mut restored = restored;
        assert!(restored.delete("parent", &[vec![Datum::Int(1)]]).is_err());
    }

    #[test]
    fn fk_index_id_survives_restore_with_extra_secondary_indexes() {
        let mut c = sample_catalog();
        // An extra secondary index *before* encoding, plus the FK's own:
        // restore must not duplicate either.
        c.table_mut("child").unwrap().add_secondary_index(vec![2]);
        let n_before = c.table("child").unwrap().secondary_col_sets().len();
        let restored = decode_catalog(&encode_catalog(&c).unwrap()).unwrap();
        assert_eq!(
            restored.table("child").unwrap().secondary_col_sets().len(),
            n_before
        );
        assert_eq!(
            restored.table("child").unwrap().secondary_col_sets(),
            c.table("child").unwrap().secondary_col_sets()
        );
    }

    #[test]
    fn truncated_snapshot_errors_cleanly() {
        let bytes = encode_catalog(&sample_catalog()).unwrap();
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_catalog(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn update_against_unknown_table_errors() {
        let c = sample_catalog();
        let mut buf = Vec::new();
        put_str(&mut buf, "nonexistent").unwrap();
        buf.push(0);
        put_u32(&mut buf, 0);
        assert!(matches!(
            decode_update(&buf, &c),
            Err(StorageError::UnknownTable { .. })
        ));
    }
}
