//! Checkpoint payload codecs: view definitions and whole-database state.
//!
//! View definitions live in checkpoints, not in the log (DDL checkpoints
//! immediately), so a checkpoint payload is self-describing: the catalog,
//! then per view its definition, its rows in heap order and the canonical
//! count-index snapshot. `state_bytes()` of the single-stream durable
//! engine is this same encoding — byte-equal payloads mean identical state.

use ojv_algebra::{CmpOp, JoinKind};
use ojv_durability::{DurabilityError, Lsn};
use ojv_rel::{put_row, put_str, put_u32, put_u64, ByteReader, Datum, RelError, Row};
use ojv_storage::{decode_catalog, encode_catalog_into, Catalog};

use crate::database::Database;
use crate::error::{CoreError, Result};
use crate::materialize::{MaterializedView, ViewStore};
use crate::policy::MaintenancePolicy;
use crate::view_def::{NamedAtom, ViewDef, ViewExpr};

pub(crate) fn codec_err(detail: impl Into<String>) -> CoreError {
    CoreError::Rel(RelError::Codec {
        detail: detail.into(),
    })
}

pub(crate) fn fit_u32(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| codec_err(format!("{what} of {n} exceeds u32 framing")))
}

// ---------------------------------------------------------------------------
// View definition codec
// ---------------------------------------------------------------------------

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from_tag(tag: u8) -> Result<CmpOp> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        other => return Err(codec_err(format!("unknown comparison tag {other}"))),
    })
}

fn join_tag(kind: JoinKind) -> u8 {
    match kind {
        JoinKind::Inner => 0,
        JoinKind::LeftOuter => 1,
        JoinKind::RightOuter => 2,
        JoinKind::FullOuter => 3,
        JoinKind::LeftSemi => 4,
        JoinKind::LeftAnti => 5,
    }
}

fn join_from_tag(tag: u8) -> Result<JoinKind> {
    Ok(match tag {
        0 => JoinKind::Inner,
        1 => JoinKind::LeftOuter,
        2 => JoinKind::RightOuter,
        3 => JoinKind::FullOuter,
        4 => JoinKind::LeftSemi,
        5 => JoinKind::LeftAnti,
        other => return Err(codec_err(format!("unknown join-kind tag {other}"))),
    })
}

fn put_atom(buf: &mut Vec<u8>, atom: &NamedAtom) -> Result<()> {
    match atom {
        NamedAtom::Cols { left, op, right } => {
            buf.push(0);
            put_str(buf, &left.0)?;
            put_str(buf, &left.1)?;
            buf.push(cmp_tag(*op));
            put_str(buf, &right.0)?;
            put_str(buf, &right.1)?;
        }
        NamedAtom::Const { col, op, value } => {
            buf.push(1);
            put_str(buf, &col.0)?;
            put_str(buf, &col.1)?;
            buf.push(cmp_tag(*op));
            ojv_rel::put_datum(buf, value)?;
        }
        NamedAtom::Between { col, lo, hi } => {
            buf.push(2);
            put_str(buf, &col.0)?;
            put_str(buf, &col.1)?;
            ojv_rel::put_datum(buf, lo)?;
            ojv_rel::put_datum(buf, hi)?;
        }
    }
    Ok(())
}

fn read_atom(r: &mut ByteReader<'_>) -> Result<NamedAtom> {
    let tag = r.u8("atom tag")?;
    Ok(match tag {
        0 => {
            let lt = r.str("atom left table")?.to_string();
            let lc = r.str("atom left column")?.to_string();
            let op = cmp_from_tag(r.u8("atom cmp")?)?;
            let rt = r.str("atom right table")?.to_string();
            let rc = r.str("atom right column")?.to_string();
            NamedAtom::Cols {
                left: (lt, lc),
                op,
                right: (rt, rc),
            }
        }
        1 => {
            let t = r.str("atom table")?.to_string();
            let c = r.str("atom column")?.to_string();
            let op = cmp_from_tag(r.u8("atom cmp")?)?;
            let value = r.datum()?;
            NamedAtom::Const {
                col: (t, c),
                op,
                value,
            }
        }
        2 => {
            let t = r.str("atom table")?.to_string();
            let c = r.str("atom column")?.to_string();
            let lo = r.datum()?;
            let hi = r.datum()?;
            NamedAtom::Between {
                col: (t, c),
                lo,
                hi,
            }
        }
        other => return Err(codec_err(format!("unknown atom tag {other}"))),
    })
}

fn put_atoms(buf: &mut Vec<u8>, atoms: &[NamedAtom]) -> Result<()> {
    put_u32(buf, fit_u32(atoms.len(), "atom count")?);
    for a in atoms {
        put_atom(buf, a)?;
    }
    Ok(())
}

fn read_atoms(r: &mut ByteReader<'_>) -> Result<Vec<NamedAtom>> {
    let n = r.u32("atom count")? as usize; // lint:allow(cast) — u32 widens into usize
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(read_atom(r)?);
    }
    Ok(out)
}

fn put_expr(buf: &mut Vec<u8>, expr: &ViewExpr) -> Result<()> {
    match expr {
        ViewExpr::Table(name) => {
            buf.push(0);
            put_str(buf, name)?;
        }
        ViewExpr::Select(atoms, input) => {
            buf.push(1);
            put_atoms(buf, atoms)?;
            put_expr(buf, input)?;
        }
        ViewExpr::Join(kind, on, left, right) => {
            buf.push(2);
            buf.push(join_tag(*kind));
            put_atoms(buf, on)?;
            put_expr(buf, left)?;
            put_expr(buf, right)?;
        }
    }
    Ok(())
}

fn read_expr(r: &mut ByteReader<'_>) -> Result<ViewExpr> {
    let tag = r.u8("expr tag")?;
    Ok(match tag {
        0 => ViewExpr::Table(r.str("table name")?.to_string()),
        1 => {
            let atoms = read_atoms(r)?;
            let input = read_expr(r)?;
            ViewExpr::Select(atoms, Box::new(input))
        }
        2 => {
            let kind = join_from_tag(r.u8("join kind")?)?;
            let on = read_atoms(r)?;
            let left = read_expr(r)?;
            let right = read_expr(r)?;
            ViewExpr::Join(kind, on, Box::new(left), Box::new(right))
        }
        other => return Err(codec_err(format!("unknown expr tag {other}"))),
    })
}

/// Encode a view definition (name, SPOJ tree, optional projection).
pub fn encode_view_def(def: &ViewDef) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    put_str(&mut buf, def.name())?;
    put_expr(&mut buf, def.expr())?;
    match def.projection() {
        None => buf.push(0),
        Some(cols) => {
            buf.push(1);
            put_u32(&mut buf, fit_u32(cols.len(), "projection count")?);
            for (t, c) in cols {
                put_str(&mut buf, t)?;
                put_str(&mut buf, c)?;
            }
        }
    }
    Ok(buf)
}

/// Decode a view definition, requiring the buffer be fully consumed.
pub fn decode_view_def(data: &[u8]) -> Result<ViewDef> {
    let mut r = ByteReader::new(data);
    let name = r.str("view name")?.to_string();
    let expr = read_expr(&mut r)?;
    let mut def = ViewDef::new(&name, expr);
    if r.u8("projection flag")? != 0 {
        let n = r.u32("projection count")? as usize; // lint:allow(cast) — u32 widens into usize
        let mut cols = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let t = r.str("projection table")?.to_string();
            let c = r.str("projection column")?.to_string();
            cols.push((t, c));
        }
        def = def.with_projection(cols.iter().map(|(t, c)| (t.as_str(), c.as_str())).collect());
    }
    if !r.is_empty() {
        return Err(codec_err(format!(
            "{} trailing bytes after view definition",
            r.remaining()
        )));
    }
    Ok(def)
}

// ---------------------------------------------------------------------------
// State snapshot codec (checkpoint payload)
// ---------------------------------------------------------------------------

type IndexSnapshot = Vec<(Vec<usize>, Vec<(Vec<Datum>, usize)>)>;

struct ViewSection {
    def: ViewDef,
    rows: Vec<Row>,
    indexes: IndexSnapshot,
}

fn put_view_section(buf: &mut Vec<u8>, view: &MaterializedView) -> Result<()> {
    let def_bytes = encode_view_def(view.def())?;
    put_u32(buf, fit_u32(def_bytes.len(), "view def length")?);
    buf.extend_from_slice(&def_bytes);
    put_store_section(buf, view.store())
}

/// A view store's canonical encoding: its rows in heap order, then the
/// sorted count-index snapshot. The tail of every checkpoint view section,
/// and the per-view body of `Snapshot::state_bytes`.
pub(crate) fn put_store_section(buf: &mut Vec<u8>, store: &ViewStore) -> Result<()> {
    let rows = store.rows();
    put_u32(buf, fit_u32(rows.len(), "view row count")?);
    for row in rows {
        put_row(buf, row)?;
    }
    // The count indexes are *derivable* from the rows, but they are part of
    // the state the acceptance tests compare byte-for-byte, so they are in
    // the snapshot — restore rebuilds them and cross-checks (below).
    let indexes = store.count_index_snapshot();
    put_u32(buf, fit_u32(indexes.len(), "index count")?);
    for (cols, entries) in &indexes {
        put_u32(buf, fit_u32(cols.len(), "index column count")?);
        for &c in cols {
            put_u32(buf, fit_u32(c, "index column")?);
        }
        put_u32(buf, fit_u32(entries.len(), "index entry count")?);
        for (key, count) in entries {
            put_row(buf, key)?;
            let count = u64::try_from(*count).map_err(|_| codec_err("count exceeds u64"))?;
            put_u64(buf, count);
        }
    }
    Ok(())
}

fn read_view_section(r: &mut ByteReader<'_>) -> Result<ViewSection> {
    let def_len = r.u32("view def length")? as usize; // lint:allow(cast) — u32 widens into usize
    let def = decode_view_def(r.bytes(def_len, "view def")?)?;
    let n_rows = r.u32("view row count")? as usize; // lint:allow(cast) — u32 widens into usize
    let mut rows = Vec::with_capacity(n_rows.min(r.remaining()));
    for _ in 0..n_rows {
        rows.push(r.row()?);
    }
    let n_idx = r.u32("index count")? as usize; // lint:allow(cast) — u32 widens into usize
    let mut indexes = Vec::with_capacity(n_idx.min(r.remaining()));
    for _ in 0..n_idx {
        let n_cols = r.u32("index column count")? as usize; // lint:allow(cast) — u32 widens into usize
        let mut cols = Vec::with_capacity(n_cols.min(r.remaining()));
        for _ in 0..n_cols {
            cols.push(r.u32("index column")? as usize); // lint:allow(cast) — u32 widens into usize
        }
        let n_entries = r.u32("index entry count")? as usize; // lint:allow(cast) — u32 widens into usize
        let mut entries = Vec::with_capacity(n_entries.min(r.remaining()));
        for _ in 0..n_entries {
            let key = r.row()?;
            let count = usize::try_from(r.u64("index count value")?)
                .map_err(|_| codec_err("index count exceeds usize"))?;
            entries.push((key, count));
        }
        indexes.push((cols, entries));
    }
    Ok(ViewSection { def, rows, indexes })
}

/// Encode the full in-memory state as a checkpoint payload: the catalog,
/// then every view of `db` (rows in heap order plus the canonical
/// count-index snapshot). Both log topologies write exactly this per
/// database.
///
/// The payload ends with a `u32` that is always 0: it once counted deferred
/// views, and keeping it keeps every checkpoint byte-identical to the
/// format that had them.
pub(crate) fn encode_state(db: &Database) -> Result<Vec<u8>> {
    // The catalog encodes straight into the payload behind a length slot
    // that is patched once its size is known.
    let mut buf = vec![0u8; 4];
    encode_catalog_into(db.catalog(), &mut buf)?;
    let cat_len = fit_u32(buf.len() - 4, "catalog length")?;
    buf[..4].copy_from_slice(&cat_len.to_le_bytes());
    let views: Vec<&MaterializedView> = db.views().collect();
    put_u32(&mut buf, fit_u32(views.len(), "view count")?);
    for v in views {
        put_view_section(&mut buf, v)?;
    }
    put_u32(&mut buf, 0);
    Ok(buf)
}

/// Rebuild a database from a checkpoint payload written by
/// [`encode_state`]: restore the catalog and the views with the
/// snapshot-LSN clock anchored at `lsn` (so restored chains register there
/// and replayed batches land on the LSNs the original run produced).
///
/// A payload whose trailing count is not 0 holds deferred views, which no
/// longer exist: it is refused as corrupt rather than half-restored.
pub(crate) fn restore_state(data: &[u8], policy: MaintenancePolicy, lsn: Lsn) -> Result<Database> {
    let mut r = ByteReader::new(data);
    let cat_len = r.u32("catalog length")? as usize; // lint:allow(cast) — u32 widens into usize
    let mut db = Database::new(decode_catalog(r.bytes(cat_len, "catalog")?)?);
    db.policy = policy;
    db.set_commit_lsn(lsn);
    let n_views = r.u32("view count")? as usize; // lint:allow(cast) — u32 widens into usize
    for _ in 0..n_views {
        let view = restore_view(db.catalog(), read_view_section(&mut r)?)?;
        db.install_view(view)?;
    }
    let n_deferred = r.u32("deferred view count")?;
    if n_deferred != 0 {
        return Err(CoreError::Durability(DurabilityError::Corrupt {
            file: "checkpoint".to_string(),
            detail: format!(
                "checkpoint holds {n_deferred} deferred view(s); deferred views are no longer \
                 supported"
            ),
        }));
    }
    if !r.is_empty() {
        return Err(codec_err(format!(
            "{} trailing bytes after state snapshot",
            r.remaining()
        )));
    }
    Ok(db)
}

/// Rebuild a view from a snapshot section and cross-check the rebuilt count
/// indexes against the checkpointed ones (a cheap end-to-end integrity
/// check: rows and indexes were serialized independently).
fn restore_view(catalog: &Catalog, section: ViewSection) -> Result<MaterializedView> {
    let view = MaterializedView::restore(catalog, section.def, section.rows)?;
    if view.store().count_index_snapshot() != section.indexes {
        return Err(CoreError::Durability(DurabilityError::Corrupt {
            file: "checkpoint".to_string(),
            detail: format!(
                "count indexes of view {} do not match its checkpointed rows",
                view.name()
            ),
        }));
    }
    Ok(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::*;

    #[test]
    fn view_def_codec_round_trip() {
        let defs = [
            oj_view_def(),
            oj_view_def().with_projection(vec![("part", "p_partkey"), ("orders", "o_orderkey")]),
            ViewDef::new(
                "sel",
                ViewExpr::select(
                    vec![
                        crate::view_def::col_cmp("part", "p_partkey", CmpOp::Lt, 100i64),
                        crate::view_def::col_between("part", "p_retailprice", 1.0, 9.0),
                    ],
                    ViewExpr::table("part"),
                ),
            ),
        ];
        for def in defs {
            let bytes = encode_view_def(&def).unwrap();
            assert_eq!(decode_view_def(&bytes).unwrap(), def);
        }
        assert!(decode_view_def(&[]).is_err());
    }
}

/// Directories written while deferred views existed, rebuilt by hand for the
/// refusal tests (no API writes deferred state any more).
#[cfg(test)]
pub(crate) mod old_format {
    use super::*;

    /// A one-view checkpoint `payload` as the old format wrote it with that
    /// view's section repeated as one deferred view: `[u32 catalog
    /// len][catalog][u32 1][view][u32 1][view][u64 refresh watermark]`.
    pub(crate) fn with_deferred_view(payload: &[u8]) -> Vec<u8> {
        let cat_len = ByteReader::new(payload).u32("catalog length").unwrap() as usize; // lint:allow(cast) — u32 widens into usize
        let view = &payload[4 + cat_len + 4..payload.len() - 4];
        let mut old = payload[..payload.len() - 4].to_vec();
        put_u32(&mut old, 1);
        old.extend_from_slice(view);
        put_u64(&mut old, 0);
        old
    }

    /// `res` is a [`DurabilityError::Corrupt`] refusal naming `cause`.
    pub(crate) fn assert_refused<T>(res: Result<T>, cause: &str) {
        match res {
            Err(CoreError::Durability(DurabilityError::Corrupt { detail, .. })) => {
                assert!(detail.contains(cause), "{detail}");
            }
            Err(e) => panic!("expected a Corrupt refusal naming {cause:?}, got {e}"),
            Ok(_) => panic!("expected a Corrupt refusal naming {cause:?}, but open succeeded"),
        }
    }
}
