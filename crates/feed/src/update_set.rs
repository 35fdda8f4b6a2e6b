//! What subscribers receive: net update sets, catch-up materializations,
//! and a reference client-side state for applying them.
//!
//! Rows travel in the flat `[view key | projected output]` layout. One
//! commit's fan-out builds them once per `(view, projection)` into a
//! `SharedRows` buffer, and only for the events some evaluation leaf of
//! that projection delivers; each leaf's [`UpdateSet`] holds an `Arc` of the
//! buffer plus its own insert and delete selections. Every subscriber of a
//! leaf shares the same `Arc<UpdateSet>`, exactly like the `shared_with`
//! rows of batched maintenance, and every leaf of a projection shares the
//! rows behind it. Once the ring sets left over a buffer select fewer rows
//! than it holds, the hub rebuilds them over a smaller buffer of just
//! their rows (`UpdateSet::compact`), so a long-lived sparse set never
//! pins a dense leaf's rows.

use std::fmt;
use std::sync::Arc;

use ojv_durability::Lsn;
use ojv_rel::postable::{idx, pos32};
use ojv_rel::{fx_map_with_capacity, put_row, put_u64, Datum, FxHashMap, Row, RowBuf};

/// The rows one commit delivers for one `(view, projection)`, shared by the
/// [`UpdateSet`]s of every evaluation leaf with that projection.
#[derive(Debug)]
pub(crate) struct SharedRows {
    /// Deleted view keys.
    pub(crate) keys: RowBuf,
    /// Inserted rows: `[view key | projected output]`.
    pub(crate) rows: RowBuf,
}

impl SharedRows {
    /// Rows held, counting each deleted key and each inserted row once.
    pub(crate) fn len(&self) -> usize {
        self.keys.len() + self.rows.len()
    }
}

/// Net changes one commit produced for one evaluation leaf, in LSN order.
///
/// Intra-batch cancellation has already been applied: a row inserted and
/// deleted inside the same batch appears in neither part, and an UPDATE
/// whose projected columns are unchanged vanishes entirely. A key may
/// appear in both parts ([`UpdateSet::deletes`] then
/// [`UpdateSet::inserts`]) — that is an UPDATE of a projected column,
/// decomposed into its two halves. Apply deletes before inserts.
#[derive(Clone)]
pub struct UpdateSet {
    /// Commit this set corresponds to.
    pub lsn: Lsn,
    /// Leading columns of every inserted row (and the whole deleted key)
    /// that form the view key.
    pub key_width: usize,
    shared: Arc<SharedRows>,
    /// Positions in `shared.rows`, in delivery order.
    inserts: Box<[u32]>,
    /// Positions in `shared.keys`, in delivery order.
    deletes: Box<[u32]>,
}

impl UpdateSet {
    /// A set selecting `inserts` from `shared.rows` and `deletes` from
    /// `shared.keys`.
    pub(crate) fn select(
        lsn: Lsn,
        key_width: usize,
        shared: Arc<SharedRows>,
        inserts: Vec<u32>,
        deletes: Vec<u32>,
    ) -> Self {
        UpdateSet {
            lsn,
            key_width,
            shared,
            inserts: inserts.into(),
            deletes: deletes.into(),
        }
    }

    /// A set delivering every row of `deletes` (view keys) and `inserts`
    /// (`[key | projected]` rows), in order.
    pub(crate) fn from_rows(lsn: Lsn, key_width: usize, deletes: RowBuf, inserts: RowBuf) -> Self {
        let all = |n: usize| (0..n).map(pos32).collect();
        let (ins, del) = (all(inserts.len()), all(deletes.len()));
        let shared = SharedRows {
            keys: deletes,
            rows: inserts,
        };
        UpdateSet::select(lsn, key_width, Arc::new(shared), ins, del)
    }

    /// Net-inserted rows, `[view key | projected output]`, in order.
    pub fn inserts(&self) -> impl ExactSizeIterator<Item = &[Datum]> + '_ {
        self.inserts.iter().map(|&i| self.shared.rows.row(idx(i)))
    }

    /// Net-deleted view keys, in order.
    pub fn deletes(&self) -> impl ExactSizeIterator<Item = &[Datum]> + '_ {
        self.deletes.iter().map(|&i| self.shared.keys.row(idx(i)))
    }

    /// The buffer this set selects from, shared with the other leaves of
    /// its `(view, projection)` at this commit.
    pub(crate) fn shared(&self) -> &Arc<SharedRows> {
        &self.shared
    }

    /// Rebuild `sets`, which all select from one buffer, over one new
    /// buffer holding only the rows at least one of them selects. Every set
    /// keeps its content and order. Returns the new buffer.
    pub(crate) fn compact(sets: &mut [&mut Arc<UpdateSet>]) -> Option<Arc<SharedRows>> {
        let old = Arc::clone(&sets.first()?.shared);
        let mut new = SharedRows {
            keys: RowBuf::new(old.keys.width()),
            rows: RowBuf::new(old.rows.width()),
        };
        let (mut row_at, mut key_at) = (
            vec![UNPICKED; old.rows.len()],
            vec![UNPICKED; old.keys.len()],
        );
        let picks: Vec<_> = sets
            .iter()
            .map(|set| {
                let inserts = pick(&set.inserts, &old.rows, &mut row_at, &mut new.rows);
                let deletes = pick(&set.deletes, &old.keys, &mut key_at, &mut new.keys);
                (inserts, deletes)
            })
            .collect();
        let new = Arc::new(new);
        for (set, (inserts, deletes)) in sets.iter_mut().zip(picks) {
            **set = Arc::new(UpdateSet {
                lsn: set.lsn,
                key_width: set.key_width,
                shared: Arc::clone(&new),
                inserts,
                deletes,
            });
        }
        Some(new)
    }

    /// No net effect for this leaf at this commit.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// `(inserted rows, deleted keys)`.
    pub fn counts(&self) -> (usize, usize) {
        (self.inserts.len(), self.deletes.len())
    }
}

/// A row no selection has picked yet.
const UNPICKED: u32 = u32::MAX;

/// `selection` of `from`, re-pointed into `to`: a row is copied the first
/// time any selection picks it, and `at` records where it went.
fn pick(selection: &[u32], from: &RowBuf, at: &mut [u32], to: &mut RowBuf) -> Box<[u32]> {
    selection
        .iter()
        .map(|&i| {
            let slot = &mut at[idx(i)];
            if *slot == UNPICKED {
                *slot = pos32(to.len());
                to.push_row(from.row(idx(i)));
            }
            *slot
        })
        .collect()
}

impl fmt::Debug for UpdateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The selected rows only, not the whole shared buffer.
        f.debug_struct("UpdateSet")
            .field("lsn", &self.lsn)
            .field("key_width", &self.key_width)
            .field("inserts", &self.inserts().collect::<Vec<_>>())
            .field("deletes", &self.deletes().collect::<Vec<_>>())
            .finish()
    }
}

/// A full filtered/projected image of the view at one LSN, produced from a
/// pinned snapshot: the starting state of a new subscription, or the
/// replacement state of a lapsed subscriber's rebase.
#[derive(Debug, Clone)]
pub struct Materialization {
    /// Snapshot LSN the image was scanned at.
    pub lsn: Lsn,
    /// Leading key columns of every row.
    pub key_width: usize,
    /// Rows in `[view key | projected output]` layout.
    pub rows: RowBuf,
}

/// What a drain produced.
#[derive(Debug)]
pub enum Drained {
    /// The sets committed since the cursor, oldest first (possibly none).
    /// Shared allocations: every subscriber of the same evaluation group
    /// drains clones of the same `Arc`s.
    Updates(Vec<Arc<UpdateSet>>),
    /// The subscriber lagged past the retained ring: its state is stale
    /// beyond repair by streaming, so here is a fresh full image (from a
    /// snapshot pin) to replace it with.
    Rebase(Materialization),
}

/// How a [`crate::FeedHub::resume`] request was satisfied.
#[derive(Debug)]
pub enum Resumed {
    /// The ring still covers `from_lsn`: keep the existing state and simply
    /// drain.
    Stream,
    /// The ring no longer covers `from_lsn`, but the snapshot registry
    /// could still pin it: a synthetic net update set moving a state at
    /// `from_lsn` directly to the set's LSN (the diff of the two pinned
    /// images).
    CatchUp(Arc<UpdateSet>),
    /// `from_lsn` is below the snapshot floor — reclamation already freed
    /// it. Full replacement image instead.
    Rebase(Materialization),
}

/// Reference client-side state of one subscription: `view key → projected
/// row`. Tests and benches use it as the differential instrument — after
/// applying a subscriber's stream, [`SubscriberState::state_bytes`] must
/// byte-equal the same encoding of a fresh filtered scan of the pinned
/// snapshot at the same LSN.
#[derive(Debug, Clone)]
pub struct SubscriberState {
    key_width: usize,
    rows: FxHashMap<Vec<Datum>, Row>,
}

impl SubscriberState {
    /// Start from an initial (or rebase) materialization.
    pub fn new(image: &Materialization) -> Self {
        let mut s = SubscriberState {
            key_width: image.key_width,
            rows: fx_map_with_capacity(image.rows.len()),
        };
        s.rebase(image);
        s
    }

    /// Replace the whole state with a fresh image.
    pub fn rebase(&mut self, image: &Materialization) {
        self.key_width = image.key_width;
        self.rows.clear();
        for row in image.rows.iter() {
            self.rows.insert(
                row[..image.key_width].to_vec(),
                row[image.key_width..].to_vec(),
            );
        }
    }

    /// Apply one net update set (deletes, then inserts).
    pub fn apply(&mut self, set: &UpdateSet) {
        for key in set.deletes() {
            self.rows.remove(key);
        }
        for row in set.inserts() {
            self.rows
                .insert(row[..set.key_width].to_vec(), row[set.key_width..].to_vec());
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Projected row for a key, if present.
    pub fn get(&self, key: &[Datum]) -> Option<&Row> {
        self.rows.get(key)
    }

    /// Canonical encoding: row count, then `(key, projected row)` pairs
    /// sorted by key. Two states holding the same mapping are byte-equal
    /// regardless of the order updates arrived in.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut keys: Vec<&Vec<Datum>> = self.rows.keys().collect();
        keys.sort();
        let mut buf = Vec::new();
        put_u64(&mut buf, self.rows.len() as u64); // lint:allow(cast) — usize widens into u64
        for key in keys {
            put_row(&mut buf, key).expect("keys fit u32 framing");
            put_row(&mut buf, &self.rows[key]).expect("rows fit u32 framing");
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(lsn: Lsn, rows: &[(i64, i64)]) -> Materialization {
        let mut buf = RowBuf::new(2);
        for &(k, v) in rows {
            buf.push_row(&[Datum::Int(k), Datum::Int(v)]);
        }
        Materialization {
            lsn,
            key_width: 1,
            rows: buf,
        }
    }

    #[test]
    fn apply_deletes_then_inserts() {
        let mut s = SubscriberState::new(&image(1, &[(1, 10), (2, 20)]));
        let (mut deletes, mut inserts) = (RowBuf::new(1), RowBuf::new(2));
        // UPDATE of key 1 decomposed: delete then re-insert with a new value.
        deletes.push_row(&[Datum::Int(1)]);
        inserts.push_row(&[Datum::Int(1), Datum::Int(11)]);
        // Plain delete of key 2, plain insert of key 3.
        deletes.push_row(&[Datum::Int(2)]);
        inserts.push_row(&[Datum::Int(3), Datum::Int(30)]);
        let set = UpdateSet::from_rows(2, 1, deletes, inserts);
        s.apply(&set);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&[Datum::Int(1)]), Some(&vec![Datum::Int(11)]));
        assert_eq!(s.get(&[Datum::Int(2)]), None);
        assert_eq!(s.get(&[Datum::Int(3)]), Some(&vec![Datum::Int(30)]));
    }

    #[test]
    fn state_bytes_is_order_independent() {
        let a = SubscriberState::new(&image(1, &[(1, 10), (2, 20), (3, 30)]));
        let b = SubscriberState::new(&image(9, &[(3, 30), (1, 10), (2, 20)]));
        assert_eq!(a.state_bytes(), b.state_bytes());
        let c = SubscriberState::new(&image(1, &[(1, 10), (2, 21), (3, 30)]));
        assert_ne!(a.state_bytes(), c.state_bytes());
    }

    #[test]
    fn rebase_replaces_everything() {
        let mut s = SubscriberState::new(&image(1, &[(1, 10), (2, 20)]));
        s.rebase(&image(5, &[(7, 70)]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&[Datum::Int(7)]), Some(&vec![Datum::Int(70)]));
    }
}
