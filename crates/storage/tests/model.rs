//! Model-based property test: a table under random insert/delete sequences
//! — single rows and whole batches, accepted and refused — must behave
//! exactly like a reference model: a `Vec` heap under push / `swap_remove`,
//! and per-key buckets of heap positions under push / `swap_remove` /
//! in-place reposition. The bucket model pins the *order*
//! `lookup_secondary` yields, not just membership: that order feeds view
//! heap order and therefore `state_bytes()`.

use std::collections::BTreeMap;

use ojv_testkit::{property, strategy, vec_of, Rng, Strategy};

use ojv_rel::{Column, DataType, Datum, Row};
use ojv_storage::{Catalog, StorageError, Table};

#[derive(Debug, Clone)]
enum Op {
    Insert {
        id: i64,
        grp: i64,
    },
    Delete {
        id: i64,
    },
    /// All-or-nothing: refused if any id is stored or repeats in the batch.
    InsertBatch {
        ids: Vec<i64>,
        grp: i64,
    },
    /// All-or-nothing: refused if any id is missing or repeats in the batch.
    DeleteBatch {
        ids: Vec<i64>,
    },
}

fn ids(rng: &mut Rng) -> Vec<i64> {
    (0..rng.gen_range(2usize..5))
        .map(|_| rng.gen_range(0i64..20))
        .collect()
}

/// Shrink a batch toward fewer ids.
fn shorter(ids: &[i64]) -> Option<Vec<i64>> {
    (ids.len() > 1).then(|| ids[..ids.len() - 1].to_vec())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    strategy(
        |rng: &mut Rng| match rng.gen_range(0..6) {
            0 | 1 => Op::Insert {
                id: rng.gen_range(0i64..20),
                grp: rng.gen_range(0i64..4),
            },
            2 | 3 => Op::Delete {
                id: rng.gen_range(0i64..20),
            },
            4 => Op::InsertBatch {
                ids: ids(rng),
                grp: rng.gen_range(0i64..4),
            },
            _ => Op::DeleteBatch { ids: ids(rng) },
        },
        |op: &Op| match op {
            Op::Insert { id, grp } => {
                let mut out = vec![Op::Delete { id: *id }];
                if *id > 0 {
                    out.push(Op::Insert {
                        id: id - 1,
                        grp: *grp,
                    });
                }
                if *grp > 0 {
                    out.push(Op::Insert {
                        id: *id,
                        grp: grp - 1,
                    });
                }
                out
            }
            Op::Delete { id } if *id > 0 => vec![Op::Delete { id: id - 1 }],
            Op::Delete { .. } => Vec::new(),
            Op::InsertBatch { ids, grp } => shorter(ids)
                .map(|ids| Op::InsertBatch { ids, grp: *grp })
                .into_iter()
                .collect(),
            Op::DeleteBatch { ids } => shorter(ids)
                .map(|ids| Op::DeleteBatch { ids })
                .into_iter()
                .collect(),
        },
    )
}

fn table() -> Table {
    let schema = ojv_rel::Schema::shared(vec![
        Column::new("t", "id", DataType::Int, false),
        Column::new("t", "grp", DataType::Int, false),
    ])
    .unwrap();
    Table::new("t", schema, vec![0]).unwrap()
}

/// The table under test, inside a catalog (whole-batch deletes live there).
fn catalog() -> (Catalog, usize) {
    let mut c = Catalog::new();
    c.create_table(
        "t",
        vec![
            Column::new("t", "id", DataType::Int, false),
            Column::new("t", "grp", DataType::Int, false),
        ],
        &["id"],
    )
    .unwrap();
    let grp_idx = c.table_mut("t").unwrap().add_secondary_index(vec![1]);
    (c, grp_idx)
}

/// Reference semantics of the heap and of one secondary index.
#[derive(Default)]
struct Model {
    /// `(id, grp)` in heap order.
    heap: Vec<(i64, i64)>,
    /// grp → heap positions, in candidate order.
    buckets: BTreeMap<i64, Vec<usize>>,
}

impl Model {
    fn pos_of(&self, id: i64) -> Option<usize> {
        self.heap.iter().position(|&(i, _)| i == id)
    }

    fn insert(&mut self, id: i64, grp: i64) {
        self.buckets.entry(grp).or_default().push(self.heap.len());
        self.heap.push((id, grp));
    }

    fn delete(&mut self, id: i64) -> (i64, i64) {
        let pos = self.pos_of(id).expect("model row present");
        let victim = self.heap[pos];
        let bucket = self.buckets.get_mut(&victim.1).unwrap();
        let at = bucket.iter().position(|&p| p == pos).unwrap();
        bucket.swap_remove(at);
        if bucket.is_empty() {
            self.buckets.remove(&victim.1);
        }
        let last = self.heap.len() - 1;
        self.heap.swap_remove(pos);
        if pos != last {
            // The heap moved its last row into `pos`: reposition in place.
            let bucket = self.buckets.get_mut(&self.heap[pos].1).unwrap();
            let at = bucket.iter().position(|&p| p == last).unwrap();
            bucket[at] = pos;
        }
        victim
    }

    fn rows(&self) -> Vec<Row> {
        self.heap
            .iter()
            .map(|&(id, grp)| vec![Datum::Int(id), Datum::Int(grp)])
            .collect()
    }
}

fn has_repeats(ids: &[i64]) -> bool {
    ids.iter().enumerate().any(|(i, id)| ids[..i].contains(id))
}

property! {
    #[cases = 256]
    fn table_matches_heap_and_bucket_model(ops in vec_of(op_strategy(), 0..60)) {
        let (mut c, grp_idx) = catalog();
        let mut model = Model::default();

        for op in ops {
            match op {
                Op::Insert { id, grp } => {
                    let row: Row = vec![Datum::Int(id), Datum::Int(grp)];
                    let result = c.insert("t", vec![row]);
                    if model.pos_of(id).is_none() {
                        assert!(result.is_ok());
                        model.insert(id, grp);
                    } else {
                        let dup = matches!(result, Err(StorageError::DuplicateKey { .. }));
                        assert!(dup);
                    }
                }
                Op::Delete { id } => {
                    let result = c.delete("t", &[vec![Datum::Int(id)]]);
                    if model.pos_of(id).is_some() {
                        let up = result.expect("model says the key exists");
                        let (_, grp) = model.delete(id);
                        assert_eq!(up.rows.rows()[0][1], Datum::Int(grp));
                    } else {
                        let missing = matches!(result, Err(StorageError::KeyNotFound { .. }));
                        assert!(missing);
                    }
                }
                Op::InsertBatch { ids, grp } => {
                    let rows = ids
                        .iter()
                        .map(|&id| vec![Datum::Int(id), Datum::Int(grp)])
                        .collect();
                    let result = c.insert("t", rows);
                    if has_repeats(&ids) || ids.iter().any(|&id| model.pos_of(id).is_some()) {
                        // Refused: the checks below find nothing changed.
                        let dup = matches!(result, Err(StorageError::DuplicateKey { .. }));
                        assert!(dup, "{result:?}");
                    } else {
                        assert_eq!(result.unwrap().rows.len(), ids.len());
                        for &id in &ids {
                            model.insert(id, grp);
                        }
                    }
                }
                Op::DeleteBatch { ids } => {
                    let keys: Vec<Row> = ids.iter().map(|&id| vec![Datum::Int(id)]).collect();
                    let result = c.delete("t", &keys);
                    if has_repeats(&ids) || ids.iter().any(|&id| model.pos_of(id).is_none()) {
                        let missing = matches!(result, Err(StorageError::KeyNotFound { .. }));
                        assert!(missing, "{result:?}");
                    } else {
                        let deleted = result.unwrap();
                        for (&id, row) in ids.iter().zip(deleted.rows.rows()) {
                            let (_, grp) = model.delete(id);
                            assert_eq!(row, &vec![Datum::Int(id), Datum::Int(grp)]);
                        }
                    }
                }
            }
            // Invariants after every step — for a refused batch they say
            // "bit-identical": same rows, same heap order, same buckets.
            let t = c.table("t").unwrap();
            assert_eq!(t.iter_rows().collect::<Vec<_>>(), model.rows());
            for &(id, grp) in &model.heap {
                let row = t.get(&[Datum::Int(id)]).expect("model row present");
                assert_eq!(row.datum(1), Datum::Int(grp));
            }
            assert_eq!(t.secondary_distinct(grp_idx), model.buckets.len());
            for g in 0..4i64 {
                let expected: Vec<i64> = model
                    .buckets
                    .get(&g)
                    .map(|b| b.iter().map(|&p| model.heap[p].0).collect())
                    .unwrap_or_default();
                let hits: Vec<i64> = t
                    .lookup_secondary(grp_idx, &[Datum::Int(g)])
                    .map(|r| r.datum(0).as_int().unwrap())
                    .collect();
                assert_eq!(hits, expected, "candidate order of group {}", g);
                assert_eq!(t.count_secondary(grp_idx, &[Datum::Int(g)]), expected.len());
            }
        }
    }

    #[cases = 256]
    fn index_on_finds_permuted_key(cols in vec_of(0usize..2, 1..3)) {
        let t = table();
        // The unique key is column 0; index_on must find it only for [0].
        let found = t.index_on(&cols);
        if cols == vec![0] {
            assert!(found.is_some());
        } else {
            assert!(found.is_none());
        }
    }
}
