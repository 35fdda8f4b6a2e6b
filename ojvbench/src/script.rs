//! Op scripts: every operation a workload will issue, a pure function of
//! `--seed` produced with the clock stopped. The engine sees only generated
//! rows and keys; the FNV hash of the script (`script_fnv`) names the exact
//! inputs.
//!
//! Row content comes from the in-repo `TpchGen`; the only other randomness
//! is the SplitMix64 stream below, which picks op kinds and update targets.

use std::collections::VecDeque;

use ojv_rel::codec::put_row;
use ojv_rel::{key_of, Datum, Row};
use ojv_tpch::TpchGen;

pub type Key = Vec<Datum>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Insert,
    Delete,
    Update,
}

#[derive(Debug, Clone)]
pub enum Op {
    Insert {
        table: &'static str,
        rows: Vec<Row>,
    },
    Delete {
        table: &'static str,
        keys: Vec<Key>,
    },
    /// SQL `UPDATE`: the rows under `keys` become `rows`.
    Update {
        table: &'static str,
        keys: Vec<Key>,
        rows: Vec<Row>,
    },
    /// An insert with one row that violates a foreign key: the engine must
    /// refuse the whole batch and change nothing.
    Refused {
        table: &'static str,
        rows: Vec<Row>,
    },
    /// `checkpoint()` on a durable facade; not a commit.
    Checkpoint,
}

impl Op {
    /// Base rows this op commits (an `UPDATE` of k rows counts k).
    pub fn rows(&self) -> usize {
        match self {
            Op::Insert { rows, .. } | Op::Update { rows, .. } => rows.len(),
            Op::Delete { keys, .. } => keys.len(),
            Op::Refused { .. } | Op::Checkpoint => 0,
        }
    }

    pub fn kind(&self) -> Option<OpKind> {
        match self {
            Op::Insert { .. } => Some(OpKind::Insert),
            Op::Delete { .. } => Some(OpKind::Delete),
            Op::Update { .. } => Some(OpKind::Update),
            Op::Refused { .. } | Op::Checkpoint => None,
        }
    }
}

/// Sizes of one workload. `--smoke` shrinks them; `--seconds` scales `ops`.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    pub sf: f64,
    /// Commits in the script.
    pub ops: usize,
    /// Lineitem rows per main-stream commit.
    pub batch: usize,
    /// Orders per RF1/RF2 batch (`sharded_refresh`).
    pub rf_orders: usize,
    /// Rows per SQL `UPDATE`.
    pub update_rows: usize,
    /// Feed population (`fanout_read`).
    pub subscribers: usize,
    pub specs: usize,
}

// ---------------------------------------------------------------------------
// Randomness and hashing
// ---------------------------------------------------------------------------

/// SplitMix64 (Steele, Lea, Flood 2014): the script's only RNG besides
/// `TpchGen`'s own.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn rows(&mut self, rows: &[Vec<Datum>], scratch: &mut Vec<u8>) {
        for row in rows {
            scratch.clear();
            put_row(scratch, row).expect("generated rows fit the codec's framing");
            self.bytes(scratch);
        }
    }

    /// Fold one op's canonical encoding into the hash.
    fn op(&mut self, op: &Op, scratch: &mut Vec<u8>) {
        let (tag, table) = match op {
            Op::Insert { table, .. } => (b'I', *table),
            Op::Delete { table, .. } => (b'D', *table),
            Op::Update { table, .. } => (b'U', *table),
            Op::Refused { table, .. } => (b'R', *table),
            Op::Checkpoint => (b'C', ""),
        };
        self.bytes(&[tag]);
        self.bytes(table.as_bytes());
        match op {
            Op::Insert { rows, .. } | Op::Refused { rows, .. } => self.rows(rows, scratch),
            Op::Delete { keys, .. } => self.rows(keys, scratch),
            Op::Update { keys, rows, .. } => {
                self.rows(keys, scratch);
                self.rows(rows, scratch);
            }
            Op::Checkpoint => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Building blocks
// ---------------------------------------------------------------------------

fn lineitem_keys(rows: &[Row]) -> Vec<Key> {
    // Lineitem's key is (l_orderkey, l_linenumber): columns 0 and 1.
    rows.iter().map(|r| key_of(r, &[0, 1])).collect()
}

/// The stationary lineitem stream: inserts of fresh batches on existing
/// orders alternate with deletes of the batch inserted `2 * lag` ops
/// earlier, so the table neither grows nor shrinks once `lag` batches are
/// outstanding (which the warm-up covers).
struct LineitemStream {
    gen: TpchGen,
    batch: usize,
    next_id: u64,
    outstanding: VecDeque<Vec<Key>>,
    lag: usize,
    delete_turn: bool,
}

impl LineitemStream {
    fn new(gen: TpchGen, batch: usize) -> Self {
        LineitemStream {
            gen,
            batch,
            next_id: 1,
            outstanding: VecDeque::new(),
            lag: 4,
            delete_turn: false,
        }
    }

    fn fresh_rows(&mut self) -> Vec<Row> {
        let rows = self.gen.lineitem_insert_batch(self.batch, self.next_id);
        self.next_id += 1;
        rows
    }

    fn insert(&mut self) -> Op {
        let rows = self.fresh_rows();
        self.outstanding.push_back(lineitem_keys(&rows));
        Op::Insert {
            table: "lineitem",
            rows,
        }
    }

    /// Delete the oldest outstanding batch, or insert when none is.
    fn delete(&mut self) -> Op {
        match self.outstanding.pop_front() {
            Some(keys) => Op::Delete {
                table: "lineitem",
                keys,
            },
            None => self.insert(),
        }
    }

    fn next(&mut self) -> Op {
        let delete = self.delete_turn && self.outstanding.len() >= self.lag;
        self.delete_turn = !self.delete_turn;
        if delete {
            self.delete()
        } else {
            self.insert()
        }
    }

    /// A batch the engine must refuse: one row in the middle references an
    /// order that never exists.
    fn violating(&mut self) -> Op {
        let mut rows = self.fresh_rows();
        let mid = rows.len() / 2;
        rows[mid][0] = Datum::Int(self.gen.order_count() * 1000 + 7);
        Op::Refused {
            table: "lineitem",
            rows,
        }
    }
}

/// `UPDATE lineitem SET l_quantity = ..` (a non-key view column) on `n`
/// consecutive base lineitems. Base rows are never deleted by any script,
/// so the keys always exist.
fn lineitem_update(base: &[Row], n: usize, rng: &mut SplitMix) -> Op {
    let n = n.min(base.len());
    let start = rng.below(base.len() - n + 1);
    let rows: Vec<Row> = base[start..start + n]
        .iter()
        .map(|l| {
            let mut row = l.clone();
            row[4] = Datum::Int(1 + rng.below(50) as i64);
            row
        })
        .collect();
    Op::Update {
        table: "lineitem",
        keys: lineitem_keys(&rows),
        rows,
    }
}

fn part_row(partkey: i64) -> Row {
    vec![
        Datum::Int(partkey),
        Datum::str("ojvbench part"),
        Datum::str("Manufacturer#1"),
        Datum::str("Brand#11"),
        Datum::str("STANDARD ANODIZED TIN"),
        Datum::Int(10),
        Datum::str("SM BOX"),
        Datum::Float(TpchGen::retail_price(partkey)),
        Datum::str("ojvbench"),
    ]
}

// ---------------------------------------------------------------------------
// The four scripts
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    V3Stream,
    DurableOltp,
    FanoutRead,
    ShardedRefresh,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::V3Stream,
        Workload::DurableOltp,
        Workload::FanoutRead,
        Workload::ShardedRefresh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::V3Stream => "v3_stream",
            Workload::DurableOltp => "durable_oltp",
            Workload::FanoutRead => "fanout_read",
            Workload::ShardedRefresh => "sharded_refresh",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// RF1 batches of `sharded_refresh` that RF2 has not removed yet.
#[derive(Default)]
struct RefreshState {
    step: usize,
    next_id: u64,
    /// (order keys, lineitem keys) per outstanding RF1 batch.
    outstanding: VecDeque<(Vec<Key>, Vec<Key>)>,
    pending_lines: Option<Vec<Row>>,
    pending_orders: Option<Vec<Key>>,
}

/// The database every workload starts from is the same for every `--seed`:
/// the seed draws the operations, not the data, so run-to-run differences
/// are the engine's and the machine's, not those of view sizes that happen
/// to differ between generated databases.
pub fn base_data(sf: f64) -> TpchGen {
    TpchGen::new(sf, 0x6f6a_7662)
}

/// How many base lineitems the `UPDATE` ops draw their targets from.
const UPDATE_POOL: usize = 8192;

/// A workload's op script as a deterministic stream: the same
/// `(workload, profile, seed)` yields the same ops, and [`Script::fnv`]
/// names them once the stream is exhausted. The driver pulls one op at a
/// time with its clock stopped, so a 10-second script of 1000-row batches
/// never has to sit in memory at once.
pub struct Script {
    workload: Workload,
    profile: Profile,
    gen: TpchGen,
    rng: SplitMix,
    stream: LineitemStream,
    /// Base lineitems (never deleted by any script) that `UPDATE`s target.
    update_pool: Vec<Row>,
    position: usize,
    ready: VecDeque<Op>,
    /// `v3_stream`: count of ops that left the lineitem stream.
    side_ops: u64,
    refresh: RefreshState,
    fnv: Fnv,
    scratch: Vec<u8>,
}

impl Script {
    pub fn new(workload: Workload, profile: Profile, seed: u64) -> Script {
        // Refresh rows come from a generator seeded by the run: they
        // reference base keys by range only (order, part and supplier counts
        // depend on the scale factor alone), and their line numbers start
        // above any base line number, whatever the seed.
        let gen = TpchGen::new(profile.sf, seed);
        let (_, mut update_pool) = base_data(profile.sf).gen_orders_and_lineitems();
        update_pool.truncate(UPDATE_POOL);
        update_pool.shrink_to_fit();
        Script {
            workload,
            profile,
            gen,
            rng: SplitMix::new(seed ^ 0x6f6a_7662),
            stream: LineitemStream::new(gen, profile.batch),
            update_pool,
            position: 0,
            ready: VecDeque::new(),
            side_ops: 0,
            refresh: RefreshState::default(),
            fnv: Fnv::new(),
            scratch: Vec::new(),
        }
    }

    /// Leading ops that run untimed: 5% of the script, and at least the
    /// ten ops within which every script has issued each kind of op once
    /// (the first `UPDATE` compiles the FK-free plans of its tables).
    pub fn warmup_ops(&self) -> usize {
        (self.profile.ops / 20).max(10)
    }

    /// FNV-1a over the canonical encoding of every op produced so far; the
    /// script's identity once the stream is exhausted.
    pub fn fnv(&self) -> u64 {
        self.fnv.0
    }

    fn update(&mut self) -> Op {
        lineitem_update(&self.update_pool, self.profile.update_rows, &mut self.rng)
    }

    /// Queue the op(s) of script position `i`.
    fn fill(&mut self, i: usize) {
        match self.workload {
            Workload::V3Stream => self.fill_v3_stream(i),
            Workload::DurableOltp => self.fill_durable_oltp(i),
            Workload::FanoutRead => {
                // The lineitem stream with large batches; every 10th op is
                // a lineitem `UPDATE`.
                let op = if i % 10 == 9 {
                    self.update()
                } else {
                    self.stream.next()
                };
                self.ready.push_back(op);
            }
            Workload::ShardedRefresh => self.fill_sharded_refresh(i),
        }
    }

    /// The paper's Fig. 5 as a stream. Every 10th op leaves the lineitem
    /// stream, cycling a lineitem `UPDATE`, RF1 orders insert (FK proves V3
    /// untouched) and 1-row part insert (FK fast path). (A customer
    /// `UPDATE` is not possible: its delete half is refused by FK restrict,
    /// every customer having orders.)
    fn fill_v3_stream(&mut self, i: usize) {
        if i % 10 != 9 {
            let op = self.stream.next();
            self.ready.push_back(op);
            return;
        }
        self.side_ops += 1;
        let op = match self.side_ops % 3 {
            1 => self.update(),
            2 => Op::Insert {
                table: "orders",
                rows: self
                    .gen
                    .order_insert_batch(self.profile.update_rows, self.side_ops)
                    .0,
            },
            _ => Op::Insert {
                table: "part",
                rows: vec![part_row(self.gen.part_count() + self.side_ops as i64)],
            },
        };
        self.ready.push_back(op);
    }

    /// Tiny commits, 40% insert / 40% delete / 20% `UPDATE`, four
    /// checkpoints, ending a sixth of the script past the last one so
    /// recovery has a WAL tail to replay.
    fn fill_durable_oltp(&mut self, i: usize) {
        let checkpoint_every = (self.profile.ops * 5 / 24).max(1);
        if i > 0 && i.is_multiple_of(checkpoint_every) {
            self.ready.push_back(Op::Checkpoint);
        }
        // The first three ops are one of each kind, so the warm-up meets
        // every path whatever the seed draws.
        let draw = match i {
            0 => 0,
            1 => 9,
            2 => 4,
            _ => self.rng.below(10),
        };
        let op = match draw {
            0..=3 => self.stream.insert(),
            4..=7 => self.stream.delete(),
            _ => self.update(),
        };
        self.ready.push_back(op);
    }

    /// An 8-step cycle of RF1 (orders, then their lineitems), a lineitem
    /// insert, a lineitem delete, RF2 of an earlier RF1 batch (its
    /// lineitems, then its orders), insert, delete — balanced, so the
    /// tables stay stationary. Every 10th op is a lineitem `UPDATE`; one op
    /// in a hundred is preceded by an FK-violating batch. One checkpoint,
    /// two thirds in, so recovery loads it and replays the last third.
    fn fill_sharded_refresh(&mut self, i: usize) {
        if i > 0 && i == self.profile.ops * 2 / 3 {
            self.ready.push_back(Op::Checkpoint);
        }
        if i % 100 == 10 {
            let op = self.stream.violating();
            self.ready.push_back(op);
        }
        if i % 10 == 9 {
            let op = self.update();
            self.ready.push_back(op);
            return;
        }
        let r = &mut self.refresh;
        let op = match r.step % 8 {
            0 => {
                r.next_id += 1;
                let (orders, lines) = self
                    .gen
                    .order_insert_batch(self.profile.rf_orders, r.next_id);
                r.outstanding.push_back((
                    orders.iter().map(|o| vec![o[0].clone()]).collect(),
                    lineitem_keys(&lines),
                ));
                r.pending_lines = Some(lines);
                Op::Insert {
                    table: "orders",
                    rows: orders,
                }
            }
            1 => Op::Insert {
                table: "lineitem",
                rows: r.pending_lines.take().expect("step 0 generated the lines"),
            },
            // RF2 trails RF1 by two cycles; until then its slots carry the
            // plain stream.
            4 if r.outstanding.len() > 2 => {
                let (orders, lines) = r.outstanding.pop_front().expect("length checked");
                r.pending_orders = Some(orders);
                Op::Delete {
                    table: "lineitem",
                    keys: lines,
                }
            }
            5 if r.pending_orders.is_some() => Op::Delete {
                table: "orders",
                keys: r.pending_orders.take().expect("checked"),
            },
            2 | 4 | 6 => self.stream.insert(),
            _ => self.stream.delete(),
        };
        r.step += 1;
        self.ready.push_back(op);
    }
}

impl Iterator for Script {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.ready.is_empty() && self.position < self.profile.ops {
            self.fill(self.position);
            self.position += 1;
        }
        let op = self.ready.pop_front()?;
        self.fnv.op(&op, &mut self.scratch);
        Some(op)
    }
}
