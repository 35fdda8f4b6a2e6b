//! Segmented append-only write-ahead log.
//!
//! ## Record format (little-endian)
//!
//! ```text
//! +------------+-----------+-----------+---------+------------------+
//! | len: u32   | crc: u32  | lsn: u64  | kind:u8 | payload: len B   |
//! +------------+-----------+-----------+---------+------------------+
//! 0            4           8           16        17
//! ```
//!
//! `crc` is CRC-32C over every other record byte (`len ‖ lsn ‖ kind ‖
//! payload` — the crc field itself is skipped), so corruption of the length
//! prefix is caught too. LSNs start at 1 and increase by exactly 1 per
//! record across segment boundaries.
//!
//! ## Segment format
//!
//! Each segment file `wal-{first_lsn:016x}.log` starts with a 16-byte
//! header: magic `OJVWAL01` followed by the `u64` LSN of the segment's
//! first record. Fixed-width hex names make lexicographic order equal LSN
//! order. The segment is rotated (after an fsync of the outgoing file) once
//! it exceeds [`WalOptions::segment_bytes`], so a torn tail can only ever
//! be in the *last* segment.
//!
//! ## Recovery scan
//!
//! [`Wal::open`] scans segments in order and stops at the first record that
//! is torn (short read), CRC-invalid, or breaks LSN continuity. Everything
//! from that point on — the rest of the file and all later segments — is
//! discarded: the tail is truncated, later segments deleted, and the cut
//! reported as a [`TailTruncation`]. A valid record after an invalid one is
//! unreachable by construction (appends are sequential), so this never
//! drops committed data that a correct fsync policy promised to keep.

use crate::crc32c::{crc32c_finish, crc32c_init, crc32c_update};
use crate::error::{DurabilityError, Result};
use crate::vfs::Vfs;

/// Log sequence number: 1-based, dense, monotonically increasing.
pub type Lsn = u64;

/// Bytes before the payload: `len(4) ‖ crc(4) ‖ lsn(8) ‖ kind(1)`.
pub const RECORD_HEADER_LEN: usize = 17;
/// Bytes at the start of every segment: magic(8) ‖ first_lsn(8).
pub const SEGMENT_HEADER_LEN: usize = 16;
/// Segment magic, versioned: bump the trailing digits on format changes.
pub const SEGMENT_MAGIC: &[u8; 8] = b"OJVWAL01";

/// When the WAL fsyncs the active segment.
///
/// Carried by `MaintenancePolicy` so durability cost sits next to the other
/// maintenance knobs the paper's experiments vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every appended record: no committed batch is ever lost.
    #[default]
    Always,
    /// fsync after every N appended records: bounded loss window of at most
    /// N-1 batches, amortized fsync cost.
    EveryN(u32),
    /// Never fsync on the append path (rotation still syncs). Benchmarks
    /// only — measures pure framing + write overhead.
    Never,
}

/// Tuning for a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// fsync cadence for appends.
    pub policy: FsyncPolicy,
    /// Rotate to a new segment once the active one exceeds this many bytes.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            policy: FsyncPolicy::Always,
            segment_bytes: 4 * 1024 * 1024,
        }
    }
}

/// A decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// This record's log sequence number.
    pub lsn: Lsn,
    /// Application-defined record kind tag (`ojv-core` defines the values).
    pub kind: u8,
    /// Application payload bytes.
    pub payload: Vec<u8>,
}

/// A record plus where it ends inside its segment — the crash-point matrix
/// test uses `end_offset` to enumerate record boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRecord {
    /// The decoded record.
    pub record: WalRecord,
    /// Byte offset one past this record within the segment file.
    pub end_offset: u64,
}

/// Report of a tail cut made during [`Wal::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailTruncation {
    /// Segment the first invalid record was found in.
    pub file: String,
    /// Length the segment was truncated to (0 means the whole file, header
    /// included, was invalid and the file was deleted).
    pub valid_len: u64,
    /// Bytes discarded across this segment and all later ones.
    pub dropped_bytes: u64,
    /// Why the scan stopped.
    pub reason: String,
}

/// Result of opening a WAL: every surviving record plus the truncation
/// performed, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// All valid records, in LSN order, across all segments.
    pub records: Vec<WalRecord>,
    /// The cut made at the first torn/corrupt record, if one was found.
    pub truncated: Option<TailTruncation>,
}

/// Outcome of scanning one segment's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// Records decoded before the scan stopped.
    pub records: Vec<SegmentRecord>,
    /// Prefix of the segment that is valid (header + whole records).
    pub valid_len: u64,
    /// Why the scan stopped early, if it did not consume the whole file.
    pub torn: Option<String>,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(data: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(b)
}

fn get_u64(data: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(b)
}

fn segment_name(first_lsn: Lsn) -> String {
    format!("wal-{first_lsn:016x}.log")
}

/// Parse `wal-{lsn:016x}.log` back into its first LSN.
fn parse_segment_name(name: &str) -> Option<Lsn> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if hex.len() != 16 {
        return None;
    }
    Lsn::from_str_radix(hex, 16).ok()
}

/// Whether `name` is a WAL segment file (`wal-{lsn:016x}.log`).
pub fn is_segment_file(name: &str) -> bool {
    parse_segment_name(name).is_some()
}

fn encode_segment_header(first_lsn: Lsn) -> Vec<u8> {
    let mut buf = Vec::with_capacity(SEGMENT_HEADER_LEN);
    buf.extend_from_slice(SEGMENT_MAGIC);
    put_u64(&mut buf, first_lsn);
    buf
}

/// Frame one record. Fails only if the payload cannot be length-prefixed.
fn encode_record(lsn: Lsn, kind: u8, payload: &[u8]) -> Result<Vec<u8>> {
    let len = u32::try_from(payload.len()).map_err(|_| DurabilityError::Limit {
        detail: format!("wal payload of {} bytes exceeds u32 framing", payload.len()),
    })?;
    let mut buf = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    put_u32(&mut buf, len);
    put_u32(&mut buf, 0); // crc placeholder
    put_u64(&mut buf, lsn);
    buf.push(kind);
    buf.extend_from_slice(payload);
    let mut crc = crc32c_init();
    crc = crc32c_update(crc, &buf[0..4]); // len
    crc = crc32c_update(crc, &buf[8..]); // lsn ‖ kind ‖ payload
    let crc = crc32c_finish(crc);
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

/// Scan one segment's bytes, validating the header and each record in turn.
///
/// `expect_first_lsn` is the LSN the segment must start at (`None` accepts
/// whatever the header claims — only used by tooling). The scan stops at the
/// first torn, CRC-invalid, or LSN-discontinuous record; everything before
/// it is returned along with the valid prefix length. This function never
/// touches a VFS, so tests can drive it over arbitrary byte mutations.
pub fn scan_segment(name: &str, data: &[u8], expect_first_lsn: Option<Lsn>) -> SegmentScan {
    let mut records = Vec::new();
    // Header checks: a bad header invalidates the whole file (valid_len 0).
    if data.len() < SEGMENT_HEADER_LEN {
        return SegmentScan {
            records,
            valid_len: 0,
            torn: Some(format!(
                "{name}: short segment header ({} bytes)",
                data.len()
            )),
        };
    }
    if &data[0..8] != SEGMENT_MAGIC {
        return SegmentScan {
            records,
            valid_len: 0,
            torn: Some(format!("{name}: bad segment magic")),
        };
    }
    let header_first = get_u64(data, 8);
    let name_first = parse_segment_name(name);
    if name_first.is_some() && name_first != Some(header_first) {
        return SegmentScan {
            records,
            valid_len: 0,
            torn: Some(format!(
                "{name}: header first-lsn {header_first} disagrees with file name"
            )),
        };
    }
    if let Some(expect) = expect_first_lsn {
        if header_first != expect {
            return SegmentScan {
                records,
                valid_len: 0,
                torn: Some(format!(
                    "{name}: expected first lsn {expect}, header says {header_first}"
                )),
            };
        }
    }

    let mut offset = SEGMENT_HEADER_LEN;
    let mut next_lsn = header_first;
    let torn;
    loop {
        if offset == data.len() {
            torn = None;
            break;
        }
        if data.len() - offset < RECORD_HEADER_LEN {
            torn = Some(format!("{name}: torn record header at offset {offset}"));
            break;
        }
        let len = get_u32(data, offset) as usize; // lint:allow(cast) — u32 widens into usize
        let stored_crc = get_u32(data, offset + 4);
        let lsn = get_u64(data, offset + 8);
        let kind = data[offset + RECORD_HEADER_LEN - 1];
        let end = match offset
            .checked_add(RECORD_HEADER_LEN)
            .and_then(|x| x.checked_add(len))
        {
            Some(end) if end <= data.len() => end,
            _ => {
                torn = Some(format!(
                    "{name}: torn payload at offset {offset} (len {len})"
                ));
                break;
            }
        };
        let mut crc = crc32c_init();
        crc = crc32c_update(crc, &data[offset..offset + 4]);
        crc = crc32c_update(crc, &data[offset + 8..end]);
        if crc32c_finish(crc) != stored_crc {
            torn = Some(format!("{name}: crc mismatch at offset {offset}"));
            break;
        }
        if lsn != next_lsn {
            torn = Some(format!(
                "{name}: lsn discontinuity at offset {offset}: expected {next_lsn}, found {lsn}"
            ));
            break;
        }
        let payload = data[offset + RECORD_HEADER_LEN..end].to_vec();
        records.push(SegmentRecord {
            record: WalRecord { lsn, kind, payload },
            end_offset: u64::try_from(end).unwrap_or(u64::MAX),
        });
        next_lsn += 1;
        offset = end;
    }
    let valid_len = records
        .last()
        .map(|r| r.end_offset)
        .unwrap_or(u64::try_from(SEGMENT_HEADER_LEN).unwrap_or(u64::MAX));
    SegmentScan {
        records,
        valid_len,
        torn,
    }
}

/// The write-ahead log: a chain of segments in a [`Vfs`] directory.
///
/// The `Wal` itself holds only cursor state (active segment, next LSN,
/// fsync counter); every operation takes the `Vfs` explicitly so tests can
/// interleave crashes.
#[derive(Debug)]
pub struct Wal {
    opts: WalOptions,
    /// Name of the segment currently appended to.
    active: String,
    /// Written length of the active segment.
    active_len: u64,
    /// LSN the next appended record will get.
    next_lsn: Lsn,
    /// Appends since the last sync, for `FsyncPolicy::EveryN`.
    unsynced: u32,
    /// First LSN of every live segment, ascending; last entry is `active`.
    segment_first_lsns: Vec<Lsn>,
}

impl Wal {
    /// Create a fresh WAL whose first record will get LSN `first_lsn`.
    pub fn create(vfs: &mut dyn Vfs, opts: WalOptions, first_lsn: Lsn) -> Result<Wal> {
        let name = segment_name(first_lsn);
        vfs.create(&name)?;
        vfs.append(&name, &encode_segment_header(first_lsn))?;
        vfs.sync(&name)?;
        Ok(Wal {
            opts,
            active: name,
            active_len: u64::try_from(SEGMENT_HEADER_LEN).unwrap_or(u64::MAX),
            next_lsn: first_lsn,
            unsynced: 0,
            segment_first_lsns: vec![first_lsn],
        })
    }

    /// Open an existing WAL directory, repairing any torn tail.
    ///
    /// Scans segments in LSN order, stops at the first invalid record,
    /// truncates that segment to its valid prefix (deleting it entirely if
    /// even the header is bad), and deletes all later segments. If the
    /// directory has no segments at all, a fresh one starting at
    /// `next_if_empty` is created (recovery passes `checkpoint_lsn + 1`).
    ///
    /// LSNs must be contiguous across segment boundaries, with one
    /// exception: a segment may start *ahead* of where the previous one
    /// ended as long as it starts at or below `next_if_empty`. Such a gap is
    /// the scar left by [`Wal::begin_after`] — a prior recovery found the
    /// log cut short below a checkpoint, and every skipped LSN is vouched
    /// for by that checkpoint. A gap reaching past `next_if_empty` is still
    /// treated as a torn tail, because it would skip records no checkpoint
    /// covers.
    pub fn open(vfs: &mut dyn Vfs, opts: WalOptions, next_if_empty: Lsn) -> Result<(Wal, WalScan)> {
        let mut segments: Vec<(Lsn, String)> = Vec::new();
        for name in vfs.list()? {
            if let Some(first) = parse_segment_name(&name) {
                segments.push((first, name));
            }
        }
        segments.sort();

        if segments.is_empty() {
            let wal = Wal::create(vfs, opts, next_if_empty)?;
            return Ok((
                wal,
                WalScan {
                    records: Vec::new(),
                    truncated: None,
                },
            ));
        }

        let mut records: Vec<WalRecord> = Vec::new();
        let mut truncated: Option<TailTruncation> = None;
        let mut live: Vec<(Lsn, String, u64)> = Vec::new(); // (first_lsn, name, valid_len)
        let mut expect_lsn = segments[0].0;
        let mut cut_at: Option<usize> = None;

        for (idx, (first, name)) in segments.iter().enumerate() {
            let data = vfs.read(name)?;
            let data_len = u64::try_from(data.len()).unwrap_or(u64::MAX);
            // Cross-segment continuity: this segment must begin exactly
            // where the previous one ended — or jump forward to at most
            // `next_if_empty`, the checkpoint-vouched gap a prior
            // `begin_after` leaves behind.
            let scan = if *first == expect_lsn || (*first > expect_lsn && *first <= next_if_empty) {
                scan_segment(name, &data, Some(*first))
            } else {
                SegmentScan {
                    records: Vec::new(),
                    valid_len: 0,
                    torn: Some(format!(
                        "{name}: segment starts at lsn {first}, expected {expect_lsn}"
                    )),
                }
            };
            for rec in &scan.records {
                records.push(rec.record.clone());
            }
            expect_lsn = *first + u64::try_from(scan.records.len()).unwrap_or(0);
            if let Some(reason) = scan.torn {
                truncated = Some(TailTruncation {
                    file: name.clone(),
                    valid_len: scan.valid_len,
                    dropped_bytes: data_len - scan.valid_len,
                    reason,
                });
                if scan.valid_len > 0 {
                    live.push((*first, name.clone(), scan.valid_len));
                }
                cut_at = Some(idx);
                break;
            }
            live.push((*first, name.clone(), data_len));
        }

        // Apply the cut: truncate the torn segment, delete later ones.
        if let Some(idx) = cut_at {
            let trunc = truncated.as_mut().expect("cut implies truncation");
            if trunc.valid_len > 0 {
                vfs.truncate(&trunc.file, trunc.valid_len)?;
                vfs.sync(&trunc.file)?;
            } else {
                vfs.delete(&trunc.file)?;
            }
            for (_, name) in &segments[idx + 1..] {
                trunc.dropped_bytes += vfs.len(name).unwrap_or(0);
                vfs.delete(name)?;
            }
        }

        let next_lsn = records
            .last()
            .map(|r| r.lsn + 1)
            .unwrap_or_else(|| {
                live.first()
                    .map(|(first, _, _)| *first)
                    .unwrap_or(next_if_empty)
            })
            // Never hand out an LSN below the active segment's first: a
            // record-less gap segment (begin_after, then crash before any
            // append survived) still claims its header's LSN.
            .max(live.last().map(|(first, _, _)| *first).unwrap_or(0));

        let wal = match live.last() {
            Some((_, name, valid_len)) => Wal {
                opts,
                active: name.clone(),
                active_len: *valid_len,
                next_lsn,
                unsynced: 0,
                segment_first_lsns: live.iter().map(|(first, _, _)| *first).collect(),
            },
            // Every segment was invalid: start over at the next LSN the
            // caller's checkpoint vouches for.
            None => Wal::create(vfs, opts, next_if_empty.max(next_lsn))?,
        };
        Ok((wal, WalScan { records, truncated }))
    }

    /// Append one record, returning its LSN. Durability follows the
    /// configured [`FsyncPolicy`].
    pub fn append(&mut self, vfs: &mut dyn Vfs, kind: u8, payload: &[u8]) -> Result<Lsn> {
        let lsn = self.next_lsn;
        let bytes = encode_record(lsn, kind, payload)?;
        let header_len = u64::try_from(SEGMENT_HEADER_LEN).unwrap_or(u64::MAX);
        let rec_len = u64::try_from(bytes.len()).unwrap_or(u64::MAX);
        // Rotate once the active segment holds at least one record and the
        // new record would push it past the limit. The outgoing segment is
        // synced first so a torn tail can only exist in the newest segment.
        if self.active_len > header_len && self.active_len + rec_len > self.opts.segment_bytes {
            vfs.sync(&self.active)?;
            let name = segment_name(lsn);
            vfs.create(&name)?;
            vfs.append(&name, &encode_segment_header(lsn))?;
            vfs.sync(&name)?;
            self.active = name;
            self.active_len = header_len;
            self.unsynced = 0;
            self.segment_first_lsns.push(lsn);
        }
        vfs.append(&self.active, &bytes)?;
        self.active_len += rec_len;
        self.next_lsn += 1;
        match self.opts.policy {
            FsyncPolicy::Always => {
                vfs.sync(&self.active)?;
                self.unsynced = 0;
            }
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    vfs.sync(&self.active)?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(lsn)
    }

    /// Force everything appended so far to be durable.
    pub fn sync(&mut self, vfs: &mut dyn Vfs) -> Result<()> {
        vfs.sync(&self.active)?;
        self.unsynced = 0;
        Ok(())
    }

    /// LSN of the most recently appended record (0 if none ever was).
    pub fn last_lsn(&self) -> Lsn {
        self.next_lsn - 1
    }

    /// LSN the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// The segment currently being appended to.
    pub fn active_segment(&self) -> &str {
        &self.active
    }

    /// Rotate to a fresh segment whose first record will get `first_lsn`,
    /// skipping the LSNs in between.
    ///
    /// Recovery calls this when the surviving log ends at or below a
    /// checkpoint's LSN (a corrupt record below the checkpoint cut the scan
    /// short): appending at `next_lsn() <= checkpoint_lsn` would create
    /// records every later replay silently skips, losing acknowledged data.
    /// The checkpoint vouches for all LSNs at or below its own, so the log
    /// may legally resume at `checkpoint_lsn + 1`. Earlier segments are left
    /// to the next checkpoint's [`Wal::prune_below`], and [`Wal::open`]
    /// accepts the resulting gap (see its docs).
    pub fn begin_after(&mut self, vfs: &mut dyn Vfs, first_lsn: Lsn) -> Result<()> {
        if first_lsn < self.next_lsn {
            return Err(DurabilityError::Corrupt {
                file: self.active.clone(),
                detail: format!(
                    "begin_after({first_lsn}) would move the log backwards from {}",
                    self.next_lsn
                ),
            });
        }
        vfs.sync(&self.active)?;
        let name = segment_name(first_lsn);
        vfs.create(&name)?;
        vfs.append(&name, &encode_segment_header(first_lsn))?;
        vfs.sync(&name)?;
        self.active = name;
        self.active_len = u64::try_from(SEGMENT_HEADER_LEN).unwrap_or(u64::MAX);
        self.next_lsn = first_lsn;
        self.unsynced = 0;
        self.segment_first_lsns.push(first_lsn);
        Ok(())
    }

    /// Delete segments that only contain records with LSN < `keep_from`.
    ///
    /// A segment is removable when the *next* segment starts at or before
    /// `keep_from` (so every record it holds is below the floor). The
    /// active segment is never removed. Callers pass the LSN just above
    /// their newest checkpoint.
    pub fn prune_below(&mut self, vfs: &mut dyn Vfs, keep_from: Lsn) -> Result<()> {
        while self.segment_first_lsns.len() > 1 && self.segment_first_lsns[1] <= keep_from {
            let first = self.segment_first_lsns.remove(0);
            vfs.delete(&segment_name(first))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn opts(policy: FsyncPolicy, segment_bytes: u64) -> WalOptions {
        WalOptions {
            policy,
            segment_bytes,
        }
    }

    #[test]
    fn append_reopen_round_trip() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create(&mut vfs, WalOptions::default(), 1).unwrap();
        for i in 0..10u8 {
            let lsn = wal.append(&mut vfs, 7, &[i; 3]).unwrap();
            assert_eq!(lsn, u64::from(i) + 1);
        }
        assert_eq!(wal.last_lsn(), 10);
        let (reopened, scan) = Wal::open(&mut vfs, WalOptions::default(), 1).unwrap();
        assert!(scan.truncated.is_none());
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.records[4].payload, vec![4u8; 3]);
        assert_eq!(reopened.next_lsn(), 11);
    }

    #[test]
    fn rotation_keeps_lsns_dense_and_scan_complete() {
        let mut vfs = MemVfs::new();
        // Tiny segments: every record larger than the limit forces rotation.
        let mut wal = Wal::create(&mut vfs, opts(FsyncPolicy::Always, 64), 1).unwrap();
        for i in 0..20u8 {
            wal.append(&mut vfs, 1, &[i; 40]).unwrap();
        }
        let names = vfs.list().unwrap();
        assert!(names.len() > 1, "expected rotation, got {names:?}");
        let (_, scan) = Wal::open(&mut vfs, opts(FsyncPolicy::Always, 64), 1).unwrap();
        assert!(scan.truncated.is_none());
        let lsns: Vec<Lsn> = scan.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn crash_without_sync_loses_tail_cleanly() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create(&mut vfs, opts(FsyncPolicy::Never, 1 << 20), 1).unwrap();
        wal.append(&mut vfs, 1, b"one").unwrap();
        wal.sync(&mut vfs).unwrap();
        wal.append(&mut vfs, 1, b"two").unwrap(); // never synced
        let mut crashed = vfs.crash();
        let (wal2, scan) = Wal::open(&mut crashed, WalOptions::default(), 1).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].payload, b"one");
        // The unsynced record vanished entirely (durable length cut), so
        // there is nothing to truncate — and the next LSN is reusable.
        assert_eq!(wal2.next_lsn(), 2);
    }

    #[test]
    fn torn_payload_is_truncated() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create(&mut vfs, WalOptions::default(), 1).unwrap();
        wal.append(&mut vfs, 1, b"first-record").unwrap();
        let lsn2 = wal.append(&mut vfs, 1, b"second-record").unwrap();
        assert_eq!(lsn2, 2);
        let name = wal.active_segment().to_string();
        // Tear the last record: drop its final 4 bytes.
        let len = vfs.len(&name).unwrap();
        vfs.truncate(&name, len - 4).unwrap();
        let (wal2, scan) = Wal::open(&mut vfs, WalOptions::default(), 1).unwrap();
        assert_eq!(scan.records.len(), 1);
        let trunc = scan.truncated.expect("tail cut expected");
        assert!(trunc.reason.contains("torn payload"), "{}", trunc.reason);
        assert_eq!(vfs.len(&name).unwrap(), trunc.valid_len);
        assert_eq!(wal2.next_lsn(), 2);
        // The repaired log accepts new appends and scans clean.
        let mut wal2 = wal2;
        wal2.append(&mut vfs, 1, b"replacement").unwrap();
        let (_, rescan) = Wal::open(&mut vfs, WalOptions::default(), 1).unwrap();
        assert!(rescan.truncated.is_none());
        assert_eq!(rescan.records.len(), 2);
    }

    #[test]
    fn bit_flip_is_detected_and_cut() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create(&mut vfs, WalOptions::default(), 1).unwrap();
        wal.append(&mut vfs, 1, b"aaaa").unwrap();
        wal.append(&mut vfs, 1, b"bbbb").unwrap();
        wal.append(&mut vfs, 1, b"cccc").unwrap();
        let name = wal.active_segment().to_string();
        let mut data = vfs.read(&name).unwrap();
        // Flip one bit in the middle record's payload.
        let second_start = SEGMENT_HEADER_LEN + RECORD_HEADER_LEN + 4;
        data[second_start + RECORD_HEADER_LEN] ^= 0x10;
        vfs.create(&name).unwrap();
        vfs.append(&name, &data).unwrap();
        let (_, scan) = Wal::open(&mut vfs, WalOptions::default(), 1).unwrap();
        // Record 1 survives; record 2 is CRC-invalid; record 3 is
        // unreachable past the cut even though its bytes were intact.
        assert_eq!(scan.records.len(), 1);
        let trunc = scan.truncated.expect("cut expected");
        assert!(trunc.reason.contains("crc mismatch"), "{}", trunc.reason);
    }

    #[test]
    fn torn_later_segment_is_deleted_whole() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create(&mut vfs, opts(FsyncPolicy::Always, 64), 1).unwrap();
        for i in 0..6u8 {
            wal.append(&mut vfs, 1, &[i; 40]).unwrap();
        }
        let names: Vec<String> = vfs.list().unwrap();
        assert!(names.len() >= 3);
        // Corrupt the *header* of the second segment: it and everything
        // after it must be discarded, the first segment kept.
        let victim = &names[1];
        let mut data = vfs.read(victim).unwrap();
        data[0] ^= 0xFF;
        vfs.create(victim).unwrap();
        vfs.append(victim, &data).unwrap();
        let (wal2, scan) = Wal::open(&mut vfs, opts(FsyncPolicy::Always, 64), 1).unwrap();
        let trunc = scan.truncated.expect("cut expected");
        assert_eq!(trunc.valid_len, 0);
        let survivors = vfs.list().unwrap();
        assert_eq!(survivors.len(), 1, "{survivors:?}");
        assert_eq!(scan.records.last().unwrap().lsn + 1, wal2.next_lsn());
    }

    #[test]
    fn every_n_policy_syncs_on_schedule() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create(&mut vfs, opts(FsyncPolicy::EveryN(3), 1 << 20), 1).unwrap();
        let name = wal.active_segment().to_string();
        wal.append(&mut vfs, 1, b"a").unwrap();
        wal.append(&mut vfs, 1, b"b").unwrap();
        let after_two = vfs.durable_len(&name).unwrap();
        // Only the segment header has been synced so far.
        assert_eq!(after_two, SEGMENT_HEADER_LEN as u64); // lint:allow(cast) — widening
        wal.append(&mut vfs, 1, b"c").unwrap();
        assert_eq!(vfs.durable_len(&name).unwrap(), vfs.len(&name).unwrap());
    }

    #[test]
    fn prune_below_removes_only_fully_covered_segments() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create(&mut vfs, opts(FsyncPolicy::Always, 64), 1).unwrap();
        for i in 0..9u8 {
            wal.append(&mut vfs, 1, &[i; 40]).unwrap();
        }
        let before = vfs.list().unwrap().len();
        assert!(before >= 3);
        // Keep everything from LSN 1: nothing may be pruned.
        wal.prune_below(&mut vfs, 1).unwrap();
        assert_eq!(vfs.list().unwrap().len(), before);
        // Keep from the last LSN: all but the active segment (and any
        // segment straddling the floor) go away.
        wal.prune_below(&mut vfs, wal.last_lsn()).unwrap();
        let after = vfs.list().unwrap();
        assert!(after.len() < before, "{after:?}");
        // Scan still works and still reaches the last LSN.
        let last = wal.last_lsn();
        let (wal2, scan) = Wal::open(&mut vfs, opts(FsyncPolicy::Always, 64), 1).unwrap();
        assert_eq!(scan.records.last().unwrap().lsn, last);
        assert_eq!(wal2.next_lsn(), last + 1);
    }

    #[test]
    fn begin_after_skips_to_the_vouched_lsn_and_reopens() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create(&mut vfs, WalOptions::default(), 1).unwrap();
        wal.append(&mut vfs, 1, b"kept").unwrap();
        // Records 2..=5 were lost to corruption but a checkpoint at LSN 5
        // vouches for them: resume at 6.
        wal.begin_after(&mut vfs, 6).unwrap();
        assert_eq!(wal.next_lsn(), 6);
        let lsn = wal.append(&mut vfs, 1, b"after-gap").unwrap();
        assert_eq!(lsn, 6);
        // Reopen with the checkpoint horizon at 5: the gap is accepted, the
        // earlier segment's records survive, and the log stays appendable.
        let (wal2, scan) = Wal::open(&mut vfs, WalOptions::default(), 6).unwrap();
        assert!(scan.truncated.is_none(), "{:?}", scan.truncated);
        let lsns: Vec<Lsn> = scan.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![1, 6]);
        assert_eq!(wal2.next_lsn(), 7);
    }

    #[test]
    fn gap_past_the_checkpoint_horizon_is_cut() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create(&mut vfs, WalOptions::default(), 1).unwrap();
        wal.append(&mut vfs, 1, b"kept").unwrap();
        wal.begin_after(&mut vfs, 6).unwrap();
        wal.append(&mut vfs, 1, b"after-gap").unwrap();
        // A horizon of 4 does not vouch for LSN 5: the gap segment must be
        // discarded as a torn tail, not silently accepted.
        let (wal2, scan) = Wal::open(&mut vfs, WalOptions::default(), 4).unwrap();
        let trunc = scan.truncated.expect("gap beyond horizon must be cut");
        assert!(trunc.reason.contains("expected"), "{}", trunc.reason);
        assert_eq!(scan.records.len(), 1);
        // The survivor ends at LSN 1; it is the caller's job (recovery) to
        // notice next_lsn <= checkpoint_lsn and begin_after the horizon.
        assert_eq!(wal2.next_lsn(), 2);
    }

    #[test]
    fn record_less_gap_segment_still_claims_its_lsn() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create(&mut vfs, WalOptions::default(), 1).unwrap();
        wal.append(&mut vfs, 1, b"kept").unwrap();
        wal.begin_after(&mut vfs, 6).unwrap();
        // Crash before anything lands in the gap segment: the next append
        // must still get LSN 6 (the segment header claims it), never 2.
        let (wal2, scan) = Wal::open(&mut vfs, WalOptions::default(), 6).unwrap();
        assert!(scan.truncated.is_none(), "{:?}", scan.truncated);
        assert_eq!(wal2.next_lsn(), 6);
    }

    #[test]
    fn begin_after_refuses_to_move_backwards() {
        let mut vfs = MemVfs::new();
        let mut wal = Wal::create(&mut vfs, WalOptions::default(), 1).unwrap();
        wal.append(&mut vfs, 1, b"a").unwrap();
        wal.append(&mut vfs, 1, b"b").unwrap();
        assert!(wal.begin_after(&mut vfs, 2).is_err());
    }

    #[test]
    fn empty_directory_starts_at_requested_lsn() {
        let mut vfs = MemVfs::new();
        let (wal, scan) = Wal::open(&mut vfs, WalOptions::default(), 42).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(wal.next_lsn(), 42);
    }
}
