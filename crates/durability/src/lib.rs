//! Durable maintenance log: WAL, checkpoints, and the VFS they write through.
//!
//! The paper (§1, §5) frames view maintenance as applying a *logged stream of
//! update batches* incrementally; this crate supplies that log. It is the
//! only crate in the workspace allowed to touch `std::fs` (enforced by the
//! `fs-outside-durability` xtask lint) and has zero dependencies, even
//! in-repo: everything here is byte-level. Encoding of `Update`/catalog
//! state lives upstream in `ojv-rel`/`ojv-storage`/`ojv-core`.
//!
//! * [`vfs`] — a tiny virtual filesystem: [`DiskVfs`] over `std::fs` and
//!   [`MemVfs`], which models the data/durable split so tests can "crash" a
//!   database and observe exactly what fsync ordering guaranteed,
//! * [`crc32c`](mod@crc32c) — table-driven CRC-32C (Castagnoli), the checksum guarding
//!   every WAL record and checkpoint,
//! * [`wal`] — segmented append-only log of length-prefixed records with
//!   monotonically increasing LSNs and an [`FsyncPolicy`],
//! * [`checkpoint`] — versioned binary snapshots stamped with the
//!   high-water LSN, written atomically via tmp+rename.
//!
//! Recovery is *not* implemented here: replaying surviving WAL records
//! through incremental maintenance (`maintain_batch`) is `ojv-core`'s job
//! (`DurableDatabase`); this crate only guarantees which bytes survive.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod crc32c;
pub mod error;
pub mod vfs;
pub mod wal;

pub use checkpoint::{
    is_checkpoint_file, prune_checkpoints, read_latest_checkpoint, write_checkpoint, Checkpoint,
};
pub use crc32c::crc32c;
pub use error::DurabilityError;
pub use vfs::{DiskVfs, MemVfs, Vfs};
pub use wal::{
    is_segment_file, scan_segment, FsyncPolicy, Lsn, SegmentRecord, TailTruncation, Wal,
    WalOptions, WalRecord, WalScan,
};
