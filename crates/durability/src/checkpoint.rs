//! Versioned binary checkpoints stamped with a high-water LSN.
//!
//! ## File format (little-endian)
//!
//! ```text
//! +-------------+--------------+-----------+-----------------+----------------+----------+
//! | magic: 8 B  | version: u32 | lsn: u64  | payload_len:u32 | payload        | crc: u32 |
//! +-------------+--------------+-----------+-----------------+----------------+----------+
//! 0             8              12          20                24               24+len
//! ```
//!
//! `crc` is CRC-32C over every preceding byte. The payload is opaque here —
//! `ojv-core` serializes the catalog and every view's term state into it.
//!
//! ## Atomicity
//!
//! A checkpoint is written to `ckpt-{lsn:016x}.tmp`, synced, then renamed to
//! `ckpt-{lsn:016x}.snap`. Since [`Vfs::rename`] is atomic with respect to
//! crashes, a reader only ever sees complete `.snap` files or none; stray
//! `.tmp` files are garbage from a crashed writer and are deleted on read.
//! [`read_latest_checkpoint`] additionally verifies the CRC and falls back
//! to the next-newest snapshot if the newest is damaged, so a corrupted
//! checkpoint degrades recovery (longer replay) rather than breaking it.

use crate::crc32c::{crc32c, crc32c_finish, crc32c_init, crc32c_update};
use crate::error::{DurabilityError, Result};
use crate::vfs::Vfs;
use crate::wal::Lsn;

/// Checkpoint magic, versioned by the trailing digit.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"OJVCKPT1";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// A decoded, CRC-verified checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// High-water LSN: every WAL record with `lsn <= lsn` is reflected in
    /// the payload; recovery replays strictly greater LSNs.
    pub lsn: Lsn,
    /// Format version the file was written with.
    pub version: u32,
    /// Opaque application payload.
    pub payload: Vec<u8>,
    /// File the checkpoint was read from.
    pub file: String,
}

fn snap_name(lsn: Lsn) -> String {
    format!("ckpt-{lsn:016x}.snap")
}

fn tmp_name(lsn: Lsn) -> String {
    format!("ckpt-{lsn:016x}.tmp")
}

fn parse_snap_name(name: &str) -> Option<Lsn> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".snap")?;
    if hex.len() != 16 {
        return None;
    }
    Lsn::from_str_radix(hex, 16).ok()
}

/// Whether `name` is a checkpoint file — a finished `.snap` or a leftover
/// `.tmp` from a crashed writer.
pub fn is_checkpoint_file(name: &str) -> bool {
    parse_snap_name(name).is_some() || (name.starts_with("ckpt-") && name.ends_with(".tmp"))
}

/// Write a checkpoint atomically (tmp + sync + rename). Returns the final
/// file name.
pub fn write_checkpoint(vfs: &mut dyn Vfs, lsn: Lsn, payload: &[u8]) -> Result<String> {
    let len = u32::try_from(payload.len()).map_err(|_| DurabilityError::Limit {
        detail: format!(
            "checkpoint payload of {} bytes exceeds u32 framing",
            payload.len()
        ),
    })?;
    let mut header = [0u8; 24];
    header[0..8].copy_from_slice(CHECKPOINT_MAGIC);
    header[8..12].copy_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&lsn.to_le_bytes());
    header[20..24].copy_from_slice(&len.to_le_bytes());
    // The CRC runs over header and payload in place: the payload is never
    // copied into a framing buffer.
    let crc = crc32c_finish(crc32c_update(
        crc32c_update(crc32c_init(), &header),
        payload,
    ));

    let tmp = tmp_name(lsn);
    let snap = snap_name(lsn);
    vfs.create(&tmp)?;
    vfs.append(&tmp, &header)?;
    vfs.append(&tmp, payload)?;
    vfs.append(&tmp, &crc.to_le_bytes())?;
    vfs.sync(&tmp)?;
    vfs.rename(&tmp, &snap)?;
    Ok(snap)
}

fn decode_checkpoint(file: &str, data: &[u8]) -> Result<Checkpoint> {
    if data.len() < 28 {
        return Err(DurabilityError::corrupt(file, "short checkpoint"));
    }
    if &data[0..8] != CHECKPOINT_MAGIC {
        return Err(DurabilityError::corrupt(file, "bad checkpoint magic"));
    }
    let mut u32buf = [0u8; 4];
    let mut u64buf = [0u8; 8];
    u32buf.copy_from_slice(&data[8..12]);
    let version = u32::from_le_bytes(u32buf);
    if version != CHECKPOINT_VERSION {
        return Err(DurabilityError::corrupt(
            file,
            format!("unsupported checkpoint version {version}"),
        ));
    }
    u64buf.copy_from_slice(&data[12..20]);
    let lsn = u64::from_le_bytes(u64buf);
    u32buf.copy_from_slice(&data[20..24]);
    let payload_len = u32::from_le_bytes(u32buf) as usize; // lint:allow(cast) — u32 widens into usize
    let end = 24usize
        .checked_add(payload_len)
        .ok_or_else(|| DurabilityError::corrupt(file, "payload length overflow"))?;
    if data.len() != end + 4 {
        return Err(DurabilityError::corrupt(
            file,
            format!(
                "checkpoint length mismatch: file {} bytes, framed {}",
                data.len(),
                end + 4
            ),
        ));
    }
    u32buf.copy_from_slice(&data[end..end + 4]);
    let stored_crc = u32::from_le_bytes(u32buf);
    if crc32c(&data[..end]) != stored_crc {
        return Err(DurabilityError::corrupt(file, "checkpoint crc mismatch"));
    }
    Ok(Checkpoint {
        lsn,
        version,
        payload: data[24..end].to_vec(),
        file: file.to_string(),
    })
}

/// Read the newest valid checkpoint, deleting stray `.tmp` files and
/// skipping (but not deleting) damaged snapshots. Returns `None` if no
/// valid checkpoint exists.
pub fn read_latest_checkpoint(vfs: &mut dyn Vfs) -> Result<Option<Checkpoint>> {
    let mut snaps: Vec<(Lsn, String)> = Vec::new();
    for name in vfs.list()? {
        if name.starts_with("ckpt-") && name.ends_with(".tmp") {
            // Leftover from a writer that crashed mid-checkpoint.
            vfs.delete(&name)?;
            continue;
        }
        if let Some(lsn) = parse_snap_name(&name) {
            snaps.push((lsn, name));
        }
    }
    snaps.sort();
    while let Some((_, name)) = snaps.pop() {
        let data = vfs.read(&name)?;
        match decode_checkpoint(&name, &data) {
            Ok(ckpt) => return Ok(Some(ckpt)),
            Err(_) => continue, // damaged: fall back to the next-newest
        }
    }
    Ok(None)
}

/// Delete all `.snap` files with an LSN below `keep_from`, except the
/// newest one (recovery always needs at least one checkpoint to start
/// from).
pub fn prune_checkpoints(vfs: &mut dyn Vfs, keep_from: Lsn) -> Result<()> {
    let mut snaps: Vec<(Lsn, String)> = Vec::new();
    for name in vfs.list()? {
        if let Some(lsn) = parse_snap_name(&name) {
            snaps.push((lsn, name));
        }
    }
    snaps.sort();
    if let Some(newest_lsn) = snaps.last().map(|(lsn, _)| *lsn) {
        for (lsn, name) in &snaps {
            if *lsn < keep_from && *lsn != newest_lsn {
                vfs.delete(name)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn write_read_round_trip() {
        let mut vfs = MemVfs::new();
        let name = write_checkpoint(&mut vfs, 17, b"catalog-bytes").unwrap();
        assert_eq!(name, "ckpt-0000000000000011.snap");
        let ckpt = read_latest_checkpoint(&mut vfs).unwrap().unwrap();
        assert_eq!(ckpt.lsn, 17);
        assert_eq!(ckpt.payload, b"catalog-bytes");
    }

    #[test]
    fn newest_valid_wins_and_damaged_fall_back() {
        let mut vfs = MemVfs::new();
        write_checkpoint(&mut vfs, 5, b"old").unwrap();
        let newest = write_checkpoint(&mut vfs, 9, b"new").unwrap();
        // Corrupt the newest snapshot's payload.
        let mut data = vfs.read(&newest).unwrap();
        data[25] ^= 0x01;
        vfs.create(&newest).unwrap();
        vfs.append(&newest, &data).unwrap();
        let ckpt = read_latest_checkpoint(&mut vfs).unwrap().unwrap();
        assert_eq!(ckpt.lsn, 5);
        assert_eq!(ckpt.payload, b"old");
    }

    #[test]
    fn crash_before_rename_leaves_old_checkpoint_intact() {
        let mut vfs = MemVfs::new();
        write_checkpoint(&mut vfs, 3, b"stable").unwrap();
        // Simulate a writer that crashed after writing the tmp file.
        vfs.create("ckpt-0000000000000008.tmp").unwrap();
        vfs.append("ckpt-0000000000000008.tmp", b"half-written")
            .unwrap();
        let mut crashed = vfs.crash();
        let ckpt = read_latest_checkpoint(&mut crashed).unwrap().unwrap();
        assert_eq!(ckpt.lsn, 3);
        // The stray tmp was cleaned up.
        assert!(crashed.list().unwrap().iter().all(|n| !n.ends_with(".tmp")));
    }

    #[test]
    fn prune_keeps_newest() {
        let mut vfs = MemVfs::new();
        write_checkpoint(&mut vfs, 2, b"a").unwrap();
        write_checkpoint(&mut vfs, 4, b"b").unwrap();
        write_checkpoint(&mut vfs, 6, b"c").unwrap();
        prune_checkpoints(&mut vfs, 100).unwrap();
        let left = vfs.list().unwrap();
        assert_eq!(left, vec!["ckpt-0000000000000006.snap".to_string()]);
    }

    #[test]
    fn empty_directory_has_no_checkpoint() {
        let mut vfs = MemVfs::new();
        assert!(read_latest_checkpoint(&mut vfs).unwrap().is_none());
    }
}
