//! Table-driven CRC-32C (Castagnoli), eight bytes per step.
//!
//! The Castagnoli polynomial (reversed form `0x82F6_3B78`) has better
//! error-detection properties for short messages than CRC-32/ISO-HDLC and
//! is the checksum iSCSI, ext4 and Btrfs use for exactly this job: catching
//! torn and bit-flipped log records.
//!
//! The update is *slice-by-8*: eight 256-entry tables, where `TABLES[k][b]`
//! is the CRC contribution of byte `b` followed by `k` zero bytes, fold an
//! 8-byte word into the state with eight independent lookups instead of a
//! chain of eight dependent ones. The tail (fewer than 8 bytes) runs the
//! classic byte-at-a-time step on `TABLES[0]`. The tables are built at
//! compile time by a `const fn`, so there is no runtime init, no `unsafe`
//! and no dependency.

/// Reversed (LSB-first) representation of the Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32; // lint:allow(cast) — i < 256, widening
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Continue a CRC-32C computation. `state` must come from [`crc32c_init`]
/// or a previous `crc32c_update` call.
#[must_use]
pub fn crc32c_update(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = state;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// Initial state for an incremental CRC-32C computation.
#[must_use]
pub fn crc32c_init() -> u32 {
    !0
}

/// Finalize an incremental CRC-32C computation.
#[must_use]
pub fn crc32c_finish(state: u32) -> u32 {
    !state
}

/// CRC-32C of a byte slice in one shot.
#[must_use]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_finish(crc32c_update(crc32c_init(), data))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference: one table lookup per byte.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = crc32c_init();
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        crc32c_finish(crc)
    }

    #[test]
    fn slice_by_8_matches_bytewise_reference() {
        // Every length up to 64 at every alignment offset within a word.
        let data: Vec<u8> = (0..72u32).map(|i| (i * 37 + 11) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32c(slice),
                    crc32c_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
        // One 1 MiB buffer of xorshift bytes.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let big: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[0]
            })
            .collect();
        assert_eq!(crc32c(&big), crc32c_bytewise(&big));
    }

    #[test]
    fn check_vector() {
        // The standard CRC catalog check value for CRC-32C.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_and_zeroes() {
        assert_eq!(crc32c(b""), 0);
        // 32 bytes of zeroes — known value for CRC-32C (iSCSI test vector).
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let (a, b) = data.split_at(split);
            let inc = crc32c_finish(crc32c_update(crc32c_update(crc32c_init(), a), b));
            assert_eq!(inc, crc32c(data));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"record payload under test";
        let base = crc32c(data);
        let mut buf = data.to_vec();
        for byte in 0..buf.len() {
            for bit in 0..8 {
                buf[byte] ^= 1 << bit;
                assert_ne!(crc32c(&buf), base, "flip at byte {byte} bit {bit}");
                buf[byte] ^= 1 << bit;
            }
        }
    }
}
