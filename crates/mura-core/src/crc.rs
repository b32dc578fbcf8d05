//! CRC-32 (IEEE 802.3) — the integrity check shared by the worker wire
//! protocol (`mura-dist`) and the durability layer (`mura-durable`).
//!
//! Hand-rolled and table-driven: the workspace builds offline with no
//! external crates, and both users need the *same* polynomial so a frame
//! checksummed by one layer can be audited by the other. The reflected
//! polynomial `0xEDB8_8320` with initial value / final XOR of `!0` matches
//! zlib's `crc32()`, Ethernet and PNG — handy when inspecting a WAL or a
//! packet capture with standard tooling.
//!
//! The kernel is slicing-by-8: eight 256-entry tables let one step fold
//! eight input bytes with eight independent lookups instead of eight
//! dependent ones, which is what makes checksumming every exchanged byte
//! on every hop affordable (about four times the bytewise table walk).

/// `TABLES[0]` is the classic bytewise table for the reflected IEEE
/// polynomial; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes. Computed at compile time.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
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
};

/// A streaming CRC-32 state. Feed bytes with [`Crc32::update`], finish
/// with [`Crc32::finish`]; [`crc32`] is the one-shot convenience.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh state (initial value `!0`).
    pub fn new() -> Self {
        Crc32(!0)
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][c[4] as usize]
                ^ TABLES[2][c[5] as usize]
                ^ TABLES[1][c[6] as usize]
                ^ TABLES[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The final checksum (applies the closing XOR; the state itself is
    /// unchanged, so interleaved `finish` calls are running checksums).
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition, kept as the reference the sliced
    /// kernel is checked against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    fn splitmix_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&crate::splitmix64(&mut state).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // zlib: crc32("The quick brown fox jumps over the lazy dog")
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn short_inputs_at_every_alignment_match_the_reference() {
        // Lengths 1..=64 cover every mix of 8-byte steps and tail bytes;
        // offsets 0..8 cover every alignment of the first step.
        let data = splitmix_bytes(7, 64 + 8);
        for offset in 0..8 {
            for len in 1..=64 {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn streaming_split_at_every_point_matches_one_shot() {
        let data = splitmix_bytes(11, 200);
        let whole = crc32(&data);
        for cut in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.finish(), whole, "split at {cut}");
        }
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), whole);
    }

    #[test]
    fn sliced_matches_the_reference_on_a_megabyte() {
        let data = splitmix_bytes(42, 1 << 20);
        assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"durable coordinator state".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit} must be detected");
            }
        }
    }
}
