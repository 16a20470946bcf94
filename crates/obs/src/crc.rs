//! IEEE CRC-32 (the Ethernet/zlib polynomial, reflected), the checksum of
//! both on-disk formats: the `NPTSNCK2` checkpoint trailer (`nptsn-nn`)
//! and every segment frame of the job store (`nptsn-store`), so one
//! corruption model covers both. It lives here because both crates
//! already depend on this one.

/// The CRC-32 of `bytes`, one table lookup per byte: every `/jobs/infer`
/// job checks a checkpoint, and the bitwise loop took most of a small
/// job's time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc = CRC32_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// `CRC32_TABLE[i]` is what the eight bitwise rounds leave of a register
/// that starts as `i`, so one lookup by the register's low byte xor the
/// input byte replaces the rounds.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut round = 0;
        while round < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            round += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise CRC-32 the table is built from: eight shift-xor rounds
    /// per byte.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn table_crc32_matches_the_bitwise_loop() {
        use nptsn_rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xc3c3_2032);
        let mut lengths: Vec<usize> = (0..=64).chain([4096]).collect();
        lengths.extend((0..64).map(|_| rng.gen_range(65..4096usize)));
        for len in lengths {
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
            assert_eq!(crc32(&bytes), bitwise_crc32(&bytes), "{len} bytes");
        }
        assert_eq!(bitwise_crc32(b"123456789"), 0xCBF4_3926);
    }
}
