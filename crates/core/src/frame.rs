//! The in-memory frame record: header + compressed samples.
//!
//! The whole point of the on-chip CA (Sect. I) is that Φ never crosses
//! the channel — only a 64-bit seed does. A [`CompressedFrame`] is what
//! one capture produces and one stream record carries: the
//! [`FrameHeader`] the decoder needs to rebuild Φ, plus `K` samples of
//! `sample_bits` bits each (20 bits for the prototype). Its only wire
//! format is the `TEPS` stream container ([`crate::stream`]), which
//! sends the header once per stream and packs the samples MSB-first
//! with `pack_samples`; the `breakeven` experiment audits those stream
//! bytes against Eq. (1)/(2).

use crate::error::CoreError;
use crate::strategy::StrategyKind;

/// Frame metadata: everything the decoder needs to rebuild Φ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Array rows (M).
    pub rows: u16,
    /// Array columns (N).
    pub cols: u16,
    /// Pixel code width (bits).
    pub code_bits: u8,
    /// Compressed-sample width (bits).
    pub sample_bits: u8,
    /// Strategy family and parameters.
    pub strategy: StrategyKind,
    /// Strategy seed — the only "matrix" data ever transmitted.
    pub seed: u64,
}

impl FrameHeader {
    /// Validates the fields the decoder, the sample packer and the
    /// pattern source depend on, the strategy's parameters included
    /// (shared by [`Decoder::for_header`](crate::decoder::Decoder::for_header),
    /// [`StreamWriter::new`](crate::stream::StreamWriter::new) and the
    /// stream parser, so none of them can diverge on what a degenerate
    /// header is).
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(CoreError::MalformedFrame("zero array dimension".into()));
        }
        if self.code_bits == 0 || self.code_bits > 16 {
            return Err(CoreError::MalformedFrame(format!(
                "code width {} outside 1..=16",
                self.code_bits
            )));
        }
        if self.sample_bits == 0 || self.sample_bits > 32 {
            return Err(CoreError::MalformedFrame(format!(
                "sample width {} outside 1..=32",
                self.sample_bits
            )));
        }
        match self.strategy.validate() {
            Err(CoreError::InvalidConfig(msg)) => Err(CoreError::MalformedFrame(msg)),
            checked => checked,
        }
    }
}

/// A captured compressed frame ready for transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedFrame {
    /// Metadata.
    pub header: FrameHeader,
    /// The compressed samples, one per selection pattern.
    pub samples: Vec<u32>,
}

impl CompressedFrame {
    /// Number of compressed samples.
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Compression ratio `R = K / (M·N)`.
    pub fn ratio(&self) -> f64 {
        self.samples.len() as f64 / (self.header.rows as f64 * self.header.cols as f64)
    }

    /// Payload size in bits (samples only).
    pub fn payload_bits(&self) -> usize {
        self.samples.len() * self.header.sample_bits as usize
    }
}

/// CRC-8 lookup table for the polynomial `x⁸+x²+x+1` (0x07, the
/// SMBus/ATM-HEC polynomial), built at compile time.
const CRC8_TABLE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-8 (polynomial 0x07, init 0x00) over `bytes`.
///
/// This is the integrity check of the resilient (version-3) stream
/// container: one CRC guards each frame-record prefix (so a corrupted
/// length can never stall the parser) and one guards each payload (so
/// corrupt samples are erased instead of decoded). Table-driven and
/// allocation-free — it sits on the per-record hot path.
// tidy:alloc-free
#[must_use]
pub fn crc8(bytes: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in bytes {
        crc = CRC8_TABLE[(crc ^ b) as usize];
    }
    crc
}

/// Appends `values` to `out` packed MSB-first, `bits` bits each (the
/// low `bits` bits of each value), zero-padding the final byte: the
/// record payload of the stream container. A `u64` accumulator takes
/// one value at a time and hands on whole bytes.
pub(crate) fn pack_samples(out: &mut Vec<u8>, values: &[u32], bits: u32) {
    debug_assert!((1..=32).contains(&bits));
    let mask = u64::MAX >> (64 - bits);
    out.reserve((values.len() * bits as usize).div_ceil(8));
    // Fewer than 8 bits are held between values, so at most 39 are live.
    let (mut acc, mut held) = (0u64, 0u32);
    for &value in values {
        acc = (acc << bits) | (u64::from(value) & mask);
        held += bits;
        while held >= 8 {
            held -= 8;
            out.push((acc >> held) as u8);
        }
    }
    if held > 0 {
        out.push((acc << (8 - held)) as u8);
    }
}

/// Reads `count` values of `bits` bits each, MSB-first, from the front
/// of `bytes`, a whole byte at a time: the inverse of [`pack_samples`].
///
/// # Panics
///
/// Panics if `bytes` holds fewer than `count · bits` bits.
pub(crate) fn unpack_samples(bytes: &[u8], count: usize, bits: u32) -> Vec<u32> {
    debug_assert!((1..=32).contains(&bits));
    let mask = u64::MAX >> (64 - bits);
    let mut out = Vec::with_capacity(count);
    let (mut acc, mut held, mut next) = (0u64, 0u32, 0);
    // tidy:alloc-free
    for _ in 0..count {
        while held < bits {
            acc = (acc << 8) | u64::from(bytes[next]);
            held += 8;
            next += 1;
        }
        held -= bits;
        out.push(((acc >> held) & mask) as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imager::CompressiveImager;
    use crate::session::EncodeSession;
    use crate::stream::{WireProfile, FRAME_MARKER, SYNC_INTERVAL, SYNC_WORD};
    use tepics_imaging::tile::TileConfig;
    use tepics_imaging::{FrameGeometry, Scene};
    use tepics_util::SplitMix64;

    #[test]
    fn ratio_accounts_for_array_size() {
        let frame = CompressedFrame {
            header: FrameHeader {
                rows: 64,
                cols: 64,
                code_bits: 8,
                sample_bits: 20,
                strategy: StrategyKind::rule30(256),
                seed: 0xDEAD_BEEF_1234_5678,
            },
            samples: vec![0; 1638],
        };
        assert!((frame.ratio() - 1638.0 / 4096.0).abs() < 1e-12);
        assert_eq!(frame.payload_bits(), 1638 * 20);
    }

    /// The bit-at-a-time packer the stream container first shipped: the
    /// oracle of [`pack_samples`].
    struct BitWriter {
        bytes: Vec<u8>,
        bit_pos: u32,
    }

    impl BitWriter {
        fn new() -> Self {
            BitWriter {
                bytes: Vec::new(),
                bit_pos: 0,
            }
        }

        fn write(&mut self, value: u32, bits: u32) {
            for i in (0..bits).rev() {
                if self.bit_pos.is_multiple_of(8) {
                    self.bytes.push(0);
                }
                let bit = (value >> i) & 1;
                if let Some(byte) = self.bytes.last_mut() {
                    *byte |= (bit as u8) << (7 - (self.bit_pos % 8));
                }
                self.bit_pos += 1;
            }
        }
    }

    /// The bit-at-a-time unpacker: the oracle of [`unpack_samples`].
    struct BitReader<'a> {
        bytes: &'a [u8],
        bit_pos: usize,
    }

    impl BitReader<'_> {
        fn read(&mut self, bits: u32) -> u32 {
            let mut out = 0u32;
            for _ in 0..bits {
                let byte = self.bytes[self.bit_pos / 8];
                let bit = (byte >> (7 - (self.bit_pos % 8))) & 1;
                out = (out << 1) | bit as u32;
                self.bit_pos += 1;
            }
            out
        }
    }

    fn oracle_pack(values: &[u32], bits: u32) -> Vec<u8> {
        let mut writer = BitWriter::new();
        for &v in values {
            writer.write(v, bits);
        }
        writer.bytes
    }

    /// Every width 1–32, every count 0–16 (so every final partial
    /// byte), on random values with
    /// bits above the width, on 0 and on the maximum: the packer writes
    /// the oracle's bytes and the unpacker reads back what the oracle
    /// reader reads, which is each value masked to the width.
    #[test]
    fn packer_matches_the_bit_at_a_time_oracle() {
        let mut rng = SplitMix64::new(0xB17E);
        for bits in 1..=32u32 {
            let max = u32::MAX >> (32 - bits);
            let random: Vec<u32> = (0..300).map(|_| rng.next_u64() as u32).collect();
            for count in 0..=16 {
                let mut sets = vec![vec![0; count], vec![max; count], vec![u32::MAX; count]];
                sets.push(random[..count].to_vec());
                for values in &sets {
                    let expected = oracle_pack(values, bits);
                    let mut packed = vec![0xA5];
                    pack_samples(&mut packed, values, bits);
                    assert_eq!(packed[0], 0xA5, "{bits} bits: the prefix was touched");
                    assert_eq!(packed[1..], expected[..], "{bits} bits, {count} values");
                    let mut reader = BitReader {
                        bytes: &expected,
                        bit_pos: 0,
                    };
                    let read: Vec<u32> = (0..count).map(|_| reader.read(bits)).collect();
                    assert_eq!(unpack_samples(&expected, count, bits), read, "{bits} bits");
                    let masked: Vec<u32> = values.iter().map(|&v| v & max).collect();
                    assert_eq!(read, masked, "{bits} bits");
                }
            }
            // A long run, as a record payload is.
            let long = oracle_pack(&random, bits);
            let mut packed = Vec::new();
            pack_samples(&mut packed, &random, bits);
            assert_eq!(packed, long, "{bits} bits, long run");
            let masked: Vec<u32> = random.iter().map(|&v| v & max).collect();
            assert_eq!(unpack_samples(&long, random.len(), bits), masked);
        }
    }

    /// A compact (tiled, version 2) and a resilient (version 3) encode
    /// session write, byte for byte, the records the oracle packer
    /// assembles: marker, count and packed payload, plus on the
    /// resilient wire the sync words, sequence numbers and both CRCs.
    /// The 32×32 tiles carry 18-bit samples, so payloads end mid-byte.
    #[test]
    fn encode_sessions_write_the_oracle_packers_bytes() {
        let scene = Scene::natural_like().render(88, 88, 11);
        for profile in [WireProfile::Compact, WireProfile::Resilient] {
            let imager = CompressiveImager::builder_for(FrameGeometry::new(88, 88))
                .tiling(TileConfig::new(32).overlap(4))
                .seed(0x0DAC)
                .build()
                .unwrap();
            let bits = u32::from(imager.frame_header().sample_bits);
            let mut session = EncodeSession::with_profile(imager, profile).unwrap();
            let mut expected = session.to_bytes();
            let frames = session.capture(&scene).unwrap();
            assert!(
                frames.len() > SYNC_INTERVAL,
                "{profile:?}: one sync word only"
            );
            assert!(!(frames[0].sample_count() * bits as usize).is_multiple_of(8));
            for (seq, frame) in frames.iter().enumerate() {
                let count = (frame.sample_count() as u32).to_le_bytes();
                let payload = oracle_pack(&frame.samples, bits);
                if profile == WireProfile::Compact {
                    expected.push(FRAME_MARKER);
                    expected.extend_from_slice(&count);
                    expected.extend_from_slice(&payload);
                } else {
                    if seq.is_multiple_of(SYNC_INTERVAL) {
                        expected.extend_from_slice(&SYNC_WORD);
                    }
                    let mut prefix = vec![FRAME_MARKER];
                    prefix.extend_from_slice(&(seq as u32).to_le_bytes());
                    prefix.extend_from_slice(&count);
                    expected.extend_from_slice(&prefix);
                    expected.push(crc8(&prefix));
                    expected.extend_from_slice(&payload);
                    expected.push(crc8(&payload));
                }
            }
            assert_eq!(session.to_bytes(), expected, "{profile:?}");
        }
    }

    #[test]
    fn crc8_matches_reference_vectors() {
        // Standard CRC-8 (poly 0x07, init 0) check value.
        assert_eq!(crc8(b"123456789"), 0xF4);
        assert_eq!(crc8(&[]), 0x00);
        assert_eq!(crc8(&[0x00]), 0x00);
        // Bit-for-bit sensitivity: any single flipped bit changes the CRC.
        let base = crc8(&[0xAB, 0xCD, 0xEF]);
        for byte in 0..3 {
            for bit in 0..8 {
                let mut v = [0xAB, 0xCD, 0xEF];
                v[byte] ^= 1 << bit;
                assert_ne!(crc8(&v), base, "flip {byte}/{bit} undetected");
            }
        }
    }
}
