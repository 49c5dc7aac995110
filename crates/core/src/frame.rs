//! The in-memory frame record: header + compressed samples.
//!
//! The whole point of the on-chip CA (Sect. I) is that Φ never crosses
//! the channel — only a 64-bit seed does. A [`CompressedFrame`] is what
//! one capture produces and one stream record carries: the
//! [`FrameHeader`] the decoder needs to rebuild Φ, plus `K` samples of
//! `sample_bits` bits each (20 bits for the prototype). Its only wire
//! format is the `TEPS` stream container ([`crate::stream`]), which
//! sends the header once per stream and packs the samples MSB-first
//! with `BitWriter`; the `breakeven` experiment audits those stream
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
    /// Validates the fields the decoder and the sample packer depend on
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
        Ok(())
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

/// MSB-first bit packer of the stream container's record payloads.
pub(crate) struct BitWriter {
    bytes: Vec<u8>,
    bit_pos: u32,
}

impl BitWriter {
    pub(crate) fn new() -> Self {
        BitWriter {
            bytes: Vec::new(),
            bit_pos: 0,
        }
    }

    pub(crate) fn write(&mut self, value: u32, bits: u32) {
        debug_assert!(bits <= 32);
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

    pub(crate) fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// MSB-first bit unpacker of the stream container's record payloads.
pub(crate) struct BitReader<'a> {
    bytes: &'a [u8],
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, bit_pos: 0 }
    }

    pub(crate) fn read(&mut self, bits: u32) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn bitwriter_reader_roundtrip_odd_widths() {
        let values = [(5u32, 3u32), (1023, 10), (0, 1), (0xFFFFF, 20), (7, 20)];
        let mut w = BitWriter::new();
        for &(v, b) in &values {
            w.write(v, b);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, b) in &values {
            assert_eq!(r.read(b), v);
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
