//! The versioned stream container: many frames, one header.
//!
//! This is TEPICS's one wire format. Everything but the sample count —
//! geometry, bit widths, strategy, seed — is constant for a camera
//! streaming with one seed, so the stream sends it once and each frame
//! record carries only its sample count and payload:
//!
//! ```text
//! ┌─────────────────────────────┬──────────────┬──────────────┬───
//! │ stream header (23 B, once)  │ frame record │ frame record │ …
//! │ magic "TEPS" · version      │ marker (1 B) │              │
//! │ rows · cols · code_bits     │ count  (4 B) │              │
//! │ sample_bits · strategy      │ payload      │              │
//! │ seed                        │ (bit-packed) │              │
//! └─────────────────────────────┴──────────────┴──────────────┴───
//! ```
//!
//! A stream of `n` frames spends `23 + 5n` bytes besides the payloads,
//! and each payload packs its `K` samples at exactly `sample_bits` bits
//! (`⌈K·sample_bits/8⌉` bytes, not byte-padded per sample). Frames in
//! one stream share a header but may differ in sample count (prefix
//! truncation, adaptive budgets).
//!
//! # Tiled streams (version 2)
//!
//! A version-2 stream carries a *tiled* capture: the base header's
//! `rows × cols` describe one **tile** (so every frame record parses
//! exactly as in version 1), and a 7-byte extension carries the full
//! frame geometry and stitching parameters:
//!
//! ```text
//! ┌──────────────────────────┬───────────────────────────┬──────────
//! │ base header (23 B)       │ tile extension (7 B)      │ records …
//! │ version = 2              │ frame_w · frame_h (u16 LE)│ (one per
//! │ rows·cols = TILE geometry│ overlap (u16 LE)          │  tile)
//! │                          │ blend (u8)                │
//! └──────────────────────────┴───────────────────────────┴──────────
//! ```
//!
//! Records arrive in row-major tile order, `layout.tiles()` records per
//! captured frame. Version-1 streams parse unchanged
//! ([`StreamParser::tile_layout`] is simply `None` for them).
//!
//! # Resilient streams (version 3)
//!
//! Versions 1 and 2 assume a clean transport: one malformed byte
//! poisons the parser forever (the *sticky* contract — appropriate when
//! the bytes come from disk or a checksummed socket). A version-3
//! stream instead assumes a lossy channel and spends a little wire
//! overhead on **self-synchronization**:
//!
//! ```text
//! ┌───────────────────────────┬──────┬───────────────────────────────┬───
//! │ base header · flags · CRC │ SYNC │ record: marker · seq · count  │ …
//! │ (version = 3; tile ext    │ (4 B,│         · prefix-CRC-8        │
//! │  when flags bit 0 is set) │ every│         · payload             │
//! │                           │ 8 th │         · payload-CRC-8       │
//! │                           │ rec.)│                               │
//! └───────────────────────────┴──────┴───────────────────────────────┴───
//! ```
//!
//! * Every record prefix carries a **sequence number** and a CRC-8, so
//!   a corrupted length can never stall or misframe the parser, and the
//!   receiver always knows *which* records a gap swallowed.
//! * Every payload carries its own CRC-8: a record that frames
//!   correctly but fails the payload check is reported as corrupt (and
//!   skipped) instead of being decoded into garbage.
//! * A 4-byte **sync word** precedes every [`SYNC_INTERVAL`]-th record.
//!   After corruption the parser scans forward to the next sync word
//!   *or* the next record prefix that passes its CRC, emits a
//!   structured [`StreamEvent::Corrupt`] with the number of bytes
//!   skipped, and resumes decoding — corruption costs the records it
//!   actually hit, not the stream.
//!
//! [`StreamParser::next_event`] surfaces the full event stream
//! (frames with their sequence numbers, plus corruption reports);
//! [`StreamParser::next_frame`] keeps the frames-only view and skips
//! corrupt stretches transparently on version 3. Only stream-header
//! damage is fatal for a version-3 stream (there is nothing to
//! resynchronize *to* without a header); for versions 1 and 2 every
//! parse error remains sticky — see [`StreamParser::error`].
//!
//! [`StreamWriter`] builds a stream incrementally; [`StreamParser`]
//! consumes one from arbitrary byte chunks (network reads need not align
//! with record boundaries). Both are the substrate of the session API
//! ([`EncodeSession`](crate::session::EncodeSession) /
//! [`DecodeSession`](crate::session::DecodeSession)).

use crate::error::CoreError;
use crate::frame::{crc8, pack_samples, unpack_samples, CompressedFrame, FrameHeader};
use crate::strategy::StrategyKind;
use tepics_imaging::tile::{BlendMode, FrameGeometry, TileLayout};

/// Magic bytes opening every stream.
pub const STREAM_MAGIC: [u8; 4] = *b"TEPS";
/// Container version of untiled streams.
pub const STREAM_VERSION: u8 = 1;
/// Container version of tiled streams (base header + tile extension).
pub const STREAM_VERSION_TILED: u8 = 2;
/// Container version of resilient streams (CRC-8-guarded records with
/// sequence numbers and periodic sync markers; tiled or untiled via the
/// header's flags byte).
pub const STREAM_VERSION_RESILIENT: u8 = 3;
/// Serialized size of the stream header.
pub const STREAM_HEADER_BYTES: usize = 23;
/// Serialized size of a tiled (version-2) stream header: the base
/// header plus the 7-byte tile extension.
pub const TILED_HEADER_BYTES: usize = STREAM_HEADER_BYTES + 7;
/// Serialized size of an untiled resilient (version-3) header: the base
/// header plus a flags byte and a CRC-8.
pub const RESILIENT_HEADER_BYTES: usize = STREAM_HEADER_BYTES + 2;
/// Serialized size of a tiled resilient header (flags bit 0 set): the
/// untiled resilient header plus the 7-byte tile extension.
pub const RESILIENT_TILED_HEADER_BYTES: usize = RESILIENT_HEADER_BYTES + 7;
/// Serialized overhead of each frame record before its payload.
pub const FRAME_RECORD_BYTES: usize = 5;
/// Serialized prefix of a resilient frame record (marker, sequence
/// number, sample count, prefix CRC-8); the payload CRC-8 adds one more
/// byte after the payload.
pub const RESILIENT_RECORD_PREFIX_BYTES: usize = 10;
/// The resynchronization word of resilient streams, written before
/// every [`SYNC_INTERVAL`]-th record. Chosen to collide with neither
/// the stream magic nor the record marker.
pub const SYNC_WORD: [u8; 4] = [0x5A, 0xC3, 0x96, 0x69];
/// A sync word precedes every `SYNC_INTERVAL`-th record of a resilient
/// stream (records whose sequence number is a multiple of this).
pub const SYNC_INTERVAL: usize = 8;

/// Marker byte opening each frame record (cheap resynchronization /
/// corruption check).
pub(crate) const FRAME_MARKER: u8 = 0xF5;

/// Header flag bit: the resilient stream is tiled (tile extension
/// present).
const RESILIENT_FLAG_TILED: u8 = 0b1;

/// How far ahead of the last accepted sequence number a resilient
/// record may claim to be before the parser treats it as corruption
/// (a lucky-CRC forgery or a wildly damaged prefix).
const SEQ_WINDOW: u32 = 1 << 20;

/// Which stream container an [`EncodeSession`](crate::session::EncodeSession)
/// (or [`StreamWriter`]) speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireProfile {
    /// Minimal overhead (versions 1/2): 5-byte records, no integrity
    /// data. A corrupt byte poisons the whole stream — use on clean
    /// transports.
    #[default]
    Compact,
    /// Resilient (version 3): CRC-8-guarded, sequence-numbered records
    /// with periodic sync markers. Corruption is detected, skipped, and
    /// reported; decoding resumes at the next intact record.
    Resilient,
}

/// Blend-mode wire encoding (byte 29 of a tiled header).
fn blend_to_wire(blend: BlendMode) -> u8 {
    match blend {
        BlendMode::Average => 0,
        BlendMode::Feather => 1,
    }
}

/// Decodes a blend-mode byte, rejecting unknown values.
fn blend_from_wire(byte: u8) -> Result<BlendMode, CoreError> {
    match byte {
        0 => Ok(BlendMode::Average),
        1 => Ok(BlendMode::Feather),
        other => Err(CoreError::MalformedFrame(format!(
            "unknown blend mode {other}"
        ))),
    }
}

/// Serializes the base stream header for container `version`.
fn header_bytes(h: &FrameHeader, version: u8) -> [u8; STREAM_HEADER_BYTES] {
    let mut out = [0u8; STREAM_HEADER_BYTES];
    out[0..4].copy_from_slice(&STREAM_MAGIC);
    out[4] = version;
    out[5..7].copy_from_slice(&h.rows.to_le_bytes());
    out[7..9].copy_from_slice(&h.cols.to_le_bytes());
    out[9] = h.code_bits;
    out[10] = h.sample_bits;
    out[11..15].copy_from_slice(&h.strategy.to_wire());
    out[15..23].copy_from_slice(&h.seed.to_le_bytes());
    out
}

/// Serializes the 7-byte tile extension of a tiled header, checking
/// that `header` describes one of `layout`'s tiles and that the frame
/// fits the wire format's `u16` axes.
fn tile_extension(header: &FrameHeader, layout: &TileLayout) -> Result<[u8; 7], CoreError> {
    if header.rows as usize != layout.tile_height() || header.cols as usize != layout.tile_width() {
        return Err(CoreError::InvalidConfig(format!(
            "stream header {}×{} does not match tile {}×{}",
            header.rows,
            header.cols,
            layout.tile_height(),
            layout.tile_width()
        )));
    }
    let frame = layout.frame();
    let axis = |n: usize| {
        u16::try_from(n).map_err(|_| {
            CoreError::InvalidConfig(format!(
                "frame {}×{} exceeds the wire format's 65535-pixel axis limit",
                frame.width(),
                frame.height()
            ))
        })
    };
    let (w, h, overlap) = (
        axis(frame.width())?,
        axis(frame.height())?,
        layout.overlap() as u16,
    );
    let mut ext = [0u8; 7];
    ext[0..2].copy_from_slice(&w.to_le_bytes());
    ext[2..4].copy_from_slice(&h.to_le_bytes());
    ext[4..6].copy_from_slice(&overlap.to_le_bytes());
    ext[6] = blend_to_wire(layout.blend());
    Ok(ext)
}

/// Incremental writer producing one contiguous wire stream.
///
/// # Examples
///
/// ```
/// use tepics_core::frame::{CompressedFrame, FrameHeader};
/// use tepics_core::stream::{StreamParser, StreamWriter, WireProfile};
/// use tepics_core::StrategyKind;
///
/// let header = FrameHeader {
///     rows: 8,
///     cols: 8,
///     code_bits: 8,
///     sample_bits: 14,
///     strategy: StrategyKind::rule30(32),
///     seed: 99,
/// };
/// let mut writer = StreamWriter::new(header, None, WireProfile::Compact).unwrap();
/// writer.push_samples(&[1, 2, 3]).unwrap();
/// writer.push_samples(&[4, 5]).unwrap();
///
/// let mut parser = StreamParser::new();
/// parser.push_bytes(writer.bytes());
/// let first = parser.next_frame().unwrap().unwrap();
/// assert_eq!(first.samples, vec![1, 2, 3]);
/// assert_eq!(first.header, header);
/// ```
#[derive(Debug, Clone)]
pub struct StreamWriter {
    header: FrameHeader,
    buf: Vec<u8>,
    frames: usize,
    layout: Option<TileLayout>,
    version: u8,
}

impl StreamWriter {
    /// Opens a stream for frames matching `header`, writing the stream
    /// header immediately. The container follows from `layout` and
    /// `profile`:
    ///
    /// | profile                   | untiled   | tiled     |
    /// |---------------------------|-----------|-----------|
    /// | [`WireProfile::Compact`]  | version 1 | version 2 |
    /// | [`WireProfile::Resilient`]| version 3 | version 3 |
    ///
    /// A tiled stream's `header` describes one tile and must match the
    /// layout's tile dimensions; each captured frame then contributes
    /// `layout.tiles()` records in row-major tile order. On a resilient
    /// stream every record is CRC-8-guarded and sequence-numbered
    /// (`seq = frame × layout.tiles() + tile` when tiled), and a
    /// [`SYNC_WORD`] precedes every [`SYNC_INTERVAL`]-th record so a
    /// parser can recover from corruption mid-stream.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] for degenerate headers
    /// (zero dimensions, bit widths outside their ranges), or
    /// [`CoreError::InvalidConfig`] if a tiled `header` is not the
    /// layout's tile geometry or the frame dimensions exceed the wire
    /// format's `u16` fields.
    pub fn new(
        header: FrameHeader,
        layout: Option<&TileLayout>,
        profile: WireProfile,
    ) -> Result<StreamWriter, CoreError> {
        header.validate()?;
        let resilient = profile == WireProfile::Resilient;
        let version = match (resilient, layout) {
            (true, _) => STREAM_VERSION_RESILIENT,
            (false, Some(_)) => STREAM_VERSION_TILED,
            (false, None) => STREAM_VERSION,
        };
        // [base 23 | flags 1 (v3) | tile extension 7 (tiled) | CRC-8 (v3)]
        let mut buf = header_bytes(&header, version).to_vec();
        if resilient {
            buf.push(if layout.is_some() {
                RESILIENT_FLAG_TILED
            } else {
                0
            });
        }
        if let Some(layout) = layout {
            buf.extend_from_slice(&tile_extension(&header, layout)?);
        }
        if resilient {
            buf.push(crc8(&buf));
        }
        Ok(StreamWriter {
            header,
            buf,
            frames: 0,
            layout: layout.cloned(),
            version,
        })
    }

    /// The stream header every frame must match.
    pub fn header(&self) -> &FrameHeader {
        &self.header
    }

    /// The container version this writer emits (1, 2, or 3).
    pub fn wire_version(&self) -> u8 {
        self.version
    }

    /// The tile layout of a tiled stream (version 2, or version 3 with
    /// the tiled flag); `None` for an untiled stream.
    pub fn tile_layout(&self) -> Option<&TileLayout> {
        self.layout.as_ref()
    }

    /// Number of frames appended so far.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Appends a captured frame.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FrameMismatch`] if the frame header differs
    /// from the stream header, or the sample-range errors of
    /// [`StreamWriter::push_samples`].
    pub fn push_frame(&mut self, frame: &CompressedFrame) -> Result<(), CoreError> {
        if frame.header != self.header {
            return Err(CoreError::FrameMismatch(
                "frame header does not match stream header".into(),
            ));
        }
        self.push_samples(&frame.samples)
    }

    /// Appends one frame record from raw samples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the frame is empty, has
    /// more samples than pixels, or contains a sample that does not fit
    /// in the header's `sample_bits`.
    pub fn push_samples(&mut self, samples: &[u32]) -> Result<(), CoreError> {
        let max_count = self.header.rows as u64 * self.header.cols as u64;
        if samples.is_empty() || samples.len() as u64 > max_count {
            return Err(CoreError::InvalidConfig(format!(
                "frame sample count {} outside 1..={max_count}",
                samples.len()
            )));
        }
        let bits = self.header.sample_bits as u32;
        let limit = if bits == 32 {
            u32::MAX
        } else {
            (1 << bits) - 1
        };
        if let Some(&bad) = samples.iter().find(|&&s| s > limit) {
            return Err(CoreError::InvalidConfig(format!(
                "sample {bad} does not fit in {bits} bits"
            )));
        }
        if self.version == STREAM_VERSION_RESILIENT {
            let seq = self.frames as u32; // wraps with the stream's 2³²-record horizon
            if (seq as usize).is_multiple_of(SYNC_INTERVAL) {
                self.buf.extend_from_slice(&SYNC_WORD);
            }
            let prefix_start = self.buf.len();
            self.buf.push(FRAME_MARKER);
            self.buf.extend_from_slice(&seq.to_le_bytes());
            self.buf
                .extend_from_slice(&(samples.len() as u32).to_le_bytes());
            let prefix_crc = crc8(&self.buf[prefix_start..]);
            self.buf.push(prefix_crc);
            let payload_start = self.buf.len();
            pack_samples(&mut self.buf, samples, bits);
            let payload_crc = crc8(&self.buf[payload_start..]);
            self.buf.push(payload_crc);
        } else {
            self.buf.push(FRAME_MARKER);
            self.buf
                .extend_from_slice(&(samples.len() as u32).to_le_bytes());
            pack_samples(&mut self.buf, samples, bits);
        }
        self.frames += 1;
        Ok(())
    }

    /// The serialized stream so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the serialized stream.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Total wire size in bits.
    pub fn wire_bits(&self) -> usize {
        self.buf.len() * 8
    }
}

/// One event out of a [`StreamParser`].
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A complete, integrity-checked frame record.
    Frame {
        /// The record's position in the stream. Versions 1/2 number
        /// records implicitly (parse order); version 3 carries the
        /// number on the wire, so gaps are visible as jumps.
        seq: u64,
        /// The decoded record.
        frame: CompressedFrame,
    },
    /// A corrupt stretch of a resilient (version-3) stream was detected
    /// and skipped; parsing resumes at the next intact record or sync
    /// word. Versions 1/2 never emit this — they fail sticky instead.
    Corrupt {
        /// Bytes consumed without yielding a frame (damaged record
        /// bytes plus any garbage scanned over).
        bytes_skipped: usize,
    },
}

/// Incremental parser consuming a stream from arbitrary byte chunks.
///
/// Feed bytes with [`StreamParser::push_bytes`] as they arrive, then
/// drain complete records with [`StreamParser::next_event`] (or the
/// frames-only convenience [`StreamParser::next_frame`]).
///
/// # Error contract: sticky (v1/v2) vs resync (v3)
///
/// For version-1/2 streams a parse error (bad magic, unknown strategy,
/// out-of-range count…) is **sticky**: the stream is corrupt and every
/// further call reports the same [`CoreError::MalformedFrame`] —
/// inspect it with [`StreamParser::error`] /
/// [`StreamParser::is_malformed`].
///
/// A version-3 (resilient) stream only fails sticky on stream-*header*
/// damage. Once the header has parsed, record-level corruption is
/// reported as [`StreamEvent::Corrupt`] and the parser resynchronizes:
/// it scans forward for the next [`SYNC_WORD`] or the next record
/// prefix whose CRC-8 verifies, and resumes from there.
/// [`StreamParser::next_frame`] skips the corrupt events transparently.
#[derive(Debug, Clone, Default)]
pub struct StreamParser {
    buf: Vec<u8>,
    pos: usize,
    header: Option<FrameHeader>,
    layout: Option<TileLayout>,
    frames: usize,
    poisoned: Option<CoreError>,
    /// Container version (0 until the header has parsed).
    version: u8,
    /// Resilient mode: currently scanning for a resync point.
    scanning: bool,
    /// Resilient mode: bytes consumed since corruption was detected,
    /// not yet reported in a [`StreamEvent::Corrupt`].
    pending_skip: usize,
    /// Resilient mode: lowest sequence number a record may carry and
    /// still advance the stream (last accepted + 1).
    seq_floor: u32,
    /// Total bytes skipped over all corrupt stretches so far.
    skipped_total: usize,
    /// Total [`StreamEvent::Corrupt`] events emitted so far.
    corrupt_events: usize,
}

impl StreamParser {
    /// An empty parser awaiting the stream header.
    #[must_use]
    pub fn new() -> StreamParser {
        StreamParser::default()
    }

    /// Appends received bytes (need not align with record boundaries).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        // Reclaim consumed prefix once it dominates the buffer.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// The stream header, once enough bytes have arrived to parse it.
    /// For a tiled stream this is the **tile** geometry (see the module
    /// docs).
    pub fn header(&self) -> Option<&FrameHeader> {
        self.header.as_ref()
    }

    /// The tile layout of a tiled stream (version 2, or version 3 with
    /// the tiled flag), once its header has been parsed; `None` for an
    /// untiled stream (and before the header arrives).
    pub fn tile_layout(&self) -> Option<&TileLayout> {
        self.layout.as_ref()
    }

    /// Number of complete frames parsed so far.
    pub fn frames_parsed(&self) -> usize {
        self.frames
    }

    /// Bytes received but not yet consumed by a complete record.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The sticky parse error, if the stream is poisoned. Version-1/2
    /// streams poison on any parse error; version-3 streams only on
    /// stream-header damage (see the type-level docs for the two
    /// contracts).
    pub fn error(&self) -> Option<&CoreError> {
        self.poisoned.as_ref()
    }

    /// Whether the parser is poisoned — every further
    /// [`next_frame`](StreamParser::next_frame) /
    /// [`next_event`](StreamParser::next_event) call will return the
    /// same error ([`StreamParser::error`]).
    pub fn is_malformed(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Container version of the stream (once the header has parsed).
    pub fn wire_version(&self) -> Option<u8> {
        (self.version != 0).then_some(self.version)
    }

    /// Total bytes skipped over corrupt stretches so far (version-3
    /// resynchronization; always 0 for versions 1/2).
    pub fn bytes_skipped(&self) -> usize {
        self.skipped_total
    }

    /// Number of [`StreamEvent::Corrupt`] events emitted so far.
    pub fn corrupt_events(&self) -> usize {
        self.corrupt_events
    }

    /// Parses the next complete frame, if the buffer holds one,
    /// transparently skipping corrupt stretches of a resilient stream.
    /// Use [`StreamParser::next_event`] to observe the skips.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] on a corrupt version-1/2
    /// stream (sticky) or a version-3 stream whose *header* is corrupt.
    pub fn next_frame(&mut self) -> Result<Option<CompressedFrame>, CoreError> {
        loop {
            match self.next_event()? {
                None => return Ok(None),
                Some(StreamEvent::Frame { frame, .. }) => return Ok(Some(frame)),
                Some(StreamEvent::Corrupt { .. }) => {}
            }
        }
    }

    /// Parses the next stream event: a frame record, or (version 3
    /// only) a report of skipped corrupt bytes.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] under the sticky contract
    /// (see the type-level docs).
    pub fn next_event(&mut self) -> Result<Option<StreamEvent>, CoreError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match self.advance() {
            Ok(ev) => Ok(ev),
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    fn advance(&mut self) -> Result<Option<StreamEvent>, CoreError> {
        if self.header.is_none() && !self.parse_header()? {
            return Ok(None);
        }
        if self.version == STREAM_VERSION_RESILIENT {
            return Ok(self.next_resilient());
        }
        let seq = self.frames as u64;
        Ok(self
            .try_next_compact()?
            .map(|frame| StreamEvent::Frame { seq, frame }))
    }

    /// Parses the stream header once enough bytes are buffered.
    /// `Ok(true)` = header parsed, `Ok(false)` = need more bytes.
    fn parse_header(&mut self) -> Result<bool, CoreError> {
        if self.buffered_bytes() < STREAM_HEADER_BYTES {
            return Ok(false);
        }
        if self.buf[self.pos..self.pos + 4] != STREAM_MAGIC {
            return Err(CoreError::MalformedFrame("bad stream magic".into()));
        }
        let version = self.buf[self.pos + 4];
        let header_len = match version {
            STREAM_VERSION => STREAM_HEADER_BYTES,
            STREAM_VERSION_TILED => TILED_HEADER_BYTES,
            STREAM_VERSION_RESILIENT => {
                // Need the flags byte to know the header length.
                if self.buffered_bytes() < STREAM_HEADER_BYTES + 1 {
                    return Ok(false);
                }
                let flags = self.buf[self.pos + STREAM_HEADER_BYTES];
                if flags & !RESILIENT_FLAG_TILED != 0 {
                    return Err(CoreError::MalformedFrame(format!(
                        "unknown resilient header flags {flags:#04x}"
                    )));
                }
                if flags & RESILIENT_FLAG_TILED != 0 {
                    RESILIENT_TILED_HEADER_BYTES
                } else {
                    RESILIENT_HEADER_BYTES
                }
            }
            other => {
                return Err(CoreError::MalformedFrame(format!(
                    "unsupported stream version {other}"
                )));
            }
        };
        if self.buffered_bytes() < header_len {
            return Ok(false);
        }
        let b = &self.buf[self.pos..self.pos + header_len];
        if version == STREAM_VERSION_RESILIENT && crc8(&b[..header_len - 1]) != b[header_len - 1] {
            return Err(CoreError::MalformedFrame(
                "resilient stream header fails its CRC".into(),
            ));
        }
        let header = FrameHeader {
            rows: u16::from_le_bytes([b[5], b[6]]),
            cols: u16::from_le_bytes([b[7], b[8]]),
            code_bits: b[9],
            sample_bits: b[10],
            strategy: StrategyKind::from_wire([b[11], b[12], b[13], b[14]])?,
            seed: u64::from_le_bytes([b[15], b[16], b[17], b[18], b[19], b[20], b[21], b[22]]),
        };
        header.validate()?;
        // The tile extension sits right after the base header (v2) or
        // after the flags byte (v3 tiled).
        let ext_at = match version {
            STREAM_VERSION_TILED => Some(STREAM_HEADER_BYTES),
            STREAM_VERSION_RESILIENT if header_len == RESILIENT_TILED_HEADER_BYTES => {
                Some(STREAM_HEADER_BYTES + 1)
            }
            _ => None,
        };
        if let Some(at) = ext_at {
            let e = &b[at..at + 7];
            let frame_w = u16::from_le_bytes([e[0], e[1]]) as usize;
            let frame_h = u16::from_le_bytes([e[2], e[3]]) as usize;
            let overlap = u16::from_le_bytes([e[4], e[5]]) as usize;
            let blend = blend_from_wire(e[6])?;
            if frame_w == 0 || frame_h == 0 {
                return Err(CoreError::MalformedFrame(format!(
                    "tiled stream frame {frame_w}×{frame_h} has a zero dimension"
                )));
            }
            // The base header carries the tile geometry; the layout
            // constructor re-validates tile-vs-frame consistency
            // (tile within frame, overlap below tile).
            let layout = TileLayout::with_tile_dims(
                FrameGeometry::new(frame_w, frame_h),
                header.cols as usize,
                header.rows as usize,
                overlap,
                blend,
            )
            .map_err(|e| CoreError::MalformedFrame(e.to_string()))?;
            self.layout = Some(layout);
        }
        self.header = Some(header);
        self.version = version;
        self.pos += header_len;
        Ok(true)
    }

    /// The version-1/2 record parser (sticky contract).
    fn try_next_compact(&mut self) -> Result<Option<CompressedFrame>, CoreError> {
        let Some(header) = self.header else {
            return Ok(None);
        };
        if self.buffered_bytes() < FRAME_RECORD_BYTES {
            return Ok(None);
        }
        let b = &self.buf[self.pos..];
        if b[0] != FRAME_MARKER {
            return Err(CoreError::MalformedFrame(format!(
                "bad frame marker {:#04x}",
                b[0]
            )));
        }
        let count = u32::from_le_bytes([b[1], b[2], b[3], b[4]]) as u64;
        let max_count = header.rows as u64 * header.cols as u64;
        if count == 0 || count > max_count {
            return Err(CoreError::MalformedFrame(format!(
                "frame sample count {count} outside 1..={max_count}"
            )));
        }
        // Overflow-safe: count ≤ 2³², sample_bits ≤ 32 → fits in u64;
        // reject (rather than truncate) lengths a 32-bit usize cannot
        // address.
        let payload_len = usize::try_from((count * header.sample_bits as u64).div_ceil(8))
            .map_err(|_| {
                CoreError::MalformedFrame(format!(
                    "frame payload for {count} samples exceeds addressable memory"
                ))
            })?;
        if self.buffered_bytes() < FRAME_RECORD_BYTES + payload_len {
            return Ok(None);
        }
        let payload = &b[FRAME_RECORD_BYTES..FRAME_RECORD_BYTES + payload_len];
        let samples = unpack_samples(payload, count as usize, header.sample_bits as u32);
        self.pos += FRAME_RECORD_BYTES + payload_len;
        self.frames += 1;
        Ok(Some(CompressedFrame { header, samples }))
    }

    /// The version-3 record parser: never errors — corruption becomes
    /// [`StreamEvent::Corrupt`] and the parser resynchronizes.
    ///
    /// Progress guarantee: every loop iteration either returns or
    /// consumes at least one buffered byte, so a call always terminates
    /// within `buffered_bytes()` iterations.
    fn next_resilient(&mut self) -> Option<StreamEvent> {
        let header = self.header?;
        let max_count = header.rows as u64 * header.cols as u64;
        loop {
            if self.scanning {
                match self.scan_for_resync(max_count) {
                    ScanOutcome::NeedBytes => return None,
                    ScanOutcome::Resynced => {
                        self.scanning = false;
                        let bytes_skipped = std::mem::take(&mut self.pending_skip);
                        self.skipped_total += bytes_skipped;
                        self.corrupt_events += 1;
                        return Some(StreamEvent::Corrupt { bytes_skipped });
                    }
                }
            }
            let avail = self.buffered_bytes();
            if avail == 0 {
                return None;
            }
            let first = self.buf[self.pos];
            if first == SYNC_WORD[0] {
                // A sync word (or the corrupted start of one).
                if avail < SYNC_WORD.len() {
                    return None;
                }
                if self.buf[self.pos..self.pos + SYNC_WORD.len()] == SYNC_WORD {
                    self.pos += SYNC_WORD.len();
                    continue;
                }
                self.enter_scan();
                continue;
            }
            if first != FRAME_MARKER {
                self.enter_scan();
                continue;
            }
            if avail < RESILIENT_RECORD_PREFIX_BYTES {
                return None;
            }
            let b = &self.buf[self.pos..];
            match validate_resilient_prefix(b, max_count, self.seq_floor) {
                None => {
                    self.enter_scan();
                    continue;
                }
                Some((seq, count)) => {
                    let payload_len =
                        ((count * u64::from(header.sample_bits)).div_ceil(8)) as usize;
                    let record_len = RESILIENT_RECORD_PREFIX_BYTES + payload_len + 1;
                    if avail < record_len {
                        return None;
                    }
                    let payload = &b[RESILIENT_RECORD_PREFIX_BYTES
                        ..RESILIENT_RECORD_PREFIX_BYTES + payload_len];
                    if crc8(payload) != b[RESILIENT_RECORD_PREFIX_BYTES + payload_len] {
                        // Correctly framed but damaged payload: erase
                        // exactly this record and move on.
                        self.pos += record_len;
                        self.skipped_total += record_len;
                        self.corrupt_events += 1;
                        self.seq_floor = self.seq_floor.max(seq.wrapping_add(1));
                        return Some(StreamEvent::Corrupt {
                            bytes_skipped: record_len,
                        });
                    }
                    let samples =
                        unpack_samples(payload, count as usize, u32::from(header.sample_bits));
                    self.pos += record_len;
                    self.frames += 1;
                    self.seq_floor = self.seq_floor.max(seq.wrapping_add(1));
                    return Some(StreamEvent::Frame {
                        seq: u64::from(seq),
                        frame: CompressedFrame { header, samples },
                    });
                }
            }
        }
    }

    /// Enters scan mode, consuming the known-bad byte at `pos`.
    fn enter_scan(&mut self) {
        self.scanning = true;
        self.pos += 1;
        self.pending_skip += 1;
    }

    /// Scans forward for a resync point: the next [`SYNC_WORD`] or the
    /// next record prefix whose CRC-8 (and count/sequence sanity)
    /// verifies. Consumes everything conclusively garbage; keeps
    /// inconclusive tails (partial sync words / prefixes) buffered for
    /// the next call.
    // tidy:alloc-free
    fn scan_for_resync(&mut self, max_count: u64) -> ScanOutcome {
        let mut i = self.pos;
        loop {
            let avail = self.buf.len() - i;
            if avail == 0 {
                break;
            }
            let first = self.buf[i];
            if first == SYNC_WORD[0] {
                if avail < SYNC_WORD.len() {
                    break; // inconclusive: might be a partial sync word
                }
                if self.buf[i..i + SYNC_WORD.len()] == SYNC_WORD {
                    self.pending_skip += i - self.pos;
                    self.pos = i;
                    return ScanOutcome::Resynced;
                }
            } else if first == FRAME_MARKER {
                if avail < RESILIENT_RECORD_PREFIX_BYTES {
                    break; // inconclusive: might be a partial prefix
                }
                if validate_resilient_prefix(&self.buf[i..], max_count, self.seq_floor).is_some() {
                    self.pending_skip += i - self.pos;
                    self.pos = i;
                    return ScanOutcome::Resynced;
                }
            }
            i += 1;
        }
        // Everything up to `i` is conclusively garbage.
        self.pending_skip += i - self.pos;
        self.pos = i;
        ScanOutcome::NeedBytes
    }
}

/// Result of one resync scan pass.
enum ScanOutcome {
    /// Found a plausible record or sync word at the current position.
    Resynced,
    /// Buffer exhausted (up to an inconclusive tail); wait for bytes.
    NeedBytes,
}

/// Checks a resilient record prefix (`marker · seq · count · crc`):
/// marker byte, CRC-8, count in `1..=max_count`, and sequence number
/// within [`SEQ_WINDOW`] of the expected floor (guards against
/// lucky-CRC forgeries mid-garbage). Returns `(seq, count)` when valid.
///
/// The slice must hold at least [`RESILIENT_RECORD_PREFIX_BYTES`].
// tidy:alloc-free
fn validate_resilient_prefix(b: &[u8], max_count: u64, seq_floor: u32) -> Option<(u32, u64)> {
    if b[0] != FRAME_MARKER {
        return None;
    }
    if crc8(&b[..RESILIENT_RECORD_PREFIX_BYTES - 1]) != b[RESILIENT_RECORD_PREFIX_BYTES - 1] {
        return None;
    }
    let seq = u32::from_le_bytes([b[1], b[2], b[3], b[4]]);
    let count = u64::from(u32::from_le_bytes([b[5], b[6], b[7], b[8]]));
    if count == 0 || count > max_count {
        return None;
    }
    // Accept replays (seq below the floor — the session discards them)
    // but reject absurd forward jumps.
    if seq > seq_floor.saturating_add(SEQ_WINDOW) {
        return None;
    }
    Some((seq, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_imaging::tile::TileConfig;
    use tepics_util::SplitMix64;

    fn header() -> FrameHeader {
        FrameHeader {
            rows: 16,
            cols: 16,
            code_bits: 8,
            sample_bits: 16,
            strategy: StrategyKind::rule30(64),
            seed: 0xDEAD_BEEF,
        }
    }

    fn frames(n: usize, k: usize) -> Vec<CompressedFrame> {
        let mut rng = SplitMix64::new(11);
        (0..n)
            .map(|_| CompressedFrame {
                header: header(),
                samples: (0..k).map(|_| rng.next_below(1 << 16) as u32).collect(),
            })
            .collect()
    }

    #[test]
    fn stream_roundtrips_all_frames() {
        let frames = frames(5, 90);
        let mut writer = StreamWriter::new(header(), None, WireProfile::Compact).unwrap();
        for f in &frames {
            writer.push_frame(f).unwrap();
        }
        let mut parser = StreamParser::new();
        parser.push_bytes(writer.bytes());
        for (i, f) in frames.iter().enumerate() {
            let got = parser
                .next_frame()
                .unwrap()
                .unwrap_or_else(|| panic!("frame {i} missing"));
            assert_eq!(&got, f, "frame {i}");
        }
        assert!(parser.next_frame().unwrap().is_none());
        assert_eq!(parser.frames_parsed(), 5);
        assert_eq!(parser.buffered_bytes(), 0);
    }

    #[test]
    fn parser_handles_arbitrary_chunking() {
        let frames = frames(3, 40);
        let mut writer = StreamWriter::new(header(), None, WireProfile::Compact).unwrap();
        for f in &frames {
            writer.push_frame(f).unwrap();
        }
        let bytes = writer.into_bytes();
        // Feed one byte at a time: frames must pop out exactly when
        // their last byte arrives.
        let mut parser = StreamParser::new();
        let mut got = Vec::new();
        for &b in &bytes {
            parser.push_bytes(&[b]);
            while let Some(f) = parser.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    /// The exact byte count of a stream, from the container layout alone:
    /// header (+ flags, tile extension and CRC), then per record its
    /// prefix, `⌈K·sample_bits/8⌉` payload bytes and (v3) the payload
    /// CRC, plus one sync word every `SYNC_INTERVAL` records on v3.
    fn closed_form_bytes(profile: WireProfile, tiled: bool, bits: u8, counts: &[usize]) -> usize {
        let resilient = profile == WireProfile::Resilient;
        let header = STREAM_HEADER_BYTES + usize::from(resilient) * 2 + usize::from(tiled) * 7;
        let (prefix, payload_crc) = if resilient {
            (RESILIENT_RECORD_PREFIX_BYTES, 1)
        } else {
            (FRAME_RECORD_BYTES, 0)
        };
        let records: usize = counts
            .iter()
            .map(|&k| prefix + (k * usize::from(bits)).div_ceil(8) + payload_crc)
            .sum();
        let syncs = if resilient {
            counts.len().div_ceil(SYNC_INTERVAL) * SYNC_WORD.len()
        } else {
            0
        };
        header + records + syncs
    }

    #[test]
    fn wire_bits_match_the_closed_form() {
        let layout = tiled_layout();
        // An odd sample width, so no record payload ends on a byte.
        let header = FrameHeader {
            sample_bits: 13,
            ..tiled_header()
        };
        let counts: Vec<usize> = (0..19).map(|i| 1 + (i * 37) % 256).collect();
        for profile in [WireProfile::Compact, WireProfile::Resilient] {
            for tiled in [false, true] {
                let mut writer =
                    StreamWriter::new(header, tiled.then_some(&layout), profile).unwrap();
                for &k in &counts {
                    writer.push_samples(&vec![0x1ABC; k]).unwrap();
                }
                let expected = closed_form_bytes(profile, tiled, 13, &counts);
                assert_eq!(
                    writer.wire_bits(),
                    expected * 8,
                    "{profile:?}, tiled = {tiled}"
                );
            }
        }
    }

    #[test]
    fn payload_is_bit_packed_not_byte_padded() {
        let mut header = header();
        header.sample_bits = 20;
        let samples: Vec<u32> = (0..100).map(|i| (i * 10_007) % (1 << 20)).collect();
        let mut writer = StreamWriter::new(header, None, WireProfile::Compact).unwrap();
        writer.push_samples(&samples).unwrap();
        // 100 × 20 bits = 2000 bits = 250 payload bytes after the 23-byte
        // header and the 5-byte record prefix.
        assert_eq!(
            writer.bytes().len(),
            STREAM_HEADER_BYTES + FRAME_RECORD_BYTES + 250
        );
        let mut parser = StreamParser::new();
        parser.push_bytes(writer.bytes());
        assert_eq!(parser.next_frame().unwrap().unwrap().samples, samples);
    }

    #[test]
    fn degenerate_headers_are_rejected_by_writer_and_parser() {
        for (sample_bits, code_bits) in [(0, 8), (33, 8), (16, 0), (16, 17)] {
            let h = FrameHeader {
                sample_bits,
                code_bits,
                ..header()
            };
            assert!(matches!(
                StreamWriter::new(h, None, WireProfile::Compact),
                Err(CoreError::MalformedFrame(_))
            ));
            // The same header smuggled onto the wire by hand.
            let mut bytes = StreamWriter::new(header(), None, WireProfile::Compact)
                .unwrap()
                .into_bytes();
            bytes[9] = code_bits;
            bytes[10] = sample_bits;
            let mut p = StreamParser::new();
            p.push_bytes(&bytes);
            assert!(matches!(p.next_frame(), Err(CoreError::MalformedFrame(_))));
        }
    }

    #[test]
    fn frames_may_vary_in_sample_count() {
        let mut writer = StreamWriter::new(header(), None, WireProfile::Compact).unwrap();
        writer.push_samples(&[1, 2, 3, 4, 5]).unwrap();
        writer.push_samples(&[6]).unwrap();
        let mut parser = StreamParser::new();
        parser.push_bytes(writer.bytes());
        assert_eq!(parser.next_frame().unwrap().unwrap().samples.len(), 5);
        assert_eq!(parser.next_frame().unwrap().unwrap().samples.len(), 1);
    }

    #[test]
    fn writer_rejects_foreign_and_degenerate_frames() {
        let mut writer = StreamWriter::new(header(), None, WireProfile::Compact).unwrap();
        let mut foreign = frames(1, 10).remove(0);
        foreign.header.seed ^= 1;
        assert!(matches!(
            writer.push_frame(&foreign),
            Err(CoreError::FrameMismatch(_))
        ));
        assert!(writer.push_samples(&[]).is_err());
        assert!(writer.push_samples(&vec![0; 257]).is_err()); // > 16·16
        assert!(writer.push_samples(&[1 << 16]).is_err()); // overflows 16 bits
        assert_eq!(writer.frames(), 0);
    }

    #[test]
    fn corrupt_streams_fail_sticky_and_clean() {
        let mut writer = StreamWriter::new(header(), None, WireProfile::Compact).unwrap();
        writer.push_samples(&[7, 8, 9]).unwrap();
        let good = writer.into_bytes();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        let mut p = StreamParser::new();
        p.push_bytes(&bad);
        assert!(p.next_frame().is_err());
        // Sticky: the same error again, even after more bytes.
        p.push_bytes(&good);
        assert!(p.next_frame().is_err());

        // Bad frame marker.
        let mut bad = good.clone();
        bad[STREAM_HEADER_BYTES] ^= 0xFF;
        let mut p = StreamParser::new();
        p.push_bytes(&bad);
        assert!(matches!(p.next_frame(), Err(CoreError::MalformedFrame(_))));

        // Insane count.
        let mut bad = good;
        bad[STREAM_HEADER_BYTES + 1..STREAM_HEADER_BYTES + 5]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        let mut p = StreamParser::new();
        p.push_bytes(&bad);
        assert!(matches!(p.next_frame(), Err(CoreError::MalformedFrame(_))));
    }

    fn tiled_layout() -> TileLayout {
        TileLayout::new(FrameGeometry::new(40, 28), &TileConfig::new(16).overlap(4)).unwrap()
    }

    fn tiled_header() -> FrameHeader {
        FrameHeader {
            rows: 16,
            cols: 16,
            code_bits: 8,
            sample_bits: 16,
            strategy: StrategyKind::rule30(64),
            seed: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn tiled_stream_roundtrips_layout_and_records() {
        let layout = tiled_layout();
        let mut writer =
            StreamWriter::new(tiled_header(), Some(&layout), WireProfile::Compact).unwrap();
        assert_eq!(writer.tile_layout(), Some(&layout));
        for t in 0..layout.tiles() {
            writer.push_samples(&[t as u32 + 1, 2, 3]).unwrap();
        }
        let bytes = writer.into_bytes();
        assert_eq!(bytes[4], STREAM_VERSION_TILED);

        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes);
        let first = parser.next_frame().unwrap().unwrap();
        assert_eq!(first.samples, vec![1, 2, 3]);
        assert_eq!(parser.tile_layout(), Some(&layout));
        assert_eq!(parser.header(), Some(&tiled_header()));
        for _ in 1..layout.tiles() {
            parser.next_frame().unwrap().unwrap();
        }
        assert!(parser.next_frame().unwrap().is_none());
        assert_eq!(parser.frames_parsed(), layout.tiles());
    }

    #[test]
    fn version_one_streams_still_parse_without_a_layout() {
        let mut writer = StreamWriter::new(header(), None, WireProfile::Compact).unwrap();
        writer.push_samples(&[1, 2, 3]).unwrap();
        let bytes = writer.into_bytes();
        assert_eq!(bytes[4], STREAM_VERSION); // explicit wire check
        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes);
        assert_eq!(parser.next_frame().unwrap().unwrap().samples, vec![1, 2, 3]);
        assert!(parser.tile_layout().is_none());
    }

    #[test]
    fn tiled_writer_rejects_header_layout_mismatch() {
        let mut h = tiled_header();
        h.rows = 8; // layout tiles are 16×16
        assert!(matches!(
            StreamWriter::new(h, Some(&tiled_layout()), WireProfile::Compact),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn hostile_tile_extensions_are_malformed_not_panics() {
        let layout = tiled_layout();
        let writer =
            StreamWriter::new(tiled_header(), Some(&layout), WireProfile::Compact).unwrap();
        let good = writer.into_bytes();
        let corrupt = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut bad = good.clone();
            mutate(&mut bad);
            let mut p = StreamParser::new();
            p.push_bytes(&bad);
            p.next_frame()
        };
        // Zero frame width.
        let r = corrupt(&|b| b[23..25].copy_from_slice(&0u16.to_le_bytes()));
        assert!(matches!(r, Err(CoreError::MalformedFrame(_))), "{r:?}");
        // Frame smaller than the tile.
        let r = corrupt(&|b| b[23..25].copy_from_slice(&8u16.to_le_bytes()));
        assert!(matches!(r, Err(CoreError::MalformedFrame(_))), "{r:?}");
        // Overlap not below the tile side.
        let r = corrupt(&|b| b[27..29].copy_from_slice(&16u16.to_le_bytes()));
        assert!(matches!(r, Err(CoreError::MalformedFrame(_))), "{r:?}");
        // Unknown blend byte.
        let r = corrupt(&|b| b[29] = 7);
        assert!(matches!(r, Err(CoreError::MalformedFrame(_))), "{r:?}");
        // Unknown version byte.
        let r = corrupt(&|b| b[4] = 9);
        assert!(matches!(r, Err(CoreError::MalformedFrame(_))), "{r:?}");
        // Version byte flipped to 3: reinterpreted as a resilient
        // header whose flags byte/CRC cannot both verify.
        let r = corrupt(&|b| b[4] = STREAM_VERSION_RESILIENT);
        assert!(matches!(r, Err(CoreError::MalformedFrame(_))), "{r:?}");
    }

    #[test]
    fn truncated_tiled_header_waits_for_the_extension() {
        let layout = tiled_layout();
        let mut writer =
            StreamWriter::new(tiled_header(), Some(&layout), WireProfile::Compact).unwrap();
        writer.push_samples(&[1]).unwrap();
        let bytes = writer.into_bytes();
        let mut parser = StreamParser::new();
        // Base header alone is not enough for a v2 stream.
        parser.push_bytes(&bytes[..STREAM_HEADER_BYTES + 3]);
        assert!(parser.next_frame().unwrap().is_none());
        assert!(parser.header().is_none());
        parser.push_bytes(&bytes[STREAM_HEADER_BYTES + 3..]);
        assert_eq!(parser.next_frame().unwrap().unwrap().samples, vec![1]);
        assert_eq!(parser.tile_layout(), Some(&layout));
    }

    #[test]
    fn truncated_stream_waits_instead_of_failing() {
        let mut writer = StreamWriter::new(header(), None, WireProfile::Compact).unwrap();
        writer.push_samples(&[1, 2, 3]).unwrap();
        let bytes = writer.into_bytes();
        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes[..bytes.len() - 1]);
        assert!(parser.next_frame().unwrap().is_none());
        parser.push_bytes(&bytes[bytes.len() - 1..]);
        assert_eq!(parser.next_frame().unwrap().unwrap().samples, vec![1, 2, 3]);
    }

    // ──────────────────────── resilient (v3) ────────────────────────

    fn resilient_bytes(n: usize, k: usize) -> (Vec<CompressedFrame>, Vec<u8>) {
        let frames = frames(n, k);
        let mut writer = StreamWriter::new(header(), None, WireProfile::Resilient).unwrap();
        for f in &frames {
            writer.push_frame(f).unwrap();
        }
        (frames, writer.into_bytes())
    }

    #[test]
    fn resilient_stream_roundtrips_with_sequence_numbers() {
        let (frames, bytes) = resilient_bytes(20, 30);
        assert_eq!(bytes[4], STREAM_VERSION_RESILIENT);
        // Sync word right after the 25-byte header (record 0).
        assert_eq!(
            bytes[RESILIENT_HEADER_BYTES..RESILIENT_HEADER_BYTES + 4],
            SYNC_WORD
        );
        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes);
        for (i, f) in frames.iter().enumerate() {
            match parser.next_event().unwrap().unwrap() {
                StreamEvent::Frame { seq, frame } => {
                    assert_eq!(seq, i as u64);
                    assert_eq!(&frame, f, "frame {i}");
                }
                StreamEvent::Corrupt { .. } => panic!("clean stream reported corruption"),
            }
        }
        assert!(parser.next_event().unwrap().is_none());
        assert_eq!(parser.wire_version(), Some(STREAM_VERSION_RESILIENT));
        assert_eq!(parser.bytes_skipped(), 0);
        assert_eq!(parser.corrupt_events(), 0);
        assert_eq!(parser.frames_parsed(), 20);
    }

    #[test]
    fn resilient_clean_stream_decodes_identical_to_compact() {
        let frames = frames(10, 44);
        let mut compact = StreamWriter::new(header(), None, WireProfile::Compact).unwrap();
        let mut resilient = StreamWriter::new(header(), None, WireProfile::Resilient).unwrap();
        for f in &frames {
            compact.push_frame(f).unwrap();
            resilient.push_frame(f).unwrap();
        }
        let decode = |bytes: &[u8]| {
            let mut p = StreamParser::new();
            p.push_bytes(bytes);
            let mut out = Vec::new();
            while let Some(f) = p.next_frame().unwrap() {
                out.push(f);
            }
            out
        };
        assert_eq!(decode(compact.bytes()), decode(resilient.bytes()));
    }

    #[test]
    fn resilient_tiled_roundtrips_layout() {
        let layout = tiled_layout();
        let mut writer =
            StreamWriter::new(tiled_header(), Some(&layout), WireProfile::Resilient).unwrap();
        for t in 0..layout.tiles() {
            writer.push_samples(&[t as u32 + 1, 9]).unwrap();
        }
        let bytes = writer.into_bytes();
        assert_eq!(bytes[4], STREAM_VERSION_RESILIENT);
        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes);
        let first = parser.next_frame().unwrap().unwrap();
        assert_eq!(first.samples, vec![1, 9]);
        assert_eq!(parser.tile_layout(), Some(&layout));
        for _ in 1..layout.tiles() {
            parser.next_frame().unwrap().unwrap();
        }
        assert!(parser.next_frame().unwrap().is_none());
    }

    #[test]
    fn resilient_parser_skips_corrupt_payload_and_resumes() {
        let (frames, mut bytes) = resilient_bytes(12, 30);
        // Flip a byte in the middle of record 5's payload: header 25 B,
        // sync every 8 records, record = 10 B prefix + 60 B payload + 1.
        let rec = |i: usize| RESILIENT_HEADER_BYTES + (i / SYNC_INTERVAL + 1) * 4 + i * 71;
        bytes[rec(5) + 30] ^= 0x40;
        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes);
        let mut got = Vec::new();
        let mut corrupt = 0;
        while let Some(ev) = parser.next_event().unwrap() {
            match ev {
                StreamEvent::Frame { seq, frame } => got.push((seq, frame)),
                StreamEvent::Corrupt { bytes_skipped } => {
                    corrupt += 1;
                    assert_eq!(bytes_skipped, 71, "exactly one record erased");
                }
            }
        }
        assert_eq!(corrupt, 1);
        assert_eq!(got.len(), 11);
        for (seq, frame) in got {
            assert_ne!(seq, 5, "the damaged record must not decode");
            assert_eq!(frame, frames[seq as usize]);
        }
        assert!(!parser.is_malformed());
    }

    #[test]
    fn resilient_parser_resyncs_through_garbage_burst() {
        let (frames, mut bytes) = resilient_bytes(20, 30);
        // Obliterate a stretch starting in record 3's prefix: the parser
        // must scan forward and pick decoding back up at a later record.
        let start = RESILIENT_HEADER_BYTES + 4 + 3 * 71 + 2;
        for b in &mut bytes[start..start + 150] {
            *b = 0xAA;
        }
        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes);
        let mut seqs = Vec::new();
        let mut skipped = 0;
        while let Some(ev) = parser.next_event().unwrap() {
            match ev {
                StreamEvent::Frame { seq, frame } => {
                    assert_eq!(frame, frames[seq as usize]);
                    seqs.push(seq);
                }
                StreamEvent::Corrupt { bytes_skipped } => skipped += bytes_skipped,
            }
        }
        assert!(skipped >= 150, "at least the burst is reported skipped");
        assert_eq!(parser.bytes_skipped(), skipped);
        assert_eq!(seqs[..3], [0, 1, 2]);
        // Everything after the burst must be recovered.
        assert!(seqs.len() >= 14, "recovered only {seqs:?}");
        assert_eq!(seqs.last(), Some(&19));
    }

    #[test]
    fn resilient_header_damage_stays_sticky() {
        let (_, mut bytes) = resilient_bytes(3, 10);
        bytes[9] ^= 0xFF; // code_bits, guarded by the header CRC
        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes);
        assert!(matches!(
            parser.next_event(),
            Err(CoreError::MalformedFrame(_))
        ));
        assert!(parser.is_malformed());
        assert!(parser.error().is_some());
        // Sticky even after more (clean) bytes arrive.
        let (_, clean) = resilient_bytes(3, 10);
        parser.push_bytes(&clean);
        assert!(parser.next_frame().is_err());
    }

    #[test]
    fn resilient_parser_handles_byte_at_a_time_chunking() {
        let (frames, bytes) = resilient_bytes(9, 25);
        let mut parser = StreamParser::new();
        let mut got = Vec::new();
        for &b in &bytes {
            parser.push_bytes(&[b]);
            while let Some(ev) = parser.next_event().unwrap() {
                if let StreamEvent::Frame { frame, .. } = ev {
                    got.push(frame);
                }
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn resilient_truncated_stream_yields_prefix_without_error() {
        let (frames, bytes) = resilient_bytes(6, 30);
        let mut parser = StreamParser::new();
        parser.push_bytes(&bytes[..bytes.len() - 40]);
        let mut got = 0;
        while let Some(ev) = parser.next_event().unwrap() {
            if matches!(ev, StreamEvent::Frame { .. }) {
                got += 1;
            }
        }
        assert_eq!(got, frames.len() - 1, "only the cut record is lost");
        assert!(!parser.is_malformed());
    }
}
