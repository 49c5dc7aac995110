//! Stateful codec sessions: the stream-oriented public API.
//!
//! The paper's deployment is a *stream*: a camera node captures frame
//! after frame with one seed, and only compressed samples (plus that
//! 64-bit seed, once) cross the wire. [`EncodeSession`] is the capture
//! side — it owns a [`CompressiveImager`] and appends every captured
//! frame to one contiguous [`stream`](crate::stream) container.
//! [`DecodeSession`] is the receiver — it consumes bytes incrementally
//! ([`DecodeSession::push_bytes`] returns zero or more decoded frames as
//! records complete) and owns an [`OperatorCache`], so the measurement
//! operator, the dictionary, each solver's operator-norm estimate and
//! the greedy solvers' Gram store are built once and reused across
//! every frame of the stream (and, when the cache is shared, across
//! batch items with the same seed).
//!
//! Sessions decode through the per-frame [`Decoder`], so
//! `dec.push_frame(&f)` gives the same frame as
//! `Decoder::for_frame(&f)?.reconstruct(&f)`.
//!
//! # One decode path
//!
//! Every frame is a *tile group*. When the imager is tiled (built with
//! [`CompressiveImagerBuilder::tiling`](crate::imager::CompressiveImagerBuilder::tiling)),
//! the session writes a stream whose header carries the tile layout and
//! each captured scene contributes one record per tile; an untiled
//! stream is simply a one-tile layout. The decode side files record
//! `seq` into frame `seq / tiles`, slot `seq % tiles` — compact records
//! are numbered implicitly in parse order, resilient ones carry the
//! number on the wire — so one assembler accounts for stale, lost and
//! re-anchored frames on every container.
//!
//! Each tile is a job — a key solve or, in
//! [delta mode](DecodeSession::delta_mode), a delta solve against its
//! slot's previous frame — and jobs run through one executor: inline
//! on the session's workspace at [`DecodeSession::threads`] ≤ 1 (or
//! when the session itself runs on a pool worker), otherwise every tile
//! of every group a push completed fans out across the process-wide
//! persistent [`WorkerPool`] in one map, so frames of one stream
//! *pipeline*; in delta mode one frame's tiles at a time. Tiled groups
//! are stitched with overlap blending in a deterministic order, so
//! decoded frames are bit-identical at every thread count.
//! [`DecodeSession::prewarm`] primes every executor up front so the
//! steady state spawns no threads and allocates nothing.
//!
//! # Examples
//!
//! ```
//! use tepics_core::prelude::*;
//! use tepics_core::session::{DecodeSession, EncodeSession};
//!
//! let imager = CompressiveImager::builder(16, 16)
//!     .ratio(0.35)
//!     .seed(9)
//!     .fidelity(Fidelity::Functional)
//!     .build()
//!     .unwrap();
//! let mut enc = EncodeSession::new(imager).unwrap();
//! for i in 0..3 {
//!     let scene = Scene::gaussian_blobs(2).render(16, 16, i);
//!     enc.capture(&scene).unwrap();
//! }
//!
//! let mut dec = DecodeSession::new();
//! let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
//! assert_eq!(decoded.len(), 3);
//! // Frames 2 and 3 reused the operator built for frame 1.
//! assert_eq!(dec.cache().stats().hits, 2);
//! ```

use std::sync::Arc;

use crate::cache::OperatorCache;
use crate::decoder::{Decoder, Reconstruction};
use crate::error::CoreError;
use crate::frame::{CompressedFrame, FrameHeader};
use crate::imager::CompressiveImager;
use crate::solver::RecoveryParams;
use crate::stream::{
    StreamEvent, StreamParser, StreamWriter, WireProfile, STREAM_VERSION_RESILIENT,
};
use tepics_imaging::tile::{fill_uncovered, merge_tiles_sparse, TileLayout};
use tepics_imaging::ImageF64;
use tepics_recovery::{SolveStats, SolverWorkspace};
use tepics_sensor::EventStats;
use tepics_util::pool::{self, WorkerPool};

/// Capture-side session: scenes in, one contiguous wire stream out.
#[derive(Debug, Clone)]
pub struct EncodeSession {
    imager: CompressiveImager,
    writer: StreamWriter,
}

impl EncodeSession {
    /// Opens an encode session around `imager`; the stream header is
    /// written immediately. A tiled imager opens a version-2 (tiled)
    /// stream whose header carries the tile layout.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] if the imager's header
    /// cannot be represented by the container (e.g. samples wider than
    /// 32 bits).
    pub fn new(imager: CompressiveImager) -> Result<EncodeSession, CoreError> {
        EncodeSession::with_profile(imager, WireProfile::default())
    }

    /// Opens an encode session speaking a specific [`WireProfile`]:
    /// [`WireProfile::Compact`] writes the minimal version-1/2
    /// container, [`WireProfile::Resilient`] the CRC-guarded,
    /// self-synchronizing version-3 container for lossy transports.
    ///
    /// # Errors
    ///
    /// Returns the header errors of [`EncodeSession::new`].
    pub fn with_profile(
        imager: CompressiveImager,
        profile: WireProfile,
    ) -> Result<EncodeSession, CoreError> {
        let header = imager.frame_header();
        let writer = StreamWriter::new(header, imager.tile_layout(), profile)?;
        Ok(EncodeSession { imager, writer })
    }

    /// The container version this session's stream uses (1, 2, or 3).
    pub fn wire_version(&self) -> u8 {
        self.writer.wire_version()
    }

    /// The imager driving this session.
    pub fn imager(&self) -> &CompressiveImager {
        &self.imager
    }

    /// The stream header (shared by every frame record of the session;
    /// the **tile** header for a tiled imager).
    pub fn header(&self) -> &FrameHeader {
        self.writer.header()
    }

    /// The tile layout of a tiled session's stream, `None` otherwise.
    pub fn tile_layout(&self) -> Option<&TileLayout> {
        self.writer.tile_layout()
    }

    /// Captures a scene and appends it to the stream; the captured
    /// frame records are returned for local inspection — one per tile
    /// for a tiled imager (row-major tile order), a single record
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Propagates container errors (which cannot occur for frames the
    /// session's own imager produced).
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions do not match the frame geometry.
    pub fn capture(&mut self, scene: &ImageF64) -> Result<Vec<CompressedFrame>, CoreError> {
        self.capture_with_stats(scene).map(|(frames, _)| frames)
    }

    /// Like [`EncodeSession::capture`], also returning the event-level
    /// statistics of the capture (merged across tiles for a tiled
    /// imager).
    ///
    /// # Errors
    ///
    /// Propagates container errors.
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions do not match the frame geometry.
    pub fn capture_with_stats(
        &mut self,
        scene: &ImageF64,
    ) -> Result<(Vec<CompressedFrame>, EventStats), CoreError> {
        let (frames, stats) = self.imager.capture_tiles_with_stats(scene);
        for frame in &frames {
            self.writer.push_frame(frame)?;
        }
        Ok((frames, stats))
    }

    /// Appends a pre-captured frame record (it must match the stream
    /// header; for a tiled stream the caller is responsible for pushing
    /// complete row-major tile groups).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FrameMismatch`] on a header mismatch.
    pub fn push_frame(&mut self, frame: &CompressedFrame) -> Result<(), CoreError> {
        self.writer.push_frame(frame)
    }

    /// Number of scenes captured into the stream so far (each scene is
    /// one record untiled, `layout.tiles()` records tiled).
    pub fn frames(&self) -> usize {
        let per_frame = self.writer.tile_layout().map_or(1, TileLayout::tiles);
        self.writer.frames() / per_frame
    }

    /// Number of frame records written to the stream so far (equals
    /// [`EncodeSession::frames`] for untiled sessions).
    pub fn records(&self) -> usize {
        self.writer.frames()
    }

    /// Total wire size of the stream so far, in bits.
    pub fn wire_bits(&self) -> usize {
        self.writer.wire_bits()
    }

    /// The serialized stream so far (header + all frames).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.writer.bytes().to_vec()
    }

    /// Consumes the session, returning the serialized stream.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.writer.into_bytes()
    }
}

/// Delta-decoding configuration of a [`DecodeSession`].
#[derive(Debug, Clone, Copy)]
struct DeltaMode {
    sparsity: usize,
    keyframe_interval: usize,
}

/// How a [`DecodeSession`] treats a tile group with erased tiles on a
/// tiled stream: tiles missing or corrupt on a resilient (version-3)
/// wire, and on any wire version tiles whose solve broke down
/// numerically.
///
/// Versions 1 and 2 reach this policy only through breakdowns: their
/// parser is sticky and a corrupt stream errors out instead of
/// degrading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErasurePolicy {
    /// Drop any frame missing at least one tile (counted in
    /// [`DecodeReport::frames_lost`]); emitted frames are always
    /// complete.
    Strict,
    /// Stitch the surviving tiles and leave pixels no tile covers at
    /// zero — the [`DecodedFrame::erased_tiles`] count flags the
    /// degradation.
    FlaggedZero,
    /// Stitch the surviving tiles and fill uncovered pixels by
    /// deterministic inward diffusion from the surviving boundary
    /// ([`fill_uncovered`]) — the visually smoothest degradation.
    #[default]
    NeighborBlend,
}

/// Degradation accounting of one [`DecodeSession`].
///
/// All counters are cumulative over the session's lifetime. On a clean
/// stream everything but `frames_recovered` and `tiles_recovered` stays
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecodeReport {
    /// Frames decoded from fully intact records.
    pub frames_recovered: usize,
    /// Frames emitted with at least one erased tile (tiled streams
    /// under [`ErasurePolicy::FlaggedZero`] /
    /// [`ErasurePolicy::NeighborBlend`]: a tile missing or corrupt on a
    /// resilient wire, or broken down on any wire version).
    pub frames_degraded: usize,
    /// Frame positions known to exist (from sequence numbers) that were
    /// never emitted: every record lost, every tile broken down, or
    /// dropped by [`ErasurePolicy::Strict`].
    pub frames_lost: usize,
    /// Tiles decoded into emitted frames, on every stream: an untiled
    /// frame is one tile, so an untiled stream counts one per frame.
    pub tiles_recovered: usize,
    /// Tiles erased from emitted (degraded) frames.
    pub tiles_erased: usize,
    /// Corruption events the parser resynchronized through.
    pub corrupt_events: usize,
    /// Total bytes the parser skipped as corrupt.
    pub bytes_skipped: usize,
    /// Tile slots that delta-mode decoding re-anchored (full recovery)
    /// instead of chaining a delta across a gap: lost frames, or the
    /// slot's tile lost or broken down in the previous frame. An untiled
    /// stream counts one per re-anchored frame.
    pub reanchors: usize,
    /// Duplicate/stale records discarded (replayed or re-ordered
    /// sequence numbers).
    pub stale_records: usize,
    /// Tile solves that broke down numerically. Each one erased its
    /// tile, so its frame degraded per the [`ErasurePolicy`] or, with
    /// no tile left, was lost (an untiled frame); in delta mode its slot
    /// re-anchors next frame.
    pub breakdowns: usize,
}

impl DecodeReport {
    /// Frames that came out of the session, degraded or not.
    #[must_use]
    pub fn frames_emitted(&self) -> usize {
        self.frames_recovered + self.frames_degraded
    }

    /// Frame positions the session knows about (emitted + lost).
    #[must_use]
    pub fn frames_seen(&self) -> usize {
        self.frames_emitted() + self.frames_lost
    }

    /// Fraction of known frame positions that produced a frame
    /// (1.0 for an empty or clean session).
    #[must_use]
    pub fn recovered_fraction(&self) -> f64 {
        let seen = self.frames_seen();
        if seen == 0 {
            1.0
        } else {
            self.frames_emitted() as f64 / seen as f64
        }
    }
}

/// One decoded frame out of a [`DecodeSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame {
    /// Position of the frame in the stream (0-based). On a resilient
    /// stream this is derived from wire sequence numbers, so it stays
    /// the *true* capture position even when earlier frames were lost.
    pub index: usize,
    /// `true` when no tile of this frame ran delta recovery against its
    /// slot's previous frame. Always `true` outside delta mode.
    pub is_key: bool,
    /// Number of tiles erased (missing, corrupt, or broken down) from
    /// this frame; 0 for a fully intact frame.
    pub erased_tiles: usize,
    /// The reconstruction.
    pub reconstruction: Reconstruction,
}

/// The tile jobs of one frame, by tile slot (row-major; an untiled
/// frame is a one-slot group). `None` marks a tile not (yet) received.
#[derive(Debug, Clone)]
struct Group {
    /// Stream position of the frame.
    index: usize,
    /// Frames were lost right before this one: delta mode counts every
    /// slot's key solve here as a re-anchor, chain or no chain.
    reanchor: bool,
    slots: Vec<Option<Job>>,
}

/// One tile's solve: a key solve of its record or, with its slot's
/// chain attached (delta mode), a delta solve against that chain.
#[derive(Debug, Clone)]
struct Job {
    frame: CompressedFrame,
    chain: Option<Chain>,
    /// The outcome, once the job has run.
    result: Option<Result<Reconstruction, CoreError>>,
}

impl Job {
    fn key(frame: CompressedFrame) -> Job {
        Job {
            frame,
            chain: None,
            result: None,
        }
    }

    fn run(&mut self, decoder: &Decoder, sparsity: usize, ws: &mut SolverWorkspace) {
        let frame = &self.frame;
        self.result = Some(match &self.chain {
            None => decoder.reconstruct_with(frame, ws),
            Some(c) => decoder.recover_delta(frame, &c.samples, &c.codes, c.mean, sparsity, ws),
        });
    }
}

/// A tile slot's delta chain: the slot's samples and code image in
/// frame `index`, the mean code of the key solve the chain started
/// from, and the delta solves since that key.
#[derive(Debug, Clone)]
struct Chain {
    index: usize,
    samples: Vec<u32>,
    codes: ImageF64,
    mean: f64,
    deltas: usize,
}

/// Sticky-scratch slot key for a tile geometry: pool workers keep one
/// warm [`SolverWorkspace`] per distinct tile size, shared by every
/// session decoding that geometry.
fn scratch_key(header: &FrameHeader) -> u64 {
    (u64::from(header.rows) << 16) | u64::from(header.cols)
}

/// Stitches per-tile reconstructions (row-major, `None` = erased) into
/// one frame, pooling the solver stats (summed iterations,
/// root-sum-square residual of the disjoint tile systems). A fully
/// present set stitches bit-identically to the dense merge
/// ([`merge_tiles_sparse`] documents that contract), so complete and
/// degraded groups share this one path.
fn stitch_group(
    recons: &[Option<Reconstruction>],
    layout: &TileLayout,
    policy: ErasurePolicy,
) -> Reconstruction {
    let mut code_tiles: Vec<Option<Vec<f64>>> = Vec::with_capacity(recons.len());
    let mut stats = SolveStats {
        iterations: 0,
        residual_norm: 0.0,
        converged: true,
    };
    for recon in recons {
        let Some(recon) = recon else {
            code_tiles.push(None);
            continue;
        };
        stats.iterations += recon.stats().iterations;
        stats.residual_norm = stats.residual_norm.hypot(recon.stats().residual_norm);
        stats.converged &= recon.stats().converged;
        code_tiles.push(Some(recon.code_image().as_slice().to_vec()));
    }
    let (mut stitched, uncovered) = merge_tiles_sparse(&code_tiles, layout);
    if policy == ErasurePolicy::NeighborBlend && uncovered.iter().any(|&u| u) {
        fill_uncovered(&mut stitched, &uncovered);
    }
    let mean_code = stitched.mean();
    Reconstruction::from_parts(stitched, mean_code, stats)
}

/// Receiver-side session: wire bytes in, reconstructed frames out.
///
/// Bytes may arrive in arbitrary chunks; each [`DecodeSession::push_bytes`]
/// call returns the frames completed by that chunk. All decoding state —
/// the rebuilt measurement operator, the dictionary, the per-solver
/// operator-norm estimate, the Gram store (OMP, CoSaMP), the solver
/// workspace, and (in delta mode) each tile slot's previous frame — lives
/// in the session, keyed by the stream
/// header, so a long same-seed sequence pays the operator construction cost
/// exactly once and, once warm, decodes frames with zero heap
/// allocation inside the solver loop (the cached Φ carries its
/// precompiled gather structure; the workspace carries the iterate,
/// greedy, and least-squares buffers). The allocation-free guarantee
/// covers every [`SolverKind`](crate::solver::SolverKind) — including
/// the greedy pursuits and the CGLS debias pass — apart from the greedy
/// pursuits' admissions into their Gram store, which stop once the
/// store is full.
#[derive(Debug, Clone, Default)]
pub struct DecodeSession {
    parser: StreamParser,
    cache: Arc<OperatorCache>,
    /// The decoder for the stream header, built on the first frame.
    decoder: Option<Arc<Decoder>>,
    /// Solver and dictionary for key frames.
    params: RecoveryParams,
    delta: Option<DeltaMode>,
    /// Delta mode: each tile slot's chain (row-major; one slot
    /// untiled), `None` until the slot's first successful solve.
    chains: Vec<Option<Chain>>,
    /// Executors for decoding (0 and 1 both mean inline).
    threads: usize,
    /// Reused solver buffers of the inline executor: one allocation for
    /// the whole stream.
    workspace: SolverWorkspace,
    /// Erased-tile handling on tiled streams: tiles lost on a resilient
    /// wire, or broken down on any wire version.
    policy: ErasurePolicy,
    /// Cumulative degradation accounting.
    report: DecodeReport,
    /// The tile group being assembled, if any.
    group: Option<Group>,
    /// Lowest frame index still acceptable (everything below was
    /// already closed or counted lost).
    floor: usize,
    /// An error hit after frames had already been decoded in the same
    /// [`DecodeSession::push_bytes`] call; surfaced (sticky) on the
    /// next call so those frames are not discarded.
    deferred: Option<CoreError>,
    /// Test seam: the `(frame index, tile slot)` solves to replace with
    /// a numerical breakdown. Samples on the wire are integers, so no
    /// byte stream can force a non-finite solve.
    #[cfg(test)]
    inject_breakdowns: Vec<(usize, usize)>,
}

impl DecodeSession {
    /// A session with its own private [`OperatorCache`].
    #[must_use]
    pub fn new() -> DecodeSession {
        DecodeSession::default()
    }

    /// A session sharing `cache` (e.g. with other sessions of a batch,
    /// so same-seed items reuse one operator).
    #[must_use]
    pub fn with_cache(cache: Arc<OperatorCache>) -> DecodeSession {
        DecodeSession {
            cache,
            ..DecodeSession::default()
        }
    }

    /// The operator cache this session decodes through.
    pub fn cache(&self) -> &Arc<OperatorCache> {
        &self.cache
    }

    /// Applies a bundled [`RecoveryParams`] (solver + dictionary) for
    /// key frames, before or after the first frame. The one decode
    /// configuration setter: any [`SolverKind`](crate::solver::SolverKind)
    /// over any [`DictionaryKind`](crate::decoder::DictionaryKind).
    pub fn params(&mut self, params: RecoveryParams) -> &mut Self {
        self.params = params;
        if let Some(decoder) = &mut self.decoder {
            Arc::make_mut(decoder).params(params);
        }
        self
    }

    /// Sets the executor count (default inline). Above 1, the tiles of
    /// every frame a push completes are recovered concurrently on the
    /// calling thread plus up to `threads − 1` persistent
    /// [`WorkerPool`] workers and stitched in a deterministic order, so
    /// the result is **bit-identical for every thread count**. Delta
    /// mode fans out one frame's tiles at a time. A session running on
    /// a pool worker decodes inline regardless.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.threads = threads;
        self
    }

    /// The tile layout of the stream being decoded, once a tiled
    /// header has been parsed; `None` for untiled streams.
    pub fn tile_layout(&self) -> Option<&TileLayout> {
        self.parser.tile_layout()
    }

    /// Sets how tile groups with erased tiles are handled on tiled
    /// streams (default [`ErasurePolicy::NeighborBlend`]): tiles missing
    /// or corrupt on a resilient (version-3) wire, and on any wire
    /// version tiles whose solve broke down numerically.
    pub fn erasure_policy(&mut self, policy: ErasurePolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// The session's cumulative degradation accounting.
    pub fn report(&self) -> DecodeReport {
        self.report
    }

    /// Flushes the trailing partial tile group of a resilient stream
    /// (the stream ended mid-frame, or its last records were lost),
    /// stitching the surviving tiles per the erasure policy. No-op —
    /// and always empty — for compact streams, whose partial groups
    /// stay buffered awaiting more bytes.
    ///
    /// # Errors
    ///
    /// Propagates recovery errors from stitching the final group.
    pub fn finish(&mut self) -> Result<Vec<DecodedFrame>, CoreError> {
        let mut out = Vec::new();
        if self.parser.wire_version() == Some(STREAM_VERSION_RESILIENT) {
            let groups: Vec<Group> = self.close_group().into_iter().collect();
            let layout = self.parser.tile_layout().cloned();
            self.decode_groups(groups, layout.as_ref(), &mut out)?;
        }
        Ok(out)
    }

    /// Switches the session to sequence (delta) decoding: the first
    /// frame (and every `keyframe_interval`-th frame; 0 = never again)
    /// runs full recovery, intermediate frames recover only the
    /// pixel-sparse delta `Φ⁻¹(y_t − y_{t−1})` with an IHT budget of
    /// `sparsity` pixels. Frames must then share header *and* sample
    /// count. Each tile slot chains on its own: a tile lost or broken
    /// down re-anchors only its slot.
    pub fn delta_mode(&mut self, sparsity: usize, keyframe_interval: usize) -> &mut Self {
        self.delta = Some(DeltaMode {
            sparsity: sparsity.max(1),
            keyframe_interval,
        });
        self
    }

    /// The stream header, once a frame has been decoded or prewarmed.
    pub fn header(&self) -> Option<&FrameHeader> {
        self.decoder.as_deref().map(Decoder::header)
    }

    /// Number of frames decoded so far.
    pub fn frames_decoded(&self) -> usize {
        self.report.frames_emitted()
    }

    /// Bytes received but not yet consumed by a complete frame.
    pub fn buffered_bytes(&self) -> usize {
        self.parser.buffered_bytes()
    }

    /// The decoder for `header`, built on first use with the session's
    /// params and cache. Later calls hand out the same decoder (a frame
    /// with a different header then fails its decode with
    /// [`CoreError::FrameMismatch`]). Decode paths only clone the `Arc`:
    /// `Arc::make_mut`, which only the params setters use, would copy
    /// the decoder whenever a drained pool ticket still holds a
    /// reference — a timing-dependent allocation the warm steady state
    /// must not have.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] for degenerate headers.
    fn decoder_for(&mut self, header: &FrameHeader) -> Result<Arc<Decoder>, CoreError> {
        if let Some(decoder) = &self.decoder {
            return Ok(Arc::clone(decoder));
        }
        let mut decoder = Decoder::for_header(header)?;
        decoder.params(self.params).use_cache(self.cache.clone());
        let decoder = Arc::new(decoder);
        self.decoder = Some(Arc::clone(&decoder));
        Ok(decoder)
    }

    /// The session's sticky error, if one occurred: the parser's
    /// poisoned state, or a decode error whose preceding frames were
    /// already handed out by [`DecodeSession::push_bytes`].
    pub fn error(&self) -> Option<&CoreError> {
        self.deferred.as_ref().or_else(|| self.parser.error())
    }

    /// Feeds received bytes, returning every frame completed by them
    /// (possibly none).
    ///
    /// On a resilient (version-3) stream, corruption does not error:
    /// the parser resynchronizes, the session stitches what survives
    /// per its [`ErasurePolicy`], and [`DecodeSession::report`]
    /// accumulates what was lost.
    ///
    /// Frames decoded before an error are never discarded: if a chunk
    /// decodes some frames and *then* hits an error, those frames are
    /// returned and the (sticky) error surfaces on the next call — see
    /// [`DecodeSession::error`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] on a corrupt compact
    /// (version-1/2) stream or a resilient stream with a damaged
    /// header (the parser error is sticky), plus any recovery error.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Result<Vec<DecodedFrame>, CoreError> {
        if let Some(e) = &self.deferred {
            return Err(e.clone());
        }
        self.parser.push_bytes(bytes);
        let mut groups = Vec::new();
        let parse_err = loop {
            match self.parser.next_event() {
                Ok(None) => break None,
                Err(e) => break Some(e),
                // Corruption totals are copied from the parser below;
                // record loss shows up as sequence gaps.
                Ok(Some(StreamEvent::Corrupt { .. })) => {}
                Ok(Some(StreamEvent::Frame { seq, frame })) => {
                    self.assemble(seq, frame, &mut groups)
                }
            }
        };
        self.report.corrupt_events = self.parser.corrupt_events();
        self.report.bytes_skipped = self.parser.bytes_skipped();
        // Groups completed by this chunk decode together, so groups of
        // *different frames* pipeline across the pool. A decode error
        // outranks a parse error: its group sits earlier in the stream
        // than wherever parsing stopped.
        let mut out = Vec::new();
        let layout = self.parser.tile_layout().cloned();
        let decode_err = self.decode_groups(groups, layout.as_ref(), &mut out).err();
        match decode_err.or(parse_err) {
            Some(e) if out.is_empty() => Err(e),
            Some(e) => {
                self.deferred = Some(e);
                Ok(out)
            }
            None => Ok(out),
        }
    }

    /// The assembler: files record `seq` into frame `seq / tiles`, slot
    /// `seq % tiles`, and appends groups to `done` as they complete or
    /// as the stream moves past them. Every stale and lost count is made
    /// here, and the gap flag that re-anchors delta mode is set here.
    fn assemble(&mut self, seq: u64, frame: CompressedFrame, done: &mut Vec<Group>) {
        let tiles = self.parser.tile_layout().map_or(1, TileLayout::tiles);
        let (index, slot) = (seq as usize / tiles, seq as usize % tiles);
        if index < self.floor || self.group.as_ref().is_some_and(|g| index < g.index) {
            self.report.stale_records += 1;
            return;
        }
        if self.group.as_ref().is_some_and(|g| index > g.index) {
            // The stream moved on: stitch what we have.
            done.extend(self.close_group());
        }
        let mut group = match self.group.take() {
            Some(group) => group,
            None => {
                // Frames between the floor and this record lost every
                // tile.
                self.report.frames_lost += index - self.floor;
                let reanchor = index > self.floor;
                self.floor = index;
                Group {
                    index,
                    reanchor,
                    slots: vec![None; tiles],
                }
            }
        };
        if group.slots[slot].is_some() {
            self.report.stale_records += 1;
        } else {
            group.slots[slot] = Some(Job::key(frame));
        }
        if group.slots.iter().all(Option::is_some) {
            self.floor = index + 1;
            done.push(group);
        } else {
            self.group = Some(group);
        }
    }

    /// Closes the group in progress, moving the floor past it. A partial
    /// group the strict policy refuses is dropped and its frame counted
    /// lost.
    fn close_group(&mut self) -> Option<Group> {
        let group = self.group.take()?;
        self.floor = group.index + 1;
        if self.policy == ErasurePolicy::Strict && group.slots.iter().any(Option::is_none) {
            self.report.frames_lost += 1;
            return None;
        }
        Some(group)
    }

    /// Decodes one frame directly, bypassing the stream container (for
    /// callers that already hold parsed [`CompressedFrame`]s). The
    /// frame is decoded as an untiled capture — tiled decoding needs
    /// the stream's tile layout, which only
    /// [`DecodeSession::push_bytes`] sees.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FrameMismatch`] if the frame does not match
    /// the session, plus any recovery error.
    pub fn push_frame(&mut self, frame: &CompressedFrame) -> Result<DecodedFrame, CoreError> {
        let group = Group {
            index: self.report.frames_seen(),
            reanchor: false,
            slots: vec![Some(Job::key(frame.clone()))],
        };
        let mut out = Vec::with_capacity(1);
        self.decode_groups(vec![group], None, &mut out)?;
        out.pop().ok_or_else(|| {
            CoreError::Breakdown("the frame's solve broke down; it is counted lost".into())
        })
    }

    /// Whether closed groups decode on the pool: more than one executor
    /// asked for, and not already on a pool worker (a nested map would
    /// run inline anyway, on a colder workspace).
    fn pooled(&self) -> bool {
        self.threads > 1 && !pool::is_worker_thread()
    }

    /// The group decoder, one loop for every frame. Outside delta mode
    /// all `groups` run as one batch; in delta mode slot `s` of frame
    /// `t + 1` chains from frame `t`, so each group runs alone. On a
    /// tile decode error other than a breakdown the frames emitted
    /// before it stay in `out` (the caller defers the error per the
    /// push contract) and later groups are dropped.
    fn decode_groups(
        &mut self,
        mut groups: Vec<Group>,
        layout: Option<&TileLayout>,
        out: &mut Vec<DecodedFrame>,
    ) -> Result<(), CoreError> {
        let Some(job) = groups.iter().find_map(|g| g.slots.iter().flatten().next()) else {
            return Ok(());
        };
        let decoder = self.decoder_for(&job.frame.header)?;
        let per_batch = self.delta.map_or(groups.len(), |_| 1);
        for batch in groups.chunks_mut(per_batch) {
            if let Some(delta) = self.delta {
                self.chain_jobs(&mut batch[0], delta, decoder.header())?;
            }
            self.run(&decoder, batch);
            for group in batch {
                self.emit(group, layout, out)?;
            }
        }
        Ok(())
    }

    /// Delta mode: a slot of `group` runs a delta job if its chain is
    /// from the previous frame and the cadence allows; else a key solve,
    /// counted as a re-anchor after a gap or a chain from an earlier
    /// frame. A gap means the previous frame was never solved, so no
    /// chain is from it; the gap flag only counts the re-anchors of
    /// slots that have no chain yet. Errors with
    /// [`CoreError::FrameMismatch`] if a chained tile's header or length
    /// differs.
    fn chain_jobs(
        &mut self,
        group: &mut Group,
        delta: DeltaMode,
        header: &FrameHeader,
    ) -> Result<(), CoreError> {
        self.chains.resize_with(group.slots.len(), || None);
        for (job, chain) in group.slots.iter_mut().zip(&mut self.chains) {
            let Some(job) = job else { continue };
            let Some(prev) = chain.as_ref().filter(|c| c.index + 1 == group.index) else {
                self.report.reanchors += usize::from(group.reanchor || chain.is_some());
                continue;
            };
            if &job.frame.header != header || prev.samples.len() != job.frame.samples.len() {
                return Err(CoreError::FrameMismatch(
                    "sequence frames must share header and sample count".into(),
                ));
            }
            if delta.keyframe_interval == 0 || prev.deltas < delta.keyframe_interval {
                job.chain = chain.take();
            }
        }
        Ok(())
    }

    /// The executor: runs every job of `groups` inline or in one pool
    /// map, leaving each outcome in its job.
    fn run(&mut self, decoder: &Arc<Decoder>, groups: &mut [Group]) {
        let sparsity = self.delta.map_or(0, |delta| delta.sparsity);
        let slots = groups.iter_mut().flat_map(|g| g.slots.iter_mut());
        if !self.pooled() {
            // A workspace never changes results, only allocations.
            for job in slots.flatten() {
                job.run(decoder, sparsity, &mut self.workspace);
            }
            return;
        }
        let key = scratch_key(decoder.header());
        let decoder = Arc::clone(decoder);
        // Erased slots ride along: the map hands jobs back in order.
        let jobs: Vec<Option<Job>> = slots.map(Option::take).collect();
        let jobs = WorkerPool::global().map(self.threads, jobs, move |_, mut job, s| {
            if let Some(job) = &mut job {
                let workspace = s.slot::<SolverWorkspace, _>(key, SolverWorkspace::default);
                job.run(&decoder, sparsity, workspace);
            }
            job
        });
        for (slot, job) in groups.iter_mut().flat_map(|g| g.slots.iter_mut()).zip(jobs) {
            *slot = job;
        }
    }

    /// The emit path: settles the tiles of `group` and books its frame,
    /// stitched on `layout` when tiled; an untiled group emits its tile.
    fn emit(
        &mut self,
        group: &mut Group,
        layout: Option<&TileLayout>,
        out: &mut Vec<DecodedFrame>,
    ) -> Result<(), CoreError> {
        let (index, tiles) = (group.index, group.slots.len());
        let mut chained = false;
        let mut recons = Vec::with_capacity(tiles);
        for (slot, job) in group.slots.iter_mut().enumerate() {
            #[cfg(test)]
            self.inject(index, slot, job);
            chained |= job.as_ref().is_some_and(|job| job.chain.is_some());
            recons.push(self.settle(index, slot, job.take())?);
        }
        let erased = recons.iter().filter(|tile| tile.is_none()).count();
        // No tile survived, or the strict policy refuses a partial frame.
        let lost = erased == tiles || (erased > 0 && self.policy == ErasurePolicy::Strict);
        let reconstruction = match layout {
            _ if lost => None,
            Some(layout) => Some(stitch_group(&recons, layout, self.policy)),
            None => recons.pop().flatten(),
        };
        let Some(reconstruction) = reconstruction else {
            self.report.frames_lost += 1;
            return Ok(());
        };
        self.report.tiles_recovered += tiles - erased;
        self.report.tiles_erased += erased;
        if erased == 0 {
            self.report.frames_recovered += 1;
        } else {
            self.report.frames_degraded += 1;
        }
        out.push(DecodedFrame {
            index,
            is_key: !chained,
            erased_tiles: erased,
            reconstruction,
        });
        Ok(())
    }

    /// Settles tile `slot` of frame `index` (`None` = erased): a
    /// breakdown erases the tile, counted in [`DecodeReport::breakdowns`];
    /// other errors are fatal. In delta mode a solved tile becomes its
    /// slot's chain, in the old chain's buffer; a failed job hands its
    /// chain back, so the slot's next job re-anchors.
    fn settle(
        &mut self,
        index: usize,
        slot: usize,
        job: Option<Job>,
    ) -> Result<Option<Reconstruction>, CoreError> {
        let Some(job) = job else { return Ok(None) };
        let recon = match job.result {
            Some(Ok(recon)) => recon,
            Some(Err(e)) => {
                if job.chain.is_some() {
                    self.chains[slot] = job.chain;
                }
                let CoreError::Breakdown(_) = e else {
                    return Err(e);
                };
                self.report.breakdowns += 1;
                return Ok(None);
            }
            None => return Ok(None),
        };
        if self.delta.is_some() {
            let deltas = job.chain.as_ref().map_or(0, |c| c.deltas + 1);
            let image = recon.code_image();
            let prev = job.chain.or_else(|| self.chains[slot].take());
            let mut codes = prev.map_or_else(|| image.clone(), |prev| prev.codes);
            codes.as_mut_slice().copy_from_slice(image.as_slice());
            self.chains[slot] = Some(Chain {
                index,
                samples: job.frame.samples,
                codes,
                mean: recon.mean_code(),
                deltas,
            });
        }
        Ok(Some(recon))
    }

    /// Test seam: replaces the solve of tile `slot` of frame `index`
    /// with a breakdown when the pair is listed in `inject_breakdowns`.
    #[cfg(test)]
    fn inject(&self, index: usize, slot: usize, job: &mut Option<Job>) {
        if let Some(job) = job.as_mut() {
            if self.inject_breakdowns.contains(&(index, slot)) {
                job.result = Some(Err(CoreError::Breakdown("injected".into())));
            }
        }
    }

    /// Warms the decode executors for `frame`'s geometry: builds the
    /// decoder (operator-cache build) and runs one solve of `frame` on
    /// every executor a pooled decode would use — the calling thread
    /// plus `threads − 1` distinct pool workers — so each acquires its
    /// sticky per-geometry [`SolverWorkspace`]. After a prewarm,
    /// steady-state pooled decodes of same-geometry streams spawn no
    /// threads and allocate nothing in the solver loops — except that an
    /// OMP decode admits each new atom's Gram column into the key's
    /// shared store, one allocation per column, until the store reaches
    /// its cap of `min(N, max(K, N/2))` columns: half the full Gram, or
    /// `K` columns if that is more (see [`tepics_cs::gram`] for the
    /// reuse measurement that sizes it).
    ///
    /// Inline configurations warm the session's own workspace instead.
    /// Solve failures while warming are ignored — warming is
    /// best-effort and never changes results.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] for a degenerate header.
    pub fn prewarm(&mut self, frame: &CompressedFrame) -> Result<(), CoreError> {
        let decoder = self.decoder_for(&frame.header)?;
        if self.pooled() {
            let key = scratch_key(&frame.header);
            let frame = frame.clone();
            WorkerPool::global().broadcast(self.threads, move |s| {
                let workspace = s.slot::<SolverWorkspace, _>(key, SolverWorkspace::default);
                let _ = decoder.reconstruct_with(&frame, workspace);
            });
        } else {
            let _ = decoder.reconstruct_with(frame, &mut self.workspace);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::DictionaryKind;
    use tepics_cs::dictionary::IdentityDictionary;
    use tepics_cs::ComposedOperator;
    use tepics_imaging::{psnr, Scene};
    use tepics_recovery::solver::norm_seeds;
    use tepics_sensor::Fidelity;

    fn imager(side: usize, seed: u64) -> CompressiveImager {
        CompressiveImager::builder(side, side)
            .ratio(0.35)
            .seed(seed)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap()
    }

    #[test]
    fn session_roundtrip_matches_per_frame_pipeline() {
        // The acceptance property: a sequence encoded via
        // EncodeSession::to_bytes and decoded via push_bytes round-trips
        // bit-identically to per-frame capture/reconstruct.
        let im = imager(16, 42);
        let scenes: Vec<ImageF64> = (0..4)
            .map(|i| Scene::gaussian_blobs(2).render(16, 16, i))
            .collect();
        let mut enc = EncodeSession::new(im.clone()).unwrap();
        let mut per_frame = Vec::new();
        for scene in &scenes {
            let frame = im.capture(scene);
            let cold = Decoder::for_frame(&frame)
                .unwrap()
                .reconstruct(&frame)
                .unwrap();
            per_frame.push(cold);
            enc.capture(scene).unwrap();
        }
        let mut dec = DecodeSession::new();
        let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
        assert_eq!(decoded.len(), scenes.len());
        for (d, cold) in decoded.iter().zip(&per_frame) {
            assert_eq!(d.reconstruction, *cold, "frame {}", d.index);
            assert!(d.is_key);
        }
    }

    #[test]
    fn chunked_delivery_decodes_incrementally() {
        let im = imager(16, 7);
        let mut enc = EncodeSession::new(im).unwrap();
        for i in 0..3 {
            enc.capture(&Scene::gaussian_blobs(2).render(16, 16, i))
                .unwrap();
        }
        let bytes = enc.into_bytes();
        let mut dec = DecodeSession::new();
        let mut total = 0;
        for chunk in bytes.chunks(97) {
            total += dec.push_bytes(chunk).unwrap().len();
        }
        assert_eq!(total, 3);
        assert_eq!(dec.frames_decoded(), 3);
        assert_eq!(dec.buffered_bytes(), 0);
    }

    #[test]
    fn operator_cache_hits_across_frames() {
        let im = imager(16, 5);
        let mut enc = EncodeSession::new(im).unwrap();
        for i in 0..4 {
            enc.capture(&Scene::gaussian_blobs(2).render(16, 16, i))
                .unwrap();
        }
        let mut dec = DecodeSession::new();
        dec.push_bytes(&enc.to_bytes()).unwrap();
        let stats = dec.cache().stats();
        assert_eq!(stats.misses, 1, "one cold build");
        assert_eq!(stats.hits, 3, "three warm frames");
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn delta_mode_matches_sequence_decoder_semantics() {
        let im = imager(24, 0xCAFE);
        let scene = Scene::gaussian_blobs(3).render(24, 24, 5);
        let frame = im.capture(&scene);
        let mut session = DecodeSession::new();
        session.delta_mode(20, 0);
        let key = session.push_frame(&frame).unwrap();
        assert!(key.is_key);
        // Identical second frame: zero delta, identical reconstruction.
        let second = session.push_frame(&frame).unwrap();
        assert!(!second.is_key);
        assert_eq!(
            key.reconstruction.code_image(),
            second.reconstruction.code_image()
        );
    }

    #[test]
    fn frames_with_a_different_code_width_are_rejected() {
        // The same capture re-expressed at 10-bit codes: geometry,
        // strategy and seed match the session's 8-bit decoder, but its
        // clamp range does not.
        let im = imager(16, 0x10B);
        let eight = im.capture(&Scene::gaussian_blobs(2).render(16, 16, 4));
        let mut ten = eight.clone();
        ten.header.code_bits += 2;
        ten.header.sample_bits += 2;
        ten.samples.iter_mut().for_each(|s| *s *= 4);
        let fresh = DecodeSession::new().push_frame(&ten).unwrap();
        let peak = fresh
            .reconstruction
            .code_image()
            .as_slice()
            .iter()
            .fold(0.0_f64, |m, &v| m.max(v));
        assert!(peak > 255.0, "a 10-bit decode reaches past 8 bits: {peak}");
        let mut session = DecodeSession::new();
        session.push_frame(&eight).unwrap();
        assert!(matches!(
            session.push_frame(&ten),
            Err(CoreError::FrameMismatch(_))
        ));
    }

    #[test]
    fn delta_mode_rejects_mismatched_frames() {
        let im1 = imager(16, 1);
        let im2 = imager(16, 2);
        let scene = Scene::Uniform(0.5).render(16, 16, 0);
        let f1 = im1.capture(&scene);
        let f2 = im2.capture(&scene);
        let mut session = DecodeSession::new();
        session.delta_mode(10, 0);
        session.push_frame(&f1).unwrap();
        assert!(matches!(
            session.push_frame(&f2),
            Err(CoreError::FrameMismatch(_))
        ));
    }

    #[test]
    fn keyframe_interval_refreshes_full_recovery() {
        let im = imager(16, 0xCC);
        let scene = Scene::gaussian_blobs(3).render(16, 16, 9);
        let frame = im.capture(&scene);
        let mut session = DecodeSession::new();
        session.delta_mode(20, 2);
        let flags: Vec<bool> = (0..5)
            .map(|_| session.push_frame(&frame).unwrap().is_key)
            .collect();
        assert_eq!(flags, vec![true, false, false, true, false]);
    }

    #[test]
    fn session_tracks_quality_of_a_moving_sequence() {
        let im = imager(24, 0x5E9);
        let mut enc = EncodeSession::new(im.clone()).unwrap();
        let mut truths = Vec::new();
        for t in 0..4 {
            let mut scene = Scene::gaussian_blobs(2).render(24, 24, 77);
            for dy in 0..2 {
                for dx in 0..2 {
                    scene.set(3 + t * 3 + dx, 10 + dy, 0.95);
                }
            }
            truths.push(im.ideal_codes(&scene).to_code_f64());
            enc.capture(&scene).unwrap();
        }
        let mut dec = DecodeSession::new();
        dec.delta_mode(40, 0);
        let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
        for (d, truth) in decoded.iter().zip(&truths) {
            let db = psnr(truth, d.reconstruction.code_image(), 255.0);
            assert!(db > 22.0, "frame {}: {db:.1} dB", d.index);
        }
    }

    /// A delta frame takes IHT's norm from the cache: the first one
    /// memoizes the key's estimate, equal bit for bit to the one IHT
    /// would compute itself, and a second decode of the stream on the
    /// warm cache gives the same frames.
    #[test]
    fn delta_frames_memoize_the_iht_norm_per_key() {
        use std::cell::Cell;
        let im = imager(16, 0xD1);
        let frames: Vec<CompressedFrame> = (0..3)
            .map(|t| {
                let mut scene = Scene::gaussian_blobs(2).render(16, 16, 3);
                scene.set(2 + t, 7, 0.9);
                im.capture(&scene)
            })
            .collect();
        let decoder = Decoder::for_header(&frames[0].header).unwrap();
        let key = decoder.operator_key(frames[0].samples.len());
        let probe = |cache: &OperatorCache| {
            let computed = Cell::new(false);
            let norm = cache.operator_norm(&key, DictionaryKind::Identity, norm_seeds::IHT, || {
                computed.set(true);
                1.0
            });
            (norm, computed.get())
        };
        let decode = |cache: &Arc<OperatorCache>, n: usize| {
            let mut session = DecodeSession::with_cache(Arc::clone(cache));
            session.delta_mode(20, 0);
            frames[..n]
                .iter()
                .map(|f| session.push_frame(f).unwrap())
                .collect::<Vec<_>>()
        };
        // A key frame alone leaves no IHT norm behind.
        let key_only = Arc::new(OperatorCache::new());
        assert!(decode(&key_only, 1)[0].is_key);
        assert!(probe(&key_only).1, "no delta frame ran yet");
        // One delta frame memoizes it.
        let cache = Arc::new(OperatorCache::new());
        assert!(!decode(&cache, 2)[1].is_key);
        let (norm, computed) = probe(&cache);
        assert!(!computed, "the delta frame memoized the norm");
        let (phi, _) = cache.operator(&key).unwrap();
        let dict = IdentityDictionary::new(16 * 16);
        let want =
            norm_seeds::estimate(&ComposedOperator::new(phi.as_ref(), &dict), norm_seeds::IHT);
        assert_eq!(norm.map(f64::to_bits), Some(want.to_bits()));
        // Cold and warm decodes of the whole stream agree bit for bit.
        let cold = decode(&Arc::new(OperatorCache::new()), frames.len());
        assert_eq!(decode(&cache, frames.len()), cold);
        assert_eq!(cold.iter().filter(|f| f.is_key).count(), 1);
    }

    fn tiled_imager(seed: u64) -> CompressiveImager {
        use tepics_imaging::tile::{FrameGeometry, TileConfig};
        CompressiveImager::builder_for(FrameGeometry::new(40, 28))
            .tiling(TileConfig::new(16).overlap(4))
            .ratio(0.35)
            .seed(seed)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap()
    }

    #[test]
    fn tiled_session_roundtrips_stitched_frames() {
        let im = tiled_imager(21);
        let layout = im.tile_layout().unwrap().clone();
        let mut enc = EncodeSession::new(im).unwrap();
        let scenes: Vec<ImageF64> = (0..2)
            .map(|i| Scene::gaussian_blobs(3).render(40, 28, i))
            .collect();
        for scene in &scenes {
            let records = enc.capture(scene).unwrap();
            assert_eq!(records.len(), layout.tiles());
        }
        assert_eq!(enc.frames(), 2);
        assert_eq!(enc.records(), 2 * layout.tiles());

        let mut dec = DecodeSession::new();
        let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
        assert_eq!(decoded.len(), 2, "six records stitch into one frame each");
        assert_eq!(dec.tile_layout(), Some(&layout));
        for d in &decoded {
            let img = d.reconstruction.code_image();
            assert_eq!((img.width(), img.height()), (40, 28));
            assert!(d.is_key);
        }
        // One operator serves every tile of every frame.
        let stats = dec.cache().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2 * layout.tiles() as u64 - 1);
    }

    #[test]
    fn tiled_decode_is_bit_identical_across_thread_counts() {
        let im = tiled_imager(0xA11CE);
        let mut enc = EncodeSession::new(im).unwrap();
        enc.capture(&Scene::natural_like().render(40, 28, 3))
            .unwrap();
        let bytes = enc.into_bytes();

        let mut baseline = DecodeSession::new();
        let serial = baseline.push_bytes(&bytes).unwrap();
        for threads in [2, 4, 7] {
            let mut dec = DecodeSession::new();
            dec.threads(threads);
            let parallel = dec.push_bytes(&bytes).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn tiled_decode_quality_tracks_the_scene() {
        let im = tiled_imager(77);
        let scene = Scene::gaussian_blobs(3).render(40, 28, 11);
        let ideal = {
            // Ideal codes of the full frame, from an untiled imager with
            // the same sensor settings.
            let full = CompressiveImager::builder(28, 40)
                .ratio(0.35)
                .fidelity(Fidelity::Functional)
                .build()
                .unwrap();
            full.ideal_codes(&scene).to_code_f64()
        };
        let mut enc = EncodeSession::new(im).unwrap();
        enc.capture(&scene).unwrap();
        let mut dec = DecodeSession::new();
        let decoded = dec.push_bytes(&enc.to_bytes()).unwrap();
        let db = psnr(&ideal, decoded[0].reconstruction.code_image(), 255.0);
        assert!(db > 20.0, "stitched decode too poor: {db:.1} dB");
    }

    #[test]
    fn partial_tile_groups_wait_for_the_rest() {
        let im = tiled_imager(8);
        let layout = im.tile_layout().unwrap().clone();
        let mut enc = EncodeSession::new(im).unwrap();
        enc.capture(&Scene::gaussian_blobs(2).render(40, 28, 1))
            .unwrap();
        let bytes = enc.into_bytes();
        let mut dec = DecodeSession::new();
        // Feed everything except the last record's final byte: no frame
        // may surface yet.
        let out = dec.push_bytes(&bytes[..bytes.len() - 1]).unwrap();
        assert!(out.is_empty(), "incomplete tile group must not decode");
        let out = dec.push_bytes(&bytes[bytes.len() - 1..]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            dec.tile_layout().map(TileLayout::tiles),
            Some(layout.tiles())
        );
    }

    #[test]
    fn corrupt_stream_surfaces_malformed_frame() {
        let im = imager(16, 3);
        let mut enc = EncodeSession::new(im).unwrap();
        enc.capture(&Scene::Uniform(0.4).render(16, 16, 0)).unwrap();
        let mut bytes = enc.into_bytes();
        bytes[2] ^= 0xFF; // corrupt the magic
        let mut dec = DecodeSession::new();
        assert!(matches!(
            dec.push_bytes(&bytes),
            Err(CoreError::MalformedFrame(_))
        ));
    }

    /// Byte span of resilient record `i` (its sync word excluded) for a
    /// stream whose records all have the same payload size.
    fn record_span(header_len: usize, rec_len: usize, i: usize) -> (usize, usize) {
        let start = header_len + 4 * (i / crate::stream::SYNC_INTERVAL + 1) + i * rec_len;
        (start, start + rec_len)
    }

    fn resilient_record_len(samples: usize, sample_bits: usize) -> usize {
        crate::stream::RESILIENT_RECORD_PREFIX_BYTES + (samples * sample_bits).div_ceil(8) + 1
    }

    #[test]
    fn clean_resilient_session_decodes_identical_to_compact() {
        for tiled in [false, true] {
            let im = if tiled {
                tiled_imager(31)
            } else {
                imager(16, 31)
            };
            let (w, h) = if tiled { (40, 28) } else { (16, 16) };
            let mut compact = EncodeSession::new(im.clone()).unwrap();
            let mut resilient = EncodeSession::with_profile(im, WireProfile::Resilient).unwrap();
            for i in 0..3 {
                let scene = Scene::gaussian_blobs(2).render(w, h, i);
                compact.capture(&scene).unwrap();
                resilient.capture(&scene).unwrap();
            }
            assert_eq!(resilient.wire_version(), STREAM_VERSION_RESILIENT);
            let a = DecodeSession::new()
                .push_bytes(&compact.into_bytes())
                .unwrap();
            let mut dec = DecodeSession::new();
            let mut b = dec.push_bytes(&resilient.into_bytes()).unwrap();
            b.extend(dec.finish().unwrap());
            assert_eq!(a, b, "tiled={tiled}: clean v3 must match v1/v2 decode");
            let report = dec.report();
            assert_eq!(report.frames_recovered, 3);
            assert_eq!(report.frames_degraded + report.frames_lost, 0);
            assert_eq!(report.corrupt_events, 0);
            assert!((report.recovered_fraction() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erased_tile_degrades_gracefully_per_policy() {
        let im = tiled_imager(77);
        let layout = im.tile_layout().unwrap().clone();
        let mut enc = EncodeSession::with_profile(im, WireProfile::Resilient).unwrap();
        let frames = enc
            .capture(&Scene::gaussian_blobs(3).render(40, 28, 5))
            .unwrap();
        let bytes = enc.into_bytes();
        let rec_len = resilient_record_len(
            frames[0].samples.len(),
            frames[0].header.sample_bits as usize,
        );
        let (start, end) = record_span(crate::stream::RESILIENT_TILED_HEADER_BYTES, rec_len, 2);
        // Damage tile record 2's payload: its CRC fails, the tile is
        // erased, the other five stitch.
        let mut dirty = bytes.clone();
        dirty[start + 15] ^= 0x10;
        assert!(end <= bytes.len());

        for policy in [ErasurePolicy::NeighborBlend, ErasurePolicy::FlaggedZero] {
            let mut dec = DecodeSession::new();
            dec.erasure_policy(policy);
            let mut out = dec.push_bytes(&dirty).unwrap();
            out.extend(dec.finish().unwrap());
            assert_eq!(out.len(), 1, "{policy:?}");
            assert_eq!(out[0].erased_tiles, 1);
            assert_eq!(out[0].index, 0);
            let img = out[0].reconstruction.code_image();
            assert_eq!((img.width(), img.height()), (40, 28));
            assert!(img.as_slice().iter().all(|v| v.is_finite()));
            let report = dec.report();
            assert_eq!(report.frames_degraded, 1);
            assert_eq!(report.tiles_erased, 1);
            assert_eq!(report.tiles_recovered, layout.tiles() - 1);
            assert_eq!(report.corrupt_events, 1);
            assert!(report.bytes_skipped >= rec_len);
        }

        // Strict: the damaged frame is dropped, not stitched.
        let mut dec = DecodeSession::new();
        dec.erasure_policy(ErasurePolicy::Strict);
        let mut out = dec.push_bytes(&dirty).unwrap();
        out.extend(dec.finish().unwrap());
        assert!(out.is_empty());
        assert_eq!(dec.report().frames_lost, 1);
    }

    #[test]
    fn delta_mode_reanchors_after_a_dropped_frame() {
        let im = imager(24, 0xD17A);
        let header = im.frame_header();
        let scenes: Vec<ImageF64> = (0..5)
            .map(|i| Scene::gaussian_blobs(2).render(24, 24, 40 + i as u64))
            .collect();
        let mut enc = EncodeSession::with_profile(im, WireProfile::Resilient).unwrap();
        let mut captured = Vec::new();
        for scene in &scenes {
            captured.extend(enc.capture(scene).unwrap());
        }
        let bytes = enc.into_bytes();
        let rec_len = resilient_record_len(captured[0].samples.len(), header.sample_bits as usize);
        // Excise record 2 completely: a gap, not in-place corruption.
        let (start, end) = record_span(crate::stream::RESILIENT_HEADER_BYTES, rec_len, 2);
        let mut gapped = bytes[..start].to_vec();
        gapped.extend_from_slice(&bytes[end..]);

        let mut dec = DecodeSession::new();
        dec.delta_mode(30, 0);
        let out = dec.push_bytes(&gapped).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(
            out.iter().map(|d| d.index).collect::<Vec<_>>(),
            vec![0, 1, 3, 4],
            "true stream positions survive the gap"
        );
        assert!(out[2].is_key, "first frame after the gap re-anchors");
        assert!(!out[3].is_key, "chaining resumes after the re-anchor");
        let report = dec.report();
        assert_eq!(report.frames_lost, 1);
        assert_eq!(report.reanchors, 1);
        // The re-anchored frame is a *full* recovery: bit-identical to
        // decoding record 3 fresh in its own session.
        let fresh = DecodeSession::new().push_frame(&captured[3]).unwrap();
        assert_eq!(
            out[2].reconstruction, fresh.reconstruction,
            "re-anchor must not chain across the gap"
        );
    }

    /// Decodes `bytes` in one push plus `finish`, with the solves of
    /// `breakdowns` (frame index, tile slot) replaced by numerical
    /// breakdowns; a breakdown must never become the session's error.
    fn decode_with_breakdowns(
        bytes: &[u8],
        breakdowns: &[(usize, usize)],
        configure: impl FnOnce(&mut DecodeSession),
    ) -> (Vec<DecodedFrame>, DecodeReport) {
        let mut dec = DecodeSession::new();
        configure(&mut dec);
        dec.inject_breakdowns = breakdowns.to_vec();
        let mut out = dec.push_bytes(bytes).unwrap();
        out.extend(dec.finish().unwrap());
        assert_eq!(dec.error(), None);
        (out, dec.report())
    }

    #[test]
    fn tile_breakdown_degrades_like_a_crc_erased_tile() {
        let im = tiled_imager(77);
        let mut enc = EncodeSession::with_profile(im, WireProfile::Resilient).unwrap();
        let frames = enc
            .capture(&Scene::gaussian_blobs(3).render(40, 28, 5))
            .unwrap();
        enc.capture(&Scene::gaussian_blobs(3).render(40, 28, 6))
            .unwrap();
        let bytes = enc.into_bytes();
        // The reference: tile 2 of frame 0 fails its CRC on the wire.
        let rec_len = resilient_record_len(
            frames[0].samples.len(),
            frames[0].header.sample_bits as usize,
        );
        let (start, _) = record_span(crate::stream::RESILIENT_TILED_HEADER_BYTES, rec_len, 2);
        let mut dirty = bytes.clone();
        dirty[start + 15] ^= 0x10;

        let policies = [
            ErasurePolicy::NeighborBlend,
            ErasurePolicy::FlaggedZero,
            ErasurePolicy::Strict,
        ];
        for policy in policies {
            for threads in [1, 2] {
                let configure = |dec: &mut DecodeSession| {
                    dec.erasure_policy(policy).threads(threads);
                };
                let (erased, _) = decode_with_breakdowns(&dirty, &[], configure);
                let (broken, report) = decode_with_breakdowns(&bytes, &[(0, 2)], configure);
                assert_eq!(broken, erased, "{policy:?}, threads={threads}");
                assert_eq!(report.breakdowns, 1);
                if policy == ErasurePolicy::Strict {
                    assert_eq!(broken.len(), 1);
                    assert_eq!(report.frames_lost, 1);
                } else {
                    assert_eq!(broken.len(), 2, "the next frame decodes clean");
                    assert_eq!(broken[0].erased_tiles, 1);
                    assert_eq!(report.frames_degraded, 1);
                    assert_eq!(report.tiles_erased, 1);
                }
            }
        }
    }

    #[test]
    fn untiled_breakdown_loses_only_its_frame() {
        let mut enc = EncodeSession::new(imager(16, 9)).unwrap();
        for i in 0..3 {
            enc.capture(&Scene::gaussian_blobs(2).render(16, 16, i))
                .unwrap();
        }
        let bytes = enc.into_bytes();
        let (clean, _) = decode_with_breakdowns(&bytes, &[], |_| {});
        for threads in [1, 2] {
            let (out, report) = decode_with_breakdowns(&bytes, &[(1, 0)], |dec| {
                dec.threads(threads);
            });
            assert_eq!(out, vec![clean[0].clone(), clean[2].clone()]);
            assert_eq!(report.breakdowns, 1);
            assert_eq!(report.frames_lost, 1);
            assert_eq!(report.frames_recovered, 2);
        }
    }

    #[test]
    fn delta_breakdown_loses_its_frame_and_reanchors_the_next() {
        let im = imager(24, 0xD17A);
        let mut enc = EncodeSession::with_profile(im, WireProfile::Resilient).unwrap();
        let mut captured = Vec::new();
        for i in 0..5 {
            captured.extend(
                enc.capture(&Scene::gaussian_blobs(2).render(24, 24, 40 + i))
                    .unwrap(),
            );
        }
        let bytes = enc.into_bytes();
        // The reference: record 2 is lost on the wire.
        let rec_len = resilient_record_len(
            captured[0].samples.len(),
            captured[0].header.sample_bits as usize,
        );
        let (start, end) = record_span(crate::stream::RESILIENT_HEADER_BYTES, rec_len, 2);
        let mut gapped = bytes[..start].to_vec();
        gapped.extend_from_slice(&bytes[end..]);

        let delta = |dec: &mut DecodeSession| {
            dec.delta_mode(30, 0);
        };
        let (lost, lost_report) = decode_with_breakdowns(&gapped, &[], delta);
        let (broken, report) = decode_with_breakdowns(&bytes, &[(2, 0)], delta);
        assert_eq!(
            broken.iter().map(|d| d.index).collect::<Vec<_>>(),
            vec![0, 1, 3, 4]
        );
        assert!(broken[2].is_key, "the frame after the breakdown re-anchors");
        assert_eq!(broken, lost);
        assert_eq!(report.breakdowns, 1);
        assert_eq!(report.frames_lost, 1);
        assert_eq!(report.reanchors, 1);
        assert_eq!(lost_report.reanchors, 1);
    }

    /// A frame lost to a breakdown still takes its place in the
    /// numbering, so the next `push_frame` does not chain across it.
    #[test]
    fn push_frame_numbers_frames_past_a_breakdown() {
        let im = imager(16, 0xB4);
        let frames: Vec<CompressedFrame> = (0..3)
            .map(|t| {
                let mut scene = Scene::gaussian_blobs(2).render(16, 16, 3);
                scene.set(2 + t, 7, 0.9);
                im.capture(&scene)
            })
            .collect();
        let mut dec = DecodeSession::new();
        dec.delta_mode(20, 0);
        dec.inject_breakdowns = vec![(1, 0)];
        assert!(dec.push_frame(&frames[0]).unwrap().is_key);
        assert!(matches!(
            dec.push_frame(&frames[1]),
            Err(CoreError::Breakdown(_))
        ));
        let third = dec.push_frame(&frames[2]).unwrap();
        assert_eq!(third.index, 2);
        assert!(third.is_key, "the frame after the breakdown re-anchors");
        assert_eq!(dec.report().reanchors, 1);
        assert_eq!(dec.frames_decoded(), 2);
    }

    /// On a tiled delta stream that loses every record of one frame,
    /// every slot re-anchors on the next frame, and the decode from
    /// there on equals a fresh session's decode of those frames.
    #[test]
    fn a_lost_tiled_frame_reanchors_every_slot() {
        let im = tiled_imager(0x10F7);
        let tiles = im.tile_layout().unwrap().tiles();
        let scenes: Vec<ImageF64> = (0..4)
            .map(|t| {
                let mut scene = Scene::gaussian_blobs(3).render(40, 28, 8);
                scene.set(6 + 4 * t, 12, 0.9);
                scene
            })
            .collect();
        let encode = |scenes: &[ImageF64]| {
            let mut enc = EncodeSession::with_profile(im.clone(), WireProfile::Resilient).unwrap();
            let mut records = Vec::new();
            for scene in scenes {
                records.extend(enc.capture(scene).unwrap());
            }
            (enc.into_bytes(), records)
        };
        let (bytes, records) = encode(&scenes);
        let rec_len = resilient_record_len(
            records[0].samples.len(),
            records[0].header.sample_bits as usize,
        );
        // Cut frame 1's records, tiles..2·tiles, and the sync words among
        // them.
        let header = crate::stream::RESILIENT_TILED_HEADER_BYTES;
        let (start, _) = record_span(header, rec_len, tiles);
        let (_, end) = record_span(header, rec_len, 2 * tiles - 1);
        let mut gapped = bytes[..start].to_vec();
        gapped.extend_from_slice(&bytes[end..]);
        let (fresh_bytes, _) = encode(&scenes[2..]);
        let decode = |bytes: &[u8], threads: usize| {
            let mut dec = DecodeSession::new();
            dec.delta_mode(30, 0).threads(threads);
            let mut out = dec.push_bytes(bytes).unwrap();
            out.extend(dec.finish().unwrap());
            (out, dec.report())
        };
        for threads in [1, 2] {
            let (out, report) = decode(&gapped, threads);
            let shape: Vec<(usize, bool)> = out.iter().map(|d| (d.index, d.is_key)).collect();
            assert_eq!(
                shape,
                vec![(0, true), (2, true), (3, false)],
                "threads={threads}"
            );
            assert_eq!(report.frames_lost, 1, "threads={threads}");
            assert_eq!(report.reanchors, tiles, "threads={threads}");
            let (fresh, fresh_report) = decode(&fresh_bytes, threads);
            assert_eq!(fresh_report.reanchors, 0);
            assert_eq!(out.len(), 1 + fresh.len());
            for (got, want) in out[1..].iter().zip(&fresh) {
                assert_eq!(
                    (got.is_key, got.erased_tiles),
                    (want.is_key, want.erased_tiles)
                );
                assert_eq!(
                    got.reconstruction, want.reconstruction,
                    "threads={threads}: frame {}",
                    got.index
                );
            }
        }
    }

    /// On a tiled delta stream a tile lost on the wire re-anchors only
    /// its own slot: the next frame re-keys that slot and chains every
    /// other one.
    #[test]
    fn a_crc_lost_tile_reanchors_only_its_slot() {
        let im = tiled_imager(0x5107);
        let tiles = im.tile_layout().unwrap().tiles();
        let mut enc = EncodeSession::with_profile(im, WireProfile::Resilient).unwrap();
        let mut records = Vec::new();
        for t in 0..3 {
            let mut scene = Scene::gaussian_blobs(3).render(40, 28, 5);
            scene.set(6 + 4 * t, 12, 0.9);
            records.extend(enc.capture(&scene).unwrap());
        }
        let mut bytes = enc.into_bytes();
        let rec_len = resilient_record_len(
            records[0].samples.len(),
            records[0].header.sample_bits as usize,
        );
        // Tile 2 of frame 1 fails its payload CRC.
        let (start, _) = record_span(
            crate::stream::RESILIENT_TILED_HEADER_BYTES,
            rec_len,
            tiles + 2,
        );
        bytes[start + 15] ^= 0x10;

        for threads in [1, 2] {
            let mut dec = DecodeSession::new();
            dec.delta_mode(30, 0).threads(threads);
            let mut out = dec.push_bytes(&bytes).unwrap();
            out.extend(dec.finish().unwrap());
            let shape: Vec<(usize, bool, usize)> = out
                .iter()
                .map(|d| (d.index, d.is_key, d.erased_tiles))
                .collect();
            assert_eq!(
                shape,
                vec![(0, true, 0), (1, false, 1), (2, false, 0)],
                "threads={threads}"
            );
            let report = dec.report();
            assert_eq!(report.reanchors, 1, "threads={threads}");
            assert_eq!(report.frames_degraded, 1);
            // After frame 2, slot 2 is one key solve old; every other
            // slot has chained two deltas.
            let deltas: Vec<(usize, usize)> = dec
                .chains
                .iter()
                .map(|c| c.as_ref().map(|c| (c.index, c.deltas)).unwrap())
                .collect();
            let mut want = vec![(2, 2); tiles];
            want[2] = (2, 0);
            assert_eq!(deltas, want, "threads={threads}");
        }
    }
}
