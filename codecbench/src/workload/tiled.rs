//! `tiled256_lossy`: a 256×256 frame in 81 overlapping 32×32 tiles on
//! the resilient (v3) wire with seeded bit flips, decoded by OMP on two
//! pool executors and stitched around the erased tiles.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tepics_core::prelude::*;
use tepics_core::stream::{StreamParser, RESILIENT_TILED_HEADER_BYTES};
use tepics_imaging::tile::{fill_uncovered, merge_tiles_sparse};
use tepics_recovery::SolverWorkspace;
use tepics_util::parallel::thread_spawn_count;
use tepics_util::pool::WorkerPool;
use tepics_util::SplitMix64;

use super::{
    assemble, bit_identical, capture_all, decode_stream, encoder, finish_traced, on_clients, parse,
    passes_for, primed_cache, same_frames, trace_capture, trace_cs, Decoded, EndToEnd, LayerCounts,
    Replay, RunArgs, Stream, Timings, CLIENTS,
};
use crate::heap;
use crate::report::Outcome;
use crate::trace::Tracer;

/// Sizes of one run.
struct Size {
    side: usize,
    tile: usize,
    overlap: usize,
    /// Scenes captured; the streams re-append their records.
    scenes: usize,
    frames_per_stream: usize,
    /// Distinct streams, each with its own fault mask.
    streams: usize,
    /// Probability of flipping each bit past the stream header.
    flip_rate: f64,
    /// Streams decoded per timed capture round, in which each client
    /// captures one scene.
    capture_every: usize,
    traced_streams: usize,
    psnr_floor: f64,
}

const FULL: Size = Size {
    side: 256,
    tile: 32,
    overlap: 4,
    scenes: 8,
    frames_per_stream: 2,
    streams: 8,
    flip_rate: 2e-6,
    capture_every: 2,
    traced_streams: 4,
    psnr_floor: 18.0,
};

const SMOKE: Size = Size {
    side: 64,
    tile: 32,
    overlap: 4,
    scenes: 2,
    frames_per_stream: 2,
    streams: 2,
    flip_rate: 2e-6,
    capture_every: 1,
    traced_streams: 1,
    psnr_floor: 8.0,
};

/// Decode executors: the calling thread plus one pool worker.
const THREADS: usize = 2;
/// Sticky-scratch key of the replay's solver workspaces, apart from the
/// session's own.
const REPLAY_SLOT: u64 = 1 << 63;

/// OMP with a 100-atom budget. It reads the column view rather than
/// the fused Φ kernels, whose speed drifts by up to 1.7× from one run to
/// the next on the reference host (see `README.md`).
fn params() -> RecoveryParams {
    RecoveryParams::exact_sparse(100)
}

fn session(cache: &Arc<OperatorCache>, threads: usize) -> DecodeSession {
    let mut dec = DecodeSession::with_cache(Arc::clone(cache));
    dec.params(params())
        .threads(threads)
        .erasure_policy(ErasurePolicy::NeighborBlend);
    dec
}

/// Fails the run when a pooled decode differs from the serial decode of
/// the same bytes.
fn check_serial(out: &mut Outcome, label: &str, result: &Decoded, serial: &[DecodedFrame]) {
    if let Ok((frames, _)) = result {
        if !same_frames(frames, serial) {
            out.fail(format!(
                "{label}: the threads({THREADS}) decode differs from the serial decode"
            ));
        }
    }
}

pub(super) fn run(args: &RunArgs, out: &mut Outcome) -> Option<Tracer> {
    let size = if args.smoke { &SMOKE } else { &FULL };
    let mut rng = SplitMix64::new(args.seed);
    let imager = CompressiveImager::builder_for(FrameGeometry::new(size.side, size.side))
        .tiling(TileConfig::new(size.tile).overlap(size.overlap))
        .seed(rng.next_u64())
        .fidelity(Fidelity::Functional)
        .build()
        .expect("tiled imager configuration is valid");
    let layout = imager
        .tile_layout()
        .expect("a tiled imager has a layout")
        .clone();
    let scenes: Vec<ImageF64> = (0..size.scenes)
        .map(|_| Scene::natural_like().render(size.side, size.side, rng.next_u64()))
        .collect();
    let truth: Vec<ImageF64> = scenes
        .iter()
        .map(|s| imager.ideal_codes(s).to_code_f64())
        .collect();
    let captured = capture_all(&imager, WireProfile::Resilient, &scenes);
    let mut streams = Vec::with_capacity(size.streams);
    let mut flipped = 0;
    for s in 0..size.streams {
        // Each stream starts at another scene and has its own fault mask.
        let order: Vec<usize> = (0..size.frames_per_stream)
            .map(|i| (i + s) % size.scenes)
            .collect();
        let mut stream = assemble(&imager, WireProfile::Resilient, &captured.records, &order);
        flipped += FaultInjector::new(rng.next_u64()).flip_bits_after(
            &mut stream.bytes,
            RESILIENT_TILED_HEADER_BYTES,
            size.flip_rate,
        );
        streams.push(stream);
    }
    let first = captured.records[0][0].clone();
    // The serial decode of every stream, through the same calls: the
    // oracle the pooled decode must match bit for bit.
    let serial_cache = OperatorCache::shared();
    let serial: Vec<Vec<DecodedFrame>> = streams
        .iter()
        .enumerate()
        .map(|(s, stream)| {
            let serial = || session(&serial_cache, 1);
            match decode_stream(serial, stream, 1, &mut Timings::default(), None) {
                Ok((frames, _)) => frames,
                Err(e) => {
                    out.fail(format!("serial decode of stream {s}: {e}"));
                    Vec::new()
                }
            }
        })
        .collect();
    out.fact("streams", size.streams.to_string());
    out.fact("frames_per_stream", size.frames_per_stream.to_string());
    out.fact("tiles_per_frame", layout.tiles().to_string());
    out.fact("threads", THREADS.to_string());
    out.fact("bits_flipped", flipped.to_string());
    if args.trace {
        let inputs = Inputs {
            imager: &imager,
            layout: &layout,
            scenes: &scenes,
            truth: &truth,
            streams: &streams,
            serial: &serial,
            first: &first,
        };
        return Some(traced(size, &inputs, out));
    }

    // Each pass times a cold start and decodes one stream on both
    // executors; every `capture_every`-th pass the two clients also
    // capture a scene each, at once.
    let mut e2e = EndToEnd::default();
    let cache = primed_cache(out, &first, |c| session(c, THREADS));
    heap::reset_peak();
    for pass in passes_for(args.seconds) {
        e2e.cold_start(&first, THREADS, |c| session(c, THREADS));
        if pass % size.capture_every == 0 {
            let round = pass / size.capture_every;
            for client in on_clients(|c| {
                let mut side = EndToEnd::default();
                let scene = (round * CLIENTS + c) % scenes.len();
                let mut enc = encoder(&imager, WireProfile::Resilient);
                side.recapture(&mut enc, &scenes[scene], &captured.records[scene]);
                side
            }) {
                e2e.absorb(client);
            }
        }
        let s = pass % size.streams;
        let label = format!("stream {pass}");
        let open = || session(&cache, THREADS);
        let result = decode_stream(open, &streams[s], THREADS, &mut e2e.timings, None);
        e2e.sample_heap();
        check_serial(out, &label, &result, &serial[s]);
        e2e.book(
            &label,
            result.map(|(frames, _)| frames),
            &streams[s],
            &truth,
            size.psnr_floor,
        );
    }
    e2e.report(out, 1);
    None
}

/// What the traced run works from.
struct Inputs<'a> {
    imager: &'a CompressiveImager,
    layout: &'a TileLayout,
    scenes: &'a [ImageF64],
    truth: &'a [ImageF64],
    streams: &'a [Stream],
    serial: &'a [Vec<DecodedFrame>],
    first: &'a CompressedFrame,
}

/// The traced run: the capture and operator layers first, then the
/// same streams decoded untraced (the reference for the tracing
/// overhead, and the cache counters) and traced, every tile group
/// replayed on the pool and stitched through the public calls.
fn traced(size: &Size, inputs: &Inputs<'_>, out: &mut Outcome) -> Tracer {
    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut counts = LayerCounts {
        executors: THREADS,
        ..LayerCounts::default()
    };
    trace_capture(
        &mut tracer,
        &mut counts,
        inputs.imager,
        WireProfile::Resilient,
        inputs.scenes,
    );
    trace_cs(&mut tracer, inputs.first);
    let configure = |c: &Arc<OperatorCache>| session(c, THREADS);

    let cache = primed_cache(out, inputs.first, configure);
    let mut plain = Timings::default();
    for pass in 0..size.traced_streams {
        let stream = &inputs.streams[pass % size.streams];
        let start = Instant::now();
        let result = decode_stream(|| configure(&cache), stream, THREADS, &mut plain, None);
        counts.untraced_wall_s += start.elapsed().as_secs_f64();
        if let Err(e) = result {
            out.fail(format!("untraced stream {pass}: {e}"));
        }
    }
    counts.untraced_frames = plain.frames;
    counts.add_cache(&cache, 1);

    let cache = primed_cache(out, inputs.first, configure);
    let mut decoder = Decoder::for_frame(inputs.first).expect("captured headers are valid");
    decoder.params(params()).use_cache(Arc::clone(&cache));
    let decoder = Arc::new(decoder);
    // Warm the replay's own workspace on every executor, as prewarm does
    // for the session's.
    let (warm, record) = (Arc::clone(&decoder), inputs.first.clone());
    WorkerPool::global().broadcast(THREADS, move |scratch| {
        let workspace = scratch.slot::<SolverWorkspace, _>(REPLAY_SLOT, SolverWorkspace::default);
        let _ = warm.reconstruct_with(&record, workspace);
    });
    let mut replay = TiledReplay {
        tracer,
        counts,
        parser: StreamParser::new(),
        slots: BTreeMap::new(),
        floor: 0,
        decoder,
        layout: inputs.layout.clone(),
        push: 0,
    };
    let mut timings = Timings::default();
    let mut e2e = EndToEnd::default();
    let spawns = thread_spawn_count();
    for pass in 0..size.traced_streams {
        let s = pass % size.streams;
        let label = format!("traced stream {pass}");
        replay.restart();
        let start = Instant::now();
        let open = || configure(&cache);
        let result = decode_stream(
            open,
            &inputs.streams[s],
            THREADS,
            &mut timings,
            Some(&mut replay),
        );
        replay.counts.traced_wall_s += start.elapsed().as_secs_f64();
        check_serial(out, &label, &result, &inputs.serial[s]);
        if let Ok((_, report)) = &result {
            replay.counts.add_report(report);
        }
        e2e.book(
            &label,
            result.map(|(frames, _)| frames),
            &inputs.streams[s],
            inputs.truth,
            size.psnr_floor,
        );
    }
    let TiledReplay {
        tracer, mut counts, ..
    } = replay;
    counts.spawns = thread_spawn_count() - spawns;
    counts.frames = timings.frames;
    finish_traced(out, &tracer, &counts, e2e);
    tracer
}

/// Decomposes each traced push through the public calls the session
/// makes for it: parse, one `Decoder::reconstruct_with` per tile on the
/// pool, stitch, fill.
struct TiledReplay {
    tracer: Tracer,
    counts: LayerCounts,
    parser: StreamParser,
    /// Records received per frame index, by tile slot.
    slots: BTreeMap<usize, Vec<Option<CompressedFrame>>>,
    /// Frames below this index were already emitted.
    floor: usize,
    decoder: Arc<Decoder>,
    layout: TileLayout,
    push: u64,
}

impl TiledReplay {
    fn restart(&mut self) {
        self.parser = StreamParser::new();
        self.slots.clear();
        self.floor = 0;
    }

    /// Re-solves the tiles behind one emitted frame on the pool, then
    /// stitches and fills them as the session does.
    fn replay_group(&mut self, id: u64, push: usize, frame: &DecodedFrame) {
        let tiles = self.layout.tiles();
        let group = self
            .slots
            .remove(&frame.index)
            .unwrap_or_else(|| vec![None; tiles]);
        self.floor = frame.index + 1;
        let floor = self.floor;
        self.slots.retain(|&index, _| index >= floor);
        let items: Vec<(usize, CompressedFrame)> = group
            .into_iter()
            .enumerate()
            .filter_map(|(tile, record)| record.map(|r| (tile, r)))
            .collect();
        let decoder = Arc::clone(&self.decoder);
        let map_start = Instant::now();
        let solved = WorkerPool::global().map(THREADS, items, move |_, (tile, record), scratch| {
            let workspace =
                scratch.slot::<SolverWorkspace, _>(REPLAY_SLOT, SolverWorkspace::default);
            let start = Instant::now();
            let result = decoder.reconstruct_with(&record, workspace);
            (tile, result, start, Instant::now())
        });
        let map = self
            .tracer
            .record("pool.map", id, Some(push), map_start, Instant::now());
        let mut recons: Vec<Option<Reconstruction>> = vec![None; tiles];
        for (tile, result, start, end) in solved {
            self.tracer
                .record("recovery.solve", id, Some(map), start, end);
            match result {
                Ok(recon) => {
                    self.counts.add_solve(recon.stats());
                    recons[tile] = Some(recon);
                }
                Err(_) => self.counts.mismatches += 1,
            }
        }
        let ((mut image, uncovered), _) =
            self.tracer.time("imaging.stitch", id, Some(push), || {
                let codes: Vec<Option<Vec<f64>>> = recons
                    .iter()
                    .map(|r| r.as_ref().map(|r| r.code_image().as_slice().to_vec()))
                    .collect();
                merge_tiles_sparse(&codes, &self.layout)
            });
        if uncovered.iter().any(|&u| u) {
            self.tracer.time("imaging.fill", id, Some(push), || {
                fill_uncovered(&mut image, &uncovered);
            });
        }
        if !bit_identical(&image, frame.reconstruction.code_image()) {
            self.counts.mismatches += 1;
        }
    }
}

impl Replay for TiledReplay {
    fn replay(&mut self, chunk: &[u8], start: Instant, end: Instant, got: &[DecodedFrame]) {
        let id = self.push;
        self.push += 1;
        let push = self.tracer.record("session.push", id, None, start, end);
        let (parsed, _) = self.tracer.time("stream.parse", id, Some(push), || {
            parse(&mut self.parser, chunk)
        });
        self.counts.add_parsed(chunk, &parsed);
        let tiles = self.layout.tiles();
        for (seq, record) in parsed.records {
            let (index, tile) = (seq as usize / tiles, seq as usize % tiles);
            if index >= self.floor {
                let group = self.slots.entry(index).or_insert_with(|| vec![None; tiles]);
                group[tile].get_or_insert(record);
            }
        }
        for frame in got {
            self.replay_group(id, push, frame);
        }
    }
}
