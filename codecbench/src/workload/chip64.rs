//! `chip64_video`: the paper's 64×64 chip streaming a short video — a
//! fixed natural background with a small moving square — over the
//! compact (v1) wire, decoded with IHT delta frames between
//! debiased-FISTA keyframes.

use std::sync::Arc;
use std::time::Instant;

use tepics_core::prelude::*;
use tepics_util::parallel::thread_spawn_count;
use tepics_util::SplitMix64;

use super::{
    assemble, capture_all, decode_stream, encoder, finish_traced, on_clients, passes_for,
    primed_cache, trace_capture, trace_cs, video_scenes, CompactReplay, EndToEnd, LayerCounts,
    RunArgs, Stream, Timings, CLIENTS,
};
use crate::heap;
use crate::report::Outcome;
use crate::trace::Tracer;

/// Sizes of one run.
struct Size {
    side: usize,
    /// Distinct streams, decoded in turn.
    streams: usize,
    /// Frames per stream: one keyframe, then three delta frames.
    frames_per_stream: usize,
    /// Streams a client decodes per timed cold start.
    setup_every: usize,
    /// Streams per client of the traced run.
    traced_streams: usize,
    psnr_floor: f64,
}

const FULL: Size = Size {
    side: 64,
    streams: 4,
    frames_per_stream: 4,
    setup_every: 2,
    traced_streams: 2,
    psnr_floor: 18.0,
};

const SMOKE: Size = Size {
    side: 16,
    streams: 2,
    frames_per_stream: 4,
    setup_every: 1,
    traced_streams: 1,
    psnr_floor: 8.0,
};

/// IHT budget of a delta frame, in pixels.
const DELTA_SPARSITY: usize = 64;
/// Delta frames between keyframes.
const KEYFRAME_INTERVAL: usize = 3;

fn session(cache: &Arc<OperatorCache>) -> DecodeSession {
    let mut dec = DecodeSession::with_cache(Arc::clone(cache));
    dec.params(RecoveryParams::natural())
        .delta_mode(DELTA_SPARSITY, KEYFRAME_INTERVAL);
    dec
}

pub(super) fn run(args: &RunArgs, out: &mut Outcome) -> Option<Tracer> {
    let size = if args.smoke { &SMOKE } else { &FULL };
    let mut rng = SplitMix64::new(args.seed);
    let imager = CompressiveImager::builder(size.side, size.side)
        .seed(rng.next_u64())
        .fidelity(Fidelity::Functional)
        .build()
        .expect("chip64 imager configuration is valid");
    let scenes = video_scenes(size.side, size.streams * size.frames_per_stream, &mut rng);
    let truth: Vec<ImageF64> = scenes
        .iter()
        .map(|s| imager.ideal_codes(s).to_code_f64())
        .collect();
    let captured = capture_all(&imager, WireProfile::Compact, &scenes);
    let streams: Vec<Stream> = (0..size.streams)
        .map(|s| {
            let order: Vec<usize> =
                (s * size.frames_per_stream..(s + 1) * size.frames_per_stream).collect();
            assemble(&imager, WireProfile::Compact, &captured.records, &order)
        })
        .collect();
    let first = captured.records[0][0].clone();
    out.fact("streams", size.streams.to_string());
    out.fact("frames_per_stream", size.frames_per_stream.to_string());
    if args.trace {
        return Some(traced(
            size, &imager, &scenes, &truth, &streams, &first, out,
        ));
    }

    // Two receivers, one per core, share a warm cache. Each pass of a
    // client captures one scene again and decodes one stream; every
    // `setup_every`-th pass also times a cold start.
    let cache = primed_cache(out, &first, session);
    heap::reset_peak();
    let clients = on_clients(|c| {
        let mut e2e = EndToEnd::default();
        let mut enc = encoder(&imager, WireProfile::Compact);
        for pass in passes_for(args.seconds) {
            if pass % size.setup_every == size.setup_every - 1 {
                e2e.cold_start(&first, 1, session);
            }
            let job = pass * CLIENTS + c;
            let scene = job % scenes.len();
            e2e.recapture(&mut enc, &scenes[scene], &captured.records[scene]);
            let stream = &streams[job % size.streams];
            let result = decode_stream(|| session(&cache), stream, 1, &mut e2e.timings, None);
            e2e.sample_heap();
            e2e.book(
                &format!("client {c} stream {pass}"),
                result.map(|(frames, _)| frames),
                stream,
                &truth,
                size.psnr_floor,
            );
        }
        e2e
    });
    let mut e2e = EndToEnd::default();
    for client in clients {
        e2e.absorb(client);
    }
    e2e.report(out, CLIENTS);
    None
}

/// The traced run: the capture and operator layers first, then the
/// clients decode their streams untraced (the reference for the tracing
/// overhead, and the cache counters) and traced, every keyframe replayed
/// through `Decoder::reconstruct_with`.
fn traced(
    size: &Size,
    imager: &CompressiveImager,
    scenes: &[ImageF64],
    truth: &[ImageF64],
    streams: &[Stream],
    first: &CompressedFrame,
    out: &mut Outcome,
) -> Tracer {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0);
    let mut counts = LayerCounts {
        executors: 1,
        ..LayerCounts::default()
    };
    trace_capture(
        &mut tracer,
        &mut counts,
        imager,
        WireProfile::Compact,
        scenes,
    );
    trace_cs(&mut tracer, first);
    let stream_of = |pass: usize, c: usize| &streams[(pass * CLIENTS + c) % size.streams];

    let cache = primed_cache(out, first, session);
    let start = Instant::now();
    let plain = on_clients(|c| {
        let mut timings = Timings::default();
        let mut failures = Vec::new();
        for pass in 0..size.traced_streams {
            let open = || session(&cache);
            if let Err(e) = decode_stream(open, stream_of(pass, c), 1, &mut timings, None) {
                failures.push(format!("untraced client {c} stream {pass}: {e}"));
            }
        }
        (timings.frames, failures)
    });
    counts.untraced_wall_s = start.elapsed().as_secs_f64();
    for (frames, failures) in plain {
        counts.untraced_frames += frames;
        failures.into_iter().for_each(|f| out.fail(f));
    }
    counts.add_cache(&cache, 1);

    let cache = primed_cache(out, first, session);
    let spawns = thread_spawn_count();
    let start = Instant::now();
    let clients = on_clients(|c| {
        let tracer = Tracer::new(origin, c + 1);
        let mut replay = CompactReplay::new(tracer, RecoveryParams::natural(), false);
        let mut e2e = EndToEnd::default();
        for pass in 0..size.traced_streams {
            let stream = stream_of(pass, c);
            replay.restart(&cache);
            let open = || session(&cache);
            let result = decode_stream(open, stream, 1, &mut e2e.timings, Some(&mut replay));
            if let Ok((_, report)) = &result {
                replay.counts.add_report(report);
            }
            e2e.book(
                &format!("traced client {c} stream {pass}"),
                result.map(|(frames, _)| frames),
                stream,
                truth,
                size.psnr_floor,
            );
        }
        (replay, e2e)
    });
    counts.traced_wall_s = start.elapsed().as_secs_f64();
    counts.spawns = thread_spawn_count() - spawns;
    let mut e2e = EndToEnd::default();
    for (replay, client) in clients {
        counts.absorb(&replay.counts);
        tracer.absorb(replay.tracer);
        e2e.absorb(client);
    }
    counts.frames = e2e.timings.frames;
    finish_traced(out, &tracer, &counts, e2e);
    tracer
}
