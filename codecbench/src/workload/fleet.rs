//! `fleet32_cold`: a fleet of 32×32 camera streams, each on a seed the
//! shared operator cache has never seen, decoded by two clients that
//! race on the first use of every seed.
//!
//! Priming the cache dominates: the first record of a stream replays the
//! CA to build Φ, then materializes the column view OMP reads; the solve
//! itself takes a few milliseconds.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use tepics_core::prelude::*;
use tepics_util::parallel::thread_spawn_count;
use tepics_util::SplitMix64;

use super::{
    capture_all, decode_stream, encoder, finish_traced, on_clients, passes_for, trace_capture,
    trace_cs, CompactReplay, Decoded, EndToEnd, LayerCounts, Replay, RunArgs, Stream, Timings,
    CLIENTS,
};
use crate::heap;
use crate::report::Outcome;
use crate::trace::Tracer;

/// Sizes of one run.
struct Size {
    side: usize,
    /// Seeds per round; each feeds one stream per client.
    pairs: usize,
    /// OMP atom budget.
    atoms: usize,
    traced_rounds: usize,
    psnr_floor: f64,
}

const FULL: Size = Size {
    side: 32,
    pairs: 12,
    atoms: 100,
    traced_rounds: 2,
    psnr_floor: 15.0,
};

const SMOKE: Size = Size {
    side: 16,
    pairs: 2,
    atoms: 20,
    traced_rounds: 1,
    psnr_floor: 5.0,
};

/// Frames of stream `j`: the two streams of a seed carry 2 and 3
/// frames, so every seed mixes cold and warm decodes alike.
fn frames_of(j: usize) -> usize {
    2 + j % CLIENTS
}

fn session(cache: &Arc<OperatorCache>, atoms: usize) -> DecodeSession {
    let mut dec = DecodeSession::with_cache(Arc::clone(cache));
    dec.params(params(atoms));
    dec
}

fn params(atoms: usize) -> RecoveryParams {
    RecoveryParams::exact_sparse(atoms)
}

/// One camera: its imager, scenes and their ideal codes, the records
/// and stream it captured.
struct Camera {
    imager: CompressiveImager,
    scenes: Vec<ImageF64>,
    truth: Vec<ImageF64>,
    records: Vec<Vec<CompressedFrame>>,
    stream: Stream,
}

pub(super) fn run(args: &RunArgs, out: &mut Outcome) -> Option<Tracer> {
    let size = if args.smoke { &SMOKE } else { &FULL };
    let mut rng = SplitMix64::new(args.seed);
    // One seed per pair, plus a spare seed only set-up touches.
    let mut cameras = Vec::with_capacity((size.pairs + 1) * CLIENTS);
    for pair in 0..=size.pairs {
        let imager = CompressiveImager::builder(size.side, size.side)
            .seed(rng.next_u64())
            .fidelity(Fidelity::Functional)
            .build()
            .expect("fleet imager configuration is valid");
        for client in 0..CLIENTS {
            let scenes: Vec<ImageF64> = (0..frames_of(pair * CLIENTS + client))
                .map(|_| Scene::gaussian_blobs(3).render(size.side, size.side, rng.next_u64()))
                .collect();
            let truth = scenes
                .iter()
                .map(|s| imager.ideal_codes(s).to_code_f64())
                .collect();
            let captured = capture_all(&imager, WireProfile::Compact, &scenes);
            cameras.push(Camera {
                imager: imager.clone(),
                scenes,
                truth,
                records: captured.records,
                stream: captured.stream,
            });
        }
    }
    let spare = cameras.split_off(size.pairs * CLIENTS);
    out.fact("seeds_per_round", size.pairs.to_string());
    out.fact("streams_per_round", cameras.len().to_string());
    out.fact("clients", CLIENTS.to_string());
    if args.trace {
        return Some(traced(size, &cameras, out));
    }

    // Before each round, each client times a cold start on the spare
    // seed, and captures again the scenes of its camera of one seed.
    let mut e2e = EndToEnd::default();
    let mut rounds = 0;
    heap::reset_peak();
    for r in passes_for(args.seconds) {
        rounds += 1;
        let pair = r % size.pairs;
        for client in on_clients(|c| {
            let mut side = EndToEnd::default();
            side.cold_start(&spare[c].records[0][0], 1, |cache| {
                session(cache, size.atoms)
            });
            let camera = &cameras[pair * CLIENTS + c];
            let mut enc = encoder(&camera.imager, WireProfile::Compact);
            for (scene, records) in camera.scenes.iter().zip(&camera.records) {
                side.recapture(&mut enc, scene, records);
            }
            side
        }) {
            e2e.absorb(client);
        }
        let round = run_round(size, &cameras, (0..CLIENTS).map(|_| None).collect());
        e2e.sample_heap();
        for client in round.clients {
            e2e.timings.absorb(client.timings);
            for (j, result) in client.results {
                e2e.book(
                    &format!("round {r} stream {j}"),
                    result.map(|(frames, _)| frames),
                    &cameras[j].stream,
                    &cameras[j].truth,
                    size.psnr_floor,
                );
            }
        }
    }
    out.fact("rounds", rounds.to_string());
    e2e.report(out, CLIENTS);
    None
}

/// What one client did in a round.
struct Client {
    timings: Timings,
    results: Vec<(usize, Decoded)>,
    replay: Option<CompactReplay>,
}

/// One decode of the whole fleet.
struct Round {
    cache: Arc<OperatorCache>,
    wall_s: f64,
    clients: Vec<Client>,
}

/// Decodes the fleet once on a fresh cache. Each client takes its
/// stream of every seed, a new session per stream; the clients meet at
/// a barrier before each seed, so both reach its first use together.
fn run_round(size: &Size, cameras: &[Camera], replays: Vec<Option<CompactReplay>>) -> Round {
    let cache = OperatorCache::shared();
    let barrier = Barrier::new(CLIENTS);
    let start = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = replays
            .into_iter()
            .enumerate()
            .map(|(client, mut replay)| {
                let (cache, barrier) = (&cache, &barrier);
                scope.spawn(move || {
                    let mut timings = Timings::default();
                    let mut results = Vec::with_capacity(size.pairs);
                    for pair in 0..size.pairs {
                        let j = pair * CLIENTS + client;
                        barrier.wait();
                        if let Some(replay) = replay.as_mut() {
                            replay.restart(cache);
                        }
                        let result = decode_stream(
                            || session(cache, size.atoms),
                            &cameras[j].stream,
                            1,
                            &mut timings,
                            replay.as_mut().map(|r| r as &mut dyn Replay),
                        );
                        results.push((j, result));
                    }
                    Client {
                        timings,
                        results,
                        replay,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet client thread panicked"))
            .collect()
    });
    Round {
        cache,
        wall_s: start.elapsed().as_secs_f64(),
        clients,
    }
}

/// The traced run: the capture and operator layers first, then whole
/// rounds untraced (the reference for the tracing overhead, and the
/// cache counters) and traced, the cold prime and every solve replayed
/// through the public calls.
fn traced(size: &Size, cameras: &[Camera], out: &mut Outcome) -> Tracer {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 0);
    let mut counts = LayerCounts {
        executors: 1,
        ..LayerCounts::default()
    };
    for camera in cameras {
        trace_capture(
            &mut tracer,
            &mut counts,
            &camera.imager,
            WireProfile::Compact,
            &camera.scenes,
        );
    }
    trace_cs(&mut tracer, &cameras[0].records[0][0]);
    for _ in 0..size.traced_rounds {
        let round = run_round(size, cameras, (0..CLIENTS).map(|_| None).collect());
        counts.add_cache(&round.cache, size.pairs);
        counts.untraced_wall_s += round.wall_s;
        counts.untraced_frames += round
            .clients
            .iter()
            .map(|c| c.timings.frames)
            .sum::<usize>();
    }

    let mut e2e = EndToEnd::default();
    let spawns = thread_spawn_count();
    for r in 0..size.traced_rounds {
        let replays = (1..=CLIENTS)
            .map(|client| {
                let tracer = Tracer::new(origin, client);
                Some(CompactReplay::new(tracer, params(size.atoms), true))
            })
            .collect();
        let round = run_round(size, cameras, replays);
        counts.traced_wall_s += round.wall_s;
        for client in round.clients {
            counts.frames += client.timings.frames;
            for (j, result) in client.results {
                if let Ok((_, report)) = &result {
                    counts.add_report(report);
                }
                e2e.book(
                    &format!("traced round {r} stream {j}"),
                    result.map(|(frames, _)| frames),
                    &cameras[j].stream,
                    &cameras[j].truth,
                    size.psnr_floor,
                );
            }
            if let Some(replay) = client.replay {
                counts.absorb(&replay.counts);
                tracer.absorb(replay.tracer);
            }
        }
    }
    counts.spawns = thread_spawn_count() - spawns;
    finish_traced(out, &tracer, &counts, e2e);
    tracer
}
