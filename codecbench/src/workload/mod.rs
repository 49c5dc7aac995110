//! The three workloads and what they share: seeded inputs, wire streams
//! cut into the per-frame chunks a receiver sees, the correctness gate,
//! and the assembly of the end-to-end and per-layer metrics.

mod chip64;
mod fleet;
mod tiled;

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tepics_core::prelude::*;
use tepics_core::stream::StreamParser;
use tepics_core::{CoreError, StreamEvent};
use tepics_cs::dictionary::ZeroMeanDictionary;
use tepics_cs::{op, ColumnMatrix, ComposedOperator, Dct2dDictionary, LinearOperator};
use tepics_recovery::{SolveStats, SolverWorkspace};
use tepics_util::SplitMix64;

use crate::calib;
use crate::heap;
use crate::report::{self, Outcome};
use crate::stats;
use crate::trace::Tracer;

/// Default workload seed (`--seed`).
pub const DEFAULT_SEED: u64 = 1;
/// Default measured length of a run in seconds (`--seconds`).
pub const DEFAULT_SECONDS: f64 = 40.0;

/// Timed calls per operator-layer measurement of the traced run.
const CS_REPS: usize = 5;
/// Timed forward and adjoint applications of the traced run.
const APPLY_REPS: usize = 41;
/// Power-iteration seed of the traced norm estimate (only its cost is
/// measured).
const NORM_SEED: u64 = 0x5EED;
const MIB: f64 = 1024.0 * 1024.0;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 64×64 chip streaming video, delta-decoded.
    Chip64Video,
    /// A 256×256 tiled frame on a lossy resilient wire, pool-decoded.
    Tiled256Lossy,
    /// Many 32×32 camera streams on cold seeds, two racing clients.
    Fleet32Cold,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Chip64Video,
        Workload::Tiled256Lossy,
        Workload::Fleet32Cold,
    ];

    /// The workloads `BENCHMARK.json` names, in its order.
    /// `chip64_video` runs on request but is left out: even scaled to
    /// the host's speed, its timings spread over seeds by more than the
    /// regression bounds allow (see `README.md`).
    pub const BENCHMARKED: [Workload; 2] = [Workload::Tiled256Lossy, Workload::Fleet32Cold];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chip64Video => "chip64_video",
            Workload::Tiled256Lossy => "tiled256_lossy",
            Workload::Fleet32Cold => "fleet32_cold",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the scenes, camera seeds and fault masks.
    pub seed: u64,
    /// Run length; fixes how many streams are decoded.
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Tiny sizes, for the benchmark's own tests.
    pub smoke: bool,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Runs one workload and returns what it measured and found.
#[must_use]
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    out.fact("workload", report::quote(args.workload.name()));
    out.fact("seed", args.seed.to_string());
    out.fact("seconds", args.seconds.to_string());
    out.fact("trace", args.trace.to_string());
    out.fact("smoke", args.smoke.to_string());
    report::host_facts(&mut out);
    let tracer = match args.workload {
        Workload::Chip64Video => chip64::run(args, &mut out),
        Workload::Tiled256Lossy => tiled::run(args, &mut out),
        Workload::Fleet32Cold => fleet::run(args, &mut out),
    };
    if let Some(tracer) = tracer {
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                "target/codecbench/{}-seed{}.spans.jsonl",
                args.workload.name(),
                args.seed
            ))
        });
        match tracer.write_jsonl(&path) {
            Ok(()) => out.fact("spans_file", report::quote(&path.display().to_string())),
            Err(e) => eprintln!(
                "codecbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    out
}

/// `d` in milliseconds.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Pass numbers of a timed loop: passes start until `seconds` have gone
/// by, and at least one does.
pub(crate) fn passes_for(seconds: f64) -> impl Iterator<Item = usize> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    (0..).take_while(move |&pass| pass == 0 || Instant::now() < deadline)
}

/// `count` frames of one fixed natural background with a small bright
/// square moving across it, bouncing off the edges.
pub(crate) fn video_scenes(side: usize, count: usize, rng: &mut SplitMix64) -> Vec<ImageF64> {
    let background = Scene::natural_like().render(side, side, rng.next_u64());
    let square = (side / 8).max(2);
    let room = (side - square) as i64;
    let mut pos = [0i64; 2].map(|_| rng.next_below(room as u64 + 1) as i64);
    let mut step = [2i64, 1].map(|s| if rng.next_bool() { s } else { -s });
    (0..count)
        .map(|_| {
            let mut frame = background.clone();
            for y in 0..square {
                for x in 0..square {
                    frame.set(pos[0] as usize + x, pos[1] as usize + y, 0.95);
                }
            }
            for (p, s) in pos.iter_mut().zip(step.iter_mut()) {
                *p += *s;
                if !(0..=room).contains(p) {
                    *s = -*s;
                    *p = (*p).clamp(0, room);
                }
            }
            frame
        })
        .collect()
}

/// One receiver stream: its bytes, cut where each frame's records end.
#[derive(Debug, Clone)]
pub(crate) struct Stream {
    pub bytes: Vec<u8>,
    /// End offset of each frame's records (the first frame's chunk also
    /// carries the stream header).
    pub cuts: Vec<usize>,
    /// Index of the captured scene behind each frame.
    pub scenes: Vec<usize>,
}

impl Stream {
    /// The bytes a receiver sees per frame.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.cuts.iter().scan(0, |start, &end| {
            let chunk = &self.bytes[*start..end];
            *start = end;
            Some(chunk)
        })
    }
}

/// Scenes captured once through `EncodeSession::capture`.
pub(crate) struct Captured {
    /// Frame records of each scene (one per tile when tiled).
    pub records: Vec<Vec<CompressedFrame>>,
    /// The stream the captures wrote, scenes in order.
    pub stream: Stream,
}

/// A new encoder for `imager` on the `profile` wire.
pub(crate) fn encoder(imager: &CompressiveImager, profile: WireProfile) -> EncodeSession {
    EncodeSession::with_profile(imager.clone(), profile)
        .expect("benchmark imagers fit the stream header")
}

/// Captures `scenes` into one stream, before any timing starts.
pub(crate) fn capture_all(
    imager: &CompressiveImager,
    profile: WireProfile,
    scenes: &[ImageF64],
) -> Captured {
    let mut enc = encoder(imager, profile);
    let mut records = Vec::with_capacity(scenes.len());
    let mut cuts = Vec::with_capacity(scenes.len());
    for scene in scenes {
        records.push(
            enc.capture(scene)
                .expect("a session's own captures fit its stream"),
        );
        cuts.push(enc.wire_bits() / 8);
    }
    let stream = Stream {
        bytes: enc.into_bytes(),
        cuts,
        scenes: (0..scenes.len()).collect(),
    };
    Captured { records, stream }
}

/// A stream re-appending captured records in scene `order` with
/// `EncodeSession::push_frame` (which numbers them afresh on the
/// resilient wire).
pub(crate) fn assemble(
    imager: &CompressiveImager,
    profile: WireProfile,
    records: &[Vec<CompressedFrame>],
    order: &[usize],
) -> Stream {
    let mut enc = encoder(imager, profile);
    let mut cuts = Vec::with_capacity(order.len());
    for &scene in order {
        for record in &records[scene] {
            enc.push_frame(record)
                .expect("records match their own stream header");
        }
        cuts.push(enc.wire_bits() / 8);
    }
    Stream {
        bytes: enc.into_bytes(),
        cuts,
        scenes: order.to_vec(),
    }
}

/// Timings a decode loop collects, scaled to the nominal host speed
/// (see [`calib`]) unless named wall.
#[derive(Debug, Default)]
pub(crate) struct Timings {
    /// Duration of each frame's receive calls that emitted a frame.
    pub frame_ms: Vec<f64>,
    /// Time to first frame of each new session.
    pub ttff_ms: Vec<f64>,
    /// Time spent creating sessions and inside their calls.
    pub busy_s: f64,
    /// The same in wall time.
    pub wall_s: f64,
    /// Unscaled `frame_ms`, for the provenance line.
    pub frame_wall_ms: Vec<f64>,
    /// Gauge readings taken around the calls.
    pub gauge_ms: Vec<f64>,
    /// Frames emitted.
    pub frames: usize,
}

impl Timings {
    /// Adds another client's timings.
    pub fn absorb(&mut self, other: Timings) {
        self.frame_ms.extend(other.frame_ms);
        self.ttff_ms.extend(other.ttff_ms);
        self.busy_s += other.busy_s;
        self.wall_s += other.wall_s;
        self.frame_wall_ms.extend(other.frame_wall_ms);
        self.gauge_ms.extend(other.gauge_ms);
        self.frames += other.frames;
    }
}

/// The traced run's hook into a decode loop: it sees every receive after
/// the session returned, and decomposes it through public layer calls.
pub(crate) trait Replay {
    /// The receive of `chunk` ran from `start` to `end` and emitted `got`.
    fn replay(&mut self, chunk: &[u8], start: Instant, end: Instant, got: &[DecodedFrame]);
}

/// A decoded stream's frames and report, or the error that ended it.
pub(crate) type Decoded = Result<(Vec<DecodedFrame>, DecodeReport), CoreError>;

/// Decodes `stream` on the session `open` creates, as a
/// frame-synchronous receiver sees it: each frame's bytes in one
/// `push_bytes`, then `finish` to flush that frame's tile group if
/// records were lost (a no-op on compact streams). The two calls are
/// timed together as the frame's receive and booked in `timings`; time
/// to first frame counts from before the session was created. The host
/// is gauged on `cores` cores before the session is created and after
/// every receive, and each time is scaled by the readings around it.
/// With `replay`, every receive is handed to it afterwards.
pub(crate) fn decode_stream(
    open: impl FnOnce() -> DecodeSession,
    stream: &Stream,
    cores: usize,
    timings: &mut Timings,
    mut replay: Option<&mut dyn Replay>,
) -> Decoded {
    let mut gauged = calib::gauge(cores);
    timings.gauge_ms.push(gauged);
    let opened = Instant::now();
    let mut dec = open();
    let mut open_s = opened.elapsed().as_secs_f64();
    let mut frames: Vec<DecodedFrame> = Vec::new();
    for chunk in stream.chunks() {
        let call = Instant::now();
        let mut got = dec.push_bytes(chunk)?;
        got.extend(dec.finish()?);
        let end = Instant::now();
        let before = std::mem::replace(&mut gauged, calib::gauge(cores));
        timings.gauge_ms.push(gauged);
        let scaled = |wall: f64| calib::scale(wall, before, gauged);
        let wall_s = (end - call).as_secs_f64() + std::mem::take(&mut open_s);
        timings.wall_s += wall_s;
        timings.busy_s += scaled(wall_s);
        if !got.is_empty() {
            timings.frame_ms.push(scaled(ms(end - call)));
            timings.frame_wall_ms.push(ms(end - call));
            if frames.is_empty() {
                timings.ttff_ms.push(scaled(ms(end - opened)));
            }
            timings.frames += got.len();
        }
        if let Some(replay) = replay.as_deref_mut() {
            replay.replay(chunk, call, end, &got);
        }
        frames.extend(got);
    }
    Ok((frames, dec.report()))
}

/// Records and corruption a parser yields for one chunk.
#[derive(Debug, Default)]
pub(crate) struct Parsed {
    pub records: Vec<(u64, CompressedFrame)>,
    pub corrupt_events: usize,
    pub bytes_skipped: usize,
}

/// Feeds `chunk` to `parser` and drains every event it completes (a
/// parse error ends the drain; the session reports it too).
pub(crate) fn parse(parser: &mut StreamParser, chunk: &[u8]) -> Parsed {
    parser.push_bytes(chunk);
    let mut parsed = Parsed::default();
    while let Ok(Some(event)) = parser.next_event() {
        match event {
            StreamEvent::Frame { seq, frame } => parsed.records.push((seq, frame)),
            StreamEvent::Corrupt { bytes_skipped } => {
                parsed.corrupt_events += 1;
                parsed.bytes_skipped += bytes_skipped;
            }
        }
    }
    parsed
}

/// Whether two images hold the same pixels bit for bit.
pub(crate) fn bit_identical(a: &ImageF64, b: &ImageF64) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two decodes emitted the same frames bit for bit.
pub(crate) fn same_frames(a: &[DecodedFrame], b: &[DecodedFrame]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.index == y.index
                && x.is_key == y.is_key
                && x.erased_tiles == y.erased_tiles
                && bit_identical(x.reconstruction.code_image(), y.reconstruction.code_image())
        })
}

/// The correctness gate for one decoded stream: as many frames as
/// scenes, every pixel finite, every frame at or above the PSNR floor
/// against `truth` (the ideal codes of each captured scene). Returns the
/// frames that pass; each violation is added to `failures`.
pub(crate) fn gate(
    failures: &mut Vec<String>,
    label: &str,
    frames: &[DecodedFrame],
    stream: &Stream,
    truth: &[ImageF64],
    floor: f64,
    psnr_db: &mut Vec<f64>,
) -> usize {
    if frames.len() != stream.scenes.len() {
        failures.push(format!(
            "{label}: {} frames emitted for {} scenes",
            frames.len(),
            stream.scenes.len()
        ));
    }
    let mut passed = 0;
    for frame in frames {
        let Some(reference) = stream.scenes.get(frame.index).map(|&s| &truth[s]) else {
            failures.push(format!(
                "{label}: frame index {} is outside the stream",
                frame.index
            ));
            continue;
        };
        let image = frame.reconstruction.code_image();
        if !image.as_slice().iter().all(|v| v.is_finite()) {
            failures.push(format!(
                "{label}: frame {} has non-finite pixels",
                frame.index
            ));
            continue;
        }
        let db = psnr(reference, image, 255.0);
        psnr_db.push(db);
        if db < floor {
            failures.push(format!(
                "{label}: frame {} reaches {db:.2} dB, below the {floor} dB floor",
                frame.index
            ));
        } else {
            passed += 1;
        }
    }
    passed
}

/// Client threads of a workload: the parallelism of the 2-core
/// reference host.
pub(crate) const CLIENTS: usize = 2;

/// Runs `client(c)` for every client `c` on threads of its own, all at
/// once, and returns the results in client order.
///
/// The reference host runs a lone busy thread at an unsteady speed that
/// changes from one run to the next, and both of its cores at a steady
/// one, so the workloads take every timed sample while both cores work.
pub(crate) fn on_clients<R: Send>(client: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let client = &client;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    })
}

/// What an untraced run measures, per client until the clients'
/// results are merged. Times are scaled to the nominal host speed.
#[derive(Debug, Default)]
pub(crate) struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub capture_ms: Vec<f64>,
    /// Peak live heap of each pass (or round), in MiB.
    pub peak_heap_mib: Vec<f64>,
    /// Unscaled `setup_s` and `capture_ms`, for the provenance line.
    pub setup_wall_s: Vec<f64>,
    pub capture_wall_ms: Vec<f64>,
    pub timings: Timings,
    pub psnr_db: Vec<f64>,
    pub wire_bytes: usize,
    pub pixels: usize,
    pub attempted: usize,
    pub delivered: usize,
    /// Correctness violations, one line each.
    pub failures: Vec<String>,
}

impl EndToEnd {
    /// Times one cold start — a fresh `OperatorCache`, a configured
    /// session, `prewarm(first)` — into `setup_s`, gauged on `cores`
    /// cores, and returns the cache, now primed. The timed loops call
    /// this between decodes, so the set-up timings sample the whole run.
    pub fn cold_start(
        &mut self,
        first: &CompressedFrame,
        cores: usize,
        session: impl FnOnce(&Arc<OperatorCache>) -> DecodeSession,
    ) -> Arc<OperatorCache> {
        let before = calib::gauge(cores);
        let start = Instant::now();
        let cache = OperatorCache::shared();
        let mut dec = session(&cache);
        if let Err(e) = dec.prewarm(first) {
            self.failures.push(format!("set-up: {e}"));
        }
        let wall = start.elapsed().as_secs_f64();
        self.setup_s
            .push(calib::scale(wall, before, calib::gauge(cores)));
        self.setup_wall_s.push(wall);
        cache
    }

    /// Captures `scene` once more on `enc`, timing the
    /// `EncodeSession::capture` call (sensor simulation, CA, wire write)
    /// into `capture_ms`, gauged on the calling thread's core. Capture
    /// is deterministic, so the records must equal `expected`, the
    /// scene's first capture. The timed loops call this between decodes,
    /// so the capture timings sample the whole run.
    pub fn recapture(
        &mut self,
        enc: &mut EncodeSession,
        scene: &ImageF64,
        expected: &[CompressedFrame],
    ) {
        let before = calib::gauge(1);
        let start = Instant::now();
        let records = enc.capture(scene);
        let wall = ms(start.elapsed());
        self.capture_ms
            .push(calib::scale(wall, before, calib::gauge(1)));
        self.capture_wall_ms.push(wall);
        match records {
            Ok(records) if records == expected => {}
            Ok(_) => self
                .failures
                .push("a scene captured again gave other records".into()),
            Err(e) => self.failures.push(format!("capture: {e}")),
        }
    }

    /// Samples the most heap the process held at once since the
    /// previous sample (or [`heap::reset_peak`]), at the end of a pass.
    pub fn sample_heap(&mut self) {
        self.peak_heap_mib.push(heap::take_peak() as f64 / MIB);
    }

    /// Books one decoded stream: its scenes count as attempted, the
    /// frames that pass the gate as delivered.
    pub fn book(
        &mut self,
        label: &str,
        result: Result<Vec<DecodedFrame>, CoreError>,
        stream: &Stream,
        truth: &[ImageF64],
        floor: f64,
    ) {
        self.attempted += stream.scenes.len();
        self.wire_bytes += stream.bytes.len();
        self.pixels += stream.scenes.iter().map(|&s| truth[s].len()).sum::<usize>();
        match result {
            Ok(frames) => {
                self.delivered += gate(
                    &mut self.failures,
                    label,
                    &frames,
                    stream,
                    truth,
                    floor,
                    &mut self.psnr_db,
                );
            }
            Err(e) => self.failures.push(format!("{label}: {e}")),
        }
    }

    /// Adds another client's samples and counts.
    pub fn absorb(&mut self, other: EndToEnd) {
        self.setup_s.extend(other.setup_s);
        self.capture_ms.extend(other.capture_ms);
        self.peak_heap_mib.extend(other.peak_heap_mib);
        self.setup_wall_s.extend(other.setup_wall_s);
        self.capture_wall_ms.extend(other.capture_wall_ms);
        self.timings.absorb(other.timings);
        self.psnr_db.extend(other.psnr_db);
        self.wire_bytes += other.wire_bytes;
        self.pixels += other.pixels;
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.failures.extend(other.failures);
    }

    /// Moves the counts and violations into `out`.
    fn settle(&mut self, out: &mut Outcome) {
        out.attempted = self.attempted;
        out.failed = self.attempted.saturating_sub(self.delivered);
        for failure in self.failures.drain(..) {
            out.fail(failure);
        }
    }

    /// Writes the end-to-end metrics and the facts behind them. The
    /// frame rate counts every frame over the time `receivers` clients
    /// decoding side by side spent in their sessions.
    pub fn report(mut self, out: &mut Outcome, receivers: usize) {
        let decode_s = self.timings.busy_s / receivers as f64;
        let decode_wall_s = self.timings.wall_s / receivers as f64;
        self.settle(out);
        let frame_tail = stats::tail(&self.timings.frame_ms);
        let ttff_tail = stats::tail(&self.timings.ttff_ms);
        out.metric("setup_s", stats::median(&self.setup_s));
        out.metric("encode_fps", 1e3 / stats::median(&self.capture_ms));
        out.metric("decode_fps", self.timings.frames as f64 / decode_s);
        out.metric("frame_p50_ms", stats::median(&self.timings.frame_ms));
        out.metric("frame_tail_ms", frame_tail.value);
        out.metric("ttff_p50_ms", stats::median(&self.timings.ttff_ms));
        out.metric("ttff_tail_ms", ttff_tail.value);
        out.metric("psnr_db", stats::mean(&self.psnr_db));
        out.metric(
            "wire_bpp",
            8.0 * self.wire_bytes as f64 / self.pixels as f64,
        );
        out.metric(
            "delivered_frac",
            self.delivered as f64 / self.attempted as f64,
        );
        out.metric("peak_heap_mb", stats::median(&self.peak_heap_mib));
        out.fact("setup_reps", self.setup_s.len().to_string());
        out.fact("captures_timed", self.capture_ms.len().to_string());
        out.fact("frames", self.timings.frames.to_string());
        out.fact("frame_tail", tail_fact(&frame_tail));
        out.fact("ttff_tail", tail_fact(&ttff_tail));
        out.fact(
            "gauge_ms_p50",
            stats::median(&self.timings.gauge_ms).to_string(),
        );
        out.fact(
            "wall",
            format!(
                "{{\"setup_s\": {}, \"encode_fps\": {}, \"decode_fps\": {}, \"frame_p50_ms\": {}}}",
                stats::median(&self.setup_wall_s),
                1e3 / stats::median(&self.capture_wall_ms),
                self.timings.frames as f64 / decode_wall_s,
                stats::median(&self.timings.frame_wall_ms)
            ),
        );
    }
}

fn tail_fact(tail: &stats::Tail) -> String {
    format!(
        "{{\"pct\": {}, \"samples\": {}, \"beyond\": {}}}",
        tail.pct, tail.samples, tail.beyond
    )
}

/// A fresh `OperatorCache` primed, untimed, by a configured session's
/// `prewarm(first)`.
pub(crate) fn primed_cache(
    out: &mut Outcome,
    first: &CompressedFrame,
    session: impl FnOnce(&Arc<OperatorCache>) -> DecodeSession,
) -> Arc<OperatorCache> {
    let mut e2e = EndToEnd::default();
    let cache = e2e.cold_start(first, 1, session);
    for failure in e2e.failures {
        out.fail(failure);
    }
    cache
}

/// Counts the traced run gathers next to its spans.
#[derive(Debug, Default)]
pub(crate) struct LayerCounts {
    pub sensor_pulses: u64,
    pub stream_bytes: usize,
    pub stream_records: usize,
    pub corrupt_events: usize,
    pub bytes_skipped: usize,
    pub cache_builds: u64,
    pub cache_hits: u64,
    pub cache_keys: usize,
    pub cache_resident_bytes: usize,
    pub solves: usize,
    pub iterations: usize,
    pub converged: usize,
    pub tiles_erased: usize,
    pub frames_degraded: usize,
    pub frames_lost: usize,
    /// Frames the traced loop emitted.
    pub frames: usize,
    /// Threads the pool spawned during the traced loop.
    pub spawns: u64,
    /// Executors of a pool map.
    pub executors: usize,
    /// Frames and wall time of the untraced reference loop.
    pub untraced_frames: usize,
    pub untraced_wall_s: f64,
    /// Wall time of the traced loop, its replays included.
    pub traced_wall_s: f64,
    /// Replayed decodes that differ from the session's output.
    pub mismatches: usize,
}

impl LayerCounts {
    pub fn add_parsed(&mut self, chunk: &[u8], parsed: &Parsed) {
        self.stream_bytes += chunk.len();
        self.stream_records += parsed.records.len();
        self.corrupt_events += parsed.corrupt_events;
        self.bytes_skipped += parsed.bytes_skipped;
    }

    pub fn add_solve(&mut self, stats: &SolveStats) {
        self.solves += 1;
        self.iterations += stats.iterations;
        self.converged += usize::from(stats.converged);
    }

    pub fn add_report(&mut self, report: &DecodeReport) {
        self.tiles_erased += report.tiles_erased;
        self.frames_degraded += report.frames_degraded;
        self.frames_lost += report.frames_lost;
    }

    /// Adds a cache's counters; `keys` is the number of distinct
    /// operator keys it served.
    pub fn add_cache(&mut self, cache: &OperatorCache, keys: usize) {
        let stats = cache.stats();
        self.cache_builds += stats.misses;
        self.cache_hits += stats.hits;
        self.cache_keys += keys;
        self.cache_resident_bytes = self.cache_resident_bytes.max(stats.resident_bytes);
    }

    /// Adds the replay and report counts of another client.
    pub fn absorb(&mut self, other: &LayerCounts) {
        self.stream_bytes += other.stream_bytes;
        self.stream_records += other.stream_records;
        self.corrupt_events += other.corrupt_events;
        self.bytes_skipped += other.bytes_skipped;
        self.solves += other.solves;
        self.iterations += other.iterations;
        self.converged += other.converged;
        self.tiles_erased += other.tiles_erased;
        self.frames_degraded += other.frames_degraded;
        self.frames_lost += other.frames_lost;
        self.mismatches += other.mismatches;
    }
}

/// Decomposes the pushes of a compact (untiled) stream through the
/// public calls the session makes for them: parse, then
/// `Decoder::reconstruct_with` for every keyframe, checked bit for bit
/// against the session's frame. Delta frames have no public replay
/// path, so their solve stays in the push's self time. With
/// `cold_prime`, the first record of each stream also replays the cold
/// prime the session pays on a new seed: Φ rebuilt from the seed, then
/// the column view the solver reads.
pub(crate) struct CompactReplay {
    pub tracer: Tracer,
    pub counts: LayerCounts,
    params: RecoveryParams,
    cold_prime: bool,
    parser: StreamParser,
    cache: Option<Arc<OperatorCache>>,
    decoder: Option<Decoder>,
    workspace: SolverWorkspace,
    push: u64,
}

impl CompactReplay {
    pub fn new(tracer: Tracer, params: RecoveryParams, cold_prime: bool) -> CompactReplay {
        CompactReplay {
            tracer,
            counts: LayerCounts::default(),
            params,
            cold_prime,
            parser: StreamParser::new(),
            cache: None,
            decoder: None,
            workspace: SolverWorkspace::new(),
            push: 0,
        }
    }

    /// Starts a new stream, decoded through `cache`.
    pub fn restart(&mut self, cache: &Arc<OperatorCache>) {
        self.parser = StreamParser::new();
        self.cache = Some(Arc::clone(cache));
        self.decoder = None;
    }

    /// The stream's decoder, configured as the session's; with
    /// `cold_prime`, spans the Φ rebuild and the column view under `push`.
    fn prime(&mut self, id: u64, push: usize, record: &CompressedFrame) {
        let Ok(mut decoder) = Decoder::for_frame(record) else {
            self.counts.mismatches += 1;
            return;
        };
        decoder.params(self.params);
        if let Some(cache) = &self.cache {
            decoder.use_cache(Arc::clone(cache));
        }
        if self.cold_prime {
            let k = record.samples.len();
            let (phi, _) = self.tracer.time("cs.phi_build", id, Some(push), || {
                decoder.rebuild_measurement(k)
            });
            let Ok(phi) = phi else {
                self.counts.mismatches += 1;
                return;
            };
            let (rows, cols) = (
                usize::from(record.header.rows),
                usize::from(record.header.cols),
            );
            self.tracer.time("cs.column_view", id, Some(push), || {
                let dict = ZeroMeanDictionary::new(Dct2dDictionary::new(cols, rows), 0);
                black_box(ColumnMatrix::from_operator(&ComposedOperator::new(
                    &phi, &dict,
                )))
            });
        }
        self.decoder = Some(decoder);
    }
}

impl Replay for CompactReplay {
    fn replay(&mut self, chunk: &[u8], start: Instant, end: Instant, got: &[DecodedFrame]) {
        let id = self.push;
        self.push += 1;
        let push = self.tracer.record("session.push", id, None, start, end);
        let (parsed, _) = self.tracer.time("stream.parse", id, Some(push), || {
            parse(&mut self.parser, chunk)
        });
        self.counts.add_parsed(chunk, &parsed);
        for (frame, (_, record)) in got.iter().zip(&parsed.records) {
            if !frame.is_key {
                continue;
            }
            if self.decoder.is_none() {
                self.prime(id, push, record);
            }
            let Some(decoder) = &self.decoder else {
                continue;
            };
            let (solved, _) = self.tracer.time("recovery.solve", id, Some(push), || {
                decoder.reconstruct_with(record, &mut self.workspace)
            });
            match solved {
                Ok(recon) => {
                    self.counts.add_solve(recon.stats());
                    if !bit_identical(recon.code_image(), frame.reconstruction.code_image()) {
                        self.counts.mismatches += 1;
                    }
                }
                Err(_) => self.counts.mismatches += 1,
            }
        }
    }
}

/// Traces the capture side scene by scene: the sensor simulation
/// (`CompressiveImager::capture_tiles_with_stats`), a replay of the CA
/// patterns it drew for each record (`StrategyKind::build_source` and
/// one `next_pattern` per sample, recorded as children of the capture),
/// and the wire write (`EncodeSession::push_frame`).
pub(crate) fn trace_capture(
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
    imager: &CompressiveImager,
    profile: WireProfile,
    scenes: &[ImageF64],
) {
    let mut enc = encoder(imager, profile);
    let header = imager.frame_header();
    let pattern_len = usize::from(header.rows) + usize::from(header.cols);
    for (id, scene) in (0u64..).zip(scenes) {
        let ((records, events), capture) = tracer.time("sensor.capture", id, None, || {
            imager.capture_tiles_with_stats(scene)
        });
        counts.sensor_pulses += events.total_pulses;
        for record in &records {
            tracer.time("ca.replay", id, Some(capture), || {
                let mut source = header
                    .strategy
                    .build_source(pattern_len, header.seed)
                    .expect("the imager validated its strategy");
                for _ in 0..record.samples.len() {
                    black_box(source.next_pattern());
                }
            });
        }
        tracer.time("stream.write", id, None, || {
            for record in &records {
                enc.push_frame(record)
                    .expect("records match their own stream header");
            }
        });
    }
}

/// Traces the operator layer at the workload geometry: Φ rebuilt from
/// the seed (`Decoder::rebuild_measurement`), the power-iteration norm
/// estimate (`op::operator_norm_est`), the column view
/// (`ColumnMatrix::from_operator`), and single forward and adjoint
/// applications of the decoder's composed operator.
pub(crate) fn trace_cs(tracer: &mut Tracer, record: &CompressedFrame) {
    let decoder = Decoder::for_frame(record).expect("captured headers are valid");
    let k = record.samples.len();
    let (rows, cols) = (
        usize::from(record.header.rows),
        usize::from(record.header.cols),
    );
    let mut phi = None;
    for _ in 0..CS_REPS {
        phi = Some(
            tracer
                .time("cs.phi_build", 0, None, || decoder.rebuild_measurement(k))
                .0
                .expect("the captured strategy rebuilds"),
        );
    }
    let phi = phi.expect("at least one rebuild");
    let dict = ZeroMeanDictionary::new(Dct2dDictionary::new(cols, rows), 0);
    let a = ComposedOperator::new(&phi, &dict);
    for _ in 0..CS_REPS {
        tracer.time("cs.norm_est", 0, None, || {
            black_box(op::operator_norm_est(&a, 30, NORM_SEED))
        });
    }
    tracer.time("cs.column_view", 0, None, || {
        black_box(ColumnMatrix::from_operator(&a))
    });
    let x: Vec<f64> = (0..a.cols())
        .map(|i| (i * 37 % 101) as f64 / 101.0 - 0.5)
        .collect();
    let mut y = vec![0.0; a.rows()];
    let mut back = vec![0.0; a.cols()];
    for _ in 0..APPLY_REPS {
        tracer.time("cs.apply", 0, None, || a.apply(black_box(&x), &mut y));
        tracer.time("cs.adjoint", 0, None, || {
            a.apply_adjoint(black_box(&y), &mut back)
        });
    }
    black_box(&back);
}

/// Closes a traced run: the replay check, the gate's counts, and the
/// per-layer metrics.
pub(crate) fn finish_traced(
    out: &mut Outcome,
    tracer: &Tracer,
    counts: &LayerCounts,
    mut e2e: EndToEnd,
) {
    if counts.mismatches > 0 {
        out.fail(format!(
            "{} replayed decodes differ from the session's frames",
            counts.mismatches
        ));
    }
    e2e.settle(out);
    out.fact("traced_frames", counts.frames.to_string());
    out.fact("replayed_solves", counts.solves.to_string());
    report_layers(out, tracer, counts);
}

/// Writes the per-layer metrics of a traced run. Times are medians per
/// call unless noted; counts are totals over the traced loop.
fn report_layers(out: &mut Outcome, tracer: &Tracer, c: &LayerCounts) {
    let median = |name: &str| stats::median(&tracer.durations_ms(name));
    let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
    let self_ms: Vec<f64> = tracer
        .with_children_ms("sensor.capture")
        .iter()
        .map(|(span, children)| span - children)
        .collect();
    out.metric("sensor.capture_ms", stats::median(&self_ms));
    out.metric("sensor.pulses", c.sensor_pulses as f64);
    out.metric("ca.replay_ms", median("ca.replay"));
    out.metric("stream.write_ms", median("stream.write"));
    out.metric("stream.parse_ms", median("stream.parse"));
    out.metric("stream.bytes", c.stream_bytes as f64);
    out.metric("stream.records", c.stream_records as f64);
    out.metric("stream.corrupt_events", c.corrupt_events as f64);
    out.metric("stream.bytes_skipped", c.bytes_skipped as f64);
    out.metric("cache.builds", c.cache_builds as f64);
    out.metric("cache.hits", c.cache_hits as f64);
    out.metric(
        "cache.builds_per_key",
        per(c.cache_builds as f64, c.cache_keys),
    );
    out.metric("cache.resident_mb", c.cache_resident_bytes as f64 / MIB);
    out.metric("cs.phi_build_ms", median("cs.phi_build"));
    out.metric("cs.column_view_ms", median("cs.column_view"));
    out.metric("cs.norm_est_ms", median("cs.norm_est"));
    out.metric("cs.apply_us", 1e3 * median("cs.apply"));
    out.metric("cs.adjoint_us", 1e3 * median("cs.adjoint"));
    out.metric("recovery.solve_ms", median("recovery.solve"));
    out.metric("recovery.iterations", per(c.iterations as f64, c.solves));
    out.metric("recovery.converged_frac", per(c.converged as f64, c.solves));
    out.metric("imaging.stitch_ms", median("imaging.stitch"));
    let fill_ms = tracer
        .durations_ms("imaging.fill")
        .iter()
        .fold(0.0, |total, ms| total + ms);
    out.metric("imaging.fill_ms", per(fill_ms, c.frames));
    out.metric("imaging.tiles_erased", c.tiles_erased as f64);
    let pushes = tracer.with_children_ms("session.push");
    let push_ms: f64 = pushes.iter().map(|p| p.0).sum();
    let attributed_ms: f64 = pushes.iter().map(|p| p.1).sum();
    out.metric("session.push_ms", median("session.push"));
    out.metric(
        "session.self_ms",
        per(push_ms - attributed_ms, pushes.len()),
    );
    out.metric("session.frames_degraded", c.frames_degraded as f64);
    out.metric("session.frames_lost", c.frames_lost as f64);
    let maps = tracer.with_children_ms("pool.map");
    let map_ms: f64 = maps.iter().map(|m| m.0).sum();
    let busy_ms: f64 = maps.iter().map(|m| m.1).sum();
    out.metric("pool.map_ms", median("pool.map"));
    out.metric("pool.busy_ms", per(busy_ms, maps.len()));
    let idle = if map_ms > 0.0 {
        1.0 - busy_ms / (c.executors as f64 * map_ms)
    } else {
        0.0
    };
    out.metric("pool.idle_frac", idle);
    out.metric("pool.spawns", per(c.spawns as f64, c.frames));
    let attributed = if push_ms > 0.0 {
        attributed_ms / push_ms
    } else {
        0.0
    };
    out.metric("trace.attributed_frac", attributed);
    // 1 − traced ÷ untraced frame rate, each over its loop's wall time.
    let traced_fps = c.frames as f64 / c.traced_wall_s;
    let untraced_fps = c.untraced_frames as f64 / c.untraced_wall_s;
    let overhead = if traced_fps.is_finite() && untraced_fps.is_finite() && untraced_fps > 0.0 {
        1.0 - traced_fps / untraced_fps
    } else {
        0.0
    };
    out.metric("trace.overhead_frac", overhead);
}
