//! Parallel batch capture→recover engine.
//!
//! The experiment harness and any service built on TEPICS run the same
//! loop hundreds of times: capture a scene, round-trip it through a
//! wire stream, reconstruct, grade. The loops are
//! embarrassingly parallel — each item owns its imager state and scene
//! — so [`BatchRunner`] fans them across the process-wide persistent
//! [`WorkerPool`], the executor decode sessions use too, and aggregates
//! the per-item [`PipelineReport`]s into batch statistics:
//! mean/percentile PSNR and total bits on the wire. A warm runner spawns
//! no thread: repeated batches reuse the pool's parked workers.
//!
//! Determinism: results are collected in input order and every per-item
//! computation is seeded, so a batch produces **bit-identical reports
//! for a fixed seed whether it runs on 1 thread or N**.
//!
//! # Examples
//!
//! ```
//! use tepics_core::batch::BatchRunner;
//! use tepics_core::prelude::*;
//!
//! let imager = CompressiveImager::builder(16, 16)
//!     .ratio(0.35)
//!     .seed(42)
//!     .fidelity(Fidelity::Functional)
//!     .build()
//!     .unwrap();
//! let scenes: Vec<ImageF64> = (0..4)
//!     .map(|i| Scene::gaussian_blobs(3).render(16, 16, i))
//!     .collect();
//! let outcome = BatchRunner::new()
//!     .run(&imager, &scenes, RecoveryParams::default())
//!     .unwrap();
//! let summary = outcome.summary();
//! assert_eq!(summary.frames, 4);
//! assert!(summary.mean_psnr_db > 10.0);
//! ```

use std::sync::Arc;

use crate::cache::OperatorCache;
use crate::error::CoreError;
use crate::imager::CompressiveImager;
use crate::pipeline::{evaluate, PipelineReport};
use crate::session::{DecodeReport, DecodeSession, DecodedFrame};
use crate::solver::RecoveryParams;
use tepics_imaging::ImageF64;
use tepics_util::parallel::default_threads;
use tepics_util::pool::WorkerPool;

/// Fans independent capture→wire→reconstruct jobs across the persistent
/// [`WorkerPool`] and aggregates their [`PipelineReport`]s.
///
/// Every runner owns a shared [`OperatorCache`]: items of a
/// [`BatchRunner::run`] batch share one imager (one seed), so the
/// measurement operator, dictionary, and FISTA step size are built by
/// the first item and served warm to the rest — across worker threads.
/// Warm results are bit-identical to cold ones, so the determinism
/// guarantee is unaffected.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    threads: usize,
    cache: Arc<OperatorCache>,
}

impl Default for BatchRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunner {
    /// A runner using all available hardware parallelism.
    #[must_use]
    pub fn new() -> Self {
        Self::with_threads(default_threads())
    }

    /// A runner pinned to `threads` workers (1 = serial, useful for
    /// profiling and for determinism tests).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        BatchRunner {
            threads: threads.max(1),
            cache: OperatorCache::shared(),
        }
    }

    /// The worker-thread count this runner will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The operator cache shared by this runner's decodes (inspect its
    /// [`stats`](OperatorCache::stats) for hit rates).
    #[must_use]
    pub fn cache(&self) -> &Arc<OperatorCache> {
        &self.cache
    }

    /// Runs the standard pipeline ([`evaluate`] through the runner's
    /// shared cache) over `scenes` with a shared imager, decoding every
    /// item with `params`. The per-solver cache entries (operator norms,
    /// Gram stores) are shared across items exactly like
    /// the operator itself, and results stay bit-identical at any thread
    /// count.
    ///
    /// The pool wants `'static` jobs, so the imager (an `Arc`-shared
    /// capture engine) and the scenes are cloned once up front.
    ///
    /// # Errors
    ///
    /// Returns the first per-item error in input order; all items are
    /// still executed (the batch does not short-circuit mid-flight).
    pub fn run(
        &self,
        imager: &CompressiveImager,
        scenes: &[ImageF64],
        params: RecoveryParams,
    ) -> Result<BatchOutcome, CoreError> {
        let cache = self.cache.clone();
        let imager = imager.clone();
        self.run_jobs(scenes.to_vec(), move |scene| {
            evaluate(&cache, &imager, params, &scene)
        })
    }

    /// Decodes many wire streams in parallel, one [`DecodeSession`] per
    /// stream, all sharing the runner's operator cache. Results are in
    /// input order and bit-identical at any thread count.
    ///
    /// Streams are scheduled on the process-wide persistent
    /// [`WorkerPool`], and each stream's
    /// session inherits the runner's thread count, so a batch of few
    /// (even one) tiled streams still parallelizes over its inner
    /// tiles. Oversubscription is impossible by construction: a stream
    /// already running *on* a pool worker decodes its tiles serially on
    /// that worker's warm workspace (the pool's nested-use guard)
    /// rather than fanning out again.
    ///
    /// Per-stream failures are **isolated**: a corrupt stream records
    /// its error (and whatever frames decoded before it) in its own
    /// [`StreamOutcome`] instead of aborting the batch, and the
    /// returned [`StreamBatchOutcome`] counts failed and degraded
    /// streams. Resilient (version-3) streams degrade through the
    /// default [`ErasurePolicy`](crate::session::ErasurePolicy) rather
    /// than failing.
    pub fn decode_streams(&self, streams: &[impl AsRef<[u8]> + Sync]) -> StreamBatchOutcome {
        // The pool's owned-item API wants 'static jobs, so each stream's
        // bytes are copied once up front — noise next to the decode.
        let owned: Vec<Vec<u8>> = streams.iter().map(|s| s.as_ref().to_vec()).collect();
        let cache = self.cache.clone();
        let threads = self.threads;
        let outcomes = WorkerPool::global().map(threads, owned, move |_, bytes, _| {
            let mut session = DecodeSession::with_cache(cache.clone());
            session.threads(threads);
            let mut frames = Vec::new();
            let mut error = None;
            match session.push_bytes(bytes.as_ref()) {
                Ok(mut out) => frames.append(&mut out),
                Err(e) => error = Some(e),
            }
            if error.is_none() {
                match session.finish() {
                    Ok(mut tail) => frames.append(&mut tail),
                    Err(e) => error = Some(e),
                }
            }
            // A mid-chunk error defers so its preceding frames
            // survive; pick it up for the outcome.
            if error.is_none() {
                error = session.error().cloned();
            }
            StreamOutcome {
                frames,
                report: session.report(),
                error,
            }
        });
        StreamBatchOutcome { outcomes }
    }

    /// Runs an arbitrary per-item pipeline over `jobs`.
    ///
    /// This is the generic entry point for sweeps where each item needs
    /// its own imager or sensor configuration (e.g. the noise and
    /// warm-up experiments): `f` receives one job and returns its
    /// [`PipelineReport`]. Jobs run on the persistent [`WorkerPool`]
    /// (the caller plus up to `threads − 1` workers), so they are owned
    /// and `f` holds owned or `Arc`-shared captures.
    ///
    /// # Errors
    ///
    /// Returns the first per-item error in input order; all items are
    /// still executed.
    pub fn run_jobs<T, F>(&self, jobs: Vec<T>, f: F) -> Result<BatchOutcome, CoreError>
    where
        T: Send + 'static,
        F: Fn(T) -> Result<PipelineReport, CoreError> + Send + Sync + 'static,
    {
        let reports = WorkerPool::global()
            .map(self.threads, jobs, move |_, job, _| f(job))
            .into_iter()
            .collect::<Result<_, _>>()?;
        Ok(BatchOutcome { reports })
    }
}

/// What one stream of a [`BatchRunner::decode_streams`] batch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Frames decoded before any failure, in stream order.
    pub frames: Vec<DecodedFrame>,
    /// The stream's session accounting (degradation counters).
    pub report: DecodeReport,
    /// The error that stopped this stream, if any (`None` = the stream
    /// decoded to completion, possibly degraded).
    pub error: Option<CoreError>,
}

impl StreamOutcome {
    /// Whether the stream failed outright (sticky parse or recovery
    /// error).
    #[must_use]
    pub fn is_failed(&self) -> bool {
        self.error.is_some()
    }

    /// Whether the stream completed but lost something on the way:
    /// corrupt stretches skipped, frames lost, or tiles erased.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.error.is_none()
            && (self.report.corrupt_events > 0
                || self.report.frames_lost > 0
                || self.report.frames_degraded > 0
                || self.report.stale_records > 0)
    }
}

/// The result of one [`BatchRunner::decode_streams`] batch: per-stream
/// outcomes in input order (independent of thread count), with failure
/// and degradation tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBatchOutcome {
    /// Per-stream outcomes, in input order.
    pub outcomes: Vec<StreamOutcome>,
}

impl StreamBatchOutcome {
    /// Streams that errored out (their partial frames are still in
    /// their outcome).
    #[must_use]
    pub fn failed_streams(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_failed()).count()
    }

    /// Streams that completed with degradation (corruption skipped,
    /// frames lost, or tiles erased).
    #[must_use]
    pub fn degraded_streams(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_degraded()).count()
    }

    /// Streams that decoded completely clean.
    #[must_use]
    pub fn clean_streams(&self) -> usize {
        self.outcomes.len() - self.failed_streams() - self.degraded_streams()
    }

    /// Total frames decoded across every stream (including the partial
    /// prefixes of failed streams).
    #[must_use]
    pub fn total_frames(&self) -> usize {
        self.outcomes.iter().map(|o| o.frames.len()).sum()
    }

    /// Per-stream decoded frames in input order — the pre-isolation
    /// shape, for callers that only need the frames. Failed streams
    /// contribute their partial prefix.
    #[must_use]
    pub fn frames(&self) -> Vec<&[DecodedFrame]> {
        self.outcomes.iter().map(|o| o.frames.as_slice()).collect()
    }
}

/// The result of one batch run: per-item reports in input order.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-item pipeline reports, in input order (independent of thread
    /// count and scheduling).
    pub reports: Vec<PipelineReport>,
}

impl BatchOutcome {
    /// Aggregates the per-item reports into batch statistics.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty — an empty batch has no meaningful
    /// percentiles.
    #[must_use]
    pub fn summary(&self) -> BatchSummary {
        assert!(!self.reports.is_empty(), "cannot summarize an empty batch");
        let n = self.reports.len();
        let mut psnrs: Vec<f64> = self.reports.iter().map(|r| r.psnr_code_db).collect();
        psnrs.sort_by(f64::total_cmp);
        let mean_psnr_db = self.reports.iter().map(|r| r.psnr_code_db).sum::<f64>() / n as f64;
        let mean_ssim = self.reports.iter().map(|r| r.ssim_code).sum::<f64>() / n as f64;
        let total_wire_bits: u64 = self.reports.iter().map(|r| r.wire_bits as u64).sum();
        let total_raw_bits: u64 = self.reports.iter().map(|r| r.raw_bits).sum();
        let total_iterations: u64 = self.reports.iter().map(|r| r.iterations as u64).sum();
        BatchSummary {
            frames: n,
            mean_psnr_db,
            min_psnr_db: psnrs[0],
            p50_psnr_db: percentile(&psnrs, 0.50),
            p90_psnr_db: percentile(&psnrs, 0.90),
            max_psnr_db: psnrs[n - 1],
            mean_ssim,
            total_wire_bits,
            total_raw_bits,
            total_iterations,
        }
    }
}

/// Aggregate statistics over one batch of pipeline runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Number of frames in the batch.
    pub frames: usize,
    /// Mean code-domain PSNR (dB).
    pub mean_psnr_db: f64,
    /// Worst frame PSNR (dB).
    pub min_psnr_db: f64,
    /// Median frame PSNR (dB).
    pub p50_psnr_db: f64,
    /// 90th-percentile frame PSNR (dB).
    pub p90_psnr_db: f64,
    /// Best frame PSNR (dB).
    pub max_psnr_db: f64,
    /// Mean code-domain SSIM.
    pub mean_ssim: f64,
    /// Total bits on the wire across the batch.
    pub total_wire_bits: u64,
    /// Total raw-readout bits the batch replaces.
    pub total_raw_bits: u64,
    /// Total solver iterations across the batch.
    pub total_iterations: u64,
}

impl BatchSummary {
    /// Wire saving vs raw readout across the batch
    /// (`1 − wire/raw`; negative when compression loses).
    #[must_use]
    pub fn wire_saving(&self) -> f64 {
        1.0 - self.total_wire_bits as f64 / self.total_raw_bits as f64
    }
}

/// Nearest-rank percentile (deterministic, no interpolation):
/// `q` in `[0, 1]` over an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_imaging::Scene;
    use tepics_sensor::{EventStats, Fidelity};

    fn imager(side: usize) -> CompressiveImager {
        CompressiveImager::builder(side, side)
            .ratio(0.35)
            .seed(42)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap()
    }

    fn scenes(side: usize, count: u64) -> Vec<ImageF64> {
        (0..count)
            .map(|i| Scene::gaussian_blobs(3).render(side, side, i))
            .collect()
    }

    /// The headline guarantee: per-item reports are bit-identical for a
    /// fixed seed whether the batch runs on 1 thread or many.
    #[test]
    fn reports_identical_across_thread_counts() {
        let im = imager(16);
        let batch = scenes(16, 6);
        let serial = BatchRunner::with_threads(1)
            .run(&im, &batch, RecoveryParams::default())
            .unwrap();
        for threads in [2, 4, 19] {
            let parallel = BatchRunner::with_threads(threads)
                .run(&im, &batch, RecoveryParams::default())
                .unwrap();
            assert_eq!(
                serial.reports, parallel.reports,
                "thread count {threads} changed batch results"
            );
        }
    }

    /// The same guarantee for tiled imagers: a batch of tiled
    /// capture→stitch evaluations is bit-identical at any thread count
    /// (items in parallel, tiles stitched deterministically inside
    /// each).
    #[test]
    fn tiled_reports_identical_across_thread_counts() {
        use tepics_imaging::tile::{FrameGeometry, TileConfig};
        let im = CompressiveImager::builder_for(FrameGeometry::new(40, 28))
            .tiling(TileConfig::new(16).overlap(4))
            .ratio(0.35)
            .seed(42)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let batch: Vec<ImageF64> = (0..4)
            .map(|i| Scene::gaussian_blobs(3).render(40, 28, i))
            .collect();
        let serial = BatchRunner::with_threads(1)
            .run(&im, &batch, RecoveryParams::default())
            .unwrap();
        for threads in [2, 4] {
            let parallel = BatchRunner::with_threads(threads)
                .run(&im, &batch, RecoveryParams::default())
                .unwrap();
            assert_eq!(
                serial.reports, parallel.reports,
                "thread count {threads} changed tiled batch results"
            );
        }
    }

    /// The PR-1 determinism guarantee extended from single frames to
    /// streams: decoding a batch of multi-frame wire streams through
    /// [`BatchRunner::decode_streams`] (shared operator cache, parallel
    /// sessions) is bit-identical at any thread count.
    #[test]
    fn stream_decodes_identical_across_thread_counts() {
        use crate::session::EncodeSession;
        let im = imager(16);
        let streams: Vec<Vec<u8>> = (0..4)
            .map(|s| {
                let mut enc = EncodeSession::new(im.clone()).unwrap();
                for i in 0..3 {
                    enc.capture(&Scene::gaussian_blobs(3).render(16, 16, s * 10 + i))
                        .unwrap();
                }
                enc.into_bytes()
            })
            .collect();
        let serial = BatchRunner::with_threads(1).decode_streams(&streams);
        assert_eq!(serial.outcomes.len(), 4);
        assert!(serial.outcomes.iter().all(|o| o.frames.len() == 3));
        assert_eq!(serial.failed_streams(), 0);
        assert_eq!(serial.degraded_streams(), 0);
        assert_eq!(serial.clean_streams(), 4);
        for threads in [2, 4, 19] {
            let parallel = BatchRunner::with_threads(threads).decode_streams(&streams);
            assert_eq!(
                serial, parallel,
                "thread count {threads} changed stream decodes"
            );
        }
    }

    /// One corrupt stream no longer aborts the batch: its outcome
    /// records the error (and the frames decoded before it), the other
    /// streams decode normally, and the tallies see exactly one
    /// failure.
    #[test]
    fn corrupt_stream_is_isolated_from_the_batch() {
        use crate::session::EncodeSession;
        let im = imager(16);
        let mut streams: Vec<Vec<u8>> = (0..3)
            .map(|s| {
                let mut enc = EncodeSession::new(im.clone()).unwrap();
                for i in 0..2 {
                    enc.capture(&Scene::gaussian_blobs(2).render(16, 16, s * 5 + i))
                        .unwrap();
                }
                enc.into_bytes()
            })
            .collect();
        // Poison stream 1 after its first record: frame 0 decodes, the
        // second record's marker is destroyed.
        let record_start = crate::stream::STREAM_HEADER_BYTES;
        let sample_bits = streams[1][10] as usize;
        let count = u32::from_le_bytes(
            streams[1][record_start + 1..record_start + 5]
                .try_into()
                .unwrap(),
        ) as usize;
        let second = record_start + 5 + (count * sample_bits).div_ceil(8);
        streams[1][second] ^= 0xFF;

        let outcome = BatchRunner::with_threads(2).decode_streams(&streams);
        assert_eq!(outcome.failed_streams(), 1);
        assert_eq!(outcome.clean_streams(), 2);
        assert!(outcome.outcomes[1].is_failed());
        assert_eq!(
            outcome.outcomes[1].frames.len(),
            1,
            "frames before the corruption survive"
        );
        assert_eq!(outcome.outcomes[0].frames.len(), 2);
        assert_eq!(outcome.outcomes[2].frames.len(), 2);
        assert_eq!(outcome.total_frames(), 5);
        // Isolation preserves thread-count determinism too.
        let serial = BatchRunner::with_threads(1).decode_streams(&streams);
        assert_eq!(serial, outcome);
    }

    /// All streams of a batch share one seed, so the runner's cache
    /// builds the operator once and serves every other frame warm.
    #[test]
    fn decode_streams_shares_the_operator_cache() {
        use crate::session::EncodeSession;
        let im = imager(16);
        let streams: Vec<Vec<u8>> = (0..3)
            .map(|s| {
                let mut enc = EncodeSession::new(im.clone()).unwrap();
                enc.capture(&Scene::gaussian_blobs(2).render(16, 16, s))
                    .unwrap();
                enc.into_bytes()
            })
            .collect();
        let runner = BatchRunner::with_threads(1);
        let outcome = runner.decode_streams(&streams);
        assert_eq!(outcome.failed_streams(), 0);
        let stats = runner.cache().stats();
        assert_eq!(stats.misses, 1, "one cold operator build for the batch");
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn summary_aggregation_math() {
        // Hand-built reports with known statistics; summary() must
        // reproduce them exactly.
        let report = |psnr: f64, wire: usize, iters: usize| PipelineReport {
            ratio: 0.35,
            psnr_code_db: psnr,
            ssim_code: 0.5,
            wire_bits: wire,
            raw_bits: 2048,
            iterations: iters,
            event_stats: EventStats::default(),
        };
        let outcome = BatchOutcome {
            reports: vec![
                report(10.0, 100, 3),
                report(30.0, 200, 5),
                report(20.0, 300, 7),
            ],
        };
        let s = outcome.summary();
        assert_eq!(s.frames, 3);
        assert!((s.mean_psnr_db - 20.0).abs() < 1e-12);
        assert_eq!(s.min_psnr_db, 10.0);
        assert_eq!(s.p50_psnr_db, 20.0);
        assert_eq!(s.p90_psnr_db, 30.0);
        assert_eq!(s.max_psnr_db, 30.0);
        assert!((s.mean_ssim - 0.5).abs() < 1e-12);
        assert_eq!(s.total_wire_bits, 600);
        assert_eq!(s.total_raw_bits, 3 * 2048);
        assert_eq!(s.total_iterations, 15);
        assert!((s.wire_saving() - (1.0 - 600.0 / 6144.0)).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0); // round(0.5 * 3) = 2
        assert_eq!(percentile(&v, 0.9), 4.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[5.0], 0.5), 5.0);
    }

    #[test]
    fn run_jobs_supports_per_item_configs() {
        // Each job builds its own imager (different seeds); the batch
        // must preserve job order in its reports.
        let scene = Scene::gaussian_blobs(2).render(16, 16, 9);
        let seeds = vec![1u64, 2, 3, 4];
        let job = move |seed| {
            let im = CompressiveImager::builder(16, 16)
                .ratio(0.3)
                .seed(seed)
                .fidelity(Fidelity::Functional)
                .build()
                .unwrap();
            evaluate(
                &OperatorCache::shared(),
                &im,
                RecoveryParams::default(),
                &scene,
            )
        };
        let outcome = BatchRunner::with_threads(4)
            .run_jobs(seeds.clone(), job.clone())
            .unwrap();
        assert_eq!(outcome.reports.len(), seeds.len());
        // Different seeds select different pixels; reports must differ,
        // proving order wasn't scrambled into duplicates.
        let mut distinct = outcome
            .reports
            .iter()
            .map(|r| r.psnr_code_db.to_bits())
            .collect::<Vec<_>>();
        distinct.dedup();
        assert_eq!(distinct.len(), seeds.len());
        // And re-running yields the identical sequence.
        let again = BatchRunner::with_threads(2).run_jobs(seeds, job).unwrap();
        assert_eq!(outcome.reports, again.reports);
    }

    #[test]
    fn errors_surface_but_do_not_poison_order() {
        // Items after a failing one still run; the first error (in
        // input order) is the one returned.
        let jobs = vec![1usize, 0, 2];
        let err = BatchRunner::with_threads(3)
            .run_jobs(jobs, |j| {
                if j == 0 {
                    Err(CoreError::MalformedFrame(format!("job {j} failed")))
                } else {
                    Ok(PipelineReport {
                        ratio: 0.3,
                        psnr_code_db: j as f64,
                        ssim_code: 0.1,
                        wire_bits: 1,
                        raw_bits: 1,
                        iterations: 1,
                        event_stats: EventStats::default(),
                    })
                }
            })
            .unwrap_err();
        assert_eq!(err, CoreError::MalformedFrame("job 0 failed".into()));
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_summary_panics() {
        let outcome = BatchOutcome { reports: vec![] };
        let _ = outcome.summary();
    }
}
