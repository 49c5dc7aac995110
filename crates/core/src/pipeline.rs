//! End-to-end evaluation: capture → wire → reconstruct → report.
//!
//! The experiment harness runs hundreds of these loops; this module
//! centralizes the bookkeeping so every experiment reports identical
//! quantities (code-domain PSNR/SSIM against the ideal code image,
//! bits-on-wire against the raw readout, event statistics).

use std::sync::Arc;

use crate::cache::OperatorCache;
use crate::error::CoreError;
use crate::imager::CompressiveImager;
use crate::params::raw_bits;
use crate::session::{DecodeSession, EncodeSession};
use crate::solver::RecoveryParams;
use tepics_imaging::{psnr, ssim, ImageF64};
use tepics_sensor::EventStats;

/// Quality and cost summary of one capture/reconstruct cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Compression ratio `K / (M·N)` actually used.
    pub ratio: f64,
    /// PSNR of the reconstructed code image vs the ideal codes (dB).
    pub psnr_code_db: f64,
    /// SSIM of the reconstruction in the code domain.
    pub ssim_code: f64,
    /// Bits on the wire: the whole one-capture `TEPS` stream (stream
    /// header, record prefixes and packed samples).
    pub wire_bits: usize,
    /// Bits of the raw (uncompressed) code readout.
    pub raw_bits: u64,
    /// Solver iterations used.
    pub iterations: usize,
    /// Event statistics from the capture.
    pub event_stats: EventStats,
}

impl PipelineReport {
    /// Wire saving vs raw readout (`1 −  wire/raw`; negative when
    /// compression loses).
    pub fn wire_saving(&self) -> f64 {
        1.0 - self.wire_bits as f64 / self.raw_bits as f64
    }
}

/// Captures `scene`, round-trips it through a `TEPS` stream, and
/// reconstructs it with `params`, decoding through `cache`: callers
/// evaluating many scenes with one imager (suites, batches) share one
/// cache, so the measurement operator, dictionary and FISTA step size
/// are built once. Warm results are bit-identical to cold ones.
///
/// The capture is transported through the session layer
/// ([`EncodeSession`] → [`DecodeSession::push_bytes`]), so every
/// evaluation also exercises the wire path end to end — including the
/// tiled path: a tiled imager captures one record per tile, and the
/// report scores the stitched full-frame reconstruction against the
/// full-frame ideal codes. `wire_bits` is the size of the stream that
/// was written and parsed ([`EncodeSession::wire_bits`]): one stream
/// header plus one record per tile. `ratio`/`raw_bits` are always
/// *full-frame* quantities.
///
/// # Errors
///
/// Propagates frame and recovery errors from the decoder.
///
/// # Panics
///
/// Panics if the scene size does not match the imager.
pub fn evaluate(
    cache: &Arc<OperatorCache>,
    imager: &CompressiveImager,
    params: RecoveryParams,
    scene: &ImageF64,
) -> Result<PipelineReport, CoreError> {
    // Always exercise the wire path: transmit and re-parse.
    let mut enc = EncodeSession::new(imager.clone())?;
    let (frames, event_stats) = enc.capture_with_stats(scene)?;
    let header = *enc.header();
    let mut session = DecodeSession::with_cache(cache.clone());
    session.params(params);
    let decoded = session.push_bytes(&enc.to_bytes())?;
    let recon = &decoded
        .last()
        .ok_or_else(|| CoreError::MalformedFrame("stream yielded no frame".into()))?
        .reconstruction;
    let truth = imager.ideal_codes(scene).to_code_f64();
    let code_max = (1u32 << header.code_bits) - 1;
    let geometry = imager.geometry();
    let samples: usize = frames.iter().map(|f| f.samples.len()).sum();
    Ok(PipelineReport {
        ratio: samples as f64 / geometry.pixels() as f64,
        psnr_code_db: psnr(&truth, recon.code_image(), code_max as f64),
        ssim_code: ssim(&truth, recon.code_image(), code_max as f64),
        wire_bits: enc.wire_bits(),
        raw_bits: raw_bits(
            geometry.height() as u32,
            geometry.width() as u32,
            header.code_bits as u32,
        ),
        iterations: recon.stats().iterations,
        event_stats,
    })
}

/// Progressive reconstruction: quality as the first `k` samples arrive.
///
/// Compressed samples are generated (and transmitted) sequentially, one
/// per 20 µs slot — a receiver can reconstruct *at any prefix* of the
/// stream. Returns `(k, psnr_db)` pairs for each checkpoint, a property
/// broadcast/telemetry links exploit: every extra received sample
/// monotonically (in expectation) sharpens the image.
///
/// # Errors
///
/// Propagates decoder errors; checkpoints larger than the frame are
/// clamped to the full sample count. Returns
/// [`CoreError::InvalidConfig`] for tiled imagers — a prefix of a tiled
/// stream truncates whole tiles, not samples, so the progressive curve
/// has no meaning there.
///
/// # Panics
///
/// Panics if the scene size does not match the imager or `checkpoints`
/// is empty.
pub fn progressive_psnr(
    imager: &CompressiveImager,
    scene: &ImageF64,
    checkpoints: &[usize],
) -> Result<Vec<(usize, f64)>, CoreError> {
    assert!(!checkpoints.is_empty(), "need at least one checkpoint");
    if imager.is_tiled() {
        return Err(CoreError::InvalidConfig(
            "progressive reconstruction is sample-prefix based; tiled captures have no \
             single sample stream"
                .into(),
        ));
    }
    let frame = imager.capture(scene);
    let truth = imager.ideal_codes(scene).to_code_f64();
    let code_max = ((1u32 << frame.header.code_bits) - 1) as f64;
    // One session decodes every prefix: the container allows per-frame
    // sample counts, and repeated checkpoints come back warm.
    let mut session = DecodeSession::new();
    let mut out = Vec::with_capacity(checkpoints.len());
    for &k in checkpoints {
        let k = k.clamp(1, frame.samples.len());
        let mut prefix = frame.clone();
        prefix.samples.truncate(k);
        let decoded = session.push_frame(&prefix)?;
        out.push((
            k,
            psnr(&truth, decoded.reconstruction.code_image(), code_max),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_imaging::Scene;
    use tepics_sensor::Fidelity;

    fn imager() -> CompressiveImager {
        CompressiveImager::builder(16, 16)
            .ratio(0.35)
            .seed(5)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap()
    }

    #[test]
    fn report_fields_are_consistent() {
        let im = imager();
        let scene = Scene::gaussian_blobs(2).render(16, 16, 9);
        let report = evaluate(
            &OperatorCache::shared(),
            &im,
            RecoveryParams::default(),
            &scene,
        )
        .unwrap();
        assert!((report.ratio - 90.0 / 256.0).abs() < 1e-9);
        assert!(report.psnr_code_db > 15.0);
        assert!(report.ssim_code > 0.3);
        assert_eq!(report.raw_bits, 256 * 8);
        assert!(report.wire_bits > 0);
        assert!(report.iterations > 0);
    }

    #[test]
    fn wire_saving_positive_below_breakeven() {
        // 16×16 sensor: sample_bits = 16, breakeven at R = 0.5; R = 0.35
        // must save wire bits even with header overhead.
        let im = imager();
        let scene = Scene::natural_like().render(16, 16, 2);
        let report = evaluate(
            &OperatorCache::shared(),
            &im,
            RecoveryParams::default(),
            &scene,
        )
        .unwrap();
        assert!(
            report.wire_saving() > 0.0,
            "saving {} should be positive at R=0.35",
            report.wire_saving()
        );
    }

    #[test]
    fn progressive_reconstruction_improves_with_samples() {
        let im = imager();
        let scene = Scene::gaussian_blobs(3).render(16, 16, 4);
        let curve = progressive_psnr(&im, &scene, &[10, 30, 60, 90]).unwrap();
        assert_eq!(curve.len(), 4);
        // The last checkpoint must beat the first by a clear margin; the
        // interior may wiggle slightly (λ is relative to each prefix).
        assert!(
            curve.last().unwrap().1 > curve[0].1 + 3.0,
            "no progressive gain: {curve:?}"
        );
    }

    #[test]
    fn tiled_imagers_evaluate_with_full_frame_accounting() {
        use tepics_imaging::tile::{FrameGeometry, TileConfig};
        let im = CompressiveImager::builder_for(FrameGeometry::new(40, 28))
            .tiling(TileConfig::new(16).overlap(4))
            .ratio(0.35)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let scene = Scene::gaussian_blobs(3).render(40, 28, 6);
        let report = evaluate(
            &OperatorCache::shared(),
            &im,
            RecoveryParams::default(),
            &scene,
        )
        .unwrap();
        // Full-frame raw accounting (40·28 px at 8-bit codes).
        assert_eq!(report.raw_bits, 40 * 28 * 8);
        // Six tiles at ⌈0.35·256⌉ samples each.
        assert!((report.ratio - (6.0 * 90.0) / 1120.0).abs() < 1e-9);
        assert!(report.psnr_code_db > 18.0, "{:.1} dB", report.psnr_code_db);
        assert!(report.wire_bits > 0);
        assert!(report.event_stats.total_pulses > 0);
        // Progressive curves are sample-prefix based and refuse tiling.
        assert!(matches!(
            progressive_psnr(&im, &scene, &[10, 20]),
            Err(CoreError::InvalidConfig(_))
        ));
    }
}
