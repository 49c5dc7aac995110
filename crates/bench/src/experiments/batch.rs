//! (infrastructure) The parallel batch capture engine: scaling and
//! determinism.
//!
//! The capture→wire→reconstruct loops of the experiment harness are
//! embarrassingly parallel — like the parallel acquisition architecture
//! of Björklund & Magli (arXiv:1311.0646), every compressed frame is an
//! independent unit of work. This experiment measures how
//! [`BatchRunner`] scales a batch of frames across worker threads and
//! double-checks the engine's headline guarantee: per-frame reports are
//! bit-identical at every thread count. A second section audits the
//! decode-side operator cache: reconstructing same-seed frames through
//! one `DecodeSession` (Φ, dictionary, and FISTA step built once) must
//! beat an equal number of cold `Decoder::for_frame` reconstructions —
//! and match them bit for bit.

use crate::report::{section, Table};
use tepics_core::batch::BatchRunner;
use tepics_core::prelude::*;
use tepics_util::parallel::default_threads;

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::from("# Batch capture engine — thread scaling & determinism\n");
    let side = 32;
    let frames = 24;
    let imager = CompressiveImager::builder(side, side)
        .ratio(0.3)
        .seed(0xBA7C)
        .fidelity(Fidelity::Functional)
        .build()
        .unwrap();
    let scenes: Vec<ImageF64> = (0..frames)
        .map(|i| Scene::gaussian_blobs(3).render(side, side, i))
        .collect();

    let hw = default_threads();
    let mut sweep: Vec<usize> = vec![1, 2, 4, hw];
    sweep.sort_unstable();
    sweep.dedup();

    out.push_str(&section(&format!(
        "{frames} frames of {side}×{side} at R = 0.30 ({hw} hardware threads)"
    )));
    let mut t = Table::new(&[
        "threads",
        "wall (s)",
        "frames/s",
        "speedup",
        "mean PSNR (dB)",
    ]);
    let mut baseline: Option<(f64, Vec<_>)> = None;
    let mut identical = true;
    for &threads in &sweep {
        let outcome = BatchRunner::with_threads(threads)
            .run(&imager, &scenes, RecoveryParams::default())
            .expect("batch pipeline");
        let summary = outcome.summary();
        let secs = outcome.elapsed.as_secs_f64();
        let speedup = match &baseline {
            Some((serial_secs, serial_reports)) => {
                identical &= *serial_reports == outcome.reports;
                serial_secs / secs
            }
            None => {
                baseline = Some((secs, outcome.reports.clone()));
                1.0
            }
        };
        t.row_owned(vec![
            threads.to_string(),
            format!("{secs:.2}"),
            format!("{:.1}", summary.frames_per_sec),
            format!("{speedup:.2}×"),
            format!("{:.1}", summary.mean_psnr_db),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nPer-frame reports bit-identical across thread counts: {}\n",
        if identical { "YES" } else { "NO (BUG)" }
    ));
    out.push_str(
        "\nEach frame owns its CA replay and solver state, so the only\n\
         shared resource is the memory bus — scaling is near-linear until\n\
         the solver's working set outgrows the last-level cache. The\n\
         determinism check is the load-bearing property: it is what lets\n\
         the noise/warm-up/ffvb sweeps keep their published numbers while\n\
         running on however many cores CI happens to have.\n",
    );
    out.push_str(&cache_section(&imager, &scenes));
    out
}

/// Operator-cache audit: decode the same same-seed frames cold (a fresh
/// `Decoder::for_frame` per frame, rebuilding Φ, the dictionary, and
/// the FISTA step size every time) and warm (one `DecodeSession`
/// holding an `OperatorCache`), on one thread. The reconstructions must
/// be bit-identical; the warm pass must be faster.
fn cache_section(imager: &CompressiveImager, scenes: &[ImageF64]) -> String {
    use std::time::Instant;

    let frames: Vec<CompressedFrame> = scenes.iter().take(6).map(|s| imager.capture(s)).collect();

    let cold_start = Instant::now();
    let cold: Vec<Reconstruction> = frames
        .iter()
        .map(|f| {
            Decoder::for_frame(f)
                .expect("well-formed frame")
                .reconstruct(f)
                .expect("cold reconstruct")
        })
        .collect();
    let cold_secs = cold_start.elapsed().as_secs_f64();

    let mut session = DecodeSession::new();
    let warm_start = Instant::now();
    let warm: Vec<Reconstruction> = frames
        .iter()
        .map(|f| {
            session
                .push_frame(f)
                .expect("warm reconstruct")
                .reconstruction
        })
        .collect();
    let warm_secs = warm_start.elapsed().as_secs_f64();

    let stats = session.cache().stats();
    let identical = cold == warm;
    let speedup = cold_secs / warm_secs;
    let mut out = section(&format!(
        "operator cache — {} same-seed frames, warm vs cold (1 thread)",
        frames.len()
    ));
    let mut t = Table::new(&["path", "wall (s)", "frames/s", "Φ builds"]);
    t.row_owned(vec![
        "cold (Decoder::for_frame per frame)".into(),
        format!("{cold_secs:.3}"),
        format!("{:.2}", frames.len() as f64 / cold_secs),
        format!("{}", frames.len()),
    ]);
    t.row_owned(vec![
        "warm (DecodeSession + OperatorCache)".into(),
        format!("{warm_secs:.3}"),
        format!("{:.2}", frames.len() as f64 / warm_secs),
        format!("{}", stats.misses),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\ncache hit rate: {:.0}% ({} hits / {} misses); speedup {speedup:.2}x\n\
         warm reconstructions bit-identical to cold: {}\n\
         warm faster than cold: {}\n",
        stats.hit_rate() * 100.0,
        stats.hits,
        stats.misses,
        if identical { "YES" } else { "NO (BUG)" },
        if speedup > 1.0 {
            "YES (PASS)"
        } else {
            "NO (REGRESSION)"
        },
    ));
    out.push_str(
        "\nThe cache removes the per-frame CA replay, selection-count and\n\
         dictionary builds, and — the dominant saving — the seeded power\n\
         iteration estimating the FISTA step 1/L (60 operator applications\n\
         per frame). Because every cached value is bit-identical to a cold\n\
         rebuild, the determinism guarantee above is unaffected.\n",
    );
    out
}
