//! Sensor non-idealities: why the prototype auto-zeroes its comparators
//! (Sect. IV: "In order to reduce the influence of the offset of the
//! comparator, an auto-zeroing scheme has been implemented").
//!
//! The experiment sweeps the three analog error sources the behavioral
//! model exposes — comparator offset (with and without auto-zero),
//! flip-time jitter, and photoresponse non-uniformity — and reports the
//! end-to-end reconstruction cost of each.
//!
//! All sixteen sweep points are independent capture→recover loops, so
//! they run as **one [`BatchRunner`] batch** fanned across worker
//! threads; per-point results are sliced back out of the (input-ordered,
//! thread-count-independent) report vector.

use std::sync::Arc;

use crate::report::{section, Table};
use tepics_core::batch::BatchRunner;
use tepics_core::params;
use tepics_core::pipeline::PipelineReport;
use tepics_core::prelude::*;
use tepics_core::CoreError;
use tepics_imaging::{psnr, ssim};

const SIDE: usize = 32;
const RATIO: f64 = 0.38;
const SEED: u64 = 0x0FF5E7;

/// One sweep point: the sensor configuration to evaluate.
struct Job {
    config: SensorConfig,
}

fn job(configure: impl FnOnce(&mut tepics_sensor::SensorConfigBuilder)) -> Job {
    let mut builder = SensorConfig::builder(SIDE, SIDE);
    configure(&mut builder);
    Job {
        config: builder.build().unwrap(),
    }
}

/// Runs one sweep point: capture with the noisy sensor, reconstruct,
/// grade against `truth` — the *noiseless* ideal codes, computed once
/// by the caller — so every analog error counts as reconstruction
/// error.
fn run_job(
    j: &Job,
    scene: &ImageF64,
    truth: &ImageF64,
    cache: &Arc<OperatorCache>,
) -> Result<PipelineReport, CoreError> {
    let imager = CompressiveImager::builder(SIDE, SIDE)
        .sensor_config(j.config.clone())
        .ratio(RATIO)
        .seed(SEED)
        .build()?;
    let mut enc = EncodeSession::new(imager)?;
    let (frames, event_stats) = enc.capture_with_stats(scene)?;
    let frame = &frames[0];
    // Analog noise knobs do not touch Φ: every sweep point shares
    // (geometry, strategy, seed, k), so the whole batch decodes through
    // one cached operator.
    let mut session = DecodeSession::with_cache(cache.clone());
    let recon = session.push_frame(frame)?.reconstruction;
    let code_max = ((1u32 << frame.header.code_bits) - 1) as f64;
    Ok(PipelineReport {
        ratio: frame.ratio(),
        psnr_code_db: psnr(truth, recon.code_image(), code_max),
        ssim_code: ssim(truth, recon.code_image(), code_max),
        wire_bits: enc.wire_bits(),
        raw_bits: params::raw_bits(
            frame.header.rows as u32,
            frame.header.cols as u32,
            frame.header.code_bits as u32,
        ),
        iterations: recon.stats().iterations,
        event_stats,
    })
}

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::from("# Sensor non-idealities — the case for auto-zeroing\n");
    let scene = Scene::gaussian_blobs(3).render(SIDE, SIDE, 40);

    // Assemble the full sweep up front, then fan it out as one batch.
    let offset_mv = [
        (0.0, "ideal comparators"),
        (2.0, "with auto-zero (residual)"),
        (8.0, "weak auto-zero"),
        (25.0, "no auto-zero (raw offset)"),
    ];
    let narrow_mv = [0.0, 2.0, 8.0, 25.0];
    let jitter_ns = [0.0, 5.0, 20.0, 80.0];
    let fpn_sigma = [0.0, 0.005, 0.02, 0.05];

    let mut jobs: Vec<Job> = Vec::new();
    for (mv, _) in offset_mv {
        jobs.push(job(|b| {
            b.offset_sigma_volts(mv * 1e-3);
        }));
    }
    for mv in narrow_mv {
        jobs.push(job(|b| {
            // Narrow swing: rescale currents so the code range is kept.
            b.v_ref(2.5)
                .i_dark(2.14e-9 / 5.0)
                .i_scale(42.9e-9 / 5.0)
                .offset_sigma_volts(mv * 1e-3);
        }));
    }
    for ns in jitter_ns {
        jobs.push(job(|b| {
            b.jitter_sigma(ns * 1e-9);
        }));
    }
    for sigma in fpn_sigma {
        jobs.push(job(|b| {
            b.fpn_gain_sigma(sigma);
        }));
    }

    // The noiseless truth is shared by every sweep point.
    let truth = CompressiveImager::builder(SIDE, SIDE)
        .ratio(RATIO)
        .seed(SEED)
        .build()
        .unwrap()
        .ideal_codes(&scene)
        .to_code_f64();
    let runner = BatchRunner::new();
    let cache = runner.cache().clone();
    let outcome = runner
        .run_jobs(jobs, move |j| run_job(&j, &scene, &truth, &cache))
        .expect("noise sweep pipeline");
    let db: Vec<f64> = outcome.reports.iter().map(|r| r.psnr_code_db).collect();
    // Slice the input-ordered results back into their sections.
    let (offset_db, rest) = db.split_at(offset_mv.len());
    let (narrow_db, rest) = rest.split_at(narrow_mv.len());
    let (jitter_db, fpn_db) = rest.split_at(jitter_ns.len());

    out.push_str(&section(
        "Comparator offset at the default 1.5 V integration swing",
    ));
    let mut t = Table::new(&["offset σ (mV)", "scenario", "PSNR (dB)"]);
    for ((mv, label), db) in offset_mv.iter().zip(offset_db) {
        t.row_owned(vec![
            format!("{mv:.0}"),
            (*label).into(),
            format!("{db:.1}"),
        ]);
    }
    out.push_str(&t.render());

    out.push_str(&section(
        "…and at a narrowed swing (V_ref = 2.5 V, ΔV = 0.3 V — the adaptive-exposure regime)",
    ));
    let mut t = Table::new(&["offset σ (mV)", "σ / ΔV", "PSNR (dB)"]);
    for (mv, db) in narrow_mv.iter().zip(narrow_db) {
        t.row_owned(vec![
            format!("{mv:.0}"),
            format!("{:.1}%", mv * 1e-3 / 0.3 * 100.0),
            format!("{db:.1}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nAt the generous default swing a raw 25 mV offset is only 1.7% of ΔV\n\
         and costs under 1 dB. The auto-zero capacitor earns its area when\n\
         the on-line V_ref adaptation of Sect. II.A *narrows* the swing for\n\
         low light: the same 25 mV is then 8.3% of ΔV and the fixed-pattern\n\
         error dominates — exactly the operating regime the prototype's\n\
         MiM auto-zero protects.\n",
    );

    out.push_str(&section("Temporal jitter on the flip time"));
    let mut t = Table::new(&["jitter σ (ns)", "σ in LSB (41.7 ns clock)", "PSNR (dB)"]);
    for (ns, db) in jitter_ns.iter().zip(jitter_db) {
        t.row_owned(vec![
            format!("{ns:.0}"),
            format!("{:.2}", ns / 41.7),
            format!("{db:.1}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nJitter is temporal and zero-mean: it averages across the K\n\
         measurements each pixel participates in, so the pipeline tolerates\n\
         sub-LSB jitter almost for free.\n",
    );

    out.push_str(&section("Photoresponse non-uniformity (gain FPN)"));
    let mut t = Table::new(&["gain σ", "PSNR (dB)"]);
    for (sigma, db) in fpn_sigma.iter().zip(fpn_db) {
        t.row_owned(vec![format!("{:.1}%", sigma * 100.0), format!("{db:.1}")]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nGain FPN enters multiplicatively before the reciprocal transfer;\n\
         like offset it is frozen per pixel and does not average out. The\n\
         behavioral model makes all three knobs orthogonal so silicon-\n\
         calibration studies can be rehearsed in simulation.\n",
    );
    out
}
