//! (infrastructure) Solver sweep: quality and solve time of every
//! [`SolverKind`] over seeded frames of four content classes.
//!
//! The recovery stack is solver-pluggable: every algorithm runs behind
//! the `Solver` trait, selectable per session. This experiment answers
//! *which solver for which content*: for natural-like crops and
//! Gaussian blobs at 16×16 and 32×32, R = 0.35, it decodes 12 seeded
//! frames per class (imager seed `0x501E + s`, scene seed `100 + s`)
//! with every [`SolverKind::shootout_set`] entry on a prewarmed
//! [`DecodeSession`], and reports per kind and class the mean and
//! minimum PSNR against the ideal codes, the mean iterations and the
//! median solve time.
//!
//! A kind is *dominated* on a class when another kind reads a mean PSNR
//! at most 0.25 dB lower and a median solve time no higher; a kind
//! dominated on every class is a candidate for deletion. The solve
//! times are wall-clock on the host that runs the sweep, so only their
//! order within one run means anything, and two kinds that do equal
//! work (FISTA with and without debias at the iteration cap, say) can
//! swap places between runs; end-to-end decode cost is measured by
//! `codecbench` (`BENCHMARK.json`).

use std::time::Instant;

use crate::report::{section, Table};
use tepics_core::prelude::*;

/// Seeded frames per content class.
const SEEDS: u64 = 12;

/// Timed warm decodes per frame and kind; the fastest counts.
const TIMED_REPS: usize = 3;

/// The PSNR slack of the dominance rule, in dB.
const SLACK_DB: f64 = 0.25;

/// Label a kind uniquely (the debiased and plain ℓ1 variants share a
/// solver name).
fn label(kind: &SolverKind) -> String {
    if kind.debias() {
        format!("{}+debias", kind.name())
    } else {
        kind.name().to_string()
    }
}

/// One kind's results on one class.
struct Summary {
    mean_db: f64,
    min_db: f64,
    mean_iters: f64,
    median_ms: f64,
}

/// `f`'s result and its wall-clock milliseconds: the workspace's one
/// clock read outside `codecbench`, for the sweep's host-dependent
/// solve-time column.
#[allow(clippy::disallowed_methods)]
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // tidy:allow(wall-clock: the sweep reports solve time, marked host-dependent)
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The median of `xs` (mean of the middle pair for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Decodes the class's seeded frames with every kind; one [`Summary`]
/// per kind, in `shootout_set` order.
fn sweep(side: usize, scene: &Scene, ratio: f64) -> (Vec<SolverKind>, Vec<Summary>) {
    let mut kinds = Vec::new();
    let mut runs: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = Vec::new();
    for s in 0..SEEDS {
        let imager = CompressiveImager::builder(side, side)
            .ratio(ratio)
            .seed(0x501E + s)
            .fidelity(Fidelity::Functional)
            .build()
            .expect("solvers imager");
        let image = scene.render(side, side, 100 + s);
        let frame = imager.capture(&image);
        let truth = imager.ideal_codes(&image).to_code_f64();
        kinds = SolverKind::shootout_set(frame.samples.len());
        runs.resize_with(kinds.len(), Default::default);
        for (kind, (db, iters, ms)) in kinds.iter().zip(&mut runs) {
            let mut session = DecodeSession::new();
            session.params(RecoveryParams {
                solver: *kind,
                ..RecoveryParams::default()
            });
            session.prewarm(&frame).expect("solver prewarm");
            // Warm decodes of one frame are bit-identical, so the fastest
            // of a few is the solve's cost with the least host noise.
            let (decoded, fastest) = (0..TIMED_REPS)
                .map(|_| timed(|| session.push_frame(&frame).expect("solver decode")))
                .reduce(|a, b| if b.1 < a.1 { b } else { a })
                .expect("at least one timed decode");
            ms.push(fastest);
            db.push(psnr(&truth, decoded.reconstruction.code_image(), 255.0));
            iters.push(decoded.reconstruction.stats().iterations as f64);
        }
    }
    let summaries = runs
        .into_iter()
        .map(|(db, iters, ms)| Summary {
            mean_db: db.iter().sum::<f64>() / db.len() as f64,
            min_db: db.iter().copied().fold(f64::INFINITY, f64::min),
            mean_iters: iters.iter().sum::<f64>() / iters.len() as f64,
            median_ms: median(ms),
        })
        .collect();
    (kinds, summaries)
}

/// The best-quality kind that dominates `summaries[i]`, if any.
fn dominator(summaries: &[Summary], i: usize) -> Option<usize> {
    let me = &summaries[i];
    (0..summaries.len())
        .filter(|&j| {
            j != i
                && summaries[j].mean_db >= me.mean_db - SLACK_DB
                && summaries[j].median_ms <= me.median_ms
        })
        .max_by(|&p, &q| summaries[p].mean_db.total_cmp(&summaries[q].mean_db))
}

/// Runs the sweep over the four content classes at R = 0.35.
pub fn run() -> String {
    let ratio = 0.35;
    let classes = [
        (16, "natural", Scene::natural_like()),
        (16, "blobs", Scene::gaussian_blobs(3)),
        (32, "natural", Scene::natural_like()),
        (32, "blobs", Scene::gaussian_blobs(3)),
    ];
    let mut out = String::from("# Solver sweep — every SolverKind over four content classes\n");
    let mut labels = Vec::new();
    let mut dominated_everywhere: Vec<bool> = Vec::new();
    for (side, content, scene) in &classes {
        let (kinds, summaries) = sweep(*side, scene, ratio);
        labels = kinds.iter().map(label).collect();
        dominated_everywhere.resize(kinds.len(), true);
        out.push_str(&section(&format!(
            "{side}×{side} {content}, R = {ratio}, {SEEDS} seeded frames"
        )));
        let mut t = Table::new(&[
            "solver",
            "mean PSNR (dB)",
            "min PSNR (dB)",
            "mean iters",
            "median solve ms (host-dependent)",
            "dominated by",
        ]);
        for (i, s) in summaries.iter().enumerate() {
            let by = dominator(&summaries, i);
            dominated_everywhere[i] &= by.is_some();
            t.row_owned(vec![
                labels[i].clone(),
                format!("{:.2}", s.mean_db),
                format!("{:.2}", s.min_db),
                format!("{:.1}", s.mean_iters),
                format!("{:.2}", s.median_ms),
                by.map_or_else(|| "—".to_string(), |j| labels[j].clone()),
            ]);
        }
        out.push_str(&t.render());
    }
    let dominated: Vec<&str> = labels
        .iter()
        .zip(&dominated_everywhere)
        .filter(|(_, &d)| d)
        .map(|(l, _)| l.as_str())
        .collect();
    out.push_str(&format!(
        "\ndominated on every class (another kind ≤ {SLACK_DB} dB lower in mean PSNR, \
         no slower in median solve time): {}\n",
        if dominated.is_empty() {
            "none".to_string()
        } else {
            dominated.join(", ")
        }
    ));
    out
}
