//! (infrastructure) Solver shootout: reconstruction quality of every
//! [`SolverKind`] at fixed R.
//!
//! The recovery stack is solver-pluggable: all eight algorithms run
//! behind the `Solver` trait, selectable per session. This experiment
//! answers the quality half of *which solver for which budget*: it
//! decodes one frame with every kind at a fixed compression ratio and
//! reports PSNR against the ideal codes and the iterations each solver
//! ran. Decode cost is measured end to end by `codecbench`
//! (`BENCHMARK.json`).

use crate::report::{section, Table};
use tepics_core::prelude::*;

/// Label a kind uniquely (the debiased and plain ℓ1 variants share a
/// solver name).
fn label(kind: &SolverKind) -> String {
    if kind.debias() {
        format!("{}+debias", kind.name())
    } else {
        kind.name().to_string()
    }
}

/// Runs the experiment: the shootout at 32×32, R = 0.35.
pub fn run() -> String {
    let side = 32;
    let ratio = 0.35;
    let imager = CompressiveImager::builder(side, side)
        .ratio(ratio)
        .seed(0x501E)
        .fidelity(Fidelity::Functional)
        .build()
        .expect("solvers imager");
    let scene = Scene::gaussian_blobs(3).render(side, side, 11);
    let frame = imager.capture(&scene);
    let k = frame.samples.len();
    let truth = imager.ideal_codes(&scene).to_code_f64();

    let mut out = String::from("# Solver shootout — every SolverKind at fixed R\n");
    out.push_str(&section(&format!(
        "{side}×{side}, R = {ratio} (K = {k} measurements), one gaussian-blobs frame"
    )));
    let mut t = Table::new(&["solver", "PSNR (dB)", "iters"]);
    for kind in SolverKind::shootout_set(k) {
        let mut session = DecodeSession::new();
        session.params(RecoveryParams {
            solver: kind,
            ..RecoveryParams::default()
        });
        let decoded = session.push_frame(&frame).expect("solver decode");
        t.row_owned(vec![
            label(&kind),
            format!(
                "{:.1}",
                psnr(&truth, decoded.reconstruction.code_image(), 255.0)
            ),
            decoded.reconstruction.stats().iterations.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}
