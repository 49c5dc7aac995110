//! Sect. I / III.A: does the CA-generated Φ behave like a proper CS
//! matrix? Coherence and empirical RIP constants for the XOR/CA
//! strategy against the cited alternatives (LFSR \[14\], Hadamard \[13\],
//! idealized sub-Gaussian Bernoulli).

use crate::report::{section, Table};
use tepics_core::pipeline::evaluate;
use tepics_core::prelude::*;
use tepics_cs::coherence::{mutual_coherence_sampled, rip_estimate};
use tepics_cs::dictionary::{Dct2dDictionary, ZeroMeanDictionary};
use tepics_cs::{ComposedOperator, XorMeasurement};

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::from("# Measurement-matrix quality — CA vs cited alternatives\n");
    let (m, n) = (16usize, 16usize);
    let k = 102; // R = 0.4 on 16×16

    let strategies: Vec<(&str, StrategyKind)> = vec![
        ("CA Rule 30", StrategyKind::default_for(m, n)),
        (
            "CA Rule 90",
            StrategyKind::CellularAutomaton {
                rule: 90,
                warmup: 64,
                steps_per_sample: 1,
            },
        ),
        ("LFSR-16", StrategyKind::Lfsr { width: 16 }),
        ("Hadamard", StrategyKind::Hadamard),
        ("Bernoulli", StrategyKind::Bernoulli),
    ];

    out.push_str(&section(&format!(
        "Operator quality at {m}×{n}, K = {k} (A = Φ ∘ DC-pinned DCT)"
    )));
    let mut t = Table::new(&[
        "strategy",
        "coherence (sampled)",
        "RIP δ̂ (k=8, mean)",
        "δ̂ (k=16, mean)",
        "singular supports",
    ]);
    for (name, strategy) in &strategies {
        let mut source = strategy.build_source(m + n, 0x3A7).unwrap();
        let phi = XorMeasurement::from_source(m, n, source.as_mut(), k);
        let dict = ZeroMeanDictionary::new(Dct2dDictionary::new(n, m), 0);
        let a = ComposedOperator::new(&phi, &dict);
        let coh = mutual_coherence_sampled(&a, 2_000, 0xC0);
        let rip8 = rip_estimate(&a, 8, 40, 0x41);
        let rip16 = rip_estimate(&a, 16, 40, 0x42);
        t.row_owned(vec![
            name.to_string(),
            format!("{coh:.3}"),
            format!("{:.3}", rip8.delta_stats.mean()),
            format!("{:.3}", rip16.delta_stats.mean()),
            format!("{:.0}%", rip16.singular_fraction * 100.0),
        ]);
    }
    out.push_str(&t.render());

    out.push_str(&section(
        "End-to-end reconstruction (32×32, R = 0.35, piecewise scene)",
    ));
    let scene = Scene::piecewise_smooth(5).render(32, 32, 21);
    let mut t = Table::new(&["strategy", "PSNR (dB)", "SSIM"]);
    // Each strategy is its own cache key: one cold build per row.
    let cache = OperatorCache::shared();
    for (name, strategy) in [
        ("CA Rule 30", StrategyKind::default_for(32, 32)),
        (
            "CA Rule 90",
            StrategyKind::CellularAutomaton {
                rule: 90,
                warmup: 128,
                steps_per_sample: 1,
            },
        ),
        ("LFSR-16", StrategyKind::Lfsr { width: 16 }),
        ("Hadamard", StrategyKind::Hadamard),
        ("Bernoulli", StrategyKind::Bernoulli),
    ] {
        let imager = CompressiveImager::builder(32, 32)
            .ratio(0.35)
            .seed(0x57A7)
            .strategy(strategy)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let report = evaluate(&cache, &imager, RecoveryParams::default(), &scene).unwrap();
        t.row_owned(vec![
            name.into(),
            format!("{:.1}", report.psnr_code_db),
            format!("{:.3}", report.ssim_code),
        ]);
    }
    out.push_str(&t.render());

    out.push_str(&section("Reading"));
    out.push_str(
        "The Rule-30 CA tracks the idealized Bernoulli ensemble on every\n\
         proxy (coherence, δ̂, end-to-end PSNR) while being generated by a\n\
         128-cell ring. Rule 90 collapses: additive rules are nilpotent on\n\
         power-of-two rings (the state dies to all-zeros), the concrete\n\
         failure mode behind the paper's insistence on class-III rules.\n\
         Hadamard rows are deterministic and orthogonal in isolation, but\n\
         their XOR-structured truncation correlates — visibly worse δ̂.\n\
         Note δ̂ for the XOR family is inflated relative to dense ensembles:\n\
         each row of Φ is rank-structured (outer XOR of row/column bits),\n\
         the price of a strategy that fits M+N driver lines.\n",
    );
    out
}
