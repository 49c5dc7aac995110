//! Randomized property tests spanning the workspace.
//!
//! Each property encodes a system invariant the pipeline depends on:
//! CA stepping equivalence, arbiter serialization, transform
//! orthonormality, wire-format losslessness, XOR-measurement counting.
//!
//! The cases are driven by the workspace's own deterministic
//! [`SplitMix64`] generator rather than an external property-testing
//! crate: the build environment has no registry access, and seeded
//! sampling keeps failures reproducible by construction (the failing
//! case index is part of the assertion message).

use tepics::ca::{Automaton1D, Boundary, ElementaryRule};
use tepics::core::{CompressedFrame, FrameHeader, StrategyKind};
use tepics::cs::measurement::SelectionMeasurement;
use tepics::cs::XorMeasurement;
use tepics::imaging::{Dct2d, Haar2d};
use tepics::sensor::ColumnArbiter;
use tepics::util::{BitVec, SplitMix64};

const CASES: usize = 64;

/// The per-cell reference step: the next generation of `state` under
/// `rule` and `boundary`, computed one cell at a time.
fn step_reference(state: &BitVec, rule: ElementaryRule, boundary: Boundary) -> BitVec {
    let len = state.len();
    let get = |i: isize| -> bool {
        if i < 0 || i as usize >= len {
            match boundary {
                Boundary::Periodic => state.get(((i + len as isize) as usize) % len),
                Boundary::Fixed(v) => v,
            }
        } else {
            state.get(i as usize)
        }
    };
    BitVec::from_bools((0..len).map(|i| {
        let i = i as isize;
        rule.next(get(i - 1), get(i), get(i + 1))
    }))
}

/// Word-parallel CA stepping equals the per-cell reference for any
/// rule, size, boundary and seed.
#[test]
fn ca_word_parallel_matches_reference() {
    let mut rng = SplitMix64::new(0xCA5E);
    for case in 0..CASES {
        let rule = rng.next_below(256) as u8;
        let cells = 1 + rng.next_below(199) as usize;
        let seed = rng.next_u64();
        let periodic = rng.next_bool();
        let steps = 1 + rng.next_below(15) as usize;
        let boundary = if periodic {
            Boundary::Periodic
        } else {
            Boundary::Fixed(false)
        };
        let mut fast = Automaton1D::from_seed(cells, seed, ElementaryRule::new(rule), boundary);
        let mut slow = fast.state().clone();
        for _ in 0..steps {
            fast.step();
            slow = step_reference(&slow, fast.rule(), fast.boundary());
        }
        assert_eq!(
            fast.state(),
            &slow,
            "case {case}: rule {rule}, {cells} cells, seed {seed:#x}, \
             periodic={periodic}, {steps} steps"
        );
    }
}

/// The column arbiter never drops a pulse, never overlaps two events,
/// never grants before the flip, and releases top-down.
#[test]
fn arbiter_invariants() {
    let mut rng = SplitMix64::new(0xA5B1);
    for case in 0..CASES {
        let rows = 1 + rng.next_below(63) as usize;
        let pulses: Vec<(usize, f64)> =
            (0..rows).map(|row| (row, rng.next_f64() * 20e-6)).collect();
        let duration_ns = 1.0 + rng.next_f64() * 199.0;
        let arbiter = ColumnArbiter::with_timing(duration_ns * 1e-9, 1e-9);
        let outcome = arbiter.arbitrate(&pulses);
        // No pulse dropped.
        assert_eq!(
            outcome.events.len(),
            pulses.len(),
            "case {case}: pulse dropped"
        );
        let mut event_rows: Vec<usize> = outcome.events.iter().map(|e| e.row).collect();
        event_rows.sort_unstable();
        assert_eq!(
            event_rows,
            (0..pulses.len()).collect::<Vec<_>>(),
            "case {case}"
        );
        // Serialized and causal.
        let mut sorted = outcome.events.clone();
        sorted.sort_by(|a, b| a.t_grant.partial_cmp(&b.t_grant).unwrap());
        for pair in sorted.windows(2) {
            assert!(
                pair[1].t_grant >= pair[0].t_grant + duration_ns * 1e-9 - 1e-15,
                "case {case}: events overlap"
            );
        }
        for e in &outcome.events {
            assert!(
                e.t_grant >= e.t_flip - 1e-15,
                "case {case}: grant before flip"
            );
        }
    }
}

/// DCT and Haar are exact inverses on arbitrary data.
#[test]
fn transforms_reconstruct_perfectly() {
    let mut rng = SplitMix64::new(0xD0C7);
    for case in 0..CASES {
        let data: Vec<f64> = (0..64).map(|_| rng.next_f64() * 20.0 - 10.0).collect();
        let dct = Dct2d::new(8, 8);
        let back = dct.inverse(&dct.forward(&data));
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "case {case}: DCT not inverse");
        }
        let haar = Haar2d::new(8, 8, 3);
        let back = haar.inverse(&haar.forward(&data));
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9, "case {case}: Haar not inverse");
        }
    }
}

/// The wire format is lossless for arbitrary sample payloads: a
/// one-record stream of each random frame parses back to that frame,
/// on both wire profiles.
#[test]
fn wire_format_roundtrips() {
    use tepics::core::stream::{StreamParser, StreamWriter};
    use tepics::core::WireProfile;
    let mut rng = SplitMix64::new(0x3133);
    for case in 0..CASES {
        let count = 1 + rng.next_below(199) as usize;
        let samples: Vec<u32> = (0..count).map(|_| rng.next_below(1 << 20) as u32).collect();
        let seed = rng.next_u64();
        let frame = CompressedFrame {
            header: FrameHeader {
                rows: 64,
                cols: 64,
                code_bits: 8,
                sample_bits: 20,
                strategy: StrategyKind::rule30(100),
                seed,
            },
            samples,
        };
        for profile in [WireProfile::Compact, WireProfile::Resilient] {
            let mut writer = StreamWriter::new(frame.header, None, profile).unwrap();
            writer.push_frame(&frame).unwrap();
            let mut parser = StreamParser::new();
            parser.push_bytes(writer.bytes());
            let back = parser.next_frame().unwrap();
            assert_eq!(
                back.as_ref(),
                Some(&frame),
                "case {case}, {profile:?}: wire round-trip lost data"
            );
        }
    }
}

/// Hostile wire input can never panic or wrap around: under truncation,
/// bit flips, and random garbage, at any chunking, the stream parser
/// must always return self-consistent frames or `MalformedFrame`.
#[test]
fn stream_parser_survives_hostile_bytes() {
    use tepics::core::stream::{StreamParser, StreamWriter};
    use tepics::core::{CoreError, WireProfile};
    let mut rng = SplitMix64::new(0x57EA);
    let header = FrameHeader {
        rows: 16,
        cols: 16,
        code_bits: 8,
        sample_bits: 16,
        strategy: StrategyKind::rule30(64),
        seed: 0xFEED,
    };
    let mut writer = StreamWriter::new(header, None, WireProfile::Compact).unwrap();
    for _ in 0..3 {
        let k = 1 + rng.next_below(64) as usize;
        let samples: Vec<u32> = (0..k).map(|_| rng.next_below(1 << 16) as u32).collect();
        writer.push_samples(&samples).unwrap();
    }
    let good = writer.into_bytes();
    let drain = |bytes: &[u8], what: &str| {
        let mut parser = StreamParser::new();
        // Feed in random-sized chunks to exercise every resume point.
        let mut rng = SplitMix64::new(bytes.len() as u64);
        let mut pos = 0;
        while pos < bytes.len() {
            let step = 1 + rng.next_below(31) as usize;
            let end = (pos + step).min(bytes.len());
            parser.push_bytes(&bytes[pos..end]);
            pos = end;
            loop {
                match parser.next_frame() {
                    Ok(Some(frame)) => {
                        // A parse that "succeeds" must at least be
                        // self-consistent.
                        let h = frame.header;
                        assert!(!frame.samples.is_empty(), "{what}");
                        assert!(h.rows > 0 && h.cols > 0, "{what}");
                        assert!((1..=16).contains(&h.code_bits), "{what}");
                        assert!((1..=32).contains(&h.sample_bits), "{what}");
                    }
                    Ok(None) => break,
                    Err(CoreError::MalformedFrame(_)) => return,
                    Err(other) => panic!("{what}: unexpected error {other:?}"),
                }
            }
        }
    };
    for cut in 0..good.len() {
        drain(&good[..cut], &format!("truncated to {cut}"));
    }
    for case in 0..CASES {
        let mut flipped = good.clone();
        let bit = rng.next_below((good.len() * 8) as u64) as usize;
        flipped[bit / 8] ^= 1 << (bit % 8);
        drain(&flipped, &format!("case {case}: bit {bit} flipped"));
    }
    for case in 0..CASES {
        let len = rng.next_below(400) as usize;
        let junk: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        drain(&junk, &format!("case {case}: random buffer"));
    }
}

/// XOR-measurement row weight follows the closed form
/// `a(N−b) + (M−a)b` and the operator matches its own mask.
#[test]
fn xor_measurement_counting() {
    let mut rng = SplitMix64::new(0x0DD5);
    for case in 0..CASES {
        let m = 14usize;
        let n = 10usize;
        let bits: Vec<bool> = (0..24).map(|_| rng.next_bool()).collect();
        let pattern = BitVec::from_bools(bits.iter().copied());
        let a = (0..m).filter(|&i| pattern.get(i)).count();
        let b = (m..m + n).filter(|&i| pattern.get(i)).count();
        let meas = XorMeasurement::from_patterns(m, n, vec![pattern]);
        assert_eq!(
            meas.ones_in_row(0),
            a * (n - b) + (m - a) * b,
            "case {case}"
        );
        assert_eq!(
            meas.mask(0).count_ones(),
            meas.ones_in_row(0),
            "case {case}"
        );
    }
}

/// Sample values can never exceed the Eq. (1) bound
/// `(2^code_bits − 1) · selected`, and the selection never exceeds
/// M·N — so 20 bits always suffice at 64×64.
#[test]
fn sample_values_respect_eq1() {
    use tepics::prelude::*;
    let mut rng = SplitMix64::new(0xE011);
    // Fewer cases: each one runs a full capture.
    for case in 0..8 {
        let seed = rng.next_u64();
        let intensity = rng.next_f64();
        let scene = tepics::imaging::ImageF64::new(16, 16, intensity);
        let imager = CompressiveImager::builder(16, 16)
            .ratio(0.1)
            .seed(seed)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap();
        let frame = imager.capture(&scene);
        for &s in &frame.samples {
            assert!(
                s <= 255 * 256,
                "case {case}: sample {s} exceeds Eq. (1) bound"
            );
        }
    }
}

/// The fast (Lee) DCT path equals a direct basis-definition evaluation
/// to ≤1e-10 on random signals, for power-of-two lengths (fast path)
/// and odd lengths (matrix fallback), forward, inverse, and round-trip.
#[test]
fn fast_dct_matches_basis_definition() {
    use tepics::imaging::Dct1d;
    let mut rng = SplitMix64::new(0xFA57);
    for case in 0..CASES {
        // Alternate between fast-path and fallback lengths.
        let n = if case % 2 == 0 {
            1usize << (1 + rng.next_below(8)) // 2..256, power of two
        } else {
            3 + 2 * rng.next_below(30) as usize // odd
        };
        let dct = Dct1d::new(n);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64() * 20.0 - 10.0).collect();
        let coeffs = dct.forward(&x);
        // Direct definition: X_k = c_k Σ_i cos(π(2i+1)k/2n)·x_i.
        for (k, &ck) in coeffs.iter().enumerate() {
            let c = if k == 0 {
                (1.0 / n as f64).sqrt()
            } else {
                (2.0 / n as f64).sqrt()
            };
            let direct: f64 = x
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    c * (std::f64::consts::PI * (2 * i + 1) as f64 * k as f64 / (2 * n) as f64)
                        .cos()
                        * v
                })
                .sum();
            assert!(
                (ck - direct).abs() <= 1e-10 * direct.abs().max(1.0),
                "case {case}: n={n} k={k}: fast {ck} vs definition {direct}"
            );
        }
        let back = dct.inverse(&coeffs);
        for (i, (a, b)) in x.iter().zip(&back).enumerate() {
            assert!(
                (a - b).abs() < 1e-10,
                "case {case}: n={n} i={i}: round-trip {b} vs {a}"
            );
        }
    }
}

/// The factorized fast-Φ paths equal the brute-force `selected()` sums
/// and satisfy the adjoint identity at random geometries (odd sizes,
/// multi-word columns, off-grid measurement counts).
#[test]
fn fast_phi_matches_bruteforce_at_random_geometries() {
    use tepics::cs::op::adjoint_mismatch;
    use tepics::cs::LinearOperator;
    let mut rng = SplitMix64::new(0x0F1);
    for case in 0..24 {
        let m = 1 + rng.next_below(20) as usize;
        let n = 1 + rng.next_below(80) as usize;
        let k = 1 + rng.next_below(40) as usize;
        let patterns: Vec<BitVec> = (0..k)
            .map(|_| BitVec::from_bools((0..m + n).map(|_| rng.next_bool())))
            .collect();
        let meas = XorMeasurement::from_patterns(m, n, patterns);
        let x: Vec<f64> = (0..m * n).map(|_| rng.next_f64() * 255.0).collect();
        let y = meas.apply_vec(&x);
        for (row, &yk) in y.iter().enumerate() {
            let mut brute = 0.0;
            for i in 0..m {
                for j in 0..n {
                    if meas.selected(row, i, j) {
                        brute += x[i * n + j];
                    }
                }
            }
            assert!(
                (yk - brute).abs() <= 1e-10 * brute.abs().max(1.0),
                "case {case}: {m}×{n} K={k} row {row}: {yk} vs {brute}"
            );
        }
        assert!(
            adjoint_mismatch(&meas, 3, 0x5EED + case) < 1e-12,
            "case {case}: {m}×{n} K={k} adjoint identity"
        );
    }
}

/// Solver-workspace reuse is value-transparent: a warm workspace solve
/// equals a cold solve bit for bit, across *all six* solver
/// algorithms (FISTA, IHT, OMP, CoSaMP, CGLS, debias) and problem
/// sizes.
#[test]
fn workspace_reuse_is_bit_identical_for_all_solvers() {
    use tepics::cs::{DenseMatrix, LinearOperator};
    use tepics::recovery::cg::Cgls;
    use tepics::recovery::{CoSaMp, Debias, Fista, Iht, Omp, Solver, SolverWorkspace};
    let mut rng = SplitMix64::new(0x5073);
    let mut ws = SolverWorkspace::new();
    for case in 0..8 {
        let rows = 10 + rng.next_below(20) as usize;
        let cols = rows + rng.next_below(30) as usize;
        let a = DenseMatrix::from_fn(rows, cols, |_, _| {
            rng.next_gaussian() / (rows as f64).sqrt()
        });
        let mut x = vec![0.0; cols];
        x[rng.next_below(cols as u64) as usize] = 1.5;
        let y = a.apply_vec(&x);
        let mut fista = Fista::new();
        fista.max_iter(60);
        let mut iht = Iht::new(2);
        iht.max_iter(60);
        let omp = Omp::new(3);
        let cosamp = CoSaMp::new(2);
        let cgls = Cgls::new(40, 1e-10);
        let debias = Debias::new(&fista, 6);
        let solvers: [&dyn Solver; 6] = [&fista, &iht, &omp, &cosamp, &cgls, &debias];
        for solver in solvers {
            let name = solver.caps().name;
            let cold = solver.solve(&a, &y).unwrap();
            let warm = solver.solve_with(&a, &y, &mut ws).unwrap();
            assert_eq!(cold, warm, "case {case}: {name} warm != cold");
            // Reuse again immediately — the second warm solve must also
            // match (the workspace reset is idempotent).
            let warm2 = solver.solve_with(&a, &y, &mut ws).unwrap();
            assert_eq!(cold, warm2, "case {case}: {name} second warm != cold");
        }
    }
}
