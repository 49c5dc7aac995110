//! (infrastructure) Hot-path timings: DCT apply, Φ apply/adjoint, the
//! fused `ΦᵀΨᵀ` / `ΨΦ` composed kernels, their micro-kernels
//! (subset-sum table build, Lee DCT butterfly), and a full warm
//! `DecodeSession` frame — swept over 32/64/128 geometries.
//!
//! The recovery inner loop is dominated by three kernels: the
//! sparsifying transform (2-D DCT), the measurement operator Φ
//! (forward and adjoint), and — since the fused engine landed — the
//! one-pass composed kernels that stream Φᵀ's scatter straight into
//! Ψᵀ's row passes. This experiment times each in isolation plus the
//! end-to-end warm-decode path they compose into, and writes the
//! numbers to `BENCH_hotpaths.json` at the workspace root so perf
//! changes leave a machine-readable trail.
//!
//! The JSON file (schema 2) keeps a frozen `baseline` section (the
//! 64×64 numbers measured before the fast-path engine landed —
//! preserved across reruns), a `current` section (this run at 64×64,
//! including the fused and micro-kernel rows the baseline predates), a
//! derived `speedup` section over the keys both share, and a `sweep`
//! section with the 32/64/128 size ladder. A rerun on a tree that only
//! has `current` promotes it to `baseline`, so the very first run
//! establishes the reference point.

use std::time::Instant;

use crate::report::{section, Table};
use tepics_core::prelude::*;
use tepics_cs::dictionary::ZeroMeanDictionary;
use tepics_cs::{
    ColumnMatrix, ComposedOperator, Dct2dDictionary, Dictionary, LinearOperator, XorMeasurement,
};
use tepics_imaging::Dct2d;
use tepics_util::{simd, SplitMix64};

/// Where the machine-readable numbers land (workspace root).
const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpaths.json");

/// One set of hot-path measurements. The first five keys exist in the
/// frozen pre-fused baseline; the last four were added with the fused
/// engine and carry `NaN` when parsed from files that predate them.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Metrics {
    dct2d_forward_us: f64,
    dct2d_inverse_us: f64,
    phi_apply_us: f64,
    phi_adjoint_us: f64,
    warm_decode_ms: f64,
    fused_apply_us: f64,
    fused_adjoint_us: f64,
    subset_sum_ns: f64,
    dct_butterfly_ns: f64,
}

impl Metrics {
    const KEYS: [&'static str; 9] = [
        "dct2d_forward_us",
        "dct2d_inverse_us",
        "phi_apply_us",
        "phi_adjoint_us",
        "warm_decode_ms",
        "fused_apply_us",
        "fused_adjoint_us",
        "subset_sum_ns",
        "dct_butterfly_ns",
    ];

    fn values(&self) -> [f64; 9] {
        [
            self.dct2d_forward_us,
            self.dct2d_inverse_us,
            self.phi_apply_us,
            self.phi_adjoint_us,
            self.warm_decode_ms,
            self.fused_apply_us,
            self.fused_adjoint_us,
            self.subset_sum_ns,
            self.dct_butterfly_ns,
        ]
    }

    /// Serializes the finite entries (a baseline parsed from an older
    /// schema keeps only the keys it actually had).
    fn to_json(self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (k, v) in Self::KEYS.iter().zip(self.values()) {
            if !v.is_finite() {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{k}\": {v:.3}"));
        }
        out.push('}');
        out
    }

    fn from_json(obj: &str) -> Option<Metrics> {
        let opt = |key| extract_number(obj, key).unwrap_or(f64::NAN);
        Some(Metrics {
            dct2d_forward_us: extract_number(obj, "dct2d_forward_us")?,
            dct2d_inverse_us: extract_number(obj, "dct2d_inverse_us")?,
            phi_apply_us: extract_number(obj, "phi_apply_us")?,
            phi_adjoint_us: extract_number(obj, "phi_adjoint_us")?,
            warm_decode_ms: extract_number(obj, "warm_decode_ms")?,
            fused_apply_us: opt("fused_apply_us"),
            fused_adjoint_us: opt("fused_adjoint_us"),
            subset_sum_ns: opt("subset_sum_ns"),
            dct_butterfly_ns: opt("dct_butterfly_ns"),
        })
    }
}

/// Extracts the brace-balanced object following `"key"` in `json`.
fn extract_section<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let start = json.find(&pat)?;
    let brace = json[start..].find('{')? + start;
    let mut depth = 0usize;
    for (i, c) in json[brace..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[brace..=brace + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts a bare JSON number following `"key":` in `obj`.
fn extract_number(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = obj[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Median wall time per call, in seconds, over `reps` calls.
///
/// The closure returns an f64 checksum that is folded into a sink the
/// caller prints, so the optimizer cannot discard the work.
fn time_median(reps: usize, sink: &mut f64, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        *sink += f();
        samples.push(t.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Maximum relative deviation between `got` and `want`.
fn max_rel_dev(got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
        .fold(0.0, f64::max)
}

/// The benchmark imager at `side`×`side`, ratio `ratio`, and its XOR
/// measurement rebuilt from the imager's strategy and seed.
fn imager_and_phi(side: usize, ratio: f64) -> (CompressiveImager, XorMeasurement) {
    let imager = CompressiveImager::builder(side, side)
        .ratio(ratio)
        .seed(0x407B)
        .fidelity(Fidelity::Functional)
        .build()
        .expect("hotpaths imager");
    let mut source = imager
        .strategy()
        .build_source(2 * side, imager.seed())
        .expect("hotpaths strategy");
    let phi = XorMeasurement::from_source(side, side, source.as_mut(), imager.sample_count());
    (imager, phi)
}

/// Worst per-column relative deviation of the decoder's column view
/// (`ColumnMatrix::from_operator`, closed form for XOR × DC-pinned DCT)
/// from the generic per-column build: synthesize each atom, apply Φ.
/// The pinned DC column must be exactly zero on both sides.
fn column_view_dev(side: usize, ratio: f64) -> f64 {
    let (_, phi) = imager_and_phi(side, ratio);
    let dict = ZeroMeanDictionary::new(Dct2dDictionary::new(side, side), 0);
    let view = ColumnMatrix::from_operator(&ComposedOperator::new(&phi, &dict));
    let mut unit = vec![0.0; dict.atoms()];
    let mut worst = 0.0f64;
    for j in 0..dict.atoms() {
        unit[j] = 1.0;
        let want = phi.apply_vec(&dict.synthesize_vec(&unit));
        unit[j] = 0.0;
        let got = view.column(j);
        let diff = got
            .iter()
            .zip(&want)
            .map(|(g, w)| (g - w).powi(2))
            .sum::<f64>();
        let norm = simd::dot4(&want, &want);
        let dev = if norm == 0.0 {
            // A zero reference column must come out exactly zero.
            if got.iter().all(|&g| g == 0.0) {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (diff / norm).sqrt()
        };
        worst = worst.max(dev);
    }
    worst
}

/// Measures the hot paths at `side`×`side`, ratio `ratio`. Also checks
/// the fused composed kernels against the explicit two-pass reference
/// and returns the worst relative deviation seen.
fn measure(side: usize, ratio: f64, reps: usize, sink: &mut f64) -> (Metrics, usize, f64) {
    let scene = Scene::gaussian_blobs(3).render(side, side, 11);
    let dct = Dct2d::new(side, side);
    let fwd = time_median(reps, sink, || dct.forward(scene.as_slice())[1]);
    let coeffs = dct.forward(scene.as_slice());
    let inv = time_median(reps, sink, || dct.inverse(&coeffs)[1]);

    let (imager, phi) = imager_and_phi(side, ratio);
    let k = phi.rows();
    let mut rng = SplitMix64::new(7);
    let x: Vec<f64> = (0..phi.cols()).map(|_| rng.next_f64() * 255.0).collect();
    let y: Vec<f64> = (0..phi.rows()).map(|_| rng.next_gaussian()).collect();
    let mut ybuf = vec![0.0; phi.rows()];
    let mut xbuf = vec![0.0; phi.cols()];
    let phi_reps = reps.div_ceil(4);
    let apply = time_median(phi_reps, sink, || {
        phi.apply(&x, &mut ybuf);
        ybuf[0]
    });
    let adjoint = time_median(phi_reps, sink, || {
        phi.apply_adjoint(&y, &mut xbuf);
        xbuf[0]
    });

    // Fused composed kernels: the decoder's exact envelope (XOR Φ with
    // the DC-pinned DCT dictionary), one-pass ΨΦ / ΦᵀΨᵀ.
    let dict = ZeroMeanDictionary::new(Dct2dDictionary::new(side, side), 0);
    let a = ComposedOperator::new(&phi, &dict);
    let fused_apply = time_median(phi_reps, sink, || {
        a.apply(&x, &mut ybuf);
        ybuf[0]
    });
    let fused_adjoint = time_median(phi_reps, sink, || {
        a.apply_adjoint(&y, &mut xbuf);
        xbuf[0]
    });
    // Identity guard: the fused one-pass results must match the
    // explicit two-pass composition within the documented 1e-10.
    let fwd_ref = phi.apply_vec(&dict.synthesize_vec(&x));
    let adj_ref = dict.analyze_vec(&phi.apply_adjoint_vec(&y));
    let fused_dev = max_rel_dev(&a.apply_vec(&x), &fwd_ref)
        .max(max_rel_dev(&a.apply_adjoint_vec(&y), &adj_ref));

    // Micro-kernels, batched so one sample is well above timer
    // resolution: the adjoint's 256-entry subset-sum table build and
    // one forward+inverse Lee butterfly sweep at the row length.
    const BATCH: usize = 1024;
    let vals: Vec<f64> = (0..8).map(|_| rng.next_gaussian()).collect();
    let mut table = vec![0.0f64; 256];
    let subset = time_median(phi_reps, sink, || {
        for _ in 0..BATCH {
            tepics_cs::measurement::subset_sum_kernel(&vals, &mut table);
        }
        table[255]
    }) / BATCH as f64;
    let half = (side / 2).max(1);
    let sig: Vec<f64> = (0..side).map(|_| rng.next_gaussian()).collect();
    let tw: Vec<f64> = (0..half).map(|i| 1.0 + i as f64 * 1e-3).collect();
    let (mut ea, mut eb) = (vec![0.0; half], vec![0.0; half]);
    let mut merged = vec![0.0; side];
    let butterfly = time_median(phi_reps, sink, || {
        for _ in 0..BATCH {
            simd::butterfly_split(&sig, &tw, &mut ea, &mut eb);
            simd::butterfly_merge(&ea, &eb, &tw, &mut merged);
        }
        merged[0]
    }) / BATCH as f64;

    // Warm decode: one cold frame primes the session's operator cache,
    // then the same frame decodes again with everything warm.
    let frame = imager.capture(&scene);
    let mut session = DecodeSession::new();
    let cold = session.push_frame(&frame).expect("cold decode");
    let warm_reps = 3;
    let warm = time_median(warm_reps, sink, || {
        let d = session.push_frame(&frame).expect("warm decode");
        assert_eq!(
            d.reconstruction, cold.reconstruction,
            "warm decode diverged from cold"
        );
        d.reconstruction.mean_code()
    });

    (
        Metrics {
            dct2d_forward_us: fwd * 1e6,
            dct2d_inverse_us: inv * 1e6,
            phi_apply_us: apply * 1e6,
            phi_adjoint_us: adjoint * 1e6,
            warm_decode_ms: warm * 1e3,
            fused_apply_us: fused_apply * 1e6,
            fused_adjoint_us: fused_adjoint * 1e6,
            subset_sum_ns: subset * 1e9,
            dct_butterfly_ns: butterfly * 1e9,
        },
        k,
        fused_dev,
    )
}

/// Runs the experiment: sweeps 32/64/128, updates
/// `BENCH_hotpaths.json` (schema 2), and reports the before/after
/// table anchored at 64×64 plus the size ladder.
pub fn run() -> String {
    let ratio = 0.35;
    let sides = [32usize, 64, 128];
    let mut sink = 0.0;
    let mut sweep = Vec::new();
    for &side in &sides {
        // Fewer reps at 128: each warm decode is a full reconstruction.
        let reps = match side {
            128 => 12,
            _ => 40,
        };
        let (m, k, dev) = measure(side, ratio, reps, &mut sink);
        assert!(
            dev <= 1e-10,
            "fused kernels deviate from two-pass reference at {side}: {dev:e}"
        );
        sweep.push((side, m, k));
    }
    let &(_, current, k64) = sweep
        .iter()
        .find(|(s, _, _)| *s == 64)
        .expect("64 is in the sweep");

    let previous = std::fs::read_to_string(JSON_PATH).ok();
    let baseline = previous.as_deref().and_then(|json| {
        extract_section(json, "baseline")
            .or_else(|| extract_section(json, "current"))
            .and_then(Metrics::from_json)
    });
    if previous.is_some() && baseline.is_none() {
        // An existing file we cannot parse holds the frozen pre-PR
        // reference; never overwrite it with a baseline-less rewrite.
        let mut out = String::from("# Hot-path timings — DCT, Φ, fused kernels, warm decode\n");
        out.push_str(&format!(
            "\nWARNING: {JSON_PATH} exists but its baseline/current sections\n\
             could not be parsed; leaving the file untouched. Fix or delete\n\
             it to record new numbers.\n\nmeasured current: {}\n",
            current.to_json()
        ));
        return out;
    }

    let mut json = String::from("{\n  \"schema\": 2,\n");
    json.push_str(&format!(
        "  \"config\": {{\"ratio\": {ratio}, \"sides\": [32, 64, 128], \"k64\": {k64}}},\n"
    ));
    if let Some(base) = baseline {
        json.push_str(&format!("  \"baseline\": {},\n", base.to_json()));
    }
    json.push_str(&format!("  \"current\": {}", current.to_json()));
    if let Some(base) = baseline {
        json.push_str(",\n  \"speedup\": {");
        let mut first = true;
        for (key, (b, c)) in Metrics::KEYS
            .iter()
            .zip(base.values().into_iter().zip(current.values()))
        {
            if !b.is_finite() {
                continue; // key postdates the frozen baseline
            }
            if !first {
                json.push_str(", ");
            }
            first = false;
            let name = key
                .trim_end_matches("_us")
                .trim_end_matches("_ms")
                .trim_end_matches("_ns");
            json.push_str(&format!("\"{name}\": {:.2}", b / c));
        }
        json.push('}');
    }
    json.push_str(",\n  \"sweep\": {");
    for (i, (side, m, k)) in sweep.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let mut obj = m.to_json();
        obj.insert_str(1, &format!("\"k\": {k}, "));
        json.push_str(&format!("\"{side}\": {obj}"));
    }
    json.push_str("}\n}\n");
    let json_written = std::fs::write(JSON_PATH, &json).is_ok();

    let mut out = String::from("# Hot-path timings — DCT, Φ, fused kernels, warm decode\n");
    out.push_str(&section(&format!(
        "64×64, R = {ratio} (K = {k64} measurements), medians"
    )));
    let mut t = Table::new(&["kernel", "baseline", "current", "speedup"]);
    for (key, (b, c)) in Metrics::KEYS.iter().zip(
        baseline
            .map(|m| m.values().map(Some))
            .unwrap_or([None; 9])
            .into_iter()
            .zip(current.values()),
    ) {
        let b = b.filter(|v| v.is_finite());
        t.row_owned(vec![
            key.to_string(),
            b.map_or("—".into(), |v| format!("{v:.1}")),
            format!("{c:.1}"),
            b.map_or("—".into(), |v| format!("{:.2}×", v / c)),
        ]);
    }
    out.push_str(&t.render());

    out.push_str(&section("size sweep (32 / 64 / 128)"));
    let mut t = Table::new(&["kernel", "32", "64", "128"]);
    for (i, key) in Metrics::KEYS.iter().enumerate() {
        t.row_owned(
            std::iter::once(key.to_string())
                .chain(
                    sweep
                        .iter()
                        .map(|(_, m, _)| format!("{:.1}", m.values()[i])),
                )
                .collect(),
        );
    }
    out.push_str(&t.render());

    out.push_str(&format!(
        "\n{} {} (checksum {sink:.3e})\n",
        if json_written {
            "machine-readable numbers written to"
        } else {
            "WARNING: could not write"
        },
        JSON_PATH,
    ));
    out.push_str(
        "\nThe warm-decode row is the one the ROADMAP hot-path item tracks:\n\
         a full FISTA reconstruction of a 64×64 frame with the operator\n\
         cache already primed — i.e. pure solver-loop cost, no CA replay,\n\
         no power iteration, now routed through the fused one-pass\n\
         ΦᵀΨᵀ/ΨΦ kernels. `fused_*` rows time the composed operator the\n\
         solver actually calls; `subset_sum_ns`/`dct_butterfly_ns` time\n\
         its two micro-kernels per call. The first run of this experiment\n\
         froze the `baseline` section; later runs only update\n\
         `current`/`speedup`/`sweep`.\n",
    );
    out
}

/// Smoke-mode hotpaths check for CI: tiny geometry, no JSON output.
///
/// Exercises the same kernels plus a warm decode and returns
/// human-readable failures instead of timings-as-acceptance (CI boxes
/// are too noisy for absolute thresholds). `measure` itself asserts
/// that every warm decode is bit-identical to the cold one and checks
/// the fused composed kernels against the explicit two-pass reference;
/// the smoke adds the closed-form column view against the generic
/// per-column build (1e-12 relative per column), so the fast paths are
/// verified end to end on every PR.
/// (Thread-count determinism is already covered by the batch half of
/// `--smoke`.)
pub fn smoke() -> Result<String, Vec<String>> {
    let side = 16;
    let mut sink = 0.0;
    let (metrics, k, fused_dev) = measure(side, 0.35, 4, &mut sink);
    let view_dev = column_view_dev(side, 0.35);
    let mut failures = Vec::new();
    for (key, v) in Metrics::KEYS.iter().zip(metrics.values()) {
        if !v.is_finite() || v <= 0.0 {
            failures.push(format!("hotpaths {key} = {v} not positive/finite"));
        }
    }
    // NaN must fail too, hence the explicit disjunction.
    if fused_dev.is_nan() || fused_dev > 1e-10 {
        failures.push(format!(
            "fused kernels deviate from two-pass reference: {fused_dev:e} > 1e-10"
        ));
    }
    if view_dev.is_nan() || view_dev > 1e-12 {
        failures.push(format!(
            "closed-form column view deviates from per-column build: {view_dev:e} > 1e-12"
        ));
    }
    if failures.is_empty() {
        Ok(format!(
            "hotpaths smoke: {side}×{side} K={k}: dct fwd {:.1}µs inv {:.1}µs, Φ apply {:.1}µs adj {:.1}µs, fused apply {:.1}µs adj {:.1}µs (dev {fused_dev:.1e}), column view dev {view_dev:.1e}, warm decode {:.2}ms",
            metrics.dct2d_forward_us,
            metrics.dct2d_inverse_us,
            metrics.phi_apply_us,
            metrics.phi_adjoint_us,
            metrics.fused_apply_us,
            metrics.fused_adjoint_us,
            metrics.warm_decode_ms,
        ))
    } else {
        Err(failures)
    }
}
