//! (infrastructure) Resilient wire v3 — corruption rate vs recovered
//! quality.
//!
//! The version-3 container pays a per-record overhead (sequence number,
//! two CRC-8s, periodic sync words) to survive a lossy link: the parser
//! resynchronizes after corrupt records instead of dying, and the
//! session stitches tile groups around erased tiles instead of dropping
//! whole frames. This experiment buys the overhead and measures what it
//! purchases: a seeded [`FaultInjector`] flips bits in the record
//! stretch of a v3 tiled stream at increasing rates (the header is left
//! intact, modelling a handshake-protected session setup), and each
//! dirty stream is decoded to completion under
//! [`ErasurePolicy::NeighborBlend`].
//!
//! Written to `BENCH_resilience.json` per corruption rate:
//!
//! * the fraction of frames recovered (emitted at all, degraded or not);
//! * mean PSNR of the recovered frames against the clean-decode truth;
//! * corrupt events, bytes resynchronized past, and tiles erased.
//!
//! The acceptance line is the 0.1% row: a v3 tiled stream at 0.1% byte
//! corruption must decode to completion with ≥90% of frames recovered
//! and no panics.

use std::collections::BTreeMap;

use crate::report::{section, Table};
use tepics_core::prelude::*;

/// The machine-readable numbers' file, named relative to the workspace
/// root, where `JSON_PATH` puts it.
const JSON_NAME: &str = "BENCH_resilience.json";

/// Where the machine-readable numbers land (workspace root).
const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_resilience.json");

/// Corruption rates swept (probability that any given *bit* in the
/// record stretch flips; 0.001 ≈ the 0.1%-of-bytes acceptance point at
/// the byte level is `1 - (1-p)^8`, so bit rates here are chosen to
/// bracket it).
const BIT_RATES: [f64; 5] = [0.0, 0.000_25, 0.000_5, 0.001, 0.002];

/// The fixed fault seed: every run of this experiment applies the
/// byte-identical fault pattern.
const FAULT_SEED: u64 = 0x00DD_5EED;

fn tiled_resilient_imager(side: usize) -> CompressiveImager {
    CompressiveImager::builder_for(FrameGeometry::new(side, side))
        .tiling(TileConfig::new(16).overlap(4))
        .ratio(0.35)
        .seed(0xE1A5)
        .fidelity(Fidelity::Functional)
        .build()
        .expect("resilience imager config")
}

/// One corruption-rate measurement.
struct RatePoint {
    bit_rate: f64,
    bits_flipped: usize,
    recovered_fraction: f64,
    frames_degraded: usize,
    tiles_erased: usize,
    corrupt_events: usize,
    bytes_skipped: usize,
    mean_psnr_db: f64,
}

/// Decodes `bytes` under `policy` and returns `(frames, report)`,
/// tolerating a poisoned tail (everything decoded before the error is
/// kept — that is the graceful-degradation contract under test).
fn decode_all(bytes: &[u8], policy: ErasurePolicy) -> (Vec<DecodedFrame>, DecodeReport) {
    let mut dec = DecodeSession::new();
    dec.erasure_policy(policy);
    let mut frames = dec.push_bytes(bytes).unwrap_or_default();
    frames.extend(dec.finish().unwrap_or_default());
    let report = dec.report();
    (frames, report)
}

/// Sweeps the corruption rates over one v3 tiled stream.
fn measure(side: usize, n_frames: usize) -> (Vec<RatePoint>, usize, usize) {
    let imager = tiled_resilient_imager(side);
    let header_len = {
        // The v3 tiled header: protected by the model (handshake), so
        // the injector skips it.
        use tepics_core::stream::RESILIENT_TILED_HEADER_BYTES;
        RESILIENT_TILED_HEADER_BYTES
    };
    let mut enc = EncodeSession::with_profile(imager, WireProfile::Resilient)
        .expect("resilient encode session");
    for i in 0..n_frames {
        enc.capture(&Scene::natural_like().render(side, side, 100 + i as u64))
            .expect("resilience capture");
    }
    let clean = enc.into_bytes();

    // Clean-decode truth, keyed by stream index (corrupted decodes may
    // lose frames; the survivors are scored against their own truth).
    let (truth_frames, _) = decode_all(&clean, ErasurePolicy::NeighborBlend);
    assert_eq!(
        truth_frames.len(),
        n_frames,
        "clean v3 stream must decode fully"
    );
    let truth: BTreeMap<usize, &DecodedFrame> = truth_frames.iter().map(|f| (f.index, f)).collect();

    let mut points = Vec::new();
    for &rate in &BIT_RATES {
        let mut dirty = clean.clone();
        let bits_flipped =
            FaultInjector::new(FAULT_SEED).flip_bits_after(&mut dirty, header_len, rate);
        let (frames, report) = decode_all(&dirty, ErasurePolicy::NeighborBlend);

        let mut psnr_sum = 0.0;
        let mut scored = 0usize;
        for f in &frames {
            if let Some(t) = truth.get(&f.index) {
                psnr_sum += psnr(
                    t.reconstruction.code_image(),
                    f.reconstruction.code_image(),
                    255.0,
                );
                scored += 1;
            }
        }
        points.push(RatePoint {
            bit_rate: rate,
            bits_flipped,
            recovered_fraction: frames.len() as f64 / n_frames as f64,
            frames_degraded: report.frames_degraded,
            tiles_erased: report.tiles_erased,
            corrupt_events: report.corrupt_events,
            bytes_skipped: report.bytes_skipped,
            mean_psnr_db: if scored == 0 {
                0.0
            } else {
                psnr_sum / scored as f64
            },
        });
    }
    (points, clean.len(), header_len)
}

/// The `BENCH_resilience.json` document for a sweep of `points`. A
/// non-finite mean PSNR (a bit-identical decode scores ∞) is written as
/// `null`: JSON has no infinity or NaN.
fn to_json(
    side: usize,
    n_frames: usize,
    stream_bytes: usize,
    header_len: usize,
    points: &[RatePoint],
) -> String {
    let mut json = String::from("{\n  \"schema\": 1,\n");
    json.push_str(&format!(
        "  \"setup\": {{\"side\": {side}, \"tile\": 16, \"overlap\": 4, \"frames\": {n_frames}, \
         \"stream_bytes\": {stream_bytes}, \"protected_header_bytes\": {header_len}, \
         \"policy\": \"NeighborBlend\", \"fault_seed\": {FAULT_SEED}}},\n  \"points\": [\n"
    ));
    for (i, p) in points.iter().enumerate() {
        let mean_psnr_db = if p.mean_psnr_db.is_finite() {
            format!("{:.3}", p.mean_psnr_db)
        } else {
            "null".to_string()
        };
        json.push_str(&format!(
            "    {{\"bit_rate\": {}, \"bits_flipped\": {}, \"recovered_fraction\": {:.4}, \
             \"mean_psnr_db\": {mean_psnr_db}, \"frames_degraded\": {}, \"tiles_erased\": {}, \
             \"corrupt_events\": {}, \"bytes_skipped\": {}}}{}\n",
            p.bit_rate,
            p.bits_flipped,
            p.recovered_fraction,
            p.frames_degraded,
            p.tiles_erased,
            p.corrupt_events,
            p.bytes_skipped,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Runs the sweep and updates `BENCH_resilience.json`.
pub fn run() -> String {
    let side = 48;
    let n_frames = 12;
    let (points, stream_bytes, header_len) = measure(side, n_frames);

    let json = to_json(side, n_frames, stream_bytes, header_len, &points);
    let json_written = std::fs::write(JSON_PATH, &json).is_ok();

    let mut out = String::from("# Resilient wire v3 — corruption rate vs recovered quality\n");
    out.push_str(&section(&format!(
        "{side}×{side} in 16-px tiles (overlap 4), {n_frames} frames, {stream_bytes}-byte v3 \
         stream, NeighborBlend"
    )));
    let mut t = Table::new(&[
        "bit flip rate",
        "bits flipped",
        "frames recovered",
        "mean PSNR vs clean (dB)",
        "degraded",
        "tiles erased",
        "corrupt events",
        "bytes resynced",
    ]);
    for p in &points {
        t.row_owned(vec![
            format!("{:.4}%", p.bit_rate * 100.0),
            p.bits_flipped.to_string(),
            format!("{:.0}%", p.recovered_fraction * 100.0),
            if p.bit_rate == 0.0 {
                "∞ (bit-identical)".into()
            } else {
                format!("{:.1}", p.mean_psnr_db)
            },
            p.frames_degraded.to_string(),
            p.tiles_erased.to_string(),
            p.corrupt_events.to_string(),
            p.bytes_skipped.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nacceptance: the 0.1%-class row must recover ≥90% of frames with no\n\
         panics; the 0% row must be a bit-identical decode (the v3 overhead\n\
         never costs quality on a clean link)\n",
    );
    out.push_str(&format!(
        "\n{} {JSON_NAME}\n",
        if json_written {
            "machine-readable numbers written to"
        } else {
            "WARNING: could not write"
        },
    ));
    out
}

/// Smoke-mode resilience check for CI: clean v3 ≡ compact decode, and a
/// corrupted v3 stream still recovers ≥90% of its frames.
///
/// A 32×32 tiled stream is captured once; the same records go out both
/// as a compact (v2) and a resilient (v3) container, so the two decodes
/// must be bit-identical. The v3 copy is then bit-flipped at the 0.1%
/// byte class (header protected) and must decode to completion — no
/// panics, no poisoned session — with ≥90% of frames recovered.
pub fn smoke() -> Result<String, Vec<String>> {
    let mut failures = Vec::new();
    let side = 32;
    let n_frames = 10;
    let imager = tiled_resilient_imager(side);

    let mut enc_v3 = EncodeSession::with_profile(imager.clone(), WireProfile::Resilient)
        .expect("smoke v3 encode");
    let mut enc_v2 =
        EncodeSession::with_profile(imager, WireProfile::Compact).expect("smoke v2 encode");
    for i in 0..n_frames {
        let records = enc_v3
            .capture(&Scene::gaussian_blobs(3).render(side, side, 40 + i as u64))
            .expect("smoke capture");
        for r in &records {
            enc_v2.push_frame(r).expect("smoke v2 push");
        }
    }
    if enc_v3.wire_version() != 3 || enc_v2.wire_version() != 2 {
        failures.push(format!(
            "resilience smoke: wire versions {} / {}, expected 3 / 2",
            enc_v3.wire_version(),
            enc_v2.wire_version()
        ));
    }
    let v3_bytes = enc_v3.into_bytes();
    let v2_bytes = enc_v2.into_bytes();

    let (v3_frames, v3_report) = decode_all(&v3_bytes, ErasurePolicy::NeighborBlend);
    let (v2_frames, _) = decode_all(&v2_bytes, ErasurePolicy::NeighborBlend);
    if v3_frames.len() != n_frames || v2_frames.len() != n_frames {
        failures.push(format!(
            "resilience smoke: clean decodes yielded {} (v3) / {} (v2) of {n_frames} frames",
            v3_frames.len(),
            v2_frames.len()
        ));
    }
    if v3_report.corrupt_events != 0 || v3_report.frames_degraded != 0 {
        failures.push(format!(
            "resilience smoke: clean v3 stream reported {} corrupt events, {} degraded",
            v3_report.corrupt_events, v3_report.frames_degraded
        ));
    }
    for (a, b) in v3_frames.iter().zip(&v2_frames) {
        if a.reconstruction != b.reconstruction {
            failures.push(format!(
                "resilience smoke: v3 frame {} diverged from its v2 decode",
                a.index
            ));
            break;
        }
    }

    // The acceptance corruption class: 0.1% of bytes ⇒ each bit flips
    // with p = 0.001/8.
    let mut dirty = v3_bytes;
    let flipped = FaultInjector::new(FAULT_SEED).flip_bits_after(
        &mut dirty,
        tepics_core::stream::RESILIENT_TILED_HEADER_BYTES,
        0.001 / 8.0,
    );
    let (frames, report) = decode_all(&dirty, ErasurePolicy::NeighborBlend);
    let recovered = frames.len() as f64 / n_frames as f64;
    if recovered < 0.9 {
        failures.push(format!(
            "resilience smoke: {flipped} bit flips recovered only {:.0}% of frames \
             ({} corrupt events, {} bytes resynced)",
            recovered * 100.0,
            report.corrupt_events,
            report.bytes_skipped
        ));
    }

    if failures.is_empty() {
        Ok(format!(
            "resilience smoke: clean v3 ≡ v2 over {n_frames} frames; {flipped} bit flips \
             ⇒ {:.0}% recovered ({} degraded, {} tiles erased, {} corrupt events)",
            recovered * 100.0,
            report.frames_degraded,
            report.tiles_erased,
            report.corrupt_events
        ))
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(mean_psnr_db: f64) -> RatePoint {
        RatePoint {
            bit_rate: 0.0,
            bits_flipped: 0,
            recovered_fraction: 1.0,
            frames_degraded: 0,
            tiles_erased: 0,
            corrupt_events: 0,
            bytes_skipped: 0,
            mean_psnr_db,
        }
    }

    #[test]
    fn non_finite_means_are_written_as_null() {
        let points = [point(f64::INFINITY), point(f64::NAN), point(26.75)];
        let json = to_json(48, 12, 36800, 32, &points);
        let tokens: Vec<&str> = json
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|t| !t.is_empty())
            .collect();
        for bad in ["inf", "NaN"] {
            assert!(
                !tokens.iter().any(|t| t.eq_ignore_ascii_case(bad)),
                "{bad} token in {json}"
            );
        }
        assert_eq!(json.matches("\"mean_psnr_db\": null").count(), 2, "{json}");
        assert!(json.contains("\"mean_psnr_db\": 26.750"), "{json}");
    }
}
