//! Autonomous camera node on a bandwidth-starved link.
//!
//! ```text
//! cargo run --release --example surveillance_node
//! ```
//!
//! The paper's motivating scenario (Sect. I): "deliver images over a
//! network under a restricted data rate and still receive enough
//! meaningful information", without the memory and processing budget of
//! digitizing full frames. This example sizes the compression ratio to
//! a link budget, streams a short surveillance sequence, and reports
//! the per-frame quality the receiver actually gets — including what
//! happens past the R = 0.4 break-even where compression stops paying.

use tepics::core::params;
use tepics::core::stream::{FRAME_RECORD_BYTES, STREAM_HEADER_BYTES};
use tepics::prelude::*;

/// Pick the largest ratio whose wire bits fit the per-frame budget. The
/// stream header crosses the link once; each frame pays its record
/// prefix and its packed samples.
fn ratio_for_budget(side: usize, sample_bits: u32, budget_bits: f64) -> f64 {
    let mn = (side * side) as f64;
    let record_bits = (FRAME_RECORD_BYTES * 8) as f64;
    ((budget_bits - record_bits) / sample_bits as f64 / mn).clamp(0.02, 1.0)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let side = 32;
    let fps = 30.0;
    let link_bps = 60_000.0; // a LoRa-class/acoustic-class starved link
    let budget_bits = link_bps / fps;
    let sample_bits = params::eq1_sample_bits(8, side as u32, side as u32);
    let raw_bits = params::raw_bits(side as u32, side as u32, 8) as f64;
    let ratio = ratio_for_budget(side, sample_bits, budget_bits);

    println!("link budget {link_bps:.0} bit/s at {fps:.0} fps -> {budget_bits:.0} bits/frame");
    println!(
        "raw readout needs {raw_bits:.0} bits/frame ({:.1}x the budget); \
         sample width {sample_bits} bits -> choosing R = {ratio:.3}",
        raw_bits / budget_bits
    );
    println!(
        "break-even ratio (Eq. 1): R < {:.2}; compressed-sample rate (Eq. 2): {:.1} kHz",
        params::breakeven_ratio(8, sample_bits),
        params::eq2_cs_rate(ratio, side as u32, side as u32, fps) / 1e3
    );

    // A short "surveillance" sequence: a blob (intruder) drifting across
    // a piecewise-smooth background, streamed as ONE wire container —
    // the seed and geometry cross the link once, in the stream header.
    let imager = CompressiveImager::builder(side, side)
        .ratio(ratio)
        .seed(0x5EC2)
        .build()?;
    let mut encoder = EncodeSession::new(imager)?;
    let mut truths = Vec::new();
    let mut expected_bytes = STREAM_HEADER_BYTES;
    for t in 0..6 {
        let background = Scene::piecewise_smooth(3).render(side, side, 77);
        let mut scene = background;
        // Moving target: a bright disk marching left to right.
        let cx = 4.0 + t as f64 * 4.5;
        let cy = 16.0 + (t as f64 * 0.9).sin() * 5.0;
        for y in 0..side {
            for x in 0..side {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                if dx * dx + dy * dy < 9.0 {
                    scene.set(x, y, 0.95);
                }
            }
        }
        let records = encoder.capture(&scene)?;
        expected_bytes += records
            .iter()
            .map(|f| FRAME_RECORD_BYTES + f.payload_bits().div_ceil(8))
            .sum::<usize>();
        truths.push(encoder.imager().ideal_codes(&scene).to_code_f64());
    }

    // The receiver: one decode session, Φ rebuilt once from the header
    // seed and reused for all six frames (watch the cache hit rate).
    let mut decoder = DecodeSession::new();
    let decoded = decoder.push_bytes(&encoder.to_bytes())?;
    println!("\nframe |   PSNR(dB) |  SSIM | solver iters");
    println!("------+------------+-------+-------------");
    for (d, truth) in decoded.iter().zip(&truths) {
        let recon = d.reconstruction.code_image();
        println!(
            "  {}   |    {:6.1}  | {:.3} |  {:5}",
            d.index,
            psnr(truth, recon, 255.0),
            ssim(truth, recon, 255.0),
            d.reconstruction.stats().iterations,
        );
    }
    let stats = decoder.cache().stats();
    let per_frame_raw = raw_bits * decoded.len() as f64;
    // Every bit on the link is accounted for: one stream header, then
    // per frame a record prefix and the bit-packed samples.
    assert_eq!(encoder.wire_bits(), expected_bytes * 8);
    println!(
        "\nstream: {} bits for {} frames ({:.1}% saving vs raw; a {}-byte \
         header once, then {} bytes of record prefix per frame); operator \
         cache {:.0}% hit rate",
        encoder.wire_bits(),
        decoded.len(),
        (1.0 - encoder.wire_bits() as f64 / per_frame_raw) * 100.0,
        STREAM_HEADER_BYTES,
        FRAME_RECORD_BYTES,
        stats.hit_rate() * 100.0
    );

    // What if the operator ignores the break-even rule? Past R = 0.4 the
    // compressed stream is *larger* than the raw image.
    println!("\nR sweep (Eq. 1 break-even check, {side}x{side}, {sample_bits}-bit samples):");
    for r in [0.1, 0.25, 0.4, 0.5, 0.6] {
        let k = (r * (side * side) as f64).ceil() as u32;
        let compressed = params::compressed_bits(k, sample_bits);
        println!(
            "  R = {r:.2}: {compressed:6} bits vs raw {raw_bits:.0} -> {}",
            if (compressed as f64) < raw_bits {
                "compression wins"
            } else {
                "send the raw image instead"
            }
        );
    }
    Ok(())
}
