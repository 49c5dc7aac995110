//! Transient detection on star fields — compressed-domain differencing.
//!
//! ```text
//! cargo run --release --example astro_transient
//! ```
//!
//! The INAOE co-authorship points at astronomy: star fields are sparse
//! in the *pixel* domain, the best case for compressive acquisition.
//! This example exploits a property the paper's architecture gets for
//! free: two frames captured with the **same seed** use the identical
//! measurement matrix, so the difference of their compressed samples is
//! a compressed measurement of the difference image,
//! `y₂ − y₁ = Φ(x₂ − x₁)`. A transient (new source) is a 1-sparse-ish
//! difference — recoverable from very few samples with IHT and an
//! identity dictionary, without ever reconstructing the full frames.

use tepics::cs::dictionary::IdentityDictionary;
use tepics::cs::ComposedOperator;
use tepics::prelude::*;
use tepics::recovery::{Iht, Solver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let side = 32;
    // Aggressive compression: 12% of the pixel count.
    let ratio = 0.12;
    let seed = 0xA57;

    let night1 = Scene::star_field(18).render(side, side, 900);
    // Night 2: same sky plus one new source (the transient).
    let mut night2 = night1.clone();
    let (tx, ty) = (21usize, 9usize);
    for dy in -2i64..=2 {
        for dx in -2i64..=2 {
            let x = (tx as i64 + dx).clamp(0, side as i64 - 1) as usize;
            let y = (ty as i64 + dy).clamp(0, side as i64 - 1) as usize;
            let d2 = (dx * dx + dy * dy) as f64;
            let add = 0.85 * (-d2 / 1.0).exp();
            night2.set(x, y, (night2.get(x, y) + add).min(1.0));
        }
    }

    // Same seed ⇒ same Φ on both nights. Both captures travel as one
    // stream: the seed crosses the downlink once, in the stream header.
    let imager = CompressiveImager::builder(side, side)
        .ratio(ratio)
        .seed(seed)
        .build()?;
    let mut encoder = EncodeSession::new(imager)?;
    encoder.capture(&night1)?;
    encoder.capture(&night2)?;
    let downlink = encoder.into_bytes();

    // Ground station: re-parse the two frames from the raw stream bytes.
    let mut parser = tepics::core::stream::StreamParser::new();
    parser.push_bytes(&downlink);
    let f1 = parser.next_frame()?.expect("night 1 in stream");
    let f2 = parser.next_frame()?.expect("night 2 in stream");
    println!(
        "two nights captured at R = {ratio}: {} samples each (full frame would be {} pixels), \
         {} bytes downlinked",
        f1.sample_count(),
        side * side,
        downlink.len()
    );

    // Compressed-domain difference.
    let dy_samples: Vec<f64> = f2
        .samples
        .iter()
        .zip(&f1.samples)
        .map(|(&a, &b)| a as f64 - b as f64)
        .collect();
    let nonzero = dy_samples.iter().filter(|&&v| v != 0.0).count();
    println!(
        "sample difference: {nonzero}/{} entries changed",
        dy_samples.len()
    );

    // Recover the difference image: pixel-sparse, so identity dictionary
    // + hard thresholding. Rebuild Φ from the shared seed.
    let decoder = Decoder::for_frame(&f1)?;
    let phi = decoder.rebuild_measurement(f1.sample_count())?;
    let dict = IdentityDictionary::new(side * side);
    let a = ComposedOperator::new(&phi, &dict);
    let recovery = Iht::new(30).max_iter(200).solve(&a, &dy_samples)?;

    // Locate the transient: strongest |difference| pixel.
    let (best_px, best_val) = recovery
        .coefficients
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
        .expect("non-empty");
    let (bx, by) = (best_px % side, best_px / side);
    println!(
        "transient localized at ({bx}, {by}) with code change {best_val:.1} \
         (injected at ({tx}, {ty}))"
    );
    println!(
        "solver: {} iterations, residual {:.2}",
        recovery.stats.iterations, recovery.stats.residual_norm
    );

    // Render the detection map.
    let detection = ImageF64::from_vec(
        side,
        side,
        recovery.coefficients.iter().map(|&v| v.abs()).collect(),
    )
    .normalized();
    println!("detection map:\n{}", detection.to_ascii());

    let hit = bx.abs_diff(tx) <= 1 && by.abs_diff(ty) <= 1;
    println!(
        "{}",
        if hit {
            "transient recovered from compressed samples alone ✔"
        } else {
            "transient missed — try more samples (higher R)"
        }
    );
    Ok(())
}
