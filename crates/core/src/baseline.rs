//! Block-based compressive sampling — the literature baseline.
//!
//! The paper positions its full-frame strategy against block-based CS
//! (refs. \[6–8\], \[11\]): split the image into B×B blocks, measure each
//! with an independent small Φ_b, reconstruct per block. Blocks need
//! only `N_b + log2 B²` sample bits (14 for 8×8) and tiny matrices, but
//! "reconstruction departs from ideal and may require additional
//! samples" — exactly the trade-off the `ffvb` experiment measures.
//!
//! The baseline shares the sensor front-end: it operates on the same
//! ideal code image the full-frame pipeline measures, so the comparison
//! isolates the measurement *organization*. It also shares the codec's
//! machinery: the block grid is a zero-overlap [`TileLayout`] (the
//! tiled decode's splitter and stitcher), and each block's mean comes
//! from the decoder's mean split.

use crate::decoder::mean_split;
use crate::error::CoreError;
use tepics_cs::dictionary::{Dct2dDictionary, Dictionary, ZeroMeanDictionary};
use tepics_cs::measurement::{DenseBinaryMeasurement, SelectionMeasurement};
use tepics_cs::{ComposedOperator, LinearOperator};
use tepics_imaging::tile::{merge_tiles_sparse, split_tiles, TileLayout};
use tepics_imaging::{FrameGeometry, ImageF64, ImageU8, TileConfig};
use tepics_recovery::{Debias, Fista, Solver};

/// A captured block-based frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockFrame {
    /// Block side length B.
    pub block: usize,
    /// Measurements per block.
    pub k_per_block: usize,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Per-block Bernoulli seed base.
    pub seed: u64,
    /// Samples, block-major then measurement-major.
    pub samples: Vec<u32>,
}

impl BlockFrame {
    /// Total compression ratio `K_total / (M·N)`.
    pub fn ratio(&self) -> f64 {
        self.samples.len() as f64 / (self.width * self.height) as f64
    }

    /// Payload bits at the block-based sample width
    /// (`code_bits + log2 B²`).
    pub fn payload_bits(&self, code_bits: u32) -> u64 {
        let sample_bits =
            tepics_util::fixed::sum_bits(code_bits, self.block as u32, self.block as u32);
        self.samples.len() as u64 * sample_bits as u64
    }
}

/// Block-based CS encoder/decoder pair.
///
/// # Examples
///
/// ```
/// use tepics_core::BlockCs;
/// use tepics_imaging::Scene;
///
/// let codes = Scene::gaussian_blobs(2).render(32, 32, 1).map(|v| (v * 255.0).round());
/// let bcs = BlockCs::new(32, 32, 8, 0.4, 7).unwrap();
/// let frame = bcs.capture(&codes);
/// let recon = bcs.reconstruct(&frame).unwrap();
/// assert_eq!(recon.width(), 32);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCs {
    layout: TileLayout,
    block: usize,
    ratio: f64,
    seed: u64,
}

impl BlockCs {
    /// Creates a block-based pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the image is not
    /// divisible into `block × block` tiles, the block is smaller than
    /// the paper's practical minimum of 8, or the ratio is outside
    /// `(0, 1]`.
    pub fn new(
        width: usize,
        height: usize,
        block: usize,
        ratio: f64,
        seed: u64,
    ) -> Result<BlockCs, CoreError> {
        if block < 8 {
            // Sect. II: "blocks ... minimum practical size of 8×8".
            return Err(CoreError::InvalidConfig(format!(
                "block {block} below the practical minimum of 8"
            )));
        }
        if width == 0
            || height == 0
            || !width.is_multiple_of(block)
            || !height.is_multiple_of(block)
        {
            return Err(CoreError::InvalidConfig(format!(
                "{width}×{height} not divisible into {block}×{block} blocks"
            )));
        }
        if !(ratio > 0.0 && ratio <= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "ratio {ratio} outside (0,1]"
            )));
        }
        // The divisibility check above keeps every block in place: no
        // edge tile is shifted back over its neighbour.
        let layout = TileLayout::new(FrameGeometry::new(width, height), &TileConfig::new(block))
            .map_err(|e| CoreError::InvalidConfig(e.to_string()))?;
        Ok(BlockCs {
            layout,
            block,
            ratio,
            seed,
        })
    }

    /// Measurements per block (`⌈R·B²⌉`, at least 1).
    pub fn k_per_block(&self) -> usize {
        ((self.ratio * (self.block * self.block) as f64).ceil() as usize).max(1)
    }

    /// The per-block measurement for block index `b` (deterministic in
    /// the seed, distinct per block).
    fn block_measurement(&self, b: usize) -> DenseBinaryMeasurement {
        DenseBinaryMeasurement::bernoulli(
            self.k_per_block(),
            self.block * self.block,
            self.seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(b as u64 + 1)),
            0.5,
        )
    }

    /// Captures block-based compressed samples from a code image
    /// (values expected in `[0, 255]`).
    ///
    /// # Panics
    ///
    /// Panics if the image size does not match the pipeline.
    pub fn capture(&self, codes: &ImageF64) -> BlockFrame {
        let geometry = self.layout.frame();
        assert_eq!(
            (codes.width(), codes.height()),
            (geometry.width(), geometry.height()),
            "code image size mismatch"
        );
        let tiles = split_tiles(codes, &self.layout);
        let mut samples = Vec::with_capacity(tiles.len() * self.k_per_block());
        let mut y = vec![0.0; self.k_per_block()];
        for (b, tile) in tiles.iter().enumerate() {
            self.block_measurement(b).apply(tile, &mut y);
            samples.extend(y.iter().map(|&v| v.round().max(0.0) as u32));
        }
        BlockFrame {
            block: self.block,
            k_per_block: self.k_per_block(),
            width: geometry.width(),
            height: geometry.height(),
            seed: self.seed,
            samples,
        }
    }

    /// Convenience: captures directly from an 8-bit code image.
    pub fn capture_codes(&self, codes: &ImageU8) -> BlockFrame {
        self.capture(&codes.to_code_f64())
    }

    /// Reconstructs the code image from a block frame (per-block
    /// mean-split + DC-pinned DCT + debiased FISTA).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FrameMismatch`] if the frame does not match
    /// this pipeline, or recovery errors from the per-block solver.
    pub fn reconstruct(&self, frame: &BlockFrame) -> Result<ImageF64, CoreError> {
        let geometry = self.layout.frame();
        if frame.block != self.block
            || frame.width != geometry.width()
            || frame.height != geometry.height()
            || frame.seed != self.seed
            || frame.k_per_block != self.k_per_block()
        {
            return Err(CoreError::FrameMismatch(
                "block frame does not match pipeline configuration".into(),
            ));
        }
        let n_blocks = self.layout.tiles();
        if frame.samples.len() != n_blocks * frame.k_per_block {
            return Err(CoreError::MalformedFrame(format!(
                "expected {} samples, got {}",
                n_blocks * frame.k_per_block,
                frame.samples.len()
            )));
        }
        let dict = ZeroMeanDictionary::new(Dct2dDictionary::new(self.block, self.block), 0);
        let mut tiles = Vec::with_capacity(n_blocks);
        let mut pixels = vec![0.0; self.block * self.block];
        let mut dict_scratch = Vec::new();
        let mut fista = Fista::new();
        fista.lambda_ratio(0.02).max_iter(300);
        let solver = Debias::new(&fista, frame.k_per_block / 2);
        for b in 0..n_blocks {
            let phi = self.block_measurement(b);
            let y: Vec<f64> = frame.samples[b * frame.k_per_block..(b + 1) * frame.k_per_block]
                .iter()
                .map(|&v| v as f64)
                .collect();
            let (mu, resid) = mean_split(&phi.selection_counts(), &y, 255.0);
            let a = ComposedOperator::new(&phi, &dict);
            let rec = solver.solve(&a, &resid)?;
            dict.synthesize_with(&rec.coefficients, &mut pixels, &mut dict_scratch);
            tiles.push(Some(
                pixels
                    .iter()
                    .map(|&vi| (mu + vi).clamp(0.0, 255.0))
                    .collect(),
            ));
        }
        // Zero overlap: every blend weight is 1, so the stitch copies
        // each block's values unchanged.
        Ok(merge_tiles_sparse(&tiles, &self.layout).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_imaging::{psnr, Scene};

    fn code_image(seed: u64) -> ImageF64 {
        Scene::gaussian_blobs(3)
            .render(32, 32, seed)
            .map(|v| (v * 255.0).round())
    }

    #[test]
    fn roundtrip_reconstruction_is_reasonable() {
        let codes = code_image(4);
        let bcs = BlockCs::new(32, 32, 8, 0.5, 11).unwrap();
        let frame = bcs.capture(&codes);
        let recon = bcs.reconstruct(&frame).unwrap();
        let db = psnr(&codes, &recon, 255.0);
        assert!(db > 20.0, "block CS reconstruction {db} dB");
    }

    #[test]
    fn sample_count_matches_ratio() {
        let bcs = BlockCs::new(32, 32, 8, 0.25, 1).unwrap();
        assert_eq!(bcs.k_per_block(), 16);
        let frame = bcs.capture(&code_image(1));
        assert_eq!(frame.samples.len(), 16 * 16);
        assert!((frame.ratio() - 0.25).abs() < 0.01);
    }

    #[test]
    fn block_samples_fit_fourteen_bits() {
        let codes = ImageF64::new(32, 32, 255.0); // worst case
        let bcs = BlockCs::new(32, 32, 8, 0.3, 2).unwrap();
        let frame = bcs.capture(&codes);
        let max = frame.samples.iter().max().copied().unwrap();
        assert!(max < (1 << 14), "block sample {max} exceeds 14 bits");
        assert_eq!(frame.payload_bits(8), frame.samples.len() as u64 * 14);
    }

    #[test]
    fn blocks_use_independent_matrices() {
        let bcs = BlockCs::new(32, 32, 8, 0.3, 5).unwrap();
        assert_ne!(bcs.block_measurement(0), bcs.block_measurement(1));
    }

    #[test]
    fn mismatched_frame_is_rejected() {
        let bcs = BlockCs::new(32, 32, 8, 0.3, 5).unwrap();
        let other = BlockCs::new(32, 32, 8, 0.3, 6).unwrap();
        let frame = bcs.capture(&code_image(2));
        assert!(matches!(
            other.reconstruct(&frame),
            Err(CoreError::FrameMismatch(_))
        ));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(BlockCs::new(32, 32, 4, 0.3, 1).is_err()); // block too small
        assert!(BlockCs::new(30, 32, 8, 0.3, 1).is_err()); // not divisible
        assert!(BlockCs::new(32, 32, 8, 0.0, 1).is_err()); // bad ratio
    }
}
