//! The receiver-side decoder.
//!
//! The decoder never sees Φ — it *regenerates* it by replaying the
//! strategy generator from the seed in the frame header (the paper's
//! "error-free reconstructed from the initial seed" property). Recovery
//! then runs in two exact stages:
//!
//! 1. **Mean split.** Rows of Φ are 0/1 masks with known selection
//!    counts `c_k`, so the scene's mean code is estimated by least
//!    squares: `μ̂ = ⟨c, y⟩ / ⟨c, c⟩`. This removes the enormous DC
//!    gain that would otherwise dominate the operator spectrum.
//! 2. **Sparse recovery** of the zero-mean residual through a DC-pinned
//!    dictionary: `ỹ = y − μ̂·c ≈ Φ Ψ₀ β`, solved by any
//!    [`SolverKind`](crate::solver::SolverKind) — debiased FISTA by
//!    default — dispatched dynamically through the [`Solver`] trait.
//!
//! The reconstruction is the code image `x̂ = clamp(μ̂ + Ψ₀ β̂)`;
//! [`Reconstruction::to_intensity`] inverts the pulse-modulation
//! transfer for display.

use std::sync::Arc;

use crate::cache::{OperatorCache, OperatorKey};
use crate::error::CoreError;
use crate::frame::{CompressedFrame, FrameHeader};
use crate::solver::RecoveryParams;
use tepics_cs::dictionary::{
    Dct2dDictionary, Dictionary, Haar2dDictionary, IdentityDictionary, ZeroMeanDictionary,
};
use tepics_cs::op;
use tepics_cs::{ComposedOperator, XorMeasurement};
use tepics_imaging::ImageF64;
use tepics_recovery::solver::norm_seeds;
use tepics_recovery::{Debias, Iht, SolveStats, Solver, SolverWorkspace};
use tepics_sensor::photodiode::intensity_from_crossing;
use tepics_sensor::{CodeTransfer, SensorConfig};

/// Sparsifying dictionary families available to the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum DictionaryKind {
    /// 2-D DCT (default; best for smooth/natural content).
    #[default]
    Dct2d,
    /// 2-D Haar wavelets (piecewise-constant content).
    Haar2d,
    /// Identity — pixel-domain sparsity (star fields).
    Identity,
}

/// A dictionary shared across threads through the operator cache.
pub(crate) type SharedDictionary = Arc<dyn Dictionary + Send + Sync>;

/// Builds the dictionary for one geometry (row-major `rows × cols`),
/// with the DC atom pinned where the mean split removes it.
pub(crate) fn build_dictionary(kind: DictionaryKind, rows: usize, cols: usize) -> SharedDictionary {
    match kind {
        DictionaryKind::Dct2d => {
            Arc::new(ZeroMeanDictionary::new(Dct2dDictionary::new(cols, rows), 0))
        }
        DictionaryKind::Haar2d => Arc::new(ZeroMeanDictionary::new(
            Haar2dDictionary::new(cols, rows),
            0,
        )),
        DictionaryKind::Identity => Arc::new(IdentityDictionary::new(rows * cols)),
    }
}

/// A reconstructed frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconstruction {
    codes: ImageF64,
    mean_code: f64,
    stats: SolveStats,
}

impl Reconstruction {
    /// Assembles a reconstruction from parts (frames stitched from tiles,
    /// and delta-decoded ones).
    pub(crate) fn from_parts(codes: ImageF64, mean_code: f64, stats: SolveStats) -> Reconstruction {
        Reconstruction {
            codes,
            mean_code,
            stats,
        }
    }

    /// The reconstructed code image (the domain the sensor measures in).
    pub fn code_image(&self) -> &ImageF64 {
        &self.codes
    }

    /// The mean-split estimate of the scene's mean code.
    pub fn mean_code(&self) -> f64 {
        self.mean_code
    }

    /// Solver diagnostics.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Inverts the sensor transfer to produce an intensity image in
    /// `[0, 1]` (reciprocal pulse-modulation map or the linearized
    /// control, depending on the configuration).
    pub fn to_intensity(&self, config: &SensorConfig) -> ImageF64 {
        let code_max = config.code_max() as f64;
        match config.transfer() {
            CodeTransfer::Linearized => self.codes.map(|c| (c / code_max).clamp(0.0, 1.0)),
            CodeTransfer::Reciprocal => self.codes.map(|c| {
                let t_arrival = config.initial_delay() + (c + 0.5) * config.t_clk();
                let t_cross = (t_arrival - config.comparator_delay()).max(1e-12);
                intensity_from_crossing(config, t_cross)
            }),
        }
    }
}

/// Stage 1 of every decode: the least-squares scene mean
/// `μ̂ = ⟨c, y⟩ / ⟨c, c⟩` from the selection counts `c`, clamped to
/// `[0, code_max]` (0 when every count is zero), and the zero-mean
/// residual `y − μ̂·c` that stage 2 recovers.
pub(crate) fn mean_split(counts: &[f64], samples: &[f64], code_max: f64) -> (f64, Vec<f64>) {
    let cc = op::dot(counts, counts);
    let mean = if cc > 0.0 {
        (op::dot(counts, samples) / cc).clamp(0.0, code_max)
    } else {
        0.0
    };
    let resid = samples
        .iter()
        .zip(counts)
        .map(|(&yi, &ci)| yi - mean * ci)
        .collect();
    (mean, resid)
}

/// Receiver-side decoder bound to a frame's header.
///
/// This is the per-frame recovery engine that every decode runs
/// through: [`DecodeSession`](crate::session::DecodeSession) drives it
/// per tile, and a one-shot `Decoder::for_frame(&f)?.reconstruct(&f)`
/// uses it directly. Φ, the selection counts, the dictionary, the
/// solver's step size and the greedy solvers' Gram store always
/// come from an [`OperatorCache`] — a private one by default, or a
/// shared one attached with [`Decoder::use_cache`] so they are built
/// once across frames and streams.
#[derive(Debug, Clone)]
pub struct Decoder {
    header: FrameHeader,
    params: RecoveryParams,
    cache: Arc<OperatorCache>,
}

impl Decoder {
    /// Creates a decoder matching a frame header, with the default
    /// dictionary (DCT) and algorithm (debiased FISTA).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] for degenerate headers.
    pub fn for_frame(frame: &CompressedFrame) -> Result<Decoder, CoreError> {
        Decoder::for_header(&frame.header)
    }

    /// Creates a decoder from a header alone (e.g. a stream header,
    /// before any frame payload has arrived).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedFrame`] for degenerate headers.
    pub fn for_header(h: &FrameHeader) -> Result<Decoder, CoreError> {
        h.validate()?;
        Ok(Decoder {
            header: *h,
            params: RecoveryParams::default(),
            cache: OperatorCache::shared(),
        })
    }

    /// Selects the recovery algorithm and sparsifying dictionary (any
    /// [`SolverKind`](crate::solver::SolverKind); the solver is
    /// dispatched dynamically through the [`Solver`] trait).
    pub fn params(&mut self, params: RecoveryParams) -> &mut Self {
        self.params = params;
        self
    }

    /// Decodes through a shared operator cache instead of the private
    /// one: Φ, the selection counts, the dictionary and the solver's
    /// step size are then built once per key across every decoder that
    /// shares it. Results are the same either way.
    pub fn use_cache(&mut self, cache: Arc<OperatorCache>) -> &mut Self {
        self.cache = cache;
        self
    }

    /// The header this decoder was built from.
    pub(crate) fn header(&self) -> &FrameHeader {
        &self.header
    }

    /// The cache key for a `k`-measurement frame on this decoder.
    pub(crate) fn operator_key(&self, k: usize) -> OperatorKey {
        OperatorKey {
            rows: self.header.rows,
            cols: self.header.cols,
            strategy: self.header.strategy,
            seed: self.header.seed,
            k,
        }
    }

    /// Rebuilds the measurement matrix exactly as the sensor generated
    /// it (CA replay from the seed).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the strategy parameters
    /// are invalid.
    pub fn rebuild_measurement(&self, k: usize) -> Result<XorMeasurement, CoreError> {
        let (rows, cols) = (usize::from(self.header.rows), usize::from(self.header.cols));
        let mut source = self
            .header
            .strategy
            .build_source(rows + cols, self.header.seed)?;
        Ok(XorMeasurement::from_source(rows, cols, source.as_mut(), k))
    }

    /// Reconstructs the code image from a frame.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FrameMismatch`] if the frame header differs
    /// from this decoder's, or [`CoreError::Recovery`] if the solver
    /// rejects the problem.
    pub fn reconstruct(&self, frame: &CompressedFrame) -> Result<Reconstruction, CoreError> {
        self.reconstruct_with(frame, &mut SolverWorkspace::new())
    }

    /// Like [`Decoder::reconstruct`], reusing `workspace` for the
    /// solver buffers. Repeated decodes through one workspace — what
    /// [`DecodeSession`](crate::session::DecodeSession) does per stream
    /// — allocate nothing inside the solver loop for *every*
    /// [`SolverKind`](crate::solver::SolverKind), including the greedy
    /// pursuits and the CGLS debias pass, and the results are
    /// bit-identical to [`Decoder::reconstruct`].
    ///
    /// # Errors
    ///
    /// Same as [`Decoder::reconstruct`].
    pub fn reconstruct_with(
        &self,
        frame: &CompressedFrame,
        workspace: &mut SolverWorkspace,
    ) -> Result<Reconstruction, CoreError> {
        // The whole header must match: a differing code or sample width
        // would decode against the wrong clamp range.
        if frame.header != self.header {
            return Err(CoreError::FrameMismatch(
                "frame header does not match decoder configuration".into(),
            ));
        }
        if frame.samples.is_empty() {
            return Err(CoreError::MalformedFrame("frame has no samples".into()));
        }
        let k = frame.samples.len();
        let key = self.operator_key(k);
        let RecoveryParams {
            solver: kind,
            dictionary,
        } = self.params;
        let (phi, counts) = self.cache.operator(&key)?;
        let dict = self
            .cache
            .dictionary(dictionary, self.header.rows, self.header.cols);
        let code_max = f64::from((1u32 << self.header.code_bits) - 1);
        let y: Vec<f64> = frame.samples.iter().map(|&s| s as f64).collect();
        // Stage 1: mean split from the known selection counts.
        let (mean_code, resid) = mean_split(&counts, &y, code_max);
        // Stage 2: sparse recovery of the zero-mean component, through
        // the unified Solver trait (dynamic dispatch; the concrete
        // solver lives on this stack frame).
        let a = ComposedOperator::new(phi.as_ref(), dict.as_ref())
            .with_scratch(workspace.take_composed());
        // The greedy solvers get the key's shared Gram store, filled as
        // they select atoms.
        let a = if kind.reads_gram() {
            a.with_gram_store(self.cache.gram_store(&key, dictionary))
        } else {
            a
        };
        // Solvers that estimate ‖ΦΨ‖ internally get the estimate
        // precomputed and memoized per (operator, dictionary, solver
        // seed). It is the estimate the solver would compute itself, so
        // the override is bit-transparent.
        let norm = kind.norm_seed().and_then(|seed| {
            self.cache
                .operator_norm(&key, dictionary, seed, || norm_seeds::estimate(&a, seed))
        });
        let built = kind.instantiate(norm);
        let base = built.as_solver();
        let debiased;
        let solver: &dyn Solver = if kind.debias() {
            debiased = Debias::new(base, k / 2);
            &debiased
        } else {
            base
        };
        let recovery = solver.solve_with(&a, &resid, workspace)?;
        let stats = recovery.stats.clone();
        // Final synthesis through the donated scratch, which is then
        // returned to the workspace so the next frame's decode starts
        // with every buffer already warm.
        let mut donated = a.into_scratch();
        let (pixels, dict_scratch) = donated.pixels_and_dict();
        pixels.resize(dict.dim(), 0.0);
        dict.synthesize_with(&recovery.coefficients, pixels, dict_scratch);
        let codes = ImageF64::from_vec(
            usize::from(self.header.cols),
            usize::from(self.header.rows),
            pixels
                .iter()
                .map(|&vi| (mean_code + vi).clamp(0.0, code_max))
                .collect(),
        );
        workspace.store_composed(donated);
        Ok(Reconstruction {
            codes,
            mean_code,
            stats,
        })
    }

    /// Delta recovery against the previous frame of a chain:
    /// `y_t − y_{t−1} = Φ(x_t − x_{t−1})`, solved pixel-sparse (IHT over
    /// the identity dictionary, `sparsity` pixels) and added to
    /// `prev_codes`, reporting `mean_code` (the chain's key mean). The
    /// caller checks that `frame` matches the chain's header and length.
    pub(crate) fn recover_delta(
        &self,
        frame: &CompressedFrame,
        prev_samples: &[u32],
        prev_codes: &ImageF64,
        mean_code: f64,
        sparsity: usize,
        workspace: &mut SolverWorkspace,
    ) -> Result<Reconstruction, CoreError> {
        let dy: Vec<f64> = frame
            .samples
            .iter()
            .zip(prev_samples)
            .map(|(&a, &b)| a as f64 - b as f64)
            .collect();
        let key = self.operator_key(frame.samples.len());
        let (phi, _) = self.cache.operator(&key)?;
        let dict = IdentityDictionary::new(prev_codes.len());
        let a = ComposedOperator::new(phi.as_ref(), &dict).with_scratch(workspace.take_composed());
        // IHT's step comes from the key's memoized norm, the estimate it
        // would compute itself: bit-transparent, and once per key.
        let seed = norm_seeds::IHT;
        let norm = self
            .cache
            .operator_norm(&key, DictionaryKind::Identity, seed, || {
                norm_seeds::estimate(&a, seed)
            });
        let mut iht = Iht::new(sparsity);
        iht.max_iter(200);
        if let Some(norm) = norm {
            iht.step(norm_seeds::step(norm));
        }
        let rec = iht.solve_with(&a, &dy, workspace)?;
        workspace.store_composed(a.into_scratch());
        let code_max = ((1u32 << frame.header.code_bits) - 1) as f64;
        let mut codes = prev_codes.clone();
        for (p, &d) in codes.as_mut_slice().iter_mut().zip(&rec.coefficients) {
            *p = (*p + d).clamp(0.0, code_max);
        }
        Ok(Reconstruction::from_parts(codes, mean_code, rec.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imager::CompressiveImager;
    use crate::solver::SolverKind;
    use tepics_imaging::{psnr, Scene};
    use tepics_sensor::Fidelity;

    fn imager(ratio: f64, seed: u64) -> CompressiveImager {
        CompressiveImager::builder(16, 16)
            .ratio(ratio)
            .seed(seed)
            .fidelity(Fidelity::Functional)
            .build()
            .unwrap()
    }

    #[test]
    fn uniform_scene_is_recovered_almost_exactly() {
        // For a constant code image the mean split alone nails it.
        let im = imager(0.2, 3);
        let scene = Scene::Uniform(0.5).render(16, 16, 0);
        let frame = im.capture(&scene);
        let recon = Decoder::for_frame(&frame)
            .unwrap()
            .reconstruct(&frame)
            .unwrap();
        let truth = im.ideal_codes(&scene).to_code_f64();
        let db = psnr(&truth, recon.code_image(), 255.0);
        assert!(db > 45.0, "uniform reconstruction {db} dB");
        let expected = truth.as_slice()[0];
        assert!((recon.mean_code() - expected).abs() < 1.0);
    }

    #[test]
    fn for_header_rejects_sample_widths_outside_one_to_thirty_two() {
        let header = imager(0.2, 3)
            .capture(&Scene::Uniform(0.5).render(16, 16, 0))
            .header;
        for sample_bits in [0, 33] {
            let bad = FrameHeader {
                sample_bits,
                ..header
            };
            assert!(
                matches!(Decoder::for_header(&bad), Err(CoreError::MalformedFrame(_))),
                "sample width {sample_bits} accepted"
            );
        }
        for sample_bits in [1, 32] {
            let edge = FrameHeader {
                sample_bits,
                ..header
            };
            assert!(
                Decoder::for_header(&edge).is_ok(),
                "sample width {sample_bits}"
            );
        }
    }

    #[test]
    fn blobs_scene_reconstructs_well_at_forty_percent() {
        let im = imager(0.4, 7);
        let scene = Scene::gaussian_blobs(2).render(16, 16, 11);
        let frame = im.capture(&scene);
        let recon = Decoder::for_frame(&frame)
            .unwrap()
            .reconstruct(&frame)
            .unwrap();
        let truth = im.ideal_codes(&scene).to_code_f64();
        let db = psnr(&truth, recon.code_image(), 255.0);
        assert!(db > 24.0, "blobs reconstruction {db} dB");
    }

    #[test]
    fn quality_improves_with_ratio() {
        let scene = Scene::gaussian_blobs(3).render(16, 16, 2);
        let mut last = 0.0;
        for ratio in [0.1, 0.25, 0.45] {
            let im = imager(ratio, 5);
            let frame = im.capture(&scene);
            let recon = Decoder::for_frame(&frame)
                .unwrap()
                .reconstruct(&frame)
                .unwrap();
            let truth = im.ideal_codes(&scene).to_code_f64();
            let db = psnr(&truth, recon.code_image(), 255.0);
            assert!(
                db > last - 1.0,
                "PSNR should not collapse as ratio grows: {db} after {last}"
            );
            last = last.max(db);
        }
        assert!(last > 22.0);
    }

    #[test]
    fn wrong_seed_frame_is_rejected() {
        let im = imager(0.2, 1);
        let scene = Scene::gaussian_blobs(2).render(16, 16, 1);
        let mut frame = im.capture(&scene);
        let decoder = Decoder::for_frame(&frame).unwrap();
        frame.header.seed = 999; // receiver believes a different seed
        assert!(matches!(
            decoder.reconstruct(&frame),
            Err(CoreError::FrameMismatch(_))
        ));
        // Same seed, wider codes: the clamp range would be wrong.
        frame.header.seed = 1;
        frame.header.code_bits += 2;
        assert!(matches!(
            decoder.reconstruct(&frame),
            Err(CoreError::FrameMismatch(_))
        ));
    }

    #[test]
    fn desynchronized_seed_destroys_reconstruction() {
        // Same geometry, but the decoder replays a different CA seed:
        // reconstruction must be garbage. This is the paper's security/
        // synchronization property in negative form.
        let im = imager(0.4, 42);
        let scene = Scene::gaussian_blobs(2).render(16, 16, 4);
        let frame = im.capture(&scene);
        let mut wrong = frame.clone();
        wrong.header.seed = 43;
        let decoder = Decoder::for_frame(&wrong).unwrap();
        let recon = decoder.reconstruct(&wrong).unwrap();
        let truth = im.ideal_codes(&scene).to_code_f64();
        let db = psnr(&truth, recon.code_image(), 255.0);
        let im_db = {
            let good = Decoder::for_frame(&frame)
                .unwrap()
                .reconstruct(&frame)
                .unwrap();
            psnr(&truth, good.code_image(), 255.0)
        };
        assert!(
            db + 6.0 < im_db,
            "wrong seed should lose ≥6 dB: wrong {db:.1} vs right {im_db:.1}"
        );
    }

    #[test]
    fn all_algorithms_produce_finite_reconstructions() {
        let im = imager(0.4, 9);
        let scene = Scene::star_field(6).render(16, 16, 3);
        let frame = im.capture(&scene);
        for alg in SolverKind::shootout_set(frame.samples.len()) {
            let mut dec = Decoder::for_frame(&frame).unwrap();
            dec.params(RecoveryParams {
                solver: alg,
                ..RecoveryParams::default()
            });
            let recon = dec.reconstruct(&frame).unwrap();
            assert!(
                recon.code_image().as_slice().iter().all(|v| v.is_finite()),
                "{alg:?} produced non-finite codes"
            );
        }
    }

    #[test]
    fn recovery_params_presets_apply() {
        let im = imager(0.4, 15);
        let scene = Scene::star_field(5).render(16, 16, 8);
        let frame = im.capture(&scene);
        let mut dec = Decoder::for_frame(&frame).unwrap();
        dec.params(RecoveryParams::star_field(8));
        let recon = dec.reconstruct(&frame).unwrap();
        assert!(recon.code_image().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn haar_dictionary_beats_dct_on_piecewise_scenes() {
        let im = imager(0.45, 13);
        let scene = Scene::Checkerboard { tile: 4 }.render(16, 16, 0);
        let frame = im.capture(&scene);
        let truth = im.ideal_codes(&scene).to_code_f64();
        let mut dct = Decoder::for_frame(&frame).unwrap();
        dct.params(RecoveryParams::natural());
        let mut haar = Decoder::for_frame(&frame).unwrap();
        haar.params(RecoveryParams::piecewise());
        let db_dct = psnr(&truth, dct.reconstruct(&frame).unwrap().code_image(), 255.0);
        let db_haar = psnr(
            &truth,
            haar.reconstruct(&frame).unwrap().code_image(),
            255.0,
        );
        assert!(
            db_haar > db_dct,
            "Haar {db_haar:.1} dB should beat DCT {db_dct:.1} dB on a checkerboard"
        );
    }

    #[test]
    fn intensity_inversion_is_monotone() {
        let im = imager(0.3, 21);
        let scene = Scene::LinearGradient { angle: 0.0 }.render(16, 16, 0);
        let frame = im.capture(&scene);
        let recon = Decoder::for_frame(&frame)
            .unwrap()
            .reconstruct(&frame)
            .unwrap();
        let intensity = recon.to_intensity(im.sensor_config());
        assert!(intensity
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }
}
