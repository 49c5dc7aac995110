//! The compressive imager: scene in, compressed frame out.
//!
//! [`CompressiveImager`] binds a sensor configuration, a strategy
//! generator and a compression ratio into the capture side of the
//! paper's system. Each call to [`CompressiveImager::capture`] simulates
//! `K = R·M·N` compressed-sample slots through the event-accurate
//! readout (or the functional model, when configured) and packages the
//! result as a transmittable [`CompressedFrame`].
//!
//! # Tiled capture
//!
//! Recovery cost grows super-linearly in the pixel count, so large
//! frames are captured and decoded as independent uniform tiles:
//! configure the builder with [`CompressiveImagerBuilder::tiling`] (and
//! start from any [`FrameGeometry`] via
//! [`CompressiveImager::builder_for`] — no square or power-of-two
//! assumption). A tiled imager captures one [`CompressedFrame`] **per
//! tile** ([`CompressiveImager::capture_tiles_with_stats`], row-major
//! tile order);
//! the tiles share a single small measurement geometry, so one
//! operator-cache entry serves the whole frame, and the decode side
//! ([`DecodeSession`](crate::session::DecodeSession)) recovers them in
//! parallel and stitches with overlap blending.

use std::sync::Arc;

use crate::error::CoreError;
use crate::frame::{CompressedFrame, FrameHeader};
use crate::strategy::StrategyKind;
use tepics_imaging::tile::{FrameGeometry, TileConfig, TileLayout};
use tepics_imaging::{ImageF64, ImageU8};
use tepics_sensor::{EventStats, Fidelity, FrameReadout, SensorConfig};
use tepics_util::BitVec;

/// Capture engine configured for one sensor + strategy + ratio.
///
/// # Examples
///
/// ```
/// use tepics_core::CompressiveImager;
/// use tepics_imaging::Scene;
///
/// let imager = CompressiveImager::builder(32, 32)
///     .ratio(0.3)
///     .seed(7)
///     .build()
///     .unwrap();
/// let scene = Scene::gaussian_blobs(2).render(32, 32, 1);
/// let frame = imager.capture(&scene);
/// assert_eq!(frame.sample_count(), (0.3f64 * 1024.0).ceil() as usize);
/// ```
#[derive(Debug, Clone)]
pub struct CompressiveImager {
    config: SensorConfig,
    strategy: StrategyKind,
    seed: u64,
    ratio: f64,
    engine: Engine,
}

/// How a [`CompressiveImager`] captures a scene.
#[derive(Debug, Clone)]
enum Engine {
    /// One measurement of the whole frame.
    Single(Arc<Capture>),
    /// One measurement per tile.
    Tiled(TileEngine),
}

/// What an untiled imager captures with, built once by
/// [`CompressiveImagerBuilder::build`] and shared by every clone: the
/// readout with its noise model, and the `K` selection patterns. The
/// patterns are a pure function of (strategy, seed, `M+N`, `K`), so
/// every scene — and every tile of a tiled imager — reuses them.
#[derive(Debug)]
struct Capture {
    readout: FrameReadout,
    patterns: Vec<BitVec>,
}

/// The tiled-capture machinery of a tiled [`CompressiveImager`]: the
/// resolved layout plus the per-tile imager every tile is captured
/// with.
#[derive(Debug, Clone)]
struct TileEngine {
    config: TileConfig,
    layout: TileLayout,
    imager: Box<CompressiveImager>,
}

impl CompressiveImager {
    /// Starts a builder for an `rows × cols` imager.
    pub fn builder(rows: usize, cols: usize) -> CompressiveImagerBuilder {
        CompressiveImagerBuilder {
            rows,
            cols,
            config: None,
            strategy: None,
            seed: 0x7E91C5,
            ratio: 0.35,
            fidelity: Fidelity::EventAccurate,
            tiling: None,
        }
    }

    /// Starts a builder for a frame of the given geometry — the
    /// geometry-first spelling of [`CompressiveImager::builder`]
    /// (`width` maps to columns, `height` to rows; no square or
    /// power-of-two assumption).
    ///
    /// # Examples
    ///
    /// ```
    /// use tepics_core::CompressiveImager;
    /// use tepics_imaging::{FrameGeometry, TileConfig};
    ///
    /// let imager = CompressiveImager::builder_for(FrameGeometry::new(40, 28))
    ///     .tiling(TileConfig::new(16).overlap(4))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(imager.tile_layout().unwrap().tiles(), 6);
    /// ```
    pub fn builder_for(geometry: FrameGeometry) -> CompressiveImagerBuilder {
        CompressiveImager::builder(geometry.height(), geometry.width())
    }

    /// The sensor configuration in use.
    pub fn sensor_config(&self) -> &SensorConfig {
        &self.config
    }

    /// The strategy generator.
    pub fn strategy(&self) -> StrategyKind {
        self.strategy
    }

    /// The strategy seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured compression ratio `R`.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// The full-frame geometry (`width = cols`, `height = rows`).
    pub fn geometry(&self) -> FrameGeometry {
        FrameGeometry::new(self.config.cols(), self.config.rows())
    }

    /// Whether this imager captures tiled frames.
    pub fn is_tiled(&self) -> bool {
        self.tiles().is_some()
    }

    fn tiles(&self) -> Option<&TileEngine> {
        match &self.engine {
            Engine::Tiled(t) => Some(t),
            Engine::Single(_) => None,
        }
    }

    /// The resolved tile layout, for a tiled imager.
    pub fn tile_layout(&self) -> Option<&TileLayout> {
        self.tiles().map(|t| &t.layout)
    }

    /// The tile configuration this imager was built with, for a tiled
    /// imager.
    pub fn tile_config(&self) -> Option<&TileConfig> {
        self.tiles().map(|t| &t.config)
    }

    /// The per-tile imager a tiled imager captures each tile with.
    pub fn tile_imager(&self) -> Option<&CompressiveImager> {
        self.tiles().map(|t| t.imager.as_ref())
    }

    /// Number of compressed samples per captured frame record — per
    /// **tile** for a tiled imager (`⌈R·tile_h·tile_w⌉`), per frame
    /// otherwise.
    pub fn sample_count(&self) -> usize {
        match &self.engine {
            Engine::Tiled(t) => t.imager.sample_count(),
            Engine::Single(capture) => capture.patterns.len(),
        }
    }

    /// The header every frame record captured by this imager carries
    /// (also the stream header of an
    /// [`EncodeSession`](crate::session::EncodeSession) built on it).
    /// For a tiled imager this is the **tile** header — the wire format
    /// carries the full-frame geometry in the stream's tile extension
    /// instead.
    pub fn frame_header(&self) -> FrameHeader {
        match self.tiles() {
            Some(t) => t.imager.frame_header(),
            None => FrameHeader {
                rows: self.config.rows() as u16,
                cols: self.config.cols() as u16,
                code_bits: self.config.counter_bits() as u8,
                sample_bits: tepics_util::fixed::sum_bits(
                    self.config.counter_bits(),
                    self.config.rows() as u32,
                    self.config.cols() as u32,
                ) as u8,
                strategy: self.strategy,
                seed: self.seed,
            },
        }
    }

    /// Captures a frame.
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions do not match the sensor (the
    /// builder validated everything else), or if the imager is tiled —
    /// a tiled capture produces one frame per tile; use
    /// [`CompressiveImager::capture_tiles_with_stats`].
    pub fn capture(&self, scene: &ImageF64) -> CompressedFrame {
        self.capture_with_stats(scene).0
    }

    /// Captures a frame and returns the event-level statistics next to
    /// it (queueing, missed pulses, LSB errors).
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions do not match the sensor, or if
    /// the imager is tiled (see [`CompressiveImager::capture`]).
    pub fn capture_with_stats(&self, scene: &ImageF64) -> (CompressedFrame, EventStats) {
        let Engine::Single(capture) = &self.engine else {
            // tidy:allow(panic: documented contract — a tiled imager captures through capture_tiles_with_stats)
            panic!("tiled imagers capture one frame per tile; use capture_tiles_with_stats");
        };
        let captured = capture.readout.capture_patterns(scene, &capture.patterns);
        let header = self.frame_header();
        (
            CompressedFrame {
                header,
                samples: captured.samples,
            },
            captured.stats,
        )
    }

    /// Captures a scene as a sequence of frame records — one per tile
    /// (row-major tile order) for a tiled imager, a single frame
    /// otherwise — together with the event statistics of all tile
    /// captures merged into one ([`EventStats::merge`]).
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions do not match the frame geometry.
    pub fn capture_tiles_with_stats(&self, scene: &ImageF64) -> (Vec<CompressedFrame>, EventStats) {
        let Some(engine) = self.tiles() else {
            let (frame, stats) = self.capture_with_stats(scene);
            return (vec![frame], stats);
        };
        let layout = &engine.layout;
        let tiles = tepics_imaging::tile::split_tiles(scene, layout);
        let mut frames = Vec::with_capacity(tiles.len());
        let mut stats = EventStats::default();
        for tile in tiles {
            let tile_img = ImageF64::from_vec(layout.tile_width(), layout.tile_height(), tile);
            let (frame, tile_stats) = engine.imager.capture_with_stats(&tile_img);
            stats.merge(&tile_stats);
            frames.push(frame);
        }
        (frames, stats)
    }

    /// The ideal (noise/arbitration-free) code image the decoder aims to
    /// reconstruct.
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions do not match the sensor.
    pub fn ideal_codes(&self, scene: &ImageF64) -> ImageU8 {
        FrameReadout::new(self.config.clone(), Fidelity::Functional).code_image(scene)
    }
}

/// Non-consuming builder for [`CompressiveImager`].
#[derive(Debug, Clone)]
pub struct CompressiveImagerBuilder {
    rows: usize,
    cols: usize,
    config: Option<SensorConfig>,
    strategy: Option<StrategyKind>,
    seed: u64,
    ratio: f64,
    fidelity: Fidelity,
    tiling: Option<TileConfig>,
}

impl CompressiveImagerBuilder {
    /// Uses an explicit sensor configuration (must match the builder's
    /// dimensions; incompatible with [`CompressiveImagerBuilder::tiling`],
    /// whose per-tile sensors are derived).
    pub fn sensor_config(&mut self, config: SensorConfig) -> &mut Self {
        self.config = Some(config);
        self
    }

    /// Captures the frame as overlapping uniform tiles instead of one
    /// monolithic measurement (see the module docs). The strategy,
    /// seed, ratio and fidelity settings apply to each tile; when no
    /// strategy is set explicitly, the default is chosen for the
    /// **tile** geometry.
    pub fn tiling(&mut self, config: TileConfig) -> &mut Self {
        self.tiling = Some(config);
        self
    }

    /// Sets the strategy generator (default: Rule-30 CA with `2(M+N)`
    /// warm-up).
    pub fn strategy(&mut self, strategy: StrategyKind) -> &mut Self {
        self.strategy = Some(strategy);
        self
    }

    /// Sets the strategy seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the compression ratio `R ∈ (0, 1]` (default 0.35; the paper
    /// argues `R < 0.4`).
    pub fn ratio(&mut self, ratio: f64) -> &mut Self {
        self.ratio = ratio;
        self
    }

    /// Sets the simulation fidelity (default event-accurate).
    pub fn fidelity(&mut self, fidelity: Fidelity) -> &mut Self {
        self.fidelity = fidelity;
        self
    }

    /// Validates and builds the imager.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a bad ratio, mismatched
    /// sensor dimensions, an invalid strategy or tile configuration,
    /// arrays too large for the 16-bit header fields, or an explicit
    /// sensor config combined with tiling.
    pub fn build(&self) -> Result<CompressiveImager, CoreError> {
        if !(self.ratio > 0.0 && self.ratio <= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "ratio {} outside (0, 1]",
                self.ratio
            )));
        }
        if self.rows > u16::MAX as usize || self.cols > u16::MAX as usize {
            return Err(CoreError::InvalidConfig(
                "array exceeds 65535 per side".into(),
            ));
        }
        let config = match &self.config {
            Some(c) => {
                if c.rows() != self.rows || c.cols() != self.cols {
                    return Err(CoreError::InvalidConfig(format!(
                        "sensor config is {}×{}, builder is {}×{}",
                        c.rows(),
                        c.cols(),
                        self.rows,
                        self.cols
                    )));
                }
                c.clone()
            }
            None => SensorConfig::builder(self.rows, self.cols)
                .build()
                .map_err(|e| CoreError::InvalidConfig(e.to_string()))?,
        };
        if let Some(tile_config) = self.tiling {
            if self.config.is_some() {
                return Err(CoreError::InvalidConfig(
                    "explicit sensor configs describe the full frame; tiled imagers derive \
                     per-tile sensors"
                        .into(),
                ));
            }
            if self.rows == 0 || self.cols == 0 {
                return Err(CoreError::InvalidConfig(
                    "frame dimensions must be positive".into(),
                ));
            }
            let frame = FrameGeometry::new(self.cols, self.rows);
            let layout = TileLayout::new(frame, &tile_config)
                .map_err(|e| CoreError::InvalidConfig(e.to_string()))?;
            // Every tile is captured with its own small imager; the
            // defaulted strategy therefore follows the tile geometry,
            // not the frame's.
            let mut tile_builder =
                CompressiveImager::builder(layout.tile_height(), layout.tile_width());
            if let Some(strategy) = self.strategy {
                tile_builder.strategy(strategy);
            }
            let tile_imager = tile_builder
                .seed(self.seed)
                .ratio(self.ratio)
                .fidelity(self.fidelity)
                .build()?;
            return Ok(CompressiveImager {
                config,
                strategy: tile_imager.strategy(),
                seed: self.seed,
                ratio: self.ratio,
                engine: Engine::Tiled(TileEngine {
                    config: tile_config,
                    layout,
                    imager: Box::new(tile_imager),
                }),
            });
        }
        let strategy = self
            .strategy
            .unwrap_or_else(|| StrategyKind::default_for(self.rows, self.cols));
        let k = ((self.ratio * config.pixel_count() as f64).ceil() as usize).max(1);
        let mut source = strategy.build_source(self.rows + self.cols, self.seed)?;
        let capture = Capture {
            readout: FrameReadout::new(config.clone(), self.fidelity),
            patterns: (0..k).map(|_| source.next_pattern()).collect(),
        };
        Ok(CompressiveImager {
            config,
            strategy,
            seed: self.seed,
            ratio: self.ratio,
            engine: Engine::Single(Arc::new(capture)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tepics_imaging::Scene;

    #[test]
    fn sample_count_follows_ratio() {
        let imager = CompressiveImager::builder(16, 16)
            .ratio(0.25)
            .build()
            .unwrap();
        assert_eq!(imager.sample_count(), 64);
        let imager = CompressiveImager::builder(16, 16)
            .ratio(1.0)
            .build()
            .unwrap();
        assert_eq!(imager.sample_count(), 256);
    }

    #[test]
    fn header_matches_configuration() {
        let imager = CompressiveImager::builder(16, 16)
            .ratio(0.3)
            .seed(123)
            .build()
            .unwrap();
        let scene = Scene::Uniform(0.5).render(16, 16, 0);
        let frame = imager.capture(&scene);
        assert_eq!(frame.header.rows, 16);
        assert_eq!(frame.header.cols, 16);
        assert_eq!(frame.header.code_bits, 8);
        assert_eq!(frame.header.sample_bits, 16); // 8 + log2(256)
        assert_eq!(frame.header.seed, 123);
        assert_eq!(frame.sample_count(), imager.sample_count());
    }

    #[test]
    fn capture_roundtrips_through_a_one_record_stream() {
        use crate::stream::{StreamParser, StreamWriter, WireProfile};
        let imager = CompressiveImager::builder(16, 16)
            .ratio(0.2)
            .build()
            .unwrap();
        let scene = Scene::gaussian_blobs(2).render(16, 16, 5);
        let frame = imager.capture(&scene);
        let mut writer = StreamWriter::new(frame.header, None, WireProfile::Compact).unwrap();
        writer.push_frame(&frame).unwrap();
        let mut parser = StreamParser::new();
        parser.push_bytes(writer.bytes());
        assert_eq!(parser.next_frame().unwrap(), Some(frame));
    }

    #[test]
    fn functional_and_event_fidelity_differ_under_contention() {
        let scene = Scene::Uniform(0.5).render(16, 16, 0); // max contention
        let make = |fidelity| {
            CompressiveImager::builder(16, 16)
                .ratio(0.2)
                .fidelity(fidelity)
                .build()
                .unwrap()
                .capture(&scene)
        };
        let f = make(Fidelity::Functional);
        let e = make(Fidelity::EventAccurate);
        assert_ne!(
            f.samples, e.samples,
            "serialization delays must perturb a max-contention capture"
        );
    }

    #[test]
    fn invalid_ratio_is_rejected() {
        assert!(CompressiveImager::builder(8, 8).ratio(0.0).build().is_err());
        assert!(CompressiveImager::builder(8, 8).ratio(1.5).build().is_err());
    }

    #[test]
    fn mismatched_sensor_config_is_rejected() {
        let cfg = SensorConfig::builder(8, 8).build().unwrap();
        let err = CompressiveImager::builder(16, 16)
            .sensor_config(cfg)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
    }

    #[test]
    fn tiled_builder_resolves_layout_and_tile_imager() {
        let imager = CompressiveImager::builder_for(FrameGeometry::new(40, 28))
            .tiling(TileConfig::new(16).overlap(4))
            .ratio(0.3)
            .seed(9)
            .build()
            .unwrap();
        assert!(imager.is_tiled());
        let layout = imager.tile_layout().unwrap();
        assert_eq!((layout.tiles_x(), layout.tiles_y()), (3, 2));
        assert_eq!(imager.geometry(), FrameGeometry::new(40, 28));
        // The stream header describes one tile.
        let h = imager.frame_header();
        assert_eq!((h.rows, h.cols), (16, 16));
        assert_eq!(h.seed, 9);
        // Sample count is per tile.
        assert_eq!(imager.sample_count(), (0.3f64 * 256.0).ceil() as usize);
        // The per-tile imager agrees with the outer settings.
        let tile = imager.tile_imager().unwrap();
        assert_eq!(tile.seed(), 9);
        assert_eq!(tile.ratio(), 0.3);
        assert!(!tile.is_tiled());
    }

    #[test]
    fn tiled_capture_produces_one_frame_per_tile() {
        let imager = CompressiveImager::builder_for(FrameGeometry::new(40, 28))
            .tiling(TileConfig::new(16).overlap(4))
            .ratio(0.2)
            .build()
            .unwrap();
        let scene = Scene::gaussian_blobs(3).render(40, 28, 7);
        let (frames, stats) = imager.capture_tiles_with_stats(&scene);
        assert_eq!(frames.len(), 6);
        for f in &frames {
            assert_eq!(f.header, imager.frame_header());
            assert_eq!(f.sample_count(), imager.sample_count());
        }
        assert!(stats.total_pulses > 0, "merged stats must accumulate");
        // Tiles are captured independently: tile 0 of the full capture
        // equals a standalone capture of the same region.
        let layout = imager.tile_layout().unwrap().clone();
        let tiles = tepics_imaging::tile::split_tiles(&scene, &layout);
        let tile0 = ImageF64::from_vec(16, 16, tiles[0].clone());
        let standalone = imager.tile_imager().unwrap().capture(&tile0);
        assert_eq!(frames[0], standalone);
    }

    #[test]
    fn untiled_capture_tiles_is_a_single_frame() {
        let imager = CompressiveImager::builder(16, 16)
            .ratio(0.2)
            .build()
            .unwrap();
        let scene = Scene::gaussian_blobs(2).render(16, 16, 5);
        let (frames, stats) = imager.capture_tiles_with_stats(&scene);
        assert_eq!(frames.len(), 1);
        assert_eq!(
            (frames[0].clone(), stats),
            imager.capture_with_stats(&scene)
        );
    }

    #[test]
    #[should_panic(expected = "capture_tiles_with_stats")]
    fn plain_capture_panics_for_tiled_imagers() {
        let imager = CompressiveImager::builder_for(FrameGeometry::new(32, 32))
            .tiling(TileConfig::new(16))
            .build()
            .unwrap();
        let scene = Scene::Uniform(0.5).render(32, 32, 0);
        let _ = imager.capture(&scene);
    }

    #[test]
    fn tiling_rejects_explicit_sensor_config_and_bad_tiles() {
        let cfg = SensorConfig::builder(32, 32).build().unwrap();
        let err = CompressiveImager::builder(32, 32)
            .sensor_config(cfg)
            .tiling(TileConfig::new(16))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
        let err = CompressiveImager::builder(32, 32)
            .tiling(TileConfig::new(8).overlap(8))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
    }

    #[test]
    fn stats_are_populated_in_event_mode() {
        let imager = CompressiveImager::builder(16, 16)
            .ratio(0.1)
            .build()
            .unwrap();
        let scene = Scene::Uniform(0.4).render(16, 16, 0);
        let (_, stats) = imager.capture_with_stats(&scene);
        assert!(stats.total_pulses > 0);
        assert!(stats.queued_pulses > 0, "uniform scene must queue");
    }
}
