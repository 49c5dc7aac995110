//! Frame geometry and overlapped tile decomposition.
//!
//! Recovery cost grows super-linearly in the pixel count, so megapixel
//! frames are decoded as independent tiles (the block-parallel
//! architecture of Björklund & Magli): every tile is sensed and
//! recovered with its own small measurement operator, and the
//! reconstructions are stitched back with overlap blending to hide
//! seams. This module supplies the geometry types for that pipeline:
//!
//! * [`FrameGeometry`] — a width × height frame, with no square or
//!   power-of-two assumption.
//! * [`TileConfig`] — tile side, overlap, and [`BlendMode`].
//! * [`TileLayout`] — the resolved decomposition: *uniform* tile
//!   rectangles (all exactly `tile_width × tile_height`) stepped by
//!   `tile − overlap`, with the last tile of each row/column shifted
//!   back to end at the frame edge. Uniform tiles mean every tile
//!   shares one measurement-operator geometry — a single operator-cache
//!   key serves the whole frame — while still covering dimensions that
//!   are not a multiple of the tile size.
//! * [`split_tiles`] / [`merge_tiles_sparse`] — extraction and
//!   overlap-weighted stitching of a full or partial tile set. The
//!   merge is a deterministic sequential accumulation, so stitched
//!   results are bit-identical regardless of how (or on how many
//!   threads) the tiles were produced.
//!
//! # Examples
//!
//! ```
//! use tepics_imaging::tile::{FrameGeometry, TileConfig, TileLayout};
//!
//! let layout = TileLayout::new(
//!     FrameGeometry::new(40, 28),
//!     &TileConfig::new(16).overlap(4),
//! )
//! .unwrap();
//! assert_eq!((layout.tiles_x(), layout.tiles_y()), (3, 2));
//! assert_eq!(layout.rect(2).x, 24); // last column shifted to the edge
//! ```

use crate::image::ImageF64;
use std::fmt;

/// A frame's pixel dimensions: width × height, no shape assumptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameGeometry {
    width: usize,
    height: usize,
}

impl FrameGeometry {
    /// A `width × height` frame.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: usize, height: usize) -> FrameGeometry {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        FrameGeometry { width, height }
    }

    /// A square `side × side` frame (the shape the bare `side`-based
    /// constructors used to assume).
    #[must_use]
    pub fn square(side: usize) -> FrameGeometry {
        FrameGeometry::new(side, side)
    }

    /// Frame width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count.
    #[must_use]
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }
}

/// How overlapping tile regions are blended during stitching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BlendMode {
    /// Every covering tile contributes with equal weight.
    Average,
    /// Contributions ramp down linearly over the overlap band
    /// (feathering), hiding seams between independently recovered
    /// tiles. Equivalent to [`BlendMode::Average`] when the overlap is
    /// zero.
    #[default]
    Feather,
}

/// Tile decomposition parameters: tile side, overlap, blend.
///
/// Built fluently: `TileConfig::new(64).overlap(8)`. The tile is
/// nominally square; [`TileLayout`] clamps it to the frame on each axis
/// independently, so a 64-tile config on a 256 × 48 frame yields
/// 64 × 48 tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileConfig {
    tile: usize,
    overlap: usize,
    blend: BlendMode,
}

impl TileConfig {
    /// A `tile × tile` decomposition with no overlap and the default
    /// blend ([`BlendMode::Feather`]).
    #[must_use]
    pub fn new(tile: usize) -> TileConfig {
        TileConfig {
            tile,
            overlap: 0,
            blend: BlendMode::Feather,
        }
    }

    /// Sets the overlap between adjacent tiles, in pixels (must stay
    /// below the tile side; validated by [`TileLayout::new`]).
    #[must_use]
    pub fn overlap(mut self, overlap: usize) -> TileConfig {
        self.overlap = overlap;
        self
    }

    /// Sets the blend mode used when stitching.
    #[must_use]
    pub fn blend(mut self, blend: BlendMode) -> TileConfig {
        self.blend = blend;
        self
    }

    /// The configured tile side.
    #[must_use]
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// The configured overlap.
    #[must_use]
    pub fn overlap_px(&self) -> usize {
        self.overlap
    }

    /// The configured blend mode.
    #[must_use]
    pub fn blend_mode(&self) -> BlendMode {
        self.blend
    }
}

/// A rejected tile decomposition (degenerate tile, overlap too large…).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileLayoutError(String);

impl fmt::Display for TileLayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid tile layout: {}", self.0)
    }
}

impl std::error::Error for TileLayoutError {}

/// One tile's position and size inside the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRect {
    /// Left edge (pixels from the frame's left).
    pub x: usize,
    /// Top edge (pixels from the frame's top).
    pub y: usize,
    /// Tile width (equal for every tile of a layout).
    pub w: usize,
    /// Tile height (equal for every tile of a layout).
    pub h: usize,
}

/// A resolved tile decomposition of one frame.
///
/// Tiles are uniform: every rectangle is exactly
/// `tile_width() × tile_height()`. Positions step by `tile − overlap`;
/// the last tile of each row/column is shifted back so it ends exactly
/// at the frame edge (increasing its overlap with its neighbor instead
/// of producing a ragged edge tile). Tile order is row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileLayout {
    frame: FrameGeometry,
    tile_w: usize,
    tile_h: usize,
    overlap: usize,
    blend: BlendMode,
    xs: Vec<usize>,
    ys: Vec<usize>,
}

/// Tile origins along one axis: step by `tile − overlap`, shift the
/// last origin back to `extent − tile`. Requires `tile <= extent`.
fn axis_positions(extent: usize, tile: usize, overlap: usize) -> Vec<usize> {
    let step = tile - overlap;
    let mut out = Vec::new();
    let mut x = 0;
    loop {
        if x + tile >= extent {
            out.push(extent - tile);
            break;
        }
        out.push(x);
        x += step;
    }
    out
}

impl TileLayout {
    /// Resolves `config` against `frame`, clamping the nominal tile to
    /// the frame on each axis (and the overlap along with it, when the
    /// clamped tile no longer accommodates the configured overlap).
    ///
    /// # Errors
    ///
    /// Returns [`TileLayoutError`] if the tile is zero or the
    /// configured overlap is not strictly smaller than the configured
    /// tile.
    pub fn new(frame: FrameGeometry, config: &TileConfig) -> Result<TileLayout, TileLayoutError> {
        if config.tile == 0 {
            return Err(TileLayoutError("tile size must be positive".into()));
        }
        if config.overlap >= config.tile {
            return Err(TileLayoutError(format!(
                "overlap {} must be smaller than tile {}",
                config.overlap, config.tile
            )));
        }
        let tile_w = config.tile.min(frame.width());
        let tile_h = config.tile.min(frame.height());
        let overlap = config.overlap.min(tile_w.min(tile_h) - 1);
        TileLayout::with_tile_dims(frame, tile_w, tile_h, overlap, config.blend)
    }

    /// Resolves a layout from explicit (already clamped) tile
    /// dimensions — the constructor the wire-format parser uses, where
    /// the tile dimensions arrive independently of the frame's.
    ///
    /// # Errors
    ///
    /// Returns [`TileLayoutError`] if a tile dimension is zero or
    /// exceeds the frame, or the overlap is not strictly smaller than
    /// the tile on both axes.
    pub fn with_tile_dims(
        frame: FrameGeometry,
        tile_w: usize,
        tile_h: usize,
        overlap: usize,
        blend: BlendMode,
    ) -> Result<TileLayout, TileLayoutError> {
        if tile_w == 0 || tile_h == 0 {
            return Err(TileLayoutError("tile dimensions must be positive".into()));
        }
        if tile_w > frame.width() || tile_h > frame.height() {
            return Err(TileLayoutError(format!(
                "tile {tile_w}×{tile_h} exceeds frame {}×{}",
                frame.width(),
                frame.height()
            )));
        }
        if overlap >= tile_w || overlap >= tile_h {
            return Err(TileLayoutError(format!(
                "overlap {overlap} must be smaller than tile {tile_w}×{tile_h}"
            )));
        }
        let xs = axis_positions(frame.width(), tile_w, overlap);
        let ys = axis_positions(frame.height(), tile_h, overlap);
        Ok(TileLayout {
            frame,
            tile_w,
            tile_h,
            overlap,
            blend,
            xs,
            ys,
        })
    }

    /// The frame this layout decomposes.
    #[must_use]
    pub fn frame(&self) -> FrameGeometry {
        self.frame
    }

    /// Width of every tile.
    #[must_use]
    pub fn tile_width(&self) -> usize {
        self.tile_w
    }

    /// Height of every tile.
    #[must_use]
    pub fn tile_height(&self) -> usize {
        self.tile_h
    }

    /// Pixels per tile.
    #[must_use]
    pub fn pixels_per_tile(&self) -> usize {
        self.tile_w * self.tile_h
    }

    /// The nominal overlap between adjacent tiles.
    #[must_use]
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// The blend mode used when stitching.
    #[must_use]
    pub fn blend(&self) -> BlendMode {
        self.blend
    }

    /// Number of tile columns.
    #[must_use]
    pub fn tiles_x(&self) -> usize {
        self.xs.len()
    }

    /// Number of tile rows.
    #[must_use]
    pub fn tiles_y(&self) -> usize {
        self.ys.len()
    }

    /// Total tile count.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.xs.len() * self.ys.len()
    }

    /// The `i`-th tile rectangle (row-major order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.tiles()`.
    #[must_use]
    pub fn rect(&self, i: usize) -> TileRect {
        assert!(i < self.tiles(), "tile {i} out of range");
        TileRect {
            x: self.xs[i % self.xs.len()],
            y: self.ys[i / self.xs.len()],
            w: self.tile_w,
            h: self.tile_h,
        }
    }

    /// All tile rectangles, in row-major order.
    pub fn rects(&self) -> impl Iterator<Item = TileRect> + '_ {
        (0..self.tiles()).map(|i| self.rect(i))
    }

    /// The per-pixel blend weight map of one tile (row-major,
    /// `tile_width × tile_height`; identical for every tile of the
    /// layout, since tiles are uniform). Average blending weights every
    /// pixel 1; feathering ramps linearly from 1 at the overlap-band
    /// boundary down toward the tile edge. Stitching normalizes by the
    /// total weight, so single-covered pixels are unaffected by the
    /// ramp.
    #[must_use]
    pub fn tile_weights(&self) -> Vec<f64> {
        let ramp = |d: usize, extent: usize| -> f64 {
            match self.blend {
                BlendMode::Average => 1.0,
                BlendMode::Feather => {
                    let edge = (d + 1).min(extent - d);
                    edge.min(self.overlap + 1) as f64
                }
            }
        };
        let mut w = Vec::with_capacity(self.tile_w * self.tile_h);
        for dy in 0..self.tile_h {
            let wy = ramp(dy, self.tile_h);
            for dx in 0..self.tile_w {
                w.push(wy * ramp(dx, self.tile_w));
            }
        }
        w
    }
}

/// Extracts every tile of `layout` from `img`, in row-major tile order;
/// each tile is a row-major `Vec<f64>` of `pixels_per_tile` values.
///
/// # Panics
///
/// Panics if the image dimensions differ from the layout's frame.
#[must_use]
pub fn split_tiles(img: &ImageF64, layout: &TileLayout) -> Vec<Vec<f64>> {
    assert!(
        img.width() == layout.frame().width() && img.height() == layout.frame().height(),
        "image {}×{} does not match layout frame {}×{}",
        img.width(),
        img.height(),
        layout.frame().width(),
        layout.frame().height()
    );
    layout
        .rects()
        .map(|r| {
            let mut tile = Vec::with_capacity(r.w * r.h);
            for dy in 0..r.h {
                for dx in 0..r.w {
                    tile.push(img.get(r.x + dx, r.y + dy));
                }
            }
            tile
        })
        .collect()
}

/// Stitches a frame from its tiles, blending overlapped regions by the
/// layout's weight map: a pixel takes the weighted mean of the tiles
/// that cover it. Erased tiles are `None`, and pixels covered by no
/// surviving tile come back flagged in the returned mask (`true` =
/// uncovered, value 0.0) for the caller to fill (see
/// [`fill_uncovered`]); a full tile set leaves the mask all `false`.
///
/// The accumulation is sequential in tile order, so the stitched result
/// is a pure function of the tile values — bit-identical no matter how
/// the tiles were computed or scheduled.
///
/// # Panics
///
/// Panics if the tile count or a present tile's length disagrees with
/// `layout`.
#[must_use]
pub fn merge_tiles_sparse(
    tiles: &[Option<Vec<f64>>],
    layout: &TileLayout,
) -> (ImageF64, Vec<bool>) {
    assert_eq!(tiles.len(), layout.tiles(), "tile count mismatch");
    let frame = layout.frame();
    let weights = layout.tile_weights();
    let mut acc = vec![0.0f64; frame.pixels()];
    let mut wsum = vec![0.0f64; frame.pixels()];
    for (tile, r) in tiles.iter().zip(layout.rects()) {
        let Some(tile) = tile else { continue };
        assert_eq!(tile.len(), layout.pixels_per_tile(), "tile size mismatch");
        for dy in 0..r.h {
            let row = (r.y + dy) * frame.width() + r.x;
            let trow = dy * r.w;
            for dx in 0..r.w {
                let w = weights[trow + dx];
                acc[row + dx] += w * tile[trow + dx];
                wsum[row + dx] += w;
            }
        }
    }
    let mut uncovered = vec![false; frame.pixels()];
    for ((a, &w), u) in acc.iter_mut().zip(&wsum).zip(uncovered.iter_mut()) {
        if w > 0.0 {
            *a /= w;
        } else {
            *u = true;
        }
    }
    (
        ImageF64::from_vec(frame.width(), frame.height(), acc),
        uncovered,
    )
}

/// Fills the `uncovered` pixels of `img` (the mask of
/// [`merge_tiles_sparse`]) by deterministic inward diffusion: each
/// uncovered pixel takes the mean of its 4-neighbors one step closer to
/// the covered pixels, summed left, right, up, down. That is one Jacobi
/// sweep per distance from the covered pixels, so the result does not
/// depend on traversal order; one breadth-first pass fills the layers
/// in turn.
///
/// A frame with no covered pixels at all has nothing to diffuse from
/// and is left untouched (all zeros from the sparse stitch).
///
/// # Panics
///
/// Panics if the mask length differs from the image pixel count.
pub fn fill_uncovered(img: &mut ImageF64, uncovered: &[bool]) {
    assert_eq!(uncovered.len(), img.len(), "mask/image size mismatch");
    if uncovered.iter().all(|&u| !u) || uncovered.iter().all(|&u| u) {
        return;
    }
    let (w, h) = (img.width(), img.height());
    let neighbors = |i: usize| {
        let (x, y) = (i % w, i / w);
        [
            (x > 0).then(|| i - 1),
            (x + 1 < w).then(|| i + 1),
            (y > 0).then(|| i - w),
            (y + 1 < h).then(|| i + w),
        ]
        .into_iter()
        .flatten()
    };
    // Distance to the nearest covered pixel. The grid is connected and
    // holds a covered pixel, so the layers reach every uncovered one.
    let mut layer: Vec<usize> = uncovered
        .iter()
        .map(|&u| if u { usize::MAX } else { 0 })
        .collect();
    let mut frontier: Vec<usize> = (0..layer.len())
        .filter(|&i| uncovered[i] && neighbors(i).any(|j| !uncovered[j]))
        .collect();
    for &i in &frontier {
        layer[i] = 1;
    }
    let pixels = img.as_mut_slice();
    let mut d = 1;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &i in &frontier {
            let mut sum = 0.0;
            let mut n = 0usize;
            for j in neighbors(i).filter(|&j| layer[j] < d) {
                sum += pixels[j];
                n += 1;
            }
            pixels[i] = sum / n as f64;
            for j in neighbors(i) {
                if layer[j] == usize::MAX {
                    layer[j] = d + 1;
                    next.push(j);
                }
            }
        }
        frontier = next;
        d += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenes::Scene;

    /// Stitches a full tile set, which must leave no pixel uncovered.
    fn merge_all(tiles: Vec<Vec<f64>>, layout: &TileLayout) -> ImageF64 {
        let tiles: Vec<Option<Vec<f64>>> = tiles.into_iter().map(Some).collect();
        let (img, uncovered) = merge_tiles_sparse(&tiles, layout);
        assert!(
            uncovered.iter().all(|&u| !u),
            "a full tile set covers every pixel"
        );
        img
    }

    #[test]
    fn geometry_accessors() {
        let g = FrameGeometry::new(40, 28);
        assert_eq!((g.width(), g.height(), g.pixels()), (40, 28, 1120));
        assert_eq!(FrameGeometry::square(16), FrameGeometry::new(16, 16));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_geometry_panics() {
        let _ = FrameGeometry::new(0, 4);
    }

    #[test]
    fn layout_covers_non_multiple_dimensions() {
        let layout =
            TileLayout::new(FrameGeometry::new(40, 28), &TileConfig::new(16).overlap(4)).unwrap();
        assert_eq!((layout.tiles_x(), layout.tiles_y()), (3, 2));
        assert_eq!(layout.tiles(), 6);
        // Last tiles shifted to end exactly at the frame edge.
        let last = layout.rect(layout.tiles() - 1);
        assert_eq!(last.x + last.w, 40);
        assert_eq!(last.y + last.h, 28);
        // All tiles uniform.
        for r in layout.rects() {
            assert_eq!((r.w, r.h), (16, 16));
        }
    }

    #[test]
    fn tile_larger_than_frame_is_clamped() {
        let layout =
            TileLayout::new(FrameGeometry::new(10, 6), &TileConfig::new(64).overlap(8)).unwrap();
        assert_eq!((layout.tile_width(), layout.tile_height()), (10, 6));
        assert_eq!(layout.tiles(), 1);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let frame = FrameGeometry::new(32, 32);
        assert!(TileLayout::new(frame, &TileConfig::new(0)).is_err());
        assert!(TileLayout::new(frame, &TileConfig::new(8).overlap(8)).is_err());
        assert!(
            TileLayout::with_tile_dims(frame, 40, 8, 0, BlendMode::Average).is_err(),
            "tile wider than frame"
        );
        assert!(TileLayout::with_tile_dims(frame, 8, 0, 0, BlendMode::Average).is_err());
        let err = TileLayout::new(frame, &TileConfig::new(8).overlap(9)).unwrap_err();
        assert!(err.to_string().contains("overlap"));
    }

    #[test]
    fn split_merge_roundtrip_without_overlap_is_exact() {
        let img = Scene::natural_like().render(37, 23, 5);
        let layout = TileLayout::new(FrameGeometry::new(37, 23), &TileConfig::new(10)).unwrap();
        let back = merge_all(split_tiles(&img, &layout), &layout);
        // Shifted tiles overlap on non-multiple dims, but identical
        // values blend back to themselves up to one rounding step.
        for (a, b) in img.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn split_merge_roundtrip_with_overlap_and_feather() {
        let img = Scene::gaussian_blobs(3).render(40, 28, 9);
        for blend in [BlendMode::Average, BlendMode::Feather] {
            let layout = TileLayout::new(
                FrameGeometry::new(40, 28),
                &TileConfig::new(16).overlap(4).blend(blend),
            )
            .unwrap();
            let back = merge_all(split_tiles(&img, &layout), &layout);
            for (a, b) in img.as_slice().iter().zip(back.as_slice()) {
                assert!((a - b).abs() < 1e-12, "{blend:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn feather_weights_ramp_over_the_overlap_band() {
        let layout =
            TileLayout::new(FrameGeometry::new(64, 64), &TileConfig::new(16).overlap(3)).unwrap();
        let w = layout.tile_weights();
        // Corner pixel: 1 step into both ramps.
        assert_eq!(w[0], 1.0);
        // Interior pixel: full weight (overlap+1)².
        assert_eq!(w[8 * 16 + 8], 16.0);
        // Ramp is symmetric.
        assert_eq!(w[5], w[16 - 6]);
    }

    #[test]
    fn average_blend_weights_are_uniform() {
        let layout = TileLayout::new(
            FrameGeometry::new(32, 32),
            &TileConfig::new(16).overlap(4).blend(BlendMode::Average),
        )
        .unwrap();
        assert!(layout.tile_weights().iter().all(|&w| w == 1.0));
    }

    #[test]
    fn merge_is_deterministic_in_tile_order() {
        let img = Scene::natural_like().render(40, 28, 3);
        let layout =
            TileLayout::new(FrameGeometry::new(40, 28), &TileConfig::new(16).overlap(4)).unwrap();
        let tiles = split_tiles(&img, &layout);
        let a = merge_all(tiles.clone(), &layout);
        let b = merge_all(tiles, &layout);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "tile count mismatch")]
    fn merge_rejects_wrong_tile_count() {
        let layout = TileLayout::new(FrameGeometry::new(32, 32), &TileConfig::new(16)).unwrap();
        let _ = merge_tiles_sparse(&[Some(vec![0.0; 256])], &layout);
    }

    #[test]
    fn sparse_merge_flags_only_pixels_no_tile_covers() {
        let img = Scene::natural_like().render(40, 28, 3);
        let layout =
            TileLayout::new(FrameGeometry::new(40, 28), &TileConfig::new(16).overlap(4)).unwrap();
        let mut tiles: Vec<Option<Vec<f64>>> =
            split_tiles(&img, &layout).into_iter().map(Some).collect();
        tiles[0] = None;
        let (stitched, uncovered) = merge_tiles_sparse(&tiles, &layout);
        // Tile 0 spans x 0..16, y 0..16; its neighbors start at x=12 /
        // y=12 (overlap 4), so exactly the pixels with x<12 && y<12 lose
        // all coverage.
        let mut flagged = 0;
        for (x, y, v) in stitched.enumerate_pixels() {
            let lost = x < 12 && y < 12;
            assert_eq!(uncovered[y * 40 + x], lost, "({x},{y})");
            if lost {
                assert_eq!(v, 0.0);
                flagged += 1;
            }
        }
        assert_eq!(flagged, 12 * 12);
    }

    #[test]
    fn fill_uncovered_diffuses_deterministically_from_the_boundary() {
        let img = Scene::gaussian_blobs(2).render(32, 32, 4);
        let layout = TileLayout::new(FrameGeometry::new(32, 32), &TileConfig::new(16)).unwrap();
        let mut tiles: Vec<Option<Vec<f64>>> =
            split_tiles(&img, &layout).into_iter().map(Some).collect();
        tiles[3] = None; // bottom-right quadrant erased, no overlap
        let (mut a, mask) = merge_tiles_sparse(&tiles, &layout);
        fill_uncovered(&mut a, &mask);
        // Every pixel filled, and values stay within the surviving range.
        let (lo, hi) = (img.min_value(), img.max_value());
        for (x, y, v) in a.enumerate_pixels() {
            assert!(v.is_finite());
            if x >= 16 && y >= 16 {
                assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "({x},{y}) = {v}");
            } else {
                assert_eq!(v, img.get(x, y), "covered pixels untouched");
            }
        }
        // Deterministic: a second run from the same inputs is identical.
        let (mut b, mask2) = merge_tiles_sparse(&tiles, &layout);
        fill_uncovered(&mut b, &mask2);
        assert_eq!(a, b);
    }

    /// The fill as whole-frame Jacobi passes: each pass gives every
    /// unfilled pixel with a filled 4-neighbor the mean of those
    /// neighbors' previous-pass values.
    fn jacobi_fill(img: &mut ImageF64, uncovered: &[bool]) {
        let (w, h) = (img.width(), img.height());
        let mut filled: Vec<bool> = uncovered.iter().map(|&u| !u).collect();
        while filled.iter().any(|&f| !f) {
            let (snapshot, frozen) = (img.clone(), filled.clone());
            for (x, y) in (0..h).flat_map(|y| (0..w).map(move |x| (x, y))) {
                if frozen[y * w + x] {
                    continue;
                }
                let near = [
                    (x > 0).then(|| (x - 1, y)),
                    (x + 1 < w).then(|| (x + 1, y)),
                    (y > 0).then(|| (x, y - 1)),
                    (y + 1 < h).then(|| (x, y + 1)),
                ];
                let (mut sum, mut n) = (0.0, 0);
                for (nx, ny) in near.into_iter().flatten() {
                    if frozen[ny * w + nx] {
                        sum += snapshot.get(nx, ny);
                        n += 1;
                    }
                }
                if n > 0 {
                    img.set(x, y, sum / n as f64);
                    filled[y * w + x] = true;
                }
            }
        }
    }

    #[test]
    fn fill_uncovered_equals_jacobi_passes_bit_for_bit() {
        let mut rng = tepics_util::SplitMix64::new(0xF111);
        for case in 0..40 {
            let (w, h) = (
                1 + rng.next_below(24) as usize,
                1 + rng.next_below(24) as usize,
            );
            let img = Scene::natural_like().render(w, h, case);
            // Sparse to dense coverage, with at least one covered pixel.
            let covered = 0.02 + 0.6 * rng.next_f64();
            let mut mask: Vec<bool> = (0..w * h).map(|_| rng.next_f64() >= covered).collect();
            mask[rng.next_below((w * h) as u64) as usize] = false;
            let (mut got, mut want) = (img.clone(), img);
            fill_uncovered(&mut got, &mask);
            jacobi_fill(&mut want, &mask);
            let bits = |i: &ImageF64| i.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "case {case}: {w}x{h}");
        }
    }

    #[test]
    fn fill_uncovered_leaves_fully_erased_frames_at_zero() {
        let layout = TileLayout::new(FrameGeometry::new(16, 16), &TileConfig::new(16)).unwrap();
        let (mut img, mask) = merge_tiles_sparse(&[None], &layout);
        fill_uncovered(&mut img, &mask);
        assert!(img.as_slice().iter().all(|&v| v == 0.0));
    }
}
