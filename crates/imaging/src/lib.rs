//! Images, synthetic scenes, metrics and sparsifying transforms.
//!
//! Compressive sampling works because natural images are compressible in
//! a suitable basis. This crate supplies everything the TEPICS pipeline
//! needs on the image side:
//!
//! * [`Image`] — a minimal row-major raster container
//!   (with [`ImageF64`]/[`ImageU8`] aliases).
//! * [`Scene`] — deterministic synthetic scene generators standing in
//!   for natural test images (no copyrighted corpora ship with the
//!   repo; the generators are compressible in DCT/Haar, which is the
//!   property the experiments exercise).
//! * [`metrics`] — MSE / MAE / PSNR / SSIM.
//! * [`transforms`] — orthonormal 2-D DCT and Haar wavelet transforms,
//!   the sparsifying dictionaries Ψ of the decoder.
//! * [`tile`] — frame geometry and overlapped tile decomposition for
//!   block-parallel decoding of large frames ([`FrameGeometry`],
//!   [`TileConfig`], [`tile::TileLayout`]); at zero overlap it is also
//!   the block grid of the block-based CS baseline (paper refs.
//!   \[6–8\], \[11\]).
//!
//! # Examples
//!
//! ```
//! use tepics_imaging::{metrics, Scene};
//!
//! let img = Scene::gaussian_blobs(3).render(64, 64, 42);
//! assert_eq!(img.width(), 64);
//! let same = metrics::psnr(&img, &img, 1.0);
//! assert!(same.is_infinite()); // identical images
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod io;
pub mod metrics;
pub mod scenes;
pub mod tile;
pub mod transforms;

pub use image::{Image, ImageF64, ImageU8};
pub use metrics::{mae, mse, psnr, ssim};
pub use scenes::Scene;
pub use tile::{BlendMode, FrameGeometry, TileConfig};
pub use transforms::dct::{Dct1d, Dct2d};
pub use transforms::haar::Haar2d;
