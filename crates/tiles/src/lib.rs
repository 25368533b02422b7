//! Tile rendering substrate.
//!
//! "Tile rendering powers interactive maps by delivering map tiles — 2D
//! images or 3D meshes — based on the user's latitude, longitude, and
//! zoom level" (paper §4). Each federated map server exposes a visual
//! representation of its own map; the client downloads tiles from
//! multiple discovered servers and stitches them, using manual
//! correspondences to bridge coordinate frames (paper §5.2, MapCruncher-style).
//!
//! Everything is from scratch:
//!
//! - [`Tile`] — an ARGB pixel grid addressed by `(z, x, y)` slippy
//!   coordinates, with PPM export,
//! - [`PixelRuns`] — a tile's wire form, its canonical pixel runs
//!   (spec §8),
//! - `raster` — Bresenham lines, scanline polygon fill, discs,
//! - [`TileRenderer`] — style-mapped rendering of a map document into
//!   tiles, with a bounded on-demand cache of their wire form (paper
//!   §4.1),
//! - [`compose`](stitch::compose) / [`render_unaligned_overlay`](stitch::render_unaligned_overlay)
//!   — client-side stitching of tiles from multiple servers, including
//!   venues whose frames need a fitted affine transform.
//!
//! Each end converts a tile once: the server encodes its runs when it
//! renders it and shares the cached runs with every answer, the client
//! paints each layer's runs straight into pixels and composes only when
//! more than one layer arrived.

mod raster;
pub mod render;
pub mod runs;
pub mod stitch;
mod style;
pub mod tile;

pub use render::TileRenderer;
pub use runs::{PixelRuns, RunsError};
pub use tile::{Tile, TileCoord, MAX_ZOOM, TILE_SIZE};
