//! The tile pixel grid.
//!
//! A [`Tile`] is ARGB pixels in memory. In a `GetTile` answer and in a
//! server's tile cache it is its canonical pixel runs ([`PixelRuns`],
//! spec §8): [`Tile::to_runs`] encodes them in one pass over the pixels,
//! and [`Tile::from_runs`] paints them back, a run at a time.
//!
//! A coordinate is in the pyramid when `z ≤` [`MAX_ZOOM`] and
//! `x, y < 2^z` ([`TileCoord::in_pyramid`]); a server answers any other
//! `GetTile` with a malformed-request error and renders nothing (spec §8).

use crate::runs::PixelRuns;
use openflame_geo::{LatLng, Mercator};

/// Edge length of a tile in pixels.
pub const TILE_SIZE: usize = 256;

/// Deepest zoom level a tile may be asked for (spec §8).
pub const MAX_ZOOM: u8 = 24;

/// Background color (treated as transparent when composing).
pub const BACKGROUND: u32 = 0xFFF2_EFE9;

/// Slippy-map tile coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileCoord {
    /// Zoom level.
    pub z: u8,
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
}

impl TileCoord {
    /// The tile covering `p` at zoom `z`, or `None` when `z` is above
    /// [`MAX_ZOOM`].
    pub fn covering(p: LatLng, z: u8) -> Option<Self> {
        (z <= MAX_ZOOM).then(|| {
            let (x, y) = Mercator::tile_for(p, z);
            Self { z, x, y }
        })
    }

    /// Whether this coordinate names a tile of the pyramid: `z ≤`
    /// [`MAX_ZOOM`] and `x, y < 2^z`.
    pub fn in_pyramid(&self) -> bool {
        self.z <= MAX_ZOOM && self.x < 1 << self.z && self.y < 1 << self.z
    }
}

/// A rendered square tile of ARGB pixels (0xAARRGGBB).
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    /// The tile address.
    pub coord: TileCoord,
    pixels: Vec<u32>,
}

impl Tile {
    /// A blank (background-colored) tile.
    pub fn blank(coord: TileCoord) -> Self {
        Self {
            coord,
            pixels: vec![BACKGROUND; TILE_SIZE * TILE_SIZE],
        }
    }

    /// Pixel at `(x, y)`; out-of-bounds reads return the background.
    pub fn get(&self, x: i64, y: i64) -> u32 {
        if x < 0 || y < 0 || x >= TILE_SIZE as i64 || y >= TILE_SIZE as i64 {
            return BACKGROUND;
        }
        self.pixels[y as usize * TILE_SIZE + x as usize]
    }

    /// Sets pixel `(x, y)` if in bounds.
    pub fn set(&mut self, x: i64, y: i64, color: u32) {
        if x >= 0 && y >= 0 && x < TILE_SIZE as i64 && y < TILE_SIZE as i64 {
            self.pixels[y as usize * TILE_SIZE + x as usize] = color;
        }
    }

    /// Raw pixel access.
    pub fn pixels(&self) -> &[u32] {
        &self.pixels
    }

    /// Fraction of pixels that differ from the background.
    pub fn coverage(&self) -> f64 {
        let painted = self.pixels.iter().filter(|&&p| p != BACKGROUND).count();
        painted as f64 / self.pixels.len() as f64
    }

    /// Serializes as a binary PPM (P6) image.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{TILE_SIZE} {TILE_SIZE}\n255\n").into_bytes();
        out.extend(self.to_rgb());
        out
    }

    /// Three bytes (red, green, blue) per pixel, row-major, alpha
    /// dropped: the body of a PPM image.
    pub fn to_rgb(&self) -> Vec<u8> {
        self.pixels
            .iter()
            .flat_map(|px| {
                let [_, r, g, b] = px.to_be_bytes();
                [r, g, b]
            })
            .collect()
    }

    /// The wire form: the canonical runs of the pixels' colours, alpha
    /// dropped (spec §8).
    pub fn to_runs(&self) -> PixelRuns {
        PixelRuns::encode(&self.pixels)
    }

    /// Paints an opaque tile from its runs, a run at a time.
    pub fn from_runs(coord: TileCoord, runs: &PixelRuns) -> Self {
        let mut pixels = Vec::with_capacity(TILE_SIZE * TILE_SIZE);
        for (length, rgb) in runs.iter() {
            pixels.resize(pixels.len() + length, 0xFF00_0000 | rgb);
        }
        Self { coord, pixels }
    }

    /// Paints `layer`'s non-background pixels over `self`.
    pub(crate) fn overlay(&mut self, layer: &Tile) {
        for (out, &px) in self.pixels.iter_mut().zip(&layer.pixels) {
            if px != BACKGROUND {
                *out = px;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_tile_is_background() {
        let t = Tile::blank(TileCoord { z: 3, x: 1, y: 2 });
        assert_eq!(t.coverage(), 0.0);
        assert_eq!(t.get(0, 0), BACKGROUND);
        assert_eq!(t.get(255, 255), BACKGROUND);
    }

    #[test]
    fn set_get_round_trip() {
        let mut t = Tile::blank(TileCoord { z: 0, x: 0, y: 0 });
        t.set(10, 20, 0xFF00FF00);
        assert_eq!(t.get(10, 20), 0xFF00FF00);
        assert!(t.coverage() > 0.0);
    }

    #[test]
    fn out_of_bounds_safe() {
        let mut t = Tile::blank(TileCoord { z: 0, x: 0, y: 0 });
        t.set(-1, 0, 0xFFFFFFFF);
        t.set(0, 99999, 0xFFFFFFFF);
        assert_eq!(t.get(-1, 0), BACKGROUND);
        assert_eq!(t.get(0, 99999), BACKGROUND);
        assert_eq!(t.coverage(), 0.0);
    }

    #[test]
    fn pyramid_bounds() {
        assert!(TileCoord { z: 0, x: 0, y: 0 }.in_pyramid());
        assert!(!TileCoord { z: 0, x: 1, y: 0 }.in_pyramid());
        assert!(TileCoord {
            z: MAX_ZOOM,
            x: (1 << MAX_ZOOM) - 1,
            y: 0
        }
        .in_pyramid());
        assert!(!TileCoord {
            z: 16,
            x: u32::MAX,
            y: u32::MAX
        }
        .in_pyramid());
        for z in [MAX_ZOOM + 1, 30, 40, 64, u8::MAX] {
            assert!(!TileCoord { z, x: 0, y: 0 }.in_pyramid(), "z {z}");
        }
        let p = LatLng::new(40.4433, -79.9436).unwrap();
        assert!(TileCoord::covering(p, MAX_ZOOM).is_some_and(|c| c.in_pyramid()));
        assert_eq!(TileCoord::covering(p, 64), None);
    }

    #[test]
    fn ppm_header_and_size() {
        let t = Tile::blank(TileCoord { z: 0, x: 0, y: 0 });
        let ppm = t.to_ppm();
        assert!(ppm.starts_with(b"P6\n256 256\n255\n"));
        assert_eq!(ppm.len(), 15 + 256 * 256 * 3);
    }
}
