//! The tile pixel grid.

/// Edge length of a tile in pixels.
pub const TILE_SIZE: usize = 256;

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
        for &px in &self.pixels {
            out.push((px >> 16) as u8);
            out.push((px >> 8) as u8);
            out.push(px as u8);
        }
        out
    }

    /// Rebuilds a tile from raw RGB bytes (the wire form used by
    /// `GetTile` responses). Returns `None` on size mismatch.
    pub fn from_rgb(coord: TileCoord, rgb: &[u8]) -> Option<Self> {
        if rgb.len() != TILE_SIZE * TILE_SIZE * 3 {
            return None;
        }
        let mut pixels = Vec::with_capacity(TILE_SIZE * TILE_SIZE);
        for px in rgb.chunks_exact(3) {
            pixels.push(0xFF00_0000 | (px[0] as u32) << 16 | (px[1] as u32) << 8 | px[2] as u32);
        }
        Some(Self { coord, pixels })
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
    fn ppm_header_and_size() {
        let t = Tile::blank(TileCoord { z: 0, x: 0, y: 0 });
        let ppm = t.to_ppm();
        assert!(ppm.starts_with(b"P6\n256 256\n255\n"));
        assert_eq!(ppm.len(), 15 + 256 * 256 * 3);
    }
}
