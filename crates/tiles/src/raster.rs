//! Primitive rasterization: lines, polygons, discs.

use crate::tile::Tile;

/// Draws a line with the given `thickness` (pixels) using Bresenham's
/// algorithm with a square brush.
pub(crate) fn draw_line(
    tile: &mut Tile,
    x0: i64,
    y0: i64,
    x1: i64,
    y1: i64,
    color: u32,
    thickness: i64,
) {
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    let (mut x, mut y) = (x0, y0);
    let r = (thickness - 1) / 2;
    loop {
        for bx in -r..=r + (thickness - 1) % 2 {
            for by in -r..=r + (thickness - 1) % 2 {
                tile.set(x + bx, y + by, color);
            }
        }
        if x == x1 && y == y1 {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x += sx;
        }
        if e2 <= dx {
            err += dx;
            y += sy;
        }
    }
}

/// Fills a simple polygon by scanline parity.
pub(crate) fn fill_polygon(tile: &mut Tile, ring: &[(i64, i64)], color: u32) {
    if ring.len() < 3 {
        return;
    }
    let y_min = ring.iter().map(|p| p.1).min().expect("non-empty").max(0);
    let y_max = ring
        .iter()
        .map(|p| p.1)
        .max()
        .expect("non-empty")
        .min(crate::TILE_SIZE as i64 - 1);
    for y in y_min..=y_max {
        // Gather x-crossings of the scanline at y + 0.5 (avoids vertex
        // double-count ambiguity).
        let yc = y as f64 + 0.5;
        let mut xs: Vec<f64> = Vec::new();
        for i in 0..ring.len() {
            let (x0, y0) = ring[i];
            let (x1, y1) = ring[(i + 1) % ring.len()];
            let (fy0, fy1) = (y0 as f64, y1 as f64);
            if (fy0 <= yc && fy1 > yc) || (fy1 <= yc && fy0 > yc) {
                let t = (yc - fy0) / (fy1 - fy0);
                xs.push(x0 as f64 + t * (x1 - x0) as f64);
            }
        }
        xs.sort_by(f64::total_cmp);
        for pair in xs.chunks(2) {
            if let [a, b] = pair {
                let from = a.round() as i64;
                let to = b.round() as i64;
                for x in from..=to {
                    tile.set(x, y, color);
                }
            }
        }
    }
}

/// Draws a filled disc.
pub(crate) fn draw_disc(tile: &mut Tile, cx: i64, cy: i64, radius: i64, color: u32) {
    for dy in -radius..=radius {
        for dx in -radius..=radius {
            if dx * dx + dy * dy <= radius * radius {
                tile.set(cx + dx, cy + dy, color);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{Tile, TileCoord, BACKGROUND};

    fn tile() -> Tile {
        Tile::blank(TileCoord { z: 0, x: 0, y: 0 })
    }

    #[test]
    fn horizontal_line() {
        let mut t = tile();
        draw_line(&mut t, 10, 50, 60, 50, 0xFF0000FF, 1);
        for x in 10..=60 {
            assert_eq!(t.get(x, 50), 0xFF0000FF);
        }
        assert_eq!(t.get(9, 50), BACKGROUND);
        assert_eq!(t.get(61, 50), BACKGROUND);
    }

    #[test]
    fn diagonal_line_connected() {
        let mut t = tile();
        draw_line(&mut t, 0, 0, 40, 25, 0xFF112233, 1);
        // Both endpoints painted.
        assert_eq!(t.get(0, 0), 0xFF112233);
        assert_eq!(t.get(40, 25), 0xFF112233);
        // Roughly max(dx,dy)+1 pixels painted for a thin line.
        let painted = (0..256)
            .flat_map(|y| (0..256).map(move |x| (x, y)))
            .filter(|&(x, y)| t.get(x, y) != BACKGROUND)
            .count();
        assert!((41..=82).contains(&painted), "painted {painted}");
    }

    #[test]
    fn thick_line_wider() {
        let mut t = tile();
        draw_line(&mut t, 10, 50, 60, 50, 0xFF0000FF, 3);
        assert_eq!(t.get(30, 49), 0xFF0000FF);
        assert_eq!(t.get(30, 51), 0xFF0000FF);
        assert_eq!(t.get(30, 53), BACKGROUND);
    }

    #[test]
    fn filled_rect_polygon() {
        let mut t = tile();
        fill_polygon(
            &mut t,
            &[(10, 10), (30, 10), (30, 20), (10, 20)],
            0xFF00AA00,
        );
        assert_eq!(t.get(20, 15), 0xFF00AA00);
        assert_eq!(t.get(10, 10), 0xFF00AA00);
        assert_eq!(t.get(35, 15), BACKGROUND);
        assert_eq!(t.get(20, 25), BACKGROUND);
    }

    #[test]
    fn filled_triangle() {
        let mut t = tile();
        fill_polygon(&mut t, &[(50, 10), (90, 90), (10, 90)], 0xFF0000AA);
        assert_eq!(t.get(50, 60), 0xFF0000AA, "interior");
        assert_eq!(t.get(15, 20), BACKGROUND, "outside the hypotenuse");
    }

    #[test]
    fn concave_polygon_parity() {
        // A "U": the notch must stay unfilled.
        let mut t = tile();
        fill_polygon(
            &mut t,
            &[
                (10, 10),
                (20, 10),
                (20, 40),
                (30, 40),
                (30, 10),
                (40, 10),
                (40, 50),
                (10, 50),
            ],
            0xFFAA0000,
        );
        assert_eq!(t.get(15, 30), 0xFFAA0000, "left arm");
        assert_eq!(t.get(35, 30), 0xFFAA0000, "right arm");
        assert_eq!(t.get(25, 20), BACKGROUND, "notch");
        assert_eq!(t.get(25, 45), 0xFFAA0000, "base");
    }

    #[test]
    fn degenerate_polygon_ignored() {
        let mut t = tile();
        fill_polygon(&mut t, &[(10, 10), (20, 20)], 0xFFFFFFFF);
        assert_eq!(t.coverage(), 0.0);
    }

    #[test]
    fn disc_shape() {
        let mut t = tile();
        draw_disc(&mut t, 100, 100, 5, 0xFF123456);
        assert_eq!(t.get(100, 100), 0xFF123456);
        assert_eq!(t.get(105, 100), 0xFF123456);
        assert_eq!(t.get(106, 100), BACKGROUND);
        assert_eq!(t.get(104, 104), BACKGROUND, "corner outside radius");
    }

    #[test]
    fn clipping_at_tile_edges() {
        let mut t = tile();
        draw_line(&mut t, -50, 10, 300, 10, 0xFF0F0F0F, 1);
        assert_eq!(t.get(0, 10), 0xFF0F0F0F);
        assert_eq!(t.get(255, 10), 0xFF0F0F0F);
        draw_disc(&mut t, 0, 0, 10, 0xFF00FF00);
        assert_eq!(t.get(0, 0), 0xFF00FF00);
    }
}
