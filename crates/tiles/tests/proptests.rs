//! Pixel oracles: the one-pass RGB encoder and compositor against the
//! per-pixel loops they replaced, kept here verbatim as the oracles;
//! and the tile's wire form, its pixel runs, against the pixels.

use openflame_tiles::stitch::compose;
use openflame_tiles::tile::BACKGROUND;
use openflame_tiles::{PixelRuns, Tile, TileCoord, TILE_SIZE};
use proptest::prelude::*;

/// The server's first `GetTile` encoding loop.
fn oracle_rgb(tile: &Tile) -> Vec<u8> {
    let mut rgb = Vec::with_capacity(tile.pixels().len() * 3);
    for &px in tile.pixels() {
        rgb.push((px >> 16) as u8);
        rgb.push((px >> 8) as u8);
        rgb.push(px as u8);
    }
    rgb
}

/// The old compositor: a bounds-checked `get`/`set` per pixel.
fn oracle_compose(layers: &[&Tile]) -> Tile {
    let coord = layers
        .first()
        .map(|t| t.coord)
        .unwrap_or(TileCoord { z: 0, x: 0, y: 0 });
    let mut out = Tile::blank(coord);
    for layer in layers {
        assert_eq!(layer.coord, coord);
        for y in 0..TILE_SIZE as i64 {
            for x in 0..TILE_SIZE as i64 {
                let px = layer.get(x, y);
                if px != BACKGROUND {
                    out.set(x, y, px);
                }
            }
        }
    }
    out
}

const COORD: TileCoord = TileCoord {
    z: 16,
    x: 18_300,
    y: 24_800,
};

/// A colour: the background now and then, otherwise any ARGB value
/// (or, when `opaque`, any RGB with full alpha).
fn arb_color(opaque: bool) -> impl Strategy<Value = u32> {
    (0u8..8, any::<u32>()).prop_map(move |(pick, c)| match pick {
        0 => BACKGROUND,
        _ if opaque => 0xFF00_0000 | c,
        _ => c,
    })
}

/// A tile with up to 300 random pixels painted; some strokes fall off
/// the edge, which `set` ignores.
fn arb_tile(opaque: bool) -> impl Strategy<Value = Tile> {
    proptest::collection::vec((-4i64..260, -4i64..260, arb_color(opaque)), 0..300).prop_map(
        |paints| {
            let mut tile = Tile::blank(COORD);
            for (x, y, color) in paints {
                tile.set(x, y, color);
            }
            tile
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn to_rgb_equals_the_per_pixel_encoder(tile in arb_tile(false)) {
        prop_assert!(tile.to_rgb() == oracle_rgb(&tile));
        let ppm = tile.to_ppm();
        prop_assert!(ppm[ppm.len() - TILE_SIZE * TILE_SIZE * 3..] == oracle_rgb(&tile)[..]);
    }

    #[test]
    fn an_opaque_tile_survives_the_wire(tile in arb_tile(true)) {
        let runs = tile.to_runs();
        prop_assert!(Tile::from_runs(tile.coord, &runs) == tile);
        // The runs dereference to the tile's RGB bytes.
        prop_assert!(runs[..] == oracle_rgb(&tile)[..]);
    }

    #[test]
    fn decoded_runs_re_encode_to_their_own_bytes(tile in arb_tile(false)) {
        let runs = tile.to_runs();
        let (decoded, used) = PixelRuns::read(runs.as_bytes()).unwrap();
        prop_assert_eq!(used, runs.as_bytes().len());
        prop_assert!(decoded.as_bytes() == runs.as_bytes());
        let repainted = Tile::from_runs(tile.coord, &decoded);
        prop_assert!(repainted.to_runs().as_bytes() == runs.as_bytes());
    }

    #[test]
    fn compose_equals_the_per_pixel_compositor(
        layers in proptest::collection::vec(arb_tile(false), 0..5),
    ) {
        let refs: Vec<&Tile> = layers.iter().collect();
        prop_assert!(compose(&refs) == oracle_compose(&refs));
    }

    #[test]
    fn a_lone_layer_composes_to_itself(tile in arb_tile(false)) {
        prop_assert!(compose(&[&tile]) == tile);
    }
}

#[test]
fn a_wire_form_of_the_wrong_size_is_refused() {
    let runs = |pixels: usize| {
        let mut tile = Tile::blank(COORD);
        tile.set(0, 0, 0xFF00_0000);
        let mut bytes = tile.to_runs().as_bytes().to_vec();
        // The second run, background to the last pixel: 65 535 pixels.
        assert_eq!(bytes[4..], [0xFF, 0xFF, 0x03, 0xF2, 0xEF, 0xE9]);
        let length = (pixels - 1) as u32;
        let varint = [length | 0x80, length >> 7 | 0x80, length >> 14].map(|b| b as u8);
        bytes.splice(4..7, varint);
        bytes
    };
    let whole = runs(TILE_SIZE * TILE_SIZE);
    assert!(PixelRuns::read(&whole).is_ok());
    assert!(PixelRuns::read(&runs(TILE_SIZE * TILE_SIZE - 1)).is_err());
    assert!(PixelRuns::read(&runs(TILE_SIZE * TILE_SIZE + 1)).is_err());
    assert!(PixelRuns::read(&whole[..whole.len() - 1]).is_err());
}
