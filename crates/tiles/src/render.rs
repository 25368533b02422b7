//! Rendering map documents into tiles, with a bounded cache of their
//! wire form.
//!
//! A tile is rendered once and encoded once ([`Tile::to_runs`]), and the
//! cache keeps those [`PixelRuns`] — the form a `GetTile` answer carries,
//! a few kilobytes for a layer of mostly background — rather than the
//! 256 KB ARGB [`Tile`], so a hit shares the runs' buffer with no
//! per-pixel pass and no copy. The runs' tag ([`PixelRuns::tag`], what a
//! `RevalidateTile` is answered by, spec §8) is hashed the first time a
//! revalidation asks for it and kept with the cached runs, so a tile is
//! hashed at most once per render. The cache holds at most
//! `TILE_CACHE_ENTRIES` (256) tiles: when it is full, caching a new tile
//! evicts the one cached earliest (first in, first out). A renderer is
//! built for one map version, so its cache never outlives that map.

use crate::raster::{draw_disc, draw_line, fill_polygon};
use crate::runs::PixelRuns;
use crate::style::style_for;
use crate::tile::{Tile, TileCoord, TILE_SIZE};
use openflame_geo::{Mercator, Point2};
use openflame_mapdata::MapDocument;
use std::collections::{HashMap, VecDeque};

/// Most tiles one renderer keeps cached (at most 64 MB of runs, the
/// worst case of spec §8; a few MB for the renderer's flat fills).
pub(crate) const TILE_CACHE_ENTRIES: usize = 256;

/// Renders a geo-anchored map document into slippy tiles.
///
/// Rendering follows the centralized pipeline of paper §4.1 — tiles are
/// rendered on demand into a cache — but each *federated* server only
/// holds its own map, so its tiles are mostly background outside its
/// region; the client composes tiles from many servers (see
/// [`crate::stitch`]).
pub struct TileRenderer {
    /// Projected world coordinates (unit square) per node, plus tags.
    features: Vec<Feature>,
    cache: openflame_diag::OrderedMutex<TileCache>,
    render_count: std::sync::atomic::AtomicU64,
}

/// Cached wire forms, and the order they were cached in.
#[derive(Default)]
struct TileCache {
    tiles: HashMap<TileCoord, PixelRuns>,
    order: VecDeque<TileCoord>,
}

impl TileCache {
    /// Caches `runs` for `coord` unless a concurrent render got there
    /// first, and returns what is cached.
    fn insert(&mut self, coord: TileCoord, runs: PixelRuns) -> PixelRuns {
        if let Some(hit) = self.tiles.get(&coord) {
            return hit.clone();
        }
        if self.order.len() == TILE_CACHE_ENTRIES {
            if let Some(oldest) = self.order.pop_front() {
                self.tiles.remove(&oldest);
            }
        }
        self.order.push_back(coord);
        self.tiles.insert(coord, runs.clone());
        runs
    }
}

enum Feature {
    Node {
        world: Point2,
        style: crate::style::Style,
    },
    Way {
        world: Vec<Point2>,
        style: crate::style::Style,
        closed: bool,
    },
}

impl TileRenderer {
    /// Builds a renderer for an anchored map. Returns `None` if the map
    /// is unaligned (no geographic meaning; use
    /// [`crate::stitch::render_unaligned_overlay`] instead).
    pub fn new(map: &MapDocument) -> Option<Self> {
        let georef = map.georef();
        georef.to_geo(Point2::ZERO)?;
        let project = |p: Point2| -> Point2 {
            let geo = georef.to_geo(p).expect("anchored");
            Mercator::project(geo)
        };
        let mut features = Vec::new();
        for node in map.nodes() {
            if let Some(style) = style_for(&node.tags) {
                features.push(Feature::Node {
                    world: project(node.pos),
                    style,
                });
            }
        }
        for way in map.ways() {
            if let Some(style) = style_for(&way.tags) {
                if let Some(geom) = map.way_geometry(way.id) {
                    features.push(Feature::Way {
                        world: geom.into_iter().map(project).collect(),
                        style,
                        closed: way.is_closed(),
                    });
                }
            }
        }
        // Draw lower layers first.
        features.sort_by_key(|f| match f {
            Feature::Node { style, .. } | Feature::Way { style, .. } => style.layer,
        });
        Some(Self {
            features,
            cache: openflame_diag::OrderedMutex::new(
                openflame_diag::ranks::TILE_CACHE,
                TileCache::default(),
            ),
            render_count: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Number of tiles rendered (not served from cache).
    pub fn renders_performed(&self) -> u64 {
        self.render_count.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// One tile's wire form ([`Tile::to_runs`]): rendered and encoded on
    /// a miss, shared from the cache on a hit. [`Tile::from_runs`] paints
    /// it back into pixels.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the pyramid
    /// ([`TileCoord::in_pyramid`]); a server checks before it asks.
    pub fn tile(&self, coord: TileCoord) -> PixelRuns {
        if let Some(hit) = self.cache.lock().tiles.get(&coord) {
            return hit.clone();
        }
        assert!(coord.in_pyramid(), "tile {coord:?} is outside the pyramid");
        let runs = self.render(coord).to_runs();
        self.cache.lock().insert(coord, runs)
    }

    fn render(&self, coord: TileCoord) -> Tile {
        self.render_count
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tile = Tile::blank(coord);
        let n = (1u64 << coord.z) as f64;
        let scale = n * TILE_SIZE as f64;
        let origin_x = coord.x as f64 * TILE_SIZE as f64;
        let origin_y = coord.y as f64 * TILE_SIZE as f64;
        let to_px = |w: Point2| -> (i64, i64) {
            (
                (w.x * scale - origin_x).round() as i64,
                (w.y * scale - origin_y).round() as i64,
            )
        };
        let margin = 16i64;
        let in_range = |(x, y): (i64, i64)| {
            x > -margin
                && y > -margin
                && x < TILE_SIZE as i64 + margin
                && y < TILE_SIZE as i64 + margin
        };
        for feature in &self.features {
            match feature {
                Feature::Node { world, style } => {
                    let px = to_px(*world);
                    if in_range(px) {
                        draw_disc(&mut tile, px.0, px.1, style.width, style.color);
                    }
                }
                Feature::Way {
                    world,
                    style,
                    closed,
                } => {
                    let px: Vec<(i64, i64)> = world.iter().map(|w| to_px(*w)).collect();
                    // Skip ways entirely far outside this tile.
                    if !px.iter().any(|&p| in_range(p)) && px.len() < 64 {
                        continue;
                    }
                    if *closed && style.fill {
                        fill_polygon(&mut tile, &px, style.color);
                    } else {
                        for w in px.windows(2) {
                            draw_line(
                                &mut tile,
                                w[0].0,
                                w[0].1,
                                w[1].0,
                                w[1].1,
                                style.color,
                                style.width,
                            );
                        }
                    }
                }
            }
        }
        tile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_geo::LatLng;
    use openflame_mapdata::{GeoReference, Tags};

    fn city_map() -> MapDocument {
        let origin = LatLng::new(40.4433, -79.9436).unwrap();
        let mut map = MapDocument::new(GeoReference::Anchored { origin });
        // A 500 m road east and a building.
        let a = map.add_node(Point2::new(0.0, 0.0), Tags::new());
        let b = map.add_node(Point2::new(500.0, 0.0), Tags::new());
        map.add_way(vec![a, b], Tags::new().with("highway", "primary"))
            .unwrap();
        let c1 = map.add_node(Point2::new(100.0, 50.0), Tags::new());
        let c2 = map.add_node(Point2::new(150.0, 50.0), Tags::new());
        let c3 = map.add_node(Point2::new(150.0, 100.0), Tags::new());
        let c4 = map.add_node(Point2::new(100.0, 100.0), Tags::new());
        map.add_way(
            vec![c1, c2, c3, c4, c1],
            Tags::new().with("building", "yes"),
        )
        .unwrap();
        map.add_node(
            Point2::new(250.0, 20.0),
            Tags::new().with("amenity", "restaurant"),
        );
        map
    }

    #[test]
    fn unaligned_maps_have_no_geo_renderer() {
        let map = MapDocument::new(GeoReference::Unaligned);
        assert!(TileRenderer::new(&map).is_none());
    }

    #[test]
    fn renders_features_on_covering_tile() {
        let map = city_map();
        let r = TileRenderer::new(&map).unwrap();
        let origin = LatLng::new(40.4433, -79.9436).unwrap();
        let (x, y) = Mercator::tile_for(origin, 16);
        let coord = TileCoord { z: 16, x, y };
        let tile = Tile::from_runs(coord, &r.tile(coord));
        assert!(tile.coverage() > 0.001, "coverage {}", tile.coverage());
    }

    #[test]
    fn empty_area_tile_is_blank() {
        let map = city_map();
        let r = TileRenderer::new(&map).unwrap();
        let far = LatLng::new(48.85, 2.35).unwrap();
        let (x, y) = Mercator::tile_for(far, 16);
        let coord = TileCoord { z: 16, x, y };
        let tile = Tile::from_runs(coord, &r.tile(coord));
        assert_eq!(tile.coverage(), 0.0);
    }

    #[test]
    fn cache_avoids_rerender() {
        let map = city_map();
        let r = TileRenderer::new(&map).unwrap();
        let coord = TileCoord {
            z: 14,
            x: 100,
            y: 200,
        };
        let t1 = r.tile(coord);
        let t2 = r.tile(coord);
        assert!(PixelRuns::ptr_eq(&t1, &t2));
        assert_eq!(r.renders_performed(), 1);
    }

    #[test]
    fn cache_is_bounded_first_in_first_out() {
        let map = city_map();
        let r = TileRenderer::new(&map).unwrap();
        let coord = |i: usize| TileCoord {
            z: 18,
            x: 1_000 + i as u32,
            y: 2_000,
        };
        let extra = 8;
        for i in 0..TILE_CACHE_ENTRIES + extra {
            r.tile(coord(i));
        }
        let renders = r.renders_performed();
        assert_eq!(renders as usize, TILE_CACHE_ENTRIES + extra);
        assert_eq!(r.cache.lock().tiles.len(), TILE_CACHE_ENTRIES);
        // The newest tiles are still cached: served without a render.
        for i in extra..TILE_CACHE_ENTRIES + extra {
            r.tile(coord(i));
        }
        assert_eq!(r.renders_performed(), renders);
        // The earliest were evicted, and come back by rendering again.
        r.tile(coord(0));
        assert_eq!(r.renders_performed(), renders + 1);
        assert_eq!(r.cache.lock().tiles.len(), TILE_CACHE_ENTRIES);
    }

    #[test]
    #[should_panic(expected = "outside the pyramid")]
    fn a_tile_outside_the_pyramid_is_refused() {
        let r = TileRenderer::new(&city_map()).unwrap();
        r.tile(TileCoord { z: 64, x: 0, y: 0 });
    }

    #[test]
    fn higher_zoom_tiles_show_more_detail() {
        let map = city_map();
        let r = TileRenderer::new(&map).unwrap();
        let origin = LatLng::new(40.4433, -79.9436).unwrap();
        let (x14, y14) = Mercator::tile_for(origin, 14);
        let (x17, y17) = Mercator::tile_for(origin, 17);
        let rendered = |coord| Tile::from_runs(coord, &r.tile(coord));
        let z14 = rendered(TileCoord {
            z: 14,
            x: x14,
            y: y14,
        });
        let z17 = rendered(TileCoord {
            z: 17,
            x: x17,
            y: y17,
        });
        // At high zoom the road is thicker in relative terms; both must
        // show something, and they must differ.
        assert!(z14.coverage() > 0.0);
        assert!(z17.coverage() > 0.0);
        assert_ne!(z14.pixels(), z17.pixels());
    }
}
