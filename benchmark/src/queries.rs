//! From a generated [`Op`] to a query, and from an answer to a verdict.
//!
//! Two forms of every query: a typed call through `&dyn SpatialProvider`
//! (closed-loop workloads) and a raw envelope for one server (the open
//! loop). Both are checked against the world's ground truth; a miss
//! counts as a failed operation.

use crate::stats::fnv1a;
use crate::trace::{Class, Op};
use openflame_core::{
    ClientError, FederatedSearchHit, GeocodeOutcome, GeocodeQuery, LocalizeOutcome, LocalizeQuery,
    ReverseGeocodeOutcome, ReverseGeocodeQuery, RouteOutcome, RouteQuery, SearchOutcome,
    SearchQuery, SpatialProvider, TileOutcome, TileQuery,
};
use openflame_geo::{LatLng, LocalFrame, Mercator};
use openflame_localize::LocationCue;
use openflame_mapdata::ElementId;
use openflame_mapserver::protocol::{Request, Response};
use openflame_tiles::{TileCoord, TILE_SIZE};
use openflame_worldgen::World;
use std::collections::HashMap;

/// Zoom of every tile query: street level, one tile per venue.
pub const TILE_ZOOM: u8 = 16;
/// How far a localization answer may sit from the true position.
pub const LOCALIZE_TOLERANCE_M: f64 = 25.0;
const REVERSE_RADIUS_M: f64 = 100.0;

/// The ground truth queries are drawn from and answers checked against.
pub struct Ground<'a> {
    pub world: &'a World,
    /// Query points per venue.
    pub sites: &'a [Vec<LatLng>],
    pub search_radius_m: f64,
    /// Content hash of each tile coordinate's first fetch.
    pub tile_hashes: &'a HashMap<TileCoord, u64>,
}

impl Ground<'_> {
    pub fn point(&self, op: &Op) -> LatLng {
        self.sites[op.venue][op.point]
    }

    pub fn tile_coord(&self, op: &Op) -> TileCoord {
        let (x, y) = Mercator::tile_for(self.point(op), TILE_ZOOM);
        TileCoord { z: TILE_ZOOM, x, y }
    }

    fn fix(&self, op: &Op) -> LatLng {
        self.point(op).destination(op.fix_offset.0, op.fix_offset.1)
    }

    /// The geocoder answers a venue's name with the venue or one of
    /// its named parts ("FreshMart #1 entrance").
    fn names_venue(&self, op: &Op, label: &str) -> bool {
        label.starts_with(&self.world.venues[op.venue].name)
    }

    fn tile_matches(&self, coord: TileCoord, pixels: usize, hash: u64) -> bool {
        pixels == TILE_SIZE * TILE_SIZE && self.tile_hashes.get(&coord) == Some(&hash)
    }

    /// The typed provider query for `op`. `hits` holds the search hit
    /// of every route target (resolved in warm-up); a route to an
    /// unresolved target has no query.
    pub fn query(&self, hits: &HashMap<usize, FederatedSearchHit>, op: &Op) -> Option<Query> {
        let here = self.point(op);
        Some(match op.class {
            Class::Search => Query::Search(SearchQuery {
                query: self.world.products[op.product].name.clone(),
                location: here,
                radius_m: self.search_radius_m,
                k: 5,
            }),
            Class::Route => Query::Route(RouteQuery {
                from: here,
                target: hits.get(&op.product)?.clone(),
            }),
            Class::Localize => Query::Localize(LocalizeQuery {
                coarse: here,
                cues: vec![LocationCue::Gnss {
                    fix: self.fix(op),
                    accuracy_m: 10.0,
                }],
            }),
            Class::Tile => Query::Tile(TileQuery {
                center: here,
                z: TILE_ZOOM,
            }),
            Class::Geocode => Query::Geocode(GeocodeQuery {
                query: self.world.venues[op.venue].name.clone(),
                k: 3,
            }),
            Class::ReverseGeocode => Query::ReverseGeocode(ReverseGeocodeQuery {
                location: here,
                radius_m: REVERSE_RADIUS_M,
            }),
        })
    }

    /// Whether `answer` is the right answer to `op`.
    pub fn check(
        &self,
        hits: &HashMap<usize, FederatedSearchHit>,
        op: &Op,
        answer: &Answer,
    ) -> bool {
        match answer {
            Answer::Search(outcome) => {
                outcome.hits.first().map(|h| h.result.label.as_str())
                    == Some(&self.world.products[op.product].name)
            }
            Answer::Route(outcome) => {
                let want = match hits.get(&op.product).map(|hit| hit.result.element) {
                    Some(ElementId::Node(n)) => n.0,
                    _ => return false,
                };
                let reached = outcome.route.legs.last();
                reached.and_then(|leg| leg.route.nodes.last()) == Some(&want)
            }
            Answer::Localize(outcome) => outcome.estimates.iter().any(|e| {
                e.estimate.technology == "gnss"
                    && e.geo.is_some_and(|g| {
                        g.haversine_distance(self.point(op)) <= LOCALIZE_TOLERANCE_M
                    })
            }),
            Answer::Tile(outcome) => self.tile_matches(
                outcome.tile.coord,
                outcome.tile.pixels().len(),
                fnv1a(outcome.tile.pixels()),
            ),
            Answer::Geocode(outcome) => outcome
                .hits
                .first()
                .is_some_and(|h| self.names_venue(op, &h.hit.label)),
            Answer::ReverseGeocode(outcome) => outcome.hit.is_some(),
        }
    }
}

/// One typed provider query.
pub enum Query {
    Search(SearchQuery),
    Route(RouteQuery),
    Localize(LocalizeQuery),
    Tile(TileQuery),
    Geocode(GeocodeQuery),
    ReverseGeocode(ReverseGeocodeQuery),
}

/// The provider's answer to a [`Query`].
pub enum Answer {
    Search(SearchOutcome),
    Route(RouteOutcome),
    Localize(LocalizeOutcome),
    Tile(TileOutcome),
    Geocode(GeocodeOutcome),
    ReverseGeocode(ReverseGeocodeOutcome),
}

impl Query {
    /// The one provider call — what the closed-loop drivers time.
    pub fn issue(self, provider: &dyn SpatialProvider) -> Result<Answer, ClientError> {
        Ok(match self {
            Query::Search(q) => Answer::Search(provider.search(q)?),
            Query::Route(q) => Answer::Route(provider.route(q)?),
            Query::Localize(q) => Answer::Localize(provider.localize(q)?),
            Query::Tile(q) => Answer::Tile(provider.tile(q)?),
            Query::Geocode(q) => Answer::Geocode(provider.geocode(q)?),
            Query::ReverseGeocode(q) => Answer::ReverseGeocode(provider.reverse_geocode(q)?),
        })
    }
}

/// Which server a raw op goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawTarget {
    /// The venue server of `op.venue`.
    Venue,
    /// The outdoor world-map server.
    Outdoor,
}

/// The raw request for `op`, as one server would receive it from the
/// provider layer. `outdoor_frame` is the outdoor server's map frame.
pub fn raw_request(ground: &Ground, outdoor_frame: &LocalFrame, op: &Op) -> (RawTarget, Request) {
    let world = ground.world;
    let product = &world.products[op.product];
    match op.class {
        Class::Search => (
            RawTarget::Venue,
            Request::Search {
                query: product.name.clone(),
                center: None,
                radius_m: f64::INFINITY,
                k: 3,
            },
        ),
        Class::Route => (
            RawTarget::Venue,
            Request::Route {
                from: world.venues[op.venue].entrance_local.0,
                to: product.shelf.0,
            },
        ),
        Class::Localize => (
            RawTarget::Outdoor,
            Request::Localize {
                cues: vec![LocationCue::Gnss {
                    fix: ground.fix(op),
                    accuracy_m: 10.0,
                }],
            },
        ),
        Class::Tile => {
            let TileCoord { z, x, y } = ground.tile_coord(op);
            (RawTarget::Outdoor, Request::GetTile { z, x, y })
        }
        Class::Geocode => (
            RawTarget::Outdoor,
            Request::Geocode {
                query: world.venues[op.venue].name.clone(),
                k: 3,
            },
        ),
        Class::ReverseGeocode => (
            RawTarget::Outdoor,
            Request::ReverseGeocode {
                pos: outdoor_frame.to_local(ground.point(op)),
                radius_m: REVERSE_RADIUS_M,
            },
        ),
    }
}

/// Checks a raw response against the ground truth of `op`.
pub fn raw_response_ok(
    ground: &Ground,
    outdoor_frame: &LocalFrame,
    op: &Op,
    response: &Response,
) -> bool {
    let world = ground.world;
    let product = &world.products[op.product];
    match (op.class, response) {
        (Class::Search, Response::Search { results }) => {
            results.first().map(|r| r.label.as_str()) == Some(&product.name)
        }
        (Class::Route, Response::Route { route: Some(route) }) => {
            route.nodes.last() == Some(&product.shelf.0)
        }
        (Class::Localize, Response::Localize { estimates }) => estimates.iter().any(|e| {
            outdoor_frame
                .from_local(e.pos)
                .haversine_distance(ground.point(op))
                <= LOCALIZE_TOLERANCE_M
        }),
        (Class::Tile, Response::Tile { z, x, y, rgb }) => {
            let coord = TileCoord {
                z: *z,
                x: *x,
                y: *y,
            };
            // Three bytes per pixel on the wire.
            coord == ground.tile_coord(op) && ground.tile_matches(coord, rgb.len() / 3, fnv1a(rgb))
        }
        (Class::Geocode, Response::Geocode { hits }) => hits
            .first()
            .is_some_and(|h| ground.names_venue(op, &h.label)),
        (Class::ReverseGeocode, Response::ReverseGeocode { hit }) => hit.is_some(),
        _ => false,
    }
}
