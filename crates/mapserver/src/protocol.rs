//! The client ↔ map-server wire protocol.
//!
//! Every federated interaction in paper §5.2 maps to one request kind. The
//! `Hello` exchange is how a server advertises what only it knows: its
//! frame anchor, portal nodes and extent. The localization
//! technologies it accepts ("the location cue sent to the map server
//! depends on the localization technology advertised by the server",
//! paper §5.2) are its DNS catalogue's `localize:` bits (spec §9.1).
//!
//! The wire form of every message is declared once, in the message
//! table at the bottom of this module (`openflame_codec::table`): each
//! variant's tag and its fields in wire order. The table is the single
//! in-code statement of the tags of `docs/wire-protocol.md` spec §2.1;
//! the conformance lint compares its rows to the spec's, and
//! `Request::TAGS` / `Response::TAGS` are what the Appendix B vectors
//! are checked for completeness against.

use crate::acl::Principal;
use openflame_codec::{
    wire_enum, wire_struct, CodecError, FieldCodec, Fnv1a, Opt, Own, Pair, Reader, Seq, Wire,
    Writer,
};
use openflame_geo::Point2;
use openflame_localize::{Estimate, LocationCue};
use openflame_mapdata::wire::{LatLngCodec, PointCodec};
use openflame_mapdata::{ElementId, MapPatch};
use openflame_tiles::{PixelRuns, RunsError};

/// A request wrapped with the caller's identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Caller identity for ACL evaluation (paper §5.3).
    pub principal: Principal,
    /// The request body.
    pub request: Request,
}

/// A map-server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Capability discovery.
    Hello,
    /// Forward geocode: text → positions.
    Geocode {
        /// Free-text address or name.
        query: String,
        /// Maximum results.
        k: u32,
    },
    /// Reverse geocode: position → named element.
    ReverseGeocode {
        /// Query position in the server's map frame.
        pos: Point2,
        /// Search radius, meters.
        radius_m: f64,
    },
    /// Location-based search.
    Search {
        /// Keyword query.
        query: String,
        /// Optional center in the server's map frame.
        center: Option<Point2>,
        /// Radius filter, meters.
        radius_m: f64,
        /// Maximum results.
        k: u32,
    },
    /// Point-to-point route within this server's map.
    Route {
        /// Source map node.
        from: u64,
        /// Destination map node.
        to: u64,
    },
    /// Cost matrix for stitched routing (paper §5.2). With no exits it
    /// is the snap of its entries alone (spec §8).
    RouteMatrix {
        /// The rows' ends.
        entries: Vec<RouteEnd>,
        /// The columns' ends.
        exits: Vec<RouteEnd>,
    },
    /// Localize from sensor cues.
    Localize {
        /// The cues collected by the device.
        cues: Vec<LocationCue>,
    },
    /// Fetch a rendered tile (anchored servers only).
    GetTile {
        /// Zoom level.
        z: u8,
        /// Tile column.
        x: u32,
        /// Tile row.
        y: u32,
    },
    /// Apply a map update.
    ApplyPatch {
        /// The patch.
        patch: MapPatch,
    },
    /// Fetch a rendered tile unless its runs still have `tag` (spec §8,
    /// "Tile revalidation"): answered [`Response::TileUnchanged`] when
    /// they do, and exactly as [`Request::GetTile`] otherwise.
    RevalidateTile {
        /// Zoom level.
        z: u8,
        /// Tile column.
        x: u32,
        /// Tile row.
        y: u32,
        /// The tag of the runs the client holds
        /// ([`PixelRuns::tag`]).
        tag: u64,
    },
    /// Several requests in one envelope, answered positionally by a
    /// [`Response::Batch`]. Scatter-gather clients coalesce their
    /// per-server traffic into one of these per round, paying one
    /// network round trip instead of one per request. Batches must be
    /// flat: a nested batch is rejected at both decode and dispatch.
    Batch(Vec<Request>),
}

/// One end of a [`Request::RouteMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteEnd {
    /// A map node, by id.
    Node(u64),
    /// A position in the server's frame, snapped to its nearest routable node.
    At(Point2),
}

/// Server capability advertisement.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloInfo {
    /// For anchored maps, the geographic anchor of the local frame, so
    /// clients can convert geographic positions into the server's frame;
    /// `None` for an unaligned map.
    pub anchor: Option<openflame_geo::LatLng>,
    /// Portal (entrance) nodes usable for route stitching, with a
    /// coarse geographic hint of where each portal meets the street.
    pub portals: Vec<(u64, openflame_geo::LatLng)>,
    /// The extent the server commits its content to, for client-side
    /// query planning (spec §13.1): raw cell ids, mixed levels, whose
    /// union holds every answerable element. Empty when the server
    /// commits to none, which proves nothing (spec §13.3). Which kinds
    /// and technologies the server offers is its DNS catalogue's to say
    /// (spec §9.1), not the advertisement's.
    pub coverage: Vec<u64>,
}

/// A geocode hit on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireGeocodeHit {
    /// Matched element.
    pub element: ElementId,
    /// Position in the server's map frame.
    pub pos: Point2,
    /// Match score.
    pub score: f64,
    /// Display label.
    pub label: String,
}

/// A search result on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSearchResult {
    /// Matched element.
    pub element: ElementId,
    /// Position in the server's map frame.
    pub pos: Point2,
    /// Ranking score.
    pub score: f64,
    /// Distance from the query center.
    pub distance_m: f64,
    /// Display label.
    pub label: String,
}

/// A route on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRoute {
    /// Map node ids along the path.
    pub nodes: Vec<u64>,
    /// Total cost, seconds.
    pub cost: f64,
    /// Total length, meters.
    pub length_m: f64,
    /// Geometry in the server's map frame.
    pub geometry: Vec<Point2>,
}

/// A localization estimate on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEstimate {
    /// Position in the server's map frame.
    pub pos: Point2,
    /// 1-sigma error, meters.
    pub error_m: f64,
    /// Producing technology.
    pub technology: String,
}

impl From<Estimate> for WireEstimate {
    fn from(e: Estimate) -> Self {
        Self {
            pos: e.pos,
            error_m: e.error_m,
            technology: e.technology,
        }
    }
}

/// A map-server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Capability advertisement.
    Hello(HelloInfo),
    /// Geocode results.
    Geocode {
        /// Ranked hits.
        hits: Vec<WireGeocodeHit>,
    },
    /// Reverse-geocode result.
    ReverseGeocode {
        /// The nearest named element, if any.
        hit: Option<WireGeocodeHit>,
    },
    /// Search results.
    Search {
        /// Ranked results.
        results: Vec<WireSearchResult>,
    },
    /// Route result.
    Route {
        /// The route, or `None` when no path exists.
        route: Option<WireRoute>,
    },
    /// Cost matrix (`entries × exits`, seconds; no path is infinity).
    RouteMatrix {
        /// Row-major costs.
        costs: Vec<Vec<f64>>,
        /// The node each end resolved to, entries then exits.
        nodes: Vec<u64>,
    },
    /// Localization estimates, best first.
    Localize {
        /// Candidate estimates.
        estimates: Vec<WireEstimate>,
    },
    /// A rendered tile.
    Tile {
        /// Zoom level.
        z: u8,
        /// Column.
        x: u32,
        /// Row.
        y: u32,
        /// The tile's canonical pixel runs (spec §8). Dereferences to
        /// its row-major RGB bytes, 256×256×3, painted on first use.
        rgb: PixelRuns,
    },
    /// The tile a [`Request::RevalidateTile`] asked about still has
    /// the tag the client sent: paint the runs it holds.
    TileUnchanged {
        /// Zoom level.
        z: u8,
        /// Column.
        x: u32,
        /// Row.
        y: u32,
    },
    /// Patch accepted.
    PatchApplied {
        /// New map version.
        version: u64,
    },
    /// The request failed.
    Error {
        /// Machine-readable code (1 = denied, 2 = not offered,
        /// 3 = malformed, 4 = failed).
        code: u8,
        /// Human-readable message.
        message: String,
    },
    /// Positional answers to a [`Request::Batch`]: `responses[i]`
    /// answers `requests[i]`, and per-item failures are ordinary
    /// [`Response::Error`] entries, so one denied item never sinks the
    /// rest of the batch.
    Batch(Vec<Response>),
    /// The server shed this envelope under admission control instead of
    /// queueing it: the request was **not** executed (shedding happens
    /// before dispatch), so retrying is always safe — including for
    /// non-idempotent requests. Sent as a whole-envelope answer, never
    /// inside a batch (`docs/wire-protocol.md` spec §10).
    Busy {
        /// Server's backoff hint: how long the caller SHOULD wait
        /// before retrying, microseconds. Callers add jitter.
        retry_after_us: u64,
    },
}

/// Stable admission-control key of the principal carried by an encoded
/// [`Envelope`], computed **without decoding the request body**. The
/// envelope encodes the principal first precisely so overload
/// classification stays O(identity bytes) on the serve hot path.
///
/// Anonymous principals (and payloads too malformed to carry one) map
/// to `0`; identified principals hash user and app with FNV-1a. The
/// per-principal fairness cap in the transports' overload policy keys
/// shed decisions off this value.
pub(crate) fn principal_key(payload: &[u8]) -> u64 {
    let mut r = Reader::new(payload);
    let Ok(principal) = Principal::decode(&mut r) else {
        return 0;
    };
    if principal.user.is_none() && principal.app.is_none() {
        return 0;
    }
    let mut h = Fnv1a::new();
    for part in [&principal.user, &principal.app] {
        let bytes = part.as_ref().map_or(&[0xFF][..], |s| s.as_bytes());
        h = h.write(bytes).write(&[0x1F]);
    }
    // Reserve 0 for anonymous: a pathological hash collision must not
    // make an identified caller share the anonymous bucket.
    h.finish().max(1)
}

// ---------------------------------------------------------------
// The message table.
//
// Hand-written, because a table row cannot say it — the two
// exceptions here: `BatchItem`, the codec of a batch's items, refuses a
// nested batch by peeking the tag *before* recursing, so a hostile
// payload cannot recurse the decoder; `TileRuns` writes a tile's
// pixel runs as they are and validates them in place. A new field on a
// message that already flows is no reason for a hand-written codec: it
// waits for the one extension slot every message will share.
// ---------------------------------------------------------------

wire_struct! { Principal { user, app } }
wire_struct! { Envelope { principal, request } }

wire_enum! { LocationCue as CueCodec, "LocationCue" {
    0 => Gnss { fix: LatLngCodec, accuracy_m },
    1 => BeaconRssi { readings },
    2 => FiducialTag { tag_id },
} }

wire_enum! { Request, "Request" {
    0 => Hello,
    1 => Geocode { query, k },
    2 => ReverseGeocode { pos: PointCodec, radius_m },
    3 => Search { query, center: Opt<PointCodec>, radius_m, k },
    4 => Route { from, to },
    5 => RouteMatrix { entries, exits },
    6 => Localize { cues: Seq<CueCodec> },
    7 => GetTile { z, x, y },
    8 => ApplyPatch { patch },
    // 9 is retired (`NearestNode`, spec §2.1).
    10 => Batch(requests: Seq<BatchItem>),
    11 => RevalidateTile { z, x, y, tag },
} }

wire_enum! { Response, "Response" {
    0 => Hello(info),
    1 => Geocode { hits },
    2 => ReverseGeocode { hit },
    3 => Search { results },
    4 => Route { route },
    5 => RouteMatrix { costs, nodes },
    6 => Localize { estimates },
    7 => Tile { z, x, y, rgb: TileRuns },
    8 => PatchApplied { version },
    9 => Error { code, message },
    // 10 is retired (`NearestNode`, spec §2.1).
    11 => Batch(responses: Seq<BatchItem>),
    12 => Busy { retry_after_us },
    13 => TileUnchanged { z, x, y },
} }

wire_enum! { RouteEnd, "RouteEnd" {
    0 => Node(node),
    1 => At(pos: PointCodec),
} }

wire_struct! { HelloInfo {
    anchor: Opt<LatLngCodec>, portals: Seq<Pair<Own, LatLngCodec>>, coverage,
} }
wire_struct! { WireGeocodeHit { element, pos: PointCodec, score, label } }
wire_struct! { WireSearchResult { element, pos: PointCodec, score, distance_m, label } }
wire_struct! { WireRoute { nodes, cost, length_m, geometry: Seq<PointCodec> } }
wire_struct! { WireEstimate { pos: PointCodec, error_m, technology } }

/// Codec of one item of a `Batch`: any message but another batch.
/// Batches are flat (spec §2.1), and the refusal happens on the peeked
/// tag, before the decoder descends.
pub struct BatchItem;

/// Refuses the message `r` stands at if the table of its direction
/// calls its tag `Batch` — looked up in the rows, not restated here.
fn refuse_batch(
    r: &Reader<'_>,
    tags: &[(u8, &str)],
    context: &'static str,
) -> Result<(), CodecError> {
    let tag = r.peek_u8()?;
    if tags.contains(&(tag, "Batch")) {
        return Err(CodecError::InvalidTag {
            context,
            tag: tag as u64,
        });
    }
    Ok(())
}

/// Codec of a tile's pixels (spec §8): its canonical runs as they are,
/// with no length prefix, as they end where they cover the tile. The
/// decoder validates them in place and keeps only the run bytes; it
/// never paints a pixel.
struct TileRuns;

impl FieldCodec<PixelRuns> for TileRuns {
    fn put(w: &mut Writer, v: &PixelRuns) {
        w.put_raw(v.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<PixelRuns, CodecError> {
        let (runs, used) = PixelRuns::read(r.rest()).map_err(|e| {
            let (context, tag) = match e {
                RunsError::Short { .. } => {
                    return CodecError::UnexpectedEof {
                        needed: 1,
                        remaining: 0,
                    }
                }
                RunsError::EmptyRun => ("tile run length", 0),
                RunsError::PastLastPixel { length } => ("tile run past the last pixel", length),
                RunsError::OverlongLength { length } => ("tile run length in long form", length),
                RunsError::RepeatedColour { rgb } => ("tile run repeating its colour", rgb.into()),
            };
            CodecError::InvalidTag { context, tag }
        })?;
        r.read_raw(used)?;
        Ok(runs)
    }
}

impl FieldCodec<Request> for BatchItem {
    fn put(w: &mut Writer, v: &Request) {
        v.encode(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Request, CodecError> {
        refuse_batch(r, Request::TAGS, "nested Request::Batch")?;
        Request::decode(r)
    }
}

impl FieldCodec<Response> for BatchItem {
    fn put(w: &mut Writer, v: &Response) {
        v.encode(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Response, CodecError> {
        refuse_batch(r, Response::TAGS, "nested Response::Batch")?;
        Response::decode(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_codec::{from_bytes, to_bytes, CodecError};
    use openflame_geo::LatLng;
    use openflame_mapdata::NodeId;

    fn round_trip_request(req: Request) {
        let env = Envelope {
            principal: Principal::user_via_app("a@b.c", "app"),
            request: req.clone(),
        };
        let back = from_bytes::<Envelope>(&to_bytes(&env)).unwrap();
        assert_eq!(back.request, req);
        assert_eq!(back.principal.user.as_deref(), Some("a@b.c"));
    }

    #[test]
    fn all_request_kinds_round_trip() {
        round_trip_request(Request::Hello);
        round_trip_request(Request::Geocode {
            query: "4810 forbes".into(),
            k: 5,
        });
        round_trip_request(Request::ReverseGeocode {
            pos: Point2::new(1.0, -2.0),
            radius_m: 30.0,
        });
        round_trip_request(Request::Search {
            query: "seaweed".into(),
            center: Some(Point2::new(5.0, 5.0)),
            radius_m: 100.0,
            k: 10,
        });
        round_trip_request(Request::Search {
            query: "x".into(),
            center: None,
            radius_m: f64::INFINITY,
            k: 1,
        });
        round_trip_request(Request::Route { from: 3, to: 9 });
        round_trip_request(Request::RouteMatrix {
            entries: vec![RouteEnd::Node(1), RouteEnd::At(Point2::new(4.0, 5.0))],
            exits: vec![RouteEnd::Node(3)],
        });
        round_trip_request(Request::Localize {
            cues: vec![
                LocationCue::Gnss {
                    fix: LatLng::new(40.0, -80.0).unwrap(),
                    accuracy_m: 4.0,
                },
                LocationCue::BeaconRssi {
                    readings: vec![(7, -55.5), (9, -72.25)],
                },
                LocationCue::FiducialTag { tag_id: 12 },
            ],
        });
        round_trip_request(Request::GetTile {
            z: 16,
            x: 18300,
            y: 24800,
        });
        round_trip_request(Request::RevalidateTile {
            z: 16,
            x: 18300,
            y: 24800,
            tag: u64::MAX,
        });
        round_trip_request(Request::ApplyPatch {
            patch: MapPatch::new(3),
        });
        round_trip_request(Request::Batch(vec![
            Request::Hello,
            Request::Geocode {
                query: "forbes".into(),
                k: 2,
            },
            Request::RouteMatrix {
                entries: vec![RouteEnd::At(Point2::new(1.0, 2.0))],
                exits: Vec::new(),
            },
        ]));
        round_trip_request(Request::Batch(Vec::new()));
    }

    #[test]
    fn nested_batches_rejected_by_decoder() {
        let nested = Request::Batch(vec![Request::Batch(vec![Request::Hello])]);
        let err = from_bytes::<Request>(&to_bytes(&nested)).unwrap_err();
        assert!(
            matches!(
                err,
                CodecError::InvalidTag {
                    context: "nested Request::Batch",
                    ..
                }
            ),
            "{err:?}"
        );
        let nested = Response::Batch(vec![Response::Batch(vec![])]);
        let err = from_bytes::<Response>(&to_bytes(&nested)).unwrap_err();
        assert!(
            matches!(
                err,
                CodecError::InvalidTag {
                    context: "nested Response::Batch",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Hello(HelloInfo {
                anchor: None,
                portals: vec![(17, openflame_geo::LatLng::new(40.0, -80.0).unwrap())],
                coverage: Vec::new(),
            }),
            Response::Hello(HelloInfo {
                anchor: Some(openflame_geo::LatLng::new(40.4, -79.9).unwrap()),
                portals: vec![],
                coverage: vec![0x89c25a3000000000, 0x89c25a5000000000],
            }),
            Response::Geocode {
                hits: vec![WireGeocodeHit {
                    element: ElementId::Node(NodeId(4)),
                    pos: Point2::new(1.0, 2.0),
                    score: 0.9,
                    label: "X".into(),
                }],
            },
            Response::ReverseGeocode { hit: None },
            Response::Search { results: vec![] },
            Response::Route {
                route: Some(WireRoute {
                    nodes: vec![1, 2, 3],
                    cost: 12.5,
                    length_m: 17.5,
                    geometry: vec![Point2::ZERO, Point2::new(1.0, 1.0)],
                }),
            },
            Response::RouteMatrix {
                costs: vec![vec![1.0, f64::INFINITY], vec![2.0, 3.0]],
                nodes: vec![1, 300, 3, 4],
            },
            Response::Localize {
                estimates: vec![WireEstimate {
                    pos: Point2::new(3.0, 4.0),
                    error_m: 2.0,
                    technology: "beacon".into(),
                }],
            },
            Response::Tile {
                z: 3,
                x: 1,
                y: 2,
                rgb: openflame_tiles::Tile::blank(openflame_tiles::TileCoord { z: 3, x: 1, y: 2 })
                    .to_runs(),
            },
            Response::TileUnchanged { z: 3, x: 1, y: 2 },
            Response::PatchApplied { version: 9 },
            Response::Error {
                code: 1,
                message: "denied".into(),
            },
            Response::Batch(vec![
                Response::PatchApplied { version: 1 },
                Response::Error {
                    code: 2,
                    message: "not offered".into(),
                },
            ]),
            Response::Batch(Vec::new()),
            Response::Busy {
                retry_after_us: 2_000,
            },
            Response::Busy { retry_after_us: 0 },
        ];
        for resp in cases {
            let back = from_bytes::<Response>(&to_bytes(&resp)).unwrap();
            assert_eq!(back, resp);
        }
    }

    /// A coverage-carrying Hello survives a round trip even when it is
    /// not the last response in a pipelined batch — the extent must be
    /// self-delimiting.
    #[test]
    fn coverage_hello_is_self_delimiting_inside_batches() {
        let hello = HelloInfo {
            anchor: None,
            portals: vec![],
            coverage: vec![1, 2, 3],
        };
        let batch = Response::Batch(vec![
            Response::Hello(hello.clone()),
            Response::PatchApplied { version: 5 },
        ]);
        let back = from_bytes::<Response>(&to_bytes(&batch)).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn infinity_survives_matrix_encoding() {
        let resp = Response::RouteMatrix {
            costs: vec![vec![f64::INFINITY]],
            nodes: vec![1, 2],
        };
        let back = from_bytes::<Response>(&to_bytes(&resp)).unwrap();
        let Response::RouteMatrix { costs, .. } = back else {
            panic!()
        };
        assert!(costs[0][0].is_infinite());
    }

    #[test]
    fn principal_key_reads_only_the_envelope_prefix() {
        let env = |principal: Principal, request: Request| {
            to_bytes(&Envelope { principal, request }).to_vec()
        };
        // Anonymous callers share bucket 0.
        assert_eq!(
            principal_key(&env(Principal::anonymous(), Request::Hello)),
            0
        );
        // Identified callers get stable, distinct, non-zero keys that
        // depend only on the principal, not on the request body.
        let alice_hello = principal_key(&env(Principal::user("alice@x"), Request::Hello));
        let alice_route = principal_key(&env(
            Principal::user("alice@x"),
            Request::Route { from: 1, to: 2 },
        ));
        let bob = principal_key(&env(Principal::user("bob@x"), Request::Hello));
        assert_ne!(alice_hello, 0);
        assert_eq!(alice_hello, alice_route);
        assert_ne!(alice_hello, bob);
        // user vs app identity must not collide by concatenation.
        let as_user = principal_key(&env(Principal::user("svc"), Request::Hello));
        let as_app = principal_key(&env(
            Principal {
                user: None,
                app: Some("svc".into()),
            },
            Request::Hello,
        ));
        assert_ne!(as_user, as_app);
        // Garbage degrades to the anonymous bucket, never panics.
        assert_eq!(principal_key(&[0xFF, 0xFE, 0x07]), 0);
        assert_eq!(principal_key(&[]), 0);
    }

    /// A peer's varint wider than the `u32` it lands in is malformed
    /// (spec §2.1) — not tile 5 for a column of 2³² + 5.
    #[test]
    fn u32_fields_reject_wider_varints() {
        use openflame_codec::Writer;
        let wide = u32::MAX as u64 + 6;
        let msg = |tag: u8, lead: &[u8], varints: &[u64], tail: &[u8]| {
            let mut w = Writer::new();
            w.put_u8(tag);
            w.put_raw(lead);
            varints.iter().for_each(|v| w.put_varint(*v));
            w.put_raw(tail);
            w.finish()
        };
        let is_refused = |r: Result<(), CodecError>| matches!(r, Err(CodecError::InvalidTag { context: "u32", tag }) if tag == wide);
        // query "x", no center, radius 100.0 — then k.
        let search = [&[1u8, b'x', 0][..], &100f64.to_le_bytes()].concat();
        for (what, bytes) in [
            ("Geocode.k", msg(1, &[1, b'x'], &[wide], &[])),
            ("Search.k", msg(3, &search, &[wide], &[])),
            ("GetTile.x", msg(7, &[16], &[wide, 2], &[])),
            ("GetTile.y", msg(7, &[16], &[1, wide], &[])),
        ] {
            assert!(
                is_refused(from_bytes::<Request>(&bytes).map(drop)),
                "{what}"
            );
        }
        for (what, bytes) in [
            ("Tile.x", msg(7, &[3], &[wide, 2], &[0])),
            ("Tile.y", msg(7, &[3], &[1, wide], &[0])),
        ] {
            assert!(
                is_refused(from_bytes::<Response>(&bytes).map(drop)),
                "{what}"
            );
        }
        // In range, the same shape decodes.
        assert_eq!(
            from_bytes::<Request>(&msg(7, &[16], &[u32::MAX as u64, 0], &[])).unwrap(),
            Request::GetTile {
                z: 16,
                x: u32::MAX,
                y: 0
            }
        );
    }

    /// A tile is its canonical runs (spec §8): a second spelling of a
    /// tile, or runs that do not cover it, is refused inside a batch as
    /// alone, and what follows the runs is the next item.
    #[test]
    fn tile_runs_are_refused_unless_canonical() {
        let tile = |runs: &[u8]| [&[7u8, 3, 1, 2][..], runs].concat();
        let blank = tile(&[0x80, 0x80, 0x04, 0xF2, 0xEF, 0xE9]);
        let batch = |item: &[u8]| [&[11u8, 2][..], item, &[8, 9]].concat();
        assert!(from_bytes::<Response>(&batch(&blank)).is_ok());
        for bad in [
            // Two runs of one colour.
            tile(&[0x01, 0, 0, 0, 0xFF, 0xFF, 0x03, 0, 0, 0]),
            // A run of length 0 first.
            tile(&[0x00, 1, 1, 1, 0x80, 0x80, 0x04, 0xF2, 0xEF, 0xE9]),
            // One pixel short, then the next item's bytes.
            tile(&[0xFF, 0xFF, 0x03, 0xF2, 0xEF, 0xE9]),
        ] {
            assert!(from_bytes::<Response>(&bad).is_err(), "{bad:02x?}");
            assert!(from_bytes::<Response>(&batch(&bad)).is_err(), "{bad:02x?}");
        }
    }

    #[test]
    fn garbage_never_panics() {
        for len in [0usize, 1, 7, 64] {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let _ = from_bytes::<Envelope>(&junk);
            let _ = from_bytes::<Response>(&junk);
        }
    }
}
