//! DNS registration of map servers (paper §5.1).
//!
//! A map server approximates its zone by a cell covering and publishes
//! one `MAPSRV` record per covering cell (plus a wildcard so queries at
//! finer levels still match). Discovery then *is* a DNS lookup. This
//! module spells what is published — the record data and the per-cell
//! record pair with its TTL; which zone hosts a cell's records is the
//! deployment's business.

use crate::naming::{cell_to_name, cell_to_wildcard};
use crate::server::MapServer;
use openflame_cells::CellId;
use openflame_dns::{Record, RecordData};

/// TTL of the spatial zone's records (map servers move rarely —
/// paper §5.1: "the address of the map servers are not expected to
/// change frequently so the system would benefit from a ubiquitous
/// caching mechanism").
pub const MAPSRV_TTL_S: u32 = 300;

/// The `MAPSRV` record data `server` registers under: its endpoint, id
/// and catalogue (spec §9.1).
pub fn mapsrv_record(server: &MapServer) -> RecordData {
    RecordData::MapSrv {
        endpoint: server.endpoint().0,
        server_id: server.id().to_string(),
        catalogue: server.catalogue(),
    }
}

/// The record pair that publishes `data` for one covering cell: the
/// cell's exact name, and the wildcard beneath it so queries at finer
/// levels still match.
pub fn cell_records(cell: CellId, data: &RecordData) -> [Record; 2] {
    [cell_to_name(cell), cell_to_wildcard(cell)]
        .map(|name| Record::new(name, MAPSRV_TTL_S, data.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{AccessPolicy, Principal};
    use crate::naming::{QUERY_LEVEL, SPATIAL_ROOT};
    use crate::protocol::{Request, Response, RouteEnd};
    use crate::server::MapServerConfig;
    use openflame_cells::{Region, RegionCoverer};
    use openflame_dns::{Catalogue, DomainName, RecordType, Zone};
    use openflame_geo::Point2;
    use openflame_netsim::BackendKind;
    use openflame_worldgen::{World, WorldConfig};

    /// A venue server and the spatial zone holding its registration:
    /// the record pair of every cell of its level-13 covering.
    fn registered() -> (std::sync::Arc<MapServer>, Zone, Vec<CellId>, World) {
        let net = BackendKind::Sim.build(2);
        let world = World::generate(WorldConfig::default());
        let venue = &world.venues[0];
        let server = MapServer::spawn_on(
            &net,
            MapServerConfig {
                id: "store0".into(),
                map: venue.map.clone(),
                beacons: venue.beacons.clone(),
                tags: venue.tags.clone(),
                policy: AccessPolicy::open(),
                portals: vec![(venue.entrance_local, venue.hint)],
                location_hint: venue.hint,
                radius_m: venue.radius_m,
                build_ch: false,
            },
        );
        let region = Region::Cap {
            center: server.location_hint(),
            radius_m: server.radius_m(),
        };
        let cells = RegionCoverer::default().covering_at_level(&region, 13);
        let mut zone = Zone::new(DomainName::parse(SPATIAL_ROOT).unwrap());
        let data = mapsrv_record(&server);
        for record in cells.iter().flat_map(|cell| cell_records(*cell, &data)) {
            zone.add(record);
        }
        (server, zone, cells, world)
    }

    #[test]
    fn registration_inserts_records() {
        let (_server, zone, cells, _world) = registered();
        assert!(!cells.is_empty());
        // Exact + wildcard per cell, all at the one TTL.
        assert_eq!(zone.record_count(), cells.len() * 2);
        assert!(zone.iter_records().all(|r| r.ttl_s == MAPSRV_TTL_S));
    }

    #[test]
    fn registered_server_resolvable_at_query_level() {
        let (server, zone, _cells, world) = registered();
        // A discovery query at the canonical level for a point at the
        // venue must find the MAPSRV record (via exact or wildcard).
        let name = cell_to_name(CellId::from_latlng(world.venues[0].hint, QUERY_LEVEL).unwrap());
        let resp = zone.query(&name, RecordType::MapSrv);
        assert!(
            !resp.answers.is_empty(),
            "lookup {name} found nothing (rcode {:?})",
            resp.rcode
        );
        let RecordData::MapSrv {
            server_id,
            endpoint,
            ..
        } = &resp.answers[0].data
        else {
            panic!("wrong record type");
        };
        assert_eq!(server_id, "store0");
        assert_eq!(*endpoint, server.endpoint().0);
    }

    #[test]
    fn services_advertised_in_record() {
        let (server, _zone, _cells, world) = registered();
        let catalogue = |server: &MapServer| {
            let RecordData::MapSrv { catalogue, .. } = mapsrv_record(server) else {
                panic!("wrong record type");
            };
            catalogue
        };
        let venue = catalogue(&server);
        assert!(venue.contains(Catalogue::SEARCH | Catalogue::LOCALIZE_BEACON));
        // Spec §9.1: the catalogue lists `rgeocode` and `tiles` exactly
        // when the map is geo-anchored — the unaligned venue lists
        // neither, the anchored outdoor map both.
        for kind in [Catalogue::RGEOCODE, Catalogue::TILES] {
            assert!(!venue.contains(kind), "{kind:?}");
        }
        let outdoor = MapServer::spawn_on(
            &BackendKind::Sim.build(3),
            MapServerConfig {
                id: "outdoor".into(),
                map: world.outdoor.clone(),
                beacons: vec![],
                tags: Default::default(),
                policy: AccessPolicy::open(),
                portals: vec![],
                location_hint: world.config.center,
                radius_m: 2_000.0,
                build_ch: false,
            },
        );
        for kind in [Catalogue::RGEOCODE, Catalogue::TILES] {
            assert!(catalogue(&outdoor).contains(kind), "{kind:?}");
        }
        // Spec §9.1: the catalogue is the server's one kind list, and it
        // is exhaustive — it lists a kind exactly when the server answers
        // that kind with anything but "not offered" (code 2).
        let probes = [
            (
                Catalogue::SEARCH,
                Request::Search {
                    query: "x".into(),
                    center: None,
                    radius_m: f64::INFINITY,
                    k: 1,
                },
            ),
            (
                Catalogue::GEOCODE,
                Request::Geocode {
                    query: "x".into(),
                    k: 1,
                },
            ),
            (
                Catalogue::RGEOCODE,
                Request::ReverseGeocode {
                    pos: Point2::ZERO,
                    radius_m: 10.0,
                },
            ),
            (
                Catalogue::ROUTE,
                Request::RouteMatrix {
                    entries: vec![RouteEnd::At(Point2::ZERO)],
                    exits: Vec::new(),
                },
            ),
            (Catalogue::LOCALIZE, Request::Localize { cues: Vec::new() }),
            (Catalogue::TILES, Request::GetTile { z: 15, x: 0, y: 0 }),
        ];
        for server in [&server, &outdoor] {
            let catalogue = catalogue(server);
            for (kind, request) in &probes {
                let answer = server.dispatch(&Principal::anonymous(), request.clone());
                let offered = !matches!(answer, Response::Error { code: 2, .. });
                let listed = catalogue.contains(*kind);
                assert_eq!(listed, offered, "{}: {kind:?}", server.id());
            }
        }
    }
}
