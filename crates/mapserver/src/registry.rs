//! DNS registration of map servers (paper §5.1).
//!
//! A map server approximates its zone by a cell covering and publishes
//! one `MAPSRV` record per covering cell (plus a wildcard so queries at
//! finer levels still match). Discovery then *is* a DNS lookup.

use crate::naming::{cell_to_name, cell_to_wildcard};
use crate::server::MapServer;
use openflame_cells::{Region, RegionCoverer};
use openflame_dns::{AuthServer, Record, RecordData, RecordType};

/// Default TTL for MAPSRV records (map servers move rarely — paper §5.1:
/// "the address of the map servers are not expected to change
/// frequently so the system would benefit from a ubiquitous caching
/// mechanism").
pub const MAPSRV_TTL_S: u32 = 300;

/// Registers `server`'s zone covering in the spatial zone hosted by
/// `dns`. Returns the covering cells that were registered.
///
/// `covering_level` controls the granularity/false-positive trade-off
/// measured by experiment E3.
pub fn register_server(
    dns: &AuthServer,
    server: &MapServer,
    covering_level: u8,
) -> Vec<openflame_cells::CellId> {
    let hello = server.hello();
    let region = Region::Cap {
        center: server.location_hint(),
        radius_m: server.radius_m(),
    };
    let cells = RegionCoverer::default().covering_at_level(&region, covering_level);
    let data = RecordData::MapSrv {
        endpoint: server.endpoint().0,
        server_id: server.id().to_string(),
        services: hello
            .services
            .iter()
            .cloned()
            .chain(
                hello
                    .localization_techs
                    .iter()
                    .map(|t| format!("localize:{t}")),
            )
            .collect(),
    };
    dns.with_zones_mut(|zones| {
        for zone in zones.iter_mut() {
            for cell in &cells {
                let exact = cell_to_name(*cell);
                if !exact.is_subdomain_of(zone.origin()) {
                    continue;
                }
                zone.add(Record::new(exact, MAPSRV_TTL_S, data.clone()));
                zone.add(Record::new(
                    cell_to_wildcard(*cell),
                    MAPSRV_TTL_S,
                    data.clone(),
                ));
            }
        }
    });
    cells
}

/// Removes every MAPSRV record for `server_id` from the zones hosted by
/// `dns`. Returns how many records were removed.
pub fn unregister_server(dns: &AuthServer, server_id: &str) -> usize {
    dns.with_zones_mut(|zones| zones.iter_mut().map(|z| z.remove_mapsrv(server_id)).sum())
}

/// Counts MAPSRV records (for load and footprint measurements).
pub fn mapsrv_record_count(dns: &AuthServer) -> usize {
    dns.with_zones(|zones| {
        zones
            .iter()
            .flat_map(|z| z.iter_records())
            .filter(|r| r.data.rtype() == RecordType::MapSrv)
            .count()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::AccessPolicy;
    use crate::naming::{cell_to_name, QUERY_LEVEL, SPATIAL_ROOT};
    use crate::server::MapServerConfig;
    use openflame_cells::CellId;
    use openflame_dns::{DomainName, Zone};
    use openflame_netsim::{BackendKind, Transport};
    use openflame_worldgen::{World, WorldConfig};

    fn setup() -> (
        std::sync::Arc<dyn Transport>,
        std::sync::Arc<AuthServer>,
        std::sync::Arc<MapServer>,
        World,
    ) {
        let net = BackendKind::Sim.build(2);
        let zone = Zone::new(DomainName::parse(SPATIAL_ROOT).unwrap());
        let dns = AuthServer::spawn_on(&net, "cells", vec![zone]);
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
        (net, dns, server, world)
    }

    #[test]
    fn registration_inserts_records() {
        let (_net, dns, server, _world) = setup();
        let cells = register_server(&dns, &server, 13);
        assert!(!cells.is_empty());
        // Exact + wildcard per cell.
        assert_eq!(mapsrv_record_count(&dns), cells.len() * 2);
    }

    #[test]
    fn registered_server_resolvable_at_query_level() {
        let (_net, dns, server, world) = setup();
        register_server(&dns, &server, 13);
        // A discovery query at the canonical level for a point at the
        // venue must find the MAPSRV record (via exact or wildcard).
        let name = cell_to_name(CellId::from_latlng(world.venues[0].hint, QUERY_LEVEL).unwrap());
        let resp = dns.with_zones(|zones| zones[0].query(&name, RecordType::MapSrv));
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
    fn unregister_removes_all() {
        let (_net, dns, server, _world) = setup();
        let cells = register_server(&dns, &server, 13);
        let removed = unregister_server(&dns, "store0");
        assert_eq!(removed, cells.len() * 2);
        assert_eq!(mapsrv_record_count(&dns), 0);
        assert_eq!(unregister_server(&dns, "store0"), 0);
    }

    #[test]
    fn coarser_level_fewer_records() {
        let (_net, dns, server, _world) = setup();
        let fine = register_server(&dns, &server, 16).len();
        unregister_server(&dns, "store0");
        let coarse = register_server(&dns, &server, 12).len();
        assert!(coarse <= fine, "coarse {coarse} vs fine {fine}");
    }

    #[test]
    fn services_advertised_in_record() {
        let (_net, dns, server, _world) = setup();
        register_server(&dns, &server, 13);
        let found = dns.with_zones(|zones| {
            zones[0]
                .iter_records()
                .filter_map(|r| match &r.data {
                    RecordData::MapSrv { services, .. } => Some(services.clone()),
                    _ => None,
                })
                .next()
                .unwrap()
        });
        assert!(found.contains(&"search".to_string()));
        assert!(found.contains(&"localize:beacon".to_string()));
    }
}
