//! Map-server discovery through the DNS (paper §5.1).
//!
//! "The discovery query would involve the coarse location of the device
//! obtained from ubiquitous sources like the GPS. The discovery system
//! would then respond to the query with a list of map providers for the
//! region."
//!
//! The client converts its coarse location to the canonical query cell,
//! resolves that cell's `MAPSRV` records through a caching resolver, and
//! — because map boundaries are fuzzy (paper §3) — optionally repeats the
//! lookup for the cell's edge neighbors, deduplicating the result. One
//! question per cell is enough: the answer carries the cell's `FLEETSRV`
//! records in its additional section (spec §9.1).

use crate::fleet::{DiscoveryView, FleetShardView, FleetView};
use crate::plan::QueryKind;
use crate::ClientError;
use openflame_cells::CellId;
use openflame_diag::{ranks, OrderedMutex};
use openflame_dns::{Catalogue, DnsError, DomainName, RecordData, RecordType, Resolver};
use openflame_geo::LatLng;
use openflame_localize::LocationCue;
use openflame_mapserver::naming::{cell_to_name, QUERY_LEVEL};
use openflame_netsim::EndpointId;
use std::sync::Arc;

/// A discovered map server.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredServer {
    /// Stable server id.
    pub server_id: String,
    /// Network endpoint.
    pub endpoint: EndpointId,
    /// The server's catalogue (spec §9.1): a bit for every service kind
    /// it offers and for every localization technology it accepts.
    pub catalogue: Catalogue,
}

impl DiscoveredServer {
    /// Whether the server's catalogue offers `kind` (spec §9.1): `None`
    /// when the catalogue names no kind of the vocabulary, which proves
    /// nothing. Bits the spec does not name are never read.
    pub(crate) fn offers(&self, kind: QueryKind) -> Option<bool> {
        self.catalogue
            .intersects(Catalogue::KINDS)
            .then(|| self.catalogue.contains(kind.entry()))
    }
}

/// Whether `catalogue` accepts the technology `cue` uses (spec §9.1).
pub(crate) fn accepts_cue(catalogue: Catalogue, cue: &LocationCue) -> bool {
    catalogue.contains(match cue {
        LocationCue::Gnss { .. } => Catalogue::LOCALIZE_GNSS,
        LocationCue::BeaconRssi { .. } => Catalogue::LOCALIZE_BEACON,
        LocationCue::FiducialTag { .. } => Catalogue::LOCALIZE_TAG,
    })
}

/// Counters for discovery behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiscoveryStats {
    /// Discovery operations performed.
    pub discoveries: u64,
    /// DNS lookups issued (primary + neighbor cells, one per cell).
    pub lookups: u64,
    /// Lookups answered from the resolver cache.
    pub cache_hits: u64,
    /// Lookups that named no provider, neither in the answer nor in
    /// the additional records.
    pub empty: u64,
}

/// The discovery layer: location → map servers.
pub struct DiscoveryClient {
    resolver: Arc<Resolver>,
    stats: OrderedMutex<DiscoveryStats>,
}

impl DiscoveryClient {
    /// Creates a discovery client over a DNS resolver.
    pub fn new(resolver: Arc<Resolver>) -> Self {
        Self {
            resolver,
            stats: OrderedMutex::new(ranks::DISCOVERY_STATS, DiscoveryStats::default()),
        }
    }

    /// The underlying resolver.
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DiscoveryStats {
        self.stats.lock().clone()
    }

    /// Fleet-aware discovery: asks one `MAPSRV` question per query
    /// cell, in **one** pipelined resolver round. Each answer names the
    /// cell's plain servers, and its additional section the cell's
    /// `FLEETSRV` (replica-set + shard-map) advertisements (spec §9.1).
    ///
    /// In deployments without fleets the additional sections come back
    /// empty and the view degenerates to the plain server list, so this
    /// is the single discovery path for every client. With
    /// `expand_neighbors` the query cell's four edge neighbours are
    /// resolved too, absorbing boundary fuzziness (paper §3).
    ///
    /// The query cell is always at [`QUERY_LEVEL`]: wildcards only match
    /// descendants, so a deployment must register its coverings at or
    /// above (coarser than) that level.
    pub fn discover_view(
        &self,
        location: LatLng,
        expand_neighbors: bool,
    ) -> Result<DiscoveryView, ClientError> {
        self.stats.lock().discoveries += 1;
        let cell = CellId::from_latlng(location, QUERY_LEVEL)
            .map_err(|e| ClientError::Protocol(format!("bad location: {e}")))?;
        let mut cells = vec![cell];
        if expand_neighbors {
            cells.extend(cell.edge_neighbors());
        }
        // All lookups (primary + neighbors) walk the DNS in one
        // pipelined round: five queries cost one walk's latency, not
        // five. Results come back positionally, and each folds its
        // answer before its additional records, so dedup order — and
        // therefore the discovered-server order every layer above
        // relies on — is the sequential walk's.
        let queries: Vec<(DomainName, RecordType)> = cells
            .iter()
            .map(|c| (cell_to_name(*c), RecordType::MapSrv))
            .collect();
        self.stats.lock().lookups += queries.len() as u64;
        let outcomes = self.resolver.resolve_many(&queries);
        let mut view = DiscoveryView::default();
        for ((name, _), outcome) in queries.into_iter().zip(outcomes) {
            match outcome {
                Ok(outcome) => {
                    if outcome.from_cache {
                        self.stats.lock().cache_hits += 1;
                    }
                    let mut named = false;
                    for record in outcome.records.iter().chain(outcome.additional.iter()) {
                        named |= Self::absorb_record(&mut view, &record.data);
                    }
                    if !named {
                        self.stats.lock().empty += 1;
                    }
                }
                Err(DnsError::NxDomain(_)) => {
                    self.stats.lock().empty += 1;
                }
                Err(e) => {
                    return Err(ClientError::Network(format!(
                        "discovery lookup {name}: {e}"
                    )))
                }
            }
        }
        Ok(view)
    }

    /// Folds one resource record into the view, deduplicating servers
    /// by id and fleets by group id (neighbor cells re-advertise the
    /// same providers). Returns whether the record names a provider.
    ///
    /// The record stays in the resolver's shared answer; only what a
    /// newly discovered server or fleet keeps is copied out of it.
    fn absorb_record(view: &mut DiscoveryView, data: &RecordData) -> bool {
        match data {
            RecordData::MapSrv {
                endpoint,
                server_id,
                catalogue,
            } => {
                if view.servers.iter().all(|s| s.server_id != *server_id) {
                    view.servers.push(Arc::new(DiscoveredServer {
                        server_id: server_id.clone(),
                        endpoint: EndpointId(*endpoint),
                        catalogue: *catalogue,
                    }));
                }
            }
            RecordData::FleetSrv {
                group_id,
                catalogue,
                shards,
            } => {
                if view.fleets.iter().any(|f| f.group_id == *group_id) {
                    return true;
                }
                // Each shard's extent is built here, once per discovery
                // view, never per planned query.
                let shards = shards
                    .iter()
                    .map(|shard| {
                        let replicas = shard
                            .replicas
                            .iter()
                            .map(|r| {
                                Arc::new(DiscoveredServer {
                                    server_id: r.server_id.clone(),
                                    endpoint: EndpointId(r.endpoint),
                                    // Replicas inherit the group's
                                    // catalogue.
                                    catalogue: *catalogue,
                                })
                            })
                            .collect();
                        Arc::new(FleetShardView::new(&shard.extents, replicas))
                    })
                    .collect();
                view.fleets.push(FleetView {
                    group_id: group_id.clone(),
                    catalogue: *catalogue,
                    shards,
                });
            }
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{Deployment, DeploymentConfig};
    use openflame_worldgen::{World, WorldConfig};

    fn deployment() -> Deployment {
        Deployment::build(
            World::generate(WorldConfig::default()),
            DeploymentConfig::default(),
        )
    }

    #[test]
    fn discovers_venue_at_its_location() {
        let dep = deployment();
        let hint = dep.world.venues[0].hint;
        let discovery = dep.client.discovery();
        let found = discovery.discover_view(hint, true).unwrap().servers;
        assert!(
            found
                .iter()
                .any(|s| s.server_id == dep.venue_servers[0].id()),
            "venue server not discovered at its own hint; found {:?}",
            found.iter().map(|s| &s.server_id).collect::<Vec<_>>()
        );
        // The outdoor provider covers the whole city and must appear.
        assert!(found.iter().any(|s| s.server_id == dep.outdoor_server.id()));
    }

    #[test]
    fn far_location_finds_only_outdoor() {
        let dep = deployment();
        // A city corner with no venue nearby: outdoor provider only
        // (probabilistically; all venues sit inside blocks, corners may
        // still be within a venue cell, so check a point far outside).
        let far = dep.world.config.center.destination(0.0, 4_000.0);
        let discovery = dep.client.discovery();
        let found = discovery.discover_view(far, false).unwrap().servers;
        assert!(found
            .iter()
            .all(|s| s.server_id != dep.venue_servers[0].id()));
    }

    #[test]
    fn repeat_discovery_hits_cache() {
        let dep = deployment();
        let hint = dep.world.venues[1].hint;
        dep.client.discovery().discover_view(hint, false).unwrap();
        dep.client.discovery().discover_view(hint, false).unwrap();
        let stats = dep.client.discovery().stats();
        assert_eq!(stats.discoveries, 2);
        assert!(
            stats.cache_hits >= 1,
            "second lookup must be cached: {stats:?}"
        );
    }

    #[test]
    fn neighbor_expansion_issues_more_lookups() {
        let dep = deployment();
        let hint = dep.world.venues[2].hint;
        dep.client.discovery().discover_view(hint, false).unwrap();
        let without = dep.client.discovery().stats().lookups;
        dep.client.discovery().discover_view(hint, true).unwrap();
        let with = dep.client.discovery().stats().lookups - without;
        assert!(
            with > 1,
            "neighbor expansion should look up several cells, did {with}"
        );
    }

    #[test]
    fn a_cell_named_only_by_its_additional_records_is_not_empty() {
        let dep = Deployment::build(
            World::generate(WorldConfig::default()),
            DeploymentConfig {
                replicas: 2,
                content_shards: 2,
                ..DeploymentConfig::default()
            },
        );
        // Without the city-wide outdoor map, a venue's cell is served
        // by its fleet alone: NODATA to `MAPSRV`, `FLEETSRV` in the
        // additional section.
        dep.cell_dns.with_zones_mut(|zones| {
            zones[0].remove_mapsrv(dep.outdoor_server.id());
        });
        let discovery = dep.client.discovery();
        let view = discovery
            .discover_view(dep.world.venues[0].hint, false)
            .unwrap();
        assert!(view.servers.is_empty());
        assert!(view.fleets.iter().any(|f| f.group_id == "venue-0"));
        assert_eq!(
            discovery.stats(),
            DiscoveryStats {
                discoveries: 1,
                lookups: 1,
                cache_hits: 0,
                empty: 0,
            }
        );
        // Far from every venue, nothing answers: an empty lookup.
        let far = dep.world.config.center.destination(0.0, 4_000.0);
        assert!(discovery
            .discover_view(far, false)
            .unwrap()
            .fleets
            .is_empty());
        assert_eq!(discovery.stats().empty, 1);
    }

    #[test]
    fn a_shard_whose_extent_proves_nothing_is_consulted() {
        use crate::plan::{plan, QueryKind};
        use crate::session::Session;
        use openflame_dns::{FleetReplica, FleetShard};
        use openflame_mapserver::Principal;
        use openflame_netsim::BackendKind;

        let transport = BackendKind::Sim.build(1);
        let endpoint = transport.register("client", None);
        let session = Session::new(transport, endpoint, Principal::anonymous());
        let here = LatLng::new(37.0, -122.0).unwrap();
        // Spec §9.2: an empty extent, or one holding an id that is not
        // a valid cell, intersects every footprint. The catalogue offers
        // every kind queried, so only the extent is on trial.
        for extents in [vec![], vec![0]] {
            let mut view = DiscoveryView::default();
            let record = RecordData::FleetSrv {
                group_id: "venue-0".into(),
                catalogue: Catalogue::SEARCH | Catalogue::RGEOCODE | Catalogue::LOCALIZE,
                shards: vec![FleetShard {
                    extents: extents.clone(),
                    replicas: vec![FleetReplica {
                        endpoint: 70,
                        server_id: "venue-0/s0r0".into(),
                    }],
                }],
            };
            assert!(DiscoveryClient::absorb_record(&mut view, &record));
            for (kind, radius_m) in [
                (QueryKind::Search, 100.0),
                (QueryKind::ReverseGeocode, 100.0),
                (QueryKind::Localize, 100.0),
            ] {
                let plan = plan(&session, true, &view, Some(kind), Some((here, radius_m)));
                assert_eq!(
                    plan.consulted(),
                    1,
                    "{kind:?}: a shard advertising {extents:?} was skipped"
                );
            }
        }
    }

    /// Spec §9.1: every kind and every technology is one bit test, and a
    /// catalogue whose bits the spec does not name proves nothing.
    #[test]
    fn offers_and_accepts_cue_test_one_catalogue_bit() {
        let server = |catalogue| DiscoveredServer {
            server_id: "x".into(),
            endpoint: EndpointId(1),
            catalogue,
        };
        let kinds = [
            QueryKind::Search,
            QueryKind::Geocode,
            QueryKind::ReverseGeocode,
            QueryKind::Route,
            QueryKind::Localize,
            QueryKind::Tile,
        ];
        for kind in kinds {
            let lone = server(kind.entry());
            for other in kinds {
                assert_eq!(
                    lone.offers(other),
                    Some(other == kind),
                    "{kind:?} {other:?}"
                );
            }
            assert_eq!(server(Catalogue::KINDS).offers(kind), Some(true));
            for proves_nothing in [0, Catalogue::LOCALIZE_TAG.0, 1 << 9, u32::MAX << 9] {
                assert_eq!(server(Catalogue(proves_nothing)).offers(kind), None);
            }
        }
        let here = LatLng::new(37.0, -122.0).unwrap();
        let cues = [
            (
                LocationCue::Gnss {
                    fix: here,
                    accuracy_m: 5.0,
                },
                Catalogue::LOCALIZE_GNSS,
            ),
            (
                LocationCue::BeaconRssi { readings: vec![] },
                Catalogue::LOCALIZE_BEACON,
            ),
            (
                LocationCue::FiducialTag { tag_id: 3 },
                Catalogue::LOCALIZE_TAG,
            ),
        ];
        for (cue, entry) in &cues {
            let accepting = server(*entry | Catalogue::SEARCH);
            for (other, _) in &cues {
                assert_eq!(
                    accepts_cue(accepting.catalogue, other),
                    other == cue,
                    "{entry:?}"
                );
            }
            assert!(!accepts_cue(
                Catalogue(u32::MAX << 9) | Catalogue::KINDS,
                cue
            ));
        }
    }
}
