//! One-call setup of a complete federated deployment.
//!
//! Builds the whole Figure-2 stack over a generated world: the DNS
//! hierarchy (root → `flame.` → `cell.flame.` → optional per-area shard
//! zones), a caching resolver, the outdoor world-map provider, one map
//! server per venue with its covering registered in DNS, and an
//! [`OpenFlameClient`].
//!
//! The whole stack is built on one [`Transport`]: pick
//! [`BackendKind::Sim`] (the default — deterministic discrete-event
//! simulation), [`BackendKind::Tcp`] (every DNS server, map server
//! and client on real loopback sockets) or [`BackendKind::QuicLite`]
//! (QUIC-inspired reliable datagrams: 0-RTT resumption, loss
//! recovery) via [`DeploymentConfig::backend`], or hand
//! [`Deployment::build_on`] a transport you constructed yourself.

use crate::client::OpenFlameClient;
use crate::fleet::{plan_venue_shards, ShardPlan};
use openflame_cells::{CellId, Region, RegionCoverer};
use openflame_dns::{
    AuthServer, DomainName, FleetReplica, FleetShard, RecordData, Resolver, ResolverConfig, Zone,
};
use openflame_localize::TagRegistry;
use openflame_mapdata::{MapDocument, NodeId, Tags};
use openflame_mapserver::naming::{cell_to_name, SPATIAL_ROOT};
use openflame_mapserver::registry::{cell_records, mapsrv_record};
use openflame_mapserver::{AccessPolicy, MapServer, MapServerConfig, Principal};
use openflame_netsim::{BackendKind, Transport};
use openflame_search::SEARCHABLE_VALUE_KEYS;
use openflame_worldgen::World;
use std::collections::HashMap;
use std::collections::HashSet;
use std::sync::Arc;

/// Deployment knobs.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Network RNG seed (latency jitter and drop injection).
    pub net_seed: u64,
    /// Which wire backend carries the deployment's traffic.
    pub backend: BackendKind,
    /// Cell level for zone coverings. Discovery queries at
    /// `QUERY_LEVEL`, so this must be that level or coarser.
    pub covering_level: u8,
    /// Number of authoritative DNS servers the spatial zone is sharded
    /// across (1 = no sharding). When sharded, every covering cell is
    /// its own delegated zone.
    pub dns_shards: usize,
    /// Resolver configuration.
    pub resolver: ResolverConfig,
    /// Access policy installed on every venue server.
    pub venue_policy: AccessPolicy,
    /// Whether servers precompute contraction hierarchies.
    pub build_ch: bool,
    /// Replicas per content shard of each venue fleet. `1` (with
    /// `content_shards: 1`) keeps the classic one-server-per-venue
    /// deployment; anything larger spins every venue up as a fleet
    /// advertised through `FLEETSRV` records.
    pub replicas: usize,
    /// Spatial content shards per venue fleet (skew-aware split of the
    /// venue's searchable documents; see
    /// `fleet::plan_venue_shards`).
    pub content_shards: usize,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        Self {
            net_seed: 7,
            backend: BackendKind::Sim,
            covering_level: 13,
            dns_shards: 1,
            resolver: ResolverConfig::default(),
            venue_policy: AccessPolicy::open(),
            build_ch: false,
            replicas: 1,
            content_shards: 1,
        }
    }
}

impl DeploymentConfig {
    /// Whether venues deploy as replicated + sharded fleets.
    pub(crate) fn fleet_mode(&self) -> bool {
        self.replicas.max(1) > 1 || self.content_shards.max(1) > 1
    }
}

/// One member server of a venue's serving fleet.
#[derive(Clone)]
pub struct FleetMember {
    /// Venue index (into `world.venues`).
    pub venue: usize,
    /// Content-shard index within the venue.
    pub shard: usize,
    /// Replica index within the shard.
    pub replica: usize,
    /// The running map server.
    pub server: Arc<MapServer>,
}

/// A running federated deployment.
pub struct Deployment {
    /// The wire transport everything runs on (simulated or real TCP;
    /// stats, clock and failure injection all live here).
    pub transport: Arc<dyn Transport>,
    /// The generated world (ground truth).
    pub world: World,
    /// Root DNS server.
    pub root_dns: Arc<AuthServer>,
    /// `flame.` TLD server.
    pub tld_dns: Arc<AuthServer>,
    /// `cell.flame.` parent server (holds delegations when sharded).
    pub cell_dns: Arc<AuthServer>,
    /// Shard servers hosting delegated per-area zones.
    pub shard_dns: Vec<Arc<AuthServer>>,
    /// The shared caching resolver.
    pub resolver: Arc<Resolver>,
    /// The outdoor world-map provider (anchored).
    pub outdoor_server: Arc<MapServer>,
    /// One server per venue, same order as `world.venues` (empty in
    /// fleet mode, where venues are served by `fleet_servers`).
    pub venue_servers: Vec<Arc<MapServer>>,
    /// Fleet member servers (empty outside fleet mode): every
    /// venue × shard × replica, in that nesting order.
    pub fleet_servers: Vec<FleetMember>,
    /// The OpenFLAME client.
    pub client: OpenFlameClient,
    /// Which shard each delegated cell zone landed on.
    pub shard_of_cell: HashMap<CellId, usize>,
    config: DeploymentConfig,
}

impl Deployment {
    /// Builds and wires the whole deployment on the backend named by
    /// [`DeploymentConfig::backend`].
    pub fn build(world: World, config: DeploymentConfig) -> Self {
        let transport = config.backend.build(config.net_seed);
        Self::build_on(transport, world, config)
    }

    /// Builds and wires the whole deployment on a caller-supplied
    /// transport (any [`Transport`] implementation).
    pub fn build_on(transport: Arc<dyn Transport>, world: World, config: DeploymentConfig) -> Self {
        // ---- DNS hierarchy.
        let spatial_root = DomainName::parse(SPATIAL_ROOT).expect("constant parses");
        let cell_dns = AuthServer::spawn_on(
            &transport,
            "cell-zone",
            vec![Zone::new(spatial_root.clone())],
        );
        let shard_dns: Vec<Arc<AuthServer>> = (0..config.dns_shards.max(1))
            .skip(1)
            .map(|i| AuthServer::spawn_on(&transport, format!("cell-shard{i}"), Vec::new()))
            .collect();
        let mut tld_zone = Zone::new(DomainName::parse("flame.").expect("valid"));
        tld_zone.delegate(
            spatial_root.clone(),
            DomainName::parse("ns.cell.flame.").expect("valid"),
            cell_dns.endpoint().0,
        );
        let tld_dns = AuthServer::spawn_on(&transport, "flame-tld", vec![tld_zone]);
        let mut root_zone = Zone::new(DomainName::root());
        root_zone.delegate(
            DomainName::parse("flame.").expect("valid"),
            DomainName::parse("ns.flame.").expect("valid"),
            tld_dns.endpoint().0,
        );
        let root_dns = AuthServer::spawn_on(&transport, "root", vec![root_zone]);
        let resolver = Arc::new(Resolver::with_config_on(
            transport.clone(),
            "campus-resolver",
            vec![root_dns.endpoint()],
            config.resolver,
        ));

        // ---- Map servers.
        let outdoor_server = MapServer::spawn_on(
            &transport,
            MapServerConfig {
                id: "world-map".into(),
                map: world.outdoor.clone(),
                beacons: Vec::new(),
                tags: TagRegistry::new(),
                policy: AccessPolicy::open(),
                portals: Vec::new(),
                location_hint: world.config.center,
                radius_m: crate::centralized::city_radius(&world),
                build_ch: config.build_ch,
            },
        );
        let mut venue_servers = Vec::with_capacity(world.venues.len());
        let mut fleet_servers: Vec<FleetMember> = Vec::new();
        let mut venue_plans: Vec<Vec<ShardPlan>> = Vec::new();
        let fleet_mode = config.fleet_mode();
        let shards_per_venue = config.content_shards.max(1);
        let replicas_per_shard = config.replicas.max(1);
        for (i, venue) in world.venues.iter().enumerate() {
            let city = world.city_frame();
            let entrance_outdoor_geo = city.from_local(
                world
                    .outdoor
                    .node(venue.entrance_outdoor)
                    .expect("entrance exists")
                    .pos,
            );
            let server_config = |id: String, map: MapDocument| MapServerConfig {
                id,
                map,
                beacons: venue.beacons.clone(),
                tags: venue.tags.clone(),
                policy: config.venue_policy.clone(),
                portals: vec![(venue.entrance_local, entrance_outdoor_geo)],
                location_hint: venue.hint,
                radius_m: venue.radius_m,
                build_ch: config.build_ch,
            };
            if !fleet_mode {
                venue_servers.push(MapServer::spawn_on(
                    &transport,
                    server_config(format!("venue-{i}"), venue.map.clone()),
                ));
                continue;
            }
            // Fleet mode: split the venue's searchable content into
            // spatial shards (skew-aware equal-count cuts), then spawn
            // every shard × replica. Structure, ways, beacons and
            // portals are replicated whole — only searchable content is
            // partitioned, by stripping searchable keys from
            // out-of-shard nodes.
            let plans = plan_venue_shards(&world, i, shards_per_venue, |id| {
                venue
                    .map
                    .node(NodeId(id))
                    .is_some_and(|n| has_searchable(&n.tags))
            });
            for (k, plan) in plans.iter().enumerate() {
                let owned: HashSet<u64> = plan.members.iter().copied().collect();
                let doc = shard_document(&venue.map, &owned);
                for r in 0..replicas_per_shard {
                    let server = MapServer::spawn_on(
                        &transport,
                        server_config(format!("venue-{i}/s{k}r{r}"), doc.clone()),
                    );
                    fleet_servers.push(FleetMember {
                        venue: i,
                        shard: k,
                        replica: r,
                        server,
                    });
                }
            }
            venue_plans.push(plans);
        }

        let client = OpenFlameClient::builder()
            .principal(Principal::anonymous())
            .world_provider(outdoor_server.endpoint())
            .build_on(transport.clone(), resolver.clone());
        let mut deployment = Self {
            transport,
            world,
            root_dns,
            tld_dns,
            cell_dns,
            shard_dns,
            resolver,
            outdoor_server,
            venue_servers,
            fleet_servers,
            client,
            shard_of_cell: HashMap::new(),
            config,
        };
        // ---- Registrations.
        let outdoor = deployment.outdoor_server.clone();
        deployment.register(&outdoor);
        let venues: Vec<Arc<MapServer>> = deployment.venue_servers.clone();
        for server in &venues {
            deployment.register(server);
        }
        for (venue_idx, plans) in venue_plans.iter().enumerate() {
            deployment.register_fleet(venue_idx, plans);
        }
        deployment
    }

    /// The deployment configuration.
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// Registers a server's covering, sharding zones if configured.
    pub fn register(&mut self, server: &MapServer) {
        let region = Region::Cap {
            center: server.location_hint(),
            radius_m: server.radius_m(),
        };
        let cells = RegionCoverer::default().covering_at_level(&region, self.config.covering_level);
        self.install_records(&cells, &mapsrv_record(server));
    }

    /// Registers a venue fleet: one `FLEETSRV` record per covering
    /// cell, carrying the full replica-set + shard-map advertisement
    /// (`docs/wire-protocol.md` spec §9). Fleet venues do **not** get
    /// per-replica `MAPSRV` records — the client's shard-aware scatter
    /// is the only path to them, which keeps wire cost a function of
    /// shards consulted rather than fleet size.
    pub(crate) fn register_fleet(&mut self, venue_idx: usize, plans: &[ShardPlan]) {
        let venue = &self.world.venues[venue_idx];
        let region = Region::Cap {
            center: venue.hint,
            radius_m: venue.radius_m,
        };
        let cells = RegionCoverer::default().covering_at_level(&region, self.config.covering_level);
        let members: Vec<&FleetMember> = self
            .fleet_servers
            .iter()
            .filter(|m| m.venue == venue_idx)
            .collect();
        let catalogue = (members.first())
            .expect("fleet mode spawned members for every venue")
            .server
            .catalogue();
        let shards: Vec<FleetShard> = plans
            .iter()
            .enumerate()
            .map(|(k, plan)| FleetShard {
                extents: plan.extents.iter().map(|c| c.raw()).collect(),
                replicas: members
                    .iter()
                    .filter(|m| m.shard == k)
                    .map(|m| FleetReplica {
                        endpoint: m.server.endpoint().0,
                        server_id: m.server.id().to_string(),
                    })
                    .collect(),
            })
            .collect();
        let data = RecordData::FleetSrv {
            group_id: format!("venue-{venue_idx}"),
            catalogue,
            shards,
        };
        self.install_records(&cells, &data);
    }

    /// Installs `data` at every cell's exact and wildcard names,
    /// routing each record to the cell's DNS shard zone (creating the
    /// zone and its delegation on first touch) when sharding is on.
    fn install_records(&mut self, cells: &[CellId], data: &RecordData) {
        let total_shards = self.config.dns_shards.max(1);
        for &cell in cells {
            let records = cell_records(cell, data);
            if total_shards == 1 {
                self.cell_dns
                    .with_zones_mut(|zones| records.into_iter().for_each(|r| zones[0].add(r)));
                continue;
            }
            // Sharded: the record lives in the covering cell's own zone,
            // delegated from the parent zone. Cell ids have long runs of
            // zero low bits (the sentinel layout), so mix before reducing
            // modulo the shard count.
            let shard_idx =
                (cell.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize % total_shards;
            let zone_origin = cell_to_name(cell);
            // Shard 0 is the parent server itself.
            let host: &Arc<AuthServer> = if shard_idx == 0 {
                &self.cell_dns
            } else {
                &self.shard_dns[shard_idx - 1]
            };
            if let std::collections::hash_map::Entry::Vacant(e) = self.shard_of_cell.entry(cell) {
                e.insert(shard_idx);
                host.with_zones_mut(|zones| zones.push(Zone::new(zone_origin.clone())));
                if shard_idx != 0 {
                    let ns_host = zone_origin.child("ns").expect("valid label");
                    let glue = host.endpoint().0;
                    self.cell_dns.with_zones_mut(|zones| {
                        zones[0].delegate(zone_origin.clone(), ns_host, glue);
                    });
                }
            }
            host.with_zones_mut(|zones| {
                let zone = zones
                    .iter_mut()
                    .find(|z| z.origin() == &zone_origin)
                    .expect("zone created above");
                records.into_iter().for_each(|r| zone.add(r));
            });
        }
    }
}

/// Whether a node carries searchable content — the unit the fleet's
/// content sharding partitions.
fn has_searchable(tags: &Tags) -> bool {
    SEARCHABLE_VALUE_KEYS.iter().any(|k| tags.get(k).is_some())
}

/// A shard's copy of a venue map: structure, ways and geometry stay
/// whole (every replica can route and localize), but searchable keys
/// are stripped from content nodes the shard does not own, so they
/// vanish from this shard's search index while remaining routable.
fn shard_document(full: &MapDocument, owned: &HashSet<u64>) -> MapDocument {
    let mut doc = full.clone();
    let strip: Vec<(NodeId, Tags)> = doc
        .nodes()
        .filter(|n| has_searchable(&n.tags) && !owned.contains(&n.id.0))
        .map(|n| {
            let mut tags = n.tags.clone();
            for key in SEARCHABLE_VALUE_KEYS {
                tags.remove(key);
            }
            (n.id, tags)
        })
        .collect();
    for (id, tags) in strip {
        doc.set_node_tags(id, tags).expect("node exists");
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::FederatedSearchHit;
    use crate::provider::{SearchQuery, SpatialProvider};
    use openflame_geo::LatLng;
    use openflame_worldgen::WorldConfig;

    /// The top hit of a federated search for a product within 2 km.
    fn find_product(dep: &Deployment, name: &str, near: LatLng) -> FederatedSearchHit {
        let query = SearchQuery {
            query: name.into(),
            location: near,
            radius_m: 2_000.0,
            k: 5,
        };
        dep.client.search(query).unwrap().hits.remove(0)
    }

    #[test]
    fn deployment_builds_and_registers() {
        let dep = Deployment::build(
            World::generate(WorldConfig::default()),
            DeploymentConfig::default(),
        );
        assert_eq!(dep.venue_servers.len(), dep.world.venues.len());
        let records = dep.cell_dns.record_count();
        assert!(records > 0, "registrations must land in the cell zone");
    }

    #[test]
    fn tcp_deployment_builds_and_discovers_over_real_sockets() {
        let dep = Deployment::build(
            World::generate(WorldConfig {
                stores: 2,
                ..WorldConfig::default()
            }),
            DeploymentConfig {
                backend: openflame_netsim::BackendKind::Tcp,
                ..DeploymentConfig::default()
            },
        );
        assert_eq!(dep.transport.kind(), "tcp");
        let hint = dep.world.venues[0].hint;
        // Discovery walks the real-TCP DNS hierarchy.
        let discovery = dep.client.discovery();
        let found = discovery.discover_view(hint, true).unwrap().servers;
        assert!(found.iter().any(|s| s.server_id == "venue-0"));
        assert!(found.iter().any(|s| s.server_id == "world-map"));
        assert!(dep.transport.stats().messages > 0);
    }

    #[test]
    fn sharded_deployment_distributes_zones() {
        let dep = Deployment::build(
            World::generate(WorldConfig::default()),
            DeploymentConfig {
                dns_shards: 4,
                ..DeploymentConfig::default()
            },
        );
        assert_eq!(dep.shard_dns.len(), 3, "shard 0 is the parent server");
        // Discovery still works through delegations.
        let hint = dep.world.venues[0].hint;
        let discovery = dep.client.discovery();
        let found = discovery.discover_view(hint, true).unwrap().servers;
        assert!(found.iter().any(|s| s.server_id.starts_with("venue-0")));
    }

    #[test]
    fn fleet_deployment_spawns_shards_and_replicas() {
        let config = DeploymentConfig {
            replicas: 2,
            content_shards: 3,
            ..DeploymentConfig::default()
        };
        assert!(config.fleet_mode());
        let dep = Deployment::build(World::generate(WorldConfig::default()), config);
        assert!(dep.venue_servers.is_empty(), "fleet mode replaces venues");
        assert_eq!(
            dep.fleet_servers.len(),
            dep.world.venues.len() * 3 * 2,
            "every venue spawns shards × replicas members"
        );
        // Discovery surfaces the fleet advertisement, not per-replica
        // MAPSRV records.
        let hint = dep.world.venues[0].hint;
        let view = dep.client.discovery().discover_view(hint, true).unwrap();
        let fleet = view
            .fleets
            .iter()
            .find(|f| f.group_id == "venue-0")
            .expect("venue-0 fleet advertised");
        assert_eq!(fleet.shards.len(), 3);
        assert!(fleet.shards.iter().all(|s| s.replicas.len() == 2));
        assert!(
            !view
                .servers
                .iter()
                .any(|s| s.server_id.starts_with("venue")),
            "fleet members must not appear as plain MAPSRV servers"
        );
    }

    /// Spec §9.1: a fleet whose replicas diverge in their catalogue is
    /// malformed, so each `FLEETSRV` catalogue is every member's own.
    #[test]
    fn a_fleet_catalogue_is_every_members_catalogue() {
        let dep = Deployment::build(
            World::generate(WorldConfig::default()),
            DeploymentConfig {
                replicas: 2,
                content_shards: 3,
                ..DeploymentConfig::default()
            },
        );
        for (idx, venue) in dep.world.venues.iter().enumerate() {
            let discovery = dep.client.discovery();
            let view = discovery.discover_view(venue.hint, false).unwrap();
            let group_id = format!("venue-{idx}");
            let fleet = (view.fleets.iter().find(|f| f.group_id == group_id))
                .expect("every venue's fleet is advertised at its hint");
            for member in dep.fleet_servers.iter().filter(|m| m.venue == idx) {
                let id = member.server.id();
                assert_eq!(fleet.catalogue, member.server.catalogue(), "{id}");
            }
        }
    }

    #[test]
    fn fleet_deployment_search_finds_sharded_content() {
        let dep = Deployment::build(
            World::generate(WorldConfig::default()),
            DeploymentConfig {
                replicas: 2,
                content_shards: 2,
                ..DeploymentConfig::default()
            },
        );
        // Every generated product is owned by exactly one content
        // shard; federated search must still surface it, attributed to
        // a member of the owning venue's fleet.
        for product in dep.world.products.iter().take(3) {
            let hint = dep.world.venues[product.venue].hint;
            let hit = find_product(&dep, &product.name, hint);
            assert_eq!(hit.result.label, product.name);
            assert!(
                hit.server_id
                    .starts_with(&format!("venue-{}/s", product.venue)),
                "hit {:?} must come from venue {}'s fleet",
                hit.server_id,
                product.venue
            );
        }
    }

    #[test]
    fn full_text_search_through_deployment() {
        let dep = Deployment::build(
            World::generate(WorldConfig::default()),
            DeploymentConfig::default(),
        );
        let product = &dep.world.products[0];
        let hint = dep.world.venues[product.venue].hint;
        let hit = find_product(&dep, &product.name, hint);
        assert_eq!(hit.result.label, product.name);
        assert_eq!(hit.server_id, format!("venue-{}", product.venue));
    }
}
