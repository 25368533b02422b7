//! Authoritative DNS servers bound to transport endpoints.

use crate::record::{QueryMsg, Rcode, ResponseMsg};
use crate::zone::Zone;
use openflame_codec::{from_bytes, to_bytes};
use openflame_diag::{ranks, OrderedRwLock};
use openflame_netsim::{EndpointId, Transport, WireService};
use std::sync::Arc;

/// An authoritative server hosting one or more zones.
///
/// The server binds a [`Transport`] endpoint (the simulator or real
/// sockets — it cannot tell); queries arrive as wire-encoded
/// [`QueryMsg`]s and leave as [`ResponseMsg`]s. Zones are behind a
/// reader-writer lock so registrations (map servers coming and going)
/// can happen while the server is serving — and so the transport's
/// concurrent dispatch (pipelined queries on one connection are
/// handled by a worker pool) scales across parallel readers instead of
/// serializing on a mutex.
pub struct AuthServer {
    zones: Arc<OrderedRwLock<Vec<Zone>>>,
    endpoint: EndpointId,
    name: String,
}

impl AuthServer {
    /// Creates a server hosting `zones` and binds it on any transport
    /// backend.
    pub fn spawn_on(
        transport: &Arc<dyn Transport>,
        name: impl Into<String>,
        zones: Vec<Zone>,
    ) -> Arc<Self> {
        let name = name.into();
        let endpoint = transport.register(&format!("dns:{name}"), None);
        let server = Arc::new(Self {
            zones: Arc::new(OrderedRwLock::new(ranks::DNS_ZONES, zones)),
            endpoint,
            name,
        });
        transport.set_service(
            endpoint,
            Arc::new(ZoneHandler {
                zones: server.zones.clone(),
            }),
        );
        server
    }

    /// The server's network endpoint.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The server's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs `f` with mutable access to the hosted zones (e.g. to add or
    /// remove registrations at runtime).
    pub fn with_zones_mut<R>(&self, f: impl FnOnce(&mut Vec<Zone>) -> R) -> R {
        f(&mut self.zones.write())
    }

    /// Total records across hosted zones.
    pub fn record_count(&self) -> usize {
        self.zones.read().iter().map(Zone::record_count).sum()
    }
}

struct ZoneHandler {
    zones: Arc<OrderedRwLock<Vec<Zone>>>,
}

impl WireService for ZoneHandler {
    fn handle(&self, _from: EndpointId, payload: &[u8]) -> Vec<u8> {
        let query: QueryMsg = match from_bytes(payload) {
            Ok(q) => q,
            Err(e) => {
                // Malformed query: answer SERVFAIL rather than dropping.
                let resp = ResponseMsg::empty(Rcode::ServFail);
                let _ = e;
                return to_bytes(&resp).to_vec();
            }
        };
        let zones = self.zones.read();
        // Answer from the most specific zone containing the name.
        let best = zones
            .iter()
            .filter(|z| query.name.is_subdomain_of(z.origin()))
            .max_by_key(|z| z.origin().label_count());
        let resp = match best {
            Some(zone) => zone.query(&query.name, query.rtype),
            None => ResponseMsg::empty(Rcode::ServFail),
        };
        to_bytes(&resp).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::DomainName;
    use crate::record::{Record, RecordData, RecordType};
    use openflame_netsim::BackendKind;

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn ask(
        net: &Arc<dyn Transport>,
        client: EndpointId,
        server: EndpointId,
        n: &str,
        rtype: RecordType,
    ) -> ResponseMsg {
        let q = QueryMsg {
            name: name(n),
            rtype,
        };
        let transfer = net.call(client, server, to_bytes(&q).to_vec()).unwrap();
        from_bytes(&transfer.payload).unwrap()
    }

    #[test]
    fn serves_zone_over_network() {
        let net = BackendKind::Sim.build(3);
        let mut zone = Zone::new(name("flame."));
        zone.add(Record::new(name("api.flame."), 300, RecordData::A(42)));
        let server = AuthServer::spawn_on(&net, "root", vec![zone]);
        let client = net.register("client", None);
        let resp = ask(&net, client, server.endpoint(), "api.flame.", RecordType::A);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.answers.len(), 1);
        assert!(matches!(resp.answers[0].data, RecordData::A(42)));
    }

    #[test]
    fn picks_most_specific_zone() {
        let net = BackendKind::Sim.build(3);
        let mut parent = Zone::new(name("flame."));
        parent.add(Record::new(
            name("x.cell.flame."),
            60,
            RecordData::Txt("parent".into()),
        ));
        let mut child = Zone::new(name("cell.flame."));
        child.add(Record::new(
            name("x.cell.flame."),
            60,
            RecordData::Txt("child".into()),
        ));
        let server = AuthServer::spawn_on(&net, "both", vec![parent, child]);
        let client = net.register("client", None);
        let resp = ask(
            &net,
            client,
            server.endpoint(),
            "x.cell.flame.",
            RecordType::Txt,
        );
        assert!(matches!(&resp.answers[0].data, RecordData::Txt(s) if s == "child"));
    }

    #[test]
    fn malformed_query_servfails() {
        let net = BackendKind::Sim.build(3);
        let server = AuthServer::spawn_on(&net, "root", vec![Zone::new(DomainName::root())]);
        let client = net.register("client", None);
        let transfer = net
            .call(client, server.endpoint(), vec![0xFF, 0x01, 0x02])
            .unwrap();
        let resp: ResponseMsg = from_bytes(&transfer.payload).unwrap();
        assert_eq!(resp.rcode, Rcode::ServFail);
    }

    #[test]
    fn runtime_zone_mutation_visible() {
        let net = BackendKind::Sim.build(3);
        let server = AuthServer::spawn_on(&net, "root", vec![Zone::new(name("flame."))]);
        let client = net.register("client", None);
        let miss = ask(&net, client, server.endpoint(), "new.flame.", RecordType::A);
        assert_eq!(miss.rcode, Rcode::NxDomain);
        server.with_zones_mut(|zones| {
            zones[0].add(Record::new(name("new.flame."), 60, RecordData::A(5)));
        });
        let hit = ask(&net, client, server.endpoint(), "new.flame.", RecordType::A);
        assert_eq!(hit.answers.len(), 1);
        assert_eq!(server.record_count(), 1);
    }
}
