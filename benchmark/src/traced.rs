//! `TracedTransport`: spans at the wire boundary, from outside.
//!
//! Wraps any backend behind the public [`Transport`] trait. `submit`
//! opens a `wire.*` span that closes when the completion is claimed;
//! `set_service` wraps the registered [`WireService`] so every served
//! envelope gets a `serve.*` span — DNS and map servers alike, with no
//! change to the program. A serve span finds the wire span that caused
//! it through a side table keyed by destination endpoint and payload
//! hash (the payload a service sees is byte-identical to the one
//! submitted).

use crate::spans::{Span, Tracer};
use crate::stats::fnv1a;
use openflame_geo::LatLng;
use openflame_netsim::{
    CallHandle, EndpointId, EndpointLatency, EndpointStats, NetError, NetStats, OverloadPolicy,
    PendingCall, Transfer, Transport, WireService,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

/// In-flight wire spans as `(span id, trace id)`, by
/// `(destination endpoint, payload hash)`. Identical payloads in flight
/// to one endpoint are interchangeable, so any of them may be claimed.
type InFlight = Mutex<HashMap<(u64, u64), Vec<(u64, u64)>>>;

fn unlink(in_flight: &InFlight, key: (u64, u64), id: Option<u64>) -> Option<(u64, u64)> {
    let mut table = in_flight.lock().expect("in-flight table poisoned");
    let entries = table.get_mut(&key)?;
    let taken = match id {
        Some(id) => entries
            .iter()
            .position(|(span, _)| *span == id)
            .map(|i| entries.swap_remove(i)),
        None => entries.pop(),
    };
    if entries.is_empty() {
        table.remove(&key);
    }
    taken
}

/// A [`Transport`] that records wire and serve spans around `inner`.
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
    in_flight: Arc<InFlight>,
    /// Endpoints that serve map requests; every other served endpoint
    /// is a DNS server.
    map_endpoints: RwLock<Vec<u64>>,
}

impl TracedTransport {
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            in_flight: Arc::new(Mutex::new(HashMap::new())),
            map_endpoints: RwLock::new(Vec::new()),
        }
    }

    fn serves_map(&self, id: EndpointId) -> bool {
        self.map_endpoints
            .read()
            .expect("endpoint table poisoned")
            .contains(&id.0)
    }
}

struct TracedPending {
    handle: CallHandle,
    tracer: Arc<Tracer>,
    in_flight: Arc<InFlight>,
    key: (u64, u64),
    span: Span,
}

impl PendingCall for TracedPending {
    fn wait(self: Box<Self>) -> Result<Transfer, NetError> {
        let TracedPending {
            handle,
            tracer,
            in_flight,
            key,
            mut span,
        } = *self;
        let result = handle.wait();
        span.end_us = tracer.now_us();
        if let Ok(transfer) = &result {
            span.bytes = transfer.bytes_sent + transfer.bytes_received;
        }
        // A call that was never served (failed, shed) leaves its entry
        // behind; drop it so the table holds only live calls.
        unlink(&in_flight, key, Some(span.id));
        tracer.record(span);
        result
    }
}

struct TimingService {
    inner: Arc<dyn WireService>,
    tracer: Arc<Tracer>,
    in_flight: Arc<InFlight>,
    endpoint: u64,
    name: &'static str,
}

impl WireService for TimingService {
    fn handle(&self, from: EndpointId, payload: &[u8]) -> Vec<u8> {
        if !self.tracer.enabled() {
            return self.inner.handle(from, payload);
        }
        let (parent, trace) =
            unlink(&self.in_flight, (self.endpoint, fnv1a(payload)), None).unwrap_or((0, 0));
        let start_us = self.tracer.now_us();
        let response = self.inner.handle(from, payload);
        self.tracer.record(Span {
            id: self.tracer.next_id(),
            parent,
            trace,
            name: self.name,
            start_us,
            end_us: self.tracer.now_us(),
            endpoint: self.endpoint,
            bytes: payload.len() as u64,
        });
        response
    }
}

impl Transport for TracedTransport {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn register(&self, name: &str, location: Option<LatLng>) -> EndpointId {
        let id = self.inner.register(name, location);
        // Map servers register as `mapsrv:<id>`; DNS servers do not.
        if name.starts_with("mapsrv:") {
            self.map_endpoints
                .write()
                .expect("endpoint table poisoned")
                .push(id.0);
        }
        id
    }

    fn set_service(&self, id: EndpointId, service: Arc<dyn WireService>) {
        let name = if self.serves_map(id) {
            "serve.map"
        } else {
            "serve.dns"
        };
        self.inner.set_service(
            id,
            Arc::new(TimingService {
                inner: service,
                tracer: self.tracer.clone(),
                in_flight: self.in_flight.clone(),
                endpoint: id.0,
                name,
            }),
        );
    }

    fn submit(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> CallHandle {
        if !self.tracer.enabled() {
            return self.inner.submit(from, to, payload);
        }
        let id = self.tracer.next_id();
        let (parent, trace) = self.tracer.current_root();
        let key = (to.0, fnv1a(&payload));
        // Linked before the inner submit: the simulator serves inside it.
        self.in_flight
            .lock()
            .expect("in-flight table poisoned")
            .entry(key)
            .or_default()
            .push((id, trace));
        let span = Span {
            id,
            parent,
            trace,
            name: if self.serves_map(to) {
                "wire.map"
            } else {
                "wire.dns"
            },
            start_us: self.tracer.now_us(),
            end_us: 0.0,
            endpoint: to.0,
            bytes: payload.len() as u64,
        };
        CallHandle::new(Box::new(TracedPending {
            handle: self.inner.submit(from, to, payload),
            tracer: self.tracer.clone(),
            in_flight: self.in_flight.clone(),
            key,
            span,
        }))
    }

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn advance_us(&self, dt_us: u64) {
        self.inner.advance_us(dt_us);
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn endpoint_stats(&self, id: EndpointId) -> Option<EndpointStats> {
        self.inner.endpoint_stats(id)
    }

    fn endpoint_latency(&self, id: EndpointId) -> Option<EndpointLatency> {
        self.inner.endpoint_latency(id)
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn endpoint_name(&self, id: EndpointId) -> Option<String> {
        self.inner.endpoint_name(id)
    }

    fn set_down(&self, id: EndpointId, down: bool) {
        self.inner.set_down(id, down);
    }

    fn set_drop_probability(&self, p: f64) {
        self.inner.set_drop_probability(p);
    }

    fn set_timeout_us(&self, timeout_us: u64) {
        self.inner.set_timeout_us(timeout_us);
    }

    fn worker_threads(&self) -> usize {
        self.inner.worker_threads()
    }

    fn set_overload_policy(&self, id: EndpointId, policy: Option<OverloadPolicy>) {
        self.inner.set_overload_policy(id, policy);
    }

    fn dispatch_depth(&self, id: EndpointId) -> usize {
        self.inner.dispatch_depth(id)
    }

    fn shed_requests(&self) -> u64 {
        self.inner.shed_requests()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_netsim::BackendKind;

    fn traced_echo() -> (Arc<Tracer>, TracedTransport, EndpointId, EndpointId) {
        let tracer = Arc::new(Tracer::new());
        let traced = TracedTransport::new(BackendKind::Sim.build(3), tracer.clone());
        let server = traced.register("mapsrv:echo", None);
        traced.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                payload.iter().rev().copied().collect::<Vec<u8>>()
            }),
        );
        let client = traced.register("client", None);
        (tracer, traced, client, server)
    }

    #[test]
    fn payloads_and_errors_pass_through_unchanged_on_sim() {
        let (tracer, traced, client, server) = traced_echo();
        let plain = BackendKind::Sim.build(3);
        let plain_server = plain.register("mapsrv:echo", None);
        plain.set_service(
            plain_server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                payload.iter().rev().copied().collect::<Vec<u8>>()
            }),
        );
        let plain_client = plain.register("client", None);
        for enabled in [false, true] {
            tracer.set_enabled(enabled);
            let got = traced.call(client, server, vec![1, 2, 3]);
            let want = plain.call(plain_client, plain_server, vec![1, 2, 3]);
            assert_eq!(got, want, "tracing enabled = {enabled}");
            assert_eq!(got.expect("served").payload, vec![3, 2, 1]);
        }
        assert_eq!(traced.stats(), plain.stats());
        traced.set_down(server, true);
        plain.set_down(plain_server, true);
        let got = traced.call(client, server, vec![9]);
        assert!(matches!(got, Err(NetError::EndpointDown(_))));
        assert_eq!(got, plain.call(plain_client, plain_server, vec![9]));
        assert!(
            traced.in_flight.lock().unwrap().is_empty(),
            "a failed call must not leak its side-table entry"
        );
    }

    #[test]
    fn serve_spans_name_the_wire_span_that_caused_them() {
        let (tracer, traced, client, server) = traced_echo();
        tracer.set_enabled(true);
        let root = tracer.begin_root();
        let a = traced.submit(client, server, vec![7; 8]);
        let b = traced.submit(client, server, vec![7; 8]);
        a.wait().unwrap();
        b.wait().unwrap();
        tracer.end_root(root, "provider.search");
        let spans = tracer.drain();
        let root_id = root.unwrap().0;
        let wires: Vec<&Span> = spans.iter().filter(|s| s.name == "wire.map").collect();
        let serves: Vec<&Span> = spans.iter().filter(|s| s.name == "serve.map").collect();
        assert_eq!((wires.len(), serves.len()), (2, 2));
        for wire in &wires {
            assert_eq!((wire.parent, wire.trace), (root_id, root_id));
            assert_eq!(wire.bytes, 16);
            assert_eq!(serves.iter().filter(|s| s.parent == wire.id).count(), 1);
        }
        for serve in &serves {
            assert_eq!(serve.trace, root_id);
            assert_eq!(serve.endpoint, server.0);
        }
    }
}
