//! The wire under every client/server interaction: one [`Transport`]
//! trait, a deterministic simulator and two real-socket backends.
//!
//! OpenFLAME's evaluation needs latencies, message counts and byte
//! volumes for protocols running between clients, DNS servers and map
//! servers. There is no async runtime in the approved dependency set —
//! and determinism is worth more than concurrency here — so the default
//! backend, [`BackendKind::Sim`], is a synchronous discrete-event
//! simulation that implements [`Transport`] directly:
//!
//! - a single logical clock in microseconds ([`Transport::now_us`]),
//! - registered [`WireService`] endpoints addressed by [`EndpointId`],
//! - every call advances the clock by a latency model (processing +
//!   distance propagation + serialization + seeded jitter) and charges
//!   bytes to both endpoints,
//! - calls submitted before any of them is claimed model concurrent
//!   fan-out: branches start from the same instant and the clock ends
//!   at the slowest branch,
//! - failure injection: endpoints can be taken down and links can drop
//!   messages with a configured probability.
//!
//! A service may issue nested calls through a handle it captured (e.g.
//! a proxy contacting a backend), which accumulate clock time exactly
//! like sequential network round trips.
//!
//! Beside the simulator sit two real-socket backends behind the same
//! trait, and they are one implementation, not two. The socket `core`
//! module owns everything that defines a socket call — correlation-id
//! completion and demux, the endpoint book, clock / timeout / drop roll
//! / counters, frame-level charging, the event loop and its one pool
//! of threads with the admit-or-shed step, and the only `impl Transport` for socket
//! backends. A *binding* ([`tcp`], [`udp`]) owns only how framed bytes
//! move: binding a served endpoint, putting an encoded frame on the
//! wire, deciding what a failed or timed-out call means on that medium,
//! cutting connections on `set_down`, and teardown — streams whose
//! client sockets their callers dial, write and read in one, reliable
//! datagrams with resumption and RTO in the other. The simulator is deliberately *not* a binding: a
//! simulated call executes eagerly on the caller's thread and rewinds
//! the shared clock, and traffic is charged per hop as it happens —
//! there is no completion to wait for, no worker to dispatch on and no
//! frame to charge at claim time, so it shares no logic with a socket
//! call and stays its own `impl Transport`, the only other one in the
//! crate.

pub(crate) mod core;
pub(crate) mod reactor;
pub mod stats;
pub mod tcp;
pub mod transport;
pub mod udp;

pub use stats::{EndpointLatency, EndpointStats, NetStats};
pub use tcp::TcpTransport;
pub use transport::{
    BackendKind, BusyReplyFn, CallHandle, ClassifyFn, OverloadPolicy, PendingCall, Transfer,
    Transport, WireService,
};
pub use udp::{QuicLiteTransport, QuicStats};

use openflame_diag::{ranks, OrderedMutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use openflame_geo::LatLng;

/// Decrements a shared worker-thread gauge when a worker exits: the
/// RAII guard every detached thread of the real-socket backends (TCP,
/// QuicLite) holds, so `worker_threads()` stays truthful on every exit
/// path including panics.
pub(crate) struct ThreadGuard(Arc<AtomicUsize>);

impl ThreadGuard {
    pub(crate) fn enter(counter: &Arc<AtomicUsize>) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        Self(counter.clone())
    }
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Address of a simulated network endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u64);

/// Errors surfaced by simulated network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination endpoint is not registered.
    NoSuchEndpoint(EndpointId),
    /// Destination endpoint is administratively down.
    EndpointDown(EndpointId),
    /// The message (or its response) was dropped; the caller waited out
    /// its timeout.
    Timeout,
    /// A stream transport failed to connect or lost its connection
    /// mid-call (never produced by the simulator).
    Connection(String),
    /// The remote handler returned an application-level error.
    Service(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::NoSuchEndpoint(id) => write!(f, "no such endpoint {id:?}"),
            NetError::EndpointDown(id) => write!(f, "endpoint {id:?} is down"),
            NetError::Timeout => write!(f, "request timed out"),
            NetError::Connection(msg) => write!(f, "connection failed: {msg}"),
            NetError::Service(msg) => write!(f, "service error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Latency model for one direction of one message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LatencyModel {
    /// Fixed per-message processing cost in microseconds.
    pub base_us: u64,
    /// Propagation cost per kilometer of great-circle distance between
    /// endpoint locations (microseconds).
    pub per_km_us: f64,
    /// Serialization cost per KiB of payload (microseconds).
    pub per_kib_us: u64,
    /// Maximum uniform jitter added per message (microseconds).
    pub jitter_us: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // Rough WAN-flavored numbers: 200 µs processing, 5 µs/km
        // propagation, 8 µs per KiB (≈1 Gbit/s), up to 100 µs jitter.
        Self {
            base_us: 200,
            per_km_us: 5.0,
            per_kib_us: 8,
            jitter_us: 100,
        }
    }
}

struct Endpoint {
    name: String,
    service: Option<Arc<dyn WireService>>,
    location: Option<LatLng>,
    down: bool,
    stats: EndpointStats,
    latency: EndpointLatency,
}

struct NetInner {
    clock_us: u64,
    rng: StdRng,
    endpoints: HashMap<EndpointId, Endpoint>,
    next_id: u64,
    latency: LatencyModel,
    drop_probability: f64,
    timeout_us: u64,
    stats: NetStats,
}

/// The simulated network: the deterministic [`Transport`] backend.
///
/// Cheap to clone (shared handle): every clone sees the same clock,
/// counters and endpoints. All state sits behind one lock that is never
/// held across service invocations, so nested calls are safe.
///
/// **Submit semantics**: a submitted call executes *eagerly* (the
/// request really is "on the wire" the moment it is submitted, like on
/// a socket backend) and the simulated clock is rewound to the submit
/// instant, so every call submitted before the first wait starts from
/// the same instant. Waiting advances the clock to the branch's end,
/// never backwards — a round of submits followed by waits costs the
/// slowest branch, and submit order fixes the RNG draw order,
/// preserving determinism.
///
/// **Single driver**: the execute-then-rewind dance manipulates the
/// one shared simulated clock, so submits from *concurrent OS threads*
/// would interleave their rewinds and corrupt each other's timings.
/// The simulator models concurrency *in* simulated time from *one*
/// driving thread; workloads that need real OS-thread concurrency
/// belong on [`TcpTransport`], as the pipelining stress test does.
///
/// **Per-server service concurrency**: because each submitted branch
/// executes eagerly and the clock is rewound to the submit instant, a
/// service that consumes service time (advancing the clock through a
/// handle it captured) delays only its own branch — concurrently
/// submitted calls to the *same* server still start from the shared
/// instant and cost max-of-branches. That is exactly the serve-side
/// model the TCP backend implements with its bounded thread pool (a
/// slow request never head-of-line blocks pipelined siblings), so the
/// cross-backend message/latency parity invariants hold under mixed
/// slow/fast workloads too.
///
/// # Examples
///
/// The type is private to this crate, so a server, resolver or client
/// cannot know which network carries it; [`BackendKind::Sim`] builds
/// one behind `dyn Transport`:
///
/// ```
/// use openflame_netsim::{BackendKind, EndpointId, Transport};
/// use std::sync::Arc;
///
/// let net = BackendKind::Sim.build(42);
/// let server = net.register("echo", None);
/// net.set_service(server, Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()));
/// let client = net.register("client", None);
/// let reply = net.call(client, server, b"hello".to_vec()).unwrap();
/// assert_eq!(reply.payload, b"hello");
/// assert_eq!(reply.latency_us, net.now_us());
/// ```
///
/// ```compile_fail
/// use openflame_netsim::SimNet;
/// ```
#[derive(Clone)]
pub(crate) struct SimNet {
    inner: Arc<OrderedMutex<NetInner>>,
}

impl SimNet {
    /// Creates a network with the default latency model and a
    /// deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_latency(seed, LatencyModel::default())
    }

    /// Creates a network with a custom latency model.
    pub(crate) fn with_latency(seed: u64, latency: LatencyModel) -> Self {
        Self {
            inner: Arc::new(OrderedMutex::new(
                ranks::SIM_NET,
                NetInner {
                    clock_us: 0,
                    rng: StdRng::seed_from_u64(seed),
                    endpoints: HashMap::new(),
                    next_id: 1,
                    latency,
                    drop_probability: 0.0,
                    timeout_us: 2_000_000,
                    stats: NetStats::default(),
                },
            )),
        }
    }

    /// A default-latency network as a shared `Arc<dyn Transport>`.
    pub fn shared(seed: u64) -> Arc<dyn Transport> {
        Arc::new(Self::new(seed))
    }

    /// One latency sample for a message of `bytes` between two endpoints,
    /// advancing the clock and charging stats.
    fn message_hop(&self, from: EndpointId, to: EndpointId, bytes: usize) -> Result<(), NetError> {
        let mut inner = self.inner.lock();
        // Drop check.
        let p = inner.drop_probability;
        if p > 0.0 && inner.rng.gen_bool(p) {
            let timeout = inner.timeout_us;
            inner.clock_us += timeout;
            inner.stats.drops += 1;
            return Err(NetError::Timeout);
        }
        let distance_km = {
            let a = inner.endpoints.get(&from).and_then(|e| e.location);
            let b = inner.endpoints.get(&to).and_then(|e| e.location);
            match (a, b) {
                (Some(a), Some(b)) => a.haversine_distance(b) / 1000.0,
                _ => 0.0,
            }
        };
        let lm = inner.latency;
        let jitter = if lm.jitter_us > 0 {
            inner.rng.gen_range(0..=lm.jitter_us)
        } else {
            0
        };
        let latency = lm.base_us
            + (distance_km * lm.per_km_us) as u64
            + (bytes as u64).div_ceil(1024) * lm.per_kib_us
            + jitter;
        inner.clock_us += latency;
        inner.stats.messages += 1;
        inner.stats.bytes += bytes as u64;
        if let Some(src) = inner.endpoints.get_mut(&from) {
            src.stats.tx_msgs += 1;
            src.stats.tx_bytes += bytes as u64;
        }
        if let Some(dst) = inner.endpoints.get_mut(&to) {
            dst.stats.rx_msgs += 1;
            dst.stats.rx_bytes += bytes as u64;
        }
        Ok(())
    }

    /// Sends `payload` from `from` to `to` and returns the service's
    /// response, advancing the simulated clock for both directions.
    fn exchange(
        &self,
        from: EndpointId,
        to: EndpointId,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        let service = {
            let mut inner = self.inner.lock();
            let ep = inner
                .endpoints
                .get(&to)
                .ok_or(NetError::NoSuchEndpoint(to))?;
            if ep.down {
                // A dead server looks like a timeout to the caller.
                let timeout = inner.timeout_us;
                inner.clock_us += timeout;
                return Err(NetError::EndpointDown(to));
            }
            ep.service.clone().ok_or(NetError::NoSuchEndpoint(to))?
        };
        self.message_hop(from, to, payload.len())?;
        let response = service.handle(from, payload);
        self.message_hop(to, from, response.len())?;
        Ok(response)
    }
}

/// A simulator call that already executed; waiting advances the clock
/// to its completion instant.
struct SimPending {
    net: SimNet,
    to: EndpointId,
    result: Result<Transfer, NetError>,
    end_us: u64,
}

impl PendingCall for SimPending {
    fn wait(self: Box<Self>) -> Result<Transfer, NetError> {
        let mut inner = self.net.inner.lock();
        inner.clock_us = inner.clock_us.max(self.end_us);
        if let (Ok(transfer), Some(ep)) = (&self.result, inner.endpoints.get_mut(&self.to)) {
            ep.latency.observe(transfer.latency_us);
        }
        drop(inner);
        self.result
    }
}

impl Transport for SimNet {
    fn kind(&self) -> &'static str {
        "simnet"
    }

    fn register(&self, name: &str, location: Option<LatLng>) -> EndpointId {
        let mut inner = self.inner.lock();
        let id = EndpointId(inner.next_id);
        inner.next_id += 1;
        inner.endpoints.insert(
            id,
            Endpoint {
                name: name.to_string(),
                service: None,
                location,
                down: false,
                stats: EndpointStats::default(),
                latency: EndpointLatency::default(),
            },
        );
        id
    }

    fn set_service(&self, id: EndpointId, service: Arc<dyn WireService>) {
        if let Some(ep) = self.inner.lock().endpoints.get_mut(&id) {
            ep.service = Some(service);
        }
    }

    fn submit(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> CallHandle {
        let t0 = self.now_us();
        let result = self.exchange(from, to, &payload);
        // Restore the clock: the branch ran eagerly, but simulated time
        // only moves for the caller when the completion is claimed, so
        // calls submitted after this one start from the same instant.
        let end_us = std::mem::replace(&mut self.inner.lock().clock_us, t0);
        let result = result.map(|response| Transfer {
            latency_us: end_us - t0,
            bytes_sent: payload.len() as u64,
            bytes_received: response.len() as u64,
            payload: response,
        });
        CallHandle::new(Box::new(SimPending {
            net: self.clone(),
            to,
            result,
            end_us,
        }))
    }

    fn now_us(&self) -> u64 {
        self.inner.lock().clock_us
    }

    fn advance_us(&self, dt_us: u64) {
        self.inner.lock().clock_us += dt_us;
    }

    fn stats(&self) -> NetStats {
        self.inner.lock().stats.clone()
    }

    fn endpoint_stats(&self, id: EndpointId) -> Option<EndpointStats> {
        self.inner
            .lock()
            .endpoints
            .get(&id)
            .map(|e| e.stats.clone())
    }

    fn endpoint_latency(&self, id: EndpointId) -> Option<EndpointLatency> {
        self.inner.lock().endpoints.get(&id).map(|e| e.latency)
    }

    fn reset_stats(&self) {
        let mut inner = self.inner.lock();
        inner.stats = NetStats::default();
        for ep in inner.endpoints.values_mut() {
            ep.stats = EndpointStats::default();
            ep.latency = EndpointLatency::default();
        }
    }

    fn endpoint_name(&self, id: EndpointId) -> Option<String> {
        self.inner.lock().endpoints.get(&id).map(|e| e.name.clone())
    }

    fn set_down(&self, id: EndpointId, down: bool) {
        if let Some(ep) = self.inner.lock().endpoints.get_mut(&id) {
            ep.down = down;
        }
    }

    fn set_drop_probability(&self, p: f64) {
        self.inner.lock().drop_probability = p.clamp(0.0, 1.0);
    }

    fn set_timeout_us(&self, timeout_us: u64) {
        self.inner.lock().timeout_us = timeout_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo() -> Arc<dyn WireService> {
        Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec())
    }

    /// A network with one echo server per entry of `servers`, then one
    /// client.
    fn echo_servers(
        net: SimNet,
        servers: &[Option<LatLng>],
        client: Option<LatLng>,
    ) -> (Arc<dyn Transport>, EndpointId, Vec<EndpointId>) {
        let net: Arc<dyn Transport> = Arc::new(net);
        let ids = servers
            .iter()
            .map(|&location| {
                let id = net.register("echo", location);
                net.set_service(id, echo());
                id
            })
            .collect();
        let client = net.register("client", client);
        (net, client, ids)
    }

    fn echo_net() -> (Arc<dyn Transport>, EndpointId, EndpointId) {
        let (net, client, servers) = echo_servers(SimNet::new(7), &[None], None);
        (net, client, servers[0])
    }

    fn fixed_latency(base_us: u64) -> LatencyModel {
        LatencyModel {
            base_us,
            per_km_us: 0.0,
            per_kib_us: 0,
            jitter_us: 0,
        }
    }

    #[test]
    fn echo_round_trip_advances_clock() {
        let (net, client, server) = echo_net();
        let t0 = net.now_us();
        let reply = net.call(client, server, vec![1, 2, 3]).unwrap();
        assert_eq!(reply.payload, vec![1, 2, 3]);
        // Two hops, each at least base latency.
        assert!(net.now_us() >= t0 + 2 * 200);
    }

    #[test]
    fn unknown_endpoint_errors() {
        let (net, client, _) = echo_net();
        assert!(matches!(
            net.call(client, EndpointId(999), vec![]),
            Err(NetError::NoSuchEndpoint(_))
        ));
    }

    #[test]
    fn handlerless_endpoint_errors() {
        let net = SimNet::shared(1);
        let a = net.register("a", None);
        let b = net.register("b", None);
        assert!(matches!(
            net.call(a, b, vec![]),
            Err(NetError::NoSuchEndpoint(_))
        ));
    }

    #[test]
    fn down_endpoint_times_out() {
        let (net, client, server) = echo_net();
        net.set_down(server, true);
        let t0 = net.now_us();
        assert!(matches!(
            net.call(client, server, vec![1]),
            Err(NetError::EndpointDown(_))
        ));
        assert!(
            net.now_us() >= t0 + 2_000_000,
            "caller waited out the timeout"
        );
        net.set_down(server, false);
        assert!(net.call(client, server, vec![1]).is_ok());
    }

    #[test]
    fn larger_payloads_cost_more() {
        // Two identical zero-jitter nets, so only the payload differs.
        let lm = LatencyModel {
            jitter_us: 0,
            ..LatencyModel::default()
        };
        let cost = |bytes: usize| {
            let (net, client, servers) = echo_servers(SimNet::with_latency(1, lm), &[None], None);
            net.call(client, servers[0], vec![0u8; bytes]).unwrap();
            net.now_us()
        };
        assert!(cost(100 * 1024) > cost(10));
    }

    #[test]
    fn distance_adds_latency() {
        let lm = LatencyModel {
            jitter_us: 0,
            ..LatencyModel::default()
        };
        let cost = |client: LatLng| {
            let server = Some(LatLng::new(40.0, -80.0).unwrap());
            let (net, client, servers) =
                echo_servers(SimNet::with_latency(1, lm), &[server], Some(client));
            net.call(client, servers[0], vec![1]).unwrap();
            net.now_us()
        };
        let near = cost(LatLng::new(40.001, -80.0).unwrap());
        let far = cost(LatLng::new(48.0, 2.0).unwrap());
        assert!(far > near + 1000, "transatlantic link must cost more");
    }

    #[test]
    fn drop_probability_one_always_times_out() {
        let (net, client, server) = echo_net();
        net.set_drop_probability(1.0);
        net.set_timeout_us(5_000);
        let t0 = net.now_us();
        assert_eq!(net.call(client, server, vec![1]), Err(NetError::Timeout));
        assert_eq!(net.now_us(), t0 + 5_000);
        assert_eq!(net.stats().drops, 1);
    }

    #[test]
    fn stats_account_both_directions() {
        let (net, client, server) = echo_net();
        net.call(client, server, vec![0u8; 100]).unwrap();
        let gs = net.stats();
        assert_eq!(gs.messages, 2);
        assert_eq!(gs.bytes, 200);
        let cs = net.endpoint_stats(client).unwrap();
        assert_eq!(cs.tx_msgs, 1);
        assert_eq!(cs.rx_msgs, 1);
        let ss = net.endpoint_stats(server).unwrap();
        assert_eq!(ss.rx_bytes, 100);
        assert_eq!(ss.tx_bytes, 100);
    }

    #[test]
    fn reset_stats_clears_counters_not_clock() {
        let (net, client, server) = echo_net();
        net.call(client, server, vec![1]).unwrap();
        let t = net.now_us();
        net.reset_stats();
        assert_eq!(net.stats().messages, 0);
        assert_eq!(net.endpoint_stats(client).unwrap().tx_msgs, 0);
        assert_eq!(net.now_us(), t);
    }

    #[test]
    fn parallel_fanout_costs_max_not_sum() {
        let (net, client, servers) = echo_servers(
            SimNet::with_latency(1, fixed_latency(1_000)),
            &[None; 8],
            None,
        );
        let t0 = net.now_us();
        let handles: Vec<CallHandle> = servers
            .iter()
            .map(|s| net.submit(client, *s, vec![1u8]))
            .collect();
        assert!(handles.into_iter().all(|h| h.wait().is_ok()));
        // Each call is exactly 2 ms; 8 sequential would be 16 ms.
        assert_eq!(net.now_us() - t0, 2_000);
        // Messages still counted individually.
        assert_eq!(net.stats().messages, 16);
    }

    #[test]
    fn nested_calls_accumulate_latency() {
        let net: Arc<dyn Transport> = Arc::new(SimNet::with_latency(1, fixed_latency(500)));
        let backend = net.register("backend", None);
        net.set_service(backend, Arc::new(|_from: EndpointId, _p: &[u8]| vec![9]));
        let frontend = net.register("frontend", None);
        let frontend_client = net.register("internal-client", None);
        let wire = net.clone();
        net.set_service(
            frontend,
            Arc::new(move |_from: EndpointId, _p: &[u8]| {
                // Proxy through to the backend.
                wire.call(frontend_client, backend, vec![1])
                    .unwrap()
                    .payload
            }),
        );
        let client = net.register("client", None);
        let t0 = net.now_us();
        let r = net.call(client, frontend, vec![1]).unwrap();
        assert_eq!(r.payload, vec![9]);
        // Four hops of 500 µs.
        assert_eq!(r.latency_us, 2_000);
        assert_eq!(net.now_us() - t0, 2_000);
    }

    #[test]
    fn determinism_same_seed_same_clock() {
        let run = |seed| {
            let (net, c, servers) = echo_servers(SimNet::new(seed), &[None], None);
            for i in 0..50 {
                let _ = net.call(c, servers[0], vec![i as u8; (i * 13) % 200]);
            }
            net.now_us()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(
            run(42),
            run(43),
            "different seeds should jitter differently"
        );
    }
}
