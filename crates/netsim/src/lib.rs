//! Deterministic network simulation substrate.
//!
//! OpenFLAME's evaluation needs latencies, message counts and byte
//! volumes for protocols running between clients, DNS servers and map
//! servers. There is no async runtime in the approved dependency set —
//! and determinism is worth more than concurrency here — so the network
//! is a synchronous discrete-event simulation:
//!
//! - a single logical clock in microseconds ([`SimNet::now_us`]),
//! - registered [`RpcHandler`] endpoints addressed by [`EndpointId`],
//! - every [`SimNet::call`] advances the clock by a latency model
//!   (processing + distance propagation + serialization + seeded jitter)
//!   and charges bytes to both endpoints,
//! - [`SimNet::call_parallel`] models concurrent fan-out: branches start
//!   from the same instant and the clock ends at the slowest branch,
//! - failure injection: endpoints can be taken down and links can drop
//!   messages with a configured probability.
//!
//! Handlers may issue nested calls (e.g. a recursive DNS resolver
//! contacting authoritative servers), which accumulate clock time
//! exactly like sequential network round trips.
//!
//! Beside the simulator sit two real-socket backends behind the same
//! [`Transport`] trait, and they are one implementation, not two. The
//! socket `core` module owns everything that defines a socket call —
//! correlation-id completion and demux, the endpoint book, clock /
//! timeout / drop roll / counters, frame-level charging, the dispatch
//! pool with its admit-or-shed step, and the only `impl Transport` for
//! socket backends. A *binding* ([`tcp`], [`udp`]) owns only how framed
//! bytes move: binding a served endpoint, putting an encoded frame on
//! the wire, deciding what a failed or timed-out call means on that
//! medium, cutting connections on `set_down`, and teardown — streams
//! under a reactor pool in one, reliable datagrams with resumption and
//! RTO in the other. The simulator is deliberately *not* a binding: a
//! simulated call executes eagerly on the caller's thread and rewinds
//! the shared clock, and traffic is charged per hop as it happens —
//! there is no completion to wait for, no worker to dispatch on and no
//! frame to charge at claim time, so it shares no logic with a socket
//! call and stays its own [`Transport`] impl ([`SimTransport`]).

pub(crate) mod core;
pub(crate) mod reactor;
pub mod stats;
pub mod tcp;
pub mod transport;
pub mod udp;

pub use stats::{EndpointLatency, EndpointStats, NetStats};
pub use tcp::TcpTransport;
pub use transport::{
    BackendKind, BusyReplyFn, CallHandle, ClassifyFn, CompletionSet, OverloadPolicy, PendingCall,
    SimTransport, Transfer, Transport, WireService,
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

/// A server-side message handler.
///
/// Handlers receive the raw request payload and may issue nested calls
/// through the same [`SimNet`]. The returned bytes travel back to the
/// caller with response latency applied.
pub trait RpcHandler: Send + Sync {
    /// Handles one request.
    fn handle(&self, net: &SimNet, from: EndpointId, payload: &[u8]) -> Result<Vec<u8>, NetError>;
}

impl<F> RpcHandler for F
where
    F: Fn(&SimNet, EndpointId, &[u8]) -> Result<Vec<u8>, NetError> + Send + Sync,
{
    fn handle(&self, net: &SimNet, from: EndpointId, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        self(net, from, payload)
    }
}

/// Latency model for one direction of one message.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
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
    handler: Option<Arc<dyn RpcHandler>>,
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

/// The simulated network.
///
/// Cheap to clone (shared handle). All state sits behind one lock that is
/// never held across handler invocations, so nested calls are safe.
///
/// # Examples
///
/// ```
/// use openflame_netsim::{NetError, SimNet};
///
/// let net = SimNet::new(42);
/// let server = net.register("echo", None);
/// net.set_handler(
///     server,
///     |_net: &openflame_netsim::SimNet, _from, payload: &[u8]| Ok(payload.to_vec()),
/// );
/// let client = net.register("client", None);
/// let reply = net.call(client, server, b"hello".to_vec()).unwrap();
/// assert_eq!(reply, b"hello");
/// assert!(net.now_us() > 0);
/// ```
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<OrderedMutex<NetInner>>,
}

impl SimNet {
    /// Creates a network with the default latency model and a
    /// deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_latency(seed, LatencyModel::default())
    }

    /// Creates a network with a custom latency model.
    pub fn with_latency(seed: u64, latency: LatencyModel) -> Self {
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

    /// Registers an endpoint (initially with no handler — a pure client).
    pub fn register(&self, name: impl Into<String>, location: Option<LatLng>) -> EndpointId {
        let mut inner = self.inner.lock();
        let id = EndpointId(inner.next_id);
        inner.next_id += 1;
        inner.endpoints.insert(
            id,
            Endpoint {
                name: name.into(),
                handler: None,
                location,
                down: false,
                stats: EndpointStats::default(),
                latency: EndpointLatency::default(),
            },
        );
        id
    }

    /// Installs the request handler for an endpoint.
    pub fn set_handler<H: RpcHandler + 'static>(&self, id: EndpointId, handler: H) {
        let mut inner = self.inner.lock();
        if let Some(ep) = inner.endpoints.get_mut(&id) {
            ep.handler = Some(Arc::new(handler));
        }
    }

    /// Marks an endpoint up or down (failure injection).
    pub fn set_down(&self, id: EndpointId, down: bool) {
        let mut inner = self.inner.lock();
        if let Some(ep) = inner.endpoints.get_mut(&id) {
            ep.down = down;
        }
    }

    /// Sets the probability in `[0, 1]` that any message is dropped.
    pub fn set_drop_probability(&self, p: f64) {
        self.inner.lock().drop_probability = p.clamp(0.0, 1.0);
    }

    /// Sets the timeout charged to dropped messages.
    pub fn set_timeout_us(&self, timeout_us: u64) {
        self.inner.lock().timeout_us = timeout_us;
    }

    /// Current simulated time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.inner.lock().clock_us
    }

    /// Advances the clock (e.g. a client thinking or a sensor sampling).
    pub fn advance_us(&self, dt: u64) {
        self.inner.lock().clock_us += dt;
    }

    /// Rewinds the clock to `t_us`. Used by the submit/completion wire
    /// layer: a submitted call executes eagerly from the submit instant
    /// and the clock is restored, so concurrent branches all start
    /// together; claiming the completion advances to the branch's end.
    pub(crate) fn set_clock_us(&self, t_us: u64) {
        self.inner.lock().clock_us = t_us;
    }

    /// Advances the clock to at least `t_us` (no-op if already past).
    pub(crate) fn advance_to_us(&self, t_us: u64) {
        let mut inner = self.inner.lock();
        if inner.clock_us < t_us {
            inner.clock_us = t_us;
        }
    }

    /// The registered name of an endpoint.
    pub fn endpoint_name(&self, id: EndpointId) -> Option<String> {
        self.inner.lock().endpoints.get(&id).map(|e| e.name.clone())
    }

    /// Global traffic statistics snapshot.
    pub fn stats(&self) -> NetStats {
        self.inner.lock().stats.clone()
    }

    /// Per-endpoint statistics snapshot.
    pub fn endpoint_stats(&self, id: EndpointId) -> Option<EndpointStats> {
        self.inner
            .lock()
            .endpoints
            .get(&id)
            .map(|e| e.stats.clone())
    }

    /// Latency summary of completed calls *to* `id` (see
    /// [`EndpointLatency`]): samples are recorded when a call's
    /// completion is claimed, and [`SimNet::reset_stats`] clears them.
    pub fn endpoint_latency(&self, id: EndpointId) -> Option<EndpointLatency> {
        self.inner.lock().endpoints.get(&id).map(|e| e.latency)
    }

    /// Folds one completed-call latency sample into `to`'s summary.
    pub(crate) fn note_latency(&self, to: EndpointId, sample_us: u64) {
        let mut inner = self.inner.lock();
        if let Some(ep) = inner.endpoints.get_mut(&to) {
            ep.latency.observe(sample_us);
        }
    }

    /// Resets global and per-endpoint statistics (not the clock).
    /// Latency summaries reset too, so replica selection after a reset
    /// starts from the same blank book on every backend.
    pub fn reset_stats(&self) {
        let mut inner = self.inner.lock();
        inner.stats = NetStats::default();
        for ep in inner.endpoints.values_mut() {
            ep.stats = EndpointStats::default();
            ep.latency = EndpointLatency::default();
        }
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

    /// Sends `payload` from `from` to `to` and returns the handler's
    /// response, advancing the simulated clock for both directions.
    pub fn call(
        &self,
        from: EndpointId,
        to: EndpointId,
        payload: Vec<u8>,
    ) -> Result<Vec<u8>, NetError> {
        let handler = {
            let inner = self.inner.lock();
            let ep = inner
                .endpoints
                .get(&to)
                .ok_or(NetError::NoSuchEndpoint(to))?;
            if ep.down {
                // A dead server looks like a timeout to the caller.
                drop(inner);
                let timeout = self.inner.lock().timeout_us;
                self.inner.lock().clock_us += timeout;
                return Err(NetError::EndpointDown(to));
            }
            ep.handler.clone().ok_or(NetError::NoSuchEndpoint(to))?
        };
        self.message_hop(from, to, payload.len())?;
        let response = handler.handle(self, from, &payload)?;
        self.message_hop(to, from, response.len())?;
        Ok(response)
    }

    /// Issues several calls concurrently: every branch starts at the
    /// current instant and the clock afterwards reflects the *slowest*
    /// branch, as a real fan-out would.
    pub fn call_parallel(
        &self,
        from: EndpointId,
        requests: Vec<(EndpointId, Vec<u8>)>,
    ) -> Vec<Result<Vec<u8>, NetError>> {
        let t0 = self.now_us();
        let mut t_end = t0;
        let mut results = Vec::with_capacity(requests.len());
        for (to, payload) in requests {
            {
                self.inner.lock().clock_us = t0;
            }
            results.push(self.call(from, to, payload));
            t_end = t_end.max(self.now_us());
        }
        self.inner.lock().clock_us = t_end;
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_net() -> (SimNet, EndpointId, EndpointId) {
        let net = SimNet::new(7);
        let server = net.register("echo", None);
        net.set_handler(server, |_: &SimNet, _from, payload: &[u8]| {
            Ok(payload.to_vec())
        });
        let client = net.register("client", None);
        (net, client, server)
    }

    #[test]
    fn echo_round_trip_advances_clock() {
        let (net, client, server) = echo_net();
        let t0 = net.now_us();
        let reply = net.call(client, server, vec![1, 2, 3]).unwrap();
        assert_eq!(reply, vec![1, 2, 3]);
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
        let net = SimNet::new(1);
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
        let (net, client, server) = echo_net();
        // Compare two identical nets with different payloads to avoid
        // jitter coupling: use zero-jitter model instead.
        let lm = LatencyModel {
            jitter_us: 0,
            ..LatencyModel::default()
        };
        let net_small = SimNet::with_latency(1, lm);
        let s1 = net_small.register("s", None);
        net_small.set_handler(s1, |_: &SimNet, _f, p: &[u8]| Ok(p.to_vec()));
        let c1 = net_small.register("c", None);
        net_small.call(c1, s1, vec![0u8; 10]).unwrap();
        let small_t = net_small.now_us();

        let net_big = SimNet::with_latency(1, lm);
        let s2 = net_big.register("s", None);
        net_big.set_handler(s2, |_: &SimNet, _f, p: &[u8]| Ok(p.to_vec()));
        let c2 = net_big.register("c", None);
        net_big.call(c2, s2, vec![0u8; 100 * 1024]).unwrap();
        assert!(net_big.now_us() > small_t);
        // Keep the first net alive for lint purposes.
        let _ = (net, client, server);
    }

    #[test]
    fn distance_adds_latency() {
        let lm = LatencyModel {
            jitter_us: 0,
            ..LatencyModel::default()
        };
        let near = SimNet::with_latency(1, lm);
        let a = near.register("a", Some(LatLng::new(40.0, -80.0).unwrap()));
        near.set_handler(a, |_: &SimNet, _f, p: &[u8]| Ok(p.to_vec()));
        let b = near.register("b", Some(LatLng::new(40.001, -80.0).unwrap()));
        near.call(b, a, vec![1]).unwrap();
        let near_t = near.now_us();

        let far = SimNet::with_latency(1, lm);
        let a2 = far.register("a", Some(LatLng::new(40.0, -80.0).unwrap()));
        far.set_handler(a2, |_: &SimNet, _f, p: &[u8]| Ok(p.to_vec()));
        let b2 = far.register("b", Some(LatLng::new(48.0, 2.0).unwrap()));
        far.call(b2, a2, vec![1]).unwrap();
        assert!(
            far.now_us() > near_t + 1000,
            "transatlantic link must cost more"
        );
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
        let lm = LatencyModel {
            base_us: 1_000,
            per_km_us: 0.0,
            per_kib_us: 0,
            jitter_us: 0,
        };
        let net = SimNet::with_latency(1, lm);
        let mut servers = Vec::new();
        for i in 0..8 {
            let s = net.register(format!("s{i}"), None);
            net.set_handler(s, |_: &SimNet, _f, p: &[u8]| Ok(p.to_vec()));
            servers.push(s);
        }
        let client = net.register("c", None);
        let t0 = net.now_us();
        let results = net.call_parallel(client, servers.iter().map(|s| (*s, vec![1u8])).collect());
        assert_eq!(results.len(), 8);
        assert!(results.iter().all(|r| r.is_ok()));
        // Each call is exactly 2 ms; 8 sequential would be 16 ms.
        assert_eq!(net.now_us() - t0, 2_000);
        // Messages still counted individually.
        assert_eq!(net.stats().messages, 16);
    }

    #[test]
    fn nested_calls_accumulate_latency() {
        let lm = LatencyModel {
            base_us: 500,
            per_km_us: 0.0,
            per_kib_us: 0,
            jitter_us: 0,
        };
        let net = SimNet::new(1);
        {
            let mut inner = net.inner.lock();
            inner.latency = lm;
        }
        let backend = net.register("backend", None);
        net.set_handler(backend, |_: &SimNet, _f, _p: &[u8]| Ok(vec![9]));
        let frontend = net.register("frontend", None);
        let frontend_client = net.register("internal-client", None);
        net.set_handler(frontend, move |n: &SimNet, _f, _p: &[u8]| {
            // Proxy through to the backend.
            n.call(frontend_client, backend, vec![1])
        });
        let client = net.register("client", None);
        let t0 = net.now_us();
        let r = net.call(client, frontend, vec![1]).unwrap();
        assert_eq!(r, vec![9]);
        // Four hops of 500 µs.
        assert_eq!(net.now_us() - t0, 2_000);
    }

    #[test]
    fn determinism_same_seed_same_clock() {
        let run = |seed| {
            let net = SimNet::new(seed);
            let s = net.register("s", None);
            net.set_handler(s, |_: &SimNet, _f, p: &[u8]| Ok(p.to_vec()));
            let c = net.register("c", None);
            for i in 0..50 {
                let _ = net.call(c, s, vec![i as u8; (i * 13) % 200]);
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
