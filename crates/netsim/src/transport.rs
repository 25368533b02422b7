//! The pluggable wire backend behind every client/server interaction.
//!
//! The paper argues for many independently-operated map servers reached
//! over a real network; the reproduction needs both a deterministic
//! simulator (for measurement and failure injection) and real sockets
//! (to prove the stack end to end). [`Transport`] is the seam: it
//! carries length-prefixed envelope bytes between addressed endpoints
//! and reports per-call latency/byte stats plus global traffic
//! counters, identically for every backend.
//!
//! The core of the trait is **non-blocking**: [`Transport::submit`]
//! puts a request on the wire and returns a [`CallHandle`]
//! immediately; the outcome is claimed later with [`CallHandle::wait`].
//! A fan-out submits every branch, then waits on each handle in turn:
//! all branches are on the wire together, so the wait costs the
//! slowest branch, not the sum. The blocking convenience
//! [`Transport::call`] is a default method over submit+wait, so
//! backends implement only the non-blocking core and callers are free
//! to overlap scatter rounds (submit round N+1 while round N is still
//! in flight) instead of barriering between them.
//!
//! Three backends ship today:
//!
//! - [`BackendKind::Sim`] is the discrete-event simulator: simulated
//!   clock, modelled latencies, deterministic jitter and failure injection. A
//!   submitted call executes eagerly on the simulated clock and the
//!   clock is rewound to the submit instant, so every call submitted
//!   before a wait starts from the same instant — the deterministic
//!   analogue of real concurrency. The default for tests and benches.
//! - [`crate::tcp::TcpTransport`] speaks real TCP over `std::net` with
//!   multiplexed, pipelined connections driven by one pool of threads
//!   on one `epoll` set: non-blocking sockets, responses matched to
//!   requests by correlation id, a fixed thread count — independent of
//!   connections, endpoints and fan-out. The thread that reads a
//!   request runs it, and requests run concurrently and answer in
//!   completion order, so a slow request never head-of-line blocks the
//!   pipelined requests behind it. The same deployments and
//!   the same client code run unchanged over loopback sockets.
//! - [`crate::udp::QuicLiteTransport`] speaks QUIC-inspired reliable
//!   datagrams over `std::net::UdpSocket`: connection ids with 0-RTT
//!   resumption, packet numbers with ack-elicited retransmission (so
//!   injected datagram loss below the timeout is *recovered*, not
//!   surfaced), fragmentation for frames over the datagram MTU, and
//!   one client socket multiplexing unbounded in-flight calls by
//!   correlation id. No TLS — a documented non-goal of this offline
//!   tree.
//!
//! Servers bind by registering a [`WireService`]; transports own the
//! listener mechanics (a service slot on the simulator, a
//! non-blocking listener on the event loop on TCP).

use crate::stats::{EndpointLatency, EndpointStats, NetStats};
use crate::{EndpointId, NetError, SimNet};
use openflame_diag::{ranks, OrderedMutex};
use openflame_geo::LatLng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The payload and per-call wire measurements of one completed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// The response bytes.
    pub payload: Vec<u8>,
    /// How long the call took: simulated time on [`BackendKind::Sim`],
    /// wall-clock time on real-socket backends (microseconds).
    pub latency_us: u64,
    /// Request bytes put on the wire.
    pub bytes_sent: u64,
    /// Response bytes taken off the wire.
    pub bytes_received: u64,
}

/// A server-side message handler bound to a transport endpoint.
///
/// The transport hands it the raw request payload and the caller's
/// endpoint id (carried in the frame header on stream transports) and
/// sends whatever it returns back as the response.
///
/// # Concurrent dispatch contract
///
/// Transports dispatch **concurrently**: [`WireService::handle`] may be
/// invoked from many threads at once — for pipelined requests on one
/// connection as much as for requests from different connections (a
/// socket backend runs each on a thread of its event loop's one
/// transport-wide pool: the thread that read the request, or one of
/// [`crate::tcp::DISPATCH_POOL`] more when several arrive at once). The
/// `Send + Sync` bound is therefore
/// load-bearing, not boilerplate: implementations must synchronize
/// internally (read-mostly state belongs behind an `RwLock` or an
/// immutable snapshot so parallel dispatch actually scales) and must
/// not assume two requests from the same caller arrive on the same
/// thread or complete in arrival order. Responses are matched to
/// requests by correlation id, never by order.
pub trait WireService: Send + Sync {
    /// Handles one request. May be called concurrently (see the trait
    /// docs).
    fn handle(&self, from: EndpointId, payload: &[u8]) -> Vec<u8>;
}

impl<F> WireService for F
where
    F: Fn(EndpointId, &[u8]) -> Vec<u8> + Send + Sync,
{
    fn handle(&self, from: EndpointId, payload: &[u8]) -> Vec<u8> {
        self(from, payload)
    }
}

/// Server-side admission control for one served endpoint.
///
/// When installed (via [`Transport::set_overload_policy`]), the serve
/// path counts requests that are admitted and not yet executed for
/// the endpoint — across every connection — and **sheds** a request
/// instead of dispatching it when admitting it would push the endpoint
/// past [`OverloadPolicy::max_depth`], or would push one principal past
/// its fairness share (half of `max_depth`, so a hot principal is shed
/// first and can never starve the endpoint for everyone else). A shed
/// request is answered immediately with the payload produced by
/// [`OverloadPolicy::busy_reply`] (the mapserver stack encodes
/// `Response::Busy { retry_after_us }`), which drains through the
/// ordinary response path — the reader is never stalled behind
/// requests already admitted, and the request is **not** executed, so clients may
/// retry it safely (`docs/wire-protocol.md` spec §10).
///
/// The policy is transport-agnostic: `classify` maps a raw request
/// payload to a principal key (the mapserver uses the envelope's
/// principal prefix), so the netsim crate needs no knowledge of the
/// RPC protocol above it. The simulator never sheds (its dispatch is
/// inline and unbounded by construction) and ignores installed
/// policies.
#[derive(Clone)]
pub struct OverloadPolicy {
    /// Maximum requests admitted and not yet executed for the endpoint
    /// before further arrivals are shed.
    pub max_depth: usize,
    /// Backoff hint carried in shed replies, microseconds.
    pub retry_after_us: u64,
    /// Maps a request payload to its principal's admission key.
    pub classify: ClassifyFn,
    /// Builds the shed reply payload from `retry_after_us`.
    pub busy_reply: BusyReplyFn,
}

/// Maps a raw request payload to its principal's admission key
/// ([`OverloadPolicy::classify`]).
pub type ClassifyFn = Arc<dyn Fn(&[u8]) -> u64 + Send + Sync>;

/// Builds a shed reply payload from the policy's `retry_after_us`
/// ([`OverloadPolicy::busy_reply`]).
pub type BusyReplyFn = Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync>;

impl OverloadPolicy {
    /// The per-principal admission cap: half the endpoint's depth
    /// (at least 1), so one hot principal can occupy at most half the
    /// queue and a quiet principal always finds room.
    pub(crate) fn principal_cap(&self) -> usize {
        (self.max_depth / 2).max(1)
    }
}

impl std::fmt::Debug for OverloadPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverloadPolicy")
            .field("max_depth", &self.max_depth)
            .field("retry_after_us", &self.retry_after_us)
            .finish_non_exhaustive()
    }
}

/// One served endpoint's admission book, shared between the serve path
/// (admit/shed decisions), the threads running its requests (release
/// on completion) and the [`Transport`] observability surface
/// (`dispatch_depth`). Kept by the socket core for both real-socket
/// bindings; the simulator dispatches inline and has none.
///
/// `depth` counts requests admitted to dispatch and not yet executed;
/// `by_principal` splits that count by the policy's `classify` key so
/// fairness shedding can cap one hot principal at
/// [`OverloadPolicy::principal_cap`]. Slots are released
/// unconditionally after executing a request — even when the request's
/// connection has since died or its service panicked — so a
/// disconnected flooder can never leave leaked slots wedging the
/// endpoint shut.
pub(crate) struct DispatchGauge {
    policy: OrderedMutex<Option<Arc<OverloadPolicy>>>,
    depth: AtomicUsize,
    depth_hw: AtomicUsize,
    by_principal: OrderedMutex<HashMap<u64, usize>>,
}

impl DispatchGauge {
    pub(crate) fn new() -> Self {
        Self {
            policy: OrderedMutex::new(ranks::DISPATCH_GAUGE_POLICY, None),
            depth: AtomicUsize::new(0),
            depth_hw: AtomicUsize::new(0),
            by_principal: OrderedMutex::new(ranks::DISPATCH_GAUGE_PRINCIPALS, HashMap::new()),
        }
    }

    pub(crate) fn set_policy(&self, policy: Option<OverloadPolicy>) {
        *self.policy.lock() = policy.map(Arc::new);
    }

    pub(crate) fn policy(&self) -> Option<Arc<OverloadPolicy>> {
        self.policy.lock().clone()
    }

    /// Admits one request, charging the depth gauge (and, when a
    /// policy is installed, the per-principal book after classifying
    /// `payload`). Returns the principal key to hand back on release.
    /// `Err(busy_payload)` means shed — the endpoint is at the
    /// policy's `max_depth`, or this principal is at its fairness cap
    /// while others still have room — and carries the ready-to-send
    /// busy reply. Without a policy nothing is ever shed; the gauge
    /// just observes depth.
    pub(crate) fn admit(&self, payload: &[u8]) -> Result<Option<u64>, Vec<u8>> {
        let key = match self.policy() {
            Some(policy) => {
                let key = (policy.classify)(payload);
                let mut by_principal = self.by_principal.lock();
                let shed = self.depth.load(Ordering::SeqCst) >= policy.max_depth
                    || by_principal.get(&key).copied().unwrap_or(0) >= policy.principal_cap();
                if shed {
                    return Err((policy.busy_reply)(policy.retry_after_us));
                }
                *by_principal.entry(key).or_insert(0) += 1;
                Some(key)
            }
            None => None,
        };
        let depth = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.depth_hw.fetch_max(depth, Ordering::SeqCst);
        Ok(key)
    }

    /// Releases an admitted request's slot (called by the thread that
    /// ran it right after execution, on every path including service
    /// panics — never tied to the connection still being alive).
    pub(crate) fn release(&self, key: Option<u64>) {
        if let Some(key) = key {
            let mut by_principal = self.by_principal.lock();
            if let Some(slot) = by_principal.get_mut(&key) {
                *slot -= 1;
                if *slot == 0 {
                    by_principal.remove(&key);
                }
            }
        }
        self.depth.fetch_sub(1, Ordering::SeqCst);
    }

    /// Requests currently admitted (queued or executing). Test hook
    /// for the leaked-slot regression tests.
    #[cfg(test)]
    pub(crate) fn current_depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// High-water mark of [`DispatchGauge::current_depth`] since the
    /// last reset.
    pub(crate) fn high_water(&self) -> usize {
        self.depth_hw.load(Ordering::SeqCst)
    }

    /// Clears the high-water mark (not the live depth — in-flight
    /// requests still hold their slots).
    pub(crate) fn reset_high_water(&self) {
        self.depth_hw.store(0, Ordering::SeqCst);
    }
}

/// Backend-specific state of one in-flight call, claimed exactly once.
///
/// Implemented per backend; callers hold it behind a [`CallHandle`].
pub trait PendingCall: Send {
    /// Blocks until the call completes and returns its outcome.
    fn wait(self: Box<Self>) -> Result<Transfer, NetError>;
}

struct ReadyCall(Result<Transfer, NetError>);

impl PendingCall for ReadyCall {
    fn wait(self: Box<Self>) -> Result<Transfer, NetError> {
        self.0
    }
}

/// An in-flight wire call returned by [`Transport::submit`].
///
/// The request is already on the wire (or already failed); claiming the
/// handle with [`CallHandle::wait`] blocks only for the remaining
/// flight time. Dropping a handle abandons the call, and whether an
/// abandoned call shows up in the traffic counters is
/// backend-dependent (the simulator charges at submit, sockets charge
/// at claim) — **always claim every handle**: the cross-backend stats
/// parity the federation's invariants rest on is only defined for
/// fully-claimed workloads.
pub struct CallHandle(Box<dyn PendingCall>);

impl CallHandle {
    /// Wraps backend-specific pending state.
    pub fn new(pending: Box<dyn PendingCall>) -> Self {
        Self(pending)
    }

    /// A handle whose outcome is already known (immediate failures,
    /// eagerly-executed simulator calls).
    pub fn ready(result: Result<Transfer, NetError>) -> Self {
        Self(Box::new(ReadyCall(result)))
    }

    /// Blocks until the call completes and returns its outcome.
    pub fn wait(self) -> Result<Transfer, NetError> {
        self.0.wait()
    }
}

impl std::fmt::Debug for CallHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CallHandle(..)")
    }
}

/// A wire backend: addressed request/response calls with stats and
/// failure injection (see module docs).
///
/// All methods take `&self`; implementations are internally shared and
/// are passed around as `Arc<dyn Transport>`. Backends implement the
/// non-blocking [`Transport::submit`]; the blocking convenience
/// [`Transport::call`] is a default method over it.
pub trait Transport: Send + Sync {
    /// A short label for reports: `"simnet"`, `"tcp"`, ...
    fn kind(&self) -> &'static str;

    /// Registers a client endpoint (no listener).
    fn register(&self, name: &str, location: Option<LatLng>) -> EndpointId;

    /// Installs `service` as the handler for `id`, binding whatever
    /// listener the backend needs (a service slot on the simulator, a
    /// listener on the event loop on sockets).
    fn set_service(&self, id: EndpointId, service: Arc<dyn WireService>);

    /// Puts one request on the wire and returns without waiting for
    /// its answer (on TCP it may first dial the caller's connection, a
    /// connect bounded by the timeout); the outcome is claimed through
    /// the returned [`CallHandle`].
    /// Submitting many calls before waiting on any of them is the
    /// pipelined fan-out primitive every higher layer builds on.
    fn submit(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> CallHandle;

    /// One blocking request/response round trip
    /// (submit + immediate wait).
    fn call(
        &self,
        from: EndpointId,
        to: EndpointId,
        payload: Vec<u8>,
    ) -> Result<Transfer, NetError> {
        self.submit(from, to, payload).wait()
    }

    /// The transport clock in microseconds: simulated time on the
    /// simulator, monotonic wall-clock time on real sockets. Cache TTLs
    /// throughout the stack are measured against this clock.
    fn now_us(&self) -> u64;

    /// Advances the clock where that is meaningful (simulated think
    /// time); a no-op on wall-clock backends.
    fn advance_us(&self, dt_us: u64);

    /// Global traffic counters (both directions of an RPC count
    /// separately, matching the simulator's accounting).
    fn stats(&self) -> NetStats;

    /// Per-endpoint traffic counters, if the endpoint exists.
    fn endpoint_stats(&self, id: EndpointId) -> Option<EndpointStats>;

    /// Latency summary (count + EWMA µs) of completed calls *to* `id`,
    /// as observed by callers on this transport: a sample is folded in
    /// whenever a call's completion is claimed successfully. This is
    /// the signal the client-side replica selector ranks candidates
    /// with (power-of-two-choices); failed calls record nothing — a
    /// dead replica keeps its last-known summary and is excluded by
    /// the failover dead-list instead.
    fn endpoint_latency(&self, id: EndpointId) -> Option<EndpointLatency>;

    /// Resets global and per-endpoint counters (not the clock).
    /// Latency summaries ([`Transport::endpoint_latency`]) reset too,
    /// so post-reset replica selection starts from a blank book
    /// identically on every backend.
    fn reset_stats(&self);

    /// The registered name of an endpoint.
    fn endpoint_name(&self, id: EndpointId) -> Option<String>;

    /// Failure injection: marks an endpoint up or down. Calls to a down
    /// endpoint fail with [`NetError::EndpointDown`] on every backend.
    fn set_down(&self, id: EndpointId, down: bool);

    /// Failure injection: probability in `[0, 1]` that any call is
    /// dropped (surfacing as [`NetError::Timeout`]).
    fn set_drop_probability(&self, p: f64);

    /// The timeout charged to dropped or unresponsive calls
    /// (microseconds; stream backends use it as the completion-wait
    /// deadline and dial/write timeout).
    fn set_timeout_us(&self, timeout_us: u64);

    /// Live worker threads the backend currently runs (its event-loop
    /// pool). `0` for backends that spawn none
    /// (the simulator). The bench sweep records this per width to pin
    /// the thread budget alongside latency; the pipelining stress test
    /// asserts its ceiling.
    fn worker_threads(&self) -> usize {
        0
    }

    /// Installs (or with `None`, removes) the admission-control policy
    /// for a served endpoint. Backends without a bounded dispatch
    /// queue — the simulator — ignore this and never shed.
    fn set_overload_policy(&self, _id: EndpointId, _policy: Option<OverloadPolicy>) {}

    /// High-water mark of the endpoint's dispatch depth (requests
    /// admitted and not yet executed) since the last
    /// [`Transport::reset_stats`]. `0` on backends with inline
    /// dispatch (the simulator).
    fn dispatch_depth(&self, _id: EndpointId) -> usize {
        0
    }

    /// Total requests shed by admission control across the transport
    /// since the last [`Transport::reset_stats`]. `0` on backends that
    /// never shed (the simulator).
    fn shed_requests(&self) -> u64 {
        0
    }
}

/// Which wire backend a deployment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Deterministic discrete-event simulation (`SimNet`, private to
    /// this crate: this variant is the only way to build one).
    Sim,
    /// Real loopback TCP sockets ([`crate::tcp::TcpTransport`]).
    Tcp,
    /// QUIC-inspired reliable datagrams over real loopback UDP sockets
    /// ([`crate::udp::QuicLiteTransport`]): 0-RTT connection
    /// resumption, ack-elicited retransmission, fragmentation — no
    /// crypto (a documented non-goal).
    QuicLite,
}

impl BackendKind {
    /// Builds a fresh transport of this kind. `seed` drives the
    /// simulator's latency jitter and every backend's drop-injection
    /// RNG.
    pub fn build(self, seed: u64) -> Arc<dyn Transport> {
        match self {
            BackendKind::Sim => SimNet::shared(seed),
            BackendKind::Tcp => crate::tcp::TcpTransport::shared(seed),
            BackendKind::QuicLite => crate::udp::QuicLiteTransport::shared(seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_transport() -> (Arc<dyn Transport>, EndpointId, EndpointId) {
        let transport = SimNet::shared(3);
        let server = transport.register("echo", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
        );
        let client = transport.register("client", None);
        (transport, client, server)
    }

    #[test]
    fn sim_transport_round_trip_reports_per_call_stats() {
        let (transport, client, server) = echo_transport();
        let transfer = transport.call(client, server, vec![1, 2, 3]).unwrap();
        assert_eq!(transfer.payload, vec![1, 2, 3]);
        assert_eq!(transfer.bytes_sent, 3);
        assert_eq!(transfer.bytes_received, 3);
        assert!(transfer.latency_us >= 400, "two hops of base latency");
        assert_eq!(transport.stats().messages, 2);
    }

    #[test]
    fn sim_transport_parallel_latency_is_per_branch() {
        let (transport, client, server) = echo_transport();
        let handles = [vec![1], vec![2, 3]].map(|p| transport.submit(client, server, p));
        let results = handles.map(CallHandle::wait);
        for r in &results {
            let t = r.as_ref().unwrap();
            assert!(t.latency_us > 0);
        }
        assert_eq!(results[1].as_ref().unwrap().bytes_sent, 2);
    }

    #[test]
    fn submitted_calls_share_a_start_instant() {
        let (transport, client, server) = echo_transport();
        let t0 = transport.now_us();
        let a = transport.submit(client, server, vec![1]);
        // The clock has not moved for the caller between submits.
        assert_eq!(transport.now_us(), t0);
        let b = transport.submit(client, server, vec![2]);
        let ta = a.wait().unwrap().latency_us;
        let tb = b.wait().unwrap().latency_us;
        // Waiting the round costs the slowest branch, not the sum.
        assert_eq!(transport.now_us() - t0, ta.max(tb));
    }

    #[test]
    fn overlapped_rounds_cost_max_not_sum() {
        let (transport, client, server) = echo_transport();
        let t0 = transport.now_us();
        // Submit two "rounds" before claiming either: both start now.
        let first = transport.submit(client, server, vec![1]);
        let second = transport.submit(client, server, vec![2; 100]);
        let l1 = first.wait().unwrap().latency_us;
        let l2 = second.wait().unwrap().latency_us;
        assert_eq!(transport.now_us() - t0, l1.max(l2));
        assert_eq!(transport.stats().messages, 4);
    }

    #[test]
    fn sim_models_concurrent_server_dispatch() {
        // A handler that advances the clock models service time; under
        // the submit/rewind model a slow service delays only its own
        // branch — the simulator's analogue of the TCP backend's
        // concurrent serve-side dispatch.
        let transport = SimNet::shared(3);
        let slow = transport.register("slow", None);
        let clock = transport.clone();
        transport.set_service(
            slow,
            Arc::new(move |_from: EndpointId, payload: &[u8]| {
                clock.advance_us(500_000);
                payload.to_vec()
            }),
        );
        let fast = transport.register("fast", None);
        transport.set_service(
            fast,
            Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
        );
        let client = transport.register("c", None);
        let t0 = transport.now_us();
        let a = transport.submit(client, slow, vec![1]);
        let b = transport.submit(client, slow, vec![2]);
        let c = transport.submit(client, fast, vec![3]);
        let la = a.wait().unwrap().latency_us;
        let lb = b.wait().unwrap().latency_us;
        let lc = c.wait().unwrap().latency_us;
        assert!(
            la >= 500_000 && lb >= 500_000,
            "slow branches pay service time"
        );
        assert!(
            lc < 100_000,
            "fast branch must not absorb the slow service time"
        );
        // Two slow requests to the SAME server cost max, not sum: the
        // modelled server dispatches them concurrently.
        assert_eq!(transport.now_us() - t0, la.max(lb).max(lc));
    }

    #[test]
    fn sim_transport_surfaces_failure_injection() {
        let (transport, client, server) = echo_transport();
        transport.set_down(server, true);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::EndpointDown(_))
        ));
        transport.set_down(server, false);
        transport.set_drop_probability(1.0);
        transport.set_timeout_us(5_000);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::Timeout)
        ));
        assert_eq!(transport.stats().drops, 1);
    }

    #[test]
    fn endpoint_latency_tracks_claimed_calls_and_resets() {
        let (transport, client, server) = echo_transport();
        assert_eq!(
            transport.endpoint_latency(server),
            Some(EndpointLatency::default())
        );
        let t = transport.call(client, server, vec![1, 2]).unwrap();
        let summary = transport.endpoint_latency(server).unwrap();
        assert_eq!(summary.count, 1);
        assert_eq!(summary.ewma_us, t.latency_us);
        // Failed calls record nothing.
        transport.set_down(server, true);
        let _ = transport.call(client, server, vec![1]);
        assert_eq!(transport.endpoint_latency(server).unwrap().count, 1);
        transport.set_down(server, false);
        transport.reset_stats();
        assert_eq!(
            transport.endpoint_latency(server),
            Some(EndpointLatency::default())
        );
        assert_eq!(transport.endpoint_latency(EndpointId(999)), None);
    }

    /// Pins RNG draw order, the latency model and the down/drop clock
    /// charges: the values were captured at the last commit that still
    /// had a wrapper type between `Transport` and the simulator.
    #[test]
    fn golden_sim_clock_script_on_seed_42() {
        let transport = SimNet::shared(42);
        let net: &dyn Transport = transport.as_ref();
        let echo: Arc<dyn WireService> = Arc::new(|_from: EndpointId, p: &[u8]| p.to_vec());
        let at = |lat, lng| Some(LatLng::new(lat, lng).unwrap());
        let pittsburgh = net.register("pittsburgh", at(40.4406, -79.9959));
        let paris = net.register("paris", at(48.8566, 2.3522));
        let tokyo = net.register("tokyo", at(35.6762, 139.6503));
        net.set_service(paris, echo.clone());
        net.set_service(tokyo, echo);

        let one = net.call(pittsburgh, paris, vec![7u8; 300]).unwrap();
        assert_eq!(one.latency_us, 63_108);
        let fanout = [
            (paris, vec![1u8; 10]),
            (tokyo, vec![2u8; 5000]),
            (paris, vec![3u8; 2048]),
        ]
        .map(|(to, payload)| net.submit(pittsburgh, to, payload));
        let latencies = fanout.map(|h| h.wait().unwrap().latency_us);
        assert_eq!(latencies, [63_100, 106_858, 63_154]);
        net.set_timeout_us(5_000);
        net.set_drop_probability(1.0);
        assert_eq!(
            net.call(pittsburgh, tokyo, vec![9u8; 64]),
            Err(NetError::Timeout)
        );
        net.set_drop_probability(0.0);
        net.set_down(tokyo, true);
        assert_eq!(
            net.call(pittsburgh, tokyo, vec![9u8; 64]),
            Err(NetError::EndpointDown(tokyo))
        );

        assert_eq!(net.now_us(), 179_966);
        assert_eq!(
            net.stats(),
            NetStats {
                messages: 8,
                bytes: 14_716,
                drops: 1
            }
        );
        let traffic = |msgs, bytes| EndpointStats {
            rx_msgs: msgs,
            rx_bytes: bytes,
            tx_msgs: msgs,
            tx_bytes: bytes,
        };
        let latency = |count, ewma_us| EndpointLatency { count, ewma_us };
        for (id, stats, summary) in [
            (pittsburgh, traffic(4, 7_358), latency(0, 0)),
            (paris, traffic(3, 2_358), latency(3, 63_112)),
            (tokyo, traffic(1, 5_000), latency(1, 106_858)),
        ] {
            assert_eq!(net.endpoint_stats(id), Some(stats));
            assert_eq!(net.endpoint_latency(id), Some(summary));
        }
    }

    #[test]
    fn backend_kind_builds_every_backend() {
        for (kind, label) in [
            (BackendKind::Sim, "simnet"),
            (BackendKind::Tcp, "tcp"),
            (BackendKind::QuicLite, "quiclite"),
        ] {
            let transport = kind.build(1);
            assert_eq!(transport.kind(), label);
            let id = transport.register("c", None);
            assert_eq!(transport.endpoint_name(id).as_deref(), Some("c"));
        }
    }
}
