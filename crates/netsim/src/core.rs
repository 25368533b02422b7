//! The socket transport core: the one place that knows what a socket
//! call *is*.
//!
//! Both real-socket backends give callers the same exchange — a framed
//! request goes out under a fresh correlation id, a completion cell is
//! filled when the correlated response lands (or the deadline passes),
//! and the claiming side charges the frame-level counters. Everything
//! that defines that exchange lives here, once:
//!
//! - **correlation-id completion** ([`CompletionCell`] + [`Demux`]):
//!   responses are matched by id, never by order; unknown, duplicate
//!   and post-timeout responses are discarded and counted as orphans;
//! - **the endpoint book** ([`Endpoint`]): name, listen address, down
//!   flag, traffic counters, latency summary, admission gauge;
//! - **clock, timeout, drop roll and counters** ([`Shared`]) — the only
//!   state detached worker threads may hold, so dropping the last
//!   handle tears the whole backend down;
//! - **frame-level charging** and the pending-call success path
//!   ([`SocketPending`]);
//! - **the event loop** ([`EventLoop`]): one pool of threads on one
//!   `epoll` set, every served socket of either binding (and QuicLite's
//!   one client socket) a [`Source`] on it, and the admit-or-shed step
//!   ([`Served::admit`]) every decode path runs. The thread that reads
//!   a request runs it ([`ServeJob`]);
//! - **the only [`Transport`] impl for socket backends**, generic over
//!   a small [`Binding`]: how to bind a served endpoint, put an encoded
//!   frame on the wire, decide what a failed call means, and cut on
//!   `set_down` — plus one optional seam, [`Binding::drive`], through
//!   which a blocking waiter reads its own answer before it parks
//!   (tcp does; QuicLite leaves it to the loop). `tcp` supplies
//!   streams, whose client sockets its callers write and read
//!   themselves, `udp` reliable datagrams; neither can restate the
//!   semantics above, so the two cannot drift.
//!
//! Traffic counters are charged on the waiting side when a completion
//! is claimed and include the frame header. A call whose request frame
//! was put on the wire charges its request bytes even when the call
//! then fails — the bytes were really spent — while calls that never
//! reach a socket charge nothing.

use crate::reactor::{self, Epoll, Ready, EPOLLET, EPOLLIN, EPOLLONESHOT, EPOLLOUT};
use crate::reactor::{EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD};
use crate::stats::{EndpointLatency, EndpointStats, NetStats};
use crate::transport::{
    CallHandle, DispatchGauge, OverloadPolicy, PendingCall, Transfer, Transport, WireService,
};
use crate::{EndpointId, NetError, ThreadGuard};
use openflame_codec::framing::{write_frame, Frame, FRAME_HEADER_LEN};
use openflame_diag::{ranks, OrderedCondvar, OrderedMutex};
use openflame_geo::LatLng;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io;
use std::net::SocketAddr;
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Completion plumbing.
// ---------------------------------------------------------------------

/// One in-flight request's completion slot, filled exactly once by
/// the binding's receive path (or abandoned by a timed-out waiter).
///
/// The cell is the innermost lock any thread touches while routing a
/// response.
pub(crate) struct CompletionCell {
    state: OrderedMutex<CellState>,
    cond: OrderedCondvar,
    /// Set the moment the request frame starts onto a socket (see
    /// [`Demux::mark_sent`]).
    sent: AtomicBool,
}

#[derive(Default)]
struct CellState {
    done: Option<io::Result<Vec<u8>>>,
    /// Set (under the lock, so the parked waiter cannot miss it) when
    /// the waiter may try [`Binding::drive`] again.
    turn: bool,
}

impl CompletionCell {
    fn new() -> Self {
        Self {
            state: OrderedMutex::new(ranks::NET_COMPLETION, CellState::default()),
            cond: OrderedCondvar::new(),
            sent: AtomicBool::new(false),
        }
    }

    pub(crate) fn was_sent(&self) -> bool {
        self.sent.load(Ordering::SeqCst)
    }

    pub(crate) fn is_done(&self) -> bool {
        self.state.lock().done.is_some()
    }

    fn fill(&self, result: io::Result<Vec<u8>>) {
        let mut state = self.state.lock();
        if state.done.is_none() {
            state.done = Some(result);
            self.cond.notify_all();
        }
    }

    fn give_turn(&self) {
        let mut state = self.state.lock();
        if state.done.is_none() {
            state.turn = true;
            self.cond.notify_all();
        }
    }

    /// Blocks until filled, handed the turn, or `deadline`; `None`
    /// means one of the latter two came first.
    fn wait_until(&self, deadline: Instant) -> Option<io::Result<Vec<u8>>> {
        let mut state = self.state.lock();
        loop {
            if state.done.is_some() {
                return state.done.take();
            }
            let now = Instant::now();
            if std::mem::take(&mut state.turn) || now >= deadline {
                return None;
            }
            let (next, _) = self.cond.wait_timeout(state, deadline - now);
            state = next;
        }
    }
}

/// A connection's demultiplexer: correlation id → completion cell.
/// Shared between the submitting side and the connection's receive
/// path.
pub(crate) struct Demux {
    pending: OrderedMutex<HashMap<u64, Arc<CompletionCell>>>,
    /// Transport-wide count of discarded responses (unknown or
    /// already-completed correlation ids).
    orphans: Arc<AtomicU64>,
}

impl Demux {
    pub(crate) fn new(orphans: Arc<AtomicU64>) -> Self {
        Self {
            pending: OrderedMutex::new(ranks::NET_DEMUX, HashMap::new()),
            orphans,
        }
    }

    pub(crate) fn register(&self, corr: u64) -> Arc<CompletionCell> {
        let cell = Arc::new(CompletionCell::new());
        self.pending.lock().insert(corr, cell.clone());
        cell
    }

    /// Routes a response to its waiter, returning the cell it filled. A
    /// correlation id that matches no in-flight request — never issued,
    /// already completed (duplicate), or abandoned by a timed-out
    /// waiter — is discarded and counted, never delivered to a
    /// different call.
    pub(crate) fn complete(
        &self,
        corr: u64,
        result: io::Result<Vec<u8>>,
    ) -> Option<Arc<CompletionCell>> {
        let cell = self.pending.lock().remove(&corr);
        match &cell {
            Some(cell) => cell.fill(result),
            None => {
                self.orphans.fetch_add(1, Ordering::Relaxed);
            }
        }
        cell
    }

    /// Fails every in-flight request (the connection died).
    pub(crate) fn fail_all(&self, kind: io::ErrorKind, msg: &str) {
        let cells: Vec<_> = self.pending.lock().drain().map(|(_, cell)| cell).collect();
        for cell in cells {
            cell.fill(Err(io::Error::new(kind, msg.to_string())));
        }
    }

    /// Marks a request's frame as on its way onto the socket (called
    /// immediately before the first write), so failure paths know
    /// whether the request bytes were spent.
    pub(crate) fn mark_sent(&self, corr: u64) {
        if let Some(cell) = self.pending.lock().get(&corr) {
            cell.sent.store(true, Ordering::SeqCst);
        }
    }

    /// Hands the turn to every call still waiting here: the reader
    /// driving this connection is done with it (see [`Binding::drive`]).
    pub(crate) fn pass_turn(&self) {
        for cell in self.pending.lock().values() {
            cell.give_turn();
        }
    }

    /// Abandons a request (timed-out waiter, racing submitter); a late
    /// response becomes an orphan. Returns whether the slot was still
    /// pending.
    pub(crate) fn forget(&self, corr: u64) -> bool {
        self.pending.lock().remove(&corr).is_some()
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.pending.lock().len()
    }
}

// ---------------------------------------------------------------------
// Transport state.
// ---------------------------------------------------------------------

/// The part of a transport its detached worker threads may hold:
/// injection knobs, counters and the shutdown flag. Deliberately
/// separate from [`Core`], so no worker ever keeps the handle-owned
/// state (endpoint book, binding state) alive — dropping the last
/// handle unwinds every thread.
pub(crate) struct Shared {
    pub(crate) timeout_us: AtomicU64,
    /// Drop probability as IEEE-754 bits (atomics hold no f64).
    drop_bits: AtomicU64,
    rng: OrderedMutex<StdRng>,
    stats: OrderedMutex<NetStats>,
    /// Responses discarded because no in-flight request matched.
    pub(crate) orphans: Arc<AtomicU64>,
    /// Requests shed by admission control, transport-wide.
    shed: AtomicU64,
    /// Live pool threads.
    pub(crate) threads: Arc<AtomicUsize>,
    /// Set when the last transport handle drops; every worker exits on
    /// its next wakeup, releasing sockets and service handles.
    pub(crate) shutdown: AtomicBool,
}

impl Shared {
    /// `rng` drives drop injection.
    pub(crate) fn new(rng: StdRng) -> Arc<Self> {
        Arc::new(Self {
            timeout_us: AtomicU64::new(2_000_000),
            drop_bits: AtomicU64::new(0f64.to_bits()),
            rng: OrderedMutex::new(ranks::NET_RNG, rng),
            stats: OrderedMutex::new(ranks::NET_STATS, NetStats::default()),
            orphans: Arc::new(AtomicU64::new(0)),
            shed: AtomicU64::new(0),
            threads: Arc::new(AtomicUsize::new(0)),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The completion-wait deadline (and dial/write timeout).
    pub(crate) fn timeout(&self) -> Duration {
        Duration::from_micros(self.timeout_us.load(Ordering::Relaxed).max(1_000))
    }

    /// Failure injection: rolls the configured drop probability,
    /// counting a hit in [`NetStats::drops`]. What is dropped — a whole
    /// call before it reaches a socket, or one datagram in flight — is
    /// the binding's choice.
    pub(crate) fn roll_drop(&self) -> bool {
        let p = f64::from_bits(self.drop_bits.load(Ordering::Relaxed));
        let dropped = p > 0.0 && self.rng.lock().gen_bool(p);
        if dropped {
            self.stats.lock().drops += 1;
        }
        dropped
    }
}

/// One entry of the endpoint book.
pub(crate) struct Endpoint<C> {
    name: String,
    /// Listen address once the endpoint serves; `None` for clients.
    pub(crate) addr: Option<SocketAddr>,
    /// Shared with the endpoint's serve path: when set, requests are
    /// refused the way a crashed process refuses them.
    down: Arc<AtomicBool>,
    stats: EndpointStats,
    latency: EndpointLatency,
    /// Admission book for the endpoint's serve path (policy, live
    /// dispatch depth, per-principal split); shared with the serve
    /// path and the requests it admitted.
    pub(crate) gauge: Arc<DispatchGauge>,
    /// The binding's client-side state *toward* this endpoint.
    pub(crate) conns: C,
}

/// The handle-owned state of one socket transport: what the public
/// handles ([`crate::tcp::TcpTransport`],
/// [`crate::udp::QuicLiteTransport`]) share by `Arc`.
pub(crate) struct Core<B: Binding> {
    epoch: Instant,
    next_id: AtomicU64,
    next_corr: AtomicU64,
    pub(crate) endpoints: OrderedMutex<HashMap<EndpointId, Endpoint<B::Conns>>>,
    /// The pool every socket of this transport lives on and every
    /// request it serves runs on.
    pub(crate) event_loop: Arc<EventLoop<B::Source>>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) state: B::State,
}

impl<B: Binding> Drop for Core<B> {
    fn drop(&mut self) {
        // Each pool thread exits on this wake (a running request
        // first finishes), and the first drops every source: listeners
        // (releasing their ports), connections and service handles.
        // O(threads) however many endpoints served.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.event_loop.unwind();
    }
}

impl<B: Binding> Core<B> {
    /// At most `waiters` pool threads wait for events at once; the pool
    /// keeps [`Binding::DISPATCH_WORKERS`] more.
    pub(crate) fn new(shared: Arc<Shared>, state: B::State, waiters: usize) -> Arc<Self> {
        let threads = waiters + B::DISPATCH_WORKERS;
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_corr: AtomicU64::new(1),
            endpoints: OrderedMutex::new(ranks::NET_ENDPOINTS, HashMap::new()),
            event_loop: EventLoop::new(shared.clone(), waiters, threads, B::KIND),
            shared,
            state,
        })
    }

    /// The socket address an endpoint listens on, if it serves.
    pub(crate) fn listen_addr(&self, id: EndpointId) -> Option<SocketAddr> {
        self.endpoints.lock().get(&id).and_then(|e| e.addr)
    }

    /// Puts one request on the wire: resolve the destination, refuse a
    /// down endpoint, mint the correlation id, encode the frame and
    /// hand it to the binding.
    pub(crate) fn launch(
        self: &Arc<Self>,
        from: EndpointId,
        to: EndpointId,
        payload: Vec<u8>,
    ) -> Result<SocketPending<B>, NetError> {
        let (addr, down) = {
            let endpoints = self.endpoints.lock();
            let ep = endpoints.get(&to).ok_or(NetError::NoSuchEndpoint(to))?;
            (ep.addr, ep.down.clone())
        };
        let addr = addr.ok_or(NetError::NoSuchEndpoint(to))?;
        if down.load(Ordering::Relaxed) {
            return Err(NetError::EndpointDown(to));
        }
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let bytes_sent = payload.len() as u64;
        let frame = encode_frame(from, corr, &payload)?;
        let out = Outgoing {
            from,
            to,
            addr,
            corr,
            frame,
        };
        let sent = B::send(self, out)?;
        Ok(SocketPending {
            core: self.clone(),
            from,
            to,
            bytes_sent,
            corr,
            down,
            t0: Instant::now(),
            sent,
        })
    }

    /// Charges one request frame — and, when the call completed, its
    /// response — to the global and both per-endpoint counters (frame
    /// headers included: these are the bytes actually on the wire; a
    /// datagram binding counts packet headers, acks and
    /// retransmissions separately). `out` is the request's payload
    /// length; `answered` a completed call's response payload length
    /// and latency, the latter folded into `to`'s summary under the
    /// same lock.
    fn charge(&self, from: EndpointId, to: EndpointId, out: u64, answered: Option<(u64, u64)>) {
        let sent = out + FRAME_HEADER_LEN as u64;
        let (back_msgs, back_bytes) = match answered {
            Some((n, _)) => (1, n + FRAME_HEADER_LEN as u64),
            None => (0, 0),
        };
        {
            let mut stats = self.shared.stats.lock();
            stats.messages += 1 + back_msgs;
            stats.bytes += sent + back_bytes;
        }
        let mut endpoints = self.endpoints.lock();
        if let Some(ep) = endpoints.get_mut(&from) {
            ep.stats.tx_msgs += 1;
            ep.stats.tx_bytes += sent;
            ep.stats.rx_msgs += back_msgs;
            ep.stats.rx_bytes += back_bytes;
        }
        if let Some(ep) = endpoints.get_mut(&to) {
            ep.stats.rx_msgs += 1;
            ep.stats.rx_bytes += sent;
            ep.stats.tx_msgs += back_msgs;
            ep.stats.tx_bytes += back_bytes;
            if let Some((_, latency_us)) = answered {
                ep.latency.observe(latency_us);
            }
        }
    }

    /// Charges a request whose frame went on the wire but whose call
    /// failed (timeout, connection death after the write): the request
    /// bytes were really spent, so per-endpoint counters must not
    /// under-report traffic under failure injection. The missing
    /// response charges nothing.
    pub(crate) fn charge_tx(&self, from: EndpointId, to: EndpointId, payload_out: u64) {
        self.charge(from, to, payload_out, None);
    }
}

/// Encodes one v2 frame into a fresh buffer.
pub(crate) fn encode_frame(
    sender: EndpointId,
    corr: u64,
    payload: &[u8],
) -> Result<Vec<u8>, NetError> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    write_frame(&mut buf, sender.0, corr, payload)
        .map_err(|e| NetError::Connection(format!("encode frame: {e}")))?;
    Ok(buf)
}

// ---------------------------------------------------------------------
// The binding seam.
// ---------------------------------------------------------------------

/// One request on its way to the binding's wire.
pub(crate) struct Outgoing {
    pub(crate) from: EndpointId,
    pub(crate) to: EndpointId,
    pub(crate) addr: SocketAddr,
    pub(crate) corr: u64,
    /// The encoded request frame.
    pub(crate) frame: Vec<u8>,
}

/// What [`Binding::send`] hands back: the registered completion cell,
/// the demux it sits in, and the binding's own in-flight state.
pub(crate) struct Sent<B: Binding> {
    pub(crate) cell: Arc<CompletionCell>,
    pub(crate) demux: Arc<Demux>,
    pub(crate) flight: B::Flight,
}

/// What a socket backend must supply beyond the shared semantics. The
/// public handle type implements this, so [`Transport`] is implemented
/// exactly once for all of them (below).
pub(crate) trait Binding: Send + Sync + Sized + 'static {
    /// [`Transport::kind`] label.
    const KIND: &'static str;
    /// Pool threads beyond the waiters: what runs requests while the
    /// waiters keep reading.
    const DISPATCH_WORKERS: usize;
    /// Handle-owned binding state (client socket, resumption cache, ...).
    type State: Send + Sync;
    /// What the binding places on the event loop.
    type Source: Source;
    /// Client-side state kept per destination in the endpoint book.
    type Conns: Default + Send;
    /// What one call in flight keeps beyond the core's cell.
    type Flight: Send;

    fn core(&self) -> &Arc<Core<Self>>;

    /// Binds a listener for a served endpoint and places it on the
    /// event loop, feeding its decoded request frames to
    /// [`Served::admit`]; returns the address callers dial.
    fn serve(core: &Core<Self>, served: Served) -> SocketAddr;

    /// Registers `out.corr` with the carrying connection's demux and
    /// puts the encoded frame on the wire toward `out.to`.
    fn send(core: &Arc<Core<Self>>, out: Outgoing) -> Result<Sent<Self>, NetError>;

    /// Lets a blocking waiter read its own answer before it parks:
    /// returns once `sent.cell` is filled, `deadline` passes, or the
    /// waiter cannot read now — and then whoever can
    /// ([`Demux::pass_turn`]) hands it the turn to try again. By default
    /// a waiter never reads: the loop delivers every response.
    fn drive(_sent: &Sent<Self>, _deadline: Instant) {}

    /// Decides what a call that did not complete means. `failure` is
    /// the connection-level error, or `None` when the deadline passed
    /// (the core already abandoned the correlation slot). The binding
    /// charges the request bytes if they were spent; it never re-sends
    /// the call — retrying is the caller's (spec §9.4).
    fn failed(call: SocketPending<Self>, failure: Option<io::Error>) -> NetError;

    /// `set_down` flipped `id`'s flag either way: drop the client-side
    /// state toward it (`conns` was taken from the endpoint book).
    fn cut(core: &Core<Self>, id: EndpointId, conns: Self::Conns);
}

/// One in-flight socket call: the frame is queued or written; the
/// binding's receive path fills `cell` when the correlated response
/// lands.
pub(crate) struct SocketPending<B: Binding> {
    pub(crate) core: Arc<Core<B>>,
    pub(crate) from: EndpointId,
    pub(crate) to: EndpointId,
    /// Request payload length (the frame adds `FRAME_HEADER_LEN`).
    pub(crate) bytes_sent: u64,
    corr: u64,
    pub(crate) down: Arc<AtomicBool>,
    t0: Instant,
    pub(crate) sent: Sent<B>,
}

impl<B: Binding> PendingCall for SocketPending<B> {
    fn wait(self: Box<Self>) -> Result<Transfer, NetError> {
        let deadline = self.t0 + self.core.shared.timeout();
        let done = loop {
            B::drive(&self.sent, deadline);
            match self.sent.cell.wait_until(deadline) {
                None if Instant::now() < deadline => continue, // handed the turn
                done => break done,
            }
        };
        match done {
            Some(Ok(response)) => {
                let latency_us = self.t0.elapsed().as_micros() as u64;
                let answered = Some((response.len() as u64, latency_us));
                self.core
                    .charge(self.from, self.to, self.bytes_sent, answered);
                Ok(Transfer {
                    latency_us,
                    bytes_sent: self.bytes_sent + FRAME_HEADER_LEN as u64,
                    bytes_received: response.len() as u64 + FRAME_HEADER_LEN as u64,
                    payload: response,
                })
            }
            Some(Err(e)) => Err(B::failed(*self, Some(e))),
            None => {
                // Abandon the slot: a response past the deadline is
                // discarded as an orphan, never delivered to a future
                // call.
                self.sent.demux.forget(self.corr);
                Err(B::failed(*self, None))
            }
        }
    }
}

impl<B: Binding> Transport for B {
    fn kind(&self) -> &'static str {
        B::KIND
    }

    fn register(&self, name: &str, location: Option<LatLng>) -> EndpointId {
        let _ = location; // wall-clock transport: no distance model
        let core = self.core();
        let id = EndpointId(core.next_id.fetch_add(1, Ordering::Relaxed));
        core.endpoints.lock().insert(
            id,
            Endpoint {
                name: name.to_string(),
                addr: None,
                down: Arc::new(AtomicBool::new(false)),
                stats: EndpointStats::default(),
                latency: EndpointLatency::default(),
                gauge: Arc::new(DispatchGauge::new()),
                conns: B::Conns::default(),
            },
        );
        id
    }

    fn set_service(&self, id: EndpointId, service: Arc<dyn WireService>) {
        let core = self.core();
        let (down, gauge) = {
            let endpoints = core.endpoints.lock();
            let ep = endpoints
                .get(&id)
                .expect("set_service on an unregistered endpoint");
            (ep.down.clone(), ep.gauge.clone())
        };
        let addr = B::serve(
            core,
            Served {
                me: id.0,
                down,
                service,
                gauge,
                shared: core.shared.clone(),
            },
        );
        if let Some(ep) = core.endpoints.lock().get_mut(&id) {
            ep.addr = Some(addr);
        }
    }

    fn submit(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> CallHandle {
        match self.core().launch(from, to, payload) {
            Ok(pending) => CallHandle::new(Box::new(pending)),
            Err(e) => CallHandle::ready(Err(e)),
        }
    }

    fn now_us(&self) -> u64 {
        self.core().epoch.elapsed().as_micros() as u64
    }

    fn advance_us(&self, _dt_us: u64) {
        // Wall-clock transport: think time passes by itself.
    }

    fn stats(&self) -> NetStats {
        self.core().shared.stats.lock().clone()
    }

    fn endpoint_stats(&self, id: EndpointId) -> Option<EndpointStats> {
        let endpoints = self.core().endpoints.lock();
        endpoints.get(&id).map(|e| e.stats.clone())
    }

    fn endpoint_latency(&self, id: EndpointId) -> Option<EndpointLatency> {
        self.core().endpoints.lock().get(&id).map(|e| e.latency)
    }

    fn reset_stats(&self) {
        let core = self.core();
        *core.shared.stats.lock() = NetStats::default();
        core.shared.shed.store(0, Ordering::SeqCst);
        for ep in core.endpoints.lock().values_mut() {
            ep.stats = EndpointStats::default();
            ep.latency = EndpointLatency::default();
            ep.gauge.reset_high_water();
        }
    }

    fn endpoint_name(&self, id: EndpointId) -> Option<String> {
        let endpoints = self.core().endpoints.lock();
        endpoints.get(&id).map(|e| e.name.clone())
    }

    fn set_down(&self, id: EndpointId, down: bool) {
        let core = self.core();
        let conns = {
            let mut endpoints = core.endpoints.lock();
            let Some(ep) = endpoints.get_mut(&id) else {
                return;
            };
            ep.down.store(down, Ordering::Relaxed);
            // Drop client-side state either way: a revived server is
            // approached afresh, not over what the dead one abandoned.
            std::mem::take(&mut ep.conns)
        };
        B::cut(core, id, conns);
    }

    fn set_drop_probability(&self, p: f64) {
        let bits = p.clamp(0.0, 1.0).to_bits();
        self.core().shared.drop_bits.store(bits, Ordering::Relaxed);
    }

    fn set_timeout_us(&self, timeout_us: u64) {
        let shared = &self.core().shared;
        shared.timeout_us.store(timeout_us, Ordering::Relaxed);
    }

    fn worker_threads(&self) -> usize {
        self.core().shared.threads.load(Ordering::SeqCst)
    }

    fn set_overload_policy(&self, id: EndpointId, policy: Option<OverloadPolicy>) {
        if let Some(ep) = self.core().endpoints.lock().get(&id) {
            ep.gauge.set_policy(policy);
        }
    }

    fn dispatch_depth(&self, id: EndpointId) -> usize {
        let endpoints = self.core().endpoints.lock();
        endpoints.get(&id).map_or(0, |e| e.gauge.high_water())
    }

    fn shed_requests(&self) -> u64 {
        self.core().shared.shed.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------

/// What a [`Source`]'s sweep tells the loop.
pub(crate) enum Sweep {
    /// Drop the source (closing whatever it owns).
    Retire,
    /// Keep it; it needs nothing but readiness.
    Idle,
    /// Keep it, and sweep it again no later than this instant.
    Due(Instant),
}

/// The requests one turn of a source admitted, in arrival order.
pub(crate) type Jobs<S> = Vec<ServeJob<<S as Source>::Sink>>;

/// One socket (or listener) on the event loop and the state behind it,
/// run by one thread at a time. What it shares with callers or running
/// requests sits behind its binding's own locks.
pub(crate) trait Source: Send + Sized + 'static {
    /// Where the requests this source decodes are answered.
    type Sink: ReplySink;

    /// The readiness to wait for next (`EPOLLIN`/`EPOLLOUT` bits); 0
    /// leaves the fd disarmed until a [`Handle::nudge`].
    fn interest(&self) -> u32;

    /// The fd reported `ready`; `el` registers accepted sockets, and
    /// admitted requests go to `jobs`.
    fn ready(&mut self, ready: Ready, el: &Arc<EventLoop<Self>>, jobs: &mut Jobs<Self>);

    /// Runs after each event, nudge and deadline: retire what finished,
    /// do what is due at `now`, and name when work next falls due.
    fn sweep(&mut self, now: Instant, jobs: &mut Jobs<Self>) -> Sweep;
}

/// A registered source's cross-thread face, for a thread that changed
/// what the source must do.
pub(crate) struct Handle {
    epoll: Arc<Epoll>,
    fd: RawFd,
    token: u64,
    /// Set by a nudge, which the re-arm of a thread running the source
    /// may overwrite: that thread sweeps again when it finds this set.
    nudged: AtomicBool,
}

impl Handle {
    /// Has the loop sweep this source soon: re-arms its fd for either
    /// readiness. Every socket a binding nudges is writable or hung up,
    /// so the event follows at once.
    pub(crate) fn nudge(&self) {
        self.nudged.store(true, Ordering::SeqCst);
        let events = EPOLLIN | EPOLLOUT | EPOLLONESHOT;
        // ENOENT once the source retired: nothing left to nudge.
        let _ = (self.epoll).ctl(EPOLL_CTL_MOD, self.fd, events, self.token << 1);
    }
}

/// A source's deadline timer, and whether it is armed.
type Timer = (OwnedFd, bool);

struct Slot<S> {
    handle: Arc<Handle>,
    /// The source, `None` once retired, and its timer.
    live: OrderedMutex<Option<(S, Option<Timer>)>>,
}

/// The pool's books, behind the lock of the condvar parked threads
/// wait on.
struct Pool<S: Source> {
    /// The overflow queue: requests no thread could run at once.
    jobs: VecDeque<ServeJob<S::Sink>>,
    /// Threads in `epoll_wait`, or committed to it.
    waiters: usize,
    /// Waiter slots handed to parked threads not yet awake.
    promoted: usize,
    parked: usize,
    spawned: bool,
    /// Sources by token; an event carries `token << 1`, or `token << 1
    /// | 1` for the timer, and the shutdown eventfd [`STOP`].
    sources: HashMap<u64, Arc<Slot<S>>>,
}

const STOP: u64 = 0;

/// What a pool thread does next.
enum Next<J> {
    Wait,
    Run(J),
    Idle,
    Exit,
}

/// The event loop, written once for both bindings: one pool of threads
/// on one `epoll` set, every fd one-shot, at most `waiters` threads in
/// `epoll_wait` and the rest parked (the rules: spec Appendix A). A
/// deadline is a per-source `timerfd`, so a loop with nothing due does
/// not wake. Threads spawn with the first source and exit once
/// [`Shared::shutdown`] is set and [`EventLoop::unwind`] wakes them.
pub(crate) struct EventLoop<S: Source> {
    epoll: Arc<Epoll>,
    /// The shutdown eventfd, level-triggered: it wakes every waiter.
    stop: File,
    pool: OrderedMutex<Pool<S>>,
    wake: OrderedCondvar,
    next_token: AtomicU64,
    waiters: usize,
    threads: usize,
    kind: &'static str,
    shared: Arc<Shared>,
    /// Events taken, parked threads promoted, requests queued, client
    /// connections dialed and answers a reader completed for another
    /// call, so far (indexed by [`TURNS`], [`PROMOTIONS`], [`PUSHES`],
    /// [`DIALS`], [`FOREIGN`]); shared with the connections that count.
    #[cfg(test)]
    pub(crate) counts: Arc<[AtomicU64; 5]>,
}

#[cfg(test)]
const TURNS: usize = 0;
#[cfg(test)]
const PROMOTIONS: usize = 1;
#[cfg(test)]
const PUSHES: usize = 2;
#[cfg(test)]
pub(crate) const DIALS: usize = 3;
#[cfg(test)]
pub(crate) const FOREIGN: usize = 4;

impl<S: Source> EventLoop<S> {
    /// `waiters` threads at most wait for events, out of `threads`.
    pub(crate) fn new(
        shared: Arc<Shared>,
        waiters: usize,
        threads: usize,
        kind: &'static str,
    ) -> Arc<Self> {
        let epoll = Arc::new(Epoll::new().expect("create the epoll set"));
        let stop = reactor::eventfd_new().expect("create the shutdown eventfd");
        (epoll.ctl(EPOLL_CTL_ADD, stop.as_raw_fd(), EPOLLIN, STOP)).expect("register shutdown");
        Arc::new(Self {
            epoll,
            stop,
            pool: OrderedMutex::new(
                ranks::NET_DISPATCH_QUEUE,
                Pool {
                    jobs: VecDeque::new(),
                    waiters: 0,
                    promoted: 0,
                    parked: 0,
                    spawned: false,
                    sources: HashMap::new(),
                },
            ),
            wake: OrderedCondvar::new(),
            next_token: AtomicU64::new(1),
            waiters,
            threads,
            kind,
            shared,
            #[cfg(test)]
            counts: Default::default(),
        })
    }

    /// The most threads that wait for events at once.
    pub(crate) fn waiters(&self) -> usize {
        self.waiters
    }

    #[cfg(test)]
    pub(crate) fn count(&self, which: usize) -> u64 {
        self.counts[which].load(Ordering::SeqCst)
    }

    /// Sources registered now.
    #[cfg(test)]
    pub(crate) fn sources(&self) -> usize {
        self.pool.lock().sources.len()
    }

    /// A handle for `fd`, for its source to keep before it is added.
    pub(crate) fn handle(&self, fd: RawFd) -> Arc<Handle> {
        Arc::new(Handle {
            epoll: self.epoll.clone(),
            fd,
            token: self.next_token.fetch_add(1, Ordering::Relaxed),
            nudged: AtomicBool::new(false),
        })
    }

    /// Registers `source` under `handle`, armed for its interest (its
    /// first sweep follows its first event); spawns the pool once.
    pub(crate) fn add(self: &Arc<Self>, handle: Arc<Handle>, source: S) {
        let events = source.interest() | EPOLLONESHOT;
        let (fd, token) = (handle.fd, handle.token);
        let live = OrderedMutex::new(ranks::NET_SOURCE, Some((source, None)));
        let mut pool = self.pool.lock();
        if !std::mem::replace(&mut pool.spawned, true) {
            for idx in 0..self.threads {
                let guard = ThreadGuard::enter(&self.shared.threads);
                let el = self.clone();
                thread::Builder::new()
                    .name(format!("ofl-{}-{idx}", self.kind))
                    .spawn(move || {
                        let _guard = guard;
                        el.run();
                    })
                    .expect("spawn a pool thread");
            }
        }
        pool.sources.insert(token, Arc::new(Slot { handle, live }));
        drop(pool);
        (self.epoll.ctl(EPOLL_CTL_ADD, fd, events, token << 1)).expect("register a source");
    }

    /// Wakes every thread to observe [`Shared::shutdown`], already set.
    fn unwind(&self) {
        reactor::signal(&self.stop);
        // Taking the lock first means no thread is between its check
        // and its wait.
        drop(self.pool.lock());
        self.wake.notify_all();
    }

    /// Chooses what a thread between events or requests does next.
    fn next(&self, pool: &mut Pool<S>) -> Next<ServeJob<S::Sink>> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            Next::Exit
        } else if pool.promoted > 0 {
            // The waiter slot was counted when it was handed over.
            pool.promoted -= 1;
            Next::Wait
        } else if let Some(job) = pool.jobs.pop_front() {
            Next::Run(job)
        } else if pool.waiters < self.waiters {
            pool.waiters += 1;
            Next::Wait
        } else {
            Next::Idle
        }
    }

    fn run(self: Arc<Self>) {
        let mut jobs = Vec::new();
        let mut next = Next::Idle;
        loop {
            next = match next {
                Next::Exit => break,
                Next::Idle => {
                    let mut pool = self.pool.lock();
                    loop {
                        match self.next(&mut pool) {
                            Next::Idle => {
                                pool.parked += 1;
                                pool = self.wake.wait(pool);
                                pool.parked -= 1;
                            }
                            next => break next,
                        }
                    }
                }
                Next::Run(job) => self.serve(job),
                Next::Wait => match self.lead(&mut jobs) {
                    Some(job) => self.serve(job),
                    None => Next::Exit,
                },
            };
        }
        let sources = std::mem::take(&mut self.pool.lock().sources);
        drop(sources); // outside the lock
    }

    /// Runs one request, choosing what to do next before the reply goes
    /// out, so the caller it wakes finds this thread counted.
    fn serve(&self, job: ServeJob<S::Sink>) -> Next<ServeJob<S::Sink>> {
        let (sink, corr, response) = job.execute();
        let next = self.next(&mut self.pool.lock());
        sink.reply(corr, response);
        next
    }

    /// Waits for events until one admits a request this thread runs;
    /// `None` once the transport unwinds.
    fn lead(self: &Arc<Self>, jobs: &mut Jobs<S>) -> Option<ServeJob<S::Sink>> {
        loop {
            let (token, ready) = match self.epoll.wait_one(-1) {
                Ok(Some(event)) => event,
                Ok(None) => continue,
                Err(_) => {
                    // ENOMEM-class failure: back off instead of spinning.
                    thread::sleep(Duration::from_millis(1));
                    continue;
                }
            };
            if token == STOP || self.shared.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            #[cfg(test)]
            self.counts[TURNS].fetch_add(1, Ordering::SeqCst);
            self.turn(token, ready, jobs);
            if jobs.is_empty() {
                continue;
            }
            let mut pool = self.pool.lock();
            // The last waiter leaves only by handing its slot to a
            // parked thread, so a reader always remains.
            let inline = pool.waiters > 1 || pool.parked > pool.promoted;
            if pool.waiters > 1 {
                pool.waiters -= 1;
            } else if inline {
                pool.promoted += 1;
                self.wake.notify_one();
                #[cfg(test)]
                self.counts[PROMOTIONS].fetch_add(1, Ordering::SeqCst);
            }
            let run = inline.then(|| jobs.remove(0));
            for job in jobs.drain(..) {
                pool.jobs.push_back(job);
                if pool.parked > pool.promoted {
                    self.wake.notify_one();
                }
                #[cfg(test)]
                self.counts[PUSHES].fetch_add(1, Ordering::SeqCst);
            }
            if run.is_some() {
                return run;
            }
        }
    }

    /// Runs the source behind one event — `ready` unless it is the
    /// timer's, then `sweep` (again if a nudge landed meanwhile) — and
    /// re-arms it before anything it admitted runs.
    fn turn(self: &Arc<Self>, token: u64, ready: Ready, jobs: &mut Jobs<S>) {
        let Some(slot) = self.pool.lock().sources.get(&(token >> 1)).cloned() else {
            return; // retired meanwhile
        };
        let mut live = slot.live.lock();
        let Some((source, timer)) = live.as_mut() else {
            return;
        };
        if token & 1 == 0 {
            source.ready(ready, self, jobs);
        }
        loop {
            slot.handle.nudged.swap(false, Ordering::SeqCst);
            let now = Instant::now();
            let due = match source.sweep(now, jobs) {
                Sweep::Retire => break,
                Sweep::Idle => None,
                Sweep::Due(at) => Some(at.saturating_duration_since(now)),
            };
            // A disarmed timer stays so without a syscall.
            if due.is_some() || timer.as_ref().is_some_and(|(_, armed)| *armed) {
                let (fd, armed) = timer.get_or_insert_with(|| {
                    let timer = reactor::timerfd_new().expect("create a deadline timer");
                    // Edge-triggered: one expiry wakes one waiter.
                    let (fd, events) = (timer.as_raw_fd(), EPOLLIN | EPOLLET);
                    (self.epoll.ctl(EPOLL_CTL_ADD, fd, events, token | 1)).expect("register it");
                    (timer, false)
                });
                reactor::set_timer(fd, due);
                *armed = due.is_some();
            }
            let interest = source.interest();
            if interest != 0 {
                let events = interest | EPOLLONESHOT;
                let _ = (self.epoll).ctl(EPOLL_CTL_MOD, slot.handle.fd, events, token & !1);
            }
            if !slot.handle.nudged.load(Ordering::SeqCst) {
                return;
            }
        }
        // Retire: the fd leaves the set even while others hold it.
        let _ = (self.epoll).ctl(EPOLL_CTL_DEL, slot.handle.fd, 0, 0);
        let retired = live.take();
        self.pool.lock().sources.remove(&slot.handle.token);
        drop(live);
        drop(retired);
    }
}

// ---------------------------------------------------------------------
// Serving requests.
// ---------------------------------------------------------------------

/// Where a served request's answer goes: the binding's way back to the
/// requester.
pub(crate) trait ReplySink: Send + 'static {
    /// Delivers the response to request `corr`. `None` means the
    /// service panicked on it; what that costs the requester (its
    /// connection, or only this call) is the binding's choice.
    fn reply(self, corr: u64, response: Option<Vec<u8>>);
}

/// One admitted request frame, on its way to whichever pool thread
/// runs it.
pub(crate) struct ServeJob<S> {
    frame: Frame,
    /// Carried per job (not per thread) because the pool is
    /// transport-wide: idle threads pin no service alive.
    service: Arc<dyn WireService>,
    /// The endpoint's admission book and this request's principal key
    /// (present when an overload policy classified it). The slot is
    /// released right after execution — on every path, including
    /// service panics and vanished requesters — so nothing can leak
    /// slots and wedge the endpoint.
    gauge: Arc<DispatchGauge>,
    admit_key: Option<u64>,
    sink: S,
}

impl<S> ServeJob<S> {
    /// Invokes the owning service (its `Send + Sync` contract makes
    /// concurrent calls legal; see [`WireService`]) and releases the
    /// admission slot; the caller writes the reply. Contains panics: a
    /// panicking service costs its caller, never a pool thread.
    fn execute(self) -> (S, u64, Option<Vec<u8>>) {
        let Frame {
            sender, payload, ..
        } = &self.frame;
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.service.handle(EndpointId(*sender), payload)
        }))
        .ok();
        // Release before anything can skip the result (dead connection,
        // panic): the endpoint-wide depth must drain even when the
        // requester is gone.
        self.gauge.release(self.admit_key);
        (self.sink, self.frame.correlation, response)
    }
}

/// Everything a binding's serve path needs to know about the endpoint
/// it serves.
pub(crate) struct Served {
    /// The served endpoint id: the response frames' sender.
    pub(crate) me: u64,
    /// When set, the binding refuses requests the way a crashed
    /// process does (cut the stream, drop the datagram).
    pub(crate) down: Arc<AtomicBool>,
    service: Arc<dyn WireService>,
    gauge: Arc<DispatchGauge>,
    shared: Arc<Shared>,
}

impl Served {
    /// The admit-or-shed step every decode path runs on a request
    /// frame: the job to run, or — when the endpoint's overload policy
    /// says so — `None`, having answered with the policy's busy payload
    /// straight through the sink. A shed request is **not** executed,
    /// which is what makes client retries safe.
    pub(crate) fn admit<S: ReplySink>(&self, frame: Frame, sink: S) -> Option<ServeJob<S>> {
        match self.gauge.admit(&frame.payload) {
            Ok(admit_key) => Some(ServeJob {
                frame,
                service: self.service.clone(),
                gauge: self.gauge.clone(),
                admit_key,
                sink,
            }),
            Err(busy) => {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                sink.reply(frame.correlation, Some(busy));
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpTransport;
    use crate::udp::QuicLiteTransport;
    use std::sync::mpsc;

    #[test]
    fn demux_discards_unknown_and_duplicate_correlations() {
        let orphans = Arc::new(AtomicU64::new(0));
        let demux = Demux::new(orphans.clone());
        let cell = demux.register(1);
        // Unknown correlation id: discarded, counted, no delivery.
        demux.complete(99, Ok(vec![9]));
        assert_eq!(orphans.load(Ordering::Relaxed), 1);
        // First completion delivers...
        demux.complete(1, Ok(vec![1]));
        let done = cell.wait_until(Instant::now()).unwrap();
        assert_eq!(done.unwrap(), vec![1]);
        // ...a duplicate for the same id is an orphan, not a overwrite.
        demux.complete(1, Ok(vec![2]));
        assert_eq!(orphans.load(Ordering::Relaxed), 2);
        assert_eq!(demux.in_flight(), 0);
    }

    // The event loop, driven directly with a fake source.

    enum Ev {
        Ready,
        Fired,
        Dropped,
    }

    /// Reports what the loop does to it. Its socket is its interest
    /// (drained on readiness); `due` is a deadline its sweep names
    /// until it fires.
    struct Fake {
        sock: std::net::UdpSocket,
        due: Option<Instant>,
        retire_on_ready: bool,
        retire: bool,
        tx: mpsc::Sender<Ev>,
    }

    impl Fake {
        /// A fake with a readable-on-demand socket; returns where to
        /// send to make it ready.
        fn with_socket(tx: &mpsc::Sender<Ev>) -> (Self, SocketAddr) {
            let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
            sock.set_nonblocking(true).unwrap();
            let addr = sock.local_addr().unwrap();
            let fake = Fake {
                sock,
                due: None,
                retire_on_ready: false,
                retire: false,
                tx: tx.clone(),
            };
            (fake, addr)
        }

        fn add_to(self, el: &Arc<EventLoop<Fake>>) {
            use std::os::fd::AsRawFd;
            el.add(el.handle(self.sock.as_raw_fd()), self);
        }
    }

    impl ReplySink for () {
        fn reply(self, _corr: u64, _response: Option<Vec<u8>>) {}
    }

    impl Source for Fake {
        type Sink = ();

        fn interest(&self) -> u32 {
            EPOLLIN
        }

        fn ready(&mut self, _ready: Ready, _el: &Arc<EventLoop<Self>>, _jobs: &mut Jobs<Self>) {
            while self.sock.recv(&mut [0u8; 8]).is_ok() {}
            self.retire = self.retire_on_ready;
            let _ = self.tx.send(Ev::Ready);
        }

        fn sweep(&mut self, now: Instant, _jobs: &mut Jobs<Self>) -> Sweep {
            if self.retire {
                return Sweep::Retire;
            }
            match self.due {
                Some(at) if now < at => Sweep::Due(at),
                Some(_) => {
                    self.due = None;
                    let _ = self.tx.send(Ev::Fired);
                    Sweep::Idle
                }
                None => Sweep::Idle,
            }
        }
    }

    impl Drop for Fake {
        fn drop(&mut self) {
            let _ = self.tx.send(Ev::Dropped);
        }
    }

    fn fake_loop() -> Arc<EventLoop<Fake>> {
        use rand::SeedableRng;
        EventLoop::new(Shared::new(StdRng::seed_from_u64(1)), 1, 1, "test")
    }

    /// What `Core::drop` does, then waits for the pool to go.
    fn stop(el: &EventLoop<Fake>) {
        el.shared.shutdown.store(true, Ordering::SeqCst);
        el.unwind();
        let t0 = Instant::now();
        while el.shared.threads.load(Ordering::SeqCst) > 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "loop did not exit");
            thread::yield_now();
        }
    }

    const PATIENCE: Duration = Duration::from_secs(2);

    #[test]
    fn event_loop_deadline_fires_with_no_fd_ready() {
        let el = fake_loop();
        let (tx, rx) = mpsc::channel();
        let (mut fake, addr) = Fake::with_socket(&tx);
        let t0 = Instant::now();
        fake.due = Some(t0 + Duration::from_millis(40));
        fake.add_to(&el);
        // One event runs its first sweep, which names the deadline.
        let poke = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        poke.send_to(&[1], addr).unwrap();
        assert!(matches!(rx.recv_timeout(PATIENCE), Ok(Ev::Ready)));
        assert!(matches!(rx.recv_timeout(PATIENCE), Ok(Ev::Fired)));
        assert!(t0.elapsed() >= Duration::from_millis(40), "fired early");
        // It slept to the deadline instead of spinning toward it: the
        // poke, the timer, nothing else.
        assert!(
            el.count(TURNS) <= 2,
            "{} turns to one deadline",
            el.count(TURNS)
        );
        stop(&el);
    }

    #[test]
    fn event_loop_retired_source_leaves_the_poll_set() {
        let el = fake_loop();
        let (tx, rx) = mpsc::channel();
        let (mut fake, addr) = Fake::with_socket(&tx);
        fake.retire_on_ready = true;
        fake.add_to(&el);
        let poke = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        poke.send_to(&[1], addr).unwrap();
        assert!(matches!(rx.recv_timeout(PATIENCE), Ok(Ev::Ready)));
        assert!(matches!(rx.recv_timeout(PATIENCE), Ok(Ev::Dropped)));
        // Retired means gone: with its fd out of the set (and closed)
        // the loop has nothing to wake for, whatever arrives there.
        let turns = el.count(TURNS);
        let _ = poke.send_to(&[1], addr);
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(el.count(TURNS), turns);
        stop(&el);
    }

    #[test]
    fn event_loop_adopts_sources_pushed_from_another_thread() {
        let el = fake_loop();
        let (tx, rx) = mpsc::channel();
        let (fake, addr) = Fake::with_socket(&tx);
        let remote = el.clone();
        thread::spawn(move || fake.add_to(&remote)).join().unwrap();
        std::net::UdpSocket::bind("127.0.0.1:0")
            .unwrap()
            .send_to(&[1], addr)
            .unwrap();
        assert!(matches!(rx.recv_timeout(PATIENCE), Ok(Ev::Ready)));
        stop(&el);
        // The exiting pool dropped what was registered.
        assert!(matches!(rx.recv_timeout(PATIENCE), Ok(Ev::Dropped)));
    }

    fn echo_pair<T: Transport>(transport: &T) -> (EndpointId, EndpointId) {
        let server = transport.register("echo", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
        );
        (transport.register("client", None), server)
    }

    /// `Core::drop` is one eventfd signal and one condvar broadcast, and
    /// that unwinds everything: the waiters sit in an `epoll_wait` with
    /// no timeout, so nothing else could.
    fn dropping_the_last_handle_unwinds_every_worker<T: Transport + Binding>(transport: T) {
        let kind = transport.kind();
        let (client, server) = echo_pair(&transport);
        transport.call(client, server, vec![1]).unwrap();
        let threads = transport.core().shared.threads.clone();
        assert!(threads.load(Ordering::SeqCst) > 0);
        drop(transport);
        let t0 = Instant::now();
        while threads.load(Ordering::SeqCst) > 0 {
            assert!(
                t0.elapsed() < PATIENCE,
                "{kind}: {} workers outlived the last handle",
                threads.load(Ordering::SeqCst)
            );
            thread::yield_now();
        }
    }

    #[test]
    fn dropping_the_last_handle_unwinds_every_worker_on_every_binding() {
        dropping_the_last_handle_unwinds_every_worker(TcpTransport::new(7));
        dropping_the_last_handle_unwinds_every_worker(QuicLiteTransport::new(7));
    }

    /// Once traffic has quiesced — every response claimed, every packet
    /// acked, the last RTO deadline past — nothing is due, so the loop
    /// sits in `poll` with no timeout: zero turns.
    fn idle_transport_makes_no_loop_turns<T: Transport + Binding>(transport: T) {
        let kind = transport.kind();
        let (client, server) = echo_pair(&transport);
        let handles: Vec<CallHandle> = (0..8u8)
            .map(|i| transport.submit(client, server, vec![i]))
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let el = &transport.core().event_loop;
        let t0 = Instant::now();
        let mut turns = el.count(TURNS);
        loop {
            thread::sleep(Duration::from_millis(100));
            if el.count(TURNS) == turns {
                break;
            }
            turns = el.count(TURNS);
            assert!(t0.elapsed() < PATIENCE, "{kind}: never quiesced");
        }
        thread::sleep(Duration::from_millis(300));
        assert_eq!(el.count(TURNS), turns, "{kind}: an idle transport ticked");
    }

    /// A warm tcp call costs the loop one turn — the served side's read:
    /// the caller writes and reads its own socket, the answering worker
    /// writes its reply, and nothing else passes through a loop.
    #[test]
    fn a_warm_tcp_call_is_one_loop_turn() {
        let transport = TcpTransport::new(7);
        let (client, server) = echo_pair(&transport);
        transport.call(client, server, vec![0]).unwrap();
        // Let the accept's own turn pass.
        thread::sleep(Duration::from_millis(50));
        let el = &transport.core().event_loop;
        let before = el.count(TURNS);
        for i in 0..200u8 {
            transport.call(client, server, vec![i]).unwrap();
        }
        let sequential = el.count(TURNS) - before;
        assert!(
            sequential <= 200,
            "200 warm calls took {sequential} loop turns"
        );
        let before = el.count(TURNS);
        let handles: Vec<CallHandle> = (0..8u8)
            .map(|i| transport.submit(client, server, vec![i]))
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let fanned = el.count(TURNS) - before;
        assert!(fanned <= 8, "an 8-way fan-out took {fanned} loop turns");
    }

    /// A warm call hands nothing from thread to thread: the waiter that
    /// reads the request runs it, and is back among the waiters before
    /// its reply wakes the caller. Several frames in one read are what
    /// the overflow queue is for.
    #[test]
    fn a_warm_tcp_call_hands_off_nothing() {
        use openflame_codec::framing::{read_frame, write_frame};
        use std::io::Write;
        let transport = TcpTransport::with_reactors(7, 2);
        let server = transport.register("mixed", None);
        // payload[0] == 1 marks a slow request.
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                if payload.first() == Some(&1) {
                    thread::sleep(Duration::from_millis(100));
                }
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        transport.call(client, server, vec![0]).unwrap();
        thread::sleep(Duration::from_millis(50));
        let el = &transport.core().event_loop;
        let counts = || (el.count(PROMOTIONS), el.count(PUSHES));
        let before = counts();
        for i in 0..200u8 {
            transport.call(client, server, vec![0, i]).unwrap();
        }
        assert_eq!(counts(), before, "(promotions, pushes) over 200 warm calls");
        // A slow request and 8 fast ones in one write: one read decodes
        // all 9, the reader runs the first and queues the rest.
        let addr = transport.listen_addr(server).unwrap();
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        let mut burst = Vec::new();
        for corr in 0..9u64 {
            write_frame(&mut burst, 99, corr, &[u8::from(corr == 0), 0]).unwrap();
        }
        raw.write_all(&burst).unwrap();
        let answered: Vec<u64> = (0..9)
            .map(|_| read_frame(&mut raw).unwrap().correlation)
            .collect();
        assert_eq!(answered.last(), Some(&0), "the slow request answers last");
        assert!(counts().1 > before.1, "nothing went through the queue");
    }

    /// A request held in its service never stalls another socket: while
    /// `held` requests wait in theirs, a request on another socket of
    /// the same endpoint (`probe`'s: tcp opens a connection of its own,
    /// QuicLite's served socket is its only one) is answered at once —
    /// up to one fewer held than the threads the pool keeps beyond its
    /// waiters.
    fn a_held_request_never_stalls_another_socket<T: Transport + Binding>(
        transport: T,
        probe: fn(&T, EndpointId, EndpointId) -> Vec<u8>,
    ) {
        let kind = transport.kind();
        let entered = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(false));
        let server = transport.register("holding", None);
        let (inside, gate) = (entered.clone(), release.clone());
        // payload[0] == 1 holds the request until released.
        transport.set_service(
            server,
            Arc::new(move |_from: EndpointId, payload: &[u8]| {
                if payload.first() == Some(&1) {
                    inside.fetch_add(1, Ordering::SeqCst);
                    while !gate.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(1));
                    }
                }
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        transport.call(client, server, vec![0]).unwrap();
        for held in [1, T::DISPATCH_WORKERS - 1] {
            entered.store(0, Ordering::SeqCst);
            release.store(false, Ordering::SeqCst);
            let holding: Vec<CallHandle> = (0..held)
                .map(|_| transport.submit(client, server, vec![1]))
                .collect();
            let t0 = Instant::now();
            while entered.load(Ordering::SeqCst) < held {
                assert!(t0.elapsed() < PATIENCE, "{kind}: {held} requests never ran");
                thread::sleep(Duration::from_millis(1));
            }
            let t0 = Instant::now();
            let answer = probe(&transport, client, server);
            let waited = t0.elapsed();
            release.store(true, Ordering::SeqCst);
            assert_eq!(answer, [0, 2]);
            assert!(
                waited < Duration::from_millis(100),
                "{kind}: with {held} held, another socket waited {waited:?}"
            );
            for handle in holding {
                assert_eq!(handle.wait().unwrap().payload, [1]);
            }
        }
    }

    #[test]
    fn a_held_request_never_stalls_another_socket_on_every_binding() {
        use openflame_codec::framing::read_frame;
        // A raw stream to the listener: the transport's own connection
        // carries the held requests. Its read timeout makes a stalled
        // serve path fail the test instead of hanging it.
        a_held_request_never_stalls_another_socket(TcpTransport::new(7), |t, _, server| {
            let mut raw = std::net::TcpStream::connect(t.listen_addr(server).unwrap()).unwrap();
            raw.set_read_timeout(Some(PATIENCE)).unwrap();
            write_frame(&mut raw, 99, 2, &[0, 2]).unwrap();
            match read_frame(&mut raw) {
                Ok(frame) => frame.payload,
                Err(e) => panic!("tcp: the raw probe got no answer: {e}"),
            }
        });
        a_held_request_never_stalls_another_socket(
            QuicLiteTransport::new(7),
            |t, client, server| t.call(client, server, vec![0, 2]).unwrap().payload,
        );
    }

    #[test]
    fn idle_transport_makes_no_loop_turns_on_every_binding() {
        idle_transport_makes_no_loop_turns(TcpTransport::new(7));
        idle_transport_makes_no_loop_turns(QuicLiteTransport::new(7));
    }

    // The cases below were pinned on tcp only while each backend had
    // its own copy of the semantics; each now runs on every binding
    // through one helper driven by the `Transport` surface (`Binding`
    // is only used to peek at the core's books).

    /// A panicking service costs only its caller — as what, is the
    /// binding's choice (`died`) — runs the panicking request once,
    /// releases its admission slot, and leaves the endpoint answering.
    fn panicking_service_costs_only_its_caller<T: Transport + Binding>(
        transport: T,
        died: fn(&NetError) -> bool,
    ) {
        let kind = transport.kind();
        let server = transport.register("panicky", None);
        let runs = Arc::new(AtomicUsize::new(0));
        let count = runs.clone();
        // payload[0] == 1 makes the service panic.
        transport.set_service(
            server,
            Arc::new(move |_from: EndpointId, payload: &[u8]| {
                if payload.first() == Some(&1) {
                    count.fetch_add(1, Ordering::SeqCst);
                }
                assert_ne!(payload.first(), Some(&1), "injected service bug");
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        transport.set_timeout_us(300_000);
        transport.call(client, server, vec![0]).unwrap();
        let err = transport.call(client, server, vec![1]).unwrap_err();
        assert!(died(&err), "{kind}: the panic surfaced as {err:?}");
        let gauge = {
            let endpoints = transport.core().endpoints.lock();
            endpoints.get(&server).unwrap().gauge.clone()
        };
        assert_eq!(
            gauge.current_depth(),
            0,
            "{kind}: the panicked request kept its admission slot"
        );
        assert_eq!(
            transport.call(client, server, vec![2]).unwrap().payload,
            [2],
            "{kind}: dispatch workers must outlive a panicking request"
        );
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "{kind}: the panicking request was sent again"
        );
    }

    #[test]
    fn panicking_service_costs_only_its_caller_on_every_binding() {
        // A stream is cut (crash semantics); a datagram goes unanswered.
        panicking_service_costs_only_its_caller(TcpTransport::new(7), |e| {
            matches!(e, NetError::Connection(_))
        });
        panicking_service_costs_only_its_caller(QuicLiteTransport::new(7), |e| {
            matches!(e, NetError::Timeout)
        });
    }

    /// A response that arrives after its waiter timed out is counted
    /// as an orphan and never completes another call.
    fn late_response_is_orphaned_not_delivered<T: Transport + Binding>(transport: T) {
        let kind = transport.kind();
        let server = transport.register("slow", None);
        // The service sleeps payload[0] x 10 ms before echoing.
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(10 * u64::from(payload[0])));
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        // Warm the connection so both calls below ride it.
        transport.call(client, server, vec![0]).unwrap();
        let abandoned = transport.submit(client, server, vec![30]);
        // A slower sibling keeps the connection in use past the
        // abandoned call's late response.
        let sibling = transport.submit(client, server, vec![60]);
        transport.set_timeout_us(50_000);
        assert!(matches!(abandoned.wait(), Err(NetError::Timeout)));
        transport.set_timeout_us(2_000_000);
        assert_eq!(
            sibling.wait().unwrap().payload,
            [60],
            "{kind}: the sibling must get its own answer"
        );
        assert_eq!(
            transport.core().shared.orphans.load(Ordering::Relaxed),
            1,
            "{kind}: the late response must be counted as an orphan"
        );
        assert_eq!(
            transport.call(client, server, vec![1]).unwrap().payload,
            [1]
        );
    }

    #[test]
    fn late_response_is_orphaned_not_delivered_on_every_binding() {
        late_response_is_orphaned_not_delivered(TcpTransport::new(7));
        late_response_is_orphaned_not_delivered(QuicLiteTransport::new(7));
    }

    fn endpoint_without_policy_never_sheds<T: Transport>(transport: T) {
        let server = transport.register("echo", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
        );
        let client = transport.register("client", None);
        let handles: Vec<CallHandle> = (0..64u8)
            .map(|i| transport.submit(client, server, vec![i]))
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        assert_eq!(transport.shed_requests(), 0);
        assert!(
            transport.dispatch_depth(server) >= 1,
            "depth high-water is observed even without a policy"
        );
    }

    #[test]
    fn endpoint_without_policy_never_sheds_on_every_binding() {
        endpoint_without_policy_never_sheds(TcpTransport::new(7));
        endpoint_without_policy_never_sheds(QuicLiteTransport::new(7));
    }
}
