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
//! - **the event loop** ([`EventLoop`]): the one `poll(2)` loop every
//!   socket of either binding lives on, as a [`Source`] — lazy
//!   spawning, round-robin placement, inbox adoption, the waker, the
//!   shutdown check and the poll deadline, written once
//!   (`crate::reactor` stays the lock-free syscall wrapper under it);
//! - **serve-side dispatch**: [`ServeJob`], the one
//!   [`spawn_dispatch_pool`] and its [`JobQueue`] — one queue behind
//!   one condvar, so a queued job wakes exactly one worker — and the
//!   admit-or-shed step ([`Served::admit`]) every decode path runs;
//! - **the only [`Transport`] impl for socket backends**, generic over
//!   a small [`Binding`]: how to bind a served endpoint, put an encoded
//!   frame on the wire, decide what a failed call means, and cut on
//!   `set_down` — plus one optional seam, [`Binding::drive`], through
//!   which a blocking waiter reads its own answer before it parks
//!   (tcp does; QuicLite leaves it to the loop). `tcp` supplies
//!   streams, `udp` reliable datagrams — each as sources on the loop;
//!   neither can restate the semantics above, so the two cannot drift.
//!   The loop and the dispatch pool are the only threads a socket
//!   transport has; callers and workers do socket I/O on their own
//!   threads where a binding lets them, but no request ever executes
//!   on a loop thread.
//!
//! Traffic counters are charged on the waiting side when a completion
//! is claimed and include the frame header. A call whose request frame
//! was put on the wire charges its request bytes even when the call
//! then fails — the bytes were really spent — while calls that never
//! reach a socket charge nothing.

use crate::reactor::{poll_fds, PollFd, Waker, POLLIN};
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
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Completion plumbing.
// ---------------------------------------------------------------------

/// A completed call's payload-or-error, plus the context a retry
/// policy needs.
pub(crate) struct CellDone {
    pub(crate) result: io::Result<Vec<u8>>,
    /// Whether this request was the only one in flight on its
    /// connection when the outcome landed. A connection-death failure
    /// is only retried when true: with siblings pipelined behind it,
    /// the server may have processed any of them before the cut, and
    /// re-sending would duplicate non-idempotent work.
    pub(crate) sole_in_flight: bool,
}

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
    done: Option<CellDone>,
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

    fn fill(&self, result: io::Result<Vec<u8>>, sole_in_flight: bool) {
        let mut state = self.state.lock();
        if state.done.is_none() {
            state.done = Some(CellDone {
                result,
                sole_in_flight,
            });
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
    fn wait_until(&self, deadline: Instant) -> Option<CellDone> {
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
    /// Responses successfully delivered on this connection, ever. A
    /// retry policy compares snapshots of this: a delivery after a
    /// request was submitted proves the server was alive and
    /// processing past that point, so a subsequent connection death no
    /// longer proves the request untouched.
    delivered: AtomicU64,
    /// Transport-wide count of discarded responses (unknown or
    /// already-completed correlation ids).
    orphans: Arc<AtomicU64>,
}

impl Demux {
    pub(crate) fn new(orphans: Arc<AtomicU64>) -> Self {
        Self {
            pending: OrderedMutex::new(ranks::NET_DEMUX, HashMap::new()),
            delivered: AtomicU64::new(0),
            orphans,
        }
    }

    pub(crate) fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::SeqCst)
    }

    pub(crate) fn register(&self, corr: u64) -> Arc<CompletionCell> {
        let cell = Arc::new(CompletionCell::new());
        self.pending.lock().insert(corr, cell.clone());
        cell
    }

    /// Routes a response to its waiter. A correlation id that matches
    /// no in-flight request — never issued, already completed
    /// (duplicate), or abandoned by a timed-out waiter — is discarded
    /// and counted, never delivered to a different call.
    pub(crate) fn complete(&self, corr: u64, result: io::Result<Vec<u8>>) {
        let (cell, sole) = {
            let mut pending = self.pending.lock();
            let cell = pending.remove(&corr);
            (cell, pending.is_empty())
        };
        match cell {
            Some(cell) => {
                if result.is_ok() {
                    self.delivered.fetch_add(1, Ordering::SeqCst);
                }
                cell.fill(result, sole);
            }
            None => {
                self.orphans.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Fails every in-flight request (the connection died). Each cell
    /// learns whether it was alone in flight — the retry policy's
    /// safety condition.
    pub(crate) fn fail_all(&self, kind: io::ErrorKind, msg: &str) {
        let cells: Vec<_> = self.pending.lock().drain().map(|(_, cell)| cell).collect();
        let sole = cells.len() == 1;
        for cell in cells {
            cell.fill(Err(io::Error::new(kind, msg.to_string())), sole);
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
    /// Live worker threads, whatever the binding spawns plus the
    /// dispatch pool.
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
    /// path and the dispatch workers.
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
    /// The transport-wide dispatch pool's job queue (the pool spawns
    /// lazily with the first served endpoint).
    dispatch: OrderedMutex<Option<Arc<JobQueue<B::Sink>>>>,
    /// The event-loop threads every socket of this transport lives on.
    pub(crate) event_loop: Arc<EventLoop<B::Source>>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) state: B::State,
}

impl<B: Binding> Drop for Core<B> {
    fn drop(&mut self) {
        // Each loop thread exits on this wake, dropping its listeners
        // (releasing their ports), connections and service handles, and
        // each dispatch worker on the same flag. O(threads) however many
        // endpoints served.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.event_loop.wake_all();
        if let Some(queue) = self.dispatch.lock().as_ref() {
            queue.unwind();
        }
    }
}

impl<B: Binding> Core<B> {
    /// `loop_threads` is the event-loop thread budget.
    pub(crate) fn new(shared: Arc<Shared>, state: B::State, loop_threads: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_corr: AtomicU64::new(1),
            endpoints: OrderedMutex::new(ranks::NET_ENDPOINTS, HashMap::new()),
            dispatch: OrderedMutex::new(ranks::NET_DISPATCH_POOL, None),
            event_loop: EventLoop::new(shared.clone(), loop_threads, B::KIND),
            shared,
            state,
        })
    }

    /// The socket address an endpoint listens on, if it serves.
    pub(crate) fn listen_addr(&self, id: EndpointId) -> Option<SocketAddr> {
        self.endpoints.lock().get(&id).and_then(|e| e.addr)
    }

    fn dispatch_queue(&self) -> Arc<JobQueue<B::Sink>> {
        self.dispatch
            .lock()
            .get_or_insert_with(|| spawn_dispatch_pool(B::DISPATCH_WORKERS, B::KIND, &self.shared))
            .clone()
    }

    /// Puts one request on the wire: resolve the destination, refuse a
    /// down endpoint, mint the correlation id, encode the frame and
    /// hand it to the binding. `retry` marks the single
    /// stale-connection re-send (see [`Outgoing::retry`]).
    pub(crate) fn launch(
        self: &Arc<Self>,
        from: EndpointId,
        to: EndpointId,
        payload: Vec<u8>,
        retry: bool,
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
            to,
            addr,
            corr,
            frame,
            payload,
            retry,
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
    /// retransmissions separately).
    fn charge(&self, from: EndpointId, to: EndpointId, payload_out: u64, payload_in: Option<u64>) {
        let sent = payload_out + FRAME_HEADER_LEN as u64;
        let (back_msgs, back_bytes) = match payload_in {
            Some(n) => (1, n + FRAME_HEADER_LEN as u64),
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

    /// Folds one completed-call latency sample into `to`'s summary.
    fn note_latency(&self, to: EndpointId, sample_us: u64) {
        let mut endpoints = self.endpoints.lock();
        if let Some(ep) = endpoints.get_mut(&to) {
            ep.latency.observe(sample_us);
        }
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
    pub(crate) to: EndpointId,
    pub(crate) addr: SocketAddr,
    pub(crate) corr: u64,
    /// The encoded request frame.
    pub(crate) frame: Vec<u8>,
    /// The raw payload, for bindings that keep a retry copy.
    pub(crate) payload: Vec<u8>,
    /// This is the single re-send of a call whose pooled connection
    /// proved stale: the binding must bypass pooled state, and injected
    /// loss was already rolled for the call.
    pub(crate) retry: bool,
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
    /// Size of the transport-wide dispatch pool.
    const DISPATCH_WORKERS: usize;
    /// Handle-owned binding state (client socket, resumption cache, ...).
    type State: Send + Sync;
    /// What the binding places on the event loop.
    type Source: Source;
    /// Client-side state kept per destination in the endpoint book.
    type Conns: Default + Send;
    /// What one call in flight keeps beyond the core's cell.
    type Flight: Send;
    /// Where a served request's answer goes.
    type Sink: ReplySink;

    fn core(&self) -> &Arc<Core<Self>>;

    /// Binds a listener for a served endpoint and places it on the
    /// event loop, feeding its decoded request frames to
    /// [`Served::admit`]; returns the address callers dial.
    fn serve(core: &Core<Self>, served: Served<Self::Sink>) -> SocketAddr;

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
    /// the connection-level error and whether the request was alone in
    /// flight, or `None` when the deadline passed (the core already
    /// abandoned the correlation slot). The binding charges the request
    /// bytes if they were spent and may re-[`Core::launch`] the call.
    fn failed(
        call: SocketPending<Self>,
        failure: Option<(io::Error, bool)>,
    ) -> Result<Transfer, NetError>;

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
            Some(CellDone {
                result: Ok(response),
                ..
            }) => {
                let received = Some(response.len() as u64);
                self.core
                    .charge(self.from, self.to, self.bytes_sent, received);
                let latency_us = self.t0.elapsed().as_micros() as u64;
                self.core.note_latency(self.to, latency_us);
                Ok(Transfer {
                    latency_us,
                    bytes_sent: self.bytes_sent + FRAME_HEADER_LEN as u64,
                    bytes_received: response.len() as u64 + FRAME_HEADER_LEN as u64,
                    payload: response,
                })
            }
            Some(CellDone {
                result: Err(e),
                sole_in_flight,
            }) => B::failed(*self, Some((e, sole_in_flight))),
            None => {
                // Abandon the slot: a response past the deadline is
                // discarded as an orphan, never delivered to a future
                // call.
                self.sent.demux.forget(self.corr);
                B::failed(*self, None)
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
                dispatch: core.dispatch_queue(),
                shared: core.shared.clone(),
            },
        );
        if let Some(ep) = core.endpoints.lock().get_mut(&id) {
            ep.addr = Some(addr);
        }
    }

    fn submit(&self, from: EndpointId, to: EndpointId, payload: Vec<u8>) -> CallHandle {
        match self.core().launch(from, to, payload, false) {
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

/// What a [`Source`]'s per-turn sweep tells the loop.
pub(crate) enum Sweep {
    /// Drop the source (closing whatever it owns).
    Retire,
    /// Keep it; it needs nothing but readiness.
    Idle,
    /// Keep it, and turn the loop again no later than this instant.
    Due(Instant),
}

/// One thing an event-loop thread polls: a socket (or listener) and the
/// state behind it. Sources never migrate between loop threads; what a
/// source shares with callers or workers (a binding's choice) sits
/// behind that binding's own locks.
pub(crate) trait Source: Send + Sized + 'static {
    /// The poll interest for this turn; `None` keeps the fd out of the
    /// set entirely (nothing to wait for until the waker fires).
    fn interest(&self) -> Option<PollFd>;

    /// The fd registered by [`Source::interest`] reported `ready`.
    /// `el` places sockets this event creates (accepted connections).
    fn ready(&mut self, ready: PollFd, el: &Arc<EventLoop<Self>>);

    /// Runs once per loop turn, before the poll set is built: retire
    /// what finished or was killed from outside the loop, do whatever
    /// work is due at `now`, and name the next instant work falls due.
    fn sweep(&mut self, now: Instant) -> Sweep;
}

/// The cross-thread face of one event-loop thread: the queue other
/// threads hand it new sources through, plus the waker that pops its
/// `poll`.
pub(crate) struct Inbox<S> {
    adopt: OrderedMutex<Vec<S>>,
    pub(crate) waker: Waker,
}

impl<S> Inbox<S> {
    pub(crate) fn push(&self, source: S) {
        self.adopt.lock().push(source);
        self.waker.wake();
    }
}

/// The event loop, written once for both bindings: a fixed pool of
/// threads, each multiplexing the sources placed on it with `poll(2)`.
/// One turn is *shutdown check → adopt the inbox → sweep → poll →
/// drain the waker → dispatch what is ready*; the poll timeout is the
/// earliest [`Sweep::Due`] and infinite without one, so a loop with
/// nothing due does not tick. Threads spawn lazily with the first
/// placed source and exit on the first wakeup after
/// [`Shared::shutdown`] is set, dropping every source they own.
pub(crate) struct EventLoop<S: Source> {
    inboxes: Vec<Arc<Inbox<S>>>,
    next: AtomicUsize,
    spawned: OrderedMutex<bool>,
    kind: &'static str,
    shared: Arc<Shared>,
    /// Loop turns taken so far, all threads together.
    #[cfg(test)]
    turns: AtomicU64,
}

impl<S: Source> EventLoop<S> {
    pub(crate) fn new(shared: Arc<Shared>, threads: usize, kind: &'static str) -> Arc<Self> {
        let inbox = |_| {
            Arc::new(Inbox {
                adopt: OrderedMutex::new(ranks::NET_REACTOR_CMDS, Vec::new()),
                waker: Waker::new().expect("create event-loop waker"),
            })
        };
        Arc::new(Self {
            inboxes: (0..threads).map(inbox).collect(),
            next: AtomicUsize::new(0),
            spawned: OrderedMutex::new(ranks::NET_REACTORS, false),
            kind,
            shared,
            #[cfg(test)]
            turns: AtomicU64::new(0),
        })
    }

    /// The event-loop thread budget.
    pub(crate) fn threads(&self) -> usize {
        self.inboxes.len()
    }

    #[cfg(test)]
    pub(crate) fn turns(&self) -> u64 {
        self.turns.load(Ordering::SeqCst)
    }

    /// Round-robin placement: the inbox of the thread that will own the
    /// next source (sources never migrate). Spawns the pool on first
    /// use.
    pub(crate) fn pick(self: &Arc<Self>) -> &Arc<Inbox<S>> {
        let mut spawned = self.spawned.lock();
        if !*spawned {
            *spawned = true;
            for idx in 0..self.inboxes.len() {
                let guard = ThreadGuard::enter(&self.shared.threads);
                let el = self.clone();
                thread::Builder::new()
                    .name(format!("ofl-{}-loop-{idx}", self.kind))
                    .spawn(move || {
                        let _guard = guard;
                        el.run(idx);
                    })
                    .expect("spawn event loop");
            }
        }
        drop(spawned);
        &self.inboxes[self.next.fetch_add(1, Ordering::Relaxed) % self.inboxes.len()]
    }

    /// Wakes every thread so each observes the shutdown flag now.
    fn wake_all(&self) {
        for inbox in &self.inboxes {
            inbox.waker.wake();
        }
    }

    fn run(self: Arc<Self>, idx: usize) {
        let inbox = &self.inboxes[idx];
        let mut sources: Vec<S> = Vec::new();
        let mut fds: Vec<PollFd> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            sources.append(&mut inbox.adopt.lock());
            let now = Instant::now();
            let mut due: Option<Instant> = None;
            sources.retain_mut(|source| match source.sweep(now) {
                Sweep::Retire => false,
                Sweep::Idle => true,
                Sweep::Due(at) => {
                    due = Some(due.map_or(at, |d| d.min(at)));
                    true
                }
            });
            // Slot 0 is the waker, slot i + 1 source i; `poll` skips
            // the negative fd of a source with no interest.
            fds.clear();
            fds.push(PollFd::new(inbox.waker.rx_fd(), POLLIN));
            fds.extend(sources.iter().map(|source| {
                let idle = PollFd::new(-1, 0);
                source.interest().unwrap_or(idle)
            }));
            // `poll` counts whole milliseconds: round a deadline up so
            // the turn it buys finds its work due.
            let timeout_ms = due.map_or(-1, |at| {
                let wait = at.saturating_duration_since(Instant::now());
                wait.as_micros().div_ceil(1_000).min(i32::MAX as u128) as i32
            });
            if poll_fds(&mut fds, timeout_ms).is_err() {
                // EBADF/ENOMEM-class failure: back off instead of
                // spinning.
                thread::sleep(Duration::from_millis(1));
                continue;
            }
            #[cfg(test)]
            self.turns.fetch_add(1, Ordering::SeqCst);
            if fds[0].readable() {
                inbox.waker.drain();
            }
            for (source, fd) in sources.iter_mut().zip(&fds[1..]) {
                if fd.revents != 0 {
                    source.ready(*fd, &self);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Server-side dispatch.
// ---------------------------------------------------------------------

/// Where a served request's answer goes: the binding's way back to the
/// requester.
pub(crate) trait ReplySink: Send + 'static {
    /// Delivers the response to request `corr`. `None` means the
    /// service panicked on it; what that costs the requester (its
    /// connection, or only this call) is the binding's choice.
    fn reply(self, corr: u64, response: Option<Vec<u8>>);
}

/// One decoded request frame on its way to a dispatch worker.
pub(crate) struct ServeJob<S> {
    from: u64,
    corr: u64,
    payload: Vec<u8>,
    /// Carried per job (not per worker) because the pool is
    /// transport-wide: idle workers pin no service alive.
    service: Arc<dyn WireService>,
    /// The endpoint's admission book and this request's principal key
    /// (present when an overload policy classified it). The worker
    /// releases the slot right after execution — on every path,
    /// including service panics and vanished requesters — so nothing
    /// can leak slots and wedge the endpoint.
    gauge: Arc<DispatchGauge>,
    admit_key: Option<u64>,
    sink: S,
}

/// The dispatch pool's job queue: one queue behind one condvar, so a
/// queued job wakes exactly one idle worker (a channel behind a mutex
/// also wakes the next worker in line as the mutex passes on).
struct JobQueue<S> {
    jobs: OrderedMutex<VecDeque<ServeJob<S>>>,
    ready: OrderedCondvar,
    shared: Arc<Shared>,
}

impl<S> JobQueue<S> {
    /// Queues a job for the next idle worker; `false` once the
    /// transport is unwinding.
    fn push(&self, job: ServeJob<S>) -> bool {
        {
            let mut jobs = self.jobs.lock();
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            jobs.push_back(job);
        }
        self.ready.notify_one();
        true
    }

    /// Blocks for the next job; `None` once the transport unwinds.
    fn pop(&self) -> Option<ServeJob<S>> {
        let mut jobs = self.jobs.lock();
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            jobs = self.ready.wait(jobs);
        }
    }

    /// Wakes every worker to observe [`Shared::shutdown`], already set:
    /// taking the lock first means none is between its check and its
    /// wait.
    fn unwind(&self) {
        drop(self.jobs.lock());
        self.ready.notify_all();
    }
}

/// Spawns the transport-wide dispatch pool: `workers` threads pull
/// decoded frames from every served endpoint and invoke the owning
/// service concurrently (its `Send + Sync` contract makes that legal;
/// see [`WireService`]), answering through each job's sink in
/// completion order. A fixed transport-wide pool — not per endpoint —
/// keeps the thread ceiling constant however many endpoints serve. The
/// pool unwinds on [`Shared::shutdown`], like the loops.
fn spawn_dispatch_pool<S: ReplySink>(
    workers: usize,
    kind: &str,
    shared: &Arc<Shared>,
) -> Arc<JobQueue<S>> {
    let queue = Arc::new(JobQueue::<S> {
        jobs: OrderedMutex::new(ranks::NET_DISPATCH_QUEUE, VecDeque::new()),
        ready: OrderedCondvar::new(),
        shared: shared.clone(),
    });
    for worker in 0..workers {
        let guard = ThreadGuard::enter(&shared.threads);
        let queue = queue.clone();
        thread::Builder::new()
            .name(format!("ofl-{kind}-disp-{worker}"))
            .spawn(move || {
                let _guard = guard;
                while let Some(job) = queue.pop() {
                    // Contain panics: a panicking service must never
                    // cost a shared dispatch worker.
                    let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        job.service.handle(EndpointId(job.from), &job.payload)
                    }))
                    .ok();
                    // Release the admission slot before anything can
                    // skip the result (dead connection, panic): the
                    // endpoint-wide depth must drain even when the
                    // requester is gone.
                    job.gauge.release(job.admit_key);
                    job.sink.reply(job.corr, response);
                }
            })
            .expect("spawn dispatch worker");
    }
    queue
}

/// Everything a binding's serve path needs to know about the endpoint
/// it serves.
pub(crate) struct Served<S> {
    /// The served endpoint id: the response frames' sender.
    pub(crate) me: u64,
    /// When set, the binding refuses requests the way a crashed
    /// process does (cut the stream, drop the datagram).
    pub(crate) down: Arc<AtomicBool>,
    service: Arc<dyn WireService>,
    gauge: Arc<DispatchGauge>,
    dispatch: Arc<JobQueue<S>>,
    shared: Arc<Shared>,
}

impl<S: ReplySink> Served<S> {
    /// The admit-or-shed step every decode path runs on a request
    /// frame: dispatch it, or — when the endpoint's overload policy
    /// says so — answer with the policy's busy payload straight
    /// through the sink. A shed request never reaches the dispatch
    /// pool and is **not** executed, which is what makes client
    /// retries safe. Returns `false` when the pool is gone (the
    /// transport is unwinding).
    pub(crate) fn admit(&self, frame: Frame, sink: S) -> bool {
        match self.gauge.admit(&frame.payload) {
            Ok(admit_key) => self.dispatch.push(ServeJob {
                from: frame.sender,
                corr: frame.correlation,
                payload: frame.payload,
                service: self.service.clone(),
                gauge: self.gauge.clone(),
                admit_key,
                sink,
            }),
            Err(busy) => {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                sink.reply(frame.correlation, Some(busy));
                true
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
        assert_eq!(done.result.unwrap(), vec![1]);
        assert!(done.sole_in_flight, "it was alone in the demux");
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

    /// Reports what the loop does to it. `sock`, when present, is its
    /// poll interest (drained on readiness); `due` is a deadline its
    /// sweep names until it fires.
    struct Fake {
        sock: Option<std::net::UdpSocket>,
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
                sock: Some(sock),
                due: None,
                retire_on_ready: false,
                retire: false,
                tx: tx.clone(),
            };
            (fake, addr)
        }
    }

    impl Source for Fake {
        fn interest(&self) -> Option<PollFd> {
            use std::os::fd::AsRawFd;
            let sock = self.sock.as_ref()?;
            Some(PollFd::new(sock.as_raw_fd(), POLLIN))
        }

        fn ready(&mut self, _ready: PollFd, _el: &Arc<EventLoop<Self>>) {
            let sock = self.sock.as_ref().unwrap();
            while sock.recv(&mut [0u8; 8]).is_ok() {}
            self.retire = self.retire_on_ready;
            let _ = self.tx.send(Ev::Ready);
        }

        fn sweep(&mut self, now: Instant) -> Sweep {
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
        EventLoop::new(Shared::new(StdRng::seed_from_u64(1)), 1, "test")
    }

    /// What `Core::drop` does, then waits for the loop thread to go.
    fn stop(el: &EventLoop<Fake>) {
        el.shared.shutdown.store(true, Ordering::SeqCst);
        el.wake_all();
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
        let t0 = Instant::now();
        el.pick().push(Fake {
            sock: None,
            due: Some(t0 + Duration::from_millis(40)),
            retire_on_ready: false,
            retire: false,
            tx,
        });
        assert!(matches!(rx.recv_timeout(PATIENCE), Ok(Ev::Fired)));
        assert!(t0.elapsed() >= Duration::from_millis(40), "fired early");
        // It slept to the deadline instead of spinning toward it: the
        // adoption wake, the timed-out poll, nothing else.
        assert!(el.turns() <= 3, "{} turns to one deadline", el.turns());
        stop(&el);
    }

    #[test]
    fn event_loop_retired_source_leaves_the_poll_set() {
        let el = fake_loop();
        let (tx, rx) = mpsc::channel();
        let (mut fake, addr) = Fake::with_socket(&tx);
        fake.retire_on_ready = true;
        el.pick().push(fake);
        let poke = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        poke.send_to(&[1], addr).unwrap();
        assert!(matches!(rx.recv_timeout(PATIENCE), Ok(Ev::Ready)));
        assert!(matches!(rx.recv_timeout(PATIENCE), Ok(Ev::Dropped)));
        // Retired means gone: with its fd out of the set (and closed)
        // the loop has nothing to wake for, whatever arrives there.
        let turns = el.turns();
        let _ = poke.send_to(&[1], addr);
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(el.turns(), turns);
        stop(&el);
    }

    #[test]
    fn event_loop_adopts_sources_pushed_from_another_thread() {
        let el = fake_loop();
        let (tx, rx) = mpsc::channel();
        let (fake, addr) = Fake::with_socket(&tx);
        let remote = el.clone();
        thread::spawn(move || remote.pick().push(fake))
            .join()
            .unwrap();
        std::net::UdpSocket::bind("127.0.0.1:0")
            .unwrap()
            .send_to(&[1], addr)
            .unwrap();
        assert!(matches!(rx.recv_timeout(PATIENCE), Ok(Ev::Ready)));
        stop(&el);
        // The exiting loop dropped what it had adopted.
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

    /// `Core::drop` is one wake per loop thread, and that wake unwinds
    /// everything: the loops are parked in a `poll` with no timeout, so
    /// nothing else could.
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
        let mut turns = el.turns();
        loop {
            thread::sleep(Duration::from_millis(100));
            if el.turns() == turns {
                break;
            }
            turns = el.turns();
            assert!(t0.elapsed() < PATIENCE, "{kind}: never quiesced");
        }
        thread::sleep(Duration::from_millis(300));
        assert_eq!(el.turns(), turns, "{kind}: an idle transport ticked");
    }

    /// A warm tcp call costs the loop one turn — the served side's read:
    /// the caller writes and reads its own socket, the answering worker
    /// writes its reply, and nothing else passes through a loop.
    #[test]
    fn a_warm_tcp_call_is_one_loop_turn() {
        let transport = TcpTransport::new(7);
        let (client, server) = echo_pair(&transport);
        transport.call(client, server, vec![0]).unwrap();
        // Let the dial's and the accept's own turns pass.
        thread::sleep(Duration::from_millis(50));
        let el = &transport.core().event_loop;
        let before = el.turns();
        for i in 0..200u8 {
            transport.call(client, server, vec![i]).unwrap();
        }
        let sequential = el.turns() - before;
        assert!(
            sequential <= 200,
            "200 warm calls took {sequential} loop turns"
        );
        let before = el.turns();
        let handles: Vec<CallHandle> = (0..8u8)
            .map(|i| transport.submit(client, server, vec![i]))
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let fanned = el.turns() - before;
        assert!(fanned <= 8, "an 8-way fan-out took {fanned} loop turns");
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
    /// binding's choice (`died`) — releases its admission slot, and
    /// leaves the endpoint answering.
    fn panicking_service_costs_only_its_caller<T: Transport + Binding>(
        transport: T,
        died: fn(&NetError) -> bool,
    ) {
        let kind = transport.kind();
        let server = transport.register("panicky", None);
        // payload[0] == 1 makes the service panic.
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
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
