//! The stream binding: multiplexed, pipelined envelopes over loopback
//! TCP. Listeners and served connections are sources on the core's
//! event loop; a client connection belongs to the calls that use it.
//!
//! [`TcpTransport`] is the socket core (`crate::core`) bound to
//! `std::net` streams, proving the whole federated stack — DNS
//! discovery, batched sessions, map servers — runs end to end over
//! actual sockets, not just the simulator. What a call *is*
//! (correlation, completion, charging, admission, dispatch) lives in
//! the core; this module owns only what is stream-specific:
//!
//! - **Served sockets on the loop**: listeners and accepted
//!   connections are sources on the core's event loop (`crate::core`;
//!   spec Appendix A), with `min(cores, 8)` waiters. `Entry`'s `Source`
//!   impl accepts, registering each connection straight into the set,
//!   reads requests off served connections through the incremental
//!   framing-v2 decoder ([`openflame_codec::framing::FrameDecoder`]),
//!   and finishes the replies a socket would not take at once. A warm
//!   call costs the served side's one event.
//! - **Served endpoints**: the thread that read a request runs it and
//!   writes its reply frame when nothing is ahead of it on the
//!   connection, else queues it for the loop — replies leave in
//!   **completion order**, so a slow request never blocks the
//!   pipelined requests behind it. Past `SERVE_PIPELINE` admitted
//!   requests a connection stops watching for readability until
//!   replies drain, and the reply that reopens the gate nudges it to
//!   admit what it buffered. Shed replies ([`crate::OverloadPolicy`])
//!   take the same path.
//! - **Client connections**: one connection per caller endpoint and
//!   destination — the connection one host holds to another — booked
//!   in the endpoint book, carries every request that caller makes to
//!   it at once; out-of-order completion is matched by correlation id.
//!   Calls from different endpoints never share a socket. It is dialled
//!   with a bounded blocking connect under the book's lock, so racing
//!   first calls from one caller share one dial, and it is never a
//!   source: the submitter writes its whole frame under the
//!   connection's write lock (polling for writability against the
//!   call's deadline), and the blocking waiter holding the
//!   connection's *reader token* reads every response — it polls the
//!   one socket until its own answer lands, completes every other
//!   answer it reads on the way (the caller's other threads'), then
//!   hands the turn to the calls still waiting
//!   (`crate::core::Binding::drive`). The socket closes when the book
//!   and the last call on it let go. A scatter over 64 servers reuses
//!   the same 64 warm connections round after round.
//! - **Failure semantics** mirror the simulator: a down endpoint
//!   fails with [`NetError::EndpointDown`] and its server side cuts
//!   the connection instead of answering; message drops are injected
//!   per call, before the socket, and surface as
//!   [`NetError::Timeout`] having charged nothing. A request whose
//!   frame reached the socket is never sent again, whatever happens
//!   to its connection: only a frame none of whose bytes were written
//!   is re-routed, once, onto a fresh dial.
//!
//! Clocks are wall-clock microseconds since transport creation, so the
//! TTL caches built on [`Transport::now_us`] age in real time. Raw
//! sockets poking a listener from outside this transport are served
//! but not counted. [`Transport::worker_threads`] is the waiters plus
//! [`DISPATCH_POOL`], nothing per connection, endpoint or call —
//! the pipelining stress test pins it at 128 servers × 8 sessions. This
//! backend is built for tests, benches and single-process demos, not
//! as a hardened production server.

use crate::core::{
    encode_frame, Binding, CompletionCell, Core, Demux, EventLoop, Handle, Jobs, Outgoing,
    ReplySink, Sent, Served, Shared, SocketPending, Source, Sweep,
};
use crate::reactor::{poll_fds, PollFd, Ready, EPOLLIN, EPOLLOUT, POLLIN, POLLOUT};
use crate::transport::Transport;
use crate::{EndpointId, NetError};
use openflame_codec::framing::FrameDecoder;
use openflame_diag::{ranks, OrderedMutex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Pool threads beyond the waiters, for the whole transport: with
/// them, requests from every served connection of every endpoint run
/// while the waiters keep reading. A fixed transport-wide pool (not per
/// endpoint) is what keeps the thread ceiling O(cores)-ish no matter
/// how many endpoints serve.
pub const DISPATCH_POOL: usize = 8;

/// Decoded requests one server connection may hold at once (queued,
/// executing, or awaiting its response write) before the loop drops
/// the connection's read interest — backpressure expressed as
/// readiness-deregistration instead of a blocked reader thread.
pub(crate) const SERVE_PIPELINE: usize = 32;

/// Hard cap on the waiters (the default is
/// `min(available cores, MAX_REACTORS)`).
pub(crate) const MAX_REACTORS: usize = 8;

// ---------------------------------------------------------------------
// Client connections.
// ---------------------------------------------------------------------

/// One booked, pipelined client connection, shared by `Arc` between
/// the endpoint book and the calls in flight on it: its submitters
/// write their own frames, and its waiters' reader-token holder reads
/// every response.
pub(crate) struct ClientConn {
    stream: TcpStream,
    demux: Arc<Demux>,
    /// Set when the connection dies or stalls past a deadline: the
    /// next checkout books a fresh dial instead, a writer that finds
    /// it set under the write lock re-routes its untouched frame, and
    /// the socket is shut once no call waits on it.
    broken: AtomicBool,
    /// The write lock: one submitter writes its whole frame at a time.
    out: OrderedMutex<()>,
    /// The reader token: set while one waiter reads the socket.
    reader: AtomicBool,
    /// The response decoder, the reader-token holder's alone.
    rx: OrderedMutex<FrameDecoder>,
    /// The event loop's test counters.
    #[cfg(test)]
    counts: Arc<[std::sync::atomic::AtomicU64; 5]>,
}

impl ClientConn {
    /// Writes the frame of request `corr` whole, polling for
    /// writability until `deadline` when the socket would block. Hands
    /// the frame back when the connection was already broken under the
    /// write lock — none of it was written, so the caller may re-route
    /// it. A write that fails or stalls part-way kills the connection,
    /// which fails the call through its cell.
    fn write(&self, corr: u64, buf: Vec<u8>, deadline: Instant) -> Result<(), Vec<u8>> {
        let _out = self.out.lock();
        if self.broken.load(Ordering::SeqCst) {
            return Err(buf);
        }
        // The frame is going onto the socket now: even if the write (or
        // the whole call) fails from here on, its request bytes count
        // as wire traffic.
        self.demux.mark_sent(corr);
        let mut off = 0;
        let failure = loop {
            match write_some(&self.stream, &buf, &mut off) {
                Ok(true) => return Ok(()),
                Ok(false) if self.poll_until(POLLOUT, deadline) => {}
                Ok(false) => break io::Error::new(io::ErrorKind::TimedOut, "write timed out"),
                Err(e) => break e,
            }
        };
        self.die(
            failure.kind(),
            &format!("connection writer failed: {failure}"),
        );
        Ok(())
    }

    /// Polls the socket for `events` until `deadline`; `false` once it
    /// has passed.
    fn poll_until(&self, events: i16, deadline: Instant) -> bool {
        // `poll` counts whole milliseconds: round up, so the wait it
        // buys reaches the deadline.
        let wait = deadline.saturating_duration_since(Instant::now());
        let ms = wait.as_micros().div_ceil(1_000).min(i32::MAX as u128) as i32;
        let mut fd = [PollFd {
            fd: self.stream.as_raw_fd(),
            events,
            revents: 0,
        }];
        ms > 0 && poll_fds(&mut fd, ms).is_ok()
    }

    /// The reader-token holder's loop: reads responses and completes
    /// them by correlation id — other callers' as much as its own —
    /// until `cell` is filled or `deadline` passes, polling this one
    /// socket in between. A read error kills the connection, failing
    /// every call on it.
    fn read_until(&self, cell: &CompletionCell, deadline: Instant) {
        let mut decoder = self.rx.lock();
        let mut buf = [0u8; 16 * 1024];
        while !cell.is_done() {
            let failure = match (&self.stream).read(&mut buf) {
                Ok(0) => io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed by peer"),
                Ok(n) => {
                    decoder.extend(&buf[..n]);
                    match self.drain_responses(&mut decoder, cell) {
                        Ok(()) => continue,
                        Err(e) => e,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !self.poll_until(POLLIN, deadline) {
                        return;
                    }
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => e,
            };
            return self.die(failure.kind(), &failure.to_string());
        }
    }

    /// Completes every whole response frame the decoder holds; `own`
    /// is the reader's cell (tests count the answers it fills for
    /// other calls).
    #[cfg_attr(not(test), allow(unused_variables))]
    fn drain_responses(&self, decoder: &mut FrameDecoder, own: &CompletionCell) -> io::Result<()> {
        while let Some(frame) = decoder.next_frame()? {
            let filled = self.demux.complete(frame.correlation, Ok(frame.payload));
            #[cfg(test)]
            if filled.is_some_and(|cell| !std::ptr::eq(&*cell, own)) {
                self.counts[crate::core::FOREIGN].fetch_add(1, Ordering::SeqCst);
            }
        }
        Ok(())
    }

    /// Shuts a broken connection once no call waits on it: nothing
    /// will be written to it or read from it again.
    fn close_if_drained(&self) {
        if self.broken.load(Ordering::SeqCst) && self.demux.in_flight() == 0 {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }

    /// Kills the connection: refuse further writes, shut the socket —
    /// which wakes a reader or writer polling it, so nothing waits out
    /// its deadline on a dead socket — and fail every in-flight
    /// request.
    fn die(&self, kind: io::ErrorKind, msg: &str) {
        self.broken.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
        // Registered frames a writer had not started fail alongside the
        // written ones (their cells carry `sent == false`, so they
        // charge nothing).
        self.demux.fail_all(kind, msg);
    }
}

// ---------------------------------------------------------------------
// The transport handle and its binding.
// ---------------------------------------------------------------------

type TcpServed = Arc<Served>;

/// [`Transport`] over real loopback TCP sockets (see module docs).
///
/// Cheap to clone (shared handle), and usually passed around as
/// `Arc<dyn Transport>` via [`TcpTransport::shared`].
#[derive(Clone)]
pub struct TcpTransport {
    inner: Arc<Core<TcpTransport>>,
}

impl TcpTransport {
    /// Creates a transport with the default waiter count
    /// (`min(cores, MAX_REACTORS)`). `seed` drives the drop-injection
    /// RNG.
    pub fn new(seed: u64) -> Self {
        Self::with_reactors(seed, thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Creates a transport with an explicit waiter count (clamped to
    /// `1..=MAX_REACTORS`).
    pub(crate) fn with_reactors(seed: u64, reactors: usize) -> Self {
        let shared = Shared::new(StdRng::seed_from_u64(seed));
        Self {
            inner: Core::new(shared, (), reactors.clamp(1, MAX_REACTORS)),
        }
    }

    /// Creates a transport as a shared `Arc<dyn Transport>`.
    pub fn shared(seed: u64) -> Arc<dyn Transport> {
        Arc::new(Self::new(seed))
    }

    /// The socket address an endpoint listens on, if it serves.
    pub fn listen_addr(&self, id: EndpointId) -> Option<SocketAddr> {
        self.inner.listen_addr(id)
    }

    /// The most pool threads that wait for events at once.
    /// [`Transport::worker_threads`] is this plus [`DISPATCH_POOL`] —
    /// **not** a function of endpoints, connections, fan-out width or
    /// call volume; the pipelining stress test pins this down.
    pub fn reactor_threads(&self) -> usize {
        self.inner.event_loop.waiters()
    }

    /// Responses discarded because their correlation id matched no
    /// in-flight request (late responses after a timeout, duplicates).
    pub fn orphan_responses(&self) -> u64 {
        self.inner.shared.orphans.load(Ordering::Relaxed)
    }

    /// Connections booked toward `to`, one per caller (test hook).
    #[cfg(test)]
    fn pooled_conns(&self, to: EndpointId) -> usize {
        let endpoints = self.inner.endpoints.lock();
        endpoints.get(&to).map_or(0, |e| e.conns.len())
    }
}

impl Core<TcpTransport> {
    /// Dials `addr` with a blocking connect bounded by the call
    /// timeout. A dial that times out is a [`NetError::Timeout`], any
    /// other failure a [`NetError::Connection`]; neither charges
    /// anything.
    fn dial(&self, addr: SocketAddr) -> Result<Arc<ClientConn>, NetError> {
        let stream = TcpStream::connect_timeout(&addr, self.shared.timeout())
            .and_then(|stream| stream.set_nonblocking(true).map(|()| stream))
            .map_err(|e| match e.kind() {
                io::ErrorKind::TimedOut => NetError::Timeout,
                _ => NetError::Connection(format!("dial {addr}: {e}")),
            })?;
        let _ = stream.set_nodelay(true);
        #[cfg(test)]
        self.event_loop.counts[crate::core::DIALS].fetch_add(1, Ordering::SeqCst);
        Ok(Arc::new(ClientConn {
            stream,
            demux: Arc::new(Demux::new(self.shared.orphans.clone())),
            broken: AtomicBool::new(false),
            out: OrderedMutex::new(ranks::TCP_CONN_OUT, ()),
            reader: AtomicBool::new(false),
            rx: OrderedMutex::new(ranks::TCP_CONN_RX, FrameDecoder::new()),
            #[cfg(test)]
            counts: self.event_loop.counts.clone(),
        }))
    }

    /// The connection `out.from` booked toward `out.to`, or — when
    /// there is none or it broke — a fresh dial, booked before the
    /// endpoint book's lock is let go, so racing first calls from one
    /// caller share one dial.
    fn obtain_conn(&self, out: &Outgoing) -> Result<Arc<ClientConn>, NetError> {
        let (from, to) = (out.from, out.to);
        let mut endpoints = self.endpoints.lock();
        let ep = endpoints.get_mut(&to).ok_or(NetError::NoSuchEndpoint(to))?;
        match ep.conns.get(&from) {
            Some(conn) if !conn.broken.load(Ordering::SeqCst) => Ok(conn.clone()),
            _ => {
                let conn = self.dial(out.addr)?;
                ep.conns.insert(from, conn.clone());
                Ok(conn)
            }
        }
    }
}

impl Binding for TcpTransport {
    const KIND: &'static str = "tcp";
    const DISPATCH_WORKERS: usize = DISPATCH_POOL;
    type State = ();
    type Source = Entry;
    /// Booked per caller endpoint: each caller reads only its own socket.
    type Conns = HashMap<EndpointId, Arc<ClientConn>>;
    type Flight = Arc<ClientConn>;

    fn core(&self) -> &Arc<Core<Self>> {
        &self.inner
    }

    fn serve(core: &Core<Self>, served: Served) -> SocketAddr {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback listener");
        listener
            .set_nonblocking(true)
            .expect("non-blocking listener");
        let addr = listener.local_addr().expect("listener has an address");
        let handle = core.event_loop.handle(listener.as_raw_fd());
        core.event_loop
            .add(handle, Entry::Listener(listener, Arc::new(served)));
        addr
    }

    fn send(core: &Arc<Core<Self>>, mut out: Outgoing) -> Result<Sent<Self>, NetError> {
        if core.shared.roll_drop() {
            return Err(NetError::Timeout);
        }
        let deadline = Instant::now() + core.shared.timeout();
        let (corr, mut buf) = (out.corr, std::mem::take(&mut out.frame));
        for _ in 0..2 {
            let conn = core.obtain_conn(&out)?;
            let cell = conn.demux.register(corr);
            match conn.write(corr, buf, deadline) {
                Ok(()) => {
                    let demux = conn.demux.clone();
                    return Ok(Sent {
                        cell,
                        demux,
                        flight: conn,
                    });
                }
                // Broken before a byte was written (a sibling's timeout,
                // a cut): the frame may be re-routed; the next checkout
                // dials.
                Err(unsent) => {
                    conn.demux.forget(corr);
                    buf = unsent;
                }
            }
        }
        Err(NetError::Connection("connection closed before send".into()))
    }

    /// Reads the call's connection with its reader token, unless
    /// another waiter holds it (that one hands out the turn when it
    /// lets go).
    fn drive(sent: &Sent<Self>, deadline: Instant) {
        let conn = &sent.flight;
        if conn.reader.swap(true, Ordering::SeqCst) {
            return;
        }
        conn.read_until(&sent.cell, deadline);
        conn.reader.store(false, Ordering::SeqCst);
        conn.demux.pass_turn();
        conn.close_if_drained();
    }

    fn failed(call: SocketPending<Self>, failure: Option<io::Error>) -> NetError {
        // A written request costs wire whether or not the call
        // completes.
        if call.sent.cell.was_sent() {
            call.core.charge_tx(call.from, call.to, call.bytes_sent);
        }
        let Some(e) = failure else {
            // The connection swallowed a request past its deadline, so
            // stop booking it — the next submit dials fresh instead of
            // feeding a stalled server's tar pit (in-flight siblings
            // keep their cells; their last reader shuts the socket).
            call.sent.flight.broken.store(true, Ordering::SeqCst);
            call.sent.flight.close_if_drained();
            return NetError::Timeout;
        };
        if call.down.load(Ordering::Relaxed) {
            // The server cut the connection because it is down: to the
            // caller that is a dead endpoint, same as on the simulator.
            return NetError::EndpointDown(call.to);
        }
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => NetError::Timeout,
            _ => NetError::Connection(e.to_string()),
        }
    }

    fn cut(_core: &Core<Self>, _id: EndpointId, conns: Self::Conns) {
        // Cut every caller's booked connection now: in-flight requests
        // fail like they would on a crashed process, instead of riding
        // a socket whose server will never answer again.
        for conn in conns.into_values() {
            conn.die(io::ErrorKind::UnexpectedEof, "connection force-closed");
        }
    }
}

// ---------------------------------------------------------------------
// Served connections: completion-order replies.
// ---------------------------------------------------------------------

/// One computed response waiting behind an unfinished write.
/// `response` is `None` when the service panicked on this request —
/// the connection is cut there (crash semantics) instead of leaving
/// the caller to its timeout.
struct SrvDone {
    corr: u64,
    response: Option<Vec<u8>>,
}

/// A response frame part-way through its write.
struct WriteBuf {
    buf: Vec<u8>,
    off: usize,
}

/// A served connection's write side, in completion order.
#[derive(Default)]
struct SrvOut {
    /// The reply frame the socket has taken part of.
    cur: Option<WriteBuf>,
    /// Replies finished behind it.
    done: VecDeque<SrvDone>,
}

/// The half of a served connection its source shares with the threads
/// running its requests: the loop reads the socket, and whoever holds
/// `out` writes it — the thread that ran a request when nothing is
/// ahead of its reply, the loop for what the socket would not take at
/// once.
pub(crate) struct SrvShared {
    stream: TcpStream,
    /// The served endpoint: the reply frames' sender.
    me: EndpointId,
    out: OrderedMutex<SrvOut>,
    /// Requests admitted but not yet fully answered on the wire — the
    /// [`SERVE_PIPELINE`] gate's counter.
    in_dispatch: AtomicUsize,
    /// Set after EOF or a read error: stop reading, keep writing
    /// replies (a half-closed peer still receives every answer it
    /// pipelined).
    hung_up: AtomicBool,
    /// Set when the connection is torn down: late replies are dropped.
    dead: AtomicBool,
    handle: Arc<Handle>,
}

impl SrvShared {
    /// Writes queued replies in completion order until the queue
    /// empties (`Ok(true)`) or the socket would block (`Ok(false)`),
    /// freeing each written reply's gate slot. `Err` means cut the
    /// connection (write failure, panicked service, oversized
    /// response).
    fn pump_write(&self, out: &mut SrvOut) -> Result<bool, ()> {
        loop {
            if out.cur.is_none() {
                let buf = match out.done.pop_front() {
                    Some(SrvDone {
                        corr,
                        response: Some(response),
                    }) => encode_frame(self.me, corr, &response).map_err(drop)?,
                    Some(SrvDone { response: None, .. }) => return Err(()),
                    None => return Ok(true),
                };
                out.cur = Some(WriteBuf { buf, off: 0 });
            }
            let cur = out.cur.as_mut().expect("current write buffer");
            if !write_some(&self.stream, &cur.buf, &mut cur.off).map_err(drop)? {
                return Ok(false);
            }
            out.cur = None;
            // Frame delivered: release the gate slot it held since
            // admission. The reply that reopens a gated connection, or
            // drains one whose peer hung up, nudges its source: the
            // sweep admits what it had buffered, or retires it.
            let held = self.in_dispatch.fetch_sub(1, Ordering::SeqCst);
            if held == SERVE_PIPELINE || (held == 1 && self.hung_up.load(Ordering::SeqCst)) {
                self.handle.nudge();
            }
        }
    }

    /// Tears the connection down at once (malformed frame, down
    /// endpoint, service panic): no answer, no drain.
    fn cut(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl ReplySink for Arc<SrvShared> {
    /// Writes the reply from the answering thread when nothing is ahead
    /// of it on the connection; otherwise queues it behind the
    /// unfinished write, which the loop is already watching.
    fn reply(self, corr: u64, response: Option<Vec<u8>>) {
        if self.dead.load(Ordering::SeqCst) {
            return;
        }
        let mut out = self.out.lock();
        let idle = out.cur.is_none() && out.done.is_empty();
        out.done.push_back(SrvDone { corr, response });
        if !idle {
            return;
        }
        let written = self.pump_write(&mut out);
        drop(out);
        match written {
            Ok(true) => return,
            // The socket took part of it: the loop writes the rest.
            Ok(false) => {}
            // The loop retires the connection on the nudge.
            Err(()) => self.cut(),
        }
        self.handle.nudge();
    }
}

// ---------------------------------------------------------------------
// The sockets on the event loop.
// ---------------------------------------------------------------------

/// A server-side connection as the loop sees it.
pub(crate) struct ServedEntry {
    shared: Arc<SrvShared>,
    served: TcpServed,
    decoder: FrameDecoder,
}

pub(crate) enum Entry {
    /// A served endpoint's listener.
    Listener(TcpListener, TcpServed),
    Served(ServedEntry),
}

/// What the loop does for each socket: accept connections, read and
/// admit requests, and finish the replies the socket would not take at
/// once. The loop itself — and the registry, whose drop on shutdown
/// closes every listener and releases every service handle — is the
/// core's [`EventLoop`].
impl Source for Entry {
    type Sink = Arc<SrvShared>;

    /// 0 leaves the fd disarmed: dead, or a gated connection with
    /// nothing to write.
    fn interest(&self) -> u32 {
        let Entry::Served(s) = self else {
            return EPOLLIN;
        };
        let shared = &s.shared;
        if shared.dead.load(Ordering::SeqCst) {
            return 0;
        }
        let mut events = 0;
        if !shared.hung_up.load(Ordering::SeqCst)
            && shared.in_dispatch.load(Ordering::SeqCst) < SERVE_PIPELINE
        {
            // The readiness-deregistration backpressure gate: a
            // saturated connection simply stops watching for
            // readability.
            events |= EPOLLIN;
        }
        let out = shared.out.lock();
        if out.cur.is_some() || !out.done.is_empty() {
            events |= EPOLLOUT;
        }
        events
    }

    fn ready(&mut self, ready: Ready, el: &Arc<EventLoop<Self>>, jobs: &mut Jobs<Self>) {
        match self {
            Entry::Listener(listener, served) => handle_listener(listener, served, el),
            Entry::Served(s) => handle_served(s, ready, jobs),
        }
    }

    /// Retire sweep: a served connection is cut on a bad buffered
    /// frame, and once the peer hung up with every pipelined response
    /// delivered, and retired once dead. It also admits the frames it
    /// buffered while gated, in case a reply reopened the gate.
    /// Streams have no deadlines.
    fn sweep(&mut self, _now: Instant, jobs: &mut Jobs<Self>) -> Sweep {
        let Entry::Served(s) = self else {
            return Sweep::Idle;
        };
        if !s.shared.dead.load(Ordering::SeqCst)
            && (pump_served_decode(s, jobs).is_err()
                || (s.shared.hung_up.load(Ordering::SeqCst)
                    && s.shared.in_dispatch.load(Ordering::SeqCst) == 0))
        {
            s.shared.cut();
        }
        if s.shared.dead.load(Ordering::SeqCst) {
            Sweep::Retire
        } else {
            Sweep::Idle
        }
    }
}

/// Writes as much of `buf[*off..]` as the socket takes now. `Ok(true)`
/// means the buffer is fully written, `Ok(false)` that the socket
/// would block.
fn write_some(mut stream: &TcpStream, buf: &[u8], off: &mut usize) -> io::Result<bool> {
    while *off < buf.len() {
        match stream.write(&buf[*off..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "wrote zero bytes")),
            Ok(n) => *off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Accepts every pending connection, registering each straight into
/// the set.
fn handle_listener(listener: &TcpListener, served: &TcpServed, el: &Arc<EventLoop<Entry>>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let handle = el.handle(stream.as_raw_fd());
                let shared = Arc::new(SrvShared {
                    stream,
                    me: EndpointId(served.me),
                    out: OrderedMutex::new(ranks::TCP_SERVE_DONE, SrvOut::default()),
                    in_dispatch: AtomicUsize::new(0),
                    hung_up: AtomicBool::new(false),
                    dead: AtomicBool::new(false),
                    handle: handle.clone(),
                });
                el.add(
                    handle,
                    Entry::Served(ServedEntry {
                        shared,
                        served: served.clone(),
                        decoder: FrameDecoder::new(),
                    }),
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient accept failures (ECONNABORTED, fd pressure)
            // must not kill the endpoint for the rest of the process.
            Err(_) => break,
        }
    }
}

fn handle_served(s: &mut ServedEntry, ready: Ready, jobs: &mut Jobs<Entry>) {
    let open = !s.shared.hung_up.load(Ordering::SeqCst);
    if open && ready.readable() && pump_served_read(s, jobs).is_err() {
        return s.shared.cut();
    }
    if ready.writable() {
        let written = s.shared.pump_write(&mut s.shared.out.lock());
        // Written replies freed gate slots: frames buffered while the
        // connection was gated can be admitted now.
        if written.is_err() || pump_served_decode(s, jobs).is_err() {
            s.shared.cut();
        }
    }
}

/// Reads request bytes until the socket would block or the
/// [`SERVE_PIPELINE`] gate closes. `Err` means cut the connection.
fn pump_served_read(s: &mut ServedEntry, jobs: &mut Jobs<Entry>) -> Result<(), ()> {
    let mut buf = [0u8; 16 * 1024];
    while !s.shared.hung_up.load(Ordering::SeqCst)
        && s.shared.in_dispatch.load(Ordering::SeqCst) < SERVE_PIPELINE
    {
        match (&s.shared.stream).read(&mut buf) {
            Ok(n) if n > 0 => {
                s.decoder.extend(&buf[..n]);
                pump_served_decode(s, jobs)?;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // EOF, or a reset mid-stream: stop reading; responses still
            // admitted drain until their writes fail.
            _ => s.shared.hung_up.store(true, Ordering::SeqCst),
        }
    }
    Ok(())
}

/// Admits buffered frames while the gate has room. `Err` means cut the
/// connection (corrupt stream, down endpoint).
fn pump_served_decode(s: &mut ServedEntry, jobs: &mut Jobs<Entry>) -> Result<(), ()> {
    while s.shared.in_dispatch.load(Ordering::SeqCst) < SERVE_PIPELINE {
        match s.decoder.next_frame() {
            Ok(Some(frame)) => {
                if s.served.down.load(Ordering::Relaxed) {
                    // A dead server stops mid-conversation; the caller
                    // sees the connection die, exactly like a crashed
                    // process.
                    return Err(());
                }
                // Admitted or shed, the request holds a gate slot until
                // its reply is written — taken before admission, since a
                // shed reply is written before `admit` returns.
                s.shared.in_dispatch.fetch_add(1, Ordering::SeqCst);
                jobs.extend(s.served.admit(frame, s.shared.clone()));
            }
            Ok(None) => break,
            // A corrupt stream (bad version, oversized length) MUST be
            // cut without answering.
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{CallHandle, OverloadPolicy, PendingCall, Transport};
    use openflame_codec::framing::{read_frame, write_frame, FRAME_HEADER_LEN};
    use std::time::Duration;

    fn echo_transport() -> (TcpTransport, EndpointId, EndpointId) {
        let transport = TcpTransport::new(7);
        let server = transport.register("echo", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
        );
        let client = transport.register("client", None);
        (transport, client, server)
    }

    #[test]
    fn echo_round_trip_over_real_sockets() {
        let (transport, client, server) = echo_transport();
        let transfer = transport.call(client, server, vec![1, 2, 3]).unwrap();
        assert_eq!(transfer.payload, vec![1, 2, 3]);
        assert_eq!(transfer.bytes_sent, 3 + FRAME_HEADER_LEN as u64);
        let stats = transport.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 2 * (3 + FRAME_HEADER_LEN as u64));
    }

    #[test]
    fn connections_are_pooled_across_calls() {
        let (transport, client, server) = echo_transport();
        for i in 0..5u8 {
            transport.call(client, server, vec![i]).unwrap();
        }
        assert_eq!(
            transport.pooled_conns(server),
            1,
            "sequential calls must reuse one connection"
        );
        let ep = transport.endpoint_stats(server).unwrap();
        assert_eq!(ep.rx_msgs, 5);
    }

    #[test]
    fn racing_first_calls_share_one_dial() {
        let (transport, client, server) = echo_transport();
        let start = Arc::new(std::sync::Barrier::new(8));
        let callers: Vec<_> = (0..8u8)
            .map(|i| {
                let (transport, start) = (transport.clone(), start.clone());
                thread::spawn(move || {
                    start.wait();
                    transport.call(client, server, vec![i]).unwrap().payload
                })
            })
            .collect();
        for (i, caller) in callers.into_iter().enumerate() {
            assert_eq!(caller.join().unwrap(), [i as u8]);
        }
        let dials = transport.inner.event_loop.counts[crate::core::DIALS].load(Ordering::SeqCst);
        assert_eq!(dials, 1, "8 racing first calls dialed {dials} connections");
        assert_eq!(transport.pooled_conns(server), 1);
    }

    #[test]
    fn callers_keep_their_own_connections() {
        let (transport, client, server) = echo_transport();
        let other = transport.register("other", None);
        for i in 0..3u8 {
            transport.call(client, server, vec![i]).unwrap();
            transport.call(other, server, vec![i]).unwrap();
        }
        let dials = transport.inner.event_loop.count(crate::core::DIALS);
        assert_eq!(dials, 2, "two callers dialed {dials} connections");
        assert_eq!(transport.pooled_conns(server), 2);
    }

    #[test]
    fn a_caller_never_reads_another_callers_answer() {
        let (transport, client, server) = echo_transport();
        let other = transport.register("other", None);
        let start = Arc::new(std::sync::Barrier::new(2));
        let callers: Vec<_> = [client, other]
            .into_iter()
            .map(|from| {
                let (transport, start) = (transport.clone(), start.clone());
                thread::spawn(move || {
                    start.wait();
                    for i in 0..200u32 {
                        let payload = i.to_le_bytes().to_vec();
                        let answer = transport.call(from, server, payload.clone()).unwrap();
                        assert_eq!(answer.payload, payload);
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().unwrap();
        }
        let foreign = transport.inner.event_loop.count(crate::core::FOREIGN);
        assert_eq!(
            foreign, 0,
            "readers completed {foreign} answers of other calls"
        );
        assert_eq!(transport.orphan_responses(), 0);
    }

    #[test]
    fn parallel_fanout_answers_positionally() {
        let (transport, client, server) = echo_transport();
        let handles: Vec<CallHandle> = (0..8u8)
            .map(|i| transport.submit(client, server, vec![i]))
            .collect();
        for (i, result) in handles.into_iter().map(CallHandle::wait).enumerate() {
            assert_eq!(result.unwrap().payload, vec![i as u8]);
        }
        assert_eq!(transport.stats().messages, 16);
    }

    #[test]
    fn pipelined_submits_share_one_connection() {
        let (transport, client, server) = echo_transport();
        // Warm the pool so every pipelined submit reuses it.
        transport.call(client, server, vec![0]).unwrap();
        let mut set = Vec::new();
        for i in 0..16u8 {
            set.push(transport.submit(client, server, vec![i]));
        }
        for (i, result) in set.into_iter().map(CallHandle::wait).enumerate() {
            assert_eq!(result.unwrap().payload, vec![i as u8]);
        }
        assert_eq!(
            transport.pooled_conns(server),
            1,
            "16 in-flight requests fit one pipelined connection"
        );
        assert_eq!(transport.orphan_responses(), 0);
    }

    #[test]
    fn worker_threads_do_not_grow_with_call_volume() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![0]).unwrap();
        let after_first = transport.worker_threads();
        assert_eq!(
            after_first,
            transport.reactor_threads() + DISPATCH_POOL,
            "thread census is the reactor pool plus the dispatch pool"
        );
        for round in 0..10 {
            let mut set = Vec::new();
            for i in 0..8u8 {
                set.push(transport.submit(client, server, vec![round, i]));
            }
            for result in set.into_iter().map(CallHandle::wait) {
                result.unwrap();
            }
        }
        assert_eq!(
            transport.worker_threads(),
            after_first,
            "reused connections must not spawn per-call threads"
        );
    }

    #[test]
    fn worker_threads_are_bounded_by_reactor_pool_not_endpoints() {
        // The tentpole invariant in miniature: many served endpoints,
        // many connections, an explicit 2-reactor pool — thread count
        // is exactly reactors + dispatch workers.
        let transport = TcpTransport::with_reactors(11, 2);
        assert_eq!(transport.reactor_threads(), 2);
        let client = transport.register("client", None);
        let servers: Vec<EndpointId> = (0..12)
            .map(|i| {
                let id = transport.register(&format!("srv-{i}"), None);
                transport.set_service(
                    id,
                    Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
                );
                id
            })
            .collect();
        for round in 0..3u8 {
            let mut set = Vec::new();
            for id in &servers {
                set.push(transport.submit(client, *id, vec![round]));
            }
            for result in set.into_iter().map(CallHandle::wait) {
                result.unwrap();
            }
        }
        assert_eq!(
            transport.worker_threads(),
            2 + DISPATCH_POOL,
            "12 served endpoints x pooled connections must not add threads"
        );
    }

    #[test]
    fn slow_request_does_not_block_pipelined_fast_requests() {
        let transport = TcpTransport::new(7);
        let server = transport.register("mixed", None);
        // payload[0] == 1 marks a deliberately slow request.
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                if payload.first() == Some(&1) {
                    thread::sleep(Duration::from_millis(400));
                }
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        // Warm the pool so everything shares ONE pipelined connection.
        transport.call(client, server, vec![0]).unwrap();
        assert_eq!(transport.pooled_conns(server), 1);
        let t0 = Instant::now();
        let slow = transport.submit(client, server, vec![1]);
        let mut fast = Vec::new();
        for i in 0..8u8 {
            fast.push(transport.submit(client, server, vec![0, i]));
        }
        for (i, result) in fast.into_iter().map(CallHandle::wait).enumerate() {
            assert_eq!(result.unwrap().payload, vec![0, i as u8]);
        }
        let fast_elapsed = t0.elapsed();
        assert!(
            fast_elapsed < Duration::from_millis(300),
            "fast requests queued behind the slow one: {fast_elapsed:?}"
        );
        assert_eq!(slow.wait().unwrap().payload, vec![1]);
        assert!(t0.elapsed() >= Duration::from_millis(400));
        assert_eq!(
            transport.pooled_conns(server),
            1,
            "the whole out-of-order exchange rode one connection"
        );
        assert_eq!(transport.orphan_responses(), 0);
    }

    #[test]
    fn overcommitted_pipelines_drain_through_bounded_dispatch() {
        // More in-flight requests per connection than SERVE_PIPELINE:
        // the server-side gate must throttle the reader (backpressure),
        // not deadlock, drop, or reorder-by-correlation incorrectly.
        let (transport, client, server) = echo_transport();
        let mut set = Vec::new();
        for i in 0..200u32 {
            set.push(transport.submit(client, server, i.to_le_bytes().to_vec()));
        }
        for (i, result) in set.into_iter().map(CallHandle::wait).enumerate() {
            assert_eq!(result.unwrap().payload, (i as u32).to_le_bytes().to_vec());
        }
        assert_eq!(transport.pooled_conns(server), 1);
        assert_eq!(transport.orphan_responses(), 0);
        assert_eq!(transport.stats().messages, 400);
    }

    #[test]
    fn service_panic_cuts_connection_not_dispatch_pool() {
        let transport = TcpTransport::new(7);
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
        transport.call(client, server, vec![0]).unwrap();
        // The panicking request costs its connection (crash semantics,
        // not a silent stall to the timeout)...
        let err = transport.call(client, server, vec![1]).unwrap_err();
        assert!(
            matches!(err, NetError::Connection(_)),
            "expected connection death, got {err:?}"
        );
        // ...but the dispatch pool survives: the endpoint keeps
        // serving later requests.
        assert_eq!(
            transport.call(client, server, vec![2]).unwrap().payload,
            [2],
            "dispatch workers must outlive a panicking request"
        );
    }

    #[test]
    fn half_closing_peer_still_receives_pipelined_responses() {
        // A protocol-conformant client may pipeline requests, close its
        // write side, and keep reading: responses still in dispatch
        // must drain, not die with the reader.
        let (transport, _client, server) = echo_transport();
        let addr = transport.listen_addr(server).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        for corr in [1u64, 2, 3] {
            write_frame(&mut stream, 99, corr, &[corr as u8]).unwrap();
        }
        stream.shutdown(Shutdown::Write).unwrap();
        let mut seen: Vec<u64> = (0..3)
            .map(|_| {
                let frame = read_frame(&mut stream).expect("response survives half-close");
                assert_eq!(frame.payload, vec![frame.correlation as u8]);
                frame.correlation
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn stale_frame_version_cuts_server_connection() {
        let (transport, _client, server) = echo_transport();
        let addr = transport.listen_addr(server).unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        // A v1-era frame (no version byte): the server must refuse to
        // parse it and cut the connection rather than desynchronize.
        use std::io::{Read, Write};
        let mut v1 = Vec::new();
        v1.extend_from_slice(&3u32.to_le_bytes());
        v1.extend_from_slice(&7u64.to_le_bytes());
        v1.extend_from_slice(b"abc");
        raw.write_all(&v1).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buf = [0u8; 16];
        // Connection cut: EOF (0 bytes) or reset.
        if let Ok(n) = raw.read(&mut buf) {
            assert_eq!(n, 0, "server must not answer a bad-version frame");
        }
    }

    #[test]
    fn timed_out_connection_is_pruned_not_repooled() {
        let transport = TcpTransport::new(7);
        let server = transport.register("stall", None);
        let stalling = Arc::new(AtomicBool::new(true));
        let gate = stalling.clone();
        transport.set_service(
            server,
            Arc::new(move |_from: EndpointId, payload: &[u8]| {
                if gate.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(400));
                }
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        transport.set_timeout_us(60_000);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::Timeout)
        ));
        // The stalled connection's dispatch slot is still busy
        // sleeping; if the pool handed the connection out again the
        // next call would queue behind the stall and time out too. It
        // must dial fresh and answer within the budget instead.
        stalling.store(false, Ordering::SeqCst);
        assert_eq!(
            transport.call(client, server, vec![2]).unwrap().payload,
            [2],
            "post-timeout call must not be fed to the stalled connection"
        );
        // The stalled connection was pruned, so its reactor tore the
        // socket down; the stalled request's eventual response dies
        // with the connection instead of being delivered anywhere. The
        // timed-out call still charged its *request* (the frame was
        // written); only the response that never arrived goes
        // uncounted.
        thread::sleep(Duration::from_millis(450));
        assert_eq!(
            transport.stats().messages,
            3,
            "timed-out request + the good call's two messages"
        );
    }

    #[test]
    fn timed_out_call_charges_its_written_request_bytes() {
        let transport = TcpTransport::new(7);
        let server = transport.register("stall", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(300));
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        transport.set_timeout_us(50_000);
        let err = transport
            .call(client, server, vec![1, 2, 3, 4])
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout));
        // The request frame hit the wire before the timeout: its bytes
        // are accounted on both endpoints, the never-received response
        // is not.
        let stats = transport.stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, 4 + FRAME_HEADER_LEN as u64);
        let c = transport.endpoint_stats(client).unwrap();
        assert_eq!((c.tx_msgs, c.tx_bytes), (1, 4 + FRAME_HEADER_LEN as u64));
        assert_eq!((c.rx_msgs, c.rx_bytes), (0, 0), "no response landed");
        let s = transport.endpoint_stats(server).unwrap();
        assert_eq!((s.rx_msgs, s.rx_bytes), (1, 4 + FRAME_HEADER_LEN as u64));
        assert_eq!(s.tx_msgs, 0);
    }

    #[test]
    fn drop_injected_call_never_reaches_the_wire_and_charges_nothing() {
        let (transport, client, server) = echo_transport();
        transport.set_drop_probability(1.0);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::Timeout)
        ));
        // Drop injection models loss *before* the socket: unlike a
        // timed-out written frame, nothing was spent.
        assert_eq!(transport.stats().messages, 0);
        assert_eq!(transport.stats().bytes, 0);
        assert_eq!(transport.endpoint_stats(client).unwrap().tx_msgs, 0);
    }

    #[test]
    fn down_endpoint_fails_cleanly_and_revives() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![1]).unwrap();
        transport.set_down(server, true);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::EndpointDown(_))
        ));
        transport.set_down(server, false);
        assert_eq!(
            transport.call(client, server, vec![2]).unwrap().payload,
            [2]
        );
    }

    #[test]
    fn drop_probability_one_always_times_out() {
        let (transport, client, server) = echo_transport();
        transport.set_drop_probability(1.0);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::Timeout)
        ));
        assert_eq!(transport.stats().drops, 1);
        transport.set_drop_probability(0.0);
        assert!(transport.call(client, server, vec![1]).is_ok());
    }

    #[test]
    fn unknown_and_serviceless_endpoints_error() {
        let (transport, client, _server) = echo_transport();
        assert!(matches!(
            transport.call(client, EndpointId(999), vec![]),
            Err(NetError::NoSuchEndpoint(_))
        ));
        let silent = transport.register("no-service", None);
        assert!(matches!(
            transport.call(client, silent, vec![]),
            Err(NetError::NoSuchEndpoint(_))
        ));
    }

    #[test]
    fn dropping_the_transport_releases_listeners() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![1]).unwrap();
        let addr = transport.listen_addr(server).unwrap();
        drop(transport);
        // The reactors exit and close the listener; new dials must
        // start failing (give the woken threads a moment to unwind).
        let mut released = false;
        for _ in 0..50 {
            if TcpStream::connect_timeout(&addr, Duration::from_millis(50)).is_err() {
                released = true;
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert!(released, "listener port still accepting after drop");
    }

    #[test]
    fn dropping_a_many_endpoint_transport_completes_quickly() {
        // Teardown is one wake per reactor, not a walk over endpoints:
        // with ~16 served endpoints the whole drop must finish well
        // under a second.
        let transport = TcpTransport::new(3);
        let client = transport.register("client", None);
        let servers: Vec<EndpointId> = (0..16)
            .map(|i| {
                let id = transport.register(&format!("srv-{i}"), None);
                transport.set_service(
                    id,
                    Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
                );
                id
            })
            .collect();
        // Exercise a few of them so real connections exist too.
        for id in servers.iter().take(4) {
            transport.call(client, *id, vec![1]).unwrap();
        }
        let t0 = Instant::now();
        drop(transport);
        assert!(
            t0.elapsed() < Duration::from_millis(900),
            "teardown of 16 served endpoints took {:?}",
            t0.elapsed()
        );
    }

    /// Policy for the overload tests: byte 0 of the payload is the
    /// principal key; shed replies are `[0xBB]` + retry hint.
    fn test_policy(max_depth: usize) -> OverloadPolicy {
        OverloadPolicy {
            max_depth,
            retry_after_us: 1_500,
            classify: Arc::new(|payload: &[u8]| u64::from(payload.first().copied().unwrap_or(0))),
            busy_reply: Arc::new(|retry_after_us: u64| vec![0xBB, retry_after_us as u8]),
        }
    }

    fn is_busy(payload: &[u8]) -> bool {
        payload.first() == Some(&0xBB)
    }

    #[test]
    fn saturated_endpoint_sheds_busy_within_bound_instead_of_stalling() {
        // Far more in-flight than the dispatch queue admits, against a
        // slow service: the overflow MUST come back as fast busy
        // replies, not wedge behind the reader gate until timeout.
        let transport = TcpTransport::new(7);
        let server = transport.register("slow", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(100));
                payload.to_vec()
            }),
        );
        transport.set_overload_policy(server, Some(test_policy(4)));
        let client = transport.register("client", None);
        let t0 = Instant::now();
        let mut set = Vec::new();
        for i in 0..48u8 {
            // Spread principals so the per-principal cap is not what
            // triggers first; total depth is.
            set.push(transport.submit(client, server, vec![i, 1]));
        }
        let results: Vec<_> = set.into_iter().map(CallHandle::wait).collect();
        let elapsed = t0.elapsed();
        let mut served = 0usize;
        let mut shed = 0usize;
        for result in results {
            let transfer = result.expect("saturation must answer, not error");
            if is_busy(&transfer.payload) {
                shed += 1;
            } else {
                served += 1;
            }
        }
        assert!(served >= 1, "some requests must still be served");
        assert!(shed >= 1, "overflow must be shed as busy replies");
        assert_eq!(transport.shed_requests(), shed as u64);
        // 48 requests at 100 ms each on 8 workers would be ~600 ms if
        // everything queued; shedding keeps the tail bounded by the
        // admitted depth, not the offered load.
        assert!(
            elapsed < Duration::from_millis(450),
            "saturation wedged the pipeline: {elapsed:?}"
        );
        assert!(
            transport.dispatch_depth(server) <= 4,
            "admitted depth exceeded the policy cap"
        );
    }

    #[test]
    fn hot_principal_is_shed_before_quiet_one() {
        let transport = TcpTransport::new(7);
        let server = transport.register("slow", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(80));
                payload.to_vec()
            }),
        );
        // max_depth 8 → per-principal cap 4: principal 1 can hold at
        // most half the queue.
        transport.set_overload_policy(server, Some(test_policy(8)));
        let hot = transport.register("hot", None);
        let quiet = transport.register("quiet", None);
        // The hot principal floods well past its cap...
        let mut hot_set = Vec::new();
        for i in 0..24u8 {
            hot_set.push(transport.submit(hot, server, vec![1, i]));
        }
        // ...then a quiet principal shows up while the flood is in
        // flight: the fairness cap left it room, so it must be served.
        thread::sleep(Duration::from_millis(10));
        let quiet_transfer = transport
            .call(quiet, server, vec![2, 0])
            .expect("quiet principal must get through");
        assert!(
            !is_busy(&quiet_transfer.payload),
            "quiet principal was shed while the hot one held the queue"
        );
        let mut hot_shed = 0usize;
        for result in hot_set.into_iter().map(CallHandle::wait) {
            if is_busy(&result.unwrap().payload) {
                hot_shed += 1;
            }
        }
        assert!(
            hot_shed >= 1,
            "the flooding principal must be shed at its fairness cap"
        );
    }

    #[test]
    fn shed_plus_disconnect_releases_every_admission_slot() {
        // Regression for the leaked-slot wedge: a client floods a tiny
        // admission queue, then vanishes mid-burst without reading
        // replies. Every admitted slot must drain (workers release
        // unconditionally) so a later well-behaved caller is served,
        // not shed forever.
        let transport = TcpTransport::new(7);
        let server = transport.register("slow", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(50));
                payload.to_vec()
            }),
        );
        transport.set_overload_policy(server, Some(test_policy(2)));
        let addr = transport.listen_addr(server).unwrap();
        {
            // Raw flood from outside the transport, then a hard cut
            // with replies unread.
            let mut raw = TcpStream::connect(addr).unwrap();
            for corr in 0..16u64 {
                write_frame(&mut raw, 77, corr, &[1, corr as u8]).unwrap();
            }
            // Give the server a moment to admit/shed the burst, then
            // vanish without reading a single reply.
            thread::sleep(Duration::from_millis(30));
            let _ = raw.shutdown(Shutdown::Both);
            drop(raw);
        }
        // Wait out the admitted requests' service time.
        thread::sleep(Duration::from_millis(400));
        let live_depth = transport
            .inner
            .endpoints
            .lock()
            .get(&server)
            .unwrap()
            .gauge
            .current_depth();
        assert_eq!(
            live_depth, 0,
            "admission slots leaked after the flooder disconnected"
        );
        let client = transport.register("client", None);
        let transfer = transport
            .call(client, server, vec![9, 9])
            .expect("endpoint must still answer after the flooder died");
        assert!(
            !is_busy(&transfer.payload),
            "leaked admission slots left the endpoint shedding forever"
        );
    }

    #[test]
    fn dispatch_depth_high_water_and_shed_reset_with_stats() {
        let transport = TcpTransport::new(7);
        let server = transport.register("slow", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(40));
                payload.to_vec()
            }),
        );
        transport.set_overload_policy(server, Some(test_policy(2)));
        let client = transport.register("client", None);
        let mut set = Vec::new();
        for i in 0..12u8 {
            set.push(transport.submit(client, server, vec![i, 0]));
        }
        for result in set.into_iter().map(CallHandle::wait) {
            result.unwrap();
        }
        assert!(transport.dispatch_depth(server) >= 1);
        assert!(transport.shed_requests() >= 1);
        transport.reset_stats();
        assert_eq!(transport.dispatch_depth(server), 0);
        assert_eq!(transport.shed_requests(), 0);
    }

    #[test]
    fn endpoint_without_policy_never_sheds() {
        let (transport, client, server) = echo_transport();
        let mut set = Vec::new();
        for i in 0..64u8 {
            set.push(transport.submit(client, server, vec![i]));
        }
        for result in set.into_iter().map(CallHandle::wait) {
            result.unwrap();
        }
        assert_eq!(transport.shed_requests(), 0);
        assert!(
            transport.dispatch_depth(server) >= 1,
            "depth high-water is observed even without a policy"
        );
    }

    // The paths a waiter that reads its own socket adds. Every bound is
    // far below the 2 s call timeout, so a lost turn fails instead of
    // passing slowly.

    /// An echo service that sleeps `payload[0]` ms first.
    fn sleepy_transport() -> (TcpTransport, EndpointId, EndpointId) {
        let transport = TcpTransport::new(7);
        let server = transport.register("sleepy", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(u64::from(payload[0])));
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        (transport, client, server)
    }

    #[test]
    fn the_reader_completes_a_sibling_answer_that_lands_first() {
        let (transport, client, server) = sleepy_transport();
        transport.call(client, server, vec![0]).unwrap();
        let slow = transport.inner.launch(client, server, vec![200]).unwrap();
        let fast = transport.inner.launch(client, server, vec![0]).unwrap();
        assert!(Arc::ptr_eq(&slow.sent.flight, &fast.sent.flight));
        let fast_cell = fast.sent.cell.clone();
        let t0 = Instant::now();
        // The first waiter holds the reader token until its own answer
        // lands, so only it can read the fast answer, which lands first.
        let reader = thread::spawn(move || Box::new(slow).wait());
        while !fast_cell.is_done() {
            assert!(
                t0.elapsed() < Duration::from_millis(150),
                "sibling answer left unread"
            );
            thread::sleep(Duration::from_millis(1));
        }
        assert!(
            !reader.is_finished(),
            "the reader still waits for its own answer"
        );
        assert_eq!(Box::new(fast).wait().unwrap().payload, [0]);
        assert_eq!(reader.join().unwrap().unwrap().payload, [200]);
        assert!(t0.elapsed() < Duration::from_millis(1_000));
        assert_eq!(transport.orphan_responses(), 0);
    }

    #[test]
    fn a_cold_call_dials_and_answers_promptly() {
        let (transport, client, server) = echo_transport();
        let t0 = Instant::now();
        assert_eq!(
            transport.call(client, server, vec![1]).unwrap().payload,
            [1]
        );
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn set_down_fails_a_waiter_parked_in_poll_promptly() {
        let (transport, client, server) = sleepy_transport();
        transport.call(client, server, vec![0]).unwrap();
        let conn = transport.inner.endpoints.lock()[&server].conns[&client].clone();
        let waiter = {
            let transport = transport.clone();
            thread::spawn(move || transport.call(client, server, vec![250]))
        };
        // Once it holds the reader token, the waiter is reading its
        // connection — parked in `poll`, since the answer is 250 ms out.
        let t0 = Instant::now();
        while !conn.reader.load(Ordering::SeqCst) {
            assert!(
                t0.elapsed() < Duration::from_millis(200),
                "the waiter never read"
            );
            thread::yield_now();
        }
        let t0 = Instant::now();
        transport.set_down(server, true);
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, NetError::EndpointDown(_)), "{err:?}");
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "{:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn set_down_cuts_every_callers_connection() {
        let (transport, client, server) = sleepy_transport();
        let other = transport.register("other", None);
        let booked = |from: EndpointId| {
            transport.call(from, server, vec![0]).unwrap();
            transport.inner.endpoints.lock()[&server].conns[&from].clone()
        };
        let conns = [booked(client), booked(other)];
        let waiters: Vec<_> = [client, other]
            .into_iter()
            .map(|from| {
                let transport = transport.clone();
                thread::spawn(move || transport.call(from, server, vec![250]))
            })
            .collect();
        // Each waiter reads its own connection, parked in `poll`.
        let t0 = Instant::now();
        while !conns.iter().all(|conn| conn.reader.load(Ordering::SeqCst)) {
            assert!(
                t0.elapsed() < Duration::from_millis(200),
                "a waiter never read"
            );
            thread::yield_now();
        }
        let t0 = Instant::now();
        transport.set_down(server, true);
        for waiter in waiters {
            let err = waiter.join().unwrap().unwrap_err();
            assert!(matches!(err, NetError::EndpointDown(_)), "{err:?}");
        }
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "{:?}",
            t0.elapsed()
        );
        transport.set_down(server, false);
        let dials = transport.inner.event_loop.count(crate::core::DIALS);
        for (from, old) in [client, other].into_iter().zip(&conns) {
            assert!(
                !Arc::ptr_eq(&booked(from), old),
                "a cut connection was reused"
            );
        }
        assert_eq!(
            transport.inner.event_loop.count(crate::core::DIALS),
            dials + 2,
            "each caller re-dials its own connection"
        );
        assert_eq!(transport.pooled_conns(server), 2);
    }

    #[test]
    fn a_tcp_client_socket_is_never_a_source() {
        let transport = TcpTransport::new(7);
        let callers = [transport.register("a", None), transport.register("b", None)];
        let servers: Vec<EndpointId> = (0..3)
            .map(|i| {
                let id = transport.register(&format!("srv-{i}"), None);
                transport.set_service(
                    id,
                    Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
                );
                id
            })
            .collect();
        for round in 0..3u8 {
            for from in callers {
                for to in &servers {
                    transport.call(from, *to, vec![round]).unwrap();
                }
            }
        }
        // The listeners and one served connection per caller and server.
        assert_eq!(transport.inner.event_loop.sources(), 3 + 2 * 3);
    }

    #[test]
    fn a_replaced_broken_connection_closes() {
        let (transport, client, server) = sleepy_transport();
        transport.call(client, server, vec![0]).unwrap();
        let el = &transport.inner.event_loop;
        let booked = || transport.inner.endpoints.lock()[&server].conns[&client].clone();
        let old = booked();
        assert_eq!(el.sources(), 2, "the listener and one served connection");
        let abandoned = transport.submit(client, server, vec![200]);
        let sibling = transport.submit(client, server, vec![100]);
        transport.set_timeout_us(50_000);
        assert!(matches!(abandoned.wait(), Err(NetError::Timeout)));
        transport.set_timeout_us(2_000_000);
        // The timeout broke the connection: the next call dials fresh...
        let dials = el.count(crate::core::DIALS);
        assert_eq!(
            transport.call(client, server, vec![0]).unwrap().payload,
            [0]
        );
        assert_eq!(el.count(crate::core::DIALS), dials + 1);
        assert!(
            !Arc::ptr_eq(&booked(), &old),
            "a broken connection was reused"
        );
        drop(old);
        // ...while the old one stays open for the sibling still on it.
        assert_eq!(el.sources(), 3);
        assert_eq!(sibling.wait().unwrap().payload, [100]);
        // Drained, it closes: the server meets EOF and retires its side.
        let t0 = Instant::now();
        while el.sources() > 2 {
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "the old connection's served side never retired"
            );
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn frames_buffered_behind_a_closed_gate_dispatch_as_replies_reopen_it() {
        let (transport, _client, server) = echo_transport();
        let mut raw = TcpStream::connect(transport.listen_addr(server).unwrap()).unwrap();
        let n = 3 * SERVE_PIPELINE as u64;
        let mut burst = Vec::new();
        for corr in 0..n {
            write_frame(&mut burst, 99, corr, &corr.to_le_bytes()).unwrap();
        }
        // One write: the reactor reads every frame before the gate
        // closes, so the rest wait in its decoder, not in the socket.
        raw.write_all(&burst).unwrap();
        raw.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut seen: Vec<u64> = (0..n)
            .map(|_| {
                let frame = read_frame(&mut raw).expect("every buffered frame is answered");
                assert_eq!(frame.payload, frame.correlation.to_le_bytes());
                frame.correlation
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn only_an_unwritten_frame_is_rerouted() {
        let executed = Arc::new(AtomicUsize::new(0));
        let transport = TcpTransport::new(7);
        let server = transport.register("counting", None);
        let count = executed.clone();
        transport.set_service(
            server,
            Arc::new(move |_from: EndpointId, payload: &[u8]| {
                count.fetch_add(1, Ordering::SeqCst);
                payload.to_vec()
            }),
        );
        let client = transport.register("client", None);
        transport.call(client, server, vec![0]).unwrap();
        let pooled = || transport.inner.endpoints.lock()[&server].conns[&client].clone();
        // What `send` does on a warm connection: register, then write
        // the whole frame under the write lock...
        let conn = pooled();
        let corr = u64::MAX;
        let cell = conn.demux.register(corr);
        let buf = encode_frame(client, corr, &[1]).unwrap();
        let deadline = Instant::now() + Duration::from_millis(500);
        assert!(conn.write(corr, buf, deadline).is_ok());
        assert!(cell.was_sent());
        // ...so when a sibling's timeout then marks the live connection
        // stale, the frame stays where it went.
        conn.broken.store(true, Ordering::SeqCst);
        conn.read_until(&cell, deadline);
        assert!(cell.is_done(), "answered on the connection it went out on");
        // A writer that finds its connection broken when it takes the
        // write lock (a sibling timed out between checkout and write)
        // has written nothing: its frame is re-routed on a fresh dial.
        transport.call(client, server, vec![2]).unwrap();
        let conn = pooled();
        let held = conn.out.lock();
        let caller = {
            let transport = transport.clone();
            thread::spawn(move || transport.call(client, server, vec![3]))
        };
        let t0 = Instant::now();
        while conn.demux.in_flight() == 0 {
            assert!(
                t0.elapsed() < Duration::from_millis(500),
                "never checked out"
            );
            thread::yield_now();
        }
        conn.broken.store(true, Ordering::SeqCst);
        drop(held);
        assert_eq!(caller.join().unwrap().unwrap().payload, [3]);
        assert!(
            !Arc::ptr_eq(&pooled(), &conn),
            "re-routed onto a fresh dial"
        );
        thread::sleep(Duration::from_millis(50));
        assert_eq!(
            executed.load(Ordering::SeqCst),
            4,
            "every request executed once"
        );
    }

    #[test]
    fn clock_is_monotonic_wall_time() {
        let transport = TcpTransport::new(1);
        let t0 = transport.now_us();
        std::thread::sleep(Duration::from_millis(2));
        assert!(transport.now_us() > t0);
        transport.advance_us(1_000_000); // no-op by contract
        assert!(transport.now_us() < 60_000_000);
    }
}
