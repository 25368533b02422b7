//! The stream binding: multiplexed, pipelined envelopes over loopback
//! TCP, every socket a source on the core's event loop.
//!
//! [`TcpTransport`] is the socket core (`crate::core`) bound to
//! `std::net` streams, proving the whole federated stack — DNS
//! discovery, batched sessions, map servers — runs end to end over
//! actual sockets, not just the simulator. What a call *is*
//! (correlation, completion, charging, admission, dispatch) lives in
//! the core; this module owns only what is stream-specific:
//!
//! - **Shared reactors**: every socket — client and served sides both —
//!   is a source on the core's event loop (`crate::core::EventLoop`:
//!   threads, placement, wake-ups and teardown are documented there),
//!   here `min(cores, 8)` *reactor* threads. This module supplies what
//!   a reactor does per socket (`Entry`'s `Source` impl): it accepts,
//!   finishes client dials, reads requests off served connections
//!   through the incremental framing-v2 decoder
//!   ([`openflame_codec::framing::FrameDecoder`] — partial frames
//!   across arbitrary split boundaries are the normal case), and
//!   finishes writes the socket would not take at once. It never reads
//!   a client connection, and on the warm path writes nothing: a call's
//!   frames are written by the threads that own them (below), so a
//!   warm call costs the served side's one read turn.
//! - **Served endpoints** bind a `127.0.0.1:0` listener registered
//!   with a reactor; accepted connections are spread across the pool.
//!   Decoded requests go through the core's admit-or-shed step to the
//!   transport-wide dispatch pool of [`DISPATCH_POOL`] workers. The
//!   worker that answers a request writes its reply frame itself when
//!   nothing is ahead of it on the connection, and otherwise queues it
//!   for the reactor — frames leave in **completion order** with the
//!   request's correlation id echoed, so a slow request head-of-line
//!   blocks only its own completion, never the pipelined requests
//!   behind it. Each connection holds at most `SERVE_PIPELINE`
//!   decoded requests in dispatch; past that the reactor drops the
//!   connection's read interest (readiness-deregistration
//!   backpressure) until replies drain, and the reply that reopens the
//!   gate wakes the reactor to dispatch what it had already buffered —
//!   bounded buffering without a blocked reader thread. Shed replies
//!   ([`crate::OverloadPolicy`]) take the same path.
//! - **Multiplexed connections**: one pooled connection carries many
//!   in-flight requests at once; out-of-order completion is matched
//!   by correlation id. Its responses are read by whichever blocking
//!   waiter holds the connection's *reader token*: that waiter polls
//!   the one socket until its own answer lands, completes every other
//!   caller's answer it reads on the way, then hands the turn to the
//!   calls still waiting (`crate::core::Binding::drive`). A scatter
//!   over 64 servers reuses the same 64 warm connections round after
//!   round.
//! - **Submit** writes the encoded frame to the socket itself when the
//!   connection is established and nothing is queued ahead of it;
//!   otherwise it queues the frame for the reactor — it never blocks
//!   on a dial (connects are non-blocking too; N cold dials to N
//!   servers proceed concurrently). Bounded fan-out falls out of the
//!   pool: at most `POOL_CAP` (4) connections per destination, each
//!   pipelining up to `PIPELINE_DEPTH` (32) requests before another
//!   connection is dialed; beyond that, requests queue on the
//!   least-loaded connection.
//! - **Failure semantics** mirror the simulator: a down endpoint
//!   fails with [`NetError::EndpointDown`] and its server side cuts
//!   the connection instead of answering; message drops are injected
//!   per call, before the socket, and surface as
//!   [`NetError::Timeout`] having charged nothing. A call that went
//!   out alone on a pooled connection which then proved stale — the
//!   next call is what discovers an idle connection's EOF — is re-sent
//!   exactly once on a fresh dial (both transmissions charge);
//!   timeouts are never retried, and a frame is re-routed before the
//!   call returns only if none of it was written.
//!
//! Clocks are wall-clock microseconds since transport creation, so the
//! TTL caches built on [`Transport::now_us`] age in real time. Raw
//! sockets poking a listener from outside this transport are served
//! but not counted. [`Transport::worker_threads`] is the reactor pool
//! plus the dispatch pool, nothing per connection, endpoint or call —
//! the pipelining stress test pins it at 128 servers × 8 sessions. This
//! backend is built for tests, benches and single-process demos, not
//! as a hardened production server.

use crate::core::{
    encode_frame, Binding, CompletionCell, Core, Demux, EventLoop, Inbox, Outgoing, ReplySink,
    Sent, Served, Shared, SocketPending, Source, Sweep,
};
use crate::reactor::{connect_nonblocking, poll_fds, PollFd, POLLIN, POLLOUT};
use crate::transport::{PendingCall, Transfer, Transport};
use crate::{EndpointId, NetError};
use openflame_codec::framing::FrameDecoder;
use openflame_diag::{ranks, OrderedMutex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Pipelined connections kept per destination endpoint.
pub(crate) const POOL_CAP: usize = 4;

/// In-flight requests a connection absorbs before the pool dials
/// another one (further requests queue on the least-loaded connection
/// — the bounded-fan-out knob).
pub(crate) const PIPELINE_DEPTH: usize = 32;

/// Concurrent dispatch workers for the whole transport: decoded
/// frames from every served connection of every endpoint are executed
/// by this many threads. A fixed transport-wide pool (not per
/// endpoint) is what keeps the thread ceiling O(cores)-ish no matter
/// how many endpoints serve.
pub const DISPATCH_POOL: usize = 8;

/// Decoded requests one server connection may hold in dispatch at once
/// (queued for a worker, executing, or awaiting its response write)
/// before its reactor drops the connection's read interest — the
/// server-side bounded-queue mirror of the client's
/// [`PIPELINE_DEPTH`], expressed as readiness-deregistration instead
/// of a blocked reader thread.
pub(crate) const SERVE_PIPELINE: usize = PIPELINE_DEPTH;

/// Hard cap on the reactor pool (the default is
/// `min(available cores, MAX_REACTORS)`).
pub(crate) const MAX_REACTORS: usize = 8;

// ---------------------------------------------------------------------
// Client connections.
// ---------------------------------------------------------------------

/// One encoded frame waiting in (or part-way through) a connection's
/// write queue.
struct OutFrame {
    corr: u64,
    buf: Vec<u8>,
    off: usize,
}

#[derive(Default)]
struct OutQueue {
    /// Set when the connection dies or closes: enqueue attempts fail
    /// fast instead of queueing frames nobody will ever write, and the
    /// reactor retires the connection.
    closed: bool,
    /// Frames the socket has not taken yet, in submit order.
    frames: VecDeque<OutFrame>,
}

/// One pooled, pipelined client connection, shared by `Arc` between
/// the reactor it sits on (which dials it and finishes writes the
/// socket would not take), its submitters (which write their own
/// frames when nothing is queued) and its waiters (whose reader-token
/// holder reads every response).
pub(crate) struct ClientConn {
    addr: SocketAddr,
    stream: TcpStream,
    demux: Arc<Demux>,
    /// Set when the connection dies or goes stale; broken connections
    /// are pruned from the pool on the next checkout and closed by
    /// their reactor once drained.
    broken: AtomicBool,
    /// Set by `set_down`: the reactor cuts the connection immediately,
    /// failing whatever is in flight (a crashed server does not drain
    /// gracefully).
    kill: AtomicBool,
    /// Set by the reactor, under `out`, once the dial succeeded.
    established: AtomicBool,
    out: OrderedMutex<OutQueue>,
    /// The reader token: set while one waiter reads the socket.
    reader: AtomicBool,
    /// The response decoder, the reader-token holder's alone.
    rx: OrderedMutex<FrameDecoder>,
    /// The reactor the connection sits on.
    reactor: Arc<Inbox<Entry>>,
}

impl ClientConn {
    /// Puts a frame on the connection: written here and now when the
    /// connection is established and nothing is queued ahead of it,
    /// queued for the reactor otherwise. Hands the frame back when the
    /// connection is already closed (so the caller can re-route
    /// without re-sending anything — the frame never touched the
    /// socket).
    fn enqueue(&self, frame: OutFrame) -> Result<(), OutFrame> {
        let mut out = self.out.lock();
        if out.closed {
            return Err(frame);
        }
        out.frames.push_back(frame);
        let written = if out.frames.len() == 1 && self.established.load(Ordering::SeqCst) {
            self.flush(&mut out)
        } else {
            Ok(false)
        };
        drop(out);
        match written {
            Ok(true) => {}
            Ok(false) => self.reactor.waker.wake(),
            Err(e) => self.die_writing(&e),
        }
        Ok(())
    }

    /// Writes the queue into the socket until it empties (`Ok(true)`)
    /// or the socket would block (`Ok(false)`).
    fn flush(&self, out: &mut OutQueue) -> io::Result<bool> {
        while let Some(frame) = out.frames.front_mut() {
            if frame.off == 0 {
                // The frame is going onto the socket now: even if the
                // write (or the whole call) fails from here on, its
                // request bytes count as wire traffic.
                self.demux.mark_sent(frame.corr);
            }
            if !write_some(&self.stream, &frame.buf, &mut frame.off)? {
                return Ok(false);
            }
            out.frames.pop_front();
        }
        Ok(true)
    }

    /// Takes a frame back off the connection if none of it was
    /// written — the only frames a submitter may re-route: a written
    /// one may already be executing, and a second copy could apply a
    /// patch twice.
    fn withdraw(&self, corr: u64) -> Option<Vec<u8>> {
        let mut out = self.out.lock();
        let at = out
            .frames
            .iter()
            .position(|f| f.corr == corr && f.off == 0)?;
        out.frames.remove(at).map(|f| f.buf)
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
                    match drain_responses(&mut decoder, &self.demux) {
                        Ok(()) => continue,
                        Err(e) => e,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // `poll` counts whole milliseconds: round up, so the
                    // wait it buys reaches the deadline.
                    let wait = deadline.saturating_duration_since(Instant::now());
                    let ms = wait.as_micros().div_ceil(1_000).min(i32::MAX as u128) as i32;
                    let mut fd = [PollFd::new(self.stream.as_raw_fd(), POLLIN)];
                    if ms == 0 || poll_fds(&mut fd, ms).is_err() {
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

    /// Kills the connection: fail every in-flight request, refuse
    /// further enqueues, and shut the socket (which also wakes a waiter
    /// polling it); the reactor retires it on its next turn.
    fn die(&self, kind: io::ErrorKind, msg: &str) {
        self.broken.store(true, Ordering::SeqCst);
        {
            let mut out = self.out.lock();
            out.closed = true;
            out.frames.clear();
        }
        // Queued-but-unwritten frames were registered too: they fail
        // alongside the written ones (their cells carry `sent ==
        // false`, so they charge nothing).
        self.demux.fail_all(kind, msg);
        let _ = self.stream.shutdown(Shutdown::Both);
        self.reactor.waker.wake();
    }

    /// A failed write kills the connection as `BrokenPipe`, whatever
    /// the error was, so retry eligibility does not depend on which
    /// thread wrote.
    fn die_writing(&self, e: &io::Error) {
        self.die(
            io::ErrorKind::BrokenPipe,
            &format!("connection writer failed: {e}"),
        );
    }
}

/// Completes every whole response frame the decoder holds.
fn drain_responses(decoder: &mut FrameDecoder, demux: &Demux) -> io::Result<()> {
    while let Some(frame) = decoder.next_frame()? {
        demux.complete(frame.correlation, Ok(frame.payload));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The transport handle and its binding.
// ---------------------------------------------------------------------

type TcpServed = Arc<Served<Arc<SrvShared>>>;

/// [`Transport`] over real loopback TCP sockets (see module docs).
///
/// Cheap to clone (shared handle), and usually passed around as
/// `Arc<dyn Transport>` via [`TcpTransport::shared`].
#[derive(Clone)]
pub struct TcpTransport {
    inner: Arc<Core<TcpTransport>>,
}

impl TcpTransport {
    /// Creates a transport with the default reactor pool
    /// (`min(cores, MAX_REACTORS)`). `seed` drives the drop-injection
    /// RNG.
    pub fn new(seed: u64) -> Self {
        Self::with_reactors(seed, thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Creates a transport with an explicit reactor-pool size
    /// (clamped to `1..=MAX_REACTORS`).
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

    /// Configured reactor-pool size (the event-loop thread budget).
    /// [`Transport::worker_threads`] is this plus [`DISPATCH_POOL`] —
    /// **not** a function of endpoints, connections, fan-out width or
    /// call volume; the pipelining stress test pins this down.
    pub fn reactor_threads(&self) -> usize {
        self.inner.event_loop.threads()
    }

    /// Responses discarded because their correlation id matched no
    /// in-flight request (late responses after a timeout, duplicates).
    pub fn orphan_responses(&self) -> u64 {
        self.inner.shared.orphans.load(Ordering::Relaxed)
    }

    /// Pooled connections currently held toward `to` (test hook).
    #[cfg(test)]
    fn pooled_conns(&self, to: EndpointId) -> usize {
        self.inner
            .endpoints
            .lock()
            .get(&to)
            .map(|e| e.conns.len())
            .unwrap_or(0)
    }
}

impl Core<TcpTransport> {
    /// Creates a connection toward `addr`: the socket starts a
    /// non-blocking connect and is handed to a reactor mid-handshake —
    /// `submit` never blocks on a dial, frames queue behind the
    /// in-progress handshake, and N cold dials to N servers proceed
    /// concurrently. A failed handshake fails every queued and
    /// subsequently raced-in request through the demux; a dial that
    /// fails at once (fd exhaustion, bad address) fails the call.
    fn dial(&self, addr: SocketAddr) -> Result<Arc<ClientConn>, NetError> {
        let stream = connect_nonblocking(&addr)
            .map_err(|e| NetError::Connection(format!("dial {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        let target = self.event_loop.pick();
        let conn = Arc::new(ClientConn {
            addr,
            stream,
            demux: Arc::new(Demux::new(self.shared.orphans.clone())),
            broken: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            established: AtomicBool::new(false),
            out: OrderedMutex::new(ranks::TCP_CONN_OUT, OutQueue::default()),
            reader: AtomicBool::new(false),
            rx: OrderedMutex::new(ranks::TCP_CONN_RX, FrameDecoder::new()),
            reactor: target.clone(),
        });
        target.push(Entry::Client(conn.clone()));
        Ok(conn)
    }

    /// Checks out a connection toward `to`: the least-loaded pooled one
    /// when its pipeline has room (or the pool is full), a fresh dial
    /// otherwise. Returns whether the connection pre-existed (only
    /// those are eligible for the stale-retry).
    fn obtain_conn(
        &self,
        to: EndpointId,
        addr: SocketAddr,
        force_fresh: bool,
    ) -> Result<(Arc<ClientConn>, bool), NetError> {
        if !force_fresh {
            let mut endpoints = self.endpoints.lock();
            if let Some(ep) = endpoints.get_mut(&to) {
                ep.conns.retain(|c| !c.broken.load(Ordering::SeqCst));
                if let Some(best) = ep.conns.iter().min_by_key(|c| c.demux.in_flight()).cloned() {
                    if best.demux.in_flight() < PIPELINE_DEPTH || ep.conns.len() >= POOL_CAP {
                        return Ok((best, true));
                    }
                }
            }
        }
        let conn = self.dial(addr)?;
        let mut endpoints = self.endpoints.lock();
        if let Some(ep) = endpoints.get_mut(&to) {
            // Make room before the cap check: broken connections must
            // not squat pool slots and force fresh dials unpooled.
            ep.conns.retain(|c| !c.broken.load(Ordering::SeqCst));
            if ep.conns.len() < POOL_CAP {
                ep.conns.push(conn.clone());
            }
        }
        Ok((conn, false))
    }
}

/// What one TCP call in flight keeps beyond the core's cell.
pub(crate) struct TcpFlight {
    /// The carrying connection. Keeps its demux and queue alive while
    /// the call is in flight: a fresh dial that lost the pool-slot race
    /// must not lose its response mid-air.
    conn: Arc<ClientConn>,
    /// The connection's delivered-response count at submit time; any
    /// delivery after it vetoes the stale-retry (server provably alive
    /// past this request's submission).
    delivered_at_submit: u64,
    /// Retry copy, kept only for calls that went out on a pre-existing
    /// pooled connection (the only ones eligible for the single
    /// stale-connection retry).
    retry_payload: Option<Vec<u8>>,
}

impl Binding for TcpTransport {
    const KIND: &'static str = "tcp";
    const DISPATCH_WORKERS: usize = DISPATCH_POOL;
    type State = ();
    type Source = Entry;
    type Conns = Vec<Arc<ClientConn>>;
    type Flight = TcpFlight;
    type Sink = Arc<SrvShared>;

    fn core(&self) -> &Arc<Core<Self>> {
        &self.inner
    }

    fn serve(core: &Core<Self>, served: Served<Self::Sink>) -> SocketAddr {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback listener");
        listener
            .set_nonblocking(true)
            .expect("non-blocking listener");
        let addr = listener.local_addr().expect("listener has an address");
        core.event_loop
            .pick()
            .push(Entry::Listener(listener, Arc::new(served)));
        addr
    }

    fn send(core: &Arc<Core<Self>>, out: Outgoing) -> Result<Sent<Self>, NetError> {
        if !out.retry && core.shared.roll_drop() {
            return Err(NetError::Timeout);
        }
        let (corr, mut buf, mut fresh) = (out.corr, out.frame, out.retry);
        loop {
            let (conn, reused) = core.obtain_conn(out.to, out.addr, fresh)?;
            let cell = conn.demux.register(corr);
            let delivered_at_submit = conn.demux.delivered();
            let unsent = match conn.enqueue(OutFrame { corr, buf, off: 0 }) {
                // Already closed: the frame never left this process.
                Err(unsent) => Some(unsent.buf),
                // Marked stale meanwhile (a sibling's timeout, a cut):
                // move off it — if none of the frame was written.
                Ok(()) if conn.broken.load(Ordering::SeqCst) => conn.withdraw(corr),
                Ok(()) => None,
            };
            if let Some(unsent) = unsent {
                // Prune and, once, re-route a pooled reuse on a fresh
                // dial; re-routing unwritten bytes cannot duplicate
                // work.
                conn.broken.store(true, Ordering::SeqCst);
                conn.demux.forget(corr);
                if fresh || !reused {
                    return Err(NetError::Connection("connection closed before send".into()));
                }
                (buf, fresh) = (unsent, true);
                continue;
            }
            return Ok(Sent {
                cell,
                demux: conn.demux.clone(),
                flight: TcpFlight {
                    conn,
                    delivered_at_submit,
                    retry_payload: (reused && !fresh).then_some(out.payload),
                },
            });
        }
    }

    /// Reads the call's connection with its reader token, unless the
    /// dial is still pending (the reactor hands out the turn when it
    /// resolves) or another waiter holds the token (it hands out the
    /// turn when it lets go).
    fn drive(sent: &Sent<Self>, deadline: Instant) {
        let conn = &sent.flight.conn;
        if !conn.established.load(Ordering::SeqCst) || conn.reader.swap(true, Ordering::SeqCst) {
            return;
        }
        conn.read_until(&sent.cell, deadline);
        conn.reader.store(false, Ordering::SeqCst);
        conn.demux.pass_turn();
        if conn.broken.load(Ordering::SeqCst) && conn.demux.in_flight() == 0 {
            // Drained: the reactor may close it now.
            conn.reactor.waker.wake();
        }
    }

    fn failed(
        call: SocketPending<Self>,
        failure: Option<(io::Error, bool)>,
    ) -> Result<Transfer, NetError> {
        let flight = call.sent.flight;
        // A written request costs wire whether or not the call
        // completes; the retry path charges the failed attempt before
        // re-sending, so both transmissions account.
        if call.sent.cell.was_sent() {
            call.core.charge_tx(call.from, call.to, call.bytes_sent);
        }
        let Some((e, sole_in_flight)) = failure else {
            // The connection swallowed a request past its deadline, so
            // stop pooling it — the next submit dials fresh instead of
            // feeding a stalled server's tar pit (in-flight siblings
            // keep their cells; only checkout is barred, and the
            // reactor closes the socket once they drain).
            flight.conn.broken.store(true, Ordering::SeqCst);
            flight.conn.reactor.waker.wake();
            return Err(NetError::Timeout);
        };
        let retriable = sole_in_flight
            && is_stale_connection(&e)
            // No response landed on this connection since the submit:
            // nothing proves the server ever got past this request, so
            // re-sending cannot duplicate observed work. A delivery in
            // between vetoes it.
            && flight.conn.demux.delivered() == flight.delivered_at_submit;
        if let (true, Some(payload)) = (retriable, flight.retry_payload) {
            // The pooled connection went stale (server restarted or
            // cut us off) with this request alone in flight — it
            // cannot have been processed; retry exactly once on a
            // fresh dial. With siblings pipelined on the same
            // connection the server may have processed any of them, so
            // those failures are surfaced, not retried. Timeouts are
            // NEVER retried — the server may still be executing the
            // request, and re-sending would duplicate non-idempotent
            // work (patches).
            let retried = call.core.launch(call.from, call.to, payload, true)?;
            return Box::new(retried).wait();
        }
        if call.down.load(Ordering::Relaxed) {
            // The server cut the connection because it is down: to the
            // caller that is a dead endpoint, same as on the simulator.
            return Err(NetError::EndpointDown(call.to));
        }
        Err(match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => NetError::Timeout,
            _ => NetError::Connection(e.to_string()),
        })
    }

    fn cut(_core: &Core<Self>, _id: EndpointId, conns: Self::Conns) {
        // Cut the pooled connections now: in-flight requests fail like
        // they would on a crashed process, instead of riding a socket
        // whose server will never answer again.
        for conn in &conns {
            conn.kill.store(true, Ordering::SeqCst);
            conn.broken.store(true, Ordering::SeqCst);
            conn.reactor.waker.wake();
        }
    }
}

/// Whether an I/O failure means the connection itself died (as a
/// pooled-but-abandoned socket does) rather than the request timing
/// out. Only these are safe to retry on a fresh dial.
fn is_stale_connection(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
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

/// The half of a served connection its reactor shares with the
/// dispatch workers answering on it: the reactor reads the socket, and
/// whoever holds `out` writes it — the answering worker when nothing is
/// ahead of its reply, the reactor for what the socket would not take
/// at once.
pub(crate) struct SrvShared {
    stream: TcpStream,
    /// The served endpoint: the reply frames' sender.
    me: EndpointId,
    out: OrderedMutex<SrvOut>,
    /// Requests dispatched but not yet fully answered on the wire —
    /// the [`SERVE_PIPELINE`] gate's counter.
    in_dispatch: AtomicUsize,
    /// Set when the connection is torn down: late replies are dropped.
    dead: AtomicBool,
    reactor: Arc<Inbox<Entry>>,
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
            // dispatch. The reply that reopens a gated connection wakes
            // its reactor, whose sweep dispatches what it had buffered.
            if self.in_dispatch.fetch_sub(1, Ordering::SeqCst) == SERVE_PIPELINE {
                self.reactor.waker.wake();
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
    /// unfinished write, which the reactor is already watching.
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
            // The socket took part of it: the reactor writes the rest.
            Ok(false) => {}
            // The reactor retires the connection on its next turn.
            Err(()) => self.cut(),
        }
        self.reactor.waker.wake();
    }
}

// ---------------------------------------------------------------------
// The reactor event loop.
// ---------------------------------------------------------------------

/// A server-side connection as its reactor sees it.
pub(crate) struct ServedEntry {
    shared: Arc<SrvShared>,
    served: TcpServed,
    decoder: FrameDecoder,
    /// False after EOF or a read error: stop reading, keep draining
    /// responses (a half-closed peer still receives every answer it
    /// pipelined).
    read_open: bool,
}

pub(crate) enum Entry {
    Client(Arc<ClientConn>),
    /// A served endpoint's listener.
    Listener(TcpListener, TcpServed),
    Served(ServedEntry),
}

/// What a reactor does for each socket in its slab: finish dials and
/// the writes the socket would not take at once, read and dispatch
/// requests, accept connections. The loop itself — and the slab, whose
/// drop on shutdown closes every listener and releases every service
/// handle — is the core's [`EventLoop`].
impl Source for Entry {
    /// `None` keeps the fd out of this round entirely: dead, an
    /// established client connection with nothing queued (its waiters
    /// read it), or a gated server connection with nothing to write.
    fn interest(&self) -> Option<PollFd> {
        match self {
            Entry::Listener(listener, _) => Some(PollFd::new(listener.as_raw_fd(), POLLIN)),
            Entry::Client(c) => {
                let out = c.out.lock();
                let dialing = !c.established.load(Ordering::SeqCst);
                let watch = !out.closed && (dialing || !out.frames.is_empty());
                watch.then(|| PollFd::new(c.stream.as_raw_fd(), POLLOUT))
            }
            Entry::Served(s) => {
                let shared = &s.shared;
                if shared.dead.load(Ordering::SeqCst) {
                    return None;
                }
                let mut events = 0i16;
                if s.read_open && shared.in_dispatch.load(Ordering::SeqCst) < SERVE_PIPELINE {
                    // The readiness-deregistration backpressure gate: a
                    // saturated connection simply stops watching for
                    // readability.
                    events |= POLLIN;
                }
                let out = shared.out.lock();
                if out.cur.is_some() || !out.done.is_empty() {
                    events |= POLLOUT;
                }
                (events != 0).then(|| PollFd::new(shared.stream.as_raw_fd(), events))
            }
        }
    }

    fn ready(&mut self, ready: PollFd, el: &Arc<EventLoop<Self>>) {
        match self {
            Entry::Client(c) => handle_client(c, ready),
            Entry::Listener(listener, served) => handle_listener(listener, served, el),
            Entry::Served(s) => handle_served(s, ready),
        }
    }

    /// Retire sweep: externally killed connections, broken ones that
    /// drained, gracefully finished server connections, and everything
    /// that died since the last round. A served connection also
    /// dispatches the frames it buffered while gated, in case a
    /// worker's reply reopened the gate. Streams have no deadlines, so
    /// a reactor's poll never times out.
    fn sweep(&mut self, _now: Instant) -> Sweep {
        let dead = match self {
            Entry::Listener(..) => false,
            Entry::Client(c) => {
                if c.kill.load(Ordering::SeqCst) {
                    c.die(io::ErrorKind::UnexpectedEof, "connection force-closed");
                } else if c.broken.load(Ordering::SeqCst) {
                    if !c.established.load(Ordering::SeqCst) {
                        // Broken before the handshake resolved: writes
                        // are gated on a connect that may never finish,
                        // so waiting for the queue to drain would leak
                        // the entry (and its fd) forever. Nothing ever
                        // hit the wire, so failing the queued frames
                        // cannot orphan a response.
                        c.die(
                            io::ErrorKind::ConnectionAborted,
                            "connection abandoned mid-handshake",
                        );
                    } else {
                        // Externally marked stale (timeout pruning):
                        // keep serving in-flight siblings, close once
                        // drained.
                        let mut out = c.out.lock();
                        if out.frames.is_empty() && c.demux.in_flight() == 0 {
                            out.closed = true;
                            let _ = c.stream.shutdown(Shutdown::Both);
                        }
                    }
                }
                c.out.lock().closed
            }
            Entry::Served(s) => {
                // Cut on a bad buffered frame, and once the peer hung up
                // with every pipelined response delivered.
                if !s.shared.dead.load(Ordering::SeqCst)
                    && (pump_served_decode(s).is_err()
                        || (!s.read_open && s.shared.in_dispatch.load(Ordering::SeqCst) == 0))
                {
                    s.shared.cut();
                }
                s.shared.dead.load(Ordering::SeqCst)
            }
        };
        if dead {
            Sweep::Retire
        } else {
            Sweep::Idle
        }
    }
}

/// Finishes a dial, then writes what submitters queued while it was
/// pending or the socket would not take.
fn handle_client(c: &ClientConn, ready: PollFd) {
    if !ready.writable() {
        return;
    }
    let dialed = !c.established.load(Ordering::SeqCst);
    if dialed {
        if let Ok(Some(e)) | Err(e) = c.stream.take_error() {
            return c.die(e.kind(), &format!("dial {}: {e}", c.addr));
        }
    }
    let written = {
        let mut out = c.out.lock();
        c.established.store(true, Ordering::SeqCst);
        c.flush(&mut out)
    };
    match written {
        Err(e) => c.die_writing(&e),
        // Waiters parked through the dial may read now.
        Ok(_) if dialed => c.demux.pass_turn(),
        Ok(_) => {}
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

/// Accepts every pending connection, spreading them across the pool.
fn handle_listener(listener: &TcpListener, served: &TcpServed, el: &Arc<EventLoop<Entry>>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let target = el.pick();
                let shared = Arc::new(SrvShared {
                    stream,
                    me: EndpointId(served.me),
                    out: OrderedMutex::new(ranks::TCP_SERVE_DONE, SrvOut::default()),
                    in_dispatch: AtomicUsize::new(0),
                    dead: AtomicBool::new(false),
                    reactor: target.clone(),
                });
                target.push(Entry::Served(ServedEntry {
                    shared,
                    served: served.clone(),
                    decoder: FrameDecoder::new(),
                    read_open: true,
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient accept failures (ECONNABORTED, fd pressure)
            // must not kill the endpoint for the rest of the process.
            Err(_) => break,
        }
    }
}

fn handle_served(s: &mut ServedEntry, ready: PollFd) {
    if s.read_open && ready.readable() && pump_served_read(s).is_err() {
        return s.shared.cut();
    }
    if ready.writable() {
        let written = s.shared.pump_write(&mut s.shared.out.lock());
        // Written replies freed gate slots: frames buffered while the
        // connection was gated can dispatch now.
        if written.is_err() || pump_served_decode(s).is_err() {
            s.shared.cut();
        }
    }
}

/// Reads request bytes until the socket would block or the
/// [`SERVE_PIPELINE`] gate closes. `Err` means cut the connection.
fn pump_served_read(s: &mut ServedEntry) -> Result<(), ()> {
    let mut buf = [0u8; 16 * 1024];
    while s.read_open && s.shared.in_dispatch.load(Ordering::SeqCst) < SERVE_PIPELINE {
        match (&s.shared.stream).read(&mut buf) {
            Ok(0) => s.read_open = false,
            Ok(n) => {
                s.decoder.extend(&buf[..n]);
                pump_served_decode(s)?;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // A reset mid-stream: stop reading; responses still in
            // dispatch drain until their writes fail (same as the old
            // reader thread's non-InvalidData exit).
            Err(_) => s.read_open = false,
        }
    }
    Ok(())
}

/// Dispatches buffered frames while the gate has room. `Err` means cut
/// the connection (corrupt stream, down endpoint, transport
/// unwinding).
fn pump_served_decode(s: &mut ServedEntry) -> Result<(), ()> {
    while s.shared.in_dispatch.load(Ordering::SeqCst) < SERVE_PIPELINE {
        match s.decoder.next_frame() {
            Ok(Some(frame)) => {
                if s.served.down.load(Ordering::Relaxed) {
                    // A dead server stops mid-conversation; the caller
                    // sees the connection die, exactly like a crashed
                    // process.
                    return Err(());
                }
                // Dispatched or shed, the request holds a gate slot
                // until its reply is written — taken before the hand-off,
                // since the reply may be written before `admit` returns.
                s.shared.in_dispatch.fetch_add(1, Ordering::SeqCst);
                if !s.served.admit(frame, s.shared.clone()) {
                    return Err(());
                }
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
    use crate::transport::{CallHandle, OverloadPolicy, Transport};
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
        assert!(transport.pooled_conns(server) <= POOL_CAP);
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
        let slow = transport
            .inner
            .launch(client, server, vec![200], false)
            .unwrap();
        let fast = transport
            .inner
            .launch(client, server, vec![0], false)
            .unwrap();
        assert!(Arc::ptr_eq(&slow.sent.flight.conn, &fast.sent.flight.conn));
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
    fn a_waiter_parked_through_the_dial_gets_the_turn_when_it_resolves() {
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
        let conn = transport.inner.endpoints.lock()[&server].conns[0].clone();
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
        let pooled = || transport.inner.endpoints.lock()[&server].conns[0].clone();
        // What `send` does on a warm connection: register, then enqueue,
        // which writes the frame at once...
        let conn = pooled();
        let corr = u64::MAX;
        let cell = conn.demux.register(corr);
        let buf = encode_frame(client, corr, &[1]).unwrap();
        assert!(conn.enqueue(OutFrame { corr, buf, off: 0 }).is_ok());
        assert!(cell.was_sent());
        // ...so when a sibling's timeout then marks the live connection
        // stale, the frame stays where it went.
        conn.broken.store(true, Ordering::SeqCst);
        assert!(conn.withdraw(corr).is_none());
        conn.read_until(&cell, Instant::now() + Duration::from_millis(500));
        assert!(cell.is_done(), "answered on the connection it went out on");
        // A frame handed back unwritten (closed under the pool's nose)
        // is re-routed on a fresh dial.
        transport.call(client, server, vec![2]).unwrap();
        pooled().out.lock().closed = true;
        assert_eq!(
            transport.call(client, server, vec![3]).unwrap().payload,
            [3]
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
