//! QuicLite: the datagram binding — QUIC-inspired reliable datagrams
//! over UDP.
//!
//! [`QuicLiteTransport`] is the socket core (`crate::core`) bound to
//! `std::net::UdpSocket`, built for the federation's traffic shape:
//! reconnect-heavy, wide fan-out scatter-gather to many
//! independently-operated servers, where TCP's per-connection handshake
//! and head-of-line stream semantics hurt. It speaks framed envelopes
//! ([`openflame_codec::framing`] v2, the same frames TCP streams) as
//! payloads of small datagrams ([`openflame_codec::packet`]). What a
//! call *is* (correlation, completion, charging, admission, dispatch)
//! lives in the core; this module owns only what is datagram-specific,
//! the load-bearing QUIC ideas re-created in miniature:
//!
//! - **Connection ids with 0-RTT resumption**: a cold connect costs one
//!   `Init`/`InitAck` handshake round before data flows; the conn id it
//!   registers is cached per destination endpoint, and a client that
//!   reconnects to a known server (after an idle teardown, or when a
//!   downed server comes back) skips the handshake entirely — `Data`
//!   packets go out immediately under the resumed conn id. Packet
//!   counters make the saving observable
//!   ([`QuicLiteTransport::quic_stats`]).
//! - **Packet numbers + ack-elicited retransmission**: every `Data`
//!   packet is numbered and acknowledged; the event loop retransmits
//!   unacknowledged packets when their RTO deadline falls due (spec
//!   §6.2), so injected datagram loss
//!   ([`Transport::set_drop_probability`], rolled per datagram) below
//!   the call timeout is *recovered*, not surfaced as failure — the
//!   call succeeds and the [`QuicLiteTransport::retransmits`] counter
//!   tells the story. Retransmissions reuse their packet number;
//!   receivers deduplicate with a seen-set, so a retransmitted request
//!   is never executed twice.
//! - **Fragmentation**: frames over the datagram MTU are split across
//!   consecutive packet numbers and reassembled on the far side, so
//!   batched envelopes of any size ride the same path.
//! - **One socket per side**: one client socket multiplexes unbounded
//!   in-flight calls across every destination. Each served endpoint
//!   binds one UDP socket; the core's event loop multiplexes all of
//!   them with the client socket, handing reassembled frames to the
//!   core's admit-or-shed step and its transport-wide worker pool
//!   ([`SERVE_POOL`]); responses are sent the moment they complete —
//!   with datagrams there is no stream to keep ordered, so
//!   completion-order responses are free (the "per-stream trivia" the
//!   roadmap predicted).
//! - **Failure semantics**: there is no connection to cut, so a down
//!   endpoint drops requests silently and a panicking service answers
//!   with silence — the caller meets its deadline
//!   ([`NetError::EndpointDown`] / [`NetError::Timeout`]).
//!
//! **No TLS — deliberate non-goal.** This is an offline vendor tree
//! with no crypto dependency; QuicLite carries the *transport* ideas of
//! QUIC (resumption, loss recovery, multiplexing) and none of its
//! security. Conn ids are unauthenticated and datagrams are plaintext;
//! the backend is for tests, benches and single-process demos, like the
//! TCP backend beside it.
//!
//! Threads are few and fixed: the core's event loop (one thread) owns
//! every socket — the client socket and each served endpoint's are
//! sources on it — and [`SERVE_POOL`] workers dispatch; sends happen
//! inline on whichever thread submits or answers. That census is
//! independent of served endpoints, fan-out width, call volume and
//! destination count (the pipelining stress test pins it, below even
//! TCP's shared-reactor budget). Retransmission is a deadline on the
//! loop, not a thread: a socket whose connections have nothing
//! unacknowledged names none, so an idle transport does not tick.
//!
//! Frame-level accounting is the core's, so cross-backend message
//! parity holds for failure-free runs. Packet-level truth —
//! handshakes, acks, retransmissions, per-packet headers — lives in the
//! separate [`QuicStats`] counters, because charging it to
//! [`crate::NetStats`] would break the parity the federation's
//! invariants rest on.

use crate::core::{
    encode_frame, Binding, Core, Demux, EventLoop, Inbox, Outgoing, ReplySink, Sent, Served,
    Shared, SocketPending, Source, Sweep,
};
use crate::reactor::{PollFd, POLLIN};
use crate::transport::{Transfer, Transport};
use crate::{EndpointId, NetError};
use openflame_codec::framing::read_frame;
use openflame_codec::packet::{decode_packet, encode_packet, Packet, PacketType, PAYLOAD_MTU};
use openflame_diag::{ranks, OrderedMutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent dispatch workers for the whole transport: reassembled
/// request frames from every served endpoint are executed by this many
/// threads, so a slow request delays only its own response (there is
/// no stream to head-of-line block; see module docs). A fixed
/// transport-wide pool — not per endpoint — keeps the thread ceiling
/// constant no matter how many endpoints serve.
pub const SERVE_POOL: usize = 4;

/// Event-loop threads: the client socket and every served socket share
/// one.
const LOOP_THREADS: usize = 1;

/// The least time between two retransmission scans of one socket's
/// connections — the granularity of the RTO deadline.
const RTO_TICK: Duration = Duration::from_millis(3);

/// How long a served endpoint keeps state for a silent connection
/// before evicting it. Generous, so live clients' 0-RTT tickets stay
/// valid across realistic idle gaps; an evicted client's resumption
/// attempt breaks and falls back to a cold handshake.
const SERVER_CONN_IDLE: Duration = Duration::from_secs(600);

/// How often a served socket that is seeing traffic sweeps its
/// connection table for idle entries.
const EVICT_EVERY: Duration = Duration::from_secs(60);

/// Retransmission timeout for one unacknowledged packet, derived from
/// the configured call timeout so several retransmission rounds always
/// fit below the caller's deadline.
fn rto(timeout_us: u64) -> Duration {
    Duration::from_micros((timeout_us / 8).clamp(5_000, 50_000))
}

/// Packet-level counters, separate from the frame-level
/// [`crate::NetStats`] (see module docs on accounting).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuicStats {
    /// Datagrams put on the wire (handshakes, data, acks;
    /// retransmissions included).
    pub packets_sent: u64,
    /// Datagrams received and decoded.
    pub packets_received: u64,
    /// Data/handshake packets re-sent on an RTO deadline.
    pub retransmits: u64,
}

// ---------------------------------------------------------------------
// Connection state (shared by both directions).
// ---------------------------------------------------------------------

/// One unacknowledged packet awaiting its ack (or its RTO deadline).
struct Unacked {
    datagram: Vec<u8>,
    peer: SocketAddr,
    first_sent: Instant,
    last_sent: Instant,
}

/// One frame mid-reassembly.
struct Reassembly {
    parts: Vec<Option<Vec<u8>>>,
    got: usize,
    started: Instant,
}

/// Receive-side state: packet dedup and fragment reassembly. Dedup
/// entries are timestamped so pruning can be *time*-based: an entry may
/// only be forgotten once its sender has provably given up
/// retransmitting it, or a retransmitted request could slip past dedup
/// and execute twice.
struct RecvState {
    seen: HashMap<u64, Instant>,
    partial: HashMap<u64, Reassembly>,
}

/// One end of a QuicLite connection: reliability bookkeeping for the
/// packets *this* side sends, dedup/reassembly for the packets it
/// receives. The client and the server each hold their own `ConnState`
/// for a conn id; the id (and the peer address) is what ties them
/// together.
pub(crate) struct ConnState {
    conn_id: u64,
    /// The socket this side sends from (client socket or the served
    /// endpoint's socket), whose source retransmits for it.
    sock: Arc<Sock>,
    /// Where to send: the server address (client side) or the last
    /// address the client was seen at (server side; updated per packet,
    /// a miniature of QUIC's connection migration).
    peer: OrderedMutex<SocketAddr>,
    /// Handshake completed (always true for resumed and server-side
    /// conns). Guarded by `queued`'s lock on the establishing path so
    /// no frame is stranded between the check and the flush.
    established: AtomicBool,
    /// Set by the RTO sweep when this end gave up on an unacknowledged
    /// packet: the peer has been unreachable for the whole give-up
    /// horizon, so the connection is replaced at the next checkout
    /// instead of wedging its endpoint forever (the datagram analogue
    /// of the TCP pool pruning stalled connections).
    broken: AtomicBool,
    /// Whether this conn was created from a 0-RTT resumption ticket.
    resumed: bool,
    /// Any packet ever arrived for this conn. A resumed conn that
    /// breaks without traffic evidently resumed against a server that
    /// forgot it — its ticket must not be re-cached, or the client
    /// would resume into the void forever.
    got_traffic: AtomicBool,
    next_packet_no: AtomicU64,
    unacked: OrderedMutex<HashMap<u64, Unacked>>,
    /// Frames submitted before the handshake completed, flushed on
    /// `InitAck`.
    queued: OrderedMutex<Vec<Vec<u8>>>,
    recv: OrderedMutex<RecvState>,
    /// Client-side conns route reassembled responses here; server-side
    /// conns route requests to the endpoint's dispatch pool instead.
    /// There is no failure sweep: datagram loss is repaired by
    /// retransmission below the caller's deadline, and anything past
    /// the deadline is simply abandoned by the waiter.
    demux: Option<Arc<Demux>>,
}

impl ConnState {
    fn new(
        conn_id: u64,
        sock: Arc<Sock>,
        peer: SocketAddr,
        established: bool,
        resumed: bool,
        first_packet_no: u64,
        demux: Option<Arc<Demux>>,
    ) -> Arc<Self> {
        Arc::new(Self {
            conn_id,
            sock,
            peer: OrderedMutex::new(ranks::QUIC_PEER, peer),
            established: AtomicBool::new(established),
            broken: AtomicBool::new(false),
            resumed,
            got_traffic: AtomicBool::new(false),
            next_packet_no: AtomicU64::new(first_packet_no),
            unacked: OrderedMutex::new(ranks::QUIC_UNACKED, HashMap::new()),
            queued: OrderedMutex::new(ranks::QUIC_QUEUED, Vec::new()),
            recv: OrderedMutex::new(
                ranks::QUIC_RECV,
                RecvState {
                    seen: HashMap::new(),
                    partial: HashMap::new(),
                },
            ),
            demux,
        })
    }

    /// Buffers one numbered datagram for retransmission until its ack
    /// arrives.
    fn hold_unacked(&self, packet_no: u64, datagram: &[u8], peer: SocketAddr) {
        let now = Instant::now();
        let datagram = datagram.to_vec();
        self.unacked.lock().insert(
            packet_no,
            Unacked {
                datagram,
                peer,
                first_sent: now,
                last_sent: now,
            },
        );
    }

    /// Whether the conn id may be re-cached for a later 0-RTT
    /// resumption: only ids a server demonstrably knows qualify — a
    /// never-established handshake or a resumption that produced no
    /// traffic at all would poison every future reconnect.
    fn resumable(&self) -> bool {
        self.established.load(Ordering::SeqCst)
            && (!self.resumed || self.got_traffic.load(Ordering::SeqCst))
    }

    /// Deduplicates and reassembles one `Data` packet; returns the
    /// completed frame bytes when this packet was the last missing
    /// fragment. `retention` is the sender's give-up horizon: a dedup
    /// entry younger than it may still see a retransmission and MUST
    /// be kept (wire-protocol spec §6.2), older ones are prunable.
    fn accept_data(&self, pkt: Packet, retention: Duration) -> Option<Vec<u8>> {
        let mut recv = self.recv.lock();
        let now = Instant::now();
        if recv.seen.insert(pkt.packet_no, now).is_some() {
            return None; // retransmitted duplicate
        }
        // Bound the dedup map by TIME, never by count: only entries the
        // sender has provably stopped retransmitting are forgotten, so
        // a non-idempotent request can never be executed twice no
        // matter the traffic rate or fragment volume in between.
        if recv.seen.len() > 65_536 {
            recv.seen.retain(|_, seen_at| now - *seen_at < retention);
        }
        if pkt.frag_count == 1 {
            return Some(pkt.payload);
        }
        let key = pkt.packet_no - pkt.frag_index as u64;
        let count = pkt.frag_count as usize;
        // Drop reassemblies that can never complete (their sender gave
        // up retransmitting long ago).
        recv.partial
            .retain(|_, r| r.started.elapsed() < Duration::from_secs(30));
        let r = recv.partial.entry(key).or_insert_with(|| Reassembly {
            parts: vec![None; count],
            got: 0,
            started: Instant::now(),
        });
        if r.parts.len() != count {
            return None; // corrupt: same key, different geometry
        }
        let slot = &mut r.parts[pkt.frag_index as usize];
        if slot.is_none() {
            *slot = Some(pkt.payload);
            r.got += 1;
        }
        if r.got == count {
            let r = recv.partial.remove(&key).expect("entry exists");
            let mut frame = Vec::new();
            for part in r.parts {
                frame.extend_from_slice(&part.expect("all fragments present"));
            }
            Some(frame)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------------
// Packet-level wire state (outlives the transport handle in workers).
// ---------------------------------------------------------------------

/// The half of a socket's [`QuicSource`] that its senders share: the
/// socket itself, and the signal that one of its connections now has a
/// packet awaiting an ack.
struct Sock {
    udp: UdpSocket,
    /// Set while the source owes its connections a retransmission scan
    /// (see [`QuicSource::sweep`] for the disarm protocol).
    armed: AtomicBool,
    inbox: Arc<Inbox<QuicSource>>,
}

impl Sock {
    /// Signals that a packet just entered an unacked buffer. Callers
    /// invoke this AFTER the insert, so the sweep's
    /// disarm-then-scan can never miss it. Only the packet that finds
    /// the source disarmed costs a wake.
    fn arm(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            self.inbox.waker.wake();
        }
    }
}

/// The reliability layer's state. Worker threads hold this (and
/// through it the core's [`Shared`] counters), never the [`Core`]
/// itself, so they keep neither the transport nor the services it owns
/// alive.
struct Wire {
    shared: Arc<Shared>,
    packets_sent: AtomicU64,
    packets_received: AtomicU64,
    retransmits: AtomicU64,
    /// Size of the served socket's connection table after its latest
    /// drain.
    #[cfg(test)]
    serve_table: std::sync::atomic::AtomicUsize,
}

impl Wire {
    /// Sends one datagram, applying drop injection. A dropped datagram
    /// is modelled as lost *in flight* — it stays in its sender's
    /// unacked buffer, so the RTO sweep recovers it (the whole point of
    /// this backend's loss story).
    fn transmit(&self, socket: &UdpSocket, peer: SocketAddr, datagram: &[u8]) {
        if self.shared.roll_drop() {
            return;
        }
        // Count before the send: once the datagram is on the loopback
        // the receiver can run — and a caller can observe the
        // completed exchange — before this thread regains the CPU, so
        // counting after `send_to` undercounts under load. Counting
        // first makes every packet a reader can observe already
        // accounted for (the same charge-at-send discipline the TCP
        // backend uses for wire accounting).
        self.packets_sent.fetch_add(1, Ordering::Relaxed);
        let _ = socket.send_to(datagram, peer);
    }

    /// Fragments one frame into numbered `Data` packets, records them
    /// for retransmission, and transmits each once.
    fn send_frame(&self, conn: &ConnState, frame: Vec<u8>) {
        let chunks: Vec<&[u8]> = frame.chunks(PAYLOAD_MTU).collect();
        let count = chunks.len();
        let base = conn
            .next_packet_no
            .fetch_add(count as u64, Ordering::SeqCst);
        let peer = *conn.peer.lock();
        for (i, chunk) in chunks.into_iter().enumerate() {
            let datagram = encode_packet(
                PacketType::Data,
                conn.conn_id,
                base + i as u64,
                i as u16,
                count as u16,
                chunk,
            );
            conn.hold_unacked(base + i as u64, &datagram, peer);
            self.transmit(&conn.sock.udp, peer, &datagram);
        }
        conn.sock.arm();
    }

    /// Queues the frame if the connection is still handshaking, sends
    /// it otherwise. Returns whether the frame went on the wire now.
    fn send_or_queue(&self, conn: &ConnState, frame: Vec<u8>) -> bool {
        if conn.established.load(Ordering::SeqCst) {
            self.send_frame(conn, frame);
            return true;
        }
        let mut queued = conn.queued.lock();
        // Re-check under the lock: establishment flips the flag while
        // holding it, so a frame is either flushed by the establishing
        // thread or sent here — never stranded.
        if conn.established.load(Ordering::SeqCst) {
            drop(queued);
            self.send_frame(conn, frame);
            true
        } else {
            queued.push(frame);
            false
        }
    }

    /// Completes a handshake: flips the established flag and flushes
    /// every queued frame (see [`Wire::send_or_queue`] for the lock
    /// discipline).
    fn establish(&self, conn: &ConnState) {
        let frames: Vec<Vec<u8>> = {
            let mut queued = conn.queued.lock();
            conn.established.store(true, Ordering::SeqCst);
            queued.drain(..).collect()
        };
        for frame in frames {
            self.send_frame(conn, frame);
        }
    }

    /// Acknowledges one `Data` packet back to its sender.
    fn send_ack(&self, socket: &UdpSocket, peer: SocketAddr, conn_id: u64, packet_no: u64) {
        let ack = encode_packet(PacketType::Ack, conn_id, packet_no, 0, 1, &[]);
        self.transmit(socket, peer, &ack);
    }

    /// How long one end keeps retransmitting an unacknowledged packet
    /// before giving up — by then every caller has long passed its
    /// deadline. Doubles as the dedup-retention horizon on the receive
    /// side: a packet past this age can never legitimately reappear.
    fn give_up_horizon(&self) -> Duration {
        let timeout_us = self.shared.timeout_us.load(Ordering::Relaxed);
        rto(timeout_us) * 2 + Duration::from_micros(2 * timeout_us)
    }

    /// One RTO scan over a socket's connections: retransmits every
    /// packet unacknowledged past the RTO, and gives up on packets
    /// whose caller must long since have abandoned them. Giving up
    /// marks the connection broken — the peer was unreachable for the
    /// whole horizon — so the next checkout replaces it instead of
    /// queueing into the void. Returns when the earliest packet still
    /// unacknowledged next falls due.
    fn retransmit_due<'a>(
        &self,
        conns: impl Iterator<Item = &'a Arc<ConnState>>,
    ) -> Option<Instant> {
        let rto = rto(self.shared.timeout_us.load(Ordering::Relaxed));
        let give_up = self.give_up_horizon();
        let mut next_due: Option<Instant> = None;
        for conn in conns {
            let mut due: Vec<(SocketAddr, Vec<u8>)> = Vec::new();
            {
                let mut unacked = conn.unacked.lock();
                let before = unacked.len();
                unacked.retain(|_, u| u.first_sent.elapsed() < give_up);
                if unacked.len() < before {
                    conn.broken.store(true, Ordering::SeqCst);
                }
                let now = Instant::now();
                for u in unacked.values_mut() {
                    if now.duration_since(u.last_sent) >= rto {
                        u.last_sent = now;
                        due.push((u.peer, u.datagram.clone()));
                    }
                    let at = u.last_sent + rto;
                    next_due = Some(next_due.map_or(at, |d| d.min(at)));
                }
            }
            for (peer, datagram) in due {
                self.retransmits.fetch_add(1, Ordering::Relaxed);
                self.transmit(&conn.sock.udp, peer, &datagram);
            }
        }
        next_due
    }
}

// ---------------------------------------------------------------------
// The transport handle and its binding.
// ---------------------------------------------------------------------

/// What a closed connection leaves behind for 0-RTT resumption: the
/// conn id the server already knows, and where its packet numbering
/// left off (the server's dedup set has seen everything below).
struct ResumeTicket {
    conn_id: u64,
    next_packet_no: u64,
}

/// Conn id → connection: how the client socket's source routes what it
/// receives.
type Routes = Arc<OrderedMutex<HashMap<u64, Arc<ConnState>>>>;

/// The client side: one socket multiplexing every outgoing connection.
struct ClientSide {
    sock: Arc<Sock>,
    /// Destination endpoint → live connection.
    conns: HashMap<EndpointId, Arc<ConnState>>,
    by_conn_id: Routes,
}

/// The handle-owned datagram state.
pub(crate) struct QuicState {
    /// High bits of every conn id this transport mints, so two
    /// transports (differently seeded) talking to one server do not
    /// collide.
    conn_nonce: u64,
    next_conn: AtomicU64,
    /// 0-RTT resumption cache: destination endpoint → ticket.
    resume: OrderedMutex<HashMap<EndpointId, ResumeTicket>>,
    client: OrderedMutex<Option<ClientSide>>,
    wire: Arc<Wire>,
}

/// [`Transport`] over QUIC-inspired reliable datagrams (see module
/// docs).
///
/// Cheap to clone (shared handle), usually passed around as
/// `Arc<dyn Transport>` via [`QuicLiteTransport::shared`].
#[derive(Clone)]
pub struct QuicLiteTransport {
    inner: Arc<Core<QuicLiteTransport>>,
}

impl QuicLiteTransport {
    /// Creates a transport. `seed` drives the drop-injection RNG and
    /// the conn-id nonce.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let conn_nonce = (rng.gen::<u32>() as u64) << 32;
        let shared = Shared::new(rng);
        let state = QuicState {
            conn_nonce,
            next_conn: AtomicU64::new(1),
            resume: OrderedMutex::new(ranks::QUIC_RESUME, HashMap::new()),
            client: OrderedMutex::new(ranks::QUIC_CLIENT, None),
            wire: Arc::new(Wire {
                shared: shared.clone(),
                packets_sent: AtomicU64::new(0),
                packets_received: AtomicU64::new(0),
                retransmits: AtomicU64::new(0),
                #[cfg(test)]
                serve_table: Default::default(),
            }),
        };
        Self {
            inner: Core::new(shared, state, LOOP_THREADS),
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

    /// Responses discarded because their correlation id matched no
    /// in-flight request (late responses after a timeout).
    pub fn orphan_responses(&self) -> u64 {
        self.inner.shared.orphans.load(Ordering::Relaxed)
    }

    /// Packet-level counters (see module docs on accounting).
    pub fn quic_stats(&self) -> QuicStats {
        let wire = &self.inner.state.wire;
        QuicStats {
            packets_sent: wire.packets_sent.load(Ordering::Relaxed),
            packets_received: wire.packets_received.load(Ordering::Relaxed),
            retransmits: wire.retransmits.load(Ordering::Relaxed),
        }
    }

    /// Data/handshake packets re-sent on an RTO deadline so far.
    pub fn retransmits(&self) -> u64 {
        self.inner.state.wire.retransmits.load(Ordering::Relaxed)
    }
}

impl QuicState {
    /// Tears down the live connection toward `to` (modelling an idle
    /// timeout or an application-level reconnect) while keeping its
    /// conn id in the 0-RTT resumption cache: the next call to `to`
    /// reconnects without a handshake round. In-flight calls on the old
    /// connection are abandoned to their deadlines.
    fn close_connections(&self, to: EndpointId) {
        if let Some(client) = self.client.lock().as_mut() {
            self.retire_conn(client, to);
        }
    }

    /// Removes the live connection toward `to`, caching its conn id
    /// for 0-RTT resumption. Only a conn id the server demonstrably
    /// knows is cached; an unestablished handshake or a resumption the
    /// server never answered would poison every future reconnect.
    fn retire_conn(&self, client: &mut ClientSide, to: EndpointId) {
        let Some(conn) = client.conns.remove(&to) else {
            return;
        };
        client.by_conn_id.lock().remove(&conn.conn_id);
        if conn.resumable() {
            self.resume.lock().insert(
                to,
                ResumeTicket {
                    conn_id: conn.conn_id,
                    next_packet_no: conn.next_packet_no.load(Ordering::SeqCst),
                },
            );
        }
    }
}

impl Core<QuicLiteTransport> {
    /// Binds a loopback socket and places it on the event loop as
    /// `side`'s source.
    fn open(&self, side: Side) -> Arc<Sock> {
        let udp = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback UDP socket");
        udp.set_nonblocking(true).expect("non-blocking UDP socket");
        let inbox = self.event_loop.pick().clone();
        let sock = Arc::new(Sock {
            udp,
            armed: AtomicBool::new(false),
            inbox: inbox.clone(),
        });
        inbox.push(QuicSource {
            sock: sock.clone(),
            wire: self.state.wire.clone(),
            next_scan: None,
            side,
        });
        sock
    }

    /// Checks out (or creates) the connection toward `to`. A fresh
    /// connection resumes from the 0-RTT cache when the server already
    /// knows a conn id for us; otherwise it pays the `Init` handshake
    /// round.
    fn obtain_conn(&self, to: EndpointId, addr: SocketAddr) -> (Arc<ConnState>, Arc<Demux>) {
        let state = &self.state;
        let mut guard = state.client.lock();
        let client = guard.get_or_insert_with(|| {
            let by_conn_id: Routes =
                Arc::new(OrderedMutex::new(ranks::QUIC_BY_CONN_ID, HashMap::new()));
            ClientSide {
                sock: self.open(Side::Client(by_conn_id.clone())),
                conns: HashMap::new(),
                by_conn_id,
            }
        });
        if let Some(conn) = client.conns.get(&to) {
            if !conn.broken.load(Ordering::SeqCst) {
                let demux = conn.demux.clone().expect("client conns have a demux");
                return (conn.clone(), demux);
            }
            // The RTO sweep gave up on this connection (peer
            // unreachable for the whole horizon): replace it instead of
            // queueing more frames into the void — the datagram
            // analogue of the TCP pool pruning stalled connections.
            state.retire_conn(client, to);
        }
        let wire = &state.wire;
        let demux = Arc::new(Demux::new(wire.shared.orphans.clone()));
        let resumed = state.resume.lock().remove(&to);
        let (conn, init) = match resumed {
            // 0-RTT: the server knows this conn id; skip the handshake
            // and continue the packet numbering where it left off (the
            // server's dedup set has seen everything below).
            Some(ticket) => (
                ConnState::new(
                    ticket.conn_id,
                    client.sock.clone(),
                    addr,
                    true,
                    true,
                    ticket.next_packet_no,
                    Some(demux.clone()),
                ),
                None,
            ),
            None => {
                let conn_id = state.conn_nonce | state.next_conn.fetch_add(1, Ordering::Relaxed);
                let conn = ConnState::new(
                    conn_id,
                    client.sock.clone(),
                    addr,
                    false,
                    false,
                    0,
                    Some(demux.clone()),
                );
                // The Init packet rides the reliability machinery like
                // any other: numbered, buffered, RTO-retransmitted. Its
                // InitAck doubles as its acknowledgement. Built here,
                // transmitted only AFTER the conn is routable below —
                // on loopback the InitAck can arrive faster than two
                // map inserts, and an unroutable ack would cost a full
                // RTO to recover.
                let no = conn.next_packet_no.fetch_add(1, Ordering::SeqCst);
                let datagram = encode_packet(PacketType::Init, conn_id, no, 0, 1, &[]);
                conn.hold_unacked(no, &datagram, addr);
                (conn, Some(datagram))
            }
        };
        client.by_conn_id.lock().insert(conn.conn_id, conn.clone());
        client.conns.insert(to, conn.clone());
        if let Some(datagram) = init {
            wire.transmit(&conn.sock.udp, addr, &datagram);
            // The Init sits unacked until its InitAck: its source must
            // know to watch it.
            conn.sock.arm();
        }
        (conn, demux)
    }
}

/// What one QuicLite call in flight keeps beyond the core's cell.
pub(crate) struct QuicFlight {
    conn: Arc<ConnState>,
    /// Whether the frame was transmitted at submit time (false while
    /// the handshake was still pending — it may have been flushed
    /// since; the conn's established flag is the tiebreaker at claim
    /// time).
    sent_now: bool,
}

impl Binding for QuicLiteTransport {
    const KIND: &'static str = "quiclite";
    const DISPATCH_WORKERS: usize = SERVE_POOL;
    type State = QuicState;
    type Source = QuicSource;
    type Conns = ();
    type Flight = QuicFlight;
    type Sink = Reply;

    fn core(&self) -> &Arc<Core<Self>> {
        &self.inner
    }

    fn serve(core: &Core<Self>, served: Served<Reply>) -> SocketAddr {
        let sock = core.open(Side::Serve(ServeSock {
            served,
            conns: HashMap::new(),
            next_evict: Instant::now() + EVICT_EVERY,
        }));
        sock.udp.local_addr().expect("socket has an address")
    }

    fn send(core: &Arc<Core<Self>>, out: Outgoing) -> Result<Sent<Self>, NetError> {
        let (conn, demux) = core.obtain_conn(out.to, out.addr);
        let cell = demux.register(out.corr);
        let sent_now = core.state.wire.send_or_queue(&conn, out.frame);
        Ok(Sent {
            cell,
            demux,
            flight: QuicFlight { conn, sent_now },
        })
    }

    fn failed(
        call: SocketPending<Self>,
        failure: Option<(io::Error, bool)>,
    ) -> Result<Transfer, NetError> {
        // The request frame hit the wire iff the handshake completed
        // (queued frames flush exactly at establishment); if it did,
        // its bytes were spent and are charged even though the call
        // failed.
        let flight = &call.sent.flight;
        if flight.sent_now || flight.conn.established.load(Ordering::SeqCst) {
            call.core.charge_tx(call.from, call.to, call.bytes_sent);
        }
        if let Some((e, _)) = failure {
            return Err(NetError::Connection(e.to_string()));
        }
        if call.down.load(Ordering::Relaxed) {
            Err(NetError::EndpointDown(call.to))
        } else {
            Err(NetError::Timeout)
        }
    }

    fn cut(core: &Core<Self>, id: EndpointId, (): ()) {
        // Drop the live connection toward it (a revived server is
        // re-approached over a resumed connection); in-flight calls
        // are abandoned to their deadlines, as with a crashed process.
        core.state.close_connections(id);
    }
}

// ---------------------------------------------------------------------
// The sockets on the event loop.
// ---------------------------------------------------------------------

/// The way back to a requester: the connection to answer on (reliable,
/// fragmented) and the served endpoint id the response frame carries.
pub(crate) struct Reply {
    wire: Arc<Wire>,
    conn: Arc<ConnState>,
    me: u64,
}

impl ReplySink for Reply {
    fn reply(self, corr: u64, response: Option<Vec<u8>>) {
        // A panicking request is answered with silence (the caller
        // times out): a datagram transport has no connection to cut.
        let Some(response) = response else { return };
        if let Ok(frame) = encode_frame(EndpointId(self.me), corr, &response) {
            self.wire.send_frame(&self.conn, frame);
        }
    }
}

/// One served endpoint's per-connection state, owned by the loop
/// thread (single-threaded access: no locks). The table maps a conn id
/// to the server's end of it and when the client was last heard from,
/// and is bounded by idle eviction: conns silent past the generous
/// idle horizon are dropped every [`EVICT_EVERY`] of a socket seeing
/// traffic, so a long-lived server with client churn holds state for
/// recent clients only (an evicted client's next resumption misses,
/// breaks, and falls back to a cold handshake). Only a handshake adds
/// an entry; datagrams under unregistered conn ids leave no trace.
struct ServeSock {
    served: Served<Reply>,
    conns: HashMap<u64, (Arc<ConnState>, Instant)>,
    next_evict: Instant,
}

/// Which end of the transport a socket is.
enum Side {
    /// The shared client socket, routing by conn id.
    Client(Routes),
    /// A served endpoint's socket.
    Serve(ServeSock),
}

/// One UDP socket on the event loop: it drains the socket on
/// readiness — handling handshakes and acks inline, completing
/// responses by correlation id (client side) or handing reassembled
/// request frames to the dispatch pool (serve side) — and, from the
/// sweep, retransmits for the connections that send through it.
pub(crate) struct QuicSource {
    sock: Arc<Sock>,
    wire: Arc<Wire>,
    /// When the armed source next scans its connections' unacked
    /// buffers.
    next_scan: Option<Instant>,
    side: Side,
}

impl Source for QuicSource {
    fn interest(&self) -> Option<PollFd> {
        Some(PollFd::new(self.sock.udp.as_raw_fd(), POLLIN))
    }

    /// Decodes datagrams until the socket would block.
    fn ready(&mut self, _ready: PollFd, _el: &Arc<EventLoop<Self>>) {
        let mut buf = [0u8; 2048];
        loop {
            let (n, src) = match self.sock.udp.recv_from(&mut buf) {
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // drained, or transient: the sender retransmits
            };
            let Ok(pkt) = decode_packet(&buf[..n]) else {
                continue; // corrupt datagram: dropped, sender retransmits
            };
            self.wire.packets_received.fetch_add(1, Ordering::Relaxed);
            match &mut self.side {
                Side::Client(routes) => {
                    let conn = routes.lock().get(&pkt.conn_id).cloned();
                    if let Some(conn) = conn {
                        client_packet(&self.wire, &conn, src, pkt);
                    }
                }
                Side::Serve(s) => s.packet(&self.wire, &self.sock, src, pkt),
            }
        }
        #[cfg(test)]
        if let Side::Serve(s) = &self.side {
            self.wire.serve_table.store(s.conns.len(), Ordering::SeqCst);
        }
    }

    /// Evicts idle served conns on a time basis, then runs the RTO:
    /// while armed, scan every connection sending through this socket
    /// when the earliest unacknowledged packet falls due (no sooner
    /// than [`RTO_TICK`] after the last scan), and name that instant
    /// as the loop's deadline.
    fn sweep(&mut self, now: Instant) -> Sweep {
        if let Side::Serve(s) = &mut self.side {
            if now >= s.next_evict {
                s.conns
                    .retain(|_, (_, seen)| now.duration_since(*seen) < SERVER_CONN_IDLE);
                s.next_evict = now + EVICT_EVERY;
            }
        }
        if !self.sock.armed.load(Ordering::SeqCst) {
            return Sweep::Idle;
        }
        if let Some(at) = self.next_scan.filter(|at| now < *at) {
            return Sweep::Due(at);
        }
        // Disarm BEFORE scanning: a sender whose packet the scan missed
        // finds the flag clear, sets it and wakes the loop.
        self.sock.armed.store(false, Ordering::SeqCst);
        let next_due = match &self.side {
            Side::Client(routes) => {
                let conns: Vec<Arc<ConnState>> = routes.lock().values().cloned().collect();
                self.wire.retransmit_due(conns.iter())
            }
            Side::Serve(s) => self.wire.retransmit_due(s.conns.values().map(|(c, _)| c)),
        };
        self.next_scan = next_due.map(|at| at.max(now + RTO_TICK));
        match self.next_scan {
            Some(at) => {
                self.sock.armed.store(true, Ordering::SeqCst);
                Sweep::Due(at)
            }
            None => Sweep::Idle,
        }
    }
}

/// One datagram for a client connection.
fn client_packet(wire: &Wire, conn: &ConnState, src: SocketAddr, pkt: Packet) {
    // Any traffic at all proves the server speaks this conn id — the
    // evidence the resumption cache needs.
    conn.got_traffic.store(true, Ordering::SeqCst);
    match pkt.ptype {
        PacketType::InitAck => {
            conn.unacked.lock().remove(&pkt.packet_no);
            wire.establish(conn);
        }
        PacketType::Ack => {
            conn.unacked.lock().remove(&pkt.packet_no);
        }
        PacketType::Data => {
            wire.send_ack(&conn.sock.udp, src, pkt.conn_id, pkt.packet_no);
            if let Some(frame_bytes) = conn.accept_data(pkt, wire.give_up_horizon()) {
                if let Ok(frame) = read_frame(&mut &frame_bytes[..]) {
                    if let Some(demux) = &conn.demux {
                        demux.complete(frame.correlation, Ok(frame.payload));
                    }
                }
            }
        }
        PacketType::Init => {} // client side never serves
    }
}

impl ServeSock {
    /// One datagram for a served endpoint: answer handshakes and acks
    /// inline, dispatch complete request frames.
    fn packet(&mut self, wire: &Arc<Wire>, sock: &Arc<Sock>, src: SocketAddr, pkt: Packet) {
        let now = Instant::now();
        if pkt.ptype == PacketType::Init {
            // Register the connection if it is new; a duplicate Init
            // (a lost InitAck) is answered idempotently below.
            self.conns.entry(pkt.conn_id).or_insert_with(|| {
                let conn = ConnState::new(pkt.conn_id, sock.clone(), src, true, false, 0, None);
                (conn, now)
            });
        }
        // Anything under an unregistered conn id is dropped, unstamped:
        // without the handshake (or a resumption ticket minted by one)
        // the server does not speak to you. The client's RTO keeps
        // retrying until its deadline.
        let Some((conn, seen)) = self.conns.get_mut(&pkt.conn_id) else {
            return;
        };
        *seen = now;
        match pkt.ptype {
            PacketType::Init => {
                *conn.peer.lock() = src;
                let ack = encode_packet(PacketType::InitAck, pkt.conn_id, pkt.packet_no, 0, 1, &[]);
                wire.transmit(&sock.udp, src, &ack);
            }
            PacketType::Data => {
                *conn.peer.lock() = src;
                wire.send_ack(&sock.udp, src, pkt.conn_id, pkt.packet_no);
                if let Some(frame_bytes) = conn.accept_data(pkt, wire.give_up_horizon()) {
                    if self.served.down.load(Ordering::Relaxed) {
                        return; // a crashed process answers nothing
                    }
                    if let Ok(frame) = read_frame(&mut &frame_bytes[..]) {
                        let reply = Reply {
                            wire: wire.clone(),
                            conn: conn.clone(),
                            me: self.served.me,
                        };
                        // A shed reply rides the ordinary reliable-send
                        // path; `false` means the transport is
                        // unwinding and nothing is left to answer.
                        let _ = self.served.admit(frame, reply);
                    }
                }
            }
            PacketType::Ack => {
                conn.unacked.lock().remove(&pkt.packet_no);
            }
            PacketType::InitAck => {} // server side never dials
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{CallHandle, OverloadPolicy};
    use openflame_codec::framing::FRAME_HEADER_LEN;
    use std::thread;

    fn echo_transport() -> (QuicLiteTransport, EndpointId, EndpointId) {
        let transport = QuicLiteTransport::new(7);
        let server = transport.register("echo", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
        );
        let client = transport.register("client", None);
        (transport, client, server)
    }

    #[test]
    fn echo_round_trip_over_real_datagrams() {
        let (transport, client, server) = echo_transport();
        let transfer = transport.call(client, server, vec![1, 2, 3]).unwrap();
        assert_eq!(transfer.payload, vec![1, 2, 3]);
        assert_eq!(transfer.bytes_sent, 3 + FRAME_HEADER_LEN as u64);
        let stats = transport.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 2 * (3 + FRAME_HEADER_LEN as u64));
        let q = transport.quic_stats();
        assert!(q.packets_sent >= 4, "init + init-ack + data + response");
    }

    #[test]
    fn pipelined_submits_multiplex_one_socket() {
        let (transport, client, server) = echo_transport();
        let mut set = Vec::new();
        for i in 0..32u8 {
            set.push(transport.submit(client, server, vec![i]));
        }
        for (i, result) in set.into_iter().map(CallHandle::wait).enumerate() {
            assert_eq!(result.unwrap().payload, vec![i as u8]);
        }
        assert_eq!(transport.orphan_responses(), 0);
        assert_eq!(transport.stats().messages, 64);
    }

    #[test]
    fn worker_threads_do_not_grow_with_call_volume() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![0]).unwrap();
        let after_first = transport.worker_threads();
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
            "datagram calls must not spawn per-call threads"
        );
        // The event loop + SERVE_POOL workers.
        assert_eq!(after_first, LOOP_THREADS + SERVE_POOL);
    }

    #[test]
    fn serve_side_threads_are_constant_and_rto_timer_is_lazy() {
        let transport = QuicLiteTransport::new(7);
        let client = transport.register("client", None);
        let mut servers = Vec::new();
        for i in 0..12 {
            let id = transport.register(&format!("srv-{i}"), None);
            transport.set_service(
                id,
                Arc::new(|_from: EndpointId, payload: &[u8]| payload.to_vec()),
            );
            servers.push(id);
        }
        // Serving any number of endpoints costs the event loop plus
        // the dispatch pool.
        assert_eq!(transport.worker_threads(), LOOP_THREADS + SERVE_POOL);
        for &server in &servers {
            transport.call(client, server, vec![9]).unwrap();
        }
        // The client socket and the RTO deadlines its packets armed
        // live on the same loop; nothing scales with endpoint count.
        assert_eq!(transport.worker_threads(), LOOP_THREADS + SERVE_POOL);
    }

    #[test]
    fn over_mtu_batch_round_trips_via_fragmentation() {
        let (transport, client, server) = echo_transport();
        // Several MTUs in both directions (the echo doubles the test).
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let transfer = transport.call(client, server, payload.clone()).unwrap();
        assert_eq!(transfer.payload, payload, "fragments reassemble in order");
        assert!(
            transport.quic_stats().packets_sent as usize > 2 * (payload.len() / PAYLOAD_MTU),
            "the frame must really have been fragmented"
        );
        assert_eq!(transport.stats().messages, 2, "still one logical exchange");
    }

    #[test]
    fn zero_rtt_reconnect_costs_fewer_packets_than_cold_connect() {
        let (transport, client, server) = echo_transport();
        // Cold connect: Init + InitAck ride ahead of the data exchange
        // (6 packets minimum: handshake pair + data/ack each way).
        transport.call(client, server, vec![1]).unwrap();
        let cold = transport.quic_stats().packets_sent;
        assert!(cold >= 6, "cold connect pays the handshake: {cold}");
        // Idle teardown; the conn id stays in the resumption cache.
        // A resumed reconnect needs only data + ack each way — 4
        // packets. Scheduler stalls under a loaded test host can add
        // spurious retransmits to any single attempt, so take the
        // minimum over a few reconnects: the 0-RTT saving must show.
        let mut best = u64::MAX;
        for i in 0..5u8 {
            transport.inner.state.close_connections(server);
            let before = transport.quic_stats().packets_sent;
            transport.call(client, server, vec![2, i]).unwrap();
            best = best.min(transport.quic_stats().packets_sent - before);
        }
        assert!(
            best < cold,
            "0-RTT reconnect ({best} packets) must beat the cold connect ({cold})"
        );
        assert!(best >= 4, "resumed exchange floor: {best}");
    }

    #[test]
    fn injected_datagram_loss_is_recovered_by_retransmission() {
        let (transport, client, server) = echo_transport();
        // Warm the connection so the loss hits data packets, then drop
        // a third of all datagrams. Every loss must be repaired by the
        // RTO timer well below the (default 2 s) call deadline.
        transport.call(client, server, vec![0]).unwrap();
        transport.set_drop_probability(0.3);
        // A multi-fragment payload gives the drop injection dozens of
        // independent chances per call; a handful of calls makes a
        // zero-retransmit run astronomically unlikely.
        let payload: Vec<u8> = vec![7; 8_000];
        let mut calls = 0;
        while transport.retransmits() == 0 && calls < 5 {
            let transfer = transport
                .call(client, server, payload.clone())
                .expect("loss below the timeout must be recovered, not surfaced");
            assert_eq!(transfer.payload, payload);
            calls += 1;
        }
        assert!(
            transport.retransmits() > 0,
            "recovery must have used retransmission"
        );
        assert!(transport.stats().drops > 0, "losses really were injected");
        transport.set_drop_probability(0.0);
        assert!(transport.call(client, server, vec![9]).is_ok());
    }

    #[test]
    fn total_loss_times_out_and_charges_the_sent_request() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![1]).unwrap();
        transport.reset_stats();
        transport.set_drop_probability(1.0);
        transport.set_timeout_us(80_000);
        let err = transport.call(client, server, vec![2, 3]).unwrap_err();
        assert!(matches!(err, NetError::Timeout));
        // The request frame was put on the send path: its bytes are
        // charged even though the call failed (wire-accounting rule
        // shared with the TCP backend).
        let stats = transport.stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, 2 + FRAME_HEADER_LEN as u64);
        assert!(stats.drops > 0);
        let ep = transport.endpoint_stats(client).unwrap();
        assert_eq!(ep.tx_msgs, 1);
        assert_eq!(ep.rx_msgs, 0, "no response ever arrived");
        transport.set_drop_probability(0.0);
        transport.set_timeout_us(2_000_000);
        assert!(transport.call(client, server, vec![4]).is_ok());
    }

    #[test]
    fn failed_handshake_connection_is_replaced_not_wedged() {
        let (transport, client, server) = echo_transport();
        // Total loss during the COLD connect: the Init never gets
        // through, the call times out, and after the give-up horizon
        // the RTO timer abandons the handshake and marks the
        // connection broken.
        transport.set_timeout_us(100_000);
        transport.set_drop_probability(1.0);
        assert!(matches!(
            transport.call(client, server, vec![1]),
            Err(NetError::Timeout)
        ));
        // Past give-up (~2*RTO + 2*timeout = ~225 ms at this setting).
        thread::sleep(Duration::from_millis(400));
        // Loss lifts: the next call must NOT queue into the dead
        // handshake forever — the broken conn is replaced by a fresh
        // dial and the endpoint works again.
        transport.set_drop_probability(0.0);
        assert_eq!(
            transport.call(client, server, vec![2]).unwrap().payload,
            [2],
            "endpoint wedged behind a failed handshake"
        );
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
    fn slow_request_does_not_block_pipelined_fast_requests() {
        let transport = QuicLiteTransport::new(7);
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
        transport.call(client, server, vec![0]).unwrap();
        let t0 = Instant::now();
        let slow = transport.submit(client, server, vec![1]);
        let mut fast = Vec::new();
        for i in 0..8u8 {
            fast.push(transport.submit(client, server, vec![0, i]));
        }
        for (i, result) in fast.into_iter().map(CallHandle::wait).enumerate() {
            assert_eq!(result.unwrap().payload, vec![0, i as u8]);
        }
        assert!(
            t0.elapsed() < Duration::from_millis(300),
            "fast requests waited on the slow one: {:?}",
            t0.elapsed()
        );
        assert_eq!(slow.wait().unwrap().payload, vec![1]);
        assert!(t0.elapsed() >= Duration::from_millis(400));
        assert_eq!(transport.orphan_responses(), 0);
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
    fn unregistered_conn_ids_leave_no_trace_on_a_served_socket() {
        let (transport, client, server) = echo_transport();
        let addr = transport.listen_addr(server).unwrap();
        let stranger = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        // 10 000 datagrams under conn ids no handshake ever registered,
        // interleaved with a live client: each call queues behind its
        // round's strays on the served socket, so by the time it
        // returns they have been through the decode path.
        for round in 0..100u64 {
            for i in 0..100 {
                let conn_id = 0xDEAD_0000_0000 + round * 100 + i;
                let stray = encode_packet(PacketType::Data, conn_id, 0, 0, 1, &[1]);
                stranger.send_to(&stray, addr).unwrap();
            }
            let echoed = transport.call(client, server, vec![round as u8]).unwrap();
            assert_eq!(echoed.payload, [round as u8]);
        }
        assert_eq!(
            transport
                .inner
                .state
                .wire
                .serve_table
                .load(Ordering::SeqCst),
            1,
            "only the handshaken client may hold serve-side state"
        );
    }

    #[test]
    fn dropping_the_transport_unwinds_every_worker() {
        let (transport, client, server) = echo_transport();
        transport.call(client, server, vec![1]).unwrap();
        let gauge = transport.inner.shared.threads.clone();
        assert!(gauge.load(Ordering::SeqCst) > 0);
        drop(transport);
        // The drop wakes the event loop, whose exit releases the
        // sockets and the service and with them the dispatch pool.
        let t0 = Instant::now();
        while gauge.load(Ordering::SeqCst) > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "{} workers still alive after drop",
                gauge.load(Ordering::SeqCst)
            );
            thread::sleep(Duration::from_millis(10));
        }
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
        let transport = QuicLiteTransport::new(7);
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
        // 48 requests at 100 ms on 4 workers would be ~1.2 s fully
        // queued; shedding bounds the tail by the admitted depth.
        assert!(
            elapsed < Duration::from_millis(700),
            "saturation wedged the dispatch queue: {elapsed:?}"
        );
        assert!(
            transport.dispatch_depth(server) <= 4,
            "admitted depth exceeded the policy cap"
        );
    }

    #[test]
    fn hot_principal_is_shed_before_quiet_one() {
        let transport = QuicLiteTransport::new(7);
        let server = transport.register("slow", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(80));
                payload.to_vec()
            }),
        );
        // max_depth 8 → per-principal cap 4.
        transport.set_overload_policy(server, Some(test_policy(8)));
        let hot = transport.register("hot", None);
        let quiet = transport.register("quiet", None);
        let mut hot_set = Vec::new();
        for i in 0..24u8 {
            hot_set.push(transport.submit(hot, server, vec![1, i]));
        }
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
    fn shed_plus_vanished_requester_releases_every_admission_slot() {
        // Regression for the leaked-slot wedge: flood a tiny admission
        // queue with a service that panics on half the requests (the
        // datagram analogue of a requester that will never read its
        // answer), then verify the gauge drains to zero and a
        // well-behaved caller is served, not shed forever.
        let transport = QuicLiteTransport::new(7);
        let server = transport.register("flaky", None);
        transport.set_service(
            server,
            Arc::new(|_from: EndpointId, payload: &[u8]| {
                thread::sleep(Duration::from_millis(30));
                assert_ne!(payload.get(1), Some(&1), "injected service bug");
                payload.to_vec()
            }),
        );
        transport.set_overload_policy(server, Some(test_policy(2)));
        let client = transport.register("client", None);
        transport.set_timeout_us(300_000);
        let mut set = Vec::new();
        for i in 0..16u8 {
            // Odd requests panic the service (answered with silence).
            set.push(transport.submit(client, server, vec![i, i % 2]));
        }
        // Some complete, some time out (panicked ones): either way the
        // workers must have released every admitted slot.
        for handle in set {
            let _ = handle.wait();
        }
        thread::sleep(Duration::from_millis(200));
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
            "admission slots leaked across panics/timeouts"
        );
        transport.set_timeout_us(2_000_000);
        let transfer = transport
            .call(client, server, vec![9, 0])
            .expect("endpoint must still answer after the flood");
        assert!(
            !is_busy(&transfer.payload),
            "leaked admission slots left the endpoint shedding forever"
        );
    }

    #[test]
    fn dispatch_depth_high_water_and_shed_reset_with_stats() {
        let transport = QuicLiteTransport::new(7);
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
    fn clock_is_monotonic_wall_time() {
        let transport = QuicLiteTransport::new(1);
        let t0 = transport.now_us();
        thread::sleep(Duration::from_millis(2));
        assert!(transport.now_us() > t0);
        transport.advance_us(1_000_000); // no-op by contract
        assert!(transport.now_us() < 60_000_000);
    }
}
