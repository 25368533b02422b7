//! The global lock-rank table.
//!
//! One table for the whole workspace: a thread may only acquire a lock
//! whose rank is strictly greater than every rank it already holds.
//! Lower rank = outer lock (acquired first); higher rank = inner lock
//! (leaf). The bands, lowest to highest:
//!
//! - **0–99 — application layer.** Session/discovery/resolver/server
//!   state. Application code calls *into* the transports (and, on the
//!   sim backend, server handlers run inline on the caller's thread),
//!   so everything here must rank below every transport lock.
//! - **100–299 — netsim: the simulator, the socket core and its two
//!   bindings.** The socket core's locks (`netsim.net.*`) are shared by
//!   the TCP and QuicLite bindings, so their ranks bracket both
//!   bindings' own: the core's outer locks (`source`, `endpoints`) sit
//!   below every per-connection lock, its leaf locks (`rng`, `stats`,
//!   `dispatch_queue`, `demux`, `completion`) above them all. A pool
//!   thread holds a `source` across that source's read and sweep,
//!   which take the binding's connection locks and, to register or
//!   retire a source, `dispatch_queue`. The chains that really nest — TCP: `endpoints` is held
//!   while consulting a connection's demux (`obtain_conn`), a
//!   connection's `out` queue while marking frames sent in the demux
//!   (`flush`), its `rx` decoder while the reader completes
//!   responses or kills the connection (`read_until`). QuicLite:
//!   `client` is its outermost lock —
//!   `obtain_conn` holds it across conn-id routing, the resume cache,
//!   the unacked buffer, transmit (`rng`/`stats`) and registering the
//!   client socket on the event loop (`dispatch_queue`).
//! - **300+ — the dispatch gauge.** Admission-control state is
//!   consulted from the socket core's serve path, sometimes while the
//!   `endpoints` table is held, never the other way around.
//!
//! The prose version of this table (with the invariants each ordering
//! protects) lives in `docs/wire-protocol.md` Appendix A. Keep the two
//! in sync.

use crate::Rank;

// ----------------------------------------------------------------
// Application band (0–99).
// ----------------------------------------------------------------

/// Session discovery cache.
pub const SESSION_DISCOVERIES: Rank = Rank::new(22, "core.session.discoveries");
/// Session per-endpoint cache: each endpoint's advertisement (coverage
/// extent included) or dead mark.
pub const SESSION_HELLOS: Rank = Rank::new(24, "core.session.hellos");
/// Session tile-layer cache: per tile coordinate, the runs each server
/// last sent.
pub const SESSION_TILES: Rank = Rank::new(25, "core.session.tiles");
/// Session statistics.
pub const SESSION_STATS: Rank = Rank::new(26, "core.session.stats");
/// Discovery statistics.
pub const DISCOVERY_STATS: Rank = Rank::new(30, "core.discovery.stats");
/// DNS resolver referral/record cache.
pub const RESOLVER_CACHE: Rank = Rank::new(40, "dns.resolver.cache");
/// DNS resolver statistics.
pub const RESOLVER_STATS: Rank = Rank::new(42, "dns.resolver.stats");
/// Authoritative DNS server zone set.
pub const DNS_ZONES: Rank = Rank::new(50, "dns.server.zones");
/// Map-server engine state (rwlock; read on every request).
pub const MAPSERVER_ENGINES: Rank = Rank::new(60, "mapserver.engines");
/// Tile render cache (taken inside engine reads).
pub const TILE_CACHE: Rank = Rank::new(70, "tiles.render_cache");

// ----------------------------------------------------------------
// Netsim band (100–299): simulator, socket core, TCP and QuicLite
// bindings.
// ----------------------------------------------------------------

/// The simulated network's single state lock (never held across a
/// service invocation).
pub const SIM_NET: Rank = Rank::new(100, "netsim.sim.state");

// The socket core (shared by both bindings).

/// One event-loop source: held by the pool thread running it, across
/// its read, sweep and re-arm (never across a request).
pub const NET_SOURCE: Rank = Rank::new(120, "netsim.net.source");
/// Socket-core endpoint book (TCP holds it while consulting a conn's
/// demux).
pub const NET_ENDPOINTS: Rank = Rank::new(130, "netsim.net.endpoints");
/// Socket-core failure-injection rng (QuicLite rolls it per datagram,
/// under its client lock).
pub const NET_RNG: Rank = Rank::new(240, "netsim.net.rng");
/// Socket-core global wire statistics.
pub const NET_STATS: Rank = Rank::new(242, "netsim.net.stats");
/// The event loop's pool: its overflow queue of admitted requests, its
/// waiter and parked counts and its source registry (paired with the
/// condvar parked threads wait on; QuicLite registers its client socket
/// under its client lock, a listener its accepted connections under
/// its source lock).
pub const NET_DISPATCH_QUEUE: Rank = Rank::new(252, "netsim.net.dispatch_queue");
/// A connection's correlation demux.
pub const NET_DEMUX: Rank = Rank::new(254, "netsim.net.demux");
/// A call's completion cell (leaf; paired with its condvar).
pub const NET_COMPLETION: Rank = Rank::new(260, "netsim.net.completion");

// The TCP binding.

/// A TCP client connection's response decoder (held by the reader-token
/// holder, which kills the connection under it on a read error).
pub const TCP_CONN_RX: Rank = Rank::new(136, "netsim.tcp.conn_rx");
/// A TCP client connection's outgoing frame queue (held while marking
/// frames sent in the demux).
pub const TCP_CONN_OUT: Rank = Rank::new(140, "netsim.tcp.conn_out");
/// A served TCP connection's write side (held across the reply write by
/// the answering worker or the loop).
pub const TCP_SERVE_DONE: Rank = Rank::new(146, "netsim.tcp.serve_done");

// The QuicLite binding.

/// The QuicLite client side (outermost: held across conn setup).
pub const QUIC_CLIENT: Rank = Rank::new(200, "netsim.quic.client");
/// Conn-id → connection routing map.
pub const QUIC_BY_CONN_ID: Rank = Rank::new(210, "netsim.quic.by_conn_id");
/// 0-RTT resumption ticket cache.
pub const QUIC_RESUME: Rank = Rank::new(212, "netsim.quic.resume");
/// A connection's pre-establishment queue.
pub const QUIC_QUEUED: Rank = Rank::new(220, "netsim.quic.conn_queued");
/// A connection's peer address slot.
pub const QUIC_PEER: Rank = Rank::new(222, "netsim.quic.conn_peer");
/// A connection's receive/reassembly state.
pub const QUIC_RECV: Rank = Rank::new(224, "netsim.quic.conn_recv");
/// A connection's unacked (retransmission) buffer.
pub const QUIC_UNACKED: Rank = Rank::new(230, "netsim.quic.conn_unacked");

// ----------------------------------------------------------------
// Admission-control band (300+).
// ----------------------------------------------------------------

/// Dispatch gauge overload policy slot (set while an endpoint table is
/// held; consulted lock-free afterwards).
pub const DISPATCH_GAUGE_POLICY: Rank = Rank::new(300, "netsim.gauge.policy");
/// Dispatch gauge per-principal admission book.
pub const DISPATCH_GAUGE_PRINCIPALS: Rank = Rank::new(302, "netsim.gauge.principals");
