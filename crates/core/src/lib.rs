//! OpenFLAME: the federated spatial naming system (the paper's
//! contribution).
//!
//! This crate ties the substrates together into the two architectures
//! the paper contrasts, and — the point of the exercise — puts them
//! behind **one** service abstraction:
//!
//! - [`SpatialProvider`] is the client-facing API of paper §4: `geocode`,
//!   `reverse_geocode`, `search`, `route`, `localize` and `tile`, each
//!   taking a typed query and returning a typed outcome that carries
//!   provenance (which server answered) and per-call wire statistics.
//!   Application code — the grocery scenario, the benches, your code —
//!   holds a `&dyn SpatialProvider` and cannot tell the deployments
//!   apart except by looking at the outcomes.
//! - **Figure 2 — federated**: [`OpenFlameClient`] implements the trait
//!   by discovering map servers through DNS ([`DiscoveryClient`]),
//!   scattering requests across them and stitching results on the
//!   client (rank-fused search, portal-stitched routing, localization
//!   estimates ordered by reported error, tile composition — paper §5.2).
//! - **Figure 1 — centralized**: [`CentralizedProvider`] implements the
//!   same trait from a single monolithic map, in two flavors:
//!   `public_only_on` (outdoor data only — the realistic Google-Maps
//!   baseline whose indoor blindness motivates the paper) and
//!   `omniscient_on` (all data merged — the unrealizable upper bound
//!   used to score federated route quality).
//!
//! # Architecture: trait → planner → session → transport
//!
//! Underneath the provider trait sits the cost-based query planner
//! ([`plan`] module, wire-protocol spec §13): every federated query
//! path builds a [`ScatterPlan`] ([`plan::plan`]) from the discovery
//! view plus the
//! [`CoverageSummary`](openflame_mapserver::CoverageSummary) riding in
//! each server's cached advertisement (the extended `Hello` exchange),
//! and one executor, private to the [`client`] module, runs the plan
//! through the session with the fleet failover machinery. The executor
//! has one caller, the client's scatter loop, beside it: a query
//! class is a request builder and an absorber on it, and what else
//! differs per class — *handshake-first* for the two kinds whose
//! request is spelled in the server's frame, the outage verdict — is
//! a table on [`QueryKind`]. Only stitched routing, whose rounds feed
//! each other, runs its own. Pruning is **sound**: a source is skipped only when its summary *proves* it
//! cannot contribute — absent or stale summaries always consult
//! (spec §13.3) — so planner-on and planner-off runs return identical
//! results while warm wide-fan-out queries consult strictly fewer
//! servers. The recall-parity integration test pins exactly that on
//! all three backends.
//!
//! Underneath the planner sits the [`Session`] wire layer: every
//! provider's traffic goes out as batched envelopes
//! (`Request::Batch`), one per server per scatter round, cold or warm.
//! The session owns the capability handshake as **one rule**
//! (wire-protocol spec §8): an envelope to an endpoint it holds no
//! fresh advertisement for carries `Hello` as its last item, and the
//! session strips that item's answer before returning — so no query
//! path sends, counts or positions a handshake, first contact costs no
//! envelope of its own, and a client that only ever fetches tiles
//! still learns the coverage summaries the planner prunes with. The
//! session keeps **one entry per endpoint** —
//! its advertisement, coverage summary included, or the dead mark a
//! failed fleet branch left, each replacing the other — and discovery
//! results per cell; both caches are bounded (past a capacity cap,
//! expired first, then least recently used), so a long-lived session
//! touring many cells holds steady-state memory.
//! Scatter rounds are built on the session's pipelined
//! [`session::ScatterRound`] — its one submit path: envelopes are
//! *submitted* as soon as their inputs are known and *collected* when
//! the caller needs the answers, so multi-round operations (cold
//! search handshakes, route leg matrices) overlap their rounds instead
//! of barriering between them.
//!
//! Underneath the session sits the pluggable
//! [`Transport`](openflame_netsim::Transport) layer, whose core is
//! **non-blocking**: `submit(from, to, payload)` returns a
//! [`CallHandle`](openflame_netsim::CallHandle) immediately and
//! completion is claimed via `wait()`; a fan-out such as
//! [`ScatterRound`](session::ScatterRound) submits every branch before
//! it waits on any, and blocking `call` is a default method over
//! submit+wait. The session, the DNS resolver and every server bind to
//! `Arc<dyn Transport>` and cannot tell which backend carries their
//! bytes. That trait object is the **only** door onto a network: each
//! component has exactly one network-binding constructor
//! (`AuthServer::spawn_on`, `Resolver::with_config_on`,
//! `MapServer::spawn_on`, `OpenFlameClientBuilder::build_on`,
//! `CentralizedProvider::{public_only_on, omniscient_on}`), none of
//! them names a concrete backend, and the simulator's type is private
//! to `netsim`. Three backends ship, all built by value through
//! [`BackendKind::build`](openflame_netsim::BackendKind::build):
//!
//! - [`BackendKind::Sim`](openflame_netsim::BackendKind) — the
//!   deterministic discrete-event simulator
//!   (`netsim`'s private `SimNet`, which implements
//!   `Transport` itself: modelled latencies, seeded jitter, failure
//!   injection); the default. Submitted calls execute eagerly and
//!   share a start instant on the simulated clock, modelling real
//!   concurrency deterministically.
//! - [`BackendKind::Tcp`](openflame_netsim::BackendKind) — real
//!   loopback TCP sockets. One pooled connection per server
//!   multiplexes many in-flight requests (frames carry a version byte
//!   and a correlation id; responses may complete out of order). All
//!   sockets — client connections, listeners and served connections —
//!   are non-blocking and multiplexed over a small fixed pool of
//!   event-loop **reactor** threads sized by the host's cores, so
//!   worker threads are O(cores), not O(connections) or O(servers).
//!   Served endpoints dispatch pipelined requests **concurrently**
//!   through a bounded transport-wide worker pool and answer in
//!   completion order, so one slow request never head-of-line blocks
//!   the fast requests behind it on the same connection.
//! - [`BackendKind::QuicLite`](openflame_netsim::BackendKind) —
//!   QUIC-inspired reliable datagrams over loopback UDP: connection
//!   ids with 0-RTT resumption (a reconnect to a known server skips
//!   the handshake round), packet numbers with ack-elicited
//!   retransmission (injected datagram loss below the timeout is
//!   recovered, not surfaced), fragmentation for over-MTU envelopes,
//!   and one client socket multiplexing every destination; on the
//!   serve side a single poll-based thread multiplexes every served
//!   endpoint's socket, so the whole transport runs on a small
//!   constant number of threads. No TLS — a documented non-goal of
//!   this offline tree.
//!
//! Picking a backend:
//!
//! | backend    | clock      | determinism | loss story                | threads                        | best for                          |
//! |------------|------------|-------------|---------------------------|--------------------------------|-----------------------------------|
//! | `Sim`      | simulated  | total       | drop ⇒ modelled timeout   | none                           | experiments, benches, seeded runs |
//! | `Tcp`      | wall-clock | scheduling  | drop ⇒ failed call        | O(cores) reactors + fixed pool | proving the stack on real streams |
//! | `QuicLite` | wall-clock | scheduling  | drop ⇒ retransmit+recover | small constant, lowest         | reconnect-heavy wide fan-out      |
//!
//! The frame layout, correlation semantics, pipelining rules, server
//! dispatch guarantees and the datagram binding are specified in
//! `docs/wire-protocol.md`. Select the backend per deployment
//! (`DeploymentConfig { backend: BackendKind::Tcp, .. }`), or hand any
//! transport to `Deployment::build_on` /
//! `OpenFlameClient::builder().build_on(..)`. The wire discipline —
//! exactly one batched envelope per discovered server per scatter
//! round — holds on every backend and is enforced by the
//! backend-parity integration test; pipelining reorders waiting, never
//! traffic.
//!
//! # Scale-out: the serving fleet
//!
//! A venue that outgrows one map server scales out without changing
//! the client API, through the [`fleet`] subsystem
//! (`DeploymentConfig { replicas, content_shards, .. }`):
//!
//! - **Advertisement**: instead of a `MAPSRV` record per server, the
//!   venue publishes one `FLEETSRV` record carrying its replica set
//!   and a **shard map** — a skew-aware spatial split of the venue's
//!   searchable content at a sub-cell level (equal-*count* cuts along
//!   the cell space-filling curve, so hot sub-areas get their own
//!   shard). Discovery asks one `MAPSRV` question per cell, in one
//!   pipelined round; the answer carries the cell's `FLEETSRV` records
//!   in its additional section (spec §9.1), and the session caches the
//!   whole view shard-stably.
//! - **Shard-aware scatter**: search, routing candidates and
//!   localization consult only the shards whose advertised extent
//!   intersects the query footprint — wire cost scales with shards
//!   *consulted*, not fleet size.
//! - **Replica selection + failover**: within a shard the client picks
//!   one replica by power-of-two-choices over the transport's
//!   per-endpoint latency EWMA
//!   ([`Transport::endpoint_latency`](openflame_netsim::Transport::endpoint_latency)),
//!   deterministic on a fresh book so every backend picks alike. A
//!   replica that fails at the wire is retried on a sibling — for
//!   idempotent requests only (`docs/wire-protocol.md` spec §7) — and
//!   marked dead in the session (`Session::mark_dead`): the mark
//!   replaces the replica's cached advertisement and the per-cell
//!   discovery cache is invalidated, so the dead replica is neither
//!   re-consulted nor served from cache. Only a fully
//!   down **shard** surfaces [`ClientError::PartialFailure`], sources
//!   preserved.
//!
//! All of it is backend-agnostic: the fleet parity integration test
//! asserts identical message counts across Sim/TCP/QuicLite, that a
//! downed replica is transparently absorbed, and that a narrow query
//! consults fewer shards than the fleet holds.
//!
//! # Overload: admission control and the load harness
//!
//! Real-socket servers bound their dispatch queues
//! (`Transport::set_overload_policy`): when a map server's admitted
//! depth hits the policy cap — or one principal holds more than its
//! fairness share of the queue — the overflow request is answered
//! *immediately* with a retryable `Response::Busy { retry_after_us }`
//! instead of queueing behind seconds of work (`docs/wire-protocol.md`
//! spec §10). The [`Session`] absorbs `Busy` transparently: it re-submits
//! the identical envelope after a capped exponential backoff seeded by
//! the server's hint (deterministically jittered, so colliding clients
//! desynchronize), counts the shed/retry traffic in [`SessionStats`],
//! and only after the retry budget is exhausted surfaces
//! [`ClientError::Overloaded`] — which scatter-gather folds into
//! [`ClientError::PartialFailure`] like any other per-server failure.
//!
//! The repo benchmark's `open_tcp` workload (`benchmark/src/open.rs`)
//! is the city-scale proof: a thousand principals offered open-loop
//! (Poisson arrivals, Zipf-skewed venue locality from
//! `openflame_worldgen::workload`) against a real TCP deployment,
//! latency taken from the scheduled send time and every shed op
//! accounted for.
//!
//! [`Deployment`] stands up a complete world — DNS hierarchy, resolver,
//! outdoor provider, one map server per venue — in one call on either
//! backend, and [`scenario`] runs the paper §2 grocery end-to-end scenario
//! over any `&dyn SpatialProvider`.
//!
//! # Quick example
//!
//! ```
//! use openflame_core::{Deployment, DeploymentConfig, SearchQuery, SpatialProvider};
//! use openflame_worldgen::{World, WorldConfig};
//!
//! let world = World::generate(WorldConfig { stores: 2, ..Default::default() });
//! let dep = Deployment::build(world, DeploymentConfig::default());
//! let product = dep.world.products[0].clone();
//! let provider: &dyn SpatialProvider = &dep.client;
//! let outcome = provider
//!     .search(SearchQuery {
//!         query: product.name.clone(),
//!         location: dep.world.venues[product.venue].hint,
//!         radius_m: 2_000.0,
//!         k: 3,
//!     })
//!     .unwrap();
//! assert_eq!(outcome.hits[0].result.label, product.name);
//! assert!(outcome.stats.messages > 0);
//! ```

pub mod centralized;
pub mod client;
pub mod deployment;
pub mod discovery;
pub mod fleet;
pub mod plan;
pub mod provider;
pub mod scenario;
pub mod session;

pub use centralized::CentralizedProvider;
pub use client::{
    FederatedRoute, FederatedSearchHit, OpenFlameClient, OpenFlameClientBuilder, RouteLeg,
};
pub use deployment::{Deployment, DeploymentConfig, FleetMember};
pub use discovery::{DiscoveredServer, DiscoveryClient, DiscoveryStats};
pub use fleet::{DiscoveryView, FleetShardView, FleetView};
pub use plan::{FleetBranch, PlannedTarget, PruneReason, PrunedSource, QueryKind, ScatterPlan};
pub use provider::{
    CallStats, GeocodeHit, GeocodeOutcome, GeocodeQuery, LocalizeOutcome, LocalizeQuery,
    ProviderEstimate, ReverseGeocodeOutcome, ReverseGeocodeQuery, RouteOutcome, RouteQuery,
    SearchOutcome, SearchQuery, SpatialProvider, TileOutcome, TileQuery,
};
pub use scenario::{
    run_grocery_scenario, run_grocery_scenario_on, GroceryScenarioReport, ProviderKind,
};
pub use session::{Session, SessionStats, BUSY_RETRY_BUDGET};

/// Errors surfaced by the OpenFLAME client.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard
/// arm so new failure modes can be added without a breaking release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClientError {
    /// No map servers were discovered for the location.
    NothingDiscovered(String),
    /// The network failed.
    Network(String),
    /// A server returned an error response.
    Server {
        /// The answering server: its id where the caller planned it by
        /// id, else the transport's name for its endpoint.
        server_id: String,
        /// Error code from the response.
        code: u8,
        /// Error message.
        message: String,
    },
    /// The query cannot be asked: nothing was sent.
    InvalidQuery(String),
    /// A response could not be decoded or had the wrong kind.
    Protocol(String),
    /// The requested object could not be found.
    NotFound(String),
    /// The server shed the request under load (`Response::Busy`, wire
    /// protocol spec §10) and the session's retry budget is exhausted. The
    /// hint is the server's *last* suggested wait — callers that retry
    /// later should wait at least this long.
    Overloaded {
        /// Microseconds the server suggested waiting before retrying.
        retry_after_us: u64,
    },
    /// A batched call partially failed: `succeeded` items completed,
    /// the listed items did not. The successes are *not* lost — callers
    /// that can proceed with partial results inspect the batch
    /// responses directly; this error is returned only by paths that
    /// need every item. [`std::error::Error::source`] exposes the first
    /// item failure, preserving the cause chain.
    PartialFailure {
        /// Number of items in the batch that succeeded.
        succeeded: usize,
        /// The failed items as `(batch index, error)`.
        failures: Vec<(usize, ClientError)>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NothingDiscovered(msg) => write!(f, "nothing discovered: {msg}"),
            ClientError::Network(msg) => write!(f, "network: {msg}"),
            ClientError::Server {
                server_id,
                code,
                message,
            } => {
                write!(f, "server {server_id} error {code}: {message}")
            }
            ClientError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::NotFound(msg) => write!(f, "not found: {msg}"),
            ClientError::Overloaded { retry_after_us } => {
                write!(
                    f,
                    "server overloaded: retry budget exhausted (retry after {retry_after_us} us)"
                )
            }
            ClientError::PartialFailure {
                succeeded,
                failures,
            } => {
                write!(
                    f,
                    "batch partially failed: {succeeded} ok, {} failed (first: ",
                    failures.len()
                )?;
                match failures.first() {
                    Some((idx, err)) => write!(f, "item {idx}: {err})"),
                    None => write!(f, "none)"),
                }
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::PartialFailure { failures, .. } => failures
                .first()
                .map(|(_, err)| err as &(dyn std::error::Error + 'static)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn partial_failure_preserves_source() {
        let inner = ClientError::Server {
            server_id: "venue-3".into(),
            code: 1,
            message: "denied".into(),
        };
        let err = ClientError::PartialFailure {
            succeeded: 2,
            failures: vec![(1, inner.clone())],
        };
        let source = err.source().expect("source preserved");
        assert_eq!(source.to_string(), inner.to_string());
        assert!(err.to_string().contains("2 ok"));
        assert!(err.to_string().contains("item 1"));
    }
}
