//! The per-server session layer: batched envelopes, the first-contact
//! handshake, and capability and discovery caching, over any wire
//! transport.
//!
//! Every wire interaction of both provider architectures goes through a
//! [`Session`]. It does four things the naive per-request path did not:
//!
//! - **Batching**: callers hand it a `Vec<Request>` per server and it
//!   ships one [`Request::Batch`] envelope, so a scatter round costs
//!   one round trip per server regardless of how many primitives the
//!   round needs (OpenFLAME's per-server amortization; cf. federated
//!   SPARQL source selection, which likewise routes one logical query
//!   per backend).
//! - **The handshake** (wire protocol spec §8) — one rule, spelled here
//!   and nowhere else: *an envelope to an endpoint the session holds no
//!   fresh advertisement for carries `Request::Hello` as its last item*
//!   (unless the batch already asks). [`ScatterRound::submit`] appends
//!   the item and counts the miss; the claim side strips that item's
//!   answer — whatever came back, caching it only if it is a
//!   `Response::Hello` — so callers get exactly their own responses and
//!   first contact costs no envelope of its own, whatever the query
//!   class. Advertisements are cached per endpoint with a TTL on the
//!   transport clock (an expired one is re-learned the same way); the
//!   coverage summary the query planner prunes from (spec §13) is the
//!   one riding in the cached advertisement — there is no second copy.
//! - **One entry per endpoint**: what the client remembers about an
//!   endpoint is a single cache entry, either its advertisement
//!   (`DEFAULT_TTL_US`) or a *dead* mark left by a failed fleet
//!   branch (`DEAD_TTL_US`). `Session::mark_dead` overwrites the
//!   advertisement, so a dead replica is never served (or pruned) from
//!   what it once advertised; an answered handshake overwrites the
//!   mark, so the wire — not the cache — decides who is alive.
//! - **Discovery caching**: discovery results are cached per query
//!   cell, so a client localizing every few seconds does not re-resolve
//!   the same cell through DNS each time.
//! - **Busy absorption**: a server that sheds the envelope under load
//!   answers `Response::Busy { retry_after_us }` (wire protocol spec §10)
//!   instead of an answer. The session re-submits the identical
//!   envelope after a capped exponential backoff seeded by the server's
//!   hint — deterministically jittered per `(client, server, attempt)`,
//!   so colliding clients desynchronize without shared state — and
//!   counts the shed/retry traffic in [`SessionStats`]. Only when
//!   [`BUSY_RETRY_BUDGET`] re-submissions have all been shed does the
//!   call surface [`ClientError::Overloaded`].
//!
//! Both caches (endpoints, discovery cells) are a [`TtlCache`], the
//! resolver's cache type, holding `Arc`s: an advertisement is *moved*
//! out of the answer that brought it, a discovery view is built once,
//! and every reader after that (planner, executor, providers) shares it
//! by reference, so a warm call deep-copies none of it. They are
//! **bounded** (`DEFAULT_CACHE_CAP`): a long-lived session touring
//! many cells does not grow memory forever. Inserts past the cap evict
//! expired entries first, then the least recently used — so a fresh
//! dead mark, shorter-lived than the advertisements around it, is never
//! the victim; evictions and current cache sizes are reported in
//! [`SessionStats`].
//!
//! The session speaks only through the [`Transport`] trait — the
//! deterministic simulator and real TCP sockets run the exact same
//! code, and the one-envelope-per-server wire discipline holds on
//! both, cold or warm (the backend-parity integration test enforces
//! it). TTLs are the DNS record TTL the deployment uses
//! (`DEFAULT_TTL_US`, 300 s), measured on the transport clock
//! (simulated time or wall-clock time), so cached knowledge ages out on
//! the same schedule as the naming layer that produced it.

use crate::fleet::DiscoveryView;
use crate::ClientError;
use openflame_codec::{from_bytes, to_bytes};
use openflame_diag::{ranks, OrderedMutex};
use openflame_dns::TtlCache;
use openflame_mapdata::NodeId;
use openflame_mapserver::protocol::{Envelope, HelloInfo, Request, Response, WireRoute};
use openflame_mapserver::registry::MAPSRV_TTL_S;
use openflame_mapserver::Principal;
use openflame_netsim::{CallHandle, EndpointId, Transport};
use std::sync::Arc;

/// Default cache TTL: the DNS record TTL deployment registrations use
/// ([`MAPSRV_TTL_S`], 300 s).
pub(crate) const DEFAULT_TTL_US: u64 = MAPSRV_TTL_S as u64 * 1_000_000;

/// How long a replica that failed at the wire stays marked dead — off
/// the fleet layer's candidate list — before it is considered again
/// (transport clock). Deliberately much shorter than the 300 s
/// discovery TTL: a crashed replica that restarts should resume taking
/// traffic without waiting for the naming layer to age out.
pub(crate) const DEAD_TTL_US: u64 = 30 * 1_000_000;

/// Default capacity bound for each session cache (endpoint entries,
/// discovery cells). A long-lived session touring many cells stays
/// bounded: inserts over the cap evict expired entries first, then the
/// least recently used.
pub(crate) const DEFAULT_CACHE_CAP: usize = 256;

/// How many times one envelope is re-submitted after a `Busy` shed
/// before the call surfaces [`ClientError::Overloaded`].
pub const BUSY_RETRY_BUDGET: u32 = 4;

/// Upper bound on a single busy-backoff wait, microseconds: the
/// exponential doubling stops here so a pathological server hint
/// cannot park a client for seconds.
pub(crate) const BUSY_BACKOFF_CAP_US: u64 = 50_000;

/// The wait before busy re-submission `attempt` (0-based): the server's
/// hint doubled per attempt, capped at [`BUSY_BACKOFF_CAP_US`], plus a
/// deterministic jitter (≤ a quarter of the base) hashed from
/// `(from, to, attempt)` — a pure function, so seeded runs replay
/// identically, yet distinct clients hammering one server spread out.
pub(crate) fn busy_backoff_us(hint_us: u64, attempt: u32, from: EndpointId, to: EndpointId) -> u64 {
    let base = hint_us
        .max(100)
        .saturating_mul(1u64 << attempt.min(16))
        .min(BUSY_BACKOFF_CAP_US);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in from
        .0
        .to_le_bytes()
        .iter()
        .chain(to.0.to_le_bytes().iter())
        .chain(attempt.to_le_bytes().iter())
    {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    base + h % (base / 4 + 1)
}

/// Counters for session-layer behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Batch envelopes sent.
    pub batches: u64,
    /// Individual requests carried inside those envelopes, the
    /// session's own handshake items included.
    pub batched_requests: u64,
    /// Cumulative wire latency of those envelopes, microseconds
    /// (simulated or wall-clock, per the transport).
    pub wire_us: u64,
    /// Hello lookups answered from the cache.
    pub hello_hits: u64,
    /// Envelopes sent to an endpoint with no fresh advertisement cached
    /// — each carries the handshake (spec §8), so each is a lookup that
    /// went to the wire.
    pub hello_misses: u64,
    /// Discovery lookups answered from the cache.
    pub discovery_hits: u64,
    /// Discovery lookups that fell through to DNS.
    pub discovery_misses: u64,
    /// Entries removed from either cache to hold the capacity bound
    /// (expired entries purged while evicting included).
    pub cache_evictions: u64,
    /// Live (unexpired) advertisements cached at snapshot time. Dead
    /// marks share the per-endpoint cache but are not advertisements,
    /// and expired entries awaiting lazy removal are not counted.
    pub hello_cache_len: u64,
    /// Live (unexpired) discovery-cache entries at snapshot time.
    pub discovery_cache_len: u64,
    /// Always 0: coverage summaries live inside the cached
    /// advertisements, so evicting one is counted in `cache_evictions`.
    /// The field stays because `benchmark/` reports
    /// `cache_evictions + coverage_evictions`, a sum that keeps its
    /// meaning this way.
    pub coverage_evictions: u64,
    /// `Busy` sheds received from servers (wire protocol spec §10), counting
    /// every attempt — a call shed 3 times then served adds 3.
    pub busy_rejections: u64,
    /// Envelopes re-submitted after a backoff because the previous
    /// attempt was shed. Always ≤ `busy_rejections`; the difference is
    /// calls whose retry budget ran out.
    pub busy_retries: u64,
}

/// Discovery cache key: the query cell's raw id.
type DiscoveryKey = u64;

/// Everything the session remembers about one endpoint. The two
/// states replace each other, so a dead endpoint has no advertisement
/// to be served (or pruned) from, and an endpoint that answers a
/// handshake is no longer dead.
enum EndpointEntry {
    /// The endpoint's advertisement, coverage summary included, kept
    /// for [`DEFAULT_TTL_US`].
    Advertised(Arc<HelloInfo>),
    /// The endpoint failed at the wire as a fleet replica; kept for
    /// [`DEAD_TTL_US`].
    Dead,
}

/// A client-side wire session: batched calls with capability and
/// discovery caches (see module docs).
///
/// Marking an endpoint dead is the executor's failover step, not an
/// API: `mark_dead` is crate-private, so no caller outside this crate
/// can swap an advertisement for a dead mark.
///
/// ```compile_fail
/// fn fail_over(s: &openflame_core::Session, id: openflame_netsim::EndpointId) {
///     s.mark_dead(id, 0);
/// }
/// ```
///
/// A caller outside the crate can still read and drop what the session
/// has learnt:
///
/// ```
/// fn forget(s: &openflame_core::Session, id: openflame_netsim::EndpointId) {
///     let _ = s.advertised(id);
///     s.invalidate();
/// }
/// ```
pub struct Session {
    transport: Arc<dyn Transport>,
    endpoint: EndpointId,
    principal: Principal,
    endpoints: OrderedMutex<TtlCache<EndpointId, EndpointEntry>>,
    discoveries: OrderedMutex<TtlCache<DiscoveryKey, Arc<DiscoveryView>>>,
    stats: OrderedMutex<SessionStats>,
}

impl Session {
    /// Creates a session speaking from `endpoint` as `principal`.
    pub fn new(transport: Arc<dyn Transport>, endpoint: EndpointId, principal: Principal) -> Self {
        Self {
            transport,
            endpoint,
            principal,
            endpoints: OrderedMutex::new(ranks::SESSION_HELLOS, TtlCache::new(DEFAULT_CACHE_CAP)),
            discoveries: OrderedMutex::new(
                ranks::SESSION_DISCOVERIES,
                TtlCache::new(DEFAULT_CACHE_CAP),
            ),
            stats: OrderedMutex::new(ranks::SESSION_STATS, SessionStats::default()),
        }
    }

    /// The identity attached to outgoing envelopes.
    pub fn principal(&self) -> &Principal {
        &self.principal
    }

    /// The session's network endpoint.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The underlying wire transport.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Statistics snapshot. Cache sizes are sampled at snapshot time
    /// and count **live** entries only: entries past their TTL that are
    /// still awaiting lazy removal are dead weight, not cached
    /// knowledge — the same semantics as the resolver's `cache_len`.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.stats.lock().clone();
        let now = self.transport.now_us();
        // Each cache is read under its own lock, one at a time.
        let (hello_len, endpoint_evictions) = {
            let endpoints = self.endpoints.lock();
            let advertised = endpoints
                .live(now)
                .filter(|entry| matches!(entry, EndpointEntry::Advertised(_)));
            let evictions = endpoints.purged + endpoints.evicted;
            (advertised.count() as u64, evictions)
        };
        let (discovery_len, discovery_evictions) = {
            let discoveries = self.discoveries.lock();
            let evictions = discoveries.purged + discoveries.evicted;
            (discoveries.live(now).count() as u64, evictions)
        };
        stats.hello_cache_len = hello_len;
        stats.discovery_cache_len = discovery_len;
        stats.cache_evictions = endpoint_evictions + discovery_evictions;
        stats
    }

    /// Drops all cached state, dead marks included.
    pub fn invalidate(&self) {
        self.endpoints.lock().clear();
        self.discoveries.lock().clear();
    }

    // ----------------------------------------------------------------
    // Wire calls.
    // ----------------------------------------------------------------

    fn encode(&self, request: Request) -> Vec<u8> {
        let env = Envelope {
            principal: self.principal.clone(),
            request,
        };
        to_bytes(&env).to_vec()
    }

    /// What a [`ClientError::Server`] calls `to` when the caller holds
    /// only the endpoint: the transport's name for it (a map server
    /// registers as `mapsrv:<server id>`).
    pub(crate) fn server_name(&self, to: EndpointId) -> String {
        self.transport
            .endpoint_name(to)
            .unwrap_or_else(|| format!("{to:?}"))
    }

    /// Claims one in-flight envelope, transparently re-submitting it
    /// (after [`busy_backoff_us`]) every time the server sheds it with
    /// `Busy` — up to [`BUSY_RETRY_BUDGET`] re-submissions, after which
    /// the call surfaces [`ClientError::Overloaded`]. The backoff both
    /// advances the transport clock (simulated time) and sleeps the
    /// thread (wall-clock backends); each attempt's wire latency is
    /// charged to the session. The answer to the handshake item the
    /// session appended is stripped, whatever it is — an advertisement
    /// *moves* into the cache, uncopied; one the caller asked for
    /// itself is cached too, copied, since the caller keeps its answer.
    fn finish_call(&self, call: InFlight) -> Result<Vec<Response>, ClientError> {
        let InFlight {
            to,
            expected,
            handshake,
            payload,
            mut handle,
        } = call;
        let on_wire = expected + usize::from(handshake);
        let mut attempt = 0u32;
        loop {
            let transfer = handle
                .wait()
                .map_err(|e| ClientError::Network(e.to_string()))?;
            self.stats.lock().wire_us += transfer.latency_us;
            let reply = from_bytes::<Response>(&transfer.payload)
                .map_err(|e| ClientError::Protocol(e.to_string()))?;
            let retry_after_us = match reply {
                // Shed under load: retryable, never a decode error.
                Response::Busy { retry_after_us } => retry_after_us,
                Response::Batch(mut responses) if responses.len() == on_wire => {
                    if handshake {
                        if let Some(Response::Hello(info)) = responses.pop() {
                            self.store_hello(to, info);
                        }
                    }
                    for response in &responses {
                        if let Response::Hello(info) = response {
                            self.store_hello(to, info.clone());
                        }
                    }
                    return Ok(responses);
                }
                Response::Batch(responses) => {
                    return Err(ClientError::Protocol(format!(
                        "batch answered {} of {on_wire} items",
                        responses.len()
                    )))
                }
                // The envelope itself was rejected.
                Response::Error { code, message } => {
                    return Err(ClientError::Server {
                        server_id: self.server_name(to),
                        code,
                        message,
                    })
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected Batch, got {other:?}"
                    )))
                }
            };
            self.stats.lock().busy_rejections += 1;
            if attempt >= BUSY_RETRY_BUDGET {
                return Err(ClientError::Overloaded { retry_after_us });
            }
            let wait = busy_backoff_us(retry_after_us, attempt, self.endpoint, to);
            self.transport.advance_us(wait);
            std::thread::sleep(std::time::Duration::from_micros(wait));
            self.stats.lock().busy_retries += 1;
            attempt += 1;
            handle = self.transport.submit(self.endpoint, to, payload.clone());
        }
    }

    /// Sends one batched envelope to one server and returns the
    /// positional responses — a one-envelope [`ScatterRound`]. Per-item
    /// failures come back as `Response::Error` items; the call errs only
    /// when the envelope itself fails. `Busy` sheds are absorbed by the
    /// session's retry loop (module docs) — they surface only as
    /// [`ClientError::Overloaded`] after the budget runs out.
    pub fn batch(
        &self,
        to: EndpointId,
        requests: Vec<Request>,
    ) -> Result<Vec<Response>, ClientError> {
        let mut round = self.scatter();
        round.submit(to, requests);
        round.collect().pop().expect("one envelope submitted")
    }

    /// Starts a pipelined scatter round: envelopes submitted through
    /// [`ScatterRound::submit`] go on the wire immediately and their
    /// responses are claimed together by [`ScatterRound::collect`].
    pub fn scatter(&self) -> ScatterRound<'_> {
        ScatterRound {
            session: self,
            pending: Vec::new(),
        }
    }

    /// Turns per-item `Response::Error` entries into a
    /// [`ClientError::PartialFailure`] naming `server`, for callers that
    /// need every item of a batch.
    pub(crate) fn expect_all(
        server: &str,
        responses: Vec<Response>,
    ) -> Result<Vec<Response>, ClientError> {
        let mut failures = Vec::new();
        for (idx, response) in responses.iter().enumerate() {
            if let Response::Error { code, message } = response {
                failures.push((
                    idx,
                    ClientError::Server {
                        server_id: server.to_string(),
                        code: *code,
                        message: message.clone(),
                    },
                ));
            }
        }
        if failures.is_empty() {
            Ok(responses)
        } else {
            Err(ClientError::PartialFailure {
                succeeded: responses.len() - failures.len(),
                failures,
            })
        }
    }

    // ----------------------------------------------------------------
    // The per-endpoint cache: an advertisement or a dead mark.
    // ----------------------------------------------------------------

    /// Caches `from`'s capability advertisement (evicting, expired
    /// first, then least recently used, past the capacity bound),
    /// replacing whatever the session held about the endpoint: an older
    /// advertisement — one without a coverage summary drops the summary
    /// it once committed to — or a dead mark, since an endpoint that
    /// answers is alive.
    pub(crate) fn store_hello(&self, from: EndpointId, info: impl Into<Arc<HelloInfo>>) {
        let now = self.transport.now_us();
        let entry = EndpointEntry::Advertised(info.into());
        self.endpoints
            .lock()
            .insert(from, entry, now, DEFAULT_TTL_US);
    }

    /// The fresh advertisement cached for `server` — shared, not
    /// copied — without touching the hit counters: the probe behind the
    /// handshake rule's own check and the query planner, which prunes
    /// from the [`HelloInfo::coverage`] of exactly this entry. An
    /// expired entry and a dead mark read as absence, so a planner
    /// never prunes on a stale summary (spec §13.3) or a dead
    /// endpoint's.
    pub fn advertised(&self, server: EndpointId) -> Option<Arc<HelloInfo>> {
        let now = self.transport.now_us();
        match self.endpoints.lock().get(&server, now)? {
            EndpointEntry::Advertised(info) => Some(info.clone()),
            EndpointEntry::Dead => None,
        }
    }

    /// The cached advertisement for `server`, if fresh — shared, not
    /// copied: every caller holds the same allocation. Counts a hit.
    pub fn cached_hello(&self, server: EndpointId) -> Option<Arc<HelloInfo>> {
        let info = self.advertised(server);
        if info.is_some() {
            self.stats.lock().hello_hits += 1;
        }
        info
    }

    /// The advertisement for `server`, from cache or the wire. Unlike
    /// the handshake riding an envelope, a refusal here is the caller's
    /// answer and surfaces as [`ClientError::Server`].
    pub fn hello(&self, server: EndpointId) -> Result<Arc<HelloInfo>, ClientError> {
        if let Some(info) = self.cached_hello(server) {
            return Ok(info);
        }
        match self.batch(server, vec![Request::Hello])?.pop() {
            // The claim side cached the answer; hand out that entry.
            Some(Response::Hello(info)) => {
                Ok(self.advertised(server).unwrap_or_else(|| Arc::new(info)))
            }
            other => Err(unexpected_opt(&self.server_name(server), "Hello", other)),
        }
    }

    /// Whether a fresh advertisement is cached for `server` — the
    /// handshake rule's test (and the tests' oracle for what first
    /// contact taught); touches no hit/miss counter.
    pub fn has_hello(&self, server: EndpointId) -> bool {
        self.advertised(server).is_some()
    }

    /// Records that fleet replica `endpoint`, discovered under query
    /// cell `cell_raw`, failed at the wire — the one call failover
    /// makes. The dead mark *replaces* the endpoint's advertisement
    /// for [`DEAD_TTL_US`], so replica selection skips it and nothing
    /// it once advertised is served or pruned from; the cell's cached
    /// discovery is dropped with it ([`Session::invalidate_cell`]).
    pub(crate) fn mark_dead(&self, endpoint: EndpointId, cell_raw: u64) {
        let now = self.transport.now_us();
        self.endpoints
            .lock()
            .insert(endpoint, EndpointEntry::Dead, now, DEAD_TTL_US);
        self.invalidate_cell(cell_raw);
    }

    /// Whether `endpoint` carries an unexpired dead mark. The mark is
    /// a hint for replica selection, never a refusal to send: an
    /// envelope to a marked endpoint still goes out, handshake riding,
    /// and its answer revives it.
    pub(crate) fn is_dead(&self, endpoint: EndpointId) -> bool {
        let now = self.transport.now_us();
        matches!(
            self.endpoints.lock().get(&endpoint, now),
            Some(EndpointEntry::Dead)
        )
    }

    // ----------------------------------------------------------------
    // Discovery cache.
    // ----------------------------------------------------------------

    /// The cached discovery result for a query cell, if fresh — shared,
    /// not copied. The view carries plain servers *and* fleet groups;
    /// caching the whole view keeps routing **shard-stable** — repeated
    /// requests against the same cell see the same shard map, so
    /// replica choice and the hello cache stay warm.
    pub(crate) fn cached_discovery(&self, cell_raw: u64) -> Option<Arc<DiscoveryView>> {
        let now = self.transport.now_us();
        let cached = self.discoveries.lock().get(&cell_raw, now).cloned();
        let mut stats = self.stats.lock();
        if cached.is_some() {
            stats.discovery_hits += 1;
        } else {
            // A miss is a miss at lookup time, whether or not the
            // fallback DNS resolution later succeeds and is stored.
            stats.discovery_misses += 1;
        }
        cached
    }

    /// Caches a discovery result for a query cell, evicting (expired
    /// first, then least recently used) if the insert pushed the cache
    /// over the capacity bound.
    pub fn store_discovery(&self, cell_raw: u64, view: impl Into<Arc<DiscoveryView>>) {
        let now = self.transport.now_us();
        self.discoveries
            .lock()
            .insert(cell_raw, view.into(), now, DEFAULT_TTL_US);
    }

    /// Drops the cached discovery result for one query cell. Part of
    /// marking a replica dead ([`Session::mark_dead`]): without an
    /// explicit invalidation path a dead replica would keep being
    /// re-consulted from this cache until its 300 s TTL expired — the
    /// next discovery re-resolves (usually from the resolver's own
    /// cache, so the cost is local) and re-selects against the current
    /// dead marks.
    pub(crate) fn invalidate_cell(&self, cell_raw: u64) {
        self.discoveries.lock().remove(&cell_raw);
    }
}

/// One envelope in flight.
struct InFlight {
    to: EndpointId,
    /// The caller's item count.
    expected: usize,
    /// Whether the session appended the handshake item (spec §8): the
    /// last of the `expected + 1` answers is then the session's.
    handshake: bool,
    /// The encoded envelope, kept so a `Busy` shed can re-submit the
    /// identical bytes without re-encoding.
    payload: Vec<u8>,
    handle: CallHandle,
}

/// A pipelined scatter round over one [`Session`].
///
/// Each [`ScatterRound::submit`] encodes one batched envelope and puts
/// it on the wire through the transport's non-blocking submit path —
/// the request is in flight *while the caller keeps building the
/// round* (and, on socket backends, while earlier rounds are still
/// draining). [`ScatterRound::collect`] then claims every completion;
/// its wall-clock cost is the slowest branch. Results are positional in
/// submit order. This is the session's one submit path
/// ([`Session::batch`] is a round of it), so the handshake rule (module
/// docs) lives here.
///
/// The one-batched-envelope-per-server wire discipline is unchanged:
/// pipelining reorders *waiting*, not traffic.
pub struct ScatterRound<'a> {
    session: &'a Session,
    pending: Vec<InFlight>,
}

impl ScatterRound<'_> {
    /// Encodes `requests` as one batched envelope to `to` and submits
    /// it, returning the submission's index in the
    /// [`ScatterRound::collect`] result.
    ///
    /// The handshake rule applies: to a cold `to`, `Hello` rides as the
    /// last item and its answer is stripped on collect — so an empty
    /// `requests` is the bare handshake.
    pub fn submit(&mut self, to: EndpointId, mut requests: Vec<Request>) -> usize {
        let session = self.session;
        let expected = requests.len();
        let cold = !session.has_hello(to);
        let handshake = cold && !requests.contains(&Request::Hello);
        if handshake {
            requests.push(Request::Hello);
        }
        {
            let mut stats = session.stats.lock();
            stats.batches += 1;
            stats.batched_requests += requests.len() as u64;
            stats.hello_misses += u64::from(cold);
        }
        let payload = session.encode(Request::Batch(requests));
        let handle = session
            .transport
            .submit(session.endpoint, to, payload.clone());
        self.pending.push(InFlight {
            to,
            expected,
            handshake,
            payload,
            handle,
        });
        self.pending.len() - 1
    }

    /// Claims every submitted envelope's responses, positionally. Per-
    /// item failures come back as `Response::Error` items inside the
    /// `Ok` lists; a branch errs only when its envelope itself fails.
    /// Branches shed with `Busy` are re-submitted by the session's
    /// backoff loop — while one branch backs off, the others are
    /// already complete or still in flight, so the round still costs
    /// its slowest branch.
    pub fn collect(self) -> Vec<Result<Vec<Response>, ClientError>> {
        self.pending
            .into_iter()
            .map(|call| self.session.finish_call(call))
            .collect()
    }
}

// --------------------------------------------------------------------
// Request and response-unwrap helpers shared by every provider
// implementation.
// --------------------------------------------------------------------

/// A result-count limit as the wire's `u32`, saturating: a `k` past
/// `u32::MAX` asks for everything, not for `k mod 2^32`.
pub(crate) fn wire_k(k: usize) -> u32 {
    u32::try_from(k).unwrap_or(u32::MAX)
}

pub(crate) fn expect_nearest(server: &str, response: &Response) -> Result<NodeId, ClientError> {
    match response {
        Response::NearestNode {
            node: Some((id, _)),
        } => Ok(NodeId(*id)),
        Response::NearestNode { node: None } => {
            Err(ClientError::NotFound("server has no routable nodes".into()))
        }
        other => Err(unexpected(server, "NearestNode", other)),
    }
}

/// The route in a one-item batch answer.
pub(crate) fn expect_route(
    server: &str,
    mut responses: Vec<Response>,
) -> Result<WireRoute, ClientError> {
    match responses.pop() {
        Some(Response::Route { route: Some(route) }) => Ok(route),
        Some(Response::Route { route: None }) => {
            Err(ClientError::NotFound("no path on server".into()))
        }
        other => Err(unexpected_opt(server, "Route", other)),
    }
}

/// The cost matrix in a one-item batch answer, which must have the
/// `rows` × `cols` shape the client asked for: the stitcher's portal
/// choice indexes the client's own portal lists, so a peer-chosen shape
/// is a malformed answer, not an index.
pub(crate) fn expect_matrix(
    server: &str,
    mut responses: Vec<Response>,
    (rows, cols): (usize, usize),
) -> Result<Vec<Vec<f64>>, ClientError> {
    match responses.pop() {
        Some(Response::RouteMatrix { costs })
            if costs.len() == rows && costs.iter().all(|row| row.len() == cols) =>
        {
            Ok(costs)
        }
        Some(Response::RouteMatrix { .. }) => Err(ClientError::Protocol(format!(
            "{server} answered a cost matrix that is not the {rows} x {cols} asked for"
        ))),
        other => Err(unexpected_opt(server, "RouteMatrix", other)),
    }
}

/// Maps a response of the wrong kind from `server` to the matching
/// [`ClientError`].
pub(crate) fn unexpected(server: &str, expected: &str, got: &Response) -> ClientError {
    match got {
        Response::Error { code, message } => ClientError::Server {
            server_id: server.to_string(),
            code: *code,
            message: message.clone(),
        },
        other => ClientError::Protocol(format!("expected {expected}, got {other:?}")),
    }
}

pub(crate) fn unexpected_opt(server: &str, expected: &str, got: Option<Response>) -> ClientError {
    match got {
        Some(response) => unexpected(server, expected, &response),
        None => ClientError::Protocol(format!("expected {expected}, got empty batch")),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use openflame_mapserver::protocol::Response;
    use openflame_netsim::BackendKind;

    #[test]
    fn expect_all_reports_partial_failure() {
        let ok = Response::PatchApplied { version: 1 };
        let err = Response::Error {
            code: 1,
            message: "denied".into(),
        };
        let result = Session::expect_all("venue-3", vec![ok.clone(), err, ok]);
        let Err(ClientError::PartialFailure {
            succeeded,
            failures,
        }) = result
        else {
            panic!("expected partial failure");
        };
        assert_eq!(succeeded, 2);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 1);
        assert!(failures[0].1.to_string().contains("server venue-3 error 1"));
    }

    #[test]
    fn expect_all_passes_clean_batches() {
        let ok = Response::PatchApplied { version: 1 };
        assert_eq!(
            Session::expect_all("venue-3", vec![ok.clone()]).unwrap(),
            vec![ok]
        );
    }

    /// A minimal advertisement (no anchor, no coverage summary).
    pub(crate) fn stub_hello(id: u64) -> HelloInfo {
        HelloInfo {
            server_id: format!("stub-{id}"),
            map_name: "cache-test".into(),
            services: vec!["hello".into()],
            localization_techs: Vec::new(),
            anchor: None,
            portals: Vec::new(),
            version: 1,
            coverage: None,
        }
    }

    #[test]
    fn session_caches_stay_bounded_under_a_many_cell_tour() {
        let transport = BackendKind::Sim.build(1);
        let endpoint = transport.register("client", None);
        let session = Session::new(transport.clone(), endpoint, Principal::anonymous());
        // Tour 92 cells more than the bound (each with its own nearby
        // server): without it both caches would hold them all forever.
        let cap = DEFAULT_CACHE_CAP as u64;
        for cell in 0..cap + 92 {
            transport.advance_us(1_000);
            session.store_discovery(cell, DiscoveryView::default());
            session.store_hello(EndpointId(1_000 + cell), stub_hello(cell));
        }
        let stats = session.stats();
        assert_eq!(stats.discovery_cache_len, cap);
        assert_eq!(stats.hello_cache_len, cap);
        assert_eq!(stats.cache_evictions, 2 * 92);
        // The freshest knowledge survived; the start of the tour aged
        // out.
        assert!(session.cached_discovery(cap + 91).is_some());
        assert!(session.cached_discovery(0).is_none());
        assert!(session.cached_hello(EndpointId(1_000 + cap + 91)).is_some());
        assert!(session.cached_hello(EndpointId(1_000)).is_none());
    }

    #[test]
    fn a_dead_mark_survives_a_full_endpoint_cache() {
        let transport = BackendKind::Sim.build(1);
        let endpoint = transport.register("client", None);
        let session = Session::new(transport.clone(), endpoint, Principal::anonymous());
        for i in 0..DEFAULT_CACHE_CAP as u64 {
            session.store_hello(EndpointId(1_000 + i), stub_hello(i));
        }
        transport.advance_us(1_000);
        // The mark expires long before the advertisements around it,
        // yet it is the freshest entry: it must not evict itself.
        session.mark_dead(EndpointId(7), 0);
        assert!(session.is_dead(EndpointId(7)));
    }

    #[test]
    fn cache_len_stats_count_live_entries_only() {
        let transport = BackendKind::Sim.build(1);
        let endpoint = transport.register("client", None);
        let session = Session::new(transport.clone(), endpoint, Principal::anonymous());
        for cell in 0..3u64 {
            session.store_discovery(cell, DiscoveryView::default());
            session.store_hello(EndpointId(100 + cell), stub_hello(cell));
        }
        let stats = session.stats();
        assert_eq!(stats.hello_cache_len, 3);
        assert_eq!(stats.discovery_cache_len, 3);
        // Past the TTL the entries still sit in the maps (eviction only
        // runs on insert-over-cap), but the snapshot must report cached
        // *knowledge*, not dead weight — mirroring the resolver's
        // live-only `cache_len`.
        transport.advance_us(DEFAULT_TTL_US + 1);
        let stats = session.stats();
        assert_eq!(stats.hello_cache_len, 0);
        assert_eq!(stats.discovery_cache_len, 0);
        assert_eq!(stats.cache_evictions, 0, "nothing was evicted, only aged");
        // A fresh insert is counted again; a dead mark shares the cache
        // but is not an advertisement.
        session.store_hello(EndpointId(7), stub_hello(7));
        session.mark_dead(EndpointId(8), 0);
        assert_eq!(session.stats().hello_cache_len, 1);
    }

    #[test]
    fn invalidate_cell_leaves_other_cells_untouched() {
        let transport = BackendKind::Sim.build(1);
        let endpoint = transport.register("client", None);
        let session = Session::new(transport, endpoint, Principal::anonymous());
        session.store_discovery(7, DiscoveryView::default());
        session.store_discovery(8, DiscoveryView::default());
        session.invalidate_cell(7);
        assert!(session.cached_discovery(7).is_none());
        assert!(
            session.cached_discovery(8).is_some(),
            "other cells must be untouched"
        );
    }

    #[test]
    fn cached_state_is_handed_out_by_reference() {
        let transport = BackendKind::Sim.build(1);
        let endpoint = transport.register("client", None);
        let session = Session::new(transport, endpoint, Principal::anonymous());
        let server = EndpointId(40);
        session.store_hello(server, stub_hello(40));
        session.store_discovery(7, DiscoveryView::default());
        // Two readers of one cached fact hold the same allocation.
        assert!(Arc::ptr_eq(
            &session.cached_hello(server).unwrap(),
            &session.advertised(server).unwrap()
        ));
        assert!(Arc::ptr_eq(
            &session.cached_discovery(7).unwrap(),
            &session.cached_discovery(7).unwrap()
        ));
    }

    #[test]
    fn marking_dead_replaces_the_advertisement() {
        let transport = BackendKind::Sim.build(1);
        let endpoint = transport.register("client", None);
        let session = Session::new(transport, endpoint, Principal::anonymous());
        let dead = EndpointId(70);
        let alive = EndpointId(71);
        session.store_hello(dead, stub_hello(70));
        session.store_hello(alive, stub_hello(71));
        session.store_discovery(7, DiscoveryView::default());
        session.store_discovery(8, DiscoveryView::default());
        session.mark_dead(dead, 7);
        assert!(session.is_dead(dead));
        assert!(!session.has_hello(dead));
        assert!(session.cached_hello(dead).is_none());
        assert!(
            session.cached_discovery(7).is_none(),
            "the cell the dead replica was discovered under re-resolves"
        );
        assert!(
            !session.is_dead(alive)
                && session.cached_hello(alive).is_some()
                && session.cached_discovery(8).is_some(),
            "other endpoints and cells must be untouched"
        );
    }

    #[test]
    fn a_dead_mark_expires_after_dead_ttl_and_an_answer_revives_it_sooner() {
        let transport = BackendKind::Sim.build(1);
        let client = transport.register("client", None);
        let (server, log) = stub_server(&transport, 0, HelloAnswer::Advertise);
        let session = Session::new(transport.clone(), client, Principal::anonymous());
        session.mark_dead(server, 0);
        transport.advance_us(DEAD_TTL_US - 1);
        assert!(session.is_dead(server));
        transport.advance_us(2);
        assert!(!session.is_dead(server), "aged out");
        // Sooner than that, the wire decides: the mark is a hint, so an
        // envelope still goes out — handshake riding, the endpoint being
        // unadvertised — and the answer overwrites the mark.
        session.mark_dead(server, 0);
        let responses = session.batch(server, vec![probe()]).unwrap();
        assert_eq!(versions(&responses), [0]);
        assert_eq!(
            sent_items(&log.lock().unwrap()[0]),
            [probe(), Request::Hello]
        );
        assert!(!session.is_dead(server));
        assert!(session.has_hello(server));
    }

    #[test]
    fn hello_hands_out_the_cached_entry() {
        let transport = BackendKind::Sim.build(1);
        let client = transport.register("client", None);
        let (server, _log) = stub_server(&transport, 0, HelloAnswer::Advertise);
        let session = Session::new(transport, client, Principal::anonymous());
        // Cold: `hello` goes to the wire and hands out the cache's own
        // entry, not a second allocation of the same bytes.
        let learned = session.hello(server).unwrap();
        assert!(Arc::ptr_eq(
            &learned,
            &session.cached_hello(server).unwrap()
        ));
        assert!(Arc::ptr_eq(&learned, &session.hello(server).unwrap()));
    }

    /// What a [`stub_server`] answers a `Hello` item with.
    #[derive(Clone, Copy)]
    enum HelloAnswer {
        /// `Response::Hello` — an advertisement.
        Advertise,
        /// `Response::Error` — a paper §5.3 denial of the info service.
        Refuse,
        /// An answer of some other kind.
        Unrelated,
        /// No answer at all: the batch comes back one item short.
        Omit,
    }

    /// Every envelope a [`stub_server`] received, as the raw bytes.
    type EnvelopeLog = Arc<std::sync::Mutex<Vec<Vec<u8>>>>;

    /// A sim service that logs every envelope, sheds the first
    /// `busy_first` with `Busy { retry_after_us: 500 }`, then answers
    /// item `i` of each batch with `PatchApplied { version: i }` —
    /// except `Hello` items, answered per `hello`.
    fn stub_server(
        transport: &Arc<dyn openflame_netsim::Transport>,
        busy_first: u64,
        hello: HelloAnswer,
    ) -> (EndpointId, EnvelopeLog) {
        let server = transport.register("stub-server", None);
        let log = EnvelopeLog::default();
        let seen = log.clone();
        transport.set_service(
            server,
            Arc::new(move |_from: EndpointId, payload: &[u8]| {
                let mut seen = seen.lock().unwrap();
                seen.push(payload.to_vec());
                if (seen.len() as u64) <= busy_first {
                    return to_bytes(&Response::Busy {
                        retry_after_us: 500,
                    })
                    .to_vec();
                }
                let answers: Vec<Response> = sent_items(payload)
                    .iter()
                    .enumerate()
                    .filter_map(|(i, item)| match (item, hello) {
                        (Request::Hello, HelloAnswer::Advertise) => {
                            Some(Response::Hello(stub_hello(7)))
                        }
                        (Request::Hello, HelloAnswer::Refuse) => Some(Response::Error {
                            code: 1,
                            message: "info denied".into(),
                        }),
                        (Request::Hello, HelloAnswer::Omit) => None,
                        _ => Some(Response::PatchApplied { version: i as u64 }),
                    })
                    .collect();
                to_bytes(&Response::Batch(answers)).to_vec()
            }),
        );
        (server, log)
    }

    /// The items of one logged envelope.
    fn sent_items(payload: &[u8]) -> Vec<Request> {
        let env: Envelope = from_bytes(payload).unwrap();
        let Request::Batch(items) = env.request else {
            panic!("session always sends batches");
        };
        items
    }

    fn flaky_busy_server(
        transport: &Arc<dyn openflame_netsim::Transport>,
        busy_first: u64,
    ) -> EndpointId {
        stub_server(transport, busy_first, HelloAnswer::Unrelated).0
    }

    /// A request the stub answers with `PatchApplied`.
    fn probe() -> Request {
        Request::NearestNode {
            pos: openflame_geo::Point2::new(0.0, 0.0),
        }
    }

    fn versions(responses: &[Response]) -> Vec<u64> {
        responses
            .iter()
            .map(|r| match r {
                Response::PatchApplied { version } => *version,
                other => panic!("the stub answers PatchApplied, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn the_handshake_rides_the_first_envelope_only() {
        let transport = BackendKind::Sim.build(1);
        let client = transport.register("client", None);
        let (server, log) = stub_server(&transport, 0, HelloAnswer::Advertise);
        let session = Session::new(transport, client, Principal::anonymous());
        assert!(!session.has_hello(server));
        // First contact: the caller's three items come back in order,
        // and nothing else — the server saw a fourth, last.
        let responses = session
            .batch(server, vec![probe(), probe(), probe()])
            .unwrap();
        assert_eq!(versions(&responses), [0, 1, 2]);
        assert!(session.has_hello(server), "first contact taught it");
        assert_eq!(session.cached_hello(server).unwrap().server_id, "stub-7");
        // Warm: the envelope is the caller's items and nothing else.
        let responses = session.batch(server, vec![probe()]).unwrap();
        assert_eq!(versions(&responses), [0]);
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(
            sent_items(&log[0]),
            [probe(), probe(), probe(), Request::Hello]
        );
        assert_eq!(sent_items(&log[1]), [probe()]);
        let stats = session.stats();
        assert_eq!((stats.batches, stats.batched_requests), (2, 5));
        assert_eq!((stats.hello_misses, stats.hello_hits), (1, 1));
    }

    #[test]
    fn a_batch_that_already_asks_gets_no_second_hello() {
        let transport = BackendKind::Sim.build(1);
        let client = transport.register("client", None);
        let (server, log) = stub_server(&transport, 0, HelloAnswer::Advertise);
        let session = Session::new(transport, client, Principal::anonymous());
        let responses = session
            .batch(server, vec![Request::Hello, probe()])
            .unwrap();
        // The caller asked, so the caller sees the answer, in place.
        assert!(matches!(responses[0], Response::Hello(_)));
        assert_eq!(versions(&responses[1..]), [1]);
        assert_eq!(
            sent_items(&log.lock().unwrap()[0]),
            [Request::Hello, probe()]
        );
        assert!(
            session.has_hello(server),
            "an asked-for hello is cached too"
        );
        // The bare handshake is the empty batch.
        let (other, log) = stub_server(&session.transport, 0, HelloAnswer::Advertise);
        assert_eq!(session.batch(other, Vec::new()).unwrap(), []);
        assert_eq!(sent_items(&log.lock().unwrap()[0]), [Request::Hello]);
        assert!(session.has_hello(other));
    }

    #[test]
    fn a_refused_or_unrelated_handshake_answer_is_stripped_and_not_cached() {
        for answer in [HelloAnswer::Refuse, HelloAnswer::Unrelated] {
            let transport = BackendKind::Sim.build(1);
            let client = transport.register("client", None);
            let (server, log) = stub_server(&transport, 0, answer);
            let session = Session::new(transport, client, Principal::anonymous());
            // The refusal is per-item and the session's own: the batch
            // succeeds with exactly the caller's answers.
            let responses = session.batch(server, vec![probe(), probe()]).unwrap();
            assert_eq!(versions(&responses), [0, 1]);
            assert!(!session.has_hello(server));
            // Nothing was learned, so the next envelope asks again.
            session.batch(server, vec![probe()]).unwrap();
            assert_eq!(
                sent_items(&log.lock().unwrap()[1]),
                [probe(), Request::Hello]
            );
            assert_eq!(session.stats().hello_misses, 2);
        }
    }

    #[test]
    fn a_busy_shed_resubmits_the_identical_envelope() {
        let transport = BackendKind::Sim.build(1);
        let client = transport.register("client", None);
        let (server, log) = stub_server(&transport, 1, HelloAnswer::Advertise);
        let session = Session::new(transport, client, Principal::anonymous());
        let responses = session.batch(server, vec![probe()]).unwrap();
        assert_eq!(versions(&responses), [0]);
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 2, "one shed, one served");
        assert_eq!(log[0], log[1], "the retry is the same bytes");
        assert_eq!(sent_items(&log[1]), [probe(), Request::Hello]);
        let stats = session.stats();
        assert_eq!((stats.batches, stats.hello_misses), (1, 1));
    }

    #[test]
    fn a_short_answer_is_still_a_protocol_error() {
        let transport = BackendKind::Sim.build(1);
        let client = transport.register("client", None);
        let (server, _log) = stub_server(&transport, 0, HelloAnswer::Omit);
        let session = Session::new(transport, client, Principal::anonymous());
        let err = session.batch(server, vec![probe()]).unwrap_err();
        assert_eq!(
            err,
            ClientError::Protocol("batch answered 1 of 2 items".into())
        );
    }

    #[test]
    fn an_expired_advertisement_is_relearned_on_the_next_envelope() {
        let transport = BackendKind::Sim.build(1);
        let client = transport.register("client", None);
        let (server, log) = stub_server(&transport, 0, HelloAnswer::Advertise);
        let session = Session::new(transport.clone(), client, Principal::anonymous());
        session.batch(server, vec![probe()]).unwrap();
        transport.advance_us(DEFAULT_TTL_US + 1);
        assert!(!session.has_hello(server), "aged out");
        let responses = session.batch(server, vec![probe()]).unwrap();
        assert_eq!(versions(&responses), [0]);
        assert!(session.has_hello(server), "re-learned");
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 2, "no envelope of its own");
        assert_eq!(sent_items(&log[1]), [probe(), Request::Hello]);
        assert_eq!(session.stats().batches, 2);
    }

    #[test]
    fn busy_sheds_are_retried_transparently() {
        let transport = BackendKind::Sim.build(1);
        let client = transport.register("client", None);
        let server = flaky_busy_server(&transport, 2);
        let session = Session::new(transport, client, Principal::anonymous());
        let responses = session.batch(server, vec![Request::Hello]).unwrap();
        assert_eq!(responses.len(), 1);
        let stats = session.stats();
        assert_eq!(stats.busy_rejections, 2);
        assert_eq!(stats.busy_retries, 2);
        assert_eq!(
            stats.batches, 1,
            "retries are wire attempts, not new logical batches"
        );
    }

    #[test]
    fn busy_budget_exhaustion_surfaces_overloaded() {
        let transport = BackendKind::Sim.build(1);
        let client = transport.register("client", None);
        let server = flaky_busy_server(&transport, u64::MAX);
        let session = Session::new(transport, client, Principal::anonymous());
        let err = session.batch(server, vec![Request::Hello]).unwrap_err();
        assert_eq!(
            err,
            ClientError::Overloaded {
                retry_after_us: 500
            }
        );
        let stats = session.stats();
        assert_eq!(stats.busy_rejections, u64::from(BUSY_RETRY_BUDGET) + 1);
        assert_eq!(stats.busy_retries, u64::from(BUSY_RETRY_BUDGET));
    }

    #[test]
    fn scatter_round_retries_busy_branches_and_folds_exhaustion() {
        let transport = BackendKind::Sim.build(1);
        let client = transport.register("client", None);
        let healthy = flaky_busy_server(&transport, 0);
        let recovering = flaky_busy_server(&transport, 1);
        let wedged = flaky_busy_server(&transport, u64::MAX);
        let session = Session::new(transport, client, Principal::anonymous());
        let mut round = session.scatter();
        for server in [healthy, recovering, wedged] {
            round.submit(server, vec![Request::Hello]);
        }
        let results = round.collect();
        assert!(results[0].is_ok());
        assert!(results[1].is_ok(), "one shed then served: absorbed");
        // Exhaustion fails its own branch alone, like any branch failure.
        assert_eq!(
            results[2],
            Err(ClientError::Overloaded {
                retry_after_us: 500
            })
        );
    }

    /// Every envelope of a round is on the wire before the first is
    /// claimed, so `collect` answers in submit order and the round
    /// costs its slowest branch, not the sum of them.
    #[test]
    fn a_scatter_round_answers_in_submit_order_and_costs_its_slowest_branch() {
        let transport = BackendKind::Sim.build(1);
        let client = transport.register("client", None);
        // Each server spends its own service time, then answers every
        // item with `PatchApplied { version: <that time in ms> }`.
        let servers: Vec<EndpointId> = [30u64, 90, 10]
            .into_iter()
            .map(|service_ms| {
                let server = transport.register("timed-server", None);
                let clock = transport.clone();
                transport.set_service(
                    server,
                    Arc::new(move |_from: EndpointId, payload: &[u8]| {
                        clock.advance_us(service_ms * 1_000);
                        let answers = sent_items(payload)
                            .iter()
                            .map(|_| Response::PatchApplied {
                                version: service_ms,
                            })
                            .collect();
                        to_bytes(&Response::Batch(answers)).to_vec()
                    }),
                );
                server
            })
            .collect();
        let session = Session::new(transport.clone(), client, Principal::anonymous());
        let t0 = transport.now_us();
        let mut round = session.scatter();
        for &server in &servers {
            round.submit(server, vec![probe()]);
        }
        let answers: Vec<Vec<u64>> = round
            .collect()
            .into_iter()
            .map(|branch| versions(&branch.unwrap()))
            .collect();
        assert_eq!(answers, [[30], [90], [10]]);
        let branch_us: Vec<u64> = servers
            .iter()
            .map(|&s| transport.endpoint_latency(s).unwrap().ewma_us)
            .collect();
        for (us, service_ms) in branch_us.iter().zip([30, 90, 10]) {
            assert!(*us >= service_ms * 1_000, "{us} µs");
        }
        let sum: u64 = branch_us.iter().sum();
        assert_eq!(session.stats().wire_us, sum);
        assert_eq!(
            transport.now_us() - t0,
            branch_us[1],
            "the slowest, not {sum}"
        );
    }

    #[test]
    fn busy_backoff_is_deterministic_capped_and_growing() {
        let a = busy_backoff_us(2_000, 0, EndpointId(1), EndpointId(2));
        assert_eq!(a, busy_backoff_us(2_000, 0, EndpointId(1), EndpointId(2)));
        assert!(
            busy_backoff_us(2_000, 3, EndpointId(1), EndpointId(2)) > a,
            "later attempts wait longer"
        );
        // A hostile hint cannot park the client past the cap + jitter.
        for attempt in 0..40 {
            assert!(
                busy_backoff_us(u64::MAX, attempt, EndpointId(1), EndpointId(2))
                    <= BUSY_BACKOFF_CAP_US + BUSY_BACKOFF_CAP_US / 4
            );
        }
        // Distinct clients hammering one server desynchronize.
        assert_ne!(a, busy_backoff_us(2_000, 0, EndpointId(9), EndpointId(2)));
    }
}
