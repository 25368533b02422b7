//! An iterative, caching DNS resolver.
//!
//! This is the component the paper leans on when it argues DNS-based
//! discovery inherits "ubiquitous caching mechanisms, large-scale
//! deployments, and infrastructure" (paper §5.1). The resolver walks referrals
//! from the root exactly like a real recursive resolver, and serves
//! repeat queries from a TTL-respecting LRU cache ([`TtlCache`]) with
//! negative caching: NXDOMAIN, authoritative ServFail, lame-delegation
//! and too-many-referral outcomes are all replayed from a short-TTL
//! negative entry (bounded by the same capacity, expired-first purge and
//! LRU policy as positive entries), so a misbehaving client hammering a
//! nonexistent or broken cell cannot amplify its queries into repeated
//! full referral walks upstream. A terminal answer's additional records
//! owned by the queried name (a `MAPSRV` answer's `FLEETSRV` set, spec
//! §9.1) live in the same entry as its answer, and an answer with no
//! records at all (NODATA) lives for the negative TTL.
//!
//! A terminal answer is decoded once: its records become one shared
//! slice (`Arc<[Record]>`) that the cache entry and the caller's
//! [`QueryOutcome`] both hold, so neither storing an answer nor a
//! cache hit copies a record's strings.
//!
//! A walk only ever moves down the tree (RFC 1034, section 5.3.3). It
//! tracks the zone it is asking, starting at the root, and follows a
//! referral only when the cut it names (the NS owner) lies strictly below
//! that zone and the queried name lies under the cut. Any other referral
//! — a loop back up, or a sideways hop — is a lame delegation. So a
//! broken delegation costs at most one upstream ask per zone on the way
//! down (one per label of the name, plus the root) before its outcome is
//! negatively cached, and a loop cannot run the walk into its hop limit.
//!
//! A walk encodes its query once and re-sends those bytes at every hop.
//!
//! The walks of one batch share the root's and the one-label zones'
//! referrals (spec §9.1, [`Resolver::resolve_many`]): five cold cell
//! lookups ask the root and `flame.` once each, not five times.

use crate::cache::TtlCache;
use crate::name::DomainName;
use crate::record::{QueryMsg, Rcode, Record, RecordData, RecordType, ResponseMsg};
use crate::DnsError;
use openflame_codec::{from_bytes, to_bytes};
use openflame_diag::{ranks, OrderedMutex};
use openflame_netsim::{EndpointId, Transport};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Maximum referral hops per query.
const MAX_REFERRALS: usize = 16;

/// Resolver tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ResolverConfig {
    /// Maximum cached (name, type) entries before LRU eviction.
    pub cache_capacity: usize,
    /// TTL applied to negative cache entries (NXDOMAIN, NODATA with no
    /// additional records, authoritative ServFail, lame delegations),
    /// seconds. Without it, every repeat lookup of a nonexistent or
    /// broken name re-walks the full referral chain — trivial
    /// upstream-query amplification from one misbehaving client.
    pub negative_ttl_s: u32,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        Self {
            cache_capacity: 4096,
            negative_ttl_s: 60,
        }
    }
}

/// Counters describing resolver behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Total queries received.
    pub queries: u64,
    /// Queries answered from the positive cache.
    pub cache_hits: u64,
    /// Queries answered from the negative cache (replayed NXDOMAIN and
    /// ServFail outcomes; see `negative_ttl_s`).
    pub negative_hits: u64,
    /// Upstream (authoritative) queries sent.
    pub upstream_queries: u64,
    /// Queries that ultimately failed.
    pub failures: u64,
    /// Live cache entries evicted by the LRU policy.
    pub evictions: u64,
    /// Expired cache entries purged while making room (these are not
    /// LRU victims: dead entries must never occupy capacity that a
    /// live entry needs).
    pub expired_purges: u64,
}

/// The result of a successful resolution.
///
/// The records are the answer as decoded once, shared by `Arc` with the
/// resolver's cache entry for the question: cloning an outcome, or
/// answering from the cache, copies no record.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Matching records (may be empty for NODATA).
    pub records: Arc<[Record]>,
    /// The answer's additional records owned by the queried name: for
    /// a `MAPSRV` question, the name's `FLEETSRV` records (spec §9.1).
    pub additional: Arc<[Record]>,
    /// Whether the answer came from cache.
    pub from_cache: bool,
    /// Authoritative round trips performed for this query (a referral
    /// taken from another walk of its batch costs none).
    pub upstream_queries: u32,
    /// Simulated latency of the resolution.
    pub latency_us: u64,
}

/// What a cache entry answers with: records, or a replayed negative
/// outcome. Negative entries share the one bounded cache (capacity,
/// expired-first purge, LRU eviction all apply to them identically),
/// which is what stops a misbehaving client from amplifying repeated
/// lookups of broken names into upstream referral walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    /// A positive answer, with its additional records (possibly NODATA:
    /// an empty record set, kept for the negative TTL).
    Positive,
    /// The name does not exist (RFC 2308 negative caching).
    NxDomain,
    /// The walk ended in an authoritative server failure or a lame
    /// delegation; cached briefly (the negative TTL) so a broken name
    /// does not trigger a full referral re-walk per lookup.
    ServFail,
    /// The walk ran out of referral hops; cached like `ServFail`.
    TooManyReferrals,
}

/// A cached outcome; its records are the ones its first
/// [`QueryOutcome`] holds.
#[derive(Clone)]
struct CacheEntry {
    records: Arc<[Record]>,
    additional: Arc<[Record]>,
    kind: EntryKind,
}

/// In-progress state of one pipelined referral walk
/// (see [`Resolver::resolve_many`]).
struct Walk {
    /// The encoded `QueryMsg`, sent unchanged to every server asked.
    query: Vec<u8>,
    /// The zone the candidates serve: the root, then each accepted cut.
    zone: DomainName,
    /// Candidate servers for the current zone cut, tried in order.
    candidates: Vec<EndpointId>,
    /// Upstream asks issued so far (including failed candidates).
    upstream: u32,
    /// Referrals followed so far, own or taken from a scout (the
    /// referral-hop budget counts these, not failed candidates).
    referrals: usize,
    /// Transport clock at query start (per-walk latency).
    t0: u64,
}

/// Outcome of interpreting one authoritative response within a walk.
enum WalkStep {
    /// The walk terminated with this outcome.
    Done(Result<QueryOutcome, DnsError>),
    /// Referral: continue at the child zone (the cut) and its servers.
    Referral(DomainName, Vec<EndpointId>),
}

/// An iterative caching resolver attached to a wire transport.
///
/// A resolver owns its own network endpoint (it is a host, like a
/// campus or ISP resolver) and serves any number of clients in-process.
/// It speaks only through the [`Transport`] trait, so the same resolver
/// walks referrals over the simulator or over real TCP sockets.
pub struct Resolver {
    transport: Arc<dyn Transport>,
    endpoint: EndpointId,
    root_hints: Vec<EndpointId>,
    config: ResolverConfig,
    cache: OrderedMutex<TtlCache<(DomainName, RecordType), CacheEntry>>,
    stats: OrderedMutex<ResolverStats>,
}

impl Resolver {
    /// Creates a resolver on any transport backend, using `root_hints`
    /// as the root server set.
    pub fn with_config_on(
        transport: Arc<dyn Transport>,
        name: impl Into<String>,
        root_hints: Vec<EndpointId>,
        config: ResolverConfig,
    ) -> Self {
        let endpoint = transport.register(&format!("resolver:{}", name.into()), None);
        Self {
            transport,
            endpoint,
            root_hints,
            config,
            cache: OrderedMutex::new(ranks::RESOLVER_CACHE, TtlCache::new(config.cache_capacity)),
            stats: OrderedMutex::new(ranks::RESOLVER_STATS, ResolverStats::default()),
        }
    }

    /// The resolver's network endpoint.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ResolverStats {
        let mut stats = self.stats.lock().clone();
        let cache = self.cache.lock();
        stats.evictions = cache.evicted;
        stats.expired_purges = cache.purged;
        stats
    }

    /// Clears the cache (stats are retained).
    pub fn flush_cache(&self) {
        self.cache.lock().clear();
    }

    /// Number of live (unexpired) cache entries. Expired entries still
    /// awaiting their lazy removal are not counted — they are dead
    /// weight, not cached knowledge.
    pub fn cache_len(&self) -> usize {
        let now = self.transport.now_us();
        self.cache.lock().live(now).count()
    }

    /// Resolves many queries — each consulting the cache first and
    /// walking referrals from the root hints otherwise — with their
    /// referral walks **pipelined**:
    /// at every step, each unfinished walk's next upstream ask is
    /// submitted through the transport's non-blocking path before any
    /// answer is awaited, so N lookups cost the slowest walk rather
    /// than the sum of all walks. This is what keeps neighbor-cell
    /// discovery (five cells per query) at one walk's latency. Results
    /// are positional; caching, negative caching, candidate failover
    /// and the referral-hop limit apply to every walk independently.
    ///
    /// The walks **share referrals** (spec §9.1). At the root and at a
    /// one-label zone, which only delegate in the discovery hierarchy,
    /// the first walk to reach a server scouts: the others there wait,
    /// and take its cut and glue (one hop of their budget) if their
    /// name lies under it. Anything else the scout meets is its own,
    /// and the others then ask for themselves. Deeper zones, the ones
    /// that answer, are asked by every walk at once.
    ///
    /// Duplicate queries within one batch are **deduplicated**: every
    /// duplicate shares the first occurrence's single walk (and its
    /// one upstream-query count) and receives a clone of its outcome,
    /// so a batch of five identical lookups costs exactly one
    /// hierarchy walk — the same wire cost as sequential
    /// single-query batches hitting the freshly-stored cache entry.
    /// Each duplicate still counts in [`ResolverStats::queries`];
    /// walk-level counters (upstream queries, failures) are charged
    /// once.
    pub fn resolve_many(
        &self,
        queries: &[(DomainName, RecordType)],
    ) -> Vec<Result<QueryOutcome, DnsError>> {
        let mut results: Vec<Option<Result<QueryOutcome, DnsError>>> =
            (0..queries.len()).map(|_| None).collect();
        let mut walks: Vec<Option<Walk>> = (0..queries.len()).map(|_| None).collect();
        // In-batch dedupe: map every query to the index of its first
        // occurrence; only canonical indices walk or probe the cache.
        let canonical: Vec<usize> = {
            let mut first: HashMap<(&DomainName, RecordType), usize> = HashMap::new();
            queries
                .iter()
                .enumerate()
                .map(|(i, (name, rtype))| *first.entry((name, *rtype)).or_insert(i))
                .collect()
        };
        for (i, (name, rtype)) in queries.iter().enumerate() {
            self.stats.lock().queries += 1;
            if canonical[i] != i {
                continue;
            }
            let t0 = self.transport.now_us();
            if let Some(cached) = self.cache_probe(name, *rtype, t0) {
                results[i] = Some(cached);
                continue;
            }
            walks[i] = Some(Walk {
                query: to_bytes(&QueryMsg {
                    name: name.clone(),
                    rtype: *rtype,
                })
                .to_vec(),
                zone: DomainName::root(),
                candidates: self.root_hints.clone(),
                upstream: 0,
                referrals: 0,
                t0,
            });
        }
        // The (zone, server) pairs at delegating zones whose scout has
        // come back: a walk still at one asks for itself.
        let mut scouted: HashSet<(DomainName, EndpointId)> = HashSet::new();
        loop {
            // Submit one step of every unfinished walk, then claim the
            // round together: overlapped referral walking.
            let mut step: Vec<(usize, EndpointId, openflame_netsim::CallHandle)> = Vec::new();
            let mut scouting: HashSet<(DomainName, EndpointId)> = HashSet::new();
            for (i, slot) in walks.iter_mut().enumerate() {
                let Some(walk) = slot else { continue };
                let Some(server) = walk.candidates.first().copied() else {
                    // Only a resolver with no root hints gets here.
                    let err = DnsError::Network("no candidate servers".into());
                    self.finish(&mut results[i], slot, Err(err));
                    continue;
                };
                // At the root and a one-label zone, the first walk to
                // ask a server scouts for the batch; the others wait.
                if walk.zone.label_count() <= 1 {
                    let key = (walk.zone.clone(), server);
                    if !scouted.contains(&key) && !scouting.insert(key) {
                        continue;
                    }
                }
                walk.upstream += 1;
                self.stats.lock().upstream_queries += 1;
                let handle = self
                    .transport
                    .submit(self.endpoint, server, walk.query.clone());
                step.push((i, server, handle));
            }
            if step.is_empty() {
                break;
            }
            scouted.extend(scouting);
            let mut learnt = Vec::new();
            for (i, server, handle) in step {
                let walk = walks[i].as_mut().expect("walk active for pending ask");
                let reply = handle
                    .wait()
                    .map_err(|e| DnsError::Network(e.to_string()))
                    .and_then(|transfer| {
                        from_bytes::<ResponseMsg>(&transfer.payload)
                            .map_err(|e| DnsError::ServFail(format!("bad response: {e}")))
                    });
                let done = match reply {
                    Err(e) => {
                        // A dead, flaky or garbled server: the next step
                        // tries the zone cut's following candidate, if any.
                        walk.candidates.remove(0);
                        walk.candidates.is_empty().then_some(Err(e))
                    }
                    Ok(resp) => match self.interpret(&queries[i].0, queries[i].1, resp, walk) {
                        WalkStep::Done(outcome) => Some(outcome),
                        WalkStep::Referral(cut, next) => {
                            if walk.zone.label_count() <= 1 {
                                learnt.push((walk.zone.clone(), server, cut.clone(), next.clone()));
                            }
                            self.descend(&queries[i], walk, cut, next)
                        }
                    },
                };
                if let Some(outcome) = done {
                    self.finish(&mut results[i], &mut walks[i], outcome);
                }
            }
            // Every walk still at a delegating zone and server that gave
            // a referral this step takes its cut if its name lies under
            // it: the downward rule would have given it that referral.
            for (zone, server, cut, next) in learnt {
                for (j, slot) in walks.iter_mut().enumerate() {
                    let Some(walk) = slot.as_mut().filter(|w| {
                        w.zone == zone
                            && w.candidates.first() == Some(&server)
                            && queries[j].0.is_subdomain_of(&cut)
                    }) else {
                        continue;
                    };
                    if let Some(outcome) =
                        self.descend(&queries[j], walk, cut.clone(), next.clone())
                    {
                        self.finish(&mut results[j], slot, outcome);
                    }
                }
            }
        }
        // Duplicates inherit their canonical query's outcome: one walk,
        // one upstream-query count, identical (cloned) results.
        for i in 0..queries.len() {
            if canonical[i] != i {
                results[i] = results[canonical[i]].clone();
            }
        }
        // Walk failures were counted where each walk concluded; cache
        // answers (including negative hits) never touch the failure
        // counter, exactly as in the sequential path.
        results
            .into_iter()
            .map(|r| r.expect("every walk terminated"))
            .collect()
    }

    /// Takes a walk down to `cut` and its servers, unless the referral
    /// exhausts the walk's hop budget.
    fn descend(
        &self,
        (name, rtype): &(DomainName, RecordType),
        walk: &mut Walk,
        cut: DomainName,
        next: Vec<EndpointId>,
    ) -> Option<Result<QueryOutcome, DnsError>> {
        walk.referrals += 1;
        if walk.referrals >= MAX_REFERRALS {
            self.cache_negative(name, *rtype, EntryKind::TooManyReferrals);
            return Some(Err(DnsError::TooManyReferrals));
        }
        walk.zone = cut;
        walk.candidates = next;
        None
    }

    /// Ends a walk with its outcome, charging a failure to the stats.
    fn finish(
        &self,
        result: &mut Option<Result<QueryOutcome, DnsError>>,
        walk: &mut Option<Walk>,
        outcome: Result<QueryOutcome, DnsError>,
    ) {
        if outcome.is_err() {
            self.stats.lock().failures += 1;
        }
        *result = Some(outcome);
        *walk = None;
    }

    /// Serves a query from the cache if a fresh entry exists,
    /// replicating the hit/negative-hit accounting and the 10 µs local
    /// lookup cost.
    fn cache_probe(
        &self,
        name: &DomainName,
        rtype: RecordType,
        t0: u64,
    ) -> Option<Result<QueryOutcome, DnsError>> {
        let CacheEntry {
            records,
            additional,
            kind,
        } = self.cache.lock().get(&(name.clone(), rtype), t0)?.clone();
        // A local cache answer still costs a hair of CPU.
        self.transport.advance_us(10);
        let negative = match kind {
            EntryKind::Positive => None,
            EntryKind::NxDomain => Some(DnsError::NxDomain(name.to_string())),
            EntryKind::ServFail => Some(DnsError::ServFail(name.to_string())),
            EntryKind::TooManyReferrals => Some(DnsError::TooManyReferrals),
        };
        if let Some(err) = negative {
            self.stats.lock().negative_hits += 1;
            return Some(Err(err));
        }
        self.stats.lock().cache_hits += 1;
        Some(Ok(QueryOutcome {
            records,
            additional,
            from_cache: true,
            upstream_queries: 0,
            latency_us: self.transport.now_us() - t0,
        }))
    }

    /// Interprets one authoritative response for a walk: a terminal
    /// answer (cached), a negative answer (negatively cached), or a
    /// referral down the tree with glue.
    fn interpret(
        &self,
        name: &DomainName,
        rtype: RecordType,
        resp: ResponseMsg,
        walk: &Walk,
    ) -> WalkStep {
        match resp.rcode {
            Rcode::ServFail => {
                // Cached like NXDOMAIN (short negative TTL): a broken
                // authoritative server must not cost a full referral
                // re-walk per repeat lookup. Transport-level failures
                // (dead candidates) are NOT cached — those fail over.
                self.cache_negative(name, rtype, EntryKind::ServFail);
                WalkStep::Done(Err(DnsError::ServFail(name.to_string())))
            }
            Rcode::NxDomain => {
                self.cache_negative(name, rtype, EntryKind::NxDomain);
                WalkStep::Done(Err(DnsError::NxDomain(name.to_string())))
            }
            Rcode::NoError => {
                if !resp.answers.is_empty() || resp.authority.is_empty() {
                    // Terminal answer (possibly NODATA). The additional
                    // records owned by the queried name ride with it
                    // (spec §9.1); referral glue is owned by name
                    // servers, so it never matches.
                    let answers: Arc<[Record]> = resp.answers.into();
                    let additional: Arc<[Record]> = resp
                        .additional
                        .into_iter()
                        .filter(|r| r.name == *name)
                        .collect::<Vec<_>>()
                        .into();
                    // The entry lives as long as its shortest-lived
                    // record; one with no records is a negative answer
                    // (RFC 2308, section 2.2).
                    let ttl = answers
                        .iter()
                        .chain(additional.iter())
                        .map(|r| r.ttl_s)
                        .min()
                        .unwrap_or(self.config.negative_ttl_s);
                    self.cache_store(
                        name,
                        rtype,
                        CacheEntry {
                            records: answers.clone(),
                            additional: additional.clone(),
                            kind: EntryKind::Positive,
                        },
                        ttl,
                    );
                    WalkStep::Done(Ok(QueryOutcome {
                        records: answers,
                        additional,
                        from_cache: false,
                        upstream_queries: walk.upstream,
                        latency_us: self.transport.now_us().saturating_sub(walk.t0),
                    }))
                } else {
                    // Referral: follow it only down the tree. The cut
                    // (the NS owner) must lie strictly below the zone
                    // just asked, and the name under the cut; the glue
                    // of that cut's servers is the next candidate set.
                    let mut cut: Option<&DomainName> = None;
                    let mut next = Vec::new();
                    for auth in &resp.authority {
                        let RecordData::Ns(ns_host) = &auth.data else {
                            continue;
                        };
                        let downward = auth.name != walk.zone
                            && auth.name.is_subdomain_of(&walk.zone)
                            && name.is_subdomain_of(&auth.name);
                        if !downward || cut.is_some_and(|c| *c != auth.name) {
                            continue;
                        }
                        cut = Some(&auth.name);
                        next.extend(resp.additional.iter().filter_map(|add| match add.data {
                            RecordData::A(ep) if add.name == *ns_host => Some(EndpointId(ep)),
                            _ => None,
                        }));
                    }
                    match cut {
                        Some(cut) if !next.is_empty() => WalkStep::Referral(cut.clone(), next),
                        _ => {
                            // A lame delegation (no usable cut or no
                            // glue) is as re-walkable-forever as an
                            // authoritative ServFail: negative-cache it
                            // under the same short TTL.
                            self.cache_negative(name, rtype, EntryKind::ServFail);
                            WalkStep::Done(Err(DnsError::ServFail(format!(
                                "lame delegation for {name}"
                            ))))
                        }
                    }
                }
            }
        }
    }

    /// Caches a negative outcome for the negative TTL.
    fn cache_negative(&self, name: &DomainName, rtype: RecordType, kind: EntryKind) {
        let entry = CacheEntry {
            records: Arc::new([]),
            additional: Arc::new([]),
            kind,
        };
        self.cache_store(name, rtype, entry, self.config.negative_ttl_s);
    }

    fn cache_store(&self, name: &DomainName, rtype: RecordType, entry: CacheEntry, ttl_s: u32) {
        if ttl_s == 0 {
            return;
        }
        let ttl_us = u64::from(ttl_s) * 1_000_000;
        let now = self.transport.now_us();
        self.cache
            .lock()
            .insert((name.clone(), rtype), entry, now, ttl_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Catalogue;
    use crate::server::AuthServer;
    use crate::zone::Zone;
    use openflame_netsim::BackendKind;

    impl Resolver {
        fn on(net: &Arc<dyn Transport>, name: &str, root_hints: Vec<EndpointId>) -> Self {
            Self::with_config_on(net.clone(), name, root_hints, ResolverConfig::default())
        }

        /// A one-query batch.
        fn resolve(&self, name: &DomainName, rtype: RecordType) -> Result<QueryOutcome, DnsError> {
            self.resolve_many(&[(name.clone(), rtype)])
                .pop()
                .expect("one query in, one outcome out")
        }
    }

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    /// Builds a three-tier hierarchy: root → `flame.` → `cell.flame.`.
    fn hierarchy(net: &Arc<dyn Transport>) -> (Vec<EndpointId>, std::sync::Arc<AuthServer>) {
        // Leaf zone with actual data.
        let mut cell_zone = Zone::new(name("cell.flame."));
        cell_zone.add(Record::new(
            name("1.2.f0.cell.flame."),
            300,
            RecordData::MapSrv {
                endpoint: 1001,
                server_id: "store-a".into(),
                catalogue: Catalogue::SEARCH,
            },
        ));
        let cell_server = AuthServer::spawn_on(net, "cell", vec![cell_zone]);
        // TLD zone delegating to the cell server.
        let mut tld = Zone::new(name("flame."));
        tld.delegate(
            name("cell.flame."),
            name("ns.cell.flame."),
            cell_server.endpoint().0,
        );
        let tld_server = AuthServer::spawn_on(net, "tld", vec![tld]);
        // Root delegating to the TLD.
        let mut root = Zone::new(DomainName::root());
        root.delegate(name("flame."), name("ns.flame."), tld_server.endpoint().0);
        let root_server = AuthServer::spawn_on(net, "root", vec![root]);
        (vec![root_server.endpoint()], cell_server)
    }

    #[test]
    fn walks_referrals_to_answer() {
        let net = BackendKind::Sim.build(5);
        let (roots, _cell) = hierarchy(&net);
        let resolver = Resolver::on(&net, "test", roots);
        let out = resolver
            .resolve(&name("1.2.f0.cell.flame."), RecordType::MapSrv)
            .unwrap();
        assert_eq!(out.records.len(), 1);
        assert!(!out.from_cache);
        // Root referral + TLD referral + final answer = 3 round trips.
        assert_eq!(out.upstream_queries, 3);
        assert!(out.latency_us > 0);
    }

    #[test]
    fn second_query_hits_cache_and_is_faster() {
        let net = BackendKind::Sim.build(5);
        let (roots, _cell) = hierarchy(&net);
        let resolver = Resolver::on(&net, "test", roots);
        let n = name("1.2.f0.cell.flame.");
        let cold = resolver.resolve(&n, RecordType::MapSrv).unwrap();
        let warm = resolver.resolve(&n, RecordType::MapSrv).unwrap();
        assert!(warm.from_cache);
        assert_eq!(warm.upstream_queries, 0);
        assert!(
            warm.latency_us < cold.latency_us / 10,
            "cache must be much faster"
        );
        let stats = resolver.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.upstream_queries, 3);
    }

    #[test]
    fn cache_expires_after_ttl() {
        let net = BackendKind::Sim.build(5);
        let (roots, _cell) = hierarchy(&net);
        let resolver = Resolver::on(&net, "test", roots);
        let n = name("1.2.f0.cell.flame.");
        resolver.resolve(&n, RecordType::MapSrv).unwrap();
        // Advance past the 300 s TTL.
        net.advance_us(301 * 1_000_000);
        let out = resolver.resolve(&n, RecordType::MapSrv).unwrap();
        assert!(!out.from_cache, "expired entry must be refetched");
    }

    #[test]
    fn nxdomain_negatively_cached() {
        let net = BackendKind::Sim.build(5);
        let (roots, _cell) = hierarchy(&net);
        let resolver = Resolver::on(&net, "test", roots);
        let n = name("9.9.f0.cell.flame.");
        let e1 = resolver.resolve(&n, RecordType::MapSrv).unwrap_err();
        assert!(matches!(e1, DnsError::NxDomain(_)));
        let upstream_after_first = resolver.stats().upstream_queries;
        let e2 = resolver.resolve(&n, RecordType::MapSrv).unwrap_err();
        assert!(matches!(e2, DnsError::NxDomain(_)));
        assert_eq!(
            resolver.stats().upstream_queries,
            upstream_after_first,
            "second NXDOMAIN served from negative cache"
        );
        assert_eq!(resolver.stats().negative_hits, 1);
    }

    #[test]
    fn runtime_registration_visible_after_negative_ttl() {
        let net = BackendKind::Sim.build(5);
        let (roots, cell) = hierarchy(&net);
        let resolver = Resolver::on(&net, "test", roots);
        let n = name("3.3.f0.cell.flame.");
        assert!(resolver.resolve(&n, RecordType::MapSrv).is_err());
        cell.with_zones_mut(|zones| {
            zones[0].add(Record::new(
                n.clone(),
                300,
                RecordData::MapSrv {
                    endpoint: 2002,
                    server_id: "new".into(),
                    catalogue: Catalogue::default(),
                },
            ));
        });
        // Still negative-cached.
        assert!(resolver.resolve(&n, RecordType::MapSrv).is_err());
        net.advance_us(61 * 1_000_000);
        let out = resolver.resolve(&n, RecordType::MapSrv).unwrap();
        assert_eq!(out.records.len(), 1);
    }

    #[test]
    fn dead_root_fails_over_to_second_hint() {
        let net = BackendKind::Sim.build(5);
        let (mut roots, _cell) = hierarchy(&net);
        // Add a dead server as the first hint.
        let dead = net.register("dns:dead", None);
        net.set_down(dead, true);
        roots.insert(0, dead);
        let resolver = Resolver::on(&net, "test", roots);
        let out = resolver
            .resolve(&name("1.2.f0.cell.flame."), RecordType::MapSrv)
            .unwrap();
        assert_eq!(out.records.len(), 1);
        // One wasted query on the dead root.
        assert_eq!(out.upstream_queries, 4);
    }

    #[test]
    fn all_servers_dead_is_network_error() {
        let net = BackendKind::Sim.build(5);
        let dead = net.register("dns:dead", None);
        net.set_down(dead, true);
        let resolver = Resolver::on(&net, "test", vec![dead]);
        let err = resolver.resolve(&name("x."), RecordType::A).unwrap_err();
        assert!(matches!(err, DnsError::Network(_)));
        assert_eq!(resolver.stats().failures, 1);
    }

    #[test]
    fn a_flushed_lookup_pays_the_full_walk() {
        let net = BackendKind::Sim.build(5);
        let (roots, _cell) = hierarchy(&net);
        let resolver = Resolver::on(&net, "cold", roots);
        let n = name("1.2.f0.cell.flame.");
        resolver.resolve(&n, RecordType::MapSrv).unwrap();
        resolver.flush_cache();
        assert_eq!(resolver.cache_len(), 0);
        let out = resolver.resolve(&n, RecordType::MapSrv).unwrap();
        assert!(!out.from_cache);
        // Root referral + TLD referral + answer, as on the first walk.
        assert_eq!(out.upstream_queries, 3);
        let stats = resolver.stats();
        assert_eq!((stats.upstream_queries, stats.cache_hits), (6, 0));
        // The walk refilled the cache: the next lookup is a hit.
        assert!(resolver.resolve(&n, RecordType::MapSrv).unwrap().from_cache);
    }

    #[test]
    fn lru_eviction_bounds_cache() {
        let net = BackendKind::Sim.build(5);
        // Single flat zone with many names.
        let mut zone = Zone::new(DomainName::root());
        for i in 0..20 {
            zone.add(Record::new(
                name(&format!("n{i}.")),
                300,
                RecordData::A(i as u64),
            ));
        }
        let server = AuthServer::spawn_on(&net, "root", vec![zone]);
        let config = ResolverConfig {
            cache_capacity: 8,
            ..Default::default()
        };
        let resolver =
            Resolver::with_config_on(net.clone(), "small", vec![server.endpoint()], config);
        for i in 0..20 {
            resolver
                .resolve(&name(&format!("n{i}.")), RecordType::A)
                .unwrap();
        }
        assert!(resolver.cache_len() <= 8);
        assert!(resolver.stats().evictions >= 12);
        // The most recent entry is still cached.
        let out = resolver.resolve(&name("n19."), RecordType::A).unwrap();
        assert!(out.from_cache);
    }

    #[test]
    fn expired_entries_do_not_displace_live_ones() {
        let net = BackendKind::Sim.build(5);
        // A flat zone: three short-TTL names and four long-TTL names.
        let mut zone = Zone::new(DomainName::root());
        for i in 0..3 {
            zone.add(Record::new(
                name(&format!("short{i}.")),
                5,
                RecordData::A(i as u64),
            ));
        }
        for i in 0..4 {
            zone.add(Record::new(
                name(&format!("long{i}.")),
                300,
                RecordData::A(100 + i as u64),
            ));
        }
        let server = AuthServer::spawn_on(&net, "root", vec![zone]);
        let config = ResolverConfig {
            cache_capacity: 4,
            ..Default::default()
        };
        let resolver =
            Resolver::with_config_on(net.clone(), "small", vec![server.endpoint()], config);
        for i in 0..3 {
            resolver
                .resolve(&name(&format!("short{i}.")), RecordType::A)
                .unwrap();
        }
        // All three short entries expire.
        net.advance_us(6 * 1_000_000);
        assert_eq!(
            resolver.cache_len(),
            0,
            "cache_len counts live entries only"
        );
        // Four fresh entries overflow the capacity of 4 only if the
        // dead ones are allowed to squat: the purge must claim the
        // expired entries, never a live one.
        for i in 0..4 {
            resolver
                .resolve(&name(&format!("long{i}.")), RecordType::A)
                .unwrap();
        }
        assert_eq!(resolver.cache_len(), 4);
        let stats = resolver.stats();
        assert_eq!(stats.expired_purges, 3, "dead entries purged, not kept");
        assert_eq!(stats.evictions, 0, "no live entry was sacrificed");
        for i in 0..4 {
            let out = resolver
                .resolve(&name(&format!("long{i}.")), RecordType::A)
                .unwrap();
            assert!(out.from_cache, "live entry long{i} must still be cached");
        }
    }

    #[test]
    fn resolve_many_dedupes_in_batch_duplicates() {
        let net = BackendKind::Sim.build(5);
        let (roots, _cell) = hierarchy(&net);
        let resolver = Resolver::on(&net, "test", roots);
        let n = name("1.2.f0.cell.flame.");
        let batch = vec![
            (n.clone(), RecordType::MapSrv),
            (n.clone(), RecordType::MapSrv),
            (n.clone(), RecordType::MapSrv),
        ];
        let outcomes = resolver.resolve_many(&batch);
        assert_eq!(outcomes.len(), 3);
        for outcome in &outcomes {
            let out = outcome.as_ref().unwrap();
            assert_eq!(out.records.len(), 1);
            // One shared walk: root referral + TLD referral + answer.
            assert_eq!(out.upstream_queries, 3);
        }
        let stats = resolver.stats();
        assert_eq!(stats.queries, 3, "every batch item counts as a query");
        assert_eq!(
            stats.upstream_queries, 3,
            "duplicates share one walk's upstream asks, not 3 walks x 3 hops"
        );
    }

    #[test]
    fn servfail_walks_are_negatively_cached() {
        let net = BackendKind::Sim.build(5);
        // Root delegates `broken.` to a server that hosts no such zone:
        // every walk ends in an authoritative ServFail. Without
        // negative caching each repeat lookup re-walks the chain.
        let lame = AuthServer::spawn_on(&net, "lame", vec![Zone::new(name("other."))]);
        let mut root = Zone::new(DomainName::root());
        root.delegate(name("broken."), name("ns.broken."), lame.endpoint().0);
        let root_server = AuthServer::spawn_on(&net, "root", vec![root]);
        let resolver = Resolver::on(&net, "t", vec![root_server.endpoint()]);
        let n = name("x.broken.");
        let e1 = resolver.resolve(&n, RecordType::A).unwrap_err();
        assert!(matches!(e1, DnsError::ServFail(_)));
        let upstream = resolver.stats().upstream_queries;
        assert!(upstream >= 2, "the first lookup really walked");
        // Repeat lookups replay the failure from the negative cache.
        for _ in 0..3 {
            let e = resolver.resolve(&n, RecordType::A).unwrap_err();
            assert!(matches!(e, DnsError::ServFail(_)));
        }
        assert_eq!(
            resolver.stats().upstream_queries,
            upstream,
            "repeat ServFail lookups must not re-walk the referral chain"
        );
        assert_eq!(resolver.stats().negative_hits, 3);
        // Expiry: after the negative TTL the walk is retried upstream.
        net.advance_us(61 * 1_000_000);
        let _ = resolver.resolve(&n, RecordType::A).unwrap_err();
        assert!(resolver.stats().upstream_queries > upstream);
    }

    #[test]
    fn a_referral_loop_is_lame_and_negatively_cached() {
        let net = BackendKind::Sim.build(5);
        // Root refers `flame.` to the TLD, and the TLD refers
        // `cell.flame.` back to the root server, which refers `flame.`
        // again: a referral up the tree, which the walk must refuse
        // instead of riding it until the hop limit.
        let root_server = AuthServer::spawn_on(&net, "root", Vec::new());
        let mut tld = Zone::new(name("flame."));
        tld.delegate(
            name("cell.flame."),
            name("ns.cell.flame."),
            root_server.endpoint().0,
        );
        let tld_server = AuthServer::spawn_on(&net, "tld", vec![tld]);
        let mut root = Zone::new(DomainName::root());
        root.delegate(name("flame."), name("ns.flame."), tld_server.endpoint().0);
        root_server.with_zones_mut(|zones| zones.push(root));
        let resolver = Resolver::on(&net, "t", vec![root_server.endpoint()]);
        let n = name("1.2.f0.cell.flame.");
        let err = resolver.resolve(&n, RecordType::MapSrv).unwrap_err();
        let upstream = resolver.stats().upstream_queries;
        assert!(
            upstream <= 3,
            "a referral loop cost {upstream} upstream queries"
        );
        assert!(matches!(err, DnsError::ServFail(_)), "{err:?}");
        let again = resolver.resolve(&n, RecordType::MapSrv).unwrap_err();
        assert!(matches!(again, DnsError::ServFail(_)), "{again:?}");
        assert_eq!(
            resolver.stats().upstream_queries,
            upstream,
            "the repeat is a negative hit, not another walk"
        );
        assert_eq!(resolver.stats().negative_hits, 1);
    }

    #[test]
    fn negative_entries_share_the_bounded_cache() {
        let net = BackendKind::Sim.build(5);
        // A flat zone with NO matching names: every lookup is an
        // NXDOMAIN, so the negative entries alone must hit the
        // capacity bound and be evicted expired-first/LRU exactly like
        // positive ones.
        let zone = Zone::new(DomainName::root());
        let server = AuthServer::spawn_on(&net, "root", vec![zone]);
        let config = ResolverConfig {
            cache_capacity: 8,
            ..Default::default()
        };
        let resolver =
            Resolver::with_config_on(net.clone(), "small", vec![server.endpoint()], config);
        for i in 0..20 {
            let e = resolver
                .resolve(&name(&format!("ghost{i}.")), RecordType::A)
                .unwrap_err();
            assert!(matches!(e, DnsError::NxDomain(_)));
        }
        assert!(
            resolver.cache_len() <= 8,
            "negative entries respect the cap"
        );
        assert!(resolver.stats().evictions >= 12);
        // The most recent negative entry is still live: a repeat is a
        // negative hit, not a walk.
        let upstream = resolver.stats().upstream_queries;
        let e = resolver
            .resolve(&name("ghost19."), RecordType::A)
            .unwrap_err();
        assert!(matches!(e, DnsError::NxDomain(_)));
        assert_eq!(resolver.stats().upstream_queries, upstream);
        assert_eq!(resolver.stats().negative_hits, 1);
        // An evicted one walks again.
        let _ = resolver
            .resolve(&name("ghost0."), RecordType::A)
            .unwrap_err();
        assert!(resolver.stats().upstream_queries > upstream);
    }

    #[test]
    fn a_negative_entry_survives_a_cache_full_of_longer_ttls() {
        let net = BackendKind::Sim.build(5);
        let mut zone = Zone::new(DomainName::root());
        for i in 0..8 {
            zone.add(Record::new(
                name(&format!("n{i}.")),
                300,
                RecordData::A(i as u64),
            ));
        }
        let server = AuthServer::spawn_on(&net, "root", vec![zone]);
        let config = ResolverConfig {
            cache_capacity: 8,
            ..Default::default()
        };
        let resolver =
            Resolver::with_config_on(net.clone(), "small", vec![server.endpoint()], config);
        for i in 0..8 {
            resolver
                .resolve(&name(&format!("n{i}.")), RecordType::A)
                .unwrap();
        }
        // The NXDOMAIN entry (60 s) is the freshest knowledge in a full
        // cache of 300 s answers: evicting by nearness to expiry would
        // drop it at once, and every repeat would re-walk the tree.
        let ghost = name("ghost.");
        let e = resolver.resolve(&ghost, RecordType::A).unwrap_err();
        assert!(matches!(e, DnsError::NxDomain(_)));
        let upstream = resolver.stats().upstream_queries;
        let e = resolver.resolve(&ghost, RecordType::A).unwrap_err();
        assert!(matches!(e, DnsError::NxDomain(_)));
        assert_eq!(resolver.stats().upstream_queries, upstream);
        assert_eq!(resolver.stats().negative_hits, 1);
    }

    #[test]
    fn resolve_many_dedupes_nonexistent_names_onto_one_negative_walk() {
        let net = BackendKind::Sim.build(5);
        let (roots, _cell) = hierarchy(&net);
        let resolver = Resolver::on(&net, "test", roots);
        let n = name("9.9.f0.cell.flame.");
        let batch = vec![
            (n.clone(), RecordType::MapSrv),
            (n.clone(), RecordType::MapSrv),
            (n.clone(), RecordType::MapSrv),
        ];
        let outcomes = resolver.resolve_many(&batch);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, Err(DnsError::NxDomain(_)))));
        let stats = resolver.stats();
        assert_eq!(
            stats.upstream_queries, 3,
            "three duplicates share ONE walk (root + tld + NXDOMAIN), not three"
        );
        assert_eq!(stats.failures, 1, "one walk concluded, one failure charged");
        // The shared walk fed the negative cache: the next batch is
        // answered locally.
        let again = resolver.resolve_many(&batch);
        assert!(again
            .iter()
            .all(|o| matches!(o, Err(DnsError::NxDomain(_)))));
        let stats = resolver.stats();
        assert_eq!(stats.upstream_queries, 3, "no further upstream asks");
        assert_eq!(
            stats.negative_hits, 1,
            "one canonical probe hit, duplicates cloned it"
        );
    }

    /// Five cells in the `cell.flame.` zone of [`hierarchy`], as one
    /// `MAPSRV` batch.
    fn five_cells(cell: &AuthServer) -> Vec<(DomainName, RecordType)> {
        let cells: Vec<DomainName> = (1..=5)
            .map(|i| name(&format!("{i}.3.f0.cell.flame.")))
            .collect();
        cell.with_zones_mut(|zones| {
            for (i, cell) in cells.iter().enumerate() {
                zones[0].add(Record::new(
                    cell.clone(),
                    300,
                    RecordData::MapSrv {
                        endpoint: 2000 + i as u64,
                        server_id: format!("venue-{i}"),
                        catalogue: Catalogue::default(),
                    },
                ));
            }
        });
        cells.into_iter().map(|n| (n, RecordType::MapSrv)).collect()
    }

    #[test]
    fn five_names_under_one_tld_share_the_root_and_tld_referrals() {
        let net = BackendKind::Sim.build(5);
        let (roots, cell) = hierarchy(&net);
        let batch = five_cells(&cell);
        let lone_us: Vec<u64> = batch
            .iter()
            .map(|(n, rtype)| {
                let lone = Resolver::on(&net, "lone", roots.clone());
                lone.resolve(n, *rtype).unwrap().latency_us
            })
            .collect();
        let resolver = Resolver::on(&net, "batch", roots);
        let t0 = net.now_us();
        let outcomes = resolver.resolve_many(&batch);
        let batch_us = net.now_us() - t0;
        for outcome in &outcomes {
            assert_eq!(outcome.as_ref().unwrap().records.len(), 1);
        }
        // One root ask, one TLD ask, five answers.
        assert_eq!(resolver.stats().upstream_queries, 7);
        // The waits cost no round trip: the batch takes a lone walk's
        // three, and its last waits on the slowest of five answers, each
        // with up to 2 x 100 us of simulated jitter. A fourth round trip
        // would cost at least 2 x 200 us more.
        let slowest = *lone_us.iter().max().unwrap();
        assert!(batch_us <= slowest + 200, "{batch_us} us vs {lone_us:?}");
    }

    #[test]
    fn a_dead_first_root_hint_is_met_by_the_scout_and_every_walk_fails_over() {
        let net = BackendKind::Sim.build(5);
        let (mut roots, cell) = hierarchy(&net);
        let dead = net.register("dns:dead", None);
        net.set_down(dead, true);
        roots.insert(0, dead);
        let batch = five_cells(&cell);
        let resolver = Resolver::on(&net, "test", roots);
        for outcome in resolver.resolve_many(&batch) {
            assert_eq!(outcome.unwrap().records.len(), 1);
        }
        // The scout's failure is its own, so every walk meets the dead
        // hint itself; the second hint's referrals are then shared.
        assert_eq!(resolver.stats().upstream_queries, 5 + 1 + 1 + 5);
        assert_eq!(resolver.stats().failures, 0);
    }

    #[test]
    fn a_one_label_zone_that_answers_lets_the_waiting_walks_ask_next() {
        let net = BackendKind::Sim.build(5);
        let mut tld = Zone::new(name("shop."));
        for owner in ["a.shop.", "b.shop."] {
            tld.add(Record::new(name(owner), 300, RecordData::A(7)));
        }
        let tld_server = AuthServer::spawn_on(&net, "shop", vec![tld]);
        let mut root = Zone::new(DomainName::root());
        root.delegate(name("shop."), name("ns.shop."), tld_server.endpoint().0);
        let roots = vec![AuthServer::spawn_on(&net, "root", vec![root]).endpoint()];
        let batch: Vec<(DomainName, RecordType)> = ["a.shop.", "b.shop.", "c.shop."]
            .into_iter()
            .map(|n| (name(n), RecordType::A))
            .collect();
        let resolver = Resolver::on(&net, "test", roots.clone());
        let outcomes = resolver.resolve_many(&batch);
        for ((n, rtype), outcome) in batch.iter().zip(&outcomes) {
            let lone = Resolver::on(&net, "lone", roots.clone()).resolve(n, *rtype);
            match (outcome, lone) {
                (Ok(shared), Ok(lone)) => assert_eq!(shared.records, lone.records, "{n}"),
                (Err(shared), Err(lone)) => assert_eq!(*shared, lone, "{n}"),
                (shared, lone) => panic!("{n}: {shared:?} vs {lone:?}"),
            }
        }
        // One root ask; the scout's answer at `shop.` is its own, so
        // the two walks that waited there ask for themselves.
        assert_eq!(resolver.stats().upstream_queries, 1 + 3);
    }

    #[test]
    fn a_referral_taken_from_a_scout_counts_against_the_hop_limit() {
        // A chain of `depth` single-label delegations below the root,
        // each zone on its own server; the deepest zone answers. A lone
        // walk follows `depth` referrals, so it is cut off at 16.
        for depth in [MAX_REFERRALS - 1, MAX_REFERRALS] {
            let net = BackendKind::Sim.build(5);
            let origins: Vec<DomainName> = (0..=depth)
                .map(|d| DomainName::from_labels(vec!["c"; d]).unwrap())
                .collect();
            let mut deepest = Zone::new(origins[depth].clone());
            for label in ["x", "y"] {
                deepest.add(Record::new(
                    origins[depth].child(label).unwrap(),
                    300,
                    RecordData::A(1),
                ));
            }
            let mut below = AuthServer::spawn_on(&net, "deepest", vec![deepest]).endpoint();
            for origin in origins[..depth].iter().rev() {
                let cut = origin.child("c").unwrap();
                let mut zone = Zone::new(origin.clone());
                zone.delegate(cut.clone(), cut.child("ns").unwrap(), below.0);
                below = AuthServer::spawn_on(&net, "link", vec![zone]).endpoint();
            }
            let batch: Vec<(DomainName, RecordType)> = ["x", "y"]
                .into_iter()
                .map(|l| (origins[depth].child(l).unwrap(), RecordType::A))
                .collect();
            let lone = Resolver::on(&net, "lone", vec![below]).resolve(&batch[1].0, RecordType::A);
            let resolver = Resolver::on(&net, "batch", vec![below]);
            for outcome in resolver.resolve_many(&batch) {
                assert_eq!(outcome.is_ok(), lone.is_ok(), "depth {depth}");
                assert_eq!(outcome.is_ok(), depth < MAX_REFERRALS, "depth {depth}");
            }
        }
    }

    #[test]
    fn an_undecodable_reply_fails_over_to_the_next_candidate() {
        let net = BackendKind::Sim.build(5);
        let (mut roots, _cell) = hierarchy(&net);
        let junk = net.register("dns:junk", None);
        net.set_service(junk, Arc::new(|_: EndpointId, _: &[u8]| vec![0xff]));
        roots.insert(0, junk);
        let resolver = Resolver::on(&net, "test", roots);
        let n = name("1.2.f0.cell.flame.");
        let out = resolver.resolve(&n, RecordType::MapSrv).unwrap();
        assert_eq!(out.records.len(), 1);
        // The garbled reply cost one ask, like a dead candidate.
        assert_eq!(out.upstream_queries, 4);
        assert_eq!(resolver.stats().failures, 0);
    }

    #[test]
    fn nodata_is_cached_as_empty_success() {
        let net = BackendKind::Sim.build(5);
        let mut zone = Zone::new(DomainName::root());
        zone.add(Record::new(name("host."), 300, RecordData::A(1)));
        let server = AuthServer::spawn_on(&net, "root", vec![zone]);
        let resolver = Resolver::on(&net, "t", vec![server.endpoint()]);
        let out = resolver.resolve(&name("host."), RecordType::Txt).unwrap();
        assert!(out.records.is_empty());
        let out2 = resolver.resolve(&name("host."), RecordType::Txt).unwrap();
        assert!(out2.from_cache);
        assert!(out2.records.is_empty());
    }

    #[test]
    fn nodata_lives_for_the_negative_ttl() {
        let net = BackendKind::Sim.build(5);
        let mut zone = Zone::new(DomainName::root());
        zone.add(Record::new(
            name("note."),
            300,
            RecordData::Txt("hi".into()),
        ));
        let server = AuthServer::spawn_on(&net, "root", vec![zone]);
        let config = ResolverConfig {
            negative_ttl_s: 5,
            ..Default::default()
        };
        let resolver = Resolver::with_config_on(net.clone(), "t", vec![server.endpoint()], config);
        let n = name("note.");
        assert!(resolver
            .resolve(&n, RecordType::A)
            .unwrap()
            .records
            .is_empty());
        net.advance_us(4 * 1_000_000);
        assert!(resolver.resolve(&n, RecordType::A).unwrap().from_cache);
        net.advance_us(2 * 1_000_000);
        let again = resolver.resolve(&n, RecordType::A).unwrap();
        assert!(!again.from_cache, "NODATA outlived the negative TTL");
        assert_eq!(resolver.stats().upstream_queries, 2);
    }

    /// A flat zone whose `cell.` holds a `MAPSRV` (300 s) and a
    /// `FLEETSRV` (20 s) record.
    fn fleet_zone(net: &Arc<dyn Transport>) -> Arc<AuthServer> {
        let mut zone = Zone::new(DomainName::root());
        zone.add(Record::new(
            name("cell."),
            300,
            RecordData::MapSrv {
                endpoint: 1,
                server_id: "outdoor".into(),
                catalogue: Catalogue::default(),
            },
        ));
        zone.add(Record::new(
            name("cell."),
            20,
            RecordData::FleetSrv {
                group_id: "mall".into(),
                catalogue: Catalogue::default(),
                shards: vec![],
            },
        ));
        AuthServer::spawn_on(net, "root", vec![zone])
    }

    #[test]
    fn a_cache_hit_returns_the_additional_records_until_the_shortest_ttl() {
        let net = BackendKind::Sim.build(5);
        let server = fleet_zone(&net);
        let resolver = Resolver::on(&net, "t", vec![server.endpoint()]);
        let cell = name("cell.");
        let cold = resolver.resolve(&cell, RecordType::MapSrv).unwrap();
        assert_eq!(cold.records.len(), 1);
        assert_eq!(cold.additional.len(), 1);
        assert!(matches!(
            cold.additional[0].data,
            RecordData::FleetSrv { .. }
        ));
        let warm = resolver.resolve(&cell, RecordType::MapSrv).unwrap();
        assert!(warm.from_cache);
        assert_eq!(
            (warm.records, warm.additional),
            (cold.records, cold.additional)
        );
        // The entry lives for the FLEETSRV record's 20 s, not 300 s.
        net.advance_us(21 * 1_000_000);
        let expired = resolver.resolve(&cell, RecordType::MapSrv).unwrap();
        assert!(!expired.from_cache);
        assert_eq!(expired.additional.len(), 1);
    }

    #[test]
    fn a_flushed_lookup_still_returns_the_additional_records() {
        let net = BackendKind::Sim.build(5);
        let server = fleet_zone(&net);
        let resolver = Resolver::on(&net, "t", vec![server.endpoint()]);
        for _ in 0..2 {
            resolver.flush_cache();
            let out = resolver
                .resolve(&name("cell."), RecordType::MapSrv)
                .unwrap();
            assert!(!out.from_cache);
            assert_eq!(out.upstream_queries, 1);
            assert!(matches!(
                out.additional[..],
                [Record {
                    data: RecordData::FleetSrv { .. },
                    ..
                }]
            ));
        }
        assert_eq!(resolver.stats().cache_hits, 0);
    }
}
