//! A DNS substrate: zones, authoritative servers and a caching
//! iterative resolver over any wire transport.
//!
//! The paper's key discovery insight (paper §5.1) is that the *already
//! federated* DNS can serve as the spatial database: spatial cells become
//! hierarchical names, map-server registrations become resource records,
//! and discovery becomes a domain lookup that benefits from DNS's
//! ubiquitous caching. This crate provides the DNS itself:
//!
//! - [`DomainName`] — label sequences with parsing and subdomain math,
//!   held as one shared buffer per name: a clone, a parent or a walk
//!   over ancestors shares it and allocates nothing; building a new
//!   name (parse, child, decode) fills one new buffer,
//! - [`Record`] / [`RecordData`] — `A`-, `NS`-, `TXT`-, `MAPSRV`- and
//!   `FLEETSRV`-type records (the latter two carry a map server's or a
//!   fleet's endpoints and its [`Catalogue`], one varint of service
//!   bits); on the wire, a
//!   response's record sections name each owner once per run of its
//!   records (spec §9.5),
//! - [`Zone`] — record storage with DNS-style wildcard matching and
//!   delegation cuts, looked up by borrowed ancestor of the queried name,
//! - [`AuthServer`] — an authoritative server bound to a
//!   [`Transport`](openflame_netsim::Transport) endpoint,
//! - [`Resolver`] — an iterative resolver with TTL + LRU caching and
//!   negative caching, that follows referrals only down the tree and
//!   shares each decoded answer with its cache entry. Its
//!   cache is what makes repeat discovery cheap (paper §5.1); the
//!   `paper_claims` test `s5_1_dns_caching_makes_discovery_cheap`
//!   asserts it,
//! - [`TtlCache`] — the bounded TTL cache behind the resolver and a
//!   client session's endpoint and discovery caches: expired entries
//!   purged first, then the least recently used evicted.

pub mod cache;
pub mod name;
pub mod record;
pub mod resolver;
pub mod server;
pub mod zone;

pub use cache::TtlCache;
pub use name::DomainName;
pub use record::{Catalogue, FleetReplica, FleetShard, Record, RecordData, RecordType};
pub use resolver::{QueryOutcome, Resolver, ResolverConfig, ResolverStats};
pub use server::AuthServer;
pub use zone::Zone;

/// Errors produced by DNS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsError {
    /// A name failed to parse.
    BadName(String),
    /// The name definitely does not exist (authoritative NXDOMAIN).
    NxDomain(String),
    /// The server failed or the message could not be decoded.
    ServFail(String),
    /// Network-level failure (timeout, dead server).
    Network(String),
    /// Resolution exceeded the referral-depth limit.
    TooManyReferrals,
}

impl std::fmt::Display for DnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnsError::BadName(n) => write!(f, "malformed domain name {n:?}"),
            DnsError::NxDomain(n) => write!(f, "NXDOMAIN: {n}"),
            DnsError::ServFail(msg) => write!(f, "SERVFAIL: {msg}"),
            DnsError::Network(msg) => write!(f, "network failure: {msg}"),
            DnsError::TooManyReferrals => write!(f, "referral chain too deep"),
        }
    }
}

impl std::error::Error for DnsError {}
