//! Resource records and the on-wire DNS message format.
//!
//! The wire form of every type here is declared once, in the message
//! table below the type definitions (`openflame_codec::table`): fields
//! in wire order, and for an enum each variant's tag. A [`RecordData`] payload is tagged with its
//! [`RecordType`], so the two tables carry the same five rows; the
//! conformance lint holds both to the one record-type table of
//! `docs/wire-protocol.md` spec §2.1, and [`Catalogue`]'s named bits to
//! the bit table of spec §9.1.
//!
//! Hand-written, because a table row cannot say it — the exceptions:
//!
//! - [`DomainName`]: its labels decode through the same validation as
//!   `from_labels`, straight into the name's one shared buffer.
//! - `OwnerRuns`, the codec of a response's record sections: it
//!   writes each owner once per run of consecutive records (spec §9.5)
//!   and refuses the encodings that would make a section ambiguous.
//!   Nothing puts a bare [`Record`] on the wire.

use crate::name::DomainName;
use openflame_codec::{wire_enum, wire_struct, CodecError, FieldCodec, Reader, Wire, Writer};

/// Record types supported by the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// Address record: resolves a host name to a network endpoint.
    A,
    /// Delegation: names the authoritative server of a child zone.
    Ns,
    /// Free-form text.
    Txt,
    /// Map-server advertisement: the OpenFLAME-specific record carrying
    /// a map server's endpoint and service catalogue (paper §5.1).
    MapSrv,
    /// Fleet advertisement: a serving group's replica set and content
    /// shard map for one cell (see docs/wire-protocol.md spec §9). Where a
    /// `MapSrv` record names one server, a `FleetSrv` record names the
    /// whole replicated + sharded fleet serving the same content.
    FleetSrv,
}

/// A server's service catalogue (spec §9.1): one bit per entry of the
/// closed vocabulary, sent as one varint. A kind whose bit is clear,
/// the server does not offer.
///
/// Bits the spec does not name are kept: they decode, re-encode and
/// compare like the named ones, but no name spells them and no proof
/// reads them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Catalogue(pub u32);

impl Catalogue {
    /// `search`.
    pub const SEARCH: Self = Self(1 << 0);
    /// `geocode`.
    pub const GEOCODE: Self = Self(1 << 1);
    /// `rgeocode`.
    pub const RGEOCODE: Self = Self(1 << 2);
    /// `route`.
    pub const ROUTE: Self = Self(1 << 3);
    /// `localize`.
    pub const LOCALIZE: Self = Self(1 << 4);
    /// `tiles`.
    pub const TILES: Self = Self(1 << 5);
    /// `localize:gnss`.
    pub const LOCALIZE_GNSS: Self = Self(1 << 6);
    /// `localize:beacon`.
    pub const LOCALIZE_BEACON: Self = Self(1 << 7);
    /// `localize:tag`.
    pub const LOCALIZE_TAG: Self = Self(1 << 8);

    /// The six kinds of the vocabulary: a catalogue holding none of
    /// them proves nothing.
    pub const KINDS: Self = Self(0b11_1111);

    /// Each named bit's entry, indexed by bit.
    pub const NAMES: [&'static str; 9] = [
        "search",
        "geocode",
        "rgeocode",
        "route",
        "localize",
        "tiles",
        "localize:gnss",
        "localize:beacon",
        "localize:tag",
    ];

    /// Whether every bit of `entries` is set.
    pub fn contains(self, entries: Self) -> bool {
        self.0 & entries.0 == entries.0
    }

    /// Whether any bit of `entries` is set.
    pub fn intersects(self, entries: Self) -> bool {
        self.0 & entries.0 != 0
    }

    /// The named entries set, in bit order; unknown bits spell nothing.
    pub fn names(self) -> impl Iterator<Item = &'static str> {
        (Self::NAMES.iter().enumerate())
            .filter(move |(bit, _)| self.0 >> bit & 1 == 1)
            .map(|(_, name)| *name)
    }
}

impl std::ops::BitOr for Catalogue {
    type Output = Self;

    fn bitor(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }
}

/// One replica server inside a fleet shard: interchangeable with its
/// siblings for every idempotent request (same content, same services).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReplica {
    /// Network endpoint of this replica.
    pub endpoint: u64,
    /// Stable identifier (e.g. `"grocer-1/s0r1"`), used for hello
    /// caching and failure reporting.
    pub server_id: String,
}

/// One content shard of a fleet: a spatial slice of the cell's
/// documents plus the replica set that serves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetShard {
    /// Raw cell ids (sub-cells of the advertised cell) covering this
    /// shard's content. Skew-aware splits give hot sub-areas their own
    /// shard, so extents are narrower where content is dense.
    pub extents: Vec<u64>,
    /// Replicas serving this shard, all interchangeable.
    pub replicas: Vec<FleetReplica>,
}

/// Payload of a resource record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordData {
    /// Network endpoint id (the simulation's stand-in for an IP address).
    A(u64),
    /// Authoritative server host name for a delegated child zone.
    Ns(DomainName),
    /// Free-form text.
    Txt(String),
    /// A map-server advertisement.
    MapSrv {
        /// Network endpoint of the map server.
        endpoint: u64,
        /// Stable identifier of the map server (e.g. `"grocer-shadyside"`).
        server_id: String,
        /// The server's service catalogue (spec §9.1).
        catalogue: Catalogue,
    },
    /// A fleet advertisement: one serving group's replica set and
    /// content shard map for the owning cell.
    FleetSrv {
        /// Stable identifier of the serving group (e.g. `"grocer-1"`).
        group_id: String,
        /// The service catalogue, shared by every replica.
        catalogue: Catalogue,
        /// The content shards; shard order is part of the advertisement
        /// and stable across queries (shard-stable caching keys off it).
        shards: Vec<FleetShard>,
    },
}

impl RecordData {
    /// The record type of this payload.
    pub fn rtype(&self) -> RecordType {
        match self {
            RecordData::A(_) => RecordType::A,
            RecordData::Ns(_) => RecordType::Ns,
            RecordData::Txt(_) => RecordType::Txt,
            RecordData::MapSrv { .. } => RecordType::MapSrv,
            RecordData::FleetSrv { .. } => RecordType::FleetSrv,
        }
    }
}

/// A resource record: name, TTL and payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Owner name.
    pub name: DomainName,
    /// Time to live, seconds.
    pub ttl_s: u32,
    /// Payload.
    pub data: RecordData,
}

impl Record {
    /// Creates a record.
    pub fn new(name: DomainName, ttl_s: u32, data: RecordData) -> Self {
        Self { name, ttl_s, data }
    }
}

/// Response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// Success (possibly with an empty answer section).
    NoError,
    /// The queried name does not exist in the zone.
    NxDomain,
    /// Server-side failure.
    ServFail,
}

/// A DNS query message.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMsg {
    /// Queried name.
    pub name: DomainName,
    /// Queried record type.
    pub rtype: RecordType,
}

/// A DNS response message.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseMsg {
    /// Outcome code.
    pub rcode: Rcode,
    /// Matching records.
    pub answers: Vec<Record>,
    /// Referral records (NS) when the server is not authoritative for
    /// the full name.
    pub authority: Vec<Record>,
    /// Glue records resolving names mentioned in `authority`; in an
    /// answer to a `MAPSRV` question, the queried name's `FLEETSRV`
    /// records (spec §9.1).
    pub additional: Vec<Record>,
}

impl ResponseMsg {
    /// A response carrying only an rcode.
    pub fn empty(rcode: Rcode) -> Self {
        Self {
            rcode,
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }
}

impl Wire for DomainName {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.label_count() as u64);
        for l in self.labels() {
            w.put_str(l);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // The labels are read in place and written straight into the
        // name's one buffer; each takes a length byte or more, so the
        // text grows no faster than the input.
        let count = r.read_length()?;
        let mut text = String::new();
        let mut valid = true;
        for _ in 0..count {
            let len = r.read_length()?;
            let label =
                std::str::from_utf8(r.read_raw(len)?).map_err(|_| CodecError::InvalidUtf8)?;
            valid &= DomainName::push_label(&mut text, label);
        }
        if !valid {
            return Err(CodecError::InvalidTag {
                context: "DomainName",
                tag: 0,
            });
        }
        Ok(DomainName::from_text(text))
    }
}

wire_enum! { RecordType, "RecordType" {
    0 => A,
    1 => Ns,
    2 => Txt,
    3 => MapSrv,
    4 => FleetSrv,
} }
wire_enum! { RecordData, "RecordType" {
    0 => A(endpoint),
    1 => Ns(host),
    2 => Txt(text),
    3 => MapSrv { endpoint, server_id, catalogue },
    4 => FleetSrv { group_id, catalogue, shards },
} }
wire_enum! { Rcode, "Rcode" {
    0 => NoError,
    1 => NxDomain,
    2 => ServFail,
} }
wire_struct! { Catalogue { 0 } }
wire_struct! { FleetReplica { endpoint, server_id } }
wire_struct! { FleetShard { extents, replicas } }
wire_struct! { QueryMsg { name, rtype } }
wire_struct! { ResponseMsg { rcode, answers: OwnerRuns, authority: OwnerRuns, additional: OwnerRuns } }

/// Codec of one record section of a [`ResponseMsg`]: the records as
/// owner runs (spec §9.5), each owner written once before the TTLs and
/// payloads of its consecutive records. Record order is kept, so the
/// runs are maximal but never merged across another owner; a decoded
/// run's records share the owner's one buffer.
pub(crate) struct OwnerRuns;

impl FieldCodec<Vec<Record>> for OwnerRuns {
    fn put(w: &mut Writer, v: &Vec<Record>) {
        let runs = v.chunk_by(|a, b| a.name == b.name);
        w.put_varint(runs.clone().count() as u64);
        for run in runs {
            run[0].name.encode(w);
            w.put_varint(run.len() as u64);
            for record in run {
                record.ttl_s.encode(w);
                record.data.encode(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<Record>, CodecError> {
        let runs = r.read_length()?;
        let mut records: Vec<Record> = Vec::new();
        for _ in 0..runs {
            let owner = DomainName::decode(r)?;
            let count = r.read_length()?;
            // An empty run, or a run continuing its predecessor's owner,
            // is a second spelling of a section.
            if count == 0 || records.last().is_some_and(|last| last.name == owner) {
                return Err(CodecError::InvalidTag {
                    context: "owner run",
                    tag: count as u64,
                });
            }
            // A record takes a byte or more: a corrupt count reserves no more.
            records.reserve(count.min(r.remaining()));
            for _ in 0..count {
                let ttl_s = u32::decode(r)?;
                let data = RecordData::decode(r)?;
                records.push(Record::new(owner.clone(), ttl_s, data));
            }
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openflame_codec::{from_bytes, to_bytes};

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn record_data_round_trips() {
        let cases = vec![
            RecordData::A(42),
            RecordData::Ns(name("ns1.flame.")),
            RecordData::Txt("hello world".into()),
            RecordData::MapSrv {
                endpoint: 7,
                server_id: "grocer-1".into(),
                catalogue: Catalogue::SEARCH | Catalogue::ROUTE,
            },
            RecordData::FleetSrv {
                group_id: "grocer-1".into(),
                catalogue: Catalogue::SEARCH,
                shards: vec![
                    FleetShard {
                        extents: vec![0x89c2_5a31, 0x89c2_5a33],
                        replicas: vec![
                            FleetReplica {
                                endpoint: 11,
                                server_id: "grocer-1/s0r0".into(),
                            },
                            FleetReplica {
                                endpoint: 12,
                                server_id: "grocer-1/s0r1".into(),
                            },
                        ],
                    },
                    FleetShard {
                        extents: vec![],
                        replicas: vec![],
                    },
                ],
            },
        ];
        for d in cases {
            assert_eq!(from_bytes::<RecordData>(&to_bytes(&d)).unwrap(), d);
        }
    }

    /// Spec §9.1: a catalogue is one varint, and a bit the spec does not
    /// name survives decode and encode without spelling a name.
    #[test]
    fn a_catalogue_keeps_its_unknown_bits() {
        let venue = Catalogue::SEARCH
            | Catalogue::GEOCODE
            | Catalogue::ROUTE
            | Catalogue::LOCALIZE
            | Catalogue::LOCALIZE_BEACON
            | Catalogue::LOCALIZE_TAG;
        assert_eq!(to_bytes(&venue).len(), 2);
        let unknown = Catalogue::SEARCH | Catalogue(1 << 20);
        let bytes = to_bytes(&unknown);
        assert_eq!(from_bytes::<Catalogue>(&bytes).unwrap(), unknown);
        assert_eq!(unknown.names().collect::<Vec<_>>(), ["search"]);
        assert!(unknown.contains(Catalogue::SEARCH));
        assert!(!unknown.contains(Catalogue::SEARCH | Catalogue::ROUTE));
    }

    #[test]
    fn message_round_trips() {
        let q = QueryMsg {
            name: name("2.f1.cell.flame."),
            rtype: RecordType::MapSrv,
        };
        assert_eq!(from_bytes::<QueryMsg>(&to_bytes(&q)).unwrap(), q);
        let resp = ResponseMsg {
            rcode: Rcode::NoError,
            answers: vec![Record::new(q.name.clone(), 300, RecordData::A(9))],
            authority: vec![Record::new(
                name("f1.cell.flame."),
                600,
                RecordData::Ns(name("ns.f1.cell.flame.")),
            )],
            additional: vec![Record::new(
                name("ns.f1.cell.flame."),
                600,
                RecordData::A(3),
            )],
        };
        assert_eq!(from_bytes::<ResponseMsg>(&to_bytes(&resp)).unwrap(), resp);
    }

    /// One section holding one run: `owner`, then `records` as
    /// `(ttl, data)` pairs, the TTL written as a raw varint.
    fn one_run(owner: &str, records: &[(u64, RecordData)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(1);
        name(owner).encode(&mut w);
        w.put_varint(records.len() as u64);
        for (ttl, data) in records {
            w.put_varint(*ttl);
            data.encode(&mut w);
        }
        w.finish().to_vec()
    }

    fn section(bytes: &[u8]) -> Result<Vec<Record>, CodecError> {
        let mut r = Reader::new(bytes);
        let records = OwnerRuns::get(&mut r)?;
        assert_eq!(r.remaining(), 0, "a section consumes exactly its bytes");
        Ok(records)
    }

    fn encode_section(records: &Vec<Record>) -> Vec<u8> {
        let mut w = Writer::new();
        OwnerRuns::put(&mut w, records);
        w.finish().to_vec()
    }

    /// A TTL varint wider than `u32` is malformed (spec §2.1), not a
    /// TTL of its low 32 bits — here inside an owner run (spec §9.5).
    #[test]
    fn ttl_rejects_a_varint_wider_than_u32() {
        let ok = section(&one_run("a.flame.", &[(u32::MAX as u64, RecordData::A(9))])).unwrap();
        assert_eq!(
            ok,
            [Record::new(name("a.flame."), u32::MAX, RecordData::A(9))]
        );
        let wide = [
            (7, RecordData::A(8)),
            (u32::MAX as u64 + 301, RecordData::A(9)),
        ];
        assert!(matches!(
            section(&one_run("a.flame.", &wide)),
            Err(CodecError::InvalidTag { context: "u32", .. })
        ));
    }

    #[test]
    fn an_empty_run_is_refused() {
        assert_eq!(
            section(&one_run("a.flame.", &[])),
            Err(CodecError::InvalidTag {
                context: "owner run",
                tag: 0
            })
        );
        // No runs at all is the one spelling of an empty section.
        assert_eq!(section(&[0]), Ok(vec![]));
    }

    #[test]
    fn two_adjacent_runs_with_one_owner_are_refused() {
        let one = one_run("a.flame.", &[(60, RecordData::A(1))]);
        let mut two = vec![2];
        two.extend_from_slice(&one[1..]);
        two.extend_from_slice(&one[1..]);
        assert_eq!(
            section(&two),
            Err(CodecError::InvalidTag {
                context: "owner run",
                tag: 1
            })
        );
        // The same two records as one run are the canonical spelling.
        let joined = vec![Record::new(name("a.flame."), 60, RecordData::A(1)); 2];
        let bytes = encode_section(&joined);
        assert_eq!(bytes[0], 1, "one run");
        assert_eq!(section(&bytes).unwrap(), joined);
    }

    #[test]
    fn owners_a_b_a_are_three_runs_in_order() {
        let (a, b) = (name("a.flame."), name("b.flame."));
        let records = vec![
            Record::new(a.clone(), 60, RecordData::A(1)),
            Record::new(a.clone(), 61, RecordData::Txt("x".into())),
            Record::new(b.clone(), 62, RecordData::A(2)),
            Record::new(a.clone(), 63, RecordData::A(3)),
        ];
        let bytes = encode_section(&records);
        assert_eq!(bytes[0], 3, "runs are never merged across an owner");
        // Each owner's text is written once per run: a twice, b once.
        let written = |owner: &DomainName| {
            let text = to_bytes(owner);
            bytes
                .windows(text.len())
                .filter(|w| *w == &text[..])
                .count()
        };
        assert_eq!((written(&a), written(&b)), (2, 1));
        let decoded = section(&bytes).unwrap();
        assert_eq!(decoded, records);
        assert_eq!(encode_section(&decoded), bytes);
    }

    /// Counts the bytes the current thread asks the allocator for.
    struct MeteredAlloc;

    thread_local! {
        static REQUESTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to `System`; the meter
    // is a const-initialised thread-local `Cell`, so bumping it neither
    // allocates nor unwinds.
    unsafe impl std::alloc::GlobalAlloc for MeteredAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = REQUESTED.try_with(|n| n.set(n.get() + layout.size()));
            // SAFETY: `layout` is the caller's, passed through as is.
            unsafe { std::alloc::System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `ptr` was returned by `System.alloc` with `layout`.
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOC: MeteredAlloc = MeteredAlloc;

    /// A run count or a record count claiming far more than the input
    /// holds fails at the end of the input, having reserved no more
    /// records than the input has bytes.
    #[test]
    fn a_hostile_count_reserves_nothing_beyond_the_input() {
        let claimed = (1u64 << 26) - 1; // within `MAX_LENGTH`
        let run = one_run("a.flame.", &[(60, RecordData::A(1))]);
        // The run count is the first byte, the record count the byte
        // after the owner.
        let count_at = 1 + to_bytes(&name("a.flame.")).len();
        assert_eq!((run[0], run[count_at]), (1, 1));
        for at in [0, count_at] {
            let mut hostile = run.clone();
            let mut w = Writer::new();
            w.put_varint(claimed);
            hostile.splice(at..=at, w.finish().iter().copied());
            let before = REQUESTED.with(std::cell::Cell::get);
            assert!(section(&hostile).is_err(), "count at byte {at}");
            let requested = REQUESTED.with(std::cell::Cell::get) - before;
            let bound = hostile.len() * std::mem::size_of::<Record>() + 1024;
            assert!(
                requested <= bound,
                "count at byte {at}: {requested} bytes requested for {} bytes of input",
                hostile.len()
            );
        }
    }

    #[test]
    fn rtype_of_data() {
        assert_eq!(RecordData::A(1).rtype(), RecordType::A);
        assert_eq!(RecordData::Txt(String::new()).rtype(), RecordType::Txt);
    }

    #[test]
    fn corrupt_messages_do_not_panic() {
        let q = QueryMsg {
            name: name("a.b."),
            rtype: RecordType::A,
        };
        let mut bytes = to_bytes(&q).to_vec();
        for i in 0..bytes.len() {
            bytes[i] ^= 0x5A;
            let _ = from_bytes::<QueryMsg>(&bytes);
            bytes[i] ^= 0x5A;
        }
    }
}
