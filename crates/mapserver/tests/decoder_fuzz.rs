//! Robustness of every wire-facing decoder — `Envelope`, `Request`,
//! `Response`, `HelloInfo`, the DNS `QueryMsg` / `ResponseMsg`,
//! `MapPatch` — against bytes no honest peer sends.
//! Three guarantees, on arbitrary bytes and on structure-aware
//! mutations of the spec's Appendix B vectors:
//!
//! 1. decoding never panics and never hangs;
//! 2. decoding (and re-encoding what was accepted) never allocates
//!    more than a small multiple of the input's length — a hostile
//!    length prefix reserves nothing;
//! 3. whatever is accepted is a fixed point after one round:
//!    `encode(decode(b))` decodes, and re-encodes to itself. (Compared
//!    as bytes, so a NaN payload, unequal to itself as a value, still
//!    counts.)

mod vectors;

use openflame_dns::record::{Rcode, ResponseMsg};
use openflame_dns::{Catalogue, DomainName, Record, RecordData};
use openflame_mapserver::{Request, Response};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Sums the bytes requested by the current thread (other tests
/// allocate on their own threads).
struct MeteredAlloc;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the meter is a plain thread-local `Cell`
// with a const initialiser, so bumping it neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for MeteredAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|n| n.set(n.get() + layout.size()));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REQUESTED.try_with(|n| n.set(n.get() + new_size));
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: MeteredAlloc = MeteredAlloc;

/// The decoders under test, by the type names `vectors::recode` knows.
const DECODERS: [&str; 7] = [
    "Envelope",
    "Request",
    "Response",
    "HelloInfo",
    "QueryMsg",
    "ResponseMsg",
    "MapPatch",
];

/// What decoding `len` bytes may request from the allocator, growth
/// doublings included: the widest in-memory element a single input
/// byte can stand for (a one-byte `Hello` item of a batch), twice over,
/// plus the decoders' fixed reservations.
fn allocation_bound(len: usize) -> usize {
    let widest = std::mem::size_of::<Response>().max(std::mem::size_of::<Request>());
    2 * widest * len + 8 * 1024
}

/// The three guarantees, for one input to one decoder.
fn check(decoder: &str, input: &[u8]) {
    let before = REQUESTED.with(Cell::get);
    let accepted = vectors::recode(decoder, input);
    let requested = REQUESTED.with(Cell::get) - before;
    assert!(
        requested <= allocation_bound(input.len()),
        "{decoder}: {requested} bytes requested for {} bytes of input {input:02x?}",
        input.len()
    );
    if let Some(canonical) = accepted {
        assert_eq!(
            vectors::recode(decoder, &canonical).as_ref(),
            Some(&canonical),
            "{decoder}: accepted {input:02x?} but its re-encoding is not a fixed point"
        );
    }
}

/// A DNS response whose sections hold several owner runs (spec §9.5):
/// answers under two owners, then a referral's NS records and their
/// glue, each section two runs.
fn several_runs() -> Vec<u8> {
    let name = |s: &str| DomainName::parse(s).expect("a valid name");
    let (here, there) = (name("2.f1.cell.flame."), name("3.f1.cell.flame."));
    let (ns1, ns2) = (name("ns1.f1.cell.flame."), name("ns2.f1.cell.flame."));
    let mapsrv = |endpoint| RecordData::MapSrv {
        endpoint,
        server_id: format!("grocer-{endpoint}"),
        catalogue: Catalogue::SEARCH,
    };
    let msg = ResponseMsg {
        rcode: Rcode::NoError,
        answers: vec![
            Record::new(here.clone(), 300, mapsrv(1)),
            Record::new(here, 300, mapsrv(2)),
            Record::new(there, 120, mapsrv(3)),
        ],
        authority: vec![
            Record::new(name("f1.cell.flame."), 600, RecordData::Ns(ns1.clone())),
            Record::new(name("f2.cell.flame."), 600, RecordData::Ns(ns2.clone())),
        ],
        additional: vec![
            Record::new(ns1, 600, RecordData::A(7)),
            Record::new(ns2, 600, RecordData::A(8)),
        ],
    };
    openflame_codec::to_bytes(&msg).to_vec()
}

/// The mutation corpus: every Appendix B vector of a decoder under
/// test, plus the shapes the appendix has no single vector for — every
/// message of a direction riding one flat batch, a bare coverage-bearing
/// `HelloInfo`, and a DNS response of several owner runs per section.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let all = vectors::all();
    let mut corpus: Vec<(String, Vec<u8>)> = all
        .iter()
        .filter(|(label, _)| DECODERS.contains(&vectors::type_of(label)))
        .cloned()
        .collect();
    for (type_name, batch_tag) in [("Request", 10u8), ("Response", 11)] {
        let items: Vec<&Vec<u8>> = all
            .iter()
            .filter(|(label, bytes)| vectors::type_of(label) == type_name && bytes[0] != batch_tag)
            .map(|(_, bytes)| bytes)
            .collect();
        let mut batch = vec![batch_tag, items.len() as u8];
        items.iter().for_each(|item| batch.extend_from_slice(item));
        corpus.push((format!("{type_name}.Batch/of-everything"), batch));
    }
    let (_, hello) = all
        .iter()
        .find(|(label, _)| label == "Response.Hello/coverage")
        .expect("Appendix B pins a coverage-bearing Hello");
    // The same advertisement without its response tag.
    corpus.push(("HelloInfo/coverage".into(), hello[1..].to_vec()));
    corpus.push(("ResponseMsg/several-runs".into(), several_runs()));
    corpus
}

/// One structure-aware mutation of `seed`, chosen and placed by the
/// drawn numbers.
fn mutate(seed: &[u8], donor: &[u8], kind: u8, at: usize, salt: u64) -> Vec<u8> {
    let at = at % seed.len();
    let mut out = seed.to_vec();
    match kind % 5 {
        // Flip: one byte, any bits.
        0 => out[at] ^= (salt as u8).max(1),
        // Truncate.
        1 => out.truncate(at),
        // Splice: the seed's head, then another message's tail.
        2 => {
            out.truncate(at);
            out.extend_from_slice(&donor[salt as usize % donor.len()..]);
        }
        // Length-inflate: a count or length byte becomes a varint
        // claiming up to 2⁶³ elements (beyond and within `MAX_LENGTH`).
        3 => {
            let claimed = 1u64 << (salt % 64);
            let mut w = openflame_codec::Writer::new();
            w.put_varint(claimed);
            out.splice(at..=at, w.finish().iter().copied());
        }
        // Widen: a byte becomes 0xFF, the worst case of every
        // single-byte tag, presence flag and varint head.
        _ => out[at] = 0xFF,
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_never_panic_hang_or_over_allocate(
        which in 0usize..DECODERS.len(),
        head in any::<u8>(),
        rest in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut input = rest;
        check(DECODERS[which], &input);
        // The same bytes behind a small first byte: most random bytes
        // die on the tag, these get past it.
        input.insert(0, head % 16);
        check(DECODERS[which], &input);
    }

    #[test]
    fn mutated_vectors_never_panic_hang_or_over_allocate(
        pick in (any::<u64>(), any::<u64>()),
        kind in any::<u8>(),
        at in any::<u64>(),
        salt in any::<u64>(),
    ) {
        let corpus = corpus();
        let (label, seed) = &corpus[pick.0 as usize % corpus.len()];
        let (_, donor) = &corpus[pick.1 as usize % corpus.len()];
        let once = mutate(seed, donor, kind, at as usize, salt);
        check(vectors::type_of(label), &once);
        if !once.is_empty() {
            // Two faults at once (an inflated length *and* a truncation).
            let twice = mutate(&once, donor, (salt >> 8) as u8, (at >> 16) as usize, salt >> 16);
            check(vectors::type_of(label), &twice);
        }
    }
}

#[test]
fn the_corpus_itself_is_accepted_and_canonical() {
    for (label, bytes) in corpus() {
        let canonical = vectors::recode(vectors::type_of(&label), &bytes)
            .unwrap_or_else(|| panic!("{label} must decode"));
        assert_eq!(canonical, bytes, "{label}");
        check(vectors::type_of(&label), &bytes);
    }
}

/// A batch inside a batch is refused on the inner tag, before the
/// decoder descends — at depth 2 and at a depth that would otherwise
/// exhaust the stack.
#[test]
fn nested_batches_are_refused_at_the_first_level_at_any_depth() {
    for (decoder, tag, lead) in [
        ("Request", 10u8, &[][..]),
        ("Response", 11, &[]),
        // An anonymous principal, then the request.
        ("Envelope", 10, &[0, 0]),
    ] {
        for depth in [2usize, 3, 100_000] {
            let mut input = lead.to_vec();
            for _ in 0..depth {
                input.extend_from_slice(&[tag, 1]);
            }
            input.push(0);
            assert_eq!(vectors::recode(decoder, &input), None, "{decoder} x{depth}");
            check(decoder, &input);
        }
        // Depth 1 is what the nesting was refused for, not the tag.
        let mut flat = lead.to_vec();
        flat.extend_from_slice(&[tag, 0]);
        assert_eq!(vectors::recode(decoder, &flat), Some(flat));
    }
}
