//! Known-good / known-bad fixtures for every conformance lint rule: a
//! rule that silently stops firing fails here, not in review.

use std::collections::BTreeSet;

use xtask::{
    catalogue_bit_findings, doc_headings, forbidden_api_findings, mask_cfg_test_regions,
    rank_doc_findings, spec_ref_findings, strip_comments_and_strings, wire_tag_findings,
};

fn headings() -> BTreeSet<String> {
    doc_headings(
        "## 2. Frame Format (v2)\n### 2.1 Message tags\n## 7. Failure\n### 9.1 The record\n",
    )
}

// ---------------------------------------------------------------- spec-ref

#[test]
fn spec_ref_known_good() {
    let src = "//! Framed per the spec \u{a7}2, shed per spec \u{a7}7.\n\
               //! Cell geometry follows paper \u{a7}5.1 (external numbering).\n\
               //! Record format: the spec\n//! \u{a7}9.1 shape.\n";
    assert_eq!(spec_ref_findings("a.rs", src, &headings()), vec![]);
}

#[test]
fn spec_ref_flags_stale_section() {
    let src = "// see spec \u{a7}99 for details\n";
    let f = spec_ref_findings("a.rs", src, &headings());
    assert_eq!(f.len(), 1);
    assert!(f[0].msg.contains("stale spec reference"), "{}", f[0].msg);
    assert_eq!(f[0].line, 1);
}

#[test]
fn spec_ref_flags_renumbered_subsection() {
    // 9.1 exists; 9.2 does not — the renumbering-drift case.
    let f = spec_ref_findings("a.rs", "// spec \u{a7}9.2\n", &headings());
    assert_eq!(f.len(), 1);
    assert!(f[0].msg.contains("stale"), "{}", f[0].msg);
}

#[test]
fn spec_ref_flags_unqualified() {
    let f = spec_ref_findings("a.rs", "// framed per \u{a7}2\n", &headings());
    assert_eq!(f.len(), 1);
    assert!(f[0].msg.contains("unqualified"), "{}", f[0].msg);
}

#[test]
fn spec_ref_flags_missing_number() {
    let f = spec_ref_findings("a.rs", "// the \u{a7} sign alone\n", &headings());
    assert_eq!(f.len(), 1);
    assert!(f[0].msg.contains("malformed"), "{}", f[0].msg);
}

#[test]
fn paper_refs_are_exempt_from_resolution() {
    // No heading named 5.3 in the spec; paper refs never resolve.
    assert_eq!(
        spec_ref_findings("a.rs", "// paper \u{a7}5.3\n", &headings()),
        vec![]
    );
}

// ---------------------------------------------------------------- wire-tags

const GOOD_DOC: &str = "\
## 2. Frame Format (v2)

| tag | `Request` variant |
|----:|-------------------|
| 0 | `Hello` |
| 1 | `Ping` |

| tag | `Response` variant |
|----:|--------------------|
| 0 | `Hello` |
| 1 | `Pong` |
| 2 | `Busy` |

| tag | `RecordType` variant | record |
|----:|----------------------|--------|
| 0 | `A` | `A` |
| 1 | `Txt` | `TXT` |

| tag | `ElementId` variant |
|----:|---------------------|
| 0 | `Node` |
| 1 | `Way` |

## 10. Overload

The Busy envelope uses response tag 2.
";

const GOOD_PROTOCOL: &str = r#"
wire_struct! { Envelope { principal, request } }
wire_enum! { Request, "Request" {
    0 => Hello,
    // Field lists carry codecs, never tags: `2 => Nope` is a comment.
    1 => Ping { payload, route: Opt<PointCodec> },
} }
wire_enum! { Response, "Response" {
    0 => Hello(info),
    1 => Pong,
    2 => Busy { retry_after_us },
} }
wire_enum! { Cue as CueCodec, "Cue" { 7 => Gnss { fix: LatLngCodec } } }
wire_enum! { ElementId, "ElementId" { 0 => Node(id), 1 => Way(id) } }
"#;

const GOOD_RECORDS: &str = r#"
wire_enum! { RecordType, "RecordType" { 0 => A, 1 => Txt } }
wire_enum! { RecordData, "RecordType" {
    0 => A(endpoint),
    1 => Txt(text),
} }
"#;

fn wire_tags(protocol: &str, doc: &str) -> Vec<xtask::Finding> {
    wire_tag_findings(
        &[("protocol.rs", protocol), ("record.rs", GOOD_RECORDS)],
        doc,
    )
}

#[test]
fn wire_tags_known_good() {
    assert_eq!(wire_tags(GOOD_PROTOCOL, GOOD_DOC), vec![]);
}

#[test]
fn wire_tags_flags_mismatched_tag_value() {
    // The table renumbers Busy to 3; the doc table still says 2.
    let drifted = GOOD_PROTOCOL.replace("2 => Busy", "3 => Busy");
    let f = wire_tags(&drifted, GOOD_DOC);
    assert_eq!(f.len(), 2, "findings: {f:?}");
    assert!(f
        .iter()
        .all(|f| f.msg.contains("Busy") && f.file == "protocol.rs"));
}

#[test]
fn wire_tags_flags_variant_missing_from_doc() {
    let doc = GOOD_DOC.replace("| 2 | `Busy` |\n", "");
    let f = wire_tags(GOOD_PROTOCOL, doc.as_str());
    assert!(f.iter().any(|f| f
        .msg
        .contains("missing from the spec \u{a7}2.1 `Response` table")));
}

#[test]
fn wire_tags_flags_doc_row_missing_from_table() {
    // The doc keeps a row whose variant left the table — in either of
    // the two tables the one record-type doc table governs.
    let f = wire_tags(&GOOD_PROTOCOL.replace("    1 => Pong,\n", ""), GOOD_DOC);
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert!(f[0]
        .msg
        .contains("missing from the `Response` message table"));
    let f = wire_tag_findings(
        &[
            ("protocol.rs", GOOD_PROTOCOL),
            (
                "record.rs",
                &GOOD_RECORDS.replace("    1 => Txt(text),\n", ""),
            ),
        ],
        GOOD_DOC,
    );
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert!(f[0].msg.contains("`RecordData` message table"));
}

#[test]
fn wire_tags_flags_a_spec_tag_the_rows_lack() {
    // The spec still names a retired tag that left the table.
    let doc = GOOD_DOC.replace("| 1 | `Way` |\n", "| 1 | `Way` |\n| 2 | `Relation` |\n");
    let f = wire_tags(GOOD_PROTOCOL, &doc);
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert!(f[0].msg.contains(
        "tag 2 (`Relation`) present in the spec \u{a7}2.1 `ElementId` table \
         but missing from the `ElementId` message table"
    ));
}

#[test]
fn wire_tags_flags_a_table_or_doc_table_that_went_missing() {
    let f = wire_tag_findings(&[("protocol.rs", GOOD_PROTOCOL)], GOOD_DOC);
    assert_eq!(f.len(), 2, "findings: {f:?}");
    assert!(f[0]
        .msg
        .contains("no `wire_enum!` table declares `RecordType`"));
    let doc = GOOD_DOC.replace("`Request` variant", "request");
    let f = wire_tags(GOOD_PROTOCOL, &doc);
    assert!(f[0].msg.contains("could not find the `Request` tag table"));
}

#[test]
fn wire_tags_flags_stale_busy_prose() {
    let doc = GOOD_DOC.replace("response tag 2", "response tag 12");
    let f = wire_tags(GOOD_PROTOCOL, doc.as_str());
    assert!(f.iter().any(|f| f.msg.contains("\u{a7}10")));
}

// ---------------------------------------------------------------- wire-tags: catalogue bits

const GOOD_CATALOGUE_DOC: &str = "\
### 9.1 The record

| bit | entry             |
|----:|-------------------|
|   0 | `search`          |
|   1 | `rgeocode`        |
|   2 | `localize:gnss`   |

## 10. Overload
";

const GOOD_CATALOGUE: &str = r#"
pub struct Catalogue(pub u32);

impl Catalogue {
    /// `search`.
    pub const SEARCH: Self = Self(1 << 0);
    pub const RGEOCODE: Self = Self(1 << 1);
    pub const LOCALIZE_GNSS: Self = Self(1 << 2);
    pub const KINDS: Self = Self(0b11);
    pub const NAMES: [&'static str; 3] = ["search", "rgeocode", "localize:gnss"];

    pub fn contains(self, entries: Self) -> bool {
        self.0 & entries.0 == entries.0
    }
}
"#;

fn catalogue_bits(src: &str, doc: &str) -> Vec<xtask::Finding> {
    catalogue_bit_findings(&[("protocol.rs", GOOD_PROTOCOL), ("record.rs", src)], doc)
}

#[test]
fn catalogue_bits_known_good() {
    assert_eq!(catalogue_bits(GOOD_CATALOGUE, GOOD_CATALOGUE_DOC), vec![]);
}

#[test]
fn catalogue_bits_flag_a_swapped_bit() {
    // Two constants trade bits; `NAMES` and the spec still agree.
    let swapped = GOOD_CATALOGUE
        .replace("SEARCH: Self = Self(1 << 0)", "SEARCH: Self = Self(1 << 1)")
        .replace(
            "RGEOCODE: Self = Self(1 << 1)",
            "RGEOCODE: Self = Self(1 << 0)",
        );
    let f = catalogue_bits(&swapped, GOOD_CATALOGUE_DOC);
    assert_eq!(f.len(), 2, "findings: {f:?}");
    assert!(f
        .iter()
        .all(|f| f.file == "record.rs" && f.rule == "wire-tags"));
    assert!(f[0]
        .msg
        .contains("bit 0 is `rgeocode` in `Catalogue`'s constants"));
    // The same swap in the spec's table alone.
    let doc = GOOD_CATALOGUE_DOC
        .replace("0 | `search`  ", "0 | `rgeocode`")
        .replace("1 | `rgeocode`", "1 | `search`  ");
    let f = catalogue_bits(GOOD_CATALOGUE, &doc);
    assert_eq!(f.len(), 4, "constants and names both disagree: {f:?}");
}

#[test]
fn catalogue_bits_flag_a_misspelt_or_missing_entry() {
    let misspelt = GOOD_CATALOGUE.replace("\"localize:gnss\"]", "\"localize:gps\"]");
    let f = catalogue_bits(&misspelt, GOOD_CATALOGUE_DOC);
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert!(f[0].msg.contains("`localize:gps` in `Catalogue::NAMES`"));
    let doc = GOOD_CATALOGUE_DOC.replace("|   2 | `localize:gnss`   |\n", "");
    let f = catalogue_bits(GOOD_CATALOGUE, &doc);
    assert_eq!(f.len(), 2, "findings: {f:?}");
    assert!(f[0]
        .msg
        .contains("missing from the spec \u{a7}9.1 catalogue table"));
}

#[test]
fn catalogue_bits_flag_a_table_or_type_that_went_missing() {
    let f = catalogue_bits(GOOD_CATALOGUE, "## 9. Fleets\n");
    assert!(f[0].msg.contains("could not find"), "{f:?}");
    let f = catalogue_bits(GOOD_RECORDS, GOOD_CATALOGUE_DOC);
    assert!(
        f[0].msg.contains("no source declares `impl Catalogue`"),
        "{f:?}"
    );
}

// ---------------------------------------------------------------- forbidden-api

#[test]
fn forbidden_api_known_good() {
    let src = "\
use openflame_diag::{ranks, OrderedMutex};
struct S { m: OrderedMutex<u32> }
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let m = std::sync::Mutex::new(1);
        assert_eq!(*m.lock().unwrap(), 1);
    }
}
";
    assert_eq!(
        forbidden_api_findings("crates/netsim/src/tcp.rs", src),
        vec![]
    );
}

#[test]
fn forbidden_api_flags_raw_mutex_outside_diag() {
    let src = "static S: std::sync::Mutex<u32> = std::sync::Mutex::new(0);\n";
    let f = forbidden_api_findings("crates/core/src/session.rs", src);
    assert_eq!(f.len(), 2);
    assert!(f[0].msg.contains("openflame_diag::OrderedMutex"));
}

#[test]
fn forbidden_api_flags_thread_spawn_in_a_netsim_binding() {
    let src = "\
fn open_client() { std::thread::Builder::new().name(n).spawn(rx_loop); }
fn tick() { thread::spawn(rto_loop); }
#[cfg(test)]
mod tests { fn t() { std::thread::spawn(|| ()); } }
";
    let f = forbidden_api_findings("crates/netsim/src/udp.rs", src);
    assert_eq!(f.len(), 2);
    assert!(f[0].msg.contains("register a source instead"));
    // The event loop's pool itself lives in the core.
    assert_eq!(
        forbidden_api_findings("crates/netsim/src/core.rs", src),
        vec![]
    );
    assert_eq!(
        forbidden_api_findings("crates/dns/src/server.rs", src),
        vec![]
    );
}

#[test]
fn forbidden_api_flags_a_channel_in_netsim() {
    let src = "\
use std::sync::mpsc;
fn spawn_pool() -> mpsc::Sender<Job> { todo!() }
#[cfg(test)]
mod tests { fn t() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); } }
";
    for file in ["crates/netsim/src/core.rs", "crates/netsim/src/tcp.rs"] {
        let f = forbidden_api_findings(file, src);
        assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), [1, 2]);
        assert!(f[0].msg.contains("one condvar queue"));
    }
    assert_eq!(forbidden_api_findings("crates/dns/src/server.rs", src), []);
}

#[test]
fn forbidden_api_flags_netsim_unwrap() {
    let src = "fn f() { x.lock().unwrap(); }\n";
    // Every crate that parses or serves what arrives off the wire.
    for wire_facing in [
        "crates/netsim/src/udp.rs",
        "crates/codec/src/reader.rs",
        "crates/dns/src/resolver.rs",
        "crates/mapdata/src/patch.rs",
        "crates/mapserver/src/server.rs",
    ] {
        let f = forbidden_api_findings(wire_facing, src);
        assert_eq!(f.len(), 1, "{wire_facing}");
        assert!(f[0].msg.contains("unwrap"));
    }
    // The same code elsewhere is fine (expect-style discipline is for
    // the wire-facing crates).
    assert_eq!(forbidden_api_findings("crates/geo/src/lib.rs", src), vec![]);
}

#[test]
fn forbidden_api_flags_a_hand_rolled_handshake_in_core() {
    let src = "\
fn prefetch(round: &mut ScatterRound<'_>, to: EndpointId) {
    // The session appends Request::Hello itself.
    round.submit(to, vec![Request::Hello]);
}
#[cfg(test)]
mod tests { fn t() { let _ = vec![Request::Hello]; } }
";
    let f = forbidden_api_findings("crates/core/src/plan.rs", src);
    assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), [3]);
    assert!(f[0].msg.contains("the session appends the handshake"));
    // The rule is spelled in the session, and servers answer it.
    for home in [
        "crates/core/src/session.rs",
        "crates/mapserver/src/server.rs",
    ] {
        assert_eq!(forbidden_api_findings(home, src), vec![]);
    }
}

#[test]
fn forbidden_api_flags_cell_geometry_on_the_plan_path_in_core() {
    let src = "\
fn prune(cap: &Region, cells: &[CellId]) -> bool {
    cells.iter().all(|&cell| !cap.may_intersect_cell(cell))
}
#[cfg(test)]
fn oracle(cap: &Region, cell: CellId) -> bool { cap.may_intersect_cell(cell) }
";
    for file in ["crates/core/src/plan.rs", "crates/core/src/fleet.rs"] {
        let f = forbidden_api_findings(file, src);
        assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), [2]);
        assert!(f[0]
            .msg
            .contains("test against an `Extent`'s cached bounds"));
    }
    // The coverer refines cells by testing them, once per covering.
    assert_eq!(
        forbidden_api_findings("crates/cells/src/coverer.rs", src),
        []
    );
}

#[test]
fn forbidden_api_flags_a_per_endpoint_map_in_core_outside_the_session() {
    let src = "\
/// Not a `HashMap<EndpointId, u64>` any more.
struct Selector { dead: OrderedMutex<HashMap<EndpointId, u64>> }
struct Planner { seen: TtlCache<EndpointId, Coverage> }
#[cfg(test)]
mod tests { fn t() { let _: HashMap<EndpointId, u8> = HashMap::new(); } }
";
    let f = forbidden_api_findings("crates/core/src/fleet.rs", src);
    assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), [2, 3]);
    assert!(f[0].msg.contains("the session's one entry"));
    // The one entry lives in the session; other crates key by endpoint
    // freely (the transports' endpoint books do).
    for home in ["crates/core/src/session.rs", "crates/netsim/src/core.rs"] {
        assert_eq!(forbidden_api_findings(home, src), vec![]);
    }
}

#[test]
fn forbidden_api_flags_a_hand_written_codec_beside_the_message_table() {
    let src = "\
wire_struct! { Envelope { principal, request } }
impl Wire for HelloInfo { fn encode(&self, w: &mut Writer) {} }
impl Wire for Envelope { fn encode(&self, w: &mut Writer) {} }
impl FieldCodec<Request> for BatchItem {}
#[cfg(test)]
mod tests { impl Wire for Probe {} }
";
    for table_file in [
        "crates/mapserver/src/protocol.rs",
        "crates/dns/src/record.rs",
        "crates/mapdata/src/wire.rs",
    ] {
        let f = forbidden_api_findings(table_file, src);
        assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), [2, 3]);
        assert!(f[0].msg.contains("messages are declared in the table"));
    }
    // Primitives and containers are hand-written, in the codec.
    assert_eq!(
        forbidden_api_findings("crates/codec/src/lib.rs", src),
        vec![]
    );
}

#[test]
fn forbidden_api_flags_a_second_dns_question_per_cell_in_core() {
    let src = "\
/// Asks `RecordType::FleetSrv` nowhere: the answer carries it.
fn queries(name: DomainName) -> [(DomainName, RecordType); 2] {
    [(name.clone(), RecordType::MapSrv), (name, RecordType::FleetSrv)]
}
fn absorb(data: RecordData) { if let RecordData::FleetSrv { .. } = data {} }
#[cfg(test)]
mod tests { fn t() { let _ = RecordType::FleetSrv; } }
";
    for file in ["crates/core/src/discovery.rs", "crates/core/src/client.rs"] {
        let f = forbidden_api_findings(file, src);
        assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), [3]);
        assert!(f[0].msg.contains("one question per cell"));
    }
    // Outside core the type is asked for freely: zones answer it, the
    // resolver caches it, and tests use it as an oracle.
    for file in ["crates/dns/src/zone.rs", "crates/mapserver/src/server.rs"] {
        assert_eq!(forbidden_api_findings(file, src), []);
    }
}

#[test]
fn forbidden_api_ignores_comments_and_strings() {
    let src = "// std::sync::Mutex::new is banned\nconst M: &str = \"Request::Hello\";\n";
    assert_eq!(
        forbidden_api_findings("crates/core/src/lib.rs", src),
        vec![]
    );
}

// ---------------------------------------------------------------- rank-doc

#[test]
fn rank_doc_known_good() {
    let ranks = "pub const A: Rank = Rank::new(10, \"a.b\");\n\
                 const T: Rank = Rank::new(1000, \"test.low\");\n";
    let doc = "## Appendix A. Threading Model\n\nThe `a.b` (10) lock.\n";
    assert_eq!(rank_doc_findings(ranks, doc), vec![]);
}

#[test]
fn rank_doc_flags_undocumented_rank() {
    let ranks = "pub const A: Rank = Rank::new(10, \"a.b\");\n";
    let doc = "## Appendix A. Threading Model\n\nNothing here.\n";
    let f = rank_doc_findings(ranks, doc);
    assert_eq!(f.len(), 1);
    assert!(f[0].msg.contains("a.b"));
}

// ---------------------------------------------------------------- helpers

#[test]
fn stripper_preserves_lines_and_blanks_literals() {
    let src = "let s = \"a\\\"b\"; // §\nlet c = 'x'; let r = r#\"raw\"#;\n/* §\n§ */ let l: &'static str = s;\n";
    let out = strip_comments_and_strings(src);
    assert_eq!(out.lines().count(), src.lines().count());
    assert!(!out.contains('§'));
    assert!(!out.contains("raw"));
    assert!(out.contains("&'static str"));
}

#[test]
fn test_mask_blanks_only_gated_items() {
    // A gated module, a gated field and a gated statement, each
    // followed by live code the mask must leave visible.
    let cases = [
        (
            "#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n",
            "y.unwrap()",
        ),
        (
            "struct S {\n    #[cfg(test)]\n    turns: AtomicU64,\n}\n",
            "turns",
        ),
        (
            "fn run() {\n    #[cfg(test)]\n    self.turns.fetch_add(1, SeqCst);\n}\n",
            "fetch_add",
        ),
    ];
    for (gated, hidden) in cases {
        let src = format!("fn live() {{ x.unwrap(); }}\n{gated}fn after() {{ z.unwrap(); }}\n");
        let masked = mask_cfg_test_regions(&src);
        assert!(masked.contains("x.unwrap()"), "{masked}");
        assert!(!masked.contains(hidden), "{masked}");
        assert!(masked.contains("z.unwrap()"), "{masked}");
    }
}

// ---------------------------------------------------------------- whole tree

/// The real tree must lint clean — the same check CI runs, so a
/// finding introduced locally fails `cargo test` before it fails CI.
#[test]
fn repo_lints_clean() {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (findings, scanned) = xtask::run_lint(&root);
    assert!(scanned > 100, "expected to scan the whole workspace");
    assert_eq!(findings, vec![], "conformance findings on the tree");
}
