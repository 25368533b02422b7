//! Known-good / known-bad fixtures for every conformance lint rule: a
//! rule that silently stops firing fails here, not in review.

use std::collections::BTreeSet;

use xtask::{
    doc_headings, forbidden_api_findings, mask_cfg_test_regions, rank_doc_findings,
    spec_ref_findings, strip_comments_and_strings, wire_tag_findings,
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

## 10. Overload

The Busy envelope uses response tag 2.
";

const GOOD_PROTOCOL: &str = r#"
impl Wire for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::Hello => w.put_u8(0),
            Request::Ping { payload } => {
                w.put_u8(1);
                w.put_u32(*payload);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        decode_request(r)
    }
}

fn decode_request(r: &mut Reader<'_>) -> Result<Request, CodecError> {
    match r.read_u8()? {
        0 => Ok(Request::Hello),
        1 => {
            // Inner option tag: must not be mistaken for a wire tag.
            let有 = match r.read_u8()? {
                0 => None,
                1 => Some(r.read_u32()?),
                tag => return Err(CodecError::InvalidTag { got: tag }),
            };
            Ok(Request::Ping { payload:有.unwrap_or(7) })
        }
        tag => Err(CodecError::InvalidTag { got: tag }),
    }
}

impl Wire for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Hello => w.put_u8(0),
            Response::Pong => w.put_u8(1),
            Response::Busy { retry } => {
                w.put_u8(2);
                w.put_u64(*retry);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        decode_response(r)
    }
}

fn decode_response(r: &mut Reader<'_>) -> Result<Response, CodecError> {
    match r.read_u8()? {
        0 => Ok(Response::Hello),
        1 => Ok(Response::Pong),
        2 => Ok(Response::Busy { retry: r.read_u64()? }),
        tag => Err(CodecError::InvalidTag { got: tag }),
    }
}
"#;

#[test]
fn wire_tags_known_good() {
    assert_eq!(wire_tag_findings(GOOD_PROTOCOL, GOOD_DOC), vec![]);
}

#[test]
fn wire_tags_flags_mismatched_tag_value() {
    // Code renumbers Busy to 3; the doc table still says 2.
    let drifted = GOOD_PROTOCOL.replace("w.put_u8(2);", "w.put_u8(3);");
    let f = wire_tag_findings(&drifted, GOOD_DOC);
    assert!(!f.is_empty());
    assert!(f.iter().any(|f| f.msg.contains("Busy")), "findings: {f:?}");
}

#[test]
fn wire_tags_flags_variant_missing_from_doc() {
    let doc = GOOD_DOC.replace("| 2 | `Busy` |\n", "");
    let f = wire_tag_findings(GOOD_PROTOCOL, doc.as_str());
    assert!(f.iter().any(|f| f
        .msg
        .contains("missing from the spec \u{a7}2 Response table")));
}

#[test]
fn wire_tags_flags_encode_decode_disagreement() {
    let skewed = GOOD_PROTOCOL.replace("1 => Ok(Response::Pong),", "3 => Ok(Response::Pong),");
    let f = wire_tag_findings(&skewed, GOOD_DOC);
    assert!(f
        .iter()
        .any(|f| f.msg.contains("encode") && f.msg.contains("decode")));
}

#[test]
fn wire_tags_flags_stale_busy_prose() {
    let doc = GOOD_DOC.replace("response tag 2", "response tag 12");
    let f = wire_tag_findings(GOOD_PROTOCOL, doc.as_str());
    assert!(f.iter().any(|f| f.msg.contains("\u{a7}10")));
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
fn forbidden_api_flags_parking_lot() {
    let f = forbidden_api_findings("crates/dns/src/resolver.rs", "use parking_lot::Mutex;\n");
    assert_eq!(f.len(), 1);
    assert!(f[0].msg.contains("ranked wrappers"));
}

#[test]
fn forbidden_api_flags_reactor_blocking() {
    let src = "fn tick() { std::thread::sleep(d); let g = m.lock(); }\n";
    let f = forbidden_api_findings("crates/netsim/src/reactor.rs", src);
    assert!(f.iter().any(|f| f.msg.contains("thread::sleep")));
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
    // The loop and the dispatch pool themselves live in the core.
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
fn forbidden_api_flags_simulator_type_above_netsim() {
    let src = "\
use openflame_netsim::SimNet;
/// Docs may still link [`SimNet`].
pub fn spawn(net: &SimNet) {}
#[cfg(test)]
mod tests {
    fn t() { let _ = openflame_netsim::SimNet::shared(1); }
}
";
    let f = forbidden_api_findings("crates/dns/src/server.rs", src);
    assert_eq!(f.iter().map(|f| f.line).collect::<Vec<_>>(), [1, 3]);
    assert!(f[0].msg.contains("BackendKind::Sim.build(seed)"));
    // The simulator's own crate is where the type lives.
    assert_eq!(
        forbidden_api_findings("crates/netsim/src/transport.rs", src),
        vec![]
    );
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
fn forbidden_api_flags_a_per_endpoint_map_in_core_outside_the_session() {
    let src = "\
/// Not a `HashMap<EndpointId, u64>` any more.
struct Selector { dead: OrderedMutex<HashMap<EndpointId, u64>> }
struct Planner { coverage: TtlCache<EndpointId, Arc<Summary>>, cells: HashMap<u64, View> }
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
fn forbidden_api_ignores_comments_and_strings() {
    let src = "// std::sync::Mutex::new is banned\nconst M: &str = \"parking_lot\";\n";
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
    let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\nfn after() { z.unwrap(); }\n";
    let masked = mask_cfg_test_regions(src);
    assert!(masked.contains("x.unwrap()"));
    assert!(!masked.contains("y.unwrap()"));
    assert!(masked.contains("z.unwrap()"));
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
