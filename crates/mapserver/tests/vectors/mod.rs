//! The normative test vectors of `docs/wire-protocol.md` Appendix B,
//! read out of the spec itself, plus the one dispatch from a vector's
//! label to the decoder of the type it names. Shared (by `#[path]`) by
//! every test that checks the codecs against the appendix.

// Each test binary uses its own subset of this module.
#![allow(dead_code)]

use openflame_codec::{
    decode_packet, encode_packet, from_bytes, read_frame, to_bytes, write_frame, FieldCodec,
    Reader, Wire, Writer,
};
use openflame_dns::record::{QueryMsg, ResponseMsg};
use openflame_mapdata::MapPatch;
use openflame_mapserver::protocol::{CueCodec, HelloInfo};
use openflame_mapserver::{Envelope, Request, Response};

/// The spec, as committed.
pub const SPEC: &str = include_str!("../../../../docs/wire-protocol.md");

/// Every `(label, bytes)` vector of Appendix B, in document order.
pub fn all() -> Vec<(String, Vec<u8>)> {
    let appendix = SPEC
        .split("\n## Appendix B")
        .nth(1)
        .expect("the spec has an Appendix B");
    let mut out: Vec<(String, Vec<u8>)> = Vec::new();
    let mut fenced = false;
    for line in appendix.lines() {
        if line.starts_with("```") {
            fenced = !fenced;
            continue;
        }
        let line = line.split('#').next().expect("split yields one piece");
        if !fenced || line.trim().is_empty() {
            continue;
        }
        if line.starts_with(' ') {
            let bytes = &mut out.last_mut().expect("hex follows a label").1;
            for hex in line.split_whitespace() {
                bytes.push(u8::from_str_radix(hex, 16).expect("two hex digits"));
            }
        } else {
            out.push((line.trim().to_string(), Vec::new()));
        }
    }
    out
}

/// The message type a label names: `Response` for `Response.Tile`,
/// `Envelope` for `Envelope/anonymous`.
pub fn type_of(label: &str) -> &str {
    label
        .split(['.', '/'])
        .next()
        .expect("split yields one piece")
}

/// The variant a label names (`Tile` for `Response.Tile/note`), if any.
pub fn variant_of(label: &str) -> Option<&str> {
    let (_, rest) = label.split_once('.')?;
    rest.split('/').next()
}

/// The payloads of every vector of one message type, decoded.
pub fn decoded<T: Wire>(type_name: &str) -> Vec<T> {
    all()
        .iter()
        .filter(|(label, _)| type_of(label) == type_name)
        .map(|(label, bytes)| {
            from_bytes(bytes).unwrap_or_else(|e| panic!("vector {label} must decode: {e}"))
        })
        .collect()
}

/// Decodes `bytes` as the type `label` names and encodes the result
/// again; `None` when the decoder refuses the input (trailing bytes
/// included).
pub fn recode(label: &str, bytes: &[u8]) -> Option<Vec<u8>> {
    fn via<T: Wire>(bytes: &[u8]) -> Option<Vec<u8>> {
        from_bytes::<T>(bytes).ok().map(|v| to_bytes(&v).to_vec())
    }
    match type_of(label) {
        "Request" => via::<Request>(bytes),
        "Response" => via::<Response>(bytes),
        "Envelope" => via::<Envelope>(bytes),
        "HelloInfo" => via::<HelloInfo>(bytes),
        "QueryMsg" => via::<QueryMsg>(bytes),
        "ResponseMsg" => via::<ResponseMsg>(bytes),
        "MapPatch" => via::<MapPatch>(bytes),
        "LocationCue" => {
            let mut r = Reader::new(bytes);
            let cue = CueCodec::get(&mut r).ok().filter(|_| r.remaining() == 0)?;
            let mut w = Writer::new();
            CueCodec::put(&mut w, &cue);
            Some(w.finish().to_vec())
        }
        "Frame" => {
            let mut stream = bytes;
            let frame = read_frame(&mut stream).ok().filter(|_| stream.is_empty())?;
            let mut out = Vec::new();
            write_frame(&mut out, frame.sender, frame.correlation, &frame.payload).ok()?;
            Some(out)
        }
        "Packet" => {
            let p = decode_packet(bytes).ok()?;
            Some(encode_packet(
                p.ptype,
                p.conn_id,
                p.packet_no,
                p.frag_index,
                p.frag_count,
                &p.payload,
            ))
        }
        other => panic!("Appendix B names a type no test decodes: {other}"),
    }
}
