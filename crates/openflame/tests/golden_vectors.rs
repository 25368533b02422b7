//! The normative test vectors of `docs/wire-protocol.md` Appendix B:
//! every vector decodes and re-encodes to exactly its bytes, and every
//! message tag has one. A second implementation checked against the
//! appendix is checked against this one.

#[path = "../../mapserver/tests/vectors/mod.rs"]
mod vectors;

use std::collections::BTreeSet;

#[test]
fn every_vector_decodes_and_re_encodes_byte_exactly() {
    let all = vectors::all();
    assert!(all.len() >= 40, "Appendix B went missing: {}", all.len());
    for (label, bytes) in &all {
        assert!(!bytes.is_empty(), "{label} has no bytes");
        let again = vectors::recode(label, bytes);
        assert_eq!(again.as_deref(), Some(&bytes[..]), "{label}");
    }
}

#[test]
fn labels_are_unique() {
    let all = vectors::all();
    let labels: BTreeSet<&str> = all.iter().map(|(label, _)| label.as_str()).collect();
    assert_eq!(labels.len(), all.len());
}

/// The first payload byte of a `Request` / `Response` is its tag.
fn tags_with_a_vector(type_name: &str) -> BTreeSet<u8> {
    vectors::all()
        .iter()
        .filter(|(label, _)| vectors::type_of(label) == type_name)
        .map(|(_, bytes)| bytes[0])
        .collect()
}

#[test]
fn every_message_tag_has_a_vector() {
    assert_eq!(tags_with_a_vector("Request"), (0..=10).collect());
    assert_eq!(tags_with_a_vector("Response"), (0..=12).collect());
}

#[test]
fn hello_is_pinned_in_all_four_formats() {
    // Spec Section 13.2: the byte after the `anchored` flag is the
    // format tag. Same fixed prefix in all four vectors.
    let formats: BTreeSet<u8> = vectors::all()
        .iter()
        .filter(|(label, _)| vectors::variant_of(label) == Some("Hello"))
        .filter(|(label, _)| vectors::type_of(label) == "Response")
        .map(|(_, bytes)| bytes[43])
        .collect();
    assert_eq!(formats, (0..=3).collect());
}
