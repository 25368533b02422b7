//! Conformance lints for the OpenFLAME workspace.
//!
//! `cargo run -p xtask -- lint` runs every rule over the repo and exits
//! non-zero on any finding. All scanning is token-level over raw source
//! text — no proc-macro parsing, no external crates — so the pass stays
//! fast and dependency-free. The rules (and the `spec §` / `paper §`
//! reference convention they enforce) are documented in
//! `docs/conformance.md`.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule id (e.g. `spec-ref`, `wire-tags`, `forbidden-api`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

// ----------------------------------------------------------------
// Source-text preprocessing.
// ----------------------------------------------------------------

/// Blanks out comments, string literals and char literals in Rust
/// source, preserving byte offsets and newlines so line numbers keep
/// meaning. Lifetimes (`'a`) are left intact; nested block comments and
/// raw strings (`r#"…"#`) are handled.
pub fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, b: &[u8], from: usize, to: usize| {
        for &c in &b[from..to] {
            out.push(if c == b'\n' { b'\n' } else { b' ' });
        }
    };
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map(|p| i + p).unwrap_or(b.len());
                blank(&mut out, b, i, end);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, b, i, j);
                i = j;
            }
            b'r' | b'b' if raw_string_end(b, i).is_some() => {
                let end = raw_string_end(b, i).expect("checked in guard");
                blank(&mut out, b, i, end);
                i = end;
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() {
                    match b[j] {
                        b'\\' => j += 2,
                        b'"' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                blank(&mut out, b, i, j.min(b.len()));
                i = j.min(b.len());
            }
            b'\'' => {
                // Char literal iff it closes within a few bytes;
                // otherwise it's a lifetime and passes through.
                let close = if i + 2 < b.len() && b[i + 1] == b'\\' {
                    src[i + 2..].find('\'').map(|p| i + 2 + p + 1)
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    Some(i + 3)
                } else {
                    None
                };
                match close {
                    Some(end) if end - i <= 6 => {
                        blank(&mut out, b, i, end);
                        i = end;
                    }
                    _ => {
                        out.push(b[i]);
                        i += 1;
                    }
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("stripping is ascii-preserving")
}

/// If `b[i]` starts a raw (or raw-byte) string literal, returns the
/// offset one past its end.
fn raw_string_end(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' {
        return None;
    }
    j += 1;
    while j < b.len() {
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0;
            while k < b.len() && b[k] == b'#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return Some(k);
            }
        }
        j += 1;
    }
    Some(b.len())
}

/// Blanks out every item gated behind `#[cfg(test)]`, from the
/// attribute to the end of the item it gates (`gated_item_end`).
/// Call on already-stripped source.
pub fn mask_cfg_test_regions(stripped: &str) -> String {
    let mut out = stripped.as_bytes().to_vec();
    let mut search_from = 0;
    while let Some(rel) = stripped[search_from..].find("#[cfg(test)]") {
        let start = search_from + rel;
        let end = gated_item_end(stripped.as_bytes(), start + "#[cfg(test)]".len());
        for c in &mut out[start..end] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        search_from = end;
    }
    String::from_utf8(out).expect("masking is ascii-preserving")
}

/// One past the end of the item starting at `b[i]`: its first `;` or
/// `,` at bracket depth 0 (a field, an arm, a statement), the match of
/// its first `{` (a module, a function, a block), or the close of the
/// list it ends without a comma. A generic `<…>` list is not a bracket
/// here, so a gated generic item may end early, which only unmasks.
fn gated_item_end(b: &[u8], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < b.len() {
        match b[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' if depth == 0 => return i,
            b'}' if depth == 1 => return i + 1,
            b')' | b']' | b'}' => depth -= 1,
            b';' | b',' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// 1-based line number of byte offset `idx`.
pub fn line_of(src: &str, idx: usize) -> usize {
    src[..idx.min(src.len())]
        .bytes()
        .filter(|&c| c == b'\n')
        .count()
        + 1
}

// ----------------------------------------------------------------
// Rule: spec-ref — every `§N[.M]` reference is qualified and resolves.
// ----------------------------------------------------------------

/// Section numbers with live headings in `docs/wire-protocol.md`
/// (`"2"`, `"6.1"`, …).
pub fn doc_headings(doc: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in doc.lines() {
        let rest = if let Some(r) = line.strip_prefix("### ") {
            r
        } else if let Some(r) = line.strip_prefix("## ") {
            r
        } else {
            continue;
        };
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let num = num.trim_end_matches('.').to_string();
        if !num.is_empty() {
            out.insert(num);
        }
    }
    out
}

/// Whether the text before a `§` ends in an accepted qualifier word,
/// looking through comment markers and line wraps.
fn qualifier_before(prefix: &str) -> Option<&'static str> {
    let mut t = prefix.trim_end();
    // Step back over comment-continuation markers so `spec\n/// spec §7`
    // still counts as qualified.
    loop {
        let t2 = t
            .trim_end_matches("///")
            .trim_end_matches("//!")
            .trim_end_matches("//")
            .trim_end_matches('*')
            .trim_end();
        if t2.len() == t.len() {
            break;
        }
        t = t2;
    }
    let t = t.trim_end_matches("'s").trim_end_matches("’s");
    let lower_tail: String = t
        .chars()
        .rev()
        .take(8)
        .collect::<String>()
        .chars()
        .rev()
        .collect::<String>()
        .to_ascii_lowercase();
    let word_ok = |tail: &str, w: &str| {
        tail.ends_with(w)
            && tail[..tail.len() - w.len()]
                .chars()
                .next_back()
                .map(|c| !c.is_ascii_alphanumeric())
                .unwrap_or(true)
    };
    if word_ok(&lower_tail, "spec") {
        Some("spec")
    } else if word_ok(&lower_tail, "paper") {
        Some("paper")
    } else {
        None
    }
}

/// Scans `content` for `§` references; `headings` are the live spec
/// sections.
pub fn spec_ref_findings(file: &str, content: &str, headings: &BTreeSet<String>) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = content[from..].find('§') {
        let idx = from + rel;
        let after = &content[idx + '§'.len_utf8()..];
        let after = after.strip_prefix(' ').unwrap_or(after);
        let num: String = after
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let num = num.trim_end_matches('.').to_string();
        let line = line_of(content, idx);
        if num.is_empty() {
            out.push(Finding {
                file: file.to_string(),
                line,
                rule: "spec-ref",
                msg: "malformed section reference: `§` not followed by a section number"
                    .to_string(),
            });
        } else {
            match qualifier_before(&content[..idx]) {
                Some("spec") => {
                    if !headings.contains(&num) {
                        out.push(Finding {
                            file: file.to_string(),
                            line,
                            rule: "spec-ref",
                            msg: format!(
                                "stale spec reference: `spec §{num}` does not match any \
                                 heading in docs/wire-protocol.md"
                            ),
                        });
                    }
                }
                Some(_) => {} // paper refs are exempt from resolution
                None => {
                    out.push(Finding {
                        file: file.to_string(),
                        line,
                        rule: "spec-ref",
                        msg: format!(
                            "unqualified section reference `§{num}`: write `spec §{num}` \
                             (docs/wire-protocol.md) or `paper §{num}` (source paper)"
                        ),
                    });
                }
            }
        }
        from = idx + '§'.len_utf8();
    }
    out
}

// ----------------------------------------------------------------
// Rule: wire-tags — the message table's rows and the spec's tag tables
// agree.
// ----------------------------------------------------------------

/// tag → variant name, for one table of one source of truth.
pub type TagMap = BTreeMap<u8, String>;

/// Each checked `wire_enum!` table and the spec §2.1 table that states
/// its tags (a `RecordData` payload is tagged with its `RecordType`).
const TAG_TABLES: [(&str, &str); 5] = [
    ("Request", "Request"),
    ("Response", "Response"),
    ("RecordType", "RecordType"),
    ("RecordData", "RecordType"),
    ("ElementId", "ElementId"),
];

/// Extracts `| N | Name |` rows from the spec's §2 message-tag tables,
/// keyed by the type the table's header row names in backticks
/// (`` | tag | `Request` variant | ``).
pub fn tags_from_doc(doc: &str) -> BTreeMap<String, TagMap> {
    let mut out = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in section_region(doc, "## 2.").lines() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').collect();
        if cells.len() < 2 {
            continue;
        }
        if cells[0].trim() == "tag" {
            current = cells[1].split('`').nth(1).map(str::to_string);
        } else if let (Ok(tag), Some(table)) = (cells[0].trim().parse::<u8>(), &current) {
            let name = cells[1].trim().trim_matches('`').to_string();
            let rows: &mut TagMap = out.entry(table.clone()).or_default();
            rows.insert(tag, name);
        }
    }
    out
}

/// The slice of `doc` from the heading starting with `prefix` to the
/// next `## ` heading (empty if absent).
fn section_region<'a>(doc: &'a str, prefix: &str) -> &'a str {
    let Some(start) = doc
        .lines()
        .scan(0usize, |off, l| {
            let at = *off;
            *off += l.len() + 1;
            Some((at, l))
        })
        .find(|(_, l)| l.starts_with(prefix))
        .map(|(at, _)| at)
    else {
        return "";
    };
    let body = &doc[start..];
    let end = body[3..]
        .find("\n## ")
        .map(|p| p + 3 + 1)
        .unwrap_or(body.len());
    &body[..end]
}

/// The identifier `s` starts with (empty if it starts with none).
fn leading_ident(s: &str) -> &str {
    let end = s.find(|c: char| !c.is_ascii_alphanumeric() && c != '_');
    &s[..end.unwrap_or(s.len())]
}

/// The `tag => Variant` rows of the `wire_enum! { enum_name, … }` table
/// in stripped source, or `None` if no such table is declared there. A
/// row is the only place a table writes `=>`, so field lists need no
/// parsing.
pub fn table_rows(stripped: &str, enum_name: &str) -> Option<TagMap> {
    let body = stripped.split("wire_enum!").skip(1).find_map(|after| {
        let body = after.trim_start().strip_prefix('{')?;
        (leading_ident(body.trim_start()) == enum_name).then_some(body)
    })?;
    let mut depth = 1usize;
    let end = body.find(|c| {
        depth = match c {
            '{' => depth + 1,
            '}' => depth - 1,
            _ => depth,
        };
        depth == 0
    })?;
    let mut rows = TagMap::new();
    let pieces: Vec<&str> = body[..end].split("=>").collect();
    for pair in pieces.windows(2) {
        let tag = pair[0].trim_end().rsplit(|c: char| !c.is_ascii_digit());
        if let Some(Ok(tag)) = tag.map(str::parse::<u8>).next() {
            rows.insert(tag, leading_ident(pair[1].trim_start()).to_string());
        }
    }
    Some(rows)
}

/// Findings for every key (`tag` or `bit`) the two maps disagree on.
fn diff_tag_maps(
    findings: &mut Vec<Finding>,
    file: &str,
    key: &str,
    (what_a, a): (&str, &TagMap),
    (what_b, b): (&str, &TagMap),
) {
    let mut push = |msg: String| {
        findings.push(Finding {
            file: file.to_string(),
            line: 1,
            rule: "wire-tags",
            msg,
        })
    };
    for (tag, name) in a {
        match b.get(tag) {
            None => push(format!(
                "{key} {tag} (`{name}`) present in {what_a} but missing from {what_b}"
            )),
            Some(other) if other != name => push(format!(
                "{key} {tag} is `{name}` in {what_a} but `{other}` in {what_b}"
            )),
            Some(_) => {}
        }
    }
    for (tag, name) in b {
        if !a.contains_key(tag) {
            push(format!(
                "{key} {tag} (`{name}`) present in {what_b} but missing from {what_a}"
            ));
        }
    }
}

/// Cross-checks the spec §2.1 tag tables against the rows of the
/// message tables declared in `sources` (`(file, content)` pairs), and
/// the spec §10 Busy-tag prose against the spec's own table.
pub fn wire_tag_findings(sources: &[(&str, &str)], doc: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let doc_tables = tags_from_doc(doc);
    let doc_finding = |msg: String| Finding {
        file: "docs/wire-protocol.md".to_string(),
        line: 1,
        rule: "wire-tags",
        msg,
    };
    let stripped: Vec<(&str, String)> = sources
        .iter()
        .map(|(file, src)| (*file, strip_comments_and_strings(src)))
        .collect();
    for (table, doc_name) in TAG_TABLES {
        let Some(doc_rows) = doc_tables.get(doc_name) else {
            out.push(doc_finding(format!(
                "could not find the `{doc_name}` tag table in spec §2.1"
            )));
            continue;
        };
        let Some((file, rows)) = stripped
            .iter()
            .find_map(|(file, src)| Some((*file, table_rows(src, table)?)))
        else {
            out.push(doc_finding(format!(
                "spec §2.1 states the `{doc_name}` tags but no `wire_enum!` table declares `{table}`"
            )));
            continue;
        };
        diff_tag_maps(
            &mut out,
            file,
            "tag",
            (&format!("the `{table}` message table"), &rows),
            (&format!("the spec §2.1 `{doc_name}` table"), doc_rows),
        );
    }
    // spec §10 prose states the Busy envelope tag; keep it honest too.
    let sec10 = section_region(doc, "## 10.");
    if let Some(p) = sec10.find("response tag ") {
        let digits: String = sec10[p + "response tag ".len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        let busy_tag = doc_tables
            .get("Response")
            .and_then(|rows| rows.iter().find(|(_, v)| v.as_str() == "Busy"))
            .map(|(k, _)| *k);
        if let (Ok(stated), Some(actual)) = (digits.parse::<u8>(), busy_tag) {
            if stated != actual {
                out.push(doc_finding(format!(
                    "spec §10 says the Busy envelope uses response tag {stated}, but the \
                     spec §2.1 table assigns Busy tag {actual}"
                )));
            }
        }
    }
    out
}

/// The `| bit | entry |` rows of the spec §9.1 catalogue table, or
/// `None` if the spec has no such table.
pub fn catalogue_bits_from_doc(doc: &str) -> Option<TagMap> {
    let mut rows: Option<TagMap> = None;
    for line in doc.lines().map(str::trim) {
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        match (&mut rows, cells.as_slice()) {
            (None, ["bit", "entry"]) => rows = Some(TagMap::new()),
            // The table ends at its first line that is not a row.
            (Some(_), _) if !line.starts_with('|') => break,
            (Some(rows), [bit, entry]) => {
                if let Ok(bit) = bit.parse::<u8>() {
                    rows.insert(bit, entry.trim_matches('`').to_string());
                }
            }
            _ => {}
        }
    }
    rows
}

/// The named bits `impl Catalogue` declares in `src`, twice over: each
/// `const NAME: Self = Self(1 << N)` as bit → entry (`LOCALIZE_GNSS`
/// spells `localize:gnss`), and the `NAMES` strings as index → entry.
/// `None` if `src` has no `impl Catalogue`.
pub fn catalogue_bits_from_source(src: &str) -> Option<(TagMap, TagMap)> {
    let stripped = strip_comments_and_strings(src);
    let start = stripped.find("impl Catalogue {")?;
    let body_end = stripped[start..]
        .find("\n}")
        .map_or(stripped.len(), |p| start + p);
    let body = &stripped[start..body_end];
    let mut consts = TagMap::new();
    let mut names = TagMap::new();
    for (at, _) in body.match_indices("const ") {
        let item = &body[at + "const ".len()..];
        let ident = leading_ident(item);
        let item = &item[..item.find(';').unwrap_or(item.len())];
        if let Some(shift) = item.split("Self(1 << ").nth(1) {
            if let Ok(bit) = shift.trim_end_matches(')').trim().parse::<u8>() {
                consts.insert(bit, ident.to_ascii_lowercase().replace('_', ":"));
            }
        } else if ident == "NAMES" {
            // Offsets survive stripping, so the literals are read from
            // the raw source, between the item's `= [` and its `]`.
            let list = src[start + at..].split_once("= [").map_or("", |(_, l)| l);
            let list = &list[..list.find(']').unwrap_or(list.len())];
            for (bit, name) in list.split('"').skip(1).step_by(2).enumerate() {
                names.insert(bit as u8, name.to_string());
            }
        }
    }
    Some((consts, names))
}

/// Cross-checks the spec §9.1 catalogue bit table against `Catalogue`'s
/// constants and its `NAMES`, entry for entry and bit for bit, in the
/// first of `sources` that declares `impl Catalogue`.
pub fn catalogue_bit_findings(sources: &[(&str, &str)], doc: &str) -> Vec<Finding> {
    let doc_finding = |msg: &str| Finding {
        file: "docs/wire-protocol.md".to_string(),
        line: 1,
        rule: "wire-tags",
        msg: msg.to_string(),
    };
    let Some(doc_bits) = catalogue_bits_from_doc(doc) else {
        return vec![doc_finding(
            "could not find the `| bit | entry |` catalogue table of spec §9.1",
        )];
    };
    let Some((file, (consts, names))) = sources
        .iter()
        .find_map(|(file, src)| Some((*file, catalogue_bits_from_source(src)?)))
    else {
        return vec![doc_finding(
            "spec §9.1 states the catalogue bits but no source declares `impl Catalogue`",
        )];
    };
    let mut out = Vec::new();
    let doc_side = ("the spec §9.1 catalogue table", &doc_bits);
    diff_tag_maps(
        &mut out,
        file,
        "bit",
        ("`Catalogue`'s constants", &consts),
        doc_side,
    );
    diff_tag_maps(
        &mut out,
        file,
        "bit",
        ("`Catalogue::NAMES`", &names),
        doc_side,
    );
    out
}

// ----------------------------------------------------------------
// Rule: forbidden-api — the invariants no type can hold: one row of
// `RULES` each, plus a hand-written codec beside the message table.
// What visibility can hold, it holds instead (the simulator type, the
// plan executor, the `CallStats` literal; docs/conformance.md lists
// each holder).
// ----------------------------------------------------------------

/// One substring rule.
struct Rule {
    /// Any of these in non-test code is a finding.
    needles: &'static [&'static str],
    /// The repo-relative path prefixes the rule covers.
    scope: &'static [&'static str],
    /// The one file the needles belong in, if any.
    exempt: Option<&'static str>,
    /// The invariant, what to write instead, and why no type holds it.
    why: &'static str,
}

const RULES: [Rule; 8] = [
    Rule {
        needles: &[
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
        ],
        scope: &["crates/"],
        exempt: None,
        why: "outside the diag wrapper: every lock is an `openflame_diag::OrderedMutex`, \
              `OrderedRwLock` or `OrderedCondvar` with a rank from the global table \
              (std's types are public to every crate)",
    },
    Rule {
        needles: &["Request::Hello"],
        scope: &["crates/core/src/"],
        exempt: Some("crates/core/src/session.rs"),
        why: "in core outside session.rs: the session appends the handshake; send the \
              envelope and read `Session::advertised` (servers answer the variant, so it \
              cannot be private)",
    },
    Rule {
        needles: &["HashMap<EndpointId", "TtlCache<EndpointId"],
        scope: &["crates/core/src/"],
        exempt: Some("crates/core/src/session.rs"),
        why: "in core outside session.rs: per-endpoint client state lives in the session's \
              one entry (any module can declare a map or an `openflame_dns::TtlCache`)",
    },
    Rule {
        needles: &["RecordType::FleetSrv"],
        scope: &["crates/core/src/"],
        exempt: None,
        why: "in core: a `MAPSRV` answer carries the cell's `FLEETSRV` records in its \
              additional section (spec §9.1), so discovery asks one question per cell \
              (zones and the resolver answer the variant, so it cannot be private)",
    },
    Rule {
        needles: &["may_intersect_cell"],
        scope: &["crates/core/src/"],
        exempt: None,
        why: "in core: test against an `Extent`'s cached bounds, so a warm plan computes \
              no cell geometry (a cell box allocates nothing for a count to see, and \
              `openflame_cells` is public)",
    },
    Rule {
        needles: &[".unwrap()"],
        scope: &[
            "crates/netsim/src/",
            "crates/codec/src/",
            "crates/dns/src/",
            "crates/mapdata/src/",
            "crates/mapserver/src/",
        ],
        exempt: None,
        why: "in a crate that parses or serves what arrives off the wire: propagate the \
              error or `expect(\"why this cannot fail\")` (std's `unwrap` is public)",
    },
    Rule {
        needles: &["thread::Builder", "thread::spawn"],
        scope: &["crates/netsim/src/"],
        exempt: Some("crates/netsim/src/core.rs"),
        why: "in a netsim binding: the event loop's one pool (core.rs) is every thread a \
              socket transport has; register a source instead (`std::thread` is public)",
    },
    Rule {
        needles: &["mpsc"],
        scope: &["crates/netsim/src/"],
        exempt: None,
        why: "in netsim: the pool's overflow queue is one condvar queue (`Pool::jobs`, \
              core.rs), and a channel behind a mutex wakes a second thread per job \
              (`std::sync::mpsc` is public)",
    },
];

/// The files whose messages live in the message table, and the types
/// there too irregular for a table row (each file's module docs say
/// why).
const TABLE_FILES: [&str; 3] = [
    "mapserver/src/protocol.rs",
    "dns/src/record.rs",
    "mapdata/src/wire.rs",
];
const TABLE_EXCEPTIONS: [&str; 2] = ["DomainName", "Tags"];

/// Flags forbidden constructs in one Rust source file (non-test code
/// only — `#[cfg(test)]` regions are masked out first).
pub fn forbidden_api_findings(file: &str, content: &str) -> Vec<Finding> {
    let masked = mask_cfg_test_regions(&strip_comments_and_strings(content));
    let finding = |idx: usize, msg: String| Finding {
        file: file.to_string(),
        line: line_of(&masked, idx),
        rule: "forbidden-api",
        msg,
    };
    let mut out = Vec::new();
    for rule in &RULES {
        if rule.exempt == Some(file) || !rule.scope.iter().any(|s| file.starts_with(s)) {
            continue;
        }
        for needle in rule.needles {
            let msg = || format!("`{needle}` {}", rule.why);
            out.extend(
                masked
                    .match_indices(needle)
                    .map(|(idx, _)| finding(idx, msg())),
            );
        }
    }
    // One message table: a wire message is declared, not hand-coded.
    // Code, not a row: the type after the needle meets an exception
    // list.
    if TABLE_FILES.iter().any(|f| file.ends_with(f)) {
        for (idx, _) in masked.match_indices("impl Wire for ") {
            let ty = leading_ident(&masked[idx + "impl Wire for ".len()..]);
            if !TABLE_EXCEPTIONS.contains(&ty) {
                out.push(finding(
                    idx,
                    format!(
                        "hand-written `impl Wire for {ty}`: messages are declared in the \
                         table (`wire_struct!` / `wire_enum!`); the listed exceptions are \
                         {TABLE_EXCEPTIONS:?}"
                    ),
                ));
            }
        }
    }
    out
}

// ----------------------------------------------------------------
// Rule: rank-doc — every lock rank is documented in spec Appendix A.
// ----------------------------------------------------------------

/// Extracts `Rank::new(value, "name")` declarations from ranks.rs.
pub fn declared_ranks(ranks_src: &str) -> Vec<(u16, String)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = ranks_src[from..].find("Rank::new(") {
        let at = from + rel + "Rank::new(".len();
        let rest = &ranks_src[at..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(v) = digits.parse::<u16>() {
            if let Some(q) = rest.find('"') {
                let name: String = rest[q + 1..].chars().take_while(|c| *c != '"').collect();
                out.push((v, name));
            }
        }
        from = at;
    }
    out
}

/// Every declared rank must appear (by name) in the spec's Appendix A
/// threading-model section, so the prose table cannot silently drift
/// from the code.
pub fn rank_doc_findings(ranks_src: &str, doc: &str) -> Vec<Finding> {
    let appendix = section_region(doc, "## Appendix A");
    let mut out = Vec::new();
    for (value, name) in declared_ranks(ranks_src) {
        if name.starts_with("test.") {
            continue;
        }
        if !appendix.contains(&name) {
            out.push(Finding {
                file: "docs/wire-protocol.md".to_string(),
                line: 1,
                rule: "rank-doc",
                msg: format!(
                    "lock rank `{name}` ({value}) from crates/diag/src/ranks.rs is not \
                     documented in Appendix A"
                ),
            });
        }
    }
    out
}

// ----------------------------------------------------------------
// Driver.
// ----------------------------------------------------------------

/// Recursively collects files under `dir` with extension `ext`,
/// skipping `target/`.
fn collect_files(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_files(&path, ext, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some(ext) {
            out.push(path);
        }
    }
    out.sort();
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every lint rule over the workspace rooted at `root`. Returns
/// all findings plus the number of files scanned.
pub fn run_lint(root: &Path) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let doc = fs::read_to_string(root.join("docs/wire-protocol.md")).unwrap_or_default();
    if doc.is_empty() {
        findings.push(Finding {
            file: "docs/wire-protocol.md".to_string(),
            line: 1,
            rule: "spec-ref",
            msg: "docs/wire-protocol.md missing or unreadable".to_string(),
        });
        return (findings, 0);
    }
    let headings = doc_headings(&doc);

    let mut rust_files = Vec::new();
    collect_files(&root.join("crates"), "rs", &mut rust_files);
    let mut md_files = Vec::new();
    collect_files(&root.join("docs"), "md", &mut md_files);

    let mut scanned = 0;
    for path in &rust_files {
        let file = rel(root, path);
        let Ok(content) = fs::read_to_string(path) else {
            continue;
        };
        scanned += 1;
        let exempt = file.starts_with("crates/diag/") || file.starts_with("crates/xtask/");
        if !exempt {
            // (xtask's own sources and fixtures talk about the `§N`
            // syntax generically, so the linter does not lint itself.)
            findings.extend(spec_ref_findings(&file, &content, &headings));
        }
        let in_tests_dir = file.contains("/tests/");
        if !exempt && !in_tests_dir {
            findings.extend(forbidden_api_findings(&file, &content));
        }
    }
    for path in &md_files {
        let file = rel(root, path);
        let Ok(content) = fs::read_to_string(path) else {
            continue;
        };
        scanned += 1;
        findings.extend(spec_ref_findings(&file, &content, &headings));
    }

    let tables: Vec<(String, String)> = TABLE_FILES
        .iter()
        .filter_map(|f| {
            let file = format!("crates/{f}");
            let src = fs::read_to_string(root.join(&file)).ok()?;
            Some((file, src))
        })
        .collect();
    let tables: Vec<(&str, &str)> = tables.iter().map(|(f, s)| (&**f, &**s)).collect();
    findings.extend(wire_tag_findings(&tables, &doc));
    findings.extend(catalogue_bit_findings(&tables, &doc));
    if let Ok(ranks_src) = fs::read_to_string(root.join("crates/diag/src/ranks.rs")) {
        findings.extend(rank_doc_findings(&ranks_src, &doc));
    }

    (findings, scanned)
}
