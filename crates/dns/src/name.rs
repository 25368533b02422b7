//! Domain names: one shared buffer per name, walked by borrowed suffix.
//!
//! A name's canonical text — each label lower-cased and followed by a
//! dot, most-specific first (`www.example.`; the root is empty) — is
//! stored once, in an `Arc<str>`. A [`DomainName`] is that buffer plus
//! the offset where the name starts, so every ancestor of a name is a
//! later offset into the same text:
//!
//! - `clone`, [`DomainName::parent`] and [`DomainName::ancestors`] share
//!   the buffer and allocate nothing;
//! - [`DomainName::parse`], [`DomainName::from_labels`],
//!   [`DomainName::child`] and wire decode write the new name's text in
//!   one pass and copy it into one new shared buffer.

use crate::DnsError;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A fully qualified domain name.
///
/// Labels are ordered most-specific first, so `www.example.` has the
/// labels `www`, `example`. The root has no labels. Labels are
/// lower-cased on construction (DNS names are case-insensitive) and
/// must be 1–63 characters of `[a-z0-9_*-]`.
///
/// Equality and hashing are over the canonical labels; ordering is
/// label by label, most-specific label first (a shorter label sorts
/// before any label it is a prefix of, whatever byte follows it).
///
/// # Examples
///
/// ```
/// use openflame_dns::DomainName;
///
/// let n = DomainName::parse("3.1.f4.cell.flame.").unwrap();
/// assert_eq!(n.label_count(), 5);
/// assert!(n.is_subdomain_of(&DomainName::parse("cell.flame.").unwrap()));
/// assert_eq!(n.to_string(), "3.1.f4.cell.flame.");
/// let suffixes: Vec<String> = n.ancestors().map(|a| a.to_string()).collect();
/// assert_eq!(suffixes[3], "cell.flame.");
/// assert_eq!(suffixes[5], ".");
/// ```
#[derive(Clone)]
pub struct DomainName {
    /// Canonical text of the most specific name built on this buffer.
    text: Arc<str>,
    /// Byte offset of this name's first label in `text` (`text.len()`
    /// for the root).
    start: usize,
}

impl DomainName {
    /// The DNS root (empty name).
    pub fn root() -> Self {
        Self::from_text(String::new())
    }

    /// Parses a dotted name; a trailing dot is optional (all names are
    /// treated as fully qualified).
    pub fn parse(s: &str) -> Result<Self, DnsError> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(Self::root());
        }
        let mut text = String::with_capacity(trimmed.len() + 1);
        for raw in trimmed.split('.') {
            if !Self::push_label(&mut text, raw) {
                return Err(DnsError::BadName(s.to_string()));
            }
        }
        Ok(Self::from_text(text))
    }

    /// Builds a name from labels, most-specific first.
    pub fn from_labels<I, S>(iter: I) -> Result<Self, DnsError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut text = String::new();
        for l in iter {
            if !Self::push_label(&mut text, l.as_ref()) {
                return Err(DnsError::BadName(l.as_ref().to_string()));
            }
        }
        Ok(Self::from_text(text))
    }

    /// Validates `raw` as a label and appends it to `text`, lower-cased
    /// and dot-terminated; `false` (and `text` untouched) if invalid.
    pub(crate) fn push_label(text: &mut String, raw: &str) -> bool {
        let valid = !raw.is_empty()
            && raw.len() <= 63
            && raw
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'*'));
        if valid {
            let from = text.len();
            text.push_str(raw);
            text[from..].make_ascii_lowercase();
            text.push('.');
        }
        valid
    }

    /// The name whose canonical text (as built by `push_label`) is `text`.
    pub(crate) fn from_text(text: String) -> Self {
        Self {
            text: Arc::from(text),
            start: 0,
        }
    }

    fn as_str(&self) -> &str {
        &self.text[self.start..]
    }

    /// The labels, most-specific first.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.as_str().split_terminator('.')
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.as_str().bytes().filter(|&b| b == b'.').count()
    }

    /// Whether this is the root name.
    pub(crate) fn is_root(&self) -> bool {
        self.start == self.text.len()
    }

    /// The name with the most-specific label removed; `None` at the
    /// root. Shares this name's buffer.
    pub fn parent(&self) -> Option<DomainName> {
        let dot = self.as_str().find('.')?;
        Some(DomainName {
            text: Arc::clone(&self.text),
            start: self.start + dot + 1,
        })
    }

    /// This name, then each ancestor up to and including the root, all
    /// sharing this name's buffer.
    pub fn ancestors(&self) -> impl Iterator<Item = DomainName> {
        std::iter::successors(Some(self.clone()), DomainName::parent)
    }

    /// A child name with `label` prepended.
    pub fn child(&self, label: &str) -> Result<DomainName, DnsError> {
        let mut text = String::with_capacity(label.len() + 1 + self.as_str().len());
        if !Self::push_label(&mut text, label) {
            return Err(DnsError::BadName(label.to_string()));
        }
        text.push_str(self.as_str());
        Ok(Self::from_text(text))
    }

    /// Whether `self` equals `other` or lies beneath it. The suffix must
    /// start at a label boundary: `ab.c.` is not under `b.c.`.
    pub fn is_subdomain_of(&self, other: &DomainName) -> bool {
        let (me, suffix) = (self.as_str(), other.as_str());
        me.ends_with(suffix)
            && (me.len() == suffix.len() || me.as_bytes()[me.len() - suffix.len() - 1] == b'.')
    }

    /// Whether the most-specific label is `*`.
    pub fn is_wildcard(&self) -> bool {
        self.as_str().starts_with("*.")
    }
}

impl PartialEq for DomainName {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for DomainName {}

impl Hash for DomainName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Ord for DomainName {
    /// Label by label, not by raw text: `*` and `-` sort before `.` in
    /// bytes, so the text alone would put `a-b.x.` before `a.x.`.
    fn cmp(&self, other: &Self) -> Ordering {
        self.labels().cmp(other.labels())
    }
}

impl PartialOrd for DomainName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Display for DomainName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for DomainName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DomainName({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = DomainName::parse("WWW.Example.").unwrap();
        assert_eq!(n.to_string(), "www.example.");
        assert_eq!(n.label_count(), 2);
        // Trailing dot optional.
        assert_eq!(DomainName::parse("www.example").unwrap(), n);
    }

    #[test]
    fn root_parses() {
        assert!(DomainName::parse(".").unwrap().is_root());
        assert!(DomainName::parse("").unwrap().is_root());
        assert_eq!(DomainName::root().to_string(), ".");
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(DomainName::parse("a..b").is_err());
        assert!(DomainName::parse("spaces here.com").is_err());
        let long = "x".repeat(64);
        assert!(DomainName::parse(&long).is_err());
        assert!(DomainName::parse(&"x".repeat(63)).is_ok());
    }

    #[test]
    fn parent_child_round_trip() {
        let n = DomainName::parse("a.b.c.").unwrap();
        let p = n.parent().unwrap();
        assert_eq!(p.to_string(), "b.c.");
        assert_eq!(p.child("a").unwrap(), n);
        assert_eq!(DomainName::root().parent(), None);
    }

    #[test]
    fn subdomain_relation() {
        let zone = DomainName::parse("cell.flame.").unwrap();
        let sub = DomainName::parse("1.2.f3.cell.flame.").unwrap();
        let other = DomainName::parse("cell.other.").unwrap();
        assert!(sub.is_subdomain_of(&zone));
        assert!(zone.is_subdomain_of(&zone));
        assert!(!zone.is_subdomain_of(&sub));
        assert!(!sub.is_subdomain_of(&other));
        // Everything is under the root.
        assert!(sub.is_subdomain_of(&DomainName::root()));
        // A shared text suffix is not a shared label suffix.
        let b = DomainName::parse("b.c.").unwrap();
        assert!(!DomainName::parse("ab.c.").unwrap().is_subdomain_of(&b));
    }

    #[test]
    fn wildcard_helpers() {
        let n = DomainName::parse("3.f1.cell.flame.").unwrap();
        let w = n.parent().unwrap().child("*").unwrap();
        assert_eq!(w.to_string(), "*.f1.cell.flame.");
        assert!(w.is_wildcard());
        assert!(!n.is_wildcard());
        assert!(!DomainName::root().is_wildcard());
    }

    #[test]
    fn ordering_is_deterministic() {
        let mut names = [
            DomainName::parse("b.example.").unwrap(),
            DomainName::parse("a.example.").unwrap(),
        ];
        names.sort();
        assert_eq!(names[0].to_string(), "a.example.");
    }

    #[test]
    fn ordering_is_by_label_not_by_text() {
        // In bytes `-` < `.`, so the raw text would order these the
        // other way round.
        let short = DomainName::parse("a.x.").unwrap();
        let long = DomainName::parse("a-b.x.").unwrap();
        assert!(short < long);
        // A label sequence sorts before every sequence it prefixes.
        assert!(DomainName::parse("a.").unwrap() < short);
    }
}
