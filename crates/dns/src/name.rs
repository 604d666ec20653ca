//! Domain names.
//!
//! A [`Name`] is stored in uncompressed wire form: a sequence of
//! length-prefixed labels terminated by the root label (a zero octet). All
//! labels are normalised to ASCII lowercase at construction, which makes
//! equality and hashing case-insensitive as required by RFC 1035 §2.3.3 —
//! the property the detection methodology relies on when matching
//! second-level domains in `CNAME`/`NS` records.
//!
//! ## Representation
//!
//! A name of up to [`Name::INLINE_CAPACITY`] wire octets keeps its bytes
//! inline (a length and a fixed array); a longer one keeps them in a boxed
//! slice. Every name the simulated world generates fits inline — the
//! longest, `d4294967295.compute.amazonaws.com.`, is 35 octets — so
//! building, cloning and dropping those names never touches the heap, and
//! a `Name` is 40 bytes either way. Constructors build in stack buffers and
//! pick the representation once, from the final length.
//!
//! `Eq`, `Ord` and `Hash` are written by hand over [`Name::as_wire`]
//! rather than derived: a derive would compare the representation (the
//! variant, the unused tail of the inline array), not the name. Over the
//! wire bytes they are exactly what the former `Vec<u8>` field derived,
//! so every `BTreeMap`/`HashMap` keyed by names — and every archive built
//! from their iteration order — is unchanged.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::NameError;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Maximum octets of a single label.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum octets of a whole name in wire form (including the root octet).
pub const MAX_NAME_LEN: usize = 255;

/// An absolute domain name (always rooted).
///
/// ```
/// use dps_dns::Name;
/// let a: Name = "WWW.Examp.LE".parse().unwrap();
/// let b: Name = "www.examp.le.".parse().unwrap();
/// assert_eq!(a, b); // case-insensitive, trailing dot optional
/// assert_eq!(a.label_count(), 3);
/// assert_eq!(a.to_string(), "www.examp.le.");
/// ```
#[derive(Clone)]
pub struct Name {
    /// Uncompressed wire form: `\x03www\x05examp\x02le\x00`.
    repr: Repr,
}

/// Where a [`Name`]'s wire bytes live. A name is inline exactly when its
/// wire length is at most [`Name::INLINE_CAPACITY`].
#[derive(Clone)]
enum Repr {
    /// The first `len` octets of the array; the rest are zero.
    Inline(u8, [u8; Name::INLINE_CAPACITY]),
    Heap(Box<[u8]>),
}

impl Name {
    /// Wire octets stored without a heap allocation. Sized so that a
    /// `Name` — variant tag, length octet and array — is 40 bytes.
    pub const INLINE_CAPACITY: usize = 38;

    /// The root name (`.`).
    pub fn root() -> Self {
        Self::from_normalised(&[0])
    }

    /// A name over already-validated, lower-cased wire bytes (labels of at
    /// most 63 octets, at most 255 octets in all, the root octet last),
    /// inline when they fit. The wire decoder builds names through here.
    pub(crate) fn from_normalised(wire: &[u8]) -> Self {
        debug_assert!(wire.len() <= MAX_NAME_LEN && wire.last() == Some(&0));
        Self::build(wire.len(), |out| out.copy_from_slice(wire))
    }

    /// A name of `len` wire octets that `fill` writes (it is handed a
    /// zeroed slice of exactly `len` octets); inline when `len` fits.
    fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        let mut inline = [0u8; Self::INLINE_CAPACITY];
        let repr = match inline.get_mut(..len) {
            Some(out) => {
                fill(out);
                Repr::Inline(len as u8, inline)
            }
            None => {
                let mut heap = vec![0u8; len].into_boxed_slice();
                fill(&mut heap);
                Repr::Heap(heap)
            }
        };
        Self { repr }
    }

    /// Builds a name from an iterator of label byte-slices, most-specific
    /// first (`["www", "examp", "le"]`).
    pub fn from_labels<'a, I>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut buf = [0u8; MAX_NAME_LEN];
        // Counts every octet, including those past the buffer, so an
        // overlong name reports its full length.
        let mut len = 0usize;
        for label in labels {
            if label.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(label.len()));
            }
            if let Some((prefix, out)) = buf
                .get_mut(len..len + 1 + label.len())
                .and_then(|s| s.split_first_mut())
            {
                *prefix = label.len() as u8;
                lowercase_into(out, label);
            }
            len += 1 + label.len();
        }
        len += 1; // the root octet, already zero in `buf`
        match buf.get(..len) {
            Some(wire) => Ok(Self::from_normalised(wire)),
            None => Err(NameError::NameTooLong(len)),
        }
    }

    /// The uncompressed wire representation (always ends with `0x00`).
    pub fn as_wire(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline(len, bytes) => bytes.get(..usize::from(*len)).unwrap_or(&[]),
            Repr::Heap(bytes) => bytes,
        }
    }

    /// Parses an untrusted uncompressed wire-form name (length-prefixed
    /// labels terminated by the root octet), normalising labels to ASCII
    /// lowercase. Checked throughout: bad structure is an error, never a
    /// panic. The inverse of [`as_wire`](Self::as_wire) — much cheaper
    /// than a presentation-format round-trip.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, NameError> {
        if bytes.len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(bytes.len()));
        }
        let mut i = 0usize;
        loop {
            match bytes.get(i) {
                // Ran past the end without meeting the root octet.
                None => return Err(NameError::MalformedWire),
                Some(0) => {
                    if i + 1 != bytes.len() {
                        // Trailing bytes after the root octet.
                        return Err(NameError::MalformedWire);
                    }
                    break;
                }
                Some(&len) => {
                    if usize::from(len) > MAX_LABEL_LEN {
                        return Err(NameError::LabelTooLong(usize::from(len)));
                    }
                    i += 1 + usize::from(len);
                }
            }
        }
        Ok(Self::build(bytes.len(), |out| lowercase_into(out, bytes)))
    }

    /// Number of labels, excluding the root label. The root name has 0.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Iterates over the labels, most-specific first.
    pub fn labels(&self) -> Labels<'_> {
        Labels {
            rest: self.as_wire(),
        }
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire_len() == 1
    }

    /// The name with the most-specific label removed; `None` for the root.
    ///
    /// `www.examp.le.` → `examp.le.`
    pub fn parent(&self) -> Option<Self> {
        if self.is_root() {
            return None;
        }
        let wire = self.as_wire();
        let skip = 1 + usize::from(*wire.first()?);
        Some(Self::from_normalised(wire.get(skip..)?))
    }

    /// True if `self` equals `other` or is underneath it in the tree.
    ///
    /// Every name is a subdomain of the root. `examp.le.` is a subdomain of
    /// `le.` and of itself, but not of `ample.` (comparison is per label, not
    /// per substring — the single label `\x03amp` under `le.` is not under
    /// `amp.le.`, though its wire bytes end with that name's).
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        self.suffix_wire(other.label_count()) == other.as_wire()
    }

    /// Prepends a single label: `prepend("www")` on `examp.le.` gives
    /// `www.examp.le.`.
    ///
    /// Builds the result in place, inline when it fits; the label is
    /// validated and lower-cased like every [`from_labels`](Self::from_labels)
    /// label.
    pub fn prepend(&self, label: &str) -> Result<Self, NameError> {
        let label = label.as_bytes();
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label.len()));
        }
        let base = self.as_wire();
        let len = 1 + label.len() + base.len();
        if len > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(len));
        }
        Ok(Self::build(len, |out| {
            let (head, tail) = out.split_at_mut(1 + label.len());
            if let Some((prefix, lowered)) = head.split_first_mut() {
                *prefix = label.len() as u8;
                lowercase_into(lowered, label);
            }
            tail.copy_from_slice(base);
        }))
    }

    /// The suffix of `self` keeping only the last `n` labels.
    ///
    /// `www.examp.le.` with `n = 2` gives `examp.le.`; if the name has fewer
    /// than `n` labels the whole name is returned.
    pub fn suffix(&self, n: usize) -> Self {
        Self::from_normalised(self.suffix_wire(n))
    }

    /// The wire form of [`suffix(n)`](Self::suffix), borrowed from `self`
    /// (always ends with the root octet). Compares suffixes — e.g. two
    /// names' SLDs, `suffix_wire(2)` — without building either one.
    pub fn suffix_wire(&self, n: usize) -> &[u8] {
        let mut rest = self.as_wire();
        for _ in n..self.label_count() {
            let Some(&len) = rest.first() else { break };
            rest = rest.get(1 + usize::from(len)..).unwrap_or(&[]);
        }
        rest
    }

    /// The registered-domain heuristic used throughout the paper: the last
    /// two labels of a name (`second-level domain` + TLD), e.g.
    /// `edge.cdn.incapdns.net.` → `incapdns.net.`.
    ///
    /// The real study uses knowledge of public suffixes; our simulated
    /// namespace only uses single-label public suffixes, so two labels is
    /// exact. Names with fewer than two labels are returned unchanged.
    pub fn sld(&self) -> Self {
        self.suffix(2)
    }

    /// Wire length in octets (including the root octet).
    pub fn wire_len(&self) -> usize {
        match &self.repr {
            Repr::Inline(len, _) => usize::from(*len),
            Repr::Heap(bytes) => bytes.len(),
        }
    }
}

/// Copies `src` into the equally long `out`, lower-casing ASCII letters.
pub(crate) fn lowercase_into(out: &mut [u8], src: &[u8]) {
    for (o, &b) in out.iter_mut().zip(src) {
        *o = b.to_ascii_lowercase();
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_wire() == other.as_wire()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_wire().cmp(other.as_wire())
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_wire().hash(state);
    }
}

impl FromStr for Name {
    type Err = NameError;

    /// Parses presentation format. A trailing dot is optional; `"."` and
    /// `""` both give the root. Allowed characters: ASCII alphanumerics,
    /// `-` and `_` (seen in e.g. `_dmarc` labels).
    fn from_str(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Self::root());
        }
        for c in s.chars() {
            if !(c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.') {
                return Err(NameError::InvalidCharacter(c));
            }
        }
        Self::from_labels(s.split('.').map(str::as_bytes))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for label in self.labels() {
            // Labels are normalised ASCII; lossy conversion never triggers.
            f.write_str(&String::from_utf8_lossy(label))?;
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Iterator over the labels of a [`Name`], most-specific first.
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let len = *self.rest.first()? as usize;
        if len == 0 {
            return None;
        }
        let label = self.rest.get(1..1 + len)?;
        self.rest = self.rest.get(1 + len..).unwrap_or(&[]);
        Some(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        assert_eq!(n("www.examp.le").to_string(), "www.examp.le.");
        assert_eq!(n("www.examp.le.").to_string(), "www.examp.le.");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("").to_string(), ".");
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(n("Examp.LE"));
        assert!(set.contains(&n("examp.le")));
        assert_eq!(n("A.B"), n("a.b"));
    }

    #[test]
    fn label_limits_enforced() {
        let long = "a".repeat(64);
        assert_eq!(long.parse::<Name>(), Err(NameError::LabelTooLong(64)));
        let ok = "a".repeat(63);
        assert!(ok.parse::<Name>().is_ok());
    }

    #[test]
    fn name_length_limit_enforced() {
        // 4 labels of 63 octets = 4*64 + 1 = 257 wire octets > 255.
        let l = "a".repeat(63);
        let s = format!("{l}.{l}.{l}.{l}");
        assert!(matches!(s.parse::<Name>(), Err(NameError::NameTooLong(_))));
    }

    #[test]
    fn empty_label_rejected() {
        assert_eq!("a..b".parse::<Name>(), Err(NameError::EmptyLabel));
    }

    #[test]
    fn invalid_characters_rejected() {
        assert_eq!("a b".parse::<Name>(), Err(NameError::InvalidCharacter(' ')));
        assert!("xn--caf-dma.example".parse::<Name>().is_ok()); // punycode form ok
    }

    #[test]
    fn parent_chain_terminates_at_root() {
        let mut cur = Some(n("www.examp.le"));
        let mut seen = Vec::new();
        while let Some(c) = cur {
            seen.push(c.to_string());
            cur = c.parent();
        }
        assert_eq!(seen, vec!["www.examp.le.", "examp.le.", "le.", "."]);
    }

    #[test]
    fn subdomain_is_per_label() {
        assert!(n("www.examp.le").is_subdomain_of(&n("examp.le")));
        assert!(n("examp.le").is_subdomain_of(&n("examp.le")));
        assert!(n("examp.le").is_subdomain_of(&Name::root()));
        assert!(!n("examp.le").is_subdomain_of(&n("amp.le")));
        assert!(!n("le").is_subdomain_of(&n("examp.le")));
    }

    /// A suffix of the wire bytes is not a suffix of the labels: the one
    /// label `\x03amp` under `le.` ends with the bytes of `amp.le.`.
    #[test]
    fn subdomain_is_label_aligned() {
        let odd = Name::from_wire(b"\x04\x03amp\x02le\x00").unwrap();
        assert_eq!(odd.label_count(), 2);
        assert!(!odd.is_subdomain_of(&n("amp.le")));
        assert!(odd.is_subdomain_of(&n("le")));
        assert!(odd.is_subdomain_of(&odd));
    }

    #[test]
    fn inline_and_heap_names_behave_alike() {
        assert_eq!(std::mem::size_of::<Name>(), 40);
        // 37 octets of labels + the root octet: the largest inline name.
        let at_cap = Name::from_labels([[b'a'; 36].as_slice()]).unwrap();
        assert_eq!(at_cap.wire_len(), Name::INLINE_CAPACITY);
        assert!(matches!(at_cap.repr, Repr::Inline(..)));
        let over = at_cap.prepend("B").unwrap();
        assert_eq!(over.wire_len(), Name::INLINE_CAPACITY + 2);
        assert!(matches!(over.repr, Repr::Heap(_)));
        assert_eq!(over.parent().unwrap(), at_cap);
        assert!(matches!(over.parent().unwrap().repr, Repr::Inline(..)));
        assert_eq!(over.to_string(), format!("b.{}.", "a".repeat(36)));
        assert!(over.is_subdomain_of(&at_cap));
        assert_eq!(over.cmp(&at_cap), over.as_wire().cmp(at_cap.as_wire()));
    }

    #[test]
    fn sld_takes_last_two_labels() {
        assert_eq!(n("edge.cdn.incapdns.net").sld(), n("incapdns.net"));
        assert_eq!(n("examp.le").sld(), n("examp.le"));
        assert_eq!(n("le").sld(), n("le"));
    }

    #[test]
    fn prepend_builds_child() {
        assert_eq!(n("examp.le").prepend("www").unwrap(), n("www.examp.le"));
    }

    /// `prepend` builds in place; it must agree with the
    /// `from_labels` route it replaced, errors included.
    #[test]
    fn prepend_matches_from_labels_route() {
        fn via_labels(base: &Name, label: &str) -> Result<Name, NameError> {
            let mut labels: Vec<&[u8]> = vec![label.as_bytes()];
            labels.extend(base.labels());
            Name::from_labels(labels)
        }
        let l63 = "a".repeat(63);
        // 3 labels of 63 octets: 193 wire octets; one more 63-octet label
        // pushes it to 257 > 255.
        let big = n(&format!("{l63}.{l63}.{l63}"));
        let bases = [
            Name::root(),
            n("le"),
            n("examp.le"),
            n("Mixed.CASE.le"),
            big,
        ];
        let l64 = "b".repeat(64);
        let labels = ["www", "WwW", "x", "", l63.as_str(), l64.as_str(), "_dmarc"];
        for base in &bases {
            for label in labels {
                assert_eq!(
                    base.prepend(label),
                    via_labels(base, label),
                    "{label:?} + {base}"
                );
            }
        }
        assert_eq!(n("le").prepend(""), Err(NameError::EmptyLabel));
        assert_eq!(n("le").prepend(&l64), Err(NameError::LabelTooLong(64)));
        assert!(matches!(
            bases[4].prepend(&l63),
            Err(NameError::NameTooLong(257))
        ));
        let upper = n("examp.le").prepend("WWW").unwrap();
        assert_eq!(upper.as_wire(), b"\x03www\x05examp\x02le\x00");
        assert_eq!(upper.wire_len(), upper.as_wire().len());
    }

    #[test]
    fn suffix_wire_matches_owned_suffix() {
        for s in ["", "le", "examp.le", "www.examp.le", "a.b.c.d.e"] {
            let name = n(s);
            let labels: Vec<&[u8]> = name.labels().collect();
            for k in 0..=labels.len() + 2 {
                // Independent reference: rebuild the last `k` labels.
                let keep = labels.get(labels.len().saturating_sub(k)..).unwrap();
                let expected = Name::from_labels(keep.iter().copied()).unwrap();
                assert_eq!(name.suffix_wire(k), expected.as_wire(), "{name} {k}");
                assert_eq!(name.suffix_wire(k), name.suffix(k).as_wire(), "{name} {k}");
            }
        }
        assert_eq!(Name::root().suffix_wire(2), [0]);
        assert_eq!(n("www.examp.le").suffix_wire(2), n("examp.le").as_wire());
        assert_eq!(n("www.examp.le").suffix_wire(0), [0]);
    }

    #[test]
    fn suffix_counts_labels() {
        let x = n("a.b.c.d");
        assert_eq!(x.suffix(1), n("d"));
        assert_eq!(x.suffix(4), x);
        assert_eq!(x.suffix(9), x);
        assert_eq!(x.suffix(0), Name::root());
    }

    #[test]
    fn labels_iterate_most_specific_first() {
        let name = n("www.examp.le");
        let collected: Vec<&[u8]> = name.labels().collect();
        assert_eq!(collected, vec![b"www".as_slice(), b"examp", b"le"]);
    }

    #[test]
    fn from_wire_inverts_as_wire() {
        for s in ["www.examp.le", "a.b.c.d", "le"] {
            let name = n(s);
            assert_eq!(Name::from_wire(name.as_wire()).unwrap(), name);
        }
        assert_eq!(Name::from_wire(&[0]).unwrap(), Name::root());
        // Uppercase wire bytes normalise like every other constructor.
        assert_eq!(Name::from_wire(b"\x03WWW\x02le\x00").unwrap(), n("www.le"));
    }

    #[test]
    fn from_wire_rejects_malformed_bytes() {
        assert_eq!(Name::from_wire(&[]), Err(NameError::MalformedWire));
        // Label length runs past the end.
        assert_eq!(Name::from_wire(b"\x05ab"), Err(NameError::MalformedWire));
        // Missing root octet.
        assert_eq!(Name::from_wire(b"\x02ab"), Err(NameError::MalformedWire));
        // Trailing bytes after the root octet.
        assert_eq!(
            Name::from_wire(b"\x01a\x00x"),
            Err(NameError::MalformedWire)
        );
        // Oversized label (64) and oversized name.
        let mut long = vec![64u8];
        long.extend(std::iter::repeat_n(b'a', 64));
        long.push(0);
        assert_eq!(Name::from_wire(&long), Err(NameError::LabelTooLong(64)));
        let big = [1u8, b'a'].repeat(200);
        assert_eq!(Name::from_wire(&big), Err(NameError::NameTooLong(400)));
    }
}
