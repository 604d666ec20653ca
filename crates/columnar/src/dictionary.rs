//! Dictionary encoding for string columns (SLD names, provider names).

// dps: allow-file(unordered-collection, reason = "the reverse index answers keyed lookups only and is never iterated; ids, serialisation and every other output follow insertion order through `strings`, so hash order cannot leak")
use std::collections::HashMap;

/// Id 0 is reserved for "absent" in measurement tables.
pub const NULL_ID: u32 = 0;

/// An append-only string interner with serialisation.
///
/// Ids and serialisation follow insertion order via `strings`. The
/// reverse index is a hash map that only answers lookups — nothing
/// iterates it, so hash order never reaches an output — because a sweep
/// interns hundreds of thousands of new strings on its first day and an
/// ordered map's string comparisons made each of those cost a
/// microsecond.
#[derive(Debug, Default, Clone)]
pub struct StringDict {
    by_string: HashMap<String, u32>,
    strings: Vec<String>,
}

impl StringDict {
    /// An empty dictionary; id 0 maps to the empty string ("absent").
    pub fn new() -> Self {
        let mut d = Self::default();
        d.intern("");
        d
    }

    /// Returns the id for `s`, interning it if new.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.by_string.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_owned());
        self.by_string.insert(s.to_owned(), id);
        id
    }

    /// The id of `s`, if already interned.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.by_string.get(s).copied()
    }

    /// The string for `id`.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Number of interned strings (including the reserved empty string).
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if only the reserved entry exists.
    pub fn is_empty(&self) -> bool {
        self.strings.len() <= 1
    }

    /// Serialises as `[varint n][varint len string]…`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        crate::varint::put_u64(&mut out, self.strings.len() as u64);
        for s in &self.strings {
            crate::varint::put_u64(&mut out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        out
    }

    /// Parses the serialisation produced by [`to_bytes`](Self::to_bytes).
    /// Declared lengths are untrusted: each is `try_from`-checked against
    /// `usize` and each end offset is computed with `checked_add`, so a
    /// corrupt count near `u64::MAX` is a clean `None`, not a truncated
    /// cast or wrapped slice bound.
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let n = usize::try_from(crate::varint::get_u64(buf, &mut pos)?).ok()?;
        if n > buf.len().checked_add(1)? {
            return None;
        }
        let mut d = Self::default();
        for _ in 0..n {
            let len = usize::try_from(crate::varint::get_u64(buf, &mut pos)?).ok()?;
            let end = pos.checked_add(len)?;
            let bytes = buf.get(pos..end)?;
            pos = end;
            let s = std::str::from_utf8(bytes).ok()?;
            d.intern(s);
        }
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = StringDict::new();
        let a = d.intern("cloudflare.com");
        let b = d.intern("cloudflare.com");
        assert_eq!(a, b);
        assert_eq!(d.resolve(a), Some("cloudflare.com"));
        assert_eq!(d.get("cloudflare.com"), Some(a));
        assert_eq!(d.get("nope"), None);
    }

    #[test]
    fn null_id_is_empty_string() {
        let d = StringDict::new();
        assert_eq!(d.resolve(NULL_ID), Some(""));
    }

    #[test]
    fn serialisation_roundtrip() {
        let mut d = StringDict::new();
        for s in ["a", "incapdns.net", "üni-code", ""] {
            d.intern(s);
        }
        let bytes = d.to_bytes();
        let back = StringDict::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), d.len());
        for id in 0..d.len() as u32 {
            assert_eq!(back.resolve(id), d.resolve(id));
        }
    }

    #[test]
    fn corrupt_input_rejected() {
        assert!(StringDict::from_bytes(&[0xFF; 2]).is_none());
        let mut d = StringDict::new();
        d.intern("hello");
        let mut bytes = d.to_bytes();
        bytes.truncate(bytes.len() - 2);
        assert!(StringDict::from_bytes(&bytes).is_none());
    }

    /// Declared counts and string lengths around u32::MAX (and beyond, up
    /// to what a corrupt varint can say) must be clean `None`s — never a
    /// truncated cast or a wrapped `pos + len` bound.
    #[test]
    fn u32_max_adjacent_lengths_rejected() {
        for n in [
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            // Huge entry count.
            let mut buf = Vec::new();
            crate::varint::put_u64(&mut buf, n);
            assert!(StringDict::from_bytes(&buf).is_none(), "count={n}");

            // Sane count, huge string length.
            let mut buf = Vec::new();
            crate::varint::put_u64(&mut buf, 1);
            crate::varint::put_u64(&mut buf, n);
            buf.push(b'a');
            assert!(StringDict::from_bytes(&buf).is_none(), "len={n}");
        }
    }
}
