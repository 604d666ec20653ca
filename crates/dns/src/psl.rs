//! Public-suffix-aware registered-domain extraction.
//!
//! The paper detects provider references "based on the second-level domain
//! (SLD) contained therein" — which, on the real Internet, means the label
//! directly under the *public suffix*, not literally the second label:
//! `foo.co.uk`'s registered domain is `foo.co.uk`, not `co.uk`. This module
//! implements the Public Suffix List matching algorithm (longest matching
//! rule, wildcard rules, exception rules) over [`Name`]s.
//!
//! The simulated namespace only uses single-label suffixes, for which
//! [`Name::sld`] is exact; the measurement pipeline nevertheless goes
//! through this API so pointing it at real data with a full PSL is a
//! drop-in change.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::name::Name;
use std::collections::HashSet;

/// A compiled public-suffix list.
#[derive(Debug, Clone, Default)]
pub struct PublicSuffixList {
    /// Exact rules, stored in uncompressed wire form (e.g.
    /// `\x02co\x02uk\x00` for the rule `co.uk`), so a name's suffix is
    /// looked up as the borrowed slice [`Name::suffix_wire`] returns.
    rules: HashSet<Vec<u8>>,
    /// Wildcard rules: `*.ck` stored as the wire form of `ck` (any single
    /// label below).
    wildcards: HashSet<Vec<u8>>,
    /// Exception rules: `!www.ck` stored as the wire form of `www.ck`.
    exceptions: HashSet<Vec<u8>>,
}

/// The wire form of a dotted rule, labels kept verbatim. A label no name
/// can carry (empty, or over 63 octets) yields a key no name's suffix
/// can equal: an empty label ends the key early, an oversized one gets
/// length octet 255.
fn wire_key(rule: &str) -> Vec<u8> {
    let mut key = Vec::with_capacity(rule.len() + 2);
    for label in rule.split('.') {
        key.push(u8::try_from(label.len()).unwrap_or(u8::MAX));
        key.extend_from_slice(label.as_bytes());
    }
    key.push(0);
    key
}

impl PublicSuffixList {
    /// Parses PSL text: one rule per line, `//` comments, blank lines,
    /// `*.` wildcards and `!` exceptions, as in the real list's format.
    pub fn parse(text: &str) -> Self {
        let mut psl = Self::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            if let Some(exc) = line.strip_prefix('!') {
                psl.exceptions.insert(wire_key(exc));
            } else if let Some(wild) = line.strip_prefix("*.") {
                psl.wildcards.insert(wire_key(wild));
            } else {
                psl.rules.insert(wire_key(line));
            }
        }
        psl
    }

    /// A minimal list covering the simulated namespace plus a few real
    /// multi-label suffixes for generality.
    pub fn default_list() -> Self {
        Self::parse(
            "// built-in subset\n\
             com\nnet\norg\nnl\nbiz\nar\nle\ntest\n\
             co.uk\norg.uk\ncom.au\n*.ck\n!www.ck\n",
        )
    }

    /// Number of rules (exact + wildcard + exception).
    pub fn len(&self) -> usize {
        self.rules.len() + self.wildcards.len() + self.exceptions.len()
    }

    /// True if no rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length in labels of the public suffix of `name`, per the PSL
    /// algorithm (longest matching rule wins; exceptions beat wildcards;
    /// unknown TLDs match implicitly with one label).
    pub fn suffix_labels(&self, name: &Name) -> usize {
        // Walk the label boundaries left to right: the suffix starting at
        // the i-th label holds `take = n - i` labels, so candidate tails
        // arrive longest first and each is a borrowed slice of the wire.
        let n = name.label_count();
        let mut best = 1.min(n); // implicit `*` rule: unknown TLD = 1 label
        let mut exception = None;
        let mut tail = name.as_wire();
        for take in (1..=n).rev() {
            let Some(&len) = tail.first() else { break };
            // Everything but the leftmost label of the candidate tail.
            let base = tail.get(1 + usize::from(len)..).unwrap_or(&[]);
            if self.exceptions.contains(tail) {
                // The shortest matching exception decides.
                exception = Some(take);
            }
            if self.rules.contains(tail) {
                best = best.max(take);
            }
            // Wildcard `*.<base>`: matches when the base is everything but
            // the leftmost label of the candidate tail.
            if take >= 2 && self.wildcards.contains(base) {
                best = best.max(take);
            }
            tail = base;
        }
        // Exception: the suffix is one label shorter than the rule.
        exception.map_or(best, |take| take - 1)
    }

    /// The registered domain of `name`: public suffix plus one label.
    /// Names at or above a public suffix are returned unchanged.
    pub fn registered_domain(&self, name: &Name) -> Name {
        let suffix = self.suffix_labels(name);
        let want = suffix + 1;
        if name.label_count() <= want {
            return name.clone();
        }
        name.suffix(want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn psl() -> PublicSuffixList {
        PublicSuffixList::default_list()
    }

    #[test]
    fn single_label_suffixes_match_sld() {
        let psl = psl();
        for name in ["www.examp.le", "edge.cdn.incapdns.net", "d123.com"] {
            assert_eq!(psl.registered_domain(&n(name)), n(name).sld(), "{name}");
        }
    }

    #[test]
    fn multi_label_suffixes() {
        let psl = psl();
        assert_eq!(psl.registered_domain(&n("www.foo.co.uk")), n("foo.co.uk"));
        assert_eq!(psl.registered_domain(&n("foo.co.uk")), n("foo.co.uk"));
        assert_eq!(
            psl.registered_domain(&n("a.b.site.com.au")),
            n("site.com.au")
        );
    }

    #[test]
    fn suffix_itself_is_returned_unchanged() {
        let psl = psl();
        assert_eq!(psl.registered_domain(&n("co.uk")), n("co.uk"));
        assert_eq!(psl.registered_domain(&n("com")), n("com"));
    }

    #[test]
    fn wildcard_and_exception_rules() {
        let psl = psl();
        // *.ck: every label under ck is a public suffix…
        assert_eq!(
            psl.registered_domain(&n("shop.anything.ck")),
            n("shop.anything.ck")
        );
        // …except the exception rule !www.ck: www.ck is a registrable name.
        assert_eq!(psl.registered_domain(&n("www.ck")), n("www.ck"));
        assert_eq!(psl.registered_domain(&n("deep.www.ck")), n("www.ck"));
    }

    #[test]
    fn unknown_tld_uses_implicit_rule() {
        let psl = psl();
        assert_eq!(psl.registered_domain(&n("www.thing.zz")), n("thing.zz"));
    }

    #[test]
    fn parse_tolerates_comments_and_blanks() {
        let psl = PublicSuffixList::parse("// header\n\nuk\nco.uk\n");
        assert_eq!(psl.len(), 2);
        assert_eq!(psl.registered_domain(&n("x.y.co.uk")), n("y.co.uk"));
    }

    #[test]
    fn root_and_tiny_names() {
        let psl = psl();
        assert_eq!(psl.registered_domain(&Name::root()), Name::root());
        assert_eq!(psl.registered_domain(&n("com")), n("com"));
    }

    /// The reversed-string implementation the wire-slice matcher
    /// replaced, kept as the reference it must agree with.
    struct ReversedStringPsl {
        rules: HashSet<String>,
        wildcards: HashSet<String>,
        exceptions: HashSet<String>,
    }

    fn reverse_dotted(rule: &str) -> String {
        let mut parts: Vec<&str> = rule.split('.').collect();
        parts.reverse();
        parts.join(".")
    }

    fn reversed_key(labels: &[&[u8]]) -> String {
        let mut parts: Vec<String> = labels
            .iter()
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect();
        parts.reverse();
        parts.join(".")
    }

    impl ReversedStringPsl {
        fn parse(text: &str) -> Self {
            let mut psl = Self {
                rules: HashSet::new(),
                wildcards: HashSet::new(),
                exceptions: HashSet::new(),
            };
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with("//") {
                    continue;
                }
                if let Some(exc) = line.strip_prefix('!') {
                    psl.exceptions.insert(reverse_dotted(exc));
                } else if let Some(wild) = line.strip_prefix("*.") {
                    psl.wildcards.insert(reverse_dotted(wild));
                } else {
                    psl.rules.insert(reverse_dotted(line));
                }
            }
            psl
        }

        fn suffix_labels(&self, name: &Name) -> usize {
            let labels: Vec<&[u8]> = name.labels().collect();
            let n = labels.len();
            let mut best = 1.min(n);
            for take in 1..=n {
                let tail = &labels[n - take..];
                let key = reversed_key(tail);
                if self.exceptions.contains(&key) {
                    return take - 1;
                }
                if self.rules.contains(&key) {
                    best = best.max(take);
                }
                if take >= 2 && self.wildcards.contains(&reversed_key(&tail[1..])) {
                    best = best.max(take);
                }
            }
            best
        }
    }

    /// Rules exercising every branch: exact multi-label rules, a rule
    /// nested under another (`uk` / `co.uk`), a wildcard with an
    /// exception, and a wildcard whose base is itself a rule.
    const RULES: &str = "com\nuk\nco.uk\ncom.au\n*.ck\n!www.ck\n*.kawasaki.jp\n\
                         jp\n!city.kawasaki.jp\n";

    const LABELS: [&str; 11] = [
        "co", "uk", "ck", "www", "com", "au", "zz", "foo", "kawasaki", "jp", "city",
    ];

    fn arb_name() -> impl Strategy<Value = Name> {
        proptest::collection::vec(0usize..LABELS.len(), 0..6)
            .prop_map(|idx| Name::from_labels(idx.iter().map(|&i| LABELS[i].as_bytes())).unwrap())
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn suffix_labels_matches_reversed_string_reference(name in arb_name()) {
            let fast = PublicSuffixList::parse(RULES);
            let reference = ReversedStringPsl::parse(RULES);
            prop_assert_eq!(fast.suffix_labels(&name), reference.suffix_labels(&name));
            let default = PublicSuffixList::default_list();
            let default_ref = ReversedStringPsl::parse(
                "com\nnet\norg\nnl\nbiz\nar\nle\ntest\nco.uk\norg.uk\ncom.au\n*.ck\n!www.ck\n",
            );
            prop_assert_eq!(default.suffix_labels(&name), default_ref.suffix_labels(&name));
        }
    }

    #[test]
    fn suffix_labels_matches_reference_on_fixed_cases() {
        let fast = PublicSuffixList::parse(RULES);
        let reference = ReversedStringPsl::parse(RULES);
        for name in [
            "",
            "ck",
            "www.ck",
            "a.www.ck",
            "x.ck",
            "y.x.ck",
            "co.uk",
            "a.co.uk",
            "uk",
            "zz",
            "a.zz",
            "b.a.zz",
            "city.kawasaki.jp",
            "x.city.kawasaki.jp",
            "foo.kawasaki.jp",
            "a.foo.kawasaki.jp",
            "kawasaki.jp",
            "com.au",
            "x.com.au",
        ] {
            let name = n(name);
            assert_eq!(
                fast.suffix_labels(&name),
                reference.suffix_labels(&name),
                "{name}"
            );
        }
        assert_eq!(fast.len(), 9, "one entry per distinct rule");
    }
}
