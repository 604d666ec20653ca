//! Property-based tests: arbitrary well-formed messages survive an
//! encode → decode round trip, the decoder never panics on garbage, and
//! `Name` — inline or heap — behaves exactly like its wire bytes.

use dps_dns::name::{MAX_LABEL_LEN, MAX_NAME_LEN};
use dps_dns::{
    Class, Header, Message, Name, NameError, Opcode, Question, RData, Rcode, Record, RrType, Soa,
};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,14}[a-z0-9])?").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..6).prop_map(|labels| {
        let refs: Vec<&[u8]> = labels.iter().map(|l| l.as_bytes()).collect();
        Name::from_labels(refs).expect("labels within limits")
    })
}

/// Label lists whose wire length clusters where `Name` changes
/// representation (the inline capacity ± 1) and at the 255-octet limit
/// (254, 255 and one past it), with some short names mixed in. Labels
/// mix cases so normalisation is exercised too, and hold a few octets
/// that look like label lengths.
fn arb_boundary_labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let cap = Name::INLINE_CAPACITY;
    let target = prop_oneof![
        Just(cap - 1),
        Just(cap),
        Just(cap + 1),
        Just(254usize),
        Just(255usize),
        Just(256usize),
        Just(1usize),
        3usize..80,
    ];
    (target, proptest::collection::vec(any::<u8>(), 300..301))
        .prop_map(|(len, noise)| labels_of_wire_len(len, &noise))
}

/// Labels whose name is exactly `wire_len` octets in wire form (any
/// length but 2, which no name has), their lengths and bytes drawn from
/// `noise`.
fn labels_of_wire_len(wire_len: usize, noise: &[u8]) -> Vec<Vec<u8>> {
    // Octets 1–3 read as label lengths when a name is cut mid-label,
    // which is what a non-aligned suffix match needs.
    const ALPHABET: &[u8] = b"abcXYZ019-_\x01\x02\x03";
    let mut bytes = noise.iter().cycle().copied();
    let mut draw = || bytes.next().unwrap_or(0);
    let mut labels = Vec::new();
    let mut rest = wire_len - 1; // octets for length-prefixed labels
    while rest > 0 {
        // A label takes 1 + len octets; never leave a remainder of 1,
        // which no label can fill.
        let max = MAX_LABEL_LEN.min(rest - 1);
        let mut len = 1 + usize::from(draw()) % max;
        if rest - 1 - len == 1 {
            len = if len == max { len - 1 } else { len + 1 };
        }
        labels.push(
            (0..len)
                .map(|_| ALPHABET[usize::from(draw()) % ALPHABET.len()])
                .collect(),
        );
        rest -= 1 + len;
    }
    labels
}

fn arb_boundary_name() -> impl Strategy<Value = Name> {
    arb_boundary_labels().prop_map(|labels| {
        Name::from_labels(labels.iter().map(Vec::as_slice)).unwrap_or_else(|_| Name::root())
    })
}

/// The former `Vec<u8>` representation, kept as the reference the inline
/// one must match byte for byte.
mod reference {
    use super::*;

    pub fn from_labels(labels: &[Vec<u8>]) -> Result<Vec<u8>, NameError> {
        let mut wire = Vec::new();
        for label in labels {
            if label.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(label.len()));
            }
            wire.push(label.len() as u8);
            wire.extend(label.iter().map(u8::to_ascii_lowercase));
        }
        wire.push(0);
        if wire.len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire.len()));
        }
        Ok(wire)
    }

    pub fn labels(wire: &[u8]) -> Vec<&[u8]> {
        let mut out = Vec::new();
        let mut i = 0;
        while wire[i] != 0 {
            let len = usize::from(wire[i]);
            out.push(&wire[i + 1..i + 1 + len]);
            i += 1 + len;
        }
        out
    }

    pub fn prepend(wire: &[u8], label: &[u8]) -> Result<Vec<u8>, NameError> {
        let mut labels: Vec<Vec<u8>> = vec![label.to_vec()];
        labels.extend(self::labels(wire).into_iter().map(<[u8]>::to_vec));
        from_labels(&labels)
    }

    pub fn parent(wire: &[u8]) -> Option<Vec<u8>> {
        (wire[0] != 0).then(|| wire[1 + usize::from(wire[0])..].to_vec())
    }

    pub fn suffix(wire: &[u8], n: usize) -> Vec<u8> {
        let labels = labels(wire);
        let keep = labels[labels.len().saturating_sub(n)..].iter();
        from_labels(&keep.map(|l| l.to_vec()).collect::<Vec<_>>()).unwrap()
    }
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn arb_rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<[u8; 4]>().prop_map(|o| RData::A(Ipv4Addr::from(o))),
        any::<[u8; 16]>().prop_map(|o| RData::Aaaa(Ipv6Addr::from(o))),
        arb_name().prop_map(RData::Ns),
        arb_name().prop_map(RData::Cname),
        (
            arb_name(),
            arb_name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(
                |(mname, rname, serial, refresh, retry, expire, minimum)| RData::Soa(Soa {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                })
            ),
        (any::<u16>(), arb_name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..4)
            .prop_map(RData::Txt),
        (100u16..60000, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(rtype, data)| RData::Raw { rtype, data }),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (arb_name(), any::<u32>(), arb_rdata()).prop_map(|(name, ttl, rdata)| Record {
        name,
        class: Class::In,
        ttl,
        rdata,
    })
}

fn arb_header() -> impl Strategy<Value = Header> {
    (
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u8..16,
    )
        .prop_map(|(id, qr, aa, tc, rd, ra, rcode)| Header {
            id,
            qr,
            opcode: Opcode::Query,
            aa,
            tc,
            rd,
            ra,
            rcode: Rcode::from_code(rcode),
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        arb_header(),
        proptest::collection::vec(
            (arb_name(), 0u16..300).prop_map(|(n, t)| Question {
                qname: n,
                qtype: RrType::from_code(t),
                qclass: Class::In,
            }),
            0..3,
        ),
        proptest::collection::vec(arb_record(), 0..6),
        proptest::collection::vec(arb_record(), 0..3),
        proptest::collection::vec(arb_record(), 0..3),
    )
        .prop_map(
            |(header, questions, answers, authorities, additionals)| Message {
                header,
                questions,
                answers,
                authorities,
                additionals,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn message_roundtrip(msg in arb_message()) {
        let bytes = msg.to_bytes().unwrap();
        let parsed = Message::parse(&bytes).unwrap();
        prop_assert_eq!(parsed, msg);
    }

    #[test]
    fn name_roundtrip_via_presentation(name in arb_name()) {
        let shown = name.to_string();
        let reparsed: Name = shown.parse().unwrap();
        prop_assert_eq!(reparsed, name);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any result is fine; panicking or looping is not.
        let _ = Message::parse(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_message(
        msg in arb_message(),
        flip in any::<(u16, u8)>(),
    ) {
        let mut bytes = msg.to_bytes().unwrap();
        if !bytes.is_empty() {
            let idx = flip.0 as usize % bytes.len();
            bytes[idx] ^= flip.1;
            let _ = Message::parse(&bytes);
        }
    }

    #[test]
    fn decoder_never_panics_on_truncated_valid_message(
        msg in arb_message(),
        cut in any::<u16>(),
    ) {
        let bytes = msg.to_bytes().unwrap();
        let keep = cut as usize % (bytes.len() + 1);
        let _ = Message::parse(&bytes[..keep]);
    }

    #[test]
    fn decoder_never_panics_under_multi_byte_corruption(
        msg in arb_message(),
        flips in proptest::collection::vec(any::<(u16, u8)>(), 1..8),
    ) {
        let mut bytes = msg.to_bytes().unwrap();
        if !bytes.is_empty() {
            for (at, x) in flips {
                let idx = at as usize % bytes.len();
                bytes[idx] ^= x;
            }
            let _ = Message::parse(&bytes);
        }
    }

    #[test]
    fn subdomain_relation_is_transitive(a in arb_name(), b in arb_name(), c in arb_name()) {
        if a.is_subdomain_of(&b) && b.is_subdomain_of(&c) {
            prop_assert!(a.is_subdomain_of(&c));
        }
    }

    #[test]
    fn sld_is_idempotent(name in arb_name()) {
        prop_assert_eq!(name.sld().sld(), name.sld());
    }

    #[test]
    fn constructors_match_the_vec_reference(
        labels in arb_boundary_labels(),
        extra in arb_label(),
        n in 0usize..8,
    ) {
        let expected = reference::from_labels(&labels);
        let built = Name::from_labels(labels.iter().map(Vec::as_slice));
        prop_assert_eq!(built.clone().map(|b| b.as_wire().to_vec()), expected);
        let Ok(name) = built else { return Ok(()) };
        let wire = name.as_wire().to_vec();
        prop_assert_eq!(name.wire_len(), wire.len());
        // `from_wire` lower-cases like `from_labels` does.
        let shouted = Name::from_wire(&wire.to_ascii_uppercase()).unwrap();
        prop_assert_eq!(shouted.as_wire(), &wire[..]);
        let shouted_label = extra.to_ascii_uppercase();
        prop_assert_eq!(
            name.prepend(&shouted_label).map(|p| p.as_wire().to_vec()),
            reference::prepend(&wire, shouted_label.as_bytes())
        );
        prop_assert_eq!(
            name.parent().map(|p| p.as_wire().to_vec()),
            reference::parent(&wire)
        );
        prop_assert_eq!(name.suffix(n).as_wire().to_vec(), reference::suffix(&wire, n));
    }

    #[test]
    fn ord_eq_and_hash_follow_the_wire_bytes(
        a in arb_boundary_name(),
        b in arb_boundary_name(),
        k in 0usize..6,
        pick in 0u8..3,
    ) {
        // Independent names rarely collide; derive related ones too.
        let b = match pick {
            0 => b,
            1 => a.suffix(k),
            _ => Name::from_wire(&a.as_wire().to_ascii_uppercase()).unwrap(),
        };
        prop_assert_eq!(a.cmp(&b), a.as_wire().cmp(b.as_wire()));
        prop_assert_eq!(a.partial_cmp(&b), Some(a.as_wire().cmp(b.as_wire())));
        prop_assert_eq!(a == b, a.as_wire() == b.as_wire());
        prop_assert_eq!(hash_of(&a), hash_of(a.as_wire()));
        prop_assert_eq!(hash_of(&b), hash_of(b.as_wire()));
    }

    #[test]
    fn subdomain_is_a_label_suffix(
        a in arb_boundary_name(),
        b in arb_boundary_name(),
        cut in 0usize..256,
        pick in 0u8..3,
    ) {
        // Besides independent names: a label-aligned suffix of `a`, and
        // any tail of its wire bytes that happens to parse as a name —
        // the case a byte-wise suffix test gets wrong.
        let tail = &a.as_wire()[cut % a.wire_len()..];
        let b = match pick {
            0 => b,
            1 => a.suffix(cut % 6),
            _ => Name::from_wire(tail).unwrap_or(b),
        };
        let (la, lb) = (reference::labels(a.as_wire()), reference::labels(b.as_wire()));
        let expected = la.len() >= lb.len() && la[la.len() - lb.len()..] == lb[..];
        prop_assert_eq!(a.is_subdomain_of(&b), expected);
    }
}

#[test]
fn name_stays_forty_bytes() {
    assert!(std::mem::size_of::<Name>() <= 40);
    assert_eq!(
        std::mem::size_of::<Option<Name>>(),
        std::mem::size_of::<Name>()
    );
}

/// The boundary strategy really draws names at every length it aims for.
#[test]
fn boundary_labels_hit_their_wire_length() {
    let noise: Vec<u8> = (0..=255).collect();
    for len in [1, 3, 4, 37, 38, 39, 64, 65, 66, 67, 254, 255, 256] {
        let labels = labels_of_wire_len(len, &noise);
        let wire_len = 1 + labels.iter().map(|l| 1 + l.len()).sum::<usize>();
        assert_eq!(wire_len, len);
        assert!(labels
            .iter()
            .all(|l| (1..=MAX_LABEL_LEN).contains(&l.len())));
    }
}

/// Exhaustive, deterministic complement to the random truncations: a
/// realistic compressed response must decode (or error) cleanly when cut
/// at *every* possible byte boundary.
#[test]
fn every_prefix_of_a_compressed_response_parses_without_panic() {
    let name: Name = "www.cloudflare.com".parse().unwrap();
    let mut msg = Message::query(0x2016, Question::new(name.clone(), RrType::A));
    msg.header.qr = true;
    msg.answers.push(Record {
        name: name.clone(),
        class: Class::In,
        ttl: 300,
        rdata: RData::Cname("edge.cloudflare.com".parse().unwrap()),
    });
    msg.answers.push(Record {
        name: "edge.cloudflare.com".parse().unwrap(),
        class: Class::In,
        ttl: 300,
        rdata: RData::A(Ipv4Addr::new(198, 41, 128, 1)),
    });
    let bytes = msg.to_bytes().unwrap();
    assert!(Message::parse(&bytes).is_ok());
    for keep in 0..bytes.len() {
        let _ = Message::parse(&bytes[..keep]);
    }
}
