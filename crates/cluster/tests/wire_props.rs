//! Property-based tests for the cluster wire protocol, mirroring the
//! DNS wire-format proptests: arbitrary well-formed messages survive an
//! encode → decode round trip, and the decoder never panics — or
//! accepts — truncated or bit-flipped frames.

use dps_cluster::wire::{self, LeaseResult, Msg, MAX_NAMES_PER_ROW, PROTO_VERSION};
use dps_dns::Name;
use dps_measure::collector::{BatchBuilder, NameKind, RawRow, RowBatch};
use dps_measure::quality::CauseCounts;
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,14}[a-z0-9])?").unwrap()
}

fn arb_name() -> impl Strategy<Value = Name> {
    proptest::collection::vec(arb_label(), 0..5).prop_map(|labels| {
        let refs: Vec<&[u8]> = labels.iter().map(|l| l.as_bytes()).collect();
        Name::from_labels(refs).expect("labels within limits")
    })
}

fn arb_opt_name() -> impl Strategy<Value = Option<Name>> {
    prop_oneof![Just(None), arb_name().prop_map(Some)]
}

fn arb_causes() -> impl Strategy<Value = CauseCounts> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(
            |(timeouts, unreachable, corrupt, servfail, other)| CauseCounts {
                timeouts,
                unreachable,
                corrupt,
                servfail,
                other,
            },
        )
}

fn arb_row() -> impl Strategy<Value = RawRow> {
    (
        any::<u32>(),
        arb_opt_name(),
        any::<[u32; 7]>(),
        any::<[bool; 3]>(),
        arb_causes(),
        (arb_opt_name(), arb_opt_name()),
        (arb_opt_name(), arb_opt_name()),
        (arb_opt_name(), arb_opt_name()),
    )
        .prop_map(|(entry, apex, nums, flags, causes, cnames, ns, ns_hosts)| {
            let [apex_v4, www_v4, asn1, asn2, www_asn, aaaa_asn, data_points] = nums;
            let [failed, retryable, aaaa] = flags;
            RawRow {
                entry,
                apex,
                apex_v4,
                www_v4,
                aaaa,
                cnames: [cnames.0, cnames.1],
                ns: [ns.0, ns.1],
                ns_hosts: [ns_hosts.0, ns_hosts.1],
                asn1,
                asn2,
                www_asn,
                aaaa_asn,
                failed,
                data_points,
                retryable,
                causes,
            }
        })
}

/// A batch as an agent builds it: no dictionary view, so every name is
/// a table reference.
fn batch_of(rows: &[RawRow]) -> RowBatch {
    let mut batch = BatchBuilder::new(None);
    for row in rows {
        batch.push(row);
    }
    batch.finish()
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        proptest::string::string_regex("[ -~]{0,24}")
            .unwrap()
            .prop_map(|name| Msg::Hello {
                proto: PROTO_VERSION,
                name
            }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(worker, seed, scale_bits, gtld_days, cc_start_day)| {
                Msg::Welcome {
                    proto: PROTO_VERSION,
                    worker,
                    seed,
                    scale_bits,
                    gtld_days,
                    cc_start_day,
                }
            }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u8>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(lease, epoch, day, source, shard, start, count)| {
                Msg::Lease {
                    lease,
                    epoch,
                    day,
                    source,
                    shard,
                    start,
                    count,
                }
            }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u8>(),
            any::<u32>(),
            proptest::collection::vec(arb_row(), 0..4),
        )
            .prop_map(|(lease, epoch, day, source, shard, rows)| {
                Msg::Result(Box::new(LeaseResult {
                    lease,
                    epoch,
                    day,
                    source,
                    shard,
                    batch: batch_of(&rows),
                }))
            }),
        any::<u64>().prop_map(|seq| Msg::Heartbeat { seq }),
        (any::<u64>(), any::<u32>()).prop_map(|(lease, epoch)| Msg::Reject { lease, epoch }),
        Just(Msg::Drain),
        Just(Msg::Bye),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn message_roundtrip(msg in arb_msg()) {
        let payload = wire::encode(&msg);
        let parsed = wire::decode(&payload);
        prop_assert_eq!(parsed, Some(msg));
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any result is fine; panicking or looping is not.
        let _ = wire::decode(&bytes);
    }

    #[test]
    fn every_strict_prefix_is_rejected(msg in arb_msg(), cut in any::<u32>()) {
        // Bodies are fixed-order with trailing-garbage detection, so a
        // truncated frame can never masquerade as a shorter valid one.
        let payload = wire::encode(&msg);
        let keep = cut as usize % payload.len().max(1);
        prop_assert_eq!(wire::decode(payload.get(..keep).unwrap_or(&[])), None);
    }

    #[test]
    fn decoder_never_panics_on_bit_flip(msg in arb_msg(), flip in any::<(u32, u8)>()) {
        let mut payload = wire::encode(&msg);
        let idx = flip.0 as usize % payload.len();
        let mask = if flip.1 == 0 { 1 } else { flip.1 };
        payload[idx] ^= mask;
        let decoded = wire::decode(&payload);
        if idx < 3 {
            // Magic or version byte: always rejected outright.
            prop_assert_eq!(decoded, None);
        }
    }

    #[test]
    fn decoder_never_panics_under_multi_byte_corruption(
        msg in arb_msg(),
        flips in proptest::collection::vec(any::<(u32, u8)>(), 1..8),
    ) {
        let mut payload = wire::encode(&msg);
        if !payload.is_empty() {
            for (at, x) in flips {
                let idx = at as usize % payload.len();
                payload[idx] ^= x;
            }
            let _ = wire::decode(&payload);
        }
    }

    #[test]
    fn frame_reassembly_survives_arbitrary_chunking(
        msgs in proptest::collection::vec(arb_msg(), 1..5),
        chunk in 1usize..64,
    ) {
        // A byte stream of concatenated frames, fed to the reassembly
        // buffer in arbitrary-size read chunks, yields exactly the sent
        // payload sequence.
        let payloads: Vec<Vec<u8>> = msgs.iter().map(wire::encode).collect();
        let stream: Vec<u8> = payloads.iter().flat_map(|p| wire::frame(p)).collect();
        let mut fb = wire::FrameBuf::new();
        let mut got = Vec::new();
        for part in stream.chunks(chunk) {
            fb.extend(part);
            while let Some(p) = fb.next_frame().expect("within frame cap") {
                got.push(p);
            }
        }
        prop_assert_eq!(got, payloads);
    }
}

/// A realistic collected row: an apex, a CNAME target, two NS hosts
/// under one SLD.
fn sample_row() -> RawRow {
    RawRow {
        entry: 7,
        apex: Some("www.example.com".parse().expect("name")),
        apex_v4: 0x0a00_0001,
        www_v4: 0x0a00_0002,
        aaaa: true,
        cnames: [Some("edge.example.net".parse().expect("name")), None],
        ns: [Some("ns1.example.net".parse().expect("name")), None],
        ns_hosts: [
            Some("ns1.example.net".parse().expect("name")),
            Some("ns2.example.net".parse().expect("name")),
        ],
        asn1: 64500,
        asn2: 64501,
        www_asn: 64502,
        aaaa_asn: 64503,
        failed: false,
        data_points: 9,
        retryable: false,
        causes: CauseCounts::default(),
    }
}

fn result_of(batch: RowBatch) -> Msg {
    Msg::Result(Box::new(LeaseResult {
        lease: 42,
        epoch: 3,
        day: 1,
        source: 0,
        shard: 2,
        batch,
    }))
}

/// Exhaustive, deterministic complement to the random truncations: a
/// realistic lease-result frame must be rejected — without panicking —
/// when cut at *every* possible byte boundary.
#[test]
fn every_prefix_of_a_result_frame_is_rejected() {
    let msg = result_of(batch_of(&[sample_row(), sample_row()]));
    let payload = wire::encode(&msg);
    assert_eq!(wire::decode(&payload), Some(msg));
    for keep in 0..payload.len() {
        assert_eq!(wire::decode(&payload[..keep]), None, "prefix {keep}");
    }
}

/// Two rows with the same names ship one table entry per (name, kind),
/// and the same host in an `ns` and an `nsh` slot is listed once per
/// kind.
#[test]
fn a_result_lists_each_name_once_per_kind() {
    let batch = batch_of(&[sample_row(), sample_row()]);
    let host: Name = "ns1.example.net".parse().expect("name");
    let kinds: Vec<NameKind> = batch
        .names
        .iter()
        .filter(|(n, _)| *n == host)
        .map(|&(_, k)| k)
        .collect();
    assert_eq!(kinds, [NameKind::Sld, NameKind::Full]);
    assert_eq!(batch.names.len(), 5);
    assert_eq!(batch.rows[0], batch.rows[1]);
}

/// The decoder refuses a table reference at or past the table's end, a
/// table larger than its per-row cap, a marked slot that holds no
/// reference (0, the null slot), and a reference to a name of the wrong
/// kind.
#[test]
fn malformed_name_tables_are_rejected() {
    let good = batch_of(&[sample_row()]);
    assert_eq!(
        wire::decode(&wire::encode(&result_of(good.clone()))),
        Some(result_of(good.clone()))
    );
    let rejected = |batch: RowBatch, what: &str| {
        assert_eq!(
            wire::decode(&wire::encode(&result_of(batch))),
            None,
            "{what}"
        );
    };

    // References are `1 + index`: `len + 1` is the index at the end.
    let len = good.names.len() as u32;
    for past in [len + 1, len + 2, u32::MAX] {
        let mut batch = good.clone();
        batch.rows[0].row.cname1 = past;
        rejected(batch, &format!("reference {past} into a table of {len}"));
    }

    let mut batch = good.clone();
    let cap = (batch.rows.len() as u32 * MAX_NAMES_PER_ROW) as usize;
    while batch.names.len() <= cap {
        batch
            .names
            .push(("pad.example".parse().expect("name"), NameKind::Sld));
    }
    rejected(batch, "table over its cap");

    let mut batch = good.clone();
    batch.rows[0].row.cname1 = 0;
    rejected(batch, "marker on a null slot");

    // cname2 is null in the sample row; mark it anyway.
    let mut batch = good.clone();
    assert_eq!(batch.rows[0].marks & 0b10, 0);
    batch.rows[0].marks |= 0b10;
    rejected(batch, "marker on a null slot");

    // nsh1 is a full-host slot; point it at the SLD-kind entry 1.
    let mut batch = good.clone();
    assert_eq!(batch.names[0].1, NameKind::Sld);
    batch.rows[0].row.nsh1 = 1;
    rejected(batch, "reference to a name of the wrong kind");

    let mut batch = good;
    batch.rows[0].marks |= 0b1000_0000;
    rejected(batch, "marker past the seventh slot");
}
