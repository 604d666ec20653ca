//! Fuzz targets: one per untrusted-input decoder in the workspace.
//!
//! Each target is a pure function `&[u8] -> Result<(), String>` checking
//! two invariants on arbitrary bytes:
//!
//! 1. **No panic.** The harness wraps every call in `catch_unwind`; a
//!    panic is always a finding.
//! 2. **Decode∘encode idempotence.** Whatever decodes successfully must
//!    re-encode and decode back to an equal value. (The encoding itself
//!    need not be byte-identical — name compression, varint choices — but
//!    the *value* must survive.)
//!
//! Seeds are built with the real encoders so mutations start from
//! structurally valid inputs; the checked-in corpus under
//! `crates/fuzz/corpus/<target>/` adds regression inputs from previously
//! found bugs.

use dps_authdns::zonefile;
use dps_cluster::wire as cluster_wire;
use dps_dns::wire::{Decoder, Encoder};
use dps_dns::{Class, Message, Name, Question, RData, Record, RrType};
use dps_measure::collector::{BatchBuilder, RawRow};
use dps_store::catalog::{CatalogDelta, PageMeta};
use std::collections::BTreeSet;

/// One fuzzable decoder.
pub struct Target {
    /// CLI name (`dpscope fuzz <name>`).
    pub name: &'static str,
    /// One-line description for listings.
    pub about: &'static str,
    /// The invariant checker; panics count as failures.
    pub check: fn(&[u8]) -> Result<(), String>,
    /// Structurally valid starting inputs.
    pub seeds: fn() -> Vec<Vec<u8>>,
}

/// All targets, in CLI listing order.
pub const TARGETS: &[Target] = &[
    Target {
        name: "dns_wire",
        about: "dns::wire name/record decode → re-encode → decode",
        check: check_dns_wire,
        seeds: seeds_dns_wire,
    },
    Target {
        name: "dns_message",
        about: "dns::message parse → to_bytes → parse",
        check: check_dns_message,
        seeds: seeds_dns_message,
    },
    Target {
        name: "zonefile",
        about: "authdns::zonefile parse → format → reparse",
        check: check_zonefile,
        seeds: seeds_zonefile,
    },
    Target {
        name: "store_format",
        about: "store catalog-delta decode → encode → decode",
        check: check_store_format,
        seeds: seeds_store_format,
    },
    Target {
        name: "cluster_frame",
        about: "cluster message decode + chunked frame reassembly",
        check: check_cluster_frame,
        seeds: seeds_cluster_frame,
    },
];

/// Looks a target up by CLI name.
pub fn find_target(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

// ---------------------------------------------------------------- dns_wire

fn check_dns_wire(input: &[u8]) -> Result<(), String> {
    // A name decoded from arbitrary bytes must survive re-encoding.
    let mut name_dec = Decoder::new(input);
    if let Ok(name) = name_dec.get_name() {
        let mut enc = Encoder::new();
        enc.put_name(&name)
            .map_err(|e| format!("decoded name failed to re-encode: {e:?}"))?;
        let bytes = enc.finish();
        let back = Decoder::new(&bytes)
            .get_name()
            .map_err(|e| format!("re-encoded name failed to decode: {e:?}"))?;
        // Byte-wise too, so the round trip does not rest only on `Name`'s
        // hand-written `Eq`.
        if back != name || back.as_wire() != name.as_wire() {
            return Err(format!("name changed across re-encode: {name} → {back}"));
        }
    }
    // Same for a run of records.
    let mut dec = Decoder::new(input);
    for _ in 0..1024 {
        let Ok(rec) = dec.get_record() else {
            break;
        };
        let mut enc = Encoder::new();
        enc.put_record(&rec)
            .map_err(|e| format!("decoded record failed to re-encode: {e:?}"))?;
        let bytes = enc.finish();
        let back = Decoder::new(&bytes)
            .get_record()
            .map_err(|e| format!("re-encoded record failed to decode: {e:?}"))?;
        if back != rec {
            return Err(format!(
                "record changed across re-encode: {rec:?} → {back:?}"
            ));
        }
        if dec.remaining() == 0 {
            break;
        }
    }
    Ok(())
}

fn seeds_dns_wire() -> Vec<Vec<u8>> {
    let mut seeds = Vec::new();
    let name: Name = match "www.examp.le".parse() {
        Ok(n) => n,
        Err(_) => return seeds,
    };
    let mut enc = Encoder::new();
    if enc.put_name(&name).is_ok() {
        seeds.push(enc.finish());
    }
    for rdata in [
        RData::A([10, 0, 0, 1].into()),
        RData::Cname(name.clone()),
        RData::Txt(vec![b"v=spf1 -all".to_vec()]),
        RData::Mx {
            preference: 10,
            exchange: name.clone(),
        },
        RData::Raw {
            rtype: 41,
            data: vec![0, 3, 0, 2, 0xAA, 0xBB],
        },
    ] {
        let mut enc = Encoder::new();
        if enc
            .put_record(&Record::new(name.clone(), Class::In, 300, rdata))
            .is_ok()
        {
            seeds.push(enc.finish());
        }
    }
    seeds
}

// ------------------------------------------------------------- dns_message

fn check_dns_message(input: &[u8]) -> Result<(), String> {
    let Ok(msg) = Message::parse(input) else {
        return Ok(());
    };
    let bytes = msg
        .to_bytes()
        .map_err(|e| format!("parsed message failed to re-encode: {e:?}"))?;
    let back =
        Message::parse(&bytes).map_err(|e| format!("re-encoded message failed to parse: {e:?}"))?;
    if back != msg {
        return Err(format!(
            "message changed across re-encode:\n  {msg:?}\n  {back:?}"
        ));
    }
    Ok(())
}

fn seeds_dns_message() -> Vec<Vec<u8>> {
    let mut seeds = Vec::new();
    let Ok(name) = "www.examp.le".parse::<Name>() else {
        return seeds;
    };
    let query = Message::query(0x1234, Question::new(name.clone(), RrType::A));
    if let Ok(b) = query.to_bytes() {
        seeds.push(b);
    }
    let mut resp = query.answer_template();
    resp.header.aa = true;
    resp.answers.push(Record::new(
        name.clone(),
        Class::In,
        60,
        RData::A([10, 0, 0, 2].into()),
    ));
    resp.authorities.push(Record::new(
        name.clone(),
        Class::In,
        3600,
        RData::Ns(name.clone()),
    ));
    // An EDNS OPT in the additional section.
    resp.additionals.push(Record::new(
        Name::root(),
        Class::from_code(1232),
        0,
        RData::Raw {
            rtype: 41,
            data: Vec::new(),
        },
    ));
    if let Ok(b) = resp.to_bytes() {
        seeds.push(b);
    }
    seeds
}

// ---------------------------------------------------------------- zonefile

fn check_zonefile(input: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(input);
    let Ok(origin) = "fuzz.test".parse::<Name>() else {
        return Ok(());
    };
    let Ok(zone) = zonefile::parse_zone(&origin, &text) else {
        return Ok(());
    };
    let rendered = zonefile::format_zone(&zone);
    let back = zonefile::parse_zone(&origin, &rendered)
        .map_err(|e| format!("formatted zone failed to reparse: {e}"))?;
    let collect = |z: &dps_authdns::Zone| -> Vec<String> {
        let mut v: Vec<String> = z.iter().map(|(o, r)| format!("{o} {r:?}")).collect();
        v.sort();
        v
    };
    if back.origin() != zone.origin() {
        return Err(format!(
            "origin changed across format: {} → {}",
            zone.origin(),
            back.origin()
        ));
    }
    let (a, b) = (collect(&zone), collect(&back));
    if a != b {
        return Err(format!(
            "records changed across format:\n  before: {a:?}\n  after:  {b:?}"
        ));
    }
    Ok(())
}

fn seeds_zonefile() -> Vec<Vec<u8>> {
    vec![
        b"$ORIGIN examp.le.\n$TTL 300\n@ IN A 10.0.0.1\nwww IN CNAME @\n".to_vec(),
        b"@ IN NS ns1.examp.le.\nns1 IN A 10.0.0.53\n".to_vec(),
        b"@ IN MX 10 mx.examp.le.\n@ IN TXT \"v=spf1 -all\"\n".to_vec(),
        b"@ IN TXT \"two words\" \"second string\"\n".to_vec(),
        b"@ IN AAAA fd00::1\n; comment line\n".to_vec(),
    ]
}

// ------------------------------------------------------------ store_format

fn check_store_format(input: &[u8]) -> Result<(), String> {
    let Some(delta) = CatalogDelta::decode(input) else {
        return Ok(());
    };
    let bytes = delta.encode();
    let back = CatalogDelta::decode(&bytes)
        .ok_or_else(|| "re-encoded delta failed to decode".to_string())?;
    if back != delta {
        return Err(format!(
            "delta changed across re-encode:\n  {delta:?}\n  {back:?}"
        ));
    }
    Ok(())
}

fn seeds_store_format() -> Vec<Vec<u8>> {
    let empty = CatalogDelta::default();
    let populated = CatalogDelta {
        pages: vec![
            PageMeta {
                day: 1,
                source: 0,
                offset: 64,
                len: 128,
                rows: 10,
                data_points: 40,
                raw_bytes: 4096,
            },
            PageMeta {
                day: 1,
                source: 1,
                offset: 192,
                len: 64,
                rows: 4,
                data_points: 16,
                raw_bytes: 1024,
            },
        ],
        uniques: vec![BTreeSet::from([1u32, 2, 7]), BTreeSet::from([40, 41])],
        dict_base: 3,
        dict_tail: vec!["ns1.hostco0.net".to_string(), "examp.le".to_string()],
    };
    vec![empty.encode(), populated.encode()]
}

// ----------------------------------------------------------- cluster_frame

fn check_cluster_frame(input: &[u8]) -> Result<(), String> {
    // Message body decode∘encode idempotence.
    if let Some(msg) = cluster_wire::decode(input) {
        let bytes = cluster_wire::encode(&msg);
        let back = cluster_wire::decode(&bytes)
            .ok_or_else(|| "re-encoded message failed to decode".to_string())?;
        if back != msg {
            return Err(format!(
                "message changed across re-encode:\n  {msg:?}\n  {back:?}"
            ));
        }
    }
    // Frame reassembly must not depend on how bytes are chunked.
    let drain = |buf: &mut cluster_wire::FrameBuf| -> (Vec<Vec<u8>>, bool) {
        let mut frames = Vec::new();
        loop {
            match buf.next_frame() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => return (frames, false),
                Err(_) => return (frames, true),
            }
        }
    };
    let mut whole = cluster_wire::FrameBuf::new();
    whole.extend(input);
    let (frames_whole, err_whole) = drain(&mut whole);

    // Deterministic chunk size derived from the input itself.
    let chunk = 1 + usize::from(input.first().copied().unwrap_or(0)) % 7;
    let mut chunked = cluster_wire::FrameBuf::new();
    let mut frames_chunked = Vec::new();
    let mut err_chunked = false;
    for piece in input.chunks(chunk) {
        chunked.extend(piece);
        let (mut fs, err) = drain(&mut chunked);
        frames_chunked.append(&mut fs);
        if err {
            err_chunked = true;
            break;
        }
    }
    if frames_whole != frames_chunked || err_whole != err_chunked {
        return Err(format!(
            "frame reassembly depends on chunking: whole {} frames (err {err_whole}), \
             chunked-by-{chunk} {} frames (err {err_chunked})",
            frames_whole.len(),
            frames_chunked.len()
        ));
    }
    Ok(())
}

/// A lease result carrying a name table: two rows whose apexes share an
/// NS host, listed once as an SLD and once as a full host name.
fn result_seed() -> cluster_wire::Msg {
    let name = |s: &str| s.parse::<Name>().ok();
    let mut batch = BatchBuilder::new(None);
    for apex in ["d1.com", "d2.com"] {
        batch.push(&RawRow {
            entry: 2,
            apex: name(apex),
            apex_v4: 0x0a00_0001,
            www_v4: 0x0a00_0001,
            cnames: [name("d1.cdn.cloudflare.net"), None],
            ns: [name("kate.ns.cloudflare.com"), None],
            ns_hosts: [name("kate.ns.cloudflare.com"), None],
            asn1: 13335,
            data_points: 5,
            ..RawRow::default()
        });
    }
    cluster_wire::Msg::Result(Box::new(cluster_wire::LeaseResult {
        lease: 1,
        epoch: 1,
        day: 0,
        source: 0,
        shard: 0,
        batch: batch.finish(),
    }))
}

fn seeds_cluster_frame() -> Vec<Vec<u8>> {
    let msgs = [
        cluster_wire::Msg::Hello {
            proto: cluster_wire::PROTO_VERSION,
            name: "fuzz-agent".to_string(),
        },
        cluster_wire::Msg::Heartbeat { seq: 7 },
        cluster_wire::Msg::Bye,
        result_seed(),
    ];
    let mut seeds = Vec::new();
    for m in &msgs {
        let body = cluster_wire::encode(m);
        seeds.push(cluster_wire::frame(&body));
        seeds.push(body);
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_check;

    #[test]
    fn every_target_has_working_seeds() {
        for t in TARGETS {
            let seeds = (t.seeds)();
            assert!(!seeds.is_empty(), "{} has no seeds", t.name);
            for (i, s) in seeds.iter().enumerate() {
                assert_eq!(
                    run_check(t.check, s),
                    Ok(()),
                    "{} seed {i} fails its own check",
                    t.name
                );
            }
        }
    }

    #[test]
    fn find_target_resolves_all_names() {
        for t in TARGETS {
            assert!(find_target(t.name).is_some());
        }
        assert!(find_target("no-such-target").is_none());
    }

    /// The checked-in `cluster_frame` corpus speaks the current protocol
    /// version, so it reaches the message decoders instead of failing the
    /// header check. Regenerate the files when `PROTO_VERSION` changes.
    #[test]
    fn cluster_frame_corpus_matches_the_current_protocol() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/cluster_frame/");
        let hello = cluster_wire::encode(&cluster_wire::Msg::Hello {
            proto: cluster_wire::PROTO_VERSION,
            name: "local".to_string(),
        });
        let heartbeat = cluster_wire::encode(&cluster_wire::Msg::Heartbeat { seq: 7 });
        let result = cluster_wire::encode(&result_seed());
        for (file, bytes) in [
            ("hello.bin", hello.clone()),
            ("heartbeat.bin", heartbeat.clone()),
            ("result.bin", result.clone()),
            ("hello-framed.bin", cluster_wire::frame(&hello)),
            ("heartbeat-framed.bin", cluster_wire::frame(&heartbeat)),
            ("result-framed.bin", cluster_wire::frame(&result)),
        ] {
            let on_disk = std::fs::read(format!("{dir}{file}")).expect("corpus file");
            assert_eq!(on_disk, bytes, "{file} is stale");
        }
    }

    /// The `dns_wire`/`dns_message` boundary seeds decode to names on
    /// both sides of `Name::INLINE_CAPACITY` and at the 255-octet limit,
    /// and pass their target's check.
    #[test]
    fn dns_boundary_corpus_straddles_the_inline_capacity() {
        let cap = Name::INLINE_CAPACITY;
        let corpus = |path: &str| {
            std::fs::read(format!("{}/corpus/{path}", env!("CARGO_MANIFEST_DIR")))
                .expect("corpus file")
        };
        let wire_len = |path: &str| {
            let bytes = corpus(path);
            assert_eq!(check_dns_wire(&bytes), Ok(()), "{path}");
            Decoder::new(&bytes).get_name().expect(path).wire_len()
        };
        assert_eq!(wire_len("dns_wire/name-inline-cap.bin"), cap);
        assert_eq!(wire_len("dns_wire/name-inline-cap-plus1.bin"), cap + 1);
        assert_eq!(wire_len("dns_wire/name-255.bin"), 255);
        let chain = corpus("dns_wire/pointer-chain-crosses-inline.bin");
        assert_eq!(check_dns_wire(&chain), Ok(()));
        let mut dec = Decoder::new(&chain);
        let owners: Vec<usize> = (0..3)
            .map(|_| dec.get_record().expect("chained record").name.wire_len())
            .collect();
        assert_eq!(owners, [19, 31, 44]);

        let message = |path: &str| {
            let bytes = corpus(path);
            assert_eq!(check_dns_message(&bytes), Ok(()), "{path}");
            Message::parse(&bytes).expect(path)
        };
        let qname_len = |path: &str| message(path).questions[0].qname.wire_len();
        assert_eq!(qname_len("dns_message/query-inline-cap.bin"), cap);
        assert_eq!(qname_len("dns_message/query-inline-cap-plus1.bin"), cap + 1);
        assert_eq!(qname_len("dns_message/query-255.bin"), 255);
        let msg = message("dns_message/pointer-chain-crosses-inline.bin");
        let aliases: Vec<usize> = msg
            .answers
            .iter()
            .map(|r| match &r.rdata {
                RData::Cname(target) => target.wire_len(),
                other => panic!("expected a CNAME, got {other:?}"),
            })
            .collect();
        assert_eq!(aliases, [31, 44]);
    }

    #[test]
    fn targets_tolerate_degenerate_inputs() {
        for t in TARGETS {
            for input in [&[][..], &[0][..], &[0xFF; 64][..]] {
                assert!(
                    run_check(t.check, input).is_ok(),
                    "{} fails on degenerate input {input:?}",
                    t.name
                );
            }
        }
    }
}
