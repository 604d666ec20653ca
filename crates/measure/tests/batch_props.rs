//! Chunking independence of batch encoding: collecting rows into
//! [`RowBatch`]es — split at any chunk size, with or without a view of
//! the run-wide interner, pre-warmed or not, with the known names
//! resolved on receipt or not — and merging them through
//! `PageBuilder::push_batch` must give the dictionary and the rows that
//! serial `RawRow::intern` gives.

use dps_columnar::{StringDict, TableBuilder};
use dps_dns::Name;
use dps_measure::collector::{BatchBuilder, RawRow, RowBatch, SldInterner};
use dps_measure::observation::schema;
use dps_measure::{PageBuilder, Source};
use proptest::prelude::*;

const DAY: u32 = 3;
const SOURCE: Source = Source::Com;

/// Names that collide in every way the interner distinguishes: hosts
/// under one SLD, a name that is its own SLD, a multi-label public
/// suffix, an NS host that also appears as a CNAME target, the root.
const POOL: [&str; 10] = [
    "d1.com",
    "d2.com",
    "x.cdn.cloudflare.net",
    "y.cdn.cloudflare.net",
    "cloudflare.net",
    "kate.ns.cloudflare.com",
    "bob.ns.cloudflare.com",
    "ns1.shop.co.uk",
    "shop.co.uk",
    ".",
];

fn pool(i: usize) -> Option<Name> {
    POOL.get(i).map(|s| s.parse().expect("pool name"))
}

/// A row whose slots (cname1, cname2, ns1, ns2, apex, nsh1, nsh2) pick
/// from [`POOL`]; an index past the pool leaves the slot empty.
fn row(entry: u32, picks: [usize; 7], failed: bool) -> RawRow {
    let [c1, c2, n1, n2, apex, h1, h2] = picks.map(pool);
    RawRow {
        entry,
        apex,
        apex_v4: entry.wrapping_mul(7),
        cnames: [c1, c2],
        ns: [n1, n2],
        ns_hosts: [h1, h2],
        failed,
        retryable: failed && entry % 2 == 0,
        data_points: entry % 5,
        ..RawRow::default()
    }
}

/// `warm` rows interned serially first (a day already swept), then the
/// dictionary bytes and the packed table of `rows`, interned serially.
fn serial(warm: &[RawRow], rows: &[RawRow]) -> (Vec<u8>, Vec<u8>) {
    let mut dict = StringDict::new();
    let mut interner = SldInterner::new();
    for raw in warm {
        raw.clone().intern(&mut dict, &mut interner);
    }
    let mut table = TableBuilder::new(schema());
    for raw in rows {
        let packed = raw
            .clone()
            .intern(&mut dict, &mut interner)
            .pack(DAY, SOURCE);
        table.push_row(&packed);
    }
    (dict.to_bytes(), table.finish().to_bytes())
}

/// How batches travel from the collecting worker to `push_batch`.
#[derive(Debug, Clone, Copy)]
struct Route {
    /// The worker looks names up in a view of the interner, as the
    /// single-process sweep's workers do.
    view: bool,
    /// The chunk batches are appended into one, as an agent joins its
    /// workers' batches into one lease result.
    joined: bool,
    /// Known names are resolved on receipt (`RowBatch::resolve_known`),
    /// as the cluster manager's connection readers do.
    known: bool,
}

/// The same, through batches of `chunk` rows travelling by `route`.
fn batched(warm: &[RawRow], rows: &[RawRow], chunk: usize, route: Route) -> (Vec<u8>, Vec<u8>) {
    let mut dict = StringDict::new();
    let mut interner = SldInterner::new();
    for raw in warm {
        raw.clone().intern(&mut dict, &mut interner);
    }
    let mut page = PageBuilder::new(DAY, SOURCE);
    let mut merge = |mut batch: RowBatch, dict: &mut StringDict, interner: &mut SldInterner| {
        if route.known {
            batch.resolve_known(interner);
        }
        page.push_batch(batch, dict, interner);
    };
    let mut lease = RowBatch::default();
    for block in rows.chunks(chunk.max(1)) {
        let mut batch = BatchBuilder::new(route.view.then_some(&interner));
        for raw in block {
            batch.push(raw);
        }
        if route.joined {
            lease.append(batch.finish());
        } else {
            merge(batch.finish(), &mut dict, &mut interner);
        }
    }
    merge(lease, &mut dict, &mut interner);
    (dict.to_bytes(), page.finish().table.to_bytes())
}

/// Every chunk size and route against the serial result.
fn assert_chunking_independent(warm: &[RawRow], rows: &[RawRow]) {
    let want = serial(warm, rows);
    for chunk in [1, 2, 7, rows.len()] {
        for bits in 0..8 {
            let route = Route {
                view: bits & 1 != 0,
                joined: bits & 2 != 0,
                known: bits & 4 != 0,
            };
            assert_eq!(
                batched(warm, rows, chunk, route),
                want,
                "chunk {chunk}, {route:?}, warm {}",
                warm.len()
            );
        }
    }
}

const NONE: usize = POOL.len();

#[test]
fn one_name_in_an_ns_and_an_nsh_slot() {
    // kate.ns.cloudflare.com as ns1 (its SLD) and as nsh1 (verbatim).
    let rows = [
        row(2, [NONE, NONE, 5, NONE, 0, 5, NONE], false),
        row(4, [NONE, NONE, 5, 6, 1, 6, 5], false),
    ];
    assert_chunking_independent(&[], &rows);
    assert_chunking_independent(&rows[..1], &rows);
}

#[test]
fn same_sld_first_seen_in_different_chunks() {
    // x.cdn… and y.cdn… share the SLD cloudflare.net; with chunk size 1
    // they are first seen in different batches, and the second must
    // resolve to the id the first created.
    let rows = [
        row(2, [2, NONE, NONE, NONE, 0, NONE, NONE], false),
        row(4, [3, NONE, NONE, NONE, 1, NONE, NONE], false),
        row(6, [4, 3, NONE, NONE, 8, NONE, NONE], false),
    ];
    assert_chunking_independent(&[], &rows);
    assert_chunking_independent(&rows[1..2], &rows);
}

#[test]
fn failed_row_with_only_an_apex() {
    let rows = [
        row(2, [NONE, NONE, NONE, NONE, 0, NONE, NONE], true),
        row(3, [2, NONE, 5, NONE, 1, 5, NONE], false),
        row(4, [NONE, NONE, NONE, NONE, 1, NONE, NONE], true),
    ];
    assert_chunking_independent(&[], &rows);
    assert_chunking_independent(&rows[1..], &rows);
}

fn arb_rows() -> impl Strategy<Value = Vec<RawRow>> {
    proptest::collection::vec((any::<u32>(), any::<[u8; 7]>(), any::<bool>()), 0..24).prop_map(
        |rows| {
            rows.into_iter()
                .map(|(entry, picks, failed)| {
                    // About one slot in three is empty.
                    let picks = picks.map(|p| usize::from(p) % (POOL.len() * 3 / 2));
                    row(entry, picks, failed)
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batches_intern_like_serial_rows(rows in arb_rows(), warm in 0usize..24) {
        let warm = rows.get(..warm.min(rows.len())).unwrap_or(&[]).to_vec();
        assert_chunking_independent(&warm, &rows);
    }
}
