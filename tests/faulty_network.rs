//! Measurement under network faults: a wire-path sweep over a lossy
//! network must agree with the bulk ground truth on every name it manages
//! to measure — loss may cause gaps, never wrong data.

use dps_scope::authdns::{Resolver, ResolverConfig};
use dps_scope::columnar::StringDict;
use dps_scope::measure::collector::{SldInterner, WirePath};
use dps_scope::measure::pipeline::sweep_with_path;
use dps_scope::measure::SourcePage;
use dps_scope::prelude::*;

/// The wire sweep's pages and the dictionary they were interned into.
struct WireSweep {
    dict: StringDict,
    pages: Vec<SourcePage>,
}

fn sweep(loss: f64) -> (SnapshotStore, WireSweep) {
    let params = ScenarioParams {
        seed: 31,
        scale: 0.004,
        gtld_days: 10,
        cc_start_day: 10,
    };
    let mut world = World::imc2016(params);

    // Bulk reference store, measured into an archive and read back.
    let dir = std::env::temp_dir().join(format!(
        "dps-faulty-{}-{}",
        std::process::id(),
        (loss * 100.0) as u32
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let archive = dir.join(dps_scope::measure::ARCHIVE_FILE);
    Study::new(StudyConfig {
        days: 1,
        cc_start_day: 10,
        stride: 1,
    })
    .run_archived(&mut world, &archive)
    .unwrap();
    let bulk_store = SnapshotStore::load_archive(&archive).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Wire sweep under faults.
    let net = Network::new(5);
    // Corruption is deliberately off here: DNS-over-UDP has no payload
    // integrity, so a bit flipped inside the RDATA of an otherwise valid
    // response is accepted by any real resolver too (the id + question
    // check only guards the envelope). Loss and duplication, by contrast,
    // must never change recorded data — that is what this test pins.
    net.set_faults(FaultProfile {
        loss,
        corrupt: 0.0,
        duplicate: 0.05,
        ..FaultProfile::default()
    });
    let catalog = world.materialize(&net);
    let resolver = Resolver::new(&net, "172.16.0.9".parse().unwrap(), 3, catalog.root_hints())
        .with_config(ResolverConfig {
            retries: 6,
            ..Default::default()
        });
    let mut path = WirePath::new(resolver);
    let mut dict = StringDict::new();
    let mut interner = SldInterner::new();
    let pages = [Source::Com, Source::Net, Source::Org]
        .into_iter()
        .map(|source| sweep_with_path(&world, &mut path, source, 0, &mut dict, &mut interner))
        .collect();
    (bulk_store, WireSweep { dict, pages })
}

fn compare(bulk: &SnapshotStore, wire: &WireSweep) -> (usize, usize) {
    use dps_scope::measure::observation::Row;
    let mut matched = 0usize;
    let mut failed = 0usize;
    for page in &wire.pages {
        let b = bulk.table(0, page.source).unwrap();
        let w = &page.table;
        assert_eq!(b.rows(), w.rows(), "same input list");
        let bc: Vec<&[u32]> = (0..b.schema().width()).map(|c| b.column(c)).collect();
        let wc: Vec<&[u32]> = (0..w.schema().width()).map(|c| w.column(c)).collect();
        for i in 0..b.rows() {
            let (_, _, rb) = Row::unpack(&bc, i);
            let (_, _, rw) = Row::unpack(&wc, i);
            assert_eq!(rb.entry, rw.entry);
            if rw.failed {
                failed += 1;
                continue;
            }
            // Dictionaries differ between sweeps; compare via strings.
            let resolve = |dict: &StringDict, id: u32| dict.resolve(id).unwrap_or("?").to_string();
            // A non-failed row has a good apex measurement; per-record-type
            // sub-queries (www/NS/AAAA) may individually have been lost.
            // Whatever the wire path DID capture must equal ground truth —
            // loss creates gaps, never wrong data.
            assert_eq!(rb.apex_v4, rw.apex_v4, "entry {}", rb.entry);
            assert_eq!(rb.asn1, rw.asn1);
            if rw.www_v4 != 0 {
                assert_eq!(rb.www_v4, rw.www_v4);
            }
            if rw.aaaa {
                assert!(rb.aaaa);
            }
            if rw.cname1 != 0 {
                assert_eq!(
                    resolve(&bulk.dict, rb.cname1),
                    resolve(&wire.dict, rw.cname1)
                );
            }
            if rw.ns1 != 0 {
                assert_eq!(resolve(&bulk.dict, rb.ns1), resolve(&wire.dict, rw.ns1));
            }
            matched += 1;
        }
    }
    (matched, failed)
}

#[test]
fn healthy_network_measures_everything_identically() {
    let (bulk, wire) = sweep(0.0);
    let (matched, failed) = compare(&bulk, &wire);
    assert_eq!(failed, 0);
    assert!(matched > 500, "matched {matched}");
}

#[test]
fn corruption_can_alter_rdata_but_not_crash() {
    // With corruption on, rows may carry flipped bits — the pipeline must
    // still complete and produce decodable tables.
    let params = ScenarioParams {
        seed: 32,
        scale: 0.002,
        gtld_days: 5,
        cc_start_day: 5,
    };
    let mut world = World::imc2016(params);
    world.advance_to(Day(0));
    let net = Network::new(6);
    net.set_faults(FaultProfile {
        corrupt: 0.3,
        ..FaultProfile::default()
    });
    let catalog = world.materialize(&net);
    let resolver = Resolver::new(&net, "172.16.0.8".parse().unwrap(), 4, catalog.root_hints())
        .with_config(ResolverConfig {
            retries: 4,
            ..Default::default()
        });
    let mut path = WirePath::new(resolver);
    let mut interner = SldInterner::new();
    let page = sweep_with_path(
        &world,
        &mut path,
        Source::Com,
        0,
        &mut StringDict::new(),
        &mut interner,
    );
    assert!(page.table.rows() > 50);
}

#[test]
fn lossy_network_degrades_gracefully_but_never_lies() {
    let (bulk, wire) = sweep(0.25);
    let (matched, failed) = compare(&bulk, &wire);
    assert!(matched > 300, "matched {matched}");
    // Loss shows up as failed measurements, not corrupted rows.
    assert!(failed > 0, "25% loss should fail some measurements");
    assert!(failed < matched, "most measurements should still succeed");
}
