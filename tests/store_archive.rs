//! Integration: the single-file `dps-store` archive across the whole
//! pipeline — an aborted sweep resumes into a byte-identical archive,
//! projected scans decode strictly fewer bytes than full-table loads, and
//! a warm page cache serves repeated classification passes without
//! touching disk.

use dps_scope::prelude::*;
use std::io::Write as _;
use std::path::PathBuf;

const DAYS: u32 = 12;
const CC: u32 = 8;

fn study_config() -> StudyConfig {
    StudyConfig {
        days: DAYS,
        cc_start_day: CC,
        stride: 1,
    }
}

fn fresh_world() -> World {
    World::imc2016(ScenarioParams {
        seed: 77,
        scale: 0.02,
        gtld_days: DAYS,
        cc_start_day: CC,
    })
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dps-it-{tag}-{}.dps", std::process::id()))
}

/// A sweep killed mid-day (torn page bytes after the last committed
/// footer) resumes from its last durable day and finishes into an archive
/// byte-identical to an uninterrupted run — catalog, row counts, stats,
/// dictionary and page bytes included — with every checksum valid.
#[test]
fn aborted_sweep_resumes_byte_identically() {
    let full_path = temp_path("uninterrupted");
    let resumed_path = temp_path("resumed");
    std::fs::remove_file(&full_path).ok();
    std::fs::remove_file(&resumed_path).ok();

    // Reference: one uninterrupted archived sweep.
    let mut world = fresh_world();
    Study::new(study_config())
        .run_archived(&mut world, &full_path)
        .expect("uninterrupted run");

    // The "killed" sweep: five committed days, then a torn page append
    // that never reached its commit (the kill point).
    let mut world = fresh_world();
    Study::new(StudyConfig {
        days: 5,
        ..study_config()
    })
    .run_archived(&mut world, &resumed_path)
    .expect("partial run");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&resumed_path)
        .unwrap();
    file.write_all(&[0xAB; 4321]).unwrap();
    drop(file);

    // Restart "the process": fresh world, same parameters, full window.
    let mut world = fresh_world();
    Study::new(study_config())
        .run_archived(&mut world, &resumed_path)
        .expect("resumed run");

    let full_bytes = std::fs::read(&full_path).unwrap();
    let resumed_bytes = std::fs::read(&resumed_path).unwrap();
    assert_eq!(full_bytes.len(), resumed_bytes.len(), "file sizes differ");
    assert!(full_bytes == resumed_bytes, "resumed archive diverged");

    // Every page checksum is valid (what `dpscope store verify` reports).
    let archive = Archive::open(&resumed_path).unwrap();
    let report = archive.verify().unwrap();
    assert!(report.all_ok(), "corrupt pages: {:?}", report.corrupt);
    // Three gTLD pages per day, two more per cc/Alexa day, plus one
    // quality page and one telemetry page per measured day.
    assert_eq!(report.pages, 5 * DAYS as usize + 2 * (DAYS - CC) as usize);

    // And the stores the two archives rehydrate to agree exactly.
    let full_store = SnapshotStore::load_archive(&full_path).unwrap();
    let resumed_store = SnapshotStore::load_archive(&resumed_path).unwrap();
    for source in dps_scope::measure::SOURCES {
        let (a, b) = (full_store.stats(source), resumed_store.stats(source));
        assert_eq!(a.days, b.days, "{source:?}");
        assert_eq!(a.data_points, b.data_points, "{source:?}");
        assert_eq!(a.stored_bytes, b.stored_bytes, "{source:?}");
        assert_eq!(a.unique_slds, b.unique_slds, "{source:?}");
    }

    std::fs::remove_file(&full_path).ok();
    std::fs::remove_file(&resumed_path).ok();
}

/// Projecting two columns decodes strictly fewer bytes than loading the
/// full 18-column tables (asserted via the archive's own counters), and
/// day-range pruning never touches pages outside the range.
#[test]
fn projected_scan_decodes_fewer_bytes() {
    let path = temp_path("projection");
    std::fs::remove_file(&path).ok();
    let mut world = fresh_world();
    Study::new(study_config())
        .run_archived(&mut world, &path)
        .expect("archived run");

    // Cache disabled so both passes really decode.
    let archive = dps_scope::store::Archive::open_with_cache(&path, 0).unwrap();

    let before = archive.counters();
    let full = archive.scan(&ScanQuery::all().source(0)).unwrap();
    let full_pass = archive.counters().since(&before);

    let before = archive.counters();
    let projected = archive
        .scan(&ScanQuery::all().source(0).columns(&["entry", "asn1"]))
        .unwrap();
    let projected_pass = archive.counters().since(&before);

    assert_eq!(full.len(), DAYS as usize);
    assert_eq!(projected.len(), full.len());
    assert_eq!(projected_pass.pages_decoded, full_pass.pages_decoded);
    assert!(
        projected_pass.decoded_bytes < full_pass.decoded_bytes,
        "projection decoded {} bytes, full load {}",
        projected_pass.decoded_bytes,
        full_pass.decoded_bytes
    );
    // 2 of 18 columns: well under a quarter of the full decode.
    assert!(projected_pass.decoded_bytes * 4 < full_pass.decoded_bytes);

    // Pruning: a one-day scan reads exactly the pages of that day.
    let before = archive.counters();
    let one_day = archive.scan(&ScanQuery::all().days(3, 3)).unwrap();
    let pruned_pass = archive.counters().since(&before);
    // Before cc start a day holds 3 gTLD data pages plus its quality and
    // telemetry pages.
    assert_eq!(
        one_day.len(),
        5,
        "gTLD sources + quality + telemetry before cc start"
    );
    assert_eq!(pruned_pass.pages_decoded, 5);

    std::fs::remove_file(&path).ok();
}

/// A repeated classification pass over the same archive is served from
/// the page cache: at least an order of magnitude fewer page decodes
/// (zero, in fact), with identical output.
#[test]
fn warm_page_cache_serves_repeated_classification() {
    let path = temp_path("warm-cache");
    std::fs::remove_file(&path).ok();
    let mut world = fresh_world();
    Study::new(study_config())
        .run_archived(&mut world, &path)
        .expect("archived run");

    let reader = StoreReader::Single(Archive::open(&path).unwrap());
    let StoreReader::Single(archive) = &reader else {
        unreachable!("opened as a single-file archive");
    };
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), reader.dict());
    let scanner = Scanner::new(&refs);

    let before = archive.counters();
    let cold = scanner.run_store(&reader).unwrap();
    let cold_pass = archive.counters().since(&before);

    let before = archive.counters();
    let warm = scanner.run_store(&reader).unwrap();
    let warm_pass = archive.counters().since(&before);

    assert!(
        cold_pass.pages_decoded >= 10,
        "cold pass decoded {} pages",
        cold_pass.pages_decoded
    );
    assert!(
        warm_pass.pages_decoded * 10 <= cold_pass.pages_decoded,
        "warm pass decoded {} pages vs {} cold",
        warm_pass.pages_decoded,
        cold_pass.pages_decoded
    );
    assert!(warm_pass.cache_hits >= cold_pass.pages_decoded);

    assert_eq!(cold.series.days, warm.series.days);
    assert_eq!(cold.series.provider_any, warm.series.provider_any);
    assert_eq!(cold.timelines.map.len(), warm.timelines.map.len());

    std::fs::remove_file(&path).ok();
}
