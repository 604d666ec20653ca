//! Same-seed determinism regression: two independently built worlds with
//! the same seed must produce **byte-identical** archives.
//!
//! The chaos smoke in `ci.sh` checks the same property end-to-end through
//! the `dpscope` binary, but only on the chaos configuration and only when
//! that gate runs. This test pins the invariant in `cargo test` directly,
//! so a nondeterminism regression (a stray `HashMap` iteration, ambient
//! randomness, wall-clock read) fails the ordinary test suite with a
//! pinpointable diff instead of an opaque `cmp` failure in CI.

use dps_ecosystem::{ScenarioParams, World};
use dps_measure::{SnapshotStore, Source, Study, StudyConfig, SOURCES};
use dps_store::StoreReader;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique suffix per archive file so concurrently running tests in this
/// binary never collide on a temp path.
static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

fn run_once(seed: u64) -> Vec<u8> {
    let mut world = World::imc2016(ScenarioParams::tiny(seed));
    let config = StudyConfig {
        days: 6,
        cc_start_day: 4,
        stride: 1,
    };
    let path = std::env::temp_dir().join(format!(
        "dps-determinism-{}-{seed}-{}.dps",
        std::process::id(),
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    Study::new(config)
        .run_archived(&mut world, &path)
        .expect("archive writes");
    let bytes = std::fs::read(&path).expect("archive readable");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn same_seed_runs_produce_byte_identical_archives() {
    let a = run_once(9);
    let b = run_once(9);
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "two same-seed runs serialised different archive bytes"
    );
}

#[test]
fn different_seeds_produce_different_archives() {
    // Guard against the test trivially passing because the archive ignores
    // the world entirely.
    let a = run_once(9);
    let c = run_once(10);
    assert_ne!(a, c, "archives do not depend on the seed at all");
}

/// Rehydration is lossless: every data page reloads to the archive's own
/// table bytes, and on a single-file archive (whose catalog records each
/// logical page as written) the computed statistics equal the catalog's.
#[test]
fn archive_reload_is_lossless() {
    let bytes = run_once(11);
    let path =
        std::env::temp_dir().join(format!("dps-determinism-reload-{}.dps", std::process::id()));
    std::fs::write(&path, &bytes).expect("archive writes");
    let store = SnapshotStore::load_archive(&path).expect("archive loads");
    let reader = StoreReader::open_auto(&path).expect("archive opens");
    std::fs::remove_file(&path).ok();
    assert_eq!(store.dict.to_bytes(), reader.dict().to_bytes());
    let catalog = reader.catalog().stats();
    for source in SOURCES {
        let (st, cat) = (store.stats(source), &catalog[source.index()]);
        assert_eq!(st.days, cat.days, "{source:?}");
        assert_eq!(st.first_day, cat.first_day, "{source:?}");
        assert_eq!(st.last_day, cat.last_day, "{source:?}");
        assert_eq!(st.data_points, cat.data_points, "{source:?}");
        assert_eq!(st.stored_bytes, cat.stored_bytes, "{source:?}");
        assert_eq!(st.raw_bytes, cat.raw_bytes, "{source:?}");
        assert!(
            st.unique_slds.iter().eq(cat.unique_keys.iter()),
            "{source:?}"
        );
        for day in store.days(source) {
            let page = reader
                .table(day, source.index() as u8)
                .expect("page reads")
                .expect("page exists");
            let loaded = store.table(day, source).expect("table loads");
            assert_eq!(loaded.to_bytes(), page.to_bytes(), "{source:?} day {day}");
        }
    }
}

#[test]
fn telemetry_pages_are_archived_and_seed_deterministic() {
    // Two same-seed studies must render identical telemetry, and the
    // telemetry must actually be there: a per-day page for every measured
    // day, with the study's own counters populated.
    let mut stores = Vec::new();
    for _ in 0..2 {
        let bytes = run_once(12);
        let path = std::env::temp_dir().join(format!(
            "dps-determinism-telemetry-{}-{}.dps",
            std::process::id(),
            NEXT_FILE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &bytes).expect("archive writes");
        let store = SnapshotStore::load_archive(&path).expect("archive loads");
        std::fs::remove_file(&path).ok();
        stores.push(store);
    }
    let days: Vec<u32> = stores[0].all_telemetry().map(|(d, _)| d).collect();
    assert_eq!(days, vec![0, 1, 2, 3, 4, 5], "one telemetry page per day");
    let merged = stores[0].merged_telemetry();
    assert_eq!(merged.counters.get("measure.days"), Some(&6));
    assert!(merged.counters.get("measure.rows").copied().unwrap_or(0) > 0);
    assert_eq!(
        stores[0].merged_telemetry().to_json(),
        stores[1].merged_telemetry().to_json(),
        "same-seed studies rendered different metrics JSON"
    );
}

/// Runs a same-seed archived study with the given streaming block size
/// and shard count, returning the directory holding the archive.
fn run_archived_once(seed: u64, stream_block: usize, shards: u32) -> std::path::PathBuf {
    let mut world = World::imc2016(ScenarioParams::tiny(seed));
    let config = StudyConfig {
        days: 6,
        cc_start_day: 4,
        stride: 1,
    };
    let dir = std::env::temp_dir().join(format!(
        "dps-determinism-archived-{}-{}",
        std::process::id(),
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("archive.dps");
    Study::new(config)
        .with_stream_block(stream_block)
        .with_shards(shards)
        .run_archived(&mut world, &path)
        .expect("archived study runs");
    dir
}

/// Streaming world generation is an implementation detail of memory, not
/// of content: collecting a day in bounded blocks must serialise the
/// exact bytes a fully materialised collection would.
#[test]
fn streaming_blocks_match_materialized_collection_byte_for_byte() {
    let streamed = run_archived_once(13, dps_measure::STREAM_BLOCK_ENTRIES, 1);
    let materialized = run_archived_once(13, usize::MAX, 1);
    let a = std::fs::read(streamed.join("archive.dps")).expect("streamed archive");
    let b = std::fs::read(materialized.join("archive.dps")).expect("materialized archive");
    std::fs::remove_dir_all(&streamed).ok();
    std::fs::remove_dir_all(&materialized).ok();
    assert!(!a.is_empty());
    assert_eq!(a, b, "stream-block size leaked into the archive bytes");
}

/// Shard count is likewise invisible in content: the single-file and
/// the 3-shard archive of one same-seed study rehydrate to equal stores —
/// the same dictionary, the same tables, and the same per-source
/// statistics, stored bytes included (computed from the logical tables,
/// not from the shard sub-pages).
#[test]
fn sharded_and_single_file_archives_rehydrate_identically() {
    let single = run_archived_once(14, dps_measure::STREAM_BLOCK_ENTRIES, 1);
    let sharded = run_archived_once(14, dps_measure::STREAM_BLOCK_ENTRIES, 3);
    assert!(
        sharded.join("archive.manifest").exists(),
        "shards=3 writes a manifest"
    );
    assert!(
        !single.join("archive.manifest").exists(),
        "shards=1 keeps the historical single-file layout"
    );
    let a = SnapshotStore::load_archive(&single.join("archive.dps")).expect("single-file loads");
    let b = SnapshotStore::load_archive(&sharded.join("archive.dps")).expect("sharded loads");
    std::fs::remove_dir_all(&single).ok();
    std::fs::remove_dir_all(&sharded).ok();
    assert_eq!(a.dict.to_bytes(), b.dict.to_bytes());
    assert!(a.stats(Source::Com).days > 0);
    for source in SOURCES {
        assert_eq!(a.stats(source), b.stats(source), "{source:?} stats");
        assert_eq!(a.encoded(source), b.encoded(source), "{source:?} tables");
        assert_eq!(
            a.qualities(source),
            b.qualities(source),
            "{source:?} quality"
        );
    }
    assert_eq!(
        a.merged_telemetry().to_json(),
        b.merged_telemetry().to_json()
    );
}
