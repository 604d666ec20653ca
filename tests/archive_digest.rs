//! Golden archive digests: one fixed tiny study, swept three ways, must
//! keep producing archives whose bytes hash to constants recorded before
//! the answer model was last reworked.
//!
//! Every other identity test compares two runs of the *same* binary, so a
//! change that shifts both sides the same way passes unnoticed. These
//! constants pin the bytes themselves: a change to name construction,
//! resolution, interning or page encoding that alters even one archive
//! byte fails here. If a change is *meant* to alter the archive format,
//! regenerate the constants from the failure message and say why in the
//! change log.

use dps_scope::measure::ARCHIVE_FILE;
use dps_scope::prelude::*;
use dps_scope::stream::StreamEngine;
use std::path::{Path, PathBuf};

const CONFIG: StudyConfig = StudyConfig {
    days: 4,
    cc_start_day: 2,
    stride: 1,
};

/// FNV-1a, 64-bit: tiny, dependency-free and stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dps-it-digest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `(file name, FNV-1a-64)` of every file in `dir`, sorted by name.
fn digests(dir: &Path) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("read archive dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let bytes = std::fs::read(e.path()).expect("read archive file");
            (
                e.file_name().to_string_lossy().into_owned(),
                fnv1a64(&bytes),
            )
        })
        .collect();
    out.sort();
    out
}

fn sweep(tag: &str, study: Study, stream: bool) -> Vec<(String, u64)> {
    let dir = temp_dir(tag);
    let mut world = World::imc2016(ScenarioParams::tiny(11));
    let path = dir.join(ARCHIVE_FILE);
    if stream {
        let mut engine = StreamEngine::new();
        study
            .run_archived_observed(&mut world, &path, Some(&mut engine))
            .expect("observed sweep");
    } else {
        study.run_archived(&mut world, &path).expect("sweep");
    }
    let out = digests(&dir);
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn assert_digests(actual: &[(String, u64)], expected: &[(&str, u64)]) {
    let rendered: Vec<String> = actual
        .iter()
        .map(|(name, h)| format!("(\"{name}\", {h:#018x})"))
        .collect();
    let expected: Vec<(String, u64)> = expected.iter().map(|&(n, h)| (n.to_owned(), h)).collect();
    assert_eq!(
        actual,
        expected.as_slice(),
        "archive bytes changed; actual digests: [{}]",
        rendered.join(", ")
    );
}

#[test]
fn single_file_archive_matches_golden_digest() {
    let actual = sweep("single", Study::new(CONFIG), false);
    assert_digests(&actual, &[("archive.dps", 0x893733b4b33191fb)]);
}

#[test]
fn sharded_archive_matches_golden_digest() {
    let actual = sweep("sharded", Study::new(CONFIG).with_shards(3), false);
    assert_digests(
        &actual,
        &[
            ("archive.manifest", 0xb46cb4ed3be41af3),
            ("archive.shard000.dps", 0x1c548e9e3a4a78c6),
            ("archive.shard001.dps", 0xa4b87dd05d8fb2c0),
            ("archive.shard002.dps", 0x6f7f7cf05f124d5e),
        ],
    );
}

#[test]
fn streamed_archive_matches_golden_digest() {
    let actual = sweep("stream", Study::new(CONFIG), true);
    assert_digests(&actual, &[("archive.dps", 0xda1024e5e3099889)]);
}
