//! Stage II: the snapshot store — a read-only view of an archive's daily
//! per-source columnar tables.
//!
//! Sweeps write only the `dps-store` archive (through
//! [`append_day`](crate::pipeline::append_day)). A [`SnapshotStore`] is
//! rebuilt from it in one place, [`SnapshotStore::from_store`] — behind
//! [`load_archive`](SnapshotStore::load_archive) and
//! [`resume_store`](crate::pipeline::resume_store) — which reads every page
//! once and computes the per-source statistics from the logical tables,
//! so the single-file and the sharded layout of one study rehydrate to
//! the same store.

use crate::observation::{schema, Source, SOURCES};
use crate::pipeline::ANALYSIS_SOURCE;
use crate::quality::{decode_qualities, DayQuality, QUALITY_SOURCE};
use crate::telemetry::{decode_telemetry, TELEMETRY_SOURCE};
use dps_columnar::{StringDict, Table};
use dps_store::StoreReader;
use dps_telemetry::Snapshot;
use std::collections::{BTreeMap, BTreeSet};

/// Name of the archive base file inside an archive directory.
pub const ARCHIVE_FILE: &str = "archive.dps";

/// The table column whose distinct values the archive tracks per source
/// (zone entries — the paper's unique-SLD statistic).
pub const UNIQUE_KEY_COLUMN: &str = "entry";

/// Per-source data-set statistics (paper Table 1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// First measured day, if any.
    pub first_day: Option<u32>,
    /// Last measured day.
    pub last_day: Option<u32>,
    /// Number of measured days.
    pub days: u32,
    /// Unique SLDs (zone entries) observed over the whole period. Ordered
    /// so persistence and reporting paths iterate deterministically.
    pub unique_slds: BTreeSet<u32>,
    /// Collected data points (resource records).
    pub data_points: u64,
    /// Stored (encoded) bytes.
    pub stored_bytes: u64,
    /// Raw (4 bytes/cell) bytes.
    pub raw_bytes: u64,
}

/// The measurement archive, read back: one encoded table per (day,
/// source), plus the shared string dictionary, per-source statistics,
/// quality records, telemetry snapshots and analysis checkpoints.
pub struct SnapshotStore {
    /// Shared dictionary for SLD strings.
    pub dict: StringDict,
    tables: BTreeMap<(u32, u8), Vec<u8>>,
    stats: Vec<SourceStats>,
    qualities: BTreeMap<(u32, u8), DayQuality>,
    telemetry: BTreeMap<u32, Snapshot>,
    analysis: BTreeMap<u32, Vec<u8>>,
}

impl SnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            dict: StringDict::new(),
            tables: BTreeMap::new(),
            stats: vec![SourceStats::default(); SOURCES.len()],
            qualities: BTreeMap::new(),
            telemetry: BTreeMap::new(),
            analysis: BTreeMap::new(),
        }
    }

    /// Records a day's streaming-analysis checkpoint page (encoded table
    /// bytes, held opaquely — `dps-stream` owns the codec).
    fn add_analysis(&mut self, day: u32, bytes: Vec<u8>) {
        self.analysis.insert(day, bytes);
    }

    /// The streaming-analysis checkpoint bytes for `day`, if any.
    pub fn analysis(&self, day: u32) -> Option<&[u8]> {
        self.analysis.get(&day).map(Vec::as_slice)
    }

    /// Days carrying a streaming-analysis checkpoint, ascending.
    pub fn analysis_days(&self) -> Vec<u32> {
        self.analysis.keys().copied().collect()
    }

    /// Records a day's telemetry snapshot (replacing any existing one).
    fn add_telemetry(&mut self, day: u32, snapshot: Snapshot) {
        self.telemetry.insert(day, snapshot);
    }

    /// The telemetry snapshot for `day`, if the sweep stored one.
    pub fn telemetry(&self, day: u32) -> Option<&Snapshot> {
        self.telemetry.get(&day)
    }

    /// Every stored `(day, snapshot)` pair, ascending by day.
    pub fn all_telemetry(&self) -> impl Iterator<Item = (u32, &Snapshot)> {
        self.telemetry.iter().map(|(&d, s)| (d, s))
    }

    /// Every per-day snapshot merged into one (counters and histograms
    /// add; gauges keep the latest day's level).
    pub fn merged_telemetry(&self) -> Snapshot {
        let mut merged = Snapshot::default();
        for snapshot in self.telemetry.values() {
            merged.merge(snapshot);
        }
        merged
    }

    /// Records a day's quality record (replacing any existing one for the
    /// same `(day, source)`). Public for quality-only views, which build
    /// a store holding nothing but quality records.
    pub fn add_quality(&mut self, quality: DayQuality) {
        self.qualities
            .insert((quality.day, quality.source.index() as u8), quality);
    }

    /// The quality record for `(day, source)`, if the sweep stored one.
    pub fn quality(&self, day: u32, source: Source) -> Option<&DayQuality> {
        self.qualities.get(&(day, source.index() as u8))
    }

    /// Quality records of one source, ascending by day.
    pub fn qualities(&self, source: Source) -> Vec<&DayQuality> {
        self.qualities
            .iter()
            .filter(|((_, s), _)| *s == source.index() as u8)
            .map(|(_, q)| q)
            .collect()
    }

    /// Every quality record, ascending by `(day, source)`.
    pub fn all_qualities(&self) -> impl Iterator<Item = &DayQuality> {
        self.qualities.values()
    }

    /// Adds a day table, updating statistics from the logical table.
    fn add_table(&mut self, day: u32, source: Source, table: &Table, data_points: u64) {
        let bytes = table.to_bytes();
        let Some(st) = self.stats.get_mut(source.index()) else {
            return;
        };
        st.first_day = Some(st.first_day.map_or(day, |d| d.min(day)));
        st.last_day = Some(st.last_day.map_or(day, |d| d.max(day)));
        st.days += 1;
        st.data_points += data_points;
        st.stored_bytes += bytes.len() as u64;
        st.raw_bytes += table.raw_len() as u64;
        if let Some(col) = table.column_by_name(UNIQUE_KEY_COLUMN) {
            st.unique_slds.extend(col.iter().copied());
        }
        self.tables.insert((day, source.index() as u8), bytes);
    }

    /// Decodes the table for `(day, source)`. Undecodable stored bytes
    /// read as absent rather than aborting the process.
    pub fn table(&self, day: u32, source: Source) -> Option<Table> {
        self.tables
            .get(&(day, source.index() as u8))
            .and_then(|bytes| Table::from_bytes(bytes).ok())
    }

    /// Days measured for a source, ascending.
    pub fn days(&self, source: Source) -> Vec<u32> {
        self.tables
            .keys()
            .filter(|(_, s)| *s == source.index() as u8)
            .map(|(d, _)| *d)
            .collect()
    }

    /// The encoded table blobs of one source, ascending by day (the
    /// parallel analysis engine decodes them on worker threads).
    pub fn encoded(&self, source: Source) -> Vec<(u32, &[u8])> {
        self.tables
            .iter()
            .filter(|((_, s), _)| *s == source.index() as u8)
            .map(|((d, _), bytes)| (*d, bytes.as_slice()))
            .collect()
    }

    /// Iterates (day, decoded table) for one source, ascending by day
    /// (undecodable stored bytes are skipped, as [`table`](Self::table)
    /// reads them as absent).
    pub fn scan(&self, source: Source) -> impl Iterator<Item = (u32, Table)> + '_ {
        self.tables
            .iter()
            .filter(move |((_, s), _)| *s == source.index() as u8)
            .filter_map(|((d, _), bytes)| Some((*d, Table::from_bytes(bytes).ok()?)))
    }

    /// Raw encoded bytes of every stored table (for size accounting).
    pub fn total_stored_bytes(&self) -> u64 {
        self.tables.values().map(|bytes| bytes.len() as u64).sum()
    }

    /// Statistics for a source.
    pub fn stats(&self, source: Source) -> &SourceStats {
        // dps: allow(slice-index, reason = "stats is built with one slot per SOURCES entry and source.index() is that source's position in SOURCES; no input reaches the index")
        &self.stats[source.index()]
    }

    /// The snapshot schema (fixed).
    pub fn schema(&self) -> dps_columnar::Schema {
        schema()
    }

    /// Rebuilds a store from the archive at base path `path` (either
    /// layout), reading every page once with the page cache off.
    pub fn load_archive(path: &std::path::Path) -> std::io::Result<Self> {
        Self::from_store(&StoreReader::open_auto_with_cache(path, 0)?)
    }

    /// Rebuilds a store from an open [`StoreReader`]: the dictionary as
    /// committed, every data page with its exact catalog data-point
    /// count, and the quality, telemetry and analysis pages. Statistics
    /// are computed from the logical tables (shard sub-pages are
    /// reassembled first), so they do not depend on the layout.
    ///
    /// The archive reads happen inside `dps-store`, but the untrusted
    /// bytes are *consumed* here.
    // dps: ingress
    pub fn from_store(reader: &StoreReader) -> std::io::Result<Self> {
        let mut store = Self::new();
        store.dict = reader.dict().clone();
        for (&(day, source), meta) in &reader.catalog().pages {
            let table = reader.table(day, source)?.ok_or_else(|| {
                std::io::Error::other("catalog lists a page the archive cannot produce")
            })?;
            match source {
                ANALYSIS_SOURCE => store.add_analysis(day, table.to_bytes()),
                TELEMETRY_SOURCE => {
                    let snapshot = decode_telemetry(&table).ok_or_else(|| {
                        std::io::Error::other("archive holds an undecodable telemetry page")
                    })?;
                    store.add_telemetry(day, snapshot);
                }
                QUALITY_SOURCE => {
                    let qualities = decode_qualities(&table).ok_or_else(|| {
                        std::io::Error::other("archive holds an undecodable quality page")
                    })?;
                    for q in qualities {
                        store.add_quality(q);
                    }
                }
                _ => {
                    let src = Source::from_index(u32::from(source))
                        .ok_or_else(|| std::io::Error::other("archive has an unknown source id"))?;
                    if table.schema().names() != schema().names() {
                        return Err(std::io::Error::other(
                            "archive schema does not match this build; re-run the study",
                        ));
                    }
                    store.add_table(day, src, &table, meta.data_points);
                }
            }
        }
        Ok(store)
    }
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{append_day, SourcePage};
    use dps_columnar::TableBuilder;
    use dps_store::StoreWriter;

    fn table_with_rows(day: u32, n: u32) -> Table {
        let mut b = TableBuilder::new(schema());
        for i in 0..n {
            let mut row = [0u32; 18];
            row[0] = day;
            row[1] = Source::Com.index() as u32;
            row[2] = i * 2;
            b.push_row(&row);
        }
        b.finish()
    }

    fn page(day: u32, source: Source, rows: u32, data_points: u64) -> SourcePage {
        SourcePage {
            source,
            table: table_with_rows(day, rows),
            data_points,
            quality: DayQuality::perfect(day, source, rows, 0),
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dps-snapshot-{tag}-{}.dps", std::process::id()))
    }

    /// Writes one committed day per `(day, pages, telemetry)` entry.
    fn write_archive(
        path: &std::path::Path,
        dict: &StringDict,
        days: Vec<(u32, Vec<SourcePage>, Snapshot)>,
    ) {
        std::fs::remove_file(path).ok();
        let mut writer = StoreWriter::create_store(path, 1, Some(UNIQUE_KEY_COLUMN)).unwrap();
        for (day, pages, telemetry) in days {
            append_day(&mut writer, dict, day, pages, telemetry, None).unwrap();
        }
    }

    #[test]
    fn stats_accumulate_across_days() {
        let mut store = SnapshotStore::new();
        store.add_table(0, Source::Com, &table_with_rows(0, 100), 400);
        store.add_table(1, Source::Com, &table_with_rows(1, 120), 480);
        let st = store.stats(Source::Com);
        assert_eq!(st.days, 2);
        assert_eq!(st.first_day, Some(0));
        assert_eq!(st.last_day, Some(1));
        assert_eq!(st.data_points, 880);
        assert_eq!(st.unique_slds.len(), 120);
        assert!(st.stored_bytes > 0);
        assert!(st.stored_bytes < st.raw_bytes);
    }

    #[test]
    fn archive_roundtrip() {
        let mut dict = StringDict::new();
        dict.intern("cloudflare.com");
        let path = temp_path("roundtrip");
        write_archive(
            &path,
            &dict,
            vec![
                (
                    0,
                    vec![page(0, Source::Com, 50, 250), page(0, Source::Org, 10, 50)],
                    Snapshot::default(),
                ),
                (1, vec![page(1, Source::Com, 60, 300)], Snapshot::default()),
            ],
        );
        let back = SnapshotStore::load_archive(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.dict.get("cloudflare.com"), dict.get("cloudflare.com"));
        assert_eq!(back.days(Source::Com), vec![0, 1]);
        let t = back.table(1, Source::Com).unwrap();
        assert_eq!(t.rows(), 60);
        assert_eq!(back.stats(Source::Com).days, 2);
        assert_eq!(back.stats(Source::Org).unique_slds.len(), 10);
    }

    /// Regression: `data_points` used to be reconstructed on reload as
    /// `non-failed rows × 5`, silently replacing the true collected count.
    /// The archive catalog persists the exact value, so a reload must
    /// reproduce every `SourceStats` field bit-for-bit.
    #[test]
    fn reload_keeps_stats_exactly() {
        let mut dict = StringDict::new();
        dict.intern("incapdns.net");
        // 400 and 301 are deliberately NOT multiples of rows×5, so the old
        // estimate could never reproduce them.
        let mut expected = SnapshotStore::new();
        expected.add_table(0, Source::Com, &table_with_rows(0, 100), 400);
        expected.add_table(1, Source::Nl, &table_with_rows(1, 30), 77);
        expected.add_table(2, Source::Com, &table_with_rows(2, 80), 301);
        let path = temp_path("exact");
        write_archive(
            &path,
            &dict,
            vec![
                (0, vec![page(0, Source::Com, 100, 400)], Snapshot::default()),
                (1, vec![page(1, Source::Nl, 30, 77)], Snapshot::default()),
                (2, vec![page(2, Source::Com, 80, 301)], Snapshot::default()),
            ],
        );
        let back = SnapshotStore::load_archive(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for source in SOURCES {
            assert_eq!(expected.stats(source), back.stats(source), "{source:?}");
        }
        assert_eq!(back.stats(Source::Com).data_points, 701);
        assert_eq!(back.stats(Source::Nl).data_points, 77);
    }

    #[test]
    fn quality_records_roundtrip_through_the_archive() {
        use crate::quality::CauseCounts;
        let q0 = DayQuality {
            day: 0,
            source: Source::Com,
            attempted: 10,
            failed: 2,
            retried: 3,
            recovered: 1,
            causes: CauseCounts {
                timeouts: 4,
                unreachable: 1,
                corrupt: 0,
                servfail: 2,
                other: 0,
            },
            retry_passes: 2,
            breaker_trips: 1,
            hedges: 6,
        };
        let day0 = SourcePage {
            quality: q0,
            ..page(0, Source::Com, 10, 50)
        };
        let path = temp_path("quality");
        write_archive(
            &path,
            &StringDict::new(),
            vec![
                (0, vec![day0], Snapshot::default()),
                (1, vec![page(1, Source::Com, 10, 50)], Snapshot::default()),
            ],
        );
        let back = SnapshotStore::load_archive(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.quality(0, Source::Com), Some(&q0));
        assert_eq!(back.qualities(Source::Com).len(), 2);
        assert!((back.quality(0, Source::Com).unwrap().coverage() - 0.8).abs() < 1e-12);
        // Quality pages never leak into data-table accessors or stats.
        assert_eq!(back.days(Source::Com), vec![0, 1]);
        assert_eq!(back.stats(Source::Com).days, 2);
    }

    #[test]
    fn telemetry_snapshots_roundtrip_through_the_archive() {
        let registry = dps_telemetry::Registry::new();
        registry.counter("sweep.attempted").add(42);
        registry.histogram("sweep.day.us").observe(1_000_000);
        let path = temp_path("telemetry");
        write_archive(
            &path,
            &StringDict::new(),
            vec![(0, vec![page(0, Source::Com, 10, 50)], registry.snapshot())],
        );
        let back = SnapshotStore::load_archive(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let day0 = back.telemetry(0).expect("telemetry page restored");
        assert_eq!(day0.counters.get("sweep.attempted"), Some(&42));
        assert_eq!(
            day0.histograms.get("sweep.day.us").map(|h| h.sum),
            Some(1_000_000)
        );
        assert_eq!(back.merged_telemetry().counters["sweep.attempted"], 42);
        // Telemetry pages never leak into data-table accessors or stats.
        assert_eq!(back.days(Source::Com), vec![0]);
        assert_eq!(back.stats(Source::Com).days, 1);
    }

    #[test]
    fn load_missing_archive_errors() {
        assert!(
            SnapshotStore::load_archive(std::path::Path::new("/nonexistent-dps/archive.dps"))
                .is_err()
        );
    }

    #[test]
    fn scan_returns_days_in_order() {
        let mut store = SnapshotStore::new();
        for day in [3u32, 1, 2] {
            store.add_table(day, Source::Net, &table_with_rows(day, 10), 0);
        }
        let days: Vec<u32> = store.scan(Source::Net).map(|(d, _)| d).collect();
        assert_eq!(days, vec![1, 2, 3]);
        assert!(store.table(2, Source::Net).is_some());
        assert!(store.table(2, Source::Org).is_none());
    }
}
