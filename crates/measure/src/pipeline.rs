//! Running the study: sweep every due source every day and commit each
//! finished day to the `dps-store` archive (cluster manager + worker cloud
//! of paper Fig. 1). The archive is the only thing a sweep writes; the
//! analysis layer reads it back as a [`SnapshotStore`].
//!
//! On multi-core machines the per-day sweep fans the input list out over a
//! crossbeam worker cloud; collected rows are merged and dictionary-encoded
//! by the manager thread, mirroring the collection/aggregation split of the
//! real system.

use crate::collector::{
    collect_entries, collect_raw, source_entries, QueryPath, RawRow, SldInterner,
};
use crate::observation::{entry_code, schema, Source, SOURCES};
use crate::quality::{encode_qualities, CauseCounts, DayQuality, QUALITY_SOURCE};
use crate::snapshot::{SnapshotStore, UNIQUE_KEY_COLUMN};
use crate::supervisor::{sweep_supervised_metered, SupervisorConfig, SweepMetrics};
use crate::telemetry::{encode_telemetry, TELEMETRY_SOURCE};
use dps_columnar::{StringDict, Table, TableBuilder};
use dps_ecosystem::World;
use dps_netsim::Day;
use dps_store::{StoreReader, StoreWriter};
use dps_telemetry::{Counter, Registry, Snapshot};

/// Study configuration.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Total days to measure (gTLD window).
    pub days: u32,
    /// First day the .nl and Alexa sources are measured.
    pub cc_start_day: u32,
    /// Measure only every `stride`-th day (1 = daily, the paper's cadence;
    /// larger strides cut experiment wall-clock while preserving shapes).
    pub stride: u32,
}

impl StudyConfig {
    /// Daily measurement matching `world` parameters.
    pub fn for_world(world: &World) -> Self {
        Self {
            days: world.params.gtld_days,
            cc_start_day: world.params.cc_start_day,
            stride: 1,
        }
    }
}

/// Archive source id reserved for streaming-analysis checkpoint pages
/// (`dps-stream`). Data sources occupy 0..=4, quality pages 5 and
/// telemetry pages 6; 7 keeps checkpoint pages last within each day in
/// the catalog's `(day, source)` order.
pub const ANALYSIS_SOURCE: u8 = 7;

/// A hook on the day-commit path: an incremental analysis engine that
/// consumes each finished day *as it is committed* and emits one
/// checkpoint page per day so a resumed run replays — rather than
/// recomputes — analysis state.
///
/// Both the single-process [`Study::run_archived_observed`] and the
/// cluster manager funnel every committed day through the same
/// implementation, which is what keeps incremental analysis
/// worker-count-independent: the observer only ever sees the already
/// deterministically-merged day pages.
pub trait DayObserver {
    /// Called once per freshly measured day, after all of the day's rows
    /// have been interned into `dict` but before the commit. Returns the
    /// checkpoint table to persist under [`ANALYSIS_SOURCE`] plus
    /// telemetry counter deltas to fold into the day's telemetry page.
    fn on_day(
        &mut self,
        day: u32,
        pages: &[SourcePage],
        dict: &StringDict,
    ) -> std::io::Result<(Table, Vec<(&'static str, u64)>)>;

    /// Called once per already-committed day during resume, in day
    /// order, with the day's persisted checkpoint table. Must replay the
    /// engine to the exact state [`on_day`](Self::on_day) left it in.
    fn on_resume(&mut self, day: u32, table: &Table) -> std::io::Result<()>;
}

/// Reborrows an optional observer for one call without consuming it.
/// (A plain `as_deref_mut` cannot shorten the trait-object lifetime —
/// `&mut (dyn Trait + 'a)` is invariant in `'a` — but this explicit
/// coercion site can.)
pub fn reborrow_observer<'a>(
    observer: &'a mut Option<&mut dyn DayObserver>,
) -> Option<&'a mut dyn DayObserver> {
    match observer {
        Some(o) => Some(&mut **o),
        None => None,
    }
}

/// The measurement calendar: which sources are due on `day` under
/// `config`. Free function so out-of-process drivers (the cluster
/// manager) shard the exact same calendar [`Study`] sweeps.
pub fn due_sources_for(config: &StudyConfig, day: u32) -> Vec<Source> {
    let mut v = vec![Source::Com, Source::Net, Source::Org];
    if day >= config.cc_start_day {
        v.push(Source::Nl);
        v.push(Source::Alexa);
    }
    v
}

/// One finished (day, source) sweep: the encoded table plus its quality
/// record, ready to append to an archive in calendar order.
pub struct SourcePage {
    /// The source this page belongs to.
    pub source: Source,
    /// Dictionary-encoded observation rows.
    pub table: Table,
    /// Exact data-point count for the page (Table 1 accounting).
    pub data_points: u64,
    /// The day's coverage/failure record for this source.
    pub quality: DayQuality,
}

/// True when `day` is already durable in the archive: every due source
/// page plus the quality and telemetry pages are committed. A commit
/// happens once per day, so a day is either fully durable or (after
/// truncating a torn tail) absent entirely.
pub fn day_committed(writer: &StoreWriter, config: &StudyConfig, day: u32) -> bool {
    due_sources_for(config, day)
        .iter()
        .all(|s| writer.contains(day, s.index() as u8))
        && writer.contains(day, QUALITY_SOURCE)
        && writer.contains(day, TELEMETRY_SOURCE)
}

/// Appends one finished day to the archive and commits a durable footer.
/// This is **the** day-commit path: the single-process
/// [`Study::run_archived`], the cluster manager and the chaos sweep all
/// funnel through it, which is what keeps a multi-worker sweep
/// byte-identical to the single-process run — pages land in the same
/// (day, source) order, followed by the same quality and telemetry
/// pages, followed by one commit against the shared dictionary.
///
/// With an `observer` (streaming analysis), the observer consumes the
/// day's pages (rows already interned into `dict`) before the commit,
/// its counter deltas are folded into the day's telemetry page, and its
/// checkpoint table is persisted under [`ANALYSIS_SOURCE`] after the
/// telemetry page — so the whole day, checkpoint included, is covered by
/// the same single durable commit.
///
/// `pages` must be in [`due_sources_for`] order for the day.
pub fn append_day(
    writer: &mut StoreWriter,
    dict: &StringDict,
    day: u32,
    pages: Vec<SourcePage>,
    mut telemetry: Snapshot,
    observer: Option<&mut dyn DayObserver>,
) -> std::io::Result<()> {
    let analysis = match observer {
        Some(obs) => {
            let (table, counters) = obs.on_day(day, &pages, dict)?;
            for (name, v) in counters {
                *telemetry.counters.entry(name).or_insert(0) += v;
            }
            Some(table)
        }
        None => None,
    };
    let mut day_qualities = Vec::new();
    for page in pages {
        writer.append_table(
            day,
            page.source.index() as u8,
            &page.table,
            page.data_points,
        )?;
        day_qualities.push(page.quality);
    }
    writer.append_table(day, QUALITY_SOURCE, &encode_qualities(&day_qualities), 0)?;
    writer.append_table(day, TELEMETRY_SOURCE, &encode_telemetry(&telemetry), 0)?;
    if let Some(table) = analysis {
        writer.append_table(day, ANALYSIS_SOURCE, &table, 0)?;
    }
    writer.commit(dict)
}

/// Rebuilds `store` from the committed pages of the archive `writer` has
/// open at `path`: the dictionary continues from the last footer, and the
/// committed days are read back through [`SnapshotStore::from_store`].
pub fn resume_store(
    store: &mut SnapshotStore,
    writer: &StoreWriter,
    path: &std::path::Path,
) -> std::io::Result<()> {
    *store = if writer.is_empty() {
        let mut empty = SnapshotStore::new();
        empty.dict = writer.dict().clone();
        empty
    } else {
        SnapshotStore::load_archive(path)?
    };
    Ok(())
}

/// Replays the persisted checkpoint pages of a resumed archive through
/// [`DayObserver::on_resume`] in day order, so a streaming-analysis
/// engine resumes to the exact (byte-identical) state it held when each
/// day was committed. Reads only [`ANALYSIS_SOURCE`] pages; no data page
/// is decoded. Without an observer there is nothing to replay.
///
/// The archive reads happen inside `dps-store`, but the untrusted bytes
/// are *consumed* here — the marker makes this a taint root the call
/// graph alone cannot derive.
// dps: ingress
pub fn resume_store_observed(
    writer: &StoreWriter,
    path: &std::path::Path,
    observer: Option<&mut dyn DayObserver>,
) -> std::io::Result<()> {
    let Some(observer) = observer else {
        return Ok(());
    };
    if writer.is_empty() {
        return Ok(());
    }
    let archive = StoreReader::open_auto_with_cache(path, 0)?;
    for &(day, source) in archive.catalog().pages.keys() {
        if source != ANALYSIS_SOURCE {
            continue;
        }
        let table = archive.table(day, source)?.ok_or_else(|| {
            std::io::Error::other("catalog lists a page the archive cannot produce")
        })?;
        observer.on_resume(day, &table)?;
    }
    Ok(())
}

/// Folds one (day, source) sweep's raw rows into a [`SourcePage`]: rows
/// are interned and packed in arrival order, and the day's quality record
/// is tallied as they stream past. The single-process sweep, the cluster
/// manager and the wire-path sweeps all build their pages through it.
pub struct PageBuilder {
    day: u32,
    source: Source,
    table: TableBuilder,
    data_points: u64,
    attempted: u32,
    failed: u32,
    causes: CauseCounts,
}

impl PageBuilder {
    /// An empty page for `(day, source)`.
    pub fn new(day: u32, source: Source) -> Self {
        Self {
            day,
            source,
            table: TableBuilder::new(schema()),
            data_points: 0,
            attempted: 0,
            failed: 0,
            causes: CauseCounts::default(),
        }
    }

    /// Interns `raw` into `dict` and appends it as the next row.
    pub fn push_raw(&mut self, raw: RawRow, dict: &mut StringDict, interner: &mut SldInterner) {
        self.attempted += 1;
        self.failed += u32::from(raw.failed && raw.retryable);
        self.causes.merge(&raw.causes);
        let row = raw.intern(dict, interner);
        self.data_points += u64::from(row.data_points);
        self.table.push_row(&row.pack(self.day, self.source));
    }

    /// The finished page. An unsupervised sweep never retries, so its
    /// quality record holds no retries or hedges — only the transient
    /// failures it left behind lower coverage.
    pub fn finish(self) -> SourcePage {
        let mut quality = DayQuality::perfect(self.day, self.source, self.attempted, self.failed);
        quality.causes = self.causes;
        SourcePage {
            source: self.source,
            table: self.table.finish(),
            data_points: self.data_points,
            quality,
        }
    }
}

/// Sweep-volume counters the study records per measured day.
struct StudyMetrics {
    days: Counter,
    rows: Counter,
    data_points: Counter,
}

impl StudyMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            days: registry.counter("measure.days"),
            rows: registry.counter("measure.rows"),
            data_points: registry.counter("measure.data.points"),
        }
    }
}

/// Streaming-generation memory contract: at most this many entries'
/// worth of raw rows are in flight per source sweep. The day's rows are
/// generated block by block and interned into the page builder as each
/// block lands, so peak raw-row memory is `O(STREAM_BLOCK_ENTRIES)`
/// regardless of scale — never a whole-day `Vec`. Interning still walks
/// entries in list order, so the produced archive is byte-identical to a
/// whole-day materialization.
pub const STREAM_BLOCK_ENTRIES: usize = 8192;

/// Drives a full study over a world using the bulk query path.
pub struct Study {
    config: StudyConfig,
    registry: Registry,
    metrics: StudyMetrics,
    /// Raw-row streaming block size (entries); see [`STREAM_BLOCK_ENTRIES`].
    stream_block: usize,
    /// Shard files for a freshly created archive (1 = single-file).
    shards: u32,
}

impl Study {
    /// A study with a private telemetry registry (per-day deltas land in
    /// the archive as telemetry pages).
    pub fn new(config: StudyConfig) -> Self {
        let registry = Registry::new();
        let metrics = StudyMetrics::new(&registry);
        Self {
            config,
            registry,
            metrics,
            stream_block: STREAM_BLOCK_ENTRIES,
            shards: 1,
        }
    }

    /// Overrides the streaming block size (entries per generation block).
    /// `usize::MAX` reproduces the old whole-day materialization — the
    /// reference path the streaming-equivalence property test compares
    /// against. Output bytes are identical for any non-zero value.
    pub fn with_stream_block(mut self, entries: usize) -> Self {
        self.stream_block = entries.max(1);
        self
    }

    /// Shard count for a *freshly created* archive: 1 (the default)
    /// writes the historical single-file `archive.dps`; N > 1 writes a
    /// manifest plus N shard files whose scan work parallelises per
    /// shard. Resuming an existing archive keeps its layout regardless.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The study's telemetry registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The measurement calendar: which sources are due on `day`.
    pub fn due_sources(&self, day: u32) -> Vec<Source> {
        due_sources_for(&self.config, day)
    }

    /// Runs the whole study while streaming each finished day into a
    /// `dps-store` archive at `path`, committing a durable footer after
    /// every measured day (checkpoint). If `path` already holds a partial
    /// archive — say, from a killed sweep — the run *resumes*: committed
    /// days are skipped instead of re-measured, the dictionary continues
    /// from the last footer (interning is idempotent, so ids stay
    /// identical), and the world is still advanced through every day so
    /// ecosystem state matches an uninterrupted run. The resulting
    /// archive is byte-identical to one written in a single uninterrupted
    /// sweep. Read it back with [`SnapshotStore::load_archive`].
    pub fn run_archived(self, world: &mut World, path: &std::path::Path) -> std::io::Result<()> {
        self.run_archived_observed(world, path, None)
    }

    /// [`run_archived`](Self::run_archived) with an optional
    /// streaming-analysis observer: committed days replay their
    /// checkpoint pages through the observer on resume, and every
    /// freshly measured day feeds the observer before its commit. A
    /// committed day with no checkpoint page means the archive was
    /// written without streaming analysis and cannot be resumed with it.
    pub fn run_archived_observed(
        mut self,
        world: &mut World,
        path: &std::path::Path,
        mut observer: Option<&mut dyn DayObserver>,
    ) -> std::io::Result<()> {
        let mut writer = StoreWriter::resume_or_create(path, self.shards, Some(UNIQUE_KEY_COLUMN))?;
        resume_store_observed(&writer, path, reborrow_observer(&mut observer))?;
        // Continue interning into the committed dictionary so a resumed
        // sweep assigns the same ids an uninterrupted one would.
        let mut dict = writer.dict().clone();
        let mut interner = SldInterner::new();
        let mut day = 0u32;
        while day < self.config.days {
            // Advance through *every* day — including already-committed
            // ones — so world state evolves exactly as in a fresh run.
            world.advance_to(Day(day));
            if !day_committed(&writer, &self.config, day) {
                let before = self.registry.snapshot();
                let pages = self.collect_day(world, day, &mut dict, &mut interner);
                let delta = self.registry.snapshot().since(&before);
                append_day(
                    &mut writer,
                    &dict,
                    day,
                    pages,
                    delta,
                    reborrow_observer(&mut observer),
                )?;
            } else if observer.is_some() && !writer.contains(day, ANALYSIS_SOURCE) {
                return Err(std::io::Error::other(
                    "archive day committed without an analysis checkpoint; \
                     re-run without --stream or start a fresh archive",
                ));
            }
            day += self.config.stride.max(1);
        }
        Ok(())
    }

    /// Collects and encodes one page per due source for the world's
    /// current day.
    ///
    /// The input list is fanned out over the crossbeam worker cloud
    /// (paper Fig. 1): workers collect raw rows against the immutable
    /// world; this (manager) thread dictionary-encodes them in list order.
    fn collect_day(
        &mut self,
        world: &World,
        day: u32,
        dict: &mut StringDict,
        interner: &mut SldInterner,
    ) -> Vec<SourcePage> {
        let pfx2as = world.pfx2as();
        let mut out = Vec::new();
        self.metrics.days.inc();
        for source in self.due_sources(day) {
            let entries = source_entries(world, source);
            // Streaming generation: walk the entry list in bounded blocks.
            // Each block fans out over the worker cloud, lands as raw rows,
            // and is interned into the page builder immediately — so raw
            // rows for at most `stream_block` entries exist at any moment,
            // not the whole day (the fixed-memory contract of
            // [`STREAM_BLOCK_ENTRIES`]). Blocks, chunks, and rows all keep
            // entry-list order, so the output is byte-identical to a
            // whole-day materialization.
            let mut page = PageBuilder::new(day, source);
            for block in entries.chunks(self.stream_block.max(1)) {
                for raw in collect_entries(world, block, &pfx2as).into_iter().flatten() {
                    page.push_raw(raw, dict, interner);
                }
            }
            let page = page.finish();
            self.metrics.rows.add(u64::from(page.quality.attempted));
            self.metrics.data_points.add(page.data_points);
            out.push(page);
        }
        out
    }
}

/// Sweeps one list through an arbitrary query path (used by the wire-path
/// validation tests and the lossy-network example), interning into
/// `dict`.
pub fn sweep_with_path(
    world: &World,
    path: &mut impl QueryPath,
    source: Source,
    day: u32,
    dict: &mut StringDict,
    interner: &mut SldInterner,
) -> SourcePage {
    let pfx2as = world.pfx2as();
    let mut page = PageBuilder::new(day, source);
    for &entry in source_entries(world, source).iter() {
        let apex = world.entry_name(entry);
        page.push_raw(
            collect_raw(path, &apex, entry_code(entry), &pfx2as),
            dict,
            interner,
        );
    }
    page.finish()
}

/// [`sweep_with_path`] under fault-tolerant supervision: first pass,
/// dead-letter retry passes, and the supervisor's [`DayQuality`] record
/// as the page's quality. The sweep records its quality tallies and
/// virtual-time span into `metrics` (pass `SweepMetrics::default()` to
/// record nothing).
#[allow(clippy::too_many_arguments)]
pub fn sweep_with_path_supervised(
    world: &World,
    path: &mut impl QueryPath,
    source: Source,
    day: u32,
    dict: &mut StringDict,
    interner: &mut SldInterner,
    config: &SupervisorConfig,
    metrics: &SweepMetrics,
) -> SourcePage {
    let pfx2as = world.pfx2as();
    let jobs: Vec<(dps_dns::Name, u32)> = source_entries(world, source)
        .iter()
        .map(|&entry| (world.entry_name(entry), entry_code(entry)))
        .collect();
    let sweep = sweep_supervised_metered(path, &jobs, &pfx2as, day, source, config, metrics);
    let mut page = PageBuilder::new(day, source);
    for raw in sweep.rows {
        page.push_raw(raw, dict, interner);
    }
    SourcePage {
        quality: sweep.quality,
        ..page.finish()
    }
}

/// Lists every source in Table 1 order (re-export convenience).
pub fn all_sources() -> [Source; 5] {
    SOURCES
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_ecosystem::ScenarioParams;

    /// Runs `config` over `world` into a temp-dir archive and loads it.
    fn archived_store(world: &mut World, config: StudyConfig, tag: &str) -> SnapshotStore {
        let path =
            std::env::temp_dir().join(format!("dps-pipeline-{tag}-{}.dps", std::process::id()));
        std::fs::remove_file(&path).ok();
        Study::new(config).run_archived(world, &path).unwrap();
        let store = SnapshotStore::load_archive(&path).unwrap();
        std::fs::remove_file(&path).ok();
        store
    }

    #[test]
    fn tiny_study_fills_all_sources() {
        let mut world = World::imc2016(ScenarioParams::tiny(5));
        let config = StudyConfig {
            days: 25,
            cc_start_day: 20,
            stride: 1,
        };
        let store = archived_store(&mut world, config, "fills");

        for s in [Source::Com, Source::Net, Source::Org] {
            let st = store.stats(s);
            assert_eq!(st.days, 25, "{s:?}");
            assert_eq!(st.first_day, Some(0));
            assert!(st.unique_slds.len() > 10, "{s:?}");
            assert!(st.data_points > 0);
        }
        for s in [Source::Nl, Source::Alexa] {
            let st = store.stats(s);
            assert_eq!(st.days, 5, "{s:?}");
            assert_eq!(st.first_day, Some(20));
        }
    }

    #[test]
    fn stride_skips_days() {
        let mut world = World::imc2016(ScenarioParams::tiny(5));
        let config = StudyConfig {
            days: 20,
            cc_start_day: 99,
            stride: 5,
        };
        let store = archived_store(&mut world, config, "stride");
        assert_eq!(store.days(Source::Com), vec![0, 5, 10, 15]);
    }

    #[test]
    fn day_tables_decode_and_carry_day_column() {
        let mut world = World::imc2016(ScenarioParams::tiny(6));
        let config = StudyConfig {
            days: 3,
            cc_start_day: 99,
            stride: 1,
        };
        let store = archived_store(&mut world, config, "day-column");
        let t = store.table(2, Source::Com).unwrap();
        assert!(t.rows() > 0);
        let days = t.column_by_name("day").unwrap();
        assert!(days.iter().all(|&d| d == 2));
    }

    #[test]
    fn archived_run_checkpoints_every_day_and_reruns_measure_nothing() {
        let path =
            std::env::temp_dir().join(format!("dps-pipeline-archived-{}.dps", std::process::id()));
        std::fs::remove_file(&path).ok();
        let config = StudyConfig {
            days: 6,
            cc_start_day: 4,
            stride: 1,
        };
        let mut world = World::imc2016(ScenarioParams::tiny(9));
        Study::new(config).run_archived(&mut world, &path).unwrap();
        let first = std::fs::read(&path).unwrap();
        let archived = SnapshotStore::load_archive(&path).unwrap();
        for s in SOURCES {
            let st = archived.stats(s);
            let expected = if matches!(s, Source::Nl | Source::Alexa) {
                2
            } else {
                6
            };
            assert_eq!(st.days, expected, "{s:?}");
            assert_eq!(archived.qualities(s).len() as u32, st.days, "{s:?}");
        }
        assert_eq!(
            archived.all_telemetry().count(),
            6,
            "one telemetry page per day"
        );
        // A second run over the finished archive measures nothing new:
        // the file is untouched and reloads to the same store.
        let mut world = World::imc2016(ScenarioParams::tiny(9));
        Study::new(config).run_archived(&mut world, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);
        let reloaded = SnapshotStore::load_archive(&path).unwrap();
        assert_eq!(
            reloaded.stats(Source::Com).data_points,
            archived.stats(Source::Com).data_points
        );
        assert_eq!(reloaded.days(Source::Com), archived.days(Source::Com));
        std::fs::remove_file(&path).ok();
    }

    /// `dpscope measure --days 1`: a one-day world builds and sweeps
    /// into an archive holding exactly day 0.
    #[test]
    fn one_day_world_sweeps_into_an_archive() {
        let params = ScenarioParams {
            gtld_days: 1,
            cc_start_day: 1,
            ..ScenarioParams::tiny(8)
        };
        let mut world = World::imc2016(params);
        let config = StudyConfig::for_world(&world);
        let store = archived_store(&mut world, config, "one-day");
        assert_eq!(store.days(Source::Com), vec![0]);
        assert_eq!(store.days(Source::Nl), Vec::<u32>::new());
        assert!(store.stats(Source::Com).data_points > 0);
    }

    #[test]
    fn compression_beats_raw() {
        let mut world = World::imc2016(ScenarioParams::tiny(7));
        let config = StudyConfig {
            days: 5,
            cc_start_day: 99,
            stride: 1,
        };
        let store = archived_store(&mut world, config, "compression");
        let st = store.stats(Source::Com);
        assert!(
            st.stored_bytes * 2 < st.raw_bytes,
            "stored {} raw {}",
            st.stored_bytes,
            st.raw_bytes
        );
    }
}
