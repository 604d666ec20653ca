//! The batch stages: measure (single process or cluster), scan, analyze,
//! and their correctness checks — each in an untraced form that calls the
//! program's composite entry points, and a traced form that calls the
//! same public stage functions one by one inside spans.

use crate::sys::thread_cpu_s;
use crate::trace::{timed, Tracer, ALLOC};
use dps_bench::experiments::{experiment_ids, run as run_experiment, Context, ExperimentConfig};
use dps_cluster::manager::{serve_observed, ClusterConfig, ClusterReport};
use dps_cluster::transport::{loopback_conn, Conn};
use dps_cluster::worker::{run_agent, WorkerOptions};
use dps_columnar::{StringDict, Table, TableBuilder};
use dps_core::{CompiledRefs, ProviderRefs, QualityMask, Scanner, DEFAULT_MIN_COVERAGE};
use dps_ecosystem::{ScenarioParams, World, ZoneEntry};
use dps_measure::collector::{collect_raw, SldInterner};
use dps_measure::observation::{entry_code, schema};
use dps_measure::snapshot::UNIQUE_KEY_COLUMN;
use dps_measure::{
    due_sources_for, encode_qualities, encode_telemetry, resume_store, BulkPath, CauseCounts,
    DayObserver, DayQuality, SnapshotStore, SourcePage, Study, StudyConfig, ANALYSIS_SOURCE,
    ARCHIVE_FILE, QUALITY_SOURCE, STREAM_BLOCK_ENTRIES, TELEMETRY_SOURCE,
};
use dps_netsim::{Day, RibHistory};
use dps_store::{StoreReader, StoreWriter};
use dps_stream::{analysis_json, StreamEngine};
use dps_telemetry::Registry;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How a workload measures.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// World parameters; `gtld_days`/`cc_start_day` are the calendar.
    pub params: ScenarioParams,
    /// Shard files of a single-process archive (1 = single file).
    pub shards: u32,
    /// Feed every committed day to a `StreamEngine` observer.
    pub stream: bool,
    /// Loopback cluster agents (0 = single process).
    pub workers: usize,
}

impl Sweep {
    /// The study calendar.
    pub fn config(&self) -> StudyConfig {
        StudyConfig {
            days: self.params.gtld_days,
            cc_start_day: self.params.cc_start_day,
            stride: 1,
        }
    }
}

/// The archive base path inside an archive directory.
pub fn archive_path(dir: &Path) -> PathBuf {
    dir.join(ARCHIVE_FILE)
}

/// Data rows (sources 0–4) in the archive at `path`.
pub fn data_rows(path: &Path) -> io::Result<u64> {
    let reader = StoreReader::open_auto(path)?;
    Ok(reader
        .catalog()
        .pages
        .values()
        .filter(|p| p.source < 5)
        .map(|p| p.rows)
        .sum())
}

/// Rows the sweep attempted but the archive does not hold: the quality
/// pages' attempted counts minus the data rows stored. A row whose
/// *measurement* failed (the simulated Internet answered SERVFAIL or
/// timed out) is still a stored row and an observation, not a failure of
/// the program.
pub fn lost_rows(path: &Path) -> io::Result<u64> {
    let reader = StoreReader::open_auto(path)?;
    let mut attempted = 0u64;
    for &(day, source) in reader.catalog().pages.keys() {
        if source != QUALITY_SOURCE {
            continue;
        }
        let table = reader
            .table(day, source)?
            .ok_or_else(|| io::Error::other("catalog lists a missing quality page"))?;
        let qualities = dps_measure::decode_qualities(&table)
            .ok_or_else(|| io::Error::other("undecodable quality page"))?;
        attempted += qualities
            .iter()
            .map(|q| u64::from(q.attempted))
            .sum::<u64>();
    }
    Ok(attempted.abs_diff(data_rows(path)?))
}

/// One finished untraced sweep.
pub struct Measured {
    /// The streaming engine, when the sweep was observed.
    pub engine: Option<StreamEngine>,
    /// Cluster statistics, for a cluster sweep.
    pub cluster: Option<ClusterStats>,
}

/// What a cluster sweep reports beyond the archive.
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// The manager's report.
    pub report: ClusterReport,
    /// CPU seconds of the manager's event-loop thread.
    pub manager_cpu_s: f64,
    /// CPU seconds of everything else in the process during the sweep:
    /// the agents, their collection threads and the connection readers.
    pub agent_cpu_s: f64,
}

/// Runs the workload's sweep the way `dpscope measure` does: one
/// `Study::run_archived_observed` call, or a manager plus loopback agents.
/// `world` must be freshly built (day 0); a cluster sweep builds its own.
pub fn measure(sweep: &Sweep, world: &mut World, dir: &Path) -> io::Result<Measured> {
    std::fs::create_dir_all(dir)?;
    let path = archive_path(dir);
    let mut engine = sweep.stream.then(StreamEngine::new);
    let observer = engine.as_mut().map(|e| e as &mut dyn DayObserver);
    if sweep.workers == 0 {
        Study::new(sweep.config())
            .with_shards(sweep.shards)
            .run_archived_observed(world, &path, observer)?;
        return Ok(Measured {
            engine,
            cluster: None,
        });
    }
    let cpu0 = crate::sys::process_cpu_s();
    let thread0 = thread_cpu_s();
    let report = run_cluster(sweep, &path, observer)?;
    let manager_cpu_s = thread_cpu_s() - thread0;
    let total = crate::sys::process_cpu_s() - cpu0;
    Ok(Measured {
        engine,
        cluster: Some(ClusterStats {
            report,
            manager_cpu_s,
            agent_cpu_s: (total - manager_cpu_s).max(0.0),
        }),
    })
}

/// A manager and `sweep.workers` agents over in-process loopback
/// connections, as `benches/cluster.rs` runs them.
fn run_cluster(
    sweep: &Sweep,
    path: &Path,
    observer: Option<&mut dyn DayObserver>,
) -> io::Result<ClusterReport> {
    let (conn_tx, conn_rx) = mpsc::channel::<Conn>();
    let mut agents = Vec::new();
    for i in 0..sweep.workers {
        // Read timeout > heartbeat interval: the liveness contract.
        let (server_end, worker_end) = loopback_conn(Duration::from_millis(250));
        conn_tx
            .send(server_end)
            .map_err(|_| io::Error::other("cluster: connection queue closed"))?;
        let opts = WorkerOptions {
            name: format!("bench-{i}"),
            ..WorkerOptions::default()
        };
        agents.push(std::thread::spawn(move || run_agent(worker_end, opts)));
    }
    drop(conn_tx);
    let outcome = serve_observed(
        conn_rx,
        ClusterConfig::for_params(sweep.params),
        path,
        observer,
    );
    for agent in agents {
        agent
            .join()
            .map_err(|_| io::Error::other("cluster: agent thread panicked"))??;
    }
    Ok(outcome?.report)
}

/// Cold open plus `Scanner::run_store` over the archive.
pub fn scan(path: &Path) -> io::Result<()> {
    let reader = StoreReader::open_auto(path)?;
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), reader.dict());
    let out = Scanner::new(&refs).run_store(&reader)?;
    std::hint::black_box(out.series.days.len());
    Ok(())
}

/// The experiment configuration `dpscope analyze … all` would use.
fn analyze_config(sweep: &Sweep, archive_dir: &Path, out_dir: &Path) -> ExperimentConfig {
    ExperimentConfig {
        seed: sweep.params.seed,
        scale: sweep.params.scale,
        days: sweep.params.gtld_days,
        cc_start: sweep.params.cc_start_day,
        stride: 1,
        out_dir: out_dir.to_path_buf(),
        store_dir: Some(archive_dir.to_path_buf()),
    }
}

/// `Context::build` + `run(&ctx, "all")` over a finished archive — the
/// path `dpscope analyze … all` takes. Returns the text.
pub fn analyze(sweep: &Sweep, archive_dir: &Path, out_dir: &Path) -> String {
    let ctx = Context::build(analyze_config(sweep, archive_dir, out_dir));
    run_experiment(&ctx, "all").unwrap_or_default()
}

/// The `dpscope stream check` gate: the engine's finalized state renders
/// byte-identically to a full rescan of the archive.
pub fn stream_matches_rescan(engine: &StreamEngine, path: &Path) -> io::Result<bool> {
    let incremental = analysis_json(
        &engine.finalize(),
        &engine.provider_names(),
        &engine.masked_gtld_days(),
    );
    let reader = StoreReader::open_auto(path)?;
    let store = SnapshotStore::load_archive(path)?;
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let out = Scanner::new(&refs).run_store(&reader)?;
    let mask = QualityMask::from_store(&store, DEFAULT_MIN_COVERAGE);
    let rescan = analysis_json(&out, &refs.names, &mask.masked_gtld_days());
    Ok(incremental == rescan)
}

/// True if two archives hold the same data pages (sources 0–4, byte for
/// byte after decoding) and the same dictionary.
pub fn same_data(a: &Path, b: &Path) -> io::Result<bool> {
    let (ra, rb) = (StoreReader::open_auto(a)?, StoreReader::open_auto(b)?);
    if ra.dict().to_bytes() != rb.dict().to_bytes() {
        return Ok(false);
    }
    let keys = |r: &StoreReader| -> Vec<(u32, u8)> {
        r.catalog()
            .pages
            .keys()
            .copied()
            .filter(|&(_, s)| s < 5)
            .collect()
    };
    if keys(&ra) != keys(&rb) {
        return Ok(false);
    }
    for (day, source) in keys(&ra) {
        let pa = ra.table(day, source)?.map(|t| t.to_bytes());
        let pb = rb.table(day, source)?.map(|t| t.to_bytes());
        if pa.is_none() || pa != pb {
            return Ok(false);
        }
    }
    Ok(true)
}

/// True if the regular files of two archive directories are identical.
pub fn same_files(a: &Path, b: &Path) -> io::Result<bool> {
    let list = |d: &Path| -> io::Result<Vec<(std::ffi::OsString, Vec<u8>)>> {
        let mut v = Vec::new();
        for e in std::fs::read_dir(d)? {
            let e = e?;
            if e.file_type()?.is_file() {
                v.push((e.file_name(), std::fs::read(e.path())?));
            }
        }
        v.sort();
        Ok(v)
    };
    Ok(list(a)? == list(b)?)
}

/// The sweep-volume counters `Study` records into each day's telemetry
/// page, reproduced so the traced archive carries the same pages.
struct StudyCounters {
    registry: Registry,
    days: dps_telemetry::Counter,
    rows: dps_telemetry::Counter,
    data_points: dps_telemetry::Counter,
}

impl StudyCounters {
    fn new() -> Self {
        let registry = Registry::new();
        Self {
            days: registry.counter("measure.days"),
            rows: registry.counter("measure.rows"),
            data_points: registry.counter("measure.data.points"),
            registry,
        }
    }
}

/// What the traced sweep leaves besides its archive.
pub struct TracedSweep {
    /// The streaming engine, when the sweep was observed.
    pub engine: Option<StreamEngine>,
    /// Seconds, allocations and allocated bytes of the extra page encodes
    /// that measure the columnar layer; they are not part of the sweep.
    pub encode_extra: (f64, u64, u64),
}

/// Traced single-process sweep: `Study::run_archived`'s stages in its
/// order, each public call inside a span. Per-row calls are timed one by
/// one and summed per block.
pub fn measure_traced(
    tr: &Tracer,
    sweep: &Sweep,
    world: &mut World,
    dir: &Path,
) -> io::Result<TracedSweep> {
    std::fs::create_dir_all(dir)?;
    let path = archive_path(dir);
    let config = sweep.config();
    let mut engine = sweep.stream.then(StreamEngine::new);
    let _run = tr.span("measure.run");
    let mut writer = tr.time("store.create", || {
        StoreWriter::create_store(&path, sweep.shards, Some(UNIQUE_KEY_COLUMN))
    })?;
    let counters = StudyCounters::new();
    let mut history = RibHistory::new();
    let mut dict = StringDict::new();
    let mut interner = SldInterner::new();
    let mut encode_extra = (0.0, 0u64, 0u64);
    for day in 0..config.days {
        tr.time("ecosystem.advance_to", || world.advance_to(Day(day)));
        let pfx = tr.time("ecosystem.pfx2as", || world.pfx2as());
        history.record(Day(day), pfx);
        let before = counters.registry.snapshot();
        let pages =
            collect_day_traced(tr, &config, world, day, &counters, &mut dict, &mut interner);
        let mut telemetry = counters.registry.snapshot().since(&before);
        let analysis = match engine.as_mut() {
            Some(engine) => {
                let (table, deltas) =
                    tr.time("stream.on_day", || engine.on_day(day, &pages, &dict))?;
                for (name, v) in deltas {
                    *telemetry.counters.entry(name).or_insert(0) += v;
                }
                Some(table)
            }
            None => None,
        };
        let mut qualities = Vec::new();
        for page in &pages {
            // `append_table` encodes the page inside the store layer; the
            // same encode, timed once more here, is the columnar cost.
            let (t, (allocs, bytes)) = (Instant::now(), ALLOC.totals());
            let encoded = tr.time("columnar.encode", || page.table.to_bytes().len());
            std::hint::black_box(encoded);
            let (allocs_after, bytes_after) = ALLOC.totals();
            encode_extra.0 += t.elapsed().as_secs_f64();
            encode_extra.1 += allocs_after - allocs;
            encode_extra.2 += bytes_after - bytes;
            tr.time("store.append_table", || {
                writer.append_table(
                    day,
                    page.source.index() as u8,
                    &page.table,
                    page.data_points,
                )
            })?;
            qualities.push(page.quality);
        }
        let extra: [(u8, Option<Table>); 3] = [
            (QUALITY_SOURCE, Some(encode_qualities(&qualities))),
            (TELEMETRY_SOURCE, Some(encode_telemetry(&telemetry))),
            (ANALYSIS_SOURCE, analysis),
        ];
        for (source, table) in extra {
            if let Some(table) = table {
                tr.time("store.append_table", || {
                    writer.append_table(day, source, &table, 0)
                })?;
            }
        }
        tr.time("store.commit", || writer.commit(&dict))?;
    }
    Ok(TracedSweep {
        engine,
        encode_extra,
    })
}

/// One day's pages, as `Study`'s private `collect_day` builds them.
fn collect_day_traced(
    tr: &Tracer,
    config: &StudyConfig,
    world: &World,
    day: u32,
    counters: &StudyCounters,
    dict: &mut StringDict,
    interner: &mut SldInterner,
) -> Vec<SourcePage> {
    let pfx2as = tr.time("ecosystem.pfx2as", || world.pfx2as());
    let mut out = Vec::new();
    counters.days.inc();
    for source in due_sources_for(config, day) {
        let _src = tr.span("measure.source");
        let entries = tr.time("ecosystem.entries", || match source.tld() {
            Some(tld) => world.zone_entries(tld),
            None => world.alexa_entries(),
        });
        let workers = dps_columnar::mapreduce::default_workers().max(1);
        let mut builder = TableBuilder::new(schema());
        let (mut data_points, mut attempted, mut failed) = (0u64, 0u32, 0u32);
        let mut causes = CauseCounts::default();
        let (mut intern_ns, mut pack_ns) = (0u64, 0u64);
        for block in entries.chunks(STREAM_BLOCK_ENTRIES) {
            let chunk = block.len().div_ceil(workers).max(1);
            let chunks: Vec<&[ZoneEntry]> = block.chunks(chunk).collect();
            let raw_chunks = {
                let _wait = tr.span("measure.par_map");
                let parts = dps_columnar::mapreduce::par_map(&chunks, |batch| {
                    let mut path = BulkPath::new(world);
                    let (mut name_ns, mut raw_ns) = (0u64, 0u64);
                    let rows: Vec<_> = batch
                        .iter()
                        .map(|&entry| {
                            let (apex, ns) = timed(|| world.entry_name(entry));
                            name_ns += ns;
                            let (raw, ns) =
                                timed(|| collect_raw(&mut path, &apex, entry_code(entry), &pfx2as));
                            raw_ns += ns;
                            raw
                        })
                        .collect();
                    (rows, name_ns, raw_ns)
                });
                let mut rows = Vec::with_capacity(parts.len());
                for (part, name_ns, raw_ns) in parts {
                    let n = part.len() as u64;
                    tr.add_busy("ecosystem.entry_name", name_ns, n, false);
                    tr.add_busy("measure.collect_raw", raw_ns, n, false);
                    rows.push(part);
                }
                rows
            };
            for raw in raw_chunks.into_iter().flatten() {
                attempted += 1;
                failed += u32::from(raw.failed && raw.retryable);
                causes.merge(&raw.causes);
                let (row, ns) = timed(|| raw.intern(dict, interner));
                intern_ns += ns;
                data_points += u64::from(row.data_points);
                let ((), ns) = timed(|| builder.push_row(&row.pack(day, source)));
                pack_ns += ns;
            }
        }
        tr.add_busy("measure.intern", intern_ns, u64::from(attempted), true);
        tr.add_busy("measure.pack", pack_ns, u64::from(attempted), true);
        let mut quality = DayQuality::perfect(day, source, attempted, failed);
        quality.causes = causes;
        counters.rows.add(u64::from(attempted));
        counters.data_points.add(data_points);
        let table = tr.time("columnar.finish", || builder.finish());
        out.push(SourcePage {
            source,
            table,
            data_points,
            quality,
        });
    }
    out
}

/// Store-read counts of the traced read pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadStats {
    /// Pages read and decoded.
    pub pages: u64,
    /// Encoded page bytes read.
    pub bytes: u64,
}

/// Traced scan: open, compile references, `Scanner::run_store`, then one
/// uncached pass reading every page through `StoreReader::table`.
pub fn scan_traced(tr: &Tracer, path: &Path) -> io::Result<ReadStats> {
    let reader = tr.time("store.open", || StoreReader::open_auto_with_cache(path, 0))?;
    let refs = tr.time("core.compile_refs", || {
        CompiledRefs::compile(&ProviderRefs::paper_table2(), reader.dict())
    });
    let out = tr.time("core.run_store", || Scanner::new(&refs).run_store(&reader))?;
    std::hint::black_box(out.series.days.len());
    let mut stats = ReadStats::default();
    let pages: Vec<((u32, u8), u64)> = reader
        .catalog()
        .pages
        .iter()
        .map(|(&k, m)| (k, m.len))
        .collect();
    for ((day, source), len) in pages {
        if tr
            .time("store.table", || reader.table(day, source))?
            .is_some()
        {
            stats.pages += 1;
            stats.bytes += len;
        }
    }
    Ok(stats)
}

/// Traced analysis: `Context::build`'s steps one by one (world build,
/// archive → `SnapshotStore` rehydration, world advance, reference
/// compile, in-memory scan), then every experiment id in `run`'s order.
/// Returns the same text `run(&ctx, "all")` produces.
pub fn analyze_traced(
    tr: &Tracer,
    sweep: &Sweep,
    archive_dir: &Path,
    out_dir: &Path,
) -> io::Result<String> {
    let _a = tr.span("analyze.run");
    let config = analyze_config(sweep, archive_dir, out_dir);
    let path = archive_path(archive_dir);
    let mut world = tr.time("ecosystem.build", || World::imc2016(sweep.params));
    let writer = tr.time("store.open_writer", || {
        StoreWriter::resume_or_create(&path, 1, Some(UNIQUE_KEY_COLUMN))
    })?;
    let mut store = SnapshotStore::new();
    tr.time("core.rehydrate", || {
        resume_store(&mut store, &writer, &path)
    })?;
    drop(writer);
    let mut history = RibHistory::new();
    for day in 0..sweep.params.gtld_days {
        tr.time("ecosystem.advance_to", || world.advance_to(Day(day)));
        let pfx = tr.time("ecosystem.pfx2as", || world.pfx2as());
        history.record(Day(day), pfx);
    }
    let refs = tr.time("core.compile_refs", || {
        CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict)
    });
    let scan = tr.time("core.scan_mem", || Scanner::new(&refs).run(&store));
    std::fs::create_dir_all(out_dir)?;
    let ctx = Context {
        config,
        world,
        store,
        refs,
        scan,
    };
    let mut text = String::new();
    for id in experiment_ids().into_iter().filter(|&id| id != "all") {
        let part = tr.time(&format!("analyze.{id}"), || run_experiment(&ctx, id));
        text.push_str(&part.unwrap_or_default());
        text.push('\n');
    }
    Ok(text)
}
