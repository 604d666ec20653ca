//! # dps-perfbench — the dps-scope benchmark
//!
//! One command runs one workload and prints every end-to-end metric
//! (untraced) or every per-layer metric (traced) as the last line of its
//! standard output; see `README.md` for the catalogue. Every workload runs
//! the same user-visible system — set up a world and serve its zones,
//! sweep it into an archive, scan the archive, analyze it — with sizes
//! chosen so that one layer does most of the work.
//!
//! The benchmark calls the public functions of the program's crates and
//! times each call from its own files; the program is not instrumented.

pub mod pipeline;
pub mod serve;
pub mod sys;
pub mod trace;

use pipeline::{archive_path, Sweep};
use serve::ServePlan;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use sys::{adjusted_mean, adjusted_total, Stage, Usage};
use trace::{Tracer, ALLOC};

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 2016;
/// Queries replayed in-process by the traced run.
const REPLAY_QUERIES: usize = 20_000;

/// Workload names, in catalogue order.
pub const WORKLOADS: [&str; 3] = ["paper-550d", "cluster-2w", "serve-udp"];

/// End-to-end metrics `(name, unit)`, in catalogue order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("measure_rows_per_s", "rows/s"),
    ("scan_rows_per_s", "rows/s"),
    ("analyze_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("archive_bytes_per_row", "B/row"),
];

/// The 18 analysis ids `experiments::run` knows, besides `all`.
const ANALYZE_IDS: [&str; 18] = [
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "anomalies",
    "combos",
    "mechanisms",
    "nsnames",
    "ablation",
    "smoothing",
    "quality",
    "validation",
    "pipeline",
];

/// Per-layer metrics `(name, unit)` other than `analyze.<id>_s` and
/// `self.<layer>_s`, in catalogue order.
const PER_LAYER: [(&str, &str); 50] = [
    ("ecosystem.advance_s", "s"),
    ("ecosystem.entries_s", "s"),
    ("measure.resolve_s", "s"),
    ("measure.resolve_wait_s", "s"),
    ("measure.intern_s", "s"),
    ("measure.pack_s", "s"),
    ("measure.dict_strings", "count"),
    ("columnar.encode_s", "s"),
    ("columnar.bytes_per_row", "B/row"),
    ("store.append_s", "s"),
    ("store.commit_s", "s"),
    ("store.commits", "count"),
    ("store.bytes_written", "B"),
    ("stream.update_s", "s"),
    ("stream.days", "count"),
    ("store.open_s", "s"),
    ("store.read_decode_s", "s"),
    ("store.pages_decoded", "count"),
    ("store.bytes_read", "B"),
    ("core.scan_s", "s"),
    ("core.rehydrate_s", "s"),
    ("alloc.per_row", "count/row"),
    ("alloc.bytes_per_row", "B/row"),
    ("alloc.peak_live_mib", "MiB"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("host.steal_s", "s"),
    ("cluster.leases", "count"),
    ("cluster.reassigned", "count"),
    ("cluster.stale_rejected", "count"),
    ("cluster.useful_lease_ratio", "ratio"),
    ("cluster.agent_cpu_s", "s"),
    ("cluster.manager_cpu_s", "s"),
    ("cluster.single_ref_s", "s"),
    ("serve_p50_us", "us"),
    ("serve_p99_us", "us"),
    ("serve_qps_max", "q/s"),
    ("serve.handle_us", "us"),
    ("dns.parse_us", "us"),
    ("authdns.answer_us", "us"),
    ("dns.render_us", "us"),
    ("serve.responses", "count"),
    ("serve.rrl_dropped", "count"),
    ("serve.rrl_slipped", "count"),
    ("serve.truncated", "count"),
    ("serve.shed_refused", "count"),
    ("serve.formerr", "count"),
    ("serve.gen_late_us", "us"),
    ("trace.overhead_pct", "%"),
    ("measure.rows", "count"),
];

/// Layers whose self time the traced run reports as `self.<layer>_s`.
const LAYERS: [&str; 9] = [
    "ecosystem",
    "measure",
    "columnar",
    "store",
    "stream",
    "core",
    "analyze",
    "cluster",
    "serve",
];

/// Every per-layer metric `(name, unit)` the traced run prints.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    v.extend(
        ANALYZE_IDS
            .iter()
            .map(|id| (format!("analyze.{id}_s"), "s")),
    );
    v.extend(LAYERS.iter().map(|l| (format!("self.{l}_s"), "s")));
    v
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Tiny inputs for the benchmark's own tests.
    pub smoke: bool,
    /// Working directory for archives, zones and span files.
    pub work_dir: PathBuf,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--smoke]
/// [--work-dir DIR]`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        work_dir: PathBuf::from(".bench_run"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_string());
    }
    Ok(args)
}

/// One workload's inputs and repetition counts.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// How it measures.
    pub sweep: Sweep,
    /// Serving-stage phase lengths (serve-udp only).
    pub serve: Option<ServePlan>,
    /// Rounds per untraced run. Each round sets up, sweeps, scans and
    /// analyzes, so the repetitions of every stage are spread over the
    /// whole run. Every timing metric takes all repetitions of its stage
    /// together, with the host's steal taken out (`sys::Stage`).
    pub rounds: usize,
    /// Set-ups per round.
    pub setups: usize,
    /// Cold scans per round.
    pub scans: usize,
    /// `analyze all` passes per round.
    pub analyses: usize,
}

/// The inputs of `name` for `seed`; `seconds` sets the length of the
/// serving stage (the batch stages are fixed-size studies).
pub fn workload(name: &str, seed: u64, seconds: f64, smoke: bool) -> Option<Workload> {
    let params = |scale: f64, days: u32, cc: u32| dps_ecosystem::ScenarioParams {
        seed,
        scale,
        gtld_days: days,
        cc_start_day: cc,
    };
    let sweep = |scale, days, cc, shards, stream, workers| Sweep {
        params: params(scale, days, cc),
        shards,
        stream,
        workers,
    };
    let serve_plan = if smoke {
        ServePlan {
            reference_s: 0.2,
            step_s: 0.05,
            torture_s: 0.05,
        }
    } else {
        ServePlan {
            reference_s: 0.3 * seconds,
            step_s: 0.03 * seconds,
            torture_s: 0.1 * seconds,
        }
    };
    let w = match (name, smoke) {
        ("paper-550d", false) => Workload {
            sweep: sweep(0.03, 550, 366, 1, true, 0),
            serve: None,
            rounds: 1,
            setups: 200,
            scans: 3,
            analyses: 2,
        },
        ("cluster-2w", false) => Workload {
            sweep: sweep(1.0, 6, 4, 1, false, 2),
            serve: None,
            rounds: 2,
            setups: 10,
            scans: 2,
            analyses: 1,
        },
        ("serve-udp", false) => Workload {
            sweep: sweep(1.0, 2, 0, 4, false, 0),
            serve: Some(serve_plan),
            rounds: 2,
            setups: 1,
            scans: 3,
            analyses: 2,
        },
        ("paper-550d", true) => Workload {
            sweep: sweep(0.004, 30, 20, 1, true, 0),
            serve: None,
            rounds: 1,
            setups: 2,
            scans: 1,
            analyses: 2,
        },
        ("cluster-2w", true) => Workload {
            sweep: sweep(0.004, 3, 2, 1, false, 2),
            serve: None,
            rounds: 2,
            setups: 1,
            scans: 1,
            analyses: 1,
        },
        ("serve-udp", true) => Workload {
            sweep: sweep(0.004, 2, 0, 4, false, 0),
            serve: Some(serve_plan),
            rounds: 2,
            setups: 1,
            scans: 1,
            analyses: 1,
        },
        _ => return None,
    };
    Some(w)
}

/// What one run produced.
pub struct Report {
    /// All correctness checks passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Figures for the human summary only (not in the result line).
    pub notes: Vec<(String, f64, &'static str)>,
    /// Named checks and whether each passed.
    pub checks: Vec<(&'static str, bool)>,
    /// The run's environment, one JSON object.
    pub env: String,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// A human-readable table of checks and metrics.
    pub fn human(&self, args: &Args) -> String {
        let mut out = String::new();
        let mode = if args.trace { "traced" } else { "untraced" };
        let _ = writeln!(out, "== {} (seed {}, {mode}) ==", args.workload, args.seed);
        for (name, ok) in &self.checks {
            let _ = writeln!(
                out,
                "check {name:<28} {}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "fail_ratio {ratio} ({} of {} operations)",
            self.failed, self.attempted
        );
        for (name, value, unit) in self.metrics.iter().chain(&self.notes) {
            let _ = writeln!(out, "{name:<28} {value:>16.4} {unit}");
        }
        out
    }
}

/// Commit of the checkout, read from `.git` when there is one.
fn commit_id() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        return std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
    }
    if head.is_empty() {
        "unknown".to_string()
    } else {
        head.to_string()
    }
}

/// Everything one set-up produces.
struct Setup {
    world: dps_ecosystem::World,
    /// The running server, its counters and the query mix (serve-udp).
    serving: Option<(dps_serve::Server, dps_telemetry::Registry, serve::Mix)>,
    stage: Stage,
}

/// World build; on serve-udp also zone export and `Server::start` until
/// the first answer. The query mix is benchmark input and is built after
/// the timed window.
fn setup(w: &Workload, zone_dir: &Path, tr: Option<&Tracer>) -> io::Result<Setup> {
    let span = |name: &str| tr.map(|t| t.span(name));
    let u = Usage::now();
    let world = {
        let _s = span("ecosystem.build");
        dps_ecosystem::World::imc2016(w.sweep.params)
    };
    let server = match w.serve {
        None => None,
        Some(_) => {
            {
                let _s = span("serve.export_zones");
                serve::export_zones(&world, zone_dir)?;
            }
            let _s = span("serve.start");
            Some(serve::start(zone_dir)?)
        }
    };
    let stage = u.stage();
    let serving = match server {
        Some((server, registry)) => Some((
            server,
            registry,
            serve::Mix::new(&world, w.sweep.params.seed)?,
        )),
        None => None,
    };
    Ok(Setup {
        world,
        serving,
        stage,
    })
}

/// Runs one workload; `Err` is an operational failure (no result line).
pub fn run(args: &Args) -> io::Result<Report> {
    let w = workload(&args.workload, args.seed, args.seconds, args.smoke)
        .ok_or_else(|| io::Error::other("unknown workload"))?;
    let work = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work)?;
    let result = if args.trace {
        run_traced(args, &w, &work)
    } else {
        run_untraced(args, &w, &work)
    };
    std::fs::remove_dir_all(&work).ok();
    let report = result?;
    match report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        Some((name, v, _)) => Err(io::Error::other(format!("metric {name} is {v}"))),
        None => Ok(report),
    }
}

fn env_json(args: &Args, usage: &Usage) -> String {
    let st = usage.stage();
    let (wall, cpu, steal) = (st.wall_s, st.cpu_s, st.steal_s);
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cpus\": {}, \
         \"commit\": \"{}\", \"wall_s\": {wall}, \"proc.cpu_s\": {cpu}, \"host.steal_s\": {steal}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::host_cpus(),
        commit_id()
    )
}

/// Failure accounting shared by both modes: a lost row or a failed
/// check counts the whole run as failed.
fn account(
    rows: u64,
    lost_rows: u64,
    serve: &serve::ServeOutcome,
    checks: &[(&'static str, bool)],
) -> (bool, u64, u64) {
    let correct = checks.iter().all(|&(_, ok)| ok);
    let attempted = rows + serve.attempted + checks.len() as u64;
    let failed = if !correct || lost_rows > 0 {
        attempted
    } else {
        serve.failed
    };
    (correct, attempted, failed)
}

fn serve_checks(out: &serve::ServeOutcome) -> [(&'static str, bool); 2] {
    [
        ("serve_answers_correct", out.wrong == 0),
        (
            "serve_sample_matches_authdns",
            out.sampled > 0 && out.sample_mismatches == 0,
        ),
    ]
}

/// The serving figures, for the human summary.
fn serve_notes(out: &serve::ServeOutcome) -> Vec<(String, f64, &'static str)> {
    vec![
        ("serve_p50_us".into(), out.p50_us, "us"),
        ("serve_p99_us".into(), out.p99_us, "us"),
        ("serve_qps_max".into(), out.qps_max, "q/s"),
        ("serve.gen_late_us".into(), out.gen_late_us, "us"),
        (
            "serve.torture_sent".into(),
            out.torture_sent as f64,
            "count",
        ),
    ]
}

fn run_untraced(args: &Args, w: &Workload, work: &Path) -> io::Result<Report> {
    let usage = Usage::now();
    let mut checks: Vec<(&'static str, bool)> = Vec::new();
    let mut served = serve::ServeOutcome::default();
    let mut notes = Vec::new();
    let mut setups = Vec::new();
    let (mut sweeps, mut scans, mut analyses): (Vec<Stage>, Vec<Stage>, Vec<Stage>) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut swept_rows, mut scanned_rows, mut lost_rows) = (0u64, 0u64, 0u64);
    let mut texts: Vec<String> = Vec::new();
    let mut first: Option<(PathBuf, u64)> = None;

    for round in 0..w.rounds {
        let mut last = None;
        for rep in 0..w.setups {
            drop(last.take());
            let s = setup(w, &work.join(format!("zones{round}-{rep}")), None)?;
            setups.push(s.stage);
            last = Some(s);
        }
        let Setup { world, serving, .. } = last.ok_or_else(|| io::Error::other("no set-up"))?;
        if let (0, Some((server, _, mix)), Some(plan)) = (round, &serving, w.serve) {
            served = serve::run_stage(server, mix, plan)?;
            checks.extend(serve_checks(&served));
            notes = serve_notes(&served);
        }
        drop(serving);

        // Sweep the set-up world (still at day 0).
        let dir = work.join(format!("archive{round}"));
        let mut world = world;
        let u = Usage::now();
        let m = pipeline::measure(&w.sweep, &mut world, &dir)?;
        sweeps.push(u.stage());
        drop(world);
        let path = archive_path(&dir);
        let rows = pipeline::data_rows(&path)?;
        swept_rows += rows;
        lost_rows += pipeline::lost_rows(&path)?;
        if let Some(engine) = &m.engine {
            checks.push((
                "stream_matches_rescan",
                pipeline::stream_matches_rescan(engine, &path)?,
            ));
        }
        if round == 0 && w.sweep.workers > 0 {
            let single_dir = work.join("single");
            let single = Sweep {
                workers: 0,
                ..w.sweep
            };
            let mut world = dps_ecosystem::World::imc2016(w.sweep.params);
            pipeline::measure(&single, &mut world, &single_dir)?;
            checks.push((
                "cluster_matches_single",
                pipeline::same_files(&dir, &single_dir)?,
            ));
            std::fs::remove_dir_all(&single_dir).ok();
        }
        for _ in 0..w.scans {
            let u = Usage::now();
            pipeline::scan(&path)?;
            scans.push(u.stage());
            scanned_rows += rows;
        }
        for rep in 0..w.analyses {
            let figs = work.join(format!("figs{round}-{rep}"));
            let u = Usage::now();
            let text = pipeline::analyze(&w.sweep, &dir, &figs);
            analyses.push(u.stage());
            std::fs::remove_dir_all(&figs).ok();
            texts.push(text);
        }
        if first.is_none() {
            first = Some((dir, rows));
        } else {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    checks.push((
        "analyze_text_repeats",
        texts.first().is_some_and(|t| !t.is_empty()) && texts.iter().all(|t| *t == texts[0]),
    ));

    let (first_dir, rows) = first.ok_or_else(|| io::Error::other("no round ran"))?;
    let setup_s = adjusted_mean(&setups);
    let rate = swept_rows as f64 / adjusted_total(&sweeps);
    let analyze_s = adjusted_mean(&analyses);
    let values = [
        setup_s,
        rate,
        scanned_rows as f64 / adjusted_total(&scans),
        analyze_s,
        setup_s + rows as f64 / rate + analyze_s,
        sys::peak_rss_mib(),
        sys::dir_bytes(&first_dir) as f64 / rows.max(1) as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();
    let raw_rate = swept_rows as f64 / sweeps.iter().map(|s| s.wall_s).sum::<f64>();
    notes.push(("measure_rows_per_s (raw wall)".into(), raw_rate, "rows/s"));
    let (correct, attempted, failed) = account(swept_rows, lost_rows, &served, &checks);
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        notes,
        checks,
        env: env_json(args, &usage),
    })
}

fn run_traced(args: &Args, w: &Workload, work: &Path) -> io::Result<Report> {
    if !ALLOC.active() {
        return Err(io::Error::other(
            "--trace 1 needs the perfbench-traced binary (counting allocator)",
        ));
    }
    let usage = Usage::now();
    let tr = Tracer::new(args.seed ^ (u64::from(std::process::id()) << 32));
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut checks: Vec<(&'static str, bool)> = Vec::new();
    let root = tr.span("run");

    // Set-up, and serving on serve-udp.
    let s = setup(w, &work.join("zones"), Some(&tr))?;
    let mut served = serve::ServeOutcome::default();
    if let (Some((server, registry, mix)), Some(plan)) = (&s.serving, w.serve) {
        served = {
            let _g = tr.span("serve.stage");
            serve::run_stage(server, mix, plan)?
        };
        checks.extend(serve_checks(&served));
        let replay = tr.time("serve.replay", || {
            serve::replay(server, mix, REPLAY_QUERIES)
        });
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        for (metric, counter_name) in [
            ("serve.responses", "serve_responses"),
            ("serve.rrl_dropped", "serve_rrl_dropped"),
            ("serve.rrl_slipped", "serve_rrl_slipped"),
            ("serve.truncated", "serve_truncated"),
            ("serve.shed_refused", "serve_shed_refused"),
            ("serve.formerr", "serve_formerr"),
        ] {
            m.insert(metric.into(), counter(counter_name));
        }
        m.insert("serve_p50_us".into(), served.p50_us);
        m.insert("serve_p99_us".into(), served.p99_us);
        m.insert("serve_qps_max".into(), served.qps_max);
        m.insert("serve.handle_us".into(), replay.handle_us);
        m.insert("dns.parse_us".into(), replay.parse_us);
        m.insert("authdns.answer_us".into(), replay.answer_us);
        m.insert("dns.render_us".into(), replay.render_us);
        m.insert("serve.gen_late_us".into(), served.gen_late_us);
    }
    drop(s);

    // Untraced reference sweep (single process), then the cluster sweep.
    let single = Sweep {
        workers: 0,
        ..w.sweep
    };
    let ref_dir = work.join("reference");
    let mut wld = dps_ecosystem::World::imc2016(w.sweep.params);
    let u = Usage::now();
    pipeline::measure(&single, &mut wld, &ref_dir)?;
    let reference_s = u.stage().adjusted_s();
    drop(wld);
    if w.sweep.workers > 0 {
        let dir = work.join("cluster");
        let mut wld = dps_ecosystem::World::imc2016(w.sweep.params);
        let c = tr.time("cluster.serve", || {
            pipeline::measure(&w.sweep, &mut wld, &dir)
        })?;
        checks.push((
            "cluster_matches_single",
            pipeline::same_files(&dir, &ref_dir)?,
        ));
        let stats = c.cluster.unwrap_or_default();
        let leases = stats.report.accepted.len() as f64;
        let wasted = (stats.report.reassigned + stats.report.stale_rejected) as f64;
        m.insert("cluster.leases".into(), leases);
        m.insert("cluster.reassigned".into(), stats.report.reassigned as f64);
        m.insert(
            "cluster.stale_rejected".into(),
            stats.report.stale_rejected as f64,
        );
        m.insert(
            "cluster.useful_lease_ratio".into(),
            leases / (leases + wasted).max(1.0),
        );
        m.insert("cluster.agent_cpu_s".into(), stats.agent_cpu_s);
        m.insert("cluster.manager_cpu_s".into(), stats.manager_cpu_s);
        m.insert("cluster.single_ref_s".into(), reference_s);
    }

    // Traced sweep, with allocation counts.
    let traced_dir = work.join("traced");
    let mut wld = tr.time("ecosystem.build", || {
        dps_ecosystem::World::imc2016(w.sweep.params)
    });
    let (allocs0, bytes0) = ALLOC.totals();
    ALLOC.reset_peak();
    let u = Usage::now();
    let traced = pipeline::measure_traced(&tr, &single, &mut wld, &traced_dir)?;
    let (encode_s, encode_allocs, encode_bytes) = traced.encode_extra;
    let traced_s = u.stage().adjusted_s() - encode_s;
    let (allocs1, bytes1) = ALLOC.totals();
    let (allocs, bytes) = (
        allocs1 - allocs0 - encode_allocs,
        bytes1 - bytes0 - encode_bytes,
    );
    let peak_live = ALLOC.peak_live();
    drop(wld);
    let traced_path = archive_path(&traced_dir);
    let ref_path = archive_path(&ref_dir);
    checks.push((
        "traced_matches_untraced",
        pipeline::same_data(&traced_path, &ref_path)?,
    ));
    if let Some(engine) = &traced.engine {
        checks.push((
            "stream_matches_rescan",
            pipeline::stream_matches_rescan(engine, &traced_path)?,
        ));
        m.insert("stream.days".into(), engine.days().len() as f64);
    }
    let rows = pipeline::data_rows(&traced_path)? as f64;
    let lost_rows = pipeline::lost_rows(&traced_path)?;
    let reader = dps_store::StoreReader::open_auto(&traced_path)?;
    let data_bytes: u64 = reader
        .catalog()
        .pages
        .values()
        .filter(|p| p.source < 5)
        .map(|p| p.len)
        .sum();
    m.insert("measure.dict_strings".into(), reader.dict().len() as f64);
    drop(reader);
    m.insert("measure.rows".into(), rows);
    m.insert(
        "columnar.bytes_per_row".into(),
        data_bytes as f64 / rows.max(1.0),
    );
    m.insert(
        "store.bytes_written".into(),
        sys::dir_bytes(&traced_dir) as f64,
    );
    m.insert("alloc.per_row".into(), allocs as f64 / rows.max(1.0));
    m.insert("alloc.bytes_per_row".into(), bytes as f64 / rows.max(1.0));
    m.insert(
        "alloc.peak_live_mib".into(),
        peak_live as f64 / (1024.0 * 1024.0),
    );
    m.insert(
        "trace.overhead_pct".into(),
        (traced_s / reference_s - 1.0) * 100.0,
    );

    // Traced scan and read pass.
    let read = pipeline::scan_traced(&tr, &traced_path)?;
    m.insert("store.pages_decoded".into(), read.pages as f64);
    m.insert("store.bytes_read".into(), read.bytes as f64);

    // Analysis: untraced over the reference archive, traced over the
    // traced one; the texts must agree.
    let untraced_text = pipeline::analyze(&w.sweep, &ref_dir, &work.join("figs-untraced"));
    let traced_text =
        pipeline::analyze_traced(&tr, &w.sweep, &traced_dir, &work.join("figs-traced"))?;
    checks.push((
        "analyze_text_traced_matches",
        !traced_text.is_empty() && traced_text == untraced_text,
    ));
    drop(root);

    let st = usage.stage();
    let (wall, cpu, steal) = (st.wall_s, st.cpu_s, st.steal_s);
    m.insert("proc.cpu_s".into(), cpu);
    m.insert("proc.cpu_util".into(), cpu / wall.max(1e-9));
    m.insert("host.steal_s".into(), steal);
    for (metric, span) in [
        ("ecosystem.advance_s", "ecosystem.advance_to"),
        ("measure.resolve_wait_s", "measure.par_map"),
        ("columnar.encode_s", "columnar.encode"),
        ("store.append_s", "store.append_table"),
        ("store.commit_s", "store.commit"),
        ("stream.update_s", "stream.on_day"),
        ("store.open_s", "store.open"),
        ("store.read_decode_s", "store.table"),
        ("core.scan_s", "core.run_store"),
        ("core.rehydrate_s", "core.rehydrate"),
    ] {
        m.insert(metric.into(), tr.span_s(span));
    }
    m.insert("store.commits".into(), tr.span_count("store.commit") as f64);
    m.insert(
        "ecosystem.entries_s".into(),
        tr.span_s("ecosystem.entries") + tr.busy("ecosystem.entry_name").0,
    );
    m.insert("measure.resolve_s".into(), tr.busy("measure.collect_raw").0);
    m.insert("measure.intern_s".into(), tr.busy("measure.intern").0);
    m.insert("measure.pack_s".into(), tr.busy("measure.pack").0);
    for id in ANALYZE_IDS {
        m.insert(
            format!("analyze.{id}_s"),
            tr.span_s(&format!("analyze.{id}")),
        );
    }
    let self_times = tr.self_times();
    for layer in LAYERS {
        m.insert(
            format!("self.{layer}_s"),
            self_times.get(layer).copied().unwrap_or(0.0),
        );
    }
    std::fs::create_dir_all(&args.work_dir)?;
    std::fs::write(
        args.work_dir
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed)),
        tr.to_jsonl(),
    )?;

    let metrics = per_layer_catalogue()
        .into_iter()
        .map(|(name, unit)| {
            let v = m.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();
    let (correct, attempted, failed) = account(rows as u64, lost_rows, &served, &checks);
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        notes: Vec::new(),
        checks,
        env: env_json(args, &usage),
    })
}

/// Parses the command line, runs, and returns the text for standard
/// output, the text for standard error, and the exit code.
pub fn main_with(argv: &[String]) -> (String, String, i32) {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            return (
                String::new(),
                format!(
                    "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S \
                     --trace 0|1 [--smoke] [--work-dir DIR]\n",
                    WORKLOADS.join("|")
                ),
                2,
            )
        }
    };
    match run(&args) {
        Ok(report) => {
            let stdout = format!("env: {}\n{}\n", report.env, report.json());
            let code = if report.correct { 0 } else { 1 };
            (stdout, report.human(&args), code)
        }
        Err(e) => (String::new(), format!("perfbench: {e}\n"), 1),
    }
}
