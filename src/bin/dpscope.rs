//! `dpscope` — the command-line face of the reproduction.
//!
//! ```sh
//! # Export the simulated Internet's artifacts for a day:
//! dpscope simulate --scale 0.01 --day 7 --out target/world
//!
//! # Run the measurement study and archive it:
//! dpscope measure --scale 0.05 --days 120 --archive target/archive
//!
//! # Regenerate every table/figure from an archive (or fresh):
//! dpscope analyze --scale 0.05 --days 120 --archive target/archive --out target/figs all
//!
//! # Resolve a name through the simulated Internet, dig-style:
//! dpscope dig d42.com A --day 7
//!
//! # Inspect / checksum-verify / dump a single-file archive:
//! dpscope store info target/archive
//! dpscope store verify target/archive
//! dpscope store cat target/archive --day 3 --source 0 --cols entry,asn1
//! ```

use dps_bench::experiments::{experiment_ids, run, Context, ExperimentConfig};
use dps_scope::authdns::{HealthConfig, HealthTracker, Resolver, ResolverConfig};
use dps_scope::measure::collector::{SldInterner, WirePath};
use dps_scope::measure::pipeline::sweep_with_path_supervised;
use dps_scope::measure::snapshot::UNIQUE_KEY_COLUMN;
use dps_scope::measure::{
    append_day, day_committed, due_sources_for, DayObserver, SupervisorConfig, SweepMetrics,
    ANALYSIS_SOURCE, QUALITY_SOURCE, TELEMETRY_SOURCE,
};
use dps_scope::netsim::ChaosSchedule;
use dps_scope::prelude::*;
use dps_scope::stream::{activation_days, analysis_json, correlate, DEFAULT_TOLERANCE};
use dps_scope::telemetry::Registry;
use std::path::PathBuf;
use std::sync::Arc;

struct CommonArgs {
    seed: u64,
    scale: f64,
    days: u32,
    cc_start: u32,
    stride: u32,
    day: u32,
    out: PathBuf,
    archive: Option<PathBuf>,
    source: Option<u8>,
    cols: Option<Vec<String>>,
    chaos: Option<String>,
    stream: bool,
    shards: u32,
    workers: u32,
    min_workers: u32,
    bind: Option<String>,
    connect: Option<String>,
    name: Option<String>,
    zones: Option<PathBuf>,
    udp: Option<String>,
    tcp: Option<String>,
    iters: u64,
    server: Option<String>,
    rest: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dpscope <command> [options]\n\
         \n\
         commands:\n\
           simulate   export zone files, pfx2as and AS registry for --day\n\
           measure    run the full study, save the archive to --archive\n\
                      (resumes from the last committed day if interrupted;\n\
                      with --chaos, sweeps over the wire under supervision)\n\
           analyze    regenerate tables/figures (ids or 'all') from --archive\n\
           dig        resolve <name> <type> through the simulated Internet\n\
                      (+tries=N and +timeout=MS tune the wire resolver);\n\
                      with --server udp://A or tcp://A, query a real DNS\n\
                      server over the network instead (+bufsize=N sets the\n\
                      EDNS0 size, +noedns sends a classic query; truncated\n\
                      UDP answers retry over TCP)\n\
           serve      authoritative DNS over real sockets for the *.zone\n\
                      files in --zones (hot-reloaded on change); UDP with\n\
                      EDNS0/TC plus TCP fallback, hardened against\n\
                      malformed input, floods and slowloris; runs until\n\
                      stdin closes\n\
           fuzz       run the deterministic mutation fuzzer against one\n\
                      decoder target (or 'all'): fuzz <target> --iters N\n\
                      --seed S; corpus under crates/fuzz/corpus/<target>\n\
           store      inspect a single-file archive: store <info|verify|cat> <path>\n\
                      (info includes the per-day data-quality summary)\n\
           metrics    dump archived sweep telemetry: metrics <path> [--json]\n\
                      (all days merged; --day N selects one day's page;\n\
                      --by-worker appends per-worker provenance counters)\n\
           cluster    multi-process sweep roles:\n\
                        cluster serve --bind ADDR --archive DIR  (manager)\n\
                        cluster agent --connect ADDR [--name S]  (worker)\n\
                      ADDRs containing '/' are Unix sockets, else TCP\n\
           stream     incremental analysis over an archive measured with\n\
                      --stream (replays the persisted checkpoint pages):\n\
                        stream status <path> [--json]  days, per-provider\n\
                                       distinct estimates, attack flags\n\
                        stream check <path>   verify the streamed state\n\
                                       equals a full dps-core rescan\n\
                        stream correlate <path>  score attack flags against\n\
                                       scenario ground truth (pass the same\n\
                                       --seed/--scale/--days/--cc-start\n\
                                       the archive was measured with)\n\
         \n\
         options:\n\
           --seed N       world seed           (default 2016)\n\
           --scale X      population scale     (default 1.0 = 1/1000 real)\n\
           --days N       study length         (default 550)\n\
           --cc-start N   .nl/Alexa start day  (default 366)\n\
           --stride N     measure every Nth day (default 1)\n\
           --day N        day for simulate/dig (default 0)\n\
           --out DIR      output directory     (default target/dpscope)\n\
           --archive DIR  measurement archive directory\n\
           --source N     store cat: source id (0=com 1=net 2=org 3=nl 4=alexa)\n\
           --cols A,B     store cat: project these columns only\n\
           --chaos SPEC   measure: sweep over the simulated wire under a\n\
                          scripted fault schedule, e.g.\n\
                          'degrade@0..inf@loss=0.15; blackout@5s..20s@10.0.0.1'\n\
           --stream       measure: maintain incremental analysis at each\n\
                          day's commit and checkpoint it in the archive\n\
                          (works with --workers; not with --chaos)\n\
           --shards N     measure: write a sharded archive (manifest + N\n\
                          shard files; scans parallelise per shard) when\n\
                          creating a fresh one; resume keeps the existing\n\
                          layout (default 1 = single-file archive.dps)\n\
           --workers N    measure: sweep with N local worker-agent processes\n\
                          over a Unix socket (archive stays byte-identical)\n\
           --bind ADDR    cluster serve: listen address\n\
           --min-workers N  cluster serve: hold leases until N agents have\n\
                          joined (late fleets all participate; default 0)\n\
           --connect ADDR cluster agent: manager address\n\
           --name S       cluster agent: display name for provenance\n\
           --zones DIR    serve: directory of *.zone files (stem = origin)\n\
           --udp ADDR     serve: UDP listen address (default 127.0.0.1:0)\n\
           --tcp ADDR     serve: TCP listen address (default 127.0.0.1:0)\n\
           --iters N      fuzz: iterations per target (default 100000)\n\
           --server URL   dig: real server, udp://host:port or tcp://host:port\n\
         \n\
         analyze ids: {}",
        experiment_ids().join(", ")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> CommonArgs {
    let mut common = CommonArgs {
        seed: 2016,
        scale: 1.0,
        days: 550,
        cc_start: 366,
        stride: 1,
        day: 0,
        out: PathBuf::from("target/dpscope"),
        archive: None,
        source: None,
        cols: None,
        chaos: None,
        stream: false,
        shards: 1,
        workers: 0,
        min_workers: 0,
        bind: None,
        connect: None,
        name: None,
        zones: None,
        udp: None,
        tcp: None,
        iters: 100_000,
        server: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> &String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--seed" => common.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--scale" => common.scale = value("--scale").parse().unwrap_or_else(|_| usage()),
            "--days" => common.days = value("--days").parse().unwrap_or_else(|_| usage()),
            "--cc-start" => {
                common.cc_start = value("--cc-start").parse().unwrap_or_else(|_| usage())
            }
            "--stride" => common.stride = value("--stride").parse().unwrap_or_else(|_| usage()),
            "--day" => common.day = value("--day").parse().unwrap_or_else(|_| usage()),
            "--out" => common.out = value("--out").into(),
            "--archive" => common.archive = Some(value("--archive").into()),
            "--source" => {
                common.source = Some(value("--source").parse().unwrap_or_else(|_| usage()))
            }
            "--cols" => {
                common.cols = Some(
                    value("--cols")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--chaos" => common.chaos = Some(value("--chaos").to_string()),
            "--stream" => common.stream = true,
            "--shards" => common.shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--workers" => common.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--min-workers" => {
                common.min_workers = value("--min-workers").parse().unwrap_or_else(|_| usage())
            }
            "--bind" => common.bind = Some(value("--bind").to_string()),
            "--connect" => common.connect = Some(value("--connect").to_string()),
            "--name" => common.name = Some(value("--name").to_string()),
            "--zones" => common.zones = Some(value("--zones").into()),
            "--udp" => common.udp = Some(value("--udp").to_string()),
            "--tcp" => common.tcp = Some(value("--tcp").to_string()),
            "--iters" => common.iters = value("--iters").parse().unwrap_or_else(|_| usage()),
            "--server" => common.server = Some(value("--server").to_string()),
            "-h" | "--help" => usage(),
            other => common.rest.push(other.to_string()),
        }
    }
    if common.cc_start >= common.days {
        common.cc_start = common.days.saturating_mul(2) / 3;
    }
    common
}

fn world_for(args: &CommonArgs) -> World {
    let params = ScenarioParams {
        seed: args.seed,
        scale: args.scale,
        gtld_days: args.days,
        cc_start_day: args.cc_start,
    };
    let mut world = World::imc2016(params);
    world.advance_to(Day(args.day));
    world
}

fn cmd_simulate(args: CommonArgs) {
    let world = world_for(&args);
    std::fs::create_dir_all(&args.out).expect("create out dir");
    for tld in dps_scope::ecosystem::MEASURED_TLDS {
        let path = args.out.join(format!("{}.zone", tld.label()));
        std::fs::write(&path, world.zone_file_text(tld)).expect("write zone");
        println!("wrote {} ({} SLDs)", path.display(), world.zone_size(tld));
    }
    let pfx2as = world.pfx2as();
    let path = args.out.join(format!("pfx2as-day{:04}.txt", args.day));
    std::fs::write(&path, pfx2as.to_routeviews_text()).expect("write pfx2as");
    println!("wrote {} ({} prefixes)", path.display(), pfx2as.len());

    let mut asns = String::new();
    for (asn, name) in world.as_registry().iter() {
        asns.push_str(&format!("{asn}\t{name}\n"));
    }
    let path = args.out.join("as-names.tsv");
    std::fs::write(&path, asns).expect("write as names");
    println!("wrote {}", path.display());
    println!(
        "\nworld: {} domains, day {} ({})",
        world.domains().len(),
        args.day,
        Day(args.day)
    );
}

fn cmd_measure(args: CommonArgs) {
    let Some(archive) = args.archive.clone() else {
        eprintln!("measure requires --archive DIR");
        usage();
    };
    let params = ScenarioParams {
        seed: args.seed,
        scale: args.scale,
        gtld_days: args.days,
        cc_start_day: args.cc_start,
    };
    let mut world = World::imc2016(params);
    println!(
        "world: {} domains; sweeping {} days…",
        world.domains().len(),
        args.days
    );
    std::fs::create_dir_all(&archive).expect("create archive dir");
    let path = archive.join(dps_scope::measure::ARCHIVE_FILE);
    if args.chaos.is_some() && args.stream {
        eprintln!("--chaos and --stream are mutually exclusive");
        usage();
    }
    if args.workers > 0 {
        if args.chaos.is_some() {
            eprintln!("--workers and --chaos are mutually exclusive");
            usage();
        }
        cmd_measure_cluster(&args, &archive, &path);
        return;
    }
    if let Some(spec) = &args.chaos {
        let schedule = ChaosSchedule::parse(spec).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        });
        cmd_measure_chaos(&args, &mut world, &path, schedule);
        return;
    }
    // Streams each finished day into the single-file archive with a
    // durable footer per day: a killed sweep resumes where it left off.
    // With --stream, a StreamEngine observes every commit and its
    // checkpoint rides in the same durable footer.
    let mut engine = args.stream.then(dps_scope::stream::StreamEngine::new);
    let observer = engine.as_mut().map(|e| e as &mut dyn DayObserver);
    Study::new(study_config(&args))
        .with_shards(args.shards)
        .run_archived_observed(&mut world, &path, observer)
        .expect("archived study");
    print_archived(&path, "");
    if let Some(engine) = &engine {
        print_stream_summary(engine);
    }
}

/// The measurement calendar the common arguments describe.
fn study_config(args: &CommonArgs) -> StudyConfig {
    StudyConfig {
        days: args.days,
        cc_start_day: args.cc_start,
        stride: args.stride,
    }
}

/// One-line summary after a sweep: the archive's encoded data-page bytes
/// and its path.
fn print_archived(path: &std::path::Path, suffix: &str) {
    let reader = StoreReader::open_auto(path).expect("reopen archive");
    let data_bytes: u64 = reader
        .catalog()
        .pages
        .values()
        .filter(|p| Source::from_index(u32::from(p.source)).is_some())
        .map(|p| p.len)
        .sum();
    println!(
        "archived {} to {}{suffix}",
        dps_scope::core::report::human_bytes(data_bytes),
        path.display()
    );
}

/// One-line streaming-analysis summary after a `--stream` sweep.
fn print_stream_summary(engine: &dps_scope::stream::StreamEngine) {
    let flags = engine.attack_flags();
    println!(
        "stream: {} days analysed, {} providers, {} attack-onset flags",
        engine.days().len(),
        engine.n_providers(),
        flags.len()
    );
}

/// `dpscope measure --chaos SPEC`: sweep every due source over the
/// simulated wire while the scripted fault schedule plays out, under the
/// supervisor (backoff, breakers, dead-letter retries). Each day gets a
/// fresh network whose virtual clock starts at zero, so the schedule
/// describes faults *within* a day and replays identically every day.
fn cmd_measure_chaos(
    args: &CommonArgs,
    world: &mut World,
    path: &std::path::Path,
    schedule: ChaosSchedule,
) {
    let config = study_config(args);
    let mut writer = StoreWriter::resume_or_create(path, 1, Some(UNIQUE_KEY_COLUMN))
        .expect("open chaos archive");
    let mut dict = writer.dict().clone();
    let mut interner = SldInterner::new();
    let supervisor = SupervisorConfig::default();
    let mut day = 0u32;
    while day < args.days {
        world.advance_to(Day(day));
        if day_committed(&writer, &config, day) {
            day += args.stride.max(1);
            continue;
        }
        // One registry per day, like the network itself: the day's
        // snapshot is self-contained, so an aborted run re-measuring the
        // day reproduces the identical telemetry page.
        let registry = Registry::new();
        let net = Network::with_telemetry(args.seed.wrapping_add(u64::from(day)), &registry);
        net.set_chaos(schedule.clone());
        let catalog = world.materialize(&net);
        let health =
            Arc::new(HealthTracker::new(HealthConfig::default()).with_telemetry(&registry));
        let resolver = Resolver::new(
            &net,
            "172.16.0.53".parse().unwrap(),
            u64::from(day),
            catalog.root_hints(),
        )
        .with_config(ResolverConfig::resilient())
        .with_health(health);
        let mut wire = WirePath::new(resolver);
        let sweep_metrics = SweepMetrics::new(&registry);
        let mut pages = Vec::new();
        for source in due_sources_for(&config, day) {
            let page = sweep_with_path_supervised(
                world,
                &mut wire,
                source,
                day,
                &mut dict,
                &mut interner,
                &supervisor,
                &sweep_metrics,
            );
            let q = &page.quality;
            println!(
                "day {day:>4} {:<8} coverage {:>6.2}%  attempted {:>6}  unresolved {:>4}  \
                 recovered {:>4}  trips {:>3}  hedges {:>4}",
                source.label(),
                100.0 * q.coverage(),
                q.attempted,
                q.failed,
                q.recovered,
                q.breaker_trips,
                q.hedges,
            );
            pages.push(page);
        }
        append_day(&mut writer, &dict, day, pages, registry.snapshot(), None)
            .expect("commit chaos day");
        day += args.stride.max(1);
    }
    print_archived(path, "");
}

/// Manager-side read timeout: comfortably above the agents' 100 ms
/// heartbeat interval, so a healthy worker never shows a quiet tick.
const CLUSTER_READ_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(500);

fn cluster_config(args: &CommonArgs) -> dps_scope::cluster::ClusterConfig {
    let params = ScenarioParams {
        seed: args.seed,
        scale: args.scale,
        gtld_days: args.days,
        cc_start_day: args.cc_start,
    };
    let mut config = dps_scope::cluster::ClusterConfig::for_params(params);
    config.study.stride = args.stride;
    config.scheduler.min_workers = args.min_workers;
    config
}

/// Binds `addr` ('/' ⇒ Unix socket path, else TCP host:port) and pumps
/// accepted connections into `conns` until `stop` is raised.
fn spawn_accept_loop(
    addr: &str,
    conns: std::sync::mpsc::Sender<dps_scope::cluster::Conn>,
    stop: Arc<std::sync::atomic::AtomicBool>,
) -> std::thread::JoinHandle<std::io::Result<()>> {
    use dps_scope::cluster::transport::{tcp_accept_loop, uds_accept_loop};
    if addr.contains('/') {
        std::fs::remove_file(addr).ok();
        let listener = std::os::unix::net::UnixListener::bind(addr).expect("bind unix socket");
        std::thread::spawn(move || uds_accept_loop(listener, CLUSTER_READ_TIMEOUT, &conns, &stop))
    } else {
        let listener = std::net::TcpListener::bind(addr).expect("bind tcp listener");
        std::thread::spawn(move || tcp_accept_loop(listener, CLUSTER_READ_TIMEOUT, &conns, &stop))
    }
}

/// `dpscope cluster serve --bind ADDR --archive DIR`: the manager role.
/// Owns the archive; leases (day, shard) units to connecting agents and
/// commits merged days. The archive is byte-identical to a single-process
/// `dpscope measure` of the same parameters.
fn cluster_serve(args: &CommonArgs) {
    let Some(bind) = args.bind.clone() else {
        eprintln!("cluster serve requires --bind ADDR");
        usage();
    };
    let Some(archive) = args.archive.clone() else {
        eprintln!("cluster serve requires --archive DIR");
        usage();
    };
    std::fs::create_dir_all(&archive).expect("create archive dir");
    let path = archive.join(dps_scope::measure::ARCHIVE_FILE);
    let (conn_tx, conn_rx) = std::sync::mpsc::channel();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let accept = spawn_accept_loop(&bind, conn_tx, stop.clone());
    println!("cluster manager on {bind}; waiting for agents…");
    let mut engine = args.stream.then(dps_scope::stream::StreamEngine::new);
    let observer = engine.as_mut().map(|e| e as &mut dyn DayObserver);
    let outcome =
        dps_scope::cluster::serve_observed(conn_rx, cluster_config(args), &path, observer);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    accept.join().expect("accept loop").expect("accept loop io");
    if bind.contains('/') {
        std::fs::remove_file(&bind).ok();
    }
    let outcome = outcome.expect("cluster sweep");
    finish_cluster_run(&archive, &path, &outcome);
    if let Some(engine) = &engine {
        print_stream_summary(engine);
    }
}

/// `dpscope cluster agent --connect ADDR [--name S]`: the worker role.
/// Rebuilds the world the manager's Welcome describes and sweeps leases
/// until drained.
fn cluster_agent(args: &CommonArgs) {
    let Some(addr) = args.connect.clone() else {
        eprintln!("cluster agent requires --connect ADDR");
        usage();
    };
    // The manager may still be binding its socket — or starting slowly on
    // a loaded machine; retry for up to a minute.
    let mut conn = None;
    for _ in 0..600 {
        let attempt = if addr.contains('/') {
            std::os::unix::net::UnixStream::connect(&addr)
                .and_then(|s| dps_scope::cluster::uds_conn(s, CLUSTER_READ_TIMEOUT))
        } else {
            std::net::TcpStream::connect(&addr)
                .and_then(|s| dps_scope::cluster::tcp_conn(s, CLUSTER_READ_TIMEOUT))
        };
        match attempt {
            Ok(c) => {
                conn = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    }
    let Some(conn) = conn else {
        eprintln!("cannot connect to {addr}");
        std::process::exit(1);
    };
    let opts = dps_scope::cluster::WorkerOptions {
        name: args.name.clone().unwrap_or_default(),
        ..Default::default()
    };
    let summary = dps_scope::cluster::run_agent(conn, opts).expect("agent run");
    println!(
        "agent {}: {} leases, {} rows",
        summary.worker, summary.leases, summary.rows
    );
}

/// `dpscope measure --workers N`: forks N local `cluster agent` child
/// processes talking to an in-archive-dir Unix socket, then runs the
/// manager in this process. Same bytes as the single-process sweep.
fn cmd_measure_cluster(args: &CommonArgs, archive: &std::path::Path, path: &std::path::Path) {
    let sock = archive.join("cluster.sock");
    let sock_str = sock.to_str().expect("utf-8 socket path").to_string();
    let (conn_tx, conn_rx) = std::sync::mpsc::channel();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let accept = spawn_accept_loop(&sock_str, conn_tx, stop.clone());
    let exe = std::env::current_exe().expect("current exe");
    let mut children = Vec::new();
    for i in 0..args.workers {
        let child = std::process::Command::new(&exe)
            .args([
                "cluster",
                "agent",
                "--connect",
                &sock_str,
                "--name",
                &format!("local-{i}"),
            ])
            .spawn()
            .expect("spawn local agent");
        children.push(child);
    }
    println!("sweeping with {} local worker agents…", args.workers);
    let mut engine = args.stream.then(dps_scope::stream::StreamEngine::new);
    let observer = engine.as_mut().map(|e| e as &mut dyn DayObserver);
    let outcome = dps_scope::cluster::serve_observed(conn_rx, cluster_config(args), path, observer);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    accept.join().expect("accept loop").expect("accept loop io");
    for mut child in children {
        child.wait().ok();
    }
    std::fs::remove_file(&sock).ok();
    let outcome = outcome.expect("cluster sweep");
    finish_cluster_run(archive, path, &outcome);
    if let Some(engine) = &engine {
        print_stream_summary(engine);
    }
}

/// Writes the provenance sidecar and prints the run summary.
fn finish_cluster_run(
    archive: &std::path::Path,
    path: &std::path::Path,
    outcome: &dps_scope::cluster::ClusterOutcome,
) {
    let sidecar = archive.join(dps_scope::cluster::PROVENANCE_FILE);
    dps_scope::cluster::write_provenance(&sidecar, &outcome.report).expect("write provenance");
    print_archived(
        path,
        &format!(
            " ({} workers, {} leases, {} dead-letters, {} stale)",
            outcome.report.workers_admitted,
            outcome.report.accepted.len(),
            outcome.report.dead_letters,
            outcome.report.stale_rejected,
        ),
    );
    println!("provenance sidecar: {}", sidecar.display());
}

/// `dpscope cluster <serve|agent>` — the two cluster roles.
fn cmd_cluster(args: CommonArgs) {
    match args.rest.first().map(String::as_str) {
        Some("serve") => cluster_serve(&args),
        Some("agent") => cluster_agent(&args),
        _ => {
            eprintln!("cluster requires <serve|agent>");
            usage();
        }
    }
}

/// Human label for an archive page kind (the catalog's `source` id):
/// the five measured sources, the three bookkeeping kinds, and a
/// future-proof `unknown(id)` for anything a newer writer introduced.
fn page_kind_label(id: u8) -> String {
    if let Some(source) = Source::from_index(u32::from(id)) {
        return source.label().to_string();
    }
    match id {
        QUALITY_SOURCE => "quality".to_string(),
        TELEMETRY_SOURCE => "telemetry".to_string(),
        ANALYSIS_SOURCE => "analysis".to_string(),
        other => format!("unknown({other})"),
    }
}

/// `dpscope store <info|verify|cat> <path>` — single-file archive tooling.
fn cmd_store(args: CommonArgs) {
    let (Some(action), Some(raw_path)) = (args.rest.first(), args.rest.get(1)) else {
        eprintln!("store requires <info|verify|cat> <archive-file-or-dir>");
        usage();
    };
    // Accept either the archive file itself or its containing directory.
    let mut path = PathBuf::from(raw_path);
    if path.is_dir() {
        path = path.join(dps_scope::measure::ARCHIVE_FILE);
    }
    let archive = match StoreReader::open_auto(&path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot open {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    match action.as_str() {
        "info" => {
            let catalog = archive.catalog();
            println!("archive: {}", path.display());
            if archive.is_sharded() {
                println!(
                    "layout:  sharded ({} shard files + manifest)",
                    archive.n_shards()
                );
            }
            println!("pages:   {}", catalog.pages.len());
            println!(
                "stored:  {}",
                dps_scope::core::report::human_bytes(catalog.total_stored_bytes())
            );
            println!("dict:    {} strings", archive.dict().len());
            println!(
                "{:<12} {:>6} {:>11} {:>13} {:>12} {:>12}",
                "kind", "days", "first..last", "data points", "stored", "raw"
            );
            // Every page kind present in the catalog gets a row — data
            // sources and bookkeeping kinds alike, and ids this build
            // does not know render as unknown(id) instead of vanishing.
            for (source, st) in catalog.stats().iter().enumerate() {
                if st.days == 0 {
                    continue;
                }
                let id = u8::try_from(source).unwrap_or(u8::MAX);
                println!(
                    "{:<12} {:>6} {:>5}..{:<5} {:>13} {:>12} {:>12}",
                    page_kind_label(id),
                    st.days,
                    st.first_day.unwrap_or(0),
                    st.last_day.unwrap_or(0),
                    st.data_points,
                    dps_scope::core::report::human_bytes(st.stored_bytes),
                    dps_scope::core::report::human_bytes(st.raw_bytes)
                );
            }
            // Per-day sweep quality (coverage, retries, masked days), read
            // from the archive's QUALITY_SOURCE pages.
            let mut quality_store = SnapshotStore::new();
            for &(day, source) in archive.catalog().pages.keys() {
                if source != QUALITY_SOURCE {
                    continue;
                }
                let table = archive
                    .table(day, source)
                    .expect("catalog-listed page reads")
                    .expect("catalog-listed page exists");
                for q in dps_scope::measure::decode_qualities(&table).expect("quality page decodes")
                {
                    quality_store.add_quality(q);
                }
            }
            let mask = dps_scope::core::QualityMask::from_store(
                &quality_store,
                dps_scope::core::DEFAULT_MIN_COVERAGE,
            );
            println!();
            println!(
                "{}",
                dps_scope::core::report::quality_summary(&quality_store, &mask)
            );
            // Telemetry summary, read from the TELEMETRY_SOURCE pages.
            let mut merged = dps_scope::telemetry::Snapshot::default();
            let mut telemetry_days = 0usize;
            for &(day, source) in archive.catalog().pages.keys() {
                if source != TELEMETRY_SOURCE {
                    continue;
                }
                let table = archive
                    .table(day, source)
                    .expect("catalog-listed page reads")
                    .expect("catalog-listed page exists");
                let snapshot =
                    dps_scope::measure::decode_telemetry(&table).expect("telemetry page decodes");
                merged.merge(&snapshot);
                telemetry_days += 1;
            }
            if telemetry_days > 0 {
                let instruments =
                    merged.counters.len() + merged.gauges.len() + merged.histograms.len();
                println!();
                println!(
                    "telemetry: {telemetry_days} day pages, {instruments} instruments \
                     (dump with `dpscope metrics`)"
                );
            }
        }
        "verify" => {
            let report = archive.verify().unwrap_or_else(|e| {
                eprintln!("verify failed: {e}");
                std::process::exit(1);
            });
            println!(
                "{}: {} pages checked, {} ok, {} corrupt",
                path.display(),
                report.pages,
                report.ok,
                report.corrupt.len()
            );
            for (day, source) in &report.corrupt {
                println!("  CORRUPT page (day {day}, source {source})");
            }
            if !report.all_ok() {
                std::process::exit(1);
            }
        }
        "cat" => {
            let source = args.source.unwrap_or(0);
            let cols: Option<Vec<&str>> = args
                .cols
                .as_ref()
                .map(|cs| cs.iter().map(String::as_str).collect());
            let table = match &cols {
                Some(c) => archive.project(args.day, source, c),
                None => archive.table(args.day, source),
            };
            let table = match table {
                Ok(Some(t)) => t,
                Ok(None) => {
                    eprintln!("no page for (day {}, source {source})", args.day);
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("cannot read page: {e}");
                    std::process::exit(1);
                }
            };
            let names = table.schema().names().to_vec();
            println!("{}", names.join("\t"));
            let columns: Vec<&[u32]> = (0..names.len()).map(|c| table.column(c)).collect();
            for row in 0..table.rows() {
                let line: Vec<String> = columns.iter().map(|c| c[row].to_string()).collect();
                println!("{}", line.join("\t"));
            }
        }
        other => {
            eprintln!("unknown store action {other:?}");
            usage();
        }
    }
}

/// `dpscope metrics <path> [--json] [--day N]` — render the telemetry
/// snapshots archived alongside a study's data pages. Without `--day`,
/// every per-day snapshot is merged (counters and histograms add; gauges
/// keep the latest day's level). Output order is sorted by metric name,
/// so same-seed sweeps render byte-identical dumps.
fn cmd_metrics(args: CommonArgs) {
    let json = args.rest.iter().any(|a| a == "--json");
    let Some(raw_path) = args.rest.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("metrics requires <archive-file-or-dir>");
        usage();
    };
    let mut path = PathBuf::from(raw_path);
    if path.is_dir() {
        path = path.join(dps_scope::measure::ARCHIVE_FILE);
    }
    let store = match SnapshotStore::load_archive(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    // `--day 0` is a valid selection, so presence is what matters.
    let day_selected = std::env::args().any(|a| a == "--day");
    let snapshot = if day_selected {
        match store.telemetry(args.day) {
            Some(s) => s.clone(),
            None => {
                eprintln!("no telemetry page for day {}", args.day);
                std::process::exit(1);
            }
        }
    } else {
        store.merged_telemetry()
    };
    if snapshot.is_empty() && !json {
        eprintln!("{}: no telemetry pages archived", path.display());
        std::process::exit(1);
    }
    if json {
        println!("{}", snapshot.to_json());
    } else {
        print!("{}", snapshot.to_text());
    }
    // `--by-worker`: append per-worker provenance counters from the
    // cluster sidecar, as a `worker="…"` label dimension. A separate
    // section, so the default (unlabelled) rendering stays byte-identical
    // with or without the sidecar present.
    if args.rest.iter().any(|a| a == "--by-worker") {
        let sidecar = path
            .parent()
            .unwrap_or_else(|| std::path::Path::new("."))
            .join(dps_scope::cluster::PROVENANCE_FILE);
        match dps_scope::cluster::read_provenance(&sidecar) {
            Ok(rows) => print!("{}", dps_scope::cluster::render_per_worker(&rows)),
            Err(e) => {
                eprintln!("cannot read {}: {e}", sidecar.display());
                std::process::exit(1);
            }
        }
    }
}

/// Opens an archive and replays its persisted analysis checkpoint pages
/// through a fresh [`StreamEngine`], in catalog (day-ascending) order —
/// the same path a resumed sweep takes. Exits with a message if the
/// archive holds no checkpoints (it was measured without `--stream`).
fn replay_stream_engine(path: &std::path::Path) -> (StoreReader, dps_scope::stream::StreamEngine) {
    let archive = match StoreReader::open_auto(path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot open {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let mut engine = dps_scope::stream::StreamEngine::new();
    for &(day, source) in archive.catalog().pages.keys() {
        if source != ANALYSIS_SOURCE {
            continue;
        }
        let table = archive
            .table(day, source)
            .expect("catalog-listed page reads")
            .expect("catalog-listed page exists");
        if let Err(e) = engine.on_resume(day, &table) {
            eprintln!("{}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if engine.days().is_empty() {
        eprintln!(
            "{}: no analysis checkpoints (measure with --stream to create them)",
            path.display()
        );
        std::process::exit(1);
    }
    (archive, engine)
}

/// `dpscope stream status <path> [--json]` — what the streamed analysis
/// currently knows: analysed days, per-provider distinct-touch estimates
/// from the sketches, and flagged attack-onset days.
fn stream_status(path: &std::path::Path, json: bool) {
    let (_, engine) = replay_stream_engine(path);
    let names = engine.provider_names();
    let days = engine.days().to_vec();
    let flags = engine.attack_flags();
    if json {
        let mut providers = Vec::new();
        for (p, name) in names.iter().enumerate() {
            let p = p as u8;
            let series = engine.distinct_series(p);
            let latest = series.last().map_or(0, |&(_, est)| est);
            let fl: Vec<String> = flags
                .iter()
                .filter(|f| f.provider == p)
                .map(|f| {
                    format!(
                        "{{\"day\": {}, \"estimate\": {}, \"baseline\": {}}}",
                        f.day, f.estimate, f.baseline
                    )
                })
                .collect();
            providers.push(format!(
                "{{\"name\": {name:?}, \"distinct\": {}, \"flags\": [{}]}}",
                latest,
                fl.join(", ")
            ));
        }
        println!(
            "{{\"days\": {}, \"first_day\": {}, \"last_day\": {}, \"providers\": [{}]}}",
            days.len(),
            days.first().copied().unwrap_or(0),
            days.last().copied().unwrap_or(0),
            providers.join(", ")
        );
        return;
    }
    println!("archive:   {}", path.display());
    println!(
        "analysed:  {} days ({}..{})",
        days.len(),
        days.first().copied().unwrap_or(0),
        days.last().copied().unwrap_or(0)
    );
    println!("{:<14} {:>10} {:>6}", "provider", "distinct", "flags");
    for (p, name) in names.iter().enumerate() {
        let p = p as u8;
        let latest = engine.distinct_series(p).last().map_or(0, |&(_, est)| est);
        let n_flags = flags.iter().filter(|f| f.provider == p).count();
        println!("{name:<14} {latest:>10} {n_flags:>6}");
    }
    for f in &flags {
        let name = names
            .get(usize::from(f.provider))
            .cloned()
            .unwrap_or_default();
        println!(
            "flag: {name} day {} distinct ~{} (baseline ~{})",
            f.day, f.estimate, f.baseline
        );
    }
}

/// `dpscope stream check <path>` — the equivalence gate: the replayed
/// incremental state must render byte-identically to a full dps-core
/// rescan of the same archive. Exits 1 on any divergence.
fn stream_check(path: &std::path::Path) {
    let (archive, engine) = replay_stream_engine(path);
    let incremental = analysis_json(
        &engine.finalize(),
        &engine.provider_names(),
        &engine.masked_gtld_days(),
    );
    let store = match SnapshotStore::load_archive(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot load {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let out = Scanner::new(&refs)
        .run_store(&archive)
        .expect("archive rescan");
    let mask =
        dps_scope::core::QualityMask::from_store(&store, dps_scope::core::DEFAULT_MIN_COVERAGE);
    let rescan = analysis_json(&out, &refs.names, &mask.masked_gtld_days());
    if incremental == rescan {
        println!(
            "{}: incremental analysis matches full rescan ({} days, {} analysis bytes)",
            path.display(),
            engine.days().len(),
            incremental.len()
        );
    } else {
        eprintln!(
            "{}: DIVERGENCE between streamed state and full rescan\n\
             incremental: {incremental}\n\
             rescan:      {rescan}",
            path.display()
        );
        std::process::exit(1);
    }
}

/// `dpscope stream correlate <path>` — score flagged attack-onset days
/// against the scenario's labelled mass on-demand activations. The
/// scenario parameters must match the ones the archive was measured
/// with (they are not stored in the archive).
fn stream_correlate(args: &CommonArgs, path: &std::path::Path) {
    let (_, engine) = replay_stream_engine(path);
    let params = ScenarioParams {
        seed: args.seed,
        scale: args.scale,
        gtld_days: args.days,
        cc_start_day: args.cc_start,
    };
    let truth = activation_days(params);
    let flags = engine.attack_flags();
    let names = engine.provider_names();
    let c = correlate(&flags, &truth, DEFAULT_TOLERANCE);
    let name = |p: u8| names.get(usize::from(p)).cloned().unwrap_or_default();
    println!(
        "scenario: seed {} scale {} days {} cc-start {} (tolerance ±{} days)",
        args.seed, args.scale, args.days, args.cc_start, c.tolerance
    );
    println!(
        "flags: {} matched, {} unmatched; activations: {} labelled, {} missed",
        c.matched.len(),
        c.unmatched_flags.len(),
        c.activations.len(),
        c.missed.len()
    );
    for f in &c.matched {
        println!(
            "  matched   {} day {} (distinct ~{})",
            name(f.provider),
            f.day,
            f.estimate
        );
    }
    for f in &c.unmatched_flags {
        println!(
            "  unmatched {} day {} (distinct ~{})",
            name(f.provider),
            f.day,
            f.estimate
        );
    }
    for &(p, day) in &c.missed {
        println!("  missed    {} activation day {day}", name(p));
    }
}

/// `dpscope stream <status|check|correlate> <path>` — inspect, verify,
/// or ground-truth-score the incremental analysis checkpoints.
fn cmd_stream(args: CommonArgs) {
    let json = args.rest.iter().any(|a| a == "--json");
    let mut positional = args.rest.iter().filter(|a| !a.starts_with("--"));
    let (Some(action), Some(raw_path)) = (positional.next(), positional.next()) else {
        eprintln!("stream requires <status|check|correlate> <archive-file-or-dir>");
        usage();
    };
    let mut path = PathBuf::from(raw_path);
    if path.is_dir() {
        path = path.join(dps_scope::measure::ARCHIVE_FILE);
    }
    match action.as_str() {
        "status" => stream_status(&path, json),
        "check" => stream_check(&path),
        "correlate" => stream_correlate(&args, &path),
        other => {
            eprintln!("unknown stream action {other:?}");
            usage();
        }
    }
}

fn cmd_analyze(args: CommonArgs) {
    let config = ExperimentConfig {
        seed: args.seed,
        scale: args.scale,
        days: args.days,
        cc_start: args.cc_start,
        stride: args.stride,
        out_dir: args.out.clone(),
        store_dir: args.archive.clone(),
    };
    let ids = if args.rest.is_empty() {
        vec!["all".to_string()]
    } else {
        args.rest.clone()
    };
    let ctx = Context::build(config);
    for id in ids {
        match run(&ctx, &id) {
            Some(text) => println!("{text}"),
            None => {
                eprintln!("unknown experiment {id:?}");
                usage();
            }
        }
    }
}

/// Answer-section renderer shared by the simulated and real-socket dig
/// paths: status line, then one record per line.
fn print_dig_answer(rcode: Rcode, answers: &[Record], suffix: &str) {
    println!(";; status: {rcode}{suffix}");
    for rec in answers {
        println!("{rec}");
    }
}

/// Splits `udp://host:port` / `tcp://host:port` into (is_tcp, addr).
fn parse_server_url(url: &str) -> (bool, &str) {
    if let Some(addr) = url.strip_prefix("udp://") {
        (false, addr)
    } else if let Some(addr) = url.strip_prefix("tcp://") {
        (true, addr)
    } else {
        eprintln!("--server wants udp://host:port or tcp://host:port, got {url:?}");
        usage();
    }
}

/// One DNS exchange over real TCP: length-framed write, framed read.
fn tcp_exchange(addr: &str, query: &[u8]) -> std::io::Result<Vec<u8>> {
    use std::io::{Read as _, Write as _};
    let mut sock = std::net::TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    let len = u16::try_from(query.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "query exceeds 64 KiB")
    })?;
    sock.write_all(&len.to_be_bytes())?;
    sock.write_all(query)?;
    let mut hdr = [0u8; 2];
    sock.read_exact(&mut hdr)?;
    let mut body = vec![0u8; usize::from(u16::from_be_bytes(hdr))];
    sock.read_exact(&mut body)?;
    Ok(body)
}

/// One DNS exchange over real UDP.
fn udp_exchange(addr: &str, query: &[u8]) -> std::io::Result<Vec<u8>> {
    let sock = std::net::UdpSocket::bind("127.0.0.1:0")
        .or_else(|_| std::net::UdpSocket::bind("0.0.0.0:0"))?;
    sock.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    sock.send_to(query, addr)?;
    let mut buf = vec![0u8; 65535];
    let (n, _) = sock.recv_from(&mut buf)?;
    buf.truncate(n);
    Ok(buf)
}

/// `dpscope dig … --server URL`: query a real authoritative server over
/// UDP or TCP, with EDNS0 by default and automatic TCP retry on TC.
fn dig_real(args: &CommonArgs, qname: &Name, qtype: RrType, bufsize: Option<u16>) {
    let Some(url) = &args.server else {
        unreachable!("caller checked --server");
    };
    let (tcp, addr) = parse_server_url(url);
    let id = (args.seed & 0xFFFF) as u16;
    let mut query = Message::query(id, Question::new(qname.clone(), qtype));
    if let Some(size) = bufsize {
        query
            .additionals
            .push(dps_scope::serve::edns::opt_record(size, 0));
    }
    let bytes = query.to_bytes().expect("well-formed query encodes");
    let exchange = |tcp: bool| -> Vec<u8> {
        let res = if tcp {
            tcp_exchange(addr, &bytes)
        } else {
            udp_exchange(addr, &bytes)
        };
        res.unwrap_or_else(|e| {
            eprintln!(";; network error talking to {addr}: {e}");
            std::process::exit(1);
        })
    };
    let mut raw = exchange(tcp);
    let mut resp = Message::parse(&raw).unwrap_or_else(|e| {
        eprintln!(";; malformed response from {addr}: {e:?}");
        std::process::exit(1);
    });
    if resp.header.tc && !tcp {
        println!(";; truncated, retrying over TCP");
        raw = exchange(true);
        resp = Message::parse(&raw).unwrap_or_else(|e| {
            eprintln!(";; malformed TCP response from {addr}: {e:?}");
            std::process::exit(1);
        });
    }
    println!("; <<>> dpscope dig <<>> {qname} {qtype} @{url}");
    print_dig_answer(
        resp.header.rcode,
        &resp.answers,
        &format!(", {} bytes", raw.len()),
    );
}

fn cmd_dig(args: CommonArgs) {
    // dig-style +key=value options ride along in the positional list.
    let mut config = ResolverConfig::default();
    let mut positional = Vec::new();
    let mut bufsize: Option<u16> = Some(1232);
    for arg in &args.rest {
        if let Some(opt) = arg.strip_prefix('+') {
            match opt.split_once('=') {
                Some(("tries", v)) => {
                    config.retries = v.parse().unwrap_or_else(|_| {
                        eprintln!("bad +tries value {v:?}");
                        usage();
                    })
                }
                Some(("timeout", v)) => {
                    let ms: u64 = v.parse().unwrap_or_else(|_| {
                        eprintln!("bad +timeout value {v:?} (milliseconds)");
                        usage();
                    });
                    config.attempt_timeout_us = ms.saturating_mul(1_000);
                }
                Some(("bufsize", v)) => {
                    bufsize = Some(v.parse().unwrap_or_else(|_| {
                        eprintln!("bad +bufsize value {v:?}");
                        usage();
                    }))
                }
                None if opt == "noedns" => bufsize = None,
                _ => {
                    eprintln!(
                        "unknown dig option +{opt} \
                         (want +tries=N, +timeout=MS, +bufsize=N, +noedns)"
                    );
                    usage();
                }
            }
        } else {
            positional.push(arg.clone());
        }
    }
    if positional.len() < 2 {
        eprintln!("dig requires <name> <type>");
        usage();
    }
    let qname: Name = positional[0].parse().expect("valid name");
    let qtype: RrType = positional[1].parse().expect("valid RR type");
    if args.server.is_some() {
        dig_real(&args, &qname, qtype, bufsize);
        return;
    }
    let world = world_for(&args);
    let net = Network::new(args.seed);
    let catalog = world.materialize(&net);
    let mut resolver = Resolver::new(
        &net,
        "172.16.0.53".parse().unwrap(),
        0,
        catalog.root_hints(),
    )
    .with_config(config);
    println!("; <<>> dpscope dig <<>> {qname} {qtype} @day {}", args.day);
    match resolver.resolve(&qname, qtype) {
        Ok(res) => print_dig_answer(
            res.rcode,
            &res.answers,
            &format!(", elapsed: {} µs (virtual)", res.elapsed_us),
        ),
        Err(e) => println!(";; resolution failed: {e} (cause: {})", e.cause().label()),
    }
}

/// `dpscope serve --zones DIR [--udp ADDR] [--tcp ADDR]`: authoritative
/// DNS over real sockets, hardened against hostile input. Runs until
/// stdin reaches EOF (the workspace denies `unsafe`, so a portable pipe
/// close stands in for signal handling), then shuts down cleanly and
/// dumps its telemetry counters.
fn cmd_serve(args: CommonArgs) {
    use std::io::BufRead as _;
    let Some(zones) = args.zones.clone() else {
        eprintln!("serve requires --zones DIR");
        usage();
    };
    let mut opts = dps_scope::serve::ServeOptions::new(zones);
    let parse_addr = |flag: &str, s: &String| -> std::net::SocketAddr {
        s.parse().unwrap_or_else(|_| {
            eprintln!("bad {flag} address {s:?}");
            usage();
        })
    };
    if let Some(u) = &args.udp {
        opts.udp_addr = parse_addr("--udp", u);
    }
    if let Some(t) = &args.tcp {
        opts.tcp_addr = parse_addr("--tcp", t);
    }
    let registry = Registry::new();
    let server = dps_scope::serve::Server::start(opts, &registry).unwrap_or_else(|e| {
        eprintln!("serve: {e}");
        std::process::exit(1);
    });
    println!(
        "serve: listening udp={} tcp={}",
        server.udp_addr(),
        server.tcp_addr()
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    while stdin.lock().read_line(&mut line).is_ok_and(|n| n > 0) {
        line.clear();
    }
    server.shutdown();
    // The supervising process may have dropped our stdout already; a
    // closed pipe must not turn a clean shutdown into a panic.
    use std::io::Write as _;
    let mut out = std::io::stdout();
    let _ = writeln!(out, "serve: shutdown");
    let _ = write!(out, "{}", registry.snapshot().to_text());
}

/// Reads the checked-in corpus for one fuzz target, sorted by file name
/// so runs are deterministic regardless of directory iteration order.
fn load_fuzz_corpus(target: &str) -> Vec<Vec<u8>> {
    let dir = PathBuf::from("crates/fuzz/corpus").join(target);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    paths.iter().filter_map(|p| std::fs::read(p).ok()).collect()
}

/// `dpscope fuzz <target|all> --iters N --seed S`: the deterministic
/// mutation fuzzer over the workspace's untrusted-input decoders. Exits
/// nonzero if any target panics or violates a round-trip invariant, and
/// drops the offending inputs under target/fuzz-artifacts/.
fn cmd_fuzz(args: CommonArgs) {
    let Some(which) = args.rest.first() else {
        eprintln!("fuzz requires <target|all>; targets:");
        for t in dps_scope::fuzz::targets::TARGETS {
            eprintln!("  {:<13} {}", t.name, t.about);
        }
        usage();
    };
    let targets: Vec<&dps_scope::fuzz::targets::Target> = if which == "all" {
        dps_scope::fuzz::targets::TARGETS.iter().collect()
    } else {
        match dps_scope::fuzz::targets::find_target(which) {
            Some(t) => vec![t],
            None => {
                eprintln!("unknown fuzz target {which:?}; targets:");
                for t in dps_scope::fuzz::targets::TARGETS {
                    eprintln!("  {:<13} {}", t.name, t.about);
                }
                std::process::exit(2);
            }
        }
    };
    let mut failed = false;
    for target in targets {
        let corpus = load_fuzz_corpus(target.name);
        let outcome = dps_scope::fuzz::fuzz(target, args.iters, args.seed, &corpus, 8);
        println!(
            "fuzz {:<13} seed {:>6}  {:>8} iters  corpus {:>2}  failures {}",
            target.name,
            args.seed,
            outcome.iters,
            outcome.corpus_size,
            outcome.failures.len()
        );
        for (i, f) in outcome.failures.iter().enumerate() {
            failed = true;
            let hex: String = f.minimised.iter().map(|b| format!("{b:02x}")).collect();
            println!(
                "  FAIL {}: {} (minimised {} bytes: {hex})",
                i,
                f.reason,
                f.minimised.len()
            );
            let dir = PathBuf::from("target/fuzz-artifacts");
            if std::fs::create_dir_all(&dir).is_ok() {
                let path = dir.join(format!("{}-{i}.bin", target.name));
                if std::fs::write(&path, &f.minimised).is_ok() {
                    println!("  artifact: {}", path.display());
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        usage()
    };
    let args = parse_args(rest);
    match command.as_str() {
        "simulate" => cmd_simulate(args),
        "measure" => cmd_measure(args),
        "analyze" => cmd_analyze(args),
        "dig" => cmd_dig(args),
        "store" => cmd_store(args),
        "metrics" => cmd_metrics(args),
        "cluster" => cmd_cluster(args),
        "stream" => cmd_stream(args),
        "serve" => cmd_serve(args),
        "fuzz" => cmd_fuzz(args),
        _ => usage(),
    }
}
