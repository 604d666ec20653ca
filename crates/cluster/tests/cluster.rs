//! End-to-end cluster runs over the loopback transport: byte-identity
//! against the single-process sweep, crash recovery through the
//! dead-letter path, and determinism across worker counts.

use dps_cluster::manager::{serve, ClusterConfig, ClusterOutcome};
use dps_cluster::transport::{loopback_conn, Conn};
use dps_cluster::worker::{run_agent, WorkerOptions, WorkerSummary};
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::{SnapshotStore, Study, StudyConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

static UNIQ: AtomicU64 = AtomicU64::new(0);

fn temp_archive(tag: &str) -> PathBuf {
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dps-cluster-{tag}-{}-{n}.dps", std::process::id()))
}

fn tiny_params(seed: u64) -> ScenarioParams {
    ScenarioParams {
        seed,
        scale: 0.01,
        gtld_days: 4,
        cc_start_day: 2,
    }
}

fn tiny_config(seed: u64) -> ClusterConfig {
    ClusterConfig::for_params(tiny_params(seed))
}

/// Runs a cluster sweep with `n` loopback workers; returns the outcome
/// and each worker's summary.
fn run_cluster(
    config: ClusterConfig,
    path: &std::path::Path,
    worker_opts: Vec<WorkerOptions>,
) -> (
    std::io::Result<ClusterOutcome>,
    Vec<std::io::Result<WorkerSummary>>,
) {
    let (conn_tx, conn_rx) = mpsc::channel::<Conn>();
    let mut agent_threads = Vec::new();
    for opts in worker_opts {
        // Liveness contract: the manager's read timeout must exceed the
        // worker heartbeat interval, so a healthy worker never shows a
        // quiet interval.
        let (server_end, worker_end) = loopback_conn(Duration::from_millis(250));
        conn_tx.send(server_end).unwrap();
        agent_threads.push(std::thread::spawn(move || run_agent(worker_end, opts)));
    }
    drop(conn_tx);
    let outcome = serve(conn_rx, config, path);
    let summaries = agent_threads
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    (outcome, summaries)
}

fn single_process_archive(seed: u64, path: &std::path::Path) {
    let params = tiny_params(seed);
    let mut world = World::imc2016(params);
    let config = StudyConfig {
        days: params.gtld_days,
        cc_start_day: params.cc_start_day,
        stride: 1,
    };
    Study::new(config).run_archived(&mut world, path).unwrap();
}

#[test]
fn cluster_archive_is_byte_identical_across_worker_counts() {
    let seed = 42;
    let reference = temp_archive("ref");
    single_process_archive(seed, &reference);
    let want = std::fs::read(&reference).unwrap();

    for workers in [1usize, 2, 4] {
        let path = temp_archive(&format!("w{workers}"));
        let opts = (0..workers)
            .map(|i| WorkerOptions {
                name: format!("agent-{i}"),
                ..WorkerOptions::default()
            })
            .collect();
        let (outcome, summaries) = run_cluster(tiny_config(seed), &path, opts);
        let outcome = outcome.unwrap();
        for s in summaries {
            let s = s.unwrap();
            assert!(!s.crashed);
        }
        let got = std::fs::read(&path).unwrap();
        assert_eq!(
            got, want,
            "{workers}-worker archive differs from single-process run"
        );
        assert_eq!(outcome.report.stale_rejected, 0);
        assert!(
            !outcome.report.accepted.is_empty(),
            "provenance records accepted leases"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&reference).ok();
}

#[test]
fn worker_crash_mid_sweep_is_recovered_byte_identically() {
    let seed = 7;
    let reference = temp_archive("crash-ref");
    single_process_archive(seed, &reference);
    let want = std::fs::read(&reference).unwrap();

    let path = temp_archive("crash");
    // One agent dies abruptly after its second lease (mid-day); the
    // other sweeps on. The manager must dead-letter the lost lease and
    // finish with the exact same bytes.
    let opts = vec![
        WorkerOptions {
            name: "doomed".into(),
            fail_after_leases: Some(2),
            ..WorkerOptions::default()
        },
        WorkerOptions {
            name: "survivor".into(),
            ..WorkerOptions::default()
        },
    ];
    let (outcome, summaries) = run_cluster(tiny_config(seed), &path, opts);
    let outcome = outcome.unwrap();
    let crashed = summaries
        .into_iter()
        .filter(|s| s.as_ref().is_ok_and(|s| s.crashed))
        .count();
    assert_eq!(crashed, 1, "fault injection fired");
    assert!(
        outcome.report.dead_letters >= 1,
        "lost lease routed through the dead-letter path"
    );
    let got = std::fs::read(&path).unwrap();
    assert_eq!(got, want, "post-crash archive differs");
    // Provenance: the survivor picked up work.
    assert!(outcome
        .report
        .accepted
        .iter()
        .any(|row| row.worker == "survivor"));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&reference).ok();
}

#[test]
fn cluster_resumes_a_partial_archive() {
    let seed = 11;
    let reference = temp_archive("resume-ref");
    single_process_archive(seed, &reference);
    let want = std::fs::read(&reference).unwrap();

    // First: a cluster run over a 2-day prefix of the calendar.
    let path = temp_archive("resume");
    let mut prefix = tiny_config(seed);
    prefix.study.days = 2;
    let (outcome, _) = run_cluster(prefix, &path, vec![WorkerOptions::default()]);
    outcome.unwrap();
    // Then: the full calendar resumes over the committed prefix.
    let (outcome, _) = run_cluster(tiny_config(seed), &path, vec![WorkerOptions::default()]);
    outcome.unwrap();
    let got = std::fs::read(&path).unwrap();
    assert_eq!(got, want, "resumed cluster archive differs");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&reference).ok();
}

#[test]
fn cluster_telemetry_pages_match_single_process() {
    use dps_measure::Source;
    let seed = 13;
    let path = temp_archive("tele");
    let (outcome, _) = run_cluster(
        tiny_config(seed),
        &path,
        vec![WorkerOptions::default(), WorkerOptions::default()],
    );
    outcome.unwrap();
    // The merged archive carries per-day telemetry and data points equal
    // to the single-process study's.
    let reference = temp_archive("tele-ref");
    single_process_archive(seed, &reference);
    let cluster = SnapshotStore::load_archive(&path).unwrap();
    let single = SnapshotStore::load_archive(&reference).unwrap();
    for s in [Source::Com, Source::Nl] {
        assert_eq!(
            cluster.stats(s).data_points,
            single.stats(s).data_points,
            "{s:?}"
        );
    }
    let days: Vec<u32> = cluster.all_telemetry().map(|(d, _)| d).collect();
    assert_eq!(days, vec![0, 1, 2, 3], "one telemetry page per day");
    assert_eq!(
        cluster.merged_telemetry().to_json(),
        single.merged_telemetry().to_json()
    );
    std::fs::remove_file(&reference).ok();
    std::fs::remove_file(&path).ok();
}
