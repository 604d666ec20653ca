//! The benchmark's own tests: every workload, untraced and traced, on
//! tiny inputs (`--smoke`), with every correctness check, in seconds.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper-550d", "cluster-2w", "serve-udp"];

/// Runs one binary on one workload and returns its last stdout line.
fn run(bin: &str, workload: &str, trace: &str) -> String {
    let work = std::env::temp_dir().join(format!(
        "perfbench-smoke-{workload}-{trace}-{}",
        std::process::id()
    ));
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--smoke", "--work-dir"])
        .arg(&work)
        .output()
        .expect("run benchmark binary");
    std::fs::remove_dir_all(&work).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} trace {trace}: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload} trace {trace}: {last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    last
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let line = run(env!("CARGO_BIN_EXE_perfbench"), workload, "0");
        for (name, unit) in dps_perfbench::END_TO_END {
            let key = format!("\"{name}\": {{\"value\": ");
            assert!(line.contains(&key), "{workload}: no {name}");
            assert!(
                line.contains(&format!("\"unit\": \"{unit}\"")),
                "{workload}: {unit}"
            );
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for workload in WORKLOADS {
        let line = run(env!("CARGO_BIN_EXE_perfbench-traced"), workload, "1");
        for (name, _) in dps_perfbench::per_layer_catalogue() {
            assert!(
                line.contains(&format!("\"{name}\": {{")),
                "{workload}: no {name}"
            );
        }
    }
}

#[test]
fn tracing_needs_the_counting_allocator() {
    let work = std::env::temp_dir().join(format!("perfbench-noalloc-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "serve-udp",
            "--trace",
            "1",
            "--smoke",
            "--work-dir",
        ])
        .arg(&work)
        .output()
        .expect("run benchmark binary");
    std::fs::remove_dir_all(&work).ok();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on failure");
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "serve-udp", "--trace", "2"],
        &["--workload", "serve-udp", "--seconds", "0"],
    ] {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        assert!(dps_perfbench::parse_args(&argv).is_err(), "{args:?}");
    }
}
