//! Chaos-engineering integration: supervised wire sweeps under scripted
//! fault schedules must (a) recover coverage and agree byte-for-byte with
//! a healthy-network snapshot, (b) stay seed-reproducible, and (c) record
//! unrecoverable days as low-coverage `DayQuality` cells that the growth
//! analysis masks instead of mistaking for a provider exodus.

use dps_scope::authdns::{Resolver, ResolverConfig};
use dps_scope::columnar::StringDict;
use dps_scope::core::{growth, DEFAULT_MIN_COVERAGE};
use dps_scope::measure::collector::{SldInterner, WirePath};
use dps_scope::measure::pipeline::{append_day, sweep_with_path, sweep_with_path_supervised};
use dps_scope::measure::snapshot::UNIQUE_KEY_COLUMN;
use dps_scope::measure::{SourcePage, SweepMetrics};
use dps_scope::prelude::*;
use dps_scope::telemetry::Registry;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dps-chaos-{tag}-{}.dps", std::process::id()))
}

/// A fresh single-file archive at `path` for day-by-day commits.
fn create_archive(path: &std::path::Path) -> StoreWriter {
    std::fs::remove_file(path).ok();
    StoreWriter::create_store(path, 1, Some(UNIQUE_KEY_COLUMN)).expect("create archive")
}

/// One supervised `.com` sweep of `world`'s current day over a fresh
/// network running `schedule`, interned into `dict`. When `registry` is
/// given, the network, health tracker and supervisor all publish
/// telemetry into it (mirroring `dpscope measure --chaos`).
#[allow(clippy::too_many_arguments)]
fn supervised_sweep(
    world: &World,
    schedule: Option<ChaosSchedule>,
    net_seed: u64,
    day: u32,
    passes: u32,
    dict: &mut StringDict,
    interner: &mut SldInterner,
    registry: Option<&Registry>,
) -> SourcePage {
    let net = match registry {
        Some(r) => Network::with_telemetry(net_seed, r),
        None => Network::new(net_seed),
    };
    if let Some(s) = schedule {
        net.set_chaos(s);
    }
    let catalog = world.materialize(&net);
    let mut health = HealthTracker::new(HealthConfig::default());
    if let Some(r) = registry {
        health = health.with_telemetry(r);
    }
    let health = Arc::new(health);
    let resolver = Resolver::new(
        &net,
        "172.16.0.7".parse().unwrap(),
        11,
        catalog.root_hints(),
    )
    .with_config(ResolverConfig::resilient())
    .with_health(health);
    let mut path = WirePath::new(resolver);
    let config = SupervisorConfig {
        retry_passes: passes,
        ..SupervisorConfig::default()
    };
    let metrics = registry.map(SweepMetrics::new).unwrap_or_default();
    sweep_with_path_supervised(
        world,
        &mut path,
        Source::Com,
        day,
        dict,
        interner,
        &config,
        &metrics,
    )
}

fn chaos_schedule() -> ChaosSchedule {
    // A 1.5 s total blackout at the start of the sweep plus 15% loss for
    // the whole day — the ISSUE's scripted outage scenario.
    ChaosSchedule::parse("blackout@0..1500ms; degrade@0..inf@loss=0.15").unwrap()
}

/// Under a scripted blackout plus 15% loss, the supervisor's retry passes
/// recover full coverage and the recovered snapshot is byte-identical to
/// one taken over a healthy network: faults cost time, never data.
#[test]
fn chaotic_sweep_recovers_and_matches_healthy_snapshot() {
    let mut world = World::imc2016(ScenarioParams {
        seed: 31,
        scale: 0.004,
        gtld_days: 3,
        cc_start_day: 3,
    });
    world.advance_to(Day(0));

    // Healthy baseline: a plain unsupervised wire sweep.
    let net = Network::new(5);
    let catalog = world.materialize(&net);
    let resolver = Resolver::new(
        &net,
        "172.16.0.7".parse().unwrap(),
        11,
        catalog.root_hints(),
    );
    let mut path = WirePath::new(resolver);
    let mut interner = SldInterner::new();
    let healthy = sweep_with_path(
        &world,
        &mut path,
        Source::Com,
        0,
        &mut StringDict::new(),
        &mut interner,
    );

    // Chaotic run, supervised.
    let mut interner = SldInterner::new();
    let chaotic = supervised_sweep(
        &world,
        Some(chaos_schedule()),
        5,
        0,
        3,
        &mut StringDict::new(),
        &mut interner,
        None,
    );
    let q = chaotic.quality;

    assert!(q.coverage() >= 0.99, "coverage {}", q.coverage());
    assert_eq!(q.failed, 0, "every dead-lettered name recovered");
    assert!(q.retried > 0, "the chaos schedule actually bit");
    assert!(q.causes.timeouts > 0, "blackout+loss show up as timeouts");
    assert!(q.hedges > 0, "stragglers were hedged");

    assert_eq!(healthy.table.rows(), chaotic.table.rows());
    assert_eq!(
        healthy.table.to_bytes(),
        chaotic.table.to_bytes(),
        "recovered snapshot diverged from the healthy one"
    );
}

/// Two sweeps with the same world seed, network seed and chaos schedule
/// produce byte-identical archives — quality records, telemetry and all.
#[test]
fn same_seed_chaos_sweeps_are_byte_identical() {
    let mut archives = Vec::new();
    for run in 0..2 {
        let mut world = World::imc2016(ScenarioParams {
            seed: 31,
            scale: 0.003,
            gtld_days: 2,
            cc_start_day: 2,
        });
        let path = temp_path(&format!("det-{run}"));
        let mut writer = create_archive(&path);
        let mut dict = StringDict::new();
        let mut interner = SldInterner::new();
        for day in 0..2 {
            world.advance_to(Day(day));
            let page = supervised_sweep(
                &world,
                Some(chaos_schedule()),
                40 + u64::from(day),
                day,
                2,
                &mut dict,
                &mut interner,
                None,
            );
            append_day(
                &mut writer,
                &dict,
                day,
                vec![page],
                Default::default(),
                None,
            )
            .expect("commit day");
        }
        drop(writer);
        archives.push(std::fs::read(&path).expect("read archive"));
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(
        archives[0], archives[1],
        "same seed + schedule must replay identically"
    );
}

/// Two same-seed chaos sweeps with full telemetry wiring render
/// byte-identical `metrics --json` output — both per day and merged —
/// and archive byte-identically, telemetry pages included.
#[test]
fn same_seed_chaos_telemetry_renders_identically() {
    let mut runs = Vec::new();
    for run in 0..2 {
        let mut world = World::imc2016(ScenarioParams {
            seed: 31,
            scale: 0.003,
            gtld_days: 2,
            cc_start_day: 2,
        });
        let path = temp_path(&format!("telemetry-{run}"));
        let mut writer = create_archive(&path);
        let mut dict = StringDict::new();
        let mut interner = SldInterner::new();
        for day in 0..2 {
            world.advance_to(Day(day));
            // One registry per day, like `dpscope measure --chaos`: each
            // day's telemetry page is a self-contained snapshot.
            let registry = Registry::new();
            let page = supervised_sweep(
                &world,
                Some(chaos_schedule()),
                40 + u64::from(day),
                day,
                2,
                &mut dict,
                &mut interner,
                Some(&registry),
            );
            append_day(
                &mut writer,
                &dict,
                day,
                vec![page],
                registry.snapshot(),
                None,
            )
            .expect("commit day");
        }
        drop(writer);
        let store = SnapshotStore::load_archive(&path).expect("load archive");
        let per_day: Vec<String> = (0..2)
            .map(|d| store.telemetry(d).expect("day telemetry").to_json())
            .collect();
        let merged = store.merged_telemetry();
        assert!(
            merged
                .counters
                .get("net.packets.sent")
                .copied()
                .unwrap_or(0)
                > 0,
            "network telemetry flowed"
        );
        assert!(
            merged.counters.get("sweep.attempted").copied().unwrap_or(0) > 0,
            "supervisor telemetry flowed"
        );
        let bytes = std::fs::read(&path).expect("read archive");
        std::fs::remove_file(&path).ok();
        runs.push((per_day, merged.to_json(), bytes));
    }
    assert_eq!(runs[0].0, runs[1].0, "per-day metrics JSON diverged");
    assert_eq!(runs[0].1, runs[1].1, "merged metrics JSON diverged");
    assert_eq!(runs[0].2, runs[1].2, "archives with telemetry diverged");
}

/// A healthy sweep and a chaotic sweep over the same world disagree in
/// their chaos-facing telemetry (degraded packets, drops, retries) while
/// producing byte-identical data pages: faults show up in the metrics,
/// never in the measurements.
#[test]
fn chaos_telemetry_diverges_while_data_pages_match() {
    let mut world = World::imc2016(ScenarioParams {
        seed: 31,
        scale: 0.004,
        gtld_days: 3,
        cc_start_day: 3,
    });
    world.advance_to(Day(0));

    let healthy_reg = Registry::new();
    let mut interner = SldInterner::new();
    let healthy = supervised_sweep(
        &world,
        None,
        5,
        0,
        3,
        &mut StringDict::new(),
        &mut interner,
        Some(&healthy_reg),
    );

    let chaos_reg = Registry::new();
    let mut interner = SldInterner::new();
    let chaotic = supervised_sweep(
        &world,
        Some(chaos_schedule()),
        5,
        0,
        3,
        &mut StringDict::new(),
        &mut interner,
        Some(&chaos_reg),
    );

    let h = healthy_reg.snapshot();
    let c = chaos_reg.snapshot();
    let counter =
        |s: &dps_scope::telemetry::Snapshot, name: &str| s.counters.get(name).copied().unwrap_or(0);

    assert_eq!(counter(&h, "net.chaos.degraded"), 0, "healthy run degraded");
    assert!(counter(&c, "net.chaos.degraded") > 0, "chaos never bit");
    assert!(
        counter(&c, "net.packets.dropped") + counter(&c, "net.packets.blackholed")
            > counter(&h, "net.packets.dropped") + counter(&h, "net.packets.blackholed"),
        "chaos run lost no more packets than the healthy one"
    );
    assert!(
        counter(&c, "sweep.retries") > counter(&h, "sweep.retries"),
        "chaos run retried no more than the healthy one"
    );

    assert_eq!(
        healthy.table.to_bytes(),
        chaotic.table.to_bytes(),
        "telemetry diverged AND took the data with it"
    );
}

/// A day-long total outage cannot be recovered; it must surface as a
/// zero-coverage `DayQuality` record, be gated by the quality mask, and be
/// bridged (not counted as an exodus) by the masked growth analysis.
#[test]
fn full_outage_day_is_recorded_and_masked() {
    let mut world = World::imc2016(ScenarioParams {
        seed: 32,
        scale: 0.002,
        gtld_days: 3,
        cc_start_day: 3,
    });
    let path = temp_path("outage");
    let mut writer = create_archive(&path);
    let mut dict = StringDict::new();
    let mut interner = SldInterner::new();
    for day in 0..3 {
        world.advance_to(Day(day));
        let schedule = (day == 1).then(|| ChaosSchedule::new().blackout(None, 0, u64::MAX));
        let page = supervised_sweep(&world, schedule, 60, day, 1, &mut dict, &mut interner, None);
        append_day(
            &mut writer,
            &dict,
            day,
            vec![page],
            Default::default(),
            None,
        )
        .expect("commit day");
    }
    drop(writer);
    let store = SnapshotStore::load_archive(&path).expect("load archive");
    std::fs::remove_file(&path).ok();

    let outage = store.quality(1, Source::Com).expect("day 1 quality");
    assert_eq!(
        outage.coverage(),
        0.0,
        "nothing resolved through a blackout"
    );
    assert_eq!(outage.failed, outage.attempted);
    assert!(outage.causes.timeouts > 0);
    assert!(outage.breaker_trips > 0, "every server's breaker tripped");
    for day in [0, 2] {
        let q = store
            .quality(day, Source::Com)
            .expect("healthy-day quality");
        assert_eq!(q.failed, 0, "day {day}");
    }

    let mask = QualityMask::from_store(&store, DEFAULT_MIN_COVERAGE);
    assert!(mask.is_masked(1, Source::Com));
    assert!(!mask.is_masked(0, Source::Com));
    assert_eq!(mask.masked_gtld_days(), vec![1]);

    // Growth over the resolved-row counts: unmasked analysis sees a
    // day-long trough to zero; the masked analysis bridges it.
    let days: Vec<u32> = vec![0, 1, 2];
    let series: Vec<u32> = days
        .iter()
        .map(|&d| {
            let t = store.table(d, Source::Com).expect("table");
            let failed: u32 = t
                .column_by_name("failed")
                .expect("failed column")
                .iter()
                .sum();
            t.rows() as u32 - failed
        })
        .collect();
    assert_eq!(series[1], 0);
    assert!(series[0] > 0);

    let config = growth::GrowthConfig {
        median_window: 1,
        clean_anomalies: false,
        ..growth::GrowthConfig::default()
    };
    let unmasked = growth::analyze(&days, &series, &config);
    let masked = growth::analyze_masked(&days, &series, &config, &mask.masked_days(Source::Com));
    assert_eq!(
        unmasked.cleaned[1], 0.0,
        "unmasked analysis keeps the trough"
    );
    assert!(
        masked.cleaned[1] > 0.9 * f64::from(series[0]),
        "masked analysis bridges the outage: {}",
        masked.cleaned[1]
    );
    assert_eq!(masked.masked_days, vec![1]);
    assert_eq!(masked.raw[1], 0.0, "raw keeps the true measurement");
}
