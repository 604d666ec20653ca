//! Scoring the detector against ground truth — something the paper could
//! not do on the live Internet, and the main payoff of reproducing it over
//! a simulator: per domain-day, does the methodology attribute use of the
//! right provider, and does the always-on/on-demand split match the
//! scripted behaviour?

use dps_scope::core::peaks::{classify_mode, UseMode};
use dps_scope::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Measures `config` over `world` into a temp-dir archive and loads it.
fn archived_store(world: &mut World, config: StudyConfig) -> SnapshotStore {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dps-method-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(dps_scope::measure::ARCHIVE_FILE);
    Study::new(config).run_archived(world, &path).unwrap();
    let store = SnapshotStore::load_archive(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    store
}

const DAYS: u32 = 130;

fn study() -> (World, SnapshotStore) {
    let params = ScenarioParams {
        seed: 77,
        scale: 0.03,
        gtld_days: DAYS,
        cc_start_day: DAYS,
    };
    let mut world = World::imc2016(params);
    let store = archived_store(
        &mut world,
        StudyConfig {
            days: DAYS,
            cc_start_day: DAYS,
            stride: 1,
        },
    );
    (world, store)
}

/// Ground truth per day: (day, domain) → provider index, gathered by
/// stepping a fresh copy of the world.
fn truth_by_day(params: ScenarioParams) -> HashMap<(u32, u32), u8> {
    let mut world = World::imc2016(params);
    let mut out = HashMap::new();
    for day in 0..DAYS {
        world.advance_to(Day(day));
        for (i, st) in world.domains().iter().enumerate() {
            // Only gTLD zones are measured in this study window (.nl starts
            // at cc_start_day, which is past the horizon here).
            let measured = matches!(st.tld, Tld::Com | Tld::Net | Tld::Org);
            if !measured || !st.alive_on(Day(day)) || st.outage {
                continue;
            }
            if let Some(p) = st.diversion.provider() {
                out.insert((day, i as u32), p.0);
            }
        }
    }
    out
}

#[test]
fn per_domain_day_attribution_is_near_perfect() {
    let (world, store) = study();
    let truth = truth_by_day(world.params);
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let out = Scanner::new(&refs).run(&store);

    // Detected: (day_index, entry, provider) from timelines.
    let mut detected: HashSet<(u32, u32, u8)> = HashSet::new();
    for (&(entry, p), tl) in &out.timelines.map {
        if entry % 2 == 1 {
            continue; // infrastructure SLDs self-reference by design
        }
        for di in 0..tl.any.len() {
            if tl.any.get(di) {
                detected.insert((out.timelines.days[di], entry / 2, p));
            }
        }
    }

    let truth_set: HashSet<(u32, u32, u8)> =
        truth.iter().map(|(&(d, id), &p)| (d, id, p)).collect();

    let tp = detected.intersection(&truth_set).count() as f64;
    let precision = tp / detected.len() as f64;
    let recall = tp / truth_set.len() as f64;
    assert!(
        truth_set.len() > 5_000,
        "truth set too small: {}",
        truth_set.len()
    );
    assert!(precision > 0.995, "precision {precision}");
    assert!(recall > 0.995, "recall {recall}");
}

#[test]
fn always_on_and_on_demand_modes_match_script() {
    let (world, store) = study();
    let params = world.params;
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let out = Scanner::new(&refs).run(&store);

    // Ground truth: per-domain daily "traffic diverted?" flags, reduced to
    // the number of maximal diverted runs.
    let mut fresh = World::imc2016(params);
    let mut diverted_days: HashMap<u32, Vec<bool>> = HashMap::new();
    for day in 0..DAYS {
        fresh.advance_to(Day(day));
        for (i, st) in fresh.domains().iter().enumerate() {
            if st.diversion.diverts_traffic() && st.alive_on(Day(day)) {
                diverted_days
                    .entry(i as u32)
                    .or_insert_with(|| vec![false; DAYS as usize])[day as usize] = true;
            }
        }
    }
    let truth_runs = |id: u32| -> usize {
        let Some(days) = diverted_days.get(&id) else {
            return 0;
        };
        let mut runs = 0;
        let mut inside = false;
        for &d in days {
            if d && !inside {
                runs += 1;
            }
            inside = d;
        }
        runs
    };

    let mut always_on_checked = 0;
    let mut on_demand_checked = 0;
    for (&(entry, _p), tl) in &out.timelines.map {
        if entry % 2 == 1 {
            continue;
        }
        let id = entry / 2;
        let st = &fresh.domains()[id as usize];
        if st.basket.is_some() {
            continue; // basket scripts are exercised elsewhere
        }
        match classify_mode(&tl.asn) {
            UseMode::AlwaysOn => {
                let runs = truth_runs(id);
                assert!(
                    runs <= 1,
                    "domain d{id} classified AlwaysOn but has {runs} truth runs"
                );
                always_on_checked += 1;
            }
            UseMode::OnDemand => {
                let runs = truth_runs(id);
                assert!(
                    runs >= 3,
                    "domain d{id} classified OnDemand but has {runs} truth runs"
                );
                on_demand_checked += 1;
            }
            _ => {}
        }
    }
    assert!(
        always_on_checked > 50,
        "always-on sample: {always_on_checked}"
    );
    assert!(
        on_demand_checked > 3,
        "on-demand sample: {on_demand_checked}"
    );
}

#[test]
fn sedo_outage_day_visible_as_akamai_dip() {
    // Extend past day 266 to include the scripted Sedo DNS incident.
    let params = ScenarioParams {
        seed: 5,
        scale: 0.05,
        gtld_days: 270,
        cc_start_day: 270,
    };
    let mut world = World::imc2016(params);
    let store = archived_store(
        &mut world,
        StudyConfig {
            days: 270,
            cc_start_day: 270,
            stride: 1,
        },
    );
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let out = Scanner::new(&refs).run(&store);
    let akamai = &out.series.provider_any[0];
    let before = akamai[265];
    let outage = akamai[266];
    let after = akamai[267];
    assert!(
        outage < before,
        "dip on the outage day: {before} -> {outage}"
    );
    assert!(
        after >= before - 2,
        "recovery next day: {after} vs {before}"
    );
    // The dip is roughly the Sedo basket size (716 × 0.05 ≈ 36).
    let dip = before - outage;
    assert!((25..=45).contains(&dip), "dip magnitude {dip}");
}

#[test]
fn domain_deletions_end_timelines() {
    let (world, store) = study();
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let out = Scanner::new(&refs).run(&store);
    // Every timeline's observed days must lie within the domain's
    // registered lifetime.
    for (&(entry, _), tl) in out.timelines.map.iter().take(2000) {
        if entry % 2 == 1 {
            continue;
        }
        let st = &world.domains()[(entry / 2) as usize];
        if let Some(first) = tl.any.first() {
            assert!(out.timelines.days[first] >= st.registered.0);
        }
        if let (Some(last), Some(deleted)) = (tl.any.last(), st.deleted) {
            assert!(out.timelines.days[last] < deleted.0);
        }
    }
}
