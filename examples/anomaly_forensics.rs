//! Anomaly forensics (§4.4.1): find the big swings in a provider's daily
//! use count and trace them to the third party responsible — the way the
//! paper traced a 1.1M-domain Incapsula peak to Wix.
//!
//! ```sh
//! cargo run --release --example anomaly_forensics
//! ```

use dps_scope::core::attribution::{explain, find_anomalies};
use dps_scope::prelude::*;

fn main() {
    // 80 days is enough to catch the March 2015 Wix↔F5 swing (days 4–6)
    // and the May 2015 plateau onset (day 66).
    let params = ScenarioParams {
        seed: 3,
        scale: 0.3,
        gtld_days: 80,
        cc_start_day: 80,
    };
    let mut world = World::imc2016(params);
    // The study commits every day to an archive (here in a temp
    // directory); the analysis reads it back.
    let dir = std::env::temp_dir().join(format!(
        "dps-example-anomaly-forensics-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(dps_scope::measure::ARCHIVE_FILE);
    Study::new(StudyConfig {
        days: 80,
        cc_start_day: 80,
        stride: 1,
    })
    .run_archived(&mut world, &path)
    .expect("archived study");
    let store = SnapshotStore::load_archive(&path).expect("load archive");
    std::fs::remove_dir_all(&dir).ok();
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let out = Scanner::new(&refs).run(&store);

    let mut explained = 0;
    for (p, name) in refs.names.iter().enumerate() {
        let series = &out.series.provider_any[p];
        let anomalies = find_anomalies(series, 8.0, 20);
        for a in anomalies {
            let day = out.series.days[a.day_index];
            let prev = out.series.days[a.day_index - 1];
            let attribution = explain(&store, &refs, p as u8, prev, day);
            println!(
                "{:<12} {}: Δ{:+}  (+{} joined, -{} left)",
                name,
                Day(day),
                a.delta,
                attribution.joined,
                attribution.left
            );
            for (sld, count) in &attribution.top_ns_slds {
                println!("    shared NS SLD   {sld:<24} ×{count}");
            }
            for (sld, count) in &attribution.top_cname_slds {
                println!("    shared CNAME    {sld:<24} ×{count}");
            }
            if let Some(party) = attribution.dominant_party() {
                println!("    → dominant third party: {party}");
            }
            explained += 1;
        }
    }
    assert!(explained > 0, "the Wix swings should be visible");
    println!("\n{explained} anomalies explained");
}
