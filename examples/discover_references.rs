//! Rediscovering Table 2: run the §3.3 seed-expansion procedure against
//! measurement data only, and compare the result with ground truth.
//!
//! ```sh
//! cargo run --release --example discover_references
//! ```

use dps_scope::core::report;
use dps_scope::prelude::*;
use dps_scope::PROVIDER_KEYWORDS;

fn main() {
    let params = ScenarioParams {
        seed: 1,
        scale: 0.25,
        gtld_days: 60,
        cc_start_day: 60,
    };
    let mut world = World::imc2016(params);

    // Seeds: what an analyst finds by searching AS-to-name data.
    let seeds = seeds_from_registry(world.as_registry(), &PROVIDER_KEYWORDS);
    println!("name-matched seed ASNs:");
    for s in &seeds {
        println!("  {:<14} {:?}", s.name, s.asns);
    }

    // The study commits every day to an archive (here in a temp
    // directory); the analysis reads it back.
    let dir = std::env::temp_dir().join(format!(
        "dps-example-discover-references-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(dps_scope::measure::ARCHIVE_FILE);
    Study::new(StudyConfig {
        days: 60,
        cc_start_day: 60,
        stride: 1,
    })
    .run_archived(&mut world, &path)
    .expect("archived study");
    let store = SnapshotStore::load_archive(&path).expect("load archive");
    std::fs::remove_dir_all(&dir).ok();
    let found = discover(
        &store,
        &seeds,
        &DiscoveryConfig {
            day_stride: 5,
            ..Default::default()
        },
    );

    println!("\ndiscovered references (the paper's Table 2):\n");
    println!("{}", report::table2(&found));

    let truth = ProviderRefs::paper_table2();
    let (diff, exact) = report::table2_comparison(&found, &truth);
    println!("comparison against ground truth ({exact}/9 providers exact):\n{diff}");
}
