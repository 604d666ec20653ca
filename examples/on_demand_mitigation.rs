//! On-demand mitigation, domain's-eye view: watch a single customer turn
//! DDoS protection on and off, and see how the §3.4 methodology classifies
//! the resulting DNS/BGP footprint.
//!
//! ```sh
//! cargo run --release --example on_demand_mitigation
//! ```

use dps_scope::core::peaks::{classify_mode, UseMode};
use dps_scope::ecosystem::{DomainId, ScenarioParams, World};
use dps_scope::prelude::*;

fn describe(world: &World, id: DomainId) {
    let apex = world.domain_name(id);
    let www = apex.prepend("www").unwrap();
    let a = world.resolve(&apex, RrType::A).unwrap();
    let ns = world.resolve(&apex, RrType::Ns).unwrap();
    let w = world.resolve(&www, RrType::A).unwrap();
    let pfx2as = world.pfx2as();

    for rec in &a.answers {
        if let RData::A(ip) = rec.rdata {
            let origin = pfx2as
                .origins(std::net::IpAddr::V4(ip))
                .map(|(o, _)| format!("{:?}", o))
                .unwrap_or_else(|| "unrouted".into());
            println!("    {apex} A {ip}  (origin {origin})");
        }
    }
    for rec in &ns.answers {
        if let RData::Ns(host) = &rec.rdata {
            println!("    {apex} NS {host}");
        }
    }
    let chain = w.cname_chain();
    if chain.is_empty() {
        println!("    {www} → direct A record");
    } else {
        for hop in chain {
            println!("    {www} CNAME {hop}");
        }
    }
}

fn main() {
    let params = ScenarioParams {
        seed: 11,
        scale: 0.3,
        gtld_days: 120,
        cc_start_day: 120,
    };
    let mut world = World::imc2016(params);

    // Find a domain that flips protection several times: advance a copy of
    // the schedule and look for a state change.
    let candidates: Vec<DomainId> = (0..world.domains().len() as u32).map(DomainId).collect();
    let initial: Vec<Diversion> = world.domains().iter().map(|d| d.diversion).collect();

    // Probe the timeline day by day and remember flips.
    let mut flips: std::collections::HashMap<DomainId, Vec<(u32, Diversion)>> =
        std::collections::HashMap::new();
    for day in 0..120u32 {
        world.advance_to(Day(day));
        for &id in &candidates {
            let cur = world.domains()[id.0 as usize].diversion;
            let prev = flips
                .get(&id)
                .and_then(|v| v.last().map(|&(_, d)| d))
                .unwrap_or(initial[id.0 as usize]);
            if cur != prev {
                flips.entry(id).or_default().push((day, cur));
            }
        }
    }
    let (&star, moves) = flips
        .iter()
        .filter(|(id, v)| v.len() >= 3 && world.domains()[id.0 as usize].basket.is_none())
        .max_by_key(|(_, v)| v.len())
        .expect("an on-demand customer exists");

    println!("on-demand customer: {}", world.domain_name(star));
    println!("state changes over 120 days:");
    for (day, div) in moves {
        println!("  day {day:>3} ({}): {div:?}", Day(*day));
    }

    // Show the DNS footprint in the final diverted and undiverted states.
    println!("\nDNS footprint today (day 119):");
    describe(&world, star);

    // Run the real pipeline and show the methodology's verdict.
    let mut world = World::imc2016(params);
    // The study commits every day to an archive (here in a temp
    // directory); the analysis reads it back.
    let dir = std::env::temp_dir().join(format!(
        "dps-example-on-demand-mitigation-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(dps_scope::measure::ARCHIVE_FILE);
    Study::new(StudyConfig {
        days: 120,
        cc_start_day: 120,
        stride: 1,
    })
    .run_archived(&mut world, &path)
    .expect("archived study");
    let store = SnapshotStore::load_archive(&path).expect("load archive");
    std::fs::remove_dir_all(&dir).ok();
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let out = Scanner::new(&refs).run(&store);

    let entry = star.0 * 2;
    for ((e, p), tl) in &out.timelines.map {
        if *e == entry {
            let mode = classify_mode(&tl.asn);
            println!(
                "\nmethodology verdict for provider {}: {:?}",
                refs.names[*p as usize], mode
            );
            println!(
                "  diversion peaks (start, length in days): {:?}",
                tl.asn.runs()
            );
            assert!(matches!(mode, UseMode::OnDemand | UseMode::Ambiguous));
        }
    }
}
