//! Full-fidelity measurement over a faulty network: materialise the world
//! into real zones + authoritative servers on the simulated UDP fabric,
//! then sweep it with the iterative resolver under increasing packet loss
//! — smoltcp-style fault injection applied to the whole pipeline.
//!
//! ```sh
//! cargo run --release --example lossy_network
//! ```

use dps_scope::authdns::{Resolver, ResolverConfig};
use dps_scope::columnar::StringDict;
use dps_scope::measure::collector::{SldInterner, WirePath};
use dps_scope::measure::pipeline::sweep_with_path;
use dps_scope::prelude::*;

fn main() {
    let params = ScenarioParams {
        seed: 5,
        scale: 0.005,
        gtld_days: 10,
        cc_start_day: 10,
    };
    let world = World::imc2016(params);

    for loss in [0.0, 0.10, 0.25, 0.40] {
        let net = Network::new(99);
        net.set_faults(FaultProfile {
            loss,
            corrupt: loss / 2.0,
            ..FaultProfile::default()
        });
        let catalog = world.materialize(&net);

        let resolver = Resolver::new(
            &net,
            "172.16.0.10".parse().unwrap(),
            1,
            catalog.root_hints(),
        )
        .with_config(ResolverConfig {
            retries: 6,
            ..Default::default()
        });
        let mut path = WirePath::new(resolver);

        let mut dict = StringDict::new();
        let mut interner = SldInterner::new();
        let page = sweep_with_path(&world, &mut path, Source::Com, 0, &mut dict, &mut interner);

        let table = page.table;
        let failed: u32 = table.column_by_name("failed").unwrap().iter().sum();
        let stats = net.stats().snapshot();
        println!(
            "loss {:>4.0}%: {:>4} names swept, {:>3} failed ({:.1}%), {} datagrams sent, {} dropped, {} corrupted",
            loss * 100.0,
            table.rows(),
            failed,
            100.0 * f64::from(failed) / table.rows() as f64,
            stats.sent,
            stats.dropped,
            stats.corrupted,
        );
    }
    println!("\nretries + per-attempt timeouts keep the sweep usable well past 25% loss.");
}
