//! The measurement pipeline through the caching recursor: `sweep_with_path`
//! over a `RecursorPath` must produce byte-identical snapshot tables to the
//! uncached wire path, and a warm repeat sweep must cost a small fraction
//! of the packets.

use dps_scope::authdns::Resolver;
use dps_scope::columnar::StringDict;
use dps_scope::measure::collector::{RecursorPath, SldInterner, WirePath};
use dps_scope::measure::pipeline::sweep_with_path;
use dps_scope::prelude::*;

#[test]
fn recursor_sweep_matches_wire_sweep_with_fewer_packets() {
    let params = ScenarioParams {
        seed: 61,
        scale: 0.004,
        gtld_days: 10,
        cc_start_day: 10,
    };
    let world = World::imc2016(params);
    let net = Network::new(9);
    let catalog = world.materialize(&net);

    // Uncached wire sweep.
    let mut wire_dict = StringDict::new();
    let mut interner = SldInterner::new();
    let resolver = Resolver::new(&net, "172.16.0.7".parse().unwrap(), 3, catalog.root_hints());
    let mut wire_path = WirePath::new(resolver);
    let before = net.stats().snapshot().sent;
    let wire_page = sweep_with_path(
        &world,
        &mut wire_path,
        Source::Com,
        0,
        &mut wire_dict,
        &mut interner,
    );
    let wire_packets = net.stats().snapshot().sent - before;
    assert!(wire_packets > 0);

    // Cold recursor sweep, then a warm repeat of the same day.
    let recursor = Recursor::new(catalog.root_hints(), RecursorConfig::default());
    let mut rec_path = RecursorPath::new(recursor.worker(&net, "172.16.0.8".parse().unwrap(), 3));
    let mut rec_dict = StringDict::new();
    let mut rec_interner = SldInterner::new();
    recursor.begin_day(Day(0));

    let before = net.stats().snapshot().sent;
    let cold_page = sweep_with_path(
        &world,
        &mut rec_path,
        Source::Com,
        0,
        &mut rec_dict,
        &mut rec_interner,
    );
    let cold_packets = net.stats().snapshot().sent - before;

    let before = net.stats().snapshot().sent;
    let warm_page = sweep_with_path(
        &world,
        &mut rec_path,
        Source::Com,
        0,
        &mut rec_dict,
        &mut rec_interner,
    );
    let warm_packets = net.stats().snapshot().sent - before;

    // Identical observations: the encoded snapshots are byte-for-byte equal.
    let wire_bytes = wire_page.table.to_bytes();
    assert_eq!(wire_bytes, cold_page.table.to_bytes());
    assert_eq!(wire_bytes, warm_page.table.to_bytes());

    // The cache pays for itself: even the cold sweep shares infrastructure,
    // and the warm sweep costs at least 5× less than the uncached wire path.
    assert!(
        cold_packets < wire_packets,
        "cold recursor sweep {cold_packets} vs wire {wire_packets}"
    );
    assert!(
        warm_packets * 5 <= wire_packets,
        "warm recursor sweep {warm_packets} vs wire {wire_packets}"
    );
    assert!(recursor.stats().cache_hits > 0);
}
