//! The load-bearing equivalence test: the bulk query path (direct world
//! evaluation, used for full-scale sweeps) must produce byte-identical
//! resolutions to the wire path (root → TLD → authoritative over the
//! simulated network) AND to the caching recursor path layered on the
//! wire. If this holds, every full-scale result is as trustworthy as a
//! packet-level run, and the cache never changes what a sweep observes.

use dps_scope::authdns::{DirectResolver, Resolution, Resolver};
use dps_scope::prelude::*;
use dps_scope::recursor::RecursorWorker;

fn world_at(day: u32, seed: u64) -> World {
    let params = ScenarioParams {
        seed,
        scale: 0.004,
        gtld_days: 60,
        cc_start_day: 30,
    };
    let mut world = World::imc2016(params);
    world.advance_to(Day(day));
    world
}

/// The three query paths side by side: bulk, iterative wire resolution
/// and the caching recursor.
struct Paths {
    wire: Resolver,
    cached: RecursorWorker,
    compared: usize,
    sample: Vec<(Name, RrType, Resolution)>,
}

impl Paths {
    /// Resolves `(qname, qtype)` over all three paths and asserts they
    /// agree. Every NOERROR bulk answer to an apex or `www` query must be
    /// owned by the qname itself: the bulk path owns answers by the
    /// qname it was asked, so a qname that parses to another domain's id
    /// would show up here as a foreign owner.
    fn compare(&mut self, world: &World, qname: &Name, qtype: RrType) {
        let bulk = world.resolve(qname, qtype);
        let wire_res = self.wire.resolve(qname, qtype);
        let rec_res = self.cached.resolve(qname, qtype);
        match (bulk, wire_res) {
            (Ok(b), Ok(w)) => {
                assert_eq!(b.rcode, w.rcode, "{qname} {qtype} rcode");
                assert_eq!(b.answers, w.answers, "{qname} {qtype} answers");
                let r = rec_res.unwrap_or_else(|e| {
                    panic!("{qname} {qtype}: recursor failed ({e}) where wire succeeded")
                });
                assert_eq!(b.rcode, r.rcode, "{qname} {qtype} recursor rcode");
                assert_eq!(b.answers, r.answers, "{qname} {qtype} recursor answers");
                if let (Rcode::NoError, Some(first)) = (b.rcode, b.answers.first()) {
                    assert_eq!(&first.name, qname, "{qname} {qtype}: answer owner");
                }
                if self.sample.len() < 50 {
                    self.sample.push((qname.clone(), qtype, r));
                }
                self.compared += 1;
            }
            (Err(_), Err(_)) => self.compared += 1, // outage: both fail
            (b, w) => panic!("{qname} {qtype}: bulk {b:?} vs wire {w:?}"),
        }
    }
}

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

fn compare_all(world: &World, net: &std::sync::Arc<Network>) {
    let catalog = world.materialize(net);
    let wire = Resolver::new(net, "172.16.0.2".parse().unwrap(), 7, catalog.root_hints());
    let recursor = Recursor::new(catalog.root_hints(), RecursorConfig::default());
    let cached: RecursorWorker = recursor.worker(net, "172.16.0.3".parse().unwrap(), 7);
    let mut paths = Paths {
        wire,
        cached,
        compared: 0,
        sample: Vec::new(),
    };

    for tld in dps_scope::ecosystem::MEASURED_TLDS {
        for &entry in world.zone_entries(tld).iter() {
            let apex = world.entry_name(entry);
            let www = apex.prepend("www").unwrap();
            for (qname, qtype) in [
                (&apex, RrType::A),
                (&apex, RrType::Aaaa),
                (&apex, RrType::Ns),
                (&www, RrType::A),
                (&www, RrType::Cname),
            ] {
                paths.compare(world, qname, qtype);
            }
            // Off-list: the zero-padded spelling of a customer label names
            // no domain on the wire, so the bulk path must not answer it
            // as the canonical one.
            if let dps_scope::ecosystem::ZoneEntry::Domain(id) = entry {
                let padded = name(&format!("d0{}.{}", id.0, tld.label()));
                let padded_www = padded.prepend("www").unwrap();
                paths.compare(world, &padded, RrType::A);
                paths.compare(world, &padded, RrType::Ns);
                paths.compare(world, &padded_www, RrType::A);
            }
        }
        // Off-list: one past the last domain id, and its www.
        let beyond = name(&format!("d{}.{}", world.domains().len(), tld.label()));
        paths.compare(world, &beyond, RrType::A);
        paths.compare(world, &beyond.prepend("www").unwrap(), RrType::A);
    }
    // Off-list: names under a TLD the world does not run.
    for unknown in ["d1.zz", "www.d1.zz", "cloudflare.zz", "zz"] {
        paths.compare(world, &name(unknown), RrType::A);
    }
    let Paths {
        compared,
        sample,
        mut cached,
        ..
    } = paths;
    assert!(compared > 1000, "compared {compared} resolutions");

    // Second pass over a sample: the recursor must replay the exact same
    // resolution from cache, without touching the network again.
    let hits_before = recursor.stats().cache_hits;
    let packets_before = net.stats().snapshot().sent;
    for (qname, qtype, first) in &sample {
        let replay = cached.resolve(qname, *qtype).unwrap();
        assert_eq!(first, &replay, "{qname} {qtype}: cache replay differs");
    }
    assert_eq!(
        net.stats().snapshot().sent,
        packets_before,
        "replays sent no packets"
    );
    assert!(recursor.stats().cache_hits >= hits_before + sample.len() as u64);
}

#[test]
fn bulk_equals_wire_on_day_zero() {
    let world = world_at(0, 21);
    let net = Network::new(1);
    compare_all(&world, &net);
}

#[test]
fn bulk_equals_wire_after_anomalies_fired() {
    // Day 5 is inside the March 2015 Wix→Incapsula peak; day 35 is inside
    // the ENOM→Verisign BGP diversion window.
    for day in [5, 35] {
        let world = world_at(day, 22);
        let net = Network::new(2);
        compare_all(&world, &net);
    }
}

#[test]
fn direct_resolver_agrees_with_world_bulk() {
    // The catalog-walking DirectResolver (authdns) must agree with the
    // world's own answer model too.
    let world = world_at(3, 23);
    let net = Network::new(3);
    let catalog = world.materialize(&net);
    let direct = DirectResolver::new(catalog);
    let mut checked = 0;
    for &entry in world.zone_entries(Tld::Com).iter().take(300) {
        let apex = world.entry_name(entry);
        let bulk = world.resolve(&apex, RrType::A);
        let cat = direct.resolve(&apex, RrType::A);
        match (bulk, cat) {
            (Ok(b), Ok(c)) => {
                assert_eq!(b.rcode, c.rcode, "{apex}");
                assert_eq!(b.answers, c.answers, "{apex}");
                checked += 1;
            }
            (Err(_), Err(_)) => {}
            (b, c) => panic!("{apex}: {b:?} vs {c:?}"),
        }
    }
    assert!(checked > 100);
}
