//! Allocation budget of the bulk answer path and of the day commit.
//!
//! Every name the simulated world generates fits `Name`'s inline storage,
//! and each query path owns one answer buffer, so once a path has
//! answered its first row, collecting a row touches no heap at all. These
//! tests pin both facts, so a change to `Name` or to the answer model
//! that moves per-row work back onto the heap fails here rather than only
//! in a benchmark's counters. A commit copies only the dictionary's new
//! tail into the writer, so its cost does not grow with the strings
//! already committed; that is pinned here too.
//!
//! The counting allocator tallies per thread: other tests running in
//! parallel in this binary cannot disturb a count.

use dps_scope::columnar::{Schema, StringDict, Table, TableBuilder};
use dps_scope::ecosystem::ZoneEntry;
use dps_scope::measure::collector::{collect_raw, source_entries};
use dps_scope::measure::observation::entry_code;
use dps_scope::measure::{BulkPath, SOURCES};
use dps_scope::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    /// Allocations and reallocations made by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts into [`ALLOCS`].
struct PerThreadCounting;

impl PerThreadCounting {
    fn count() {
        // `try_with`: a thread's last frees can run after its locals are
        // destroyed; those go uncounted rather than panicking.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result; the only other work is bumping a
// const-initialised thread-local `Cell`, which neither allocates nor
// panics. The impl therefore upholds `GlobalAlloc`'s contract exactly as
// `System` does. The workspace denies `unsafe_code`; this test-only
// allocator is the waiver, as in the benchmark's traced binary.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for PerThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PerThreadCounting = PerThreadCounting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Every entry of every swept list, in sweep order.
fn all_entries(world: &World) -> Vec<ZoneEntry> {
    SOURCES
        .iter()
        .flat_map(|&source| source_entries(world, source).to_vec())
        .collect()
}

#[test]
fn collect_raw_allocates_nothing_per_row_after_warm_up() {
    let mut world = World::imc2016(ScenarioParams::tiny(2016));
    // Day 0, and a late day on which domains have registered, been
    // deleted and switched providers.
    for day in [0, 45] {
        world.advance_to(Day(day));
        let pfx2as = world.pfx2as();
        let entries = all_entries(&world);
        let (warm, rest) = entries.split_first().expect("a non-empty sweep");

        let mut path = BulkPath::new(&world);
        let apex = world.entry_name(*warm);
        black_box(collect_raw(&mut path, &apex, entry_code(*warm), &pfx2as));

        // The counter is live on this thread.
        let probe = allocs();
        black_box(Box::new(day));
        assert_eq!(allocs(), probe + 1);

        let (mut aliased, mut delegated) = (0, 0);
        let before = allocs();
        for &entry in rest {
            let apex = world.entry_name(entry);
            let row = black_box(collect_raw(&mut path, &apex, entry_code(entry), &pfx2as));
            aliased += usize::from(row.cnames[0].is_some());
            delegated += usize::from(row.ns[0].is_some());
        }
        let made = allocs() - before;

        assert_eq!(
            made,
            0,
            "day {day}: {made} allocations over {} rows",
            rest.len()
        );
        // The sweep really exercised CNAME chains and NS answers.
        assert!(rest.len() > 1000, "day {day}: {} rows", rest.len());
        assert!(
            aliased > 0 && delegated > 0,
            "day {day}: {aliased} {delegated}"
        );
    }
}

/// `<first label's prefix letter>4294967295.<rest>`: the name the world
/// would generate in place of `name` for the largest domain id (`d<id>`
/// apexes and CNAME hops, `e<id>` second hops).
fn for_largest_id(name: &Name) -> Name {
    let first = name.labels().next().expect("not the root");
    let prefix = char::from(first[0]);
    let parent = name.parent().expect("not the root");
    parent.prepend(&format!("{prefix}4294967295")).unwrap()
}

fn assert_inline(name: &Name, what: &str) {
    assert!(
        name.wire_len() <= Name::INLINE_CAPACITY,
        "{what} {name} is {} octets, over the inline capacity {}",
        name.wire_len(),
        Name::INLINE_CAPACITY
    );
}

#[test]
fn every_generated_name_fits_inline() {
    let world = World::imc2016(ScenarioParams::tiny(2016));
    let (mut hosts, mut hops) = (0, 0);
    for entry in all_entries(&world) {
        let apex = world.entry_name(entry);
        assert_inline(&apex, "entry name");
        if matches!(entry, ZoneEntry::Domain(_)) {
            assert_inline(&for_largest_id(&apex), "largest-id apex");
        }
        let www = apex.prepend("www").unwrap();
        assert_inline(&www, "www name");
        if let Ok(res) = world.resolve(&apex, RrType::Ns) {
            for host in res.records_of(RrType::Ns).filter_map(|r| match &r.rdata {
                RData::Ns(h) => Some(h),
                _ => None,
            }) {
                assert_inline(host, "NS host");
                hosts += 1;
            }
        }
        if let Ok(res) = world.resolve(&www, RrType::A) {
            for hop in res.cname_chain() {
                assert_inline(hop, "CNAME hop");
                assert_inline(&for_largest_id(hop), "largest-id CNAME hop");
                hops += 1;
            }
        }
    }
    assert!(hosts > 0 && hops > 0, "{hosts} NS hosts, {hops} CNAME hops");
    // The longest of them all, spelled out.
    let longest: Name = "d4294967295.compute.amazonaws.com".parse().unwrap();
    assert_eq!(longest.wire_len(), 35);
    assert_inline(&longest, "longest generated name");
}

/// A fresh temp directory for one commit test.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dps-alloc-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn day_table(day: u32) -> Table {
    let mut b = TableBuilder::new(Schema::new(&["day", "entry"]));
    b.push_row(&[day, 7]);
    b.finish()
}

/// A dictionary of `n` strings beyond the reserved empty one.
fn dict_of(n: usize) -> StringDict {
    let mut dict = StringDict::new();
    for i in 0..n {
        dict.intern(&format!("d{i}.example"));
    }
    dict
}

/// Allocations made by a commit that adds a page but no string, once
/// `committed` strings are durable.
fn commit_allocs(committed: usize) -> u64 {
    let dir = temp_dir(&format!("commit-{committed}"));
    let path = dir.join("archive.dps");
    let dict = dict_of(committed);
    let mut writer = StoreWriter::create_store(&path, 1, None).unwrap();
    writer.append_table(0, 0, &day_table(0), 1).unwrap();
    writer.commit(&dict).unwrap();
    writer.append_table(1, 0, &day_table(1), 1).unwrap();
    let before = allocs();
    writer.commit(&dict).unwrap();
    let made = allocs() - before;
    drop(writer);
    std::fs::remove_dir_all(&dir).ok();
    made
}

#[test]
fn a_commit_costs_nothing_per_committed_string() {
    let small = commit_allocs(10);
    let large = commit_allocs(10_000);
    assert_eq!(small, large, "10 strings: {small}, 10,000 strings: {large}");
}

/// After several commits, and after a resume, the writer's dictionary is
/// the caller's, for a single file and for a sharded store.
#[test]
fn the_writer_dictionary_tracks_the_callers_across_commits_and_resume() {
    for shards in [1, 3] {
        let dir = temp_dir(&format!("dict-{shards}"));
        let path = dir.join("archive.dps");
        let mut dict = StringDict::new();
        let mut writer = StoreWriter::create_store(&path, shards, None).unwrap();
        for day in 0..4u32 {
            for i in 0..day * 3 {
                dict.intern(&format!("d{day}-{i}.example"));
            }
            writer.append_table(day, 0, &day_table(day), 1).unwrap();
            writer.commit(&dict).unwrap();
            assert_eq!(
                writer.dict().to_bytes(),
                dict.to_bytes(),
                "shards {shards}, day {day}"
            );
        }
        drop(writer);
        let writer = StoreWriter::resume_or_create(&path, shards, None).unwrap();
        assert_eq!(
            writer.dict().to_bytes(),
            dict.to_bytes(),
            "shards {shards}, resumed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
