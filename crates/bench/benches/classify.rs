//! Classification-scan throughput: the §3.3 pass over the archive.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dps_core::{CompiledRefs, ProviderRefs, Scanner};
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::{SnapshotStore, Study, StudyConfig};

fn bench(c: &mut Criterion) {
    let params = ScenarioParams {
        seed: 2,
        scale: 0.05,
        gtld_days: 30,
        cc_start_day: 30,
    };
    let mut world = World::imc2016(params);
    let path = std::env::temp_dir().join(format!("dps-bench-classify-{}.dps", std::process::id()));
    std::fs::remove_file(&path).ok();
    Study::new(StudyConfig {
        days: 30,
        cc_start_day: 30,
        stride: 1,
    })
    .run_archived(&mut world, &path)
    .expect("archived study");
    let store = SnapshotStore::load_archive(&path).expect("load archive");
    std::fs::remove_file(&path).ok();
    let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
    let rows: u64 = store
        .scan(dps_measure::Source::Com)
        .map(|(_, t)| t.rows() as u64)
        .sum::<u64>()
        * 3;

    let mut group = c.benchmark_group("classify");
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows));
    group.bench_function("scan_30_days", |b| {
        b.iter(|| Scanner::new(&refs).run(&store).timelines.map.len())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
