//! Criterion bench for Figures 6 and 7: append-only cost as the number of
//! attributes d varies (2, 3, 4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pm_bench::setup::{build_exact_monitor, generate_dataset};
use pm_bench::Scale;
use pm_core::{Lifetime, Monitor};
use pm_datagen::DatasetProfile;

fn bench_dimensions(c: &mut Criterion) {
    let scale = Scale::smoke();
    let full = generate_dataset(&DatasetProfile::movie(), &scale);
    let mut group = c.benchmark_group("fig6_7_dimensions");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for d in [2usize, 3, 4] {
        let dataset = full.project(d);
        group.bench_with_input(BenchmarkId::new("Baseline", d), &dataset, |b, dataset| {
            b.iter(|| {
                let mut monitor = Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, None);
                for o in dataset.objects.iter().cloned() {
                    monitor.process(o);
                }
                monitor.stats().comparisons
            })
        });
        group.bench_with_input(
            BenchmarkId::new("FilterThenVerify", d),
            &dataset,
            |b, dataset| {
                b.iter(|| {
                    let (mut monitor, _) = build_exact_monitor(dataset, 0.55, Lifetime::UNLIMITED);
                    for o in dataset.objects.iter().cloned() {
                        monitor.process(o);
                    }
                    monitor.stats().comparisons
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dimensions);
criterion_main!(benches);
