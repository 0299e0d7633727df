//! Criterion bench for Figures 4 and 5: cost of processing an append-only
//! object table with Baseline, FilterThenVerify and FilterThenVerifyApprox,
//! on the movie-like and publication-like datasets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pm_bench::setup::{
    build_approx_monitor, build_exact_monitor, default_approx_config, generate_dataset,
};
use pm_bench::Scale;
use pm_core::{Lifetime, Monitor};
use pm_datagen::DatasetProfile;

fn bench_arrival(c: &mut Criterion) {
    let scale = Scale::smoke();
    let mut group = c.benchmark_group("fig4_5_arrival");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for profile in [DatasetProfile::movie(), DatasetProfile::publication()] {
        let dataset = generate_dataset(&profile, &scale);
        group.bench_with_input(
            BenchmarkId::new("Baseline", &profile.name),
            &dataset,
            |b, dataset| {
                b.iter(|| {
                    let mut monitor = Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, None);
                    for o in dataset.objects.iter().cloned() {
                        monitor.process(o);
                    }
                    monitor.stats().comparisons
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("FilterThenVerify", &profile.name),
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
        group.bench_with_input(
            BenchmarkId::new("FilterThenVerifyApprox", &profile.name),
            &dataset,
            |b, dataset| {
                b.iter(|| {
                    let (mut monitor, _) = build_approx_monitor(
                        dataset,
                        0.55,
                        default_approx_config(),
                        Lifetime::UNLIMITED,
                    );
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

criterion_group!(benches, bench_arrival);
criterion_main!(benches);
