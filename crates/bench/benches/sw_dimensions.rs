//! Criterion bench for Figures 10 and 11: sliding-window cost as the number
//! of attributes d varies, at a fixed window size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pm_bench::setup::{build_exact_monitor, generate_dataset};
use pm_bench::Scale;
use pm_core::{Lifetime, Monitor};
use pm_datagen::DatasetProfile;

fn bench_sw_dimensions(c: &mut Criterion) {
    let mut scale = Scale::smoke();
    scale.stream_len = 600;
    let window = 200;
    let full = generate_dataset(&DatasetProfile::publication(), &scale);
    let mut group = c.benchmark_group("fig10_11_sw_dimensions");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for d in [2usize, 3, 4] {
        let dataset = full.project(d);
        let stream = dataset.stream(scale.stream_len);
        group.bench_with_input(BenchmarkId::new("BaselineSW", d), &dataset, |b, dataset| {
            b.iter(|| {
                let mut monitor =
                    Monitor::new(&dataset.preferences, Lifetime::Window(window), None);
                for o in stream.iter() {
                    monitor.process(o);
                }
                monitor.stats().comparisons
            })
        });
        group.bench_with_input(
            BenchmarkId::new("FilterThenVerifySW", d),
            &dataset,
            |b, dataset| {
                b.iter(|| {
                    let (mut monitor, _) =
                        build_exact_monitor(dataset, 0.55, Lifetime::Window(window));
                    for o in stream.iter() {
                        monitor.process(o);
                    }
                    monitor.stats().comparisons
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sw_dimensions);
criterion_main!(benches);
