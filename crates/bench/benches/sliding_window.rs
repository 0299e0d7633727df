//! Criterion bench for Figures 8 and 9: sliding-window cost as the window
//! size W varies, for BaselineSW, FilterThenVerifySW and
//! FilterThenVerifyApproxSW.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pm_bench::setup::{
    build_approx_monitor, build_exact_monitor, default_approx_config, generate_dataset,
};
use pm_bench::Scale;
use pm_core::{Lifetime, Monitor};
use pm_datagen::DatasetProfile;

fn bench_sliding_window(c: &mut Criterion) {
    let mut scale = Scale::smoke();
    scale.stream_len = 600;
    let dataset = generate_dataset(&DatasetProfile::movie(), &scale);
    let stream = dataset.stream(scale.stream_len);
    let mut group = c.benchmark_group("fig8_9_sliding_window");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for window in [100usize, 200, 400] {
        group.bench_with_input(
            BenchmarkId::new("BaselineSW", window),
            &window,
            |b, &window| {
                b.iter(|| {
                    let mut monitor =
                        Monitor::new(&dataset.preferences, Lifetime::Window(window), None);
                    for o in stream.iter() {
                        monitor.process(o);
                    }
                    monitor.stats().comparisons
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("FilterThenVerifySW", window),
            &window,
            |b, &window| {
                b.iter(|| {
                    let (mut monitor, _) =
                        build_exact_monitor(&dataset, 0.55, Lifetime::Window(window));
                    for o in stream.iter() {
                        monitor.process(o);
                    }
                    monitor.stats().comparisons
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("FilterThenVerifyApproxSW", window),
            &window,
            |b, &window| {
                b.iter(|| {
                    let (mut monitor, _) = build_approx_monitor(
                        &dataset,
                        0.55,
                        default_approx_config(),
                        Lifetime::Window(window),
                    );
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

criterion_group!(benches, bench_sliding_window);
criterion_main!(benches);
