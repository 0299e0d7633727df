//! Throughput scaling of the sharded engine (not in the paper): the same
//! synthetic movie workload processed by the single-threaded monitors and by
//! `pm-engine` at 1, 2, 4 and 8 shards.
//!
//! The per-arrival work is a sum of independent per-user frontier updates,
//! so throughput should scale with shards until the fan-out/fan-in overhead
//! or the physical core count dominates.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use pm_bench::setup::generate_dataset;
use pm_bench::Scale;
use pm_core::{Lifetime, Monitor};
use pm_datagen::DatasetProfile;
use pm_engine::{BackendSpec, EngineConfig, ShardedEngine};

/// Objects are fed to the engine in batches of this size; large enough to
/// amortise the broadcast, small enough to keep shards busy concurrently.
const BATCH: usize = 64;

fn bench_engine_shards(c: &mut Criterion) {
    let scale = Scale::smoke();
    let dataset = generate_dataset(&DatasetProfile::movie(), &scale);
    let objects = dataset.objects.clone();

    let mut group = c.benchmark_group("engine_shards_movie");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(objects.len() as u64));

    // Monitor/engine construction and teardown (thread spawn + join for the
    // engine) happen in iter_batched's setup and output-drop, outside the
    // timed region — only stream processing is measured.
    group.bench_function("single_threaded_baseline", |b| {
        b.iter_batched(
            || Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, None),
            |mut monitor| {
                for o in objects.iter().cloned() {
                    monitor.process(o);
                }
                let notifications = monitor.stats().notifications;
                (notifications, monitor)
            },
            BatchSize::LargeInput,
        )
    });

    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded_engine", shards),
            &shards,
            |b, &shards| {
                b.iter_batched(
                    || {
                        ShardedEngine::new(
                            dataset.preferences.clone(),
                            &EngineConfig::new(shards),
                            &BackendSpec::baseline(),
                        )
                    },
                    |engine| {
                        let mut notifications = 0u64;
                        for chunk in objects.chunks(BATCH) {
                            for arrival in engine.process_batch(chunk.to_vec()) {
                                notifications += arrival.target_users.len() as u64;
                            }
                        }
                        (notifications, engine)
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine_shards);
criterion_main!(benches);
