//! Throughput scaling of the sharded engine (not in the paper): the same
//! synthetic movie workload processed by the single-threaded monitors and by
//! `pm-engine` at 1, 2, 4 and 8 shards.
//!
//! The per-arrival work is a sum of independent per-user frontier updates,
//! so throughput should scale with shards until the fan-out/fan-in overhead
//! or the physical core count dominates.
//!
//! The `render` group times the serving path's byte writers on a
//! `shared_fanout`-shaped batch: an `INGEST` reply naming ~2,250 of 5,000
//! users for each of 8 arrivals, and the ~350 per-user `EVENT`s each
//! arrival fans out, encoded once per wire mode as the reactor does.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use pm_bench::setup::generate_dataset;
use pm_bench::Scale;
use pm_core::{Arrival, FrontierDelta, Lifetime, Monitor};
use pm_datagen::DatasetProfile;
use pm_engine::response::{write_event, write_text};
use pm_engine::{BackendSpec, EngineConfig, Response, ShardedEngine, WireMode};
use pm_model::{ObjectId, UserId};

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

/// A `shared_fanout`-shaped `INGEST` result: 8 arrivals, each targeting
/// ~45 % of 5,000 users and changing ~350 users' frontiers (every changed
/// frontier gains the arrival, every other one also loses an older object).
fn shared_fanout_batch() -> Vec<Arrival> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % below
    };
    (0..8u64)
        .map(|k| {
            let object = ObjectId::new(1_000_000 + k);
            let target_users: Vec<UserId> = (0..5_000u32)
                .filter(|_| draw(100) < 45)
                .map(UserId::new)
                .collect();
            let changed: Vec<UserId> = target_users
                .iter()
                .copied()
                .filter(|_| draw(100) < 16)
                .collect();
            let mut deltas = Vec::new();
            for (i, user) in changed.into_iter().enumerate() {
                if i % 2 == 0 {
                    let older = ObjectId::new(draw(1_000_000));
                    deltas.push(FrontierDelta::leave(user, older));
                }
                deltas.push(FrontierDelta::enter(user, object));
            }
            Arrival {
                object,
                target_users,
                deltas,
            }
        })
        .collect()
}

fn bench_render(c: &mut Criterion) {
    let arrivals = shared_fanout_batch();
    let reply = Response::Ingested(arrivals);
    let Response::Ingested(arrivals) = &reply else {
        unreachable!()
    };

    let mut group = c.benchmark_group("render");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.throughput(Throughput::Elements(arrivals.len() as u64));

    let mut out = Vec::new();
    group.bench_function("ingest_reply_text", |b| {
        b.iter(|| {
            out.clear();
            write_text(&reply, &mut out);
            out.len()
        })
    });

    // Per arrival, each changed user's run of deltas becomes one EVENT per
    // wire mode, written into reused buffers.
    let (mut text, mut frame) = (Vec::new(), Vec::new());
    group.bench_function("fan_out_events", |b| {
        b.iter(|| {
            let mut bytes = 0;
            for arrival in arrivals {
                for run in arrival.deltas.chunk_by(|a, b| a.user == b.user) {
                    text.clear();
                    frame.clear();
                    write_event(run[0].user, run, WireMode::Text, &mut text);
                    write_event(run[0].user, run, WireMode::Frame, &mut frame);
                    bytes += text.len() + frame.len();
                }
            }
            bytes
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine_shards, bench_render);
criterion_main!(benches);
