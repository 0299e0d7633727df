//! Dominance hot-path microbenchmark: the build-time
//! [`pm_porder::Relation`] form vs the compiled
//! [`pm_porder::CompiledPreference`] form, on the movie-profile workload
//! (group `dominance`); the monitor's indexed frontier updates over the
//! movie population's stream (group `frontier`); and the work one
//! `REGISTER` does on its preference before any monitor sees it (group
//! `relation`). CI runs it once as a smoke (`-- --test`); the benchmark's
//! per-layer ladder tracks `porder.dominates_ops_per_s`,
//! `porder.compile_us_per_pref` and `core.us_per_obj`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use pm_bench::setup::generate_dataset;
use pm_bench::workload::{object_pair_indices, value_pair, WORKLOAD_PREFS};
use pm_bench::Scale;
use pm_core::{Lifetime, Monitor};
use pm_datagen::{Dataset, DatasetProfile};
use pm_model::{AttrId, Object, ValueId};
use pm_porder::{CompiledPreference, HasseDiagram, Preference, Relation};

/// How many comparisons one timed iteration performs.
const BATCH: usize = 8_192;

/// Object pairs cycled by the compare benchmarks.
fn object_pairs(objects: &[Object]) -> Vec<(usize, usize)> {
    (0..BATCH)
        .map(|i| object_pair_indices(i, objects.len()))
        .collect()
}

/// Value pairs (drawn from the first attribute's domain) for raw `prefers`.
fn value_pairs(objects: &[Object]) -> Vec<(ValueId, ValueId)> {
    (0..BATCH).map(|i| value_pair(objects, i)).collect()
}

fn bench_dominance(c: &mut Criterion) {
    let dataset = generate_dataset(&DatasetProfile::movie(), &Scale::smoke());
    let build: Vec<&Preference> = dataset.preferences.iter().take(WORKLOAD_PREFS).collect();
    let compiled: Vec<CompiledPreference> = build.iter().map(|p| p.compile()).collect();
    let pairs = object_pairs(&dataset.objects);
    let values = value_pairs(&dataset.objects);

    let mut group = c.benchmark_group("dominance");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(BATCH as u64));

    group.bench_function("prefers/relation", |b| {
        let rel = build[0].relation(AttrId::new(0));
        b.iter(|| values.iter().filter(|&&(x, y)| rel.prefers(x, y)).count())
    });
    group.bench_function("prefers/compiled", |b| {
        let rel = compiled[0].relation(AttrId::new(0));
        b.iter(|| values.iter().filter(|&&(x, y)| rel.prefers(x, y)).count())
    });

    group.bench_function("compare/relation", |b| {
        b.iter(|| {
            pairs
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| {
                    build[i % build.len()].compare(&dataset.objects[x], &dataset.objects[y])
                        as usize
                })
                .sum::<usize>()
        })
    });
    group.bench_function("compare/compiled", |b| {
        b.iter(|| {
            pairs
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| {
                    compiled[i % compiled.len()].compare(&dataset.objects[x], &dataset.objects[y])
                        as usize
                })
                .sum::<usize>()
        })
    });

    group.finish();
}

/// Alg. 1 and Alg. 4 without a filter layer: every arrival of the movie
/// population's stream updates each user's frontier from its index — and
/// on a window the user's buffer too, with expiry mending from it. One
/// element is one (user, arrival) pair.
fn bench_frontier(c: &mut Criterion) {
    let dataset = generate_dataset(&DatasetProfile::movie(), &Scale::smoke());
    let pairs = (dataset.preferences.len() * dataset.objects.len()) as u64;

    let mut group = c.benchmark_group("frontier");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(pairs));
    for (name, lifetime) in [
        ("history", Lifetime::UNLIMITED),
        ("window", Lifetime::Window(dataset.objects.len() / 4)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut monitor = Monitor::new(&dataset.preferences, lifetime, None);
                monitor.process_batch(&dataset.objects, 1);
                monitor.stats().comparisons
            })
        });
    }
    group.finish();
}

/// The distinct preferences of the `shared_fanout` population: the movie
/// profile with 150 interactions per user, drawn from 64 prototypes (dataset
/// seed 42).
fn shared_fanout_preferences() -> Vec<Preference> {
    let profile = DatasetProfile::movie()
        .with_users(5_000)
        .with_objects(4_000)
        .with_interactions(150)
        .with_distinct_preferences(64, 1.1);
    let mut distinct: Vec<Preference> = Vec::new();
    for preference in Dataset::generate(&profile, 42).preferences {
        if !distinct.contains(&preference) {
            distinct.push(preference);
        }
    }
    distinct
}

/// What a `REGISTER` of one `shared_fanout` preference costs before any
/// monitor sees it: closing the cover edges the wire carries, the
/// fingerprint and the equality check the interner runs on a twin, and the
/// compile a novel preference pays. One element is one preference.
fn bench_relation(c: &mut Criterion) {
    let preferences = shared_fanout_preferences();
    let covers: Vec<Vec<Vec<(ValueId, ValueId)>>> = preferences
        .iter()
        .map(|preference| {
            preference
                .relations()
                .map(|(_, relation)| {
                    let mut edges: Vec<_> = HasseDiagram::of(relation).cover_edges().collect();
                    edges.sort_unstable();
                    edges
                })
                .collect()
        })
        .collect();
    let twins: Vec<Preference> = preferences.clone();

    let mut group = c.benchmark_group("relation");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(preferences.len() as u64));

    group.bench_function("close", |b| {
        b.iter(|| {
            covers
                .iter()
                .map(|rows| {
                    let relations = rows
                        .iter()
                        .map(|edges| Relation::from_pairs(edges.iter().copied()).unwrap())
                        .collect();
                    Preference::from_relations(relations).total_pairs()
                })
                .sum::<usize>()
        })
    });
    group.bench_function("fingerprint", |b| {
        b.iter(|| {
            preferences
                .iter()
                .map(|p| p.fingerprint().to_le_bytes()[0] as usize)
                .sum::<usize>()
        })
    });
    group.bench_function("eq", |b| {
        b.iter(|| {
            preferences
                .iter()
                .zip(&twins)
                .filter(|(p, twin)| p == twin)
                .count()
        })
    });
    group.bench_function("compile", |b| {
        b.iter(|| {
            preferences
                .iter()
                .map(|p| p.compile().total_pairs())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dominance, bench_frontier, bench_relation);
criterion_main!(benches);
