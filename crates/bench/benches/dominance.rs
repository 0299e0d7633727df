//! Dominance hot-path microbenchmark: the hash-map [`pm_porder::Relation`]
//! form vs the bitset-compiled [`pm_porder::CompiledPreference`] form, on
//! the movie-profile workload. CI runs it once as a smoke (`-- --test`);
//! the benchmark's per-layer ladder tracks `porder.dominates_ops_per_s`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use pm_bench::setup::generate_dataset;
use pm_bench::workload::{object_pair_indices, value_pair, WORKLOAD_PREFS};
use pm_bench::Scale;
use pm_datagen::DatasetProfile;
use pm_model::{AttrId, Object, ValueId};
use pm_porder::{CompiledPreference, Preference};

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
    let hash: Vec<&Preference> = dataset.preferences.iter().take(WORKLOAD_PREFS).collect();
    let compiled: Vec<CompiledPreference> = hash.iter().map(|p| p.compile()).collect();
    let pairs = object_pairs(&dataset.objects);
    let values = value_pairs(&dataset.objects);

    let mut group = c.benchmark_group("dominance");
    group.sample_size(30);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.throughput(Throughput::Elements(BATCH as u64));

    group.bench_function("prefers/hash", |b| {
        let rel = hash[0].relation(AttrId::new(0));
        b.iter(|| values.iter().filter(|&&(x, y)| rel.prefers(x, y)).count())
    });
    group.bench_function("prefers/compiled", |b| {
        let rel = compiled[0].relation(AttrId::new(0));
        b.iter(|| values.iter().filter(|&&(x, y)| rel.prefers(x, y)).count())
    });

    group.bench_function("compare/hash", |b| {
        b.iter(|| {
            pairs
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| {
                    hash[i % hash.len()].compare(&dataset.objects[x], &dataset.objects[y]) as usize
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

    // The shape of the monitor's frontier scans: one object prepared once,
    // every other side streamed past it as value codes.
    group.bench_function("prepared/compiled", |b| {
        let candidate = &dataset.objects[0];
        let codes: Vec<u32> = dataset
            .objects
            .iter()
            .cycle()
            .take(BATCH)
            .flat_map(|other| compiled[0].codes(other))
            .collect();
        b.iter(|| {
            let prepared = compiled[0].prepare(candidate);
            codes
                .chunks_exact(compiled[0].arity())
                .map(|other| prepared.compare(other) as usize)
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dominance);
criterion_main!(benches);
