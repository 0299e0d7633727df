//! Component microbenchmarks (not in the paper): transitive-closure
//! insertion, Hasse-diagram construction, the compiled similarity measures,
//! dominance checks and approximate-relation construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pm_bench::setup::generate_dataset;
use pm_bench::Scale;
use pm_cluster::{approx_common_relation, ApproxConfig, ExactMeasure};
use pm_datagen::DatasetProfile;
use pm_model::{AttrId, ValueId};
use pm_porder::{CompiledRelation, HasseDiagram, Relation};

fn chain_relation(n: u32) -> Relation {
    Relation::from_pairs((0..n - 1).map(|i| (ValueId::new(i), ValueId::new(i + 1)))).unwrap()
}

fn bench_relation_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_relation");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n in [16u32, 64, 128] {
        group.bench_with_input(BenchmarkId::new("closure_chain_insert", n), &n, |b, &n| {
            b.iter(|| chain_relation(n).len())
        });
        let rel = chain_relation(n);
        group.bench_with_input(BenchmarkId::new("hasse_reduction", n), &rel, |b, rel| {
            b.iter(|| HasseDiagram::of(rel).edge_count())
        });
    }
    group.finish();
}

fn bench_similarity_and_dominance(c: &mut Criterion) {
    let scale = Scale::smoke();
    let dataset = generate_dataset(&DatasetProfile::movie(), &scale);
    let a = &dataset.preferences[0];
    let b2 = &dataset.preferences[1];
    // Both preferences compiled over the population's per-attribute value
    // universes, each relation with its Hasse weights: the form the
    // clustering loop measures.
    let compiled: Vec<Vec<(CompiledRelation, Vec<f64>)>> = [a, b2]
        .iter()
        .map(|pref| {
            pref.relations()
                .map(|(attr, rel)| {
                    let mut universe: Vec<ValueId> = dataset
                        .preferences
                        .iter()
                        .flat_map(|p| p.relation(attr).values().iter().copied())
                        .collect();
                    universe.sort_unstable();
                    universe.dedup();
                    let compiled = CompiledRelation::compile_with_universe(rel, &universe);
                    let weights = compiled.value_weights();
                    (compiled, weights)
                })
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("micro_similarity");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for measure in ExactMeasure::ALL {
        group.bench_function(measure.name(), |bench| {
            bench.iter(|| {
                compiled[0]
                    .iter()
                    .zip(&compiled[1])
                    .map(|((ca, wa), (cb, wb))| measure.compiled_attr_similarity(ca, wa, cb, wb))
                    .sum::<f64>()
            })
        });
    }
    group.bench_function("dominance_compare", |bench| {
        let x = &dataset.objects[0];
        let y = &dataset.objects[1];
        bench.iter(|| a.compare(x, y))
    });
    group.bench_function("approx_common_relation", |bench| {
        let relations: Vec<&Relation> = dataset
            .preferences
            .iter()
            .take(8)
            .map(|p| p.relation(AttrId::new(0)))
            .collect();
        bench.iter(|| {
            approx_common_relation(relations.iter().copied(), ApproxConfig::new(256, 0.5)).len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_relation_ops, bench_similarity_and_dominance);
criterion_main!(benches);
