//! Ablation bench (not in the paper): how the clustering similarity measure
//! and the branch cut h affect clustering cost and the resulting cluster
//! structure — the k-versus-m trade-off discussed at the end of Sec. 4 —
//! what one incremental membership change costs under each measure, and
//! what one registration costs a FilterThenVerify monitor.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use pm_bench::setup::{cluster_dataset, generate_dataset};
use pm_bench::Scale;
use pm_cluster::{cluster_users, ApproxMeasure, Clustering, ClusteringConfig, ExactMeasure};
use pm_datagen::DatasetProfile;
use pm_engine::BackendSpec;
use pm_model::UserId;

fn bench_clustering(c: &mut Criterion) {
    let scale = Scale::smoke();
    let dataset = generate_dataset(&DatasetProfile::movie(), &scale);
    let mut group = c.benchmark_group("ablation_clustering");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for measure in ExactMeasure::ALL {
        group.bench_function(BenchmarkId::new("exact", measure.name()), |b| {
            b.iter(|| cluster_dataset(&dataset, measure, 0.55).1.clusters)
        });
    }
    for measure in [ApproxMeasure::Jaccard, ApproxMeasure::WeightedJaccard] {
        group.bench_function(BenchmarkId::new("approx", measure.name()), |b| {
            b.iter(|| {
                cluster_users(
                    &dataset.preferences,
                    ClusteringConfig::Approx {
                        measure,
                        branch_cut: 0.55,
                    },
                )
                .len()
            })
        });
    }
    for h in [0.4_f64, 0.55, 0.7] {
        group.bench_with_input(
            BenchmarkId::new("branch_cut", format!("{h}")),
            &h,
            |b, &h| {
                b.iter(|| {
                    cluster_dataset(&dataset, ExactMeasure::Jaccard, h)
                        .1
                        .clusters
                })
            },
        );
    }
    group.finish();
}

/// One `insert_user` and one `update_user` on a maintained clustering of
/// the movie population, under each exact measure: the weighted measures
/// also recompute Hasse value weights, the unweighted ones only AND and
/// popcount. Then one registration on an `ftv:0.4` monitor that has taken
/// the population's objects: onto a preference a user already holds (the
/// twin joins that user's verify entry without a replay) and onto a novel
/// one (a replay of the history).
fn bench_maintenance(c: &mut Criterion) {
    let dataset = generate_dataset(&DatasetProfile::movie(), &Scale::quick());
    let (newcomer, population) = dataset
        .preferences
        .split_last()
        .expect("the population has users");
    let mut group = c.benchmark_group("ablation_maintenance");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(200));
    for measure in ExactMeasure::ALL {
        let base = Clustering::new(population, measure, 0.55);
        group.bench_function(BenchmarkId::new("insert_user", measure.name()), |b| {
            b.iter_batched(
                || base.clone(),
                |mut clustering| {
                    clustering.insert_user(UserId::from(population.len()), newcomer);
                    clustering
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_function(BenchmarkId::new("update_user", measure.name()), |b| {
            b.iter_batched(
                || base.clone(),
                |mut clustering| {
                    clustering.update_user(UserId::new(0), newcomer);
                    clustering
                },
                BatchSize::LargeInput,
            )
        });
    }
    let mut monitor = BackendSpec::parse("ftv:0.4")
        .expect("valid backend")
        .build(population);
    monitor.process_all(dataset.objects.iter().cloned());
    for (name, preference) in [
        ("register_twin", &population[0]),
        ("register_novel", newcomer),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || monitor.clone(),
                |mut monitor| {
                    monitor.add_user(preference.clone());
                    monitor
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_clustering, bench_maintenance);
criterion_main!(benches);
