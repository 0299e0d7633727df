//! Experiment setup: dataset generation at a [`Scale`] and monitor
//! construction (clustering + virtual preferences).

use pm_cluster::{
    cluster_users, ApproxConfig, ApproxMeasure, Cluster, ClusteringConfig, ExactMeasure,
};
use pm_core::{Filter, Lifetime, Monitor};
use pm_datagen::{Dataset, DatasetProfile};

use crate::scale::Scale;

/// Generates a dataset for `profile` under `scale`.
pub fn generate_dataset(profile: &DatasetProfile, scale: &Scale) -> Dataset {
    let objects = if scale.objects == usize::MAX {
        profile.num_objects
    } else {
        scale.objects
    };
    let sized = profile
        .with_users(scale.users)
        .with_objects(objects)
        .with_interactions(scale.interactions);
    Dataset::generate(&sized, scale.seed)
}

/// Summary of a clustering pass, reported alongside experiment rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSummary {
    /// Number of clusters `k`.
    pub clusters: usize,
    /// Size of the largest cluster.
    pub largest: usize,
    /// Number of users clustered.
    pub users: usize,
}

/// Clusters a dataset's users with the given measure and branch cut `h`.
pub fn cluster_dataset(
    dataset: &Dataset,
    measure: ExactMeasure,
    branch_cut: f64,
) -> (Vec<Cluster>, ClusterSummary) {
    let outcome = cluster_users(
        &dataset.preferences,
        ClusteringConfig::Exact {
            measure,
            branch_cut,
        },
    );
    let summary = ClusterSummary {
        clusters: outcome.len(),
        largest: outcome.largest_cluster(),
        users: dataset.num_users(),
    };
    (outcome.clusters, summary)
}

/// Clusters a dataset's users with an approximate (frequency-vector) measure.
pub fn cluster_dataset_approx(
    dataset: &Dataset,
    measure: ApproxMeasure,
    branch_cut: f64,
) -> (Vec<Cluster>, ClusterSummary) {
    let outcome = cluster_users(
        &dataset.preferences,
        ClusteringConfig::Approx {
            measure,
            branch_cut,
        },
    );
    let summary = ClusterSummary {
        clusters: outcome.len(),
        largest: outcome.largest_cluster(),
        users: dataset.num_users(),
    };
    (outcome.clusters, summary)
}

/// Builds a `FilterThenVerify` / `FilterThenVerifySW` monitor (exact common
/// preference relations) for `dataset`, clustering with Jaccard similarity
/// at branch cut `h`.
pub fn build_exact_monitor(
    dataset: &Dataset,
    h: f64,
    lifetime: Lifetime,
) -> (Monitor, ClusterSummary) {
    let (clusters, summary) = cluster_dataset(dataset, ExactMeasure::Jaccard, h);
    let filter = Filter::clusters(&clusters);
    (
        Monitor::new(&dataset.preferences, lifetime, Some(filter)),
        summary,
    )
}

/// Builds a `FilterThenVerifyApprox` / `FilterThenVerifyApproxSW` monitor:
/// approximate clustering (frequency-vector Jaccard) plus approximate
/// common preference relations built by Alg. 3 under `config`.
pub fn build_approx_monitor(
    dataset: &Dataset,
    h: f64,
    config: ApproxConfig,
    lifetime: Lifetime,
) -> (Monitor, ClusterSummary) {
    let (clusters, summary) = cluster_dataset_approx(dataset, ApproxMeasure::Jaccard, h);
    let filter = Filter::clusters(&clusters).approx(config);
    (
        Monitor::new(&dataset.preferences, lifetime, Some(filter)),
        summary,
    )
}

/// The default θ1/θ2 thresholds used by the approximate experiments.
pub fn default_approx_config() -> ApproxConfig {
    ApproxConfig::new(512, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Dataset, Scale) {
        let scale = Scale::smoke();
        let dataset = generate_dataset(&DatasetProfile::movie(), &scale);
        (dataset, scale)
    }

    #[test]
    fn generated_dataset_respects_scale() {
        let (dataset, scale) = tiny();
        assert_eq!(dataset.num_users(), scale.users);
        assert_eq!(dataset.num_objects(), scale.objects);
    }

    #[test]
    fn clustering_partitions_users() {
        let (dataset, _) = tiny();
        let (clusters, summary) = cluster_dataset(&dataset, ExactMeasure::Jaccard, 0.4);
        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, dataset.num_users());
        assert_eq!(summary.users, dataset.num_users());
        assert!(summary.clusters <= dataset.num_users());
        assert!(summary.largest >= 1);
    }

    #[test]
    fn monitors_build_and_process() {
        let (dataset, _) = tiny();
        let lifetime = Lifetime::UNLIMITED;
        let (mut exact, _) = build_exact_monitor(&dataset, 0.4, lifetime);
        let (mut approx, _) =
            build_approx_monitor(&dataset, 0.4, default_approx_config(), lifetime);
        for o in dataset.objects.iter().take(50).cloned() {
            exact.process(o.clone());
            approx.process(o);
        }
        assert!(exact.stats().comparisons > 0);
        assert!(approx.stats().comparisons > 0);
    }

    #[test]
    fn sw_monitors_build_and_process() {
        let (dataset, _) = tiny();
        let lifetime = Lifetime::Window(50);
        let (mut exact, _) = build_exact_monitor(&dataset, 0.4, lifetime);
        let (mut approx, _) =
            build_approx_monitor(&dataset, 0.4, default_approx_config(), lifetime);
        for o in dataset.stream(120).iter() {
            exact.process(o.clone());
            approx.process(o);
        }
        assert!(exact.stats().expirations > 0);
        assert!(approx.stats().expirations > 0);
    }
}
