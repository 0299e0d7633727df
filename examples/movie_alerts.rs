//! Movie-alert scenario: simulate a Netflix/IMDB-like catalogue and user
//! population, cluster users by preference similarity, and compare the
//! Baseline, FilterThenVerify and FilterThenVerifyApprox monitors on the
//! same arrival stream — a miniature of Figures 4 and 6 of the paper.
//!
//! Run with `cargo run --release -p pm-examples --bin movie_alerts`.

use pm_cluster::ApproxConfig;
use pm_cluster::{cluster_users, ClusteringConfig, ExactMeasure};
use pm_core::{AccuracyReport, Filter, Lifetime, Monitor};
use pm_datagen::{Dataset, DatasetProfile};

fn main() {
    // A scaled-down movie-like dataset (see pm-datagen for the full-size
    // profile matching the paper's 12,749 movies and 1,000 users).
    let profile = DatasetProfile::movie()
        .with_users(60)
        .with_objects(800)
        .with_interactions(80);
    let dataset = Dataset::generate(&profile, 7);
    println!(
        "dataset: {} objects, {} users, {} attributes, ~{:.0} preference tuples/user",
        dataset.num_objects(),
        dataset.num_users(),
        dataset.dimensions(),
        dataset.mean_preference_size()
    );

    // Cluster users on their exact common preference relations (Sec. 5).
    let outcome = cluster_users(
        &dataset.preferences,
        ClusteringConfig::Exact {
            measure: ExactMeasure::Jaccard,
            branch_cut: 0.55,
        },
    );
    println!(
        "clustering: {} clusters, largest has {} users",
        outcome.len(),
        outcome.largest_cluster()
    );

    // Run the three append-only monitors over the same arrivals.
    let monitor = |filter| Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, filter);
    let clusters = Filter::clusters(&outcome.clusters);
    let mut baseline = monitor(None);
    let mut ftv = monitor(Some(clusters.clone()));
    let mut ftva = monitor(Some(clusters.approx(ApproxConfig::new(512, 0.5))));
    for object in &dataset.objects {
        baseline.process(object.clone());
        ftv.process(object.clone());
        ftva.process(object.clone());
    }

    println!("\ncomparisons per algorithm:");
    println!(
        "  Baseline               {:>12}",
        baseline.stats().comparisons
    );
    println!("  FilterThenVerify       {:>12}", ftv.stats().comparisons);
    println!("  FilterThenVerifyApprox {:>12}", ftva.stats().comparisons);

    // How much accuracy did the approximation cost?
    let report = AccuracyReport::compare(&baseline.all_frontiers(), &ftva.all_frontiers());
    println!(
        "\nFilterThenVerifyApprox accuracy: precision {:.2}%, recall {:.2}%, F {:.2}%",
        report.precision() * 100.0,
        report.recall() * 100.0,
        report.f_measure() * 100.0
    );
}
