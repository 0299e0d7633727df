//! Publication-alert scenario: notify authors about newly published papers
//! matching their preferences on affiliations, authors, venues and keywords
//! (the paper's second motivating application, simulated with the
//! ACM-DL-like profile).
//!
//! Run with `cargo run --release -p pm-examples --bin publication_alerts`.

use pm_bench::setup::{build_approx_monitor, default_approx_config, generate_dataset};
use pm_bench::Scale;
use pm_core::Lifetime;
use pm_datagen::DatasetProfile;
use pm_model::UserId;

fn main() {
    let mut scale = Scale::smoke();
    scale.users = 40;
    scale.objects = 600;
    let dataset = generate_dataset(&DatasetProfile::publication(), &scale);
    println!(
        "publication dataset: {} papers, {} authors",
        dataset.num_objects(),
        dataset.num_users()
    );

    // FilterThenVerifyApprox: approximate clustering plus approximate common
    // preference relations (the configuration the paper recommends).
    let (mut monitor, summary) =
        build_approx_monitor(&dataset, 0.55, default_approx_config(), Lifetime::UNLIMITED);
    println!(
        "clustered {} authors into {} clusters (largest {})",
        summary.users, summary.clusters, summary.largest
    );

    // Deliver the stream of new papers; count alerts per author.
    let mut alerts = vec![0usize; dataset.num_users()];
    for paper in &dataset.objects {
        let arrival = monitor.process(paper.clone());
        for user in &arrival.target_users {
            alerts[user.index()] += 1;
        }
    }

    let total: usize = alerts.iter().sum();
    let busiest = alerts
        .iter()
        .enumerate()
        .max_by_key(|(_, n)| **n)
        .map(|(u, n)| (UserId::from(u), *n))
        .unwrap();
    println!(
        "delivered {} alerts in total ({:.1} per paper on average)",
        total,
        total as f64 / dataset.num_objects() as f64
    );
    println!(
        "most-alerted author: {} with {} alerts; final frontier size {}",
        busiest.0,
        busiest.1,
        monitor.frontier(busiest.0).len()
    );
    println!("work done: {}", monitor.stats());
}
