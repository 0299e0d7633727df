//! FilterThenVerify against Baseline on the deterministic work counter:
//! `stats().comparisons` over the `movie_append` population of the
//! benchmark (1,000 users, 7,000 base objects, dataset seed 42) and the
//! first 512 of its objects.
//!
//! At a branch cut of 1.7 nearly every cluster is a singleton. Were its
//! members verified, each such user would pay for an object twice, once at
//! `P_U` and once at its own frontier — 1.72× the comparisons of
//! `baseline`. A cluster whose members all hold its own relation reports
//! `P_U`'s outcome directly instead.

use pm_core::Monitor;
use pm_datagen::{Dataset, DatasetProfile};
use pm_engine::BackendSpec;
use pm_porder::Preference;

/// The `movie_append` population and its first 512 objects.
fn movie_append() -> (Vec<Preference>, Vec<pm_model::Object>) {
    let profile = DatasetProfile::movie()
        .with_users(1000)
        .with_objects(7000)
        .with_interactions(150);
    let dataset = Dataset::generate(&profile, 42);
    (dataset.preferences, dataset.objects[..512].to_vec())
}

/// Comparisons one backend spends on `stream`.
fn comparisons(backend: &str, users: &[Preference], stream: &[pm_model::Object]) -> u64 {
    let mut monitor: Monitor = BackendSpec::parse(backend).unwrap().build(users);
    monitor.process_batch(stream, 2);
    monitor.stats().comparisons
}

#[test]
fn singleton_clusters_cost_what_baseline_costs() {
    let (users, stream) = movie_append();
    let baseline = comparisons("baseline", &users, &stream);
    let ftv = comparisons("ftv:1.7", &users, &stream);
    let ratio = ftv as f64 / baseline as f64;
    println!("ftv:1.7 / baseline comparisons = {ftv} / {baseline} = {ratio:.3}");
    assert!(ratio < 1.10, "ftv:1.7 costs {ratio:.3}× baseline");
}
