//! Cross-crate integration tests: datasets from `pm-datagen`, clustering
//! from `pm-cluster`, monitors from `pm-core`, all exercised together.

use pm_cluster::{cluster_users, ApproxConfig, ClusteringConfig, ExactMeasure};
use pm_core::{AccuracyReport, Filter, Lifetime, Monitor};
use pm_integration_tests::{
    one_cluster, singleton_clusters, small_movie_dataset, small_publication_dataset,
};
use pm_model::UserId;
use pm_porder::naive_pareto_frontier;

#[test]
fn filter_then_verify_equals_baseline_on_generated_movie_data() {
    let dataset = small_movie_dataset(11);
    let outcome = cluster_users(
        &dataset.preferences,
        ClusteringConfig::Exact {
            measure: ExactMeasure::Jaccard,
            branch_cut: 0.5,
        },
    );
    let mut baseline = Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, None);
    let mut ftv = Monitor::new(
        &dataset.preferences,
        Lifetime::UNLIMITED,
        Some(Filter::clusters(&outcome.clusters)),
    );
    for object in &dataset.objects {
        let a = baseline.process(object.clone());
        let b = ftv.process(object.clone());
        assert_eq!(a.target_users, b.target_users, "object {}", a.object);
    }
    for user in 0..dataset.num_users() {
        assert_eq!(
            baseline.frontier(UserId::from(user)),
            ftv.frontier(UserId::from(user)),
            "user {user}"
        );
    }
}

#[test]
fn baseline_matches_naive_oracle_on_publication_data() {
    let dataset = small_publication_dataset(3);
    let mut baseline = Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, None);
    for object in &dataset.objects {
        baseline.process(object.clone());
    }
    for (user, pref) in dataset.preferences.iter().enumerate() {
        let mut oracle = naive_pareto_frontier(pref, &dataset.objects);
        oracle.sort_unstable();
        assert_eq!(baseline.frontier(UserId::from(user)), oracle, "user {user}");
    }
}

#[test]
fn approx_monitor_respects_theorem_6_5_and_lemma_6_6() {
    let dataset = small_movie_dataset(5);
    let clusters = cluster_users(
        &dataset.preferences,
        ClusteringConfig::Exact {
            measure: ExactMeasure::Jaccard,
            branch_cut: 0.4,
        },
    )
    .clusters;
    let mut exact = Monitor::new(
        &dataset.preferences,
        Lifetime::UNLIMITED,
        Some(Filter::clusters(&clusters)),
    );
    let mut approx = Monitor::new(
        &dataset.preferences,
        Lifetime::UNLIMITED,
        Some(Filter::clusters(&clusters).approx(ApproxConfig::new(256, 0.5))),
    );
    for object in &dataset.objects {
        exact.process(object.clone());
        approx.process(object.clone());
    }
    for cluster in 0..clusters.len() {
        let exact_pu = exact.cluster_frontier(cluster);
        let approx_pu = approx.cluster_frontier(cluster);
        // Theorem 6.5: P̂_U ⊆ P_U.
        for id in &approx_pu {
            assert!(exact_pu.contains(id), "P̂_U ⊄ P_U at {id}");
        }
        // Lemma 6.6: P̂_c ⊆ P̂_U for every member of the cluster.
        for member in exact.cluster_members(cluster) {
            for id in approx.frontier(*member) {
                assert!(approx_pu.contains(&id), "P̂_c ⊄ P̂_U at {id}");
            }
        }
    }
}

#[test]
fn approximation_accuracy_is_high_and_precision_dominates_recall() {
    let dataset = small_movie_dataset(23);
    let mut baseline = Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, None);
    let clusters = cluster_users(
        &dataset.preferences,
        ClusteringConfig::Exact {
            measure: ExactMeasure::Jaccard,
            branch_cut: 0.4,
        },
    )
    .clusters;
    let mut approx = Monitor::new(
        &dataset.preferences,
        Lifetime::UNLIMITED,
        Some(Filter::clusters(&clusters).approx(ApproxConfig::new(512, 0.6))),
    );
    for object in &dataset.objects {
        baseline.process(object.clone());
        approx.process(object.clone());
    }
    let report = AccuracyReport::compare(&baseline.all_frontiers(), &approx.all_frontiers());
    // The paper observes near-perfect precision and recall above ~80% for
    // θ2 in this range (Table 11); allow generous slack for the simulator.
    assert!(report.precision() > 0.9, "precision {}", report.precision());
    assert!(report.recall() > 0.5, "recall {}", report.recall());
    assert!(report.precision() >= report.recall());
}

#[test]
fn sliding_window_singleton_clusters_match_baseline_sw() {
    let dataset = small_movie_dataset(31);
    let window = 60;
    let stream: Vec<_> = dataset.stream(500).iter().collect();
    let mut baseline = Monitor::new(&dataset.preferences, Lifetime::Window(window), None);
    let mut ftv = Monitor::new(
        &dataset.preferences,
        Lifetime::Window(window),
        Some(Filter::virtual_users(singleton_clusters(
            &dataset.preferences,
        ))),
    );
    for object in stream {
        let a = baseline.process(object.clone());
        let b = ftv.process(object);
        assert_eq!(a.target_users, b.target_users, "object {}", a.object);
    }
    for user in 0..dataset.num_users() {
        assert_eq!(
            baseline.frontier(UserId::from(user)),
            ftv.frontier(UserId::from(user))
        );
    }
}

#[test]
fn sliding_window_baseline_matches_windowed_oracle() {
    let dataset = small_publication_dataset(13);
    let window = 40;
    let arrivals: Vec<_> = dataset.stream(160).iter().collect();
    let mut monitor = Monitor::new(&dataset.preferences, Lifetime::Window(window), None);
    for (i, object) in arrivals.iter().enumerate() {
        monitor.process(object.clone());
        if (i + 1) % 37 != 0 {
            continue; // spot-check a few positions to keep the test fast
        }
        let start = (i + 1).saturating_sub(window);
        let alive = &arrivals[start..=i];
        for (user, pref) in dataset.preferences.iter().enumerate() {
            let mut oracle = naive_pareto_frontier(pref, alive);
            oracle.sort_unstable();
            assert_eq!(
                monitor.frontier(UserId::from(user)),
                oracle,
                "user {user} at arrival {i}"
            );
        }
    }
}

#[test]
fn sliding_window_cluster_invariants_hold_on_stream() {
    let dataset = small_movie_dataset(17);
    let window = 50;
    let mut ftv = Monitor::new(
        &dataset.preferences,
        Lifetime::Window(window),
        Some(Filter::virtual_users(one_cluster(&dataset.preferences))),
    );
    for (i, object) in dataset.stream(400).iter().enumerate() {
        ftv.process(object);
        if i % 29 != 0 {
            continue;
        }
        let pu = ftv.cluster_frontier(0);
        let pbu = ftv.cluster_buffer(0);
        for id in &pu {
            assert!(pbu.contains(id), "PB_U ⊉ P_U at {id}");
        }
        for user in 0..dataset.num_users() {
            for id in ftv.frontier(UserId::from(user)) {
                assert!(pu.contains(&id), "P_U ⊉ P_c at {id}");
            }
        }
    }
}

#[test]
fn monitors_count_work_consistently() {
    let dataset = small_movie_dataset(41);
    let mut baseline = Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, None);
    for object in &dataset.objects {
        baseline.process(object.clone());
    }
    let stats = baseline.stats();
    assert_eq!(stats.arrivals as usize, dataset.num_objects());
    assert_eq!(stats.expirations, 0);
    assert!(stats.comparisons > 0);
    assert!(stats.notifications > 0);
}
