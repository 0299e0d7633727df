//! Sliding-window news delivery: only the W most recent stories are alive,
//! so frontiers must be mended when stories expire (Section 7 of the
//! paper). Compares BaselineSW with FilterThenVerifySW and
//! FilterThenVerifyApproxSW on the same stream.
//!
//! Run with `cargo run --release -p pm-examples --bin sliding_window_news`.

use pm_bench::setup::{
    build_approx_monitor, build_exact_monitor, default_approx_config, generate_dataset,
};
use pm_bench::Scale;
use pm_core::{AccuracyReport, Lifetime, Monitor};
use pm_datagen::DatasetProfile;

fn main() {
    let mut scale = Scale::smoke();
    scale.users = 30;
    scale.objects = 300;
    let window = 150;
    let stream_len = 1_200;

    // Reuse the movie-like generator as a stand-in for a news stream:
    // 4 categorical attributes (think source, topic, region, format).
    let dataset = generate_dataset(&DatasetProfile::movie(), &scale);
    let stream = dataset.stream(stream_len);
    println!(
        "news stream: {} arrivals cycling {} stories, window W = {window}, {} readers",
        stream.len(),
        dataset.num_objects(),
        dataset.num_users()
    );

    let lifetime = Lifetime::Window(window);
    let mut baseline = Monitor::new(&dataset.preferences, lifetime, None);
    let (mut ftv, _) = build_exact_monitor(&dataset, 0.55, lifetime);
    let (mut ftva, summary) =
        build_approx_monitor(&dataset, 0.55, default_approx_config(), lifetime);
    println!(
        "clusters: {} (largest {})",
        summary.clusters, summary.largest
    );

    let mut notified = [0u64; 3];
    for story in stream.iter() {
        notified[0] += baseline.process(story.clone()).target_users.len() as u64;
        notified[1] += ftv.process(story.clone()).target_users.len() as u64;
        notified[2] += ftva.process(story).target_users.len() as u64;
    }

    println!(
        "\n{:<26} {:>14} {:>14} {:>12}",
        "algorithm", "comparisons", "expirations", "alerts"
    );
    for (name, stats, alerts) in [
        ("BaselineSW", baseline.stats(), notified[0]),
        ("FilterThenVerifySW", ftv.stats(), notified[1]),
        ("FilterThenVerifyApproxSW", ftva.stats(), notified[2]),
    ] {
        println!(
            "{:<26} {:>14} {:>14} {:>12}",
            name, stats.comparisons, stats.expirations, alerts
        );
    }

    let report = AccuracyReport::compare(&baseline.all_frontiers(), &ftva.all_frontiers());
    println!(
        "\nFilterThenVerifyApproxSW accuracy vs BaselineSW (final windows): \
         precision {:.2}%, recall {:.2}%",
        report.precision() * 100.0,
        report.recall() * 100.0
    );
}
