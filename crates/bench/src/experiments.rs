//! One function per figure/table of the paper's evaluation section, plus
//! ablations. Every function returns plain row structs so that the
//! `reproduce` binary, the Criterion benches and the integration tests can
//! all drive the same code.

use std::time::Instant;

use pm_cluster::{ApproxConfig, ExactMeasure};
use pm_core::{AccuracyReport, Filter, Lifetime, Monitor};
use pm_datagen::{Dataset, DatasetProfile};

use crate::report::{Cell, Table};
use crate::scale::Scale;
use crate::setup::{
    build_approx_monitor, build_exact_monitor, cluster_dataset, default_approx_config,
    generate_dataset,
};

/// Algorithm labels used across all experiment rows.
pub const BASELINE: &str = "Baseline";
/// FilterThenVerify label.
pub const FTV: &str = "FilterThenVerify";
/// FilterThenVerifyApprox label.
pub const FTVA: &str = "FilterThenVerifyApprox";
/// BaselineSW label.
pub const BASELINE_SW: &str = "BaselineSW";
/// FilterThenVerifySW label.
pub const FTV_SW: &str = "FilterThenVerifySW";
/// FilterThenVerifyApproxSW label.
pub const FTVA_SW: &str = "FilterThenVerifyApproxSW";

/// The three algorithms every cost figure compares, on one lifetime: the
/// unfiltered baseline, FilterThenVerify and FilterThenVerifyApprox, with
/// the paper's name for each on that lifetime.
fn contenders(dataset: &Dataset, h: f64, lifetime: Lifetime) -> [(&'static str, Monitor); 3] {
    let labels = match lifetime {
        Lifetime::History(_) => [BASELINE, FTV, FTVA],
        Lifetime::Window(_) => [BASELINE_SW, FTV_SW, FTVA_SW],
    };
    let baseline = Monitor::new(&dataset.preferences, lifetime, None);
    let (ftv, _) = build_exact_monitor(dataset, h, lifetime);
    let (ftva, _) = build_approx_monitor(dataset, h, default_approx_config(), lifetime);
    [(labels[0], baseline), (labels[1], ftv), (labels[2], ftva)]
}

// ---------------------------------------------------------------------------
// Figures 4 & 5: cumulative cost while |O| grows (append-only).
// ---------------------------------------------------------------------------

/// One checkpoint measurement of an append-only run (Figs. 4a/4b, 5a/5b).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalRow {
    /// Dataset name (`movie` / `publication`).
    pub dataset: String,
    /// Algorithm label.
    pub algorithm: &'static str,
    /// Number of objects processed at this checkpoint.
    pub objects: usize,
    /// Cumulative wall-clock milliseconds (monitoring only, setup excluded).
    pub cumulative_ms: f64,
    /// Cumulative number of pairwise object comparisons.
    pub comparisons: u64,
}

fn run_checkpointed(
    monitor: &mut Monitor,
    dataset: &Dataset,
    checkpoints: &[f64],
    algorithm: &'static str,
) -> Vec<ArrivalRow> {
    let total = dataset.num_objects();
    let marks: Vec<usize> = checkpoints
        .iter()
        .map(|f| ((total as f64 * f).round() as usize).clamp(1, total))
        .collect();
    let mut rows = Vec::new();
    let start = Instant::now();
    for (i, object) in dataset.objects.iter().cloned().enumerate() {
        monitor.process(object);
        if marks.contains(&(i + 1)) {
            rows.push(ArrivalRow {
                dataset: dataset.profile_name.clone(),
                algorithm,
                objects: i + 1,
                cumulative_ms: start.elapsed().as_secs_f64() * 1e3,
                comparisons: monitor.stats().comparisons,
            });
        }
    }
    rows
}

/// Figures 4 (movie) and 5 (publication): cumulative execution time and
/// object comparisons for Baseline, FilterThenVerify and
/// FilterThenVerifyApprox while objects keep arriving. `h` is the branch cut.
pub fn arrival_experiment(profile: &DatasetProfile, scale: &Scale, h: f64) -> Vec<ArrivalRow> {
    let dataset = generate_dataset(profile, scale);
    let mut rows = Vec::new();
    for (algorithm, mut monitor) in contenders(&dataset, h, Lifetime::UNLIMITED) {
        rows.extend(run_checkpointed(
            &mut monitor,
            &dataset,
            &scale.checkpoints,
            algorithm,
        ));
    }
    rows
}

/// Renders arrival rows as a table.
pub fn arrival_table(title: &str, rows: &[ArrivalRow]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "dataset",
            "algorithm",
            "|O|",
            "cumulative ms",
            "comparisons",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.dataset.as_str().into(),
            r.algorithm.into(),
            r.objects.into(),
            Cell::Float(r.cumulative_ms),
            r.comparisons.into(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figures 6 & 7: cost versus dimensionality d (append-only).
// Figures 10 & 11: cost versus dimensionality d (sliding window).
// ---------------------------------------------------------------------------

/// One dimensionality measurement (Figs. 6/7 append-only, 10/11 sliding).
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionRow {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm label.
    pub algorithm: &'static str,
    /// Number of attributes `d`.
    pub dimensions: usize,
    /// Sliding-window size, `None` for the append-only experiments.
    pub window: Option<usize>,
    /// Total wall-clock milliseconds.
    pub total_ms: f64,
    /// Total pairwise object comparisons.
    pub comparisons: u64,
}

fn run_to_completion(
    monitor: &mut Monitor,
    objects: impl Iterator<Item = pm_model::Object>,
) -> (f64, u64) {
    let start = Instant::now();
    for object in objects {
        monitor.process(object);
    }
    (
        start.elapsed().as_secs_f64() * 1e3,
        monitor.stats().comparisons,
    )
}

/// Total cost of the three algorithms at every d ∈ `dims`, append-only
/// over the base objects (`window` = `None`) or over the scale's stream
/// on a sliding window.
fn dimension_rows(
    full: &Dataset,
    scale: &Scale,
    h: f64,
    dims: &[usize],
    window: Option<usize>,
) -> Vec<DimensionRow> {
    let mut rows = Vec::new();
    for &d in dims {
        let dataset = full.project(d);
        let lifetime = window.map_or(Lifetime::UNLIMITED, Lifetime::Window);
        for (algorithm, mut monitor) in contenders(&dataset, h, lifetime) {
            let (total_ms, comparisons) = match window {
                None => run_to_completion(&mut monitor, dataset.objects.iter().cloned()),
                Some(_) => run_to_completion(&mut monitor, dataset.stream(scale.stream_len).iter()),
            };
            rows.push(DimensionRow {
                dataset: dataset.profile_name.clone(),
                algorithm,
                dimensions: d,
                window,
                total_ms,
                comparisons,
            });
        }
    }
    rows
}

/// Figures 6 (movie) and 7 (publication): total cost at d ∈ `dims`.
pub fn dimension_experiment(
    profile: &DatasetProfile,
    scale: &Scale,
    h: f64,
    dims: &[usize],
) -> Vec<DimensionRow> {
    dimension_rows(&generate_dataset(profile, scale), scale, h, dims, None)
}

/// Figures 10 (movie) and 11 (publication): sliding-window cost at
/// d ∈ `dims` with a fixed window (the largest in `scale.window_sizes`).
pub fn sliding_dimension_experiment(
    profile: &DatasetProfile,
    scale: &Scale,
    h: f64,
    dims: &[usize],
) -> Vec<DimensionRow> {
    let window = scale.window_sizes.last().copied().unwrap_or(400);
    let full = generate_dataset(profile, scale);
    dimension_rows(&full, scale, h, dims, Some(window))
}

/// Renders dimension rows as a table.
pub fn dimension_table(title: &str, rows: &[DimensionRow]) -> Table {
    let mut t = Table::new(
        title,
        &["dataset", "algorithm", "d", "W", "total ms", "comparisons"],
    );
    for r in rows {
        t.push_row(vec![
            r.dataset.as_str().into(),
            r.algorithm.into(),
            r.dimensions.into(),
            r.window
                .map(|w| w.to_string())
                .unwrap_or_else(|| "-".into())
                .into(),
            Cell::Float(r.total_ms),
            r.comparisons.into(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 11: accuracy of FilterThenVerifyApprox while varying h.
// ---------------------------------------------------------------------------

/// One accuracy measurement (Table 11).
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyRow {
    /// Dataset name.
    pub dataset: String,
    /// Branch cut `h`.
    pub h: f64,
    /// Number of clusters produced at this branch cut.
    pub clusters: usize,
    /// Precision of FilterThenVerifyApprox against the exact frontiers.
    pub precision: f64,
    /// Recall against the exact frontiers.
    pub recall: f64,
    /// F-measure.
    pub f_measure: f64,
}

/// Table 11: precision / recall / F-measure of FilterThenVerifyApprox for
/// several branch cuts `h`, with the exact per-user frontiers (Baseline) as
/// ground truth.
pub fn accuracy_experiment(
    profile: &DatasetProfile,
    scale: &Scale,
    h_values: &[f64],
) -> Vec<AccuracyRow> {
    let dataset = generate_dataset(profile, scale);
    let mut baseline = Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, None);
    for object in dataset.objects.iter().cloned() {
        baseline.process(object);
    }
    let exact = baseline.all_frontiers();

    let mut rows = Vec::new();
    for &h in h_values {
        let (mut ftva, summary) =
            build_approx_monitor(&dataset, h, default_approx_config(), Lifetime::UNLIMITED);
        for object in dataset.objects.iter().cloned() {
            ftva.process(object);
        }
        let approx = ftva.all_frontiers();
        let report = AccuracyReport::compare(&exact, &approx);
        rows.push(AccuracyRow {
            dataset: dataset.profile_name.clone(),
            h,
            clusters: summary.clusters,
            precision: report.precision(),
            recall: report.recall(),
            f_measure: report.f_measure(),
        });
    }
    rows
}

/// Renders accuracy rows as a table.
pub fn accuracy_table(title: &str, rows: &[AccuracyRow]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "dataset",
            "h",
            "clusters",
            "precision",
            "recall",
            "F-measure",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.dataset.as_str().into(),
            Cell::Float(r.h),
            r.clusters.into(),
            Cell::Percent(r.precision),
            Cell::Percent(r.recall),
            Cell::Percent(r.f_measure),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Figures 8 & 9: sliding-window cost versus window size W.
// ---------------------------------------------------------------------------

/// One sliding-window measurement (Figs. 8a/8b, 9a/9b).
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingRow {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm label.
    pub algorithm: &'static str,
    /// Window size `W`.
    pub window: usize,
    /// Total wall-clock milliseconds over the whole stream.
    pub total_ms: f64,
    /// Total pairwise object comparisons.
    pub comparisons: u64,
}

/// Figures 8 (movie) and 9 (publication): cost of the three sliding-window
/// algorithms for every window size of the scale.
pub fn sliding_experiment(profile: &DatasetProfile, scale: &Scale, h: f64) -> Vec<SlidingRow> {
    let dataset = generate_dataset(profile, scale);
    let stream = dataset.stream(scale.stream_len);
    let mut rows = Vec::new();
    for &window in &scale.window_sizes {
        for (algorithm, mut monitor) in contenders(&dataset, h, Lifetime::Window(window)) {
            let (total_ms, comparisons) = run_to_completion(&mut monitor, stream.iter());
            rows.push(SlidingRow {
                dataset: dataset.profile_name.clone(),
                algorithm,
                window,
                total_ms,
                comparisons,
            });
        }
    }
    rows
}

/// Renders sliding-window rows as a table.
pub fn sliding_table(title: &str, rows: &[SlidingRow]) -> Table {
    let mut t = Table::new(
        title,
        &["dataset", "algorithm", "W", "total ms", "comparisons"],
    );
    for r in rows {
        t.push_row(vec![
            r.dataset.as_str().into(),
            r.algorithm.into(),
            r.window.into(),
            Cell::Float(r.total_ms),
            r.comparisons.into(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table 12: accuracy of FilterThenVerifyApproxSW varying W and h.
// ---------------------------------------------------------------------------

/// One sliding-window accuracy measurement (Table 12).
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingAccuracyRow {
    /// Dataset name.
    pub dataset: String,
    /// Window size `W`.
    pub window: usize,
    /// Branch cut `h`.
    pub h: f64,
    /// Precision against BaselineSW's final frontiers.
    pub precision: f64,
    /// Recall against BaselineSW's final frontiers.
    pub recall: f64,
    /// F-measure.
    pub f_measure: f64,
}

/// Table 12: precision / recall / F-measure of FilterThenVerifyApproxSW for
/// every (W, h) combination, using BaselineSW as ground truth. The frontiers
/// are compared at the end of the stream.
pub fn sliding_accuracy_experiment(
    profile: &DatasetProfile,
    scale: &Scale,
    h_values: &[f64],
) -> Vec<SlidingAccuracyRow> {
    let dataset = generate_dataset(profile, scale);
    let stream = dataset.stream(scale.stream_len);
    let mut rows = Vec::new();
    for &window in &scale.window_sizes {
        let mut baseline = Monitor::new(&dataset.preferences, Lifetime::Window(window), None);
        for object in stream.iter() {
            baseline.process(object);
        }
        let exact = baseline.all_frontiers();
        for &h in h_values {
            let (mut ftva, _) = build_approx_monitor(
                &dataset,
                h,
                default_approx_config(),
                Lifetime::Window(window),
            );
            for object in stream.iter() {
                ftva.process(object);
            }
            let report = AccuracyReport::compare(&exact, &ftva.all_frontiers());
            rows.push(SlidingAccuracyRow {
                dataset: dataset.profile_name.clone(),
                window,
                h,
                precision: report.precision(),
                recall: report.recall(),
                f_measure: report.f_measure(),
            });
        }
    }
    rows
}

/// Renders sliding-window accuracy rows as a table.
pub fn sliding_accuracy_table(title: &str, rows: &[SlidingAccuracyRow]) -> Table {
    let mut t = Table::new(
        title,
        &["dataset", "W", "h", "precision", "recall", "F-measure"],
    );
    for r in rows {
        t.push_row(vec![
            r.dataset.as_str().into(),
            r.window.into(),
            Cell::Float(r.h),
            Cell::Percent(r.precision),
            Cell::Percent(r.recall),
            Cell::Percent(r.f_measure),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Ablations (not in the paper): similarity-measure choice and θ thresholds.
// ---------------------------------------------------------------------------

/// One ablation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Dataset name.
    pub dataset: String,
    /// Variant label (similarity measure or θ configuration).
    pub variant: String,
    /// Number of clusters produced.
    pub clusters: usize,
    /// Size of the largest cluster.
    pub largest: usize,
    /// Total monitoring milliseconds.
    pub total_ms: f64,
    /// Total pairwise object comparisons.
    pub comparisons: u64,
    /// Recall against the exact frontiers (1.0 for exact variants).
    pub recall: f64,
}

/// Ablation A: how the choice of exact similarity measure (Sec. 5) affects
/// cluster structure and FilterThenVerify cost.
/// Ablation B: how the θ2 threshold (Alg. 3) trades recall for comparisons.
pub fn ablation_experiment(profile: &DatasetProfile, scale: &Scale, h: f64) -> Vec<AblationRow> {
    let dataset = generate_dataset(profile, scale);
    let mut baseline = Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, None);
    for object in dataset.objects.iter().cloned() {
        baseline.process(object);
    }
    let exact_frontiers = baseline.all_frontiers();
    let mut rows = Vec::new();

    // Ablation A: exact measures.
    for measure in ExactMeasure::ALL {
        let (clusters, summary) = cluster_dataset(&dataset, measure, h);
        let mut monitor = Monitor::new(
            &dataset.preferences,
            Lifetime::UNLIMITED,
            Some(Filter::clusters(&clusters)),
        );
        let (ms, cmp) = run_to_completion(&mut monitor, dataset.objects.iter().cloned());
        rows.push(AblationRow {
            dataset: dataset.profile_name.clone(),
            variant: format!("measure={}", measure.name()),
            clusters: summary.clusters,
            largest: summary.largest,
            total_ms: ms,
            comparisons: cmp,
            recall: 1.0,
        });
    }

    // Ablation B: θ2 sweep for the approximate relations.
    for theta2 in [0.3, 0.5, 0.7] {
        let config = ApproxConfig::new(512, theta2);
        let (mut monitor, summary) = build_approx_monitor(&dataset, h, config, Lifetime::UNLIMITED);
        let (ms, cmp) = run_to_completion(&mut monitor, dataset.objects.iter().cloned());
        let report = AccuracyReport::compare(&exact_frontiers, &monitor.all_frontiers());
        rows.push(AblationRow {
            dataset: dataset.profile_name.clone(),
            variant: format!("theta2={theta2}"),
            clusters: summary.clusters,
            largest: summary.largest,
            total_ms: ms,
            comparisons: cmp,
            recall: report.recall(),
        });
    }
    rows
}

/// Renders ablation rows as a table.
pub fn ablation_table(title: &str, rows: &[AblationRow]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "dataset",
            "variant",
            "clusters",
            "largest",
            "total ms",
            "comparisons",
            "recall",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.dataset.as_str().into(),
            r.variant.as_str().into(),
            r.clusters.into(),
            r.largest.into(),
            Cell::Float(r.total_ms),
            r.comparisons.into(),
            Cell::Percent(r.recall),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Scale {
        Scale::smoke()
    }

    #[test]
    fn arrival_experiment_produces_rows_for_all_algorithms() {
        let rows = arrival_experiment(&DatasetProfile::movie(), &smoke(), 0.4);
        let algos: std::collections::HashSet<&str> = rows.iter().map(|r| r.algorithm).collect();
        assert_eq!(algos.len(), 3);
        // Comparisons grow with the checkpoints for each algorithm.
        for algo in [BASELINE, FTV, FTVA] {
            let c: Vec<u64> = rows
                .iter()
                .filter(|r| r.algorithm == algo)
                .map(|r| r.comparisons)
                .collect();
            assert!(c.windows(2).all(|w| w[0] <= w[1]), "{algo}: {c:?}");
        }
        let table = arrival_table("fig4", &rows);
        assert!(table.render().contains("Baseline"));
    }

    #[test]
    fn approximate_filter_then_verify_does_no_more_work_than_baseline() {
        let rows = arrival_experiment(&DatasetProfile::movie(), &smoke(), 0.3);
        let last = |algo: &str| {
            rows.iter()
                .filter(|r| r.algorithm == algo)
                .map(|r| r.comparisons)
                .max()
                .unwrap()
        };
        // Only the approximate variant is held to this: its comparison count
        // does not exceed the baseline's. Whether the exact one ever does less
        // work than Baseline is ROADMAP item 1.
        assert!(
            last(FTVA) <= last(BASELINE),
            "FTVA {} vs Baseline {}",
            last(FTVA),
            last(BASELINE)
        );
    }

    #[test]
    fn accuracy_experiment_reports_high_precision() {
        let rows = accuracy_experiment(&DatasetProfile::movie(), &smoke(), &[0.6, 0.4]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.precision > 0.5, "precision too low: {row:?}");
            assert!(row.recall > 0.3, "recall too low: {row:?}");
            assert!(row.f_measure > 0.0);
            assert!(row.clusters >= 1);
        }
        let table = accuracy_table("table11", &rows);
        assert!(table.render().contains('%'));
    }

    #[test]
    fn sliding_experiment_covers_all_windows() {
        let mut scale = smoke();
        scale.stream_len = 400;
        scale.window_sizes = vec![50, 100];
        let rows = sliding_experiment(&DatasetProfile::movie(), &scale, 0.4);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.comparisons > 0));
        let table = sliding_table("fig8", &rows);
        assert!(table.render().contains("BaselineSW"));
    }

    #[test]
    fn dimension_experiments_cover_requested_dims() {
        let rows = dimension_experiment(&DatasetProfile::movie(), &smoke(), 0.4, &[2, 3]);
        let dims: std::collections::HashSet<usize> = rows.iter().map(|r| r.dimensions).collect();
        assert_eq!(dims, [2, 3].into_iter().collect());
        assert_eq!(rows.len(), 6);
        let table = dimension_table("fig6", &rows);
        assert!(table.render().contains("| 2 |") || table.render().contains(" 2 "));
    }

    #[test]
    fn sliding_accuracy_experiment_reports_rows_per_window_and_h() {
        let mut scale = smoke();
        scale.stream_len = 300;
        scale.window_sizes = vec![60];
        let rows = sliding_accuracy_experiment(&DatasetProfile::publication(), &scale, &[0.5, 0.3]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.precision >= 0.0 && r.precision <= 1.0);
            assert!(r.recall >= 0.0 && r.recall <= 1.0);
        }
        let table = sliding_accuracy_table("table12", &rows);
        assert!(table.render().contains("publication"));
    }

    #[test]
    fn ablation_experiment_covers_measures_and_thetas() {
        let rows = ablation_experiment(&DatasetProfile::movie(), &smoke(), 0.4);
        assert_eq!(rows.len(), ExactMeasure::ALL.len() + 3);
        assert!(rows.iter().any(|r| r.variant.contains("measure=")));
        assert!(rows.iter().any(|r| r.variant.contains("theta2=")));
        let table = ablation_table("ablation", &rows);
        assert!(table.render().contains("measure=jaccard"));
    }
}
