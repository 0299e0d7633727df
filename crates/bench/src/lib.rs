//! # pm-bench
//!
//! The experiment harness that regenerates every figure and table of the
//! evaluation section (Sec. 8) of Sultana & Li (EDBT 2018), plus extra
//! ablation experiments on the monitor's design choices (README
//! §"Reproducing the paper's experiments").
//!
//! The harness is a library so that both the `reproduce` binary and the
//! Criterion benches drive the exact same code paths. Scales are
//! configurable: [`Scale::quick`] finishes in minutes on one core,
//! [`Scale::paper`] matches the paper's dataset sizes (hours).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod scale;
pub mod setup;
pub mod workload;

pub use experiments::{
    ablation_experiment, accuracy_experiment, arrival_experiment, dimension_experiment,
    sliding_accuracy_experiment, sliding_dimension_experiment, sliding_experiment, AblationRow,
    AccuracyRow, ArrivalRow, DimensionRow, SlidingAccuracyRow, SlidingRow,
};
pub use report::{format_table, Cell, Table};
pub use scale::Scale;
pub use setup::{build_approx_monitor, build_exact_monitor, cluster_dataset, ClusterSummary};
