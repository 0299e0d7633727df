//! Reproduces the figures and tables of the paper's evaluation section.
//!
//! ```text
//! reproduce [experiment ...] [--scale quick|smoke|paper] [--h <branch-cut>]
//!
//! experiments: fig4 fig5 fig6 fig7 table11 fig8 fig9 fig10 fig11 table12
//!              ablation all (default: all)
//! ```
//!
//! Output is printed as Markdown tables; README §"Reproducing the paper's
//! experiments" lists the experiments and scales.

use std::process::ExitCode;

use pm_bench::experiments::{
    ablation_experiment, ablation_table, accuracy_experiment, accuracy_table, arrival_experiment,
    arrival_table, dimension_experiment, dimension_table, sliding_accuracy_experiment,
    sliding_accuracy_table, sliding_dimension_experiment, sliding_experiment, sliding_table,
};
use pm_bench::Scale;
use pm_datagen::DatasetProfile;

const ALL_EXPERIMENTS: &[&str] = &[
    "fig4", "fig5", "fig6", "fig7", "table11", "fig8", "fig9", "fig10", "fig11", "table12",
    "ablation",
];

/// The branch cut used by the paper's headline experiments.
const DEFAULT_H: f64 = 0.55;
/// Branch cuts swept by Tables 11 and 12.
const H_SWEEP: &[f64] = &[0.70, 0.65, 0.60, 0.55];
/// Dimensionalities swept by Figures 6, 7, 10 and 11.
const DIMS: &[usize] = &[2, 3, 4];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments: Vec<String> = Vec::new();
    let mut scale = Scale::quick();
    let mut h = DEFAULT_H;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    eprintln!("--scale requires a value (quick|smoke|paper)");
                    return ExitCode::FAILURE;
                };
                match Scale::by_name(name) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale '{name}' (expected quick|smoke|paper)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--h" => {
                i += 1;
                let Some(value) = args.get(i).and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--h requires a numeric value");
                    return ExitCode::FAILURE;
                };
                h = value;
            }
            "--help" | "-h" => {
                println!(
                    "usage: reproduce [experiment ...] [--scale quick|smoke|paper] [--h <branch-cut>]\n\
                     experiments: {} all",
                    ALL_EXPERIMENTS.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            other => experiments.push(other.to_owned()),
        }
        i += 1;
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = ALL_EXPERIMENTS.iter().map(|s| (*s).to_owned()).collect();
    }

    let movie = DatasetProfile::movie();
    let publication = DatasetProfile::publication();
    println!(
        "# Reproduction run (scale: {} users, {} objects, stream {}, h = {h})\n",
        scale.users,
        if scale.objects == usize::MAX {
            "paper".to_owned()
        } else {
            scale.objects.to_string()
        },
        scale.stream_len
    );

    for experiment in &experiments {
        match experiment.as_str() {
            "fig4" => {
                let rows = arrival_experiment(&movie, &scale, h);
                println!(
                    "{}",
                    arrival_table("Figure 4: cumulative cost vs |O| (movie)", &rows).render()
                );
            }
            "fig5" => {
                let rows = arrival_experiment(&publication, &scale, h);
                println!(
                    "{}",
                    arrival_table("Figure 5: cumulative cost vs |O| (publication)", &rows).render()
                );
            }
            "fig6" => {
                let rows = dimension_experiment(&movie, &scale, h, DIMS);
                println!(
                    "{}",
                    dimension_table("Figure 6: cost vs d (movie)", &rows).render()
                );
            }
            "fig7" => {
                let rows = dimension_experiment(&publication, &scale, h, DIMS);
                println!(
                    "{}",
                    dimension_table("Figure 7: cost vs d (publication)", &rows).render()
                );
            }
            "table11" => {
                let mut rows = accuracy_experiment(&movie, &scale, H_SWEEP);
                rows.extend(accuracy_experiment(&publication, &scale, H_SWEEP));
                println!(
                    "{}",
                    accuracy_table("Table 11: accuracy of FilterThenVerifyApprox vs h", &rows)
                        .render()
                );
            }
            "fig8" => {
                let rows = sliding_experiment(&movie, &scale, h);
                println!(
                    "{}",
                    sliding_table("Figure 8: sliding-window cost vs W (movie)", &rows).render()
                );
            }
            "fig9" => {
                let rows = sliding_experiment(&publication, &scale, h);
                println!(
                    "{}",
                    sliding_table("Figure 9: sliding-window cost vs W (publication)", &rows)
                        .render()
                );
            }
            "fig10" => {
                let rows = sliding_dimension_experiment(&movie, &scale, h, DIMS);
                println!(
                    "{}",
                    dimension_table("Figure 10: sliding-window cost vs d (movie)", &rows).render()
                );
            }
            "fig11" => {
                let rows = sliding_dimension_experiment(&publication, &scale, h, DIMS);
                println!(
                    "{}",
                    dimension_table("Figure 11: sliding-window cost vs d (publication)", &rows)
                        .render()
                );
            }
            "table12" => {
                let mut rows = sliding_accuracy_experiment(&movie, &scale, H_SWEEP);
                rows.extend(sliding_accuracy_experiment(&publication, &scale, H_SWEEP));
                println!(
                    "{}",
                    sliding_accuracy_table(
                        "Table 12: accuracy of FilterThenVerifyApproxSW vs W and h",
                        &rows
                    )
                    .render()
                );
            }
            "ablation" => {
                let rows = ablation_experiment(&movie, &scale, h);
                println!(
                    "{}",
                    ablation_table("Ablation: similarity measures and θ2 (movie)", &rows).render()
                );
            }
            other => {
                eprintln!("unknown experiment '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
