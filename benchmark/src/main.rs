//! `pm-benchmark` — the repo's one benchmark (see `benchmark/README.md`).
//!
//! ```text
//! pm-benchmark --server <pm-server binary> --out <scratch dir>
//!              [--workload <name>] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! `--trace 0` (the default) drives a child `pm-server` over loopback TCP
//! and reports the end-to-end metrics; `--trace 1` replays a prefix of the
//! same stream in-process, one layer deeper per rung, and reports the
//! per-layer metrics. Every metric is printed as `name unit value
//! n=<samples>`; the last line of standard output is the JSON result. The
//! exit code is non-zero when any operation failed.

mod child;
mod drive;
mod e2e;
mod ladder;
mod openloop;
mod oracle;
mod report;
mod scrape;
mod span;
mod spec;
mod stats;
mod subscriber;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use child::Env;
use report::Metric;
use spec::{Inputs, Spec, DEFAULT_SEED};

struct Options {
    server: PathBuf,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        server: PathBuf::new(),
        out: PathBuf::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            // One round per workload: same metric names, a tenth of the work.
            opts.seconds = 0.0;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| -> Result<f64, String> {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{what}: `{value}` is not a non-negative number"))
        };
        match flag.as_str() {
            "--server" => opts.server = PathBuf::from(&value),
            "--out" => opts.out = PathBuf::from(&value),
            "--workload" => opts.workload = Some(value.clone()),
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not an unsigned integer"))?
            }
            "--seconds" => opts.seconds = number("--seconds")?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.server.as_os_str().is_empty() || opts.out.as_os_str().is_empty() {
        return Err("--server and --out are required (benchmark/run.sh passes them)".to_owned());
    }
    Ok(opts)
}

/// The commit under test, when the checkout is a git repository.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one workload run hands back to `main`.
struct Outcome {
    correct: bool,
    report: String,
}

fn run_workload(spec: &Spec, opts: &Options, env: &Env) -> Outcome {
    let mode = if opts.trace { "traced" } else { "end-to-end" };
    eprintln!("== {} ({mode}, seed {}) ==", spec.name, opts.seed);
    let inputs = Inputs::generate(spec, opts.seed, spec.stream_len());
    let mut failures: Vec<String> = Vec::new();
    println!("{} digest {:016x}", spec.name, inputs.digest);
    let pinned = opts.seed != DEFAULT_SEED || inputs.digest == spec.pin;
    if !pinned {
        failures.push(format!(
            "inputs changed: digest {:016x}, pinned {:016x} — the generated preferences or \
             objects are not the ones the bounds were measured on",
            inputs.digest, spec.pin
        ));
    }

    let (metrics, diagnostics, attempted, failed, rounds) = if !pinned {
        (Vec::new(), Vec::new(), 1, 1, 0)
    } else if opts.trace {
        let traced = ladder::run(spec, &inputs, env, opts.seed);
        failures.extend(traced.failures);
        (
            traced.metrics,
            Vec::new(),
            traced.attempted,
            traced.failed,
            1,
        )
    } else {
        let run = e2e::run(spec, &inputs, env, opts.seed, opts.seconds, false);
        failures.extend(run.failures);
        (
            run.metrics,
            run.diagnostics,
            run.attempted,
            run.failed,
            run.rounds,
        )
    };

    for metric in metrics.iter().chain(&diagnostics) {
        println!("{}", metric.line());
    }
    for failure in failures.iter().take(10) {
        eprintln!("FAILED {}: {failure}", spec.name);
    }
    let correct = failed == 0 && !metrics.is_empty();
    let listed = |ms: &[Metric]| -> String {
        let body: Vec<String> = ms
            .iter()
            .map(|m| {
                report::object(&[
                    ("name", report::string(&m.name)),
                    ("unit", report::string(m.unit)),
                    ("value", report::number(m.value)),
                    ("n", m.n.to_string()),
                ])
            })
            .collect();
        format!("[{}]", body.join(", "))
    };
    let failure_list: Vec<String> = failures.iter().map(|f| report::string(f)).collect();
    let full = report::object(&[
        ("workload", report::string(spec.name)),
        ("mode", report::string(mode)),
        ("seed", opts.seed.to_string()),
        ("commit", report::string(&git_commit())),
        ("nproc", nproc().to_string()),
        ("backend", report::string(spec.backend)),
        ("shards", spec.shards.to_string()),
        ("users", spec.users.to_string()),
        ("stream_objects", spec.stream_len().to_string()),
        ("fill_objects", spec.fill.to_string()),
        (
            "open_loop_objects",
            spec.open_loop.map_or(0, |o| o.objects).to_string(),
        ),
        ("closed_loop_objects", spec.closed.to_string()),
        ("trace_prefix_objects", spec.trace_prefix.to_string()),
        ("rounds", rounds.to_string()),
        ("digest", report::string(&format!("{:016x}", inputs.digest))),
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", listed(&metrics)),
        ("diagnostics", listed(&diagnostics)),
        ("failures", format!("[{}]", failure_list.join(", "))),
    ]);
    let report_path = env.out_dir.join(format!(
        "{}.{}.json",
        spec.name,
        if opts.trace { "layers" } else { "report" }
    ));
    if let Err(e) = std::fs::write(&report_path, format!("{full}\n")) {
        eprintln!("cannot write {}: {e}", report_path.display());
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Outcome {
        correct,
        report: full,
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("pm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("pm-benchmark: cannot create {}: {e}", opts.out.display());
        return ExitCode::from(2);
    }
    let env = Env {
        server_bin: opts.server.clone(),
        out_dir: opts.out.clone(),
    };
    let specs: Vec<Spec> = match &opts.workload {
        Some(name) => match spec::all().into_iter().find(|s| s.name == name.as_str()) {
            Some(spec) => vec![spec],
            None => {
                eprintln!("pm-benchmark: unknown workload `{name}`");
                return ExitCode::from(2);
            }
        },
        None => spec::all(),
    };
    let outcomes: Vec<Outcome> = specs.iter().map(|s| run_workload(s, &opts, &env)).collect();
    if outcomes.len() > 1 {
        let reports: Vec<String> = outcomes.iter().map(|o| o.report.clone()).collect();
        println!("{{\"workloads\": [{}]}}", reports.join(", "));
    }
    if outcomes.iter().all(|o| o.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
