//! One untraced end-to-end run of a workload: rounds against fresh child
//! servers until `--seconds` of clocked time is used, the oracle, and the
//! end-to-end metrics.

use std::time::Instant;

use crate::child::Env;
use crate::drive::{run_round, Round, RoundCtx, Watch};
use crate::oracle::{self, Reference, Verdict};
use crate::report::Metric;
use crate::spec::{Inputs, Spec};
use crate::stats::{ascending, median, quantile};

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order. Every
/// workload reports every one of them.
pub const END_TO_END: [(&str, &str); 11] = [
    ("ingest_obj_per_s", "obj/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("deliver_p50_ms", "ms"),
    ("deliver_p90_ms", "ms"),
    ("register_p50_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("rss_mb", "MiB"),
    ("target_recall", "ratio"),
    ("target_precision", "ratio"),
    ("setup_s", "s"),
];

/// A run stops starting rounds once this much wall time has passed, so it
/// ends well inside the driver's per-run limit however slow the server is.
const WALL_BUDGET_S: f64 = 100.0;

/// What a run produced.
pub struct RunOutcome {
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub metrics: Vec<Metric>,
    /// Diagnostics printed beside them (never gated).
    pub diagnostics: Vec<Metric>,
    /// Operations attempted: wire requests, stream checks, oracle checks.
    pub attempted: u64,
    /// Operations failed: `ERR`s, evictions, timeouts, oracle mismatches.
    pub failed: u64,
    /// Failure descriptions for the report.
    pub failures: Vec<String>,
    /// Rounds run.
    pub rounds: usize,
    /// The last round (the traced run reads its scrape).
    pub last_round: Option<Round>,
}

/// Whether `backend` promises exact results under sharding: the append-only
/// exact backends and the per-user sliding baseline.
pub fn is_exact(backend: &str) -> bool {
    !(backend.starts_with("ftv-sw") || backend.contains("approx"))
}

/// The sliding window of `backend`, if it has one (its last `:` field).
pub fn window_of(backend: &str) -> Option<usize> {
    if !backend.contains("-sw") {
        return None;
    }
    backend.rsplit(':').next()?.parse().ok()
}

/// Runs `spec` end to end for about `seconds` of clocked time.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    env: &Env,
    seed: u64,
    seconds: f64,
    scrape: bool,
) -> RunOutcome {
    let watch = Watch::choose(spec, seed);
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut transport_failures = 0u64;
    let mut measured = 0.0;
    // At least one round, then more until `seconds` of clocked time.
    loop {
        let ctx = RoundCtx {
            spec,
            inputs,
            watch: &watch,
            env,
            index: rounds.len(),
            scrape,
        };
        match run_round(&ctx) {
            Ok(round) => {
                measured += round.measured_s;
                eprintln!(
                    "  round {}: setup {:.3} s, {} objects in {:.3} s, {} events, {} failed",
                    rounds.len(),
                    round.setup_s,
                    round.window_objects,
                    round.window_s,
                    round.events,
                    round.failed
                );
                rounds.push(round);
                if measured >= seconds || started.elapsed().as_secs_f64() >= WALL_BUDGET_S {
                    break;
                }
            }
            Err(e) => {
                // A transport failure voids the round; the run is over.
                failures.push(format!("round {}: {e}", rounds.len()));
                transport_failures += 1;
                break;
            }
        }
    }

    // ---- oracle: the first round naively, later rounds against it ----
    let exact = is_exact(spec.backend);
    let reference = Reference {
        prefs: &inputs.prefs,
        objects: &inputs.objects,
        window: window_of(spec.backend),
        exact,
    };
    let mut verdict = Verdict::default();
    let mut repeat_mismatches = 0u64;
    if let Some(first) = rounds.first() {
        verdict = oracle::check(&reference, &watch.sample, &first.log, 2);
        if exact {
            for (k, round) in rounds.iter().enumerate().skip(1) {
                if round.log != first.log {
                    repeat_mismatches += 1;
                    failures.push(format!("round {k} answered differently from round 0"));
                }
            }
        }
    }
    if let Some(what) = &verdict.first_mismatch {
        failures.push(format!("oracle: {what}"));
    }

    let mut attempted = verdict.checks + rounds.len().saturating_sub(1) as u64 + transport_failures;
    let mut failed = verdict.mismatches + repeat_mismatches + transport_failures;
    for round in &rounds {
        attempted += round.attempted;
        failed += round.failed;
        failures.extend(round.failures.iter().cloned());
    }

    // ---- metrics: medians over rounds, percentiles over pooled samples ----
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let pooled = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        ascending(rounds.iter().flat_map(|r| f(r).iter().copied()).collect())
    };
    let over_rounds = |name: &str, unit: &'static str, values: Vec<f64>| {
        Metric::new(name, unit, median(&values), values.len())
    };
    let percentile = |name: &str, sorted: &[f64], p: f64| {
        let q = quantile(sorted, p);
        Metric {
            supported: q.supported,
            ..Metric::new(name, "ms", q.value, q.n)
        }
    };
    let ingest = pooled(&|r| &r.ingest_ms);
    let deliver = pooled(&|r| &r.deliver_ms);
    let metrics = vec![
        over_rounds(
            "ingest_obj_per_s",
            "obj/s",
            per_round(&|r| r.window_objects as f64 / r.window_s),
        ),
        percentile("lat_p50_ms", &ingest, 50.0),
        percentile("lat_p90_ms", &ingest, 90.0),
        percentile("deliver_p50_ms", &deliver, 50.0),
        percentile("deliver_p90_ms", &deliver, 90.0),
        percentile("register_p50_ms", &pooled(&|r| &r.register_ms), 50.0),
        percentile("update_p50_ms", &pooled(&|r| &r.update_ms), 50.0),
        over_rounds("rss_mb", "MiB", per_round(&|r| r.rss_mb)),
        Metric::new(
            "target_recall",
            "ratio",
            verdict.recall(),
            (verdict.true_positives + verdict.false_negatives) as usize,
        ),
        Metric::new(
            "target_precision",
            "ratio",
            verdict.precision(),
            (verdict.true_positives + verdict.false_positives) as usize,
        ),
        over_rounds("setup_s", "s", per_round(&|r| r.setup_s)),
    ];
    debug_assert!(metrics
        .iter()
        .zip(END_TO_END)
        .all(|(m, (name, unit))| m.name == name && m.unit == unit));

    let mut diagnostics = vec![
        Metric::new(
            "failed_share",
            "ratio",
            failed as f64 / attempted.max(1) as f64,
            attempted as usize,
        ),
        percentile("gen.lat_p99_ms", &ingest, 99.0),
        percentile("gen.deliver_p99_ms", &deliver, 99.0),
        over_rounds("gen.cpu_share", "ratio", per_round(&|r| r.gen_cpu_share)),
        over_rounds(
            "gen.events_per_obj",
            "count",
            per_round(&|r| r.events as f64 / inputs.objects.len().max(1) as f64),
        ),
    ];
    let late = pooled(&|r| &r.late_ms);
    if !late.is_empty() {
        diagnostics.push(percentile("gen.late_p50_ms", &late, 50.0));
        diagnostics.push(percentile("gen.late_p90_ms", &late, 90.0));
        diagnostics.push(percentile("gen.late_p99_ms", &late, 99.0));
        diagnostics.push(Metric::new(
            "gen.backlog_max",
            "count",
            rounds.iter().map(|r| r.backlog_max).max().unwrap_or(0) as f64,
            rounds.len(),
        ));
    }
    let recovery: Vec<f64> = rounds.iter().filter_map(|r| r.recovery_s).collect();
    if !recovery.is_empty() {
        diagnostics.push(over_rounds("recovery_s", "s", recovery));
    }

    RunOutcome {
        metrics,
        diagnostics,
        attempted,
        failed,
        failures,
        rounds: rounds.len(),
        last_round: rounds.pop(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_classification() {
        assert!(is_exact("ftv:0.4"));
        assert!(is_exact("ftv:0.4:compact"));
        assert!(is_exact("baseline"));
        assert!(is_exact("baseline-sw:400"));
        assert!(!is_exact("ftv-sw:0.4:400"));
        assert!(!is_exact("ftv-approx:0.4:0.5:0.5"));
        assert_eq!(window_of("ftv-sw:0.4:400"), Some(400));
        assert_eq!(window_of("baseline-sw:32"), Some(32));
        assert_eq!(window_of("ftv:0.4:compact"), None);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_end_to_end_metrics() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let section = text
            .split("\"end_to_end\"")
            .nth(1)
            .and_then(|rest| rest.split("\"per_layer\"").next())
            .expect("end_to_end precedes per_layer");
        for (name, unit) in END_TO_END {
            assert!(
                section.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) is not in BENCHMARK.json's end_to_end list"
            );
        }
        assert_eq!(section.matches("\"name\"").count(), END_TO_END.len());
    }
}
