//! The traced run: a fixed prefix of the workload's stream replayed
//! in-process at successive depths — kernel ops, one monitor's `process`,
//! `ShardedEngine::submit_batch`/`wait_timed` (1 and 2 shards, WAL on and
//! off), `parse_request` + `EngineService::handle` + `render_text`, and the
//! reactor over loopback — with the harness wrapping every call into a
//! layer in a span. A layer's self time is its rung minus the rung below,
//! request by request (request id = batch index). One short untraced
//! child-process round over the same prefix supplies the server's own
//! stage histograms (`srv.*`), the generator's validity numbers (`gen.*`)
//! and the end-to-end time per object the ledger must account for.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pm_cluster::{Clustering, ExactMeasure};
use pm_engine::durability::recover_or_create;
use pm_engine::{
    parse_request, render_text, serve_with_signal, shard_of, shutdown_pair, BackendSpec,
    DurabilityConfig, EngineConfig, EngineService, ReactorConfig, ShardedEngine,
};
use pm_model::{Object, UserId};
use pm_porder::{CompiledPreference, Preference};
use pm_wal::{encode_ingest_batch, SyncPolicy, Wal};

use crate::child::{Env, TempDir};
use crate::drive::{pipelined, Watch};
use crate::e2e::{self, window_of};
use crate::report::Metric;
use crate::scrape;
use crate::span::{rung_self_time_ns, Trace};
use crate::spec::{register_choice, update_choice, Inputs, Spec, CHURN_ID_BASE};
use crate::stats::{ascending, mean, quantile};
use crate::subscriber;
use crate::wire::{self, Client, REPLY_TIMEOUT};

/// The per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order. Every
/// workload's traced run reports every one of them.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("porder.dominates_ops_per_s", "1/s"),
    ("porder.compile_us_per_pref", "us"),
    ("cluster.build_s", "s"),
    ("cluster.count", "count"),
    ("cluster.largest", "count"),
    ("cluster.common_tuples_mean", "count"),
    ("cluster.insert_us", "us"),
    ("cluster.remove_us", "us"),
    ("cluster.update_us", "us"),
    ("core.us_per_obj", "us"),
    ("core.cmp_per_obj", "count"),
    ("core.targets_per_obj", "count"),
    ("core.frontier_mean", "count"),
    ("core.kernel_share", "ratio"),
    ("core.cmp_ratio_vs_baseline", "ratio"),
    ("core.add_user_us", "us"),
    ("core.remove_user_us", "us"),
    ("core.update_user_us", "us"),
    ("core.history_retained_ratio", "ratio"),
    ("engine.new_s", "s"),
    ("engine.us_per_obj.s1", "us"),
    ("engine.us_per_obj.s2", "us"),
    ("engine.overhead_ratio", "ratio"),
    ("engine.lock_hold_us", "us"),
    ("engine.fan_in_us", "us"),
    ("engine.register_us", "us"),
    ("engine.update_us", "us"),
    ("engine.unregister_us", "us"),
    ("service.parse_us_per_req", "us"),
    ("service.handle_us_per_obj", "us"),
    ("service.render_us_per_obj", "us"),
    ("service.reply_bytes_per_obj", "B"),
    ("service.overhead_ratio", "ratio"),
    ("reactor.us_per_obj", "us"),
    ("reactor.overhead_ratio", "ratio"),
    ("reactor.rtt_us", "us"),
    ("reactor.event_bytes_per_s", "B/s"),
    ("wal.overhead_ratio", "ratio"),
    ("wal.append_us_per_rec", "us"),
    ("wal.bytes_per_obj", "B"),
    ("wal.fsyncs", "count"),
    ("wal.snapshot_s", "s"),
    ("wal.replay_obj_per_s", "obj/s"),
    ("wal.recovery_s", "s"),
    ("srv.stage_parse_p50_us", "us"),
    ("srv.stage_lock_hold_p50_us", "us"),
    ("srv.stage_queue_wait_p50_us", "us"),
    ("srv.stage_shard_apply_p50_us", "us"),
    ("srv.stage_fan_in_p50_us", "us"),
    ("srv.cmp_per_obj", "count"),
    ("srv.notifications_per_obj", "count"),
    ("srv.history_objects", "count"),
    ("srv.bytes_per_user", "B"),
    ("srv.distinct_preferences", "count"),
    ("gen.cpu_share", "ratio"),
    ("gen.lat_p99_ms", "ms"),
    ("gen.deliver_p99_ms", "ms"),
    ("ledger.accounted_share", "ratio"),
    ("ledger.share.core", "ratio"),
    ("ledger.share.engine", "ratio"),
    ("ledger.share.wal", "ratio"),
    ("ledger.share.service", "ratio"),
    ("ledger.share.reactor", "ratio"),
    ("ledger.trace_overhead_ratio", "ratio"),
    ("ledger.e2e_us_per_obj", "us"),
];

/// Kernel operations timed for `porder.dominates_ops_per_s`.
const KERNEL_OPS: usize = 2_000_000;
/// Membership operations timed per churn metric.
const CHURN_OPS: usize = 8;
/// `HEALTH` round trips behind `reactor.rtt_us`.
const RTT_PROBES: usize = 200;
/// `QUERY`-able arrivals the in-process services keep (the server default).
const QUERY_HISTORY: usize = 4096;
/// The branch cut clustering is measured at when the backend has none.
const DEFAULT_BRANCH_CUT: f64 = 0.4;

/// What a traced run produced.
pub struct Traced {
    /// The per-layer metrics, in [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (the child round's, plus one per rung).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failure descriptions.
    pub failures: Vec<String>,
}

/// The values collected so far, by metric name, with their sample counts.
#[derive(Default)]
struct Collected(BTreeMap<&'static str, (f64, usize)>);

impl Collected {
    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.0.insert(name, (value, n));
    }
}

/// Passes of each on-path rung; the faster pass is the one kept. Rungs are
/// compared with each other, and on a shared host one pass of a rung is
/// often 20-30 % off while its neighbours are not.
const PASSES: usize = 2;

/// Runs `rung` [`PASSES`] times, each into its own fork of `trace` and its
/// own value set, and keeps the pass with the lowest microseconds per
/// object (the rung's return value).
fn best_of(
    trace: &mut Trace,
    out: &mut Collected,
    mut rung: impl FnMut(&mut Trace, &mut Collected) -> Result<f64, String>,
) -> Result<f64, String> {
    let mut best: Option<(f64, Trace, Collected)> = None;
    for _ in 0..PASSES {
        let (mut fork, mut values) = (trace.fork(), Collected::default());
        let us_per_obj = rung(&mut fork, &mut values)?;
        if best
            .as_ref()
            .map_or(true, |(kept, _, _)| us_per_obj < *kept)
        {
            best = Some((us_per_obj, fork, values));
        }
    }
    let (us_per_obj, fork, values) = best.expect("at least one pass");
    trace.absorb(fork);
    out.0.extend(values.0);
    Ok(us_per_obj)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times [`CHURN_OPS`] membership triples — `step` 0 registers the `k`-th
/// churn user, 1 updates it, 2 removes it — and returns the mean
/// microseconds of each step.
fn time_churn(mut op: impl FnMut(usize, usize)) -> [f64; 3] {
    let mut sums = [0.0; 3];
    for k in 0..CHURN_OPS {
        for (step, sum) in sums.iter_mut().enumerate() {
            let start = Instant::now();
            op(k, step);
            *sum += us(start.elapsed());
        }
    }
    sums.map(|sum| sum / CHURN_OPS as f64)
}

/// The stream the rungs replay: an untimed fill, then the timed prefix in
/// the workload's batches.
struct Replay<'a> {
    fill: &'a [Object],
    batches: Vec<&'a [Object]>,
    /// The same batches as `INGEST` lines (with newline).
    lines: Vec<String>,
    fill_lines: Vec<String>,
    objects: usize,
}

impl<'a> Replay<'a> {
    fn new(spec: &Spec, inputs: &'a Inputs) -> Self {
        let timed = &inputs.objects[spec.fill..spec.fill + spec.trace_prefix];
        let line = |from: usize, len: usize| inputs.ingest_line(from, len);
        let starts = |from: usize, to: usize| (from..to).step_by(spec.batch);
        Self {
            fill: &inputs.objects[..spec.fill],
            batches: timed.chunks(spec.batch).collect(),
            lines: starts(spec.fill, spec.fill + spec.trace_prefix)
                .map(|s| line(s, spec.batch.min(spec.fill + spec.trace_prefix - s)))
                .collect(),
            fill_lines: starts(0, spec.fill)
                .map(|s| line(s, spec.batch.min(spec.fill - s)))
                .collect(),
            objects: timed.len(),
        }
    }
}

/// The branch cut of an `ftv*` backend spec (`ftv:<h>...`).
fn branch_cut(backend: &str) -> f64 {
    backend
        .strip_prefix("ftv")
        .and_then(|_| backend.split(':').nth(1))
        .and_then(|h| h.parse().ok())
        .unwrap_or(DEFAULT_BRANCH_CUT)
}

/// Runs the traced ladder for `spec`.
pub fn run(spec: &Spec, inputs: &Inputs, env: &Env, seed: u64) -> Traced {
    assert!(
        spec.trace_prefix <= spec.closed,
        "the traced prefix must fit the closed-loop window"
    );
    let backend = BackendSpec::parse(spec.backend).expect("workload backends parse");
    let replay = Replay::new(spec, inputs);
    let watch = Watch::choose(spec, seed);
    let mut trace = Trace::default();
    let mut out = Collected::default();
    let mut failures: Vec<String> = Vec::new();

    let kernel_rate = rung_porder(inputs, &replay, &mut out);
    rung_cluster(spec, inputs, &mut out);
    // A failed rung reports the rung below in its place, so the rungs above
    // still compute; the failure itself fails the run.
    let mut attempt = |what: &str, fallback: f64, result: Result<f64, String>| {
        result.unwrap_or_else(|e| {
            failures.push(format!("{what} rung: {e}"));
            fallback
        })
    };
    let core_us = attempt(
        "core",
        0.0,
        best_of(&mut trace, &mut out, |trace, out| {
            Ok(rung_core(
                spec,
                inputs,
                &backend,
                &replay,
                kernel_rate,
                trace,
                out,
            ))
        }),
    );
    baseline_comparison(spec, inputs, &replay, &mut out);
    let off_path = if spec.shards == 1 { 2 } else { 1 };
    rung_engine(
        off_path, spec, inputs, &backend, &replay, core_us, &mut trace, &mut out,
    );
    let engine_us = attempt(
        "engine",
        core_us,
        best_of(&mut trace, &mut out, |trace, out| {
            Ok(rung_engine(
                spec.shards,
                spec,
                inputs,
                &backend,
                &replay,
                core_us,
                trace,
                out,
            ))
        }),
    );
    let wal_us = attempt(
        "wal",
        engine_us,
        rung_wal(
            spec, inputs, &backend, &replay, engine_us, env, &mut trace, &mut out,
        ),
    );
    let service_us = attempt(
        "service",
        engine_us,
        best_of(&mut trace, &mut out, |trace, out| {
            Ok(rung_service(
                spec, inputs, &backend, &replay, engine_us, trace, out,
            ))
        }),
    );
    let reactor_us = attempt(
        "reactor",
        service_us,
        best_of(&mut trace, &mut out, |trace, out| {
            rung_reactor(
                spec, inputs, &backend, &replay, &watch, service_us, trace, out,
            )
        }),
    );

    // ---- the untraced child round over the same prefix ----
    let child_spec = Spec {
        closed: spec.trace_prefix,
        churn: false,
        open_loop: None,
        ..spec.clone()
    };
    let child = e2e::run(&child_spec, inputs, env, seed, 0.0, true);
    let child_rate = child
        .metrics
        .iter()
        .find(|m| m.name == "ingest_obj_per_s")
        .map_or(0.0, |m| m.value);
    let e2e_us = if child_rate > 0.0 {
        1e6 / child_rate
    } else {
        0.0
    };
    let diagnostic = |name: &'static str| {
        child
            .diagnostics
            .iter()
            .find(|m| m.name == name)
            .map_or((0.0, 0), |m| (m.value, m.n))
    };
    for metric in ["gen.cpu_share", "gen.lat_p99_ms", "gen.deliver_p99_ms"] {
        let (value, n) = diagnostic(metric);
        out.put(metric, value, n);
    }
    match child.last_round.as_ref().and_then(|r| r.scrape.as_ref()) {
        Some((stats, exposition)) => match scrape::server_metrics(stats, exposition) {
            Ok(values) => values
                .into_iter()
                .for_each(|(name, v, n)| out.put(name, v, n)),
            Err(e) => failures.push(format!("scrape: {e}")),
        },
        None => failures.push("the child round produced no scrape".to_owned()),
    }

    // ---- the ledger: self time per layer against the end-to-end time ----
    let per_obj = |upper: &str, lower: &str| {
        let (ns, _) = rung_self_time_ns(trace.spans(), upper, lower);
        ns as f64 / 1e3 / replay.objects as f64
    };
    let wal_self = if spec.wal { wal_us - engine_us } else { 0.0 };
    let layers = [
        ("core", "ledger.share.core", core_us),
        (
            "engine",
            "ledger.share.engine",
            per_obj("engine.batch", "core.batch"),
        ),
        ("wal", "ledger.share.wal", wal_self),
        (
            "service",
            "ledger.share.service",
            per_obj("service.request", "engine.batch"),
        ),
        (
            "reactor",
            "ledger.share.reactor",
            per_obj("reactor.request", "service.request"),
        ),
    ];
    let mut ranked: Vec<(&str, f64)> = Vec::new();
    let mut accounted = 0.0;
    for (layer, metric, self_us) in layers {
        let share = if e2e_us > 0.0 {
            self_us.max(0.0) / e2e_us
        } else {
            0.0
        };
        accounted += share;
        ranked.push((layer, share));
        out.put(metric, share, replay.batches.len());
    }
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("ledger.top1 layer {} share={:.3}", ranked[0].0, ranked[0].1);
    println!("ledger.top2 layer {} share={:.3}", ranked[1].0, ranked[1].1);
    out.put("ledger.accounted_share", accounted, replay.batches.len());
    out.put("ledger.e2e_us_per_obj", e2e_us, replay.objects);
    out.put(
        "ledger.trace_overhead_ratio",
        if e2e_us > 0.0 {
            (reactor_us + wal_self) / e2e_us
        } else {
            0.0
        },
        replay.objects,
    );

    let trace_path = env.out_dir.join(format!("{}.trace.json", spec.name));
    if let Err(e) = std::fs::write(&trace_path, trace.to_json()) {
        failures.push(format!("cannot write {}: {e}", trace_path.display()));
    }

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        match out.0.get(name) {
            Some(&(value, n)) => metrics.push(Metric::new(name, unit, value, n)),
            None => failures.push(format!("{name} was not measured")),
        }
    }
    // One attempt per rung on top of the child round's operations.
    let rungs = 7;
    let failed = child.failed + failures.len() as u64;
    failures.extend(child.failures);
    Traced {
        metrics,
        attempted: child.attempted + rungs,
        failed,
        failures,
    }
}

/// Rung 0, `pm-porder`: the compiled dominance kernel on this workload's
/// preferences and objects, and what compiling a preference costs.
fn rung_porder(inputs: &Inputs, replay: &Replay<'_>, out: &mut Collected) -> f64 {
    let take = inputs.prefs.len().min(64);
    let start = Instant::now();
    let compiled: Vec<CompiledPreference> = inputs.prefs[..take]
        .iter()
        .map(Preference::compile)
        .collect();
    out.put(
        "porder.compile_us_per_pref",
        us(start.elapsed()) / take as f64,
        take,
    );
    let objects: Vec<&Object> = replay.batches.iter().flat_map(|b| b.iter()).collect();
    let n = objects.len();
    let start = Instant::now();
    let mut dominated = 0usize;
    for i in 0..KERNEL_OPS {
        let a = objects[i % n];
        let b = objects[(i * 7 + 3) % n];
        dominated += usize::from(compiled[i % take].dominates(a, b));
    }
    std::hint::black_box(dominated);
    let rate = KERNEL_OPS as f64 / start.elapsed().as_secs_f64();
    out.put("porder.dominates_ops_per_s", rate, KERNEL_OPS);
    rate
}

/// Rung 1, `pm-cluster`: the agglomerative build over the population and
/// the incremental maintenance operations churn runs.
fn rung_cluster(spec: &Spec, inputs: &Inputs, out: &mut Collected) {
    let prefs = &inputs.prefs;
    let start = Instant::now();
    let mut clustering = Clustering::new(prefs, ExactMeasure::Jaccard, branch_cut(spec.backend));
    out.put("cluster.build_s", start.elapsed().as_secs_f64(), 1);
    let clusters = clustering.clusters();
    out.put("cluster.count", clusters.len() as f64, 1);
    out.put(
        "cluster.largest",
        clusters.iter().map(|c| c.members.len()).max().unwrap_or(0) as f64,
        1,
    );
    let tuples: Vec<f64> = clusters
        .iter()
        .map(|c| c.common.total_pairs() as f64)
        .collect();
    out.put("cluster.common_tuples_mean", mean(&tuples), tuples.len());

    let [insert, update, remove] = time_churn(|k, step| {
        let user = UserId::new(CHURN_ID_BASE + k as u32);
        match step {
            0 => drop(clustering.insert_user(user, &prefs[register_choice(k, prefs.len())])),
            1 => drop(clustering.update_user(user, &prefs[update_choice(k, prefs.len()).1])),
            _ => drop(clustering.remove_user(user)),
        }
    });
    out.put("cluster.insert_us", insert, CHURN_OPS);
    out.put("cluster.update_us", update, CHURN_OPS);
    out.put("cluster.remove_us", remove, CHURN_OPS);
}

/// The preferences shard `shard` of `shards` owns, in user-id order.
fn shard_prefs(prefs: &[Preference], shard: usize, shards: usize) -> Vec<Preference> {
    prefs
        .iter()
        .enumerate()
        .filter(|(user, _)| shard_of(UserId::from(*user), shards) == shard)
        .map(|(_, pref)| pref.clone())
        .collect()
}

/// Rung 2, `pm-core`: one monitor per shard partition, `process` per
/// object. Shards run one after the other here; a batch's time on the
/// critical path is its slowest shard, which is what `core.batch` records
/// (the other shards' spans are kept as `core.batch.offpath`). Returns
/// microseconds per object on the critical path.
fn rung_core(
    spec: &Spec,
    inputs: &Inputs,
    backend: &BackendSpec,
    replay: &Replay<'_>,
    kernel_rate: f64,
    trace: &mut Trace,
    out: &mut Collected,
) -> f64 {
    let shards = spec.shards;
    // Per shard, per batch: when it started and how long it took.
    let mut timings: Vec<Vec<(Instant, Duration)>> = Vec::new();
    let (mut comparisons, mut notifications, mut busy) = (0u64, 0u64, Duration::ZERO);
    let (mut retained, mut arrivals) = (0u64, 0u64);
    let mut frontier_sizes: Vec<f64> = Vec::new();
    let mut churn = [0.0; 3];
    for shard in 0..shards {
        let prefs = shard_prefs(&inputs.prefs, shard, shards);
        let mut monitor = backend.build(&prefs);
        for object in replay.fill {
            monitor.process(object.clone());
        }
        let before = monitor.stats();
        let mut per_batch = Vec::with_capacity(replay.batches.len());
        for batch in &replay.batches {
            let start = Instant::now();
            for object in batch.iter() {
                std::hint::black_box(monitor.process(object.clone()));
            }
            per_batch.push((start, start.elapsed()));
        }
        busy += per_batch.iter().map(|(_, took)| *took).sum::<Duration>();
        timings.push(per_batch);
        let stats = monitor.stats();
        comparisons += stats.comparisons - before.comparisons;
        notifications += stats.notifications - before.notifications;
        retained += stats.history_objects;
        arrivals += stats.arrivals;
        let users = monitor.num_users();
        for local in (0..users).step_by((users / 32).max(1)) {
            frontier_sizes.push(monitor.frontier(UserId::from(local)).len() as f64);
        }
        if shard == 0 {
            let users = inputs.prefs.len();
            let mut joined = UserId::new(0);
            churn = time_churn(|k, step| match step {
                0 => joined = monitor.add_user(inputs.prefs[register_choice(k, users)].clone()),
                1 => monitor.update_user(joined, inputs.prefs[update_choice(k, users).1].clone()),
                _ => drop(monitor.remove_user(joined)),
            });
        }
    }
    let mut critical = Duration::ZERO;
    for (request, _) in replay.batches.iter().enumerate() {
        let slowest = (0..shards)
            .max_by_key(|&s| timings[s][request].1)
            .expect("at least one shard");
        for (shard, per_batch) in timings.iter().enumerate() {
            let name = if shard == slowest {
                "core.batch"
            } else {
                "core.batch.offpath"
            };
            let (start, took) = per_batch[request];
            trace.record(name, request as u64, start, took);
        }
        critical += timings[slowest][request].1;
    }
    let n = replay.objects as f64;
    let core_us = us(critical) / n;
    out.put("core.us_per_obj", core_us, replay.objects);
    out.put("core.cmp_per_obj", comparisons as f64 / n, replay.objects);
    out.put(
        "core.targets_per_obj",
        notifications as f64 / n,
        replay.objects,
    );
    out.put(
        "core.frontier_mean",
        mean(&frontier_sizes),
        frontier_sizes.len(),
    );
    out.put(
        "core.kernel_share",
        comparisons as f64 / kernel_rate / busy.as_secs_f64().max(1e-12),
        replay.objects,
    );
    out.put(
        "core.history_retained_ratio",
        retained as f64 / arrivals.max(1) as f64,
        arrivals as usize,
    );
    let [add, update, remove] = churn;
    out.put("core.add_user_us", add, CHURN_OPS);
    out.put("core.update_user_us", update, CHURN_OPS);
    out.put("core.remove_user_us", remove, CHURN_OPS);

    core_us
}

/// `core.cmp_ratio_vs_baseline`: the same stream through the per-user
/// baseline (`baseline` / `baseline-sw:<W>`). Below 1 the cluster filter
/// saves comparisons; above 1 it costs more than it saves.
fn baseline_comparison(spec: &Spec, inputs: &Inputs, replay: &Replay<'_>, out: &mut Collected) {
    let reference = match window_of(spec.backend) {
        Some(window) => format!("baseline-sw:{window}"),
        None => "baseline".to_owned(),
    };
    let ratio = if reference == spec.backend {
        1.0
    } else {
        let mut baseline = BackendSpec::parse(&reference)
            .expect("reference backends parse")
            .build(&inputs.prefs);
        for object in replay.fill {
            baseline.process(object.clone());
        }
        let before = baseline.stats().comparisons;
        for object in replay.batches.iter().flat_map(|b| b.iter()) {
            baseline.process(object.clone());
        }
        let reference_cmp = (baseline.stats().comparisons - before).max(1) as f64;
        let measured = out.0.get("core.cmp_per_obj").map_or(0.0, |v| v.0);
        measured * replay.objects as f64 / reference_cmp
    };
    out.put("core.cmp_ratio_vs_baseline", ratio, replay.objects);
}

/// What one pass of the batches through an engine measured.
struct EnginePass {
    us_per_obj: f64,
    lock_hold_us: f64,
    fan_in_us: f64,
}

/// Fills, then times `submit_batch` + `wait_timed` per batch under `name`.
fn engine_pass(
    engine: &ShardedEngine,
    replay: &Replay<'_>,
    name: &'static str,
    trace: &mut Trace,
) -> EnginePass {
    if !replay.fill.is_empty() {
        engine.process_batch(replay.fill.to_vec());
    }
    let (mut total, mut lock_hold, mut fan_in) = (Duration::ZERO, Vec::new(), Vec::new());
    for (request, batch) in replay.batches.iter().enumerate() {
        let objects = batch.to_vec();
        let start = Instant::now();
        let (arrivals, timing) = trace.leaf(name, request as u64, None, || {
            engine.submit_batch(objects).wait_timed()
        });
        total += start.elapsed();
        std::hint::black_box(arrivals);
        lock_hold.push(us(timing.lock_hold));
        fan_in.push(us(timing.fan_in));
    }
    EnginePass {
        us_per_obj: us(total) / replay.objects as f64,
        lock_hold_us: mean(&lock_hold),
        fan_in_us: mean(&fan_in),
    }
}

/// Rung 3, `ShardedEngine` with `shards` workers. At the workload's own
/// shard count the spans are `engine.batch` and the overhead, stage and
/// membership metrics are taken; the other count only reports its
/// microseconds per object. Returns microseconds per object.
#[allow(clippy::too_many_arguments)]
fn rung_engine(
    shards: usize,
    spec: &Spec,
    inputs: &Inputs,
    backend: &BackendSpec,
    replay: &Replay<'_>,
    core_us: f64,
    trace: &mut Trace,
    out: &mut Collected,
) -> f64 {
    let on_path = shards == spec.shards;
    let start = Instant::now();
    let engine = ShardedEngine::new(inputs.prefs.clone(), &EngineConfig::new(shards), backend);
    let built = start.elapsed();
    let pass = engine_pass(
        &engine,
        replay,
        if on_path {
            "engine.batch"
        } else {
            "engine.batch.other"
        },
        trace,
    );
    out.put(
        if shards == 1 {
            "engine.us_per_obj.s1"
        } else {
            "engine.us_per_obj.s2"
        },
        pass.us_per_obj,
        replay.objects,
    );
    if !on_path {
        return pass.us_per_obj;
    }
    out.put("engine.new_s", built.as_secs_f64(), 1);
    out.put(
        "engine.lock_hold_us",
        pass.lock_hold_us,
        replay.batches.len(),
    );
    out.put("engine.fan_in_us", pass.fan_in_us, replay.batches.len());
    out.put(
        "engine.overhead_ratio",
        pass.us_per_obj / core_us,
        replay.objects,
    );
    let users = inputs.prefs.len();
    let [register, update, unregister] = time_churn(|k, step| {
        let user = UserId::new(CHURN_ID_BASE + k as u32);
        match step {
            0 => engine.register(user, inputs.prefs[register_choice(k, users)].clone()),
            1 => engine.update(user, inputs.prefs[update_choice(k, users).1].clone()),
            _ => engine.unregister(user),
        }
        .expect("churn on a healthy engine");
    });
    out.put("engine.register_us", register, CHURN_OPS);
    out.put("engine.update_us", update, CHURN_OPS);
    out.put("engine.unregister_us", unregister, CHURN_OPS);
    pass.us_per_obj
}

/// Rung 3w, `pm-wal`: the engine rung again with a write-ahead log
/// attached (`--wal-sync batch`), then recovery of what it wrote, a
/// snapshot, and the bare append path. Returns microseconds per object
/// with the log on.
#[allow(clippy::too_many_arguments)]
fn rung_wal(
    spec: &Spec,
    inputs: &Inputs,
    backend: &BackendSpec,
    replay: &Replay<'_>,
    engine_us: f64,
    env: &Env,
    trace: &mut Trace,
    out: &mut Collected,
) -> Result<f64, String> {
    let dir = TempDir::create(&env.out_dir, &format!("wal-trace-{}", spec.name))
        .map_err(|e| e.to_string())?;
    let durability = DurabilityConfig {
        dir: dir.0.join("engine"),
        sync: SyncPolicy::Batch,
        snapshot_every: 0,
    };
    let config = EngineConfig::new(spec.shards);
    let open = || {
        recover_or_create(
            inputs.prefs.clone(),
            &config,
            backend,
            inputs.arity,
            QUERY_HISTORY,
            &durability,
        )
        .map_err(|e| format!("cannot open the WAL dir: {e}"))
    };
    let (service, _) = open()?;
    let pass = engine_pass(service.engine(), replay, "wal.engine.batch", trace);
    out.put(
        "wal.overhead_ratio",
        pass.us_per_obj / engine_us,
        replay.objects,
    );
    let stats = service
        .engine()
        .wal()
        .ok_or("the engine lost its WAL")?
        .stats();
    let streamed = (replay.fill.len() + replay.objects).max(1) as f64;
    out.put(
        "wal.bytes_per_obj",
        stats.bytes as f64 / streamed,
        stats.records as usize,
    );
    out.put("wal.fsyncs", stats.fsyncs as f64, stats.records as usize);
    drop(service);

    // Crash recovery: the genesis snapshot plus a replay of the whole log.
    let (service, report) = open()?;
    let report = report.ok_or("a written WAL dir reported nothing to recover")?;
    out.put("wal.recovery_s", report.elapsed.as_secs_f64(), 1);
    out.put(
        "wal.replay_obj_per_s",
        streamed / report.elapsed.as_secs_f64().max(1e-9),
        report.replayed as usize,
    );
    let start = Instant::now();
    service.snapshot_now()?;
    out.put("wal.snapshot_s", start.elapsed().as_secs_f64(), 1);
    drop(service);

    // The append path alone: the same batches as pre-encoded records.
    let wal = Wal::open(&dir.0.join("append"), SyncPolicy::Batch).map_err(|e| e.to_string())?;
    let payloads: Vec<Vec<u8>> = replay
        .batches
        .iter()
        .map(|batch| encode_ingest_batch(batch))
        .collect();
    let start = Instant::now();
    for payload in &payloads {
        wal.append_payload(payload).map_err(|e| e.to_string())?;
    }
    out.put(
        "wal.append_us_per_rec",
        us(start.elapsed()) / payloads.len().max(1) as f64,
        payloads.len(),
    );
    Ok(pass.us_per_obj)
}

fn new_service(spec: &Spec, inputs: &Inputs, backend: &BackendSpec) -> EngineService {
    let engine = ShardedEngine::new(
        inputs.prefs.clone(),
        &EngineConfig::new(spec.shards),
        backend,
    );
    EngineService::new(engine, backend.clone(), inputs.arity, QUERY_HISTORY).with_slow_op(None)
}

/// Rung 4, the serving verbs: `parse_request`, `EngineService::handle` and
/// `render_text` per request line. Returns microseconds per object.
fn rung_service(
    spec: &Spec,
    inputs: &Inputs,
    backend: &BackendSpec,
    replay: &Replay<'_>,
    engine_us: f64,
    trace: &mut Trace,
    out: &mut Collected,
) -> f64 {
    let service = new_service(spec, inputs, backend);
    for line in &replay.fill_lines {
        std::hint::black_box(service.handle(parse_request(line).expect("fill line parses")));
    }
    let mut reply_bytes = 0usize;
    let mut total = Duration::ZERO;
    for (request, line) in replay.lines.iter().enumerate() {
        let id = request as u64;
        let start = Instant::now();
        trace.span("service.request", id, None, |trace, me| {
            let parsed = trace.leaf("service.parse", id, Some(me), || parse_request(line));
            let response = trace.leaf("service.handle", id, Some(me), || {
                service.handle(parsed.expect("ingest line parses"))
            });
            let text = trace.leaf("service.render", id, Some(me), || render_text(&response));
            reply_bytes += text.len() + 1;
        });
        total += start.elapsed();
    }
    let n = replay.objects as f64;
    let service_us = us(total) / n;
    let (parse_s, requests) = trace.total("service.parse");
    out.put(
        "service.parse_us_per_req",
        parse_s * 1e6 / requests.max(1) as f64,
        requests,
    );
    out.put(
        "service.handle_us_per_obj",
        trace.total("service.handle").0 * 1e6 / n,
        replay.objects,
    );
    out.put(
        "service.render_us_per_obj",
        trace.total("service.render").0 * 1e6 / n,
        replay.objects,
    );
    out.put(
        "service.reply_bytes_per_obj",
        reply_bytes as f64 / n,
        replay.objects,
    );
    out.put(
        "service.overhead_ratio",
        service_us / engine_us,
        replay.objects,
    );
    service_us
}

/// Rung 5, the reactor: the same service behind `serve_with_signal` on
/// loopback, one closed-loop client plus the workload's subscriber
/// connection. Returns microseconds per object.
#[allow(clippy::too_many_arguments)]
fn rung_reactor(
    spec: &Spec,
    inputs: &Inputs,
    backend: &BackendSpec,
    replay: &Replay<'_>,
    watch: &Watch,
    service_us: f64,
    trace: &mut Trace,
    out: &mut Collected,
) -> Result<f64, String> {
    let service = Arc::new(new_service(spec, inputs, backend));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (shutdown, signal) = shutdown_pair().map_err(|e| e.to_string())?;
    let server = std::thread::spawn(move || {
        serve_with_signal(listener, service, ReactorConfig::default(), signal)
    });
    let outcome = drive_reactor(addr, replay, watch, trace);
    shutdown.shutdown();
    server
        .join()
        .map_err(|_| "the reactor thread panicked".to_owned())?
        .map_err(|e| format!("the reactor loop failed: {e}"))?;
    let (total, rtt_us, event_bytes) = outcome?;
    let reactor_us = us(total) / replay.objects as f64;
    out.put("reactor.us_per_obj", reactor_us, replay.objects);
    out.put(
        "reactor.overhead_ratio",
        reactor_us / service_us,
        replay.objects,
    );
    out.put("reactor.rtt_us", rtt_us, RTT_PROBES);
    out.put(
        "reactor.event_bytes_per_s",
        event_bytes as f64 / total.as_secs_f64().max(1e-9),
        replay.objects,
    );
    Ok(reactor_us)
}

/// The client side of the reactor rung: `(stream wall time, HEALTH round
/// trip p50 in microseconds, EVENT bytes received)`.
fn drive_reactor(
    addr: std::net::SocketAddr,
    replay: &Replay<'_>,
    watch: &Watch,
    trace: &mut Trace,
) -> Result<(Duration, f64, u64), String> {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    let mut a = Client::connect(addr, deadline)?;
    let mut rtt: Vec<f64> = Vec::with_capacity(RTT_PROBES);
    for _ in 0..RTT_PROBES {
        let (reply, took) = a.request("HEALTH")?;
        if !reply.starts_with("OK HEALTH") {
            return Err(format!("unexpected HEALTH reply: {reply}"));
        }
        rtt.push(us(took));
    }
    let mut b = Client::connect(addr, deadline)?;
    let subscribe: Vec<String> = watch
        .subscribed
        .iter()
        .map(|user| format!("SUBSCRIBE {user}\n"))
        .collect();
    if let Some(reply) = pipelined(&mut b, &subscribe)?
        .iter()
        .find(|reply| !reply.starts_with("OK SUBSCRIBED"))
    {
        return Err(format!(
            "unexpected SUBSCRIBE reply: {}",
            wire::truncate(reply)
        ));
    }
    let (b_reader, b_buffered, mut b_writer) = b.into_raw();
    let (barrier_tx, barrier_rx) = mpsc::channel();
    let reader = std::thread::spawn(move || subscriber::drain(b_reader, b_buffered, barrier_tx));
    let mut stream = || -> Result<Duration, String> {
        for line in &replay.fill_lines {
            a.send(line)?;
            a.read_line()?;
        }
        let start = Instant::now();
        for (request, line) in replay.lines.iter().enumerate() {
            let reply = trace.leaf("reactor.request", request as u64, None, || {
                a.send(line).and_then(|()| a.read_line())
            })?;
            if !reply.starts_with("OK INGESTED") {
                return Err(format!(
                    "unexpected INGEST reply: {}",
                    wire::truncate(&reply)
                ));
            }
        }
        Ok(start.elapsed())
    };
    let streamed = stream();
    // B has everything once its barrier is answered; QUIT then ends its
    // reader whether or not the stream succeeded (a failed write means the
    // socket is gone and the reader has ended already).
    let drained = std::io::Write::write_all(&mut b_writer, b"HEALTH\n")
        .map_err(|e| format!("barrier send failed: {e}"))
        .and_then(|()| {
            barrier_rx
                .recv_timeout(REPLY_TIMEOUT)
                .map_err(|_| "connection B never answered its barrier".to_owned())
        });
    let _ = std::io::Write::write_all(&mut b_writer, b"QUIT\n");
    let received = reader
        .join()
        .map_err(|_| "connection B's reader panicked".to_owned())?;
    let total = streamed?;
    drained?;
    if let Some(e) = received.error {
        return Err(format!("connection B: {e}"));
    }
    let event_bytes = received.bytes();
    Ok((total, quantile(&ascending(rtt), 50.0).value, event_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_cut_comes_from_the_backend_spec() {
        assert_eq!(branch_cut("ftv:0.4"), 0.4);
        assert_eq!(branch_cut("ftv-sw:0.55:400"), 0.55);
        assert_eq!(branch_cut("ftv:0.3:compact"), 0.3);
        assert_eq!(branch_cut("baseline"), DEFAULT_BRANCH_CUT);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_per_layer_metrics() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
        let section = text
            .split("\"per_layer\"")
            .nth(1)
            .expect("BENCHMARK.json has a per_layer list");
        for (name, unit) in PER_LAYER {
            assert!(
                section.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) is not in BENCHMARK.json's per_layer list"
            );
        }
        assert_eq!(section.matches("\"name\"").count(), PER_LAYER.len());
    }
}
