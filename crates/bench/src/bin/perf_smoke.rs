//! Fixed-seed gate on the two performance ratios nothing else in the repo
//! measures. Claims about throughput, latency and memory are measured with
//! `benchmark/run.sh` (end-to-end metrics plus the per-layer ladder); this
//! binary only checks, on every push, two same-run ratios that hold on any
//! host:
//!
//! 1. **Instrumentation overhead.** The plain movie-profile ingest stream
//!    runs with the metrics bundle on and off, interleaved, each mode
//!    keeping its best round. Every recording site is a relaxed atomic op,
//!    so the on/off throughput gap must stay within [`MAX_OVERHEAD`]; a
//!    larger gap means someone put real work on the hot path.
//! 2. **Cluster replication efficiency.** A 3-node in-process cluster (real
//!    TCP nodes behind a `pm-coord` front-end) ingests a replicated object
//!    stream through the coordinator's wire `INGEST` verb, against a 1-node
//!    cluster running the identical workload through the same front-end,
//!    interleaved best-of-N. Every node applies every object, so the
//!    cluster's aggregate applied-object rate over the 1-node rate is
//!    core-count independent: only the coordinator's own cost (fan-out
//!    writes, barrier replies, rollup merges) pulls it down. It must stay at
//!    or above [`MIN_CLUSTER_INGEST_RATIO`]. The benchmark has no
//!    coordinator workload, so this is `pm-coord`'s only measure.
//!
//! The binary takes no arguments and writes no files. It prints both ratios
//! and exits 1 when a gate fails:
//!
//! ```text
//! cargo run --release -p pm-bench --bin perf_smoke
//! ```

use std::process::ExitCode;
use std::time::Instant;

use pm_bench::setup::generate_dataset;
use pm_bench::Scale;
use pm_coord::{spawn_coordinator, spawn_node, ClusterConfig, NodeSpec, TextClient, Topology};
use pm_datagen::{Dataset, DatasetProfile};
use pm_engine::{BackendSpec, EngineConfig, ShardedEngine};
use pm_model::{Object, ObjectId};

/// The engine backend both gates run.
const ENGINE_BACKEND: &str = "ftv:0.4";
/// Ingestion batch size of the overhead stream.
const ENGINE_BATCH: usize = 256;
/// Stream length of one instrumentation-overhead round.
const OVERHEAD_OBJECTS: usize = 3_000;
/// Interleaved (off, on) round pairs of the overhead gate; each mode keeps
/// its best round, so thermal/scheduler drift hits both modes equally.
const OVERHEAD_ROUNDS: usize = 2;
/// Ceiling on the metrics-on vs metrics-off throughput gap.
const MAX_OVERHEAD: f64 = 0.05;
/// Nodes of the scale-out cluster; the 1-node comparison run uses the
/// identical coordinator front-end.
const CLUSTER_NODES: usize = 3;
/// Registered users of the cluster workload, hash-partitioned across the
/// nodes by the coordinator.
const CLUSTER_USERS: usize = 24;
/// Stream length of one cluster ingest round: every batch crosses the wire
/// twice (client to coordinator, coordinator to every node).
const CLUSTER_OBJECTS: usize = 4_000;
/// Ingest batch of the cluster workload: large enough that the per-batch
/// coordinator hop is amortised the way a replication client would batch,
/// keeping the ratio a measure of fan-out, not round trips.
const CLUSTER_BATCH: usize = 512;
/// Interleaved (1-node, 3-node) round pairs; each side keeps its best.
const CLUSTER_ROUNDS: usize = 2;
/// Floor on the cluster's per-replica ingest efficiency: within 20% of the
/// 1-node figure.
const MIN_CLUSTER_INGEST_RATIO: f64 = 0.8;
/// Attributes per object of the cluster workload (the harness node
/// default).
const CLUSTER_ARITY: usize = 4;
/// Values per attribute of the cluster workload.
const CLUSTER_DOMAIN: usize = 6;

/// One metrics-on or metrics-off run of the plain ingest stream, returning
/// its throughput in objects/sec.
fn timed_plain_stream(dataset: &Dataset, metrics: bool) -> f64 {
    let spec = BackendSpec::parse(ENGINE_BACKEND).expect("valid backend spec");
    let config = EngineConfig::new(1).with_metrics(metrics);
    let engine = ShardedEngine::new(dataset.preferences.clone(), &config, &spec);
    let stream: Vec<Object> = (0..OVERHEAD_OBJECTS)
        .map(|i| {
            let base = &dataset.objects[i % dataset.objects.len()];
            Object::new(ObjectId::from(i), base.values().to_vec())
        })
        .collect();
    let start = Instant::now();
    let mut processed = 0usize;
    for chunk in stream.chunks(ENGINE_BATCH) {
        processed += engine.process_batch(chunk.to_vec()).len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        processed, OVERHEAD_OBJECTS,
        "every object must be processed"
    );
    processed as f64 / elapsed
}

/// Interleaved (off, on) rounds of the plain stream; returns the best
/// `(on, off)` throughputs.
fn measure_instrumentation(dataset: &Dataset) -> (f64, f64) {
    let mut best_off = 0.0f64;
    let mut best_on = 0.0f64;
    for _ in 0..OVERHEAD_ROUNDS {
        best_off = best_off.max(timed_plain_stream(dataset, false));
        best_on = best_on.max(timed_plain_stream(dataset, true));
    }
    (best_on, best_off)
}

/// A chain preference over the cluster workload's domain: attribute `a`
/// prefers `v+1` over `v` for every value except one user-dependent skipped
/// rank, so each of the [`CLUSTER_USERS`] frontiers genuinely differs and
/// the nodes do real per-user work on every arrival.
fn cluster_preference(user: usize) -> String {
    (0..CLUSTER_ARITY)
        .map(|attr| {
            let skip = (user + attr) % (CLUSTER_DOMAIN - 1);
            (0..CLUSTER_DOMAIN - 1)
                .filter(|&v| v != skip)
                .map(|v| format!("{}>{}", v + 1, v))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// `count` wire-format object rows starting at stream position `start`,
/// deterministic in the position so the 1-node and 3-node runs ingest the
/// byte-identical stream.
fn cluster_rows(start: usize, count: usize) -> String {
    (start..start + count)
        .map(|i| {
            (0..CLUSTER_ARITY)
                .map(|attr| ((i * (attr + 3) + attr) % CLUSTER_DOMAIN).to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// One cluster ingest round: spawns `nodes` single-shard engine nodes and
/// a coordinator on loopback, registers the population through the wire
/// verb, then clocks [`CLUSTER_OBJECTS`] objects through replicated
/// `INGEST` — each batch returns only after every node has applied it, so
/// the replication barrier is inside the measurement. The cluster `STATS`
/// rollup is checked afterwards: every object must have reached every
/// node.
fn timed_cluster_ingest(nodes: usize) -> f64 {
    let mut spec = NodeSpec::new(
        BackendSpec::parse(ENGINE_BACKEND).expect("valid backend spec"),
        1,
    );
    // A saturated bench batch is supposed to be slow; the slow-op warning's
    // log writes would perturb the measurement.
    spec.slow_op = None;
    let handles: Vec<_> = (0..nodes)
        .map(|_| spawn_node(&spec).expect("spawn node"))
        .collect();
    let topology = Topology::new(handles.iter().map(|h| h.addr().to_owned()).collect())
        .expect("loopback topology");
    let coordinator =
        spawn_coordinator(&topology, ClusterConfig::default()).expect("spawn coordinator");
    let mut client = TextClient::connect(coordinator.addr()).expect("connect to coordinator");

    for user in 0..CLUSTER_USERS {
        let reply = client
            .ask(&format!("REGISTER {user} {}", cluster_preference(user)))
            .expect("register");
        assert!(
            reply.starts_with("OK REGISTERED"),
            "unexpected reply: {reply}"
        );
    }

    let start = Instant::now();
    let mut sent = 0usize;
    while sent < CLUSTER_OBJECTS {
        let batch = CLUSTER_BATCH.min(CLUSTER_OBJECTS - sent);
        let reply = client
            .ask(&format!("INGEST {}", cluster_rows(sent, batch)))
            .expect("ingest");
        assert!(
            reply.starts_with("OK INGESTED"),
            "unexpected reply: {reply}"
        );
        sent += batch;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let stats = client.ask("STATS").expect("stats");
    assert!(
        stats.starts_with("OK STATS cluster")
            && stats.contains(&format!(" ingested={CLUSTER_OBJECTS} ")),
        "cluster rollup must show the full replicated stream: {stats}"
    );
    drop(client);
    coordinator.kill();
    for handle in handles {
        handle.kill();
    }
    CLUSTER_OBJECTS as f64 / elapsed
}

/// Interleaved (1-node, [`CLUSTER_NODES`]-node) rounds of the identical
/// replicated workload; returns the best `(cluster, single)` stream
/// throughputs.
fn measure_cluster() -> (f64, f64) {
    let mut best_single = 0.0f64;
    let mut best_cluster = 0.0f64;
    for _ in 0..CLUSTER_ROUNDS {
        best_single = best_single.max(timed_cluster_ingest(1));
        best_cluster = best_cluster.max(timed_cluster_ingest(CLUSTER_NODES));
    }
    (best_cluster, best_single)
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("perf_smoke takes no arguments");
        return ExitCode::from(2);
    }

    let dataset = generate_dataset(&DatasetProfile::movie(), &Scale::quick());
    println!(
        "perf-smoke: movie profile, seed 42, {} users, {} objects, backend {ENGINE_BACKEND}",
        dataset.num_users(),
        dataset.num_objects()
    );
    let (on, off) = measure_instrumentation(&dataset);
    // How much slower the metrics-on stream ran; 0 when it ran at least as
    // fast (noise can swing either way).
    let overhead = (off / on - 1.0).max(0.0);
    let (cluster, single) = measure_cluster();
    let efficiency = CLUSTER_NODES as f64 * cluster / single;

    let gates = [
        (
            overhead <= MAX_OVERHEAD,
            format!(
                "instrumentation overhead {:.1}% (ceiling {:.0}%; metrics on {on:.0} vs \
                 off {off:.0} objects/sec)",
                overhead * 100.0,
                MAX_OVERHEAD * 100.0
            ),
        ),
        (
            efficiency >= MIN_CLUSTER_INGEST_RATIO,
            format!(
                "cluster replication efficiency {efficiency:.2} (floor \
                 {MIN_CLUSTER_INGEST_RATIO:.2}; {CLUSTER_NODES}-node {cluster:.0} vs 1-node \
                 {single:.0} objects/sec)"
            ),
        ),
    ];
    let mut pass = true;
    for (ok, line) in gates {
        println!(
            "perf-smoke gate: {}: {line}",
            if ok { "ok" } else { "FAIL" }
        );
        pass &= ok;
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
