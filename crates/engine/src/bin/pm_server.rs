//! `pm-server` — serve a sharded Pareto-frontier monitoring engine over TCP.
//!
//! ```text
//! pm-server [--addr HOST:PORT] [--shards N] [--queue BATCHES]
//!           [--backend SPEC] [--profile movie|publication]
//!           [--users N] [--interactions N] [--seed N] [--history N]
//!           [--no-metrics] [--slow-op-ms MS] [--outbox BYTES] [--log SPEC]
//!           [--wal-dir DIR] [--wal-sync always|batch|off] [--snapshot-every N]
//!           [--node]
//! ```
//!
//! The user population (preferences) is simulated with `pm-datagen`; objects
//! arrive from clients via the `INGEST` command. Try it:
//!
//! ```text
//! $ cargo run --release --bin pm-server -- --users 100 --shards 4 &
//! $ printf 'INGEST 1,2,3,4\nSTATS\nQUIT\n' | nc 127.0.0.1 7878
//! $ printf 'METRICS\nQUIT\n' | nc 127.0.0.1 7878   # Prometheus exposition
//! ```

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use pm_datagen::{Dataset, DatasetProfile};
use pm_engine::{
    BackendSpec, DurabilityConfig, EngineConfig, EngineService, ReactorConfig, ServerConfig,
    ShardedEngine,
};
use pm_wal::SyncPolicy;

struct Options {
    server: ServerConfig,
    engine: EngineConfig,
    reactor: ReactorConfig,
    backend: BackendSpec,
    profile: DatasetProfile,
    users: usize,
    objects: usize,
    interactions: usize,
    seed: u64,
    wal_dir: Option<PathBuf>,
    wal_sync: SyncPolicy,
    snapshot_every: u64,
    node: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            server: ServerConfig::default(),
            engine: EngineConfig::default(),
            reactor: ReactorConfig::default(),
            backend: BackendSpec::baseline(),
            profile: DatasetProfile::movie(),
            users: 200,
            objects: 2_000,
            interactions: 60,
            seed: 42,
            wal_dir: None,
            wal_sync: SyncPolicy::Batch,
            snapshot_every: 10_000,
            node: false,
        }
    }
}

const USAGE: &str = "pm-server — sharded Pareto-frontier monitoring over TCP

USAGE:
    pm-server [OPTIONS]

OPTIONS:
    --addr HOST:PORT     bind address           [default: 127.0.0.1:7878]
    --shards N           shard worker threads   [default: available cores]
    --queue BATCHES      per-shard inbox bound  [default: 16]
    --backend SPEC       baseline[:<H>] | ftv:<h>[:<H>] |
                         ftv-approx:<h>:<t1>:<t2>[:<H>] |
                         baseline-sw:<W> | ftv-sw:<h>:<W> |
                         ftv-approx-sw:<h>:<t1>:<t2>:<W>   [default: baseline]
                         <H> bounds the append-only backends' backfill
                         history: `compact` retains the skyline union over
                         every observed preference (backfill stays exact
                         for all of them; only a never-before-seen
                         preference can see a compacted-away object), and
                         `compact:<C>` adds a hard cap on top (backfill is
                         best-effort once the cap bites)
    --profile NAME       movie | publication    [default: movie]
    --users N            simulated users        [default: 200]
    --objects N          base objects used to derive preferences [default: 2000]
    --interactions N     interactions per user  [default: 60]
    --seed N             dataset RNG seed       [default: 42]
    --history N          QUERY-able arrivals    [default: 4096]
    --no-metrics         drop the metrics bundle: METRICS answers ERR,
                         STATS reports zero latency percentiles, and even
                         the (lock-free) recording overhead is gone
    --slow-op-ms MS      warn-log ingest batches slower than MS
                         milliseconds with their stage breakdown; 0
                         disables the slow-op log  [default: 100]
    --outbox BYTES       per-connection outbox bound; a subscriber whose
                         unsent event backlog exceeds it is evicted with a
                         terminal `ERR lagged`  [default: 1048576]
    --log SPEC           log filter, same syntax as PM_LOG: a level
                         (off|error|warn|info|debug) optionally followed
                         by `,json` for JSON-lines output; overrides the
                         PM_LOG environment variable  [default: warn]
    --wal-dir DIR        enable durability: append every mutation to a
                         write-ahead log in DIR and snapshot the compact
                         engine state there; on startup, recover from the
                         newest valid snapshot plus the WAL tail. The
                         dataset flags (--users/--seed/...) must match
                         across restarts: users that predate the first
                         snapshot are rebuilt from the dataset, not the log
    --wal-sync POLICY    when the WAL fsyncs: `always` (every record),
                         `batch` (group commit, ~256 KiB), `off` (page
                         cache decides)  [default: batch]
    --snapshot-every N   snapshot after N WAL records accumulate past the
                         last snapshot; 0 = only via the SNAPSHOT verb
                         [default: 10000]
    --node               run as a pm-coord cluster node: start with an
                         empty user population (users arrive via REGISTER
                         routed by the coordinator) and accept the
                         node-internal verbs (HELLO node, SEQ, EXPORT).
                         The dataset flags still fix the schema: every
                         node of a cluster must share --profile
                         (--users/--seed only shape the simulated dataset
                         and are ignored for population)
    --help               print this help

Logs go to stderr. Scrape metrics with e.g.:
    printf 'METRICS\\nQUIT\\n' | nc 127.0.0.1 7878
";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        if flag == "--no-metrics" {
            opts.engine.metrics = false;
            continue;
        }
        if flag == "--node" {
            opts.node = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value (see --help)"))?;
        match flag.as_str() {
            "--addr" => opts.server.addr = value,
            "--shards" => {
                let shards: usize = value.parse().map_err(|e| format!("--shards: {e}"))?;
                if shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
                opts.engine.shards = shards;
            }
            "--queue" => {
                opts.engine.queue_capacity = value.parse().map_err(|e| format!("--queue: {e}"))?
            }
            "--backend" => opts.backend = BackendSpec::parse(&value)?,
            "--profile" => {
                opts.profile = match value.as_str() {
                    "movie" => DatasetProfile::movie(),
                    "publication" => DatasetProfile::publication(),
                    other => return Err(format!("unknown profile `{other}`")),
                }
            }
            "--users" => opts.users = value.parse().map_err(|e| format!("--users: {e}"))?,
            "--objects" => opts.objects = value.parse().map_err(|e| format!("--objects: {e}"))?,
            "--interactions" => {
                opts.interactions = value.parse().map_err(|e| format!("--interactions: {e}"))?
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--history" => {
                opts.server.history = value.parse().map_err(|e| format!("--history: {e}"))?
            }
            "--slow-op-ms" => {
                let ms: u64 = value.parse().map_err(|e| format!("--slow-op-ms: {e}"))?;
                opts.server.slow_op = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--outbox" => {
                let bytes: usize = value.parse().map_err(|e| format!("--outbox: {e}"))?;
                if bytes == 0 {
                    return Err("--outbox must be at least 1 byte".into());
                }
                opts.reactor.max_outbox = bytes;
            }
            "--log" => pm_obs::log::set_config_spec(&value),
            "--wal-dir" => opts.wal_dir = Some(PathBuf::from(value)),
            "--wal-sync" => opts.wal_sync = SyncPolicy::parse(&value)?,
            "--snapshot-every" => {
                opts.snapshot_every = value
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?
            }
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            // Usage errors go straight to stderr: the logger is leveled and
            // a typo'd flag must be visible regardless of PM_LOG.
            eprintln!("pm-server: {e}");
            return ExitCode::FAILURE;
        }
    };

    pm_obs::info!(
        "pm_server",
        "simulating user population",
        users = opts.users,
        profile = opts.profile.name,
        seed = opts.seed,
    );
    let profile = opts
        .profile
        .clone()
        .with_users(opts.users)
        .with_objects(opts.objects)
        .with_interactions(opts.interactions);
    let dataset = Dataset::generate(&profile, opts.seed);
    let arity = dataset.dimensions();
    // A cluster node starts empty: its users arrive via REGISTER, routed
    // by the coordinator's partitioner. The dataset still fixes the
    // schema (arity) so every node agrees on the object shape.
    let genesis = if opts.node {
        Vec::new()
    } else {
        dataset.preferences
    };

    pm_obs::info!(
        "pm_server",
        "starting engine",
        shards = opts.engine.shards,
        backend = opts.backend,
        queue_capacity = opts.engine.queue_capacity,
        metrics = opts.engine.metrics,
    );
    let service = match &opts.wal_dir {
        Some(dir) => {
            let durability = DurabilityConfig {
                dir: dir.clone(),
                sync: opts.wal_sync,
                snapshot_every: opts.snapshot_every,
            };
            match pm_engine::durability::recover_or_create(
                genesis,
                &opts.engine,
                &opts.backend,
                arity,
                opts.server.history,
                &durability,
            ) {
                Ok((service, report)) => {
                    if let Some(report) = report {
                        // Load-bearing like the listen banner: recovery
                        // harnesses wait for and parse this line.
                        eprintln!("pm-server: {report}");
                    }
                    service
                }
                Err(e) => {
                    pm_obs::error!(
                        "pm_server",
                        "recovery failed",
                        dir = dir.display(),
                        error = e
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let engine = ShardedEngine::new(genesis, &opts.engine, &opts.backend);
            EngineService::new(engine, opts.backend.clone(), arity, opts.server.history)
        }
    };
    let service = Arc::new(service.with_slow_op(opts.server.slow_op));

    let listener = match TcpListener::bind(&opts.server.addr) {
        Ok(l) => l,
        Err(e) => {
            pm_obs::error!(
                "pm_server",
                "cannot bind",
                addr = opts.server.addr,
                error = e
            );
            return ExitCode::FAILURE;
        }
    };
    // The startup banner is load-bearing (scripts wait for it), so it is
    // printed unconditionally rather than behind the info level.
    eprintln!(
        "pm-server: listening on {} ({} attributes per object; \
         INGEST/EXPIRE/QUERY/FRONTIER/REGISTER/UPDATE/UNREGISTER/\
         SUBSCRIBE/UNSUBSCRIBE/HELLO/SNAPSHOT/STATS/METRICS/HEALTH/QUIT)",
        opts.server.addr, arity
    );
    if let Err(e) = pm_engine::serve_with(listener, service, opts.reactor) {
        pm_obs::error!("pm_server", "accept loop failed", error = e);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
