//! `pm-coord` — serve N `pm-server --node` processes as one logical engine.
//!
//! ```text
//! pm-coord --topology FILE [--addr HOST:PORT] [--backlog BATCHES]
//!          [--rpc-timeout-ms MS] [--outbox BYTES] [--wait-ms MS] [--log SPEC]
//! ```
//!
//! The topology file lists one `host:port` per line; the line order is the
//! node id. Clients speak the unchanged text protocol to the coordinator:
//!
//! ```text
//! $ pm-server --node --addr 127.0.0.1:7001 --wal-dir /var/pm/n0 &
//! $ pm-server --node --addr 127.0.0.1:7002 --wal-dir /var/pm/n1 &
//! $ printf '127.0.0.1:7001\n127.0.0.1:7002\n' > cluster.topo
//! $ pm-coord --topology cluster.topo &
//! $ printf 'INGEST 1,2,3,4\nSTATS\nQUIT\n' | nc 127.0.0.1 7979
//! ```

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pm_coord::{serve, Cluster, ClusterConfig, Topology};
use pm_reactor::conn::ReactorConfig;

struct Options {
    addr: String,
    topology: Option<PathBuf>,
    cluster: ClusterConfig,
    serve: ReactorConfig,
    wait: Duration,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7979".to_owned(),
            topology: None,
            cluster: ClusterConfig::default(),
            serve: ReactorConfig::default(),
            wait: Duration::from_secs(10),
        }
    }
}

const USAGE: &str = "pm-coord — cluster coordinator for pm-server nodes

USAGE:
    pm-coord --topology FILE [OPTIONS]

OPTIONS:
    --topology FILE      node addresses, one host:port per line; the line
                         order is the node id (required)
    --addr HOST:PORT     client bind address    [default: 127.0.0.1:7979]
    --backlog BATCHES    replicated ingest batches retained for rejoin
                         replay; a node that falls further behind than the
                         backlog reaches must be restored from its WAL
                         before rejoining  [default: 4096]
    --rpc-timeout-ms MS  per-node control round-trip timeout; a node that
                         misses it is degraded  [default: 10000]
    --outbox BYTES       per-client outbox bound; a subscriber whose
                         unsent event backlog exceeds it is evicted with a
                         terminal `ERR lagged`  [default: 1048576]
    --wait-ms MS         keep retrying the initial node handshakes for MS
                         milliseconds (nodes may still be starting)
                         [default: 10000]
    --log SPEC           log filter, same syntax as PM_LOG; overrides the
                         PM_LOG environment variable  [default: warn]
    --help               print this help

All nodes must be reachable, identically configured (backend, shards,
arity) and at the same applied position when the coordinator starts;
divergence after startup heals through backlog replay on rejoin.
";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value (see --help)"))?;
        match flag.as_str() {
            "--addr" => opts.addr = value,
            "--topology" => opts.topology = Some(PathBuf::from(value)),
            "--backlog" => {
                let batches: usize = value.parse().map_err(|e| format!("--backlog: {e}"))?;
                if batches == 0 {
                    return Err("--backlog must be at least 1 batch".into());
                }
                opts.cluster.backlog = batches;
            }
            "--rpc-timeout-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|e| format!("--rpc-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--rpc-timeout-ms must be at least 1".into());
                }
                opts.cluster.rpc_timeout = Duration::from_millis(ms);
            }
            "--outbox" => {
                let bytes: usize = value.parse().map_err(|e| format!("--outbox: {e}"))?;
                if bytes == 0 {
                    return Err("--outbox must be at least 1 byte".into());
                }
                opts.serve.max_outbox = bytes;
            }
            "--wait-ms" => {
                let ms: u64 = value.parse().map_err(|e| format!("--wait-ms: {e}"))?;
                opts.wait = Duration::from_millis(ms);
            }
            "--log" => pm_obs::log::set_config_spec(&value),
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

/// Retries [`Cluster::connect`] until `deadline` — nodes started by the
/// same supervisor may not be listening yet.
fn connect_with_retry(
    topology: &Topology,
    config: &ClusterConfig,
    wait: Duration,
) -> Result<Cluster, String> {
    let deadline = Instant::now() + wait;
    loop {
        match Cluster::connect(topology, config.clone()) {
            Ok(cluster) => return Ok(cluster),
            Err(e) if Instant::now() < deadline => {
                pm_obs::info!("pm_coord", "cluster not ready, retrying", error = e);
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => return Err(e),
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("pm-coord: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(path) = &opts.topology else {
        eprintln!("pm-coord: --topology FILE is required (see --help)");
        return ExitCode::FAILURE;
    };
    let topology = match Topology::load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pm-coord: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cluster = match connect_with_retry(&topology, &opts.cluster, opts.wait) {
        Ok(cluster) => cluster,
        Err(e) => {
            eprintln!("pm-coord: {e}");
            return ExitCode::FAILURE;
        }
    };

    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            pm_obs::error!("pm_coord", "cannot bind", addr = opts.addr, error = e);
            return ExitCode::FAILURE;
        }
    };
    // The startup banner is load-bearing (scripts wait for it), so it is
    // printed unconditionally rather than behind the info level.
    eprintln!(
        "pm-coord: listening on {} (cluster of {} nodes, backend {}, seq {})",
        opts.addr,
        cluster.nodes(),
        cluster.backend(),
        cluster.seq()
    );
    if let Err(e) = serve(listener, cluster, opts.serve) {
        pm_obs::error!("pm_coord", "accept loop failed", error = e);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
