//! In-process cluster harness: spawn nodes and a coordinator on loopback
//! threads, each with a clean shutdown handle.
//!
//! Tests and benches use this to stand up an N-node cluster without
//! forking processes: every node is a real `pm-engine` reactor behind a
//! real TCP listener (so the coordinator's I/O paths are exercised end to
//! end), and [`NodeHandle::kill`] / [`spawn_node_at`] model a node crash
//! and restart on the same address — the same sequence an operator's
//! supervisor performs.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pm_engine::durability::recover_or_create;
use pm_engine::{
    serve_with_signal as node_serve_with_signal, shutdown_pair, BackendSpec, DurabilityConfig,
    EngineConfig, EngineService, ReactorConfig, ServerConfig, ShardedEngine, Shutdown,
};

use crate::cluster::{Cluster, ClusterConfig};
use crate::serve::serve_with_signal as coord_serve_with_signal;
use crate::topology::Topology;

/// How to build one node of an in-process cluster.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Backend spec (must agree across the cluster).
    pub backend: BackendSpec,
    /// Shard threads inside the node.
    pub shards: usize,
    /// Attributes per object.
    pub arity: usize,
    /// `QUERY` history bound.
    pub history: usize,
    /// Give the node a WAL so a kill/respawn recovers its state.
    pub wal: Option<DurabilityConfig>,
    /// Slow-op warning threshold of the node's service; `None` silences
    /// it (benches do — a saturated bench batch is *supposed* to be slow,
    /// and the log writes would perturb the measurement).
    pub slow_op: Option<Duration>,
}

impl NodeSpec {
    /// A node with the given backend and shard count, arity 4, history
    /// 4096, no WAL, and the server's default slow-op threshold.
    pub fn new(backend: BackendSpec, shards: usize) -> Self {
        Self {
            backend,
            shards,
            arity: 4,
            history: 4096,
            wal: None,
            slow_op: ServerConfig::default().slow_op,
        }
    }
}

/// A spawned server thread (node or coordinator) with its address and a
/// shutdown handle.
#[derive(Debug)]
pub struct NodeHandle {
    addr: String,
    shutdown: Shutdown,
    thread: JoinHandle<std::io::Result<()>>,
}

impl NodeHandle {
    /// The listener address (`127.0.0.1:<port>`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops the server and joins its thread. Models a node crash from
    /// the cluster's point of view: every open connection drops.
    pub fn kill(self) {
        self.shutdown.shutdown();
        let _ = self.thread.join();
    }
}

/// Spawns a node on a fresh loopback port. An empty genesis: cluster
/// nodes start with no users and grow through `REGISTER` / replication.
pub fn spawn_node(spec: &NodeSpec) -> std::io::Result<NodeHandle> {
    spawn_node_at("127.0.0.1:0", spec)
}

/// Spawns a node on a specific address — respawning on a killed node's
/// address is how tests model a restart (the std listener sets
/// `SO_REUSEADDR`, so the port is immediately rebindable).
pub fn spawn_node_at(addr: &str, spec: &NodeSpec) -> std::io::Result<NodeHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?.to_string();
    let service = match &spec.wal {
        Some(durability) => {
            let (service, _report) = recover_or_create(
                Vec::new(),
                &EngineConfig::new(spec.shards),
                &spec.backend,
                spec.arity,
                spec.history,
                durability,
            )?;
            service
        }
        None => EngineService::new(
            ShardedEngine::new(Vec::new(), &EngineConfig::new(spec.shards), &spec.backend),
            spec.backend.clone(),
            spec.arity,
            spec.history,
        ),
    }
    .with_slow_op(spec.slow_op);
    let (shutdown, signal) = shutdown_pair()?;
    let service = Arc::new(service);
    let thread = std::thread::spawn(move || {
        node_serve_with_signal(listener, service, ReactorConfig::default(), signal)
    });
    Ok(NodeHandle {
        addr,
        shutdown,
        thread,
    })
}

/// Spawns a coordinator over `topology` on a fresh loopback port. Fails
/// if any node is unreachable or the cluster is inconsistent (mixed
/// backends, diverged positions).
pub fn spawn_coordinator(topology: &Topology, config: ClusterConfig) -> Result<NodeHandle, String> {
    let cluster = Cluster::connect(topology, config)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let (shutdown, signal) = shutdown_pair().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || {
        coord_serve_with_signal(listener, cluster, ReactorConfig::default(), signal)
    });
    Ok(NodeHandle {
        addr,
        shutdown,
        thread,
    })
}

/// A blocking line-protocol client for tests and benches.
#[derive(Debug)]
pub struct TextClient {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl TextClient {
    /// Connects to `addr` with a generous read timeout so a wedged server
    /// fails a test instead of hanging it.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { reader, stream })
    }

    /// One request/response round trip; the response has no newline.
    pub fn ask(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.recv()
    }

    /// Reads one pushed line (an `EVENT` or a terminal error).
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}
