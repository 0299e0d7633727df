//! The cluster state machine: partitioned users over a replicated object
//! stream.
//!
//! One [`Cluster`] turns N `pm-server --node` processes into one logical
//! engine behind the unchanged client wire protocol:
//!
//! * **Objects are replicated.** Every `INGEST` batch is fanned to every
//!   live node as `SEQ <first_id> INGEST <rows>` — write-all then
//!   read-all, a pipelined barrier, so per-node responses arrive in
//!   request order and log order is apply order. The fence (`first_id`
//!   must equal the node's next object id, checked under the node's
//!   ingest lock) makes replication exactly-once positional: a batch
//!   lands at exactly the announced position or not at all, and a node
//!   that answers `ERR seq mismatch` has diverged and is degraded until
//!   it rejoins.
//! * **Users are partitioned.** The same [`pm_model::Partitioner`] the
//!   sharded engine uses for threads assigns each user to a node;
//!   `REGISTER`/`UPDATE`/`UNREGISTER`/`FRONTIER`/`EXPORT` are routed to
//!   the owner and relayed byte-for-byte. A one-node cluster is therefore
//!   wire-identical to a bare `pm-server` on every deterministic verb.
//! * **Reads merge.** `QUERY` unions the per-node target-user sets
//!   (disjoint by partitioning), `STATS` rolls per-node snapshots into a
//!   cluster line with a per-node breakdown, `METRICS` serves the
//!   coordinator's own `pm_node_*` registry ([`crate::obs`]).
//! * **Failure degrades, never corrupts.** A dead node's key range
//!   answers `ERR degraded node=<n>`; everything else keeps serving.
//!   Replicated batches accepted while a node is down are retained in a
//!   bounded backlog; a rejoin (`HEALTH` triggers reconnect attempts)
//!   fences the node's recovered `next_id` against the backlog and
//!   replays the suffix, so the node's own WAL plus the coordinator
//!   backlog reconstruct exactly the stream the live nodes applied.
//! * **Join/leave reuses registration backfill.** [`Cluster::migrate_user`]
//!   drains a user via `EXPORT` + `UNREGISTER` on the old owner and
//!   re-registers on the new owner, whose replicated object stream
//!   rebuilds the frontier — the same machinery `REGISTER` always had.

use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

use pm_engine::response::write_ids;
use pm_engine::{render_text, Response};
use pm_model::{ObjectId, Partitioner, UserId, ValueId};

use crate::node::NodeClient;
use crate::obs::CoordMetrics;
use crate::topology::Topology;

pub use pm_engine::{parse_request, Request};

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Replicated batches retained for rejoin replay. A node that stays
    /// down long enough for the backlog to wrap cannot catch up from the
    /// coordinator and stays degraded (operator restores it by copying a
    /// live node's WAL).
    pub backlog: usize,
    /// Connect and per-response read timeout on node connections.
    pub rpc_timeout: std::time::Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            backlog: 4096,
            rpc_timeout: std::time::Duration::from_secs(10),
        }
    }
}

/// One replicated ingest batch, kept for rejoin replay.
#[derive(Debug)]
struct Batch {
    /// First object id of the batch (the fence).
    seq: u64,
    /// Objects in the batch.
    count: u64,
    /// Canonical row text (`v,v,..;v,v,..`).
    rows: String,
}

/// How the serve loop should act on one parsed client request.
#[derive(Debug)]
pub enum Routed {
    /// A complete response to relay (may contain interior newlines for
    /// `METRICS`).
    Line(String),
    /// Respond, then close the connection.
    Bye(String),
    /// Subscription flows are owned by the serve loop (they need the
    /// per-node event connections and per-client state).
    Subscribe(UserId),
    /// See [`Routed::Subscribe`].
    Unsubscribe(UserId),
}

/// The coordinator's view of the cluster.
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<NodeClient>,
    /// Cluster-level liveness, the routing authority. (The control
    /// connection drops itself on any I/O error; this flag records the
    /// *transition* so it is logged, counted and reported exactly once.)
    up: Vec<bool>,
    partitioner: Partitioner,
    backend: String,
    shards: usize,
    arity: usize,
    /// The next object id to assign — the cluster's replication sequence.
    next_seq: u64,
    backlog: VecDeque<Batch>,
    /// Users each node owns, in the coordinator's routing view.
    owned: Vec<BTreeSet<UserId>>,
    start: Instant,
    /// The coordinator's own observability registry.
    pub metrics: CoordMetrics,
    config: ClusterConfig,
    /// Nodes that went down since the serve loop last asked.
    failed: Vec<usize>,
    /// Nodes that rejoined since the serve loop last asked.
    rejoined: Vec<usize>,
}

impl Cluster {
    /// Connects to every node in the topology and validates that they
    /// agree on backend, shard count, arity and applied position. All
    /// nodes must be reachable at startup; divergent applied positions
    /// are refused (restore the lagging node's WAL first) because a
    /// fresh coordinator has no backlog to replay.
    pub fn connect(topology: &Topology, config: ClusterConfig) -> Result<Self, String> {
        let metrics = CoordMetrics::new(topology.nodes());
        let mut nodes = Vec::with_capacity(topology.nodes());
        let mut infos = Vec::with_capacity(topology.nodes());
        for (id, addr) in topology.iter() {
            let mut client = NodeClient::new(addr);
            let info = client
                .connect(config.rpc_timeout)
                .map_err(|e| format!("node {id}: {e}"))?;
            nodes.push(client);
            infos.push(info);
        }
        let first = &infos[0];
        for (id, info) in infos.iter().enumerate() {
            if info.backend != first.backend || info.shards != first.shards {
                return Err(format!(
                    "node {id} runs {}/{} shards but node 0 runs {}/{} shards — \
                     a cluster must be homogeneous",
                    info.backend, info.shards, first.backend, first.shards
                ));
            }
            if info.arity != first.arity {
                return Err(format!(
                    "node {id} expects {}-attribute objects but node 0 expects {} — \
                     the nodes were started with different schemas",
                    info.arity, first.arity
                ));
            }
            if info.next_id != first.next_id {
                return Err(format!(
                    "node {id} is at applied position {} but node 0 is at {} — \
                     restore the lagging node from a live node's WAL before \
                     starting the coordinator",
                    info.next_id, first.next_id
                ));
            }
        }
        for gauge in &metrics.node_up {
            gauge.set(1.0);
        }
        for gauge in &metrics.node_next_id {
            gauge.set(first.next_id as f64);
        }
        metrics.cluster_live.set(nodes.len() as f64);
        metrics.cluster_seq.set(first.next_id as f64);
        let count = nodes.len();
        Ok(Self {
            nodes,
            up: vec![true; count],
            partitioner: Partitioner::new(count),
            backend: first.backend.clone(),
            shards: first.shards,
            arity: first.arity,
            next_seq: first.next_id,
            backlog: VecDeque::new(),
            owned: vec![BTreeSet::new(); count],
            start: Instant::now(),
            metrics,
            config,
            failed: Vec::new(),
            rejoined: Vec::new(),
        })
    }

    /// Number of nodes in the topology.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes currently serving.
    pub fn live(&self) -> usize {
        self.up.iter().filter(|&&up| up).count()
    }

    /// Whether `node` is serving.
    pub fn is_up(&self, node: usize) -> bool {
        self.up[node]
    }

    /// The node that owns `user`.
    pub fn owner_of(&self, user: UserId) -> usize {
        self.partitioner.owner_of(user)
    }

    /// The address of `node` (for the serve loop's event connections).
    pub fn node_addr(&self, node: usize) -> &str {
        self.nodes[node].addr()
    }

    /// Attributes per object.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The cluster's backend spec string (homogeneous by construction).
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// The next replication sequence number.
    pub fn seq(&self) -> u64 {
        self.next_seq
    }

    /// Nodes that went down since the last call (the serve loop drops
    /// their subscriptions and event connections).
    pub fn take_failures(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.failed)
    }

    /// Nodes that rejoined since the last call (the serve loop opens
    /// fresh event connections).
    pub fn take_rejoined(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.rejoined)
    }

    /// Degrades `node`: drops its control connection and remembers the
    /// transition for the serve loop. Also used when the node's *event*
    /// connection dies.
    pub fn mark_down(&mut self, node: usize) {
        self.nodes[node].disconnect();
        if !self.up[node] {
            return;
        }
        self.up[node] = false;
        pm_obs::warn!(
            "pm_coord",
            "node degraded",
            node = node,
            addr = self.nodes[node].addr()
        );
        self.metrics.node_up[node].set(0.0);
        self.metrics.cluster_live.set(self.live() as f64);
        if !self.failed.contains(&node) {
            self.failed.push(node);
        }
    }

    fn degraded_list(&self) -> String {
        let down: Vec<String> = (0..self.nodes.len())
            .filter(|&n| !self.up[n])
            .map(|n| n.to_string())
            .collect();
        if down.is_empty() {
            "-".to_owned()
        } else {
            down.join(",")
        }
    }

    /// One counted, latency-recorded round trip; failure degrades the
    /// node.
    fn rpc(&mut self, node: usize, line: &str) -> Result<String, ()> {
        let start = Instant::now();
        match self.nodes[node].request(line) {
            Ok(response) => {
                self.metrics.node_rpc_ns[node].record_duration(start.elapsed());
                Ok(response)
            }
            Err(e) => {
                pm_obs::warn!("pm_coord", "node rpc failed", node = node, error = e);
                self.mark_down(node);
                Err(())
            }
        }
    }

    /// Handles one client line. Counts the request and any `ERR` answer.
    pub fn handle(&mut self, line: &str) -> Routed {
        self.metrics.requests.inc();
        let routed = self.dispatch(line);
        if let Routed::Line(text) | Routed::Bye(text) = &routed {
            if text.starts_with("ERR ") {
                self.metrics.errors.inc();
            }
        }
        routed
    }

    fn dispatch(&mut self, line: &str) -> Routed {
        let request = match parse_request(line) {
            Ok(request) => request,
            Err(e) => return Routed::Line(format!("ERR {e}")),
        };
        match request {
            Request::Ingest(rows) => Routed::Line(self.ingest(rows)),
            Request::Expire => Routed::Line(self.first_live("EXPIRE")),
            Request::Query(object) => Routed::Line(self.query(object)),
            Request::Frontier(user) => Routed::Line(self.route_owner(user, line)),
            Request::Register { user, .. } => {
                let response = self.route_owner(user, line);
                if response.starts_with("OK REGISTERED ") {
                    self.note_registered(user);
                }
                Routed::Line(response)
            }
            Request::Update { user, .. } => Routed::Line(self.route_owner(user, line)),
            Request::Unregister(user) => {
                let response = self.route_owner(user, line);
                if response.starts_with("OK UNREGISTERED ") {
                    self.note_unregistered(user);
                }
                Routed::Line(response)
            }
            Request::Export(user) => Routed::Line(self.route_owner(user, line)),
            Request::Subscribe(user) => Routed::Subscribe(user),
            Request::Unsubscribe(user) => Routed::Unsubscribe(user),
            Request::Hello(capabilities) => Routed::Line(self.hello(&capabilities)),
            Request::Snapshot => Routed::Line(self.snapshot()),
            Request::Stats => Routed::Line(self.stats()),
            Request::Metrics => Routed::Line(self.exposition()),
            Request::Health => Routed::Line(self.health()),
            Request::Quit => Routed::Bye("OK BYE".to_owned()),
            Request::Sequenced { .. } => Routed::Line("ERR SEQ is a node-internal verb".to_owned()),
        }
    }

    fn note_registered(&mut self, user: UserId) {
        let owner = self.owner_of(user);
        self.owned[owner].insert(user);
        self.metrics.node_users[owner].set(self.owned[owner].len() as f64);
    }

    fn note_unregistered(&mut self, user: UserId) {
        let owner = self.owner_of(user);
        self.owned[owner].remove(&user);
        self.metrics.node_users[owner].set(self.owned[owner].len() as f64);
    }

    /// Replicates one ingest batch to every live node behind a pipelined
    /// barrier and merges the per-node target-user sets (disjoint by
    /// partitioning) into the canonical single-engine response.
    fn ingest(&mut self, rows: Vec<Vec<ValueId>>) -> String {
        // Validate here, once: per-node validation failures would have to
        // agree exactly to keep the streams aligned, so malformed batches
        // never reach a node at all.
        for row in &rows {
            if row.len() != self.arity {
                return format!(
                    "ERR object has {} values, schema has {} attributes",
                    row.len(),
                    self.arity
                );
            }
        }
        let count = rows.len() as u64;
        let body = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| v.raw().to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect::<Vec<_>>()
            .join(";");
        let seq = self.next_seq;
        let line = format!("SEQ {seq} INGEST {body}");

        // Write everywhere before reading anywhere: the barrier costs one
        // round trip regardless of node count.
        let mut sent = Vec::new();
        for node in 0..self.nodes.len() {
            if !self.up[node] {
                continue;
            }
            let start = Instant::now();
            if self.nodes[node].send(&line).is_ok() {
                sent.push((node, start));
            } else {
                self.mark_down(node);
            }
        }
        let mut replies = Vec::new();
        for (node, start) in sent {
            match self.nodes[node].recv() {
                Ok(response) => {
                    self.metrics.node_rpc_ns[node].record_duration(start.elapsed());
                    replies.push((node, response));
                }
                Err(e) => {
                    pm_obs::warn!(
                        "pm_coord",
                        "ingest barrier lost a node",
                        node = node,
                        error = e
                    );
                    self.mark_down(node);
                }
            }
        }
        if replies.is_empty() {
            return format!("ERR degraded node={}", self.degraded_list());
        }

        let mut oks = Vec::new();
        let mut first_err = None;
        for (node, response) in replies {
            if response.starts_with("OK INGESTED ") {
                oks.push(response);
            } else if response.starts_with("ERR seq mismatch") {
                // The node's applied position disagrees with the cluster:
                // it diverged (e.g. an operator fed it directly). Degrade
                // it; a rejoin re-fences it through the backlog.
                pm_obs::error!(
                    "pm_coord",
                    "node diverged",
                    node = node,
                    response = response
                );
                self.mark_down(node);
            } else if first_err.is_none() {
                first_err = Some(response);
            }
        }
        if oks.is_empty() {
            return first_err
                .unwrap_or_else(|| format!("ERR degraded node={}", self.degraded_list()));
        }
        self.next_seq = seq + count;
        self.backlog.push_back(Batch {
            seq,
            count,
            rows: body,
        });
        while self.backlog.len() > self.config.backlog {
            self.backlog.pop_front();
        }
        self.metrics.cluster_seq.set(self.next_seq as f64);
        self.metrics.backlog_batches.set(self.backlog.len() as f64);
        for node in 0..self.nodes.len() {
            if self.up[node] {
                self.metrics.node_next_id[node].set(self.next_seq as f64);
            }
        }
        merge_ingested(&oks)
    }

    /// Serves a read that every replica answers identically from the
    /// first live node.
    fn first_live(&mut self, line: &str) -> String {
        for node in 0..self.nodes.len() {
            if !self.up[node] {
                continue;
            }
            if let Ok(response) = self.rpc(node, line) {
                return response;
            }
        }
        format!("ERR degraded node={}", self.degraded_list())
    }

    /// `QUERY` fans to every node (each knows only its own users' hits)
    /// and unions the answers; with any node down the union would be
    /// silently incomplete, so the whole verb degrades instead.
    fn query(&mut self, object: ObjectId) -> String {
        if self.live() < self.nodes.len() {
            return format!("ERR degraded node={}", self.degraded_list());
        }
        let line = format!("QUERY {}", object.raw());
        let mut sent = Vec::new();
        for node in 0..self.nodes.len() {
            let start = Instant::now();
            if self.nodes[node].send(&line).is_ok() {
                sent.push((node, start));
            } else {
                self.mark_down(node);
            }
        }
        let mut users = BTreeSet::new();
        let mut first_err = None;
        let mut answered = 0usize;
        for (node, start) in sent {
            match self.nodes[node].recv() {
                Ok(response) => {
                    self.metrics.node_rpc_ns[node].record_duration(start.elapsed());
                    if let Some(rest) =
                        response.strip_prefix(&format!("OK QUERY {} ", object.raw()))
                    {
                        for token in rest.split(',').filter(|t| !t.is_empty()) {
                            if let Ok(user) = token.parse::<u32>() {
                                users.insert(user);
                            }
                        }
                        answered += 1;
                    } else if first_err.is_none() {
                        first_err = Some(response);
                    }
                }
                Err(_) => self.mark_down(node),
            }
        }
        if let Some(err) = first_err {
            return err;
        }
        if answered < self.nodes.len() {
            return format!("ERR degraded node={}", self.degraded_list());
        }
        render_text(&Response::Query {
            object,
            users: users.into_iter().map(UserId::new).collect(),
        })
    }

    /// Relays an owner-routed verb byte-for-byte, or degrades its range.
    fn route_owner(&mut self, user: UserId, line: &str) -> String {
        let owner = self.owner_of(user);
        if !self.up[owner] {
            return format!("ERR degraded node={owner}");
        }
        match self.rpc(owner, line.trim()) {
            Ok(response) => response,
            Err(()) => format!("ERR degraded node={owner}"),
        }
    }

    fn hello(&mut self, capabilities: &[String]) -> String {
        for capability in capabilities {
            match capability.as_str() {
                "text" => {}
                "frame" => {
                    return "ERR the coordinator serves the text protocol only \
                            (frame mode is node-local)"
                        .to_owned()
                }
                "node" => return "ERR the coordinator is not a node".to_owned(),
                other => return format!("ERR unknown capability `{other}` (expected text)"),
            }
        }
        format!(
            "OK HELLO pm-coord proto=text version={} backend={} nodes={} shards={} arity={}",
            env!("CARGO_PKG_VERSION"),
            self.backend,
            self.nodes.len(),
            self.shards,
            self.arity
        )
    }

    /// `SNAPSHOT` fans to every live node; the cluster's covered LSN is
    /// the minimum of the per-node answers.
    fn snapshot(&mut self) -> String {
        let mut min_lsn: Option<u64> = None;
        let mut first_err = None;
        for node in 0..self.nodes.len() {
            if !self.up[node] {
                continue;
            }
            if let Ok(response) = self.rpc(node, "SNAPSHOT") {
                match response
                    .strip_prefix("OK SNAPSHOT lsn=")
                    .and_then(|rest| rest.parse::<u64>().ok())
                {
                    Some(lsn) => min_lsn = Some(min_lsn.map_or(lsn, |m| m.min(lsn))),
                    None => {
                        if first_err.is_none() {
                            first_err = Some(response);
                        }
                    }
                }
            }
        }
        if let Some(err) = first_err {
            return err;
        }
        match min_lsn {
            Some(lsn) => format!("OK SNAPSHOT lsn={lsn}"),
            None => format!("ERR degraded node={}", self.degraded_list()),
        }
    }

    /// The cluster `STATS` rollup: one cluster-level line (sums over the
    /// partitioned quantities, agreeing values for the replicated ones)
    /// followed by a ` | node <id>: <body>` breakdown per node.
    fn stats(&mut self) -> String {
        let mut bodies: Vec<Option<String>> = vec![None; self.nodes.len()];
        for (node, slot) in bodies.iter_mut().enumerate() {
            if !self.up[node] {
                continue;
            }
            if let Ok(response) = self.rpc(node, "STATS") {
                if let Some(body) = response.strip_prefix("OK STATS ") {
                    *slot = Some(body.to_owned());
                }
            }
        }
        let sum = |key: &str| -> u64 {
            bodies
                .iter()
                .flatten()
                .map(|body| stat_field(body, key))
                .sum()
        };
        let max = |key: &str| -> u64 {
            bodies
                .iter()
                .flatten()
                .map(|body| stat_field(body, key))
                .max()
                .unwrap_or(0)
        };
        let mut line = format!(
            "OK STATS cluster nodes={} live={} degraded={} seq={} ingested={} users={} \
             registrations={} unregistrations={} updates={} notifications={} expirations={}",
            self.nodes.len(),
            self.live(),
            self.degraded_list(),
            self.next_seq,
            max("ingested="),
            sum("users="),
            sum("registrations="),
            sum("unregistrations="),
            sum("updates="),
            sum("notifications="),
            max("expirations="),
        );
        for (node, body) in bodies.iter().enumerate() {
            match body {
                Some(body) => line.push_str(&format!(" | node {node}: {body}")),
                None => line.push_str(&format!(" | node {node}: down")),
            }
        }
        line
    }

    fn exposition(&mut self) -> String {
        self.metrics.cluster_seq.set(self.next_seq as f64);
        self.metrics.cluster_live.set(self.live() as f64);
        self.metrics.backlog_batches.set(self.backlog.len() as f64);
        let body = self.metrics.render();
        format!("OK METRICS {}\n{body}", body.len())
    }

    /// `HEALTH` is also the deterministic rejoin trigger: every down node
    /// gets one reconnect-and-replay attempt before the answer is built,
    /// so a harness that restarted a node can barrier on a single
    /// `HEALTH` round trip.
    fn health(&mut self) -> String {
        self.try_rejoin_all();
        let users: usize = self.owned.iter().map(BTreeSet::len).sum();
        format!(
            "OK HEALTH pm-coord backend={} nodes={} live={} degraded={} seq={} users={} \
             uptime_ms={}",
            self.backend,
            self.nodes.len(),
            self.live(),
            self.degraded_list(),
            self.next_seq,
            users,
            self.start.elapsed().as_millis()
        )
    }

    /// Attempts to rejoin every down node. Returns the ids that came
    /// back.
    pub fn try_rejoin_all(&mut self) -> Vec<usize> {
        let mut back = Vec::new();
        for node in 0..self.nodes.len() {
            if !self.up[node] && self.try_rejoin(node) {
                back.push(node);
            }
        }
        back
    }

    /// One rejoin attempt: reconnect, re-validate identity, fence the
    /// node's recovered applied position against the backlog and replay
    /// the suffix it missed.
    fn try_rejoin(&mut self, node: usize) -> bool {
        let info = match self.nodes[node].connect(self.config.rpc_timeout) {
            Ok(info) => info,
            Err(e) => {
                pm_obs::debug!("pm_coord", "rejoin attempt failed", node = node, error = e);
                return false;
            }
        };
        if info.backend != self.backend || info.shards != self.shards || info.arity != self.arity {
            pm_obs::error!(
                "pm_coord",
                "rejoining node no longer matches the cluster",
                node = node,
                backend = info.backend,
                shards = info.shards,
                arity = info.arity
            );
            self.nodes[node].disconnect();
            return false;
        }
        if info.next_id > self.next_seq {
            pm_obs::error!(
                "pm_coord",
                "rejoining node is ahead of the cluster",
                node = node,
                node_position = info.next_id,
                cluster_seq = self.next_seq
            );
            self.nodes[node].disconnect();
            return false;
        }
        let mut position = info.next_id;
        if position < self.next_seq {
            // Batches are contiguous (seq_{k+1} = seq_k + count_k) and a
            // node's applied position always sits on a batch boundary, so
            // the replay suffix starts at an exact match or not at all.
            let start = match self.backlog.iter().position(|b| b.seq == position) {
                Some(start) => start,
                None => {
                    pm_obs::error!(
                        "pm_coord",
                        "backlog no longer reaches the node's position",
                        node = node,
                        node_position = position,
                        backlog_from = self.backlog.front().map_or(self.next_seq, |b| b.seq)
                    );
                    self.nodes[node].disconnect();
                    return false;
                }
            };
            for index in start..self.backlog.len() {
                let (line, after) = {
                    let batch = &self.backlog[index];
                    (
                        format!("SEQ {} INGEST {}", batch.seq, batch.rows),
                        batch.seq + batch.count,
                    )
                };
                match self.nodes[node].request(&line) {
                    Ok(response) if response.starts_with("OK INGESTED ") => {
                        self.metrics.node_replays[node].inc();
                        position = after;
                    }
                    Ok(response) => {
                        pm_obs::error!(
                            "pm_coord",
                            "backlog replay rejected",
                            node = node,
                            response = response
                        );
                        self.nodes[node].disconnect();
                        return false;
                    }
                    Err(e) => {
                        pm_obs::warn!(
                            "pm_coord",
                            "node lost again during replay",
                            node = node,
                            error = e
                        );
                        self.nodes[node].disconnect();
                        return false;
                    }
                }
            }
        }
        if position != self.next_seq {
            pm_obs::error!(
                "pm_coord",
                "replay ended short of the cluster sequence",
                node = node,
                position = position,
                cluster_seq = self.next_seq
            );
            self.nodes[node].disconnect();
            return false;
        }
        pm_obs::info!(
            "pm_coord",
            "node rejoined",
            node = node,
            replayed_to = self.next_seq
        );
        self.up[node] = true;
        self.metrics.node_up[node].set(1.0);
        self.metrics.node_next_id[node].set(self.next_seq as f64);
        self.metrics.cluster_live.set(self.live() as f64);
        self.failed.retain(|&n| n != node);
        self.rejoined.push(node);
        true
    }

    /// Moves one user to another node: `EXPORT` the preference from the
    /// old owner, re-`REGISTER` it on the new owner (whose replicated
    /// object stream backfills the frontier — registration's normal
    /// machinery), then drain the old owner with `UNREGISTER`. The
    /// building block of a topology resize.
    pub fn migrate_user(&mut self, user: UserId, from: usize, to: usize) -> Result<(), String> {
        let exported = self
            .rpc(from, &format!("EXPORT {}", user.raw()))
            .map_err(|()| format!("node {from} died during export"))?;
        let rows = exported
            .strip_prefix(&format!("OK EXPORTED {} ", user.raw()))
            .ok_or_else(|| format!("export failed: {exported}"))?
            .to_owned();
        let registered = self
            .rpc(to, &format!("REGISTER {} {rows}", user.raw()))
            .map_err(|()| format!("node {to} died during re-register"))?;
        if !registered.starts_with("OK REGISTERED ") {
            return Err(format!("re-register failed: {registered}"));
        }
        let drained = self
            .rpc(from, &format!("UNREGISTER {}", user.raw()))
            .map_err(|()| format!("node {from} died during drain"))?;
        if !drained.starts_with("OK UNREGISTERED ") {
            return Err(format!("drain failed: {drained}"));
        }
        self.owned[from].remove(&user);
        self.owned[to].insert(user);
        self.metrics.node_users[from].set(self.owned[from].len() as f64);
        self.metrics.node_users[to].set(self.owned[to].len() as f64);
        Ok(())
    }
}

/// Merges per-node `OK INGESTED` lines: group `k` of every node reports
/// the same object id with that node's own (disjoint) target users, so
/// the cluster response is the per-group union — byte-identical to what
/// one engine over the whole population renders.
fn merge_ingested(responses: &[String]) -> String {
    let mut merged: Vec<(String, BTreeSet<u32>)> = Vec::new();
    let mut count = 0usize;
    for response in responses {
        let rest = match response.strip_prefix("OK INGESTED ") {
            Some(rest) => rest,
            None => continue,
        };
        let (n, body) = match rest.split_once(' ') {
            Some((n, body)) => (n, body),
            None => (rest, ""),
        };
        count = n.parse().unwrap_or(count);
        for (index, group) in body.split(';').enumerate() {
            let (id, users) = match group.split_once(':') {
                Some(pair) => pair,
                None => continue,
            };
            if merged.len() <= index {
                merged.push((id.to_owned(), BTreeSet::new()));
            }
            for token in users.split(',').filter(|t| !t.is_empty()) {
                if let Ok(user) = token.parse::<u32>() {
                    merged[index].1.insert(user);
                }
            }
        }
    }
    let mut out = format!("OK INGESTED {count} ").into_bytes();
    for (index, (id, users)) in merged.iter().enumerate() {
        if index > 0 {
            out.push(b';');
        }
        out.extend_from_slice(id.as_bytes());
        out.push(b':');
        write_ids(&mut out, users.iter().map(|&user| u64::from(user)));
    }
    String::from_utf8(out).expect("node replies are UTF-8")
}

/// Extracts `key=<u64>` from a STATS body; `key` includes the `=`.
fn stat_field(body: &str, key: &str) -> u64 {
    body.split_whitespace()
        .find_map(|token| token.strip_prefix(key))
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_disjoint_target_user_sets() {
        let merged = merge_ingested(&[
            "OK INGESTED 2 7:1,4;8:".to_owned(),
            "OK INGESTED 2 7:2;8:9".to_owned(),
            "OK INGESTED 2 7:;8:".to_owned(),
        ]);
        assert_eq!(merged, "OK INGESTED 2 7:1,2,4;8:9");
    }

    #[test]
    fn merge_of_one_response_is_the_identity() {
        let line = "OK INGESTED 2 3:1,2;4:";
        assert_eq!(merge_ingested(&[line.to_owned()]), line);
    }

    #[test]
    fn stat_fields_parse_from_a_snapshot_body() {
        let body = "ingested=42 arrivals_per_sec=1.0 users=7 shard_users=3,4 \
                    registrations=9 notifications=120 expirations=5";
        assert_eq!(stat_field(body, "ingested="), 42);
        assert_eq!(stat_field(body, "users="), 7);
        assert_eq!(stat_field(body, "notifications="), 120);
        assert_eq!(stat_field(body, "missing="), 0);
    }
}
