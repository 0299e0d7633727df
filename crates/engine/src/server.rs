//! TCP serving layer: an [`EngineService`] wraps a [`ShardedEngine`] with
//! object-id assignment and a bounded arrival history, and [`serve`]
//! (implemented by [`crate::reactor`]) exposes it over a [`TcpListener`]
//! with a single readiness-reactor thread driving every connection.

use std::collections::{HashMap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pm_core::Arrival;
use pm_model::{AttrId, Object, ObjectId, UserId, ValueId};
use pm_porder::{Preference, Relation, MAX_PREFERENCE_VALUE, MAX_RELATION_VALUES};
use pm_wal::{write_snapshot, EngineState, WalRecord};

use crate::backend::BackendSpec;
use crate::durability::Durability;
use crate::engine::{shard_of, ShardedEngine};
use crate::obs::{EngineMetrics, Verb};
use crate::protocol::{parse_request, Request};
use crate::reactor::ReactorConfig;
use crate::response::{render_text, Response, WireMode};

/// Configuration of the serving layer (see `pm-server --help`).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// How many recently ingested objects `QUERY` can look up.
    pub history: usize,
    /// Ingest batches slower than this are logged at `warn` level with
    /// their stage breakdown (and counted in `pm_slow_ops_total`). `None`
    /// disables the slow-op log.
    pub slow_op: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_owned(),
            history: 4096,
            slow_op: Some(Duration::from_millis(100)),
        }
    }
}

/// Object-id assignment and recent-arrival history, serialized so that ids
/// are assigned in exactly the order batches reach the engine.
struct IngestState {
    next_id: u64,
    order: VecDeque<ObjectId>,
    targets: HashMap<ObjectId, Vec<UserId>>,
}

/// A sharded engine plus the session state the wire protocol needs. Shared
/// across connection threads behind an [`Arc`].
pub struct EngineService {
    engine: ShardedEngine,
    backend: BackendSpec,
    arity: usize,
    history: usize,
    ingest: Mutex<IngestState>,
    /// The engine's metric bundle, shared so the serving layer records its
    /// per-verb request metrics into the same registry `METRICS` renders.
    /// `None` when the engine was built without metrics.
    metrics: Option<Arc<EngineMetrics>>,
    /// Slow-op threshold (see [`ServerConfig::slow_op`]).
    slow_op: Option<Duration>,
    /// The attached durability runtime (open WAL + snapshot scheduling);
    /// `None` until `attach_durability`, i.e. when the server runs without
    /// `--wal-dir`.
    durability: Mutex<Option<Arc<Durability>>>,
}

/// Locks the ingest state, recovering from poisoning: one connection
/// thread dying mid-call must not take the whole service down with
/// `PoisonError` panics. The state is monotonic (id counter + bounded
/// history), so it stays usable even if a holder panicked between writes.
fn lock_ingest(mutex: &Mutex<IngestState>) -> MutexGuard<'_, IngestState> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Locks the durability slot with the same poison-recovery policy as
/// [`lock_ingest`]: the slot only ever holds an [`Arc`] swap, so a holder
/// dying mid-clone cannot leave it inconsistent.
fn lock_durability(
    mutex: &Mutex<Option<Arc<Durability>>>,
) -> MutexGuard<'_, Option<Arc<Durability>>> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl EngineService {
    /// Wraps `engine`. `arity` is the number of attributes every ingested
    /// object must carry; `history` bounds how many recent arrivals `QUERY`
    /// can see.
    pub fn new(engine: ShardedEngine, backend: BackendSpec, arity: usize, history: usize) -> Self {
        let metrics = engine.metrics().map(Arc::clone);
        Self {
            engine,
            backend,
            arity,
            history: history.max(1),
            ingest: Mutex::new(IngestState {
                next_id: 0,
                order: VecDeque::new(),
                targets: HashMap::new(),
            }),
            metrics,
            slow_op: ServerConfig::default().slow_op,
            durability: Mutex::new(None),
        }
    }

    /// Overrides the slow-op threshold (`None` disables the slow-op log).
    pub fn with_slow_op(mut self, slow_op: Option<Duration>) -> Self {
        self.slow_op = slow_op;
        self
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Ingests value rows: assigns consecutive object ids (arrival
    /// timestamps), processes the batch, records the target sets in the
    /// history, and returns the arrivals.
    ///
    /// The ingest lock spans id assignment *and* engine submission so that
    /// concurrent connections cannot ingest ids out of arrival order — but
    /// it is released before the results are awaited, so one connection's
    /// batch is processed by the shards while another connection already
    /// assigns and enqueues the next one.
    pub fn ingest(&self, rows: Vec<Vec<ValueId>>) -> Result<Vec<Arrival>, String> {
        self.ingest_fenced(rows, None)
    }

    /// [`Self::ingest`] with an optional sequence fence: when `fence` is
    /// `Some(seq)`, the batch is refused unless the service's next object
    /// id equals `seq`. The check happens under the ingest lock — the same
    /// critical section that assigns ids — so a replicated batch either
    /// lands at exactly the announced position or not at all. Backs the
    /// internal `SEQ` verb a cluster coordinator uses to keep every node's
    /// object stream identical.
    pub fn ingest_fenced(
        &self,
        rows: Vec<Vec<ValueId>>,
        fence: Option<u64>,
    ) -> Result<Vec<Arrival>, String> {
        for row in &rows {
            if row.len() != self.arity {
                return Err(format!(
                    "object has {} values, schema has {} attributes",
                    row.len(),
                    self.arity
                ));
            }
        }
        let ticket = {
            let mut state = lock_ingest(&self.ingest);
            if let Some(seq) = fence {
                if state.next_id != seq {
                    return Err(format!(
                        "seq mismatch: node is at {}, batch is fenced to {seq}",
                        state.next_id
                    ));
                }
            }
            let objects: Vec<Object> = rows
                .into_iter()
                .map(|values| {
                    let id = ObjectId::new(state.next_id);
                    state.next_id += 1;
                    Object::new(id, values)
                })
                .collect();
            self.engine.submit_batch(objects)
        };
        let (arrivals, timing) = ticket.wait_timed();
        if let Some(threshold) = self.slow_op {
            if timing.total >= threshold {
                if let Some(metrics) = &self.metrics {
                    metrics.slow_ops.inc();
                }
                pm_obs::warn!(
                    "pm_engine::server",
                    "slow ingest batch",
                    objects = arrivals.len(),
                    total_us = timing.total.as_micros(),
                    lock_hold_us = timing.lock_hold.as_micros(),
                    fan_in_us = timing.fan_in.as_micros(),
                    threshold_us = threshold.as_micros(),
                );
            }
        }
        // Concurrent batches may record their history slightly out of id
        // order; the eviction bound still holds and each object is recorded
        // exactly once.
        self.record_history(&arrivals);
        Ok(arrivals)
    }

    /// Records processed arrivals in the bounded `QUERY` cache.
    fn record_history(&self, arrivals: &[Arrival]) {
        let mut state = lock_ingest(&self.ingest);
        for arrival in arrivals {
            state.order.push_back(arrival.object);
            state
                .targets
                .insert(arrival.object, arrival.target_users.clone());
            while state.order.len() > self.history {
                if let Some(evicted) = state.order.pop_front() {
                    state.targets.remove(&evicted);
                }
            }
        }
    }

    /// The recorded target users of a recently ingested object.
    pub fn lookup(&self, object: ObjectId) -> Option<Vec<UserId>> {
        let state = lock_ingest(&self.ingest);
        state.targets.get(&object).cloned()
    }

    /// The service's applied position: the id the next ingested object
    /// will be assigned. Since ids are assigned consecutively from 0, this
    /// equals the number of objects ever applied — the value the `HELLO
    /// node` handshake reports so a coordinator can fence backlog replay.
    pub fn ingest_next_id(&self) -> u64 {
        lock_ingest(&self.ingest).next_id
    }

    /// Seeds the ingest bookkeeping from a restored snapshot: the next
    /// object id to assign and the `QUERY` cache contents.
    pub(crate) fn seed_ingest(
        &self,
        next_id: u64,
        order: Vec<ObjectId>,
        targets: Vec<(ObjectId, Vec<UserId>)>,
    ) {
        let mut state = lock_ingest(&self.ingest);
        state.next_id = next_id;
        state.order = order.into();
        state.targets = targets.into_iter().collect();
    }

    /// Installs the durability runtime: attaches the WAL to the engine (so
    /// every mutation is appended from here on) and arms periodic
    /// snapshots. Called once at startup, after recovery replay — replayed
    /// mutations must not be re-appended.
    pub(crate) fn attach_durability(&self, durability: Durability) {
        self.engine.set_wal(Arc::clone(&durability.wal));
        *lock_durability(&self.durability) = Some(Arc::new(durability));
    }

    /// Applies one recovered WAL record through the ordinary serving
    /// paths. Ingest batches carry their originally assigned object ids,
    /// so replay re-mints the identical arrival stream (and advances the
    /// id counter past them); churn records go straight to the engine —
    /// their preferences were validated before they were ever logged.
    pub(crate) fn replay_record(&self, record: WalRecord) -> Result<(), String> {
        match record {
            WalRecord::IngestBatch { objects } => {
                if objects.is_empty() {
                    return Ok(());
                }
                let ticket = {
                    let mut state = lock_ingest(&self.ingest);
                    if let Some(last) = objects.last() {
                        state.next_id = state.next_id.max(last.id().raw() + 1);
                    }
                    self.engine.submit_batch(objects)
                };
                let (arrivals, _) = ticket.wait_timed();
                self.record_history(&arrivals);
                Ok(())
            }
            WalRecord::Register { user, preference } => self.engine.register(user, preference),
            WalRecord::Update { user, preference } => self.engine.update(user, preference),
            WalRecord::Unregister { user } => self.engine.unregister(user),
        }
    }

    /// Writes a snapshot now: captures a consistent cut (the ingest lock
    /// freezes id assignment while [`ShardedEngine::export_durable`] takes
    /// its shard-ordered cut), syncs the WAL, writes the snapshot file
    /// durably, and prunes log segments the snapshot fully covers. Returns
    /// the covered LSN. Backs the `SNAPSHOT` wire verb.
    pub fn snapshot_now(&self) -> Result<u64, String> {
        let Some(durability) = lock_durability(&self.durability).clone() else {
            return Err("durability is disabled (no --wal-dir)".to_owned());
        };
        let state = {
            let ingest = lock_ingest(&self.ingest);
            let export = self.engine.export_durable();
            let query_targets = ingest
                .order
                .iter()
                .map(|id| (*id, ingest.targets.get(id).cloned().unwrap_or_default()))
                .collect();
            EngineState {
                backend: self.backend.to_string(),
                shards: self.engine.num_shards() as u32,
                arity: self.arity as u32,
                last_lsn: export.last_lsn,
                next_id: ingest.next_id,
                ingested: export.ingested,
                registrations: export.registrations,
                unregistrations: export.unregistrations,
                updates: export.updates,
                members: export.members,
                monitors: export.monitors,
                query_order: ingest.order.iter().copied().collect(),
                query_targets,
            }
        };
        durability
            .wal
            .sync()
            .map_err(|e| format!("wal sync failed: {e}"))?;
        write_snapshot(&durability.dir, &state)
            .map_err(|e| format!("snapshot write failed: {e}"))?;
        if let Err(e) = durability.wal.prune_up_to(state.last_lsn) {
            // The snapshot is durable; stale segments only cost disk.
            pm_obs::warn!("pm_engine::server", "WAL prune failed", error = e);
        }
        durability
            .last_snapshot_lsn
            .store(state.last_lsn, Ordering::Relaxed);
        let written = durability.snapshots.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(metrics) = &self.metrics {
            metrics.record_snapshot(written, state.last_lsn);
        }
        Ok(state.last_lsn)
    }

    /// Snapshot bookkeeping for `pm_wal_*` gauges: `(snapshots written,
    /// LSN covered by the latest)`; `None` without durability.
    pub fn snapshot_stats(&self) -> Option<(u64, u64)> {
        let durability = lock_durability(&self.durability).clone()?;
        Some((
            durability.snapshots.load(Ordering::Relaxed),
            durability.last_snapshot_lsn.load(Ordering::Relaxed),
        ))
    }

    /// Writes a periodic snapshot if enough WAL records accumulated since
    /// the last one. Failures are logged, never fatal: the WAL alone still
    /// recovers, it just replays a longer tail.
    fn maybe_snapshot(&self) {
        let Some(durability) = lock_durability(&self.durability).clone() else {
            return;
        };
        if durability.snapshot_every == 0 {
            return;
        }
        let covered = durability.last_snapshot_lsn.load(Ordering::Relaxed);
        if durability.wal.next_lsn().saturating_sub(covered) < durability.snapshot_every {
            return;
        }
        if let Err(e) = self.snapshot_now() {
            pm_obs::warn!("pm_engine::server", "periodic snapshot failed", error = e);
        }
    }

    /// Validates wire-format preference rows against the schema arity, the
    /// value bound [`MAX_PREFERENCE_VALUE`] (compiled relations size a table
    /// by the largest value id), the per-attribute bound
    /// [`MAX_RELATION_VALUES`] (a closure holds one bit row per value) and
    /// the strict-partial-order laws, building the preference they denote.
    /// Both bounds are checked before any closure is built. Shared by
    /// `REGISTER` and `UPDATE`, which accept the same payload.
    fn preference_from_rows(
        &self,
        rows: Vec<Vec<(ValueId, ValueId)>>,
    ) -> Result<Preference, String> {
        if rows.len() != self.arity {
            return Err(format!(
                "preference has {} attribute rows, schema has {} attributes",
                rows.len(),
                self.arity
            ));
        }
        let values = rows.iter().flatten().flat_map(|&(x, y)| [x, y]);
        if let Some(value) = values.max().filter(|v| v.raw() > MAX_PREFERENCE_VALUE) {
            return Err(format!(
                "preference value {} exceeds the maximum {MAX_PREFERENCE_VALUE}",
                value.raw()
            ));
        }
        for (attr, row) in rows.iter().enumerate() {
            let mut values: Vec<ValueId> = row.iter().flat_map(|&(x, y)| [x, y]).collect();
            values.sort_unstable();
            values.dedup();
            if values.len() > MAX_RELATION_VALUES {
                return Err(format!(
                    "preference row for {} names {} values, the maximum is {MAX_RELATION_VALUES}",
                    AttrId::from(attr),
                    values.len()
                ));
            }
        }
        let relations = rows
            .into_iter()
            .enumerate()
            .map(|(attr, row)| {
                Relation::from_pairs(row).map_err(|e| {
                    format!(
                        "non-canonical preference row for {}: {e}",
                        AttrId::from(attr)
                    )
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Preference::from_relations(relations))
    }

    /// Registers a user from wire-format preference rows: validates the row
    /// count against the schema arity and that every row stays a strict
    /// partial order, then routes the registration to the owning shard.
    /// Returns that shard's index.
    pub fn register(
        &self,
        user: UserId,
        rows: Vec<Vec<(ValueId, ValueId)>>,
    ) -> Result<usize, String> {
        let preference = self.preference_from_rows(rows)?;
        self.engine.register(user, preference)?;
        Ok(shard_of(user, self.engine.num_shards()))
    }

    /// Replaces a registered user's preference in place from wire-format
    /// rows (same validation as [`Self::register`]): the user keeps its
    /// global and shard-local ids, its frontier is repaired by replay and
    /// its cluster by diffing the old and new relations. Returns the owning
    /// shard's index.
    pub fn update(
        &self,
        user: UserId,
        rows: Vec<Vec<(ValueId, ValueId)>>,
    ) -> Result<usize, String> {
        let preference = self.preference_from_rows(rows)?;
        self.engine.update(user, preference)?;
        Ok(shard_of(user, self.engine.num_shards()))
    }

    /// Handles one parsed request, returning the typed [`Response`] a wire
    /// renderer (or the reactor's event fan-out) consumes. Records the
    /// per-verb request counter and latency histogram when the engine
    /// carries metrics.
    pub fn handle(&self, request: Request) -> Response {
        let verb = Verb::of(&request);
        let start = Instant::now();
        let response = self.handle_inner(request);
        if let Some(metrics) = &self.metrics {
            if let Some(verb) = verb {
                metrics.record_request(verb, start.elapsed());
            }
            if response.is_err() {
                metrics.record_error();
            }
        }
        // Mutating verbs advance the WAL; check the periodic-snapshot
        // schedule after they succeed.
        if !response.is_err()
            && matches!(
                verb,
                Some(Verb::Ingest | Verb::Register | Verb::Update | Verb::Unregister)
            )
        {
            self.maybe_snapshot();
        }
        response
    }

    fn handle_inner(&self, request: Request) -> Response {
        match request {
            Request::Ingest(rows) => match self.ingest(rows) {
                Ok(arrivals) => Response::Ingested(arrivals),
                Err(e) => Response::Err(e),
            },
            Request::Expire => Response::Expired {
                expirations: self.engine.stats().expirations,
                sliding: self.backend.is_sliding(),
            },
            Request::Query(object) => match self.lookup(object) {
                Some(users) => Response::Query { object, users },
                None => Response::Err(format!(
                    "object {} not in the last {} arrivals",
                    object.raw(),
                    self.history
                )),
            },
            Request::Frontier(user) => {
                if !self.engine.is_registered(user) {
                    Response::Err(format!("unknown user {}", user.raw()))
                } else {
                    Response::Frontier {
                        user,
                        objects: self.engine.frontier(user),
                    }
                }
            }
            Request::Register { user, rows } => match self.register(user, rows) {
                Ok(shard) => Response::Registered { user, shard },
                Err(e) => Response::Err(e),
            },
            Request::Update { user, rows } => match self.update(user, rows) {
                Ok(shard) => Response::Updated { user, shard },
                Err(e) => Response::Err(e),
            },
            Request::Unregister(user) => match self.engine.unregister(user) {
                Ok(()) => Response::Unregistered(user),
                Err(e) => Response::Err(e),
            },
            Request::Subscribe(user) => {
                if !self.engine.is_registered(user) {
                    Response::Err(format!("unknown user {}", user.raw()))
                } else {
                    // Snapshot and subscription registration are atomic in
                    // the single-threaded reactor: no delta between them
                    // can be missed by the subscriber.
                    Response::Subscribed {
                        user,
                        snapshot: self.engine.frontier(user),
                    }
                }
            }
            // The reactor owns per-connection subscription state and
            // rejects an UNSUBSCRIBE without a matching subscription
            // before it ever reaches the service.
            Request::Unsubscribe(user) => Response::Unsubscribed(user),
            Request::Hello(capabilities) => self.hello(&capabilities),
            Request::Snapshot => match self.snapshot_now() {
                Ok(lsn) => Response::Snapshot { lsn },
                Err(e) => Response::Err(e),
            },
            Request::Stats => Response::Stats(self.engine.snapshot().to_string()),
            Request::Metrics => match self.engine.render_metrics() {
                Some(body) => Response::Metrics(body),
                None => Response::Err("metrics are disabled on this engine".to_owned()),
            },
            Request::Health => Response::Health {
                backend: self.backend.to_string(),
                shards: self.engine.num_shards(),
                users: self.engine.num_users(),
                uptime_ms: self.engine.snapshot().uptime.as_millis(),
            },
            Request::Quit => Response::Bye,
            Request::Export(user) => match self.engine.preference_of(user) {
                Some(preference) => Response::Exported {
                    user,
                    rows: preference_rows(&preference),
                },
                None => Response::Err(format!("user {} is not registered", user.raw())),
            },
            Request::Sequenced { seq, inner } => match *inner {
                Request::Ingest(rows) => match self.ingest_fenced(rows, Some(seq)) {
                    Ok(arrivals) => Response::Ingested(arrivals),
                    Err(e) => Response::Err(e),
                },
                other => Response::Err(format!("SEQ wraps only INGEST, got {other:?}")),
            },
        }
    }

    /// Negotiates `HELLO` capabilities: `text` and `frame` pick the wire
    /// mode (the last one wins; a bare `HELLO` means `text`), `node` asks
    /// for the node-mode handshake (the same identity plus the applied
    /// position a coordinator needs to fence backlog replay), anything
    /// else is an error that leaves the connection and its current mode
    /// untouched.
    fn hello(&self, capabilities: &[String]) -> Response {
        let mut proto = WireMode::Text;
        let mut node = false;
        for capability in capabilities {
            match capability.to_ascii_lowercase().as_str() {
                "text" => proto = WireMode::Text,
                "frame" => proto = WireMode::Frame,
                "node" => node = true,
                other => {
                    return Response::Err(format!(
                        "unknown capability `{other}` (expected text, frame or node)"
                    ))
                }
            }
        }
        if node {
            return Response::NodeHello {
                proto,
                version: env!("CARGO_PKG_VERSION").to_owned(),
                backend: self.backend.to_string(),
                shards: self.engine.num_shards(),
                arity: self.arity,
                next_id: self.ingest_next_id(),
            };
        }
        Response::Hello {
            proto,
            version: env!("CARGO_PKG_VERSION").to_owned(),
            backend: self.backend.to_string(),
            shards: self.engine.num_shards(),
            arity: self.arity,
        }
    }

    /// Handles one parsed request and renders the response as its text
    /// line (without the trailing newline) — the typed path with the
    /// classic string surface.
    pub fn respond(&self, request: Request) -> String {
        render_text(&self.handle(request))
    }

    /// Parses one request line, recording the ingest `parse` stage
    /// histogram and counting unparseable lines as request errors.
    pub(crate) fn parse_line(&self, line: &str) -> Result<Request, String> {
        let start = Instant::now();
        let parsed = parse_request(line);
        if let Some(metrics) = &self.metrics {
            if matches!(parsed, Ok(Request::Ingest(_))) {
                metrics.stage_parse.record_duration(start.elapsed());
            }
            if parsed.is_err() {
                metrics.record_error();
            }
        }
        parsed
    }

    /// Parses and handles one request line.
    pub fn respond_line(&self, line: &str) -> String {
        match self.parse_line(line) {
            Ok(request) => self.respond(request),
            Err(e) => format!("ERR {e}"),
        }
    }

    /// The engine's metric bundle, for the reactor's connection gauges.
    pub(crate) fn metrics_bundle(&self) -> Option<&Arc<EngineMetrics>> {
        self.metrics.as_ref()
    }
}

/// Renders a preference as REGISTER-syntax rows: one `;`-separated row
/// per attribute, each a comma-separated `x>y` list sorted by `(x, y)`
/// (`-` for an attribute without preferences). The output parses back to
/// an equal preference — relations store their transitive closure, and
/// REGISTER re-closes whatever generating set it receives — so a
/// coordinator can migrate a user by replaying the exported rows
/// verbatim on another node.
fn preference_rows(preference: &Preference) -> String {
    let rows: Vec<String> = preference
        .relations()
        .map(|(_, relation)| {
            if relation.is_empty() {
                return "-".to_owned();
            }
            relation
                .pairs()
                .map(|(x, y)| format!("{}>{}", x.raw(), y.raw()))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    rows.join(";")
}

/// Serves the listener with a single-threaded readiness reactor (see
/// [`crate::reactor`]): every connection — request/response *and*
/// subscription pushes — is driven by one event-loop thread over
/// nonblocking sockets, so idle subscribers cost a socket and a few hundred
/// bytes, not a thread.
///
/// Failure policy (audited): parse failures answer `ERR` and keep serving;
/// read/write failures end *that* connection only. Accept failures are
/// logged and skipped — transient conditions (`ECONNABORTED`, `EMFILE`
/// after a burst, a peer resetting mid-handshake) must not take the whole
/// server down; only a persistently failing listener ends the loop, after a
/// bounded number of consecutive failures.
pub fn serve(listener: TcpListener, service: Arc<EngineService>) -> std::io::Result<()> {
    crate::reactor::serve_with(listener, service, ReactorConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use pm_porder::Preference;
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;

    fn service(shards: usize, backend: &str) -> EngineService {
        // Three users with simple chain preferences over 2 attributes.
        let prefs: Vec<Preference> = (0..3)
            .map(|u| {
                let mut p = Preference::new(2);
                for attr in 0..2u32 {
                    p.prefer(
                        pm_model::AttrId::new(attr),
                        ValueId::new(u as u32 % 3),
                        ValueId::new((u as u32 + 1) % 3),
                    );
                }
                p
            })
            .collect();
        let spec = BackendSpec::parse(backend).unwrap();
        let engine = ShardedEngine::new(prefs, &EngineConfig::new(shards), &spec);
        EngineService::new(engine, spec, 2, 8)
    }

    #[test]
    fn ingest_query_frontier_stats_health_round_trip() {
        let svc = service(2, "baseline");
        let r = svc.respond_line("INGEST 0,1;1,2");
        assert!(r.starts_with("OK INGESTED 2 0:"), "{r}");
        assert!(r.contains(";1:"), "{r}");
        let q = svc.respond_line("QUERY 0");
        assert!(q.starts_with("OK QUERY 0 "), "{q}");
        let f = svc.respond_line("FRONTIER 1");
        assert!(f.starts_with("OK FRONTIER 1 "), "{f}");
        let s = svc.respond_line("STATS");
        assert!(s.contains("ingested=2"), "{s}");
        assert!(s.contains("shards=2"), "{s}");
        let h = svc.respond_line("HEALTH");
        assert!(h.contains("backend=baseline"), "{h}");
        assert!(h.contains("users=3"), "{h}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let svc = service(1, "baseline");
        assert!(svc
            .respond_line("INGEST 1,2,3")
            .starts_with("ERR object has 3 values"));
        assert!(svc.respond_line("QUERY 99").starts_with("ERR object 99"));
        assert!(svc
            .respond_line("FRONTIER 99")
            .starts_with("ERR unknown user"));
        assert!(svc.respond_line("GARBAGE").starts_with("ERR unknown verb"));
        // The service still works afterwards.
        assert!(svc.respond_line("INGEST 0,0").starts_with("OK INGESTED 1"));
    }

    #[test]
    fn history_is_bounded() {
        let svc = service(1, "baseline");
        for i in 0..12 {
            let r = svc.respond_line(&format!("INGEST {},{}", i % 3, (i + 1) % 3));
            assert!(r.starts_with("OK"), "{r}");
        }
        // History capacity is 8: object 0 has been evicted, recent ones kept.
        assert!(svc.respond_line("QUERY 0").starts_with("ERR"));
        assert!(svc.respond_line("QUERY 11").starts_with("OK"));
    }

    #[test]
    fn register_unregister_round_trip() {
        let svc = service(2, "baseline");
        // Register user 9 with a chain preference on both attributes.
        let r = svc.respond_line("REGISTER 9 0>1,1>2;2>0");
        assert!(r.starts_with("OK REGISTERED 9 shard="), "{r}");
        assert!(svc.respond_line("HEALTH").contains("users=4"));
        // The new user participates in ingestion and frontier queries.
        assert!(svc.respond_line("INGEST 0,2").starts_with("OK INGESTED 1"));
        assert!(svc
            .respond_line("FRONTIER 9")
            .starts_with("OK FRONTIER 9 0"));
        let stats = svc.respond_line("STATS");
        assert!(stats.contains("users=4"), "{stats}");
        assert!(stats.contains("shard_users="), "{stats}");
        // Unregister and observe the user disappear.
        assert_eq!(svc.respond_line("UNREGISTER 9"), "OK UNREGISTERED 9");
        assert!(svc
            .respond_line("FRONTIER 9")
            .starts_with("ERR unknown user"));
        assert!(svc.respond_line("HEALTH").contains("users=3"));
    }

    #[test]
    fn register_validates_arity_and_partial_order() {
        let svc = service(1, "baseline");
        // Wrong row count (schema has 2 attributes).
        assert!(svc
            .respond_line("REGISTER 9 0>1")
            .starts_with("ERR preference has 1 attribute rows"));
        // Reflexive and cyclic rows are non-canonical.
        assert!(svc
            .respond_line("REGISTER 9 1>1;-")
            .starts_with("ERR non-canonical preference row"));
        assert!(svc
            .respond_line("REGISTER 9 0>1,1>0;-")
            .starts_with("ERR non-canonical preference row"));
        // Duplicate user ids are rejected.
        assert!(svc
            .respond_line("REGISTER 0 0>1;-")
            .starts_with("ERR user 0 is already registered"));
        // Unknown unregister is an error, not a panic.
        assert!(svc
            .respond_line("UNREGISTER 99")
            .starts_with("ERR user 99 is not registered"));
        // None of that broke the service.
        assert!(svc.respond_line("REGISTER 9 0>1;-").starts_with("OK"));
    }

    #[test]
    fn update_round_trip_changes_results_in_place() {
        let svc = service(2, "baseline");
        // User 1 initially prefers 1 over 2 on both attributes; object (2,2)
        // then (1,1): the second object dominates the first for user 1.
        assert!(svc.respond_line("INGEST 2,2").starts_with("OK INGESTED 1"));
        // Invert the preference in place: 2 is now preferred to 1.
        let r = svc.respond_line("UPDATE 1 2>1;2>1");
        assert!(r.starts_with("OK UPDATED 1 shard="), "{r}");
        // The frontier was repaired by replay under the new preference.
        assert!(svc
            .respond_line("FRONTIER 1")
            .starts_with("OK FRONTIER 1 0"));
        // Later arrivals are judged under the new preference: (1,1) is now
        // dominated by (2,2) for user 1.
        let ingest = svc.respond_line("INGEST 1,1");
        assert!(ingest.starts_with("OK INGESTED 1"), "{ingest}");
        let q = svc.respond_line("QUERY 1");
        let targets = q.strip_prefix("OK QUERY 1 ").unwrap();
        assert!(
            !targets.split(',').any(|u| u == "1"),
            "user 1 should not be notified: {q}"
        );
        // User count is unchanged; the STATS line reports the update.
        assert!(svc.respond_line("HEALTH").contains("users=3"));
        let stats = svc.respond_line("STATS");
        assert!(stats.contains("updates=1"), "{stats}");
    }

    #[test]
    fn update_validates_like_register() {
        let svc = service(1, "baseline");
        // Unknown user, wrong arity, non-canonical rows: all ERR, never fatal.
        assert!(svc
            .respond_line("UPDATE 99 0>1;-")
            .starts_with("ERR user 99 is not registered"));
        assert!(svc
            .respond_line("UPDATE 0 0>1")
            .starts_with("ERR preference has 1 attribute rows"));
        assert!(svc
            .respond_line("UPDATE 0 1>1;-")
            .starts_with("ERR non-canonical preference row"));
        assert!(svc
            .respond_line("UPDATE 0 0>1,1>0;-")
            .starts_with("ERR non-canonical preference row"));
        // The service still works and the user is untouched.
        assert!(svc
            .respond_line("UPDATE 0 0>1;-")
            .starts_with("OK UPDATED 0"));
        assert!(svc.respond_line("FRONTIER 0").starts_with("OK FRONTIER 0"));
    }

    #[test]
    fn export_round_trips_through_register() {
        let svc = service(2, "baseline");
        let r = svc.respond_line("REGISTER 9 0>1,1>2;2>0");
        assert!(r.starts_with("OK REGISTERED 9"), "{r}");
        let e = svc.respond_line("EXPORT 9");
        // The relation stores the closure: 0>1,1>2 implies 0>2.
        assert_eq!(e, "OK EXPORTED 9 0>1,0>2,1>2;2>0");
        // Replaying the exported rows on a fresh service reproduces the
        // user exactly (same export).
        let other = service(2, "baseline");
        let rows = e.strip_prefix("OK EXPORTED 9 ").unwrap();
        assert!(other
            .respond_line(&format!("REGISTER 9 {rows}"))
            .starts_with("OK REGISTERED 9"));
        assert_eq!(other.respond_line("EXPORT 9"), e);
        // Empty rows render as `-` and unknown users answer ERR.
        assert!(svc.respond_line("REGISTER 11 -;-").starts_with("OK"));
        assert_eq!(svc.respond_line("EXPORT 11"), "OK EXPORTED 11 -;-");
        assert!(svc
            .respond_line("EXPORT 99")
            .starts_with("ERR user 99 is not registered"));
    }

    #[test]
    fn sequenced_ingest_is_fenced_to_the_applied_position() {
        let svc = service(1, "baseline");
        // The node starts at position 0; a matching fence applies.
        let r = svc.respond_line("SEQ 0 INGEST 0,1;1,2");
        assert!(r.starts_with("OK INGESTED 2 0:"), "{r}");
        // Replaying the same batch (stale fence) is refused, as is a fence
        // from the future; the applied position is untouched by either.
        assert!(svc
            .respond_line("SEQ 0 INGEST 0,1;1,2")
            .starts_with("ERR seq mismatch: node is at 2"));
        assert!(svc
            .respond_line("SEQ 5 INGEST 0,1")
            .starts_with("ERR seq mismatch: node is at 2"));
        // The next in-order batch lands at the announced position.
        assert!(svc
            .respond_line("SEQ 2 INGEST 2,0")
            .starts_with("OK INGESTED 1 2:"));
        // SEQ wraps only INGEST.
        assert!(svc
            .respond_line("SEQ 3 STATS")
            .starts_with("ERR SEQ wraps only INGEST"));
    }

    #[test]
    fn hello_node_reports_the_applied_position() {
        let svc = service(2, "baseline");
        let h = svc.respond_line("HELLO node");
        assert!(h.starts_with("OK HELLO pm-node proto=text"), "{h}");
        assert!(h.ends_with("next_id=0"), "{h}");
        svc.respond_line("INGEST 0,1;1,2");
        let h = svc.respond_line("HELLO node");
        assert!(h.ends_with("next_id=2"), "{h}");
        // The plain client handshake is unchanged.
        assert!(svc
            .respond_line("HELLO")
            .starts_with("OK HELLO pm-server proto=text"));
    }

    #[test]
    fn expire_reports_window_expirations() {
        let svc = service(2, "baseline-sw:4");
        for i in 0..10 {
            svc.respond_line(&format!("INGEST {},{}", i % 3, i % 2));
        }
        assert_eq!(svc.respond_line("EXPIRE"), "OK EXPIRED 6");
        let append_only = service(2, "baseline");
        assert!(append_only.respond_line("EXPIRE").contains("append-only"));
    }

    #[test]
    fn tcp_round_trip_over_localhost() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().unwrap();
        let svc = Arc::new(service(2, "baseline"));
        let server_svc = Arc::clone(&svc);
        std::thread::spawn(move || serve(listener, server_svc));

        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut ask = |req: &str| -> String {
            writer.write_all(req.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_owned()
        };
        assert!(ask("HEALTH").starts_with("OK HEALTH pm-server"));
        assert!(ask("INGEST 0,1").starts_with("OK INGESTED 1"));
        assert!(ask("STATS").contains("ingested=1"));
        assert_eq!(ask("QUIT"), "OK BYE");
    }
}
