//! The engine's metric bundle: every counter, gauge and histogram the
//! serving layers record into, registered once against a
//! [`pm_obs::Registry`] and exposed through the `METRICS` wire verb in
//! Prometheus text format 0.0.4.
//!
//! Metric names are part of the wire contract (dashboards key on them), so
//! they are pinned by a golden test and documented in the README's
//! observability table. Durations are recorded in nanoseconds (the native
//! resolution of [`pm_obs::LogHistogram`]) and rendered in seconds, as
//! Prometheus conventions require.

use std::sync::Arc;
use std::time::Duration;

use pm_core::MonitorTimers;
use pm_obs::{Counter, Gauge, LogHistogram, Registry};

use crate::metrics::EngineSnapshot;
use crate::protocol::Request;

/// The wire verbs that carry per-verb request metrics, in label order.
///
/// `QUIT` is excluded: it does no engine work and closes the connection, so
/// a latency series for it would only ever record channel teardown noise.
pub const VERBS: [Verb; 14] = [
    Verb::Expire,
    Verb::Frontier,
    Verb::Health,
    Verb::Hello,
    Verb::Ingest,
    Verb::Metrics,
    Verb::Query,
    Verb::Register,
    Verb::Snapshot,
    Verb::Stats,
    Verb::Subscribe,
    Verb::Unregister,
    Verb::Unsubscribe,
    Verb::Update,
];

/// A request verb, as used for the `verb` label of the per-request metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `EXPIRE`
    Expire,
    /// `FRONTIER`
    Frontier,
    /// `HEALTH`
    Health,
    /// `HELLO`
    Hello,
    /// `INGEST`
    Ingest,
    /// `METRICS`
    Metrics,
    /// `QUERY`
    Query,
    /// `REGISTER`
    Register,
    /// `SNAPSHOT`
    Snapshot,
    /// `STATS`
    Stats,
    /// `SUBSCRIBE`
    Subscribe,
    /// `UNREGISTER`
    Unregister,
    /// `UNSUBSCRIBE`
    Unsubscribe,
    /// `UPDATE`
    Update,
}

impl Verb {
    /// The `verb` label value (lowercase verb name).
    pub fn as_label(self) -> &'static str {
        match self {
            Verb::Expire => "expire",
            Verb::Frontier => "frontier",
            Verb::Health => "health",
            Verb::Hello => "hello",
            Verb::Ingest => "ingest",
            Verb::Metrics => "metrics",
            Verb::Query => "query",
            Verb::Register => "register",
            Verb::Snapshot => "snapshot",
            Verb::Stats => "stats",
            Verb::Subscribe => "subscribe",
            Verb::Unregister => "unregister",
            Verb::Unsubscribe => "unsubscribe",
            Verb::Update => "update",
        }
    }

    /// The verb of a parsed request; `None` for `QUIT` (see [`VERBS`]) and
    /// for the internal cluster verbs (`EXPORT` is coordinator-only
    /// plumbing, and a `SEQ`-wrapped request records as its inner verb),
    /// which are not part of the per-verb metric contract.
    pub fn of(request: &Request) -> Option<Verb> {
        match request {
            Request::Ingest(_) => Some(Verb::Ingest),
            Request::Expire => Some(Verb::Expire),
            Request::Query(_) => Some(Verb::Query),
            Request::Frontier(_) => Some(Verb::Frontier),
            Request::Register { .. } => Some(Verb::Register),
            Request::Update { .. } => Some(Verb::Update),
            Request::Unregister(_) => Some(Verb::Unregister),
            Request::Subscribe(_) => Some(Verb::Subscribe),
            Request::Unsubscribe(_) => Some(Verb::Unsubscribe),
            Request::Hello(_) => Some(Verb::Hello),
            Request::Snapshot => Some(Verb::Snapshot),
            Request::Stats => Some(Verb::Stats),
            Request::Metrics => Some(Verb::Metrics),
            Request::Health => Some(Verb::Health),
            Request::Quit => None,
            Request::Export(_) => None,
            Request::Sequenced { inner, .. } => Verb::of(inner),
        }
    }

    fn index(self) -> usize {
        VERBS
            .iter()
            .position(|&v| v == self)
            .expect("every verb is listed in VERBS")
    }
}

/// Every metric the engine and serving layer record into, created once per
/// engine (when [`crate::EngineConfig::metrics`] is on) and shared behind an
/// [`Arc`] by the shard workers, the batch fan-in path and the TCP service.
///
/// Recording is lock-free throughout (relaxed atomics); the only lock is
/// taken by [`EngineMetrics::render`], which also refreshes the gauges and
/// mirrored counters from an [`EngineSnapshot`] so a scrape always reports
/// a consistent point-in-time view.
pub struct EngineMetrics {
    registry: Registry,
    // Per-verb request metrics, indexed by `Verb::index`.
    requests: Vec<Arc<Counter>>,
    request_latency: Vec<Arc<LogHistogram>>,
    request_errors: Arc<Counter>,
    // Per-stage ingest split.
    pub(crate) stage_parse: Arc<LogHistogram>,
    pub(crate) stage_lock_hold: Arc<LogHistogram>,
    pub(crate) stage_queue_wait: Arc<LogHistogram>,
    pub(crate) stage_shard_apply: Arc<LogHistogram>,
    pub(crate) stage_fan_in: Arc<LogHistogram>,
    /// Submit-to-fan-in latency of whole ingest batches; the source of the
    /// p50/p95/p99 that STATS reports.
    pub(crate) ingest_batch: Arc<LogHistogram>,
    // Monitor-level timers, shared by every shard's monitor.
    monitor_arrival: Arc<LogHistogram>,
    monitor_backfill: Arc<LogHistogram>,
    monitor_sweep: Arc<LogHistogram>,
    pub(crate) slow_ops: Arc<Counter>,
    pub(crate) connections: Arc<Counter>,
    // Reactor-maintained gauges; the single-threaded reactor owns the true
    // counts and mirrors them here on every change.
    pub(crate) connections_open: Arc<Gauge>,
    pub(crate) subscribers: Arc<Gauge>,
    pub(crate) subscriber_outbox: Arc<Gauge>,
    // Gauges and mirrored lifetime counters, refreshed at scrape time from
    // an `EngineSnapshot`.
    users: Arc<Gauge>,
    uptime: Arc<Gauge>,
    recent_rate: Arc<Gauge>,
    queue_depth: Vec<Arc<Gauge>>,
    shard_users: Vec<Arc<Gauge>>,
    ingested: Arc<Counter>,
    registrations: Arc<Counter>,
    unregistrations: Arc<Counter>,
    updates: Arc<Counter>,
    comparisons: Arc<Counter>,
    notifications: Arc<Counter>,
    expirations: Arc<Counter>,
    history_objects: Arc<Gauge>,
    distinct_preferences: Arc<Gauge>,
    preference_bytes: Arc<Gauge>,
    // Durability: mirrored WAL counters (refreshed at scrape time from
    // `pm_wal::WalStats`) and snapshot bookkeeping (pushed by the service
    // after each snapshot). All stay 0 without `--wal-dir`.
    wal_records: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_fsyncs: Arc<Counter>,
    wal_next_lsn: Arc<Gauge>,
    wal_snapshots: Arc<Counter>,
    wal_last_snapshot_lsn: Arc<Gauge>,
}

impl EngineMetrics {
    /// Registers the full metric set for an engine with `shards` shards
    /// running `backend`, each spreading its per-user work over `workers`
    /// threads. The label sets are fixed here: per-verb series cover
    /// [`VERBS`], per-shard series cover `0..shards`.
    pub fn new(backend: &str, shards: usize, workers: usize) -> Self {
        let registry = Registry::new();
        registry
            .gauge(
                "pm_build_info",
                "Engine identity; the value is always 1.",
                &[
                    ("backend", backend),
                    ("shards", &shards.to_string()),
                    ("workers", &workers.to_string()),
                ],
            )
            .set(1.0);

        let mut requests = Vec::with_capacity(VERBS.len());
        let mut request_latency = Vec::with_capacity(VERBS.len());
        for verb in VERBS {
            let labels = [("verb", verb.as_label())];
            requests.push(registry.counter(
                "pm_requests_total",
                "Requests handled, by verb (QUIT excluded).",
                &labels,
            ));
            request_latency.push(registry.histogram(
                "pm_request_duration_seconds",
                "Request handling latency, by verb.",
                &labels,
            ));
        }
        let stage = |name: &str| {
            registry.histogram(
                "pm_ingest_stage_duration_seconds",
                "Per-stage split of the ingest path.",
                &[("stage", name)],
            )
        };

        let mut queue_depth = Vec::with_capacity(shards);
        let mut shard_users = Vec::with_capacity(shards);
        for shard in 0..shards {
            let shard_label = shard.to_string();
            let labels = [("shard", shard_label.as_str())];
            queue_depth.push(registry.gauge(
                "pm_shard_queue_depth",
                "Batches enqueued but not yet processed, by shard.",
                &labels,
            ));
            shard_users.push(registry.gauge(
                "pm_shard_users",
                "Registered users owned, by shard.",
                &labels,
            ));
        }

        Self {
            requests,
            request_latency,
            request_errors: registry.counter(
                "pm_request_errors_total",
                "Requests answered with ERR, including unparseable lines.",
                &[],
            ),
            stage_parse: stage("parse"),
            stage_lock_hold: stage("lock_hold"),
            stage_queue_wait: stage("queue_wait"),
            stage_shard_apply: stage("shard_apply"),
            stage_fan_in: stage("fan_in"),
            ingest_batch: registry.histogram(
                "pm_ingest_batch_duration_seconds",
                "Submit-to-fan-in latency of whole ingest batches.",
                &[],
            ),
            monitor_arrival: registry.histogram(
                "pm_monitor_arrival_duration_seconds",
                "Per-arrival monitor processing time (batch apply time / batch length), across shards.",
                &[],
            ),
            monitor_backfill: registry.histogram(
                "pm_monitor_backfill_duration_seconds",
                "REGISTER/UPDATE backfill-replay duration, across shards.",
                &[],
            ),
            monitor_sweep: registry.histogram(
                "pm_history_sweep_duration_seconds",
                "History-compaction sweep duration, across shards.",
                &[],
            ),
            slow_ops: registry.counter(
                "pm_slow_ops_total",
                "Ingest batches slower than the slow-op threshold.",
                &[],
            ),
            connections: registry.counter("pm_connections_total", "TCP connections accepted.", &[]),
            connections_open: registry.gauge(
                "pm_connections_open",
                "TCP connections currently open.",
                &[],
            ),
            subscribers: registry.gauge(
                "pm_subscribers",
                "Active frontier subscriptions across all connections.",
                &[],
            ),
            subscriber_outbox: registry.gauge(
                "pm_subscriber_outbox_depth",
                "Bytes buffered for subscribers, summed across connections.",
                &[],
            ),
            users: registry.gauge("pm_users", "Registered users.", &[]),
            uptime: registry.gauge("pm_uptime_seconds", "Time since the engine was built.", &[]),
            recent_rate: registry.gauge(
                "pm_ingest_recent_arrivals_per_sec",
                "Arrivals per second over the last 10 seconds.",
                &[],
            ),
            queue_depth,
            shard_users,
            ingested: registry.counter(
                "pm_objects_ingested_total",
                "Objects ingested (each object once, not once per shard).",
                &[],
            ),
            registrations: registry.counter(
                "pm_registrations_total",
                "Applied REGISTER commands.",
                &[],
            ),
            unregistrations: registry.counter(
                "pm_unregistrations_total",
                "Applied UNREGISTER commands.",
                &[],
            ),
            updates: registry.counter("pm_updates_total", "Applied in-place UPDATE commands.", &[]),
            comparisons: registry.counter(
                "pm_comparisons_total",
                "Pairwise dominance comparisons, summed across shards.",
                &[],
            ),
            notifications: registry.counter(
                "pm_notifications_total",
                "(object, user) notifications, summed across shards.",
                &[],
            ),
            expirations: registry.counter(
                "pm_expirations_total",
                "Sliding-window expirations (per-shard maximum).",
                &[],
            ),
            history_objects: registry.gauge(
                "pm_history_objects",
                "Retained backfill-history objects (per-shard maximum).",
                &[],
            ),
            distinct_preferences: registry.gauge(
                "pm_distinct_preferences",
                "Distinct preferences across the registered users.",
                &[],
            ),
            preference_bytes: registry.gauge(
                "pm_preference_bytes",
                "Heap bytes of the distinct preferences (counted once each).",
                &[],
            ),
            wal_records: registry.counter(
                "pm_wal_records_total",
                "WAL records appended since the log was opened.",
                &[],
            ),
            wal_bytes: registry.counter(
                "pm_wal_bytes_total",
                "WAL bytes appended since open (payload plus framing).",
                &[],
            ),
            wal_fsyncs: registry.counter(
                "pm_wal_fsyncs_total",
                "WAL fsync calls issued since open.",
                &[],
            ),
            wal_next_lsn: registry.gauge(
                "pm_wal_next_lsn",
                "The next WAL LSN to be assigned.",
                &[],
            ),
            wal_snapshots: registry.counter(
                "pm_wal_snapshots_total",
                "Durable snapshots written since startup.",
                &[],
            ),
            wal_last_snapshot_lsn: registry.gauge(
                "pm_wal_last_snapshot_lsn",
                "The WAL LSN covered by the most recent snapshot.",
                &[],
            ),
            registry,
        }
    }

    /// Mirrors the WAL's own counters into the exposition; called at
    /// scrape time by [`crate::ShardedEngine::render_metrics`] when a WAL
    /// is attached.
    pub fn record_wal(&self, stats: pm_wal::WalStats) {
        self.wal_records.store(stats.records);
        self.wal_bytes.store(stats.bytes);
        self.wal_fsyncs.store(stats.fsyncs);
        self.wal_next_lsn.set(stats.next_lsn as f64);
    }

    /// Records snapshot bookkeeping; pushed by the serving layer after
    /// every successful snapshot.
    pub fn record_snapshot(&self, snapshots: u64, last_lsn: u64) {
        self.wal_snapshots.store(snapshots);
        self.wal_last_snapshot_lsn.set(last_lsn as f64);
    }

    /// The monitor-level timer bundle handed to every shard's monitor via
    /// [`pm_core::Monitor::set_timers`]. All shards share the
    /// same histograms — recording is lock-free, so no per-shard split or
    /// merge step is needed.
    pub fn timers(&self) -> MonitorTimers {
        MonitorTimers {
            arrival: Some(Arc::clone(&self.monitor_arrival)),
            backfill: Some(Arc::clone(&self.monitor_backfill)),
            sweep: Some(Arc::clone(&self.monitor_sweep)),
        }
    }

    /// Records one handled request: bumps the verb's counter and its
    /// latency histogram.
    pub fn record_request(&self, verb: Verb, duration: Duration) {
        self.requests[verb.index()].inc();
        self.request_latency[verb.index()].record_duration(duration);
    }

    /// Records one `ERR` response (including unparseable request lines).
    pub fn record_error(&self) {
        self.request_errors.inc();
    }

    /// Refreshes the gauges and mirrored counters from `snapshot` and
    /// renders the whole registry in Prometheus text format 0.0.4.
    pub fn render(&self, snapshot: &EngineSnapshot) -> String {
        self.users.set(snapshot.users as f64);
        self.uptime.set(snapshot.uptime.as_secs_f64());
        self.recent_rate.set(snapshot.recent_arrivals_per_sec);
        for (shard, depth) in snapshot.queue_depths().into_iter().enumerate() {
            if let Some(gauge) = self.queue_depth.get(shard) {
                gauge.set(depth as f64);
            }
        }
        for (shard, users) in snapshot.users_per_shard().into_iter().enumerate() {
            if let Some(gauge) = self.shard_users.get(shard) {
                gauge.set(users as f64);
            }
        }
        self.ingested.store(snapshot.ingested);
        self.registrations.store(snapshot.registrations);
        self.unregistrations.store(snapshot.unregistrations);
        self.updates.store(snapshot.updates);
        self.comparisons.store(snapshot.total_comparisons());
        self.notifications.store(snapshot.total_notifications());
        self.expirations.store(snapshot.expirations());
        let history = snapshot
            .history_objects_per_shard()
            .into_iter()
            .max()
            .unwrap_or(0);
        self.history_objects.set(history as f64);
        self.distinct_preferences
            .set(snapshot.distinct_preferences as f64);
        self.preference_bytes.set(snapshot.preference_bytes as f64);
        self.registry.render()
    }
}

impl std::fmt::Debug for EngineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineMetrics").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_are_labeled_and_indexed_consistently() {
        for (i, verb) in VERBS.into_iter().enumerate() {
            assert_eq!(verb.index(), i);
            assert!(!verb.as_label().is_empty());
        }
        // Labels are unique and sorted (the registry renders label-sorted
        // series; a sorted VERBS list keeps registration order deterministic).
        let labels: Vec<&str> = VERBS.iter().map(|v| v.as_label()).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(labels, sorted);
    }

    #[test]
    fn exposition_covers_the_documented_families() {
        let metrics = EngineMetrics::new("baseline", 2, 3);
        metrics.record_request(Verb::Ingest, Duration::from_micros(120));
        metrics.record_error();
        let snapshot = EngineSnapshot {
            shards: Vec::new(),
            users: 3,
            ingested: 9,
            registrations: 1,
            unregistrations: 0,
            updates: 2,
            distinct_preferences: 2,
            preference_bytes: 640,
            uptime: Duration::from_secs(5),
            recent_arrivals_per_sec: 1.5,
            ingest_p50_us: 0.0,
            ingest_p95_us: 0.0,
            ingest_p99_us: 0.0,
        };
        let text = metrics.render(&snapshot);
        for family in [
            "pm_build_info",
            "pm_requests_total",
            "pm_request_errors_total",
            "pm_request_duration_seconds",
            "pm_ingest_stage_duration_seconds",
            "pm_ingest_batch_duration_seconds",
            "pm_monitor_arrival_duration_seconds",
            "pm_monitor_backfill_duration_seconds",
            "pm_history_sweep_duration_seconds",
            "pm_shard_queue_depth",
            "pm_shard_users",
            "pm_users",
            "pm_uptime_seconds",
            "pm_ingest_recent_arrivals_per_sec",
            "pm_objects_ingested_total",
            "pm_registrations_total",
            "pm_unregistrations_total",
            "pm_updates_total",
            "pm_comparisons_total",
            "pm_notifications_total",
            "pm_expirations_total",
            "pm_history_objects",
            "pm_distinct_preferences",
            "pm_preference_bytes",
            "pm_slow_ops_total",
            "pm_connections_total",
            "pm_connections_open",
            "pm_subscribers",
            "pm_subscriber_outbox_depth",
            "pm_wal_records_total",
            "pm_wal_bytes_total",
            "pm_wal_fsyncs_total",
            "pm_wal_next_lsn",
            "pm_wal_snapshots_total",
            "pm_wal_last_snapshot_lsn",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "missing family {family}:\n{text}"
            );
        }
        assert!(
            text.contains("pm_requests_total{verb=\"ingest\"} 1"),
            "{text}"
        );
        assert!(text.contains("pm_objects_ingested_total 9"), "{text}");
        assert!(text.contains("pm_distinct_preferences 2"), "{text}");
        assert!(text.contains("pm_preference_bytes 640"), "{text}");
        assert!(
            text.contains("pm_ingest_recent_arrivals_per_sec 1.5"),
            "{text}"
        );
        assert!(
            text.contains("pm_build_info{backend=\"baseline\",shards=\"2\",workers=\"3\"} 1"),
            "{text}"
        );
    }
}
