//! Crash recovery: rebuilding an [`EngineService`] from a WAL directory.
//!
//! The durable state lives in two layers (see `pm-wal`): a point-in-time
//! snapshot of exactly the PR-5 minimal state — per-shard compact history
//! groups (or sliding windows) with their observed-preference universes,
//! the flattened memberships in registration order, the monotonic counters
//! and the server's ingest bookkeeping — plus the append-only log of every
//! mutation applied after the snapshot's LSN. [`recover_or_create`] folds
//! the two back together:
//!
//! 1. Load the newest snapshot that validates (corrupt ones are skipped
//!    newest-first). With no usable snapshot, recovery starts from the
//!    genesis preference set and replays the log from LSN 0.
//! 2. Rebuild the engine: install the per-shard monitor state verbatim
//!    into an empty engine, then re-register every member in shard-local
//!    registration order — backfill reconstructs each user's frontier from
//!    the installed history or window, and re-registering in order
//!    reproduces every shard-local user id. Work counters are restored
//!    *after* re-registration (backfill replay performs comparisons the
//!    snapshot already accounts for).
//! 3. Replay the WAL tail through the ordinary service paths. Ingest
//!    records carry the server-assigned object ids, so replay re-mints the
//!    identical arrival stream; registrations, updates and unregistrations
//!    go through the same validation-free engine entry points the live
//!    server uses.
//! 4. Open the WAL for appending — [`pm_wal::Wal::open`] truncates any
//!    torn tail first — attach it to the engine, and write a fresh
//!    snapshot so the directory is self-contained again (in particular:
//!    the *first* enable of durability snapshots the dataset-seeded users,
//!    which predate the log).
//!
//! Exactness across recovery matches the backends' own guarantees: every
//! backend restores exact frontiers and notifications (for the
//! filter-then-verify family the compact history is lossless for frontier
//! reconstruction, Lemma 4.6). The `comparisons` *work* counter recovers
//! exactly on the unfiltered backends — frontiers are scanned in storage
//! (arrival) order, so what an arrival costs is a function of the
//! frontiers' contents — but not on the filter-then-verify ones, which
//! re-cluster on re-registration and then filter differently. The
//! approximate sliding-window variants may also diverge, as clustering
//! there is incremental.
//!
//! # The object id is the replication sequence number
//!
//! Replay hinges on ingest records carrying server-assigned ids: ids are
//! dense and allocation-ordered, so a recovered engine's `next_id` *is*
//! its position in the arrival stream. `pm-coord` builds multi-node
//! replication on exactly this anchor — a replicated batch's sequence
//! number is its first object id, nodes fence `SEQ`-stamped batches
//! against their own `next_id` ([`EngineService::ingest_fenced`]), and a
//! rejoining node's WAL-recovered position tells the coordinator
//! precisely which backlog suffix to replay. One id space serves as WAL
//! LSN, QUERY handle and cluster replication sequence at once.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_core::MonitorStats;
use pm_porder::Preference;
use pm_wal::{load_latest_snapshot, scan, SyncPolicy, Wal};

use crate::backend::BackendSpec;
use crate::engine::{EngineConfig, ShardedEngine};
use crate::server::EngineService;

/// Durability settings, mirroring the server's `--wal-dir`, `--wal-sync`
/// and `--snapshot-every` flags.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments and snapshots.
    pub dir: PathBuf,
    /// When the log fsyncs (`--wal-sync`).
    pub sync: SyncPolicy,
    /// Snapshot after this many WAL records accumulate past the last
    /// snapshot; `0` disables periodic snapshots (the `SNAPSHOT` verb
    /// still works).
    pub snapshot_every: u64,
}

/// The attached durability runtime: the open WAL plus the snapshot
/// scheduling state. Owned by the [`EngineService`] once
/// `attach_durability` installs it.
pub(crate) struct Durability {
    /// The open log; also attached to the engine for mutation appends.
    pub(crate) wal: Arc<Wal>,
    /// The WAL directory, where snapshots are written too.
    pub(crate) dir: PathBuf,
    /// See [`DurabilityConfig::snapshot_every`].
    pub(crate) snapshot_every: u64,
    /// The LSN covered by the most recent snapshot.
    pub(crate) last_snapshot_lsn: AtomicU64,
    /// Snapshots written since startup (feeds `pm_wal_snapshots_total`).
    pub(crate) snapshots: AtomicU64,
}

/// What a recovery did, as reported by [`recover_or_create`] (and printed
/// by `pm-server` at startup). `None` from `recover_or_create` means the
/// directory was fresh — nothing to recover.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The LSN the restored snapshot covered (0 when none was usable).
    pub snapshot_lsn: u64,
    /// Whether a snapshot was restored (vs. a genesis rebuild + replay).
    pub from_snapshot: bool,
    /// Newer snapshot files that failed validation and were skipped.
    pub snapshots_skipped: usize,
    /// WAL records replayed after the snapshot point.
    pub replayed: u64,
    /// Torn-tail bytes truncated from the last segment.
    pub truncated_bytes: u64,
    /// Registered users after recovery.
    pub members: usize,
    /// Wall-clock recovery time.
    pub elapsed: Duration,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered {} users in {:.1} ms: {} lsn={} replayed={} truncated_bytes={} skipped_snapshots={}",
            self.members,
            self.elapsed.as_secs_f64() * 1_000.0,
            if self.from_snapshot {
                "snapshot"
            } else {
                "genesis"
            },
            self.snapshot_lsn,
            self.replayed,
            self.truncated_bytes,
            self.snapshots_skipped,
        )
    }
}

/// An `InvalidData` error for a snapshot that cannot be restored into the
/// engine being built (wrong backend, shard count or arity).
fn mismatch(
    what: &str,
    snapshot: impl std::fmt::Display,
    ours: impl std::fmt::Display,
) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("snapshot {what} mismatch: snapshot has {snapshot}, engine wants {ours}"),
    )
}

/// Builds the serving stack with durability: recovers from `durability.dir`
/// when it holds a snapshot or WAL records, otherwise builds fresh from
/// `genesis` (the dataset-seeded preferences — callers must pass the same
/// set on every start, since users that predate the first snapshot are not
/// in the log). Returns the service with the WAL attached and a report of
/// what recovery did (`None` when the directory was fresh).
///
/// The engine configuration must match the snapshot being restored:
/// recovery refuses (with `InvalidData`) to load a snapshot taken under a
/// different backend spec, shard count or arity, because users are
/// hash-partitioned by shard count and histories are encoded per backend.
pub fn recover_or_create(
    genesis: Vec<Preference>,
    engine_config: &EngineConfig,
    spec: &BackendSpec,
    arity: usize,
    history: usize,
    durability: &DurabilityConfig,
) -> io::Result<(EngineService, Option<RecoveryReport>)> {
    let start = Instant::now();
    std::fs::create_dir_all(&durability.dir)?;

    let (service, report) = match load_latest_snapshot(&durability.dir)? {
        Some(loaded) => {
            let state = loaded.state;
            if state.backend != spec.to_string() {
                return Err(mismatch("backend", &state.backend, spec));
            }
            if state.shards as usize != engine_config.shards {
                return Err(mismatch("shard count", state.shards, engine_config.shards));
            }
            if state.arity as usize != arity {
                return Err(mismatch("arity", state.arity, arity));
            }

            // Stats are restored after re-registration; capture them before
            // the monitors move into the engine.
            let shard_stats: Vec<MonitorStats> = state.monitors.iter().map(|m| m.stats).collect();

            let engine = ShardedEngine::empty(engine_config, spec);
            engine.import_shard_states(state.monitors);
            for shard_members in state.members {
                for (user, preference) in shard_members {
                    engine.register(user, preference).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("snapshot member {} failed to re-register: {e}", user.raw()),
                        )
                    })?;
                }
            }
            engine.restore_shard_stats(shard_stats);
            engine.restore_counters(
                state.ingested,
                state.registrations,
                state.unregistrations,
                state.updates,
            );

            let service = EngineService::new(engine, spec.clone(), arity, history);
            service.seed_ingest(state.next_id, state.query_order, state.query_targets);
            let report = RecoveryReport {
                snapshot_lsn: state.last_lsn,
                from_snapshot: true,
                snapshots_skipped: loaded.skipped,
                replayed: 0,
                truncated_bytes: 0,
                members: 0,
                elapsed: Duration::ZERO,
            };
            (service, Some(report))
        }
        None => {
            let engine = ShardedEngine::new(genesis, engine_config, spec);
            let service = EngineService::new(engine, spec.clone(), arity, history);
            (service, None)
        }
    };

    // Replay the log tail through the ordinary service paths. The WAL is
    // not attached yet, so replayed mutations are not re-appended.
    let from_lsn = report.as_ref().map_or(0, |r| r.snapshot_lsn);
    let outcome = scan(&durability.dir, from_lsn)?;
    let fresh = report.is_none() && outcome.records.is_empty() && outcome.torn.is_none();
    let mut replayed = 0u64;
    for (lsn, record) in outcome.records {
        match service.replay_record(record) {
            Ok(()) => replayed += 1,
            Err(e) => {
                pm_obs::warn!(
                    "pm_engine::durability",
                    "WAL replay skipped a record",
                    lsn = lsn,
                    error = e
                );
            }
        }
    }

    // Open for appending (truncating any torn tail), attach, and re-anchor
    // with a fresh snapshot so the directory is self-contained: the
    // snapshot now also covers genesis users and the replayed tail.
    let wal = Arc::new(Wal::open(&durability.dir, durability.sync)?);
    let truncated_bytes = wal.truncated_bytes();
    let last_snapshot_lsn = AtomicU64::new(from_lsn);
    service.attach_durability(Durability {
        wal,
        dir: durability.dir.clone(),
        snapshot_every: durability.snapshot_every,
        last_snapshot_lsn,
        snapshots: AtomicU64::new(0),
    });
    if let Err(e) = service.snapshot_now() {
        pm_obs::warn!(
            "pm_engine::durability",
            "post-recovery snapshot failed",
            error = e
        );
    }

    if fresh {
        return Ok((service, None));
    }
    let members = service.engine().num_users();
    let elapsed = start.elapsed();
    let report = match report {
        Some(r) => RecoveryReport {
            replayed,
            truncated_bytes,
            members,
            elapsed,
            ..r
        },
        None => RecoveryReport {
            snapshot_lsn: 0,
            from_snapshot: false,
            snapshots_skipped: 0,
            replayed,
            truncated_bytes,
            members,
            elapsed,
        },
    };
    Ok((service, Some(report)))
}
