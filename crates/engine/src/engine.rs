//! The sharded engine: user partitioning, worker lifecycle, batch
//! ingestion with backpressure, and fan-in of per-shard results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use std::vec;

use pm_core::{Arrival, MonitorState, MonitorStats};
use pm_model::{Object, ObjectId, UserId};
use pm_obs::WindowedRate;
use pm_porder::{Interned, Preference, PreferenceInterner};
use pm_wal::{encode_ingest_batch, encode_register, encode_unregister, encode_update, Wal};

use crate::backend::BackendSpec;
use crate::metrics::{EngineSnapshot, ShardSnapshot};
use crate::obs::EngineMetrics;
use crate::shard::{ShardBatchReply, ShardCmd, ShardWorker};

/// Sizing knobs of a [`ShardedEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of shard worker threads (`N ≥ 1`).
    pub shards: usize,
    /// Capacity of each shard's inbox, in batches. Ingestion blocks once a
    /// shard is this many batches behind (backpressure).
    pub queue_capacity: usize,
    /// Whether the engine carries an [`EngineMetrics`] bundle: per-verb
    /// and per-stage latency histograms, per-shard gauges and the
    /// Prometheus `METRICS` exposition. Recording is lock-free atomics, so
    /// the default is on; switch it off to measure (or avoid) even that
    /// overhead — `METRICS` then answers `ERR` and STATS reports zero
    /// latency percentiles.
    pub metrics: bool,
}

impl EngineConfig {
    /// A config with `shards` workers, the default queue capacity and
    /// metrics on.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            queue_capacity: 16,
            metrics: true,
        }
    }

    /// Overrides the per-shard inbox capacity (in batches).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Switches the metrics bundle on or off (see [`EngineConfig::metrics`]).
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::new(shards)
    }
}

/// The shard that owns `user` when the population is split `shards` ways.
///
/// Delegates to [`pm_model::Partitioner`] — the same mapping a cluster
/// coordinator uses to assign users to nodes, so shard-level and
/// node-level ownership cannot drift. The hash spreads structured id
/// spaces — e.g. tenants allocated in contiguous ranges — evenly across
/// shards while staying fully deterministic: the same user lands on the
/// same shard for every engine with the same shard count.
pub fn shard_of(user: UserId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    pm_model::Partitioner::new(shards).owner_of(user)
}

/// Locks a mutex, recovering from poisoning. A panicking thread (e.g. a
/// connection thread that died mid-call) must not wedge every future
/// request with `PoisonError`s: the critical sections guarded here only
/// enqueue commands or copy membership data, so the state behind the lock
/// is consistent even if a holder panicked.
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The engine-global interned view of the registered population: one
/// [`PreferenceInterner`] slot per distinct preference plus the slot id
/// each user holds. Kept at the engine level (not rolled up from the
/// shards) because a preference shared by users on different shards must
/// count once, not once per shard.
#[derive(Debug, Default)]
struct InternedPopulation {
    interner: PreferenceInterner,
    ids: HashMap<UserId, u32>,
}

impl InternedPopulation {
    /// Acquires a slot for `preference` without binding it to a user yet;
    /// pair with [`Self::commit`] on success or [`Self::abort`] on failure.
    /// The owning shard adopts the returned handle, so the preference is
    /// fingerprinted, compared and stored once per engine.
    fn acquire(&mut self, preference: &Preference) -> Interned {
        self.interner.intern(preference)
    }

    /// Binds an acquired slot to `user`, releasing any slot the user held
    /// before (in-place update).
    fn commit(&mut self, user: UserId, slot: u32) {
        if let Some(old) = self.ids.insert(user, slot) {
            self.interner.release(old);
        }
    }

    /// Releases an acquired slot that never got bound (the shard worker
    /// rejected or died mid-command).
    fn abort(&mut self, slot: u32) {
        self.interner.release(slot);
    }

    /// Drops `user`'s binding and releases its slot (unregistration).
    fn remove(&mut self, user: UserId) {
        if let Some(slot) = self.ids.remove(&user) {
            self.interner.release(slot);
        }
    }
}

/// A concurrent monitoring engine that partitions users across shard
/// threads.
///
/// Every arriving object is broadcast to all shards; each shard updates the
/// frontiers of its own users and replies with the target users it owns; the
/// engine merges the disjoint per-shard sets into one [`Arrival`] identical
/// to what the backing single-threaded monitor would have produced.
///
/// That exactness guarantee is unconditional for the backends whose
/// per-user results do not depend on how users are grouped: `Baseline`,
/// `BaselineSw` and append-only `FilterThenVerify` (Lemma 4.6 makes the
/// cluster filter exact regardless of the clustering). The approximate and
/// sliding-window FilterThenVerify backends cluster each shard's users
/// independently, so their paper-sanctioned approximation error varies
/// with the shard count — results then match a single-threaded monitor
/// built over the same per-shard clusterings, not one global clustering.
///
/// All methods take `&self`: the engine can be shared behind an [`Arc`] by
/// any number of client threads. Commands are enqueued to every shard in one
/// consistent global order (a short critical section around the send), so
/// concurrent ingestion from several threads interleaves at batch
/// granularity and every shard observes the same object order.
///
/// The population is **dynamic**: [`ShardedEngine::register`] adds a user
/// mid-stream (routed to its owning shard, frontier backfilled from the
/// alive objects) and [`ShardedEngine::unregister`] drops one. Because
/// registrations are enqueued under the same ordering lock as batches, a
/// user registered before a batch sees exactly that batch onward — no
/// arrival is dropped or duplicated around a membership change.
pub struct ShardedEngine {
    /// Locked while *enqueueing* so all shards see commands in one order;
    /// replies are awaited without holding the lock, which lets the next
    /// batch be enqueued while shards still chew on the previous one.
    senders: Mutex<Vec<SyncSender<ShardCmd>>>,
    handles: Vec<JoinHandle<()>>,
    queue_depths: Vec<Arc<AtomicUsize>>,
    /// Engine-side view of which global users each shard owns. Mutated only
    /// while holding `senders` (after it, in lock order), so it never
    /// disagrees with the command stream the workers observe.
    membership: Mutex<Membership>,
    num_users: AtomicUsize,
    ingested: AtomicU64,
    /// Lifetime counts of applied membership commands, for observability:
    /// STATS exposes them so churn (and in-place updates in particular) is
    /// visible without diffing user lists.
    registrations: AtomicU64,
    unregistrations: AtomicU64,
    updates: AtomicU64,
    /// Engine-global preference interning for the `distinct_preferences=` /
    /// `bytes_per_user=` gauges. Locked after `membership` (and always
    /// innermost) when touched inside the ordering critical sections.
    population: Mutex<InternedPopulation>,
    /// Whether registered/updated preferences are broadcast to every shard
    /// to keep the history-compaction universe engine-global. `false` for
    /// backends whose monitors ignore `observe_preference` (everything but
    /// the compacting-history ones), which skips per-churn preference
    /// clones and channel sends that would be no-ops.
    broadcast_observes: bool,
    started: Instant,
    /// Arrivals over the last ~10 seconds, for the windowed recent rate in
    /// STATS and METRICS. Always maintained (one relaxed atomic add per
    /// awaited batch), independent of the `metrics` switch.
    recent: WindowedRate,
    /// The metric bundle, present when built with
    /// [`EngineConfig::metrics`] on.
    metrics: Option<Arc<EngineMetrics>>,
    /// The attached write-ahead log, if durability is on. Appends happen
    /// inside the `senders` critical sections (after validation, before the
    /// enqueue), so WAL order is exactly the order every shard applies
    /// mutations in. `None` until [`ShardedEngine::set_wal`] — recovery
    /// replay runs *before* attachment so replayed mutations are not
    /// re-appended — and reset to `None` if an append ever fails (log and
    /// degrade: a full disk must not take the serving path down).
    wal: Mutex<Option<Arc<Wal>>>,
}

impl ShardedEngine {
    /// Builds an engine whose shards run the backend described by `spec`.
    ///
    /// `preferences[i]` is the preference of global user `i`, exactly as for
    /// the single-threaded monitors.
    pub fn new(preferences: Vec<Preference>, config: &EngineConfig, spec: &BackendSpec) -> Self {
        assert!(config.shards > 0, "engine needs at least one shard");
        // The host's cores split evenly over the shards: the threads each
        // shard's monitor may spread a batch's per-user work over.
        let workers = std::thread::available_parallelism()
            .map_or(1, |cores| cores.get() / config.shards)
            .max(1);
        let metrics = config.metrics.then(|| {
            Arc::new(EngineMetrics::new(
                &spec.to_string(),
                config.shards,
                workers,
            ))
        });
        let num_users = preferences.len();
        let mut population = InternedPopulation::default();
        for (idx, preference) in preferences.iter().enumerate() {
            let slot = population.acquire(preference).id;
            population.commit(UserId::from(idx), slot);
        }
        // Only compacting backends read the full preference list (to seed
        // every shard's universe); skip the deep clone otherwise.
        let broadcast_observes = spec.compacts_history();
        let all_preferences = broadcast_observes.then(|| preferences.clone());
        let mut shard_users: Vec<Vec<UserId>> = vec![Vec::new(); config.shards];
        let mut shard_prefs: Vec<Vec<Preference>> = vec![Vec::new(); config.shards];
        for (idx, pref) in preferences.into_iter().enumerate() {
            let user = UserId::from(idx);
            let shard = shard_of(user, config.shards);
            shard_users[shard].push(user);
            shard_prefs[shard].push(pref);
        }

        let mut senders = Vec::with_capacity(config.shards);
        let mut handles = Vec::with_capacity(config.shards);
        let mut queue_depths = Vec::with_capacity(config.shards);
        for (shard, prefs) in shard_prefs.into_iter().enumerate() {
            let mut monitor = spec.build(&prefs);
            // The history-compaction universe is engine-global: every shard
            // observes every user's preference (its own included, which is
            // idempotent), so a preference living on another shard today
            // can register here tomorrow and still be backfilled exactly.
            if let Some(all_preferences) = &all_preferences {
                for preference in all_preferences {
                    monitor.observe_preference(preference);
                }
            }
            // Every shard's monitor records into the same engine-wide timer
            // histograms (recording is lock-free, so sharing beats merging).
            if let Some(metrics) = &metrics {
                monitor.set_timers(metrics.timers());
            }
            let depth = Arc::new(AtomicUsize::new(0));
            let (tx, rx) = mpsc::sync_channel(config.queue_capacity.max(1));
            let worker = ShardWorker {
                shard,
                monitor,
                workers,
                global_users: shard_users[shard].clone(),
                queue_depth: Arc::clone(&depth),
                queue_wait: metrics.as_ref().map(|m| Arc::clone(&m.stage_queue_wait)),
                apply: metrics.as_ref().map(|m| Arc::clone(&m.stage_shard_apply)),
            };
            let handle = std::thread::Builder::new()
                .name(format!("pm-shard-{shard}"))
                .spawn(move || worker.run(rx))
                .expect("failed to spawn shard worker");
            senders.push(tx);
            handles.push(handle);
            queue_depths.push(depth);
        }

        Self {
            senders: Mutex::new(senders),
            handles,
            queue_depths,
            membership: Mutex::new(Membership::new(shard_users)),
            num_users: AtomicUsize::new(num_users),
            ingested: AtomicU64::new(0),
            registrations: AtomicU64::new(0),
            unregistrations: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            population: Mutex::new(population),
            broadcast_observes,
            started: Instant::now(),
            recent: WindowedRate::new(),
            metrics,
            wal: Mutex::new(None),
        }
    }

    /// Attaches a write-ahead log: every later mutation (ingest batches and
    /// user churn) is appended before it is enqueued to the shards, under
    /// the same ordering lock, so the log replays in exactly the engine's
    /// apply order. Call this *after* any recovery replay — mutations
    /// applied before attachment are not logged.
    pub fn set_wal(&self, wal: Arc<Wal>) {
        *lock_recovering(&self.wal) = Some(wal);
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<Arc<Wal>> {
        lock_recovering(&self.wal).clone()
    }

    /// Appends one encoded mutation payload to the attached WAL, if any.
    /// Must be called while holding the `senders` ordering lock. An append
    /// failure detaches the log (serving continues undurable) instead of
    /// panicking the request path.
    fn log_mutation(&self, encode: impl FnOnce() -> Vec<u8>) {
        let mut wal = lock_recovering(&self.wal);
        if let Some(attached) = wal.as_ref() {
            if let Err(e) = attached.append_payload(&encode()) {
                pm_obs::error!(
                    "pm_engine::engine",
                    "WAL append failed, durability disabled",
                    error = e
                );
                *wal = None;
            }
        }
    }

    /// The engine's metric bundle, when built with
    /// [`EngineConfig::metrics`] on. The serving layer records its per-verb
    /// request metrics into the same bundle so one `METRICS` scrape covers
    /// both layers.
    pub fn metrics(&self) -> Option<&Arc<EngineMetrics>> {
        self.metrics.as_ref()
    }

    /// Renders the Prometheus text-format exposition, refreshing the
    /// gauges from a fresh [`Self::snapshot`] first. `None` when the
    /// engine was built without metrics.
    pub fn render_metrics(&self) -> Option<String> {
        let metrics = self.metrics.as_ref()?;
        if let Some(wal) = self.wal() {
            metrics.record_wal(wal.stats());
        }
        Some(metrics.render(&self.snapshot()))
    }

    /// Builds an engine with no initial users; populate it with
    /// [`Self::register`]. The population is not a build-time constraint:
    /// an empty engine serves batches (with empty target sets) and grows as
    /// users register.
    pub fn empty(config: &EngineConfig, spec: &BackendSpec) -> Self {
        Self::new(Vec::new(), config, spec)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.queue_depths.len()
    }

    /// Number of currently registered users across all shards.
    pub fn num_users(&self) -> usize {
        self.num_users.load(Ordering::Acquire)
    }

    /// The global user ids currently owned by `shard` (in registration
    /// order, except that unregistration swap-removes).
    pub fn shard_users(&self, shard: usize) -> Vec<UserId> {
        lock_recovering(&self.membership).shards[shard].clone()
    }

    /// Whether `user` is currently registered.
    pub fn is_registered(&self, user: UserId) -> bool {
        lock_recovering(&self.membership).contains(user)
    }

    /// Sends `preference` to every shard except `owner` as a
    /// [`ShardCmd::Observe`], widening the engine-global history-compaction
    /// universe. No-op for backends whose monitors ignore observes. Must be
    /// called while holding the `senders` ordering lock so the observe is
    /// FIFO-ordered before any later command on each shard.
    fn broadcast_observe(
        &self,
        senders: &[SyncSender<ShardCmd>],
        owner: usize,
        preference: &Arc<Preference>,
    ) {
        if !self.broadcast_observes {
            return;
        }
        for (shard, sender) in senders.iter().enumerate() {
            if shard != owner {
                let _ = sender.send(ShardCmd::Observe {
                    preference: Arc::clone(preference),
                });
            }
        }
    }

    /// Registers `user` with `preference`, routing it to its owning shard.
    ///
    /// The shard compiles the preference, inserts the user into the
    /// best-fitting cluster (FilterThenVerify backends) or its own slot,
    /// and backfills the user's frontier from the alive objects; the call
    /// returns once the registration is fully applied. Batches enqueued
    /// before this call never notify the user; batches enqueued after it
    /// always consider the user.
    ///
    /// Errors if `user` is already registered, or if the owning shard's
    /// worker has terminated (the membership map is then left unchanged) —
    /// membership commands never panic the calling thread.
    pub fn register(&self, user: UserId, preference: Preference) -> Result<(), String> {
        let shard = shard_of(user, self.num_shards());
        let (reply_tx, reply_rx) = mpsc::channel();
        let slot;
        {
            let senders = lock_recovering(&self.senders);
            let mut membership = lock_recovering(&self.membership);
            if membership.contains(user) {
                return Err(format!("user {} is already registered", user.raw()));
            }
            self.log_mutation(|| encode_register(user, &preference));
            let handle = lock_recovering(&self.population).acquire(&preference);
            slot = handle.id;
            // Non-owning shards only widen their compaction universe
            // (fire-and-forget; FIFO per shard keeps it ordered before any
            // later registration that might land there). Skipped entirely
            // when the monitors ignore observes.
            self.broadcast_observe(&senders, shard, &handle.preference);
            if senders[shard]
                .send(ShardCmd::AddUser {
                    user,
                    preference: handle,
                    reply: reply_tx,
                })
                .is_err()
            {
                lock_recovering(&self.population).abort(slot);
                return Err(format!("shard {shard} worker terminated"));
            }
            membership.push(shard, user);
            self.num_users.fetch_add(1, Ordering::AcqRel);
        }
        if reply_rx.recv().is_err() {
            // The worker died mid-registration: roll the engine-side view
            // back so `is_registered` does not report a user no shard holds
            // (a concurrent unregister may have raced us; tolerate that).
            if lock_recovering(&self.membership).remove(shard, user) {
                self.num_users.fetch_sub(1, Ordering::AcqRel);
            }
            lock_recovering(&self.population).abort(slot);
            return Err(format!("shard {shard} worker dropped its reply"));
        }
        lock_recovering(&self.population).commit(user, slot);
        self.registrations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Unregisters `user`, dropping its frontier and repairing its cluster
    /// on the owning shard. Returns once the removal is fully applied.
    ///
    /// Errors if `user` is not registered or the owning shard's worker has
    /// terminated.
    pub fn unregister(&self, user: UserId) -> Result<(), String> {
        let shard = shard_of(user, self.num_shards());
        let (reply_tx, reply_rx) = mpsc::channel();
        {
            let senders = lock_recovering(&self.senders);
            let mut membership = lock_recovering(&self.membership);
            if !membership.contains(user) {
                return Err(format!("user {} is not registered", user.raw()));
            }
            self.log_mutation(|| encode_unregister(user));
            senders[shard]
                .send(ShardCmd::RemoveUser {
                    user,
                    reply: reply_tx,
                })
                .map_err(|_| format!("shard {shard} worker terminated"))?;
            membership.remove(shard, user);
            self.num_users.fetch_sub(1, Ordering::AcqRel);
        }
        let Ok(removed) = reply_rx.recv() else {
            // The worker died mid-removal: restore the engine-side view so
            // the maps do not claim the user is gone while a (dead) shard
            // still held it (tolerate a racing re-register of the same id).
            let mut membership = lock_recovering(&self.membership);
            if !membership.contains(user) {
                membership.push(shard, user);
                self.num_users.fetch_add(1, Ordering::AcqRel);
            }
            return Err(format!("shard {shard} worker dropped its reply"));
        };
        debug_assert!(removed, "shard membership diverged from engine view");
        lock_recovering(&self.population).remove(user);
        self.unregistrations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Replaces the preference of registered `user` **in place**, routing
    /// the change to the owning shard under the same ordering lock as
    /// batches: arrivals enqueued before this call are judged under the old
    /// preference, arrivals after it under the new one.
    ///
    /// Unlike `unregister` + `register`, the user keeps its global *and*
    /// shard-local ids (no swap-remove renumbering of any user), pays one
    /// cluster repair instead of two — the shard's clustering diffs the old
    /// and new relations and re-AND-folds in place when the user's cluster
    /// still fits — and one frontier replay.
    ///
    /// Errors if `user` is not registered or the owning shard's worker has
    /// terminated.
    pub fn update(&self, user: UserId, preference: Preference) -> Result<(), String> {
        let shard = shard_of(user, self.num_shards());
        let (reply_tx, reply_rx) = mpsc::channel();
        let slot;
        {
            let senders = lock_recovering(&self.senders);
            if !lock_recovering(&self.membership).contains(user) {
                return Err(format!("user {} is not registered", user.raw()));
            }
            self.log_mutation(|| encode_update(user, &preference));
            let handle = lock_recovering(&self.population).acquire(&preference);
            slot = handle.id;
            // Every other shard's compaction universe learns the new
            // preference too (see `register`).
            self.broadcast_observe(&senders, shard, &handle.preference);
            if senders[shard]
                .send(ShardCmd::UpdateUser {
                    user,
                    preference: handle,
                    reply: reply_tx,
                })
                .is_err()
            {
                lock_recovering(&self.population).abort(slot);
                return Err(format!("shard {shard} worker terminated"));
            }
        }
        let updated = match reply_rx.recv() {
            Ok(updated) => updated,
            Err(_) => {
                lock_recovering(&self.population).abort(slot);
                return Err(format!("shard {shard} worker dropped its reply"));
            }
        };
        if !updated {
            // Only reachable if a past membership command failed half-way
            // (worker died between engine-side bookkeeping and the shard
            // applying it): surface the divergence instead of counting a
            // no-op as a successful update.
            lock_recovering(&self.population).abort(slot);
            return Err(format!(
                "user {} is not present on shard {shard}",
                user.raw()
            ));
        }
        lock_recovering(&self.population).commit(user, slot);
        self.updates.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Enqueues one batch on every shard and returns a [`BatchTicket`] to
    /// await the fanned-in results.
    ///
    /// The enqueue is the ordering point: batches submitted later (by this
    /// or any other thread) are processed after this one on every shard.
    /// If a shard's inbox is full, this call blocks until it drains
    /// (backpressure). Splitting submission from [`BatchTicket::wait`]
    /// lets a caller release its own locks — or prepare the next batch —
    /// while the shards chew on this one.
    pub fn submit_batch(&self, objects: Vec<Object>) -> BatchTicket<'_> {
        let batch = Arc::new(objects);
        let (reply_tx, reply_rx) = mpsc::channel();
        let submitted = Instant::now();
        let mut lock_hold = Duration::ZERO;
        if !batch.is_empty() {
            let enqueued = Instant::now();
            {
                let senders = lock_recovering(&self.senders);
                self.log_mutation(|| encode_ingest_batch(&batch));
                for (shard, sender) in senders.iter().enumerate() {
                    self.queue_depths[shard].fetch_add(1, Ordering::AcqRel);
                    sender
                        .send(ShardCmd::Batch {
                            objects: Arc::clone(&batch),
                            enqueued,
                            reply: reply_tx.clone(),
                        })
                        .expect("shard worker terminated");
                }
            }
            // The hold time includes any backpressure blocking inside
            // `send` — that is precisely the time other submitters were
            // barred from the ordering lock.
            lock_hold = enqueued.elapsed();
            if let Some(metrics) = &self.metrics {
                metrics.stage_lock_hold.record_duration(lock_hold);
            }
        }
        BatchTicket {
            engine: self,
            batch,
            reply_rx,
            submitted,
            lock_hold,
        }
    }

    /// Processes one batch of objects and returns one [`Arrival`] per
    /// object — [`Self::submit_batch`] + [`BatchTicket::wait`] in one
    /// call. For the exact backends the arrivals are byte-identical to
    /// what the backing single-threaded monitor would produce for the
    /// same stream (see the type-level docs for the approximate backends).
    pub fn process_batch(&self, objects: Vec<Object>) -> Vec<Arrival> {
        self.submit_batch(objects).wait()
    }

    /// Processes a single object (a batch of one).
    pub fn process(&self, object: Object) -> Arrival {
        self.process_batch(vec![object])
            .pop()
            .expect("batch of one yields one arrival")
    }

    /// The current Pareto frontier of `user`, ascending — routed to the
    /// owning shard and consistent with every batch ingested before this
    /// call.
    pub fn frontier(&self, user: UserId) -> Vec<ObjectId> {
        let shard = shard_of(user, self.num_shards());
        let (reply_tx, reply_rx) = mpsc::channel();
        {
            let senders = lock_recovering(&self.senders);
            senders[shard]
                .send(ShardCmd::Frontier {
                    user,
                    reply: reply_tx,
                })
                .expect("shard worker terminated");
        }
        reply_rx.recv().expect("shard worker dropped its reply")
    }

    /// The frontiers of all registered users as `(user, frontier)` pairs,
    /// ascending by user id. With a dynamic population the id space may be
    /// sparse, so frontiers are keyed rather than positional.
    pub fn all_frontiers(&self) -> Vec<(UserId, Vec<ObjectId>)> {
        let mut users: Vec<UserId> = {
            let membership = lock_recovering(&self.membership);
            membership.shards.iter().flatten().copied().collect()
        };
        users.sort_unstable();
        users
            .into_iter()
            .map(|user| (user, self.frontier(user)))
            .collect()
    }

    /// Raw per-shard work counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<MonitorStats> {
        // One reply channel per shard keeps the result indexed by shard no
        // matter which worker answers first.
        let mut receivers = Vec::with_capacity(self.num_shards());
        {
            let senders = lock_recovering(&self.senders);
            for sender in senders.iter() {
                let (reply_tx, reply_rx) = mpsc::channel();
                sender
                    .send(ShardCmd::Stats { reply: reply_tx })
                    .expect("shard worker terminated");
                receivers.push(reply_rx);
            }
        }
        receivers
            .into_iter()
            .map(|rx| rx.recv().expect("shard worker dropped its reply"))
            .collect()
    }

    /// Engine-level work counters.
    ///
    /// `arrivals` counts objects ingested by the engine (each object once,
    /// not once per shard) and `expirations` window expiries (identical on
    /// every shard, so the maximum is reported); `comparisons` and
    /// `notifications` are summed across shards. The backfill-history
    /// gauges report the per-shard maximum — the engine's worst-case
    /// per-shard memory. For engines built from a [`BackendSpec`] the
    /// per-shard values are in fact identical (objects *and* observed
    /// preferences are broadcast to every shard, so universes, sweep
    /// points and retained sets coincide); the maximum stays a safe
    /// roll-up for custom factories building heterogeneous monitors. See
    /// [`EngineSnapshot`] for the per-shard breakdown.
    pub fn stats(&self) -> MonitorStats {
        let per_shard = self.shard_stats();
        let mut stats = MonitorStats::new();
        stats.arrivals = self.ingested.load(Ordering::Relaxed);
        stats.expirations = per_shard.iter().map(|s| s.expirations).max().unwrap_or(0);
        stats.comparisons = per_shard.iter().map(|s| s.comparisons).sum();
        stats.notifications = per_shard.iter().map(|s| s.notifications).sum();
        stats.history_objects = per_shard
            .iter()
            .map(|s| s.history_objects)
            .max()
            .unwrap_or(0);
        stats.history_evicted = per_shard
            .iter()
            .map(|s| s.history_evicted)
            .max()
            .unwrap_or(0);
        stats.history_bytes = per_shard.iter().map(|s| s.history_bytes).max().unwrap_or(0);
        let (distinct, bytes) = self.preference_footprint();
        stats.distinct_preferences = distinct;
        stats.preference_bytes = bytes;
        stats
    }

    /// The preference a registered user currently holds, shared from the
    /// engine-level interner; `None` for unknown users. Backs the internal
    /// `EXPORT` verb a cluster coordinator uses to migrate users between
    /// nodes.
    pub fn preference_of(&self, user: UserId) -> Option<std::sync::Arc<Preference>> {
        let population = lock_recovering(&self.population);
        let slot = *population.ids.get(&user)?;
        population.interner.get(slot).cloned()
    }

    /// `(distinct preferences, estimated preference bytes)` across the
    /// registered population — exact, from the engine-level interner (a
    /// per-shard roll-up would overcount preferences shared across shards).
    pub fn preference_footprint(&self) -> (u64, u64) {
        let population = lock_recovering(&self.population);
        (
            population.interner.distinct() as u64,
            population.interner.approx_bytes() as u64,
        )
    }

    /// A point-in-time snapshot of engine metrics: per-shard stats, queue
    /// depths, user counts, throughput.
    pub fn snapshot(&self) -> EngineSnapshot {
        let per_shard = self.shard_stats();
        let users_per_shard: Vec<usize> = {
            let membership = lock_recovering(&self.membership);
            membership.shards.iter().map(Vec::len).collect()
        };
        let shards = per_shard
            .into_iter()
            .enumerate()
            .map(|(shard, stats)| ShardSnapshot {
                shard,
                users: users_per_shard[shard],
                queue_depth: self.queue_depths[shard].load(Ordering::Acquire),
                stats,
            })
            .collect();
        let uptime = self.started.elapsed();
        let ingested = self.ingested.load(Ordering::Relaxed);
        let to_us = |ns: u64| ns as f64 / 1_000.0;
        let (p50, p95, p99) = match &self.metrics {
            Some(metrics) => {
                let hist = metrics.ingest_batch.snapshot();
                (
                    to_us(hist.quantile(0.50)),
                    to_us(hist.quantile(0.95)),
                    to_us(hist.quantile(0.99)),
                )
            }
            None => (0.0, 0.0, 0.0),
        };
        let (distinct_preferences, preference_bytes) = self.preference_footprint();
        EngineSnapshot {
            shards,
            users: users_per_shard.iter().sum(),
            ingested,
            registrations: self.registrations.load(Ordering::Relaxed),
            unregistrations: self.unregistrations.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            distinct_preferences,
            preference_bytes,
            uptime,
            recent_arrivals_per_sec: self.recent.rate(),
            ingest_p50_us: p50,
            ingest_p95_us: p95,
            ingest_p99_us: p99,
        }
    }

    /// Captures the engine's durable state at one consistent cut of the
    /// command stream: the `Export` command is enqueued to every shard
    /// while holding the ordering lock, so the exported histories reflect
    /// exactly the mutations logged before `last_lsn` and none after.
    pub fn export_durable(&self) -> DurableEngineState {
        let mut receivers = Vec::with_capacity(self.num_shards());
        let last_lsn = {
            let senders = lock_recovering(&self.senders);
            let lsn = lock_recovering(&self.wal)
                .as_ref()
                .map(|wal| wal.next_lsn())
                .unwrap_or(0);
            for sender in senders.iter() {
                let (reply_tx, reply_rx) = mpsc::channel();
                sender
                    .send(ShardCmd::Export { reply: reply_tx })
                    .expect("shard worker terminated");
                receivers.push(reply_rx);
            }
            lsn
        };
        let mut members = Vec::with_capacity(receivers.len());
        let mut monitors = Vec::with_capacity(receivers.len());
        for rx in receivers {
            let export = rx.recv().expect("shard worker dropped its reply");
            members.push(export.users.into_iter().zip(export.preferences).collect());
            monitors.push(export.state);
        }
        DurableEngineState {
            last_lsn,
            members,
            monitors,
            ingested: self.ingested.load(Ordering::Relaxed),
            registrations: self.registrations.load(Ordering::Relaxed),
            unregistrations: self.unregistrations.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
        }
    }

    /// Installs per-shard monitor state (histories or windows, verbatim)
    /// into a freshly built **empty** engine, one [`MonitorState`] per
    /// shard. Members must be re-registered afterwards (in shard-local
    /// order) so their frontiers backfill from the installed state; see
    /// [`ShardedEngine::restore_shard_stats`] for the counters.
    pub fn import_shard_states(&self, states: Vec<MonitorState>) {
        assert_eq!(states.len(), self.num_shards(), "one state per shard");
        assert_eq!(self.num_users(), 0, "import requires an empty engine");
        let mut receivers = Vec::with_capacity(states.len());
        {
            let senders = lock_recovering(&self.senders);
            for (sender, state) in senders.iter().zip(states) {
                let (reply_tx, reply_rx) = mpsc::channel();
                sender
                    .send(ShardCmd::Import {
                        state,
                        reply: reply_tx,
                    })
                    .expect("shard worker terminated");
                receivers.push(reply_rx);
            }
        }
        for rx in receivers {
            rx.recv().expect("shard worker dropped its reply");
        }
    }

    /// Overwrites every shard's stream work counters with snapshot-time
    /// values. Call *after* recovery re-registration: backfill replay
    /// records comparisons that the snapshot already accounts for.
    pub fn restore_shard_stats(&self, stats: Vec<MonitorStats>) {
        assert_eq!(stats.len(), self.num_shards(), "one stats set per shard");
        let mut receivers = Vec::with_capacity(stats.len());
        {
            let senders = lock_recovering(&self.senders);
            for (sender, stats) in senders.iter().zip(stats) {
                let (reply_tx, reply_rx) = mpsc::channel();
                sender
                    .send(ShardCmd::RestoreStats {
                        stats,
                        reply: reply_tx,
                    })
                    .expect("shard worker terminated");
                receivers.push(reply_rx);
            }
        }
        for rx in receivers {
            rx.recv().expect("shard worker dropped its reply");
        }
    }

    /// Overwrites the engine's lifetime counters with snapshot-time values
    /// (recovery re-registration incremented `registrations` once per
    /// restored member; this puts the true lifetime counts back). The
    /// engine-level ingest counter also feeds `STATS` arrivals.
    pub fn restore_counters(
        &self,
        ingested: u64,
        registrations: u64,
        unregistrations: u64,
        updates: u64,
    ) {
        self.ingested.store(ingested, Ordering::Relaxed);
        self.registrations.store(registrations, Ordering::Relaxed);
        self.unregistrations
            .store(unregistrations, Ordering::Relaxed);
        self.updates.store(updates, Ordering::Relaxed);
    }
}

/// The engine's share of a snapshot, as captured by
/// [`ShardedEngine::export_durable`]: everything except the serving
/// layer's ingest bookkeeping (which the service adds before encoding an
/// [`pm_wal::EngineState`]).
#[derive(Debug)]
pub struct DurableEngineState {
    /// WAL records `< last_lsn` are reflected in this export; replay
    /// resumes here. Zero when no WAL is attached.
    pub last_lsn: u64,
    /// Per-shard members as `(global id, preference)` in shard-local
    /// registration order (swap-remove churned) — re-registering in this
    /// order reproduces every shard's local ids.
    pub members: Vec<Vec<(UserId, Preference)>>,
    /// Per-shard monitor state (history or window, plus work counters).
    pub monitors: Vec<MonitorState>,
    /// Lifetime objects ingested.
    pub ingested: u64,
    /// Lifetime successful registrations.
    pub registrations: u64,
    /// Lifetime successful unregistrations.
    pub unregistrations: u64,
    /// Lifetime successful in-place updates.
    pub updates: u64,
}

/// Which global users each shard owns, in shard-local order — registration
/// order, swap-removed on unregistration, exactly as each shard's own local
/// → global map — with every user's position there, so that looking a user
/// up or removing it takes O(1) instead of a scan of its shard.
struct Membership {
    shards: Vec<Vec<UserId>>,
    /// Each registered user's index in its shard's list.
    position: HashMap<UserId, usize>,
}

impl Membership {
    fn new(shards: Vec<Vec<UserId>>) -> Self {
        let position = (shards.iter())
            .flat_map(|users| users.iter().enumerate().map(|(at, &user)| (user, at)))
            .collect();
        Self { shards, position }
    }

    fn contains(&self, user: UserId) -> bool {
        self.position.contains_key(&user)
    }

    /// Appends `user` to `shard`'s list.
    fn push(&mut self, shard: usize, user: UserId) {
        let users = &mut self.shards[shard];
        debug_assert!(!self.position.contains_key(&user), "user {user} is listed");
        self.position.insert(user, users.len());
        users.push(user);
    }

    /// Swap-removes `user` from `shard`'s list, as the shard renumbers its
    /// local ids. Returns whether the user was listed.
    fn remove(&mut self, shard: usize, user: UserId) -> bool {
        let Some(at) = self.position.remove(&user) else {
            return false;
        };
        let users = &mut self.shards[shard];
        users.swap_remove(at);
        if let Some(&moved) = users.get(at) {
            self.position.insert(moved, at);
        }
        true
    }
}

/// A batch that has been enqueued on every shard but whose results have
/// not been collected yet. Obtained from [`ShardedEngine::submit_batch`];
/// consumed by [`BatchTicket::wait`].
#[must_use = "a submitted batch's results must be awaited"]
pub struct BatchTicket<'a> {
    engine: &'a ShardedEngine,
    batch: Arc<Vec<Object>>,
    reply_rx: mpsc::Receiver<ShardBatchReply>,
    submitted: Instant,
    lock_hold: Duration,
}

/// Stage timings of one awaited ingest batch, as returned by
/// [`BatchTicket::wait_timed`]. The serving layer uses them for the
/// slow-op log; the per-stage histograms are recorded engine-side
/// regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestTiming {
    /// Time the ordering lock was held while enqueueing (includes any
    /// backpressure blocking).
    pub lock_hold: Duration,
    /// Time spent collecting and merging the per-shard replies.
    pub fan_in: Duration,
    /// Submit-to-merged-arrivals latency of the whole batch.
    pub total: Duration,
}

impl BatchTicket<'_> {
    /// Blocks until every shard has processed the batch and fans the
    /// disjoint per-shard target-user sets into one [`Arrival`] per object.
    pub fn wait(self) -> Vec<Arrival> {
        self.wait_timed().0
    }

    /// Like [`BatchTicket::wait`], but also reports the batch's stage
    /// timings.
    pub fn wait_timed(self) -> (Vec<Arrival>, IngestTiming) {
        let timing = IngestTiming {
            lock_hold: self.lock_hold,
            fan_in: Duration::ZERO,
            total: Duration::ZERO,
        };
        if self.batch.is_empty() {
            return (Vec::new(), timing);
        }
        let fan_in_start = Instant::now();
        let shards = self.engine.num_shards();
        // Per-object target-user and frontier-delta columns, one per shard,
        // each in canonical order (see `ShardBatchReply`).
        let mut targets: Vec<_> = (0..shards).map(|_| Vec::new().into_iter()).collect();
        let mut deltas: Vec<_> = (0..shards).map(|_| Vec::new().into_iter()).collect();
        for _ in 0..shards {
            let reply = self
                .reply_rx
                .recv()
                .expect("shard worker dropped its reply");
            targets[reply.shard] = reply.targets.into_iter();
            deltas[reply.shard] = reply.deltas.into_iter();
        }
        let arrivals = (self.batch.iter())
            .map(|object| Arrival {
                object: object.id(),
                target_users: merge_next(&mut targets),
                deltas: merge_next(&mut deltas),
            })
            .collect();
        self.engine
            .ingested
            .fetch_add(self.batch.len() as u64, Ordering::Relaxed);
        self.engine.recent.record(self.batch.len() as u64);
        let timing = IngestTiming {
            lock_hold: self.lock_hold,
            fan_in: fan_in_start.elapsed(),
            total: self.submitted.elapsed(),
        };
        if let Some(metrics) = &self.engine.metrics {
            metrics.stage_fan_in.record_duration(timing.fan_in);
            metrics.ingest_batch.record_duration(timing.total);
        }
        (arrivals, timing)
    }
}

/// Takes the next run of every shard's column, each ascending and pairwise
/// disjoint, and merges them into one ascending list in one linear pass; a
/// lone non-empty run moves through without a copy.
fn merge_next<T: Ord + Copy>(columns: &mut [vec::IntoIter<Vec<T>>]) -> Vec<T> {
    let runs = columns
        .iter_mut()
        .map(|column| column.next().expect("a shard replies for every object"));
    let mut runs: Vec<Vec<T>> = runs.filter(|run| !run.is_empty()).collect();
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut heads = vec![0; runs.len()];
    while let Some(run) = (0..runs.len())
        .filter(|&run| heads[run] < runs[run].len())
        .min_by_key(|&run| runs[run][heads[run]])
    {
        merged.push(runs[run][heads[run]]);
        heads[run] += 1;
    }
    merged
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        if let Ok(senders) = self.senders.lock() {
            for sender in senders.iter() {
                let _ = sender.send(ShardCmd::Shutdown);
            }
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_core::{Lifetime, Monitor};
    use pm_model::ValueId;

    fn obj(id: u64, vals: &[u32]) -> Object {
        Object::new(
            ObjectId::new(id),
            vals.iter().map(|&x| ValueId::new(x)).collect(),
        )
    }

    /// A small deterministic preference population over 3 attributes.
    fn population(n: usize) -> Vec<Preference> {
        (0..n)
            .map(|u| {
                let mut p = Preference::new(3);
                let u = u as u32;
                for attr in 0..3u32 {
                    let better = (u + attr) % 5;
                    let worse = (u + attr + 1) % 5;
                    if better != worse {
                        p.prefer(
                            pm_model::AttrId::new(attr),
                            ValueId::new(better),
                            ValueId::new(worse),
                        );
                    }
                }
                p
            })
            .collect()
    }

    fn stream(n: u64) -> Vec<Object> {
        (0..n)
            .map(|i| {
                obj(
                    i,
                    &[(i % 5) as u32, ((i / 5) % 5) as u32, ((i / 7) % 5) as u32],
                )
            })
            .collect()
    }

    #[test]
    fn shard_of_is_deterministic_and_total() {
        for shards in 1..=8 {
            for user in 0..100u32 {
                let s = shard_of(UserId::new(user), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(UserId::new(user), shards));
            }
        }
    }

    #[test]
    fn shard_of_spreads_sequential_users() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for user in 0..800u32 {
            counts[shard_of(UserId::new(user), shards)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min < 60, "partition too skewed: {counts:?}");
    }

    #[test]
    fn engine_matches_single_threaded_baseline_at_every_shard_count() {
        let prefs = population(17);
        let objects = stream(120);
        let mut oracle = Monitor::new(&prefs, Lifetime::UNLIMITED, None);
        let expected: Vec<Arrival> = objects.iter().cloned().map(|o| oracle.process(o)).collect();
        for shards in 1..=8 {
            let engine = ShardedEngine::new(
                prefs.clone(),
                &EngineConfig::new(shards),
                &BackendSpec::baseline(),
            );
            let got = engine.process_batch(objects.clone());
            assert_eq!(got, expected, "shards={shards}");
            for u in 0..prefs.len() {
                assert_eq!(
                    engine.frontier(UserId::from(u)),
                    oracle.frontier(UserId::from(u)),
                    "shards={shards} user={u}"
                );
            }
        }
    }

    #[test]
    fn batched_and_unbatched_ingestion_agree() {
        let prefs = population(9);
        let objects = stream(60);
        let engine_batched = ShardedEngine::new(
            prefs.clone(),
            &EngineConfig::new(3).with_queue_capacity(2),
            &BackendSpec::baseline(),
        );
        let engine_single =
            ShardedEngine::new(prefs, &EngineConfig::new(3), &BackendSpec::baseline());
        let mut batched = Vec::new();
        for chunk in objects.chunks(7) {
            batched.extend(engine_batched.process_batch(chunk.to_vec()));
        }
        let singles: Vec<Arrival> = objects
            .into_iter()
            .map(|o| engine_single.process(o))
            .collect();
        assert_eq!(batched, singles);
    }

    #[test]
    fn overlapping_submitted_batches_keep_global_order() {
        let prefs = population(9);
        let engine = ShardedEngine::new(
            prefs.clone(),
            &EngineConfig::new(3),
            &BackendSpec::baseline(),
        );
        let objects = stream(40);
        // Both batches are in flight before either is awaited; the enqueue
        // order fixes the processing order.
        let first = engine.submit_batch(objects[..20].to_vec());
        let second = engine.submit_batch(objects[20..].to_vec());
        let mut got = first.wait();
        got.extend(second.wait());
        let mut oracle = Monitor::new(&prefs, Lifetime::UNLIMITED, None);
        let expected: Vec<Arrival> = objects.into_iter().map(|o| oracle.process(o)).collect();
        assert_eq!(got, expected);
        assert_eq!(engine.stats().arrivals, 40);
    }

    #[test]
    fn engine_stats_roll_up() {
        let prefs = population(10);
        let engine = ShardedEngine::new(prefs, &EngineConfig::new(4), &BackendSpec::baseline());
        let n = 50;
        engine.process_batch(stream(n));
        let stats = engine.stats();
        assert_eq!(stats.arrivals, n);
        assert!(stats.comparisons > 0);
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.users, 10);
        assert_eq!(snapshot.ingested, n);
        assert_eq!(snapshot.shards.len(), 4);
        let shard_arrivals: Vec<u64> = snapshot.shards.iter().map(|s| s.stats.arrivals).collect();
        // Every shard sees every object.
        assert!(shard_arrivals.iter().all(|&a| a == n));
        assert_eq!(snapshot.shards.iter().map(|s| s.users).sum::<usize>(), 10);
    }

    #[test]
    fn sliding_window_backend_expires_on_every_shard() {
        let prefs = population(8);
        let engine = ShardedEngine::new(
            prefs.clone(),
            &EngineConfig::new(4),
            &BackendSpec::BaselineSw { window: 10 },
        );
        engine.process_batch(stream(35));
        let stats = engine.stats();
        assert_eq!(stats.arrivals, 35);
        assert_eq!(stats.expirations, 25);
        let mut oracle = Monitor::new(&prefs, Lifetime::Window(10), None);
        for o in stream(35) {
            oracle.process(o);
        }
        for u in 0..prefs.len() {
            assert_eq!(
                engine.frontier(UserId::from(u)),
                oracle.frontier(UserId::from(u))
            );
        }
    }

    #[test]
    fn empty_population_and_empty_batches_are_fine() {
        let engine =
            ShardedEngine::new(Vec::new(), &EngineConfig::new(2), &BackendSpec::baseline());
        assert!(engine.process_batch(Vec::new()).is_empty());
        let arrival = engine.process(obj(0, &[1, 2, 3]));
        assert!(arrival.target_users.is_empty());
        assert_eq!(engine.num_users(), 0);
        assert_eq!(engine.num_shards(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedEngine::new(Vec::new(), &EngineConfig::new(0), &BackendSpec::baseline());
    }

    #[test]
    fn register_mid_stream_matches_fresh_engine() {
        let prefs = population(12);
        let late = population(14).pop().unwrap();
        let objects = stream(80);
        for shards in [1usize, 3] {
            let dynamic = ShardedEngine::new(
                prefs.clone(),
                &EngineConfig::new(shards),
                &BackendSpec::baseline(),
            );
            dynamic.process_batch(objects[..40].to_vec());
            // Register a sparse global id mid-stream.
            let user = UserId::new(500);
            dynamic.register(user, late.clone()).unwrap();
            assert!(dynamic.is_registered(user));
            assert_eq!(dynamic.num_users(), 13);
            let got = dynamic.process_batch(objects[40..].to_vec());
            // The fresh engine has the user from the start: frontiers and
            // the post-registration arrivals must coincide.
            let fresh = ShardedEngine::empty(&EngineConfig::new(shards), &BackendSpec::baseline());
            for (idx, pref) in prefs.iter().enumerate() {
                fresh.register(UserId::from(idx), pref.clone()).unwrap();
            }
            fresh.register(user, late.clone()).unwrap();
            fresh.process_batch(objects[..40].to_vec());
            let expected = fresh.process_batch(objects[40..].to_vec());
            assert_eq!(got, expected, "shards={shards}");
            assert_eq!(dynamic.frontier(user), fresh.frontier(user));
            for (idx, _) in prefs.iter().enumerate() {
                assert_eq!(
                    dynamic.frontier(UserId::from(idx)),
                    fresh.frontier(UserId::from(idx)),
                    "shards={shards} user={idx}"
                );
            }
        }
    }

    #[test]
    fn unregister_removes_the_user_observably() {
        let prefs = population(10);
        let engine = ShardedEngine::new(
            prefs.clone(),
            &EngineConfig::new(4),
            &BackendSpec::baseline(),
        );
        engine.process_batch(stream(30));
        let victim = UserId::new(3);
        assert!(engine.is_registered(victim));
        engine.unregister(victim).unwrap();
        assert!(!engine.is_registered(victim));
        assert_eq!(engine.num_users(), 9);
        assert!(engine.frontier(victim).is_empty());
        // The per-shard user counts in the snapshot reflect the removal.
        let snapshot = engine.snapshot();
        assert_eq!(snapshot.users, 9);
        assert_eq!(snapshot.shards.iter().map(|s| s.users).sum::<usize>(), 9);
        assert!(snapshot.to_string().contains("shard_users="));
        // Arrivals no longer mention the unregistered user.
        for arrival in engine.process_batch(stream(30)) {
            assert!(!arrival.target_users.contains(&victim));
        }
        // Errors: double unregister and duplicate register.
        assert!(engine.unregister(victim).is_err());
        assert!(engine.register(UserId::new(0), prefs[0].clone()).is_err());
        // Re-registering a previously removed id is allowed.
        engine.register(victim, prefs[3].clone()).unwrap();
        assert!(engine.is_registered(victim));
        assert_eq!(engine.num_users(), 10);
    }

    #[test]
    fn update_in_place_matches_fresh_engine_and_keeps_ids() {
        let prefs = population(12);
        let new_pref = population(14).pop().unwrap();
        let objects = stream(80);
        for shards in [1usize, 3] {
            let engine = ShardedEngine::new(
                prefs.clone(),
                &EngineConfig::new(shards),
                &BackendSpec::baseline(),
            );
            engine.process_batch(objects[..40].to_vec());
            // Capture the exact per-shard membership before the update.
            let before: Vec<Vec<UserId>> = (0..shards).map(|s| engine.shard_users(s)).collect();
            let victim = UserId::new(5);
            engine.update(victim, new_pref.clone()).unwrap();
            // In-place: nobody was renumbered, no count moved.
            let after: Vec<Vec<UserId>> = (0..shards).map(|s| engine.shard_users(s)).collect();
            assert_eq!(before, after, "shards={shards}: membership changed");
            assert_eq!(engine.num_users(), 12);
            let got = engine.process_batch(objects[40..].to_vec());
            // A fresh engine with the final preferences agrees on arrivals
            // and frontiers.
            let mut final_prefs = prefs.clone();
            final_prefs[5] = new_pref.clone();
            let fresh = ShardedEngine::new(
                final_prefs,
                &EngineConfig::new(shards),
                &BackendSpec::baseline(),
            );
            fresh.process_batch(objects[..40].to_vec());
            let expected = fresh.process_batch(objects[40..].to_vec());
            assert_eq!(got, expected, "shards={shards}");
            for u in 0..12usize {
                assert_eq!(
                    engine.frontier(UserId::from(u)),
                    fresh.frontier(UserId::from(u)),
                    "shards={shards} user={u}"
                );
            }
            // The update is counted in the snapshot.
            let snapshot = engine.snapshot();
            assert_eq!(snapshot.updates, 1);
            assert!(snapshot.to_string().contains("updates=1"));
        }
    }

    #[test]
    fn update_of_unknown_user_is_an_error() {
        let engine = ShardedEngine::new(
            population(4),
            &EngineConfig::new(2),
            &BackendSpec::baseline(),
        );
        let err = engine.update(UserId::new(99), Preference::new(3));
        assert!(err.is_err());
        assert!(err.unwrap_err().contains("not registered"));
        assert_eq!(engine.snapshot().updates, 0);
    }

    #[test]
    fn distinct_preferences_track_churn_exactly() {
        // 12 users drawn from only 3 distinct preferences, spread across
        // shards: the engine-level count must be 3, not a per-shard sum.
        let base = population(3);
        let prefs: Vec<Preference> = (0..12).map(|i| base[i % 3].clone()).collect();
        let engine = ShardedEngine::new(prefs, &EngineConfig::new(4), &BackendSpec::baseline());
        assert_eq!(engine.preference_footprint().0, 3);
        let snap = engine.snapshot();
        assert_eq!(snap.distinct_preferences, 3);
        assert!(snap.preference_bytes > 0);
        assert!(snap.bytes_per_user() > 0.0);
        assert!(
            snap.to_string().contains("distinct_preferences=3"),
            "{snap}"
        );
        // An update within the shared set keeps the count; a novel
        // preference raises it; dropping its last holder lowers it again.
        engine.update(UserId::new(0), base[1].clone()).unwrap();
        assert_eq!(engine.preference_footprint().0, 3);
        let novel = population(5).pop().unwrap();
        engine.update(UserId::new(1), novel).unwrap();
        assert_eq!(engine.preference_footprint().0, 4);
        engine.unregister(UserId::new(1)).unwrap();
        assert_eq!(engine.preference_footprint().0, 3);
        // A twin registering mid-stream shares its slot.
        engine.register(UserId::new(100), base[0].clone()).unwrap();
        assert_eq!(engine.preference_footprint().0, 3);
        assert_eq!(engine.stats().distinct_preferences, 3);
    }

    #[test]
    fn all_frontiers_reports_sparse_ids_in_order() {
        let engine = ShardedEngine::empty(&EngineConfig::new(2), &BackendSpec::baseline());
        let prefs = population(3);
        for (user, pref) in [(9u32, 0usize), (2, 1), (700, 2)] {
            engine
                .register(UserId::new(user), prefs[pref].clone())
                .unwrap();
        }
        engine.process_batch(stream(20));
        let frontiers = engine.all_frontiers();
        let ids: Vec<u32> = frontiers.iter().map(|(u, _)| u.raw()).collect();
        assert_eq!(ids, vec![2, 9, 700]);
    }

    /// Register/unregister/update churn with swap-removes: the indexed
    /// membership answers as a scan of each shard's list would, keeps the
    /// shard-local order the shards' own maps hold, and the shards' columns
    /// stay canonical while those maps are out of id order.
    #[test]
    fn membership_index_tracks_churn_with_swap_removes() {
        let prefs = population(16);
        let spec = BackendSpec::baseline();
        let engine = ShardedEngine::new(prefs.clone(), &EngineConfig::new(3), &spec);
        let mut model: Vec<Vec<UserId>> = (0..3).map(|shard| engine.shard_users(shard)).collect();
        let mut held: HashMap<UserId, Preference> = (prefs.iter().enumerate())
            .map(|(user, preference)| (UserId::from(user), preference.clone()))
            .collect();
        // A swap-remove that moves a user takes its shard's map out of id
        // order at once.
        let first = UserId::new(0);
        engine.unregister(first).unwrap();
        model[shard_of(first, 3)].swap_remove(0);
        held.remove(&first);
        let objects = stream(140);
        let mut ingested = 0;
        let mut seed = 0x5EED_u64;
        for step in 0..300 {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let user = UserId::new((seed >> 33) as u32 % 40);
            let preference = prefs[(seed >> 40) as usize % prefs.len()].clone();
            let shard = shard_of(user, 3);
            let at = model[shard].iter().position(|&listed| listed == user);
            match step % 3 {
                0 => {
                    let registered = engine.register(user, preference.clone());
                    assert_eq!(registered.is_ok(), at.is_none(), "step {step}");
                    if at.is_none() {
                        model[shard].push(user);
                        held.insert(user, preference);
                    }
                }
                1 => {
                    let unregistered = engine.unregister(user);
                    assert_eq!(unregistered.is_ok(), at.is_some(), "step {step}");
                    if let Some(at) = at {
                        model[shard].swap_remove(at);
                        held.remove(&user);
                    }
                }
                _ => {
                    let updated = engine.update(user, preference.clone());
                    assert_eq!(updated.is_ok(), at.is_some(), "step {step}");
                    if at.is_some() {
                        held.insert(user, preference);
                    }
                }
            }
            for (shard, users) in model.iter().enumerate() {
                assert_eq!(&engine.shard_users(shard), users, "step {step}");
            }
            for id in 0..40 {
                let listed = model.iter().flatten().any(|&u| u == UserId::new(id));
                assert_eq!(engine.is_registered(UserId::new(id)), listed, "step {step}");
            }
            if step % 50 == 0 {
                // The shards' own local → global maps list the same order.
                let exported = engine.export_durable().members;
                for (shard, members) in exported.iter().enumerate() {
                    let users: Vec<UserId> = members.iter().map(|(user, _)| *user).collect();
                    assert_eq!(users, model[shard], "step {step}");
                }
                // The next arrivals equal those of an engine whose maps are
                // in id order and which saw the same stream.
                let fresh = ShardedEngine::empty(&EngineConfig::new(3), &spec);
                let mut users: Vec<&UserId> = held.keys().collect();
                users.sort_unstable();
                for &user in users {
                    fresh.register(user, held[&user].clone()).unwrap();
                }
                fresh.process_batch(objects[..ingested].to_vec());
                let next = objects[ingested..ingested + 20].to_vec();
                ingested += 20;
                assert_eq!(
                    engine.process_batch(next.clone()),
                    fresh.process_batch(next),
                    "step {step}"
                );
            }
        }
    }
}
