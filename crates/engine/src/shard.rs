//! Shard worker threads.
//!
//! A shard owns one [`Monitor`] over a subset of the user
//! population and processes commands from its bounded inbox in order.
//! Because the monitor only knows its local, densely re-indexed users, the
//! worker translates between local indices and global [`UserId`]s at the
//! boundary. With dynamic membership (REGISTER/UNREGISTER) the local→global
//! map is append-plus-swap-remove maintained, so it is not always sorted; a
//! hash map resolves global ids on the query path. While the map is
//! ascending, mapping the monitor's canonical columns keeps them canonical;
//! only while it is not does the worker sort them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use pm_core::{FrontierDelta, Monitor, MonitorState, MonitorStats};
use pm_model::{Object, ObjectId, UserId};
use pm_obs::LogHistogram;
use pm_porder::{Interned, Preference};

/// Commands accepted by a shard worker.
pub(crate) enum ShardCmd {
    /// Process a batch of objects and reply with the per-object target
    /// users (global ids).
    Batch {
        /// The batch, shared by all shards.
        objects: Arc<Vec<Object>>,
        /// When the batch was enqueued, so the worker can report how long
        /// it sat in the inbox (the `queue_wait` stage histogram).
        enqueued: Instant,
        /// Where to send the per-shard reply.
        reply: Sender<ShardBatchReply>,
    },
    /// Report the frontier of a (globally identified) user.
    Frontier {
        user: UserId,
        reply: Sender<Vec<ObjectId>>,
    },
    /// Register a new user on this shard, backfilling its frontier from the
    /// alive objects. Replies once the registration is visible. The
    /// preference arrives interned by the engine; the monitor adopts it.
    AddUser {
        user: UserId,
        preference: Interned,
        reply: Sender<()>,
    },
    /// Unregister a user from this shard. Replies whether the user existed.
    RemoveUser { user: UserId, reply: Sender<bool> },
    /// Widen the monitor's history-compaction universe with a preference
    /// registered (or updated) on *another* shard, without adding a user.
    /// The compaction universe must be engine-global: a preference living
    /// on shard `t` may later register on shard `s`, and `s`'s retained
    /// history has to be able to backfill it exactly. Fire-and-forget —
    /// FIFO ordering against later commands is all that is required, and
    /// monitors without a compacting history ignore it.
    Observe { preference: Arc<Preference> },
    /// Replace a registered user's preference in place, keeping its global
    /// and local ids (no swap-remove renumbering anywhere). The monitor
    /// repairs the user's frontier by replay and its cluster by diffing the
    /// old and new relations. Replies whether the user existed. The
    /// preference arrives interned, as with [`ShardCmd::AddUser`].
    UpdateUser {
        user: UserId,
        preference: Interned,
        reply: Sender<bool>,
    },
    /// Report the monitor's work counters.
    Stats { reply: Sender<MonitorStats> },
    /// Export the shard's durable state for a snapshot: the members (global
    /// ids with their preferences, in local order) and the monitor's
    /// history/window plus work counters.
    Export { reply: Sender<ShardExport> },
    /// Install durable state into a monitor that has **no users yet** (the
    /// history or window verbatim); members are re-registered afterwards
    /// through [`ShardCmd::AddUser`] so frontiers backfill from it.
    Import {
        state: MonitorState,
        reply: Sender<()>,
    },
    /// Overwrite the monitor's stream work counters with snapshot-time
    /// values, after recovery re-registration (whose backfill replay would
    /// otherwise pollute them).
    RestoreStats {
        stats: MonitorStats,
        reply: Sender<()>,
    },
    /// Terminate the worker.
    Shutdown,
}

/// One shard's contribution to an engine snapshot.
pub(crate) struct ShardExport {
    /// Global user ids in shard-local order (swap-remove churned).
    pub users: Vec<UserId>,
    /// The members' preferences, index-aligned with `users`.
    pub preferences: Vec<Preference>,
    /// The monitor's durable state (history or window, work counters).
    pub state: MonitorState,
}

/// One shard's answer for one batch.
pub(crate) struct ShardBatchReply {
    /// Which shard this reply came from.
    pub shard: usize,
    /// For each object of the batch, the target users owned by this shard,
    /// as ascending global ids. Per-shard sets are pairwise disjoint across
    /// shards, so the engine merges them.
    pub targets: Vec<Vec<UserId>>,
    /// For each object of the batch, the frontier deltas of the users owned
    /// by this shard, with global user ids, in canonical `(user, object)`
    /// order. Disjoint across shards (a user lives on exactly one shard).
    pub deltas: Vec<Vec<FrontierDelta>>,
}

/// The state moved onto a shard's worker thread.
pub(crate) struct ShardWorker {
    pub shard: usize,
    pub monitor: Monitor,
    /// Threads the monitor may spread a batch's per-user work over
    /// ([`Monitor::process_batch`]).
    pub workers: usize,
    /// Local user index → global user id (unsorted under churn).
    pub global_users: Vec<UserId>,
    /// Number of batches enqueued but not yet fully processed.
    pub queue_depth: Arc<AtomicUsize>,
    /// Inbox dwell time of batches (`queue_wait` stage), shared with every
    /// other shard; `None` when the engine runs without metrics.
    pub queue_wait: Option<Arc<LogHistogram>>,
    /// Per-batch monitor application time (`shard_apply` stage), shared
    /// with every other shard; `None` when the engine runs without metrics.
    pub apply: Option<Arc<LogHistogram>>,
}

impl ShardWorker {
    /// Processes commands until the channel closes or `Shutdown` arrives.
    pub fn run(mut self, inbox: Receiver<ShardCmd>) {
        // Global id → local index, kept in sync with `global_users`.
        let mut local_of: HashMap<UserId, usize> = self
            .global_users
            .iter()
            .enumerate()
            .map(|(local, &user)| (user, local))
            .collect();
        // Whether `global_users` is ascending: a swap-remove that moves a
        // user, or a registration below the highest id, breaks it, and it
        // is checked again after every swap-remove that moves a user.
        let mut ascending = is_ascending(&self.global_users);
        while let Ok(cmd) = inbox.recv() {
            match cmd {
                ShardCmd::Batch {
                    objects,
                    enqueued,
                    reply,
                } => {
                    if let Some(queue_wait) = &self.queue_wait {
                        queue_wait.record_duration(enqueued.elapsed());
                    }
                    let apply_start = self.apply.as_ref().map(|_| Instant::now());
                    let mut targets = Vec::with_capacity(objects.len());
                    let mut deltas = Vec::with_capacity(objects.len());
                    for mut arrival in self.monitor.process_batch(&objects, self.workers) {
                        let global = |local: &mut UserId| *local = self.global_users[local.index()];
                        arrival.target_users.iter_mut().for_each(global);
                        arrival.deltas.iter_mut().for_each(|d| global(&mut d.user));
                        if !ascending {
                            arrival.target_users.sort_unstable();
                            arrival.deltas.sort_unstable();
                        }
                        targets.push(arrival.target_users);
                        deltas.push(arrival.deltas);
                    }
                    if let (Some(apply), Some(start)) = (&self.apply, apply_start) {
                        apply.record_duration(start.elapsed());
                    }
                    self.queue_depth.fetch_sub(1, Ordering::AcqRel);
                    let _ = reply.send(ShardBatchReply {
                        shard: self.shard,
                        targets,
                        deltas,
                    });
                }
                ShardCmd::Frontier { user, reply } => {
                    let frontier = match local_of.get(&user) {
                        Some(&local) => self.monitor.frontier(UserId::from(local)),
                        None => Vec::new(),
                    };
                    let _ = reply.send(frontier);
                }
                ShardCmd::AddUser {
                    user,
                    preference,
                    reply,
                } => {
                    debug_assert!(!local_of.contains_key(&user), "duplicate registration");
                    let local = self.monitor.add_user_interned(&preference);
                    debug_assert_eq!(local.index(), self.global_users.len());
                    local_of.insert(user, local.index());
                    ascending &= self.global_users.last() < Some(&user);
                    self.global_users.push(user);
                    let _ = reply.send(());
                }
                ShardCmd::UpdateUser {
                    user,
                    preference,
                    reply,
                } => {
                    let updated = match local_of.get(&user) {
                        Some(&local) => {
                            self.monitor
                                .update_user_interned(UserId::from(local), &preference);
                            true
                        }
                        None => false,
                    };
                    let _ = reply.send(updated);
                }
                ShardCmd::RemoveUser { user, reply } => {
                    let removed = match local_of.remove(&user) {
                        Some(local) => {
                            // Mirror the monitor's swap-remove: the last
                            // local user takes over the freed slot.
                            self.monitor.remove_user(UserId::from(local));
                            self.global_users.swap_remove(local);
                            if local < self.global_users.len() {
                                local_of.insert(self.global_users[local], local);
                                ascending = is_ascending(&self.global_users);
                            }
                            true
                        }
                        None => false,
                    };
                    let _ = reply.send(removed);
                }
                ShardCmd::Observe { preference } => {
                    self.monitor.observe_preference(&preference);
                }
                ShardCmd::Stats { reply } => {
                    let _ = reply.send(self.monitor.stats());
                }
                ShardCmd::Export { reply } => {
                    let preferences = self.monitor.member_preferences();
                    debug_assert_eq!(preferences.len(), self.global_users.len());
                    let _ = reply.send(ShardExport {
                        users: self.global_users.clone(),
                        preferences,
                        state: self.monitor.export_state(),
                    });
                }
                ShardCmd::Import { state, reply } => {
                    debug_assert!(
                        self.global_users.is_empty(),
                        "import into a populated shard"
                    );
                    self.monitor.import_state(state);
                    let _ = reply.send(());
                }
                ShardCmd::RestoreStats { stats, reply } => {
                    self.monitor.restore_stats(stats);
                    let _ = reply.send(());
                }
                ShardCmd::Shutdown => break,
            }
        }
    }
}

fn is_ascending(users: &[UserId]) -> bool {
    users.windows(2).all(|pair| pair[0] < pair[1])
}
