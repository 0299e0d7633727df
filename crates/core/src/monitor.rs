//! The continuous Pareto-frontier monitor — Alg. 1, 2, 4 and 5 of the
//! paper as one type on two orthogonal axes.
//!
//! * **Filter** ([`Filter`], `None` | exact | approximate): whether users
//!   are clustered behind virtual users whose shared frontier `P_U` filters
//!   arrivals before the per-user verify step (Alg. 2 / 5, Thm. 4.5), or
//!   every user is maintained on its own (Alg. 1 / 4).
//! * **Lifetime** ([`Lifetime`], history | window): whether objects stay
//!   alive forever (Alg. 1 / 2) or only while among the `W` most recent
//!   (Alg. 4 / 5), in which case each arrival first expires an object and
//!   mends the frontiers it was on from the Pareto frontier buffers
//!   (Def. 7.4): by Theorem 7.2 an object dominated by a *succeeding*
//!   object can never re-enter a frontier, so a buffer of the objects not
//!   dominated by any successor is exactly what may ever need promotion.
//!
//! Arrivals are applied in batches ([`Monitor::process_batch`]; a single
//! [`Monitor::process`] is a batch of one) in two phases. Phase A runs the
//! cluster level sequentially for the whole batch: admission, `P_U` / `PB_U`
//! expiry and mending, and the `P_U` update, recorded per cluster. Phase B
//! then runs the per-user work — the verify step behind a filter layer, or
//! each group's whole frontier without one — in contiguous chunks spread
//! over worker threads. Lemma 4.6 makes the verify step alone decide a
//! member's frontier from its cluster's outcome and its own state, so the
//! users are independent work and no outcome, delta or comparison count
//! depends on the batching or the thread count.
//!
//! Fidelity note: with a filter layer on a window the monitor follows
//! Alg. 5 literally — on expiry it only re-examines buffered objects that
//! the expiring object dominated *with respect to the cluster's (virtual
//! user's) preferences*. An object that a member user's own (stronger)
//! preferences had excluded is therefore not always promoted back, which is
//! the source of the small accuracy loss the paper accepts for this
//! algorithm family; without a filter layer there is no such loss.

use std::sync::Mutex;

use pm_model::{Object, ObjectId, UserId};
use pm_porder::{Dominance, Interned, Preference, PreferenceInterner};

use crate::alive::{Alive, Lifetime};
use crate::delta::{DeltaLog, FrontierDelta};
use crate::filter::{Filter, Group};
use crate::frontier::{
    mend_frontier, refresh_buffer, update_frontier, Frontier, FrontierUpdate, OnIdentical,
};
use crate::history::History;
use crate::stats::MonitorStats;
use crate::timers::{timed, timed_each, MonitorTimers};

/// The result of processing one arriving object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// The id of the processed object.
    pub object: ObjectId,
    /// The target users `C_o`: every user for whom the object is
    /// Pareto-optimal at arrival time, in ascending user-id order.
    pub target_users: Vec<UserId>,
    /// The net frontier membership changes this arrival caused (the arriving
    /// object entering target users' frontiers, dominated objects leaving,
    /// and — on a sliding window — the expiry and Def. 7.4 mending that ride
    /// on the same arrival), in canonical `(user, object)` order. See
    /// [`crate::delta`] for the canonical-form guarantees.
    pub deltas: Vec<FrontierDelta>,
}

impl Arrival {
    /// Whether the object was Pareto-optimal for at least one user.
    pub fn has_targets(&self) -> bool {
        !self.target_users.is_empty()
    }
}

/// The portion of an ingested history that must survive a crash: the
/// retained objects, the preferences whose frontiers gate eviction, and the
/// lazy-sweep bookkeeping counters.
///
/// Exported by [`crate::History::export_state`] and restored verbatim by
/// [`crate::History::import_state`] — no sweep runs during import, so the
/// retained set (and therefore every later sweep decision) evolves exactly
/// as it would have in an uninterrupted run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoryState {
    /// Every preference absorbed into the eviction universe, in the order
    /// it was first observed (empty for non-compacting histories).
    pub observed: Vec<Preference>,
    /// The retained objects in ascending object-id order. For a compacting
    /// history this is the flattened group content — duplicates appear once
    /// per retaining id, so id-list multiplicity round-trips.
    pub objects: Vec<Object>,
    /// Pushes since the last lazy sweep (compact mode only).
    pub pending: u64,
    /// Objects dropped by sweeps or caps since construction.
    pub evicted: u64,
}

/// A monitor's durable state, exported for snapshots and restored on
/// recovery. Exactly one of `history` / `window` is populated, by the
/// monitor's [`Lifetime`].
#[derive(Debug, Clone, Default)]
pub struct MonitorState {
    /// Ingested-history state (append-only monitors).
    pub history: Option<HistoryState>,
    /// Window content, oldest first (sliding-window monitors).
    pub window: Option<Vec<Object>>,
    /// Work counters at export time. Only the four stream counters
    /// (arrivals, expirations, comparisons, notifications) are meaningful;
    /// history gauges are recomputed live after import.
    pub stats: MonitorStats,
}

/// What every configuration shares: the alive objects, the users'
/// interned preferences, the work counters and the timers.
#[derive(Debug, Clone)]
pub(crate) struct Base {
    pub(crate) alive: Alive,
    /// Deduplicates the users' preferences so memory and compilation scale
    /// with the number of distinct preferences, not the population size.
    interner: PreferenceInterner,
    /// Per-user interned preference handles, indexed by user id.
    pub(crate) users: Vec<Interned>,
    pub(crate) stats: MonitorStats,
    /// Optional latency histograms; disabled slots cost nothing.
    timers: MonitorTimers,
}

impl Base {
    /// Replays the alive objects under `user`'s (current) preference.
    pub(crate) fn backfill(&mut self, user: UserId) -> Frontier {
        let compiled = &self.users[user.index()].compiled;
        let (alive, stats) = (&self.alive, &mut self.stats);
        timed(self.timers.backfill.as_ref(), || {
            alive.replay_frontier(compiled, stats)
        })
    }

    /// Which [`Layer::Unfiltered`] group holds `user`'s frontier. While
    /// the alive store is lossless a twin's live frontier *is* what a
    /// replay would produce, so users are keyed by interned preference and
    /// twins share one group; under a compacting history's hard cap a late
    /// twin's contract is the frontier of the *retained* objects, so every
    /// user is keyed by its own id.
    fn key(&self, user: UserId) -> usize {
        if self.alive.is_lossless() {
            self.users[user.index()].id as usize
        } else {
            user.index()
        }
    }

    /// Puts `user` into its [`Self::key`] group, creating the group by
    /// replay (frontier and Def. 7.4 buffer) when it does not exist yet.
    fn join(&mut self, groups: &mut Vec<Option<Group>>, user: UserId) {
        let key = self.key(user);
        if groups.len() <= key {
            groups.resize_with(key + 1, || None);
        }
        if let Some(group) = &mut groups[key] {
            group.members.push(user);
            return;
        }
        let interned = &self.users[user.index()];
        let (alive, stats) = (&self.alive, &mut self.stats);
        let (frontier, buffer) = timed(self.timers.backfill.as_ref(), || {
            (
                alive.replay_frontier(&interned.compiled, stats),
                alive.replay_buffer(&interned.compiled, stats),
            )
        });
        groups[key] = Some(Group {
            members: vec![user],
            preference: interned.preference.clone(),
            compiled: interned.compiled.clone(),
            frontier,
            buffer,
        });
    }

    /// Takes `user` out of its group, dropping the group with its last
    /// member.
    fn leave(&self, groups: &mut [Option<Group>], user: UserId) {
        let slot = &mut groups[self.key(user)];
        let group = slot.as_mut().expect("every user is in its group");
        group.members.retain(|&member| member != user);
        if group.members.is_empty() {
            *slot = None;
        }
    }
}

/// The filter axis.
// One layer per monitor: the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Layer {
    /// No filter layer (Alg. 1 / 4): each user-level frontier lives in a
    /// [`Group`] of its own, found by [`Base::key`] — one group per
    /// *distinct preference* while the alive store is lossless, one per
    /// user otherwise.
    Unfiltered(Vec<Option<Group>>),
    /// Clusters filter, per-user frontiers verify (Alg. 2 / 5, Sec. 6).
    Filtered(Filter),
}

/// The most objects [`Monitor::process_batch`] takes through its two phases
/// at once: Phase A keeps one verdict per cluster per object, so a longer
/// batch is applied in parts of this size to bound that record.
const MAX_PART: usize = 64;

/// Phase B chunks per worker: more than one, so that a thread that is
/// descheduled or draws slow users leaves the remaining chunks to the
/// others.
const CHUNKS_PER_WORKER: usize = 4;

/// A continuous Pareto-frontier monitor (see the module docs for the two
/// axes it is configured on).
#[derive(Debug, Clone)]
pub struct Monitor {
    base: Base,
    layer: Layer,
}

/// Reports one user-level frontier update to every user it stands for.
fn report(
    update: &FrontierUpdate,
    members: &[UserId],
    object: ObjectId,
    deltas: &mut DeltaLog,
    targets: &mut Vec<UserId>,
) {
    for &member in members {
        for evicted in &update.evicted {
            deltas.leave(member, *evicted);
        }
        if update.newly_inserted {
            deltas.enter(member, object);
        }
        if update.is_pareto {
            targets.push(member);
        }
    }
}

/// What expiring an object did to one group's frontier.
#[derive(Default)]
struct Expiry {
    /// Whether the expired object was on the group's frontier.
    was_pareto: bool,
    /// The buffered objects mended back into the group's frontier, in
    /// buffer order, each with whether it is a new member there.
    promoted: Vec<(Object, bool)>,
}

/// Removes `expired` from one group's frontier and buffer and mends the
/// frontier (Alg. 4 lines 2–5; Alg. 5 lines 2–8 at the cluster level):
/// buffered objects it dominated may now be Pareto-optimal.
fn expire_group(group: &mut Group, expired: &Object, stats: &mut MonitorStats) -> Expiry {
    let mut expiry = Expiry {
        was_pareto: group.frontier.remove(expired.id()),
        promoted: Vec::new(),
    };
    if expiry.was_pareto {
        let prepared = group.compiled.prepare(expired);
        // The buffer is in arrival order: oldest first, so that a promoted
        // object is visible when its younger dominated peers are checked.
        for (index, candidate) in group.buffer.objects().iter().enumerate() {
            if candidate.id() == expired.id() {
                continue;
            }
            stats.record_comparison();
            if prepared.compare(group.buffer.codes(index)) != Dominance::Dominates {
                continue;
            }
            let present = group.frontier.contains(candidate.id());
            if mend_frontier(&group.compiled, &mut group.frontier, candidate, stats) {
                expiry.promoted.push((candidate.clone(), !present));
            }
        }
    }
    group.buffer.remove(expired.id());
    expiry
}

/// The arrival of `object` at one group's frontier and, on a window, at its
/// buffer.
fn arrive_group(
    group: &mut Group,
    object: &Object,
    on_identical: OnIdentical,
    expires: bool,
    stats: &mut MonitorStats,
) -> FrontierUpdate {
    let prepared = group.compiled.prepare(object);
    let update = update_frontier(&prepared, &mut group.frontier, object, on_identical, stats);
    // Alg. 4 / Alg. 5 line 15: the buffer is refreshed whether or not the
    // object is Pareto-optimal now.
    if expires {
        refresh_buffer(&prepared, &mut group.buffer, object, stats);
    }
    update
}

/// One arrival of a batch, admitted to the alive store.
struct Admitted<'a> {
    object: &'a Object,
    /// The object the arrival pushed out of the window.
    expired: Option<Object>,
    /// With a filter layer, what Phase A decided at each cluster.
    verdicts: Vec<Verdict>,
}

/// Phase A's record of one arrival at one cluster: everything the verify
/// step of the cluster's members reads.
struct Verdict {
    expiry: Expiry,
    /// The arrival's outcome at `P_U`.
    update: FrontierUpdate,
}

/// Per arrival, one chunk's target users and canonical deltas (each
/// ascending), plus the comparisons the chunk spent.
struct ChunkOut {
    arrivals: Vec<(Vec<UserId>, Vec<FrontierDelta>)>,
    comparisons: u64,
}

/// Phase B without a filter layer (Alg. 1 / 4) over one chunk of groups:
/// each group takes the whole batch, expiry and arrival, in arrival order.
fn groups_chunk(groups: &mut [Option<Group>], batch: &[Admitted], expires: bool) -> ChunkOut {
    let mut stats = MonitorStats::new();
    let mut logs: Vec<(Vec<UserId>, DeltaLog)> = batch.iter().map(|_| Default::default()).collect();
    for group in groups.iter_mut().flatten() {
        for (admitted, (targets, deltas)) in batch.iter().zip(&mut logs) {
            if let Some(expired) = &admitted.expired {
                let expiry = expire_group(group, expired, &mut stats);
                for &member in &group.members {
                    if expiry.was_pareto {
                        deltas.leave(member, expired.id());
                    }
                    for (candidate, new) in &expiry.promoted {
                        if *new {
                            deltas.enter(member, candidate.id());
                        }
                    }
                }
            }
            let object = admitted.object;
            let update = arrive_group(group, object, OnIdentical::Stop, expires, &mut stats);
            report(&update, &group.members, object.id(), deltas, targets);
        }
    }
    let arrivals = logs
        .into_iter()
        .map(|(mut targets, deltas)| {
            targets.sort_unstable();
            (targets, deltas.finish())
        })
        .collect();
    ChunkOut {
        arrivals,
        comparisons: stats.comparisons,
    }
}

/// Phase B of a filter layer (the verify step of Alg. 2 / 5) over the
/// verify frontiers of users `first..first + frontiers.len()`. Each user
/// replays its cluster's verdicts arrival by arrival, in the order the
/// per-object algorithm interleaves them. By Lemma 4.6 a member's outcome
/// depends only on those verdicts and its own frontier, which is why the
/// users can be split across threads at all.
///
/// Users are visited in ascending id order, so the chunk's targets and
/// deltas come out ascending without a sort beyond the delta log's own,
/// and chunks of ascending id ranges concatenate into the canonical order.
fn verify_chunk(
    first: usize,
    frontiers: &mut [Frontier],
    cluster_of: &[Option<usize>],
    users: &[Interned],
    batch: &[Admitted],
) -> ChunkOut {
    let mut stats = MonitorStats::new();
    let mut logs: Vec<(Vec<UserId>, DeltaLog)> = batch.iter().map(|_| Default::default()).collect();
    for (index, own) in (first..).zip(frontiers) {
        // Users outside every cluster (fixed cluster lists only) are never
        // reported.
        let Some(cluster) = cluster_of[index] else {
            continue;
        };
        let member = UserId::from(index);
        let compiled = &users[index].compiled;
        for (admitted, (targets, deltas)) in batch.iter().zip(&mut logs) {
            let verdict = &admitted.verdicts[cluster];
            if let Some(expired) = &admitted.expired {
                if own.remove(expired.id()) {
                    deltas.leave(member, expired.id());
                }
                // Promoted into P_U first, then into each member's own
                // frontier.
                for (candidate, _) in &verdict.expiry.promoted {
                    let present = own.contains(candidate.id());
                    if mend_frontier(compiled, own, candidate, &mut stats) && !present {
                        deltas.enter(member, candidate.id());
                    }
                }
            }
            // o ≻_U o' implies o ≻_c o' for every member (Def. 4.1), so o'
            // leaves every member's frontier too (Alg. 2, lines 4–6).
            for &evicted in &verdict.update.evicted {
                if own.remove(evicted) {
                    deltas.leave(member, evicted);
                }
            }
            if verdict.update.is_pareto {
                // Verify against the member's own preference (Alg. 2,
                // line 6).
                let object = admitted.object;
                let prepared = compiled.prepare(object);
                let verified =
                    update_frontier(&prepared, own, object, OnIdentical::Stop, &mut stats);
                report(&verified, &[member], object.id(), deltas, targets);
            }
        }
    }
    let arrivals = logs
        .into_iter()
        .map(|(targets, deltas)| (targets, deltas.finish()))
        .collect();
    ChunkOut {
        arrivals,
        comparisons: stats.comparisons,
    }
}

/// Runs `work` over `units` in contiguous chunks, handing it each chunk with
/// the index of the chunk's first unit, and returns the results in chunk
/// order.
///
/// With one worker, or fewer than two units, that is one inline call over
/// all units. Otherwise one scoped thread per extra worker joins the calling
/// thread, and each claims the next unclaimed chunk from a shared cursor
/// until none is left, so a descheduled thread holds up at most its
/// current chunk.
fn run_chunks<U: Send, R: Send>(
    units: &mut [U],
    workers: usize,
    work: impl Fn(usize, &mut [U]) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || units.len() < 2 {
        return vec![work(0, units)];
    }
    let size = units.len().div_ceil(workers * CHUNKS_PER_WORKER);
    let helpers = workers.min(units.len().div_ceil(size)) - 1;
    let cursor = Mutex::new(units.chunks_mut(size).enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = cursor
                .lock()
                .expect("no thread panics while holding the chunk cursor")
                .next();
            let Some((index, chunk)) = next else {
                return done;
            };
            done.push((index, work(index * size, chunk)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (0..helpers).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|(index, _)| *index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Merges two ascending runs of distinct items; when `run` starts after
/// `merged` ends (a filter layer's user ranges) it is a concatenation.
fn merge<T: Ord + Copy>(mut merged: Vec<T>, run: Vec<T>) -> Vec<T> {
    match (merged.last(), run.first()) {
        (None, _) => run,
        (Some(last), Some(first)) if last > first => {
            let mut out = Vec::with_capacity(merged.len() + run.len());
            let (mut i, mut j) = (0, 0);
            while i < merged.len() && j < run.len() {
                if merged[i] < run[j] {
                    out.push(merged[i]);
                    i += 1;
                } else {
                    out.push(run[j]);
                    j += 1;
                }
            }
            out.extend_from_slice(&merged[i..]);
            out.extend_from_slice(&run[j..]);
            out
        }
        _ => {
            merged.extend(run);
            merged
        }
    }
}

impl Monitor {
    /// Creates a monitor for the given users (indexed by [`UserId`]),
    /// compiling every distinct preference to its bitset form up front.
    ///
    /// # Panics
    /// Panics on a zero-sized window, or when `filter` is backed by a
    /// maintained clustering that does not cover exactly `preferences`.
    pub fn new(preferences: &[Preference], lifetime: Lifetime, filter: Option<Filter>) -> Self {
        let mut this = Self {
            base: Base {
                alive: Alive::new(lifetime),
                interner: PreferenceInterner::new(),
                users: Vec::with_capacity(preferences.len()),
                stats: MonitorStats::new(),
                timers: MonitorTimers::disabled(),
            },
            layer: Layer::Unfiltered(Vec::new()),
        };
        match filter {
            None => {
                for preference in preferences {
                    this.add_user(preference.clone());
                }
            }
            Some(mut filter) => {
                let base = &mut this.base;
                for preference in preferences {
                    base.alive.observe(preference);
                    base.users.push(base.interner.intern(preference));
                }
                filter.attach(&base.users);
                this.layer = Layer::Filtered(filter);
            }
        }
        this
    }

    /// Processes one arriving object and returns its target users: a batch
    /// of one on one thread.
    pub fn process(&mut self, object: Object) -> Arrival {
        let mut arrivals = self.process_batch(std::slice::from_ref(&object), 1);
        arrivals.pop().expect("one arrival per object")
    }

    /// Processes a batch of arriving objects in order, returning one
    /// [`Arrival`] per object exactly as [`Self::process`] would one at a
    /// time, with the per-user work spread over up to `workers` threads.
    ///
    /// A batch runs in two phases (parts of at most 64 objects each):
    ///
    /// * **A, sequential.** Every object is admitted to the alive store,
    ///   and with a filter layer each cluster takes the cluster-level half
    ///   of expiry and arrival: `P_U` removal and mending, the `PB_U`
    ///   refresh and the `P_U` update. Its outcome per cluster is recorded;
    ///   nothing here reads a verify frontier, so running it for the whole
    ///   batch first changes no outcome.
    /// * **B, parallel.** With a filter layer the users are split into
    ///   contiguous id ranges, and each range replays the recorded outcomes
    ///   against its members' own frontiers (the verify step; exact by
    ///   Lemma 4.6 alone). Without one the groups are split, each running
    ///   its whole expiry and arrival. Each chunk canonicalises its own
    ///   targets and deltas, and the chunks are merged as sorted runs.
    ///
    /// The comparison counter is a sum over independent units of work, so
    /// it does not depend on `workers` or on how the stream is batched.
    pub fn process_batch(&mut self, objects: &[Object], workers: usize) -> Vec<Arrival> {
        let mut arrivals = Vec::with_capacity(objects.len());
        for part in objects.chunks(MAX_PART) {
            let timer = self.base.timers.arrival.clone();
            arrivals.extend(timed_each(timer.as_ref(), part.len(), || {
                self.apply(part, workers)
            }));
        }
        arrivals
    }

    /// Both phases of [`Self::process_batch`] over one part.
    fn apply(&mut self, objects: &[Object], workers: usize) -> Vec<Arrival> {
        let base = &mut self.base;
        let expires = base.alive.expires();
        // Expire before the arrival competes: the object it pushes out of
        // the window is no longer alive.
        let mut batch: Vec<Admitted> = objects
            .iter()
            .map(|object| {
                let expired = base.alive.admit(object);
                if expired.is_some() {
                    base.stats.record_expiration();
                }
                Admitted {
                    object,
                    expired,
                    verdicts: Vec::new(),
                }
            })
            .collect();
        let chunks = match &mut self.layer {
            Layer::Unfiltered(groups) => run_chunks(groups, workers, |_, chunk| {
                groups_chunk(chunk, &batch, expires)
            }),
            Layer::Filtered(filter) => {
                let stats = &mut base.stats;
                for admitted in &mut batch {
                    admitted.verdicts = (filter.clusters.iter_mut())
                        .map(|group| Verdict {
                            expiry: match &admitted.expired {
                                Some(expired) => expire_group(group, expired, stats),
                                None => Expiry::default(),
                            },
                            update: arrive_group(
                                group,
                                admitted.object,
                                OnIdentical::Continue,
                                expires,
                                stats,
                            ),
                        })
                        .collect();
                }
                let cluster_of = filter.cluster_index();
                let users = &base.users;
                run_chunks(&mut filter.verify, workers, |first, chunk| {
                    verify_chunk(first, chunk, &cluster_of, users, &batch)
                })
            }
        };
        let mut columns = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            base.stats.record_comparisons(chunk.comparisons);
            columns.push(chunk.arrivals.into_iter());
        }
        objects
            .iter()
            .map(|object| {
                let (mut target_users, mut deltas) = (Vec::new(), Vec::new());
                for column in &mut columns {
                    let (targets, more) = column.next().expect("a chunk reports every arrival");
                    target_users = merge(target_users, targets);
                    deltas = merge(deltas, more);
                }
                base.stats.record_arrival(target_users.len());
                Arrival {
                    object: object.id(),
                    target_users,
                    deltas,
                }
            })
            .collect()
    }

    /// The current Pareto frontier of `user`, in ascending object-id order.
    pub fn frontier(&self, user: UserId) -> Vec<ObjectId> {
        match &self.layer {
            Layer::Unfiltered(_) => self.group_of(user).frontier.ids(),
            Layer::Filtered(filter) => filter.verify[user.index()].ids(),
        }
    }

    /// Number of users served by this monitor.
    pub fn num_users(&self) -> usize {
        self.base.users.len()
    }

    /// Registers a new user mid-stream, assigning the next user id (equal
    /// to [`Self::num_users`] before the call) and returning it.
    ///
    /// The user's state is backfilled from the currently *alive* objects —
    /// the retained history or the window — so the user's frontier is
    /// identical to that of a monitor built with the user present from the
    /// start, restricted to the alive objects. With a compacting history
    /// ([`crate::HistoryMode::Compact`]) the replay is exact for every
    /// preference the monitor has ever observed (and best-effort for a
    /// genuinely novel one, or once a hard cap bites). Backfilling reports
    /// no notifications; only genuine arrivals do.
    pub fn add_user(&mut self, preference: Preference) -> UserId {
        let base = &mut self.base;
        let user = UserId::from(base.users.len());
        // Widen the compaction universe *before* any replay: from this
        // point on no sweep may evict an object this preference's frontier
        // needs (objects evicted before a genuinely novel preference
        // arrived are the documented caveat — see `crate::history`).
        base.alive.observe(&preference);
        let interned = base.interner.intern(&preference);
        base.users.push(interned);
        match &mut self.layer {
            Layer::Unfiltered(groups) => base.join(groups, user),
            Layer::Filtered(filter) => {
                let own = base.backfill(user);
                filter.add(user, own, base);
            }
        }
        user
    }

    /// Replaces `user`'s preference **in place**, keeping its id (no
    /// swap-remove, no renumbering of any user).
    ///
    /// The user's frontier is repaired by replaying the alive objects under
    /// the new preference, with the exactness contract of
    /// [`Self::add_user`]. A filter layer additionally repairs the user's
    /// cluster: the user stays put when its new relations still fit, else
    /// it is moved, without touching any other user's state. Like
    /// registration backfill, the replay reports no notifications.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub fn update_user(&mut self, user: UserId, preference: Preference) {
        let base = &mut self.base;
        let idx = user.index();
        assert!(idx < base.users.len(), "user {user} out of range");
        base.alive.observe(&preference);
        // Intern the new preference before releasing the old handle so an
        // update within the same distinct preference never recompiles.
        let interned = base.interner.intern(&preference);
        match &mut self.layer {
            Layer::Unfiltered(groups) => {
                if base.alive.is_lossless() && interned.id == base.users[idx].id {
                    // Unchanged preference: the shared frontier is already
                    // the exact replay outcome, nothing to do.
                    base.interner.release(interned.id);
                    return;
                }
                base.leave(groups, user);
                let old = std::mem::replace(&mut base.users[idx], interned);
                base.interner.release(old.id);
                base.join(groups, user);
            }
            Layer::Filtered(filter) => {
                let old = std::mem::replace(&mut base.users[idx], interned);
                base.interner.release(old.id);
                let own = base.backfill(user);
                filter.update(user, own, base);
            }
        }
    }

    /// Removes `user` in O(1) swap-remove fashion: the user with the
    /// highest id (when different from `user`) is renumbered to `user`'s
    /// id. Returns the renumbered user's previous id, or `None` when `user`
    /// already held the highest id.
    ///
    /// # Panics
    /// Panics if `user` is out of range.
    pub fn remove_user(&mut self, user: UserId) -> Option<UserId> {
        let base = &mut self.base;
        let idx = user.index();
        assert!(idx < base.users.len(), "user {user} out of range");
        let last = base.users.len() - 1;
        let moved = (idx != last).then(|| UserId::from(last));
        match &mut self.layer {
            Layer::Unfiltered(groups) => {
                base.leave(groups, user);
                if let Some(moved) = moved {
                    // The previously-last user now answers to `user`: its
                    // group moves with it when groups are keyed by user id,
                    // and either way lists it under the new name.
                    let from = base.key(moved);
                    base.users.swap(idx, last);
                    let to = base.key(user);
                    groups.swap(from, to);
                    let group = groups[to].as_mut().expect("every user is in its group");
                    group.rename(moved, user);
                }
            }
            Layer::Filtered(filter) => {
                filter.remove(user, base);
                base.users.swap(idx, last);
                filter.verify.swap_remove(idx);
                if let Some(moved) = moved {
                    filter.rename(moved, user);
                }
            }
        }
        let old = base.users.pop().expect("user is in range");
        base.interner.release(old.id);
        moved
    }

    fn group_of(&self, user: UserId) -> &Group {
        match &self.layer {
            Layer::Unfiltered(groups) => groups[self.base.key(user)].as_ref(),
            Layer::Filtered(_) => None,
        }
        .expect("every user of an unfiltered monitor is in its group")
    }

    /// Observes a preference *without* registering a user for it: a
    /// compacting history ([`crate::HistoryMode::Compact`]) widens its
    /// eviction universe so no later sweep drops an object this
    /// preference's frontier needs. A sharded engine broadcasts every
    /// registered/updated preference to all shards through this hook, so
    /// the compaction universe is global even though each shard only owns
    /// a slice of the users. No-op for every other lifetime.
    pub fn observe_preference(&mut self, preference: &Preference) {
        self.base.alive.observe(preference);
    }

    /// Attaches latency timers ([`MonitorTimers`]): per-arrival processing
    /// time, backfill-replay duration and compaction-sweep duration are
    /// recorded into the attached histograms from then on.
    pub fn set_timers(&mut self, timers: MonitorTimers) {
        self.base.alive.set_sweep_timer(timers.sweep.clone());
        self.base.timers = timers;
    }

    /// Work counters accumulated so far, plus the live gauges.
    pub fn stats(&self) -> MonitorStats {
        let mut stats = self.base.stats;
        self.base.alive.fill_gauges(&mut stats);
        stats.distinct_preferences = self.base.interner.distinct() as u64;
        stats.preference_bytes = self.base.interner.approx_bytes() as u64;
        stats
    }

    /// Exports the monitor's durable state for a snapshot.
    pub fn export_state(&self) -> MonitorState {
        self.base.alive.export(self.base.stats)
    }

    /// Restores durable state exported by [`Self::export_state`] into a
    /// monitor that has **no users yet**: the history (or window) is
    /// installed verbatim, after which members are re-registered through
    /// [`Self::add_user`] so their frontiers backfill from the restored
    /// alive objects. Work counters are *not* restored here — call
    /// [`Self::restore_stats`] after re-registration so backfill replay
    /// does not pollute them.
    pub fn import_state(&mut self, state: MonitorState) {
        self.base.alive.import(state);
    }

    /// Overwrites the four stream work counters (arrivals, expirations,
    /// comparisons, notifications) with snapshot-time values; the gauges
    /// keep being computed live.
    pub fn restore_stats(&mut self, stats: MonitorStats) {
        self.base.stats.arrivals = stats.arrivals;
        self.base.stats.expirations = stats.expirations;
        self.base.stats.comparisons = stats.comparisons;
        self.base.stats.notifications = stats.notifications;
    }

    /// The registered preferences in user-id order, so a snapshot can pair
    /// each member with its preference.
    pub fn member_preferences(&self) -> Vec<Preference> {
        self.base
            .users
            .iter()
            .map(|u| u.preference.as_ref().clone())
            .collect()
    }

    /// Convenience: processes a whole sequence of arrivals, returning one
    /// [`Arrival`] per object.
    pub fn process_all<I>(&mut self, objects: I) -> Vec<Arrival>
    where
        I: IntoIterator<Item = Object>,
    {
        objects.into_iter().map(|o| self.process(o)).collect()
    }

    /// Convenience: the frontiers of all users, indexed by user id.
    pub fn all_frontiers(&self) -> Vec<Vec<ObjectId>> {
        (0..self.num_users())
            .map(|u| self.frontier(UserId::from(u)))
            .collect()
    }

    /// The preference of `user`.
    pub fn preference(&self, user: UserId) -> &Preference {
        self.base.users[user.index()].preference.as_ref()
    }

    /// Number of distinct preferences across the current users (users with
    /// equal preferences share one compiled bitset).
    pub fn distinct_preferences(&self) -> usize {
        self.base.interner.distinct()
    }

    /// The lifetime this monitor was built with.
    pub fn lifetime(&self) -> Lifetime {
        self.base.alive.lifetime()
    }

    /// Number of retained history objects (zero on a window).
    pub fn history_len(&self) -> usize {
        self.base.alive.history().map_or(0, History::len)
    }

    /// Lifetime count of history objects dropped by compaction or its cap.
    pub fn history_evicted(&self) -> u64 {
        self.base.alive.history().map_or(0, History::evicted)
    }

    /// The retained history object ids, ascending (empty on a window).
    pub fn retained_history_ids(&self) -> Vec<ObjectId> {
        let history = self.base.alive.history();
        history.map_or_else(Vec::new, History::retained_ids)
    }

    /// Forces a compaction sweep of the retained history right now (no-op
    /// unless built with [`crate::HistoryMode::Compact`]; sweeps otherwise
    /// run automatically every few hundred arrivals).
    pub fn compact_history_now(&mut self) {
        if let Alive::History(history) = &mut self.base.alive {
            history.compact_now();
        }
    }

    /// The Pareto frontier buffer `PB_c` of a user, sorted by id. Empty
    /// unless the monitor runs unfiltered on a window — with a filter
    /// layer the buffers are per cluster, see [`Self::cluster_buffer`].
    pub fn buffer(&self, user: UserId) -> Vec<ObjectId> {
        match &self.layer {
            Layer::Unfiltered(_) => self.group_of(user).buffer.ids(),
            Layer::Filtered(_) => Vec::new(),
        }
    }

    /// Number of clusters (`k` in the paper's cost model); zero without a
    /// filter layer.
    pub fn num_clusters(&self) -> usize {
        match &self.layer {
            Layer::Unfiltered(_) => 0,
            Layer::Filtered(filter) => filter.clusters.len(),
        }
    }

    /// # Panics
    /// Panics when there is no filter layer or no such cluster.
    fn cluster(&self, cluster: usize) -> &Group {
        match &self.layer {
            Layer::Unfiltered(_) => panic!("the monitor has no filter layer"),
            Layer::Filtered(filter) => &filter.clusters[cluster],
        }
    }

    /// The cluster-level ("virtual user") frontier `P_U`, sorted by id.
    pub fn cluster_frontier(&self, cluster: usize) -> Vec<ObjectId> {
        self.cluster(cluster).frontier.ids()
    }

    /// The cluster-level buffer `PB_U`, sorted by id.
    pub fn cluster_buffer(&self, cluster: usize) -> Vec<ObjectId> {
        self.cluster(cluster).buffer.ids()
    }

    /// The virtual preference used by a cluster (common or approximate).
    pub fn virtual_preference(&self, cluster: usize) -> &Preference {
        &self.cluster(cluster).preference
    }

    /// The member users of a cluster.
    pub fn cluster_members(&self, cluster: usize) -> &[UserId] {
        &self.cluster(cluster).members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{
        laptop_objects, laptop_users, o15, o16, obj, one_cluster, preference, singletons,
        table8_objects,
    };
    use crate::HistoryMode;
    use pm_cluster::{cluster_users, ApproxConfig, Clustering, ClusteringConfig, ExactMeasure};
    use pm_porder::naive_pareto_frontier;

    const COMPACT: Lifetime = Lifetime::History(HistoryMode::Compact { cap: None });

    /// Lifetimes under which no object of the (≤ 16-object) example streams
    /// is ever lost: the append-only examples hold on all of them.
    const KEEP_ALL: [Lifetime; 3] = [Lifetime::UNLIMITED, COMPACT, Lifetime::Window(32)];

    fn capped(cap: usize) -> Lifetime {
        Lifetime::History(HistoryMode::Compact { cap: Some(cap) })
    }

    fn unfiltered(users: &[Preference], lifetime: Lifetime) -> Monitor {
        Monitor::new(users, lifetime, None)
    }

    fn in_one_cluster(users: &[Preference], lifetime: Lifetime) -> Monitor {
        let filter = Filter::virtual_users(one_cluster(users));
        Monitor::new(users, lifetime, Some(filter))
    }

    fn maintained(users: &[Preference], lifetime: Lifetime, branch_cut: f64) -> Monitor {
        let clustering = Clustering::new(users, ExactMeasure::Jaccard, branch_cut);
        Monitor::new(users, lifetime, Some(Filter::maintained(clustering)))
    }

    /// The agglomerative pipeline's clusters at branch cut 0.
    fn pipeline(users: &[Preference], measure: ExactMeasure) -> Vec<pm_cluster::Cluster> {
        let config = ClusteringConfig::Exact {
            measure,
            branch_cut: 0.0,
        };
        cluster_users(users, config).clusters
    }

    /// Every filter configuration that is exact while nothing expires
    /// (Lemma 4.6): none; hand-built, pipeline-built and maintained
    /// clusters; and Alg. 3 with θ2 = 1, which keeps only true common
    /// tuples and so degenerates to the exact relation.
    fn exact_filters(users: &[Preference]) -> Vec<(&'static str, Option<Filter>)> {
        let clusters = pipeline(users, ExactMeasure::WeightedJaccard);
        let total_support = ApproxConfig::new(1024, 1.0);
        vec![
            ("none", None),
            (
                "one cluster",
                Some(Filter::virtual_users(one_cluster(users))),
            ),
            ("singletons", Some(Filter::virtual_users(singletons(users)))),
            ("pipeline", Some(Filter::clusters(&clusters))),
            (
                "maintained",
                Some(Filter::maintained(Clustering::new(
                    users,
                    ExactMeasure::Jaccard,
                    0.2,
                ))),
            ),
            (
                "approx, θ2 = 1",
                Some(
                    Filter::clusters(&pipeline(users, ExactMeasure::Jaccard)).approx(total_support),
                ),
            ),
        ]
    }

    fn ids(raw: &[u64]) -> Vec<ObjectId> {
        raw.iter().copied().map(ObjectId::new).collect()
    }

    fn oracle_frontier(preference: &Preference, alive: &[Object]) -> Vec<ObjectId> {
        let mut ids = naive_pareto_frontier(preference, alive);
        ids.sort_unstable();
        ids
    }

    fn assert_subset(inner: &[ObjectId], outer: &[ObjectId], what: &str) {
        for id in inner {
            assert!(outer.contains(id), "{what} violated at {id}");
        }
    }

    #[test]
    fn arrival_has_targets() {
        let a = Arrival {
            object: ObjectId::new(1),
            target_users: vec![UserId::new(0)],
            deltas: vec![FrontierDelta::enter(UserId::new(0), ObjectId::new(1))],
        };
        assert!(a.has_targets());
        let b = Arrival {
            object: ObjectId::new(2),
            target_users: vec![],
            deltas: vec![],
        };
        assert!(!b.has_targets());
    }

    /// Examples 1.1 and 3.5 on every configuration they are true for: each
    /// exact filter × each lifetime that keeps the whole stream alive. All
    /// of them must also report exactly Alg. 1's arrivals.
    #[test]
    fn examples_1_1_and_3_5_hold_on_every_exact_configuration() {
        let users = laptop_users();
        let mut stream = laptop_objects();
        stream.extend([o15(), o16()]);
        let reference = unfiltered(&users, Lifetime::UNLIMITED).process_all(stream.clone());
        for lifetime in KEEP_ALL {
            for (name, filter) in exact_filters(&users) {
                let label = format!("{name} / {lifetime:?}");
                let mut m = Monitor::new(&users, lifetime, filter);
                let arrivals = m.process_all(laptop_objects());
                assert_eq!(arrivals, reference[..14], "{label}");
                // Example 3.5 lists Pc2 after o15; before o15, c2's
                // frontier also contains o7 (9.5", Lenovo, quad) per
                // Example 4.8.
                assert_eq!(m.frontier(UserId::new(0)), ids(&[2]), "{label}");
                assert_eq!(m.frontier(UserId::new(1)), ids(&[2, 3, 7]), "{label}");
                for (u, preference) in users.iter().enumerate() {
                    assert_eq!(
                        m.frontier(UserId::from(u)),
                        oracle_frontier(preference, &laptop_objects()),
                        "{label}: user {u}"
                    );
                }
                // Example 1.1: o15 targets only c2, o16 nobody.
                let arrival = m.process(o15());
                assert_eq!(arrival, reference[14], "{label}");
                assert_eq!(arrival.target_users, vec![UserId::new(1)], "{label}");
                assert_eq!(m.frontier(UserId::new(1)), ids(&[2, 3, 15]), "{label}");
                assert!(m.process(o16()).target_users.is_empty(), "{label}");
            }
        }
    }

    /// Example 4.8: with c1 and c2 in one cluster, o15 passes the filter
    /// and o16 is rejected at the cluster level, for all members at once.
    #[test]
    fn example_4_8_cluster_filter_decides_o15_and_o16() {
        let users = laptop_users();
        for lifetime in KEEP_ALL {
            let mut ftv = in_one_cluster(&users, lifetime);
            ftv.process_all(laptop_objects());
            // Before o15, P_U ⊇ P_c1 ∪ P_c2 (Theorem 4.5).
            let pu = ftv.cluster_frontier(0);
            for u in 0..users.len() {
                assert_subset(&ftv.frontier(UserId::from(u)), &pu, "P_U ⊇ P_c");
            }
            let arrival = ftv.process(o15());
            assert_eq!(arrival.target_users, vec![UserId::new(1)]);
            // The filter rejects o16, so at most |P_U| comparisons are
            // spent on it (plus the buffer refresh on a window) and none
            // per user.
            let budget = (ftv.cluster_frontier(0).len() + ftv.cluster_buffer(0).len()) as u64;
            let before = ftv.stats().comparisons;
            assert!(ftv.process(o16()).target_users.is_empty());
            assert!(
                ftv.stats().comparisons - before <= budget + 1,
                "{lifetime:?}"
            );
        }
    }

    /// Theorem 4.5 (and 7.5 on a window): after every arrival `P_U` holds
    /// every member's frontier and `PB_U` holds `P_U` — for exact and for
    /// approximate virtual preferences (Lemma 6.6), whether or not the
    /// window slides.
    #[test]
    fn theorem_4_5_cluster_frontier_is_a_superset_on_every_lifetime() {
        let users = laptop_users();
        let approx = ApproxConfig::new(64, 0.4);
        let lifetimes = [4, 5, 6].map(Lifetime::Window).into_iter().chain(KEEP_ALL);
        for lifetime in lifetimes {
            for stream in [laptop_objects(), table8_objects()] {
                for config in [None, Some(approx)] {
                    let mut filter = Filter::virtual_users(one_cluster(&users));
                    if let Some(config) = config {
                        filter = filter.approx(config);
                    }
                    let mut ftv = Monitor::new(&users, lifetime, Some(filter));
                    for o in stream.clone() {
                        ftv.process(o);
                        let pu = ftv.cluster_frontier(0);
                        for u in 0..users.len() {
                            assert_subset(&ftv.frontier(UserId::from(u)), &pu, "P_U ⊇ P_c");
                        }
                        if matches!(lifetime, Lifetime::Window(_)) {
                            assert_subset(&pu, &ftv.cluster_buffer(0), "PB_U ⊇ P_U");
                        }
                    }
                }
            }
        }
        // After the Table 8 stream on W = 6 the newest strong object (o7:
        // 14", Apple, dual) is on both users' frontiers.
        let mut ftv = in_one_cluster(&users, Lifetime::Window(6));
        ftv.process_all(table8_objects());
        for u in 0..users.len() {
            assert!(ftv.frontier(UserId::from(u)).contains(&ObjectId::new(7)));
        }
    }

    /// Theorem 6.5 / Lemma 6.6: with approximate common preferences the
    /// frontiers can only lose objects: P̂_c ⊆ P̂_U ⊆ P_U.
    #[test]
    fn theorem_6_5_approx_frontiers_are_subsets() {
        let users = laptop_users();
        let clusters = pipeline(&users, ExactMeasure::WeightedJaccard);
        for lifetime in KEEP_ALL {
            let exact_filter = Filter::clusters(&clusters);
            let approx_filter = exact_filter.clone().approx(ApproxConfig::new(64, 0.4));
            let mut exact = Monitor::new(&users, lifetime, Some(exact_filter));
            let mut approx = Monitor::new(&users, lifetime, Some(approx_filter));
            for o in laptop_objects() {
                exact.process(o.clone());
                approx.process(o);
            }
            let approx_pu = approx.cluster_frontier(0);
            assert_subset(&approx_pu, &exact.cluster_frontier(0), "P̂_U ⊆ P_U");
            for u in 0..users.len() {
                assert_subset(&approx.frontier(UserId::from(u)), &approx_pu, "P̂_c ⊆ P̂_U");
            }
        }
    }

    // Note: the paper's running Example 7.7 (Tables 9 and 10) is not
    // internally consistent with the preferences of Table 2 (e.g. o4 is
    // listed outside Pc1 for window (1,6] yet nothing alive dominates it
    // under Table 2's c1 once o1 has expired), so the sliding-window tests
    // validate against a ground-truth oracle recomputed from the alive
    // objects instead of hard-coding the example tables.

    /// Example 7.7's stream on every configuration that is exact on a
    /// sliding window — no filter, or a filter of singleton clusters — at
    /// every step, for several window sizes.
    #[test]
    fn example_7_7_stream_tracks_the_oracle_on_every_exact_configuration() {
        let users = laptop_users();
        let mut objects = table8_objects();
        objects.extend([
            obj(8, &[2, 2, 1]),
            obj(9, &[0, 1, 3]),
            obj(10, &[1, 0, 0]),
            obj(11, &[2, 0, 3]),
        ]);
        for window in [6, 4, 3] {
            let lifetime = Lifetime::Window(window);
            let mut monitors = [
                unfiltered(&users, lifetime),
                Monitor::new(
                    &users,
                    lifetime,
                    Some(Filter::virtual_users(singletons(&users))),
                ),
                // An unreachable branch cut keeps every cluster a singleton.
                maintained(&users, lifetime, 100.0),
            ];
            for (i, o) in objects.iter().enumerate() {
                let alive = &objects[(i + 1).saturating_sub(window)..=i];
                for (k, m) in monitors.iter_mut().enumerate() {
                    let arrival = m.process(o.clone());
                    for (u, preference) in users.iter().enumerate() {
                        let label = format!("monitor {k}, W = {window}, user {u}, step {i}");
                        let oracle = oracle_frontier(preference, alive);
                        assert_eq!(m.frontier(UserId::from(u)), oracle, "{label}");
                        // The arriving object's target set agrees too.
                        let is_target = arrival.target_users.contains(&UserId::from(u));
                        assert_eq!(is_target, oracle.contains(&o.id()), "{label}");
                        // Def. 7.4: PB_c ⊇ P_c.
                        if k == 0 {
                            assert_subset(&oracle, &m.buffer(UserId::from(u)), "PB_c ⊇ P_c");
                        }
                    }
                }
                // o7 replaces o3 for both users once the window has slid
                // past o1.
                if (window, o.id().raw()) == (6, 7) {
                    assert!(monitors[0].frontier(UserId::new(0)).contains(&o.id()));
                }
            }
        }
    }

    #[test]
    fn identical_objects_share_the_frontier() {
        for lifetime in KEEP_ALL {
            let mut m = unfiltered(&laptop_users(), lifetime);
            m.process(obj(1, &[2, 0, 1]));
            let arrival = m.process(obj(2, &[2, 0, 1]));
            assert_eq!(arrival.target_users.len(), 2);
            assert_eq!(m.frontier(UserId::new(0)), ids(&[1, 2]));
        }
    }

    #[test]
    fn dominated_object_is_removed_later() {
        let mut m = unfiltered(&laptop_users(), Lifetime::UNLIMITED);
        // o1 is initially Pareto-optimal for everyone, o2 later replaces it
        // for c1 and c2 (scenario (ii) of Sec. 1).
        let a1 = m.process(obj(1, &[1, 0, 0]));
        assert_eq!(a1.target_users.len(), 2);
        m.process(obj(2, &[2, 0, 1]));
        assert_eq!(m.frontier(UserId::new(0)), ids(&[2]));
        assert_eq!(m.frontier(UserId::new(1)), ids(&[2]));
    }

    #[test]
    fn stats_count_arrivals_and_comparisons() {
        let mut m = unfiltered(&laptop_users(), Lifetime::UNLIMITED);
        m.process_all(laptop_objects());
        let stats = m.stats();
        assert_eq!(stats.arrivals, 14);
        assert!(stats.comparisons > 0);
        assert_eq!(stats.expirations, 0);
        assert!(stats.comparisons_per_arrival() > 0.0);
    }

    #[test]
    fn empty_user_set_accepts_objects() {
        let mut m = unfiltered(&[], Lifetime::UNLIMITED);
        let arrival = m.process(obj(1, &[0, 0, 0]));
        assert!(arrival.target_users.is_empty());
        assert_eq!(m.num_users(), 0);
    }

    #[test]
    fn user_with_empty_preference_keeps_everything() {
        let mut m = unfiltered(&[Preference::new(3)], Lifetime::UNLIMITED);
        for o in laptop_objects() {
            let arrival = m.process(o);
            assert_eq!(arrival.target_users, vec![UserId::new(0)]);
        }
        assert_eq!(m.frontier(UserId::new(0)).len(), 14);
    }

    #[test]
    fn added_user_is_backfilled_from_the_full_history() {
        let users = laptop_users();
        let mut m = unfiltered(&users[..1], Lifetime::UNLIMITED);
        m.process_all(laptop_objects());
        // Register c2 mid-stream: its frontier must equal that of a monitor
        // that had c2 from the start.
        let added = m.add_user(users[1].clone());
        assert_eq!(added, UserId::new(1));
        let mut from_start = unfiltered(&users, Lifetime::UNLIMITED);
        from_start.process_all(laptop_objects());
        assert_eq!(m.frontier(added), from_start.frontier(UserId::new(1)));
        // Subsequent arrivals notify the registered user normally.
        let arrival = m.process(o15());
        assert_eq!(arrival.target_users, vec![UserId::new(1)]);
    }

    #[test]
    fn remove_user_swap_renumbers_the_last_user() {
        let mut m = unfiltered(&laptop_users(), Lifetime::UNLIMITED);
        m.process_all(laptop_objects());
        let c2_frontier = m.frontier(UserId::new(1));
        // Removing user 0 moves user 1 into slot 0.
        assert_eq!(m.remove_user(UserId::new(0)), Some(UserId::new(1)));
        assert_eq!(m.num_users(), 1);
        assert_eq!(m.frontier(UserId::new(0)), c2_frontier);
        // Removing the (now) last user returns None.
        assert_eq!(m.remove_user(UserId::new(0)), None);
        assert_eq!(m.num_users(), 0);
    }

    #[test]
    fn updated_user_matches_from_start_monitor_and_keeps_its_id() {
        let users = laptop_users();
        let mut m = unfiltered(&users, Lifetime::UNLIMITED);
        m.process_all(laptop_objects());
        // Swap c1's preference for c2's mid-stream: the frontier must equal
        // that of a monitor built with c2's preference from the start, and
        // neither user's id moves.
        m.update_user(UserId::new(0), users[1].clone());
        assert_eq!(m.num_users(), 2);
        let twins = [users[1].clone(), users[1].clone()];
        let mut from_start = unfiltered(&twins, Lifetime::UNLIMITED);
        from_start.process_all(laptop_objects());
        for u in [UserId::new(0), UserId::new(1)] {
            assert_eq!(m.frontier(u), from_start.frontier(u));
        }
        // Subsequent arrivals run against the new preference.
        let arrival = m.process(o15());
        assert_eq!(arrival.target_users, vec![UserId::new(0), UserId::new(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_of_unknown_user_panics() {
        let mut m = unfiltered(&laptop_users(), Lifetime::UNLIMITED);
        m.update_user(UserId::new(9), Preference::new(3));
    }

    #[test]
    fn compacting_history_keeps_backfill_exact_for_observed_preferences() {
        let users = laptop_users();
        // Both preferences are observed at construction; c2 then leaves.
        let mut compact = unfiltered(&users, COMPACT);
        let mut unlimited = unfiltered(&users, Lifetime::UNLIMITED);
        compact.remove_user(UserId::new(1));
        unlimited.remove_user(UserId::new(1));
        for o in laptop_objects() {
            compact.process(o.clone());
            unlimited.process(o);
        }
        compact.compact_history_now();
        // Compaction genuinely dropped objects no observed preference needs.
        assert!(compact.history_len() < unlimited.history_len());
        assert!(compact.history_evicted() > 0);
        assert_eq!(
            compact.history_evicted(),
            (unlimited.history_len() - compact.history_len()) as u64
        );
        // Live frontiers are never affected by history retention.
        assert_eq!(
            compact.frontier(UserId::new(0)),
            unlimited.frontier(UserId::new(0))
        );
        // Re-registering the previously seen preference is backfilled
        // exactly — the universe never forgets a preference.
        let a_compact = compact.add_user(users[1].clone());
        let a_unlimited = unlimited.add_user(users[1].clone());
        assert_eq!(compact.frontier(a_compact), unlimited.frontier(a_unlimited));
        // An in-place update to the other observed preference is exact too.
        compact.update_user(UserId::new(0), users[1].clone());
        unlimited.update_user(UserId::new(0), users[1].clone());
        assert_eq!(
            compact.frontier(UserId::new(0)),
            unlimited.frontier(UserId::new(0))
        );
        // The stats gauges surface the retained size and the savings.
        let stats = compact.stats();
        assert_eq!(stats.history_objects, compact.history_len() as u64);
        assert_eq!(stats.history_evicted, compact.history_evicted());
    }

    #[test]
    fn compacting_history_keeps_filtered_backfill_exact_for_observed_preferences() {
        let users = laptop_users();
        let mut ftv = in_one_cluster(&users, COMPACT);
        let mut reference = unfiltered(&users, Lifetime::UNLIMITED);
        for o in laptop_objects() {
            ftv.process(o.clone());
            reference.process(o);
        }
        ftv.compact_history_now();
        assert!(ftv.history_len() < 14, "compaction must drop something");
        assert!(ftv.history_evicted() > 0);
        // Registering a user with an observed preference backfills exactly
        // against the full stream, and an in-place update to the other
        // observed preference does too.
        let added = ftv.add_user(users[0].clone());
        let ref_added = reference.add_user(users[0].clone());
        assert_eq!(ftv.frontier(added), reference.frontier(ref_added));
        ftv.update_user(UserId::new(1), users[0].clone());
        reference.update_user(UserId::new(1), users[0].clone());
        assert_eq!(
            ftv.frontier(UserId::new(1)),
            reference.frontier(UserId::new(1))
        );
        let stats = ftv.stats();
        assert_eq!(stats.history_objects, ftv.history_len() as u64);
        assert_eq!(stats.history_evicted, ftv.history_evicted());
    }

    #[test]
    fn compacting_history_retains_all_value_duplicates() {
        let users = laptop_users();
        let mut m = unfiltered(&users[..1], COMPACT);
        // Three identical strong objects plus one dominated one.
        m.process(obj(1, &[2, 0, 1]));
        m.process(obj(2, &[2, 0, 1]));
        m.process(obj(3, &[2, 0, 1]));
        m.process(obj(4, &[1, 0, 0]));
        m.compact_history_now();
        let retained = m.retained_history_ids();
        assert_subset(
            &ids(&[1, 2, 3]),
            &retained,
            "identical frontier objects survive",
        );
        // A late registration of the same preference reports all three.
        let added = m.add_user(users[0].clone());
        assert_eq!(m.frontier(added), ids(&[1, 2, 3]));
    }

    #[test]
    fn history_cap_bounds_memory_and_makes_backfill_best_effort() {
        let users = laptop_users();
        let mut capped = unfiltered(&users[..1], capped(4));
        let mut unlimited = unfiltered(&users[..1], Lifetime::UNLIMITED);
        for o in laptop_objects() {
            capped.process(o.clone());
            unlimited.process(o);
        }
        assert_eq!(capped.history_len(), 4);
        assert_eq!(unlimited.history_len(), 14);
        // Live frontiers are unaffected by the cap: only backfill is.
        assert_eq!(
            capped.frontier(UserId::new(0)),
            unlimited.frontier(UserId::new(0))
        );
        // A late registration backfills from the retained objects only: it
        // sees every retained true-frontier object, and every object it
        // reports is retained (ids 11..=14 here).
        let added = capped.add_user(users[1].clone());
        let reference = unlimited.add_user(users[1].clone());
        let best_effort = capped.frontier(added);
        let retained = capped.retained_history_ids();
        assert_eq!(retained, ids(&[11, 12, 13, 14]));
        for id in unlimited.frontier(reference) {
            if retained.contains(&id) {
                assert!(
                    best_effort.contains(&id),
                    "retained frontier object {id} lost"
                );
            }
        }
        assert_subset(
            &best_effort,
            &retained,
            "backfill only reports retained objects",
        );
    }

    #[test]
    fn history_cap_applies_to_update_backfill() {
        let users = laptop_users();
        let mut ftv = in_one_cluster(&users, capped(3));
        ftv.process_all(laptop_objects());
        assert_eq!(ftv.history_len(), 3);
        // The update replays only the retained objects (ids 12..=14).
        ftv.update_user(UserId::new(0), users[1].clone());
        for id in ftv.frontier(UserId::new(0)) {
            assert!(id.raw() >= 12, "backfill saw a dropped object {id}");
        }
    }

    #[test]
    fn twins_share_one_frontier() {
        let users = laptop_users();
        let population = [
            users[0].clone(),
            users[1].clone(),
            users[0].clone(),
            users[1].clone(),
        ];
        let mut m = unfiltered(&population, Lifetime::UNLIMITED);
        assert_eq!(m.distinct_preferences(), 2);
        m.process_all(laptop_objects());
        assert_eq!(m.frontier(UserId::new(0)), m.frontier(UserId::new(2)));
        assert_eq!(m.frontier(UserId::new(1)), m.frontier(UserId::new(3)));
        let stats = m.stats();
        assert_eq!(stats.distinct_preferences, 2);
        assert!(stats.preference_bytes > 0);
        // A late twin joins its group in O(1) — no replay happens.
        let comparisons = m.stats().comparisons;
        let added = m.add_user(users[0].clone());
        assert_eq!(m.stats().comparisons, comparisons);
        assert_eq!(m.distinct_preferences(), 2);
        assert_eq!(m.frontier(added), m.frontier(UserId::new(0)));
        // An update onto the other existing preference coalesces groups …
        m.update_user(UserId::new(2), users[1].clone());
        assert_eq!(m.distinct_preferences(), 2);
        assert_eq!(m.frontier(UserId::new(2)), m.frontier(UserId::new(1)));
        // … and an update onto a novel preference splits one off.
        m.update_user(UserId::new(3), Preference::new(3));
        assert_eq!(m.distinct_preferences(), 3);
        // Targets stay per-user and sorted.
        let arrival = m.process(o15());
        let mut sorted = arrival.target_users.clone();
        sorted.sort_unstable();
        assert_eq!(arrival.target_users, sorted);
        // Removing the last holder of a preference drops its group.
        while m.num_users() > 0 {
            m.remove_user(UserId::new(0));
        }
        assert_eq!(m.distinct_preferences(), 0);
    }

    #[test]
    fn capped_history_keeps_late_twins_exact_to_the_retained_objects() {
        let users = laptop_users();
        let mut m = unfiltered(&users[..1], capped(4));
        m.process_all(laptop_objects());
        // Under a hard cap a late twin must NOT inherit the live frontier:
        // its documented contract is the exact frontier of the retained
        // objects (ids 11..=14 here), so it gets a frontier of its own.
        let added = m.add_user(users[0].clone());
        assert_eq!(m.distinct_preferences(), 1);
        for id in m.frontier(added) {
            assert!(id.raw() > 10, "backfill invented a dropped object {id}");
        }
        assert_ne!(m.frontier(added), m.frontier(UserId::new(0)));
        // Swap-renumbering moves the twin's own frontier with it.
        let own = m.frontier(added);
        assert_eq!(m.remove_user(UserId::new(0)), Some(added));
        assert_eq!(m.frontier(UserId::new(0)), own);
    }

    #[test]
    fn filter_saves_comparisons_compared_to_baseline() {
        let users = laptop_users();
        let mut baseline = unfiltered(&users, Lifetime::UNLIMITED);
        let mut ftv = in_one_cluster(&users, Lifetime::UNLIMITED);
        let mut objects = laptop_objects();
        objects.extend([o15(), o16()]);
        for o in objects {
            baseline.process(o.clone());
            ftv.process(o);
        }
        // The point of the filter is fewer per-user comparisons for objects
        // rejected at the cluster level; with only two users the totals are
        // close, so just require the filter not to blow up the cost.
        assert!(ftv.stats().comparisons <= 2 * baseline.stats().comparisons);
        assert_eq!(ftv.num_clusters(), 1);
        assert_eq!(ftv.cluster_members(0).len(), 2);
        assert!(ftv.virtual_preference(0).total_pairs() > 0);
    }

    /// Every cluster's common relation is the intersection of its members'
    /// preferences, and no cluster is empty.
    fn assert_common_relations(ftv: &Monitor, preferences: &[Preference]) {
        for k in 0..ftv.num_clusters() {
            let members = ftv.cluster_members(k);
            assert!(!members.is_empty());
            let expected = Preference::common_of(members.iter().map(|m| &preferences[m.index()]));
            let got = ftv.virtual_preference(k);
            for attr in 0..expected.arity() {
                let attr = pm_model::AttrId::from(attr);
                let want: std::collections::HashSet<_> = expected.relation(attr).pairs().collect();
                let have: std::collections::HashSet<_> = got.relation(attr).pairs().collect();
                assert_eq!(have, want, "cluster {k} attribute {attr}");
            }
        }
    }

    #[test]
    fn dynamic_membership_stays_exact_with_maintained_clustering() {
        let users = laptop_users();
        let mut ftv = maintained(&users, Lifetime::UNLIMITED, 0.2);
        let objects = laptop_objects();
        // Half the stream, then register a third user (same prefs as c1).
        ftv.process_all(objects[..7].to_vec());
        let added = ftv.add_user(users[0].clone());
        assert_eq!(added, UserId::new(2));
        ftv.process_all(objects[7..].to_vec());
        // The backfilled + continued frontier equals a from-start baseline.
        let prefs = [users[0].clone(), users[1].clone(), users[0].clone()];
        let mut baseline = unfiltered(&prefs, Lifetime::UNLIMITED);
        baseline.process_all(objects.clone());
        assert_eq!(ftv.all_frontiers(), baseline.all_frontiers());
        assert_common_relations(&ftv, &prefs);
        // Unregister c2 (user 1): user 2 is renumbered to 1 and results
        // still match a baseline over the surviving users.
        assert_eq!(ftv.remove_user(UserId::new(1)), Some(UserId::new(2)));
        let arrival = ftv.process(o15());
        let twins = [users[0].clone(), users[0].clone()];
        let mut survivors = unfiltered(&twins, Lifetime::UNLIMITED);
        survivors.process_all(objects);
        assert_eq!(arrival, survivors.process(o15()));
        assert_eq!(ftv.all_frontiers(), survivors.all_frontiers());
    }

    /// A REGISTER that joins a cluster replaces the cluster's relation
    /// while `P_U` is kept (append-only): when the new common relation
    /// loses a value — and with it shifts every dense index — the kept
    /// members must be re-encoded, or their stale codes read as other
    /// values and the filter rejects arrivals it must pass.
    #[test]
    fn register_that_shrinks_the_common_universe_re_encodes_the_cluster_frontier() {
        let mentions = |m: &Monitor, value: u32| {
            let relation = m.virtual_preference(0).relation(pm_model::AttrId::new(0));
            relation.values().contains(&pm_model::ValueId::new(value))
        };
        // Attribute 0 is the chain 3 ≻ 2 ≻ 1 ≻ 0 for both initial users.
        let chain = [(0, 3, 2), (0, 2, 1), (0, 1, 0), (1, 1, 0)];
        let mut wider = chain.to_vec();
        wider.push((1, 2, 1));
        let mut users = vec![preference(2, &chain), preference(2, &wider)];
        let mut ftv = maintained(&users, Lifetime::UNLIMITED, 0.2);
        assert_eq!(ftv.num_clusters(), 1);
        assert!(mentions(&ftv, 0));
        let mut stream = vec![obj(1, &[2, 1]), obj(2, &[0, 2]), obj(3, &[1, 0])];
        ftv.process_all(stream.clone());
        assert_eq!(ftv.cluster_frontier(0), ids(&[1, 2]));

        // The newcomer never mentions value 0: it drops out of the common
        // relation, whose universe shrinks from {0, 1, 2, 3} to {1, 2, 3}.
        users.push(preference(2, &[(0, 3, 2), (0, 2, 1), (1, 1, 0)]));
        ftv.add_user(users[2].clone());
        assert_eq!(ftv.num_clusters(), 1, "the newcomer joins the cluster");
        assert_eq!(ftv.cluster_members(0).len(), 3);
        assert!(!mentions(&ftv, 0));

        // Read through stale codes, o1 = ⟨2, 1⟩ would pass for ⟨3, 1⟩ and
        // dominate o4 = ⟨3, 0⟩, which every member must be told about.
        for object in [
            obj(4, &[3, 0]),
            obj(5, &[0, 1]),
            obj(6, &[3, 2]),
            obj(7, &[1, 1]),
        ] {
            stream.push(object.clone());
            let arrival = ftv.process(object.clone());
            for (u, preference) in users.iter().enumerate() {
                let oracle = oracle_frontier(preference, &stream);
                assert_eq!(
                    ftv.frontier(UserId::from(u)),
                    oracle,
                    "user {u} after {object}"
                );
                let is_target = arrival.target_users.contains(&UserId::from(u));
                assert_eq!(
                    is_target,
                    oracle.contains(&object.id()),
                    "user {u}, {object}"
                );
            }
        }
    }

    #[test]
    fn update_user_with_maintained_clustering_stays_exact() {
        let users = laptop_users();
        // A branch cut of 0.2 keeps c1 and c2 clustered together.
        let mut ftv = maintained(&users, Lifetime::UNLIMITED, 0.2);
        let objects = laptop_objects();
        ftv.process_all(objects[..7].to_vec());
        // c1 adopts c2's preference mid-stream (in place, id 0 unchanged).
        ftv.update_user(UserId::new(0), users[1].clone());
        assert_eq!(ftv.num_users(), 2);
        ftv.process_all(objects[7..].to_vec());
        // Frontiers match a from-start baseline over the final preferences.
        let prefs = [users[1].clone(), users[1].clone()];
        let mut baseline = unfiltered(&prefs, Lifetime::UNLIMITED);
        baseline.process_all(objects);
        assert_eq!(ftv.all_frontiers(), baseline.all_frontiers());
        assert_common_relations(&ftv, &prefs);
    }

    #[test]
    fn update_that_leaves_the_cluster_moves_without_renumbering() {
        let users = [laptop_users()[0].clone(), laptop_users()[0].clone()];
        // Identical preferences cluster together under any sane cut.
        let mut ftv = maintained(&users, Lifetime::UNLIMITED, 0.5);
        assert_eq!(ftv.num_clusters(), 1);
        ftv.process_all(laptop_objects());
        // User 1 switches to a preference over values nobody else mentions:
        // similarity collapses, the user moves out into a singleton.
        let alien = preference(3, &[(0, 40, 41)]);
        ftv.update_user(UserId::new(1), alien.clone());
        assert_eq!(ftv.num_clusters(), 2);
        assert_eq!(ftv.num_users(), 2);
        // No renumbering: user 0 still holds its original preference.
        assert_eq!(
            ftv.preference(UserId::new(0)).total_pairs(),
            users[0].total_pairs()
        );
        assert_eq!(ftv.preference(UserId::new(1)).total_pairs(), 1);
        // Both users' frontiers match a from-start baseline.
        let mut baseline = unfiltered(&[users[0].clone(), alien], Lifetime::UNLIMITED);
        baseline.process_all(laptop_objects());
        assert_eq!(ftv.all_frontiers(), baseline.all_frontiers());
    }

    #[test]
    fn update_on_hand_built_clusters_stays_put_and_exact() {
        let users = laptop_users();
        let mut ftv = in_one_cluster(&users, Lifetime::UNLIMITED);
        let objects = laptop_objects();
        ftv.process_all(objects[..7].to_vec());
        ftv.update_user(UserId::new(1), users[0].clone());
        assert_eq!(ftv.num_clusters(), 1);
        ftv.process_all(objects[7..].to_vec());
        let twins = [users[0].clone(), users[0].clone()];
        let mut baseline = unfiltered(&twins, Lifetime::UNLIMITED);
        baseline.process_all(objects);
        assert_eq!(ftv.all_frontiers(), baseline.all_frontiers());
    }

    #[test]
    fn empty_cluster_list_yields_no_targets() {
        let filter = Filter::virtual_users(vec![]);
        let mut ftv = Monitor::new(&laptop_users(), Lifetime::UNLIMITED, Some(filter));
        let arrival = ftv.process(obj(1, &[1, 0, 0]));
        assert!(arrival.target_users.is_empty());
        assert_eq!(ftv.num_clusters(), 0);
    }

    #[test]
    fn expired_objects_leave_all_state() {
        let mut m = unfiltered(&laptop_users(), Lifetime::Window(2));
        m.process(obj(1, &[3, 1, 1]));
        m.process(obj(2, &[0, 3, 0]));
        m.process(obj(3, &[1, 0, 1]));
        // o1 has expired: it may appear in no frontier or buffer.
        for u in 0..m.num_users() {
            assert!(!m.frontier(UserId::from(u)).contains(&ObjectId::new(1)));
            assert!(!m.buffer(UserId::from(u)).contains(&ObjectId::new(1)));
        }
        assert_eq!(m.stats().expirations, 1);
        assert_eq!(m.lifetime(), Lifetime::Window(2));
    }

    #[test]
    fn approx_filter_on_a_window_produces_a_working_monitor() {
        let users = laptop_users();
        let filter = Filter::virtual_users(one_cluster(&users)).approx(ApproxConfig::new(64, 0.4));
        let mut m = Monitor::new(&users, Lifetime::Window(4), Some(filter));
        m.process_all(table8_objects());
        assert_eq!(m.num_clusters(), 1);
        assert_eq!(m.lifetime(), Lifetime::Window(4));
        assert!(m.stats().arrivals == 7);
        assert!(m.stats().expirations == 3);
    }

    #[test]
    fn added_sliding_user_matches_from_start_monitor_over_the_window() {
        let users = laptop_users();
        let lifetime = Lifetime::Window(4);
        let mut m = unfiltered(&users[..1], lifetime);
        let objects = table8_objects();
        m.process_all(objects[..5].to_vec());
        let added = m.add_user(users[1].clone());
        assert_eq!(added, UserId::new(1));
        m.process_all(objects[5..].to_vec());
        let mut from_start = unfiltered(&users, lifetime);
        from_start.process_all(objects);
        assert_eq!(m.frontier(added), from_start.frontier(UserId::new(1)));
        assert_eq!(m.buffer(added), from_start.buffer(UserId::new(1)));
        // Expiry-driven mending keeps working for the registered user.
        for o in [obj(8, &[0, 1, 3]), obj(9, &[1, 0, 0]), obj(10, &[4, 4, 0])] {
            m.process(o.clone());
            from_start.process(o);
        }
        assert_eq!(m.frontier(added), from_start.frontier(UserId::new(1)));
    }

    #[test]
    fn updated_sliding_user_matches_from_start_monitor_over_the_window() {
        let users = laptop_users();
        let lifetime = Lifetime::Window(4);
        let mut m = unfiltered(&users, lifetime);
        let objects = table8_objects();
        m.process_all(objects[..5].to_vec());
        // c1 adopts c2's preference mid-stream.
        m.update_user(UserId::new(0), users[1].clone());
        assert_eq!(m.num_users(), 2);
        m.process_all(objects[5..].to_vec());
        let twins = [users[1].clone(), users[1].clone()];
        let mut from_start = unfiltered(&twins, lifetime);
        from_start.process_all(objects);
        assert_eq!(
            m.frontier(UserId::new(0)),
            from_start.frontier(UserId::new(0))
        );
        assert_eq!(m.buffer(UserId::new(0)), from_start.buffer(UserId::new(0)));
        // Expiry-driven mending keeps working under the new preference.
        for o in [obj(8, &[0, 1, 3]), obj(9, &[1, 0, 0]), obj(10, &[4, 4, 0])] {
            m.process(o.clone());
            from_start.process(o);
        }
        assert_eq!(
            m.frontier(UserId::new(0)),
            from_start.frontier(UserId::new(0))
        );
    }

    /// Feeds both monitors the same objects, asserting equal targets.
    fn assert_same_targets(ftv: &mut Monitor, baseline: &mut Monitor, objects: &[Object]) {
        for o in objects {
            assert_eq!(
                ftv.process(o.clone()).target_users,
                baseline.process(o.clone()).target_users
            );
        }
    }

    #[test]
    fn dynamic_singleton_clusters_sw_track_baseline_sw() {
        let users = laptop_users();
        let lifetime = Lifetime::Window(4);
        // An impossible branch cut keeps every user in a singleton cluster,
        // where Alg. 5 is exact — including under churn.
        let mut ftv = maintained(&users, lifetime, 100.0);
        let mut baseline = unfiltered(&users, lifetime);
        let objects = table8_objects();
        assert_same_targets(&mut ftv, &mut baseline, &objects[..4]);
        let pref = users[0].clone();
        assert_eq!(ftv.add_user(pref.clone()), baseline.add_user(pref));
        // The newcomer is a twin of user 0 and joins its cluster outright
        // (twins bypass the branch cut); the cluster's common preference is
        // the shared preference itself, so the filter stays exact.
        assert_eq!(ftv.num_clusters(), 2);
        assert_same_targets(&mut ftv, &mut baseline, &objects[4..]);
        assert_eq!(
            ftv.remove_user(UserId::new(0)),
            baseline.remove_user(UserId::new(0))
        );
        assert_eq!(ftv.num_clusters(), 2);
        let extra = [obj(8, &[2, 2, 1]), obj(9, &[0, 1, 3]), obj(10, &[1, 0, 0])];
        assert_same_targets(&mut ftv, &mut baseline, &extra);
        assert_eq!(ftv.all_frontiers(), baseline.all_frontiers());
    }

    #[test]
    fn dynamic_singleton_clusters_sw_track_baseline_sw_under_update() {
        let users = laptop_users();
        let lifetime = Lifetime::Window(4);
        // Singleton clusters keep Alg. 5 exact, including under in-place
        // preference updates.
        let mut ftv = maintained(&users, lifetime, 100.0);
        let mut baseline = unfiltered(&users, lifetime);
        let objects = table8_objects();
        assert_same_targets(&mut ftv, &mut baseline, &objects[..4]);
        ftv.update_user(UserId::new(1), users[0].clone());
        baseline.update_user(UserId::new(1), users[0].clone());
        assert_eq!(ftv.num_clusters(), 2);
        assert_same_targets(&mut ftv, &mut baseline, &objects[4..]);
        let extra = [obj(8, &[2, 2, 1]), obj(9, &[0, 1, 3]), obj(10, &[1, 0, 0])];
        assert_same_targets(&mut ftv, &mut baseline, &extra);
        assert_eq!(ftv.all_frontiers(), baseline.all_frontiers());
    }

    /// A batch longer than one part, on two threads, reports what one
    /// `process` call per object reports, on both layers.
    #[test]
    fn a_batch_of_several_parts_equals_per_object_processing() {
        let users = laptop_users();
        let stream: Vec<Object> = (0..3 * MAX_PART as u64)
            .map(|id| {
                let template = &laptop_objects()[id as usize % 14];
                template.with_id(ObjectId::new(id))
            })
            .collect();
        for monitor in [
            unfiltered(&users, Lifetime::Window(9)),
            in_one_cluster(&users, Lifetime::Window(9)),
        ] {
            let mut batched = monitor.clone();
            let mut reference = monitor;
            let expected = reference.process_all(stream.clone());
            assert_eq!(batched.process_batch(&stream, 2), expected);
            assert_eq!(batched.all_frontiers(), reference.all_frontiers());
            assert_eq!(batched.stats(), reference.stats());
        }
    }

    /// Phase B indexes each user's cluster once per batch, which needs
    /// every user in at most one cluster.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "clusters are disjoint")]
    fn a_user_listed_in_two_clusters_is_refused() {
        let users = laptop_users();
        let twice = vec![
            one_cluster(&users)[0].clone(),
            one_cluster(&users)[0].clone(),
        ];
        let mut ftv = Monitor::new(
            &users,
            Lifetime::UNLIMITED,
            Some(Filter::virtual_users(twice)),
        );
        ftv.process(obj(1, &[1, 0, 0]));
    }

    #[test]
    fn window_of_one_keeps_only_newest() {
        let mut m = unfiltered(&laptop_users(), Lifetime::Window(1));
        for o in table8_objects() {
            let arrival = m.process(o);
            // With a window of one, every arriving object is trivially
            // Pareto-optimal for every user.
            assert_eq!(arrival.target_users.len(), 2);
        }
        assert_eq!(m.frontier(UserId::new(0)), ids(&[7]));
        assert_eq!(m.buffer(UserId::new(1)), ids(&[7]));
    }
}
