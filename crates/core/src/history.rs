//! The retained object history of an append-only [`crate::Monitor`].
//!
//! An append-only monitor never expires objects, so a user registered (or
//! updated) mid-stream must be backfilled against the past stream — any
//! past object may be Pareto-optimal under the new preference. On unbounded
//! streams a verbatim history is unbounded, so [`History`] supports two
//! retention disciplines ([`HistoryMode`]):
//!
//! * **Unlimited** — keep everything; backfill is exact for any preference.
//! * **Compact** — the skyline-union compaction this module implements:
//!   bounded memory with **exact** backfill for every preference the
//!   monitor has ever observed.
//!
//! # Skyline-union compaction
//!
//! Two ideas make compaction exact where keeping only a recent suffix is
//! not:
//!
//! 1. **Value-duplicate collapsing.** Objects with identical attribute
//!    values are frontier-equivalent under *any* preference (identical
//!    objects never dominate each other, Def. 3.2), so the history stores
//!    each distinct value vector once, with the full id list attached.
//!    Replay reconstructs every id; this step loses nothing, ever.
//! 2. **Skyline-union eviction.** A vector group may be dropped only when,
//!    for **every** preference in the monitor's [`PreferenceUniverse`]
//!    (every distinct preference ever passed to the monitor — at
//!    construction, by `add_user` or by `update_user`; the universe never
//!    shrinks when users leave), some retained group dominates it. The
//!    retained set is therefore exactly the union of the observed
//!    preferences' skylines: for each observed preference `q`, dominance
//!    under `q` is transitive, so every eviction chain ascends to a
//!    `q`-skyline member, which is never evicted — replaying the retained
//!    set under `q` yields *precisely* the frontier of the full stream.
//!
//! Eviction is amortized: pushes are O(1) group inserts, and a lazy sweep
//! runs every `SWEEP_EVERY` (256) pushes (candidate dominators are
//! pre-filtered with the cheap [`PreferenceUniverse::union_dominates`] bit
//! test before the authoritative per-member checks).
//!
//! **The one inexact case.** Exactness is relative to the observed
//! universe: a backfill under a *never-seen* preference — whether it
//! carries relations outside the absorbed union or is merely a weaker
//! combination of seen tuples (the empty preference is the extreme case)
//! — may need an object that every observed preference had already voted
//! off. Compaction widens the universe *before* replaying such a backfill
//! (so the preference is protected from then on), but an object evicted
//! earlier cannot be resurrected.
//! This is documented, tested (`novel_preference_caveat` below), and
//! inherent: no bounded retention can be exact for arbitrary unseen
//! preferences, because a user with an empty preference needs every
//! distinct value vector. An optional hard cap bounds even adversarial
//! retained sets; once it bites, the oldest retained objects are dropped
//! and backfill is *best-effort*: the replayed frontier is the exact
//! frontier of the retained set, which may miss dropped frontier objects
//! and admit retained objects that only dropped ones dominated.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use pm_model::{Object, ObjectId, ValueId};
use pm_obs::LogHistogram;
use pm_porder::{Preference, PreferenceUniverse};

use crate::monitor::HistoryState;

/// How often the compacting history sweeps, in pushes. A sweep is an O(G²)
/// union pre-filter plus per-member confirmations over the G retained
/// groups. On a `churn_wal`-shaped monitor (200 movie users,
/// `ftv:0.4:compact`, 1,500 arrivals in batches of 10, 2 cores) the five
/// sweeps took 0.11 s of 0.43 s of arrival time at 92 % retention, the
/// pre-filter two thirds of the last one (29 of 44 ms at G = 1,215).
const SWEEP_EVERY: usize = 256;

/// Retention discipline of an append-only monitor's object history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryMode {
    /// Keep every ingested object; backfill is exact for any preference.
    Unlimited,
    /// Skyline-union compaction: keep the objects some observed preference
    /// still places on a frontier (plus all value-duplicates of them);
    /// backfill is exact for every observed preference. The optional `cap`
    /// is a hard bound on retained objects on top — once it bites, the
    /// smallest-id (= oldest, as ids double as arrival timestamps)
    /// retained objects are dropped and backfill degrades to best-effort
    /// over the retained set.
    Compact {
        /// Optional hard bound on retained objects (`None` = compaction
        /// alone bounds memory).
        cap: Option<usize>,
    },
}

impl HistoryMode {
    /// Whether this mode runs skyline-union compaction.
    pub fn is_compacting(&self) -> bool {
        matches!(self, HistoryMode::Compact { .. })
    }
}

/// The retained object history of an append-only monitor (see the module
/// docs for the two retention disciplines).
#[derive(Debug, Clone)]
pub struct History {
    mode: HistoryMode,
    /// Unlimited storage: verbatim objects, oldest first.
    linear: VecDeque<Object>,
    /// Compact storage: one entry per distinct value vector, mapping it to
    /// every retained object id carrying it (in arrival order). The vector
    /// is stored exactly once — the map key *is* the group — which is where
    /// most of the memory reduction comes from on streams that repeat
    /// vectors. Ids live in a `VecDeque` because cap enforcement evicts
    /// from the front while pushes append at the back. Map iteration order
    /// is arbitrary; replay folds to the exact Pareto frontier of the
    /// retained set regardless, and sweep eviction is a set-level
    /// criterion, so nothing observable depends on the order.
    groups: HashMap<Vec<ValueId>, VecDeque<ObjectId>>,
    /// Every distinct preference ever observed; gates eviction.
    universe: PreferenceUniverse,
    /// The raw preferences behind the universe members, in first-observation
    /// order. The universe keeps only compiled members, so snapshots persist
    /// this list and recovery re-absorbs it to reconstruct the universe
    /// (absorb order does not affect eviction decisions — the criterion
    /// quantifies over all members — but a deterministic order keeps
    /// exports comparable).
    observed: Vec<Preference>,
    /// Retained ids across all groups (compact mode).
    retained: usize,
    /// Min-heap of `(group head id, group key)` eviction candidates,
    /// maintained only when a hard cap is configured. Entries go stale
    /// when a sweep removes their group or the head was already evicted;
    /// [`History::enforce_cap`] skips stale entries lazily, keeping cap
    /// eviction O(log G) amortized instead of a full group scan per push.
    cap_heap: BinaryHeap<Reverse<(ObjectId, Vec<ValueId>)>>,
    /// Pushes since the last sweep (compact mode).
    pending: usize,
    /// Lifetime count of objects dropped (compaction or cap).
    evicted: u64,
    /// Optional duration histogram for sweeps (nanoseconds); attached by
    /// the host via [`History::set_sweep_timer`]. When absent, sweeps do
    /// not even read the clock.
    sweep_timer: Option<Arc<LogHistogram>>,
}

impl History {
    /// An empty history with the given retention mode.
    pub fn new(mode: HistoryMode) -> Self {
        Self {
            mode,
            linear: VecDeque::new(),
            groups: HashMap::new(),
            universe: PreferenceUniverse::new(),
            observed: Vec::new(),
            retained: 0,
            cap_heap: BinaryHeap::new(),
            pending: 0,
            evicted: 0,
            sweep_timer: None,
        }
    }

    /// Attaches a duration histogram that every subsequent compaction
    /// sweep records into (nanoseconds per sweep); `None` detaches it.
    pub fn set_sweep_timer(&mut self, timer: Option<Arc<LogHistogram>>) {
        self.sweep_timer = timer;
    }

    /// The retention mode.
    pub fn mode(&self) -> HistoryMode {
        self.mode
    }

    /// Observes a preference (constructor, `add_user` or `update_user`):
    /// compacting histories absorb it into the eviction universe so every
    /// later sweep retains that preference's full-stream skyline. Returns
    /// `true` when no structurally identical preference was observed
    /// before — the novel case for which earlier sweeps offered no
    /// protection and already-evicted objects cannot be recovered (see
    /// the module docs). An unlimited history ignores the call and returns
    /// `false`.
    pub fn observe(&mut self, preference: &Preference) -> bool {
        match self.mode {
            HistoryMode::Compact { .. } => {
                let novel = self.universe.absorb(preference);
                if novel {
                    self.observed.push(preference.clone());
                }
                novel
            }
            HistoryMode::Unlimited => false,
        }
    }

    /// Appends one object, evicting per the retention mode.
    pub fn push(&mut self, object: Object) {
        match self.mode {
            HistoryMode::Unlimited => self.linear.push_back(object),
            HistoryMode::Compact { cap } => {
                match self.groups.get_mut(object.values()) {
                    Some(ids) => ids.push_back(object.id()),
                    None => {
                        let values = object.values().to_vec();
                        if cap.is_some() {
                            self.cap_heap.push(Reverse((object.id(), values.clone())));
                        }
                        self.groups.insert(values, VecDeque::from([object.id()]));
                    }
                }
                self.retained += 1;
                self.pending += 1;
                if self.pending >= SWEEP_EVERY {
                    self.sweep();
                }
                if let Some(cap) = cap {
                    self.enforce_cap(cap);
                }
            }
        }
    }

    /// Number of retained objects (ids, not groups).
    pub fn len(&self) -> usize {
        match self.mode {
            HistoryMode::Compact { .. } => self.retained,
            HistoryMode::Unlimited => self.linear.len(),
        }
    }

    /// Whether no object is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct value vectors retained (compact mode; equals
    /// [`History::len`] otherwise only by accident).
    pub fn num_groups(&self) -> usize {
        match self.mode {
            HistoryMode::Compact { .. } => self.groups.len(),
            HistoryMode::Unlimited => self.linear.len(),
        }
    }

    /// Lifetime count of objects dropped from the history (compaction
    /// sweeps and cap enforcement combined) — the "compaction savings"
    /// versus an unlimited history.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Estimated heap bytes held by the retained history. The unlimited
    /// mode pays one [`Object`] (id + shared value row) per retained object; the compact
    /// mode pays each distinct value vector exactly once (the map key *is*
    /// the group) plus one id per retained object — which is where most of
    /// the memory reduction comes from on streams that repeat value
    /// vectors, on top of skyline-union eviction — plus, when a hard cap
    /// is configured, the cap heap's clone of each tracked group key (the
    /// heap is part of the retained-history footprint, and the test
    /// `engine_dynamic::compaction_retains_at_most_half_the_history_bytes`
    /// compares this figure against the linear branch, so it must not be
    /// undercounted). An estimate of the payload
    /// allocations, not a precise allocator measurement.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        match self.mode {
            HistoryMode::Compact { .. } => {
                let groups: u64 = self
                    .groups
                    .iter()
                    .map(|(values, ids)| {
                        (size_of::<Vec<ValueId>>()
                            + values.len() * size_of::<ValueId>()
                            + size_of::<VecDeque<ObjectId>>()
                            + ids.len() * size_of::<ObjectId>()
                            + size_of::<u64>()) as u64
                    })
                    .sum();
                let cap_heap: u64 = self
                    .cap_heap
                    .iter()
                    .map(|Reverse((_, values))| {
                        (size_of::<Reverse<(ObjectId, Vec<ValueId>)>>()
                            + values.len() * size_of::<ValueId>()) as u64
                    })
                    .sum();
                groups + cap_heap
            }
            // One object handle plus its shared value row (the two
            // reference counts in front of the values included).
            HistoryMode::Unlimited => self
                .linear
                .iter()
                .map(|o| {
                    (size_of::<Object>() + 2 * size_of::<usize>() + size_of_val(o.values())) as u64
                })
                .sum(),
        }
    }

    /// The retained object ids, ascending. Intended for tests and
    /// observability; replay uses [`History::iter`].
    pub fn retained_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = match self.mode {
            HistoryMode::Compact { .. } => self
                .groups
                .values()
                .flat_map(|ids| ids.iter().copied())
                .collect(),
            HistoryMode::Unlimited => self.linear.iter().map(Object::id).collect(),
        };
        ids.sort_unstable();
        ids
    }

    /// Iterates over the retained objects for backfill replay. The
    /// unlimited mode yields borrowed objects oldest-first; the compacting mode
    /// reconstructs each retained id from its group (order is
    /// insertion-order by group — replay folds to the exact Pareto
    /// frontier of the retained set regardless of order).
    pub fn iter(&self) -> HistoryIter<'_> {
        HistoryIter {
            inner: match self.mode {
                HistoryMode::Compact { .. } => IterInner::Compact {
                    groups: self.groups.iter(),
                    current: None,
                },
                HistoryMode::Unlimited => IterInner::Linear(self.linear.iter()),
            },
        }
    }

    /// The retained value groups of a compacting history: each distinct
    /// value vector with its retained ids (arrival order), oldest group
    /// first so that what a replay costs does not depend on the map's
    /// iteration order. `None` for an unlimited history. Backfill replay
    /// uses this to dominance-test one representative per distinct vector
    /// and admit the whole id list on survival, instead of re-running the
    /// frontier scan per duplicate id.
    pub fn grouped(&self) -> Option<impl Iterator<Item = (&[ValueId], &VecDeque<ObjectId>)>> {
        match self.mode {
            HistoryMode::Compact { .. } => {
                let mut groups: Vec<(&[ValueId], &VecDeque<ObjectId>)> = self
                    .groups
                    .iter()
                    .map(|(values, ids)| (values.as_slice(), ids))
                    .collect();
                groups.sort_unstable_by_key(|(_, ids)| ids[0]);
                Some(groups.into_iter())
            }
            HistoryMode::Unlimited => None,
        }
    }

    /// Exports the durable state: observed preferences (first-observation
    /// order), retained objects and the sweep/eviction counters. Compact
    /// histories flatten their groups to objects in ascending-id order so
    /// id-list multiplicity round-trips; unlimited histories keep arrival
    /// order.
    pub fn export_state(&self) -> HistoryState {
        let mut objects: Vec<Object> = self.iter().map(Cow::into_owned).collect();
        if self.mode.is_compacting() {
            objects.sort_by_key(Object::id);
        }
        HistoryState {
            observed: self.observed.clone(),
            objects,
            pending: self.pending as u64,
            evicted: self.evicted,
        }
    }

    /// Restores state exported by [`History::export_state`] verbatim,
    /// replacing any current content. No sweep runs during import and the
    /// pushes-since-last-sweep counter is restored, so the retained set
    /// and every subsequent sweep decision evolve exactly as they would
    /// have in an uninterrupted run. The retention mode is the receiver's
    /// (construct with the same mode as the exporter for a faithful
    /// restore).
    pub fn import_state(&mut self, state: HistoryState) {
        self.linear.clear();
        self.groups.clear();
        self.universe = PreferenceUniverse::new();
        self.observed.clear();
        self.retained = 0;
        self.cap_heap.clear();
        for preference in &state.observed {
            self.observe(preference);
        }
        match self.mode {
            HistoryMode::Compact { cap } => {
                for object in state.objects {
                    match self.groups.get_mut(object.values()) {
                        Some(ids) => ids.push_back(object.id()),
                        None => {
                            self.groups
                                .insert(object.values().to_vec(), VecDeque::from([object.id()]));
                        }
                    }
                    self.retained += 1;
                }
                // Group heads are the minimum ids (export sorts ascending),
                // so rebuilding from heads reproduces oldest-first cap
                // eviction order exactly.
                if cap.is_some() {
                    self.cap_heap = self
                        .groups
                        .iter()
                        .map(|(values, ids)| Reverse((ids[0], values.clone())))
                        .collect();
                }
            }
            HistoryMode::Unlimited => self.linear = state.objects.into(),
        }
        self.pending = usize::try_from(state.pending).unwrap_or(usize::MAX);
        self.evicted = state.evicted;
    }

    /// Runs a compaction sweep immediately (no-op for non-compacting
    /// modes). Pushes trigger sweeps automatically every `SWEEP_EVERY`
    /// (256) objects; this entry point exists for tests and for callers
    /// that want memory back right now.
    pub fn compact_now(&mut self) {
        if self.mode.is_compacting() {
            self.sweep();
        }
    }

    /// Evicts every group that is dominated, for **every** universe member,
    /// by some retained group. See the module docs for why simultaneous
    /// eviction is sound (per-member dominance chains ascend to that
    /// member's skyline, which is never evicted). Records the sweep
    /// duration when a timer is attached ([`History::set_sweep_timer`]).
    fn sweep(&mut self) {
        match self.sweep_timer.take() {
            Some(timer) => {
                let start = std::time::Instant::now();
                self.sweep_inner();
                timer.record_duration(start.elapsed());
                self.sweep_timer = Some(timer);
            }
            None => self.sweep_inner(),
        }
    }

    fn sweep_inner(&mut self) {
        self.pending = 0;
        // With no observed preference every object is potential frontier
        // (the first user to register could hold any preference), and a
        // member with an empty preference keeps *everything* on its
        // frontier — either way nothing is evictable, so skip the O(G²)
        // candidate pass entirely.
        if self.universe.is_empty() || self.universe.has_empty_member() || self.groups.len() < 2 {
            return;
        }
        let reps: Vec<Object> = self
            .groups
            .iter()
            .map(|(values, ids)| Object::new(ids[0], values.clone()))
            .collect();
        // Cheap necessary condition first: `j` can dominate `i` under some
        // member only if it dominates permissively under the union.
        let candidates: Vec<Vec<usize>> = (0..reps.len())
            .map(|i| {
                (0..reps.len())
                    .filter(|&j| j != i && self.universe.union_dominates(&reps[j], &reps[i]))
                    .collect()
            })
            .collect();
        let members = self.universe.members();
        let evict: Vec<bool> = (0..reps.len())
            .map(|i| {
                !candidates[i].is_empty()
                    && members.iter().all(|q| {
                        candidates[i]
                            .iter()
                            .any(|&j| q.dominates(&reps[j], &reps[i]))
                    })
            })
            .collect();
        for (i, rep) in reps.iter().enumerate() {
            if evict[i] {
                let ids = self
                    .groups
                    .remove(rep.values())
                    .expect("representative came from the map");
                self.retained -= ids.len();
                self.evicted += ids.len() as u64;
            }
        }
        // Sweep evictions stale out cap-heap entries that lazy
        // invalidation only reclaims while the cap binds; rebuild the heap
        // from the live group heads once the stale fraction dominates, so
        // the heap cannot grow without bound on long streams whose
        // compaction keeps them under the cap.
        if self.cap_heap.len() > 2 * self.groups.len() + 16 {
            self.cap_heap = self
                .groups
                .iter()
                .map(|(values, ids)| Reverse((ids[0], values.clone())))
                .collect();
        }
    }

    /// Drops retained objects until at most `cap` remain — the optional
    /// hard bound on top of compaction. Each step removes the head of the
    /// group whose head id is smallest (via the lazily-invalidated
    /// `cap_heap`, O(log G) amortized); ids double as arrival timestamps
    /// in this codebase ([`pm_model::ObjectId`]) and groups append in push
    /// order, so for id-ordered streams (every stream the engine mints)
    /// this is exactly oldest-first eviction. Callers pushing ids out of
    /// arrival order get smallest-head-first eviction instead.
    fn enforce_cap(&mut self, cap: usize) {
        while self.retained > cap {
            let Some(Reverse((head, key))) = self.cap_heap.pop() else {
                debug_assert!(
                    false,
                    "cap heap lost track of {} retained ids",
                    self.retained
                );
                return;
            };
            // Lazy invalidation: the group may have been swept away, or its
            // head may already have been cap-evicted earlier.
            let Some(ids) = self.groups.get_mut(&key) else {
                continue;
            };
            if ids[0] != head {
                continue;
            }
            ids.pop_front();
            self.retained -= 1;
            self.evicted += 1;
            if ids.is_empty() {
                self.groups.remove(&key);
            } else {
                let next_head = ids[0];
                self.cap_heap.push(Reverse((next_head, key)));
            }
        }
    }
}

/// Iterator over a [`History`]'s retained objects (see [`History::iter`]).
/// Unlimited histories yield borrowed objects; compacting histories
/// reconstruct each retained id from its value group.
pub struct HistoryIter<'a> {
    inner: IterInner<'a>,
}

enum IterInner<'a> {
    /// Borrowed objects of an unlimited history, oldest first.
    Linear(std::collections::vec_deque::Iter<'a, Object>),
    /// Reconstructed objects of a compacting history, group by group.
    Compact {
        groups: std::collections::hash_map::Iter<'a, Vec<ValueId>, VecDeque<ObjectId>>,
        current: Option<(&'a Vec<ValueId>, &'a VecDeque<ObjectId>, usize)>,
    },
}

impl<'a> Iterator for HistoryIter<'a> {
    type Item = Cow<'a, Object>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            IterInner::Linear(iter) => iter.next().map(Cow::Borrowed),
            IterInner::Compact { groups, current } => loop {
                if let Some((values, ids, next)) = current {
                    if let Some(&id) = ids.get(*next) {
                        *next += 1;
                        return Some(Cow::Owned(Object::new(id, values.clone())));
                    }
                    *current = None;
                }
                match groups.next() {
                    Some((values, ids)) => *current = Some((values, ids, 0)),
                    None => return None,
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::obj;
    use pm_model::AttrId;
    use pm_porder::naive_pareto_frontier;

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    fn chain_pref(attr: u32, order: &[u32]) -> Preference {
        let mut p = Preference::new(2);
        for w in order.windows(2) {
            p.prefer(a(attr), v(w[0]), v(w[1]));
        }
        p
    }

    fn collect(history: &History) -> Vec<Object> {
        let mut objects: Vec<Object> = history.iter().map(Cow::into_owned).collect();
        objects.sort_by_key(Object::id);
        objects
    }

    #[test]
    fn compact_collapses_value_duplicates_with_multiplicity() {
        let mut h = History::new(HistoryMode::Compact { cap: None });
        for i in 0..6 {
            h.push(obj(i, &[(i % 2) as u32, 0]));
        }
        assert_eq!(h.len(), 6, "every id is retained");
        assert_eq!(h.num_groups(), 2, "two distinct vectors");
        let objects = collect(&h);
        assert_eq!(objects.len(), 6);
        for o in &objects {
            assert_eq!(o.values()[0], v((o.id().raw() % 2) as u32));
        }
    }

    #[test]
    fn sweep_retains_exactly_the_skyline_union() {
        // Two observed preferences with opposite tastes on attr 0; attr 1
        // constant. Objects 0..4 carry values 0..4.
        let up = chain_pref(0, &[0, 1, 2, 3, 4]);
        let down = chain_pref(0, &[4, 3, 2, 1, 0]);
        let mut h = History::new(HistoryMode::Compact { cap: None });
        h.observe(&up);
        h.observe(&down);
        let objects: Vec<Object> = (0..5).map(|i| obj(i, &[i as u32, 7])).collect();
        for o in &objects {
            h.push(o.clone());
        }
        h.compact_now();
        // Skyline(up) = {value 0} = o0; skyline(down) = {value 4} = o4.
        assert_eq!(
            h.retained_ids(),
            vec![ObjectId::new(0), ObjectId::new(4)],
            "only the two skyline extremes survive"
        );
        assert_eq!(h.evicted(), 3);
        // Replay under both observed preferences is exact vs full history.
        for pref in [&up, &down] {
            let retained = collect(&h);
            let mut got = naive_pareto_frontier(pref, &retained);
            got.sort_unstable();
            let mut want = naive_pareto_frontier(pref, &objects);
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn sweep_without_observed_preferences_retains_everything() {
        let mut h = History::new(HistoryMode::Compact { cap: None });
        for i in 0..10 {
            h.push(obj(i, &[i as u32, 0]));
        }
        h.compact_now();
        assert_eq!(h.len(), 10, "no preference observed, nothing evictable");
        assert_eq!(h.evicted(), 0);
    }

    #[test]
    fn empty_observed_preference_blocks_all_eviction() {
        // A user with an empty preference has *every* object on its
        // frontier, so compaction must keep everything.
        let mut h = History::new(HistoryMode::Compact { cap: None });
        h.observe(&chain_pref(0, &[0, 1, 2]));
        h.observe(&Preference::new(2));
        for i in 0..3 {
            h.push(obj(i, &[i as u32, 0]));
        }
        h.compact_now();
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn cross_member_union_mix_does_not_evict() {
        // Member A prefers on attr 0 only, member B on attr 1 only. The
        // union would permissively let (0,2) dominate (1,3), but no single
        // member does — the object must survive (it is on both skylines).
        let mut pa = Preference::new(2);
        pa.prefer(a(0), v(0), v(1));
        let mut pb = Preference::new(2);
        pb.prefer(a(1), v(2), v(3));
        let mut h = History::new(HistoryMode::Compact { cap: None });
        h.observe(&pa);
        h.observe(&pb);
        h.push(obj(0, &[0, 2]));
        h.push(obj(1, &[1, 3]));
        h.compact_now();
        assert_eq!(h.len(), 2, "cross-member mixing must not evict");
    }

    #[test]
    fn observe_reports_never_seen_preferences_as_novel() {
        let mut h = History::new(HistoryMode::Compact { cap: None });
        let p = chain_pref(0, &[0, 1, 2]);
        assert!(h.observe(&p), "first observation is novel");
        assert!(!h.observe(&p), "a member is not");
        // A weaker subset of seen tuples is still a never-seen preference:
        // earlier sweeps did not protect its skyline (the reviewer's
        // within-union counterexample), so it must be flagged novel.
        assert!(
            h.observe(&chain_pref(0, &[0, 1])),
            "covered subset is novel"
        );
        assert!(h.observe(&Preference::new(2)), "unseen empty is novel too");
        assert!(h.observe(&chain_pref(1, &[5, 6])), "new attribute is");
        // Unlimited histories never report novelty (they do not compact).
        let mut t = History::new(HistoryMode::Unlimited);
        assert!(!t.observe(&p));
    }

    #[test]
    fn never_seen_weaker_preference_backfill_is_the_same_caveat() {
        // Universe member: 0 ≻ 1 and 0 ≻ 2 on attr 0. The sweep evicts
        // (2,·) — dominated for the only member. A never-seen *subset*
        // preference {0 ≻ 1} (fully inside the union) then needs (2,·):
        // replay is inexact, exactly the documented novel-preference
        // caveat even though no union edge is new.
        let mut strong = Preference::new(2);
        strong.prefer(a(0), v(0), v(1));
        strong.prefer(a(0), v(0), v(2));
        let mut h = History::new(HistoryMode::Compact { cap: None });
        h.observe(&strong);
        h.push(obj(0, &[0, 7]));
        h.push(obj(1, &[2, 7]));
        h.compact_now();
        assert_eq!(h.retained_ids(), vec![ObjectId::new(0)]);
        let mut weak = Preference::new(2);
        weak.prefer(a(0), v(0), v(1));
        assert!(h.observe(&weak), "within-union but never seen => novel");
        let replayed = naive_pareto_frontier(&weak, &collect(&h));
        assert_eq!(replayed, vec![ObjectId::new(0)], "exactness lost, once");
        let full = naive_pareto_frontier(&weak, &[obj(0, &[0, 7]), obj(1, &[2, 7])]);
        assert_eq!(full, vec![ObjectId::new(0), ObjectId::new(1)]);
    }

    #[test]
    fn novel_preference_caveat_is_the_one_inexact_case() {
        // Observed: 0 ≻ 1 on attr 0. Objects o0=(0,7), o1=(1,7): o1 is
        // evicted (dominated for every observed preference).
        let up = chain_pref(0, &[0, 1]);
        let mut h = History::new(HistoryMode::Compact { cap: None });
        h.observe(&up);
        h.push(obj(0, &[0, 7]));
        h.push(obj(1, &[1, 7]));
        h.compact_now();
        assert_eq!(h.retained_ids(), vec![ObjectId::new(0)]);
        // A genuinely novel preference (the reverse order) arrives: its
        // full-stream frontier is {o1}, but o1 is gone — replay over the
        // retained set yields {o0}. This is the documented caveat: the
        // widened universe protects the *future* …
        let down = chain_pref(0, &[1, 0]);
        assert!(h.observe(&down), "reverse tuple is novel");
        let retained = collect(&h);
        let replayed = naive_pareto_frontier(&down, &retained);
        assert_eq!(replayed, vec![ObjectId::new(0)], "exactness lost, once");
        let full = naive_pareto_frontier(&down, &[obj(0, &[0, 7]), obj(1, &[1, 7])]);
        assert_eq!(full, vec![ObjectId::new(1)]);
        // … from here on the reverse order gates eviction: a fresh pair of
        // the same values now keeps the 1-valued object.
        h.push(obj(2, &[0, 8]));
        h.push(obj(3, &[1, 8]));
        h.compact_now();
        assert!(h.retained_ids().contains(&ObjectId::new(3)));
    }

    #[test]
    fn cap_eviction_skips_heap_entries_invalidated_by_sweeps() {
        // 1 ≻ 0 on attr 0: group (0,9) is sweep-evicted while its cap-heap
        // entry (the smallest head id of all) is still enqueued. The next
        // cap eviction must skip that stale entry and evict the genuinely
        // oldest retained object instead.
        let up = chain_pref(0, &[1, 0]);
        let mut h = History::new(HistoryMode::Compact { cap: Some(2) });
        h.observe(&up);
        h.push(obj(0, &[0, 9]));
        h.push(obj(1, &[1, 9]));
        h.compact_now();
        assert_eq!(h.retained_ids(), vec![ObjectId::new(1)]);
        h.push(obj(2, &[1, 8]));
        h.push(obj(3, &[1, 7]));
        assert_eq!(h.len(), 2);
        assert_eq!(
            h.retained_ids(),
            vec![ObjectId::new(2), ObjectId::new(3)],
            "stale entry for the swept group must not stall cap eviction"
        );
        assert_eq!(h.evicted(), 2);
    }

    #[test]
    fn hard_cap_on_top_drops_oldest_first() {
        // Opposite chains keep all five values on the skyline union; the
        // cap then drops the oldest ids regardless.
        let mut h = History::new(HistoryMode::Compact { cap: Some(3) });
        h.observe(&chain_pref(0, &[0, 1, 2, 3, 4]));
        h.observe(&chain_pref(0, &[4, 3, 2, 1, 0]));
        for i in 0..5 {
            h.push(obj(i, &[1, i as u32]));
        }
        assert_eq!(h.len(), 3);
        assert_eq!(
            h.retained_ids(),
            vec![ObjectId::new(2), ObjectId::new(3), ObjectId::new(4)]
        );
        assert_eq!(h.evicted(), 2);
    }

    #[test]
    fn automatic_sweep_triggers_on_push_volume() {
        let up = chain_pref(0, &[0, 1]);
        let mut h = History::new(HistoryMode::Compact { cap: None });
        h.observe(&up);
        // Alternate dominated and dominating vectors well past the sweep
        // interval: the dominated group must be evicted without any manual
        // compact_now call.
        for i in 0..(2 * super::SWEEP_EVERY as u64) {
            h.push(obj(i, &[(i % 2) as u32, 3]));
        }
        assert!(
            h.evicted() > 0,
            "lazy sweep never ran over {} pushes",
            2 * super::SWEEP_EVERY
        );
        assert!(h.retained_ids().iter().all(|id| id.raw() % 2 == 0));
    }

    #[test]
    fn approx_bytes_counts_cap_heap_key_clones() {
        use std::mem::size_of;
        // Identical streams; only the hard cap differs. The capped history
        // clones every group key into its eviction heap, and that memory
        // must show up in the estimate (the retention test
        // `engine_dynamic::compaction_retains_at_most_half_the_history_bytes`
        // compares compact and linear footprints like with like).
        let mut capped = History::new(HistoryMode::Compact { cap: Some(100) });
        let mut uncapped = History::new(HistoryMode::Compact { cap: None });
        for i in 0..4u64 {
            capped.push(obj(i, &[i as u32, 0]));
            uncapped.push(obj(i, &[i as u32, 0]));
        }
        assert_eq!(capped.retained_ids(), uncapped.retained_ids());
        let per_entry = |values: usize| {
            (size_of::<Reverse<(ObjectId, Vec<ValueId>)>>() + values * size_of::<ValueId>()) as u64
        };
        assert_eq!(
            capped.approx_bytes(),
            uncapped.approx_bytes() + 4 * per_entry(2),
            "one heap entry (tuple + cloned 2-value key) per group"
        );
        // Without a cap the heap is empty and both estimates agree.
        assert_eq!(
            uncapped.approx_bytes(),
            {
                let mut h = History::new(HistoryMode::Compact { cap: None });
                for i in 0..4u64 {
                    h.push(obj(i, &[i as u32, 0]));
                }
                h.approx_bytes()
            },
            "uncapped estimate is unchanged by the fix"
        );
    }

    #[test]
    fn export_import_roundtrip_is_verbatim() {
        let up = chain_pref(0, &[0, 1, 2]);
        let down = chain_pref(0, &[2, 1, 0]);
        let mut h = History::new(HistoryMode::Compact { cap: None });
        h.observe(&up);
        h.push(obj(0, &[0, 7]));
        h.push(obj(1, &[1, 7]));
        h.push(obj(2, &[2, 7]));
        h.push(obj(3, &[0, 7]));
        h.compact_now();
        h.observe(&down);
        h.push(obj(4, &[1, 7]));
        let exported = h.export_state();
        assert_eq!(exported.evicted, h.evicted());
        let mut restored = History::new(HistoryMode::Compact { cap: None });
        restored.import_state(exported.clone());
        assert_eq!(restored.retained_ids(), h.retained_ids());
        assert_eq!(restored.num_groups(), h.num_groups());
        assert_eq!(restored.evicted(), h.evicted());
        assert_eq!(restored.approx_bytes(), h.approx_bytes());
        assert_eq!(
            restored.export_state(),
            exported,
            "a second export is identical — import was verbatim"
        );
        // The restored history keeps evolving exactly like the original:
        // same pushes, same sweep outcome.
        h.push(obj(5, &[2, 8]));
        restored.push(obj(5, &[2, 8]));
        h.compact_now();
        restored.compact_now();
        assert_eq!(restored.retained_ids(), h.retained_ids());
        assert_eq!(restored.evicted(), h.evicted());
    }

    #[test]
    fn export_import_roundtrip_unlimited_mode() {
        let mut h = History::new(HistoryMode::Unlimited);
        for i in 0..5 {
            h.push(obj(i, &[i as u32, 0]));
        }
        let mut restored = History::new(HistoryMode::Unlimited);
        restored.import_state(h.export_state());
        assert_eq!(restored.retained_ids(), h.retained_ids());
        assert_eq!(restored.evicted(), h.evicted());
        assert_eq!(restored.export_state(), h.export_state());
    }

    #[test]
    fn import_restores_cap_heap_for_capped_histories() {
        let mut h = History::new(HistoryMode::Compact { cap: Some(2) });
        for i in 0..4 {
            h.push(obj(i, &[i as u32, 0]));
        }
        assert_eq!(h.retained_ids(), vec![ObjectId::new(2), ObjectId::new(3)]);
        let mut restored = History::new(HistoryMode::Compact { cap: Some(2) });
        restored.import_state(h.export_state());
        // The rebuilt heap must keep enforcing oldest-first eviction.
        restored.push(obj(4, &[9, 9]));
        assert_eq!(
            restored.retained_ids(),
            vec![ObjectId::new(3), ObjectId::new(4)]
        );
    }

    #[test]
    fn reappearing_evicted_vector_is_evicted_again() {
        let up = chain_pref(0, &[0, 1]);
        let mut h = History::new(HistoryMode::Compact { cap: None });
        h.observe(&up);
        h.push(obj(0, &[0, 0]));
        h.push(obj(1, &[1, 0]));
        h.compact_now();
        assert_eq!(h.len(), 1);
        h.push(obj(2, &[1, 0]));
        assert_eq!(h.len(), 2, "re-pushed vector forms a fresh group");
        h.compact_now();
        assert_eq!(h.retained_ids(), vec![ObjectId::new(0)]);
    }
}
