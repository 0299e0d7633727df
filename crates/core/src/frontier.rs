//! Frontier and Pareto-frontier-buffer primitives: the procedures of
//! Alg. 1, 2 and 4 that every [`crate::Monitor`] configuration is
//! assembled from.
//!
//! Each procedure compares *one* object with every member of one
//! [`Frontier`], so it resolves that object once
//! ([`CompiledPreference::prepare`]) and streams the members' value codes
//! past it ([`Prepared::compare`]); each such test counts as one
//! comparison.
//!
//! Scans run **oldest member first**. The order cannot change an outcome —
//! a frontier never holds both an object the arrival dominates and one that
//! dominates it — only where an early exit lands, so with the members stored
//! in arrival order the comparison counter is a pure function of the
//! frontier's contents. Newest first was measured too and costs more
//! comparisons per object (`core.cmp_per_obj` of `benchmark/`: 56,900
//! against 53,491 on `movie_append`, 33,541 against 32,261 on
//! `window_open`): long-lived members are the likelier dominators.

use pm_model::{Object, ObjectId};
use pm_porder::{CompiledPreference, Dominance, Prepared};

use crate::stats::MonitorStats;

/// A Pareto frontier (or Def. 7.4 buffer) under one preference: parallel
/// vectors in ascending object-id — that is, arrival — order.
///
/// The objects share their value rows with every other holder
/// ([`Object`] clones are reference-count bumps); what a frontier owns per
/// member is the id, the row handle and the member's value codes under the
/// owning preference, flat with one stride per member, which is all a scan
/// reads. Whoever replaces the preference must [`Frontier::recode`].
#[derive(Debug, Clone)]
pub(crate) struct Frontier {
    /// Codes per member: the owning preference's arity.
    arity: usize,
    objects: Vec<Object>,
    codes: Vec<u32>,
}

impl Frontier {
    /// An empty frontier under `preference`.
    pub(crate) fn new(preference: &CompiledPreference) -> Self {
        Self {
            arity: preference.arity(),
            objects: Vec::new(),
            codes: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.objects.len()
    }

    /// The members, oldest first.
    pub(crate) fn objects(&self) -> &[Object] {
        &self.objects
    }

    /// The members' ids, ascending.
    pub(crate) fn ids(&self) -> Vec<ObjectId> {
        self.objects.iter().map(Object::id).collect()
    }

    /// The codes of the `index`-th member.
    #[inline]
    pub(crate) fn codes(&self, index: usize) -> &[u32] {
        &self.codes[index * self.arity..(index + 1) * self.arity]
    }

    fn position(&self, id: ObjectId) -> Result<usize, usize> {
        // Arrivals carry the highest id so far: skip the search for them.
        match self.objects.last() {
            Some(last) if last.id() < id => Err(self.objects.len()),
            _ => self.objects.binary_search_by_key(&id, Object::id),
        }
    }

    pub(crate) fn contains(&self, id: ObjectId) -> bool {
        self.position(id).is_ok()
    }

    /// Adds `object` with its `codes` under the owning preference, keeping
    /// id order. Returns whether it is a new member.
    pub(crate) fn insert(&mut self, object: &Object, codes: impl Iterator<Item = u32>) -> bool {
        let Err(at) = self.position(object.id()) else {
            return false;
        };
        self.objects.insert(at, object.clone());
        self.codes.splice(at * self.arity..at * self.arity, codes);
        self.check();
        true
    }

    /// Removes the member `id`, returning whether it was one.
    pub(crate) fn remove(&mut self, id: ObjectId) -> bool {
        let Ok(at) = self.position(id) else {
            return false;
        };
        self.objects.remove(at);
        self.codes.drain(at * self.arity..(at + 1) * self.arity);
        self.check();
        true
    }

    /// Removes the members `ids` (ascending, all present) in one pass.
    fn remove_all(&mut self, ids: &[ObjectId]) {
        let Some(&first) = ids.first() else {
            return;
        };
        let first = self.position(first).expect("evicted ids are members");
        let mut kept = first;
        let mut pending = ids.iter().peekable();
        for at in first..self.objects.len() {
            if pending
                .peek()
                .is_some_and(|&&id| id == self.objects[at].id())
            {
                pending.next();
                continue;
            }
            self.objects.swap(kept, at);
            self.codes
                .copy_within(at * self.arity..(at + 1) * self.arity, kept * self.arity);
            kept += 1;
        }
        debug_assert!(pending.next().is_none(), "evicted ids are members");
        self.objects.truncate(kept);
        self.codes.truncate(kept * self.arity);
        self.check();
    }

    /// Re-encodes every member under `preference`, which replaces the one
    /// the codes were issued by.
    pub(crate) fn recode(&mut self, preference: &CompiledPreference) {
        self.arity = preference.arity();
        self.codes.clear();
        for object in &self.objects {
            self.codes.extend(preference.codes(object));
        }
        self.check();
    }

    fn check(&self) {
        debug_assert!(
            self.objects.windows(2).all(|w| w[0].id() < w[1].id()),
            "frontier ids strictly ascending"
        );
        debug_assert_eq!(self.codes.len(), self.objects.len() * self.arity);
    }
}

/// What a frontier scan does on meeting an object identical to the
/// arriving one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnIdentical {
    /// Alg. 1, line 6 (`updateParetoFrontier`): an identical frontier
    /// member proves the arrival Pareto-optimal — stop scanning.
    Stop,
    /// Alg. 2 (`updateParetoFrontierU`): identical objects are resolved
    /// per user during verification — keep scanning the cluster frontier.
    Continue,
}

/// The outcome of [`update_frontier`]: whether the object was
/// Pareto-optimal, whether its insert created a *new* frontier entry, and
/// which existing entries it evicted (ascending) — exactly what a delta log
/// needs.
pub(crate) struct FrontierUpdate {
    pub(crate) is_pareto: bool,
    pub(crate) newly_inserted: bool,
    pub(crate) evicted: Vec<ObjectId>,
}

/// Updates one frontier with an arriving object, given `prepared` under the
/// frontier's preference: the object enters unless a member dominates it,
/// and every member it dominates leaves.
pub(crate) fn update_frontier(
    prepared: &Prepared<'_>,
    frontier: &mut Frontier,
    object: &Object,
    on_identical: OnIdentical,
    stats: &mut MonitorStats,
) -> FrontierUpdate {
    let mut is_pareto = true;
    let mut evicted: Vec<ObjectId> = Vec::new();
    let mut scanned = frontier.len();
    for index in 0..frontier.len() {
        match prepared.compare(frontier.codes(index)) {
            Dominance::Dominates => evicted.push(frontier.objects[index].id()),
            Dominance::DominatedBy => {
                is_pareto = false;
                evicted.clear();
                scanned = index + 1;
                break;
            }
            Dominance::Identical if on_identical == OnIdentical::Stop => {
                scanned = index + 1;
                break;
            }
            Dominance::Identical | Dominance::Incomparable => {}
        }
    }
    stats.record_comparisons(scanned as u64);
    frontier.remove_all(&evicted);
    FrontierUpdate {
        is_pareto,
        newly_inserted: is_pareto && frontier.insert(object, prepared.codes()),
        evicted,
    }
}

/// Adds `object` to `buffer` and evicts every buffered object it dominates
/// (`refreshParetoBufferSW`, Alg. 4). By Theorem 7.2 the evicted objects can
/// never become Pareto-optimal again.
pub(crate) fn refresh_buffer(
    prepared: &Prepared<'_>,
    buffer: &mut Frontier,
    object: &Object,
    stats: &mut MonitorStats,
) {
    stats.record_comparisons(buffer.len() as u64);
    let dominated: Vec<ObjectId> = (0..buffer.len())
        .filter(|&index| prepared.compare(buffer.codes(index)) == Dominance::Dominates)
        .map(|index| buffer.objects[index].id())
        .collect();
    buffer.remove_all(&dominated);
    buffer.insert(object, prepared.codes());
}

/// `mendParetoFrontierSW` (Alg. 4): promotes `candidate` into `frontier` if
/// no current frontier member dominates it. Returns whether it was promoted.
pub(crate) fn mend_frontier(
    preference: &CompiledPreference,
    frontier: &mut Frontier,
    candidate: &Object,
    stats: &mut MonitorStats,
) -> bool {
    let prepared = preference.prepare(candidate);
    let dominator = (0..frontier.len())
        .find(|&i| prepared.compare(frontier.codes(i)) == Dominance::DominatedBy);
    stats.record_comparisons(dominator.map_or(frontier.len(), |index| index + 1) as u64);
    if dominator.is_none() {
        frontier.insert(candidate, prepared.codes());
    }
    dominator.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{obj, preference};

    #[test]
    fn members_stay_in_id_order_with_their_codes() {
        // 1 ≻ 0 on the only attribute; value 7 is outside the universe.
        let compiled = preference(1, &[(0, 1, 0)]).compile();
        let mut frontier = Frontier::new(&compiled);
        let objects = [obj(5, &[7]), obj(2, &[0]), obj(9, &[1]), obj(3, &[0])];
        for object in &objects {
            assert!(frontier.insert(object, compiled.codes(object)));
        }
        assert!(!frontier.insert(&objects[1], compiled.codes(&objects[1])));
        assert_eq!(frontier.ids(), [2, 3, 5, 9].map(ObjectId::new));
        let code_of = |object: &Object| compiled.codes(object).collect::<Vec<u32>>();
        assert_eq!(frontier.codes(2), code_of(&objects[0]));
        assert_eq!(frontier.codes(3), code_of(&objects[2]));
        assert!(frontier.contains(ObjectId::new(3)) && !frontier.contains(ObjectId::new(4)));

        frontier.remove_all(&[ObjectId::new(2), ObjectId::new(5)]);
        assert_eq!(frontier.ids(), [3, 9].map(ObjectId::new));
        assert_eq!(frontier.codes(1), code_of(&objects[2]));
        assert!(frontier.remove(ObjectId::new(3)) && !frontier.remove(ObjectId::new(3)));
        assert_eq!(frontier.codes(0), code_of(&objects[2]));
    }

    #[test]
    fn recode_switches_every_member_to_the_new_relation() {
        let old = preference(2, &[(0, 1, 0), (1, 3, 2)]).compile();
        // Value 0 of attribute 0 drops out of the universe.
        let new = preference(2, &[(0, 1, 4), (1, 3, 2)]).compile();
        let mut frontier = Frontier::new(&old);
        let objects = [obj(1, &[0, 2]), obj(2, &[1, 3]), obj(3, &[4, 2])];
        for object in &objects {
            frontier.insert(object, old.codes(object));
        }
        frontier.recode(&new);
        for (index, object) in objects.iter().enumerate() {
            assert_eq!(
                frontier.codes(index),
                new.codes(object).collect::<Vec<u32>>()
            );
        }
        // o2 = ⟨1, 3⟩ now dominates o3 = ⟨4, 2⟩ and is incomparable to o1.
        let prepared = new.prepare(&objects[1]);
        assert_eq!(prepared.compare(frontier.codes(0)), Dominance::Incomparable);
        assert_eq!(prepared.compare(frontier.codes(2)), Dominance::Dominates);
    }
}
