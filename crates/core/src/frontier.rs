//! Frontier and Pareto-frontier-buffer primitives: the procedures of
//! Alg. 1, 2 and 4 that every [`crate::Monitor`] configuration is
//! assembled from. All of them run on the compiled (bitset) preference
//! form, and each invocation of the dominance comparator counts as one
//! comparison.

use std::collections::HashMap;

use pm_model::{Object, ObjectId};
use pm_porder::{CompiledPreference, Dominance};

use crate::stats::MonitorStats;

/// A Pareto frontier (or Def. 7.4 buffer): objects are stored by value so
/// no shared catalog is needed and expired/dominated objects are dropped
/// eagerly.
pub(crate) type Frontier = HashMap<ObjectId, Object>;

/// The ids of `frontier`, ascending.
pub(crate) fn sorted_ids(frontier: &Frontier) -> Vec<ObjectId> {
    let mut ids: Vec<ObjectId> = frontier.keys().copied().collect();
    ids.sort_unstable();
    ids
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
/// which existing entries it evicted — exactly what a delta log needs.
pub(crate) struct FrontierUpdate {
    pub(crate) is_pareto: bool,
    pub(crate) newly_inserted: bool,
    pub(crate) evicted: Vec<ObjectId>,
}

/// Updates one frontier with an arriving object: the object enters unless a
/// member dominates it, and every member it dominates leaves.
pub(crate) fn update_frontier(
    preference: &CompiledPreference,
    frontier: &mut Frontier,
    object: &Object,
    on_identical: OnIdentical,
    stats: &mut MonitorStats,
) -> FrontierUpdate {
    let mut is_pareto = true;
    let mut dominated: Vec<ObjectId> = Vec::new();
    for existing in frontier.values() {
        stats.record_comparison();
        match preference.compare(object, existing) {
            Dominance::Dominates => dominated.push(existing.id()),
            Dominance::DominatedBy => {
                is_pareto = false;
                dominated.clear();
                break;
            }
            Dominance::Identical if on_identical == OnIdentical::Stop => break,
            Dominance::Identical | Dominance::Incomparable => {}
        }
    }
    dominated.retain(|id| frontier.remove(id).is_some());
    let newly_inserted = is_pareto && frontier.insert(object.id(), object.clone()).is_none();
    FrontierUpdate {
        is_pareto,
        newly_inserted,
        evicted: dominated,
    }
}

/// Adds `object` to `buffer` and evicts every buffered object it dominates
/// (`refreshParetoBufferSW`, Alg. 4). By Theorem 7.2 the evicted objects can
/// never become Pareto-optimal again.
pub(crate) fn refresh_buffer(
    preference: &CompiledPreference,
    buffer: &mut Frontier,
    object: &Object,
    stats: &mut MonitorStats,
) {
    let mut dominated = Vec::new();
    for existing in buffer.values() {
        stats.record_comparison();
        if preference.compare(object, existing) == Dominance::Dominates {
            dominated.push(existing.id());
        }
    }
    for id in dominated {
        buffer.remove(&id);
    }
    buffer.insert(object.id(), object.clone());
}

/// `mendParetoFrontierSW` (Alg. 4): promotes `candidate` into `frontier` if
/// no current frontier member dominates it. Returns whether it was promoted.
pub(crate) fn mend_frontier(
    preference: &CompiledPreference,
    frontier: &mut Frontier,
    candidate: &Object,
    stats: &mut MonitorStats,
) -> bool {
    for existing in frontier.values() {
        stats.record_comparison();
        if preference.compare(existing, candidate) == Dominance::Dominates {
            return false;
        }
    }
    frontier.insert(candidate.id(), candidate.clone());
    true
}

/// Buffered objects in arrival order. Promotions must be attempted oldest
/// first so that a promoted object is visible when its (younger) dominated
/// peers are checked.
pub(crate) fn in_arrival_order(buffer: &Frontier) -> Vec<Object> {
    let mut objects: Vec<Object> = buffer.values().cloned().collect();
    objects.sort_by_key(Object::id);
    objects
}
