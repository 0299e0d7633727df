//! Frontier deltas: the enter/leave events one arrival causes.
//!
//! Every monitor already knows, while processing an arrival, exactly which
//! objects entered and left which users' frontiers — the arriving object
//! enters the frontiers of its target users, the objects it dominates
//! leave, and (in the sliding-window family) the expiry that rides on the
//! same arrival removes the expired object and promotes buffered objects
//! back in (Def. 7.4 mending). [`FrontierDelta`] surfaces those membership
//! changes on the [`crate::Arrival`] so a serving layer can *push* frontier
//! updates to subscribers instead of making clients poll.
//!
//! Deltas are reported in **canonical net form**: for each `(user, object)`
//! pair at most one delta, the *net* membership change of the arrival
//! (an object promoted by expiry mending and immediately re-evicted by the
//! arriving object cancels out), sorted by `(user, object)`. Canonical form
//! makes the delta list a pure function of the pre- and post-arrival
//! frontier sets, so a sharded engine merging disjoint per-shard delta
//! lists reports byte-identical deltas to a single-threaded monitor.
//!
//! The monitor produces that form without expanding per member first:
//! Phase B folds each group's frontier edit to its net form once, in
//! ascending object order, and the monitor's ordered pass over the changed
//! groups' ascending member lists writes each member's copy of it in
//! `(user, object)` order (see [`crate::monitor`]). `DeltaLog`, which
//! canonicalises per-member events by sorting, survives as the test
//! reference for that pass.

use pm_model::{ObjectId, UserId};

/// One user's frontier membership change: `object` entered (`entered ==
/// true`) or left the Pareto frontier of `user`.
///
/// The derived ordering sorts by user, then object — the canonical order
/// [`crate::Arrival::deltas`] is reported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrontierDelta {
    /// The user whose frontier changed.
    pub user: UserId,
    /// The object that entered or left.
    pub object: ObjectId,
    /// `true` when the object entered the frontier, `false` when it left.
    pub entered: bool,
}

impl FrontierDelta {
    /// An enter event.
    pub fn enter(user: UserId, object: ObjectId) -> Self {
        Self {
            user,
            object,
            entered: true,
        }
    }

    /// A leave event.
    pub fn leave(user: UserId, object: ObjectId) -> Self {
        Self {
            user,
            object,
            entered: false,
        }
    }
}

/// Collects raw membership transitions during one arrival and canonicalizes
/// them into the net delta list (see the module docs).
///
/// Only *real* transitions may be recorded: an `enter` for an insert that
/// actually added a new key, a `leave` for a remove that actually hit. Under
/// that contract the transitions of one `(user, object)` pair alternate, so
/// the net effect is `-1`, `0` or `+1` and [`DeltaLog::finish`] folds each
/// pair to at most one delta.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct DeltaLog {
    events: Vec<FrontierDelta>,
}

#[cfg(test)]
impl DeltaLog {
    /// Records that `object` was newly inserted into `user`'s frontier.
    pub(crate) fn enter(&mut self, user: UserId, object: ObjectId) {
        self.events.push(FrontierDelta::enter(user, object));
    }

    /// Records that `object` was removed from `user`'s frontier.
    pub(crate) fn leave(&mut self, user: UserId, object: ObjectId) {
        self.events.push(FrontierDelta::leave(user, object));
    }

    /// Canonicalizes the raw transitions: cancels enter/leave pairs of the
    /// same `(user, object)` and returns the survivors sorted by
    /// `(user, object)`.
    pub(crate) fn finish(mut self) -> Vec<FrontierDelta> {
        self.events
            .sort_unstable_by_key(|d| (d.user, d.object, d.entered));
        let mut out = Vec::with_capacity(self.events.len());
        let mut i = 0;
        while i < self.events.len() {
            let mut j = i + 1;
            let mut net: i32 = if self.events[i].entered { 1 } else { -1 };
            while j < self.events.len()
                && self.events[j].user == self.events[i].user
                && self.events[j].object == self.events[i].object
            {
                net += if self.events[j].entered { 1 } else { -1 };
                j += 1;
            }
            debug_assert!(
                (-1..=1).contains(&net),
                "transitions of one (user, object) pair must alternate"
            );
            match net {
                1 => out.push(FrontierDelta::enter(
                    self.events[i].user,
                    self.events[i].object,
                )),
                -1 => out.push(FrontierDelta::leave(
                    self.events[i].user,
                    self.events[i].object,
                )),
                _ => {}
            }
            i = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId::new(i)
    }

    fn o(i: u64) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn finish_sorts_by_user_then_object() {
        let mut log = DeltaLog::default();
        log.enter(u(2), o(5));
        log.leave(u(0), o(9));
        log.enter(u(0), o(1));
        assert_eq!(
            log.finish(),
            vec![
                FrontierDelta::enter(u(0), o(1)),
                FrontierDelta::leave(u(0), o(9)),
                FrontierDelta::enter(u(2), o(5)),
            ]
        );
    }

    #[test]
    fn finish_cancels_enter_leave_pairs() {
        // A buffered object promoted by expiry mending and re-evicted by
        // the arriving object nets to no delta at all.
        let mut log = DeltaLog::default();
        log.enter(u(1), o(3));
        log.leave(u(1), o(3));
        log.enter(u(1), o(4));
        assert_eq!(log.finish(), vec![FrontierDelta::enter(u(1), o(4))]);
    }

    #[test]
    fn finish_keeps_distinct_users_apart() {
        let mut log = DeltaLog::default();
        log.leave(u(1), o(3));
        log.enter(u(2), o(3));
        assert_eq!(
            log.finish(),
            vec![
                FrontierDelta::leave(u(1), o(3)),
                FrontierDelta::enter(u(2), o(3)),
            ]
        );
    }

    #[test]
    fn delta_ordering_is_user_then_object() {
        let mut deltas = [
            FrontierDelta::enter(u(1), o(2)),
            FrontierDelta::leave(u(0), o(7)),
            FrontierDelta::enter(u(0), o(3)),
        ];
        deltas.sort_unstable();
        assert_eq!(deltas[0].user, u(0));
        assert_eq!(deltas[0].object, o(3));
        assert_eq!(deltas[2].user, u(1));
    }
}
