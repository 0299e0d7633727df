//! The alive-object store: the lifetime axis of a [`crate::Monitor`].
//!
//! Append-only monitoring (Alg. 1–2) and sliding-window monitoring
//! (Alg. 4–5) differ only in which objects are *alive*: everything ever
//! ingested (kept in a [`History`] so late registrations can be
//! backfilled), or the `W` most recent objects. `Alive` is the only code
//! that knows which of the two a monitor runs on: it decides what a
//! backfill replays, whether an arrival expires an object, whether the
//! Def. 7.4 Pareto frontier buffers exist, and what a snapshot persists.

use std::sync::Arc;

use pm_model::{Object, SlidingWindow};
use pm_obs::LogHistogram;
use pm_porder::{CompiledPreference, Preference};

use crate::frontier::{refresh_buffer, update_frontier, Frontier, OnIdentical};
use crate::history::{History, HistoryMode};
use crate::monitor::MonitorState;
use crate::stats::MonitorStats;

/// How long an ingested object stays alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifetime {
    /// Append-only (Alg. 1–2): objects never expire, and the ingested
    /// history is retained under the given discipline for backfill.
    History(HistoryMode),
    /// Sliding window (Alg. 4–5): only the `W` most recent objects are
    /// alive. `W` must be positive.
    Window(usize),
}

impl Lifetime {
    /// Append-only with an unlimited history: backfill is exact for any
    /// preference.
    pub const UNLIMITED: Lifetime = Lifetime::History(HistoryMode::Unlimited);
}

/// The alive objects of one monitor (see the module docs).
// One store per monitor: the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum Alive {
    History(History),
    Window(SlidingWindow),
}

impl Alive {
    pub(crate) fn new(lifetime: Lifetime) -> Self {
        match lifetime {
            Lifetime::History(mode) => Alive::History(History::new(mode)),
            Lifetime::Window(size) => Alive::Window(SlidingWindow::new(size)),
        }
    }

    /// The lifetime this store was built for.
    pub(crate) fn lifetime(&self) -> Lifetime {
        match self {
            Alive::History(history) => Lifetime::History(history.mode()),
            Alive::Window(window) => Lifetime::Window(window.capacity()),
        }
    }

    /// The retained history, unless this is a window.
    pub(crate) fn history(&self) -> Option<&History> {
        match self {
            Alive::History(history) => Some(history),
            Alive::Window(_) => None,
        }
    }

    /// Whether objects expire — and with that, whether the Def. 7.4 buffers
    /// exist and a cluster whose common relation changed must rebuild its
    /// state by replay (an append-only `P_U` stays a sound filter as is).
    pub(crate) fn expires(&self) -> bool {
        matches!(self, Alive::Window(_))
    }

    /// Whether a replay provably reproduces the live state of a user who
    /// was present from the start, so users with identical preferences may
    /// share one frontier. True for a window (the complete alive set) and
    /// for unlimited and uncapped compacting histories (compaction never
    /// drops an object an *observed* preference's frontier needs); false
    /// under a compacting history's hard cap, where backfill is best-effort
    /// over the retained set and may legitimately differ from a live twin.
    pub(crate) fn is_lossless(&self) -> bool {
        match self {
            Alive::History(history) => matches!(
                history.mode(),
                HistoryMode::Unlimited | HistoryMode::Compact { cap: None }
            ),
            Alive::Window(_) => true,
        }
    }

    /// Admits an arriving object, returning the object it pushed out of the
    /// window (never one for a history).
    pub(crate) fn admit(&mut self, object: &Object) -> Option<Object> {
        match self {
            Alive::History(history) => {
                history.push(object.clone());
                None
            }
            Alive::Window(window) => window.push(object.clone()).expired,
        }
    }

    /// Widens a compacting history's eviction universe (no-op otherwise).
    pub(crate) fn observe(&mut self, preference: &Preference) {
        if let Alive::History(history) = self {
            history.observe(preference);
        }
    }

    /// The frontier a user holding `preference` from the start would have
    /// over the alive objects. A window replays oldest-first; so does an
    /// unlimited history; a compacting history dominance-tests one
    /// representative per distinct value vector (oldest group first, see
    /// [`History::grouped`]) and, when it survives,
    /// admits the whole id list at once (identical objects are
    /// frontier-equivalent, Def. 3.2, and a later dominating arrival evicts
    /// every duplicate in one frontier scan), saving a full comparison pass
    /// per duplicate. Replay reports no deltas and no notifications.
    pub(crate) fn replay_frontier(
        &self,
        preference: &CompiledPreference,
        stats: &mut MonitorStats,
    ) -> Frontier {
        let mut frontier = Frontier::new(preference);
        let mut replay = |frontier: &mut Frontier, object: &Object| {
            let prepared = preference.prepare(object);
            update_frontier(&prepared, frontier, object, OnIdentical::Stop, stats).is_pareto
        };
        match self {
            Alive::Window(window) => {
                for object in window.iter() {
                    replay(&mut frontier, object);
                }
            }
            Alive::History(history) => match history.grouped() {
                Some(groups) => {
                    for (values, ids) in groups {
                        let representative = Object::new(ids[0], values.to_vec());
                        if replay(&mut frontier, &representative) {
                            for &id in ids.iter().skip(1) {
                                let twin = representative.with_id(id);
                                frontier.insert(&twin, preference.codes(&twin));
                            }
                        }
                    }
                }
                None => {
                    for object in history.iter() {
                        replay(&mut frontier, &object);
                    }
                }
            },
        }
        frontier
    }

    /// The Pareto frontier buffer (Def. 7.4) a user holding `preference`
    /// from the start would have over the window; empty for a history,
    /// where nothing expires and so nothing is ever promoted.
    pub(crate) fn replay_buffer(
        &self,
        preference: &CompiledPreference,
        stats: &mut MonitorStats,
    ) -> Frontier {
        let mut buffer = Frontier::new(preference);
        if let Alive::Window(window) = self {
            for object in window.iter() {
                refresh_buffer(&preference.prepare(object), &mut buffer, object, stats);
            }
        }
        buffer
    }

    /// Attaches the compaction-sweep timer (a window never sweeps).
    pub(crate) fn set_sweep_timer(&mut self, timer: Option<Arc<LogHistogram>>) {
        if let Alive::History(history) = self {
            history.set_sweep_timer(timer);
        }
    }

    /// Fills the history gauges of `stats` (they stay zero for a window,
    /// whose alive set is bounded by construction).
    pub(crate) fn fill_gauges(&self, stats: &mut MonitorStats) {
        if let Some(history) = self.history() {
            stats.history_objects = history.len() as u64;
            stats.history_evicted = history.evicted();
            stats.history_bytes = history.approx_bytes();
        }
    }

    /// The durable form: the history state, or the window content oldest
    /// first (a window monitor's state is a pure function of the
    /// preferences and the last `W` objects in arrival order).
    pub(crate) fn export(&self, stats: MonitorStats) -> MonitorState {
        match self {
            Alive::History(history) => MonitorState {
                history: Some(history.export_state()),
                window: None,
                stats,
            },
            Alive::Window(window) => MonitorState {
                history: None,
                window: Some(window.iter().cloned().collect()),
                stats,
            },
        }
    }

    /// Installs state exported by [`Self::export`] verbatim; a part that
    /// does not match this store's kind is ignored.
    pub(crate) fn import(&mut self, state: MonitorState) {
        match self {
            Alive::History(history) => {
                if let Some(exported) = state.history {
                    history.import_state(exported);
                }
            }
            Alive::Window(window) => {
                for object in state.window.into_iter().flatten() {
                    let _ = window.push(object);
                }
            }
        }
    }
}
