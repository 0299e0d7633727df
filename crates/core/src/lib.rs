//! # pm-core
//!
//! Continuous monitoring of Pareto frontiers on partially ordered attributes
//! for many users — the primary contribution of Sultana & Li (EDBT 2018).
//!
//! Given a set of users whose preferences are strict partial orders (one per
//! attribute) and a stream of objects, a [`Monitor`] answers, for every
//! arriving object, the set of *target users*: the users for whom the object
//! is Pareto-optimal (Def. 3.4).
//!
//! The paper's algorithms are one [`Monitor`] on two orthogonal axes — the
//! cluster [`Filter`] layer (absent, exact or approximate) and the
//! [`Lifetime`] of an object (forever, or a sliding window):
//!
//! | Paper | `filter` | `lifetime` |
//! |-------|----------|------------|
//! | Alg. 1 `Baseline` | `None` | [`Lifetime::History`] |
//! | Alg. 2 `FilterThenVerify` | exact common preferences | [`Lifetime::History`] |
//! | Sec. 6 `FilterThenVerifyApprox` | [`Filter::approx`] | [`Lifetime::History`] |
//! | Alg. 4 `BaselineSW` | `None` | [`Lifetime::Window`] |
//! | Alg. 5 `FilterThenVerifySW` | exact common preferences | [`Lifetime::Window`] |
//! | Sec. 7+6 `FilterThenVerifyApproxSW` | [`Filter::approx`] | [`Lifetime::Window`] |
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`monitor`] | [`Monitor`]: two-phase batched arrival and expiry, membership verbs, durable state |
//! | [`filter`] | [`Filter`]: clusters, virtual preferences, cluster repair |
//! | [`alive`] | [`Lifetime`] and the alive-object store behind it |
//! | [`history`] | [`History`]: the retained (optionally compacting) object history |
//! | `frontier` (private) | the frontier / buffer storage and the scan procedures of Alg. 1, 2 and 4 |
//! | [`delta`] | [`FrontierDelta`]: canonical per-arrival frontier changes |
//! | [`stats`], [`timers`] | work counters and optional latency histograms |
//! | [`accuracy`] | precision / recall / F-measure of Tables 11 and 12 |

//!
//! # The hot path
//!
//! Every procedure above relates *one* object — the arrival, the expired
//! object, a promotion candidate — with the members of one frontier. A
//! frontier therefore keeps, next to its objects (ascending object id =
//! arrival order, value rows shared with the window / history and every
//! other frontier), an index built for exactly that question: per attribute
//! a posting — a bitset over member positions — per value a member holds,
//! plus one posting shared by every value outside the preference's
//! universe. The members that may dominate an object are the AND over the
//! attributes of the OR of the postings of its value and of the values
//! beating it (a row of the closure's transpose,
//! [`pm_porder::CompiledRelation::predecessors`]); the members it may
//! dominate likewise from a closure row. Only candidates on an outside
//! value are confirmed against the member's own row. Because members sit
//! at their arrival rank, the comparison counter still reads what an
//! oldest-first scan would have counted — the first dominator's position —
//! so it is a pure function of the script a monitor is driven with,
//! `frontier()` needs no sort, and Alg. 5's oldest-first mending walks the
//! buffer's dominated members in order.
//!
//! Arrivals are applied a batch at a time ([`Monitor::process_batch`]):
//! first the cluster level for the whole batch on one thread (Phase A),
//! then the per-user work on up to `workers` threads (Phase B), each thread
//! taking contiguous chunks of verify entries — one per distinct preference
//! of a cluster where twins share — or, without a filter layer, of groups,
//! and replaying the batch against them. Lemma 4.6 is what makes
//! the split exact: once `P_U` has decided an arrival, a member's verify
//! step reads only that decision and the member's own frontier. Every
//! chunk canonicalises its own targets and deltas; chunks are merged as
//! sorted runs, and the comparison counter, a sum, is the same for any
//! batching and any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod alive;
pub mod delta;
pub mod filter;
mod frontier;
pub mod history;
pub mod monitor;
pub mod stats;
pub mod timers;

#[cfg(test)]
mod fixtures;

pub use accuracy::{AccuracyReport, ConfusionMatrix};
pub use alive::Lifetime;
pub use delta::FrontierDelta;
pub use filter::Filter;
pub use history::{History, HistoryMode};
pub use monitor::{Arrival, HistoryState, Monitor, MonitorState};
pub use stats::MonitorStats;
pub use timers::MonitorTimers;
