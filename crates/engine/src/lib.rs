//! # pm-engine
//!
//! A production-shaped serving layer on top of the single-threaded monitors
//! of `pm-core`.
//!
//! The paper's headline claim (Sultana & Li, EDBT 2018) is scalability to
//! *many users*: the per-arrival work of every monitor is a sum of
//! independent per-user (or per-cluster) frontier updates. This crate
//! exploits exactly that independence:
//!
//! * [`ShardedEngine`] hash-partitions the user population across `N` worker
//!   threads. Every shard owns a complete [`pm_core::Monitor`] of
//!   any backend ([`BackendSpec`]) restricted to its own users, receives
//!   every arriving object (objects are broadcast, users are partitioned),
//!   and reports the target users it is responsible for. The engine fans the
//!   per-shard target-user sets back into one [`pm_core::Arrival`] per
//!   object, in exactly the order and encoding the single-threaded monitors
//!   produce. For the exact backends (`Baseline`, `BaselineSw`, append-only
//!   `FilterThenVerify`) sharding is an implementation detail, never a
//!   semantic one; the approximate / sliding-window FilterThenVerify
//!   backends cluster per shard, so their approximation (but not their
//!   per-user exact-backend envelope) depends on the partition — see
//!   [`ShardedEngine`].
//! * Ingestion is batched and backpressured: shard inboxes are bounded
//!   [`std::sync::mpsc::sync_channel`]s, so a producer that outruns the
//!   shards blocks instead of exhausting memory.
//! * User membership is **dynamic**: [`ShardedEngine::register`] /
//!   [`ShardedEngine::unregister`] route a membership change to the owning
//!   shard, which compiles the preference, joins (or repairs) the
//!   best-fitting cluster for the FilterThenVerify backends, and backfills
//!   the user's frontier from the alive objects — no shard rebuild, no
//!   stream pause. Registrations are ordered with batches, so no arrival is
//!   dropped or duplicated around a membership change.
//! * [`EngineSnapshot`] rolls the per-shard [`pm_core::MonitorStats`] up
//!   into engine-level metrics: arrivals/sec, per-shard queue depths and
//!   user-partition skew.
//! * [`server`] exposes the engine over TCP (`INGEST`, `EXPIRE`, `QUERY`,
//!   `FRONTIER`, `REGISTER`, `UPDATE`, `UNREGISTER`, `SUBSCRIBE`,
//!   `UNSUBSCRIBE`, `HELLO`, `STATS`, `METRICS`, `HEALTH`), served by the
//!   `pm-server` binary. Verb handlers return a typed [`response::Response`]
//!   with two negotiated wire renderings — newline-delimited text lines and
//!   length-prefixed binary frames.
//! * [`reactor`] drives every connection — request/response *and* the
//!   `SUBSCRIBE` event streams — from one readiness-reactor thread over
//!   nonblocking sockets (via `pm-reactor`), with bounded per-connection
//!   outboxes and `ERR lagged` eviction as backpressure.
//! * [`obs`] wires the `pm-obs` observability layer through every one of
//!   those paths: per-verb request counters and latency histograms, a
//!   per-stage split of the ingest pipeline (parse, ordering-lock hold,
//!   shard queue wait, shard apply, fan-in), monitor-level timers, and the
//!   `METRICS` verb's Prometheus text-format exposition.
//!
//! Everything is `std`-only: threads and channels, no async runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod durability;
pub mod engine;
pub mod metrics;
pub mod obs;
pub mod protocol;
pub mod reactor;
pub mod response;
pub mod server;
mod shard;

pub use backend::BackendSpec;
pub use durability::{DurabilityConfig, RecoveryReport};
pub use engine::{
    shard_of, BatchTicket, DurableEngineState, EngineConfig, IngestTiming, ShardedEngine,
};
pub use metrics::{EngineSnapshot, ShardSnapshot};
pub use obs::{EngineMetrics, Verb};
pub use pm_core::HistoryMode;
pub use protocol::{parse_request, Request};
pub use reactor::{
    serve_with, serve_with_signal, shutdown_pair, ReactorConfig, Shutdown, ShutdownSignal,
};
pub use response::{render_frame, render_text, Response, WireMode};
pub use server::{EngineService, ServerConfig};
