//! Cluster coordinator: a replicated object stream over partitioned
//! `pm-server` nodes.
//!
//! `pm-coord` turns N `pm-server --node` processes into one logical
//! engine speaking the unchanged text protocol:
//!
//! - **Objects are replicated.** Every `INGEST` batch is stamped with a
//!   sequence number (the id of its first object — ids double as log
//!   positions) and fanned to all nodes as `SEQ <n> INGEST <rows>`, with a
//!   per-node pipelined barrier so log order is apply order everywhere.
//!   Each node applies the batch against the *same* deterministic id
//!   stream, so replicas are state-identical, not merely convergent.
//! - **Users are partitioned.** Each node registers only the preferences
//!   of the users it owns — the [`pm_model::Partitioner`] hash over the
//!   node count, the same scheme the engine uses for shards — so the
//!   per-user frontier work (the actual cost driver in the paper's
//!   workload) splits across machines. `REGISTER`, `UPDATE`,
//!   `UNREGISTER`, `FRONTIER`, `QUERY`-per-user routing, `EXPORT` and
//!   `SUBSCRIBE` go to the owning node only.
//! - **Reads merge.** `QUERY` unions target lists across nodes, `STATS`
//!   and `METRICS` roll the cluster up with a per-node breakdown,
//!   `SNAPSHOT` reports the floor of the nodes' durable positions.
//! - **Failures degrade, not corrupt.** A dead node's key range answers
//!   `ERR degraded node=<n>` while every other range keeps serving; the
//!   node recovers through its own WAL plus a replay of the coordinator's
//!   retained batch backlog, fenced by sequence number so a batch lands
//!   exactly at its announced position or not at all.
//!
//! Membership is a static topology file ([`topology`]); there is no
//! consensus layer in v1 — the coordinator is the single sequencer, and
//! an honest one: every consistency claim above is enforced with explicit
//! fences rather than assumed.

pub mod cluster;
pub mod harness;
pub mod node;
pub mod obs;
pub mod serve;
pub mod topology;

pub use cluster::{Cluster, ClusterConfig, Routed};
pub use harness::{spawn_coordinator, spawn_node, spawn_node_at, NodeHandle, NodeSpec, TextClient};
pub use node::{NodeClient, NodeInfo};
pub use obs::CoordMetrics;
pub use serve::{serve, serve_with_signal};
pub use topology::Topology;
