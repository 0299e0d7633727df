//! # pm-cluster
//!
//! Clustering of users whose preferences are strict partial orders —
//! Sections 5 and 6 of Sultana & Li (EDBT 2018).
//!
//! * [`similarity`] — the four exact similarity measures between clusters'
//!   common preference relations: intersection size, Jaccard, weighted
//!   intersection size and weighted Jaccard (Eq. 1–5), each once, on
//!   compiled bit-rows (word-wise AND + popcount) with the Hasse value
//!   weights of `pm_porder`'s one reduction.
//! * [`approx_similarity`] — the frequency-vector Jaccard and weighted
//!   Jaccard measures used when clustering for approximate common
//!   preference relations (Eq. 9–10).
//! * [`agglomerative`] — conventional hierarchical agglomerative clustering
//!   with a branch cut `h`, producing [`Cluster`]s of users together with
//!   their virtual-user preferences.
//! * [`approx`] — `GetApproxPreferenceTuples` (Alg. 3), constructing
//!   approximate common preference relations under thresholds θ1 and θ2.
//! * [`maintain`] — an incrementally maintained [`Clustering`] for dynamic
//!   user populations: online insertion joins the most similar cluster (or
//!   spins up a singleton), removal repairs only the affected cluster by
//!   re-intersecting the remaining members' compiled relations, and an
//!   in-place preference update diffs the old and new relations to decide
//!   between a stay-put re-AND-fold and a local repair + re-insertion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agglomerative;
pub mod approx;
pub mod approx_similarity;
pub mod maintain;
pub mod similarity;

pub use agglomerative::{cluster_users, Cluster, ClusteringConfig, ClusteringOutcome};
pub use approx::{approx_common_preference, approx_common_relation, ApproxConfig};
pub use approx_similarity::{ApproxMeasure, FrequencyVectors};
pub use maintain::{Clustering, Placement, Removal, Update};
pub use similarity::ExactMeasure;
