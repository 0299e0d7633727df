//! # pm-porder
//!
//! Strict partial orders over categorical attribute values, per-user
//! preferences, and object dominance — the data structures of Sections 3–5
//! of Sultana & Li (EDBT 2018).
//!
//! * [`Relation`] — a strict partial order `≻ᵈ_c` over one attribute's value
//!   domain, stored as its transitive closure in bit rows over the values it
//!   mentions, with incremental-closure insertion and validation of
//!   irreflexivity / asymmetry / transitivity.
//! * [`CompiledRelation`] / [`CompiledPreference`] — the immutable bitset
//!   form the monitoring hot path runs on: values interned to dense indices,
//!   the closure as one bit-row per value, `prefers` a single shift+mask and
//!   intersection a bitwise AND (+ popcount for the similarity measures).
//! * [`HasseDiagram`] — the transitive reduction of a relation, plus maximal
//!   values (Def. 5.3) and minimum distances from maximal values used by the
//!   weighted similarity measures (Eq. 4–5). One row-level reduction in
//!   [`hasse`] computes them, and [`CompiledRelation::value_weights`] runs
//!   the same reduction over a compiled universe.
//! * [`Preference`] — a user's (or virtual user's) preferences on all
//!   attributes, with the object-dominance test of Def. 3.2.
//! * [`Fingerprint`] / [`PreferenceInterner`] — canonical 128-bit preference
//!   fingerprints and the reference-counted interner that deduplicates
//!   compiled preferences across a large user population (Sec. 4's
//!   shared-preference premise cashed in at the representation layer).
//! * [`RelationUnion`] / [`PreferenceUniverse`] — the union of every
//!   observed relation (per attribute, as growable bit rows) and the
//!   deduplicated set of observed preferences: the dominance kernel behind
//!   exact history compaction in `pm-core`.
//! * [`naive_pareto_frontier`] — naive frontier computation used as a test
//!   oracle by the monitoring algorithms in `pm-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod fingerprint;
pub mod frontier;
pub mod hasse;
pub mod preference;
pub mod relation;
pub mod union;

pub use compiled::{
    CompiledPreference, CompiledRelation, MAX_PREFERENCE_VALUE, MAX_RELATION_VALUES,
};
pub use fingerprint::{Fingerprint, Interned, PreferenceInterner};
pub use frontier::naive_pareto_frontier;
pub use hasse::HasseDiagram;
pub use preference::{Dominance, Preference};
pub use relation::{Relation, RelationError};
pub use union::{PreferenceUniverse, RelationUnion};
