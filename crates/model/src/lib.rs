//! # pm-model
//!
//! Data model shared by every crate in the pareto-monitor workspace:
//! strongly typed identifiers, attribute schemas with interned categorical
//! value domains, objects described by one value per attribute (a shared
//! immutable row), and append-only / sliding-window object streams.
//!
//! The model follows Section 3 of Sultana & Li, *Continuous Monitoring of
//! Pareto Frontiers on Partially Ordered Attributes for Many Users*
//! (EDBT 2018): a table of objects `O` over a set of categorical attributes
//! `D`, consumed by a set of users `C`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ids;
pub mod object;
pub mod partition;
pub mod schema;
pub mod stream;

pub use ids::{AttrId, ObjectId, UserId, ValueId};
pub use object::Object;
pub use partition::Partitioner;
pub use schema::{Attribute, Domain, Schema};
pub use stream::{ObjectStream, SlidingWindow, StreamEvent};
