//! # qhorn-engine
//!
//! A small in-memory execution engine for qhorn queries over nested
//! relations, plus the DataPlay-style interactive layer the paper's
//! introduction motivates (§1, §5):
//!
//! * [`storage`] — object stores in the Boolean and data domains;
//! * [`plan`] — compiled queries, re-exported from the core evaluation
//!   kernel ([`qhorn_core::kernel`]) that every layer shares;
//! * [`exec`] — execution over a store with signature-level deduplication;
//! * [`explain`] — EXPLAIN-style verdicts with failure reasons;
//! * [`persist`] — JSON persistence for stores and learned queries;
//! * [`session`] — learning/verification sessions that realize the
//!   learner's Boolean membership questions as concrete data objects,
//!   preferring real stored objects over synthesized ones (§5's
//!   "arbitrary examples" rebuttal), and support response correction with
//!   transcript replay ("noisy users", §5).
//!
//! ```
//! use qhorn_engine::{storage::DataStore, exec};
//! use qhorn_engine::plan::CompiledQuery;
//! use qhorn_relation::datasets::chocolates;
//!
//! let store = DataStore::from_relation(
//!     chocolates::fig1_boxes(),
//!     chocolates::booleanizer(),
//! ).unwrap();
//! let plan = CompiledQuery::compile(&chocolates::intro_query());
//! let hits = exec::execute(&plan, store.boolean());
//! assert!(hits.is_empty(), "neither Fig. 1 box matches the intent");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod explain;
pub mod persist;
pub mod plan;
pub mod session;
pub mod signature;
pub mod storage;

pub use plan::CompiledQuery;
pub use session::{Dialogue, LearnerKind, RealizedQuestion, Session, Step};
pub use storage::{DataStore, ObjectId, Store};
