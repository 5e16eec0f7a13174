//! # qhorn-service
//!
//! A concurrent multi-session learning **service** over the qhorn engine —
//! the serving layer the paper's DataPlay motivation assumes (§1, §5): a
//! long-lived server mediating many interactive question/answer dialogues
//! at once, each learning (and verifying) a user's intended query.
//!
//! * [`registry`] — a sharded, lock-striped session registry: TTL
//!   eviction to snapshots (LRU-capped via `max_snapshots`), transparent
//!   restore with transcript replay, a per-session state machine
//!   (`AwaitingAnswer → Learning → Verifying → Done/Failed`), and
//!   optional **durability** through `qhorn-store` — every exchange is
//!   appended to a checksummed log before the request returns, and
//!   [`Registry::open`] recovers all sessions after a crash;
//! * [`proto`] — the request/reply protocol (`CreateSession`,
//!   `NextQuestion`, `Answer`, `Correct` + replay, `Verify`,
//!   `EvaluateBatch`, `ExportQuery`, `CloseSession`, `UploadDataset` /
//!   `ListDatasets` / `DropDataset`, `Stats`, `Metrics`);
//! * [`dispatch`] — the shared request dispatcher both frontends funnel
//!   through (with the per-message latency timing hook);
//! * [`server`] — the protocol as JSON-lines over TCP, and a blocking
//!   [`Client`] speaking either transport;
//! * [`http`] — the same protocol as an HTTP/1.1 gateway
//!   ([`HttpServer`]): keep-alive, `Content-Length`/chunked bodies,
//!   status codes from [`ServiceError`], and `GET /metrics` Prometheus
//!   text exposition. Both servers run on one skeleton (bind, acceptor,
//!   a fixed worker pool, graceful shutdown) and read through one
//!   buffered frame reader, which both clients use too;
//! * [`metrics`] — lock-striped per-message latency histograms
//!   (fixed log-scale buckets), learner question counts per phase, and
//!   saturation telemetry (worker-pool queue depth, registry lock waits,
//!   store append/fsync timings) behind the health verdict at
//!   `GET /v1/health`;
//! * [`log`] — std-only structured logging: leveled JSON-lines events
//!   correlated to trace ids, per-target runtime-adjustable levels, and
//!   token-bucket rate limiting;
//! * [`trace`] — end-to-end request tracing: a bounded lock-striped span
//!   journal fed by every layer (dispatch → registry → learner steps →
//!   store), wire-exposed span trees (`GET /v1/trace/{id}`),
//!   trace listings with filters, per-session dialogue timelines, and an
//!   always-on slow-request log;
//! * [`batch`] — parallel batch evaluation of compiled queries, identical
//!   in output to the engine's sequential `exec::execute`;
//! * [`dataset`] — the server-side dataset catalog sessions run over:
//!   built-ins and user uploads behind shared `Arc<DataStore>`s, so
//!   concurrent sessions and snapshot restores reuse one built store
//!   (uploads are durably logged and recovered);
//! * [`error`] — [`ServiceError`].
//!
//! A learner's next question depends on the answers so far, so a
//! session's state between requests is its learner suspended at the
//! pending question: each session holds an engine
//! [`Dialogue`](qhorn_engine::session::Dialogue), and a request resumes
//! it on the request's own thread with the user's answer. No thread is
//! kept per session.
//!
//! ```
//! use qhorn_service::registry::{CreateSpec, Registry, RegistryConfig, StepOutcome};
//! use qhorn_engine::session::LearnerKind;
//!
//! let registry = Registry::open(RegistryConfig::default()).unwrap();
//! let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
//! let spec = CreateSpec {
//!     dataset: "chocolates".into(),
//!     size: 30,
//!     learner: LearnerKind::Qhorn1,
//!     max_questions: None,
//! };
//! let (id, mut outcome) = registry.create_session(spec).unwrap();
//! let learned = loop {
//!     match outcome {
//!         StepOutcome::Question(q) => {
//!             outcome = registry.answer(id, target.eval(&q.question)).unwrap();
//!         }
//!         StepOutcome::Learned { query, .. } => break query,
//!         other => panic!("{other:?}"),
//!     }
//! };
//! assert!(qhorn_core::query::equiv::equivalent(&learned, &target));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod dataset;
pub mod dispatch;
pub mod error;
mod frame;
pub mod http;
pub mod log;
pub mod metrics;
mod pool;
pub mod proto;
pub mod registry;
pub mod server;
pub mod trace;

pub use error::ServiceError;
pub use http::HttpServer;
pub use registry::{Registry, RegistryConfig, SweepReport};
pub use server::{Client, Server};

// Re-exported so clients configuring durability need only this crate.
pub use qhorn_store as store;
