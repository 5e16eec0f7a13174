//! The JSON-lines wire protocol.
//!
//! One request per line, one reply per line, both as single JSON objects
//! tagged by a `"type"` field. Queries travel in two forms: the
//! `qhorn-lang` shorthand (human-readable, e.g. `all x1 -> x2  some x3`)
//! and exact structural JSON (`query_json`), so clients can round-trip
//! queries without reparsing ambiguity.
//!
//! ```text
//! → {"type":"create_session","dataset":"chocolates","size":40,"learner":"qhorn1"}
//! ← {"type":"created","session":1,"step":{"kind":"question","question":{...},"index":0,...}}
//! → {"type":"answer","session":1,"response":"NonAnswer"}
//! ← {"type":"step","session":1,"step":{"kind":"question",...}}
//! ...
//! ← {"type":"step","session":1,"step":{"kind":"learned","query":"∀x1 ∃x2x3",...}}
//! ```

use crate::dataset::{DatasetInfo, DEFAULT_SIZE};
use crate::error::ServiceError;
use crate::metrics::{MetricsSnapshot, SaturationSnapshot};
use crate::registry::{HealthReport, QuestionInfo, RegistryStats, SessionResources, StepOutcome};
use crate::trace::{LayerProfile, TimelineEvent, TraceSummary, TraceTree};
use qhorn_core::{Obj, Query, Response};
use qhorn_engine::exec::ExecStats;
use qhorn_engine::persist::corrections;
use qhorn_engine::session::LearnerKind;
use qhorn_json::wire::map;
use qhorn_relation::DatasetDef;
use qhorn_store::StoreStats;

/// The `list_traces` limit applied when the wire field is absent.
pub const DEFAULT_TRACE_LIMIT: u64 = 50;

/// A client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open a session over a catalog dataset and start learning.
    CreateSession {
        /// Catalog dataset name (built-in, see [`crate::dataset::NAMES`],
        /// or uploaded).
        dataset: String,
        /// Object count for generated datasets (an absent wire field
        /// defaults to [`DEFAULT_SIZE`]; an explicit `0` is rejected).
        size: usize,
        /// `"qhorn1"` or `"role_preserving"`.
        learner: LearnerKind,
        /// Optional hard question budget.
        max_questions: Option<usize>,
    },
    /// Register a user-defined dataset with the catalog (durably, when a
    /// store is configured): sessions can then be created over its name.
    UploadDataset {
        /// The complete definition (name, schema, objects, propositions,
        /// hints) — the wire body flattens its fields.
        def: DatasetDef,
    },
    /// Enumerate the catalog: built-ins plus uploads.
    ListDatasets,
    /// Remove an uploaded dataset from the catalog (durably). Built-ins
    /// cannot be dropped.
    DropDataset {
        /// The uploaded dataset's name.
        name: String,
    },
    /// Re-fetch the pending question (idempotent).
    NextQuestion {
        /// Session id.
        session: u64,
    },
    /// Label the pending question.
    Answer {
        /// Session id.
        session: u64,
        /// The user's label.
        response: Response,
    },
    /// Correct earlier responses by transcript index and replay.
    Correct {
        /// Session id.
        session: u64,
        /// `(transcript index, corrected label)` pairs.
        corrections: Vec<(usize, Response)>,
    },
    /// Verify the learned query (or an explicit one) against the user.
    Verify {
        /// Session id.
        session: u64,
        /// Optional shorthand query; defaults to the learned query.
        query: Option<String>,
    },
    /// Evaluate a query over a dataset (or the session's store) with the
    /// parallel batch path.
    EvaluateBatch {
        /// Evaluate over this session's store (and default to its
        /// learned query). Mutually exclusive with `dataset`.
        session: Option<u64>,
        /// Evaluate over a catalog dataset (built-in or uploaded).
        dataset: Option<String>,
        /// Object count for generated datasets (an absent wire field
        /// defaults to [`DEFAULT_SIZE`]; ignored with `session`).
        size: usize,
        /// Shorthand query text; required unless `session` supplies one.
        query: Option<String>,
        /// Worker threads for the parallel evaluation.
        workers: usize,
    },
    /// Export the learned query.
    ExportQuery {
        /// Session id.
        session: u64,
        /// `"ascii"`, `"unicode"`, or `"json"`.
        format: String,
    },
    /// Close a session for good: drops the live entry and snapshot, and
    /// (with a durable store) logs the removal so recovery skips it.
    CloseSession {
        /// Session id.
        session: u64,
    },
    /// Aggregate service counters.
    Stats,
    /// Latency histograms and per-phase question counts (the same data
    /// `GET /metrics` renders as Prometheus text).
    Metrics,
    /// Fetch one trace's span tree from the journal (or the slow log).
    GetTrace {
        /// The trace id as hex (as echoed in `X-Qhorn-Trace-Id` or the
        /// JSON-lines `trace_id` envelope field).
        id: String,
    },
    /// List recent traces, newest first, with optional filters.
    ListTraces {
        /// Keep only traces at least this long.
        min_duration_nanos: Option<u64>,
        /// Keep only traces whose root request was this message kind.
        kind: Option<String>,
        /// Keep only traces touching this session.
        session: Option<u64>,
        /// List the slow-request log instead of the journal.
        slow_only: bool,
        /// Maximum summaries returned (`0` = unlimited).
        limit: u64,
    },
    /// Reconstruct one session's dialogue timeline from the journal.
    SessionTimeline {
        /// Session id.
        session: u64,
    },
    /// Saturation health check: pool queue depths, busy-worker
    /// fractions, lock waits, and an `ok`/`degraded`/`saturated` verdict.
    Health,
    /// The always-on self-profile: per-layer span counts and self/total
    /// time accumulated since start (or the last reset).
    Profile {
        /// Zero the accumulators after reading them.
        reset: bool,
    },
    /// Per-session resource accounting (questions by phase, transcript
    /// bytes, store bytes, kernel time).
    SessionResources {
        /// Session id.
        session: u64,
    },
    /// Adjust the tracer's runtime knobs. Fields left absent keep their
    /// current values; out-of-bounds values are rejected with a 422.
    SetTraceConfig {
        /// New slow-request threshold in milliseconds
        /// (`1..=600_000`).
        slow_threshold_ms: Option<u64>,
        /// New journal sampling rate: keep every Nth non-slow trace
        /// (`0` disables journaling of non-slow traces; max `1_000_000`).
        sample_every: Option<u64>,
    },
}

impl Request {
    /// The session this request targets, when it names one (used to tag
    /// the dispatch root span before the registry is even consulted).
    #[must_use]
    pub fn session_id(&self) -> Option<u64> {
        match self {
            Request::NextQuestion { session }
            | Request::Answer { session, .. }
            | Request::Correct { session, .. }
            | Request::Verify { session, .. }
            | Request::ExportQuery { session, .. }
            | Request::CloseSession { session }
            | Request::SessionTimeline { session }
            | Request::SessionResources { session } => Some(*session),
            Request::EvaluateBatch { session, .. } => *session,
            _ => None,
        }
    }

    /// This kind's index into [`crate::metrics::MESSAGE_KINDS`].
    #[must_use]
    pub fn kind_index(&self) -> usize {
        let kind = self.kind();
        crate::metrics::MESSAGE_KINDS
            .iter()
            .position(|&k| k == kind)
            .expect("every request kind is in MESSAGE_KINDS")
    }
}

/// One step of a session dialogue, as shipped to the client.
#[derive(Clone, Debug, PartialEq)]
pub enum StepReply {
    /// A membership question needs a label.
    Question {
        /// The Boolean-domain question.
        question: Obj,
        /// Rendering of the realized data object.
        rendered: String,
        /// Whether the example came from the store.
        from_store: bool,
        /// The transcript position the answer will take (the session's
        /// transcript holds the user's answers alone): the index
        /// `Correct` names it by.
        index: usize,
    },
    /// Learning finished successfully.
    Learned {
        /// `qhorn-lang` shorthand of the learned query.
        query: String,
        /// Exact structural form.
        query_json: Query,
        /// Questions answered in the session so far.
        questions: usize,
    },
    /// Learning failed.
    Failed {
        /// The learner's message.
        message: String,
    },
    /// Verification finished.
    Verified {
        /// `true` iff the user agreed everywhere.
        verified: bool,
    },
}

impl From<StepOutcome> for StepReply {
    fn from(o: StepOutcome) -> Self {
        match o {
            StepOutcome::Question(q) => StepReply::Question {
                question: q.question,
                rendered: q.rendered,
                from_store: q.from_store,
                index: q.index,
            },
            StepOutcome::Learned { query, questions } => StepReply::Learned {
                query: qhorn_lang::printer::to_unicode(&query),
                query_json: query,
                questions,
            },
            StepOutcome::Failed { message } => StepReply::Failed { message },
            StepOutcome::Verified { verified } => StepReply::Verified { verified },
        }
    }
}

impl StepReply {
    /// The question info, if this step carries one.
    #[must_use]
    pub fn as_question(&self) -> Option<QuestionInfo> {
        match self {
            StepReply::Question {
                question,
                rendered,
                from_store,
                index,
            } => Some(QuestionInfo {
                question: question.clone(),
                rendered: rendered.clone(),
                from_store: *from_store,
                index: *index,
            }),
            _ => None,
        }
    }
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Session opened; first step attached.
    Created {
        /// The new session id.
        session: u64,
        /// The first dialogue step (normally a question).
        step: StepReply,
    },
    /// A dialogue step for an existing session.
    Step {
        /// Session id.
        session: u64,
        /// The step.
        step: StepReply,
    },
    /// Batch evaluation result.
    Batch {
        /// Ids of the answer objects, ascending.
        answers: Vec<u32>,
        /// Execution statistics (objects vs signatures evaluated shows
        /// the dedup effectiveness of the signature index).
        stats: ExecStats,
        /// Worker threads used.
        workers: usize,
    },
    /// Exported query text.
    Exported {
        /// The query in the requested format.
        text: String,
    },
    /// Session closed.
    Closed {
        /// The closed session's id.
        session: u64,
    },
    /// Dataset registered with the catalog.
    DatasetUploaded {
        /// The new entry, as `ListDatasets` would report it.
        info: DatasetInfo,
    },
    /// The catalog listing.
    Datasets {
        /// Built-ins first, then uploads in name order.
        datasets: Vec<DatasetInfo>,
    },
    /// Uploaded dataset removed from the catalog.
    DatasetDropped {
        /// The removed dataset's name.
        name: String,
    },
    /// Aggregate counters.
    Stats(RegistryStats),
    /// Latency histograms and per-phase question counts.
    Metrics(MetricsSnapshot),
    /// One trace's span tree.
    Trace(crate::trace::TraceTree),
    /// Trace summaries, newest first.
    Traces {
        /// The (filtered) listing.
        traces: Vec<crate::trace::TraceSummary>,
    },
    /// One session's dialogue timeline.
    Timeline {
        /// Session id the timeline was asked for.
        session: u64,
        /// Request and learner-phase events, oldest first.
        events: Vec<crate::trace::TimelineEvent>,
        /// The session's resource accounting (`None` when the registry
        /// no longer knows the session — its timeline survives in the
        /// journal either way). Asking about an evicted session restores
        /// it, so counters then read as since-restore. Omitted from the
        /// wire when absent.
        resources: Option<SessionResources>,
    },
    /// The saturation health check's verdict and signals.
    Health(HealthReport),
    /// The always-on self-profile, one entry per instrumented layer.
    Profile {
        /// Seconds since process start (normalizes the accumulators).
        uptime_seconds: u64,
        /// Per-layer accumulators, in [`crate::trace::PROFILE_LAYERS`]
        /// order, zero layers included.
        layers: Vec<LayerProfile>,
    },
    /// One session's resource accounting.
    SessionResources(SessionResources),
    /// The tracer's effective runtime config after a `set_trace_config`.
    TraceConfig {
        /// Slow-request threshold in milliseconds.
        slow_threshold_ms: u64,
        /// Journal sampling rate (keep every Nth non-slow trace).
        sample_every: u64,
    },
    /// Request-level failure.
    Error {
        /// Human-readable message.
        message: String,
    },
}

impl From<ServiceError> for Reply {
    fn from(e: ServiceError) -> Self {
        Reply::Error {
            message: e.to_string(),
        }
    }
}

impl Reply {
    /// The session this reply concerns, when it names one (used to tag
    /// the dispatch root span for replies that mint the id, e.g.
    /// `create_session`).
    #[must_use]
    pub fn session_id(&self) -> Option<u64> {
        match self {
            Reply::Created { session, .. }
            | Reply::Step { session, .. }
            | Reply::Closed { session }
            | Reply::Timeline { session, .. } => Some(*session),
            Reply::SessionResources(r) => Some(r.session),
            _ => None,
        }
    }

    /// A stable label for what the request produced — the dispatch root
    /// span's `outcome` attribute (and the timeline's event detail): the
    /// reply's wire tag, or the step's for dialogue steps.
    #[must_use]
    pub fn outcome_label(&self) -> &'static str {
        match self {
            Reply::Created { step, .. } | Reply::Step { step, .. } => step.kind(),
            other => other.kind(),
        }
    }
}

// ---------------------------------------------------------------------------
// JSON conversions
// ---------------------------------------------------------------------------

// An absent `size` means [`DEFAULT_SIZE`]; an explicit value (including
// `0`, which the catalog rejects) passes through untouched. Optional
// `list_traces` filters, `reset` and the trace-config knobs are omitted
// when unset, so the bare `GET` bodies are just `{"type":...}`.
qhorn_json::wire! {
    enum Request tag "type" "request type" {
        CreateSession = "create_session" {
            dataset: String,
            size: usize [default = DEFAULT_SIZE],
            learner: LearnerKind,
            max_questions: Option<usize> [default],
        },
        UploadDataset = "upload_dataset" { def: DatasetDef [flatten] },
        ListDatasets = "list_datasets",
        DropDataset = "drop_dataset" { name: String },
        NextQuestion = "next_question" { session: u64 },
        Answer = "answer" { session: u64, response: Response },
        Correct = "correct" {
            session: u64,
            corrections: Vec<(usize, Response)> [with = corrections],
        },
        Verify = "verify" { session: u64, query: Option<String> [default] },
        EvaluateBatch = "evaluate_batch" {
            session: Option<u64> [default],
            dataset: Option<String> [default],
            size: usize [default = DEFAULT_SIZE],
            query: Option<String> [default],
            workers: usize [default = 1],
        },
        ExportQuery = "export_query" {
            session: u64,
            format: String [default = "unicode".to_string()],
        },
        CloseSession = "close_session" { session: u64 },
        Stats = "stats",
        Metrics = "metrics",
        GetTrace = "get_trace" { id: String },
        ListTraces = "list_traces" {
            min_duration_nanos: Option<u64> [skip],
            kind: Option<String> [skip],
            session: Option<u64> [skip],
            slow_only: bool [skip],
            limit: u64 [default = DEFAULT_TRACE_LIMIT],
        },
        SessionTimeline = "session_timeline" { session: u64 },
        Health = "health",
        Profile = "profile" { reset: bool [skip] },
        SessionResources = "session_resources" { session: u64 },
        SetTraceConfig = "set_trace_config" {
            slow_threshold_ms: Option<u64> [skip],
            sample_every: Option<u64> [skip],
        },
    }
}

qhorn_json::wire! {
    enum StepReply tag "kind" "step kind" {
        Question = "question" {
            question: Obj,
            rendered: String,
            from_store: bool,
            index: usize,
        },
        Learned = "learned" { query: String, query_json: Query, questions: usize },
        Failed = "failed" { message: String },
        Verified = "verified" { verified: bool },
    }
}

// Additive versioning: `batch_threads_used` is absent on pre-threading
// encodings, `uptime_seconds` on pre-observability ones; `store` is
// omitted when no durable store is configured.
qhorn_json::wire! {
    struct RegistryStats {
        created: u64,
        live: u64,
        evicted: u64,
        restored: u64,
        completed: u64,
        failed: u64,
        answers: u64,
        batch_runs: u64,
        batch_objects: u64,
        batch_signatures: u64,
        batch_answers: u64,
        batch_threads_used: u64 [default],
        snapshots: u64,
        compaction_errors: u64,
        uptime_seconds: u64 [default],
        store: Option<StoreStats> [skip],
    }
}

qhorn_json::wire! {
    struct SessionResources {
        session: u64,
        state: String,
        questions: u64,
        questions_by_phase: Vec<(String, u64)> [with = map],
        transcript_bytes: u64,
        transcript_cache_bytes: u64 [default],
        store_bytes: u64,
        eval_nanos: u64,
    }
}

qhorn_json::wire! {
    struct HealthReport {
        verdict: String,
        uptime_seconds: u64,
        saturation: SaturationSnapshot,
    }
}

qhorn_json::wire! {
    enum Reply tag "type" "reply type" {
        Created = "created" { session: u64, step: StepReply },
        Step = "step" { session: u64, step: StepReply },
        Batch = "batch" { answers: Vec<u32>, stats: ExecStats, workers: usize },
        Exported = "exported" { text: String },
        Closed = "closed" { session: u64 },
        DatasetUploaded = "dataset_uploaded" { info: DatasetInfo [flatten] },
        Datasets = "datasets" { datasets: Vec<DatasetInfo> },
        DatasetDropped = "dataset_dropped" { name: String },
        Stats = "stats" (RegistryStats),
        Metrics = "metrics" (MetricsSnapshot),
        Trace = "trace" (TraceTree),
        Traces = "traces" { traces: Vec<TraceSummary> },
        Timeline = "timeline" {
            session: u64,
            events: Vec<TimelineEvent>,
            resources: Option<SessionResources> [skip],
        },
        Health = "health" (HealthReport),
        Profile = "profile" { uptime_seconds: u64, layers: Vec<LayerProfile> },
        SessionResources = "session_resources" (SessionResources),
        TraceConfig = "trace_config" { slow_threshold_ms: u64, sample_every: u64 },
        Error = "error" { message: String },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let line = qhorn_json::to_string(req);
        assert!(!line.contains('\n'), "wire format is one line");
        let back: Request = qhorn_json::from_str(&line).unwrap();
        assert_eq!(&back, req);
    }

    fn round_trip_reply(rep: &Reply) {
        let line = qhorn_json::to_string(rep);
        assert!(!line.contains('\n'));
        let back: Reply = qhorn_json::from_str(&line).unwrap();
        assert_eq!(&back, rep);
    }

    fn upload_def() -> DatasetDef {
        qhorn_relation::datasets::chocolates::dataset_def("my-shop")
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::CreateSession {
            dataset: "chocolates".into(),
            size: 40,
            learner: LearnerKind::Qhorn1,
            max_questions: Some(500),
        });
        round_trip_request(&Request::UploadDataset { def: upload_def() });
        round_trip_request(&Request::ListDatasets);
        round_trip_request(&Request::DropDataset {
            name: "my-shop".into(),
        });
        round_trip_request(&Request::NextQuestion { session: 7 });
        round_trip_request(&Request::Answer {
            session: 7,
            response: Response::Answer,
        });
        round_trip_request(&Request::Correct {
            session: 7,
            corrections: vec![(0, Response::NonAnswer), (3, Response::Answer)],
        });
        round_trip_request(&Request::Verify {
            session: 7,
            query: Some("all x1".into()),
        });
        round_trip_request(&Request::Verify {
            session: 7,
            query: None,
        });
        round_trip_request(&Request::EvaluateBatch {
            session: None,
            dataset: Some("cellars".into()),
            size: 1000,
            query: Some("some x1 x2".into()),
            workers: 8,
        });
        round_trip_request(&Request::ExportQuery {
            session: 7,
            format: "ascii".into(),
        });
        round_trip_request(&Request::CloseSession { session: 7 });
        round_trip_request(&Request::Stats);
        round_trip_request(&Request::Metrics);
        round_trip_request(&Request::GetTrace {
            id: "00000000000000ab".into(),
        });
        round_trip_request(&Request::ListTraces {
            min_duration_nanos: Some(1_000_000),
            kind: Some("answer".into()),
            session: Some(7),
            slow_only: true,
            limit: 10,
        });
        round_trip_request(&Request::ListTraces {
            min_duration_nanos: None,
            kind: None,
            session: None,
            slow_only: false,
            limit: DEFAULT_TRACE_LIMIT,
        });
        round_trip_request(&Request::SessionTimeline { session: 7 });
        round_trip_request(&Request::Health);
        round_trip_request(&Request::Profile { reset: false });
        round_trip_request(&Request::Profile { reset: true });
        round_trip_request(&Request::SessionResources { session: 7 });
        round_trip_request(&Request::SetTraceConfig {
            slow_threshold_ms: Some(250),
            sample_every: Some(10),
        });
        round_trip_request(&Request::SetTraceConfig {
            slow_threshold_ms: None,
            sample_every: None,
        });
        // A bare listing body (what `GET /v1/traces` produces) defaults
        // every filter.
        let req: Request = qhorn_json::from_str(r#"{"type":"list_traces"}"#).unwrap();
        assert_eq!(
            req,
            Request::ListTraces {
                min_duration_nanos: None,
                kind: None,
                session: None,
                slow_only: false,
                limit: DEFAULT_TRACE_LIMIT,
            }
        );
    }

    #[test]
    fn request_kinds_match_the_metrics_label_table() {
        let reqs = [
            Request::CreateSession {
                dataset: "fig1".into(),
                size: 2,
                learner: LearnerKind::Qhorn1,
                max_questions: None,
            },
            Request::UploadDataset { def: upload_def() },
            Request::ListDatasets,
            Request::DropDataset {
                name: "my-shop".into(),
            },
            Request::NextQuestion { session: 1 },
            Request::Answer {
                session: 1,
                response: Response::Answer,
            },
            Request::Correct {
                session: 1,
                corrections: vec![],
            },
            Request::Verify {
                session: 1,
                query: None,
            },
            Request::EvaluateBatch {
                session: Some(1),
                dataset: None,
                size: 0,
                query: None,
                workers: 1,
            },
            Request::ExportQuery {
                session: 1,
                format: "ascii".into(),
            },
            Request::CloseSession { session: 1 },
            Request::Stats,
            Request::Metrics,
            Request::GetTrace {
                id: "1234abcd".into(),
            },
            Request::ListTraces {
                min_duration_nanos: None,
                kind: None,
                session: None,
                slow_only: false,
                limit: DEFAULT_TRACE_LIMIT,
            },
            Request::SessionTimeline { session: 1 },
            Request::Health,
            Request::Profile { reset: false },
            Request::SessionResources { session: 1 },
            Request::SetTraceConfig {
                slow_threshold_ms: None,
                sample_every: None,
            },
        ];
        for req in &reqs {
            // kind_index panics if the kind is missing from the table;
            // the round trip checks the wire tag equals the kind.
            assert_eq!(crate::metrics::MESSAGE_KINDS[req.kind_index()], req.kind());
            let line = qhorn_json::to_string(req);
            assert!(
                line.contains(&format!("\"type\":\"{}\"", req.kind())),
                "{line}"
            );
        }
        assert_eq!(reqs.len(), crate::metrics::MESSAGE_KINDS.len());
    }

    #[test]
    fn replies_round_trip() {
        let q = qhorn_lang::parse("all x1; some x2 x3").unwrap();
        round_trip_reply(&Reply::Created {
            session: 1,
            step: StepReply::Question {
                question: Obj::from_bits("110 011"),
                rendered: "Box #3 ⟨(Belgium, true)⟩".into(),
                from_store: true,
                index: 0,
            },
        });
        round_trip_reply(&Reply::Step {
            session: 1,
            step: StepReply::Learned {
                query: qhorn_lang::printer::to_unicode(&q),
                query_json: q,
                questions: 17,
            },
        });
        round_trip_reply(&Reply::Step {
            session: 1,
            step: StepReply::Failed {
                message: "inconsistent".into(),
            },
        });
        round_trip_reply(&Reply::Step {
            session: 1,
            step: StepReply::Verified { verified: true },
        });
        round_trip_reply(&Reply::Batch {
            answers: vec![0, 4, 9],
            stats: ExecStats {
                objects: 1000,
                signatures_evaluated: 37,
                answers: 3,
                threads_used: 4,
                eval_nanos: 987_654,
            },
            workers: 4,
        });
        round_trip_reply(&Reply::Exported {
            text: "∀x1 ∃x2x3".into(),
        });
        round_trip_reply(&Reply::Closed { session: 3 });
        round_trip_reply(&Reply::DatasetUploaded {
            info: crate::dataset::DatasetInfo {
                name: "my-shop".into(),
                builtin: false,
                arity: 3,
                objects: Some(2),
            },
        });
        round_trip_reply(&Reply::Datasets {
            datasets: vec![
                crate::dataset::DatasetInfo {
                    name: "chocolates".into(),
                    builtin: true,
                    arity: 3,
                    objects: None,
                },
                crate::dataset::DatasetInfo {
                    name: "my-shop".into(),
                    builtin: false,
                    arity: 3,
                    objects: Some(2),
                },
            ],
        });
        round_trip_reply(&Reply::Datasets { datasets: vec![] });
        round_trip_reply(&Reply::DatasetDropped {
            name: "my-shop".into(),
        });
        round_trip_reply(&Reply::Stats(RegistryStats {
            created: 5,
            live: 2,
            batch_threads_used: 12,
            ..Default::default()
        }));
        round_trip_reply(&Reply::Trace(crate::trace::TraceTree {
            id: 0xab,
            kind: "answer".into(),
            session: Some(7),
            start_nanos: 1_000,
            duration_nanos: 2_000_000,
            slow: true,
            root: crate::trace::SpanNode {
                name: "dispatch".into(),
                start_nanos: 0,
                duration_nanos: 2_000_000,
                session: Some(7),
                attrs: vec![
                    ("kind".into(), crate::trace::AttrValue::Str("answer".into())),
                    ("questions".into(), crate::trace::AttrValue::U64(4)),
                    ("restored".into(), crate::trace::AttrValue::Bool(true)),
                ],
                children: vec![crate::trace::SpanNode {
                    name: "registry".into(),
                    start_nanos: 10,
                    duration_nanos: 1_900_000,
                    session: None,
                    attrs: vec![],
                    children: vec![],
                }],
            },
        }));
        round_trip_reply(&Reply::Traces {
            traces: vec![crate::trace::TraceSummary {
                id: 0xcd,
                kind: "stats".into(),
                session: None,
                start_nanos: 5,
                duration_nanos: 17,
                spans: 1,
                slow: false,
            }],
        });
        round_trip_reply(&Reply::Traces { traces: vec![] });
        round_trip_reply(&Reply::Timeline {
            session: 7,
            events: vec![crate::trace::TimelineEvent {
                at_nanos: 42,
                kind: "phase".into(),
                detail: "matrix_questions: 3 questions".into(),
                trace: 0xab,
                duration_nanos: 9,
            }],
            resources: None,
        });
        round_trip_reply(&Reply::Timeline {
            session: 7,
            events: vec![],
            resources: Some(SessionResources {
                session: 7,
                state: "learning".into(),
                questions: 4,
                questions_by_phase: vec![("classify_heads".into(), 4)],
                transcript_bytes: 211,
                transcript_cache_bytes: 180,
                store_bytes: 0,
                eval_nanos: 0,
            }),
        });
        round_trip_reply(&Reply::Health(HealthReport {
            verdict: "degraded".into(),
            uptime_seconds: 3600,
            saturation: crate::metrics::SaturationSnapshot {
                pools: vec![crate::metrics::PoolSnapshot {
                    name: "http".into(),
                    workers: 4,
                    busy: 4,
                    queue_depth: 3,
                    queue_peak: 7,
                    enqueued: 120,
                    dequeued: 117,
                    queue_wait_nanos: 9_000_000,
                }],
                lock_waits: 240,
                lock_wait_nanos: 1_500_000,
            },
        }));
        round_trip_reply(&Reply::Profile {
            uptime_seconds: 42,
            layers: vec![
                LayerProfile {
                    layer: "dispatch".into(),
                    spans: 10,
                    self_nanos: 1_000,
                    total_nanos: 90_000,
                },
                LayerProfile {
                    layer: "kernel".into(),
                    spans: 3,
                    self_nanos: 60_000,
                    total_nanos: 60_000,
                },
            ],
        });
        round_trip_reply(&Reply::SessionResources(SessionResources {
            session: 7,
            state: "done".into(),
            questions: 17,
            questions_by_phase: vec![("matrix_questions".into(), 9), ("core_questions".into(), 8)],
            transcript_bytes: 2_048,
            transcript_cache_bytes: 1_024,
            store_bytes: 4_096,
            eval_nanos: 500_000,
        }));
        round_trip_reply(&Reply::TraceConfig {
            slow_threshold_ms: 250,
            sample_every: 10,
        });
        round_trip_reply(&Reply::Error {
            message: "unknown session 9".into(),
        });
        let m = crate::metrics::Metrics::new();
        m.record_latency(0, std::time::Duration::from_micros(250));
        round_trip_reply(&Reply::Metrics(m.snapshot()));
        round_trip_reply(&Reply::Metrics(MetricsSnapshot::default()));
    }

    #[test]
    fn stats_store_object_round_trips_and_is_omitted_without_a_store() {
        // No store configured: the `store` key must not appear.
        let bare = Reply::Stats(RegistryStats::default());
        let line = qhorn_json::to_string(&bare);
        assert!(!line.contains("\"store\""), "{line}");
        round_trip_reply(&bare);

        // With a store: the nested object round-trips field by field.
        let with_store = Reply::Stats(RegistryStats {
            created: 2,
            store: Some(qhorn_store::StoreStats {
                records_appended: 17,
                bytes_appended: 4096,
                segments: 2,
                live_log_bytes: 2048,
                compactions: 1,
                last_compaction_seq: 11,
                recovered_sessions: 3,
                torn_truncations: 0,
                snapshot_sessions: 4,
                append_nanos: 84_000,
                fsyncs: 2,
                fsync_nanos: 3_000_000,
                compaction_nanos: 500_000,
            }),
            ..Default::default()
        });
        let line = qhorn_json::to_string(&with_store);
        assert!(line.contains("\"store\""), "{line}");
        assert!(line.contains("\"records_appended\":17"), "{line}");
        round_trip_reply(&with_store);
    }

    #[test]
    fn pre_threading_replies_still_decode() {
        // Replies recorded before `threads_used`/`eval_nanos`/
        // `batch_threads_used` existed must keep decoding (additive
        // versioning): absent fields mean "not recorded" (0).
        let legacy_batch = r#"{"type":"batch","answers":[0,4],"stats":{"objects":10,"signatures_evaluated":3,"answers":2},"workers":2}"#;
        let reply: Reply = qhorn_json::from_str(legacy_batch).unwrap();
        match reply {
            Reply::Batch { stats, .. } => {
                assert_eq!(stats.threads_used, 0);
                assert_eq!(stats.eval_nanos, 0);
                assert_eq!(stats.objects, 10);
            }
            other => panic!("decoded {other:?}"),
        }

        let legacy_stats = concat!(
            r#"{"type":"stats","created":5,"live":2,"evicted":0,"restored":0,"#,
            r#""completed":1,"failed":0,"answers":9,"batch_runs":3,"#,
            r#""batch_objects":30,"batch_signatures":9,"batch_answers":6,"#,
            r#""snapshots":0,"compaction_errors":0}"#
        );
        let reply: Reply = qhorn_json::from_str(legacy_stats).unwrap();
        match reply {
            Reply::Stats(stats) => {
                assert_eq!(stats.batch_threads_used, 0);
                assert_eq!(stats.uptime_seconds, 0);
                assert_eq!(stats.batch_runs, 3);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn missing_fields_are_parse_errors() {
        assert!(qhorn_json::from_str::<Request>(r#"{"type":"answer"}"#).is_err());
        assert!(qhorn_json::from_str::<Request>(r#"{"type":"bogus"}"#).is_err());
        assert!(qhorn_json::from_str::<Reply>(r#"{"type":"step","session":1}"#).is_err());
        // Omitted optional fields default — the size default lives here
        // at the wire layer, so the catalog can reject explicit zeros.
        let req: Request = qhorn_json::from_str(
            r#"{"type":"create_session","dataset":"fig1","learner":"qhorn1"}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::CreateSession {
                dataset: "fig1".into(),
                size: DEFAULT_SIZE,
                learner: LearnerKind::Qhorn1,
                max_questions: None,
            }
        );
        // An explicit zero is preserved (and rejected later, with a 422).
        let req: Request = qhorn_json::from_str(
            r#"{"type":"create_session","dataset":"fig1","size":0,"learner":"qhorn1"}"#,
        )
        .unwrap();
        assert!(matches!(req, Request::CreateSession { size: 0, .. }));
    }

    #[test]
    fn learner_names_are_stable() {
        use qhorn_json::{FromJson, Json, ToJson};
        assert_eq!(LearnerKind::Qhorn1.to_json(), Json::Str("qhorn1".into()));
        assert_eq!(
            LearnerKind::RolePreserving.to_json(),
            Json::Str("role_preserving".into())
        );
        assert!(LearnerKind::from_json(&Json::Str("sq".into())).is_err());
    }

    mod prop_round_trips {
        use super::*;
        use crate::metrics::{
            HistogramSnapshot, MetricsSnapshot, BUCKETS, MESSAGE_KINDS, PHASE_NAMES,
        };
        use proptest::prelude::*;

        fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
            (
                0usize..MESSAGE_KINDS.len(),
                prop::collection::vec(0u64..1_000_000, BUCKETS),
                0u64..u64::MAX / 2,
            )
                .prop_map(|(kind, buckets, sum_nanos)| HistogramSnapshot {
                    message: MESSAGE_KINDS[kind].to_string(),
                    count: buckets.iter().sum(),
                    sum_nanos,
                    buckets,
                })
        }

        fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
            (
                prop::collection::vec(arb_histogram(), 0..4),
                prop::collection::vec(0u64..1_000_000, PHASE_NAMES.len()),
                0u64..10_000,
            )
                .prop_map(|(histograms, phase_counts, learn_runs)| MetricsSnapshot {
                    histograms,
                    phases: PHASE_NAMES
                        .iter()
                        .zip(phase_counts)
                        .map(|((_, name), n)| ((*name).to_string(), n))
                        .collect(),
                    learn_runs,
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn histogram_snapshots_round_trip(h in arb_histogram()) {
                let line = qhorn_json::to_string(&h);
                let back: HistogramSnapshot = qhorn_json::from_str(&line).unwrap();
                prop_assert_eq!(back, h);
            }

            #[test]
            fn metrics_replies_round_trip(snap in arb_snapshot()) {
                let rep = Reply::Metrics(snap);
                let line = qhorn_json::to_string(&rep);
                prop_assert!(!line.contains('\n'));
                let back: Reply = qhorn_json::from_str(&line).unwrap();
                prop_assert_eq!(back, rep);
            }

            #[test]
            fn error_bodies_round_trip(message in "\\PC{0,60}") {
                // The HTTP frontend's error body is exactly this reply.
                let rep = Reply::Error { message };
                let line = qhorn_json::to_string(&rep);
                let back: Reply = qhorn_json::from_str(&line).unwrap();
                prop_assert_eq!(back, rep);
            }
        }
    }
}
