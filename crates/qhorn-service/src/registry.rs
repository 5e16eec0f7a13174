//! The sharded, lock-striped in-memory session registry.
//!
//! Sessions are striped over `shards` independently locked maps keyed by
//! session id, so unrelated dialogues never contend on one lock. Each
//! session owns an engine [`Dialogue`]: its transcript and its learner
//! (or verifier) suspended at the pending question. A request resumes
//! the dialogue on its own thread, under the session's entry lock, with
//! the user's answer, and the learner computes to its next question or
//! result before the request returns — no thread is kept per session.
//! The registry advances a per-session state machine:
//!
//! ```text
//! AwaitingAnswer ──answer──▶ Learning ──question──▶ AwaitingAnswer
//!       ▲                        │
//!       │                        ├──learned──▶ Done ──verify──▶ Verifying
//!       │                        └──inconsistent──▶ Failed        │
//!       └──────────── verification question ◀────────────────────┘
//! ```
//!
//! `Done`/`Failed` sessions accept `Correct` (replay with corrected
//! responses, §5's noisy-user workflow). A session's transcript holds
//! the exchanges the user answered and nothing else, so a question's
//! index, the one `Correct` names it by, is its transcript position: the
//! same number live, in the durable log and after a restore. The
//! registry checks each index is in range and hands the pairs to the
//! engine's one correction rule,
//! [`apply_corrections`](qhorn_engine::session::apply_corrections),
//! which the log's replay applies too.
//!
//! With a [`StoreConfig`], the registry is **durable** (`qhorn-store`):
//! every created session, answered exchange, correction, and learned
//! query is appended to the log before the request returns. A session
//! at rest lives in the store alone: a sweep **evicts** a session idle
//! past the TTL by dropping its live entry, since the log already holds
//! everything it acknowledged, and [`Registry::open`] recovers sessions
//! at rest after a crash without loading any. Touching a session at
//! rest restores it from the store's [`PersistedSession`] — completed
//! sessions come back whole, mid-learning sessions replay their
//! answered transcript so the user is only re-asked the question that
//! was in flight, under the index it had. Without a store nothing is
//! evicted: a session stays live until it is closed.

use crate::dataset::{DatasetCatalog, DatasetInfo};
use crate::error::ServiceError;
use crate::metrics::PHASE_NAMES;
use crate::metrics::{Metrics, PoolTelemetry, SaturationSnapshot};
use crate::trace::{self, AttrValue, TraceConfig, Tracer};
use qhorn_core::learn::LearnOptions;
use qhorn_core::{Obj, Query, Response};
use qhorn_engine::session::{Dialogue, Exchange, RealizedQuestion, Step};
use qhorn_engine::DataStore;
use qhorn_json::{Json, ToJson};
use qhorn_lockdep::{LockClass, OrderedMutex};
use qhorn_relation::synthesize::DomainHints;
use qhorn_relation::DatasetDef;
use qhorn_store::{
    LogRecord, PersistedSession, SessionMeta, SessionStore, StoreConfig, StoreStats,
    SyncSessionStore,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Registry construction parameters.
#[derive(Clone, Debug)]
pub struct RegistryConfig {
    /// Number of lock stripes (maps) sessions are sharded over.
    pub shards: usize,
    /// Idle time after which a sweep evicts a session to the durable
    /// store. Acts only with a `store`: without one, sessions stay live.
    pub ttl: Duration,
    /// Durable session store. `None` keeps the registry memory-only (a
    /// restart loses every session).
    pub store: Option<StoreConfig>,
    /// Request tracing knobs (journal size, slow threshold, sampling).
    pub trace: TraceConfig,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            shards: 16,
            ttl: Duration::from_secs(15 * 60),
            store: None,
            trace: TraceConfig::default(),
        }
    }
}

/// What one [`Registry::sweep`] pass did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Idle sessions evicted to the durable store.
    pub evicted: usize,
    /// Whether the pass compacted the durable log (live log over
    /// `compact_threshold_bytes`).
    pub compacted: bool,
    /// Why a due compaction did not run (I/O failure); `None` when the
    /// compaction succeeded or was not due. The log keeps growing until
    /// a later sweep succeeds, so callers should surface this.
    pub compact_error: Option<String>,
}

/// What a session is doing, as exposed on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionState {
    /// A learning question is pending the user's answer.
    AwaitingAnswer,
    /// The learner is computing (transient between requests).
    Learning,
    /// A verification run is active (question pending or computing).
    Verifying,
    /// Learning (and possibly verification) completed.
    Done,
    /// The learner rejected the transcript (e.g. noisy answers).
    Failed,
}

impl SessionState {
    /// Stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SessionState::AwaitingAnswer => "awaiting_answer",
            SessionState::Learning => "learning",
            SessionState::Verifying => "verifying",
            SessionState::Done => "done",
            SessionState::Failed => "failed",
        }
    }
}

/// Everything needed to open a session: the construction parameters the
/// durable log records with it.
pub use qhorn_store::SessionMeta as CreateSpec;

/// A pending membership question, as the protocol ships it.
#[derive(Clone, Debug)]
pub struct QuestionInfo {
    /// The Boolean-domain question (the client labels this).
    pub question: Obj,
    /// Rendering of the realized data object (what a UI would show).
    pub rendered: String,
    /// Whether the example came from the store.
    pub from_store: bool,
    /// The transcript position the answer will take, from 0: the index
    /// `Correct` names it by. Unrealizable questions, answered without
    /// the user, take no position.
    pub index: usize,
}

/// The observable result of feeding a session one step forward.
#[derive(Clone, Debug)]
pub enum StepOutcome {
    /// The session needs another label.
    Question(QuestionInfo),
    /// Learning finished; the query was learned.
    Learned {
        /// The learned query.
        query: Query,
        /// Total questions answered so far in this session.
        questions: usize,
    },
    /// Learning failed (inconsistent transcript or budget exhausted).
    Failed {
        /// The learner's message.
        message: String,
    },
    /// Verification finished.
    Verified {
        /// `true` iff the user agreed with every expected label.
        verified: bool,
    },
}

/// Aggregate counters, served by the `Stats` protocol message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Sessions ever created.
    pub created: u64,
    /// Sessions currently live in the registry.
    pub live: u64,
    /// Sessions evicted to the durable store (cumulative).
    pub evicted: u64,
    /// Sessions restored from the durable store (cumulative).
    pub restored: u64,
    /// Sessions that reached `Done` (cumulative).
    pub completed: u64,
    /// Sessions that reached `Failed` (cumulative).
    pub failed: u64,
    /// Answers processed (cumulative).
    pub answers: u64,
    /// Parallel batch evaluations served (cumulative).
    pub batch_runs: u64,
    /// Objects covered by batch evaluations (cumulative).
    pub batch_objects: u64,
    /// Distinct signatures actually evaluated by batch runs (cumulative)
    /// — compare against `batch_objects` to observe dedup effectiveness.
    pub batch_signatures: u64,
    /// Answers returned by batch evaluations (cumulative).
    pub batch_answers: u64,
    /// Worker threads used across batch evaluations (cumulative sum of
    /// per-run `threads_used`; divide by `batch_runs` for the mean pool
    /// size). Deterministic — unlike per-run `eval_nanos`, which stays
    /// out of this wire object. Optional on decode for mixed-version
    /// replay.
    pub batch_threads_used: u64,
    /// Sessions at rest: in the durable store with no live entry
    /// (recovered at open or evicted since, and not yet restored or
    /// closed). Always 0 without a store.
    pub snapshots: u64,
    /// Compactions that failed (cumulative; see
    /// [`SweepReport::compact_error`]).
    pub compaction_errors: u64,
    /// Seconds since this registry (process) started. Optional on decode
    /// for mixed-version replay.
    pub uptime_seconds: u64,
    /// Durable store counters (`None` when no store is configured).
    pub store: Option<StoreStats>,
}

/// The [`SessionResources::state`] of a session that has no live entry:
/// it is at rest in the durable store, and reading its accounting does
/// not restore it.
pub const EVICTED_STATE: &str = "evicted";

/// Per-session resource accounting, as served by the `SessionResources`
/// protocol message. Counters accumulate on the **live entry only**:
/// eviction-and-restore resets them (the store deliberately does not
/// carry accounting state), so treat them as since-last-restore figures. An
/// evicted session reports [`EVICTED_STATE`], its answer count, and
/// zero counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionResources {
    /// The session id.
    pub session: u64,
    /// Current session state (stable wire name), or [`EVICTED_STATE`].
    pub state: String,
    /// User answers processed.
    pub questions: u64,
    /// `(phase label, questions)` for each phase that asked questions,
    /// folded in at each learn completion.
    pub questions_by_phase: Vec<(String, u64)>,
    /// Bytes of rendered question text shipped to the user.
    pub transcript_bytes: u64,
    /// Serialized size of the session's transcript (its one in-memory
    /// copy, held by the session's dialogue).
    pub transcript_cache_bytes: u64,
    /// Durable-log bytes this session's records appended.
    pub store_bytes: u64,
    /// Kernel evaluation nanoseconds spent by this session's batch runs.
    pub eval_nanos: u64,
}

/// The `GET /v1/health` verdict plus the saturation evidence behind it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// `"ok"`, `"degraded"`, or `"saturated"`.
    pub verdict: String,
    /// Seconds since process start (normalizes the counters).
    pub uptime_seconds: u64,
    /// The signals the verdict was computed from.
    pub saturation: SaturationSnapshot,
}

/// Live-entry resource accumulators (see [`SessionResources`]).
#[derive(Clone, Copy, Debug, Default)]
struct ResourceUsage {
    transcript_bytes: u64,
    store_bytes: u64,
    eval_nanos: u64,
    questions_by_phase: [u64; PHASE_NAMES.len()],
}

struct Entry {
    state: SessionState,
    meta: SessionMeta,
    /// The store, the transcript, and the learner or verifier suspended
    /// at the pending question (which the dialogue alone holds). The
    /// pending question takes the next transcript position, as in the
    /// durable log, so one in flight at eviction is asked again under
    /// the index it had.
    dialogue: Dialogue,
    learned: Option<Query>,
    verified: Option<bool>,
    failure: Option<String>,
    last_touch: Instant,
    resources: ResourceUsage,
}

/// The sharded session registry. Cheap to share (`Arc`).
pub struct Registry {
    config: RegistryConfig,
    shards: Vec<OrderedMutex<HashMap<u64, Arc<OrderedMutex<Entry>>>>>,
    /// Built-in and uploaded datasets behind shared `Arc<DataStore>`s —
    /// sessions and restores resolve names here instead of rebuilding
    /// stores per restore.
    catalog: DatasetCatalog,
    /// Serializes dataset uploads/drops with their durable log appends,
    /// so catalog state and log order cannot disagree.
    catalog_lock: OrderedMutex<()>,
    /// Serializes restores per stripe so concurrent touches of one
    /// evicted id all land on the single restored entry, without
    /// unrelated sessions' restores queueing behind each other.
    restore_locks: Vec<OrderedMutex<()>>,
    /// The durable log (`qhorn-store`); appends happen under the entry
    /// lock, so per-session record order matches per-session state order.
    store: Option<SyncSessionStore>,
    /// Latency histograms + per-phase question counters; the dispatch
    /// layer times every request into it, both frontends share it.
    metrics: Arc<Metrics>,
    /// The span journal; the dispatch layer roots a trace per request
    /// into it, every layer below records child spans.
    tracer: Arc<Tracer>,
    /// Frontend worker-pool telemetry, one slot per registered pool
    /// ([`Registry::register_pool`]); feeds the health verdict.
    pools: OrderedMutex<Vec<Arc<PoolTelemetry>>>,
    /// Entry-stripe contention: acquisitions measured / nanos waited
    /// (the `with_entry` stripe-wait measurement, made scrapeable).
    lock_waits: AtomicU64,
    lock_wait_nanos: AtomicU64,
    /// Last health verdict (0 ok / 1 degraded / 2 saturated), for
    /// transition logging.
    last_verdict: AtomicU8,
    /// Process start, for `uptime_seconds`.
    start: Instant,
    /// Process start as Unix seconds, for Prometheus.
    start_unix_seconds: u64,
    compaction_errors: AtomicU64,
    last_sweep: OrderedMutex<Instant>,
    next_id: AtomicU64,
    created: AtomicU64,
    evicted: AtomicU64,
    restored: AtomicU64,
    /// Sessions at rest (see [`RegistryStats::snapshots`]).
    at_rest: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    answers: AtomicU64,
    batch_runs: AtomicU64,
    batch_objects: AtomicU64,
    batch_signatures: AtomicU64,
    batch_answers: AtomicU64,
    batch_threads: AtomicU64,
}

impl Registry {
    /// Builds a registry. With `config.store` set, opens the durable log
    /// and leaves every recovered session at rest there — the first touch
    /// restores it (replaying the transcript for mid-learning sessions),
    /// as it does a TTL-evicted one. Uploaded datasets re-register with
    /// the catalog, so sessions created over them restore too. Session id
    /// assignment resumes above every id the log has ever seen.
    ///
    /// (There is deliberately no panicking constructor: with durability
    /// configured, construction does I/O and recovery, and every caller
    /// must decide what an unopenable store means for it.)
    ///
    /// # Errors
    /// [`ServiceError::Store`] if the durable store cannot be opened;
    /// [`ServiceError::InvalidDataset`] if a logged dataset definition no
    /// longer validates (it was validated when uploaded, so this means
    /// the log and the code disagree — refuse loudly rather than strand
    /// the sessions created over it).
    pub fn open(config: RegistryConfig) -> Result<Self, ServiceError> {
        let shards = config.shards.max(1);
        let tracer = Arc::new(Tracer::new(&config.trace));
        let mut next_id = 1u64;
        let mut recovered = 0u64;
        let mut recovered_datasets = Vec::new();
        let store = match &config.store {
            Some(cfg) => {
                let (store, state) =
                    SessionStore::open(cfg).map_err(|e| ServiceError::Store(e.to_string()))?;
                next_id = state.max_session_id + 1;
                recovered = state.sessions.len() as u64;
                recovered_datasets = state.datasets;
                Some(SyncSessionStore::new(store))
            }
            None => None,
        };
        let catalog = DatasetCatalog::new();
        for def in recovered_datasets {
            let built = catalog.prepare(&def)?;
            catalog.install(&def.name, built);
        }
        let registry = Registry {
            config,
            shards: (0..shards)
                .map(|_| OrderedMutex::new(LockClass::new("registry.shard"), HashMap::new()))
                .collect(),
            catalog,
            catalog_lock: OrderedMutex::new(LockClass::new("registry.catalog_order"), ()),
            restore_locks: (0..shards)
                .map(|_| OrderedMutex::new(LockClass::new("registry.restore"), ()))
                .collect(),
            store,
            metrics: Arc::new(Metrics::new()),
            tracer,
            pools: OrderedMutex::new(LockClass::new("registry.pools"), Vec::new()),
            lock_waits: AtomicU64::new(0),
            lock_wait_nanos: AtomicU64::new(0),
            last_verdict: AtomicU8::new(0),
            start: Instant::now(),
            start_unix_seconds: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            compaction_errors: AtomicU64::new(0),
            last_sweep: OrderedMutex::new(LockClass::new("registry.sweep_clock"), Instant::now()),
            next_id: AtomicU64::new(next_id),
            created: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            restored: AtomicU64::new(0),
            at_rest: AtomicU64::new(recovered),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            answers: AtomicU64::new(0),
            batch_runs: AtomicU64::new(0),
            batch_objects: AtomicU64::new(0),
            batch_signatures: AtomicU64::new(0),
            batch_answers: AtomicU64::new(0),
            batch_threads: AtomicU64::new(0),
        };
        if recovered > 0 {
            crate::log::info(
                "registry",
                "recovered sessions from the durable store",
                &[("sessions", Json::U64(recovered))],
            );
        }
        Ok(registry)
    }

    fn shard(&self, id: u64) -> &OrderedMutex<HashMap<u64, Arc<OrderedMutex<Entry>>>> {
        &self.shards[(id as usize) % self.shards.len()]
    }

    /// Opens a session over a catalog dataset and runs the learner up
    /// to its first question.
    ///
    /// # Errors
    /// Dataset and store failures.
    pub fn create_session(&self, spec: CreateSpec) -> Result<(u64, StepOutcome), ServiceError> {
        self.maybe_sweep();
        let built = self.catalog.get(&spec.dataset, spec.size)?;
        let mut dialogue = Dialogue::new(built.store, built.synth, Vec::new());
        dialogue.learn(spec.learner, &learn_options(&spec));
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let created_bytes = self.log_append(&LogRecord::SessionCreated {
            id,
            meta: spec.clone(),
        })?;
        crate::log::info(
            "registry",
            "session created",
            &[
                ("session", Json::U64(id)),
                ("dataset", Json::Str(spec.dataset.clone())),
            ],
        );
        let mut entry = Entry {
            state: SessionState::Learning,
            meta: spec,
            dialogue,
            learned: None,
            verified: None,
            failure: None,
            last_touch: Instant::now(),
            resources: ResourceUsage {
                store_bytes: created_bytes,
                ..ResourceUsage::default()
            },
        };
        let outcome = match self.step(id, &mut entry, None, false) {
            Ok(outcome) => outcome,
            Err(e) => {
                // The client never learns this id; compensate so recovery
                // does not resurrect an ownerless phantom session. If that
                // fails too, the session is at rest in the log.
                if self.log_append(&LogRecord::SessionClosed { id }).is_err() {
                    self.at_rest.fetch_add(1, Ordering::Relaxed);
                }
                crate::log::warn(
                    "registry",
                    "session creation failed after its first step",
                    &[
                        ("session", Json::U64(id)),
                        ("error", Json::Str(e.to_string())),
                    ],
                );
                return Err(e);
            }
        };
        self.created.fetch_add(1, Ordering::Relaxed);
        self.shard(id).lock_recover().insert(
            id,
            Arc::new(OrderedMutex::new(LockClass::new("registry.entry"), entry)),
        );
        Ok((id, outcome))
    }

    /// The pending question (idempotent), or the session's terminal
    /// result.
    ///
    /// # Errors
    /// [`ServiceError::UnknownSession`] for ids neither live nor at rest
    /// in the durable store.
    pub fn next_question(&self, id: u64) -> Result<StepOutcome, ServiceError> {
        self.with_entry(id, |entry| {
            entry.last_touch = Instant::now();
            if let Some(question) = entry.dialogue.pending() {
                // The text is not kept between requests: realizing the
                // question again writes the same text.
                let realized = entry
                    .dialogue
                    .realize(question)
                    .map_err(|e| ServiceError::Engine(e.to_string()))?;
                let index = entry.dialogue.transcript().len();
                return Ok(StepOutcome::Question(question_info(realized, index)));
            }
            match entry.state {
                SessionState::Done => {
                    if let Some(v) = entry.verified {
                        Ok(StepOutcome::Verified { verified: v })
                    } else {
                        Ok(StepOutcome::Learned {
                            query: entry.learned.clone().expect("done implies learned"),
                            questions: entry.dialogue.transcript().len(),
                        })
                    }
                }
                SessionState::Failed => Ok(StepOutcome::Failed {
                    message: entry
                        .failure
                        .clone()
                        .unwrap_or_else(|| "learning failed".into()),
                }),
                _ => Err(ServiceError::WrongState {
                    state: entry.state.as_str(),
                    needed: "a pending question or a terminal state",
                }),
            }
        })
    }

    /// Feeds the user's label for the pending question and advances to
    /// the next question or a terminal state.
    ///
    /// # Errors
    /// Unknown session, wrong state, or store failure.
    pub fn answer(&self, id: u64, response: Response) -> Result<StepOutcome, ServiceError> {
        self.with_entry(id, |entry| {
            let Some(exchange) = entry.dialogue.take_answered(response) else {
                return Err(ServiceError::WrongState {
                    state: entry.state.as_str(),
                    needed: "a pending question",
                });
            };
            // Durable before acknowledged: once the answer is applied, the
            // log has it (under `FsyncPolicy::Always`, on disk). The record
            // borrows the question for the append and hands it back.
            let record = LogRecord::ExchangeAppended { id, exchange };
            let appended = self.log_append(&record);
            let LogRecord::ExchangeAppended { exchange, .. } = record else {
                unreachable!("the record was built as an exchange")
            };
            match appended {
                Ok(bytes) => entry.resources.store_bytes += bytes,
                Err(e) => {
                    entry.dialogue.put_back(exchange);
                    return Err(e);
                }
            }
            entry.last_touch = Instant::now();
            if entry.state == SessionState::AwaitingAnswer {
                entry.state = SessionState::Learning;
            }
            self.answers.fetch_add(1, Ordering::Relaxed);
            self.step(id, entry, Some(exchange), false)
        })
    }

    /// Applies transcript corrections and replays: cached answers are
    /// served silently, so only invalidated questions come back to the
    /// user. An index is a transcript position; the pairs are applied by
    /// [`apply_corrections`](qhorn_engine::session::apply_corrections),
    /// as the log's replay applies them. Legal once a session is `Done`
    /// or `Failed`.
    ///
    /// # Errors
    /// Unknown session, wrong state, an index out of range, or store
    /// failure.
    pub fn correct(
        &self,
        id: u64,
        corrections: &[(usize, Response)],
    ) -> Result<StepOutcome, ServiceError> {
        self.with_entry(id, |entry| {
            if !matches!(entry.state, SessionState::Done | SessionState::Failed) {
                return Err(ServiceError::WrongState {
                    state: entry.state.as_str(),
                    needed: "a completed session (done or failed)",
                });
            }
            let asked = entry.dialogue.transcript().len();
            if let Some(&(idx, _)) = corrections.iter().find(|&&(idx, _)| idx >= asked) {
                return Err(ServiceError::Parse(format!(
                    "correction index {idx} out of range ({asked} questions asked)"
                )));
            }
            let bytes = self.log_append(&LogRecord::Corrected {
                id,
                corrections: corrections.to_vec(),
            })?;
            entry.resources.store_bytes += bytes;
            entry.state = SessionState::Learning;
            entry.learned = None;
            entry.verified = None;
            entry.failure = None;
            entry.last_touch = Instant::now();
            entry
                .dialogue
                .relearn(entry.meta.learner, corrections, &learn_options(&entry.meta));
            self.step(id, entry, None, false)
        })
    }

    /// Starts verification (§4) of the learned query — or of an explicit
    /// `query` — against the same user. Questions flow exactly like
    /// learning questions.
    ///
    /// # Errors
    /// Unknown session, wrong state, or a query outside the verifiable
    /// class.
    pub fn begin_verify(&self, id: u64, query: Option<Query>) -> Result<StepOutcome, ServiceError> {
        self.with_entry(id, |entry| {
            if entry.state != SessionState::Done {
                return Err(ServiceError::WrongState {
                    state: entry.state.as_str(),
                    needed: "a session that finished learning",
                });
            }
            let q = match query.or_else(|| entry.learned.clone()) {
                Some(q) => q,
                None => {
                    return Err(ServiceError::WrongState {
                        state: entry.state.as_str(),
                        needed: "a learned or explicit query",
                    })
                }
            };
            // Reject bad verification queries here, as a ServiceError: an
            // arity mismatch would panic the verifier, and an unverifiable
            // class would otherwise flip a Done session to Failed.
            let n = entry.dialogue.store().bridge().n();
            if q.arity() != n {
                return Err(ServiceError::Parse(format!(
                    "query arity {} \u{2260} session arity {n}",
                    q.arity()
                )));
            }
            entry
                .dialogue
                .verify(&q)
                .map_err(|e| ServiceError::Engine(e.to_string()))?;
            // The last completed verdict stands until this run finishes
            // (`Verifying` marks the run in flight): the durable log only
            // records finished runs, so an eviction and a restart both
            // bring the session back with that verdict.
            entry.state = SessionState::Verifying;
            entry.last_touch = Instant::now();
            self.step(id, entry, None, false)
        })
    }

    /// The session's learned query.
    ///
    /// # Errors
    /// Unknown session or not `Done`.
    pub fn learned_query(&self, id: u64) -> Result<Query, ServiceError> {
        self.with_entry(id, |entry| {
            entry.last_touch = Instant::now();
            entry.learned.clone().ok_or(ServiceError::WrongState {
                state: entry.state.as_str(),
                needed: "a session that finished learning",
            })
        })
    }

    /// The session's store and learned query, for batch evaluation.
    ///
    /// # Errors
    /// Unknown session.
    pub fn session_store(&self, id: u64) -> Result<(Arc<DataStore>, Option<Query>), ServiceError> {
        self.with_entry(id, |entry| {
            entry.last_touch = Instant::now();
            Ok((Arc::clone(entry.dialogue.store()), entry.learned.clone()))
        })
    }

    /// Resolves a catalog dataset (built-in or uploaded) to its shared
    /// built store and hints.
    ///
    /// # Errors
    /// [`ServiceError::InvalidSize`], [`ServiceError::UnknownDataset`].
    pub fn dataset(
        &self,
        name: &str,
        size: usize,
    ) -> Result<(Arc<DataStore>, Arc<DomainHints>), ServiceError> {
        let built = self.catalog.get(name, size)?;
        Ok((built.store, built.hints))
    }

    /// Registers a user-uploaded dataset: validated and built first,
    /// logged durably (when a store is configured), then made visible in
    /// the catalog — a crash at any point either has the registration in
    /// the log or nowhere.
    ///
    /// # Errors
    /// [`ServiceError::DatasetConflict`] on name collisions (built-ins
    /// and existing uploads), [`ServiceError::InvalidDataset`] on
    /// validation failures, [`ServiceError::Store`] on log failures.
    pub fn upload_dataset(&self, def: DatasetDef) -> Result<DatasetInfo, ServiceError> {
        let _guard = self.catalog_lock.lock_recover();
        let built = self.catalog.prepare(&def)?;
        let info = DatasetInfo {
            name: def.name.clone(),
            builtin: false,
            arity: built.store.bridge().n(),
            objects: Some(built.store.boolean().len() as u64),
        };
        self.log_append(&LogRecord::DatasetRegistered { def })?;
        self.catalog.install(&info.name, built);
        Ok(info)
    }

    /// Drops an uploaded dataset from the catalog, durably. Sessions
    /// already running over it keep their shared store; evicted sessions
    /// referencing it will fail to restore with `UnknownDataset`.
    ///
    /// # Errors
    /// [`ServiceError::DatasetConflict`] for built-in names,
    /// [`ServiceError::UnknownDataset`] for unregistered ones,
    /// [`ServiceError::Store`] on log failures.
    pub fn drop_dataset(&self, name: &str) -> Result<(), ServiceError> {
        let _guard = self.catalog_lock.lock_recover();
        let built = self.catalog.remove(name)?;
        if let Err(e) = self.log_append(&LogRecord::DatasetDropped { name: name.into() }) {
            // Compensate: the drop never became durable, so it must not
            // be visible either.
            self.catalog.install(name, built);
            return Err(e);
        }
        Ok(())
    }

    /// The catalog listing: built-ins first, then uploads in name order.
    #[must_use]
    pub fn list_datasets(&self) -> Vec<DatasetInfo> {
        self.catalog.list()
    }

    /// The shared metrics registry (latency histograms, phase counters).
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The span journal behind request tracing.
    #[must_use]
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Registers a frontend worker pool for saturation telemetry. Pool
    /// names are deduplicated (`http`, `http-2`, …) so two servers over
    /// one registry export distinct series.
    pub fn register_pool(&self, name: &str, workers: usize) -> Arc<PoolTelemetry> {
        let mut pools = self.pools.lock_recover();
        let mut label = name.to_string();
        let mut n = 1usize;
        while pools.iter().any(|p| p.name == label) {
            n += 1;
            label = format!("{name}-{n}");
        }
        let pool = Arc::new(PoolTelemetry::new(&label, workers));
        pools.push(Arc::clone(&pool));
        pool
    }

    /// Removes a pool [`Registry::register_pool`] returned, so a stopped
    /// frontend leaves neither the health verdict nor the exported
    /// `qhorn_pool_*` series; its label becomes free for a later pool.
    pub fn unregister_pool(&self, pool: &Arc<PoolTelemetry>) {
        self.pools.lock_recover().retain(|p| !Arc::ptr_eq(p, pool));
    }

    /// Every saturation signal at this instant.
    #[must_use]
    pub fn saturation(&self) -> SaturationSnapshot {
        SaturationSnapshot {
            pools: self
                .pools
                .lock_recover()
                .iter()
                .map(|p| p.snapshot())
                .collect(),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
            lock_wait_nanos: self.lock_wait_nanos.load(Ordering::Relaxed),
        }
    }

    /// Computes the health verdict from the current saturation signals:
    /// **saturated** when any pool has every worker busy *and* a non-empty
    /// accept queue, **degraded** when any pool is queueing or ≥ 75% busy,
    /// **ok** otherwise. Verdict transitions are logged at warn level.
    #[must_use]
    pub fn health(&self) -> HealthReport {
        let saturation = self.saturation();
        let verdict = health_verdict(&saturation);
        let code = match verdict {
            "ok" => 0u8,
            "degraded" => 1,
            _ => 2,
        };
        let prev = self.last_verdict.swap(code, Ordering::Relaxed);
        if prev != code {
            crate::log::warn(
                "health",
                "health verdict changed",
                &[
                    ("from", Json::Str(verdict_name(prev).to_string())),
                    ("to", Json::Str(verdict.to_string())),
                ],
            );
        }
        HealthReport {
            verdict: verdict.to_string(),
            uptime_seconds: self.uptime_seconds(),
            saturation,
        }
    }

    /// Seconds since this registry (process) started.
    #[must_use]
    pub fn uptime_seconds(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Process start time, seconds since the Unix epoch.
    #[must_use]
    pub fn start_unix_seconds(&self) -> u64 {
        self.start_unix_seconds
    }

    /// The session's resource accounting (see [`SessionResources`] for
    /// reset semantics). A read never restores an evicted session: it is
    /// reported as [`EVICTED_STATE`] with its answer count, from the
    /// durable store, and zero counters.
    ///
    /// # Errors
    /// [`ServiceError::UnknownSession`]; [`ServiceError::Store`] when
    /// the durable log cannot be read.
    pub fn session_resources(&self, id: u64) -> Result<SessionResources, ServiceError> {
        let handle = match self.live_handle(id) {
            Some(h) => h,
            None => {
                // Under the stripe's restore lock, a restore in progress
                // cannot move the session between the two lookups.
                let _restoring = self.restore_lock(id).lock_recover();
                match self.live_handle(id) {
                    Some(h) => h,
                    None => return self.evicted_resources(id),
                }
            }
        };
        let mut entry = handle.lock_recover();
        entry.last_touch = Instant::now();
        Ok(SessionResources {
            session: id,
            state: entry.state.as_str().to_string(),
            questions: entry.dialogue.transcript().len() as u64,
            questions_by_phase: PHASE_NAMES
                .iter()
                .zip(entry.resources.questions_by_phase.iter())
                .filter(|(_, &n)| n > 0)
                .map(|((_, name), &n)| ((*name).to_string(), n))
                .collect(),
            transcript_bytes: entry.resources.transcript_bytes,
            transcript_cache_bytes: transcript_cache_bytes(entry.dialogue.transcript()),
            store_bytes: entry.resources.store_bytes,
            eval_nanos: entry.resources.eval_nanos,
        })
    }

    /// [`Registry::session_resources`] of a session with no live entry.
    fn evicted_resources(&self, id: u64) -> Result<SessionResources, ServiceError> {
        Ok(SessionResources {
            session: id,
            state: EVICTED_STATE.to_string(),
            questions: self.stored_session(id)?.transcript.len() as u64,
            ..SessionResources::default()
        })
    }

    /// A session at rest, read from the durable store.
    fn stored_session(&self, id: u64) -> Result<PersistedSession, ServiceError> {
        let store = self
            .store
            .as_ref()
            .ok_or(ServiceError::UnknownSession(id))?;
        store
            .lock()
            .load_session(id)
            .map_err(|e| ServiceError::Store(e.to_string()))?
            .ok_or(ServiceError::UnknownSession(id))
    }

    /// The session's live entry, if it has one.
    fn live_handle(&self, id: u64) -> Option<Arc<OrderedMutex<Entry>>> {
        self.shard(id).lock_recover().get(&id).cloned()
    }

    /// The lock serializing restores on `id`'s stripe.
    fn restore_lock(&self, id: u64) -> &OrderedMutex<()> {
        &self.restore_locks[(id as usize) % self.restore_locks.len()]
    }

    /// Charges kernel evaluation time to a session's accounting.
    /// Best-effort: sessions evicted between the batch run and this call
    /// simply miss the charge (live-entry-only semantics).
    pub fn add_session_eval(&self, id: u64, eval_nanos: u64) {
        if let Some(h) = self.live_handle(id) {
            h.lock_recover().resources.eval_nanos += eval_nanos;
        }
    }

    /// Counts a served batch evaluation and folds its execution
    /// statistics into the cumulative counters (the server calls this).
    pub fn count_batch_run(&self, stats: &qhorn_engine::exec::ExecStats) {
        self.batch_runs.fetch_add(1, Ordering::Relaxed);
        self.batch_objects
            .fetch_add(stats.objects as u64, Ordering::Relaxed);
        self.batch_signatures
            .fetch_add(stats.signatures_evaluated as u64, Ordering::Relaxed);
        self.batch_threads
            .fetch_add(stats.threads_used as u64, Ordering::Relaxed);
        self.batch_answers
            .fetch_add(stats.answers as u64, Ordering::Relaxed);
    }

    /// Runs [`Registry::sweep`] if enough time has passed since the last
    /// one (TTL/4, capped at 60s). Called from the hot request paths so
    /// idle sessions get evicted even without new `CreateSession`s.
    fn maybe_sweep(&self) {
        // Clamp: at most once a second (keeps tiny-TTL configs, as tests
        // use, from sweeping on every request), at least once a minute.
        let interval = (self.config.ttl / 4).clamp(Duration::from_secs(1), Duration::from_secs(60));
        {
            let mut last = self.last_sweep.lock_recover();
            if last.elapsed() < interval {
                return;
            }
            *last = Instant::now();
        }
        self.sweep();
    }

    /// Evicts every session idle longer than the TTL to the durable
    /// store, then compacts the log if it has outgrown its threshold.
    /// Without a store it does neither: a session kept live costs less
    /// memory than any copy of it at rest.
    pub fn sweep(&self) -> SweepReport {
        let ttl = self.config.ttl;
        let mut evicted = 0usize;
        // The log already holds everything a live entry acknowledged, so
        // evicting drops the entry.
        if self.store.is_some() {
            for shard in &self.shards {
                shard.lock_recover().retain(|_, h| {
                    // Skip entries some request currently holds; both the
                    // clone in `with_entry` and this check happen under
                    // the shard lock, so the count is trustworthy.
                    let idle =
                        Arc::strong_count(h) == 1 && h.lock_recover().last_touch.elapsed() > ttl;
                    if idle {
                        evicted += 1;
                        self.at_rest.fetch_add(1, Ordering::Relaxed);
                    }
                    !idle
                });
            }
        }
        self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        if evicted > 0 {
            crate::log::debug(
                "registry",
                "idle sessions evicted to the store",
                &[("sessions", Json::U64(evicted as u64))],
            );
        }
        let (compacted, compact_error) = self.maybe_compact();
        if let Some(msg) = &compact_error {
            // A due compaction that fails is otherwise invisible outside
            // this report: count it and journal a diagnosable event.
            self.compaction_errors.fetch_add(1, Ordering::Relaxed);
            self.tracer.record_event(
                "store.compact_error",
                Duration::ZERO,
                None,
                vec![("error", AttrValue::Str(msg.clone().into()))],
            );
            crate::log::error(
                "registry",
                "due compaction failed; log keeps growing until a sweep succeeds",
                &[("error", Json::Str(msg.clone()))],
            );
        }
        SweepReport {
            evicted,
            compacted,
            compact_error,
        }
    }

    /// Compacts the durable log when its live size exceeds the configured
    /// `compact_threshold_bytes`. Returns whether a compaction ran, and
    /// the error when one was due but failed.
    ///
    /// The compaction runs under the store lock and opens a
    /// `store.compact` span; outside a traced request it is journaled as
    /// a standalone event instead.
    fn maybe_compact(&self) -> (bool, Option<String>) {
        let (Some(store), Some(cfg)) = (&self.store, &self.config.store) else {
            return (false, None);
        };
        let mut store = store.lock();
        if store.live_log_bytes() <= cfg.compact_threshold_bytes {
            return (false, None);
        }
        let span = trace::span("store.compact");
        let started = Instant::now();
        let bytes = match store.compact() {
            Ok(bytes) => bytes,
            Err(e) => return (false, Some(e.to_string())),
        };
        span.attr_u64("bytes", bytes);
        if !trace::has_active() {
            self.tracer.record_event(
                "store.compact",
                started.elapsed(),
                None,
                vec![("bytes", AttrValue::U64(bytes))],
            );
        }
        (true, None)
    }

    /// Closes a session for good: the live entry is dropped, and (with a
    /// store) a `SessionClosed` record makes the removal durable —
    /// recovery will not resurrect it. A close whose record fails to
    /// append leaves the session where it was.
    ///
    /// # Errors
    /// [`ServiceError::UnknownSession`] if the id is neither live nor
    /// at rest in the durable store; store failures.
    pub fn close_session(&self, id: u64) -> Result<(), ServiceError> {
        // Serialize against restores on this stripe: without it, a
        // concurrent `with_entry` could be mid-restore (session already
        // read from the store, entry not yet inserted), and the close
        // would durably log `SessionClosed` while the restore resurrects
        // the session live.
        let _closing = self.restore_lock(id).lock_recover();
        let live = self.shard(id).lock_recover().remove(&id);
        if live.is_none() {
            self.stored_session(id)?;
        }
        if let Err(e) = self.log_append(&LogRecord::SessionClosed { id }) {
            if let Some(handle) = live {
                self.shard(id).lock_recover().insert(id, handle);
            }
            return Err(e);
        }
        if live.is_none() {
            self.at_rest.fetch_sub(1, Ordering::Relaxed);
        }
        crate::log::info("registry", "session closed", &[("session", Json::U64(id))]);
        Ok(())
    }

    /// Aggregate counters.
    pub fn stats(&self) -> RegistryStats {
        self.maybe_sweep();
        let live = self
            .shards
            .iter()
            .map(|s| s.lock_recover().len() as u64)
            .sum();
        RegistryStats {
            created: self.created.load(Ordering::Relaxed),
            live,
            evicted: self.evicted.load(Ordering::Relaxed),
            restored: self.restored.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            answers: self.answers.load(Ordering::Relaxed),
            batch_runs: self.batch_runs.load(Ordering::Relaxed),
            batch_objects: self.batch_objects.load(Ordering::Relaxed),
            batch_signatures: self.batch_signatures.load(Ordering::Relaxed),
            batch_answers: self.batch_answers.load(Ordering::Relaxed),
            batch_threads_used: self.batch_threads.load(Ordering::Relaxed),
            snapshots: self.at_rest.load(Ordering::Relaxed),
            compaction_errors: self.compaction_errors.load(Ordering::Relaxed),
            uptime_seconds: self.uptime_seconds(),
            store: self.store.as_ref().map(|s| s.lock().stats()),
        }
    }

    // -- internals ---------------------------------------------------------

    /// Runs `f` on the live entry, restoring it from the durable store if
    /// needed.
    ///
    /// The shard lock is held only for the map lookup; `f` runs under the
    /// entry's own mutex, so a long learner step in one session never
    /// blocks unrelated sessions on the same stripe.
    fn with_entry<T>(
        &self,
        id: u64,
        f: impl FnOnce(&mut Entry) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        self.maybe_sweep();
        let wait_started = Instant::now();
        let mut restored_here = false;
        let handle = match self.live_handle(id) {
            Some(h) => h,
            None => {
                restored_here = true;
                // Serialize restores per stripe: the winner rebuilds the
                // entry while losers wait here, then find it in the shard.
                let _restoring = self.restore_lock(id).lock_recover();
                match self.live_handle(id) {
                    Some(h) => h,
                    None => {
                        self.restore(id)?;
                        self.live_handle(id)
                            .ok_or(ServiceError::UnknownSession(id))?
                    }
                }
            }
        };
        let mut entry = handle.lock_recover();
        let wait_nanos = u64::try_from(wait_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.lock_waits.fetch_add(1, Ordering::Relaxed);
        self.lock_wait_nanos
            .fetch_add(wait_nanos, Ordering::Relaxed);
        let span = trace::span("registry");
        span.set_session(id);
        span.attr_u64("stripe_wait_nanos", wait_nanos);
        if restored_here {
            span.attr_bool("restored", true);
        }
        let state_before = entry.state.as_str();
        let result = f(&mut entry);
        span.attr_str("state_before", state_before);
        span.attr_str("state_after", entry.state.as_str());
        result
    }

    /// Rebuilds a live entry from the durable store. Completed sessions
    /// come back `Done`; mid-learning sessions replay their transcript
    /// and park on the first genuinely new question. A restore that fails
    /// (its dataset was dropped, say) leaves the session at rest, so it
    /// fails the same way on every touch and succeeds once the cause is
    /// gone.
    fn restore(&self, id: u64) -> Result<(), ServiceError> {
        let session = self.stored_session(id)?;
        let mut meta = session.meta;
        // Logs written before explicit-zero validation encoded "default"
        // as 0; normalize here so those sessions stay restorable (the
        // catalog rejects 0 for new requests).
        if meta.size == 0 {
            meta.size = crate::dataset::DEFAULT_SIZE;
        }
        // The catalog shares one built store per dataset: a restore no
        // longer pays a full `dataset::build` (measured in
        // `benches/service.rs`, `restore_from_snapshot`).
        let built = self.catalog.get(&meta.dataset, meta.size)?;
        // The name may now stand for another dataset (dropped and
        // uploaded again), and the log is outside data: every question
        // and the learned query must have the dataset's arity.
        let n = built.store.bridge().n();
        let arities = session
            .transcript
            .iter()
            .map(|e| e.question.arity())
            .chain(session.learned.iter().map(Query::arity));
        for arity in arities {
            if arity != n {
                return Err(ServiceError::Engine(format!(
                    "session {id} has arity {arity} but dataset `{}` has arity {n}",
                    meta.dataset
                )));
            }
        }
        // The store folds an older snapshot's asked list into the
        // transcript; one left in place did not fold.
        if session.asked.is_some() {
            return Err(ServiceError::Engine(format!(
                "session {id} lists asked questions its transcript does not hold in that order"
            )));
        }
        let mut entry = Entry {
            state: SessionState::Learning,
            meta,
            dialogue: Dialogue::new(built.store, built.synth, session.transcript),
            learned: session.learned,
            verified: session.verified,
            failure: None,
            last_touch: Instant::now(),
            resources: ResourceUsage::default(),
        };
        if entry.learned.is_some() {
            entry.state = SessionState::Done;
        } else {
            // Replay the answered transcript; only new questions surface.
            entry
                .dialogue
                .relearn(entry.meta.learner, &[], &learn_options(&entry.meta));
            self.step(id, &mut entry, None, true)?;
        }
        crate::log::debug(
            "registry",
            "session restored from the store",
            &[("session", Json::U64(id))],
        );
        self.restored.fetch_add(1, Ordering::Relaxed);
        self.at_rest.fetch_sub(1, Ordering::Relaxed);
        self.shard(id).lock_recover().insert(
            id,
            Arc::new(OrderedMutex::new(LockClass::new("registry.entry"), entry)),
        );
        Ok(())
    }

    /// Appends one record to the durable log, when one is configured.
    /// Returns the framed bytes the append added (0 storeless) so callers
    /// can charge per-session accounting.
    fn log_append(&self, record: &LogRecord) -> Result<u64, ServiceError> {
        if let Some(store) = &self.store {
            let mut store = store.lock();
            // Opened under the lock: the span times the write and any
            // fsync the policy asks for, not the wait for the store.
            let span = trace::span("store.append");
            let before = store.bytes_appended();
            store
                .append(record)
                .map_err(|e| ServiceError::Store(e.to_string()))?;
            let bytes = store.bytes_appended() - before;
            span.attr_u64("bytes", bytes);
            Ok(bytes)
        } else {
            Ok(0)
        }
    }

    /// Resumes the session's dialogue — with the pending question the
    /// user labelled, or `None` to start its run — and applies where
    /// the learner or verifier stopped: at its next question or at its
    /// result. A restore's replay (`restoring`) can only reach a failure
    /// the session had reached before: it is neither counted nor logged
    /// again.
    fn step(
        &self,
        id: u64,
        entry: &mut Entry,
        answered: Option<Exchange>,
        restoring: bool,
    ) -> Result<StepOutcome, ServiceError> {
        let step = {
            // The learner (with realization) computes right here, inside
            // the request: one live span per step.
            let span = trace::span("learner.phase");
            span.set_session(id);
            // The transcript holds the user's answers alone: the step
            // records this one, if it brings one.
            let answers = u64::from(answered.is_some());
            let step = entry.dialogue.resume(answered);
            let phase = match entry.dialogue.phase() {
                None => "verification",
                Some(p) => PHASE_NAMES
                    .iter()
                    .find(|(q, _)| *q == p)
                    .map_or("other", |(_, label)| label),
            };
            span.attr_str("phase", phase);
            span.attr_u64("questions", answers);
            step
        };
        match step {
            Step::Question(realized) => {
                // Synthesis inverts booleanization, and stored objects are
                // found by this exact signature.
                debug_assert_eq!(
                    entry
                        .dialogue
                        .store()
                        .bridge()
                        .booleanize_object(realized.object())
                        .as_ref(),
                    Ok(realized.question()),
                    "a realized object booleanizes to its question"
                );
                let info = question_info(realized, entry.dialogue.transcript().len());
                entry.resources.transcript_bytes += info.rendered.len() as u64;
                if entry.state != SessionState::Verifying {
                    entry.state = SessionState::AwaitingAnswer;
                }
                Ok(StepOutcome::Question(info))
            }
            Step::Learned(Ok(outcome)) => {
                let (query, stats) = outcome.into_parts();
                for (i, (phase, _)) in PHASE_NAMES.iter().enumerate() {
                    entry.resources.questions_by_phase[i] += stats.phase(*phase) as u64;
                }
                entry.state = SessionState::Done;
                entry.learned = Some(query.clone());
                entry.failure = None;
                self.completed.fetch_add(1, Ordering::Relaxed);
                self.metrics.record_learn(&stats);
                let bytes = self.log_append(&LogRecord::QueryLearned {
                    id,
                    query: query.clone(),
                })?;
                entry.resources.store_bytes += bytes;
                crate::log::info(
                    "registry",
                    "session learned its query",
                    &[
                        ("session", Json::U64(id)),
                        ("questions", Json::U64(stats.questions as u64)),
                    ],
                );
                Ok(StepOutcome::Learned {
                    query,
                    questions: entry.dialogue.transcript().len(),
                })
            }
            Step::Verified(Ok(outcome)) => {
                let verified = outcome.is_verified();
                entry.state = SessionState::Done;
                entry.verified = Some(verified);
                // Durable: recovery restores the session as verified
                // without waiting for a compaction snapshot.
                let bytes = self.log_append(&LogRecord::Verified { id, verified })?;
                entry.resources.store_bytes += bytes;
                crate::log::info(
                    "registry",
                    "session verification finished",
                    &[
                        ("session", Json::U64(id)),
                        ("verified", Json::Bool(verified)),
                    ],
                );
                Ok(StepOutcome::Verified { verified })
            }
            Step::Learned(Err(e)) | Step::Verified(Err(e)) => {
                let message = e.to_string();
                entry.state = SessionState::Failed;
                entry.failure = Some(message.clone());
                if !restoring {
                    self.failed.fetch_add(1, Ordering::Relaxed);
                    crate::log::warn(
                        "registry",
                        "session failed learning",
                        &[
                            ("session", Json::U64(id)),
                            ("error", Json::Str(message.clone())),
                        ],
                    );
                }
                Ok(StepOutcome::Failed { message })
            }
        }
    }
}

/// Maps the stored verdict code back to its wire name.
fn verdict_name(code: u8) -> &'static str {
    match code {
        0 => "ok",
        1 => "degraded",
        _ => "saturated",
    }
}

/// The health decision rule (see [`Registry::health`] for the semantics).
fn health_verdict(s: &SaturationSnapshot) -> &'static str {
    let mut verdict = "ok";
    for p in &s.pools {
        if p.workers > 0 && p.busy >= p.workers && p.queue_depth > 0 {
            return "saturated";
        }
        if p.queue_depth > 0 || (p.workers > 0 && p.busy * 4 >= p.workers * 3) {
            verdict = "degraded";
        }
    }
    verdict
}

fn learn_options(meta: &SessionMeta) -> LearnOptions {
    LearnOptions {
        max_questions: meta.max_questions,
        // Real users' intents need not mention every proposition; spend n
        // extra questions up front so incomplete targets learn exactly.
        detect_free_variables: true,
    }
}

/// A realized question as the protocol ships it; `index` is the
/// transcript position its answer will take.
fn question_info(realized: RealizedQuestion, index: usize) -> QuestionInfo {
    let from_store = realized.is_stored();
    let (question, rendered) = realized.into_parts();
    QuestionInfo {
        question,
        rendered,
        from_store,
        index,
    }
}

/// [`SessionResources::transcript_cache_bytes`]: the transcript's
/// serialized size, exchange by exchange, each written into one reused
/// buffer.
fn transcript_cache_bytes(transcript: &[Exchange]) -> u64 {
    let mut buf = String::new();
    transcript
        .iter()
        .map(|e| {
            buf.clear();
            e.write_json(&mut buf);
            buf.len() as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhorn_core::query::equiv::equivalent;
    use qhorn_engine::session::LearnerKind;
    use qhorn_lang::parse_with_arity;
    use std::path::PathBuf;

    /// A registry over a fresh store in a temporary directory, whose every
    /// sweep evicts each idle session; the caller removes the directory.
    fn evicting_registry(tag: &str) -> (Registry, PathBuf) {
        let dir = std::env::temp_dir().join(format!("qhorn-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = Registry::open(RegistryConfig {
            ttl: Duration::ZERO,
            store: Some(StoreConfig {
                fsync: qhorn_store::FsyncPolicy::Never,
                ..StoreConfig::new(dir.clone())
            }),
            ..Default::default()
        })
        .unwrap();
        (reg, dir)
    }

    fn spec(learner: LearnerKind) -> CreateSpec {
        CreateSpec {
            dataset: "chocolates".into(),
            size: 30,
            learner,
            max_questions: Some(10_000),
        }
    }

    /// Drives one session to completion with a target-query user.
    fn drive_to_done(reg: &Registry, id: u64, mut outcome: StepOutcome, target: &Query) -> Query {
        loop {
            match outcome {
                StepOutcome::Question(q) => {
                    let label = target.eval(&q.question);
                    outcome = reg.answer(id, label).unwrap();
                }
                StepOutcome::Learned { query, .. } => return query,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn end_to_end_learn_verify_in_registry() {
        let reg = Registry::open(RegistryConfig::default()).unwrap();
        let target = parse_with_arity("all x1; some x2 x3", 3).unwrap();
        let (id, first) = reg.create_session(spec(LearnerKind::Qhorn1)).unwrap();
        let learned = drive_to_done(&reg, id, first, &target);
        assert!(equivalent(&learned, &target), "learned {learned}");
        assert!(equivalent(&reg.learned_query(id).unwrap(), &target));

        // Verification against the same user must pass.
        let mut outcome = reg.begin_verify(id, None).unwrap();
        loop {
            match outcome {
                StepOutcome::Question(q) => {
                    outcome = reg.answer(id, target.eval(&q.question)).unwrap();
                }
                StepOutcome::Verified { verified } => {
                    assert!(verified);
                    break;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let stats = reg.stats();
        assert_eq!(stats.created, 1);
        assert_eq!(stats.completed, 1);
        assert!(stats.answers > 0);
    }

    #[test]
    fn wrong_state_requests_are_rejected() {
        let reg = Registry::open(RegistryConfig::default()).unwrap();
        let (id, _) = reg.create_session(spec(LearnerKind::Qhorn1)).unwrap();
        // Verify before learning finished.
        assert!(matches!(
            reg.begin_verify(id, None),
            Err(ServiceError::WrongState { .. })
        ));
        // Correct before completion.
        assert!(matches!(
            reg.correct(id, &[]),
            Err(ServiceError::WrongState { .. })
        ));
        // Unknown session.
        assert!(matches!(
            reg.answer(999, Response::Answer),
            Err(ServiceError::UnknownSession(999))
        ));
    }

    #[test]
    fn eviction_snapshots_and_restores_completed_sessions() {
        let (reg, dir) = evicting_registry("completed");
        let target = parse_with_arity("some x1 x2", 3).unwrap();
        let (id, first) = reg.create_session(spec(LearnerKind::Qhorn1)).unwrap();
        let learned = drive_to_done(&reg, id, first, &target);
        assert!(equivalent(&learned, &target));
        // TTL zero: the sweep evicts it.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(reg.sweep().evicted, 1);
        assert_eq!(reg.stats().live, 0);
        assert_eq!(reg.stats().snapshots, 1);
        // Touching the id restores it, learned query intact.
        let restored = reg.learned_query(id).unwrap();
        assert!(equivalent(&restored, &target));
        assert_eq!(reg.stats().restored, 1);
        assert_eq!(reg.stats().snapshots, 0);
        drop(reg);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reading an evicted session's accounting answers from the store
    /// and leaves it evicted: no restore, no replay, no reset.
    #[test]
    fn resources_of_an_evicted_session_do_not_restore_it() {
        let (reg, dir) = evicting_registry("resources");
        let target = parse_with_arity("all x1; some x2 x3", 3).unwrap();
        let (id, mut outcome) = reg.create_session(spec(LearnerKind::Qhorn1)).unwrap();
        for _ in 0..3 {
            let StepOutcome::Question(q) = outcome else {
                panic!("expected a question, got {outcome:?}");
            };
            outcome = reg.answer(id, target.eval(&q.question)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(reg.sweep().evicted, 1);
        let before = reg.stats();
        let res = reg.session_resources(id).unwrap();
        assert_eq!(res.state, EVICTED_STATE);
        assert_eq!(res.questions, 3);
        let after = reg.stats();
        assert_eq!(
            after.restored, before.restored,
            "the read restored the session"
        );
        assert_eq!(after.live, before.live);
        assert_eq!(after.snapshots, before.snapshots);
        assert!(matches!(
            reg.session_resources(999),
            Err(ServiceError::UnknownSession(999))
        ));
        // The next real request restores it as before.
        assert!(matches!(
            reg.next_question(id).unwrap(),
            StepOutcome::Question(_)
        ));
        assert_eq!(reg.stats().restored, before.restored + 1);
        drop(reg);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_mid_learning_replays_on_restore() {
        let (reg, dir) = evicting_registry("mid-learning");
        let target = parse_with_arity("all x1; some x2 x3", 3).unwrap();
        let (id, mut outcome) = reg
            .create_session(spec(LearnerKind::RolePreserving))
            .unwrap();
        // Answer a handful of questions, then evict mid-flight.
        for _ in 0..4 {
            match outcome {
                StepOutcome::Question(q) => {
                    outcome = reg.answer(id, target.eval(&q.question)).unwrap();
                }
                other => panic!("finished too early: {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(reg.sweep().evicted, 1);
        // Restore: the next_question call replays silently and resumes.
        let outcome = reg.next_question(id).unwrap();
        let learned = drive_to_done(&reg, id, outcome, &target);
        assert!(equivalent(&learned, &target), "learned {learned}");
        assert_eq!(reg.stats().restored, 1);
        // The user-visible question order survives eviction/restore: a
        // correction by pre-eviction index still lands on that question.
        let fix = honest_label_for_index_zero(&reg, id, &target);
        let mut outcome = reg.correct(id, &[(0, fix)]).unwrap();
        loop {
            match outcome {
                StepOutcome::Question(q) => {
                    outcome = reg.answer(id, target.eval(&q.question)).unwrap();
                }
                StepOutcome::Learned { query, .. } => {
                    assert!(equivalent(&query, &target));
                    break;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        drop(reg);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Without a store a session has nowhere to rest: a sweep past the
    /// TTL evicts nothing, and every session answers on.
    #[test]
    fn a_sweep_without_a_store_evicts_nothing() {
        let reg = Registry::open(RegistryConfig {
            ttl: Duration::ZERO,
            ..Default::default()
        })
        .unwrap();
        let target = parse_with_arity("all x1; some x2 x3", 3).unwrap();
        let mut sessions = Vec::new();
        for learner in [LearnerKind::Qhorn1, LearnerKind::RolePreserving] {
            let (id, step) = reg.create_session(spec(learner)).unwrap();
            let StepOutcome::Question(q) = step else {
                panic!("expected a question, got {step:?}");
            };
            sessions.push((id, reg.answer(id, target.eval(&q.question)).unwrap()));
        }
        std::thread::sleep(Duration::from_millis(5));
        let report = reg.sweep();
        assert_eq!((report.evicted, report.compacted), (0, false));
        let stats = reg.stats();
        assert_eq!((stats.live, stats.evicted, stats.snapshots), (2, 0, 0));
        for (id, step) in sessions {
            assert!(equivalent(&drive_to_done(&reg, id, step, &target), &target));
        }
        assert_eq!(reg.stats().restored, 0);
    }

    #[test]
    fn correction_replay_recovers_from_a_flip() {
        let reg = Registry::open(RegistryConfig::default()).unwrap();
        let target = parse_with_arity("all x1; some x2 x3", 3).unwrap();
        let (id, mut outcome) = reg
            .create_session(spec(LearnerKind::RolePreserving))
            .unwrap();
        // Flip the very first answer; play honestly afterwards.
        let mut first = true;
        loop {
            match outcome {
                StepOutcome::Question(q) => {
                    let honest = target.eval(&q.question);
                    let label = if first { honest.negate() } else { honest };
                    first = false;
                    outcome = reg.answer(id, label).unwrap();
                }
                StepOutcome::Learned { .. } | StepOutcome::Failed { .. } => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        // Whether the flip mislearned or failed the session, the corrected
        // replay must land on the target.
        let fix = honest_label_for_index_zero(&reg, id, &target);
        let mut outcome = reg.correct(id, &[(0, fix)]).unwrap();
        let learned = loop {
            match outcome {
                StepOutcome::Question(q) => {
                    outcome = reg.answer(id, target.eval(&q.question)).unwrap();
                }
                StepOutcome::Learned { query, .. } => break query,
                other => panic!("correction did not recover: {other:?}"),
            }
        };
        assert!(equivalent(&learned, &target), "learned {learned}");
    }

    /// The honest label for the first recorded question of a session.
    fn honest_label_for_index_zero(reg: &Registry, id: u64, target: &Query) -> Response {
        reg.with_entry(id, |entry| {
            Ok(target.eval(&entry.dialogue.transcript()[0].question))
        })
        .unwrap()
    }

    #[test]
    fn bad_verification_queries_do_not_corrupt_done_sessions() {
        let reg = Registry::open(RegistryConfig::default()).unwrap();
        let target = parse_with_arity("all x1; some x2 x3", 3).unwrap();
        let (id, first) = reg.create_session(spec(LearnerKind::Qhorn1)).unwrap();
        drive_to_done(&reg, id, first, &target);

        // Arity mismatch: rejected as an error, not sent to the driver.
        let wrong_arity = parse_with_arity("all x1", 1).unwrap();
        assert!(matches!(
            reg.begin_verify(id, Some(wrong_arity)),
            Err(ServiceError::Parse(_))
        ));
        // Outside the verifiable class (qhorn-1-only expression).
        let unverifiable = Query::new(
            3,
            [qhorn_core::Expr::existential_horn(
                qhorn_core::VarSet::from_indices([0]),
                qhorn_core::VarId(1),
            )],
        )
        .unwrap();
        if qhorn_core::verify::VerificationSet::build(&unverifiable).is_err() {
            assert!(matches!(
                reg.begin_verify(id, Some(unverifiable)),
                Err(ServiceError::Engine(_))
            ));
        }
        // The session is still Done and still verifies its learned query.
        let mut outcome = reg.begin_verify(id, None).unwrap();
        loop {
            match outcome {
                StepOutcome::Question(q) => {
                    outcome = reg.answer(id, target.eval(&q.question)).unwrap();
                }
                StepOutcome::Verified { verified } => {
                    assert!(verified);
                    break;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn failure_message_is_preserved_across_requests() {
        let reg = Registry::open(RegistryConfig::default()).unwrap();
        let target = parse_with_arity("all x1; some x2 x3", 3).unwrap();
        let tiny_budget = CreateSpec {
            max_questions: Some(2),
            ..spec(LearnerKind::Qhorn1)
        };
        let (id, mut outcome) = reg.create_session(tiny_budget).unwrap();
        let first_message = loop {
            match outcome {
                StepOutcome::Question(q) => {
                    outcome = reg.answer(id, target.eval(&q.question)).unwrap();
                }
                StepOutcome::Failed { message } => break message,
                other => panic!("expected budget failure, got {other:?}"),
            }
        };
        assert!(first_message.contains("budget"), "{first_message}");
        // Re-fetching reports the same reason, not a generic one.
        match reg.next_question(id).unwrap() {
            StepOutcome::Failed { message } => assert_eq!(message, first_message),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn second_correction_keeps_the_first() {
        let reg = Registry::open(RegistryConfig::default()).unwrap();
        let target = parse_with_arity("all x1; some x2 x3", 3).unwrap();
        let (id, mut outcome) = reg
            .create_session(spec(LearnerKind::RolePreserving))
            .unwrap();
        // Flip the first two answers.
        let mut flips = 2;
        loop {
            match outcome {
                StepOutcome::Question(q) => {
                    let honest = target.eval(&q.question);
                    let label = if flips > 0 {
                        flips -= 1;
                        honest.negate()
                    } else {
                        honest
                    };
                    outcome = reg.answer(id, label).unwrap();
                }
                StepOutcome::Learned { .. } | StepOutcome::Failed { .. } => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        // Correct index 0 first, then index 1 in a separate round; the
        // second round must not revert the first correction.
        for idx in [0usize, 1] {
            let fix = reg
                .with_entry(id, |entry| {
                    Ok(target.eval(&entry.dialogue.transcript()[idx].question))
                })
                .unwrap();
            let mut outcome = reg.correct(id, &[(idx, fix)]).unwrap();
            loop {
                match outcome {
                    StepOutcome::Question(q) => {
                        outcome = reg.answer(id, target.eval(&q.question)).unwrap();
                    }
                    StepOutcome::Learned { .. } | StepOutcome::Failed { .. } => break,
                    other => panic!("unexpected outcome {other:?}"),
                }
            }
        }
        let learned = reg.learned_query(id).unwrap();
        assert!(equivalent(&learned, &target), "learned {learned}");
    }

    /// The direct writer into one reused buffer counts the same bytes
    /// as rendering each exchange's `Json` tree.
    #[test]
    fn transcript_cache_bytes_match_the_tree_encoding() {
        let reg = Registry::open(RegistryConfig::default()).unwrap();
        let target = parse_with_arity("all x1; some x2 x3", 3).unwrap();
        let (id, first) = reg
            .create_session(spec(LearnerKind::RolePreserving))
            .unwrap();
        drive_to_done(&reg, id, first, &target);
        let tree: u64 = reg
            .with_entry(id, |entry| {
                Ok(entry
                    .dialogue
                    .transcript()
                    .iter()
                    .map(|e| e.to_json().to_string().len() as u64)
                    .sum())
            })
            .unwrap();
        assert!(tree > 0);
        assert_eq!(
            reg.session_resources(id).unwrap().transcript_cache_bytes,
            tree
        );
    }

    #[test]
    fn sessions_shard_across_stripes() {
        let reg = Registry::open(RegistryConfig {
            shards: 4,
            ..Default::default()
        })
        .unwrap();
        let target = parse_with_arity("some x1", 3).unwrap();
        let mut ids = Vec::new();
        for _ in 0..8 {
            let (id, first) = reg.create_session(spec(LearnerKind::Qhorn1)).unwrap();
            drive_to_done(&reg, id, first, &target);
            ids.push(id);
        }
        assert_eq!(reg.stats().live, 8);
        assert_eq!(reg.stats().completed, 8);
        // All ids distinct and all addressable.
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
        for id in ids {
            assert!(reg.learned_query(id).is_ok());
        }
    }
}
