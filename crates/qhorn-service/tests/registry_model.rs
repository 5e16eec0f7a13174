//! Model test: every session operation against a pure reference.
//!
//! A generated sequence of operations — create (either learner, over a
//! dataset whose questions all realize or one where some cannot), answer
//! (honest or flipped), `Correct(i)`, verify, close, `NextQuestion`, a
//! forced sweep that evicts every idle session, and a registry restart
//! over the same durable store — runs against a real [`Registry`] and a
//! model side by side. The model keeps, per session, the transcript the
//! registry should hold and re-runs the core learner (or the §4
//! verification set) **synchronously** from the start of the current run
//! over those answers: a fresh run consumes them in order, a replayed run
//! (after `Correct` or a restore) serves them through a
//! [`ReplayOracle`]-style cache, exactly as §5's restart-from-error
//! workflow prescribes. The first question the answers do not cover is
//! the question the registry must be asking.
//!
//! Every reply is compared: the question, its index and provenance, the
//! learned query and its question count, the failure message, the
//! verification outcome, error kinds, and the session's state.
//!
//! Three registries run the harness:
//! - **durable**: over a store, every sweep evicting every idle session;
//! - **memory-only**: no store, so `Restart` is skipped and a sweep
//!   evicts nothing: every session stays live until it is closed;
//! - **compacting**: over a store with a one-byte compaction threshold
//!   and a long TTL, so every sweep evicts nothing and compacts the log
//!   (live sessions and sessions at rest alike, replayed from the log)
//!   into the store's snapshot file, which the next restart recovers
//!   from.
//!
//! Each has a tier-1 pass of a few dozen sequences; the `_long` passes
//! (ignored by default) run many more.

use proptest::prelude::*;
use qhorn_core::learn::{learn_qhorn1, learn_role_preserving, LearnError, LearnOptions};
use qhorn_core::oracle::MembershipOracle;
use qhorn_core::verify::VerificationSet;
use qhorn_core::{Obj, Query, Response};
use qhorn_engine::session::{LearnerKind, Session};
use qhorn_engine::DataStore;
use qhorn_relation::datasets::chocolates;
use qhorn_relation::{DomainHints, Proposition, Value};
use qhorn_service::registry::{CreateSpec, Registry, RegistryConfig, StepOutcome, EVICTED_STATE};
use qhorn_service::store::{FsyncPolicy, StoreConfig};
use qhorn_service::ServiceError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Targets over three variables: complete and incomplete (free
/// variables), qhorn-1 and role-preserving, and the empty query.
const TARGETS: &[&str] = &[
    "all x1; some x2 x3",
    "some x1 x2",
    "some x1",
    "all x1 -> x2; some x3",
    "all x2; all x3",
    "some x1 x2 -> x3",
    "all x1 x2 -> x3",
    "",
];

/// Chocolates' schema with two propositions on one attribute: a
/// question needing `origin = Madagascar` and `origin = Belgium` in one
/// tuple cannot be realized, so the session answers it `NonAnswer`
/// without showing it.
fn clash_def() -> qhorn_relation::DatasetDef {
    let mut def = chocolates::dataset_def("clash");
    def.propositions = vec![
        Proposition::is_true("dark", "isDark"),
        Proposition::eq("pm", "origin", Value::str("Madagascar")),
        Proposition::eq("pb", "origin", Value::str("Belgium")),
    ];
    def.hints = DomainHints::none();
    def
}

const DATASETS: &[(&str, usize)] = &[("chocolates", 30), ("clash", 1)];

/// The registry restarts before it has been open this long, so its own
/// once-a-second sweep never fires: every eviction is one the model
/// ordered.
const REGISTRY_LIFETIME: Duration = Duration::from_millis(700);

/// The compacting store's threshold: any appended record makes the next
/// sweep compact.
const COMPACT_THRESHOLD: u64 = 1;

/// Which registry a history runs against (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    Durable,
    MemoryOnly,
    Compacting,
}

#[derive(Clone, Debug)]
enum Op {
    Create {
        rp: bool,
        target: usize,
        dataset: usize,
        budget: Option<usize>,
    },
    Answer {
        slot: usize,
        count: usize,
        flips: u32,
    },
    Next {
        slot: usize,
    },
    Correct {
        slot: usize,
        index: usize,
    },
    Verify {
        slot: usize,
    },
    Close {
        slot: usize,
    },
    Sweep,
    Restart,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            any::<bool>(),
            0..TARGETS.len(),
            0..DATASETS.len(),
            prop::option::of(4usize..40)
        )
            .prop_map(|(rp, target, dataset, budget)| Op::Create {
                rp,
                target,
                dataset,
                budget
            }),
        (0usize..4, 1usize..24, any::<u32>(), any::<u32>()).prop_map(|(slot, count, a, b)| {
            Op::Answer {
                slot,
                count,
                // About one flip in eight answers.
                flips: a & b & (a >> 7 | b << 5),
            }
        }),
        (0usize..4, 1usize..24).prop_map(|(slot, count)| Op::Answer {
            slot,
            count,
            flips: 0
        }),
        (0usize..4, 1usize..24).prop_map(|(slot, count)| Op::Answer {
            slot,
            count,
            flips: 0
        }),
        (0usize..4).prop_map(|slot| Op::Next { slot }),
        (0usize..4, 0usize..48).prop_map(|(slot, index)| Op::Correct { slot, index }),
        (0usize..4).prop_map(|slot| Op::Verify { slot }),
        (0usize..4).prop_map(|slot| Op::Close { slot }),
        Just(Op::Sweep),
        Just(Op::Restart),
    ]
}

/// What the model expects a step to reply.
#[derive(Clone, Debug, PartialEq)]
enum Expect {
    Question {
        question: Obj,
        index: usize,
        from_store: bool,
    },
    Learned {
        query: Query,
        questions: usize,
    },
    Failed {
        message: String,
    },
    Verified {
        verified: bool,
    },
}

fn observed(outcome: StepOutcome) -> Expect {
    match outcome {
        StepOutcome::Question(q) => Expect::Question {
            question: q.question,
            index: q.index,
            from_store: q.from_store,
        },
        StepOutcome::Learned { query, questions } => Expect::Learned { query, questions },
        StepOutcome::Failed { message } => Expect::Failed { message },
        StepOutcome::Verified { verified } => Expect::Verified { verified },
    }
}

/// The kind of a rejected request (messages are not part of the model).
fn error_kind(e: &ServiceError) -> &'static str {
    match e {
        ServiceError::UnknownSession(_) => "unknown_session",
        ServiceError::WrongState { .. } => "wrong_state",
        ServiceError::Parse(_) => "parse",
        ServiceError::Engine(_) => "engine",
        _ => "other",
    }
}

type Reply = Result<Expect, &'static str>;

/// The run a session's learner or verifier is in.
#[derive(Clone, Debug)]
enum Run {
    /// Nothing runs (learning or verification finished).
    Idle,
    /// Learning from `start` on; `replay` is the transcript the run
    /// replays (a correction or a restore), `None` for a fresh run.
    Learn {
        start: usize,
        replay: Option<Vec<(Obj, Response)>>,
    },
    /// Verifying `query` from `start` on.
    Verify { start: usize, query: Query },
}

/// How a run's reference execution ended.
enum RunEnd {
    Ask(Obj),
    Learned(Result<Query, String>),
    Verified(bool),
}

/// The reference oracle: answers a run's questions from the answers
/// recorded since it started (in order), from the replayed transcript
/// (by question, later entries winning), and `NonAnswer` for questions
/// no data object can realize. It stops at the first question it
/// cannot answer.
struct Reference<'a> {
    fresh: &'a [(Obj, Response)],
    cursor: usize,
    cache: Option<HashMap<Obj, Response>>,
    realizable: &'a dyn Fn(&Obj) -> bool,
    auto: Vec<Obj>,
    stopped_at: Option<Obj>,
}

impl MembershipOracle for Reference<'_> {
    fn ask(&mut self, question: &Obj) -> Response {
        self.try_ask(question)
            .expect("the reference is only driven through try_ask")
    }

    fn try_ask(&mut self, question: &Obj) -> Option<Response> {
        if let Some(r) = self.cache.as_ref().and_then(|c| c.get(question)) {
            return Some(*r);
        }
        let r = if let Some((q, r)) = self.fresh.get(self.cursor) {
            assert_eq!(
                q, question,
                "the model's transcript diverged from its own run"
            );
            self.cursor += 1;
            *r
        } else if !(self.realizable)(question) {
            self.auto.push(question.clone());
            Response::NonAnswer
        } else {
            self.stopped_at = Some(question.clone());
            return None;
        };
        if let Some(cache) = &mut self.cache {
            cache.insert(question.clone(), r);
        }
        Some(r)
    }
}

struct ModelSession {
    id: u64,
    target: Query,
    kind: LearnerKind,
    store: Arc<DataStore>,
    hints: Arc<DomainHints>,
    budget: Option<usize>,
    transcript: Vec<(Obj, Response)>,
    asked: Vec<Obj>,
    answered: usize,
    run: Run,
    pending: Option<(Obj, usize, bool)>,
    learned: Option<Query>,
    /// The last finished verification's verdict, cleared by a
    /// correction (a verification in flight keeps it).
    verified: Option<bool>,
    failure: Option<String>,
    state: &'static str,
    closed: bool,
    evicted: bool,
}

impl ModelSession {
    fn realizable(&self, q: &Obj) -> Option<bool> {
        let session = Session::new(&self.store, self.hints.clone());
        session.realize(q).ok().map(|r| r.is_stored())
    }

    fn opts(&self) -> LearnOptions {
        LearnOptions {
            max_questions: self.budget,
            detect_free_variables: true,
        }
    }

    /// Runs the reference for the current run up to its next event and
    /// applies the event to the model.
    fn advance(&mut self) -> Expect {
        let store = Arc::clone(&self.store);
        let hints = self.hints.clone();
        let realizable = move |q: &Obj| Session::new(&store, hints.clone()).realize(q).is_ok();
        let (end, auto) = match &self.run {
            Run::Idle => panic!("advance on an idle model session"),
            Run::Learn { start, replay } => {
                let mut oracle = Reference {
                    fresh: &self.transcript[*start..],
                    cursor: 0,
                    cache: replay.as_ref().map(|t| t.iter().cloned().collect()),
                    realizable: &realizable,
                    auto: Vec::new(),
                    stopped_at: None,
                };
                let n = self.store.bridge().n();
                let opts = self.opts();
                let result = match self.kind {
                    LearnerKind::Qhorn1 => learn_qhorn1(n, &mut oracle, &opts),
                    LearnerKind::RolePreserving => learn_role_preserving(n, &mut oracle, &opts),
                };
                let end = match (result, oracle.stopped_at.take()) {
                    (Err(LearnError::Stopped), Some(q)) => RunEnd::Ask(q),
                    (Ok(outcome), None) => RunEnd::Learned(Ok(outcome.query().clone())),
                    (Err(e), None) => RunEnd::Learned(Err(e.to_string())),
                    (other, stopped) => panic!("reference ended {other:?} at {stopped:?}"),
                };
                (end, oracle.auto)
            }
            Run::Verify { start, query } => {
                let set = VerificationSet::build(query).expect("checked before the run");
                let mut oracle = Reference {
                    fresh: &self.transcript[*start..],
                    cursor: 0,
                    cache: None,
                    realizable: &realizable,
                    auto: Vec::new(),
                    stopped_at: None,
                };
                let end = match (set.try_verify(&mut oracle), oracle.stopped_at.take()) {
                    (Err(LearnError::Stopped), Some(q)) => RunEnd::Ask(q),
                    (Ok(outcome), None) => RunEnd::Verified(outcome.is_verified()),
                    (other, stopped) => panic!("reference ended {other:?} at {stopped:?}"),
                };
                (end, oracle.auto)
            }
        };
        self.transcript
            .extend(auto.into_iter().map(|q| (q, Response::NonAnswer)));
        let verifying = matches!(self.run, Run::Verify { .. });
        match end {
            RunEnd::Ask(q) => {
                let from_store = self.realizable(&q).expect("asked questions realize");
                let index = self.asked.len();
                self.asked.push(q.clone());
                self.pending = Some((q.clone(), index, from_store));
                if !verifying {
                    self.state = "awaiting_answer";
                }
                Expect::Question {
                    question: q,
                    index,
                    from_store,
                }
            }
            RunEnd::Learned(Ok(query)) => {
                self.run = Run::Idle;
                self.state = "done";
                self.learned = Some(query.clone());
                self.failure = None;
                Expect::Learned {
                    query,
                    questions: self.answered,
                }
            }
            RunEnd::Learned(Err(message)) => {
                self.run = Run::Idle;
                self.state = "failed";
                self.failure = Some(message.clone());
                Expect::Failed { message }
            }
            RunEnd::Verified(verified) => {
                self.run = Run::Idle;
                self.state = "done";
                self.verified = Some(verified);
                Expect::Verified { verified }
            }
        }
    }

    /// Starts a replay of the whole transcript (a correction, or the
    /// restore of a session that had not learned its query).
    fn replay(&mut self) -> Expect {
        self.run = Run::Learn {
            start: self.transcript.len(),
            replay: Some(self.transcript.clone()),
        };
        self.state = "learning";
        self.advance()
    }

    /// What the registry does when a request touches an evicted session.
    fn touch(&mut self) {
        if !self.evicted {
            return;
        }
        self.evicted = false;
        // Only answered questions keep their index; the one in flight is
        // asked again under the same index.
        self.asked.truncate(self.answered);
        self.pending = None;
        self.run = Run::Idle;
        self.failure = None;
        if self.learned.is_some() {
            self.state = "done";
        } else {
            self.replay();
        }
    }

    /// Eviction to a snapshot, or a restart over the durable store:
    /// what survives is the transcript, the asked questions, the answer
    /// count, the learned query and the last finished verdict.
    fn evict(&mut self) {
        if self.closed {
            return;
        }
        self.evicted = true;
    }

    fn answer(&mut self, flip: bool) -> Reply {
        if self.closed {
            return Err("unknown_session");
        }
        self.touch();
        let Some((q, _, _)) = self.pending.take() else {
            return Err("wrong_state");
        };
        let honest = self.target.eval(&q);
        let r = if flip { honest.negate() } else { honest };
        self.transcript.push((q, r));
        self.answered += 1;
        if self.state == "awaiting_answer" {
            self.state = "learning";
        }
        Ok(self.advance())
    }

    /// The label `answer` would give the pending question (for the
    /// registry call, which must send the same one).
    fn label(&self, flip: bool) -> Option<Response> {
        let (q, _, _) = self.pending.as_ref()?;
        let honest = self.target.eval(q);
        Some(if flip { honest.negate() } else { honest })
    }

    fn next(&mut self) -> Reply {
        if self.closed {
            return Err("unknown_session");
        }
        self.touch();
        if let Some((q, index, from_store)) = &self.pending {
            return Ok(Expect::Question {
                question: q.clone(),
                index: *index,
                from_store: *from_store,
            });
        }
        match self.state {
            "done" => Ok(match self.verified {
                Some(verified) => Expect::Verified { verified },
                None => Expect::Learned {
                    query: self.learned.clone().expect("done implies learned"),
                    questions: self.answered,
                },
            }),
            "failed" => Ok(Expect::Failed {
                message: self.failure.clone().expect("failed has a message"),
            }),
            _ => Err("wrong_state"),
        }
    }

    fn correct(&mut self, index: usize) -> (Reply, Option<Response>) {
        if self.closed {
            return (Err("unknown_session"), None);
        }
        self.touch();
        if self.state != "done" && self.state != "failed" {
            return (Err("wrong_state"), None);
        }
        let Some(q) = self.asked.get(index).cloned() else {
            return (Err("parse"), None);
        };
        let fix = self.target.eval(&q);
        for e in &mut self.transcript {
            if e.0 == q {
                e.1 = fix;
            }
        }
        self.learned = None;
        self.verified = None;
        self.failure = None;
        (Ok(self.replay()), Some(fix))
    }

    fn verify(&mut self) -> Reply {
        if self.closed {
            return Err("unknown_session");
        }
        self.touch();
        if self.state != "done" {
            return Err("wrong_state");
        }
        let query = self.learned.clone().expect("done implies learned");
        if VerificationSet::build(&query).is_err() {
            return Err("engine");
        }
        self.state = "verifying";
        self.run = Run::Verify {
            start: self.transcript.len(),
            query,
        };
        Ok(self.advance())
    }
}

static CASE: AtomicU64 = AtomicU64::new(0);

/// One generated history against a registry and the model.
struct Harness {
    variant: Variant,
    dir: PathBuf,
    registry: Option<Registry>,
    opened: Instant,
    sessions: Vec<ModelSession>,
}

impl Harness {
    fn new(variant: Variant, tag: &str) -> Self {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "registry-model-{tag}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = open(variant, &dir);
        registry.upload_dataset(clash_def()).expect("upload clash");
        Harness {
            variant,
            dir,
            registry: Some(registry),
            opened: Instant::now(),
            sessions: Vec::new(),
        }
    }

    /// Restarts the registry when it has been open long enough for its
    /// own sweep to fire soon. Called before every operation, and before
    /// the model looks at a session to choose a label.
    ///
    /// A memory-only registry's own sweep evicts nothing, so it stays
    /// open: any session it lost would answer `unknown_session`, which
    /// the model never expects of an open one.
    fn keep_fresh(&mut self) {
        if self.variant != Variant::MemoryOnly && self.opened.elapsed() >= REGISTRY_LIFETIME {
            self.restart();
        }
    }

    fn reg(&self) -> &Registry {
        self.registry.as_ref().expect("open")
    }

    fn restart(&mut self) {
        drop(self.registry.take());
        self.registry = Some(open(self.variant, &self.dir));
        self.opened = Instant::now();
        for s in &mut self.sessions {
            s.evict();
        }
    }

    /// The model session a slot picks: slot 0 any session (closed ones
    /// included), the others an open one when there is one.
    fn slot(&self, slot: usize) -> Option<usize> {
        let open: Vec<usize> = (0..self.sessions.len())
            .filter(|&i| !self.sessions[i].closed)
            .collect();
        if slot == 0 || open.is_empty() {
            (!self.sessions.is_empty()).then(|| slot % self.sessions.len())
        } else {
            Some(open[slot % open.len()])
        }
    }

    fn check_state(&mut self, i: usize) -> Result<(), TestCaseError> {
        if self.sessions[i].closed {
            return Ok(());
        }
        let id = self.sessions[i].id;
        let res = self
            .reg()
            .session_resources(id)
            .map_err(|e| TestCaseError::fail(format!("resources of {id}: {e}")))?;
        let s = &self.sessions[i];
        // The read leaves an evicted session evicted.
        let state = if s.evicted { EVICTED_STATE } else { s.state };
        prop_assert_eq!(res.state.as_str(), state, "state of session {}", id);
        prop_assert_eq!(
            res.questions,
            s.answered as u64,
            "answers of session {}",
            id
        );
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        self.keep_fresh();
        match *op {
            Op::Create {
                rp,
                target,
                dataset,
                budget,
            } => {
                let kind = if rp {
                    LearnerKind::RolePreserving
                } else {
                    LearnerKind::Qhorn1
                };
                let (name, size) = DATASETS[dataset];
                let spec = CreateSpec {
                    dataset: name.into(),
                    size,
                    learner: kind,
                    max_questions: budget,
                };
                let (store, hints) = self.reg().dataset(name, size).expect("dataset");
                let target = qhorn_lang::parse_with_arity(TARGETS[target], store.bridge().n())
                    .expect("target parses");
                let (id, outcome) = self
                    .reg()
                    .create_session(spec)
                    .map_err(|e| TestCaseError::fail(format!("create: {e}")))?;
                let mut s = ModelSession {
                    id,
                    target,
                    kind,
                    store,
                    hints,
                    budget,
                    transcript: Vec::new(),
                    asked: Vec::new(),
                    answered: 0,
                    run: Run::Learn {
                        start: 0,
                        replay: None,
                    },
                    pending: None,
                    learned: None,
                    verified: None,
                    failure: None,
                    state: "learning",
                    closed: false,
                    evicted: false,
                };
                let want = s.advance();
                prop_assert_eq!(observed(outcome), want, "create {}", id);
                self.sessions.push(s);
                let last = self.sessions.len() - 1;
                self.check_state(last)?;
            }
            Op::Answer { slot, count, flips } => {
                let Some(i) = self.slot(slot) else {
                    return Ok(());
                };
                for k in 0..count {
                    self.keep_fresh();
                    let flip = flips & (1 << (k % 32)) != 0;
                    let id = self.sessions[i].id;
                    // The label is chosen from the model's pending question;
                    // an unexpected restore shows up as a reply mismatch.
                    self.sessions[i].touch();
                    let label = self.sessions[i].label(flip).unwrap_or(Response::Answer);
                    let got = self.reg().answer(id, label);
                    let want = self.sessions[i].answer(flip);
                    compare(&format!("answer {k} of session {id}"), got, want)?;
                    self.check_state(i)?;
                    if self.sessions[i].pending.is_none() {
                        break;
                    }
                }
            }
            Op::Next { slot } => {
                let Some(i) = self.slot(slot) else {
                    return Ok(());
                };
                let id = self.sessions[i].id;
                let got = self.reg().next_question(id);
                let want = self.sessions[i].next();
                compare(&format!("next_question of session {id}"), got, want)?;
                self.check_state(i)?;
            }
            Op::Correct { slot, index } => {
                let Some(i) = self.slot(slot) else {
                    return Ok(());
                };
                let id = self.sessions[i].id;
                self.sessions[i].touch();
                // Mostly in range; one past the end is a parse error.
                let index = index % (self.sessions[i].asked.len() + 1);
                let fix = self.sessions[i]
                    .asked
                    .get(index)
                    .map_or(Response::Answer, |q| self.sessions[i].target.eval(q));
                let got = self.reg().correct(id, &[(index, fix)]);
                let (want, _) = self.sessions[i].correct(index);
                compare(&format!("correct({index}) of session {id}"), got, want)?;
                self.check_state(i)?;
            }
            Op::Verify { slot } => {
                let Some(i) = self.slot(slot) else {
                    return Ok(());
                };
                let id = self.sessions[i].id;
                let got = self.reg().begin_verify(id, None);
                let want = self.sessions[i].verify();
                compare(&format!("verify of session {id}"), got, want)?;
                self.check_state(i)?;
            }
            Op::Close { slot } => {
                let Some(i) = self.slot(slot) else {
                    return Ok(());
                };
                let id = self.sessions[i].id;
                let got = self.reg().close_session(id).map_err(|e| error_kind(&e));
                let want = if self.sessions[i].closed {
                    Err("unknown_session")
                } else {
                    Ok(())
                };
                prop_assert_eq!(got, want, "close of session {}", id);
                self.sessions[i].closed = true;
            }
            // A long TTL, or no store to evict to: the sweep evicts nothing
            // and compacts when the store's log is over its threshold.
            Op::Sweep if self.variant != Variant::Durable => {
                let due = self
                    .reg()
                    .stats()
                    .store
                    .is_some_and(|s| s.live_log_bytes > COMPACT_THRESHOLD);
                let report = self.reg().sweep();
                prop_assert_eq!(report.evicted, 0, "sweep evictions");
                prop_assert_eq!(report.compact_error, None);
                prop_assert_eq!(report.compacted, due, "sweep compaction");
                for i in 0..self.sessions.len() {
                    self.check_state(i)?;
                }
            }
            Op::Sweep => {
                let live = self
                    .sessions
                    .iter()
                    .filter(|s| !s.closed && !s.evicted)
                    .count();
                // Idle means untouched for longer than the zero TTL.
                std::thread::sleep(Duration::from_millis(1));
                let report = self.reg().sweep();
                prop_assert_eq!(report.evicted, live, "sweep evictions");
                for s in &mut self.sessions {
                    s.evict();
                }
                self.check_evicted()?;
            }
            // A restart would lose every session of a memory-only registry.
            Op::Restart if self.variant == Variant::MemoryOnly => {}
            Op::Restart => {
                self.restart();
                self.check_evicted()?;
            }
        }
        Ok(())
    }

    /// Reads every session's accounting while all are evicted: each read
    /// answers from the snapshot or the log and restores nothing.
    fn check_evicted(&mut self) -> Result<(), TestCaseError> {
        let restored = self.reg().stats().restored;
        for i in 0..self.sessions.len() {
            self.check_state(i)?;
        }
        let stats = self.reg().stats();
        prop_assert_eq!(stats.restored, restored, "a read restored a session");
        prop_assert_eq!(stats.live, 0, "a read restored a session");
        Ok(())
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        drop(self.registry.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn open(variant: Variant, dir: &Path) -> Registry {
    let store = StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::new(dir.to_path_buf())
    };
    let (ttl, store) = match variant {
        Variant::Durable => (Duration::ZERO, Some(store)),
        Variant::MemoryOnly => (Duration::ZERO, None),
        Variant::Compacting => (
            Duration::from_secs(3600),
            Some(StoreConfig {
                compact_threshold_bytes: COMPACT_THRESHOLD,
                ..store
            }),
        ),
    };
    Registry::open(RegistryConfig {
        ttl,
        store,
        ..RegistryConfig::default()
    })
    .expect("open registry")
}

fn compare(
    what: &str,
    got: Result<StepOutcome, ServiceError>,
    want: Reply,
) -> Result<(), TestCaseError> {
    let got = got.map(observed).map_err(|e| error_kind(&e));
    prop_assert_eq!(got, want, "{}", what);
    Ok(())
}

fn run_history(variant: Variant, tag: &str, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut h = Harness::new(variant, tag);
    for (step, op) in ops.iter().enumerate() {
        h.apply(op)
            .map_err(|e| TestCaseError::fail(format!("step {step} ({op:?}): {e}\nops: {ops:?}")))?;
    }
    // Every surviving session still answers as the model says.
    let mut check_final = || {
        for i in 0..h.sessions.len() {
            h.keep_fresh();
            let id = h.sessions[i].id;
            let got = h.reg().next_question(id);
            let want = h.sessions[i].next();
            compare(&format!("final next_question of session {id}"), got, want)?;
        }
        Ok(())
    };
    check_final().map_err(|e: TestCaseError| TestCaseError::fail(format!("{e}\nops: {ops:?}")))
}

/// Regression (found by the model): a question in flight when its
/// session was evicted was appended to the asked list again on restore,
/// so it came back under a new index. The durable log numbers only
/// answered questions, so after a restart a correction by the live
/// index was applied to a different question.
#[test]
fn question_in_flight_keeps_its_index_across_eviction() {
    let ops = [
        Op::Create {
            rp: false,
            target: 0,
            dataset: 0,
            budget: None,
        },
        Op::Sweep,
        Op::Next { slot: 1 },
        Op::Answer {
            slot: 1,
            count: 23,
            flips: 0b100,
        },
        Op::Correct { slot: 1, index: 2 },
        Op::Restart,
        Op::Next { slot: 1 },
    ];
    if let Err(e) = run_history(Variant::Durable, "in-flight", &ops) {
        panic!("{e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn registry_matches_the_reference_model(ops in prop::collection::vec(op_strategy(), 1..40)) {
        run_history(Variant::Durable, "quick", &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memory_only_registry_matches_the_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..40)
    ) {
        run_history(Variant::MemoryOnly, "memory-quick", &ops)?;
    }

    #[test]
    fn compacting_registry_matches_the_reference_model(
        ops in prop::collection::vec(op_strategy(), 1..40)
    ) {
        run_history(Variant::Compacting, "compacting-quick", &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    #[ignore = "long run; CI runs it with --ignored"]
    fn registry_model_long(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_history(Variant::Durable, "long", &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    #[ignore = "long run; CI runs it with --ignored"]
    fn memory_only_registry_model_long(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_history(Variant::MemoryOnly, "memory-long", &ops)?;
    }

    #[test]
    #[ignore = "long run; CI runs it with --ignored"]
    fn compacting_registry_model_long(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_history(Variant::Compacting, "compacting-long", &ops)?;
    }
}

/// Regression (found by the compacting variant): a compaction deleted
/// every record of the closed session holding the highest id, so after
/// a restart the registry issued that id again, and a request for the
/// closed session reached the new one.
#[test]
fn a_closed_id_is_not_reissued_after_compaction() {
    let ops = [
        Op::Create {
            rp: true,
            target: 6,
            dataset: 1,
            budget: Some(19),
        },
        Op::Close { slot: 1 },
        Op::Sweep,
        Op::Restart,
        Op::Create {
            rp: true,
            target: 5,
            dataset: 1,
            budget: Some(8),
        },
    ];
    if let Err(e) = run_history(Variant::Compacting, "closed-id", &ops) {
        panic!("{e}");
    }
}

/// Regression (found by the compacting variant): a compaction recorded a
/// session's question in flight among its asked questions, and the log
/// record of its answer appended it again at recovery, so after a
/// restart every later `Correct` index named the question before it.
#[test]
fn a_compacted_question_in_flight_keeps_correct_indices() {
    let ops = [
        Op::Create {
            rp: true,
            target: 2,
            dataset: 0,
            budget: Some(20),
        },
        Op::Sweep,
        Op::Answer {
            slot: 2,
            count: 21,
            flips: 290,
        },
        Op::Restart,
        Op::Create {
            rp: true,
            target: 1,
            dataset: 0,
            budget: Some(4),
        },
        Op::Create {
            rp: false,
            target: 7,
            dataset: 0,
            budget: Some(22),
        },
        Op::Correct { slot: 3, index: 8 },
    ];
    if let Err(e) = run_history(Variant::Compacting, "compacted-in-flight", &ops) {
        panic!("{e}");
    }
}
