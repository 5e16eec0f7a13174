//! The traced run's per-layer timings. Each layer's public functions are
//! called from here on the workload's own inputs, every call inside a
//! span, and the metrics are aggregates of those spans.
//!
//! The dialogues replayed are the first dialogue of every slot of the
//! workload's script, interleaved across connections, each cut after
//! [`ANSWER_CAP`] answers, until [`ANSWER_BUDGET`] answers are spent: the
//! same set for a given seed on every run. They are replayed in lockstep
//! four ways, through `Registry` directly, through
//! `dispatch::try_dispatch`, and as `Client` round trips over TCP and over
//! HTTP, each on a fresh registry with the workload's configuration; the
//! median of the per-step difference between two neighbouring ways is a
//! layer's overhead. The learner, realization and store are timed on
//! their own on the same questions and records.

use crate::trace::Recorder;
use crate::workload::{Plan, SlotSpec, Workload};
use crate::Metric;
use qhorn_core::learn::{learn_qhorn1, learn_role_preserving, LearnOptions};
use qhorn_core::oracle::FnOracle;
use qhorn_core::query::equiv::equivalent;
use qhorn_core::verify::VerificationSet;
use qhorn_core::{Obj, Response};
use qhorn_engine::plan::CompiledQuery;
use qhorn_engine::session::{Exchange, LearnerKind, Session};
use qhorn_json::ToJson;
use qhorn_service::dispatch::try_dispatch;
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::registry::{CreateSpec, Registry, RegistryConfig, StepOutcome};
use qhorn_service::store::{FsyncPolicy, StoreConfig};
use qhorn_service::{Client, HttpServer, Server};
use qhorn_store::{LogRecord, SessionMeta, SessionStore};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Answers replayed per dialogue at most.
const ANSWER_CAP: usize = 400;
/// Answers replayed per path in total.
const ANSWER_BUDGET: usize = 1_600;

/// A replayed dialogue: its plan and the questions the service asked,
/// with the user's answers.
struct Replayed<'a> {
    plan: &'a Plan,
    exchanges: Vec<Exchange>,
}

/// The first plan of every dialogue slot, interleaving connections.
fn script_plans(w: &Workload) -> Vec<&Plan> {
    fn firsts(slots: &[SlotSpec]) -> Vec<&Plan> {
        slots
            .iter()
            .filter_map(|s| match s {
                SlotSpec::Dialogues(plans) => plans.front(),
                SlotSpec::Evals(_) => None,
            })
            .collect()
    }
    let (a, b) = (firsts(&w.conns[0]), firsts(&w.conns[1]));
    let mut out = Vec::new();
    for i in 0..a.len().max(b.len()) {
        out.extend(a.get(i));
        out.extend(b.get(i));
    }
    out
}

fn options() -> LearnOptions {
    // As the registry configures its sessions.
    LearnOptions {
        max_questions: None,
        detect_free_variables: true,
    }
}

fn registry(w: &Workload, dir: &Path) -> Result<Arc<Registry>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let config = RegistryConfig {
        store: w.durable.then(|| StoreConfig {
            fsync: FsyncPolicy::Always,
            ..StoreConfig::new(dir)
        }),
        ..RegistryConfig::default()
    };
    Registry::open(config)
        .map(Arc::new)
        .map_err(|e| format!("open registry: {e}"))
}

fn mean_of(spans: &Recorder, name: &str) -> f64 {
    crate::stats::mean(&spans.durations(name))
}

/// What one step of a replayed dialogue returned.
enum Step {
    Question(Obj, bool),
    End,
}

/// One way into the service.
enum Route<'r> {
    /// `Registry` methods.
    Direct(&'r Registry),
    /// `dispatch::try_dispatch`.
    Dispatch(&'r Arc<Registry>),
    /// `Client::request` over the named transport.
    Client(Client, &'static str),
}

impl Route<'_> {
    fn span_names(&self) -> (&'static str, &'static str) {
        match self {
            Route::Direct(_) => ("registry.create_session", "registry.answer"),
            Route::Dispatch(_) => ("dispatch.create_session", "dispatch.answer"),
            Route::Client(_, "tcp") => ("tcp.create_session", "tcp.answer"),
            Route::Client(..) => ("http.create_session", "http.answer"),
        }
    }

    fn send(&mut self, req: &Request) -> Result<(u64, Step), String> {
        let reply = match self {
            Route::Direct(r) => {
                let (session, outcome) = match req {
                    Request::CreateSession {
                        dataset,
                        size,
                        learner,
                        max_questions,
                    } => r.create_session(CreateSpec {
                        dataset: dataset.clone(),
                        size: *size,
                        learner: *learner,
                        max_questions: *max_questions,
                    }),
                    Request::Answer { session, response } => {
                        r.answer(*session, *response).map(|o| (*session, o))
                    }
                    Request::CloseSession { session } => {
                        return r
                            .close_session(*session)
                            .map(|()| (*session, Step::End))
                            .map_err(|e| e.to_string());
                    }
                    other => unreachable!("replays do not send {}", other.kind()),
                }
                .map_err(|e| e.to_string())?;
                return match outcome {
                    StepOutcome::Question(q) => {
                        Ok((session, Step::Question(q.question, q.from_store)))
                    }
                    StepOutcome::Learned { .. } => Ok((session, Step::End)),
                    other => Err(format!("replayed dialogue ended with {other:?}")),
                };
            }
            Route::Dispatch(r) => try_dispatch(r, req.clone()).map_err(|e| e.to_string())?,
            Route::Client(c, _) => c.request(req).map_err(|e| e.to_string())?,
        };
        match reply {
            Reply::Created { session, step } | Reply::Step { session, step } => match step {
                StepReply::Question {
                    question,
                    from_store,
                    ..
                } => Ok((session, Step::Question(question, from_store))),
                StepReply::Learned { .. } => Ok((session, Step::End)),
                other => Err(format!("replayed dialogue ended with {other:?}")),
            },
            Reply::Closed { session } => Ok((session, Step::End)),
            other => Err(format!("replayed {} failed: {other:?}", req.kind())),
        }
    }
}

/// Replays `plan` on every path in lockstep, one step on each path in
/// turn, so that all of them run under the same conditions. Every path
/// must ask the same questions.
fn replay<'p>(
    plan: &'p Plan,
    paths: &mut [Route<'_>],
    spans: &mut Recorder,
    parent: Option<usize>,
) -> Result<Replayed<'p>, String> {
    let create = Request::CreateSession {
        dataset: plan.dataset.clone(),
        size: plan.size,
        learner: plan.learner,
        max_questions: None,
    };
    let mut sessions = Vec::new();
    let mut steps = Vec::new();
    for p in paths.iter_mut() {
        let result = spans.time(p.span_names().0, parent, 0, || p.send(&create));
        let (session, step) = result?;
        sessions.push(session);
        steps.push(step);
    }
    let mut exchanges = Vec::new();
    while let Some(Step::Question(question, from_store)) = steps.first() {
        if exchanges.len() >= ANSWER_CAP {
            break;
        }
        let response = plan.target.eval(question);
        exchanges.push(Exchange {
            question: question.clone(),
            from_store: *from_store,
            response,
        });
        let k = exchanges.len() as u64;
        // Rotate which path goes first, so none always runs right after
        // the others.
        let n = paths.len();
        for i in (0..n).map(|i| (i + k as usize) % n) {
            let asked = &exchanges[exchanges.len() - 1].question;
            if !matches!(&steps[i], Step::Question(q, _) if q == asked) {
                return Err(format!("replay paths diverged over {}", plan.dataset));
            }
            let p = &mut paths[i];
            let answer = Request::Answer {
                session: sessions[i],
                response,
            };
            let result = spans.time(p.span_names().1, parent, k, || p.send(&answer));
            steps[i] = result?.1;
        }
    }
    Ok(Replayed { plan, exchanges })
}

/// Times every layer; see the module documentation.
pub fn measure(
    w: &Workload,
    recorded: &[(Request, Reply)],
    work: &Path,
    spans: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let root = spans.begin("layers", None, 0);
    let plans = script_plans(w);

    // Catalog: uploads into a fresh registry.
    let direct = registry(w, &work.join("layers-direct"))?;
    for (i, def) in w.uploads.iter().enumerate() {
        let r = spans.time("catalog.upload", root, i as u64, || {
            direct.upload_dataset(def.clone())
        });
        r.map_err(|e| format!("upload {}: {e}", def.name))?;
    }
    let dispatched = registry(w, &work.join("layers-dispatch"))?;
    let fronted = registry(w, &work.join("layers-frontends"))?;
    for r in [&dispatched, &fronted] {
        for def in &w.uploads {
            r.upload_dataset(def.clone()).map_err(|e| e.to_string())?;
        }
    }
    let tcp = Server::start(
        "127.0.0.1:0",
        Arc::clone(&fronted),
        crate::server::FRONTEND_WORKERS,
    )
    .map_err(|e| e.to_string())?;
    let http = HttpServer::start(
        "127.0.0.1:0",
        Arc::clone(&fronted),
        crate::server::FRONTEND_WORKERS,
    )
    .map_err(|e| e.to_string())?;
    let mut paths = [
        Route::Direct(&direct),
        Route::Dispatch(&dispatched),
        Route::Client(
            Client::connect(tcp.addr()).map_err(|e| e.to_string())?,
            "tcp",
        ),
        Route::Client(
            Client::connect_http(http.addr()).map_err(|e| e.to_string())?,
            "http",
        ),
    ];
    let mut replayed = Vec::new();
    let mut budget = ANSWER_BUDGET;
    for plan in &plans {
        if budget == 0 {
            break;
        }
        let r = replay(plan, &mut paths, spans, root)?;
        budget = budget.saturating_sub(r.exchanges.len().max(1));
        replayed.push(r);
    }

    // Learner compute: each script plan learned against its target with
    // the answers fed from memory, so the oracle costs nothing.
    let mut learned_questions = 0usize;
    let mut learned_plans = 0usize;
    let mut verify_sets = Vec::new();
    let mut asked: Vec<Vec<Obj>> = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        let n = plan.target.arity();
        let mut answers = Vec::new();
        let mut questions = Vec::new();
        let learn = |o: &mut dyn qhorn_core::MembershipOracle| match plan.learner {
            LearnerKind::Qhorn1 => learn_qhorn1(n, o, &options()),
            LearnerKind::RolePreserving => learn_role_preserving(n, o, &options()),
        };
        learn(&mut FnOracle(|q: &Obj| {
            let r = plan.target.eval(q);
            answers.push(r);
            questions.push(q.clone());
            r
        }))
        .map_err(|e| format!("learning {}: {e}", plan.dataset))?;
        let mut next = answers.iter().copied();
        let outcome = spans.time("learn", root, i as u64, || {
            learn(&mut FnOracle(|_: &Obj| {
                next.next().unwrap_or(Response::NonAnswer)
            }))
        });
        let outcome = outcome.map_err(|e| format!("learning {}: {e}", plan.dataset))?;
        if !equivalent(outcome.query(), &plan.target) {
            return Err(format!(
                "in-memory learner missed the target over {}",
                plan.dataset
            ));
        }
        learned_questions += answers.len();
        learned_plans += 1;
        verify_sets.push(outcome.query().clone());
        asked.push(questions);
    }
    for (i, q) in verify_sets.iter().enumerate() {
        let set = spans.time("verify.build", root, i as u64, || VerificationSet::build(q));
        set.map_err(|e| format!("verification set: {e}"))?;
    }

    // Realization: the learner's questions the replayed answers led to
    // (answer k realizes question k + 1), as the session's oracle does.
    let mut stores = BTreeMap::new();
    let mut stored = 0usize;
    let mut realized = 0usize;
    for (r, questions) in replayed.iter().zip(&asked) {
        let (store, hints) = stores
            .entry(r.plan.dataset.clone())
            .or_insert_with(|| w.build_store(&r.plan.dataset));
        let session = Session::new(store, hints.clone());
        let end = questions.len().min(r.exchanges.len() + 1);
        for (k, q) in questions[..end].iter().enumerate().skip(1) {
            let q = spans.time("realize", root, k as u64, || session.realize(q));
            let q = q.map_err(|err| format!("realize: {err}"))?;
            stored += usize::from(q.is_stored());
            realized += 1;
        }
    }

    // The store: the replayed dialogues' records, under the workload's policy.
    let mut bytes_per_answer = 0.0;
    if w.durable {
        let dir = work.join("layers-store");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut log, _) = SessionStore::open(&StoreConfig {
            fsync: FsyncPolicy::Always,
            ..StoreConfig::new(&dir)
        })
        .map_err(|e| format!("open store: {e}"))?;
        let mut answers = 0u64;
        let mut bytes = 0u64;
        for (id, r) in replayed.iter().enumerate() {
            let id = id as u64 + 1;
            log.append(&LogRecord::SessionCreated {
                id,
                meta: SessionMeta {
                    dataset: r.plan.dataset.clone(),
                    size: r.plan.size,
                    learner: r.plan.learner,
                    max_questions: None,
                },
            })
            .map_err(|e| e.to_string())?;
            for (k, e) in r.exchanges.iter().enumerate() {
                let before = log.bytes_appended();
                let rec = LogRecord::ExchangeAppended {
                    id,
                    exchange: e.clone(),
                };
                let res = spans.time("store.append", root, k as u64, || log.append(&rec));
                res.map_err(|e| e.to_string())?;
                bytes += log.bytes_appended() - before;
                answers += 1;
            }
        }
        bytes_per_answer = bytes as f64 / answers.max(1) as f64;
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Codec: the exchanges the traced phase recorded.
    let mut reply_bytes = Vec::new();
    for (i, (req, reply)) in recorded.iter().enumerate() {
        let line = qhorn_json::to_string(req);
        let decode = if matches!(req, Request::Answer { .. }) {
            "proto.decode_answer"
        } else {
            "proto.decode_other"
        };
        let parsed = spans.time(decode, root, i as u64, || {
            qhorn_json::from_str::<Request>(&line)
        });
        parsed.map_err(|e| format!("decode recorded request: {e}"))?;
        let encode = if matches!(req, Request::Answer { .. }) {
            "proto.encode_answer"
        } else {
            "proto.encode_other"
        };
        let text = spans.time(encode, root, i as u64, || {
            qhorn_json::to_string(&reply.to_json())
        });
        reply_bytes.push(text.len() as f64);
    }

    // Kernel: every evaluation case, with the one worker the workload's
    // requests ask for.
    let mut objects = 0usize;
    for (i, e) in w.evals.iter().enumerate() {
        let (store, _) = stores
            .entry(e.dataset.clone())
            .or_insert_with(|| w.build_store(&e.dataset));
        let query = qhorn_lang::parse_with_arity(&e.query, store.bridge().n())
            .map_err(|err| err.to_string())?;
        let plan = CompiledQuery::compile(&query);
        let (_, st) = spans.time("exec.batch", root, i as u64, || {
            qhorn_service::batch::execute_parallel_with_stats(&plan, store.boolean(), 1)
        });
        objects += st.objects;
    }
    spans.end(root);

    // Sessions are closed only now: a closed session's learner runs on to
    // its end answering nothing, and would compete with the timings above.
    drop(paths);
    tcp.shutdown();
    http.shutdown();
    drop((direct, dispatched, fronted));

    Ok(metrics(
        spans,
        &Counts {
            learned_questions,
            learned_plans,
            stored,
            realized,
            bytes_per_answer,
            reply_bytes: crate::stats::mean(&reply_bytes),
            objects,
            durable: w.durable,
        },
    ))
}

/// Counts gathered beside the spans.
struct Counts {
    learned_questions: usize,
    learned_plans: usize,
    stored: usize,
    realized: usize,
    bytes_per_answer: f64,
    reply_bytes: f64,
    objects: usize,
    durable: bool,
}

/// Median over steps of `a_k − b_k`, pairing the k-th span of each name:
/// the lockstep replay runs step k of every path back to back.
fn paired_median(spans: &Recorder, a: &str, b: &str) -> f64 {
    let diffs: Vec<f64> = spans
        .durations(a)
        .iter()
        .zip(spans.durations(b))
        .map(|(x, y)| x - y)
        .collect();
    crate::stats::median(&diffs)
}

fn metrics(spans: &Recorder, c: &Counts) -> Vec<Metric> {
    let n = |name| spans.count(name);
    let steps = n("registry.answer");
    let step = mean_of(spans, "registry.answer");
    let codec = mean_of(spans, "proto.decode_answer") + mean_of(spans, "proto.encode_answer");
    let dispatch = paired_median(spans, "dispatch.answer", "registry.answer");
    let tcp = paired_median(spans, "tcp.answer", "dispatch.answer") - codec;
    let http = paired_median(spans, "http.answer", "dispatch.answer") - codec;
    let rtt = mean_of(spans, "tcp.answer");
    let learn = spans.total_us("learn") / c.learned_questions.max(1) as f64;
    // Not every answer step realizes a next question.
    let realize_step = spans.total_us("realize") / steps.max(1) as f64;
    let store = if c.durable {
        mean_of(spans, "store.append")
    } else {
        0.0
    };
    let residual = step - learn - realize_step - store;
    let decodes = [
        spans.durations("proto.decode_answer"),
        spans.durations("proto.decode_other"),
    ]
    .concat();
    let encodes = [
        spans.durations("proto.encode_answer"),
        spans.durations("proto.encode_other"),
    ]
    .concat();
    let exec_s = spans.total_us("exec.batch") / 1e6;
    let share = |part: f64| part / rtt;
    vec![
        Metric::new("frontend.tcp_overhead_us", tcp, "us", n("tcp.answer")),
        Metric::new("frontend.http_overhead_us", http, "us", n("http.answer")),
        Metric::new(
            "proto.decode_us",
            crate::stats::mean(&decodes),
            "us",
            decodes.len(),
        ),
        Metric::new(
            "proto.encode_us",
            crate::stats::mean(&encodes),
            "us",
            encodes.len(),
        ),
        Metric::new("proto.reply_bytes", c.reply_bytes, "bytes", encodes.len()),
        Metric::new("dispatch.overhead_us", dispatch, "us", n("dispatch.answer")),
        Metric::new("registry.step_us", step, "us", steps),
        Metric::new("registry.residual_us", residual, "us", steps),
        Metric::new(
            "registry.create_us",
            mean_of(spans, "registry.create_session"),
            "us",
            n("registry.create_session"),
        ),
        Metric::new("learn.us_per_question", learn, "us", c.learned_questions),
        Metric::new(
            "learn.questions_per_dialogue",
            c.learned_questions as f64 / c.learned_plans.max(1) as f64,
            "count",
            c.learned_plans,
        ),
        Metric::new(
            "realize.us_per_question",
            mean_of(spans, "realize"),
            "us",
            c.realized,
        ),
        Metric::new(
            "realize.stored_frac",
            c.stored as f64 / c.realized.max(1) as f64,
            "ratio",
            c.realized,
        ),
        Metric::new(
            "verify.build_us",
            mean_of(spans, "verify.build"),
            "us",
            n("verify.build"),
        ),
        Metric::new("store.append_us", store, "us", n("store.append")),
        Metric::new(
            "store.bytes_per_answer",
            c.bytes_per_answer,
            "bytes",
            n("store.append"),
        ),
        Metric::new(
            "exec.objects_per_s",
            if exec_s > 0.0 {
                c.objects as f64 / exec_s
            } else {
                0.0
            },
            "1/s",
            n("exec.batch"),
        ),
        Metric::new(
            "catalog.upload_ms",
            mean_of(spans, "catalog.upload") / 1e3,
            "ms",
            n("catalog.upload"),
        ),
        Metric::new("answer.rtt_us", rtt, "us", n("tcp.answer")),
        Metric::new("share.frontend", share(tcp), "ratio", steps),
        Metric::new("share.proto", share(codec), "ratio", steps),
        Metric::new("share.dispatch", share(dispatch), "ratio", steps),
        Metric::new("share.registry_residual", share(residual), "ratio", steps),
        Metric::new("share.learn", share(learn), "ratio", steps),
        Metric::new("share.realize", share(realize_step), "ratio", steps),
        Metric::new("share.store", share(store), "ratio", steps),
    ]
}
