//! Per-session driver threads.
//!
//! The engine's learners are synchronous: they call a membership oracle
//! and expect an answer before returning. A request/response protocol
//! needs the opposite shape — a question goes out, the answer arrives in a
//! *later* request. The driver inverts control by running the learner on a
//! dedicated thread whose oracle callback parks on a channel: the
//! registry feeds answers in as protocol requests arrive and receives
//! questions/results as events.
//!
//! If the registry drops its channel ends (session closed or evicted, or
//! registry shut down), the callback stops answering: the learner or
//! verifier ends at that question with `LearnError::Stopped`, and the
//! thread exits without realizing any further question.

use crate::metrics::DriverMailbox;
use qhorn_core::learn::{LearnOptions, LearnOutcome, LearnStats};
use qhorn_core::{Obj, Query, Response};
use qhorn_engine::session::{Exchange, LearnerKind, RealizedQuestion, Session};
use qhorn_engine::DataStore;
use qhorn_relation::relation::NestedObject;
use qhorn_relation::synthesize::DomainHints;
use std::fmt::Write;
use std::sync::mpsc;
use std::sync::Arc;

/// Work the registry can ask a driver to do.
pub(crate) enum DriverCmd {
    /// Run the session's learner from scratch.
    Learn(LearnOptions),
    /// Replay the transcript with the given questions' responses
    /// corrected, re-asking only invalidated questions. Corrections are
    /// keyed by question (not index) so they stay attached to the right
    /// exchange even when the transcript contains auto-answered
    /// unrealizable questions the user never saw.
    Relearn(Vec<(Obj, Response)>, LearnOptions),
    /// Run the §4 verification protocol for `query`.
    Verify(Query),
}

/// Events a driver emits back to the registry.
pub(crate) enum DriverEvent {
    /// The learner/verifier needs a label for this question.
    Question(QuestionOut),
    /// Learning (or relearning) finished.
    LearnFinished {
        /// The learned query plus the run's per-phase question accounting
        /// (folded into the service metrics), or the learner's failure
        /// message.
        result: Result<(Query, LearnStats), String>,
        /// The session's authoritative transcript after the run.
        transcript: Vec<Exchange>,
    },
    /// Verification finished.
    VerifyFinished {
        /// `true` iff every verification question matched.
        verified: bool,
        /// The session's authoritative transcript after the run.
        transcript: Vec<Exchange>,
    },
}

/// A question as shipped to the registry (and onward over the wire).
/// The registry assigns the user-visible question index; the driver does
/// not track one (its transcript may contain auto-answered entries the
/// user never sees).
#[derive(Clone, Debug)]
pub(crate) struct QuestionOut {
    /// The Boolean-domain membership question.
    pub question: Obj,
    /// Human-readable rendering of the realized data object.
    pub rendered: String,
    /// Whether the example came from the store.
    pub from_store: bool,
}

/// The registry's handle to one driver thread.
pub(crate) struct DriverHandle {
    pub cmd_tx: mpsc::Sender<DriverCmd>,
    pub ans_tx: mpsc::Sender<Response>,
    pub evt_rx: mpsc::Receiver<DriverEvent>,
}

/// Spawns a driver thread over a shared store. `seed_transcript` restores
/// a snapshotted session (replay happens on the next `Relearn`); `mail`
/// is the registry-wide mailbox telemetry every send/receive feeds.
pub(crate) fn spawn(
    store: Arc<DataStore>,
    hints: DomainHints,
    kind: LearnerKind,
    seed_transcript: Vec<Exchange>,
    mail: Arc<DriverMailbox>,
) -> DriverHandle {
    let (cmd_tx, cmd_rx) = mpsc::channel::<DriverCmd>();
    let (ans_tx, ans_rx) = mpsc::channel::<Response>();
    let (evt_tx, evt_rx) = mpsc::channel::<DriverEvent>();
    std::thread::Builder::new()
        .name("qhorn-session-driver".into())
        .spawn(move || {
            run(
                &store,
                hints,
                kind,
                seed_transcript,
                &cmd_rx,
                &ans_rx,
                &evt_tx,
                &mail,
            )
        })
        .expect("spawn driver thread");
    DriverHandle {
        cmd_tx,
        ans_tx,
        evt_rx,
    }
}

#[allow(clippy::too_many_arguments)]
fn run(
    store: &Arc<DataStore>,
    hints: DomainHints,
    kind: LearnerKind,
    seed_transcript: Vec<Exchange>,
    cmd_rx: &mpsc::Receiver<DriverCmd>,
    ans_rx: &mpsc::Receiver<Response>,
    evt_tx: &mpsc::Sender<DriverEvent>,
    mail: &Arc<DriverMailbox>,
) {
    let mut session = Session::with_transcript(store, hints, seed_transcript);
    while let Ok(cmd) = cmd_rx.recv() {
        mail.cmd_received();
        match cmd {
            DriverCmd::Learn(opts) => {
                let outcome = {
                    let respond = respond_via(store, ans_rx, evt_tx, mail);
                    match kind {
                        LearnerKind::Qhorn1 => session.learn_qhorn1(&opts, respond),
                        LearnerKind::RolePreserving => {
                            session.learn_role_preserving(&opts, respond)
                        }
                    }
                };
                let finished = DriverEvent::LearnFinished {
                    result: outcome
                        .map(LearnOutcome::into_parts)
                        .map_err(|e| e.to_string()),
                    transcript: session.transcript().to_vec(),
                };
                if evt_tx.send(finished).is_err() {
                    return; // registry gone
                }
                mail.event_sent();
            }
            DriverCmd::Relearn(corrections, opts) => {
                // Resolve question-keyed corrections to transcript
                // indices (updating every occurrence of the question).
                let by_index: Vec<(usize, Response)> = session
                    .transcript()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| {
                        corrections
                            .iter()
                            .find(|(q, _)| *q == e.question)
                            .map(|&(_, r)| (i, r))
                    })
                    .collect();
                let outcome = {
                    let respond = respond_via(store, ans_rx, evt_tx, mail);
                    session.relearn_with_corrections_as(kind, &by_index, &opts, respond)
                };
                let finished = DriverEvent::LearnFinished {
                    result: outcome
                        .map(LearnOutcome::into_parts)
                        .map_err(|e| e.to_string()),
                    transcript: session.transcript().to_vec(),
                };
                if evt_tx.send(finished).is_err() {
                    return;
                }
                mail.event_sent();
            }
            DriverCmd::Verify(query) => {
                let outcome = {
                    let respond = respond_via(store, ans_rx, evt_tx, mail);
                    session.verify(&query, respond)
                };
                let finished = match outcome {
                    Ok(v) => DriverEvent::VerifyFinished {
                        verified: v.is_verified(),
                        transcript: session.transcript().to_vec(),
                    },
                    Err(e) => DriverEvent::LearnFinished {
                        result: Err(e.to_string()),
                        transcript: session.transcript().to_vec(),
                    },
                };
                if evt_tx.send(finished).is_err() {
                    return;
                }
                mail.event_sent();
            }
        }
    }
}

/// Builds the oracle callback: ship the realized question out, park until
/// the answer arrives. On a dead channel (closed or evicted session),
/// answer `None` so the learner stops at this question.
fn respond_via<'a>(
    store: &'a Arc<DataStore>,
    ans_rx: &'a mpsc::Receiver<Response>,
    evt_tx: &'a mpsc::Sender<DriverEvent>,
    mail: &'a Arc<DriverMailbox>,
) -> impl FnMut(&RealizedQuestion) -> Option<Response> + 'a {
    move |realized: &RealizedQuestion| {
        // Synthesis inverts booleanization, and stored objects are found
        // by this exact signature.
        debug_assert_eq!(
            store.bridge().booleanize_object(realized.object()).as_ref(),
            Ok(realized.question()),
            "a realized object booleanizes to its question"
        );
        let out = QuestionOut {
            question: realized.question().clone(),
            rendered: render(realized.object()),
            from_store: realized.is_stored(),
        };
        evt_tx.send(DriverEvent::Question(out)).ok()?;
        mail.event_sent();
        let answer = ans_rx.recv().ok()?;
        mail.answer_received();
        Some(answer)
    }
}

/// `attrs ⟨t1, t2, …⟩`, written into one buffer.
fn render(obj: &NestedObject) -> String {
    let mut out = String::new();
    let _ = write!(out, "{} ⟨", obj.attrs);
    for (i, t) in obj.tuples.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{t}");
    }
    out.push('⟩');
    out
}
