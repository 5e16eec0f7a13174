//! Interactive learning/verification sessions — the DataPlay workflow
//! (§1): the learner asks Boolean membership questions; the session
//! *realizes* each question in the data domain, preferring a real stored
//! object with the exact signature and synthesizing one otherwise (§5's
//! "arbitrary examples" rebuttal); the user labels the realized object.
//!
//! A [`Dialogue`] is one session's state between two questions: the
//! store, the synthesizer, the transcript, and the learner (or §4
//! verifier) suspended at its pending question. The core learners are
//! `async` functions that await each answer, so the suspended learner is
//! simply their future; [`Dialogue::resume`] hands it the user's label
//! and polls it on to the next realized question or to its result, on
//! the caller's thread. [`Session`] drives the same `Dialogue` through a
//! callback that labels each realized example.
//!
//! Sessions record a transcript so users can review their responses;
//! [`Session::relearn_with_corrections`] replays a corrected transcript,
//! re-asking only questions the correction invalidated ("noisy users",
//! §5).

use crate::storage::DataStore;
use qhorn_core::learn::{
    learn_qhorn1_async, learn_role_preserving_async, LearnError, LearnOptions, LearnOutcome, Phase,
};
use qhorn_core::oracle::{MembershipOracle, ReplayOracle};
use qhorn_core::query::ClassError;
use qhorn_core::verify::{VerificationOutcome, VerificationSet};
use qhorn_core::{Obj, Query, Response};
use qhorn_relation::relation::{DataTuple, NestedObject};
use qhorn_relation::synthesize::{DomainHints, SynthesisError, Synthesizer};
use qhorn_relation::value::Value;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::future::Future;
use std::ops::Deref;
use std::pin::Pin;
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Waker};

/// A membership question realized in the data domain: a stored object
/// with exactly the requested signature, or a synthesized one.
#[derive(Clone, Debug)]
pub struct RealizedQuestion {
    question: Obj,
    /// The object's text, as [`NestedObject`] displays it.
    text: String,
    /// The data object; a synthesized one is built only when asked for.
    object: OnceLock<NestedObject>,
    /// What synthesized the object; `None` for a stored one.
    synth: Option<Arc<Synthesizer>>,
}

impl RealizedQuestion {
    /// The Boolean-domain question: the data object booleanizes to it
    /// exactly.
    #[must_use]
    pub fn question(&self) -> &Obj {
        &self.question
    }

    /// The data object to present.
    #[must_use]
    pub fn object(&self) -> &NestedObject {
        self.object.get_or_init(|| {
            let synth = self.synth.as_ref().expect("a stored object is set");
            synth
                .synthesize_object(&self.question, example_box())
                .expect("a realized question synthesizes")
        })
    }

    /// Consumes the question, returning it with the data object's text
    /// (its [`NestedObject`] `Display`), written without building a
    /// synthesized object.
    #[must_use]
    pub fn into_parts(self) -> (Obj, String) {
        (self.question, self.text)
    }

    /// `true` if the example came from the store.
    #[must_use]
    pub fn is_stored(&self) -> bool {
        self.synth.is_none()
    }
}

/// Which exact learner a session runs (the paper's two learnable
/// subclasses: §3.1 qhorn-1, §3.2 role-preserving).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LearnerKind {
    /// Theorem 3.1: qhorn-1 queries, O(n lg n) questions.
    Qhorn1,
    /// Theorems 3.5/3.8: role-preserving queries.
    #[default]
    RolePreserving,
}

impl LearnerKind {
    /// Stable wire/persistence name (`"qhorn1"` / `"role_preserving"`),
    /// shared by the service protocol and the durable session log.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            LearnerKind::Qhorn1 => "qhorn1",
            LearnerKind::RolePreserving => "role_preserving",
        }
    }

    /// Parses a [`LearnerKind::wire_name`].
    #[must_use]
    pub fn from_wire(name: &str) -> Option<LearnerKind> {
        match name {
            "qhorn1" => Some(LearnerKind::Qhorn1),
            "role_preserving" => Some(LearnerKind::RolePreserving),
            _ => None,
        }
    }

    /// Runs this learner over `oracle`, awaiting each answer.
    async fn learn<O: MembershipOracle + ?Sized>(
        self,
        n: u16,
        oracle: &mut O,
        opts: &LearnOptions,
    ) -> Result<LearnOutcome, LearnError> {
        match self {
            LearnerKind::Qhorn1 => learn_qhorn1_async(n, oracle, opts).await,
            LearnerKind::RolePreserving => learn_role_preserving_async(n, oracle, opts).await,
        }
    }
}

/// One transcript entry.
#[derive(Clone, PartialEq, Debug)]
pub struct Exchange {
    /// The Boolean-domain question.
    pub question: Obj,
    /// Whether the realized example was a stored object.
    pub from_store: bool,
    /// The user's label.
    pub response: Response,
}

/// Where [`Dialogue::resume`] stopped.
#[derive(Debug)]
pub enum Step {
    /// The run needs the user's label for this question.
    Question(RealizedQuestion),
    /// A learning run finished.
    Learned(Result<LearnOutcome, LearnError>),
    /// A verification run finished.
    Verified(Result<VerificationOutcome, LearnError>),
}

/// A learning or verification run, suspended at its pending question.
type Run = Pin<Box<dyn Future<Output = Step> + Send>>;

/// One session's state between two questions: the store and the
/// [`Synthesizer`] it realizes questions with, its transcript, and the
/// run (a learner or the §4 verifier) suspended at the question awaiting
/// the user's label. No thread is attached to it: [`Dialogue::resume`]
/// computes on the caller's thread until the next question or the
/// run's result.
///
/// `S` is how the dialogue holds its store: an [`Arc`] for a dialogue
/// that outlives any one borrow (a server's session), a plain reference
/// for [`Session`].
pub struct Dialogue<S = Arc<DataStore>> {
    store: S,
    synth: Arc<Synthesizer>,
    transcript: Vec<Exchange>,
    /// The question shown to the user, and whether a stored object
    /// realized it.
    pending: Option<(Obj, bool)>,
    /// The learning phase the last question came from.
    phase: Option<Phase>,
    run: Option<Run>,
}

impl<S: Deref<Target = DataStore>> Dialogue<S> {
    /// A dialogue over `store` with no run started. `transcript` is the
    /// history a later [`Dialogue::relearn`] replays (empty for a new
    /// session, a snapshot's transcript for a restored one). The
    /// synthesizer, built from the store's binding and the dataset's
    /// hints, is shared like the store: sessions over one dataset hold
    /// one copy of its tables.
    #[must_use]
    pub fn new(store: S, synth: Arc<Synthesizer>, transcript: Vec<Exchange>) -> Self {
        Dialogue {
            store,
            synth,
            transcript,
            pending: None,
            phase: None,
            run: None,
        }
    }

    /// Starts learning with `kind`; every question goes to the user.
    pub fn learn(&mut self, kind: LearnerKind, opts: &LearnOptions) {
        let n = self.store.bridge().n();
        let opts = opts.clone();
        self.start(async move { Step::Learned(kind.learn(n, &mut Suspend, &opts).await) });
    }

    /// Corrects the transcript by [`apply_corrections`] (an index is a
    /// transcript position), then re-learns with `kind` over a
    /// [`ReplayOracle`] of the corrected transcript: only questions it
    /// does not answer go to the user (§5). With no corrections this
    /// restores a session from its transcript.
    pub fn relearn(
        &mut self,
        kind: LearnerKind,
        corrections: &[(usize, Response)],
        opts: &LearnOptions,
    ) {
        // Corrections become part of the authoritative transcript, so a
        // later replay (another correction round, a snapshot restore)
        // starts from the corrected history rather than reverting it.
        apply_corrections(&mut self.transcript, corrections);
        let replay: Vec<(Obj, Response)> = self
            .transcript
            .iter()
            .map(|e| (e.question.clone(), e.response))
            .collect();
        let n = self.store.bridge().n();
        let opts = opts.clone();
        self.start(async move {
            let mut user = ReplayOracle::new(Suspend, replay);
            Step::Learned(kind.learn(n, &mut user, &opts).await)
        });
    }

    /// Starts verifying `given` against the user (§4).
    ///
    /// # Errors
    /// [`ClassError`] if `given` is not role-preserving; no run starts.
    pub fn verify(&mut self, given: &Query) -> Result<(), ClassError> {
        let set = VerificationSet::build(given)?;
        self.start(async move { Step::Verified(set.verify_async(&mut Suspend).await) });
        Ok(())
    }

    fn start(&mut self, run: impl Future<Output = Step> + Send + 'static) {
        self.pending = None;
        self.phase = None;
        self.run = Some(Box::pin(run));
    }

    /// The question awaiting the user's label, if the run is suspended
    /// on one. The dialogue holds the one copy of it.
    #[must_use]
    pub fn pending(&self) -> Option<&Obj> {
        self.pending.as_ref().map(|(question, _)| question)
    }

    /// Takes the pending question out, labelled `response`: the exchange
    /// [`Dialogue::resume`] appends to the transcript. [`Dialogue::put_back`]
    /// makes it pending again, as if it had never been taken.
    pub fn take_answered(&mut self, response: Response) -> Option<Exchange> {
        let (question, from_store) = self.pending.take()?;
        Some(Exchange {
            question,
            from_store,
            response,
        })
    }

    /// Makes an exchange [`Dialogue::take_answered`] took pending again,
    /// its label dropped.
    pub fn put_back(&mut self, answered: Exchange) {
        self.pending = Some((answered.question, answered.from_store));
    }

    /// Advances the run: `answered` is the pending question with the
    /// user's label, from [`Dialogue::take_answered`] (`None` to start a
    /// run, or to be shown the pending question again), and the run
    /// computes until it asks a question a data object can realize, or
    /// until it finishes. A question none can realize is answered
    /// `NonAnswer` without the user, as no object the user cares about
    /// has that pattern, and is not recorded: realization is
    /// deterministic, so a replay answers it the same way again.
    ///
    /// # Panics
    /// If no run was started, or the last one already finished.
    pub fn resume(&mut self, answered: Option<Exchange>) -> Step {
        self.pending = None;
        let mut answer = answered.map(|exchange| {
            let response = exchange.response;
            self.transcript.push(exchange);
            response
        });
        let run = self
            .run
            .as_mut()
            .expect("a dialogue resumes only a started run");
        loop {
            TURN.with_borrow_mut(|t| {
                *t = Turn {
                    answer,
                    ..Turn::default()
                }
            });
            let poll = run.as_mut().poll(&mut Context::from_waker(Waker::noop()));
            let turn = TURN.take();
            let question = match poll {
                Poll::Ready(step) => {
                    self.run = None;
                    return step;
                }
                Poll::Pending => turn.asked.expect("a run suspends only on a question"),
            };
            if turn.phase.is_some() {
                self.phase = turn.phase;
            }
            match realize(&self.store, &self.synth, &question) {
                Ok(realized) => {
                    self.pending = Some((question, realized.is_stored()));
                    return Step::Question(realized);
                }
                Err(_) => answer = Some(Response::NonAnswer),
            }
        }
    }

    /// Realizes a Boolean question as a data object.
    ///
    /// # Errors
    /// [`SynthesisError`] when no stored object matches and the pattern is
    /// unrealizable under the bound propositions.
    pub fn realize(&self, question: &Obj) -> Result<RealizedQuestion, SynthesisError> {
        realize(&self.store, &self.synth, question)
    }

    /// The store questions are realized over.
    #[must_use]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The transcript: the questions the user answered, in order. A
    /// position here is the index `Correct` names an answer by;
    /// unrealizable questions, answered without the user, take none.
    #[must_use]
    pub fn transcript(&self) -> &[Exchange] {
        &self.transcript
    }

    /// Consumes the dialogue, returning its transcript.
    #[must_use]
    pub fn into_transcript(self) -> Vec<Exchange> {
        self.transcript
    }

    /// The learning phase of the run's latest question (`None` for a
    /// verification run, or before a run's first question).
    #[must_use]
    pub fn phase(&self) -> Option<Phase> {
        self.phase
    }
}

/// What [`Dialogue::resume`] and the [`Suspend`] oracle inside the run
/// it polls hand each other. Set just before the poll and taken just
/// after it, on the polling thread; nothing else runs in between.
#[derive(Default)]
struct Turn {
    /// The label for the question the run is suspended on.
    answer: Option<Response>,
    /// The question the run suspended on.
    asked: Option<Obj>,
    /// The phase the learner last entered during the poll, if any.
    phase: Option<Phase>,
}

thread_local! {
    static TURN: RefCell<Turn> = RefCell::default();
}

/// The user, as seen from inside a run: a question is answered with the
/// label [`Dialogue::resume`] brought, or suspends the run.
struct Suspend;

impl MembershipOracle for Suspend {
    fn ask(&mut self, _question: &Obj) -> Response {
        unreachable!("a dialogue's user answers only through poll_ask")
    }

    fn try_ask(&mut self, _question: &Obj) -> Option<Response> {
        None
    }

    fn poll_ask(&mut self, question: &Obj, _cx: &mut Context<'_>) -> Poll<Option<Response>> {
        TURN.with_borrow_mut(|t| match t.answer.take() {
            Some(r) => Poll::Ready(Some(r)),
            None => {
                t.asked = Some(question.clone());
                Poll::Pending
            }
        })
    }

    fn enter_phase(&mut self, phase: Phase) {
        TURN.with_borrow_mut(|t| t.phase = Some(phase));
    }
}

/// An interactive session over a [`DataStore`], answered by a callback
/// that labels each realized example.
pub struct Session<'a> {
    dialogue: Dialogue<&'a DataStore>,
}

impl<'a> Session<'a> {
    /// Starts a session over a store, with value hints for synthesis
    /// (its [`Synthesizer`] is built here, once).
    #[must_use]
    pub fn new(store: &'a DataStore, hints: impl Borrow<DomainHints>) -> Self {
        Session::with_transcript(store, hints, Vec::new())
    }

    /// Resumes a session from a previously recorded transcript (e.g. one
    /// recovered from a durable log). Replayed learning
    /// ([`Session::relearn_with_corrections_as`] with no corrections)
    /// re-asks only questions the transcript does not answer.
    #[must_use]
    pub fn with_transcript(
        store: &'a DataStore,
        hints: impl Borrow<DomainHints>,
        transcript: Vec<Exchange>,
    ) -> Self {
        let synth = Synthesizer::new(store.bridge(), hints.borrow());
        Session {
            dialogue: Dialogue::new(store, Arc::new(synth), transcript),
        }
    }

    /// Realizes a Boolean question as a data object.
    ///
    /// # Errors
    /// [`SynthesisError`] when no stored object matches and the pattern is
    /// unrealizable under the bound propositions.
    pub fn realize(&self, question: &Obj) -> Result<RealizedQuestion, SynthesisError> {
        self.dialogue.realize(question)
    }

    /// Drives the started run with `respond`'s labels until it finishes;
    /// `None` when `respond` stopped answering (the run is dropped).
    fn drive<F, R>(&mut self, mut respond: F) -> Option<Step>
    where
        F: FnMut(&RealizedQuestion) -> R,
        R: Into<Option<Response>>,
    {
        let mut step = self.dialogue.resume(None);
        while let Step::Question(realized) = &step {
            let Some(answer) = respond(realized).into() else {
                self.dialogue.run = None;
                self.dialogue.pending = None;
                return None;
            };
            let answered = self.dialogue.take_answered(answer);
            step = self.dialogue.resume(answered);
        }
        Some(step)
    }

    fn drive_learning<F, R>(&mut self, respond: F) -> Result<LearnOutcome, LearnError>
    where
        F: FnMut(&RealizedQuestion) -> R,
        R: Into<Option<Response>>,
    {
        match self.drive(respond) {
            Some(Step::Learned(outcome)) => outcome,
            Some(other) => unreachable!("a learning run ended with {other:?}"),
            None => Err(LearnError::Stopped),
        }
    }

    /// Learns a qhorn-1 query from a user callback that labels realized
    /// examples; a callback answering `None` stops the learner.
    ///
    /// # Errors
    /// [`LearnError`] from the underlying learner.
    pub fn learn_qhorn1<F, R>(
        &mut self,
        opts: &LearnOptions,
        respond: F,
    ) -> Result<LearnOutcome, LearnError>
    where
        F: FnMut(&RealizedQuestion) -> R,
        R: Into<Option<Response>>,
    {
        self.dialogue.learn(LearnerKind::Qhorn1, opts);
        self.drive_learning(respond)
    }

    /// Learns a role-preserving query from a user callback.
    ///
    /// # Errors
    /// [`LearnError`] from the underlying learner.
    pub fn learn_role_preserving<F, R>(
        &mut self,
        opts: &LearnOptions,
        respond: F,
    ) -> Result<LearnOutcome, LearnError>
    where
        F: FnMut(&RealizedQuestion) -> R,
        R: Into<Option<Response>>,
    {
        self.dialogue.learn(LearnerKind::RolePreserving, opts);
        self.drive_learning(respond)
    }

    /// Verifies a given query against the user (§4).
    ///
    /// # Errors
    /// [`VerifyError::Class`] if `given` is not role-preserving;
    /// [`VerifyError::Stopped`] if `respond` stopped answering (`None`).
    pub fn verify<F, R>(
        &mut self,
        given: &Query,
        respond: F,
    ) -> Result<VerificationOutcome, VerifyError>
    where
        F: FnMut(&RealizedQuestion) -> R,
        R: Into<Option<Response>>,
    {
        self.dialogue.verify(given)?;
        match self.drive(respond) {
            Some(Step::Verified(outcome)) => outcome.map_err(|_| VerifyError::Stopped),
            Some(other) => unreachable!("a verification run ended with {other:?}"),
            None => Err(VerifyError::Stopped),
        }
    }

    /// The session transcript (the response history a UI would show).
    #[must_use]
    pub fn transcript(&self) -> &[Exchange] {
        self.dialogue.transcript()
    }

    /// Re-learns after the user corrects earlier responses: entries of the
    /// current transcript (with `corrections` applied by
    /// [`apply_corrections`]) are replayed; only genuinely new questions
    /// reach the user (§5).
    ///
    /// Uses the role-preserving learner; see
    /// [`Session::relearn_with_corrections_as`] to pick the learner.
    ///
    /// # Errors
    /// [`LearnError`] from the underlying learner.
    pub fn relearn_with_corrections<F, R>(
        &mut self,
        corrections: &[(usize, Response)],
        opts: &LearnOptions,
        respond: F,
    ) -> Result<LearnOutcome, LearnError>
    where
        F: FnMut(&RealizedQuestion) -> R,
        R: Into<Option<Response>>,
    {
        self.relearn_with_corrections_as(LearnerKind::RolePreserving, corrections, opts, respond)
    }

    /// [`Session::relearn_with_corrections`] with an explicit learner.
    ///
    /// # Errors
    /// [`LearnError`] from the underlying learner.
    pub fn relearn_with_corrections_as<F, R>(
        &mut self,
        kind: LearnerKind,
        corrections: &[(usize, Response)],
        opts: &LearnOptions,
        respond: F,
    ) -> Result<LearnOutcome, LearnError>
    where
        F: FnMut(&RealizedQuestion) -> R,
        R: Into<Option<Response>>,
    {
        self.dialogue.relearn(kind, corrections, opts);
        self.drive_learning(respond)
    }
}

/// Why [`Session::verify`] produced no outcome.
#[derive(Debug)]
pub enum VerifyError {
    /// The given query is not role-preserving.
    Class(qhorn_core::query::ClassError),
    /// The user callback stopped answering.
    Stopped,
}

impl From<qhorn_core::query::ClassError> for VerifyError {
    fn from(e: qhorn_core::query::ClassError) -> Self {
        VerifyError::Class(e)
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Class(e) => e.fmt(f),
            VerifyError::Stopped => f.write_str("the user stopped answering"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Applies `Correct` pairs to a transcript, the one rule a live session
/// and a replay of its log share. Every index is a transcript position
/// and is resolved to its question first; the label then goes to every
/// entry holding that question, so a question asked twice keeps one
/// label, and a later pair wins. An index past the end is skipped (a
/// service rejects those before it logs them).
pub fn apply_corrections(transcript: &mut [Exchange], corrections: &[(usize, Response)]) {
    for &(idx, response) in corrections {
        let Some(question) = transcript.get(idx).map(|e| e.question.clone()) else {
            continue;
        };
        for entry in transcript.iter_mut().filter(|e| e.question == question) {
            entry.response = response;
        }
    }
}

/// The object attributes of a synthesized example.
fn example_box() -> DataTuple {
    DataTuple::new([Value::str("example box")])
}

/// The text of [`example_box`].
const EXAMPLE_BOX: &str = "(\"example box\")";

/// Realizes `question` over a store and its synthesizer.
fn realize(
    store: &DataStore,
    synth: &Arc<Synthesizer>,
    question: &Obj,
) -> Result<RealizedQuestion, SynthesisError> {
    if let Some(&id) = store.boolean().find_by_signature(question).first() {
        let object = store.data_object(id).clone();
        return Ok(RealizedQuestion {
            question: question.clone(),
            text: object.to_string(),
            object: OnceLock::from(object),
            synth: None,
        });
    }
    Ok(RealizedQuestion {
        question: question.clone(),
        text: synth.render_object(question, EXAMPLE_BOX)?,
        object: OnceLock::new(),
        synth: Some(Arc::clone(synth)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::ObjectId;
    use qhorn_core::query::equiv::equivalent;
    use qhorn_relation::datasets::chocolates;

    fn data_store() -> DataStore {
        DataStore::from_relation(chocolates::assorted_boxes(40), chocolates::booleanizer()).unwrap()
    }

    /// A simulated user who evaluates realized examples *in the data
    /// domain* — by re-booleanizing the object they see and applying their
    /// intended query. This closes the full loop: Boolean question →
    /// data example → user judgement → Boolean response.
    fn data_domain_user(intent: Query) -> impl FnMut(&RealizedQuestion) -> Response {
        let bridge = chocolates::booleanizer();
        move |r: &RealizedQuestion| {
            let boolean = bridge
                .booleanize_object(r.object())
                .expect("well-typed example");
            intent.eval(&boolean)
        }
    }

    #[test]
    fn example_box_text_is_its_display() {
        assert_eq!(example_box().to_string(), EXAMPLE_BOX);
    }

    #[test]
    fn realized_text_is_the_object_display() {
        let ds = data_store();
        let session = Session::new(&ds, chocolates::hints());
        let stored = ds.boolean().get(ObjectId(0)).clone();
        let exotic = Obj::from_bits("000 001 010 011 100 101 110 111");
        for (q, from_store) in [(stored, true), (exotic, false)] {
            let realized = session.realize(&q).unwrap();
            assert_eq!(realized.is_stored(), from_store);
            assert_eq!(
                realized.object().to_string(),
                realized.clone().into_parts().1
            );
            assert_eq!(ds.bridge().booleanize_object(realized.object()).unwrap(), q);
        }
    }

    #[test]
    fn realize_prefers_stored_objects() {
        let ds = data_store();
        let session = Session::new(&ds, chocolates::hints());
        // Pick an existing signature — must come back as Stored.
        let sig = ds.boolean().get(ObjectId(0)).clone();
        let realized = session.realize(&sig).unwrap();
        assert!(realized.is_stored());
        // An exotic signature gets synthesized.
        let exotic = Obj::from_bits("001 010 100 111");
        let realized = session.realize(&exotic).unwrap();
        if !realized.is_stored() {
            let back = ds.bridge().booleanize_object(realized.object()).unwrap();
            assert_eq!(back, exotic, "synthesis inverts booleanization");
        }
    }

    #[test]
    fn end_to_end_learning_of_the_intro_query() {
        let ds = data_store();
        let mut session = Session::new(&ds, chocolates::hints());
        let intent = chocolates::intro_query();
        let outcome = session
            .learn_qhorn1(&LearnOptions::default(), data_domain_user(intent.clone()))
            .unwrap();
        assert!(
            equivalent(outcome.query(), &intent),
            "learned {} for intent {}",
            outcome.query(),
            intent
        );
        assert!(!session.transcript().is_empty());
    }

    #[test]
    fn end_to_end_verification() {
        let ds = data_store();
        let mut session = Session::new(&ds, chocolates::hints());
        let intent = chocolates::intro_query();
        // Correct query verifies.
        let outcome = session
            .verify(&intent, data_domain_user(intent.clone()))
            .unwrap();
        assert!(outcome.is_verified());
        // A wrong query is refuted.
        let wrong = qhorn_lang::parse_with_arity("some x1 x2 x3", 3).unwrap();
        let outcome = session.verify(&wrong, data_domain_user(intent)).unwrap();
        assert!(!outcome.is_verified());
    }

    #[test]
    fn correction_replay_reaches_the_right_query() {
        let ds = data_store();
        let mut session = Session::new(&ds, chocolates::hints());
        let intent = chocolates::intro_query();
        // A careless user: flips the very first response.
        let mut first = true;
        let mut careless = data_domain_user(intent.clone());
        let outcome = session.learn_role_preserving(&LearnOptions::default(), |r| {
            let honest = careless(r);
            if first {
                first = false;
                honest.negate()
            } else {
                honest
            }
        });
        // The flipped response may mislead learning (or even make the
        // transcript inconsistent); either way the *corrected* replay must
        // land on the intent.
        let mislearned = outcome.map(|o| o.query().clone()).ok();
        let corrected_first = intent.eval(&session.transcript()[0].question);
        let outcome = session
            .relearn_with_corrections(
                &[(0, corrected_first)],
                &LearnOptions::default(),
                data_domain_user(intent.clone()),
            )
            .unwrap();
        assert!(equivalent(outcome.query(), &intent));
        // Corrections become part of the authoritative transcript, so a
        // later replay starts from the corrected history.
        assert_eq!(
            session.transcript()[0].response,
            corrected_first,
            "correction must be recorded in the transcript itself"
        );
        if let Some(m) = mislearned {
            assert!(
                !equivalent(&m, &intent),
                "the flip mattered in this scenario"
            );
        }
    }

    /// An index names its question: every entry holding it takes the
    /// label, a later pair wins, and an index past the end is skipped.
    #[test]
    fn corrections_reach_every_entry_of_a_question_and_the_last_pair_wins() {
        let exchange = |bits: &str| Exchange {
            question: Obj::from_bits(bits),
            from_store: false,
            response: Response::Answer,
        };
        let mut transcript: Vec<Exchange> = ["011", "101", "011"].map(exchange).to_vec();
        apply_corrections(
            &mut transcript,
            &[
                (2, Response::NonAnswer),
                (1, Response::NonAnswer),
                (0, Response::Answer),
                (3, Response::NonAnswer),
            ],
        );
        let labels: Vec<Response> = transcript.iter().map(|e| e.response).collect();
        assert_eq!(
            labels,
            [Response::Answer, Response::NonAnswer, Response::Answer]
        );
    }

    #[test]
    fn unrealizable_patterns_answered_non_answer() {
        // Bind two interfering propositions; the learner's questions that
        // need origin=Madagascar ∧ origin=Belgium cannot be realized.
        let schema = chocolates::schema();
        let props = vec![
            qhorn_relation::proposition::Proposition::eq("pm", "origin", Value::str("Madagascar")),
            qhorn_relation::proposition::Proposition::eq("pb", "origin", Value::str("Belgium")),
        ];
        let bridge =
            qhorn_relation::binding::Booleanizer::new(schema.embedded.clone(), props).unwrap();
        let ds = DataStore::from_relation(chocolates::fig1_boxes(), bridge).unwrap();
        let mut session = Session::new(&ds, DomainHints::none());
        let clash = Obj::from_bits("11");
        assert!(session.realize(&clash).is_err());
        // The session answers such questions NonAnswer itself rather than
        // failing: the user only ever sees realizable ones, and the
        // transcript holds only what the user answered.
        let mut shown = 0;
        let outcome = session
            .learn_role_preserving(&LearnOptions::default(), |r| {
                shown += 1;
                assert!(r.question().tuples().iter().all(|t| t.true_set().len() < 2));
                Response::Answer
            })
            .unwrap();
        assert!(
            outcome.stats().questions > shown,
            "the learner asked an unrealizable question"
        );
        assert_eq!(session.transcript().len(), shown);
        assert!(session.transcript().iter().all(|e| e
            .question
            .tuples()
            .iter()
            .all(|t| t.true_set().len() < 2)));
    }

    #[test]
    fn a_dialogue_suspends_at_each_question_and_resumes_to_the_same_query() {
        let ds = Arc::new(data_store());
        let intent = chocolates::intro_query();
        let opts = LearnOptions {
            detect_free_variables: true,
            ..Default::default()
        };
        let mut session = Session::new(&ds, chocolates::hints());
        let want = session
            .learn_role_preserving(&opts, data_domain_user(intent.clone()))
            .unwrap();

        let mut dialogue = Dialogue::new(
            Arc::clone(&ds),
            Arc::new(Synthesizer::new(ds.bridge(), &chocolates::hints())),
            Vec::new(),
        );
        dialogue.learn(LearnerKind::RolePreserving, &opts);
        let mut user = data_domain_user(intent);
        let mut step = dialogue.resume(None);
        let mut shown = Vec::new();
        let got = loop {
            match step {
                Step::Question(r) => {
                    shown.push(r.question().clone());
                    assert!(dialogue.phase().is_some());
                    assert_eq!(dialogue.pending(), Some(r.question()));
                    // A label taken and put back leaves the question pending.
                    let taken = dialogue.take_answered(user(&r)).unwrap();
                    dialogue.put_back(taken);
                    assert_eq!(dialogue.pending(), Some(r.question()));
                    let answered = dialogue.take_answered(user(&r));
                    assert_eq!(dialogue.pending(), None);
                    step = dialogue.resume(answered);
                }
                Step::Learned(outcome) => break outcome.unwrap(),
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(got.query(), want.query());
        assert_eq!(dialogue.transcript(), session.transcript());
        let asked: Vec<Obj> = session
            .transcript()
            .iter()
            .map(|e| e.question.clone())
            .collect();
        assert_eq!(shown, asked, "the same questions in the same order");
        // A dialogue's run is Send: a server moves it between request
        // threads.
        fn assert_send<T: Send>(_: &T) {}
        assert_send(&dialogue);
    }
}
