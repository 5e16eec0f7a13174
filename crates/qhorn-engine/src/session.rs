//! Interactive learning/verification sessions — the DataPlay workflow
//! (§1): the learner asks Boolean membership questions; the session
//! *realizes* each question in the data domain, preferring a real stored
//! object with the exact signature and synthesizing one otherwise (§5's
//! "arbitrary examples" rebuttal); the user labels the realized object.
//!
//! Sessions record a transcript so users can review their responses;
//! [`Session::relearn_with_corrections`] replays a corrected transcript,
//! re-asking only questions the correction invalidated ("noisy users",
//! §5).

use crate::storage::{DataStore, ObjectId};
use qhorn_core::learn::{
    learn_qhorn1, learn_role_preserving, LearnError, LearnOptions, LearnOutcome,
};
use qhorn_core::oracle::{MembershipOracle, ReplayOracle};
use qhorn_core::verify::{VerificationOutcome, VerificationSet};
use qhorn_core::{Obj, Query, Response};
use qhorn_relation::relation::{DataTuple, NestedObject};
use qhorn_relation::synthesize::{DomainHints, SynthesisError, Synthesizer};
use qhorn_relation::value::Value;

/// A membership question realized in the data domain.
#[derive(Clone, Debug)]
pub enum RealizedQuestion {
    /// A stored object has exactly the requested signature.
    Stored {
        /// The Boolean-domain question the object realizes.
        question: Obj,
        /// The stored object's id.
        id: ObjectId,
        /// The data object to show the user.
        object: NestedObject,
    },
    /// No stored object matches; a synthetic example was constructed.
    Synthesized {
        /// The Boolean-domain question the object realizes.
        question: Obj,
        /// The synthesized data object.
        object: NestedObject,
    },
}

impl RealizedQuestion {
    /// The Boolean-domain question: the data object booleanizes to it
    /// exactly.
    #[must_use]
    pub fn question(&self) -> &Obj {
        match self {
            RealizedQuestion::Stored { question, .. }
            | RealizedQuestion::Synthesized { question, .. } => question,
        }
    }

    fn into_question(self) -> Obj {
        match self {
            RealizedQuestion::Stored { question, .. }
            | RealizedQuestion::Synthesized { question, .. } => question,
        }
    }

    /// The data object to present.
    #[must_use]
    pub fn object(&self) -> &NestedObject {
        match self {
            RealizedQuestion::Stored { object, .. }
            | RealizedQuestion::Synthesized { object, .. } => object,
        }
    }

    /// `true` if the example came from the store.
    #[must_use]
    pub fn is_stored(&self) -> bool {
        matches!(self, RealizedQuestion::Stored { .. })
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

/// An interactive session over a [`DataStore`].
pub struct Session<'a> {
    store: &'a DataStore,
    hints: DomainHints,
    transcript: Vec<Exchange>,
}

impl<'a> Session<'a> {
    /// Starts a session over a store, with value hints for synthesis.
    #[must_use]
    pub fn new(store: &'a DataStore, hints: DomainHints) -> Self {
        Session {
            store,
            hints,
            transcript: Vec::new(),
        }
    }

    /// Resumes a session from a previously recorded transcript (e.g. a
    /// [`crate::persist::SessionSnapshot`]). Replayed learning
    /// ([`Session::relearn_with_corrections_as`] with no corrections)
    /// re-asks only questions the transcript does not answer.
    #[must_use]
    pub fn with_transcript(
        store: &'a DataStore,
        hints: DomainHints,
        transcript: Vec<Exchange>,
    ) -> Self {
        Session {
            store,
            hints,
            transcript,
        }
    }

    /// Realizes a Boolean question as a data object.
    ///
    /// # Errors
    /// [`SynthesisError`] when no stored object matches and the pattern is
    /// unrealizable under the bound propositions.
    pub fn realize(&self, question: &Obj) -> Result<RealizedQuestion, SynthesisError> {
        realize(self.store, &self.hints, question)
    }

    /// Learns a qhorn-1 query from a user callback that labels realized
    /// examples.
    ///
    /// # Errors
    /// [`LearnError`] from the underlying learner.
    pub fn learn_qhorn1<F, R>(
        &mut self,
        opts: &LearnOptions,
        mut respond: F,
    ) -> Result<LearnOutcome, LearnError>
    where
        F: FnMut(&RealizedQuestion) -> R,
        R: Into<Option<Response>>,
    {
        let n = self.store.bridge().n();
        let mut oracle = SessionOracle {
            session_store: self.store,
            hints: &self.hints,
            transcript: &mut self.transcript,
            respond: &mut |r| respond(r).into(),
        };
        learn_qhorn1(n, &mut oracle, opts)
    }

    /// Learns a role-preserving query from a user callback.
    ///
    /// # Errors
    /// [`LearnError`] from the underlying learner.
    pub fn learn_role_preserving<F, R>(
        &mut self,
        opts: &LearnOptions,
        mut respond: F,
    ) -> Result<LearnOutcome, LearnError>
    where
        F: FnMut(&RealizedQuestion) -> R,
        R: Into<Option<Response>>,
    {
        let n = self.store.bridge().n();
        let mut oracle = SessionOracle {
            session_store: self.store,
            hints: &self.hints,
            transcript: &mut self.transcript,
            respond: &mut |r| respond(r).into(),
        };
        learn_role_preserving(n, &mut oracle, opts)
    }

    /// Verifies a given query against the user (§4).
    ///
    /// # Errors
    /// [`VerifyError::Class`] if `given` is not role-preserving;
    /// [`VerifyError::Stopped`] if `respond` stopped answering (`None`).
    pub fn verify<F, R>(
        &mut self,
        given: &Query,
        mut respond: F,
    ) -> Result<VerificationOutcome, VerifyError>
    where
        F: FnMut(&RealizedQuestion) -> R,
        R: Into<Option<Response>>,
    {
        let set = VerificationSet::build(given)?;
        let mut oracle = SessionOracle {
            session_store: self.store,
            hints: &self.hints,
            transcript: &mut self.transcript,
            respond: &mut |r| respond(r).into(),
        };
        set.try_verify(&mut oracle)
            .map_err(|_| VerifyError::Stopped)
    }

    /// The session transcript (the response history a UI would show).
    #[must_use]
    pub fn transcript(&self) -> &[Exchange] {
        &self.transcript
    }

    /// Re-learns after the user corrects earlier responses: entries of the
    /// current transcript (with `corrections` applied by index) are
    /// replayed; only genuinely new questions reach the user (§5).
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
        mut respond: F,
    ) -> Result<LearnOutcome, LearnError>
    where
        F: FnMut(&RealizedQuestion) -> R,
        R: Into<Option<Response>>,
    {
        // Corrections become part of the authoritative transcript, so a
        // later replay (another correction round, a snapshot restore)
        // starts from the corrected history rather than reverting it.
        for &(idx, r) in corrections {
            if let Some(entry) = self.transcript.get_mut(idx) {
                entry.response = r;
            }
        }
        let cache: Vec<(Obj, Response)> = self
            .transcript
            .iter()
            .map(|e| (e.question.clone(), e.response))
            .collect();
        let n = self.store.bridge().n();
        let mut fresh_transcript = Vec::new();
        let outcome = {
            let mut inner = SessionOracle {
                session_store: self.store,
                hints: &self.hints,
                transcript: &mut fresh_transcript,
                respond: &mut |r| respond(r).into(),
            };
            let mut replay = ReplayOracle::new(&mut inner, cache);
            match kind {
                LearnerKind::Qhorn1 => learn_qhorn1(n, &mut replay, opts),
                LearnerKind::RolePreserving => learn_role_preserving(n, &mut replay, opts),
            }
        };
        self.transcript.extend(fresh_transcript);
        outcome
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

/// [`Session::realize`] over a borrowed store and hints.
fn realize(
    store: &DataStore,
    hints: &DomainHints,
    question: &Obj,
) -> Result<RealizedQuestion, SynthesisError> {
    if let Some(&id) = store.boolean().find_by_signature(question).first() {
        return Ok(RealizedQuestion::Stored {
            question: question.clone(),
            id,
            object: store.data_object(id).clone(),
        });
    }
    let object = Synthesizer::new(store.bridge(), hints)
        .synthesize_object(question, DataTuple::new([Value::str("example box")]))?;
    Ok(RealizedQuestion::Synthesized {
        question: question.clone(),
        object,
    })
}

/// Oracle adapter: realize each Boolean question, ask the callback, record
/// the exchange. A callback answering `None` stops the learner. Unrealizable patterns (joint proposition interference)
/// are answered `NonAnswer` — no data object can exhibit them, so no
/// object the user cares about has the pattern.
struct SessionOracle<'s, 'f> {
    session_store: &'s DataStore,
    hints: &'s DomainHints,
    transcript: &'f mut Vec<Exchange>,
    respond: &'f mut dyn FnMut(&RealizedQuestion) -> Option<Response>,
}

impl MembershipOracle for SessionOracle<'_, '_> {
    fn ask(&mut self, question: &Obj) -> Response {
        self.try_ask(question).unwrap_or(Response::NonAnswer)
    }

    fn try_ask(&mut self, question: &Obj) -> Option<Response> {
        match realize(self.session_store, self.hints, question) {
            Ok(r) => {
                let response = (self.respond)(&r)?;
                let from_store = r.is_stored();
                self.transcript.push(Exchange {
                    question: r.into_question(),
                    from_store,
                    response,
                });
                Some(response)
            }
            Err(_) => {
                self.transcript.push(Exchange {
                    question: question.clone(),
                    from_store: false,
                    response: Response::NonAnswer,
                });
                Some(Response::NonAnswer)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let session = Session::new(&ds, DomainHints::none());
        assert!(session.realize(&Obj::from_bits("11")).is_err());
        // The SessionOracle path converts that into NonAnswer rather than
        // failing the whole session.
        let mut transcript = Vec::new();
        let mut oracle = SessionOracle {
            session_store: &ds,
            hints: &DomainHints::none(),
            transcript: &mut transcript,
            respond: &mut |_| Some(Response::Answer),
        };
        assert_eq!(oracle.ask(&Obj::from_bits("11")), Response::NonAnswer);
        assert_eq!(transcript.len(), 1);
    }
}
