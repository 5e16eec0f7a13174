//! Membership-question oracles — the "user" in the learning model (§2.1.2).
//!
//! A learner constructs membership questions (objects) and an oracle labels
//! each as an answer or a non-answer for the *intended* query. The paper's
//! ideal user is [`QueryOracle`], backed by a hidden target query.
//! Decorators add the instrumentation the experiments need:
//!
//! * [`CountingOracle`] — counts questions and tuples (the paper's cost
//!   measures);
//! * [`TranscriptOracle`] — records every (question, response) pair, which
//!   powers the response-history / restart workflow discussed in §5;
//! * [`LimitOracle`] — enforces a question budget (tests of the complexity
//!   bounds use it to fail fast on runaway learners);
//! * [`FnOracle`] — wraps a closure (adversaries, brute-force cross-checks).
//!
//! [`QueryOracle`] compiles its hidden target **once** through the
//! evaluation kernel ([`CompiledOracle`]) instead of re-walking the query
//! AST on every membership question, so a learning session's thousands of
//! questions are answered with allocation-free word checks.
//!
//! An oracle whose user answers later — in another request of an
//! interactive session — overrides [`MembershipOracle::poll_ask`] and
//! returns `Poll::Pending`: the learners and the verifier are `async`
//! functions that await each answer ([`ask`]), so the learner's state
//! between two questions is simply its suspended future. Every other
//! oracle answers at once and the synchronous entry points run the
//! learners to completion in a single poll.

use crate::kernel;
use crate::learn::Phase;
use crate::object::{Obj, Response};
use crate::query::Query;
use std::task::{Context, Poll};

/// A membership oracle that compiles its target query once per session
/// and answers every question with the kernel's word-level checks.
///
/// This is what [`QueryOracle`] uses internally; it is public for call
/// sites that want the compiled plan without the strict/relaxed switch.
#[derive(Clone, Debug)]
pub struct CompiledOracle {
    target: Query,
    plan: kernel::CompiledQuery,
}

impl CompiledOracle {
    /// Compiles `target` under full qhorn semantics (guarantee clauses
    /// enforced), matching [`Query::accepts`].
    #[must_use]
    pub fn new(target: Query) -> Self {
        let plan = kernel::CompiledQuery::compile(&target);
        CompiledOracle { target, plan }
    }

    /// Compiles `target` under the footnote-1 relaxation, matching
    /// [`Query::accepts_without_universal_guarantees`].
    #[must_use]
    pub fn relaxed(target: Query) -> Self {
        let plan = kernel::CompiledQuery::compile_relaxed(&target);
        CompiledOracle { target, plan }
    }

    /// The hidden target query.
    #[must_use]
    pub fn target(&self) -> &Query {
        &self.target
    }

    /// The compiled plan answering the questions.
    #[must_use]
    pub fn plan(&self) -> &kernel::CompiledQuery {
        &self.plan
    }
}

impl MembershipOracle for CompiledOracle {
    fn ask(&mut self, question: &Obj) -> Response {
        Response::from_bool(self.plan.matches(question))
    }
}

/// Anything that can label membership questions.
pub trait MembershipOracle {
    /// Labels one membership question.
    fn ask(&mut self, question: &Obj) -> Response;

    /// Labels one question, or `None` once the oracle has stopped
    /// answering (its user went away). Learners and verification then
    /// end with [`LearnError::Stopped`](crate::learn::LearnError::Stopped)
    /// instead of asking on. Wrapping oracles forward it.
    fn try_ask(&mut self, question: &Obj) -> Option<Response> {
        Some(self.ask(question))
    }

    /// Labels one question without waiting: `Poll::Pending` suspends the
    /// asking learner until its owner supplies the answer and polls it
    /// again (the same question is then asked again). `Ready(None)` means
    /// the oracle stopped answering, as for
    /// [`MembershipOracle::try_ask`], which this defaults to.
    fn poll_ask(&mut self, question: &Obj, _cx: &mut Context<'_>) -> Poll<Option<Response>> {
        Poll::Ready(self.try_ask(question))
    }

    /// Notes which learning phase asks the questions that follow (the
    /// learners call it on every phase change). Ignored by default;
    /// an interactive session uses it to label its steps.
    fn enter_phase(&mut self, _phase: Phase) {}
}

/// Awaits `oracle`'s label for `question` (see
/// [`MembershipOracle::poll_ask`]); `None` once it stopped answering.
pub async fn ask<O: MembershipOracle + ?Sized>(oracle: &mut O, question: &Obj) -> Option<Response> {
    std::future::poll_fn(|cx| oracle.poll_ask(question, cx)).await
}

impl<T: MembershipOracle + ?Sized> MembershipOracle for &mut T {
    fn ask(&mut self, question: &Obj) -> Response {
        (**self).ask(question)
    }

    fn try_ask(&mut self, question: &Obj) -> Option<Response> {
        (**self).try_ask(question)
    }

    fn poll_ask(&mut self, question: &Obj, cx: &mut Context<'_>) -> Poll<Option<Response>> {
        (**self).poll_ask(question, cx)
    }

    fn enter_phase(&mut self, phase: Phase) {
        (**self).enter_phase(phase);
    }
}

impl MembershipOracle for Box<dyn MembershipOracle + '_> {
    fn ask(&mut self, question: &Obj) -> Response {
        (**self).ask(question)
    }

    fn try_ask(&mut self, question: &Obj) -> Option<Response> {
        (**self).try_ask(question)
    }

    fn poll_ask(&mut self, question: &Obj, cx: &mut Context<'_>) -> Poll<Option<Response>> {
        (**self).poll_ask(question, cx)
    }

    fn enter_phase(&mut self, phase: Phase) {
        (**self).enter_phase(phase);
    }
}

/// The ideal user: labels questions according to a hidden target query,
/// compiled once through the kernel.
#[derive(Clone, Debug)]
pub struct QueryOracle {
    inner: CompiledOracle,
}

impl QueryOracle {
    /// An oracle answering according to `target` under full qhorn semantics
    /// (guarantee clauses enforced).
    #[must_use]
    pub fn new(target: Query) -> Self {
        QueryOracle {
            inner: CompiledOracle::new(target),
        }
    }

    /// An oracle using the footnote-1 relaxation: universal expressions do
    /// not require guarantee witnesses. Learning algorithms remain correct
    /// under either semantics; this variant additionally allows empty-set
    /// questions.
    #[must_use]
    pub fn relaxed(target: Query) -> Self {
        QueryOracle {
            inner: CompiledOracle::relaxed(target),
        }
    }

    /// The hidden target (tests and experiment harnesses use this; a real
    /// user interface would not expose it).
    #[must_use]
    pub fn target(&self) -> &Query {
        self.inner.target()
    }
}

impl MembershipOracle for QueryOracle {
    fn ask(&mut self, question: &Obj) -> Response {
        self.inner.ask(question)
    }
}

/// Wraps a closure as an oracle.
pub struct FnOracle<F: FnMut(&Obj) -> Response>(pub F);

impl<F: FnMut(&Obj) -> Response> MembershipOracle for FnOracle<F> {
    fn ask(&mut self, question: &Obj) -> Response {
        (self.0)(question)
    }
}

/// Question/tuple accounting (the paper's cost measures: number of
/// membership questions, tuples per question).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Total membership questions asked.
    pub questions: usize,
    /// Total tuples across all questions.
    pub tuples: usize,
    /// Largest single question, in tuples.
    pub max_tuples_per_question: usize,
}

/// Counts questions and tuples flowing to an inner oracle.
#[derive(Clone, Debug)]
pub struct CountingOracle<O> {
    inner: O,
    stats: OracleStats,
}

impl<O: MembershipOracle> CountingOracle<O> {
    /// Wraps `inner` with counting.
    #[must_use]
    pub fn new(inner: O) -> Self {
        CountingOracle {
            inner,
            stats: OracleStats::default(),
        }
    }

    /// The statistics so far.
    #[must_use]
    pub fn stats(&self) -> OracleStats {
        self.stats
    }

    /// Consumes the wrapper, returning the inner oracle and the statistics.
    pub fn into_parts(self) -> (O, OracleStats) {
        (self.inner, self.stats)
    }
}

impl<O: MembershipOracle> MembershipOracle for CountingOracle<O> {
    fn ask(&mut self, question: &Obj) -> Response {
        self.stats.questions += 1;
        self.stats.tuples += question.len();
        self.stats.max_tuples_per_question = self.stats.max_tuples_per_question.max(question.len());
        self.inner.ask(question)
    }
}

/// Records the full transcript of questions and responses.
///
/// DataPlay-style interfaces show the user their response history so that
/// mistakes can be corrected and learning restarted from the point of error
/// (§5); [`crate::oracle::ReplayOracle`] replays a corrected transcript.
#[derive(Clone, Debug)]
pub struct TranscriptOracle<O> {
    inner: O,
    transcript: Vec<(Obj, Response)>,
}

impl<O: MembershipOracle> TranscriptOracle<O> {
    /// Wraps `inner` with transcript recording.
    #[must_use]
    pub fn new(inner: O) -> Self {
        TranscriptOracle {
            inner,
            transcript: Vec::new(),
        }
    }

    /// The recorded (question, response) pairs, in order.
    #[must_use]
    pub fn transcript(&self) -> &[(Obj, Response)] {
        &self.transcript
    }

    /// Consumes the wrapper, returning the transcript.
    #[must_use]
    pub fn into_transcript(self) -> Vec<(Obj, Response)> {
        self.transcript
    }
}

impl<O: MembershipOracle> MembershipOracle for TranscriptOracle<O> {
    fn ask(&mut self, question: &Obj) -> Response {
        let r = self.inner.ask(question);
        self.transcript.push((question.clone(), r));
        r
    }
}

/// Serves responses from a (possibly corrected) transcript, falling back to
/// an inner oracle for novel questions.
///
/// This implements §5's restart-from-error workflow: replaying a corrected
/// transcript re-runs the learner without re-asking the user questions whose
/// answers are already known.
#[derive(Clone, Debug)]
pub struct ReplayOracle<O> {
    inner: O,
    cache: std::collections::HashMap<Obj, Response>,
    replayed: usize,
    fresh: usize,
}

impl<O: MembershipOracle> ReplayOracle<O> {
    /// Builds a replay oracle from a transcript (later entries win on
    /// duplicates, so corrections are appended).
    #[must_use]
    pub fn new(inner: O, transcript: impl IntoIterator<Item = (Obj, Response)>) -> Self {
        ReplayOracle {
            inner,
            cache: transcript.into_iter().collect(),
            replayed: 0,
            fresh: 0,
        }
    }

    /// Number of questions served from the transcript.
    #[must_use]
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Number of questions forwarded to the inner oracle.
    #[must_use]
    pub fn fresh(&self) -> usize {
        self.fresh
    }
}

impl<O: MembershipOracle> MembershipOracle for ReplayOracle<O> {
    fn ask(&mut self, question: &Obj) -> Response {
        self.try_ask(question).unwrap_or(Response::NonAnswer)
    }

    fn try_ask(&mut self, question: &Obj) -> Option<Response> {
        crate::learn::poll_now(std::future::poll_fn(|cx| self.poll_ask(question, cx))).flatten()
    }

    fn poll_ask(&mut self, question: &Obj, cx: &mut Context<'_>) -> Poll<Option<Response>> {
        if let Some(&r) = self.cache.get(question) {
            self.replayed += 1;
            return Poll::Ready(Some(r));
        }
        let r = std::task::ready!(self.inner.poll_ask(question, cx));
        self.fresh += 1;
        if let Some(r) = r {
            self.cache.insert(question.clone(), r);
        }
        Poll::Ready(r)
    }

    fn enter_phase(&mut self, phase: Phase) {
        self.inner.enter_phase(phase);
    }
}

/// Enforces a hard question budget.
///
/// # Panics
/// `ask` panics once the budget is exceeded. Complexity tests use this to
/// turn "the learner asks too many questions" into an immediate failure.
#[derive(Clone, Debug)]
pub struct LimitOracle<O> {
    inner: O,
    remaining: usize,
}

impl<O: MembershipOracle> LimitOracle<O> {
    /// Wraps `inner` with a budget of `max_questions`.
    #[must_use]
    pub fn new(inner: O, max_questions: usize) -> Self {
        LimitOracle {
            inner,
            remaining: max_questions,
        }
    }

    /// Questions left in the budget.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl<O: MembershipOracle> MembershipOracle for LimitOracle<O> {
    fn ask(&mut self, question: &Obj) -> Response {
        assert!(self.remaining > 0, "question budget exhausted");
        self.remaining -= 1;
        self.inner.ask(question)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Expr;
    use crate::varset;

    fn target() -> Query {
        Query::new(2, [Expr::conj(varset![1, 2])]).unwrap()
    }

    #[test]
    fn query_oracle_labels_by_target() {
        let mut o = QueryOracle::new(target());
        assert_eq!(o.ask(&Obj::from_bits("11")), Response::Answer);
        assert_eq!(o.ask(&Obj::from_bits("10 01")), Response::NonAnswer);
    }

    #[test]
    fn relaxed_oracle_ignores_universal_guarantees() {
        let q = Query::new(1, [Expr::universal_bodyless(crate::VarId(0))]).unwrap();
        let mut strict = QueryOracle::new(q.clone());
        let mut relaxed = QueryOracle::relaxed(q);
        assert_eq!(strict.ask(&Obj::empty(1)), Response::NonAnswer);
        assert_eq!(relaxed.ask(&Obj::empty(1)), Response::Answer);
    }

    #[test]
    fn counting_oracle_tracks_questions_and_tuples() {
        let mut o = CountingOracle::new(QueryOracle::new(target()));
        o.ask(&Obj::from_bits("11"));
        o.ask(&Obj::from_bits("10 01 11"));
        let s = o.stats();
        assert_eq!(s.questions, 2);
        assert_eq!(s.tuples, 4);
        assert_eq!(s.max_tuples_per_question, 3);
    }

    #[test]
    fn transcript_records_in_order() {
        let mut o = TranscriptOracle::new(QueryOracle::new(target()));
        o.ask(&Obj::from_bits("11"));
        o.ask(&Obj::from_bits("01"));
        let t = o.into_transcript();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].1, Response::Answer);
        assert_eq!(t[1].1, Response::NonAnswer);
    }

    #[test]
    fn replay_serves_cache_then_falls_back() {
        // Correction: pretend the user mislabeled 11 and fixed it.
        let corrected = vec![(Obj::from_bits("11"), Response::NonAnswer)];
        let mut o = ReplayOracle::new(QueryOracle::new(target()), corrected);
        assert_eq!(
            o.ask(&Obj::from_bits("11")),
            Response::NonAnswer,
            "served from transcript"
        );
        assert_eq!(
            o.ask(&Obj::from_bits("01")),
            Response::NonAnswer,
            "fresh question"
        );
        assert_eq!(o.replayed(), 1);
        assert_eq!(o.fresh(), 1);
        // The fresh answer is now cached.
        o.ask(&Obj::from_bits("01"));
        assert_eq!(o.replayed(), 2);
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn limit_oracle_panics_past_budget() {
        let mut o = LimitOracle::new(QueryOracle::new(target()), 1);
        o.ask(&Obj::from_bits("11"));
        o.ask(&Obj::from_bits("11"));
    }

    #[test]
    fn oracle_answers_identical_pre_and_post_compilation() {
        // Regression: compiling the target (CompiledOracle / QueryOracle)
        // must not change a single answer relative to the naive
        // tuple-at-a-time reference — strict and relaxed, every
        // enumerated 2-variable query, every object.
        use crate::query::eval::reference;
        for q in crate::query::generate::enumerate_role_preserving(2, true) {
            let mut strict = CompiledOracle::new(q.clone());
            let mut relaxed = CompiledOracle::relaxed(q.clone());
            let mut via_query_oracle = QueryOracle::new(q.clone());
            for obj in crate::query::generate::all_objects(2) {
                let want = Response::from_bool(reference::accepts(&q, &obj));
                assert_eq!(strict.ask(&obj), want, "strict {q} on {obj}");
                assert_eq!(via_query_oracle.ask(&obj), want, "wrapper {q} on {obj}");
                let want_relaxed =
                    Response::from_bool(reference::accepts_without_universal_guarantees(&q, &obj));
                assert_eq!(relaxed.ask(&obj), want_relaxed, "relaxed {q} on {obj}");
            }
        }
    }

    #[test]
    fn compiled_oracle_exposes_target_and_plan() {
        let o = CompiledOracle::new(target());
        assert_eq!(o.target(), &target());
        assert!(o.plan().check_count() >= 1);
    }

    #[test]
    fn fn_oracle_wraps_closures() {
        let mut o = FnOracle(|q: &Obj| Response::from_bool(q.len() > 1));
        assert_eq!(o.ask(&Obj::from_bits("11 01")), Response::Answer);
        assert_eq!(o.ask(&Obj::from_bits("11")), Response::NonAnswer);
    }
}
