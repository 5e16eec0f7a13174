//! Query learning from membership questions (§3).
//!
//! Two exact learners:
//!
//! * [`learn_qhorn1`] — §3.1, Theorem 3.1: learns any complete qhorn-1
//!   query with O(n lg n) membership questions in polynomial time.
//! * [`learn_role_preserving`] — §3.2, Theorems 3.5 and 3.8: learns any
//!   complete role-preserving qhorn query with O(n^{θ+1} + k·n lg n)
//!   membership questions, where k is query size and θ causal density.
//!
//! Both assume the target is **complete** (every variable occurs in some
//! expression; see DESIGN.md §1). [`free_vars`] lifts the assumption at a
//! cost of n extra questions. [`constant_width`] implements the
//! tuple-budgeted learner of Lemma 3.4, [`revision`] and [`pac`] the
//! future-work extensions sketched in §6.
//!
//! Each question depends on the answers so far, so a learner's state
//! between two questions is all an interactive session needs to keep.
//! The learners are therefore written as `async` functions that await
//! one answer per question ([`learn_qhorn1_async`],
//! [`learn_role_preserving_async`]): over an oracle that suspends
//! ([`MembershipOracle::poll_ask`] returning `Poll::Pending`), the
//! compiler-generated future *is* the suspended learner, resumed by
//! polling it again once the answer is known. No runtime is involved.
//! The synchronous entry points poll that future once; every oracle that
//! answers at once completes it in that poll, asking the same questions
//! in the same order.

pub mod constant_width;
pub mod existential;
pub mod free_vars;
pub mod gethead;
pub mod noise;
pub mod pac;
pub mod prune;
pub mod qhorn1;
pub mod questions;
pub mod revision;
pub mod role_preserving;
pub(crate) mod search;
pub mod universal;
pub mod validate;

pub use qhorn1::{learn_qhorn1, learn_qhorn1_async};
pub use role_preserving::{learn_role_preserving, learn_role_preserving_async};

use crate::object::{Obj, Response};
use crate::oracle::MembershipOracle;
use crate::query::Query;
use std::collections::BTreeMap;
use std::fmt;
use std::future::Future;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// Tuning knobs for the learners.
#[derive(Clone, Debug, Default)]
pub struct LearnOptions {
    /// Spend n extra single-tuple questions up front detecting variables
    /// the target query does not mention, then learn over the constrained
    /// subspace (lifts the completeness assumption). Default `false`.
    pub detect_free_variables: bool,
    /// Hard question budget; learning aborts with
    /// [`LearnError::BudgetExceeded`] once reached. Default `None`.
    pub max_questions: Option<usize>,
}

/// Which subtask of the learning algorithm asked a question — the paper
/// analyzes each subtask's question count separately (Lemmas 3.2, 3.3,
/// Thms 3.5, 3.8).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Phase {
    /// Free-variable scan (extension).
    FreeVariableScan,
    /// §3.1.1 / §3.2.1: is each variable a universal head?
    ClassifyHeads,
    /// §3.2.1: is a universal head bodyless?
    BodylessCheck,
    /// §3.1.2 / §3.2.1: universal dependence questions locating bodies.
    UniversalBodies,
    /// §3.1.3: existential independence questions.
    ExistentialDependence,
    /// §3.1.3: independence matrix questions (GetHead).
    MatrixQuestions,
    /// §3.2.2: lattice search for existential conjunctions.
    ExistentialLattice,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::FreeVariableScan => "free-variable scan",
            Phase::ClassifyHeads => "classify heads",
            Phase::BodylessCheck => "bodyless check",
            Phase::UniversalBodies => "universal bodies",
            Phase::ExistentialDependence => "existential dependence",
            Phase::MatrixQuestions => "matrix questions",
            Phase::ExistentialLattice => "existential lattice",
        };
        f.write_str(s)
    }
}

/// Question accounting per learning phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LearnStats {
    /// Total membership questions asked.
    pub questions: usize,
    /// Total tuples across all questions.
    pub tuples: usize,
    /// Largest question, in tuples.
    pub max_tuples_per_question: usize,
    /// Questions per phase.
    pub by_phase: BTreeMap<Phase, usize>,
    /// Nanoseconds the learner computed in each phase. The clock stops
    /// while the learner is suspended waiting for an answer
    /// ([`MembershipOracle::poll_ask`] returned `Pending`), so an
    /// interactive session's figure excludes the user's think time. An
    /// oracle that answers at once is timed with the learner.
    pub nanos_by_phase: BTreeMap<Phase, u64>,
}

impl LearnStats {
    /// Questions asked in one phase.
    #[must_use]
    pub fn phase(&self, p: Phase) -> usize {
        self.by_phase.get(&p).copied().unwrap_or(0)
    }

    /// Nanoseconds the learner computed in one phase.
    #[must_use]
    pub fn phase_nanos(&self, p: Phase) -> u64 {
        self.nanos_by_phase.get(&p).copied().unwrap_or(0)
    }
}

/// A successfully learned query plus its cost accounting.
#[derive(Clone, Debug)]
pub struct LearnOutcome {
    query: Query,
    stats: LearnStats,
}

impl LearnOutcome {
    pub(crate) fn new(query: Query, stats: LearnStats) -> Self {
        LearnOutcome { query, stats }
    }

    /// The learned query (semantically equal to the target for oracles
    /// consistent with the promised class).
    #[must_use]
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Question accounting.
    #[must_use]
    pub fn stats(&self) -> &LearnStats {
        &self.stats
    }

    /// Destructures the outcome.
    #[must_use]
    pub fn into_parts(self) -> (Query, LearnStats) {
        (self.query, self.stats)
    }
}

/// Learning failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LearnError {
    /// The question budget ([`LearnOptions::max_questions`]) was exhausted.
    BudgetExceeded {
        /// Questions asked before aborting.
        asked: usize,
    },
    /// The oracle's responses are not consistent with any query in the
    /// promised class (noisy user or out-of-class target).
    InconsistentOracle {
        /// Human-readable description of the contradiction.
        detail: String,
    },
    /// The oracle stopped answering ([`MembershipOracle::try_ask`]
    /// returned `None`), e.g. because its session was closed.
    Stopped,
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::BudgetExceeded { asked } => {
                write!(f, "question budget exhausted after {asked} questions")
            }
            LearnError::InconsistentOracle { detail } => {
                write!(
                    f,
                    "oracle responses inconsistent with the promised query class: {detail}"
                )
            }
            LearnError::Stopped => write!(f, "the oracle stopped answering"),
        }
    }
}

impl std::error::Error for LearnError {}

/// Polls `fut` once with a waker that does nothing: `Some` with its
/// output if it completed, `None` if it suspended.
pub(crate) fn poll_now<T>(fut: impl Future<Output = T>) -> Option<T> {
    let mut fut = std::pin::pin!(fut);
    match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => Some(out),
        Poll::Pending => None,
    }
}

/// Runs a learner (or verifier) future for a synchronous caller. It
/// completes in one poll over any oracle that answers at once; an oracle
/// that suspends has, for a caller that cannot wait, stopped answering.
pub(crate) fn complete_now<T>(
    fut: impl Future<Output = Result<T, LearnError>>,
) -> Result<T, LearnError> {
    poll_now(fut).unwrap_or(Err(LearnError::Stopped))
}

/// Internal oracle wrapper: per-phase accounting plus budget enforcement.
pub(crate) struct Asker<'a, O: MembershipOracle + ?Sized> {
    oracle: &'a mut O,
    stats: LearnStats,
    phase: Phase,
    phase_entered: Instant,
    budget: Option<usize>,
}

impl<'a, O: MembershipOracle + ?Sized> Asker<'a, O> {
    pub(crate) fn new(oracle: &'a mut O, opts: &LearnOptions) -> Self {
        oracle.enter_phase(Phase::ClassifyHeads);
        Asker {
            oracle,
            stats: LearnStats::default(),
            phase: Phase::ClassifyHeads,
            phase_entered: Instant::now(),
            budget: opts.max_questions,
        }
    }

    /// Credits the learner's clock since the last roll to the current
    /// phase.
    fn roll_phase_clock(&mut self) {
        let now = Instant::now();
        let elapsed = now.duration_since(self.phase_entered);
        self.phase_entered = now;
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        if nanos > 0 {
            let slot = self.stats.nanos_by_phase.entry(self.phase).or_insert(0);
            *slot = slot.saturating_add(nanos);
        }
    }

    pub(crate) fn set_phase(&mut self, phase: Phase) {
        if phase != self.phase {
            self.roll_phase_clock();
            self.phase = phase;
            self.oracle.enter_phase(phase);
        }
    }

    /// Asks one question and awaits its label. While the oracle keeps
    /// the learner suspended, the phase clock is stopped: it is rolled
    /// when the oracle first returns `Pending` and restarted when the
    /// learner is polled again.
    pub(crate) async fn ask(&mut self, q: &Obj) -> Result<Response, LearnError> {
        if let Some(b) = self.budget {
            if self.stats.questions >= b {
                return Err(LearnError::BudgetExceeded {
                    asked: self.stats.questions,
                });
            }
        }
        self.stats.questions += 1;
        self.stats.tuples += q.len();
        self.stats.max_tuples_per_question = self.stats.max_tuples_per_question.max(q.len());
        *self.stats.by_phase.entry(self.phase).or_insert(0) += 1;
        let mut suspended = false;
        std::future::poll_fn(|cx| {
            if suspended {
                self.phase_entered = Instant::now();
            }
            let poll = self.oracle.poll_ask(q, cx);
            suspended = poll.is_pending();
            if suspended {
                self.roll_phase_clock();
            }
            poll
        })
        .await
        .ok_or(LearnError::Stopped)
    }

    /// `true` iff the oracle labels `q` an answer.
    pub(crate) async fn is_answer(&mut self, q: &Obj) -> Result<bool, LearnError> {
        Ok(self.ask(q).await?.is_answer())
    }

    pub(crate) fn into_stats(mut self) -> LearnStats {
        self.roll_phase_clock();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::QueryOracle;
    use crate::query::Expr;
    use crate::varset;

    #[test]
    fn asker_counts_by_phase_and_enforces_budget() {
        let target = Query::new(2, [Expr::conj(varset![1, 2])]).unwrap();
        let mut oracle = QueryOracle::new(target);
        let opts = LearnOptions {
            max_questions: Some(2),
            ..Default::default()
        };
        let mut asker = Asker::new(&mut oracle, &opts);
        asker.set_phase(Phase::ClassifyHeads);
        complete_now(asker.ask(&Obj::from_bits("11"))).unwrap();
        asker.set_phase(Phase::UniversalBodies);
        complete_now(asker.ask(&Obj::from_bits("11 01"))).unwrap();
        let err = complete_now(asker.ask(&Obj::from_bits("11"))).unwrap_err();
        assert_eq!(err, LearnError::BudgetExceeded { asked: 2 });
        let stats = asker.into_stats();
        assert_eq!(stats.questions, 2);
        assert_eq!(stats.tuples, 3);
        assert_eq!(stats.phase(Phase::ClassifyHeads), 1);
        assert_eq!(stats.phase(Phase::UniversalBodies), 1);
        assert_eq!(stats.phase(Phase::MatrixQuestions), 0);
        // The dialogue clock charged time to the phases that ran; the
        // final phase is rolled up by `into_stats`.
        let total: u64 = stats.nanos_by_phase.values().sum();
        assert!(total > 0, "phase clock accrued nothing");
        assert_eq!(stats.phase_nanos(Phase::MatrixQuestions), 0);
    }

    /// Answers like `inner`, but only on the second poll of each
    /// question: the first returns `Pending`, as an interactive session
    /// does while its user thinks.
    struct Suspending<O> {
        inner: O,
        waiting: bool,
    }

    impl<O: MembershipOracle> MembershipOracle for Suspending<O> {
        fn ask(&mut self, question: &Obj) -> Response {
            self.inner.ask(question)
        }

        fn poll_ask(&mut self, question: &Obj, _cx: &mut Context<'_>) -> Poll<Option<Response>> {
            self.waiting = !self.waiting;
            if self.waiting {
                Poll::Pending
            } else {
                Poll::Ready(Some(self.inner.ask(question)))
            }
        }
    }

    #[test]
    fn a_suspended_learner_resumes_to_the_same_outcome_and_its_clock_skips_the_wait() {
        let target = crate::query::tests::paper_example();
        let n = target.arity();
        let opts = LearnOptions {
            detect_free_variables: true,
            ..Default::default()
        };
        let mut direct = QueryOracle::new(target.clone());
        let want = learn_role_preserving(n, &mut direct, &opts).unwrap();

        let mut oracle = Suspending {
            inner: QueryOracle::new(target),
            waiting: false,
        };
        let mut fut = std::pin::pin!(learn_role_preserving_async(n, &mut oracle, &opts));
        let mut cx = Context::from_waker(Waker::noop());
        let mut suspensions = 0;
        let got = loop {
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(out) => break out.unwrap(),
                Poll::Pending => {
                    suspensions += 1;
                    if suspensions <= 3 {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                    }
                }
            }
        };
        assert_eq!(got.query(), want.query());
        assert_eq!(got.stats().by_phase, want.stats().by_phase);
        assert_eq!(
            suspensions,
            want.stats().questions,
            "one suspension per question"
        );
        let computed: u64 = got.stats().nanos_by_phase.values().sum();
        assert!(
            computed < 30_000_000,
            "the phase clock counted {computed} ns, so it ran during a 30 ms wait"
        );
    }

    #[test]
    fn learner_futures_are_send() {
        fn assert_send<T: Send>(_: &T) {}
        let target = crate::query::tests::paper_example();
        let mut oracle = crate::oracle::ReplayOracle::new(QueryOracle::new(target.clone()), []);
        let opts = LearnOptions {
            detect_free_variables: true,
            ..Default::default()
        };
        assert_send(&learn_qhorn1_async(target.arity(), &mut oracle, &opts));
        assert_send(&learn_role_preserving_async(
            target.arity(),
            &mut oracle,
            &opts,
        ));
        let set = crate::verify::VerificationSet::build(&target).unwrap();
        assert_send(&set.verify_async(&mut oracle));
    }

    #[test]
    fn error_display() {
        let e = LearnError::BudgetExceeded { asked: 7 };
        assert!(e.to_string().contains('7'));
        let e = LearnError::InconsistentOracle { detail: "x".into() };
        assert!(e.to_string().contains("inconsistent"));
    }
}
