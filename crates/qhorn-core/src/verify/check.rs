//! Running a verification set against a user (§4): the query is correct
//! iff the user agrees with every expected label.

use super::set::{QuestionKind, VerificationQuestion, VerificationSet};
use crate::learn::LearnError;
use crate::object::{Obj, Response};
use crate::oracle::{CompiledOracle, MembershipOracle};
use crate::query::Query;

/// A disagreement between the given query and the user's intent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Discrepancy {
    /// Index of the question within the verification set.
    pub index: usize,
    /// Fig. 6 family of the failing question.
    pub kind: QuestionKind,
    /// The label the given query implies.
    pub expected: Response,
    /// The label the user gave.
    pub got: Response,
    /// The question itself.
    pub question: Obj,
    /// Provenance of the question.
    pub about: String,
}

/// Result of running a verification set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerificationOutcome {
    /// The user agreed with every question: the given query matches the
    /// intent (within role-preserving qhorn, by Theorem 4.2).
    Verified {
        /// Number of membership questions asked.
        questions: usize,
    },
    /// The user disagreed somewhere: the given query is not the intent.
    Refuted {
        /// Questions asked before (and including) the first disagreement.
        questions: usize,
        /// The first disagreement.
        discrepancy: Discrepancy,
    },
}

impl VerificationOutcome {
    /// `true` for [`VerificationOutcome::Verified`].
    #[must_use]
    pub fn is_verified(&self) -> bool {
        matches!(self, VerificationOutcome::Verified { .. })
    }

    /// The number of membership questions asked.
    #[must_use]
    pub fn questions(&self) -> usize {
        match self {
            VerificationOutcome::Verified { questions }
            | VerificationOutcome::Refuted { questions, .. } => *questions,
        }
    }
}

impl VerificationSet {
    /// Presents the verification questions to `user` in order, stopping at
    /// the first disagreement.
    ///
    /// # Panics
    /// If `user` stops answering; use [`VerificationSet::try_verify`] for
    /// oracles that can.
    pub fn verify<O: MembershipOracle + ?Sized>(&self, user: &mut O) -> VerificationOutcome {
        self.try_verify(user)
            .expect("oracle stopped answering; use try_verify")
    }

    /// [`VerificationSet::verify`] for an oracle that may stop answering.
    ///
    /// # Errors
    /// [`LearnError::Stopped`] when [`MembershipOracle::try_ask`] returns
    /// `None`.
    pub fn try_verify<O: MembershipOracle + ?Sized>(
        &self,
        user: &mut O,
    ) -> Result<VerificationOutcome, LearnError> {
        crate::learn::complete_now(self.verify_async(user))
    }

    /// [`VerificationSet::try_verify`] as a future that awaits each
    /// answer, for oracles that suspend (see
    /// [`MembershipOracle::poll_ask`]).
    ///
    /// # Errors
    /// As [`VerificationSet::try_verify`].
    pub async fn verify_async<O: MembershipOracle + ?Sized>(
        &self,
        user: &mut O,
    ) -> Result<VerificationOutcome, LearnError> {
        for (index, item) in self.questions().iter().enumerate() {
            let got = crate::oracle::ask(user, &item.question)
                .await
                .ok_or(LearnError::Stopped)?;
            if got != item.expected {
                return Ok(VerificationOutcome::Refuted {
                    questions: index + 1,
                    discrepancy: discrepancy_of(index, item, got),
                });
            }
        }
        Ok(VerificationOutcome::Verified {
            questions: self.len(),
        })
    }

    /// Presents *all* questions regardless of disagreements, returning
    /// every discrepancy (useful for diagnosis; `verify` stops early).
    pub fn verify_all<O: MembershipOracle + ?Sized>(&self, user: &mut O) -> Vec<Discrepancy> {
        self.questions()
            .iter()
            .enumerate()
            .filter_map(|(index, item)| {
                let got = user.ask(&item.question);
                (got != item.expected).then(|| discrepancy_of(index, item, got))
            })
            .collect()
    }

    /// Runs the set against a **known** intent query (tests, simulations,
    /// what-if analyses), compiled once through the kernel so every
    /// question is a batch of word checks.
    pub fn verify_query(&self, intent: &Query) -> VerificationOutcome {
        self.verify(&mut CompiledOracle::new(intent.clone()))
    }

    /// [`VerificationSet::verify_all`] against a known intent query.
    pub fn verify_all_query(&self, intent: &Query) -> Vec<Discrepancy> {
        self.verify_all(&mut CompiledOracle::new(intent.clone()))
    }
}

fn discrepancy_of(index: usize, item: &VerificationQuestion, got: Response) -> Discrepancy {
    Discrepancy {
        index,
        kind: item.kind,
        expected: item.expected,
        got,
        question: item.question.clone(),
        about: item.about.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::QueryOracle;
    use crate::query::equiv::equivalent;
    use crate::query::generate::enumerate_role_preserving;
    use crate::query::{Expr, Query};
    use crate::varset;

    #[test]
    fn matching_intent_verifies() {
        let q = crate::query::tests::paper_example();
        let set = VerificationSet::build(&q).unwrap();
        let mut user = QueryOracle::new(q);
        let outcome = set.verify(&mut user);
        assert!(outcome.is_verified());
        assert_eq!(outcome.questions(), set.len());
    }

    #[test]
    fn theorem_4_2_completeness_on_two_variables() {
        // For every ordered pair of semantically different role-preserving
        // queries on two variables, verification of `given` against a user
        // intending `intended` must refute (this reproduces the existence
        // claims behind Fig. 8).
        let all = enumerate_role_preserving(2, true);
        let mut pairs = 0;
        for given in &all {
            let set = VerificationSet::build(given).unwrap();
            for intended in &all {
                if equivalent(given, intended) {
                    continue;
                }
                let outcome = set.verify_query(intended);
                assert!(
                    !outcome.is_verified(),
                    "verification failed to distinguish given {given} from intended {intended}"
                );
                pairs += 1;
            }
        }
        assert!(pairs > 30, "expected a dense pair matrix, got {pairs}");
    }

    #[test]
    fn lemma_4_4_smaller_intended_body_caught_by_a2() {
        // given ∀x1x2→x3, intended ∀x1→x3: A2 must catch it.
        let given = Query::new(3, [Expr::universal(varset![1, 2], crate::VarId(2))]).unwrap();
        let intended = Query::new(3, [Expr::universal(varset![1], crate::VarId(2))]).unwrap();
        let set = VerificationSet::build(&given).unwrap();
        let discrepancies = set.verify_all_query(&intended);
        assert!(discrepancies.iter().any(|d| d.kind == QuestionKind::A2));
    }

    #[test]
    fn lemma_4_5_larger_intended_body_caught_by_n2() {
        let given = Query::new(3, [Expr::universal(varset![1], crate::VarId(2))]).unwrap();
        let intended = Query::new(3, [Expr::universal(varset![1, 2], crate::VarId(2))]).unwrap();
        let set = VerificationSet::build(&given).unwrap();
        let discrepancies = set.verify_all_query(&intended);
        assert!(discrepancies.iter().any(|d| d.kind == QuestionKind::N2));
    }

    #[test]
    fn lemma_4_7_hidden_head_caught_by_a4() {
        // given ∃x1x2 (no heads), intended ∀x1 ∃x2: x1 is secretly a head.
        let given = Query::new(2, [Expr::conj(varset![1, 2])]).unwrap();
        let intended = Query::new(
            2,
            [
                Expr::universal_bodyless(crate::VarId(0)),
                Expr::conj(varset![2]),
            ],
        )
        .unwrap();
        let set = VerificationSet::build(&given).unwrap();
        let discrepancies = set.verify_all_query(&intended);
        assert!(discrepancies.iter().any(|d| d.kind == QuestionKind::A4));
    }

    #[test]
    fn lemma_4_6_missing_incomparable_body_caught_by_a3() {
        // given: ∀x3x4→x5 ∃x2x3x4 (so ∃x2x3x4x5 dominates the guarantee);
        // intended additionally has the incomparable body ∀x2x4→x5.
        let v5 = crate::VarId::from_one_based(5);
        let given = Query::new(
            5,
            [
                Expr::universal(varset![3, 4], v5),
                Expr::conj(varset![2, 3, 4]),
                Expr::conj(varset![1]),
            ],
        )
        .unwrap();
        let intended = Query::new(
            5,
            [
                Expr::universal(varset![3, 4], v5),
                Expr::universal(varset![2, 4], v5),
                Expr::conj(varset![2, 3, 4]),
                Expr::conj(varset![1]),
            ],
        )
        .unwrap();
        let set = VerificationSet::build(&given).unwrap();
        let discrepancies = set.verify_all_query(&intended);
        assert!(
            discrepancies.iter().any(|d| d.kind == QuestionKind::A3),
            "discrepancies: {discrepancies:?}"
        );
    }

    #[test]
    fn verify_stops_early_verify_all_does_not() {
        let given = Query::new(2, [Expr::conj(varset![1, 2])]).unwrap();
        let intended = Query::new(2, [Expr::conj(varset![1]), Expr::conj(varset![2])]).unwrap();
        let set = VerificationSet::build(&given).unwrap();
        let outcome = set.verify(&mut QueryOracle::new(intended.clone()));
        assert!(!outcome.is_verified());
        assert!(outcome.questions() <= set.len());
        let all = set.verify_all(&mut QueryOracle::new(intended));
        assert!(!all.is_empty());
    }
}
