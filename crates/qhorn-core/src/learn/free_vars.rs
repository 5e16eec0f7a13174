//! Free-variable detection — an extension lifting the paper's completeness
//! assumption (DESIGN.md §1, assumption 3).
//!
//! The learners of §3 assume every variable occurs in some expression of
//! the target. A variable `v` that occurs nowhere is indistinguishable from
//! `∃v` using the learners' two-tuple questions, but one **single-tuple**
//! question separates them: `{the tuple with only v false}` is an answer
//! iff `v` is unconstrained (every conjunction and guarantee clause avoids
//! `v`, every universal head ≠ `v` stays true).
//!
//! `learn_with_free_vars` (crate-internal, reached via
//! [`super::LearnOptions::detect_free_variables`]) runs the scan
//! (n questions), then learns over the constrained subspace through an
//! oracle adapter that pins free variables to true, and finally relabels
//! the learned query back to the full variable space.

use super::questions;
use super::{complete_now, Asker, LearnError, LearnOptions, LearnOutcome, Phase};
use crate::object::{Obj, Response};
use crate::oracle::MembershipOracle;
use crate::query::{Expr, Query};
use crate::tuple::BoolTuple;
use crate::var::{VarId, VarSet};
use std::task::{Context, Poll};

/// Detects the variables the target query does not mention, using one
/// single-tuple question per variable.
///
/// # Errors
/// [`LearnError::BudgetExceeded`] if the question budget runs out.
pub fn detect_free_variables<O: MembershipOracle + ?Sized>(
    n: u16,
    oracle: &mut O,
    opts: &LearnOptions,
) -> Result<(VarSet, super::LearnStats), LearnError> {
    complete_now(scan(n, oracle, opts))
}

async fn scan<O: MembershipOracle + ?Sized>(
    n: u16,
    oracle: &mut O,
    opts: &LearnOptions,
) -> Result<(VarSet, super::LearnStats), LearnError> {
    let mut asker = Asker::new(oracle, opts);
    asker.set_phase(Phase::FreeVariableScan);
    let mut free = VarSet::new();
    for i in 0..n {
        let v = VarId(i);
        if asker.is_answer(&questions::free_var_probe(n, v)).await? {
            free.insert(v);
        }
    }
    Ok((free, asker.into_stats()))
}

/// Maps membership questions over the constrained subspace (arity `m`) to
/// the full space (arity `n`), pinning free variables to true.
pub(crate) struct SubspaceOracle<'a, O: MembershipOracle + ?Sized> {
    inner: &'a mut O,
    /// `map[j]` is the full-space variable for subspace variable `j`.
    map: Vec<VarId>,
    n: u16,
}

impl<O: MembershipOracle + ?Sized> SubspaceOracle<'_, O> {
    fn lift(&self, question: &Obj) -> Obj {
        Obj::new(self.n, question.tuples().iter().map(|t| self.lift_tuple(t)))
    }

    fn lift_tuple(&self, t: &BoolTuple) -> BoolTuple {
        let mut trues = VarSet::full(self.n);
        for (j, &full) in self.map.iter().enumerate() {
            if !t.get(VarId(j as u16)) {
                trues.remove(full);
            }
        }
        BoolTuple::from_true_set(self.n, trues)
    }
}

impl<O: MembershipOracle + ?Sized> MembershipOracle for SubspaceOracle<'_, O> {
    fn ask(&mut self, question: &Obj) -> Response {
        let lifted = self.lift(question);
        self.inner.ask(&lifted)
    }

    fn try_ask(&mut self, question: &Obj) -> Option<Response> {
        let lifted = self.lift(question);
        self.inner.try_ask(&lifted)
    }

    fn poll_ask(&mut self, question: &Obj, cx: &mut Context<'_>) -> Poll<Option<Response>> {
        let lifted = self.lift(question);
        self.inner.poll_ask(&lifted, cx)
    }

    fn enter_phase(&mut self, phase: Phase) {
        self.inner.enter_phase(phase);
    }
}

/// The complete-target learner [`learn_with_free_vars`] runs over the
/// constrained subspace.
pub(crate) enum Complete {
    Qhorn1,
    RolePreserving,
}

/// Runs `inner` (a complete-target learner) after a free-variable scan,
/// relabelling the result back to arity `n`.
pub(crate) async fn learn_with_free_vars<O: MembershipOracle + ?Sized>(
    n: u16,
    oracle: &mut O,
    opts: &LearnOptions,
    inner: Complete,
) -> Result<LearnOutcome, LearnError> {
    let (free, scan_stats) = scan(n, oracle, opts).await?;
    let map: Vec<VarId> = (0..n).map(VarId).filter(|v| !free.contains(*v)).collect();
    let m = map.len() as u16;
    let inner_opts = LearnOptions {
        detect_free_variables: false,
        max_questions: opts
            .max_questions
            .map(|b| b.saturating_sub(scan_stats.questions)),
    };
    let mut sub = SubspaceOracle {
        inner: oracle,
        map: map.clone(),
        n,
    };
    let outcome = match inner {
        Complete::Qhorn1 => super::qhorn1::learn_complete(m, &mut sub, &inner_opts).await?,
        Complete::RolePreserving => {
            super::role_preserving::learn_complete(m, &mut sub, &inner_opts).await?
        }
    };
    let (query, mut stats) = outcome.into_parts();

    // Relabel to the full space.
    let relabel = |vs: &VarSet| -> VarSet { vs.iter().map(|v| map[v.index()]).collect() };
    let exprs: Vec<Expr> = query
        .exprs()
        .iter()
        .map(|e| match e {
            Expr::UniversalHorn { body, head } => Expr::universal(relabel(body), map[head.index()]),
            Expr::ExistentialHorn { body, head } => {
                Expr::existential_horn(relabel(body), map[head.index()])
            }
            Expr::ExistentialConj { vars } => Expr::conj(relabel(vars)),
        })
        .collect();
    let full = Query::new(n, exprs).expect("relabelled expressions are valid");

    // Merge scan accounting.
    stats.questions += scan_stats.questions;
    stats.tuples += scan_stats.tuples;
    stats.max_tuples_per_question = stats
        .max_tuples_per_question
        .max(scan_stats.max_tuples_per_question);
    for (p, c) in scan_stats.by_phase {
        *stats.by_phase.entry(p).or_insert(0) += c;
    }
    for (p, nanos) in scan_stats.nanos_by_phase {
        let slot = stats.nanos_by_phase.entry(p).or_insert(0);
        *slot = slot.saturating_add(nanos);
    }
    Ok(LearnOutcome::new(full, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::learn_qhorn1;
    use crate::oracle::QueryOracle;
    use crate::query::equiv::equivalent;
    use crate::varset;

    fn v(i: u16) -> VarId {
        VarId::from_one_based(i)
    }

    #[test]
    fn detects_unconstrained_variables() {
        // x3 is unmentioned.
        let target = Query::new(
            4,
            [Expr::universal(varset![1], v(2)), Expr::conj(varset![4])],
        )
        .unwrap();
        let mut oracle = QueryOracle::new(target);
        let (free, stats) =
            detect_free_variables(4, &mut oracle, &LearnOptions::default()).unwrap();
        assert_eq!(free, varset![3]);
        assert_eq!(stats.questions, 4);
        assert_eq!(stats.phase(Phase::FreeVariableScan), 4);
    }

    #[test]
    fn no_free_variables_in_complete_query() {
        let target = Query::new(2, [Expr::conj(varset![1, 2])]).unwrap();
        let mut oracle = QueryOracle::new(target);
        let (free, _) = detect_free_variables(2, &mut oracle, &LearnOptions::default()).unwrap();
        assert!(free.is_empty());
    }

    #[test]
    fn learns_incomplete_target_with_option_enabled() {
        // x2 and x5 are free; a plain run would mislearn them as ∃x2 ∃x5.
        let target = Query::new(
            5,
            [Expr::universal(varset![1], v(3)), Expr::conj(varset![4])],
        )
        .unwrap();
        let opts = LearnOptions {
            detect_free_variables: true,
            ..Default::default()
        };
        let mut oracle = QueryOracle::new(target.clone());
        let outcome = learn_qhorn1(5, &mut oracle, &opts).unwrap();
        assert!(
            equivalent(outcome.query(), &target),
            "learned {} for target {}",
            outcome.query(),
            target
        );
        // Without the scan, the learner adds spurious ∃ conjunctions.
        let mut oracle = QueryOracle::new(target.clone());
        let plain = learn_qhorn1(5, &mut oracle, &LearnOptions::default()).unwrap();
        assert!(!equivalent(plain.query(), &target));
    }

    #[test]
    fn all_variables_free_learns_empty_query() {
        let target = Query::empty(3);
        let opts = LearnOptions {
            detect_free_variables: true,
            ..Default::default()
        };
        let mut oracle = QueryOracle::new(target.clone());
        let outcome = learn_qhorn1(3, &mut oracle, &opts).unwrap();
        assert!(equivalent(outcome.query(), &target));
        assert_eq!(outcome.stats().questions, 3, "only the scan is needed");
    }

    #[test]
    fn complete_targets_unaffected_by_scan() {
        let target = Query::new(
            3,
            [Expr::universal(varset![1], v(2)), Expr::conj(varset![3])],
        )
        .unwrap();
        let opts = LearnOptions {
            detect_free_variables: true,
            ..Default::default()
        };
        let mut oracle = QueryOracle::new(target.clone());
        let outcome = learn_qhorn1(3, &mut oracle, &opts).unwrap();
        assert!(equivalent(outcome.query(), &target));
    }
}
