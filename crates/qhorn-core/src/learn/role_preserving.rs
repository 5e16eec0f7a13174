//! The role-preserving qhorn learner (§3.2): universal Horn expressions
//! via the body lattice (Theorem 3.5, O(n^{θ+1}) questions) followed by
//! existential conjunctions via the full lattice (Theorem 3.8,
//! O(k·n lg n) questions).

use super::existential::learn_existential_conjunctions;
use super::free_vars::{learn_with_free_vars, Complete};
use super::universal::{classify_universal_heads, learn_universal_horns};
use super::{complete_now, Asker, LearnError, LearnOptions, LearnOutcome};
use crate::oracle::MembershipOracle;
use crate::query::{Expr, Query};

/// Learns a complete role-preserving qhorn query over `n` variables from
/// membership questions (§3.2).
///
/// The oracle must answer consistently with some complete role-preserving
/// target; the returned query is semantically equivalent to it and is
/// already in normal form (dominant universal expressions, dominant closed
/// conjunctions). Learning qhorn-1 targets with this learner also works —
/// qhorn-1 ⊂ role-preserving — at a higher question cost.
///
/// # Errors
/// [`LearnError::BudgetExceeded`] if [`LearnOptions::max_questions`] runs
/// out.
pub fn learn_role_preserving<O: MembershipOracle + ?Sized>(
    n: u16,
    oracle: &mut O,
    opts: &LearnOptions,
) -> Result<LearnOutcome, LearnError> {
    complete_now(learn_role_preserving_async(n, oracle, opts))
}

/// [`learn_role_preserving`] as a future that awaits each answer, for
/// oracles that suspend (see [`MembershipOracle::poll_ask`]).
///
/// # Errors
/// As [`learn_role_preserving`].
pub async fn learn_role_preserving_async<O: MembershipOracle + ?Sized>(
    n: u16,
    oracle: &mut O,
    opts: &LearnOptions,
) -> Result<LearnOutcome, LearnError> {
    if opts.detect_free_variables {
        return learn_with_free_vars(n, oracle, opts, Complete::RolePreserving).await;
    }
    learn_complete(n, oracle, opts).await
}

/// [`learn_role_preserving`] without the free-variable pre-pass.
///
/// # Errors
/// As [`learn_role_preserving`].
pub fn learn_role_preserving_complete<O: MembershipOracle + ?Sized>(
    n: u16,
    oracle: &mut O,
    opts: &LearnOptions,
) -> Result<LearnOutcome, LearnError> {
    complete_now(learn_complete(n, oracle, opts))
}

pub(crate) async fn learn_complete<O: MembershipOracle + ?Sized>(
    n: u16,
    oracle: &mut O,
    opts: &LearnOptions,
) -> Result<LearnOutcome, LearnError> {
    let mut asker = Asker::new(oracle, opts);

    // §3.2.1 — universal part.
    let heads = classify_universal_heads(n, &mut asker).await?;
    let universals = learn_universal_horns(n, &heads, &mut asker).await?;

    // §3.2.2 — existential part on the violation-filtered lattice.
    let conjunctions = learn_existential_conjunctions(n, &universals, &mut asker).await?;

    let exprs = universals
        .into_iter()
        .map(|(b, h)| Expr::universal(b, h))
        .chain(conjunctions.into_iter().map(Expr::conj))
        .collect::<Vec<_>>();
    let query = Query::new(n, exprs).map_err(|e| LearnError::InconsistentOracle {
        detail: format!(
            "learned structurally invalid expressions ({e}); the oracle is not \
             consistent with any complete query of the promised class"
        ),
    })?;
    Ok(LearnOutcome::new(query, asker.into_stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::Phase;
    use crate::oracle::{CountingOracle, QueryOracle};
    use crate::query::equiv::equivalent;
    use crate::var::{VarId, VarSet};
    use crate::varset;

    fn v(i: u16) -> VarId {
        VarId::from_one_based(i)
    }

    fn assert_learns(target: &Query) -> LearnOutcome {
        let mut oracle = QueryOracle::new(target.clone());
        let outcome =
            learn_role_preserving(target.arity(), &mut oracle, &LearnOptions::default()).unwrap();
        assert!(
            equivalent(outcome.query(), target),
            "learned {} for target {} (normal forms {:?} vs {:?})",
            outcome.query(),
            target,
            outcome.query().normal_form(),
            target.normal_form()
        );
        outcome
    }

    #[test]
    fn learns_the_paper_example() {
        // §3.2 / §4.2 running example with θ = 2.
        let q = crate::query::tests::paper_example();
        let outcome = assert_learns(&q);
        let s = outcome.stats();
        assert_eq!(s.phase(Phase::ClassifyHeads), 6);
        assert!(s.phase(Phase::UniversalBodies) > 0);
        assert!(s.phase(Phase::ExistentialLattice) > 0);
    }

    #[test]
    fn learns_section_2_1_4_example() {
        // ∀x1x4→x5 ∀x3x4→x5 ∀x2x4→x6 ∃x1x2x3 ∃x1x2x5x6.
        let q = Query::new(
            6,
            [
                Expr::universal(varset![1, 4], v(5)),
                Expr::universal(varset![3, 4], v(5)),
                Expr::universal(varset![2, 4], v(6)),
                Expr::conj(varset![1, 2, 3]),
                Expr::conj(varset![1, 2, 5, 6]),
            ],
        )
        .unwrap();
        assert_learns(&q);
    }

    #[test]
    fn learns_every_two_variable_role_preserving_query() {
        // Exhaustive: every complete role-preserving query on 2 variables.
        let mut count = 0;
        for target in crate::query::generate::enumerate_role_preserving(2, true) {
            assert_learns(&target);
            count += 1;
        }
        assert!(count >= 7, "expected the Fig. 7 universe, got {count}");
    }

    #[test]
    fn learns_every_three_variable_role_preserving_query() {
        // Exhaustive on 3 variables — this is the heavyweight correctness
        // test for the whole §3.2 pipeline.
        for target in crate::query::generate::enumerate_role_preserving(3, true) {
            assert_learns(&target);
        }
    }

    #[test]
    fn learns_qhorn1_targets_too() {
        for target in crate::query::generate::enumerate_qhorn1(3) {
            if !target.is_complete() {
                continue;
            }
            assert_learns(&target);
        }
    }

    #[test]
    fn output_is_in_normal_form() {
        let q = crate::query::tests::paper_example();
        let mut oracle = QueryOracle::new(q.clone());
        let outcome = learn_role_preserving(6, &mut oracle, &LearnOptions::default()).unwrap();
        let nf = q.normal_form();
        assert_eq!(outcome.query().normal_form(), nf);
        // Expressions are exactly the dominant ones.
        assert_eq!(
            outcome.query().exprs().len(),
            nf.universals().len() + nf.existentials().len()
        );
    }

    #[test]
    fn question_budget_respected() {
        let q = crate::query::tests::paper_example();
        let mut oracle = QueryOracle::new(q);
        let opts = LearnOptions {
            max_questions: Some(5),
            ..Default::default()
        };
        let err = learn_role_preserving(6, &mut oracle, &opts).unwrap_err();
        assert!(matches!(err, LearnError::BudgetExceeded { asked: 5 }));
    }

    #[test]
    fn free_variable_option_composes() {
        // x2 unmentioned.
        let target = Query::new(
            4,
            [Expr::universal(varset![1], v(3)), Expr::conj(varset![4])],
        )
        .unwrap();
        let opts = LearnOptions {
            detect_free_variables: true,
            ..Default::default()
        };
        let mut oracle = QueryOracle::new(target.clone());
        let outcome = learn_role_preserving(4, &mut oracle, &opts).unwrap();
        assert!(equivalent(outcome.query(), &target));
    }

    #[test]
    fn high_causal_density_target() {
        // θ = 3 on one head.
        let q = Query::new(
            7,
            [
                Expr::universal(varset![1, 2], v(7)),
                Expr::universal(varset![3, 4], v(7)),
                Expr::universal(varset![5, 6], v(7)),
            ],
        )
        .unwrap();
        assert_learns(&q);
    }

    #[test]
    fn conjunction_containing_heads() {
        // Existential conjunctions may mention universal heads.
        let q = Query::new(
            4,
            [
                Expr::universal(varset![1], v(4)),
                Expr::conj(varset![2, 4]),
                Expr::conj(varset![3]),
            ],
        )
        .unwrap();
        assert_learns(&q);
    }

    #[test]
    fn question_complexity_stays_polynomial() {
        // k·n lg n + n^{θ+1} envelope for a θ=1, k=O(n/3) family.
        for n in [9u16, 15, 21] {
            let third = n / 3;
            let mut exprs = vec![];
            // heads: last `third` variables, each with a 2-variable body.
            for i in 0..third {
                exprs.push(Expr::universal(
                    VarSet::from_indices([2 * i, 2 * i + 1]),
                    VarId(2 * third + i),
                ));
            }
            let q = Query::new(n, exprs).unwrap();
            let mut counting = CountingOracle::new(QueryOracle::new(q.clone()));
            let outcome =
                learn_role_preserving(n, &mut counting, &LearnOptions::default()).unwrap();
            assert!(equivalent(outcome.query(), &q));
            let asked = counting.stats().questions;
            let nf = n as f64;
            let bound = (4.0 * nf * nf * nf.log2()) as usize + 50;
            assert!(asked <= bound, "n={n}: {asked} > {bound}");
        }
    }
}
