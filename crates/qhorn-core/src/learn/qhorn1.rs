//! The qhorn-1 learner (§3.1, Theorem 3.1): exact learning with O(n lg n)
//! membership questions in polynomial time.
//!
//! Three subtasks, each O(n lg n) questions:
//!
//! 1. **Classify universal head variables** (§3.1.1): one two-tuple
//!    question per variable.
//! 2. **Learn universal bodies** (§3.1.2, Algorithm 1): for each universal
//!    head, first binary-search the already-discovered bodies for a
//!    dependence (1 + lg n questions when the body is shared), otherwise
//!    group-test the existential variables (O(|B| lg n)).
//! 3. **Learn existential Horn expressions** (§3.1.3, Algorithm 4): for
//!    each unresolved existential variable, binary-search known bodies for
//!    a dependence; otherwise discover its dependents, locate a head with
//!    matrix questions ([`super::gethead`]), and split the part into body
//!    and heads with pairwise independence questions.
//!
//! The target must be a *complete* qhorn-1 query (every variable occurs);
//! enable [`super::LearnOptions::detect_free_variables`] to lift that
//! assumption.

use super::free_vars::{learn_with_free_vars, Complete};
use super::gethead::get_head;
use super::questions;
use super::search::{find_all, find_one, Probe};
use super::{complete_now, Asker, LearnError, LearnOptions, LearnOutcome, Phase};
use crate::object::{Obj, Response};
use crate::oracle::MembershipOracle;
use crate::query::{Expr, Query};
use crate::var::{VarId, VarSet};
use std::collections::BTreeSet;

/// Learns a complete qhorn-1 query over `n` variables from membership
/// questions (Theorem 3.1).
///
/// The oracle must answer consistently with some complete qhorn-1 target;
/// the returned query is then semantically equivalent to it. With
/// [`LearnOptions::detect_free_variables`] the completeness assumption is
/// dropped at a cost of `n` extra questions.
///
/// # Errors
/// [`LearnError::BudgetExceeded`] if [`LearnOptions::max_questions`] runs
/// out.
pub fn learn_qhorn1<O: MembershipOracle + ?Sized>(
    n: u16,
    oracle: &mut O,
    opts: &LearnOptions,
) -> Result<LearnOutcome, LearnError> {
    complete_now(learn_qhorn1_async(n, oracle, opts))
}

/// [`learn_qhorn1`] as a future that awaits each answer, for oracles
/// that suspend (see [`MembershipOracle::poll_ask`]).
///
/// # Errors
/// As [`learn_qhorn1`].
pub async fn learn_qhorn1_async<O: MembershipOracle + ?Sized>(
    n: u16,
    oracle: &mut O,
    opts: &LearnOptions,
) -> Result<LearnOutcome, LearnError> {
    if opts.detect_free_variables {
        return learn_with_free_vars(n, oracle, opts, Complete::Qhorn1).await;
    }
    learn_complete(n, oracle, opts).await
}

/// [`learn_qhorn1`] without the free-variable pre-pass (requires a complete
/// target).
///
/// # Errors
/// As [`learn_qhorn1`].
pub fn learn_qhorn1_complete<O: MembershipOracle + ?Sized>(
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
    let mut exprs: Vec<Expr> = Vec::new();

    // ---- Subtask 1 (§3.1.1): universal head variables. -----------------
    asker.set_phase(Phase::ClassifyHeads);
    let mut universal_heads: Vec<VarId> = Vec::new();
    let mut existential: Vec<VarId> = Vec::new();
    for i in 0..n {
        let v = VarId(i);
        if asker.is_answer(&questions::classify_head(n, v)).await? {
            existential.push(v);
        } else {
            universal_heads.push(v);
        }
    }

    // ---- Subtask 2 (§3.1.2, Algorithm 1): bodies of universal heads. ---
    asker.set_phase(Phase::UniversalBodies);
    // Discovered bodies (universal first, existential bodies added later).
    let mut bodies: Vec<VarSet> = Vec::new();
    for &h in &universal_heads {
        let body = find_body_for_universal_head(n, h, &bodies, &existential, &mut asker).await?;
        if let Some(body) = body {
            if !bodies.contains(&body) {
                bodies.push(body.clone());
            }
            exprs.push(Expr::universal(body, h));
        } else {
            exprs.push(Expr::universal_bodyless(h));
        }
    }

    // ---- Subtask 3 (§3.1.3, Algorithm 4): existential expressions. -----
    let body_union =
        |bodies: &[VarSet]| -> VarSet { bodies.iter().fold(VarSet::new(), |acc, b| acc.union(b)) };
    let mut remaining: BTreeSet<VarId> = existential
        .iter()
        .copied()
        .filter(|v| !body_union(&bodies).contains(*v))
        .collect();

    while let Some(e) = remaining.pop_first() {
        asker.set_phase(Phase::ExistentialDependence);
        // (a) Does e depend on a variable of a known body? Then e is an
        //     existential head of that body.
        let known: Vec<VarId> = body_union(&bodies).to_vec();
        let e_set = VarSet::singleton(e);
        let dependence = Probe {
            question: |d: &[VarId]| {
                let ds: VarSet = d.iter().copied().collect();
                questions::existential_independence(n, &e_set, &ds)
            },
            hit: Response::NonAnswer,
        };
        if let Some(b) = find_one(&known, &dependence, &mut asker).await? {
            let body = bodies
                .iter()
                .find(|bs| bs.contains(b))
                .expect("found variable must come from a known body")
                .clone();
            exprs.push(Expr::existential_horn(body, e));
            continue;
        }

        // (b) Discover e's dependents among the unresolved existential
        //     variables.
        let cands: Vec<VarId> = remaining.iter().copied().collect();
        let d = find_all(&cands, &dependence, &mut asker).await?;
        if d.is_empty() {
            // Lone existential variable: ∃e.
            exprs.push(Expr::conj(VarSet::singleton(e)));
            continue;
        }

        // (c) Is there a pair of heads within D? (Lemma 3.3.)
        let head = get_head(n, &d, &mut asker).await?;
        asker.set_phase(Phase::ExistentialDependence);
        match head {
            None => {
                // At most one head in D: treat e as the head, D as its body
                // (§3.1.3 — semantically equivalent either way).
                let body: VarSet = d.iter().copied().collect();
                exprs.push(Expr::existential_horn(body.clone(), e));
                for v in &d {
                    remaining.remove(v);
                }
                bodies.push(body);
            }
            Some(h1) => {
                // h1 is a head; classify the remaining dependents with
                // pairwise independence questions against h1.
                let mut heads = vec![h1];
                let h1_set = VarSet::singleton(h1);
                for &v in d.iter().filter(|&&v| v != h1) {
                    let vs = VarSet::singleton(v);
                    if asker
                        .is_answer(&questions::existential_independence(n, &h1_set, &vs))
                        .await?
                    {
                        heads.push(v);
                    }
                }
                let mut body: VarSet = d.iter().copied().collect();
                for h in &heads {
                    body.remove(*h);
                }
                body.insert(e);
                for h in &heads {
                    exprs.push(Expr::existential_horn(body.clone(), *h));
                }
                for v in &d {
                    remaining.remove(v);
                }
                bodies.push(body);
            }
        }
    }

    let query = Query::new(n, exprs).map_err(|e| LearnError::InconsistentOracle {
        detail: format!(
            "learned structurally invalid expressions ({e}); the oracle is not \
             consistent with any complete query of the promised class"
        ),
    })?;
    Ok(LearnOutcome::new(query, asker.into_stats()))
}

/// Algorithm 1: the body of universal head `h`, or `None` if bodyless.
async fn find_body_for_universal_head<O: MembershipOracle + ?Sized>(
    n: u16,
    h: VarId,
    bodies: &[VarSet],
    existential: &[VarId],
    asker: &mut Asker<'_, O>,
) -> Result<Option<VarSet>, LearnError> {
    let dependence = Probe {
        question: |d: &[VarId]| {
            let ds: VarSet = d.iter().copied().collect();
            questions::universal_dependence(n, h, &ds)
        },
        hit: Response::Answer,
    };

    // Shared body? One binary search over the union of known bodies.
    let known: Vec<VarId> = bodies
        .iter()
        .flat_map(|b| b.iter().collect::<Vec<_>>())
        .collect();
    if let Some(b) = find_one(&known, &dependence, asker).await? {
        let body = bodies
            .iter()
            .find(|bs| bs.contains(b))
            .expect("variable must come from a known body")
            .clone();
        return Ok(Some(body));
    }

    // New body: group-test the existential variables outside known bodies
    // (in qhorn-1 a new body is disjoint from every existing one).
    let known_union: VarSet = known.into_iter().collect();
    let cands: Vec<VarId> = existential
        .iter()
        .copied()
        .filter(|v| !known_union.contains(*v))
        .collect();
    let body = find_all(&cands, &dependence, asker).await?;
    if body.is_empty() {
        Ok(None)
    } else {
        Ok(Some(body.into_iter().collect()))
    }
}

/// Builds the membership question the paper calls a *universal dependence
/// question* for external callers (re-exported for the experiment
/// binaries).
#[must_use]
pub fn universal_dependence_question(n: u16, h: VarId, vs: &VarSet) -> Obj {
    questions::universal_dependence(n, h, vs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{CountingOracle, QueryOracle};
    use crate::query::equiv::equivalent;
    use crate::varset;

    fn v(i: u16) -> VarId {
        VarId::from_one_based(i)
    }

    fn learn(target: &Query) -> LearnOutcome {
        let mut oracle = QueryOracle::new(target.clone());
        learn_qhorn1(target.arity(), &mut oracle, &LearnOptions::default()).unwrap()
    }

    fn assert_learns(target: &Query) {
        let outcome = learn(target);
        assert!(
            equivalent(outcome.query(), target),
            "learned {} but target was {} (normal forms {:?} vs {:?})",
            outcome.query(),
            target,
            outcome.query().normal_form(),
            target.normal_form()
        );
    }

    #[test]
    fn learns_single_variable_queries() {
        assert_learns(&Query::new(1, [Expr::universal_bodyless(v(1))]).unwrap());
        assert_learns(&Query::new(1, [Expr::conj(varset![1])]).unwrap());
    }

    #[test]
    fn learns_fig2_query() {
        // ∀x1x2→x4 ∃x1x2→x5 ∃x3→x6 (Fig. 2).
        let q = Query::new(
            6,
            [
                Expr::universal(varset![1, 2], v(4)),
                Expr::existential_horn(varset![1, 2], v(5)),
                Expr::existential_horn(varset![3], v(6)),
            ],
        )
        .unwrap();
        assert_learns(&q);
    }

    #[test]
    fn learns_partition_construction_example() {
        // §2.1.3: ∀x1 ∀x2 ∃x3→x4 ∃x5x6→x7 from partition x1|x2|x3x4|x5x6x7.
        let q = Query::new(
            7,
            [
                Expr::universal_bodyless(v(1)),
                Expr::universal_bodyless(v(2)),
                Expr::existential_horn(varset![3], v(4)),
                Expr::existential_horn(varset![5, 6], v(7)),
            ],
        )
        .unwrap();
        assert_learns(&q);
    }

    #[test]
    fn learns_shared_bodies_with_mixed_quantifiers() {
        // One body {x1,x2} with universal head x3 and existential heads x4, x5.
        let q = Query::new(
            5,
            [
                Expr::universal(varset![1, 2], v(3)),
                Expr::existential_horn(varset![1, 2], v(4)),
                Expr::existential_horn(varset![1, 2], v(5)),
            ],
        )
        .unwrap();
        assert_learns(&q);
    }

    #[test]
    fn learns_headless_conjunction() {
        let q = Query::new(3, [Expr::conj(varset![1, 2, 3])]).unwrap();
        assert_learns(&q);
    }

    #[test]
    fn learns_all_existential_singletons() {
        let q = Query::new(4, (1..=4).map(|i| Expr::conj(VarSet::singleton(v(i))))).unwrap();
        assert_learns(&q);
    }

    #[test]
    fn learns_two_universal_heads_sharing_a_body() {
        let q = Query::new(
            5,
            [
                Expr::universal(varset![1, 2, 3], v(4)),
                Expr::universal(varset![1, 2, 3], v(5)),
            ],
        )
        .unwrap();
        assert_learns(&q);
    }

    #[test]
    fn learns_every_enumerated_qhorn1_query_n4() {
        // Exhaustive over all distinct complete qhorn-1 queries on 4
        // variables (partition construction).
        let mut checked = 0usize;
        for target in crate::query::generate::enumerate_qhorn1(4) {
            if !target.is_complete() {
                continue;
            }
            assert_learns(&target);
            checked += 1;
        }
        assert!(checked >= 100, "expected a rich universe, got {checked}");
    }

    #[test]
    fn question_count_is_o_n_log_n() {
        // Theorem 3.1: a generous constant times n lg n.
        for n in [8u16, 16, 32] {
            // Adversarial-ish target: parts of size 4 with one universal
            // head, one existential head, two body variables.
            let mut exprs = Vec::new();
            let mut i = 1u16;
            while i + 3 <= n {
                exprs.push(Expr::universal(varset![i, i + 1], v(i + 2)));
                exprs.push(Expr::existential_horn(varset![i, i + 1], v(i + 3)));
                i += 4;
            }
            while i <= n {
                exprs.push(Expr::conj(VarSet::singleton(v(i))));
                i += 1;
            }
            let target = Query::new(n, exprs).unwrap();
            let mut counting = CountingOracle::new(QueryOracle::new(target.clone()));
            let outcome = learn_qhorn1(n, &mut counting, &LearnOptions::default()).unwrap();
            assert!(equivalent(outcome.query(), &target));
            let nf = n as f64;
            let bound = (8.0 * nf * nf.log2() + 8.0 * nf) as usize;
            assert!(
                counting.stats().questions <= bound,
                "n={n}: {} questions > {bound}",
                counting.stats().questions
            );
        }
    }

    #[test]
    fn per_phase_stats_populated() {
        let q = Query::new(
            4,
            [
                Expr::universal(varset![1], v(2)),
                Expr::existential_horn(varset![3], v(4)),
            ],
        )
        .unwrap();
        let outcome = learn(&q);
        let s = outcome.stats();
        assert_eq!(s.phase(Phase::ClassifyHeads), 4, "one per variable");
        assert!(s.phase(Phase::UniversalBodies) > 0);
        assert!(s.phase(Phase::ExistentialDependence) > 0);
        assert_eq!(
            s.questions,
            s.by_phase.values().sum::<usize>(),
            "phase counts partition the total"
        );
    }

    #[test]
    fn budget_is_enforced() {
        let q = Query::new(4, [Expr::conj(varset![1, 2, 3, 4])]).unwrap();
        let mut oracle = QueryOracle::new(q);
        let opts = LearnOptions {
            max_questions: Some(2),
            ..Default::default()
        };
        let err = learn_qhorn1(4, &mut oracle, &opts).unwrap_err();
        assert!(matches!(err, LearnError::BudgetExceeded { asked: 2 }));
    }
}
