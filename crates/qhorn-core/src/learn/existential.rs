//! Learning existential conjunctions via the Boolean lattice (§3.2.2,
//! Algorithm 7, Theorem 3.8): O(k·n lg n) membership questions.
//!
//! After the universal Horn expressions are known, every remaining
//! expression is an existential conjunction, distinguished (Def. 3.5) by
//! the lattice tuple whose true set equals its variables. The learner
//! walks the lattice level by level from the top, keeping a frontier of
//! tuples that dominates all distinguishing tuples:
//!
//! * tuples violating a learned universal Horn expression are removed from
//!   the lattice (their conjunctions are unsatisfiable);
//! * replacing a frontier tuple with its children keeps the question an
//!   answer iff the tuple is not itself distinguishing; a non-answer pins
//!   the tuple as a dominant conjunction;
//! * kept children are pruned ([`super::prune`]) to a minimal dominating
//!   set, giving the O(lg n) questions per surviving tuple of Thm 3.8;
//! * a frontier tuple equal to the head-closure of a learned universal
//!   body is the distinguishing tuple of that expression's guarantee
//!   clause — it is recorded without further questions and its downset is
//!   skipped (the footnote-1 optimization in §3.2.2).

use super::prune::prune;
use super::{Asker, LearnError, Phase};
use crate::lattice::non_violating_children;
use crate::object::Obj;
use crate::oracle::MembershipOracle;
use crate::tuple::BoolTuple;
use crate::var::{VarId, VarSet};
use std::collections::BTreeSet;

/// Learns the dominant existential conjunctions of the target, given its
/// (dominant) universal Horn expressions. Returns closed conjunction
/// variable sets, including surviving guarantee clauses.
pub(crate) async fn learn_existential_conjunctions<O: MembershipOracle + ?Sized>(
    n: u16,
    universals: &[(VarSet, VarId)],
    asker: &mut Asker<'_, O>,
) -> Result<Vec<VarSet>, LearnError> {
    asker.set_phase(Phase::ExistentialLattice);

    // Head-closures of the learned universal guarantees: reaching one of
    // these tuples ends the search on that branch (§3.2.2 optimization).
    let guarantee_closures: BTreeSet<VarSet> = universals
        .iter()
        .map(|(b, h)| close_under(&b.with(*h), universals))
        .collect();

    let mut discovered: BTreeSet<BoolTuple> = BTreeSet::new(); // D
    let mut frontier: BTreeSet<BoolTuple> = BTreeSet::new(); // T
    frontier.insert(BoolTuple::all_true(n));

    while !frontier.is_empty() {
        let mut next: BTreeSet<BoolTuple> = BTreeSet::new(); // T′
        let worklist: Vec<BoolTuple> = frontier.iter().cloned().collect();
        let mut remaining = frontier; // shrinks as tuples are processed
        for t in worklist {
            remaining.remove(&t);
            if guarantee_closures.contains(t.true_set()) {
                // Guarantee-clause distinguishing tuple: no question needed,
                // nothing dominant below it.
                discovered.insert(t);
                continue;
            }
            let children = non_violating_children(&t, universals);
            // Ask(D ∪ T ∪ C ∪ T′).
            let question: BTreeSet<BoolTuple> = discovered
                .iter()
                .chain(remaining.iter())
                .chain(children.iter())
                .chain(next.iter())
                .cloned()
                .collect();
            if asker.is_answer(&Obj::new(n, question)).await? {
                // t is not distinguishing; keep a minimal set of children.
                let context: BTreeSet<BoolTuple> = discovered
                    .iter()
                    .chain(remaining.iter())
                    .chain(next.iter())
                    .cloned()
                    .collect();
                let kept = prune(n, &children, &context, asker).await?;
                next.extend(kept);
            } else {
                // The conjunction over t's true set is dominant.
                discovered.insert(t);
            }
        }
        frontier = next;
    }

    Ok(discovered
        .into_iter()
        .map(|t| t.true_set().clone())
        .collect())
}

fn close_under(vars: &VarSet, universals: &[(VarSet, VarId)]) -> VarSet {
    let mut c = vars.clone();
    loop {
        let mut changed = false;
        for (b, h) in universals {
            if !c.contains(*h) && b.is_subset(&c) {
                c.insert(*h);
                changed = true;
            }
        }
        if !changed {
            return c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::{complete_now, LearnOptions};
    use crate::oracle::{CountingOracle, QueryOracle};
    use crate::query::{Expr, Query};
    use crate::varset;

    fn v(i: u16) -> VarId {
        VarId::from_one_based(i)
    }

    fn run(target: &Query) -> BTreeSet<VarSet> {
        let mut oracle = QueryOracle::new(target.clone());
        let opts = LearnOptions::default();
        let mut asker = Asker::new(&mut oracle, &opts);
        let universals: Vec<(VarSet, VarId)> =
            target.normal_form().universals().iter().cloned().collect();
        complete_now(learn_existential_conjunctions(
            target.arity(),
            &universals,
            &mut asker,
        ))
        .unwrap()
        .into_iter()
        .collect()
    }

    #[test]
    fn reproduces_section_3_2_2_walkthrough() {
        // The worked example terminates with distinguishing tuples
        // {110011, 100110, 111001, 011011, 011110} = conjunctions
        // ∃x1x2x5x6 ∃x1x4x5 ∃x1x2x3x6 ∃x2x3x5x6 ∃x2x3x4x5.
        let q = crate::query::tests::paper_example();
        let got = run(&q);
        let expected: BTreeSet<VarSet> = [
            varset![1, 2, 5, 6],
            varset![1, 4, 5],
            varset![1, 2, 3, 6],
            varset![2, 3, 5, 6],
            varset![2, 3, 4, 5],
        ]
        .into_iter()
        .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn full_conjunction_only() {
        // Target ∃x1x2x3: the top tuple itself is distinguishing.
        let q = Query::new(3, [Expr::conj(varset![1, 2, 3])]).unwrap();
        assert_eq!(run(&q), [varset![1, 2, 3]].into_iter().collect());
    }

    #[test]
    fn singletons_reach_the_bottom_levels() {
        let q = Query::new(
            3,
            [
                Expr::conj(varset![1]),
                Expr::conj(varset![2]),
                Expr::conj(varset![3]),
            ],
        )
        .unwrap();
        let expected: BTreeSet<VarSet> = [varset![1], varset![2], varset![3]].into_iter().collect();
        assert_eq!(run(&q), expected);
    }

    #[test]
    fn guarantee_clauses_discovered_without_descending() {
        // Pure universal target: the only conjunctions are guarantees.
        let q = Query::new(
            3,
            [Expr::universal(varset![1], v(3)), Expr::conj(varset![2])],
        )
        .unwrap();
        let got = run(&q);
        let expected: BTreeSet<VarSet> = [varset![1, 3], varset![2]].into_iter().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn all_bodyless_heads_full_closure() {
        // ∀x1 ∀x2: every child of the top violates; the empty question is a
        // non-answer; the top (= closure of both guarantees) is dominant.
        let q = Query::new(
            2,
            [
                Expr::universal_bodyless(v(1)),
                Expr::universal_bodyless(v(2)),
            ],
        )
        .unwrap();
        assert_eq!(run(&q), [varset![1, 2]].into_iter().collect());
    }

    #[test]
    fn matches_normal_form_for_random_small_targets() {
        // The lattice learner must recover exactly the dominant closed
        // conjunctions (including guarantees) of the normalized target.
        for target in crate::query::generate::enumerate_role_preserving(2, true) {
            let nf = target.normal_form();
            let got = run(&target);
            assert_eq!(
                &got,
                nf.existentials(),
                "target {target}: got {got:?}, expected {:?}",
                nf.existentials()
            );
        }
    }

    #[test]
    fn question_count_o_k_n_log_n() {
        // Thm 3.8 sanity: k disjoint conjunctions over n variables.
        for (n, k) in [(8u16, 2usize), (12, 3), (16, 4)] {
            let per = n as usize / k;
            let exprs: Vec<Expr> = (0..k)
                .map(|i| {
                    let vars: VarSet = ((i * per) as u16..((i + 1) * per) as u16)
                        .map(VarId)
                        .collect();
                    Expr::conj(vars)
                })
                .collect();
            let q = Query::new(n, exprs).unwrap();
            let mut counting = CountingOracle::new(QueryOracle::new(q.clone()));
            let opts = LearnOptions::default();
            let mut asker = Asker::new(&mut counting, &opts);
            let got = complete_now(learn_existential_conjunctions(n, &[], &mut asker)).unwrap();
            assert_eq!(got.len(), k);
            let asked = counting.stats().questions;
            let nf = n as f64;
            let bound = (6.0 * k as f64 * nf * nf.log2()).ceil() as usize + 20;
            assert!(asked <= bound, "n={n} k={k}: {asked} questions > {bound}");
        }
    }
}
