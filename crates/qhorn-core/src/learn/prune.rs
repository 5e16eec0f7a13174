//! `Prune` (Algorithm 8): shrinking a tuple set to a minimal subset that —
//! together with the other kept tuples — still dominates every
//! distinguishing tuple of the target.
//!
//! The printed Algorithm 8 can loop on singleton splits (see DESIGN.md §3);
//! we implement the standard recursive group-testing minimization with the
//! same O(lg n) questions per kept tuple:
//!
//! ```text
//! needed(T, O):                      # precondition: Ask(T ∪ O) = answer
//!   if Ask(O) = answer: return ∅     # nothing in T is needed
//!   if |T| = 1:        return T      # the single tuple is needed
//!   split T into A, B
//!   Ka = needed(A, O ∪ B)            # minimize A while B is present
//!   Kb = needed(B, O ∪ Ka)           # then minimize B given only Ka
//!   return Ka ∪ Kb
//! ```
//!
//! Because "the question is an answer" is monotone in the tuple set (adding
//! tuples can only satisfy more existential conjunctions, and no lattice
//! tuple in play violates a universal expression), the result is
//! 1-minimal: dropping any kept tuple flips the question to a non-answer.

use super::{Asker, LearnError};
use crate::object::Obj;
use crate::oracle::MembershipOracle;
use crate::tuple::BoolTuple;
use std::collections::BTreeSet;

/// Minimizes `t` against the fixed context `others`: returns a minimal
/// `K ⊆ t` such that the membership question `K ∪ others` is still an
/// answer.
///
/// Precondition: the question `t ∪ others` is an answer (callers in
/// Algorithm 7 have just observed this).
pub(crate) async fn prune<O: MembershipOracle + ?Sized>(
    n: u16,
    t: &[BoolTuple],
    others: &BTreeSet<BoolTuple>,
    asker: &mut Asker<'_, O>,
) -> Result<Vec<BoolTuple>, LearnError> {
    needed(n, t, others, asker).await
}

async fn needed<O: MembershipOracle + ?Sized>(
    n: u16,
    t: &[BoolTuple],
    others: &BTreeSet<BoolTuple>,
    asker: &mut Asker<'_, O>,
) -> Result<Vec<BoolTuple>, LearnError> {
    if t.is_empty() {
        return Ok(Vec::new());
    }
    if asker
        .is_answer(&Obj::new(n, others.iter().cloned()))
        .await?
    {
        return Ok(Vec::new());
    }
    if t.len() == 1 {
        return Ok(t.to_vec());
    }
    let (a, b) = t.split_at(t.len() / 2);
    let mut with_b = others.clone();
    with_b.extend(b.iter().cloned());
    let ka = Box::pin(needed(n, a, &with_b, asker)).await?;
    let mut with_ka = others.clone();
    with_ka.extend(ka.iter().cloned());
    let kb = Box::pin(needed(n, b, &with_ka, asker)).await?;
    let mut out = ka;
    out.extend(kb);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::{complete_now, LearnOptions};
    use crate::object::Response;
    use crate::oracle::{CountingOracle, FnOracle, MembershipOracle, QueryOracle};
    use crate::query::{Expr, Query};
    use crate::varset;

    /// Coverage oracle: answer iff every "needed" tuple is present.
    fn coverage_oracle(required: Vec<BoolTuple>) -> impl MembershipOracle {
        FnOracle(move |q: &Obj| Response::from_bool(required.iter().all(|r| q.contains(r))))
    }

    #[test]
    fn keeps_exactly_the_required_tuples() {
        let n = 4;
        let all: Vec<BoolTuple> = crate::query::generate::all_tuples(n);
        let required = vec![all[3].clone(), all[9].clone()];
        let mut oracle = coverage_oracle(required.clone());
        let opts = LearnOptions::default();
        let mut asker = Asker::new(&mut oracle, &opts);
        let kept = complete_now(prune(n, &all, &BTreeSet::new(), &mut asker)).unwrap();
        let kept_set: BTreeSet<_> = kept.into_iter().collect();
        assert_eq!(kept_set, required.into_iter().collect());
    }

    #[test]
    fn context_tuples_reduce_what_is_kept() {
        let n = 3;
        let all = crate::query::generate::all_tuples(n);
        let required = vec![all[1].clone(), all[6].clone()];
        let mut oracle = coverage_oracle(required.clone());
        let opts = LearnOptions::default();
        let mut asker = Asker::new(&mut oracle, &opts);
        // all[6] already supplied by the context.
        let others: BTreeSet<_> = [all[6].clone()].into_iter().collect();
        let kept = complete_now(prune(n, &all, &others, &mut asker)).unwrap();
        assert_eq!(kept, vec![all[1].clone()]);
    }

    #[test]
    fn nothing_needed_returns_empty_fast() {
        let n = 3;
        let all = crate::query::generate::all_tuples(n);
        let mut oracle = coverage_oracle(vec![]);
        let opts = LearnOptions::default();
        let mut counting = CountingOracle::new(&mut oracle);
        let mut asker = Asker::new(&mut counting, &opts);
        let kept = complete_now(prune(n, &all, &BTreeSet::new(), &mut asker)).unwrap();
        assert!(kept.is_empty());
        assert_eq!(counting.stats().questions, 1);
    }

    #[test]
    fn question_count_logarithmic_per_kept_tuple() {
        // |T| = 64, 3 required tuples: expect ≲ 3·2·lg 64 + O(1) questions.
        let n = 6;
        let all = crate::query::generate::all_tuples(n);
        let required = vec![all[5].clone(), all[33].clone(), all[60].clone()];
        let mut oracle = coverage_oracle(required);
        let opts = LearnOptions::default();
        let mut counting = CountingOracle::new(&mut oracle);
        let mut asker = Asker::new(&mut counting, &opts);
        let kept = complete_now(prune(n, &all, &BTreeSet::new(), &mut asker)).unwrap();
        assert_eq!(kept.len(), 3);
        let q = counting.stats().questions;
        assert!(q <= 3 * 2 * 6 + 8, "{q} questions for 3 kept of 64");
    }

    #[test]
    fn result_is_one_minimal_for_query_oracles() {
        // Against a real query: pruning level-1 tuples of the paper
        // example. Removing any kept tuple must flip the answer.
        let q = crate::query::tests::paper_example();
        let n = q.arity();
        let top_kids: Vec<BoolTuple> = crate::lattice::non_violating_children(
            &BoolTuple::all_true(n),
            &q.universal_horns()
                .map(|(b, h)| (b.clone(), h))
                .collect::<Vec<_>>(),
        );
        let mut oracle = QueryOracle::new(q.clone());
        let opts = LearnOptions::default();
        let mut asker = Asker::new(&mut oracle, &opts);
        let kept = complete_now(prune(n, &top_kids, &BTreeSet::new(), &mut asker)).unwrap();
        // Kept set is an answer…
        assert!(q.accepts(&Obj::new(n, kept.iter().cloned())));
        // …and 1-minimal.
        for skip in 0..kept.len() {
            let sub = Obj::new(
                n,
                kept.iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, t)| t.clone()),
            );
            assert!(!q.accepts(&sub), "kept tuple {skip} was unnecessary");
        }
    }

    /// The worked example of §3.2.2, level 1: after pruning the children of
    /// 111111 the paper keeps {111011, 101111, 011111} (some minimal
    /// dominating set; ours must be the same *size* and dominate).
    #[test]
    fn paper_level1_prune_size() {
        let q = crate::query::tests::paper_example();
        let n = q.arity();
        let universals: Vec<_> = q.universal_horns().map(|(b, h)| (b.clone(), h)).collect();
        let kids = crate::lattice::non_violating_children(&BoolTuple::all_true(n), &universals);
        // Children of the top minus violators: 111011, 110111, 101111, 011111.
        assert_eq!(kids.len(), 4);
        let mut oracle = QueryOracle::new(q.clone());
        let opts = LearnOptions::default();
        let mut asker = Asker::new(&mut oracle, &opts);
        let kept = complete_now(prune(n, &kids, &BTreeSet::new(), &mut asker)).unwrap();
        assert_eq!(
            kept.len(),
            3,
            "paper keeps three of the four level-1 tuples"
        );
    }

    #[test]
    fn kernel_oracle_prunes_identically_to_naive_evaluation() {
        // The learner loop must be oblivious to the oracle's evaluation
        // route: pruning against the compiled kernel oracle keeps exactly
        // the tuples that pruning against the naive tuple-at-a-time
        // reference keeps, with the same number of questions.
        use crate::query::eval::reference;
        let q = crate::query::tests::paper_example();
        let n = q.arity();
        let all = crate::query::generate::all_tuples(n);
        let candidates: Vec<BoolTuple> = all
            .iter()
            .filter(|t| t.count_true() >= (n as usize - 1))
            .cloned()
            .collect();

        let opts = LearnOptions::default();
        let mut kernel_oracle = CountingOracle::new(QueryOracle::new(q.clone()));
        let mut asker = Asker::new(&mut kernel_oracle, &opts);
        let kept_kernel =
            complete_now(prune(n, &candidates, &BTreeSet::new(), &mut asker)).unwrap();

        let naive_q = q.clone();
        let mut naive_oracle = CountingOracle::new(FnOracle(move |obj: &Obj| {
            Response::from_bool(reference::accepts(&naive_q, obj))
        }));
        let mut asker = Asker::new(&mut naive_oracle, &opts);
        let kept_naive = complete_now(prune(n, &candidates, &BTreeSet::new(), &mut asker)).unwrap();

        assert_eq!(kept_kernel, kept_naive);
        assert_eq!(
            kernel_oracle.stats().questions,
            naive_oracle.stats().questions
        );
    }

    #[test]
    fn empty_input_asks_nothing() {
        let q = Query::new(3, [Expr::universal(varset![1], crate::VarId(2))]).unwrap();
        let mut oracle = CountingOracle::new(QueryOracle::new(q));
        let opts = LearnOptions::default();
        let mut asker = Asker::new(&mut oracle, &opts);
        let kept = complete_now(prune(3, &[], &BTreeSet::new(), &mut asker)).unwrap();
        assert!(kept.is_empty());
        assert_eq!(oracle.stats().questions, 0);
    }
}
