//! Learning the universal Horn expressions of a role-preserving query
//! (§3.2.1, Theorem 3.5): O(n^θ) questions per head, O(n^{θ+1}) total.
//!
//! For each universal head `h` (found as in §3.1.1) the learner walks the
//! Boolean lattice over the *non-head* variables with `h` pinned false and
//! the other heads pinned true (Fig. 5). A probe tuple is a non-answer iff
//! its true set contains a complete body of `h`; the **dominant** bodies
//! are exactly the minimal true sets of that monotone predicate:
//!
//! 1. find one body by shrinking from the full non-head set (Algorithm 6 —
//!    n questions);
//! 2. every further dominant body must miss at least one variable of each
//!    known body, so it lives under a **search root** that sets one
//!    variable per known body to false; probe each root and minimize
//!    within it when it contains a body (Fig. 5's `|B1|×…×|Bj|` roots).

use super::questions;
use super::{Asker, LearnError, Phase};
use crate::lattice::choice_product;
use crate::oracle::MembershipOracle;
use crate::var::{VarId, VarSet};

/// Classifies every variable: `true` in the result iff it is a universal
/// head (§3.1.1 / §3.2.1 — one two-tuple question per variable).
pub(crate) async fn classify_universal_heads<O: MembershipOracle + ?Sized>(
    n: u16,
    asker: &mut Asker<'_, O>,
) -> Result<VarSet, LearnError> {
    asker.set_phase(Phase::ClassifyHeads);
    let mut heads = VarSet::new();
    for i in 0..n {
        let v = VarId(i);
        if !asker.is_answer(&questions::classify_head(n, v)).await? {
            heads.insert(v);
        }
    }
    Ok(heads)
}

/// Learns all dominant universal Horn expressions of the target
/// (Theorem 3.5). Returns `(body, head)` pairs; bodyless heads contribute
/// `(∅, h)`.
pub(crate) async fn learn_universal_horns<O: MembershipOracle + ?Sized>(
    n: u16,
    heads: &VarSet,
    asker: &mut Asker<'_, O>,
) -> Result<Vec<(VarSet, VarId)>, LearnError> {
    let non_heads = VarSet::full(n).difference(heads);
    let mut out = Vec::new();
    for h in heads.iter() {
        // Bodyless check (§3.2.1): all potential body variables false.
        asker.set_phase(Phase::BodylessCheck);
        if !asker
            .is_answer(&questions::bodyless_check(n, h, &non_heads))
            .await?
        {
            out.push((VarSet::new(), h));
            continue;
        }
        asker.set_phase(Phase::UniversalBodies);
        let bodies = learn_bodies_of_head(n, h, &non_heads, asker).await?;
        for b in bodies {
            out.push((b, h));
        }
    }
    Ok(out)
}

/// All dominant (minimal) bodies of one head — the θ expressions of
/// Theorem 3.5.
async fn learn_bodies_of_head<O: MembershipOracle + ?Sized>(
    n: u16,
    h: VarId,
    non_heads: &VarSet,
    asker: &mut Asker<'_, O>,
) -> Result<Vec<VarSet>, LearnError> {
    // The head classification already told us the full non-head set
    // contains a body (the classification probe *is* body_probe with the
    // full true set); minimize to get the first dominant body.
    let first = minimize_body(n, h, non_heads, non_heads, asker).await?;
    let mut bodies = vec![first];

    // Search roots: one variable from each known body set to false.
    let mut cleared: Vec<VarSet> = Vec::new();
    'outer: loop {
        let choices: Vec<VarSet> = choice_product(&bodies).collect();
        for excluded in choices {
            let root = non_heads.difference(&excluded);
            if cleared.iter().any(|c| root.is_subset(c)) {
                continue; // known body-free region
            }
            if !asker
                .is_answer(&questions::body_probe(n, h, non_heads, &root))
                .await?
            {
                // Root contains a body: minimize within it. The new body
                // misses one variable of each known body, so it is new.
                let b = minimize_body(n, h, non_heads, &root, asker).await?;
                debug_assert!(!bodies.contains(&b), "search roots exclude known bodies");
                bodies.push(b);
                continue 'outer; // roots depend on the body set — restart
            }
            cleared.push(root);
        }
        break;
    }
    Ok(bodies)
}

/// Algorithm 6 restricted to `start`: shrinks `start` to a minimal true
/// set of the body predicate — a dominant body of `h` contained in
/// `start`. Asks `|start|` questions.
///
/// Precondition: `start` contains at least one body (the probe on `start`
/// was a non-answer).
async fn minimize_body<O: MembershipOracle + ?Sized>(
    n: u16,
    h: VarId,
    non_heads: &VarSet,
    start: &VarSet,
    asker: &mut Asker<'_, O>,
) -> Result<VarSet, LearnError> {
    let mut keep = start.clone();
    for x in start.to_vec() {
        let candidate = keep.without(x);
        if !asker
            .is_answer(&questions::body_probe(n, h, non_heads, &candidate))
            .await?
        {
            keep = candidate; // still contains a body without x
        }
    }
    Ok(keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::{complete_now, LearnOptions};
    use crate::oracle::{CountingOracle, QueryOracle};
    use crate::query::{Expr, Query};
    use crate::varset;
    use std::collections::BTreeSet;

    fn v(i: u16) -> VarId {
        VarId::from_one_based(i)
    }

    fn run(target: &Query) -> (VarSet, Vec<(VarSet, VarId)>) {
        let mut oracle = QueryOracle::new(target.clone());
        let opts = LearnOptions::default();
        let mut asker = Asker::new(&mut oracle, &opts);
        let heads = complete_now(classify_universal_heads(target.arity(), &mut asker)).unwrap();
        let horns =
            complete_now(learn_universal_horns(target.arity(), &heads, &mut asker)).unwrap();
        (heads, horns)
    }

    fn as_set(horns: Vec<(VarSet, VarId)>) -> BTreeSet<(VarSet, VarId)> {
        horns.into_iter().collect()
    }

    #[test]
    fn classifies_heads_of_paper_example() {
        let q = crate::query::tests::paper_example();
        let (heads, _) = run(&q);
        assert_eq!(heads, varset![5, 6]);
    }

    #[test]
    fn learns_both_bodies_of_x5() {
        // Fig. 5: x5 has dominant bodies {x1,x4} and {x3,x4}.
        let q = crate::query::tests::paper_example();
        let (_, horns) = run(&q);
        let expected: BTreeSet<(VarSet, VarId)> = [
            (varset![1, 4], v(5)),
            (varset![3, 4], v(5)),
            (varset![1, 2], v(6)),
        ]
        .into_iter()
        .collect();
        assert_eq!(as_set(horns), expected);
    }

    #[test]
    fn bodyless_head_detected() {
        let q = Query::new(
            3,
            [Expr::universal_bodyless(v(1)), Expr::conj(varset![2, 3])],
        )
        .unwrap();
        let (heads, horns) = run(&q);
        assert_eq!(heads, varset![1]);
        assert_eq!(as_set(horns), [(VarSet::new(), v(1))].into_iter().collect());
    }

    #[test]
    fn dominated_bodies_are_not_reported() {
        // ∀x1→x4 ∀x1x2→x4 (dominated) ∀x2x3→x4.
        let q = Query::new(
            4,
            [
                Expr::universal(varset![1], v(4)),
                Expr::universal(varset![1, 2], v(4)),
                Expr::universal(varset![2, 3], v(4)),
            ],
        )
        .unwrap();
        let (_, horns) = run(&q);
        let expected: BTreeSet<(VarSet, VarId)> = [(varset![1], v(4)), (varset![2, 3], v(4))]
            .into_iter()
            .collect();
        assert_eq!(as_set(horns), expected);
    }

    #[test]
    fn three_incomparable_bodies() {
        let q = Query::new(
            7,
            [
                Expr::universal(varset![1, 2], v(7)),
                Expr::universal(varset![3, 4], v(7)),
                Expr::universal(varset![5, 6], v(7)),
            ],
        )
        .unwrap();
        let (_, horns) = run(&q);
        assert_eq!(horns.len(), 3);
        let bodies: BTreeSet<VarSet> = horns.into_iter().map(|(b, _)| b).collect();
        assert!(bodies.contains(&varset![1, 2]));
        assert!(bodies.contains(&varset![3, 4]));
        assert!(bodies.contains(&varset![5, 6]));
    }

    #[test]
    fn overlapping_bodies_thm_3_6_family() {
        // The adversarial family of Thm 3.6 (n=12 body vars, θ=4):
        // ∀x1x3x5x9→h ∀x2x4x6x10→h ∀x7x8x11x12→h ∀x1x2x3x4x7x8x9x10x11→h.
        let h = v(13);
        let q = Query::new(
            13,
            [
                Expr::universal(varset![1, 3, 5, 9], h),
                Expr::universal(varset![2, 4, 6, 10], h),
                Expr::universal(varset![7, 8, 11, 12], h),
                Expr::universal(varset![1, 2, 3, 4, 7, 8, 9, 10, 11], h),
            ],
        )
        .unwrap();
        let (_, horns) = run(&q);
        assert_eq!(horns.len(), 4, "all four incomparable bodies found");
        let bodies: BTreeSet<VarSet> = horns.into_iter().map(|(b, _)| b).collect();
        assert!(bodies.contains(&varset![1, 2, 3, 4, 7, 8, 9, 10, 11]));
    }

    #[test]
    fn question_count_scales_with_n_to_theta() {
        // Theorem 3.5: O(n^θ) questions for the θ bodies of one head.
        // θ = 2 here; check the count stays well under n².
        for m in [6u16, 10, 14] {
            let n = m + 1;
            let h = VarId(m);
            let q = Query::new(
                n,
                [
                    Expr::universal(VarSet::from_indices([0, 1]), h),
                    Expr::universal(VarSet::from_indices([2, 3]), h),
                ],
            )
            .unwrap();
            let mut counting = CountingOracle::new(QueryOracle::new(q));
            let opts = LearnOptions::default();
            let mut asker = Asker::new(&mut counting, &opts);
            let heads = complete_now(classify_universal_heads(n, &mut asker)).unwrap();
            let horns = complete_now(learn_universal_horns(n, &heads, &mut asker)).unwrap();
            assert_eq!(horns.len(), 2);
            let qs = counting.stats().questions;
            let bound = 4 * (m as usize) * (m as usize) + 8 * m as usize + 8;
            assert!(qs <= bound, "n={n}: {qs} questions > {bound}");
        }
    }

    #[test]
    fn no_heads_no_questions_beyond_classification() {
        let q = Query::new(3, [Expr::conj(varset![1, 2, 3])]).unwrap();
        let mut counting = CountingOracle::new(QueryOracle::new(q));
        let opts = LearnOptions::default();
        let mut asker = Asker::new(&mut counting, &opts);
        let heads = complete_now(classify_universal_heads(3, &mut asker)).unwrap();
        assert!(heads.is_empty());
        let horns = complete_now(learn_universal_horns(3, &heads, &mut asker)).unwrap();
        assert!(horns.is_empty());
        assert_eq!(counting.stats().questions, 3);
    }
}
