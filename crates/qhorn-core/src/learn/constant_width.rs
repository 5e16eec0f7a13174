//! The tuple-budgeted learner of Lemma 3.4.
//!
//! Lemma 3.4 shows that restricting membership questions to a constant
//! number `c` of tuples forces Ω(n²/c²) questions to learn the pair-head
//! family
//!
//! ```text
//! ∃ C_ij → x_i   ∃ C_ij → x_j      with C_ij = X − {x_i, x_j}
//! ```
//!
//! (two head variables, everything else one shared body). This module
//! implements both the query family and the optimal-within-the-restriction
//! learner: questions carry only "class-2" tuples (exactly one variable
//! false, the informative kind per the Lemma's case analysis), a question
//! `{T_h : h ∈ H}` is an answer iff both heads lie in `H`, and a
//! block-cover of the pair space needs ≈ C(n,2)/C(c,2) questions.
//!
//! The experiment `exp_constant_width_lower_bound` contrasts the measured
//! counts with the unrestricted matrix-question learner (Lemma 3.3), which
//! needs only O(lg n) questions.

use super::questions::matrix;
use super::{complete_now, Asker, LearnError, LearnOptions, LearnStats};
use crate::oracle::MembershipOracle;
use crate::query::{Expr, Query};
use crate::var::{VarId, VarSet};

/// Builds the Lemma 3.4 target query: heads `i`, `j` (0-based), body all
/// other variables.
///
/// # Panics
/// Panics unless `i < j < n` and `n ≥ 3`.
#[must_use]
pub fn pair_head_query(n: u16, i: VarId, j: VarId) -> Query {
    assert!(
        n >= 3 && i < j && (j.index() as u16) < n,
        "need i < j < n, n ≥ 3"
    );
    let body: VarSet = (0..n).map(VarId).filter(|v| *v != i && *v != j).collect();
    Query::new(
        n,
        [
            Expr::existential_horn(body.clone(), i),
            Expr::existential_horn(body, j),
        ],
    )
    .expect("pair-head query is valid")
}

/// Outcome of the width-restricted learner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairHeadOutcome {
    /// The discovered head pair (0-based, ascending).
    pub heads: (VarId, VarId),
    /// Question accounting.
    pub stats: LearnStats,
}

/// Learns which pair of variables are the heads of a [`pair_head_query`]
/// using membership questions of at most `c` tuples each.
///
/// Worst case ≈ `C(n,2)/C(c,2)` questions (Lemma 3.4's lower bound is
/// tight for this strategy up to constants).
///
/// # Errors
/// [`LearnError::InconsistentOracle`] if no pair of variables explains the
/// responses; [`LearnError::BudgetExceeded`] on budget exhaustion.
///
/// # Panics
/// Panics if `c < 2` or `n < 3`.
pub fn learn_pair_heads<O: MembershipOracle + ?Sized>(
    n: u16,
    c: usize,
    oracle: &mut O,
    opts: &LearnOptions,
) -> Result<PairHeadOutcome, LearnError> {
    assert!(
        c >= 2,
        "questions need at least two tuples to carry information"
    );
    assert!(n >= 3);
    complete_now(pair_heads(n, c, oracle, opts))
}

async fn pair_heads<O: MembershipOracle + ?Sized>(
    n: u16,
    c: usize,
    oracle: &mut O,
    opts: &LearnOptions,
) -> Result<PairHeadOutcome, LearnError> {
    let mut asker = Asker::new(oracle, opts);

    // Cover the pair space with blocks of ≤ c variables: blocks of size
    // ⌈c/2⌉; every pair lies within some single block or block union.
    let half = usize::max(1, c / 2);
    let blocks: Vec<Vec<VarId>> = (0..n as usize)
        .step_by(half)
        .map(|start| {
            (start..usize::min(start + half, n as usize))
                .map(|i| VarId(i as u16))
                .collect()
        })
        .collect();

    let mut candidate: Option<Vec<VarId>> = None;
    'outer: for (bi, a) in blocks.iter().enumerate() {
        for b in blocks.iter().skip(bi) {
            let h: Vec<VarId> = if std::ptr::eq(a, b) {
                a.clone()
            } else {
                a.iter().chain(b.iter()).copied().collect()
            };
            if h.len() < 2 {
                continue;
            }
            debug_assert!(h.len() <= c);
            let set: VarSet = h.iter().copied().collect();
            if asker.is_answer(&matrix(n, &set)).await? {
                candidate = Some(h);
                break 'outer;
            }
        }
    }
    let Some(h) = candidate else {
        return Err(LearnError::InconsistentOracle {
            detail: "no block of variables contains the head pair".to_string(),
        });
    };

    // Pin down the exact pair within the ≤ c candidates. All questions
    // below are matrix questions over subsets of `h`, so the width budget
    // is respected. First isolate one head with O(lg c) questions (the
    // same divide-and-boost search as GetHead, Lemma 3.3)…
    let first = isolate_one_head(n, &h, &mut asker).await?;
    // …then binary-search the rest boosted by the found head:
    // matrix(S ∪ {first}) answers iff S contains the second head.
    let mut rest: Vec<VarId> = h.iter().copied().filter(|&v| v != first).collect();
    while rest.len() > 1 {
        let (a, b) = rest.split_at(rest.len() / 2);
        let probe: VarSet = a.iter().copied().chain(std::iter::once(first)).collect();
        rest = if asker.is_answer(&matrix(n, &probe)).await? {
            a.to_vec()
        } else {
            b.to_vec()
        };
    }
    let Some(&second) = rest.first() else {
        return Err(LearnError::InconsistentOracle {
            detail: "a block answered but no pair within it does".to_string(),
        });
    };
    let (x, y) = if first < second {
        (first, second)
    } else {
        (second, first)
    };
    Ok(PairHeadOutcome {
        heads: (x, y),
        stats: asker.into_stats(),
    })
}

/// Precondition: `h` contains both heads. Returns one of them with
/// O(lg |h|) matrix questions (mirrors `gethead::isolate`).
async fn isolate_one_head<O: MembershipOracle + ?Sized>(
    n: u16,
    h: &[VarId],
    asker: &mut Asker<'_, O>,
) -> Result<VarId, LearnError> {
    let mut s: Vec<VarId> = h.to_vec();
    loop {
        if s.len() == 2 {
            return Ok(s[0]);
        }
        let (a, b) = s.split_at(s.len() / 2);
        let set_a: VarSet = a.iter().copied().collect();
        if a.len() >= 2 && asker.is_answer(&matrix(n, &set_a)).await? {
            s = a.to_vec();
            continue;
        }
        let set_b: VarSet = b.iter().copied().collect();
        if b.len() >= 2 && asker.is_answer(&matrix(n, &set_b)).await? {
            s = b.to_vec();
            continue;
        }
        // One head in each half: binary-search `a` boosted by `b`.
        let mut slice: Vec<VarId> = a.to_vec();
        while slice.len() > 1 {
            let (lo, hi) = slice.split_at(slice.len() / 2);
            let probe: VarSet = lo.iter().copied().chain(b.iter().copied()).collect();
            slice = if asker.is_answer(&matrix(n, &probe)).await? {
                lo.to_vec()
            } else {
                hi.to_vec()
            };
        }
        return Ok(slice[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{CountingOracle, QueryOracle};

    #[test]
    fn pair_head_query_semantics() {
        let q = pair_head_query(4, VarId(1), VarId(3));
        // Heads x2, x4 (one-based); body {x1, x3}.
        // Ti = only xi false. Question {T2, T4} is an answer:
        assert!(q.accepts(&crate::Obj::from_bits("1011 1110")));
        // {T2, T3} is not (x4's conjunction unsatisfied).
        assert!(!q.accepts(&crate::Obj::from_bits("1011 1101")));
        // A single class-2 tuple is never an answer.
        assert!(!q.accepts(&crate::Obj::from_bits("1011")));
    }

    #[test]
    fn learns_every_pair_with_width_2() {
        let n = 6u16;
        for i in 0..n {
            for j in (i + 1)..n {
                let target = pair_head_query(n, VarId(i), VarId(j));
                let mut oracle = QueryOracle::new(target);
                let out = learn_pair_heads(n, 2, &mut oracle, &LearnOptions::default()).unwrap();
                assert_eq!(out.heads, (VarId(i), VarId(j)), "i={i} j={j}");
            }
        }
    }

    #[test]
    fn learns_with_larger_widths() {
        let n = 9u16;
        for c in [4usize, 6, 8] {
            let target = pair_head_query(n, VarId(2), VarId(7));
            let mut oracle = QueryOracle::new(target);
            let out = learn_pair_heads(n, c, &mut oracle, &LearnOptions::default()).unwrap();
            assert_eq!(out.heads, (VarId(2), VarId(7)), "c={c}");
            assert!(out.stats.max_tuples_per_question <= c, "width respected");
        }
    }

    #[test]
    fn question_count_shrinks_quadratically_with_width() {
        // Lemma 3.4: ≈ n²/c² questions; doubling c should cut the count by
        // roughly 4 in the worst case (heads in the last block).
        let n = 32u16;
        let target = pair_head_query(n, VarId(30), VarId(31));
        let count_for = |c: usize| {
            let mut oracle = CountingOracle::new(QueryOracle::new(target.clone()));
            learn_pair_heads(n, c, &mut oracle, &LearnOptions::default()).unwrap();
            oracle.stats().questions
        };
        let q2 = count_for(2);
        let q8 = count_for(8);
        assert!(q2 > 3 * q8, "width 2: {q2}, width 8: {q8}");
    }

    #[test]
    fn kernel_oracle_learns_identically_to_naive_evaluation() {
        // Same learner trajectory whether questions are answered by the
        // compiled kernel oracle or the naive reference evaluator.
        use crate::query::eval::reference;
        let n = 8u16;
        let target = pair_head_query(n, VarId(1), VarId(6));
        let mut kernel_oracle = CountingOracle::new(QueryOracle::new(target.clone()));
        let kernel_out =
            learn_pair_heads(n, 4, &mut kernel_oracle, &LearnOptions::default()).unwrap();
        let naive_target = target.clone();
        let mut naive_oracle =
            CountingOracle::new(crate::oracle::FnOracle(move |obj: &crate::Obj| {
                crate::Response::from_bool(reference::accepts(&naive_target, obj))
            }));
        let naive_out =
            learn_pair_heads(n, 4, &mut naive_oracle, &LearnOptions::default()).unwrap();
        assert_eq!(kernel_out.heads, naive_out.heads);
        assert_eq!(
            kernel_oracle.stats().questions,
            naive_oracle.stats().questions
        );
    }

    #[test]
    fn inconsistent_oracle_detected() {
        // An oracle that always says non-answer fits no pair.
        let mut oracle = crate::oracle::FnOracle(|_: &crate::Obj| crate::Response::NonAnswer);
        let err = learn_pair_heads(5, 2, &mut oracle, &LearnOptions::default()).unwrap_err();
        assert!(matches!(err, LearnError::InconsistentOracle { .. }));
    }
}
