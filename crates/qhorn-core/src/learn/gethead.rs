//! `GetHead` (Lemma 3.3, Algorithm 5): locating one existential head
//! variable among the dependents of a variable using independence matrix
//! questions.
//!
//! Setting: `x` is an existential variable whose dependents `D` all belong
//! to one pure existential part with (unknown) body `B` and heads `H`. A
//! matrix question on `S ⊆ D` (Def. 3.3) is an answer iff `S` contains at
//! least two head variables — each head's conjunction `B ∪ {h}` needs a
//! witness tuple, and the tuple dropping `h′ ≠ h` provides one only when
//! `h′` is itself a head.
//!
//! The paper's Algorithm 5 pseudocode leaves boundary behaviour (singleton
//! splits, the `D2` bookkeeping) under-specified; we implement an
//! equivalent head-isolation procedure with the same `O(lg |D|)` matrix-
//! question bound and cross-check it exhaustively against brute force in
//! the tests (see DESIGN.md §3):
//!
//! 1. if `matrix(D)` is a non-answer, `D` holds at most one head — report
//!    "no pair" (`None`), and the caller treats `x` as head with body `D`;
//! 2. otherwise split `D = A ⊎ B`; if either half still answers, recurse
//!    into it;
//! 3. if neither half answers, each holds exactly one head; binary-search
//!    `A` with `B` appended to every probe (`matrix(T ∪ B)` answers iff
//!    `T` contains `A`'s head).

use super::questions;
use super::{Asker, LearnError, Phase};
use crate::oracle::MembershipOracle;
use crate::var::{VarId, VarSet};

/// Finds one existential head variable among the dependents `d` (of some
/// existential variable), or `None` if `d` contains at most one head —
/// in which case the caller may assume the probed variable is itself the
/// head and all of `d` its body (§3.1.3).
///
/// Asks `O(lg |d|)` matrix questions of at most `|d|` tuples each.
pub(crate) async fn get_head<O: MembershipOracle + ?Sized>(
    n: u16,
    d: &[VarId],
    asker: &mut Asker<'_, O>,
) -> Result<Option<VarId>, LearnError> {
    asker.set_phase(Phase::MatrixQuestions);
    // A singleton or empty dependent set can never contain two heads.
    if d.len() < 2 {
        return Ok(None);
    }
    if !matrix_answers(n, d.iter(), asker).await? {
        return Ok(None);
    }
    isolate(n, d, asker).await.map(Some)
}

/// Precondition: `s` contains at least two heads. Returns one of them.
async fn isolate<O: MembershipOracle + ?Sized>(
    n: u16,
    s: &[VarId],
    asker: &mut Asker<'_, O>,
) -> Result<VarId, LearnError> {
    debug_assert!(s.len() >= 2);
    if s.len() == 2 {
        // Both are heads; return the first.
        return Ok(s[0]);
    }
    let (a, b) = s.split_at(s.len() / 2);
    if a.len() >= 2 && matrix_answers(n, a.iter(), asker).await? {
        return Box::pin(isolate(n, a, asker)).await;
    }
    if b.len() >= 2 && matrix_answers(n, b.iter(), asker).await? {
        return Box::pin(isolate(n, b, asker)).await;
    }
    // Each half holds exactly one head (together ≥ 2, each < 2 pairs).
    // Binary-search `a` boosted by `b`: matrix(T ∪ b) answers iff T holds
    // a's head, since b contributes exactly one.
    let mut slice = a;
    while slice.len() > 1 {
        let (lo, hi) = slice.split_at(slice.len() / 2);
        slice = if matrix_answers(n, lo.iter().chain(b.iter()), asker).await? {
            lo
        } else {
            hi
        };
    }
    Ok(slice[0])
}

async fn matrix_answers<'v, O: MembershipOracle + ?Sized>(
    n: u16,
    vars: impl Iterator<Item = &'v VarId>,
    asker: &mut Asker<'_, O>,
) -> Result<bool, LearnError> {
    let set: VarSet = vars.copied().collect();
    asker.is_answer(&questions::matrix(n, &set)).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::{complete_now, LearnOptions};
    use crate::oracle::{CountingOracle, QueryOracle};
    use crate::query::{Expr, Query};

    /// Builds the oracle for a single pure existential part: body `B`,
    /// heads `H` (conjunctions `B ∪ {h}` for each `h ∈ H`).
    fn part_oracle(n: u16, body: &[u16], heads: &[u16]) -> QueryOracle {
        let body: VarSet = VarSet::from_one_based(body.iter().copied());
        let exprs: Vec<Expr> = heads
            .iter()
            .map(|&h| Expr::existential_horn(body.clone(), VarId::from_one_based(h)))
            .collect();
        QueryOracle::new(Query::new(n, exprs).unwrap())
    }

    fn run_get_head(n: u16, d: &[u16], oracle: &mut QueryOracle) -> Option<VarId> {
        let opts = LearnOptions::default();
        let mut asker = Asker::new(oracle, &opts);
        let dv: Vec<VarId> = d.iter().map(|&i| VarId::from_one_based(i)).collect();
        complete_now(get_head(n, &dv, &mut asker)).unwrap()
    }

    #[test]
    fn two_heads_found() {
        // Part: body {x1, x3}, heads {x2, x4}; probing x1's dependents
        // D = {x2, x3, x4}.
        let mut oracle = part_oracle(4, &[1, 3], &[2, 4]);
        let h = run_get_head(4, &[2, 3, 4], &mut oracle).expect("two heads exist");
        assert!(h == VarId::from_one_based(2) || h == VarId::from_one_based(4));
    }

    #[test]
    fn one_head_returns_none() {
        // Part: body {x1, x2, x3}, single head x4; D (dependents of x1)
        // = {x2, x3, x4} has one head → None (caller treats x1 as head).
        let mut oracle = part_oracle(4, &[1, 2, 3], &[4]);
        assert_eq!(run_get_head(4, &[2, 3, 4], &mut oracle), None);
    }

    #[test]
    fn no_heads_returns_none() {
        // Headless conjunction ∃x1x2x3: D = {x2, x3}, zero heads.
        let q = Query::new(3, [Expr::conj(crate::varset![1, 2, 3])]).unwrap();
        let mut oracle = QueryOracle::new(q);
        assert_eq!(run_get_head(3, &[2, 3], &mut oracle), None);
    }

    #[test]
    fn exhaustive_head_positions() {
        // For every placement of ≥2 heads among 6 dependents, get_head
        // returns an actual head.
        let n = 8u16;
        for mask in 0u32..(1 << 6) {
            let heads_in_d: Vec<u16> = (0..6)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| i + 3)
                .collect();
            if heads_in_d.len() < 2 {
                continue;
            }
            let body: Vec<u16> = std::iter::once(1)
                .chain((3..9).filter(|v| !heads_in_d.contains(v)))
                .collect();
            let mut oracle = part_oracle(n, &body, &heads_in_d);
            let d: Vec<u16> = (3..9).collect();
            let h = run_get_head(n, &d, &mut oracle)
                .unwrap_or_else(|| panic!("no head found for heads {heads_in_d:?}"));
            assert!(
                heads_in_d.contains(&h.one_based()),
                "returned {h} is not a head ({heads_in_d:?})"
            );
        }
    }

    #[test]
    fn question_count_is_logarithmic() {
        // Lemma 3.3: O(lg |D|) matrix questions.
        for size in [8usize, 16, 32] {
            let n = (size + 2) as u16;
            // heads at the last two positions of D.
            let heads = [(size + 1) as u16, (size + 2) as u16];
            let body: Vec<u16> = (1..=size as u16).collect();
            let target = {
                let b = VarSet::from_one_based(body.iter().copied());
                Query::new(
                    n,
                    heads
                        .iter()
                        .map(|&h| Expr::existential_horn(b.clone(), VarId::from_one_based(h))),
                )
                .unwrap()
            };
            let mut counting = CountingOracle::new(QueryOracle::new(target));
            let opts = LearnOptions::default();
            let mut asker = Asker::new(&mut counting, &opts);
            let d: Vec<VarId> = (2..=n).map(VarId::from_one_based).collect();
            let h = complete_now(get_head(n, &d, &mut asker)).unwrap().unwrap();
            assert!(heads.contains(&h.one_based()));
            let q = counting.stats().questions;
            let lg = (d.len() as f64).log2().ceil() as usize;
            assert!(q <= 4 * lg + 4, "|D|={}: {q} questions > 4·lg+4", d.len());
        }
    }
}
