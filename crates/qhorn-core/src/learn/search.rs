//! `Find` and `FindAll` (Algorithms 2 and 3): binary / group-testing search
//! over variables using a "does this subset contain a hit?" predicate
//! derived from membership questions.
//!
//! Both require the predicate to be a *coverage* test: `test(D)` is true
//! iff `D` contains at least one hit. This is exactly what universal
//! dependence questions (Def. 3.1: hits = body variables) and existential
//! independence questions (Def. 3.2: hits = dependents) provide.
//!
//! `find_one` asks `1 + ⌈lg |D|⌉` questions; `find_all` asks
//! `O(|hits| · lg |D|)` questions — the counts behind Lemma 3.2.
//!
//! The predicate is a [`Probe`]: a synchronous builder of the question
//! about a subset plus the label that means "hit", so the searches can
//! await each answer through the learner's [`Asker`].

use super::{Asker, LearnError};
use crate::object::{Obj, Response};
use crate::oracle::MembershipOracle;
use crate::var::VarId;

/// A coverage test asked as membership questions: `question(D)` is the
/// question about subset `D`, and `D` contains a hit iff the oracle's
/// label for it is `hit`.
pub(crate) struct Probe<F: Fn(&[VarId]) -> Obj> {
    pub question: F,
    pub hit: Response,
}

impl<F: Fn(&[VarId]) -> Obj> Probe<F> {
    async fn test<O: MembershipOracle + ?Sized>(
        &self,
        d: &[VarId],
        asker: &mut Asker<'_, O>,
    ) -> Result<bool, LearnError> {
        Ok(asker.ask(&(self.question)(d)).await? == self.hit)
    }
}

/// Algorithm 2 (`Find`): returns one hit within `vars`, or `None` if
/// `vars` contains no hit. Asks about `vars` first, then halves.
pub(crate) async fn find_one<O: MembershipOracle + ?Sized, F: Fn(&[VarId]) -> Obj>(
    vars: &[VarId],
    probe: &Probe<F>,
    asker: &mut Asker<'_, O>,
) -> Result<Option<VarId>, LearnError> {
    if vars.is_empty() || !probe.test(vars, asker).await? {
        return Ok(None);
    }
    let mut slice = vars;
    while slice.len() > 1 {
        let (a, b) = slice.split_at(slice.len() / 2);
        // A hit is known to be in `slice`; if not in `a` it must be in `b`.
        slice = if probe.test(a, asker).await? { a } else { b };
    }
    Ok(Some(slice[0]))
}

/// Algorithm 3 (`FindAll`): returns every hit within `vars`, in input
/// order, via group testing.
pub(crate) async fn find_all<O: MembershipOracle + ?Sized, F: Fn(&[VarId]) -> Obj>(
    vars: &[VarId],
    probe: &Probe<F>,
    asker: &mut Asker<'_, O>,
) -> Result<Vec<VarId>, LearnError> {
    if vars.is_empty() || !probe.test(vars, asker).await? {
        return Ok(Vec::new());
    }
    if vars.len() == 1 {
        return Ok(vec![vars[0]]);
    }
    let (a, b) = vars.split_at(vars.len() / 2);
    let mut hits = Box::pin(find_all(a, probe, asker)).await?;
    hits.extend(Box::pin(find_all(b, probe, asker)).await?);
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::{complete_now, LearnOptions};
    use crate::oracle::FnOracle;
    use crate::tuple::BoolTuple;
    use crate::var::VarSet;

    const N: u16 = 64;

    fn vars(n: u16) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    /// The question about `D` is the single tuple whose true set is `D`.
    fn probe() -> Probe<impl Fn(&[VarId]) -> Obj> {
        Probe {
            question: |d: &[VarId]| {
                let set: VarSet = d.iter().copied().collect();
                Obj::new(N, [BoolTuple::from_true_set(N, set)])
            },
            hit: Response::Answer,
        }
    }

    /// Labels a subset question an answer iff it holds one of `hits`;
    /// returns the result and the number of questions asked.
    fn search<T>(
        hits: &[u16],
        budget: Option<usize>,
        run: impl FnOnce(
            &mut Asker<'_, FnOracle<Box<dyn FnMut(&Obj) -> Response + '_>>>,
        ) -> Result<T, LearnError>,
    ) -> (Result<T, LearnError>, usize) {
        let mut oracle = FnOracle(Box::new(|q: &Obj| {
            let t = &q.tuples()[0];
            Response::from_bool(hits.iter().any(|&h| t.get(VarId(h))))
        }) as Box<dyn FnMut(&Obj) -> Response + '_>);
        let opts = LearnOptions {
            max_questions: budget,
            ..Default::default()
        };
        let mut asker = Asker::new(&mut oracle, &opts);
        let out = run(&mut asker);
        (out, asker.into_stats().questions)
    }

    #[test]
    fn find_one_locates_a_hit() {
        let (found, count) = search(&[11], None, |a| {
            complete_now(find_one(&vars(16), &probe(), a))
        });
        assert_eq!(found.unwrap(), Some(VarId(11)));
        assert!(count <= 1 + 4, "O(lg n) questions, got {count}");
    }

    #[test]
    fn find_one_none_when_no_hit() {
        let (found, count) = search(&[], None, |a| {
            complete_now(find_one(&vars(16), &probe(), a))
        });
        assert_eq!(found.unwrap(), None);
        assert_eq!(count, 1, "one question suffices to rule everything out");
    }

    #[test]
    fn find_one_empty_domain_asks_nothing() {
        let (found, count) = search(&[3], None, |a| complete_now(find_one(&[], &probe(), a)));
        assert_eq!(found.unwrap(), None);
        assert_eq!(count, 0);
    }

    #[test]
    fn find_all_collects_every_hit() {
        let hits = [2u16, 7, 8, 15];
        let (found, count) = search(&hits, None, |a| {
            complete_now(find_all(&vars(16), &probe(), a))
        });
        assert_eq!(
            found.unwrap(),
            vec![VarId(2), VarId(7), VarId(8), VarId(15)]
        );
        // O(|hits| lg n): generous constant.
        assert!(count <= 4 * 2 * 5, "too many questions: {count}");
    }

    #[test]
    fn find_all_no_hits_single_question() {
        let (found, count) = search(&[], None, |a| {
            complete_now(find_all(&vars(64), &probe(), a))
        });
        assert!(found.unwrap().is_empty());
        assert_eq!(count, 1);
    }

    #[test]
    fn find_all_all_hits() {
        let all: Vec<u16> = (0..8).collect();
        let (found, _) = search(&all, None, |a| {
            complete_now(find_all(&vars(8), &probe(), a))
        });
        assert_eq!(found.unwrap().len(), 8);
    }

    #[test]
    fn errors_propagate() {
        let (one, _) = search(&[1], Some(0), |a| {
            complete_now(find_one(&vars(4), &probe(), a))
        });
        assert!(one.is_err());
        let (all, _) = search(&[1], Some(0), |a| {
            complete_now(find_all(&vars(4), &probe(), a))
        });
        assert!(all.is_err());
    }

    #[test]
    fn find_one_exhaustive_positions() {
        // The search must find the hit wherever it is, for every size.
        for n in 1..=20u16 {
            for hit in 0..n {
                let (found, _) = search(&[hit], None, |a| {
                    complete_now(find_one(&vars(n), &probe(), a))
                });
                assert_eq!(found.unwrap(), Some(VarId(hit)), "n={n} hit={hit}");
            }
        }
    }
}
