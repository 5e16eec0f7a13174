//! The qhorn query model: AST, semantics, classes, normalization,
//! equivalence and enumeration.

pub mod classes;
pub mod distinguish;
pub mod equiv;
pub(crate) mod eval;
pub mod expr;
pub mod generate;
pub mod normalize;

pub use classes::{ClassError, QueryClass};
pub use eval::FailureReason;
pub use expr::{Expr, ExprError};
pub use normalize::NormalForm;

use crate::var::{VarId, VarSet};
use std::fmt;

/// A qhorn query: a conjunction of quantified (Horn) expressions over the
/// tuples of an object, each with an implicit guarantee clause (§2.1).
///
/// `Query` stores the *syntactic* form the user (or learner) produced;
/// semantic questions — evaluation, dominance, equivalence — are answered
/// by [`Query::eval`] and [`NormalForm`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Query {
    n: u16,
    exprs: Vec<Expr>,
}

#[cfg(feature = "json")]
mod json {
    use super::{Expr, Query};
    use crate::var::{VarId, VarSet};
    use qhorn_json::JsonError;

    // Externally tagged, mirroring a derived enum representation.
    qhorn_json::wire! {
        enum Expr external "expression" {
            UniversalHorn { body: VarSet, head: VarId },
            ExistentialHorn { body: VarSet, head: VarId },
            ExistentialConj { vars: VarSet },
        }
    }

    qhorn_json::wire! {
        struct Query { n: u16, exprs: Vec<Expr> } check validated
    }

    fn validated(q: Query) -> Result<Query, JsonError> {
        Query::new(q.n, q.exprs).map_err(|e| JsonError::msg(e.to_string()))
    }
}

impl Query {
    /// Builds a query over `n` variables; validates each expression.
    pub fn new<I: IntoIterator<Item = Expr>>(n: u16, exprs: I) -> Result<Self, ExprError> {
        let exprs: Vec<Expr> = exprs.into_iter().collect();
        for e in &exprs {
            e.validate(n)?;
        }
        Ok(Query { n, exprs })
    }

    /// The query over `n` variables with no expressions — every object
    /// (including the empty one) is an answer.
    #[must_use]
    pub fn empty(n: u16) -> Self {
        Query {
            n,
            exprs: Vec::new(),
        }
    }

    /// Number of Boolean variables (propositions).
    #[must_use]
    pub fn arity(&self) -> u16 {
        self.n
    }

    /// The expressions, in insertion order.
    #[must_use]
    pub fn exprs(&self) -> &[Expr] {
        &self.exprs
    }

    /// Query size `k` (Def. 2.5): the number of expressions, not counting
    /// guarantee clauses (which are implicit here).
    #[must_use]
    pub fn size(&self) -> usize {
        self.exprs.len()
    }

    /// Adds an expression.
    pub fn push(&mut self, e: Expr) -> Result<(), ExprError> {
        e.validate(self.n)?;
        self.exprs.push(e);
        Ok(())
    }

    /// Iterates the universal Horn expressions as `(body, head)` pairs.
    pub fn universal_horns(&self) -> impl Iterator<Item = (&VarSet, VarId)> + '_ {
        self.exprs.iter().filter_map(|e| match e {
            Expr::UniversalHorn { body, head } => Some((body, *head)),
            _ => None,
        })
    }

    /// Iterates the existential expressions as conjunction variable sets
    /// (existential Horn expressions contribute `body ∪ {head}`, which is
    /// semantically equivalent given the guarantee clause).
    pub fn existential_conjunctions(&self) -> impl Iterator<Item = VarSet> + '_ {
        self.exprs.iter().filter_map(|e| match e {
            Expr::ExistentialHorn { body, head } => Some(body.with(*head)),
            Expr::ExistentialConj { vars } => Some(vars.clone()),
            Expr::UniversalHorn { .. } => None,
        })
    }

    /// The guarantee clauses of all expressions (universal and existential),
    /// each as an existential conjunction variable set.
    pub fn guarantee_clauses(&self) -> impl Iterator<Item = VarSet> + '_ {
        self.exprs.iter().map(Expr::guarantee_clause)
    }

    /// The set of universal head variables.
    #[must_use]
    pub fn universal_heads(&self) -> VarSet {
        self.universal_horns().map(|(_, h)| h).collect()
    }

    /// The set of variables appearing in some universal body.
    #[must_use]
    pub fn universal_body_vars(&self) -> VarSet {
        self.universal_horns().flat_map(|(b, _)| b.iter()).collect()
    }

    /// All variables mentioned by some expression.
    #[must_use]
    pub fn mentioned_vars(&self) -> VarSet {
        self.exprs
            .iter()
            .flat_map(|e| e.participating_vars().to_vec())
            .collect()
    }

    /// `true` iff every variable `x1..xn` appears in some expression.
    ///
    /// The learning algorithms of §3 assume complete targets (see
    /// DESIGN.md §1, assumption 3).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.mentioned_vars() == VarSet::full(self.n)
    }

    /// The causal density θ (Def. 2.6): the maximum, over head variables
    /// `h`, of the number of distinct **non-dominated** universal Horn
    /// expressions with head `h`.
    #[must_use]
    pub fn causal_density(&self) -> usize {
        let nf = self.normal_form();
        let mut best = 0usize;
        let heads: Vec<VarId> = nf.universals().iter().map(|(_, h)| *h).collect();
        for h in heads {
            let c = nf.universals().iter().filter(|(_, hh)| *hh == h).count();
            best = best.max(c);
        }
        best
    }

    /// Computes the query's normal form (dominant expressions, closed
    /// conjunctions — §2.1.1, §4.1). Cached nowhere; call sites that need it
    /// repeatedly should hold on to the result.
    #[must_use]
    pub fn normal_form(&self) -> NormalForm {
        NormalForm::of(self)
    }
}

impl fmt::Display for Query {
    /// Renders in the paper's shorthand: expressions separated by spaces,
    /// guarantee clauses implicit (e.g. `∀x1x2 → x3 ∀x4 ∃x5`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.exprs.is_empty() {
            return write!(f, "⊤");
        }
        for (i, e) in self.exprs.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::varset;

    fn v(i: u16) -> VarId {
        VarId::from_one_based(i)
    }

    /// The paper's running example from §3.2.1/§4.2:
    /// `∀x1x4→x5 ∀x3x4→x5 ∀x1x2→x6 ∃x1x2x3 ∃x2x3x4 ∃x1x2x5 ∃x2x3x5x6`.
    pub(crate) fn paper_example() -> Query {
        Query::new(
            6,
            [
                Expr::universal(varset![1, 4], v(5)),
                Expr::universal(varset![3, 4], v(5)),
                Expr::universal(varset![1, 2], v(6)),
                Expr::conj(varset![1, 2, 3]),
                Expr::conj(varset![2, 3, 4]),
                Expr::conj(varset![1, 2, 5]),
                Expr::conj(varset![2, 3, 5, 6]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn size_and_arity() {
        let q = paper_example();
        assert_eq!(q.arity(), 6);
        assert_eq!(q.size(), 7);
    }

    #[test]
    fn head_and_body_sets() {
        let q = paper_example();
        assert_eq!(q.universal_heads(), varset![5, 6]);
        assert_eq!(q.universal_body_vars(), varset![1, 2, 3, 4]);
    }

    #[test]
    fn completeness() {
        let q = paper_example();
        assert!(q.is_complete());
        let partial = Query::new(3, [Expr::conj(varset![1])]).unwrap();
        assert!(!partial.is_complete());
    }

    #[test]
    fn causal_density_of_paper_example_is_two() {
        // x5 has two non-dominated bodies {x1,x4} and {x3,x4}; x6 has one.
        assert_eq!(paper_example().causal_density(), 2);
    }

    #[test]
    fn causal_density_respects_dominance() {
        // ∀x1 → x3 dominates ∀x1x2 → x3 (Rule R2) so θ = 1.
        let q = Query::new(
            3,
            [
                Expr::universal(varset![1], v(3)),
                Expr::universal(varset![1, 2], v(3)),
            ],
        )
        .unwrap();
        assert_eq!(q.causal_density(), 1);
    }

    #[test]
    fn display_shorthand() {
        let q = Query::new(
            5,
            [
                Expr::universal(varset![1, 2], v(3)),
                Expr::universal_bodyless(v(4)),
                Expr::conj(varset![5]),
            ],
        )
        .unwrap();
        assert_eq!(q.to_string(), "∀x1x2 → x3  ∀x4  ∃x5");
        assert_eq!(Query::empty(3).to_string(), "⊤");
    }

    #[test]
    fn push_validates() {
        let mut q = Query::empty(2);
        assert!(q.push(Expr::conj(varset![3])).is_err());
        assert!(q.push(Expr::conj(varset![2])).is_ok());
        assert_eq!(q.size(), 1);
    }

    #[test]
    fn existential_horn_contributes_closed_conjunction() {
        let q = Query::new(3, [Expr::existential_horn(varset![1, 2], v(3))]).unwrap();
        let conjs: Vec<VarSet> = q.existential_conjunctions().collect();
        assert_eq!(conjs, vec![varset![1, 2, 3]]);
    }
}
