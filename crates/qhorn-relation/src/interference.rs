//! Proposition interference (§2, assumption ii).
//!
//! The Boolean abstraction requires that "the true/false assignment to one
//! proposition does not interfere with the true/false assignments to other
//! propositions". The paper's example: `pm: origin = Madagascar` and
//! `pb: origin = Belgium` interfere — `pm → ¬pb`.
//!
//! This module decides, per attribute, whether a conjunction of signed
//! constraints is satisfiable, and uses that to check *pairwise
//! independence*: all four truth combinations of every proposition pair
//! must be realizable by some attribute value. (Pairwise independence does
//! not imply joint satisfiability of arbitrary patterns; the synthesizer
//! reports residual conflicts per pattern — see [`crate::synthesize`].)

use crate::proposition::{Cmp, Proposition};
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A signed constraint: a proposition required to be `true` or `false`.
#[derive(Clone, Debug)]
pub struct SignedProp<'a> {
    /// The proposition.
    pub prop: &'a Proposition,
    /// Required truth value.
    pub positive: bool,
}

/// A satisfiability domain for one attribute, accumulating signed
/// constraints.
#[derive(Clone, Debug, Default)]
pub struct AttrConstraints {
    /// Required exact value, if any (from a positive `=` or a negative
    /// `≠`).
    required: Option<Value>,
    /// Excluded exact values (negative `=` / positive `≠`).
    excluded: BTreeSet<Value>,
    /// Integer lower bound (inclusive).
    lo: i64,
    /// Integer upper bound (inclusive).
    hi: i64,
    /// Whether an outright contradiction was detected.
    contradiction: bool,
}

impl AttrConstraints {
    /// Fresh, unconstrained domain.
    #[must_use]
    pub fn new() -> Self {
        AttrConstraints {
            required: None,
            excluded: BTreeSet::new(),
            lo: i64::MIN,
            hi: i64::MAX,
            contradiction: false,
        }
    }

    /// Adds one signed constraint.
    pub fn add(&mut self, cmp: Cmp, rhs: &Value, positive: bool) {
        // Normalize negative orderings to their complements.
        let (cmp, positive) = match (cmp, positive) {
            (Cmp::Lt, false) => (Cmp::Ge, true),
            (Cmp::Le, false) => (Cmp::Gt, true),
            (Cmp::Gt, false) => (Cmp::Le, true),
            (Cmp::Ge, false) => (Cmp::Lt, true),
            (Cmp::Ne, p) => (Cmp::Eq, !p),
            other => other,
        };
        match (cmp, rhs) {
            (Cmp::Eq, v) if positive => self.require(v.clone()),
            (Cmp::Eq, v) => {
                self.excluded.insert(v.clone());
            }
            (Cmp::Lt, Value::Int(c)) => self.hi = self.hi.min(c.saturating_sub(1)),
            (Cmp::Le, Value::Int(c)) => self.hi = self.hi.min(*c),
            (Cmp::Gt, Value::Int(c)) => self.lo = self.lo.max(c.saturating_add(1)),
            (Cmp::Ge, Value::Int(c)) => self.lo = self.lo.max(*c),
            _ => self.contradiction = true, // ordering on non-int
        }
    }

    fn require(&mut self, v: Value) {
        match &self.required {
            Some(r) if *r != v => self.contradiction = true,
            _ => self.required = Some(v),
        }
    }

    /// Picks a value satisfying every accumulated constraint, or `None` if
    /// unsatisfiable. `hints` are tried first for unconstrained slack.
    #[must_use]
    pub fn solve(&self, hints: &[Value]) -> Option<Value> {
        if self.contradiction {
            return None;
        }
        if let Some(r) = &self.required {
            let ok = !self.excluded.contains(r)
                && match r {
                    Value::Int(i) => (self.lo..=self.hi).contains(i),
                    _ => self.lo == i64::MIN && self.hi == i64::MAX,
                };
            return ok.then(|| r.clone());
        }
        // No required point: try hints, then synthesize.
        for h in hints {
            let ok = !self.excluded.contains(h)
                && match h {
                    Value::Int(i) => (self.lo..=self.hi).contains(i),
                    _ => true,
                };
            if ok {
                return Some(h.clone());
            }
        }
        // Synthesize by the type of whatever constraints we saw.
        if self.lo != i64::MIN
            || self.hi != i64::MAX
            || matches!(self.excluded.iter().next(), Some(Value::Int(_)))
        {
            // Integer domain: sweep up from a clamped zero, then down —
            // |excluded|+1 probes per direction always suffice.
            if self.lo > self.hi {
                return None;
            }
            let start = 0i64.clamp(self.lo, self.hi);
            let budget = self.excluded.len() as i64;
            for candidate in start..=self.hi.min(start.saturating_add(budget)) {
                if !self.excluded.contains(&Value::Int(candidate)) {
                    return Some(Value::Int(candidate));
                }
            }
            if start > self.lo {
                for candidate in (self.lo.max(start.saturating_sub(budget + 1))..start).rev() {
                    if !self.excluded.contains(&Value::Int(candidate)) {
                        return Some(Value::Int(candidate));
                    }
                }
            }
            return None;
        }
        if matches!(self.excluded.iter().next(), Some(Value::Bool(_))) {
            for b in [false, true] {
                if !self.excluded.contains(&Value::Bool(b)) {
                    return Some(Value::Bool(b));
                }
            }
            return None;
        }
        if matches!(self.excluded.iter().next(), Some(Value::Str(_))) {
            for k in 0.. {
                let v = Value::Str(format!("synthetic_{k}"));
                if !self.excluded.contains(&v) {
                    return Some(v);
                }
            }
        }
        // Entirely unconstrained and no hints: caller decides the default.
        None
    }
}

/// A detected interference between two propositions: a truth combination
/// no attribute value realizes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Interference {
    /// Name of the first proposition.
    pub a: String,
    /// Name of the second proposition.
    pub b: String,
    /// The unrealizable combination (value required for a, value for b).
    pub combination: (bool, bool),
}

impl fmt::Display for Interference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (va, vb) = self.combination;
        write!(
            f,
            "propositions {} and {} interfere: no value makes {}={va} and {}={vb}",
            self.a, self.b, self.a, self.b
        )
    }
}

/// Checks pairwise independence of propositions **on the same attribute**
/// (propositions on different attributes never interfere). Returns every
/// unrealizable (pair, combination).
#[must_use]
pub fn check_pairwise_independence(props: &[Proposition]) -> Vec<Interference> {
    let mut out = Vec::new();
    for (i, p) in props.iter().enumerate() {
        for q in props.iter().skip(i + 1) {
            if p.attr != q.attr {
                continue;
            }
            for (va, vb) in [(true, true), (true, false), (false, true), (false, false)] {
                let mut c = AttrConstraints::new();
                c.add(p.cmp, &p.rhs, va);
                c.add(q.cmp, &q.rhs, vb);
                if c.solve(&[]).is_none() {
                    out.push(Interference {
                        a: p.name.clone(),
                        b: q.name.clone(),
                        combination: (va, vb),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin_eq(name: &str, v: &str) -> Proposition {
        Proposition::eq(name, "origin", Value::str(v))
    }

    #[test]
    fn paper_example_madagascar_belgium() {
        // pm and pb interfere: both true is impossible.
        let props = vec![origin_eq("pm", "Madagascar"), origin_eq("pb", "Belgium")];
        let found = check_pairwise_independence(&props);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].combination, (true, true));
        assert!(found[0].to_string().contains("pm"));
    }

    #[test]
    fn different_attributes_never_interfere() {
        let props = vec![
            Proposition::is_true("p1", "isDark"),
            origin_eq("pm", "Madagascar"),
        ];
        assert!(check_pairwise_independence(&props).is_empty());
    }

    #[test]
    fn bool_negation_pair_fully_interferes() {
        // p: isDark = true, q: isDark = false — TT and FF impossible.
        let props = vec![
            Proposition::is_true("p", "isDark"),
            Proposition::eq("q", "isDark", Value::Bool(false)),
        ];
        let found = check_pairwise_independence(&props);
        let combos: BTreeSet<(bool, bool)> = found.iter().map(|i| i.combination).collect();
        assert!(combos.contains(&(true, true)));
        assert!(combos.contains(&(false, false)));
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn nested_integer_ranges_interfere_one_way() {
        // p: cocoa ≥ 70, q: cocoa ≥ 50: p ∧ ¬q impossible, others fine.
        let p = Proposition::new("p", "cocoa", Cmp::Ge, Value::Int(70));
        let q = Proposition::new("q", "cocoa", Cmp::Ge, Value::Int(50));
        let found = check_pairwise_independence(&[p, q]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].combination, (true, false));
    }

    #[test]
    fn disjoint_ranges_are_independent_except_tt() {
        let p = Proposition::new("p", "cocoa", Cmp::Lt, Value::Int(10));
        let q = Proposition::new("q", "cocoa", Cmp::Gt, Value::Int(90));
        let found = check_pairwise_independence(&[p, q]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].combination, (true, true));
    }

    #[test]
    fn independent_propositions_pass() {
        // Equalities on a string attribute with ≥3 possible values: only
        // TT conflicts... unless attributes differ. Same attribute, Ne:
        let p = origin_eq("pm", "Madagascar");
        let q = Proposition::new("pn", "origin", Cmp::Ne, Value::str("Sweden"));
        // pm=true → origin=Madagascar → pn=true (≠ Sweden): combination
        // (true, false) is impossible.
        let found = check_pairwise_independence(&[p, q]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].combination, (true, false));
    }

    #[test]
    fn solve_respects_bounds_and_exclusions() {
        let mut c = AttrConstraints::new();
        c.add(Cmp::Ge, &Value::Int(5), true);
        c.add(Cmp::Le, &Value::Int(7), true);
        c.add(Cmp::Eq, &Value::Int(5), false);
        c.add(Cmp::Eq, &Value::Int(6), false);
        assert_eq!(c.solve(&[]), Some(Value::Int(7)));
        c.add(Cmp::Eq, &Value::Int(7), false);
        assert_eq!(c.solve(&[]), None);
    }

    #[test]
    fn solve_prefers_hints() {
        let mut c = AttrConstraints::new();
        c.add(Cmp::Eq, &Value::str("Belgium"), false);
        let hint = vec![Value::str("Sweden")];
        assert_eq!(c.solve(&hint), Some(Value::str("Sweden")));
        // Without hints, a synthetic string is invented.
        let v = c.solve(&[]).unwrap();
        assert!(matches!(v, Value::Str(s) if s.starts_with("synthetic_")));
    }

    #[test]
    fn required_point_checked_against_everything() {
        let mut c = AttrConstraints::new();
        c.add(Cmp::Eq, &Value::Int(5), true);
        c.add(Cmp::Ge, &Value::Int(6), true);
        assert_eq!(c.solve(&[]), None, "required 5 but lo is 6");
    }
}
