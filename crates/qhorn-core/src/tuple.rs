//! Boolean tuples — true/false assignments to the `n` variables.
//!
//! A [`BoolTuple`] is one row of the Boolean abstraction of an embedded
//! relation (one "chocolate" in the paper's running example, Fig. 1). The
//! paper writes tuples as bitstrings with `x1` leftmost (`100101` means
//! `x1, x4, x6` true); [`BoolTuple::from_bits`] and `Display` follow the
//! same convention.

use crate::var::{VarId, VarSet};
use std::fmt;

/// A true/false assignment to variables `x1..xn`.
///
/// The arity `n` is part of the value: tuples of different arity are never
/// equal and cannot be mixed inside one [`crate::Obj`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoolTuple {
    n: u16,
    trues: VarSet,
}

#[cfg(feature = "json")]
mod json {
    use super::BoolTuple;
    use crate::var::VarSet;
    use qhorn_json::JsonError;

    qhorn_json::wire! {
        struct BoolTuple { n: u16, trues: VarSet } check in_range
    }

    fn in_range(t: BoolTuple) -> Result<BoolTuple, JsonError> {
        if let Some(max) = t.trues.iter().last() {
            if max.index() >= t.n as usize {
                return Err(JsonError::msg(format!(
                    "variable {max} out of range for arity {}",
                    t.n
                )));
            }
        }
        Ok(t)
    }
}

impl BoolTuple {
    /// The all-true tuple `1^n`.
    #[must_use]
    pub fn all_true(n: u16) -> Self {
        BoolTuple {
            n,
            trues: VarSet::full(n),
        }
    }

    /// The all-false tuple `0^n`.
    #[must_use]
    pub fn all_false(n: u16) -> Self {
        BoolTuple {
            n,
            trues: VarSet::new(),
        }
    }

    /// A tuple over `n` variables whose true-set is exactly `trues`.
    ///
    /// # Panics
    /// Panics if `trues` mentions a variable `>= n`.
    #[must_use]
    pub fn from_true_set(n: u16, trues: VarSet) -> Self {
        if let Some(max) = trues.iter().last() {
            assert!(
                max.index() < n as usize,
                "variable {max} out of range for arity {n}"
            );
        }
        BoolTuple { n, trues }
    }

    /// Parses a bitstring in the paper's convention: leftmost character is
    /// `x1`. Example: `BoolTuple::from_bits("100101")` has `x1, x4, x6` true.
    ///
    /// # Panics
    /// Panics on characters other than `0`/`1`.
    #[must_use]
    pub fn from_bits(bits: &str) -> Self {
        let mut trues = VarSet::new();
        let mut n = 0u16;
        for (i, c) in bits.chars().enumerate() {
            match c {
                '1' => {
                    trues.insert(VarId(i as u16));
                }
                '0' => {}
                other => panic!("invalid bit character {other:?} in {bits:?}"),
            }
            n = (i + 1) as u16;
        }
        BoolTuple { n, trues }
    }

    /// Number of variables.
    #[must_use]
    pub fn arity(&self) -> u16 {
        self.n
    }

    /// The set of variables assigned true.
    #[must_use]
    pub fn true_set(&self) -> &VarSet {
        &self.trues
    }

    /// The set of variables assigned false.
    #[must_use]
    pub fn false_set(&self) -> VarSet {
        VarSet::full(self.n).difference(&self.trues)
    }

    /// Value of one variable.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn get(&self, v: VarId) -> bool {
        assert!(
            v.index() < self.n as usize,
            "{v} out of range for arity {}",
            self.n
        );
        self.trues.contains(v)
    }

    /// Functional update: a copy of the tuple with `v` set to `value`.
    #[must_use]
    pub fn with(&self, v: VarId, value: bool) -> Self {
        assert!(
            v.index() < self.n as usize,
            "{v} out of range for arity {}",
            self.n
        );
        let trues = if value {
            self.trues.with(v)
        } else {
            self.trues.without(v)
        };
        BoolTuple { n: self.n, trues }
    }

    /// Functional update: a copy with every variable in `vs` set to `value`.
    #[must_use]
    pub fn with_all(&self, vs: &VarSet, value: bool) -> Self {
        if let Some(max) = vs.iter().last() {
            assert!(max.index() < self.n as usize, "{max} out of range");
        }
        let trues = if value {
            self.trues.union(vs)
        } else {
            self.trues.difference(vs)
        };
        BoolTuple { n: self.n, trues }
    }

    /// `true` iff all variables of `vs` are true in this tuple.
    #[must_use]
    pub fn satisfies_all(&self, vs: &VarSet) -> bool {
        vs.is_subset(&self.trues)
    }

    /// Number of true variables.
    #[must_use]
    pub fn count_true(&self) -> usize {
        self.trues.len()
    }

    /// Lattice level of the tuple: the number of *false* variables (§3.2,
    /// Fig. 4 — level 0 is the all-true top).
    #[must_use]
    pub fn level(&self) -> usize {
        self.n as usize - self.trues.len()
    }

    /// `true` iff this tuple is in the **upset** of `other` (every variable
    /// true in `other` is true here; `self ⊇ other` on true-sets). A tuple
    /// is in its own upset.
    #[must_use]
    pub fn in_upset_of(&self, other: &BoolTuple) -> bool {
        self.n == other.n && other.trues.is_subset(&self.trues)
    }

    /// `true` iff this tuple is in the **downset** of `other`.
    #[must_use]
    pub fn in_downset_of(&self, other: &BoolTuple) -> bool {
        self.n == other.n && self.trues.is_subset(&other.trues)
    }

    /// `true` iff neither tuple is in the other's upset (incomparable in the
    /// lattice order).
    #[must_use]
    pub fn incomparable(&self, other: &BoolTuple) -> bool {
        !self.in_upset_of(other) && !self.in_downset_of(other)
    }

    /// The children of this tuple in the Boolean lattice: each child sets
    /// exactly one currently-true variable to false (out-degree `n − level`,
    /// Fig. 4).
    #[must_use]
    pub fn children(&self) -> Vec<BoolTuple> {
        self.trues.iter().map(|v| self.with(v, false)).collect()
    }

    /// The parents of this tuple in the Boolean lattice: each parent sets
    /// exactly one currently-false variable to true (in-degree `level`).
    #[must_use]
    pub fn parents(&self) -> Vec<BoolTuple> {
        self.false_set()
            .iter()
            .map(|v| self.with(v, true))
            .collect()
    }

    /// Renders the tuple as the paper's bitstring (x1 leftmost).
    #[must_use]
    pub fn to_bits(&self) -> String {
        (0..self.n)
            .map(|i| {
                if self.trues.contains(VarId(i)) {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    }
}

impl fmt::Display for BoolTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_bits())
    }
}

impl fmt::Debug for BoolTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varset;

    #[test]
    fn bits_round_trip_matches_paper_convention() {
        let t = BoolTuple::from_bits("100101");
        assert_eq!(t.arity(), 6);
        assert_eq!(t.true_set(), &varset![1, 4, 6]);
        assert_eq!(t.to_bits(), "100101");
        assert_eq!(t.to_string(), "100101");
    }

    #[test]
    fn all_true_all_false() {
        assert_eq!(BoolTuple::all_true(4).to_bits(), "1111");
        assert_eq!(BoolTuple::all_false(4).to_bits(), "0000");
        assert_eq!(BoolTuple::all_true(4).level(), 0);
        assert_eq!(BoolTuple::all_false(4).level(), 4);
    }

    #[test]
    fn get_with() {
        let t = BoolTuple::from_bits("0110");
        assert!(!t.get(VarId(0)));
        assert!(t.get(VarId(1)));
        assert_eq!(t.with(VarId(0), true).to_bits(), "1110");
        assert_eq!(t.with(VarId(1), false).to_bits(), "0010");
        assert_eq!(t.to_bits(), "0110", "with() is functional");
    }

    #[test]
    fn with_all_sets_group() {
        let t = BoolTuple::all_true(5);
        let u = t.with_all(&varset![2, 4], false);
        assert_eq!(u.to_bits(), "10101");
        assert_eq!(u.with_all(&varset![2, 4], true), t);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let _ = BoolTuple::all_true(3).get(VarId(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_true_set_range_checked() {
        let _ = BoolTuple::from_true_set(2, varset![3]);
    }

    #[test]
    fn upset_downset_incomparable() {
        let top = BoolTuple::from_bits("1111");
        let t = BoolTuple::from_bits("0011");
        let u = BoolTuple::from_bits("0110");
        assert!(top.in_upset_of(&t));
        assert!(t.in_downset_of(&top));
        assert!(t.in_upset_of(&t), "reflexive");
        assert!(t.incomparable(&u));
        assert!(!t.incomparable(&top));
    }

    #[test]
    fn children_parents_degrees_match_fig4() {
        // Fig. 4: at level l, out-degree n−l and in-degree l.
        let t = BoolTuple::from_bits("0011");
        assert_eq!(t.level(), 2);
        assert_eq!(t.children().len(), 2);
        assert_eq!(t.parents().len(), 2);
        let kids: Vec<String> = t.children().iter().map(|c| c.to_bits()).collect();
        assert!(kids.contains(&"0001".to_string()));
        assert!(kids.contains(&"0010".to_string()));
        let parents: Vec<String> = t.parents().iter().map(|c| c.to_bits()).collect();
        assert!(parents.contains(&"1011".to_string()));
        assert!(parents.contains(&"0111".to_string()));
    }

    #[test]
    fn satisfies_all() {
        let t = BoolTuple::from_bits("1101");
        assert!(t.satisfies_all(&varset![1, 2]));
        assert!(t.satisfies_all(&VarSet::new()));
        assert!(!t.satisfies_all(&varset![1, 3]));
    }

    #[test]
    fn arity_is_part_of_identity() {
        let a = BoolTuple::all_true(3);
        let b = BoolTuple::all_true(4);
        assert_ne!(a, b);
    }
}
