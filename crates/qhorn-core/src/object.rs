//! Objects — sets of Boolean tuples; membership questions.
//!
//! An [`Obj`] is one element of the nested relation in the Boolean domain
//! (a "box of chocolates", §2). Because queries quantify over *sets* of
//! tuples, duplicate tuples never change a query's value; `Obj` therefore
//! stores a sorted, deduplicated tuple list and two objects are equal iff
//! they contain the same tuple set.
//!
//! A **membership question** (§2.1.2) *is* an object: the learner shows it
//! to the user, who labels it an answer or a non-answer. We use `Obj` for
//! both roles.

use crate::tuple::BoolTuple;
use std::fmt;

/// A set of Boolean tuples over a common arity `n`.
///
/// May be empty (the paper's footnote 1 permits empty-set questions when
/// guarantee clauses are relaxed).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Obj {
    n: u16,
    tuples: Vec<BoolTuple>,
}

#[cfg(feature = "json")]
mod json {
    use super::{Obj, Response};
    use crate::tuple::BoolTuple;
    use qhorn_json::{FromJson, Json, JsonError, ToJson};

    qhorn_json::wire! {
        struct Obj { n: u16, tuples: Vec<BoolTuple> } check canonical
    }

    fn canonical(o: Obj) -> Result<Obj, JsonError> {
        for t in &o.tuples {
            if t.arity() != o.n {
                return Err(JsonError::msg(format!(
                    "tuple arity {} inside object of arity {}",
                    t.arity(),
                    o.n
                )));
            }
        }
        // `Obj::new` re-sorts and deduplicates, keeping equality
        // structural after a round trip.
        Ok(Obj::new(o.n, o.tuples))
    }

    impl ToJson for Response {
        fn to_json(&self) -> Json {
            Json::Str(
                match self {
                    Response::Answer => "Answer",
                    Response::NonAnswer => "NonAnswer",
                }
                .to_string(),
            )
        }

        fn write_json(&self, out: &mut String) {
            out.push_str(match self {
                Response::Answer => "\"Answer\"",
                Response::NonAnswer => "\"NonAnswer\"",
            });
        }
    }

    impl FromJson for Response {
        fn from_json(j: &Json) -> Result<Self, JsonError> {
            match j.as_str() {
                Some("Answer") => Ok(Response::Answer),
                Some("NonAnswer") => Ok(Response::NonAnswer),
                _ => Err(JsonError::msg("expected \"Answer\" or \"NonAnswer\"")),
            }
        }
    }
}

impl Obj {
    /// Builds an object from tuples, sorting and deduplicating.
    ///
    /// # Panics
    /// Panics if any tuple's arity differs from `n`.
    #[must_use]
    pub fn new<I: IntoIterator<Item = BoolTuple>>(n: u16, tuples: I) -> Self {
        let mut ts: Vec<BoolTuple> = tuples.into_iter().collect();
        for t in &ts {
            assert_eq!(
                t.arity(),
                n,
                "tuple {t} has arity {} but object arity is {n}",
                t.arity()
            );
        }
        ts.sort_unstable();
        ts.dedup();
        Obj { n, tuples: ts }
    }

    /// The empty object over `n` variables.
    #[must_use]
    pub fn empty(n: u16) -> Self {
        Obj {
            n,
            tuples: Vec::new(),
        }
    }

    /// Parses a whitespace/comma-separated list of bitstrings, e.g.
    /// `Obj::from_bits("111011, 110111")`.
    ///
    /// # Panics
    /// Panics on malformed bitstrings or mixed arities.
    #[must_use]
    pub fn from_bits(s: &str) -> Self {
        let tuples: Vec<BoolTuple> = s
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|p| !p.is_empty())
            .map(BoolTuple::from_bits)
            .collect();
        let n = tuples.first().map(BoolTuple::arity).expect(
            "Obj::from_bits requires at least one tuple; use Obj::empty for the empty object",
        );
        Obj::new(n, tuples)
    }

    /// Arity (number of Boolean variables) of the object's tuples.
    #[must_use]
    pub fn arity(&self) -> u16 {
        self.n
    }

    /// Number of distinct tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff the object contains no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples, sorted and deduplicated.
    #[must_use]
    pub fn tuples(&self) -> &[BoolTuple] {
        &self.tuples
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, t: &BoolTuple) -> bool {
        self.tuples.binary_search(t).is_ok()
    }

    /// A copy of the object with `t` added.
    #[must_use]
    pub fn with_tuple(&self, t: BoolTuple) -> Self {
        assert_eq!(t.arity(), self.n);
        let mut tuples = self.tuples.clone();
        if let Err(pos) = tuples.binary_search(&t) {
            tuples.insert(pos, t);
        }
        Obj { n: self.n, tuples }
    }

    /// A copy of the object with `t` removed.
    #[must_use]
    pub fn without_tuple(&self, t: &BoolTuple) -> Self {
        let mut tuples = self.tuples.clone();
        if let Ok(pos) = tuples.binary_search(t) {
            tuples.remove(pos);
        }
        Obj { n: self.n, tuples }
    }

    /// Union of two objects' tuple sets.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    #[must_use]
    pub fn union(&self, other: &Obj) -> Self {
        assert_eq!(self.n, other.n, "arity mismatch in Obj::union");
        Obj::new(
            self.n,
            self.tuples.iter().chain(other.tuples.iter()).cloned(),
        )
    }

    /// `true` iff some tuple has all of `vs` true — evaluates `∃t ∈ S (∧vs)`.
    #[must_use]
    pub fn some_tuple_satisfies(&self, vs: &crate::VarSet) -> bool {
        self.tuples.iter().any(|t| t.satisfies_all(vs))
    }
}

impl fmt::Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The user's label for a membership question (§2.1.2): one bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Response {
    /// The object satisfies the user's intended query.
    Answer,
    /// The object does not satisfy the user's intended query.
    NonAnswer,
}

impl Response {
    /// Converts from a Boolean (`true` → `Answer`).
    #[must_use]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Response::Answer
        } else {
            Response::NonAnswer
        }
    }

    /// `true` iff this is `Answer`.
    #[must_use]
    pub fn is_answer(self) -> bool {
        matches!(self, Response::Answer)
    }

    /// The opposite label.
    #[must_use]
    pub fn negate(self) -> Self {
        match self {
            Response::Answer => Response::NonAnswer,
            Response::NonAnswer => Response::Answer,
        }
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Answer => f.write_str("answer"),
            Response::NonAnswer => f.write_str("non-answer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_sort() {
        let o = Obj::new(
            3,
            [
                BoolTuple::from_bits("110"),
                BoolTuple::from_bits("011"),
                BoolTuple::from_bits("110"),
            ],
        );
        assert_eq!(o.len(), 2);
        let p = Obj::from_bits("011 110");
        assert_eq!(o, p, "order and duplicates do not affect identity");
    }

    #[test]
    fn from_bits_with_commas() {
        let o = Obj::from_bits("111011, 110111");
        assert_eq!(o.arity(), 6);
        assert_eq!(o.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn mixed_arity_rejected() {
        let _ = Obj::new(
            3,
            [BoolTuple::from_bits("110"), BoolTuple::from_bits("1100")],
        );
    }

    #[test]
    fn empty_object() {
        let o = Obj::empty(4);
        assert!(o.is_empty());
        assert_eq!(o.arity(), 4);
        assert_eq!(o.to_string(), "{}");
    }

    #[test]
    fn with_without_tuple() {
        let o = Obj::from_bits("110");
        let o2 = o.with_tuple(BoolTuple::from_bits("011"));
        assert_eq!(o2.len(), 2);
        assert!(o2.contains(&BoolTuple::from_bits("011")));
        let o3 = o2.without_tuple(&BoolTuple::from_bits("110"));
        assert_eq!(o3, Obj::from_bits("011"));
        assert_eq!(o.len(), 1, "functional updates");
    }

    #[test]
    fn union_dedups() {
        let a = Obj::from_bits("110 011");
        let b = Obj::from_bits("011 101");
        assert_eq!(a.union(&b).len(), 3);
    }

    #[test]
    fn some_tuple_satisfies_is_existential_conjunction() {
        use crate::varset;
        let o = Obj::from_bits("110 011");
        assert!(o.some_tuple_satisfies(&varset![1, 2]));
        assert!(!o.some_tuple_satisfies(&varset![1, 3]));
        assert!(
            o.some_tuple_satisfies(&crate::VarSet::new()),
            "empty conj trivially holds"
        );
        assert!(
            !Obj::empty(3).some_tuple_satisfies(&crate::VarSet::new()),
            "but not on empty objects"
        );
    }

    #[test]
    fn response_helpers() {
        assert!(Response::from_bool(true).is_answer());
        assert_eq!(Response::Answer.negate(), Response::NonAnswer);
        assert_eq!(Response::Answer.to_string(), "answer");
        assert_eq!(Response::NonAnswer.to_string(), "non-answer");
    }
}
