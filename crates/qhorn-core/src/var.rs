//! Variables and variable sets.
//!
//! Propositions over the embedded relation are abstracted into Boolean
//! variables `x1, ..., xn` (§2 of the paper). Internally variables are
//! 0-based indices ([`VarId`]); the `Display` impl and the
//! [`VarId::from_one_based`]/[`VarId::one_based`] helpers use the paper's
//! 1-based `x1..xn` convention.
//!
//! [`VarSet`] is a bitset used pervasively: Horn-expression bodies,
//! conjunction variable sets, true-sets of Boolean tuples, lattice
//! bookkeeping. Sets whose members all fit in one machine word (every
//! variable index < 64 — which covers every workload this system runs)
//! are stored **inline** as a single `u64`; only wider universes spill to
//! a heap vector. Inline sets make the evaluation kernel's hot loops
//! allocation-free: `clone`, `with`, `union`, `is_subset`, … are plain
//! word operations. The representation is canonical either way (no
//! trailing zero words, inline whenever possible) so that `Eq`/`Ord`/
//! `Hash` are structural.

use std::fmt;

/// Identifier of a Boolean variable (0-based).
///
/// `VarId(0)` corresponds to the paper's `x1`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VarId(pub u16);

impl VarId {
    /// Builds a `VarId` from the paper's 1-based index (`x1` → `from_one_based(1)`).
    ///
    /// # Panics
    /// Panics if `i == 0`.
    #[must_use]
    pub fn from_one_based(i: u16) -> Self {
        assert!(i > 0, "one-based variable indices start at 1");
        VarId(i - 1)
    }

    /// The paper's 1-based index of this variable.
    #[must_use]
    pub fn one_based(self) -> u16 {
        self.0 + 1
    }

    /// The 0-based index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.one_based())
    }
}

impl From<u16> for VarId {
    fn from(i: u16) -> Self {
        VarId(i)
    }
}

/// Storage for a [`VarSet`]: one inline word for universes of up to 64
/// variables, a heap vector beyond.
///
/// Canonical invariant: `Inline` whenever every member index is < 64
/// (including the empty set, `Inline(0)`); `Spilled` vectors have at
/// least two words and a non-zero last word.
#[derive(Clone)]
enum Words {
    Inline(u64),
    Spilled(Vec<u64>),
}

impl Words {
    fn as_slice(&self) -> &[u64] {
        match self {
            Words::Inline(0) => &[],
            Words::Inline(w) => std::slice::from_ref(w),
            Words::Spilled(v) => v,
        }
    }
}

/// A set of Boolean variables, stored as a bitset.
///
/// The representation is canonical: two `VarSet`s are `==` iff they
/// contain the same variables, regardless of how they were built. Sets
/// over ≤ 64 variables are a single inline `u64` (no heap allocation);
/// see [`VarSet::as_word`].
#[derive(Clone)]
pub struct VarSet {
    words: Words,
}

impl Default for VarSet {
    fn default() -> Self {
        VarSet::new()
    }
}

impl PartialEq for VarSet {
    fn eq(&self, other: &Self) -> bool {
        self.word_slice() == other.word_slice()
    }
}

impl Eq for VarSet {}

impl PartialOrd for VarSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VarSet {
    /// Lexicographic on the canonical word sequence — the same total
    /// order the previous `Vec<u64>`-backed representation derived.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.word_slice().cmp(other.word_slice())
    }
}

impl std::hash::Hash for VarSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.word_slice().hash(state);
    }
}

impl VarSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        VarSet {
            words: Words::Inline(0),
        }
    }

    /// A singleton set.
    #[must_use]
    pub fn singleton(v: VarId) -> Self {
        let mut s = VarSet::new();
        s.insert(v);
        s
    }

    /// The full set `{x1, ..., xn}` over a universe of `n` variables.
    #[must_use]
    pub fn full(n: u16) -> Self {
        if n <= 64 {
            return VarSet::from_word(if n == 64 { u64::MAX } else { (1u64 << n) - 1 });
        }
        let mut s = VarSet::new();
        for i in 0..n {
            s.insert(VarId(i));
        }
        s
    }

    /// Builds a set from 0-based indices.
    #[must_use]
    pub fn from_indices<I: IntoIterator<Item = u16>>(ids: I) -> Self {
        ids.into_iter().map(VarId).collect()
    }

    /// Builds a set from the paper's 1-based indices (`[1, 4, 5]` → `{x1, x4, x5}`).
    #[must_use]
    pub fn from_one_based<I: IntoIterator<Item = u16>>(ids: I) -> Self {
        ids.into_iter().map(VarId::from_one_based).collect()
    }

    /// Builds a set from its first-word bitmask: bit `i` ↔ variable index
    /// `i`. The inline fast path the evaluation kernel works in.
    #[must_use]
    pub fn from_word(bits: u64) -> Self {
        VarSet {
            words: Words::Inline(bits),
        }
    }

    /// The set's bitmask when every member index is < 64 (always the case
    /// for workloads of arity ≤ 64), `None` for spilled sets.
    #[must_use]
    pub fn as_word(&self) -> Option<u64> {
        match &self.words {
            Words::Inline(w) => Some(*w),
            Words::Spilled(_) => None,
        }
    }

    /// Builds a set from raw 64-bit words (`words[i]` covers variable
    /// indices `64 i .. 64 i + 64`), re-canonicalizing.
    #[must_use]
    pub fn from_words(words: Vec<u64>) -> Self {
        let mut s = VarSet {
            words: Words::Spilled(words),
        };
        s.canonicalize();
        s
    }

    /// The canonical word sequence (no trailing zero words; empty for the
    /// empty set).
    fn word_slice(&self) -> &[u64] {
        self.words.as_slice()
    }

    /// Restores the canonical invariant after a mutation that may have
    /// cleared high words.
    fn canonicalize(&mut self) {
        if let Words::Spilled(v) = &mut self.words {
            while v.last() == Some(&0) {
                v.pop();
            }
            if v.len() <= 1 {
                self.words = Words::Inline(v.first().copied().unwrap_or(0));
            }
        }
    }

    /// Inserts a variable; returns `true` if it was newly added.
    pub fn insert(&mut self, v: VarId) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        match &mut self.words {
            Words::Inline(word) if w == 0 => {
                let had = *word & (1 << b) != 0;
                *word |= 1 << b;
                !had
            }
            Words::Inline(word) => {
                let mut words = vec![*word];
                words.resize(w + 1, 0);
                words[w] |= 1 << b;
                self.words = Words::Spilled(words);
                true
            }
            Words::Spilled(words) => {
                if w >= words.len() {
                    words.resize(w + 1, 0);
                }
                let had = words[w] & (1 << b) != 0;
                words[w] |= 1 << b;
                !had
            }
        }
    }

    /// Removes a variable; returns `true` if it was present.
    pub fn remove(&mut self, v: VarId) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        let had = match &mut self.words {
            Words::Inline(word) => {
                if w != 0 {
                    return false;
                }
                let had = *word & (1 << b) != 0;
                *word &= !(1 << b);
                had
            }
            Words::Spilled(words) => {
                if w >= words.len() {
                    return false;
                }
                let had = words[w] & (1 << b) != 0;
                words[w] &= !(1 << b);
                had
            }
        };
        self.canonicalize();
        had
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, v: VarId) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        let slice = self.word_slice();
        w < slice.len() && slice[w] & (1 << b) != 0
    }

    /// Number of variables in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.word_slice()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// `true` iff the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.word_slice().is_empty()
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &VarSet) -> VarSet {
        if let (Words::Inline(a), Words::Inline(b)) = (&self.words, &other.words) {
            return VarSet::from_word(a | b);
        }
        let (x, y) = (self.word_slice(), other.word_slice());
        let words = (0..x.len().max(y.len()))
            .map(|i| x.get(i).copied().unwrap_or(0) | y.get(i).copied().unwrap_or(0))
            .collect();
        VarSet::from_words(words)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(&self, other: &VarSet) -> VarSet {
        if let (Words::Inline(a), Words::Inline(b)) = (&self.words, &other.words) {
            return VarSet::from_word(a & b);
        }
        let (x, y) = (self.word_slice(), other.word_slice());
        let words = x.iter().zip(y.iter()).map(|(a, b)| a & b).collect();
        VarSet::from_words(words)
    }

    /// Set difference `self − other`.
    #[must_use]
    pub fn difference(&self, other: &VarSet) -> VarSet {
        if let (Words::Inline(a), Words::Inline(b)) = (&self.words, &other.words) {
            return VarSet::from_word(a & !b);
        }
        let (x, y) = (self.word_slice(), other.word_slice());
        let words = x
            .iter()
            .enumerate()
            .map(|(i, a)| a & !y.get(i).copied().unwrap_or(0))
            .collect();
        VarSet::from_words(words)
    }

    /// Symmetric difference.
    #[must_use]
    pub fn symmetric_difference(&self, other: &VarSet) -> VarSet {
        if let (Words::Inline(a), Words::Inline(b)) = (&self.words, &other.words) {
            return VarSet::from_word(a ^ b);
        }
        let (x, y) = (self.word_slice(), other.word_slice());
        let words = (0..x.len().max(y.len()))
            .map(|i| x.get(i).copied().unwrap_or(0) ^ y.get(i).copied().unwrap_or(0))
            .collect();
        VarSet::from_words(words)
    }

    /// `true` iff `self ⊆ other`.
    #[must_use]
    pub fn is_subset(&self, other: &VarSet) -> bool {
        if let (Words::Inline(a), Words::Inline(b)) = (&self.words, &other.words) {
            return a & !b == 0;
        }
        let o = other.word_slice();
        self.word_slice().iter().enumerate().all(|(i, w)| {
            let b = o.get(i).copied().unwrap_or(0);
            w & !b == 0
        })
    }

    /// `true` iff `self ⊇ other`.
    #[must_use]
    pub fn is_superset(&self, other: &VarSet) -> bool {
        other.is_subset(self)
    }

    /// `true` iff the sets share no variable.
    #[must_use]
    pub fn is_disjoint(&self, other: &VarSet) -> bool {
        if let (Words::Inline(a), Words::Inline(b)) = (&self.words, &other.words) {
            return a & b == 0;
        }
        self.word_slice()
            .iter()
            .zip(other.word_slice().iter())
            .all(|(a, b)| a & b == 0)
    }

    /// `true` iff the sets intersect.
    #[must_use]
    pub fn intersects(&self, other: &VarSet) -> bool {
        !self.is_disjoint(other)
    }

    /// Iterates the variables in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        self.word_slice().iter().enumerate().flat_map(|(wi, &w)| {
            let base = (wi * 64) as u32;
            BitIter { word: w, base }
        })
    }

    /// The smallest variable, if any.
    ///
    /// Named `first` (not `min`) to avoid clashing with `Ord::min`.
    #[must_use]
    pub fn first(&self) -> Option<VarId> {
        self.iter().next()
    }

    /// Collects into a sorted `Vec<VarId>`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<VarId> {
        self.iter().collect()
    }

    /// Returns the set with `v` inserted (functional update).
    #[must_use]
    pub fn with(&self, v: VarId) -> VarSet {
        let mut s = self.clone();
        s.insert(v);
        s
    }

    /// Returns the set with `v` removed (functional update).
    #[must_use]
    pub fn without(&self, v: VarId) -> VarSet {
        let mut s = self.clone();
        s.remove(v);
        s
    }
}

struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = VarId;
    fn next(&mut self) -> Option<VarId> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(VarId((self.base + tz) as u16))
    }
}

impl FromIterator<VarId> for VarSet {
    fn from_iter<I: IntoIterator<Item = VarId>>(iter: I) -> Self {
        let mut s = VarSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl<'a> IntoIterator for &'a VarSet {
    type Item = VarId;
    type IntoIter = Box<dyn Iterator<Item = VarId> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(feature = "json")]
mod json {
    use super::{VarId, VarSet, Words};
    use qhorn_json::{FromJson, Json, JsonError, ToJson};

    impl ToJson for VarId {
        fn to_json(&self) -> Json {
            Json::U64(u64::from(self.0))
        }

        fn write_json(&self, out: &mut String) {
            self.0.write_json(out);
        }
    }

    impl FromJson for VarId {
        fn from_json(j: &Json) -> Result<Self, JsonError> {
            u16::from_json(j).map(VarId)
        }
    }

    /// The canonical word sequence, as a JSON array of `u64`.
    impl ToJson for Words {
        fn to_json(&self) -> Json {
            self.as_slice().to_json()
        }

        fn write_json(&self, out: &mut String) {
            self.as_slice().write_json(out);
        }
    }

    impl FromJson for Words {
        fn from_json(j: &Json) -> Result<Self, JsonError> {
            Vec::<u64>::from_json(j).map(Words::Spilled)
        }
    }

    qhorn_json::wire! {
        struct VarSet { words: Words } check canonical
    }

    /// Re-canonicalize: payloads may carry zero words.
    fn canonical(mut s: VarSet) -> Result<VarSet, JsonError> {
        s.canonicalize();
        Ok(s)
    }
}

/// Convenience macro: `varset![1, 4, 5]` builds `{x1, x4, x5}` using the
/// paper's 1-based naming.
#[macro_export]
macro_rules! varset {
    ($($i:expr),* $(,)?) => {
        $crate::VarSet::from_one_based([$($i),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_based_round_trip() {
        let v = VarId::from_one_based(4);
        assert_eq!(v.index(), 3);
        assert_eq!(v.one_based(), 4);
        assert_eq!(v.to_string(), "x4");
    }

    #[test]
    #[should_panic(expected = "one-based")]
    fn one_based_zero_panics() {
        let _ = VarId::from_one_based(0);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = VarSet::new();
        assert!(s.insert(VarId(3)));
        assert!(!s.insert(VarId(3)));
        assert!(s.contains(VarId(3)));
        assert!(!s.contains(VarId(2)));
        assert!(s.remove(VarId(3)));
        assert!(!s.remove(VarId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn canonical_after_remove_high_bit() {
        let mut s = VarSet::new();
        s.insert(VarId(100));
        s.remove(VarId(100));
        assert_eq!(s, VarSet::new());
        let mut h = std::collections::HashSet::new();
        h.insert(s);
        h.insert(VarSet::new());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn set_operations() {
        let a = VarSet::from_indices([0, 1, 2, 70]);
        let b = VarSet::from_indices([2, 3, 70]);
        assert_eq!(a.union(&b), VarSet::from_indices([0, 1, 2, 3, 70]));
        assert_eq!(a.intersection(&b), VarSet::from_indices([2, 70]));
        assert_eq!(a.difference(&b), VarSet::from_indices([0, 1]));
        assert_eq!(a.symmetric_difference(&b), VarSet::from_indices([0, 1, 3]));
    }

    #[test]
    fn subset_disjoint() {
        let a = VarSet::from_indices([1, 2]);
        let b = VarSet::from_indices([1, 2, 3]);
        let c = VarSet::from_indices([5, 64]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(b.is_superset(&a));
        assert!(a.is_disjoint(&c));
        assert!(a.intersects(&b));
        assert!(VarSet::new().is_subset(&a));
        assert!(VarSet::new().is_disjoint(&a));
    }

    #[test]
    fn subset_across_word_lengths() {
        let small = VarSet::from_indices([1]);
        let big = VarSet::from_indices([1, 130]);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(big.is_superset(&small));
    }

    #[test]
    fn iteration_order_and_len() {
        let s = VarSet::from_indices([65, 0, 3]);
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.to_vec(),
            vec![VarId(0), VarId(3), VarId(65)],
            "iteration is in increasing order"
        );
        assert_eq!(s.first(), Some(VarId(0)));
    }

    #[test]
    fn full_universe() {
        let s = VarSet::full(130);
        assert_eq!(s.len(), 130);
        assert!(s.contains(VarId(129)));
        assert!(!s.contains(VarId(130)));
        assert_eq!(VarSet::full(64).len(), 64);
        assert_eq!(VarSet::full(64).as_word(), Some(u64::MAX));
        assert_eq!(VarSet::full(0), VarSet::new());
    }

    #[test]
    fn display_uses_one_based_names() {
        let s = varset![1, 4, 5];
        assert_eq!(s.to_string(), "{x1, x4, x5}");
    }

    #[test]
    fn functional_updates() {
        let s = varset![1, 2];
        assert_eq!(s.with(VarId::from_one_based(3)), varset![1, 2, 3]);
        assert_eq!(s.without(VarId::from_one_based(2)), varset![1]);
        assert_eq!(s, varset![1, 2], "original untouched");
    }

    #[test]
    fn inline_word_round_trip() {
        // Sets over ≤ 64 variables stay inline through every operation.
        let a = VarSet::from_indices([0, 5, 63]);
        assert_eq!(a.as_word(), Some(1 | (1 << 5) | (1 << 63)));
        assert_eq!(VarSet::from_word(a.as_word().unwrap()), a);
        assert!(a.union(&varset![2]).as_word().is_some());
        assert!(a.difference(&varset![1]).as_word().is_some());
        assert_eq!(VarSet::new().as_word(), Some(0));
    }

    #[test]
    fn spill_and_return_inline() {
        // Growing past index 63 spills; removing the high bit re-inlines.
        let mut s = VarSet::from_indices([3, 10]);
        assert!(s.as_word().is_some());
        s.insert(VarId(90));
        assert_eq!(s.as_word(), None);
        assert_eq!(s.len(), 3);
        assert!(s.contains(VarId(90)));
        s.remove(VarId(90));
        assert_eq!(s.as_word(), Some((1 << 3) | (1 << 10)));
        assert_eq!(s, VarSet::from_indices([3, 10]));
    }

    #[test]
    fn ordering_matches_word_lexicographic() {
        // The order must be stable across the inline/spilled boundary:
        // lexicographic on canonical word sequences, exactly as the old
        // Vec<u64> representation derived.
        let mut sets = [
            VarSet::new(),
            VarSet::from_indices([0]),
            VarSet::from_indices([63]),
            VarSet::from_indices([0, 64]),
            VarSet::from_indices([64]),
            VarSet::from_indices([1, 200]),
        ];
        sets.sort();
        for pair in sets.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        // Mixed-representation comparisons agree with set semantics.
        assert_ne!(VarSet::from_indices([0]), VarSet::from_indices([0, 64]));
        assert_eq!(VarSet::from_words(vec![5, 0, 0]), VarSet::from_word(5));
    }

    #[test]
    fn from_words_canonicalizes() {
        assert_eq!(VarSet::from_words(vec![]), VarSet::new());
        assert_eq!(VarSet::from_words(vec![0, 0]), VarSet::new());
        let spilled = VarSet::from_words(vec![1, 2]);
        assert_eq!(spilled.as_word(), None);
        assert_eq!(spilled, VarSet::from_indices([0, 65]));
    }
}
