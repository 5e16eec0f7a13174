//! The backward Boolean→data transform: realizing the learner's membership
//! questions as actual data objects.
//!
//! §5 ("arbitrary examples"): the paper's rebuttal to the classic active-
//! learning criticism is that qhorn questions are synthesized *in the data
//! domain*. Given a Boolean tuple, the synthesizer solves, per attribute,
//! the conjunction of signed proposition constraints and emits a concrete
//! tuple — or reports exactly which propositions conflict, which is how
//! joint (beyond pairwise) interference surfaces.
//!
//! Cost: the binding resolves every proposition's attribute position once
//! ([`Booleanizer::new`]), so one tuple costs O(attributes + propositions):
//! each attribute visits only the propositions on it, plus one hint-pool
//! lookup. The error's proposition names are built only on failure.

use crate::binding::Booleanizer;
use crate::interference::AttrConstraints;
use crate::relation::{DataTuple, NestedObject};
use crate::value::{AttrType, Value};
use qhorn_core::{BoolTuple, Obj, VarId};
use std::collections::BTreeMap;
use std::fmt;

/// Preferred values per attribute, tried before synthetic ones — e.g. real
/// origins from the store's inventory, so examples look natural to users.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DomainHints {
    per_attr: BTreeMap<String, Vec<Value>>,
}

impl DomainHints {
    /// No hints.
    #[must_use]
    pub fn none() -> Self {
        DomainHints::default()
    }

    /// Adds a candidate pool for one attribute.
    #[must_use]
    pub fn with(mut self, attr: &str, values: Vec<Value>) -> Self {
        self.per_attr.insert(attr.to_string(), values);
        self
    }

    fn get(&self, attr: &str) -> &[Value] {
        self.per_attr.get(attr).map_or(&[], Vec::as_slice)
    }

    /// Iterates `(attribute, candidate values)` pairs in attribute order
    /// (the wire format serializes these).
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[Value])> {
        self.per_attr
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

/// Synthesis failure: no value of `attr` realizes the requested truth
/// pattern of the propositions constraining it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SynthesisError {
    /// The over-constrained attribute.
    pub attr: String,
    /// The propositions (by name) constraining it, with their requested
    /// truth values.
    pub constraints: Vec<(String, bool)>,
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no value of attribute {:?} satisfies ", self.attr)?;
        for (i, (p, v)) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{}{p}", if *v { "" } else { "¬" })?;
        }
        Ok(())
    }
}

impl std::error::Error for SynthesisError {}

/// Synthesizes data tuples/objects from Boolean ones, inverting a
/// [`Booleanizer`].
#[derive(Clone, Debug)]
pub struct Synthesizer<'a> {
    bridge: &'a Booleanizer,
    hints: &'a DomainHints,
}

impl<'a> Synthesizer<'a> {
    /// A synthesizer over the given binding and hints.
    #[must_use]
    pub fn new(bridge: &'a Booleanizer, hints: &'a DomainHints) -> Self {
        Synthesizer { bridge, hints }
    }

    /// Synthesizes one data tuple whose Boolean abstraction is exactly
    /// `bt`.
    ///
    /// # Errors
    /// [`SynthesisError`] naming the over-constrained attribute when the
    /// pattern is unrealizable (joint proposition interference).
    ///
    /// # Panics
    /// Panics if `bt`'s arity differs from the binding's.
    pub fn synthesize_tuple(&self, bt: &BoolTuple) -> Result<DataTuple, SynthesisError> {
        assert_eq!(bt.arity(), self.bridge.n(), "arity mismatch");
        let props = self.bridge.props();
        let wanted = |i: usize| bt.get(VarId(i as u16));
        let schema = self.bridge.schema();
        let mut values: Vec<Value> = Vec::with_capacity(schema.arity());
        for (idx, attr) in schema.attrs().iter().enumerate() {
            let on_attr = self.bridge.props_on(idx);
            let value = if on_attr.is_empty() {
                self.default_value(&attr.name, attr.ty)
            } else {
                let mut constraints = AttrConstraints::new();
                for &i in on_attr {
                    constraints.add(props[i].cmp, &props[i].rhs, wanted(i));
                }
                constraints
                    .solve(self.hints.get(&attr.name))
                    .ok_or_else(|| SynthesisError {
                        attr: attr.name.clone(),
                        constraints: on_attr
                            .iter()
                            .map(|&i| (props[i].name.clone(), wanted(i)))
                            .collect(),
                    })?
            };
            values.push(value);
        }
        debug_assert_eq!(
            self.bridge
                .booleanize_tuple(&DataTuple::new(values.clone()))
                .expect("synthesized tuple is well-typed"),
            *bt,
            "synthesis must invert booleanization"
        );
        Ok(DataTuple::new(values))
    }

    /// Synthesizes a whole object (the learner's membership question) from
    /// a Boolean object.
    pub fn synthesize_object(
        &self,
        obj: &Obj,
        object_attrs: DataTuple,
    ) -> Result<NestedObject, SynthesisError> {
        let tuples: Result<Vec<DataTuple>, SynthesisError> = obj
            .tuples()
            .iter()
            .map(|t| self.synthesize_tuple(t))
            .collect();
        Ok(NestedObject::new(object_attrs, tuples?))
    }

    fn default_value(&self, attr: &str, ty: AttrType) -> Value {
        if let Some(v) = self.hints.get(attr).first() {
            return v.clone();
        }
        match ty {
            AttrType::Bool => Value::Bool(false),
            AttrType::Int => Value::Int(0),
            AttrType::Str => Value::str("unspecified"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::chocolates;
    use crate::proposition::{Cmp, Proposition};
    use crate::schema::{Attr, FlatSchema};

    fn bridge() -> Booleanizer {
        Booleanizer::new(
            chocolates::schema().embedded.clone(),
            chocolates::propositions(),
        )
        .unwrap()
    }

    #[test]
    fn synthesizes_each_boolean_pattern() {
        let b = bridge();
        let hints = chocolates::hints();
        let synth = Synthesizer::new(&b, &hints);
        for bits in ["000", "001", "010", "011", "100", "101", "110", "111"] {
            let bt = BoolTuple::from_bits(bits);
            let t = synth.synthesize_tuple(&bt).unwrap();
            assert_eq!(b.booleanize_tuple(&t).unwrap(), bt, "pattern {bits}");
        }
    }

    #[test]
    fn synthesizes_objects() {
        let b = bridge();
        let none = DomainHints::none();
        let synth = Synthesizer::new(&b, &none);
        let obj = Obj::from_bits("111 011");
        let data = synth
            .synthesize_object(&obj, DataTuple::new([Value::str("Example Box")]))
            .unwrap();
        assert_eq!(data.tuples.len(), 2);
        assert_eq!(b.booleanize_object(&data).unwrap(), obj);
    }

    #[test]
    fn joint_interference_reported_with_culprits() {
        // pm: origin=Madagascar, pb: origin=Belgium — pattern 11 is
        // unrealizable.
        let schema = chocolates::schema().embedded.clone();
        let props = vec![
            Proposition::eq("pm", "origin", Value::str("Madagascar")),
            Proposition::eq("pb", "origin", Value::str("Belgium")),
        ];
        let b = Booleanizer::new(schema, props).unwrap();
        let none = DomainHints::none();
        let synth = Synthesizer::new(&b, &none);
        let err = synth
            .synthesize_tuple(&BoolTuple::from_bits("11"))
            .unwrap_err();
        assert_eq!(err.attr, "origin");
        assert_eq!(err.constraints.len(), 2);
        assert!(err.to_string().contains("pm"));
        // 10, 01, 00 are all realizable.
        for bits in ["10", "01", "00"] {
            assert!(
                synth.synthesize_tuple(&BoolTuple::from_bits(bits)).is_ok(),
                "{bits}"
            );
        }
    }

    #[test]
    fn integer_ranges_synthesize() {
        let schema = FlatSchema::new([Attr::new("cocoa", AttrType::Int)]).unwrap();
        let props = vec![
            Proposition::new("hi", "cocoa", Cmp::Ge, Value::Int(70)),
            Proposition::new("vhi", "cocoa", Cmp::Ge, Value::Int(90)),
        ];
        let b = Booleanizer::new(schema, props).unwrap();
        let none = DomainHints::none();
        let synth = Synthesizer::new(&b, &none);
        // 10: cocoa in [70, 89].
        let t = synth.synthesize_tuple(&BoolTuple::from_bits("10")).unwrap();
        assert!(matches!(t.get(0), Value::Int(c) if (70..90).contains(c)));
        // 01 is interference: ≥90 implies ≥70.
        assert!(synth.synthesize_tuple(&BoolTuple::from_bits("01")).is_err());
        // 11 and 00 fine.
        assert!(synth.synthesize_tuple(&BoolTuple::from_bits("11")).is_ok());
        assert!(synth.synthesize_tuple(&BoolTuple::from_bits("00")).is_ok());
    }

    #[test]
    fn hints_make_examples_natural() {
        let b = bridge();
        let hints = DomainHints::none().with("origin", vec![Value::str("Belgium")]);
        let synth = Synthesizer::new(&b, &hints);
        // Pattern with p3 (Madagascar) false: the hint should be used.
        let t = synth
            .synthesize_tuple(&BoolTuple::from_bits("110"))
            .unwrap();
        assert_eq!(
            t.get_named(b.schema(), "origin").unwrap(),
            &Value::str("Belgium")
        );
    }
}
