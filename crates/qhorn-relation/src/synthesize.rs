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
//! Cost: a synthesized value depends only on the truth pattern of the
//! few propositions bound to its attribute, so [`Synthesizer::new`] solves
//! every pattern of every attribute with at most [`TABLE_PROPS`]
//! propositions once, per binding and hints. Each table cell indexes the
//! attribute's distinct solved values, and each distinct value is rendered
//! once, so a table's size is bounded by the binding, not by the patterns
//! asked. A tuple then costs one bit test per proposition and one table
//! lookup per attribute, and [`Synthesizer::render_object`] writes a
//! question's text by copying the rendered values, building no
//! [`Value`]. An attribute with more propositions is solved per tuple by
//! the same solver. The error's proposition names are built only on
//! failure.

use crate::binding::Booleanizer;
use crate::interference::AttrConstraints;
use crate::relation::{DataTuple, NestedObject};
use crate::value::{AttrType, Value};
use qhorn_core::{BoolTuple, Obj, VarId};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

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

/// Most propositions one attribute may carry for its truth patterns to be
/// solved ahead into a table (2^8 = 256 patterns); an attribute with more
/// is solved per tuple.
pub const TABLE_PROPS: usize = 8;

/// Synthesizes data tuples/objects from Boolean ones, inverting a
/// [`Booleanizer`].
///
/// Built once per binding and hints: every attribute with at most
/// [`TABLE_PROPS`] propositions has its value for each truth pattern of
/// those propositions solved at construction, so realizing a tuple only
/// looks each attribute's pattern up.
#[derive(Clone, Debug)]
pub struct Synthesizer {
    bridge: Booleanizer,
    /// Per schema position, how the attribute's value is found.
    attrs: Vec<Solved>,
}

/// One attribute's values. Bit `j` of a pattern is the requested truth
/// of the attribute's `j`-th proposition (in variable order).
#[derive(Clone, Debug)]
enum Solved {
    /// `cells[pattern]` indexes the attribute's distinct solved values
    /// (and their texts), or is `None` when no value realizes the
    /// pattern.
    Table {
        cells: Vec<Option<u16>>,
        values: Vec<Value>,
        /// Each value's `Display` text.
        texts: Vec<String>,
    },
    /// Too many propositions to tabulate: solved for each tuple over
    /// the attribute's hint pool.
    PerTuple { hints: Vec<Value> },
}

// A table of `TABLE_PROPS` propositions has at most `2^TABLE_PROPS`
// distinct values, each indexed by a `u16`.
const _: () = assert!(1 << TABLE_PROPS <= 1 << 16);

impl Synthesizer {
    /// A synthesizer over the given binding and hints, with every
    /// tabulable attribute's patterns solved.
    #[must_use]
    pub fn new(bridge: &Booleanizer, hints: &DomainHints) -> Self {
        let schema = bridge.schema();
        let attrs: Vec<Solved> = schema
            .attrs()
            .iter()
            .enumerate()
            .map(|(a, attr)| {
                let pool = hints.get(&attr.name);
                let k = bridge.props_on(a).len();
                if k > TABLE_PROPS {
                    return Solved::PerTuple {
                        hints: pool.to_vec(),
                    };
                }
                let mut values: Vec<Value> = Vec::new();
                let cells = (0..1usize << k)
                    .map(|pattern| {
                        let value = if k == 0 {
                            Some(default_value(pool, attr.ty))
                        } else {
                            solve(bridge, a, pool, |j| pattern >> j & 1 == 1)
                        }?;
                        let i = values.iter().position(|v| *v == value).unwrap_or_else(|| {
                            values.push(value);
                            values.len() - 1
                        });
                        Some(i as u16)
                    })
                    .collect();
                let texts = values.iter().map(Value::to_string).collect();
                Solved::Table {
                    cells,
                    values,
                    texts,
                }
            })
            .collect();
        Synthesizer {
            bridge: bridge.clone(),
            attrs,
        }
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
        let values = (0..self.attrs.len())
            .map(|a| self.attr_value(a, bt))
            .collect::<Result<Vec<Value>, SynthesisError>>()?;
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

    /// The text of the object [`Synthesizer::synthesize_object`] builds
    /// from `obj` (its [`NestedObject`] `Display`), given the text of its
    /// object attributes, without building it: each tabled value's text
    /// was rendered once, at construction.
    ///
    /// # Errors
    /// The [`SynthesisError`] `synthesize_object` would return.
    ///
    /// # Panics
    /// Panics if `obj`'s arity differs from the binding's.
    pub fn render_object(&self, obj: &Obj, object_attrs: &str) -> Result<String, SynthesisError> {
        let mut out = String::from(object_attrs);
        out.push_str(" ⟨");
        for (i, bt) in obj.tuples().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            assert_eq!(bt.arity(), self.bridge.n(), "arity mismatch");
            out.push('(');
            for a in 0..self.attrs.len() {
                if a > 0 {
                    out.push_str(", ");
                }
                match self.lookup(a, bt)? {
                    Found::Tabled(_, text) => out.push_str(text),
                    Found::Solved(v) => {
                        let _ = write!(out, "{v}");
                    }
                }
            }
            out.push(')');
        }
        out.push('⟩');
        Ok(out)
    }

    /// The value synthesis gives the attribute at schema position
    /// `attr` for `bt`: looked up in its table, or solved for `bt` when
    /// it carries more than [`TABLE_PROPS`] propositions.
    ///
    /// # Errors
    /// [`SynthesisError`] when no value of the attribute realizes `bt`'s
    /// pattern of its propositions.
    pub fn attr_value(&self, attr: usize, bt: &BoolTuple) -> Result<Value, SynthesisError> {
        Ok(match self.lookup(attr, bt)? {
            Found::Tabled(value, _) => value.clone(),
            Found::Solved(value) => value,
        })
    }

    fn lookup(&self, a: usize, bt: &BoolTuple) -> Result<Found<'_>, SynthesisError> {
        let on = self.bridge.props_on(a);
        let trues = bt.true_set();
        let wanted = |j: usize| trues.contains(VarId(on[j] as u16));
        let found = match &self.attrs[a] {
            Solved::Table {
                cells,
                values,
                texts,
            } => {
                let pattern = (0..on.len()).fold(0usize, |p, j| p | usize::from(wanted(j)) << j);
                cells[pattern]
                    .map(|i| Found::Tabled(&values[usize::from(i)], &texts[usize::from(i)]))
            }
            Solved::PerTuple { hints } => solve(&self.bridge, a, hints, wanted).map(Found::Solved),
        };
        found.ok_or_else(|| SynthesisError {
            attr: self.bridge.schema().attrs()[a].name.clone(),
            constraints: on
                .iter()
                .enumerate()
                .map(|(j, &i)| (self.bridge.props()[i].name.clone(), wanted(j)))
                .collect(),
        })
    }
}

/// An attribute's value for one tuple.
enum Found<'s> {
    /// From the attribute's table, with its text.
    Tabled(&'s Value, &'s str),
    /// Solved for this tuple.
    Solved(Value),
}

/// The one solver: a value of attribute `a` under which its `j`-th
/// proposition is `wanted(j)`, preferring `hints`.
fn solve(
    bridge: &Booleanizer,
    a: usize,
    hints: &[Value],
    wanted: impl Fn(usize) -> bool,
) -> Option<Value> {
    let props = bridge.props();
    let mut constraints = AttrConstraints::new();
    for (j, &i) in bridge.props_on(a).iter().enumerate() {
        constraints.add(props[i].cmp, &props[i].rhs, wanted(j));
    }
    constraints.solve(hints)
}

/// The value of an attribute no proposition constrains: its first hint,
/// else a fixed value of its type.
fn default_value(hints: &[Value], ty: AttrType) -> Value {
    if let Some(v) = hints.first() {
        return v.clone();
    }
    match ty {
        AttrType::Bool => Value::Bool(false),
        AttrType::Int => Value::Int(0),
        AttrType::Str => Value::str("unspecified"),
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
    fn renders_the_object_it_synthesizes() {
        let b = bridge();
        let hints = chocolates::hints();
        let synth = Synthesizer::new(&b, &hints);
        let attrs = DataTuple::new([Value::str("Example Box")]);
        let objects = ["111", "111 011", "000 001 010 100"].map(Obj::from_bits);
        for obj in objects.iter().chain([&Obj::empty(3)]) {
            assert_eq!(
                synth.render_object(obj, &attrs.to_string()),
                Ok(synth
                    .synthesize_object(obj, attrs.clone())
                    .unwrap()
                    .to_string()),
                "{obj}"
            );
        }
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
