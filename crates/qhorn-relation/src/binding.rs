//! The forward data→Boolean transform (Fig. 1): each proposition `p_i`
//! becomes Boolean variable `x_i`; each embedded tuple becomes a
//! [`qhorn_core::BoolTuple`]; each object becomes a [`qhorn_core::Obj`].

use crate::interference::{check_pairwise_independence, Interference};
use crate::proposition::{PropError, Proposition};
use crate::relation::{DataTuple, NestedObject};
use crate::schema::FlatSchema;
use qhorn_core::{BoolTuple, Obj, VarId, VarSet};

/// Binds an ordered proposition list to Boolean variables `x1..xn` over an
/// embedded-relation schema.
///
/// Each proposition's attribute is resolved to its schema position once,
/// at construction, so the per-tuple transforms index values directly.
#[derive(Clone, Debug)]
pub struct Booleanizer {
    schema: FlatSchema,
    props: Vec<Proposition>,
    /// `positions[i]`: schema position of `props[i]`'s attribute.
    positions: Vec<usize>,
    /// `by_attr[a]`: indices of the propositions on attribute `a`, in
    /// variable order.
    by_attr: Vec<Vec<usize>>,
}

impl Booleanizer {
    /// Validates every proposition against the schema.
    pub fn new(schema: FlatSchema, props: Vec<Proposition>) -> Result<Self, PropError> {
        let positions = props
            .iter()
            .map(|p| p.validate(&schema))
            .collect::<Result<Vec<usize>, PropError>>()?;
        let mut by_attr = vec![Vec::new(); schema.arity()];
        for (i, &pos) in positions.iter().enumerate() {
            by_attr[pos].push(i);
        }
        Ok(Booleanizer {
            schema,
            props,
            positions,
            by_attr,
        })
    }

    /// Number of Boolean variables (= propositions).
    #[must_use]
    pub fn n(&self) -> u16 {
        self.props.len() as u16
    }

    /// The bound propositions, in variable order (`props()[i]` is `x_{i+1}`).
    #[must_use]
    pub fn props(&self) -> &[Proposition] {
        &self.props
    }

    /// The embedded-relation schema.
    #[must_use]
    pub fn schema(&self) -> &FlatSchema {
        &self.schema
    }

    /// The variable bound to a proposition name, if any.
    #[must_use]
    pub fn var_of(&self, prop_name: &str) -> Option<VarId> {
        self.props
            .iter()
            .position(|p| p.name == prop_name)
            .map(|i| VarId(i as u16))
    }

    /// Indices of the propositions on the attribute at schema position
    /// `attr`, in variable order.
    pub(crate) fn props_on(&self, attr: usize) -> &[usize] {
        &self.by_attr[attr]
    }

    /// Transforms one data tuple into its Boolean abstraction.
    pub fn booleanize_tuple(&self, t: &DataTuple) -> Result<BoolTuple, PropError> {
        let mut trues = VarSet::new();
        for (i, (p, &pos)) in self.props.iter().zip(&self.positions).enumerate() {
            if p.eval_value(t.get(pos))? {
                trues.insert(VarId(i as u16));
            }
        }
        Ok(BoolTuple::from_true_set(self.n(), trues))
    }

    /// Transforms an object (its embedded tuple set) into a Boolean-domain
    /// object. Distinct data tuples with identical proposition patterns
    /// collapse, matching the paper's set semantics.
    pub fn booleanize_object(&self, o: &NestedObject) -> Result<Obj, PropError> {
        let tuples: Result<Vec<BoolTuple>, PropError> =
            o.tuples.iter().map(|t| self.booleanize_tuple(t)).collect();
        Ok(Obj::new(self.n(), tuples?))
    }

    /// Runs the §2 assumption (ii) check: pairwise independence of the
    /// bound propositions.
    #[must_use]
    pub fn check_independence(&self) -> Vec<Interference> {
        check_pairwise_independence(&self.props)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::chocolates;
    use crate::proposition::Cmp;
    use crate::schema::Attr;
    use crate::value::{AttrType, Value};

    fn bridge() -> Booleanizer {
        Booleanizer::new(
            chocolates::schema().embedded.clone(),
            chocolates::propositions(),
        )
        .unwrap()
    }

    #[test]
    fn fig1_transform() {
        // p1: isDark, p2: hasFilling, p3: origin = Madagascar.
        let b = bridge();
        assert_eq!(b.n(), 3);
        let t = DataTuple::new([
            Value::str("Madagascar"),
            Value::Bool(true),  // isSugarFree (not bound)
            Value::Bool(true),  // isDark
            Value::Bool(true),  // hasFilling
            Value::Bool(false), // hasNuts
        ]);
        assert_eq!(b.booleanize_tuple(&t).unwrap().to_bits(), "111");
    }

    #[test]
    fn fig1_boxes_booleanize() {
        let b = bridge();
        let rel = chocolates::fig1_boxes();
        let s1 = b.booleanize_object(&rel.objects[0]).unwrap();
        // Global Ground (Fig. 1): Madagascar dark filled (111), Belgium
        // non-dark unfilled (000), Germany dark filled non-Madagascar (110).
        assert_eq!(s1, Obj::from_bits("111 000 110"));
        let s2 = b.booleanize_object(&rel.objects[1]).unwrap();
        // Europe's Finest: two Belgium chocolates collapse onto patterns
        // {110, 010} plus Sweden 010 — dedup applies.
        assert_eq!(s2.arity(), 3);
        assert!(s2.len() <= rel.objects[1].tuples.len());
    }

    #[test]
    fn wrong_typed_value_is_an_ordering_error_naming_the_proposition() {
        let schema = FlatSchema::new([
            Attr::new("isDark", AttrType::Bool),
            Attr::new("cocoa", AttrType::Int),
        ])
        .unwrap();
        let props = vec![
            Proposition::is_true("p1", "isDark"),
            Proposition::new("hi", "cocoa", Cmp::Ge, Value::Int(70)),
        ];
        let b = Booleanizer::new(schema, props).unwrap();
        let t = DataTuple::new([Value::Bool(true), Value::str("seventy")]);
        assert_eq!(
            b.booleanize_tuple(&t),
            Err(PropError::OrderingOnNonInt {
                prop: "hi".to_string(),
                ty: AttrType::Str,
            })
        );
    }

    #[test]
    fn var_of_names() {
        let b = bridge();
        assert_eq!(b.var_of("p1"), Some(VarId(0)));
        assert_eq!(b.var_of("p3"), Some(VarId(2)));
        assert_eq!(b.var_of("nope"), None);
    }

    #[test]
    fn invalid_props_rejected() {
        let schema = chocolates::schema().embedded.clone();
        let bad = vec![Proposition::is_true("p", "noSuchAttr")];
        assert!(Booleanizer::new(schema, bad).is_err());
    }

    #[test]
    fn independence_check_flags_interfering_origins() {
        let schema = chocolates::schema().embedded.clone();
        let props = vec![
            Proposition::eq("pm", "origin", Value::str("Madagascar")),
            Proposition::eq("pb", "origin", Value::str("Belgium")),
        ];
        let b = Booleanizer::new(schema, props).unwrap();
        let found = b.check_independence();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].combination, (true, true));
    }

    #[test]
    fn paper_propositions_are_independent() {
        assert!(bridge().check_independence().is_empty());
    }
}
