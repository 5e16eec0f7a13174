//! Built-in datasets — the paper's chocolate-shop running example (Fig. 1)
//! and deterministic synthetic stores for demos and benchmarks.

use crate::binding::Booleanizer;
use crate::proposition::Proposition;
use crate::relation::{DataTuple, NestedObject, NestedRelation};
use crate::schema::{Attr, FlatSchema, NestedSchema};
use crate::synthesize::DomainHints;
use crate::value::AttrType;
use crate::value::Value;

/// The chocolate-shop example (Fig. 1).
pub mod chocolates {
    use super::*;

    /// `Box(name, Chocolate(origin, isSugarFree, isDark, hasFilling,
    /// hasNuts))` — the schema of Fig. 1, attributes in column order.
    #[must_use]
    pub fn schema() -> NestedSchema {
        NestedSchema::new(
            "Box",
            FlatSchema::new([Attr::new("name", AttrType::Str)]).expect("valid"),
            "Chocolate",
            FlatSchema::new([
                Attr::new("origin", AttrType::Str),
                Attr::new("isSugarFree", AttrType::Bool),
                Attr::new("isDark", AttrType::Bool),
                Attr::new("hasFilling", AttrType::Bool),
                Attr::new("hasNuts", AttrType::Bool),
            ])
            .expect("valid"),
        )
    }

    /// The paper's propositions: `p1: c.isDark`, `p2: c.hasFilling`,
    /// `p3: c.origin = Madagascar`.
    #[must_use]
    pub fn propositions() -> Vec<Proposition> {
        vec![
            Proposition::is_true("p1", "isDark"),
            Proposition::is_true("p2", "hasFilling"),
            Proposition::eq("p3", "origin", Value::str("Madagascar")),
        ]
    }

    /// A ready-made [`Booleanizer`] binding [`propositions`] over the
    /// embedded schema.
    #[must_use]
    pub fn booleanizer() -> Booleanizer {
        Booleanizer::new(schema().embedded.clone(), propositions()).expect("valid propositions")
    }

    /// The two boxes of Fig. 1: *Global Ground* and *Europe's Finest*.
    #[must_use]
    pub fn fig1_boxes() -> NestedRelation {
        let mut rel = NestedRelation::new(schema());
        rel.push(NestedObject::new(
            DataTuple::new([Value::str("Global Ground")]),
            vec![
                chocolate("Madagascar", true, true, true, false),
                chocolate("Belgium", true, false, false, true),
                chocolate("Germany", true, true, true, true),
            ],
        ))
        .expect("well-typed");
        rel.push(NestedObject::new(
            DataTuple::new([Value::str("Europe's Finest")]),
            vec![
                chocolate("Belgium", true, true, false, false),
                chocolate("Belgium", false, true, false, true),
                chocolate("Sweden", false, true, true, true),
            ],
        ))
        .expect("well-typed");
        rel
    }

    /// One chocolate tuple in schema order.
    #[must_use]
    pub fn chocolate(
        origin: &str,
        sugar_free: bool,
        dark: bool,
        filling: bool,
        nuts: bool,
    ) -> DataTuple {
        DataTuple::new([
            Value::str(origin),
            Value::Bool(sugar_free),
            Value::Bool(dark),
            Value::Bool(filling),
            Value::Bool(nuts),
        ])
    }

    /// Natural-looking value pools for synthesized examples.
    #[must_use]
    pub fn hints() -> DomainHints {
        DomainHints::none().with(
            "origin",
            vec![
                Value::str("Belgium"),
                Value::str("Germany"),
                Value::str("Sweden"),
                Value::str("Ecuador"),
            ],
        )
    }

    /// A ready-made uploadable [`crate::upload::DatasetDef`] of the
    /// Fig. 1 boxes under the given catalog name (demos and tests).
    #[must_use]
    pub fn dataset_def(name: &str) -> crate::upload::DatasetDef {
        crate::upload::DatasetDef {
            name: name.to_string(),
            relation: fig1_boxes(),
            propositions: propositions(),
            hints: hints(),
        }
    }

    /// The intro's intended query (1): `∀c (isDark) ∧ ∃c (hasFilling ∧
    /// origin = Madagascar)`, i.e. `∀x1 ∃x2x3`.
    #[must_use]
    pub fn intro_query() -> qhorn_core::Query {
        qhorn_core::Query::new(
            3,
            [
                qhorn_core::Expr::universal_bodyless(qhorn_core::VarId(0)),
                qhorn_core::Expr::conj(qhorn_core::VarSet::from_indices([1, 2])),
            ],
        )
        .expect("valid")
    }

    /// A deterministic assorted inventory of `count` boxes covering a
    /// variety of Boolean patterns (a simple multiplicative-congruential
    /// stream keeps this crate dependency-free; statistical quality is
    /// irrelevant here).
    #[must_use]
    pub fn assorted_boxes(count: usize) -> NestedRelation {
        let mut rel = NestedRelation::new(schema());
        let origins = ["Madagascar", "Belgium", "Germany", "Sweden", "Ecuador"];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for b in 0..count {
            let size = 1 + next() % 5;
            let tuples: Vec<DataTuple> = (0..size)
                .map(|_| {
                    let r = next();
                    chocolate(
                        origins[r % origins.len()],
                        r & 8 != 0,
                        r & 16 != 0,
                        r & 32 != 0,
                        r & 64 != 0,
                    )
                })
                .collect();
            rel.push(NestedObject::new(
                DataTuple::new([Value::Str(format!("Box #{b}"))]),
                tuples,
            ))
            .expect("well-typed");
        }
        rel
    }
}

/// A second dataset with integer attributes — exercises the ordering
/// propositions and the interval reasoning in synthesis/interference.
pub mod cellars {
    use super::*;
    use crate::proposition::Cmp;

    /// `Cellar(label, Bottle(vintage, rating, region))`.
    #[must_use]
    pub fn schema() -> NestedSchema {
        NestedSchema::new(
            "Cellar",
            FlatSchema::new([Attr::new("label", AttrType::Str)]).expect("valid"),
            "Bottle",
            FlatSchema::new([
                Attr::new("vintage", AttrType::Int),
                Attr::new("rating", AttrType::Int),
                Attr::new("region", AttrType::Str),
            ])
            .expect("valid"),
        )
    }

    /// Propositions with ordering comparisons:
    /// `x1: vintage ≥ 2010`, `x2: rating ≥ 90`, `x3: region = Rhône`.
    #[must_use]
    pub fn propositions() -> Vec<Proposition> {
        vec![
            Proposition::new("recent", "vintage", Cmp::Ge, Value::Int(2010)),
            Proposition::new("excellent", "rating", Cmp::Ge, Value::Int(90)),
            Proposition::eq("rhone", "region", Value::str("Rhône")),
        ]
    }

    /// A ready-made [`Booleanizer`] over [`propositions`].
    #[must_use]
    pub fn booleanizer() -> Booleanizer {
        Booleanizer::new(schema().embedded.clone(), propositions()).expect("valid propositions")
    }

    /// One bottle in schema order.
    #[must_use]
    pub fn bottle(vintage: i64, rating: i64, region: &str) -> DataTuple {
        DataTuple::new([Value::Int(vintage), Value::Int(rating), Value::str(region)])
    }

    /// Value pools keeping synthesized examples plausible.
    #[must_use]
    pub fn hints() -> DomainHints {
        DomainHints::none()
            .with("vintage", vec![Value::Int(2015), Value::Int(1998)])
            .with("rating", vec![Value::Int(93), Value::Int(84)])
            .with(
                "region",
                vec![
                    Value::str("Bordeaux"),
                    Value::str("Rioja"),
                    Value::str("Mosel"),
                ],
            )
    }

    /// A deterministic cellar inventory of `count` cellars.
    #[must_use]
    pub fn inventory(count: usize) -> NestedRelation {
        let regions = ["Rhône", "Bordeaux", "Rioja", "Mosel", "Barossa"];
        let mut rel = NestedRelation::new(schema());
        let mut state = 0xA5A5_A5A5_DEAD_BEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for c in 0..count {
            let bottles: Vec<DataTuple> = (0..1 + next() % 4)
                .map(|_| {
                    let r = next();
                    bottle(
                        1990 + (r % 35) as i64,
                        80 + (r / 7 % 20) as i64,
                        regions[r % regions.len()],
                    )
                })
                .collect();
            rel.push(NestedObject::new(
                DataTuple::new([Value::Str(format!("Cellar #{c}"))]),
                bottles,
            ))
            .expect("well-typed");
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::chocolates;
    use crate::value::Value;

    #[test]
    fn fig1_has_two_boxes_of_three() {
        let rel = chocolates::fig1_boxes();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.objects[0].tuples.len(), 3);
        assert_eq!(rel.objects[0].attrs.get(0), &Value::str("Global Ground"));
    }

    #[test]
    fn booleanizer_matches_fig1() {
        let b = chocolates::booleanizer();
        let rel = chocolates::fig1_boxes();
        let s1 = b.booleanize_object(&rel.objects[0]).unwrap();
        // Fig. 1 right side, box S1: {111, 000, 110}.
        assert_eq!(s1, qhorn_core::Obj::from_bits("111 000 110"));
        let s2 = b.booleanize_object(&rel.objects[1]).unwrap();
        // Box S2: {100, 110} (two Belgium chocolates collapse).
        assert_eq!(s2, qhorn_core::Obj::from_bits("100 110"));
    }

    #[test]
    fn intro_query_rejects_both_fig1_boxes() {
        // The pedantic logician's hundred boxes: neither Fig. 1 box
        // satisfies the intended query.
        let q = chocolates::intro_query();
        let b = chocolates::booleanizer();
        for obj in &chocolates::fig1_boxes().objects {
            let boolean = b.booleanize_object(obj).unwrap();
            assert!(!q.accepts(&boolean));
        }
    }

    #[test]
    fn cellars_booleanize_with_ordering_propositions() {
        use super::cellars;
        let b = cellars::booleanizer();
        assert!(
            b.check_independence().is_empty(),
            "the three propositions are independent"
        );
        let t = cellars::bottle(2016, 95, "Rhône");
        assert_eq!(b.booleanize_tuple(&t).unwrap().to_bits(), "111");
        let t = cellars::bottle(2001, 95, "Rhône");
        assert_eq!(b.booleanize_tuple(&t).unwrap().to_bits(), "011");
        let t = cellars::bottle(2001, 95, "Rioja");
        assert_eq!(b.booleanize_tuple(&t).unwrap().to_bits(), "010");
    }

    #[test]
    fn cellars_synthesis_solves_intervals() {
        use super::cellars;
        use crate::synthesize::Synthesizer;
        let b = cellars::booleanizer();
        let hints = cellars::hints();
        let synth = Synthesizer::new(&b, &hints);
        for mask in 0u8..8 {
            let bits: String = (0..3)
                .map(|i| if mask & (1 << i) != 0 { '1' } else { '0' })
                .collect();
            let bt = qhorn_core::BoolTuple::from_bits(&bits);
            let tuple = synth
                .synthesize_tuple(&bt)
                .expect("independent propositions");
            assert_eq!(b.booleanize_tuple(&tuple).unwrap(), bt, "pattern {bits}");
        }
    }

    #[test]
    fn cellars_inventory_learnable_end_to_end() {
        use super::cellars;
        // Learn "every bottle recent, some excellent Rhône" from the
        // cellar propositions.
        use qhorn_core::learn::{learn_qhorn1, LearnOptions};
        use qhorn_core::oracle::QueryOracle;
        let intent = qhorn_core::Query::new(
            3,
            [
                qhorn_core::Expr::universal_bodyless(qhorn_core::VarId(0)),
                qhorn_core::Expr::conj(qhorn_core::VarSet::from_indices([1, 2])),
            ],
        )
        .unwrap();
        let mut oracle = QueryOracle::new(intent.clone());
        let got = learn_qhorn1(3, &mut oracle, &LearnOptions::default()).unwrap();
        assert!(qhorn_core::query::equiv::equivalent(got.query(), &intent));
        // And the inventory is well-typed for the binding.
        let b = cellars::booleanizer();
        for obj in &cellars::inventory(20).objects {
            b.booleanize_object(obj).unwrap();
        }
    }

    #[test]
    fn assorted_boxes_deterministic_and_well_typed() {
        let a = chocolates::assorted_boxes(50);
        let b = chocolates::assorted_boxes(50);
        assert_eq!(a.len(), 50);
        assert_eq!(a, b, "deterministic");
        let bridge = chocolates::booleanizer();
        for obj in &a.objects {
            bridge.booleanize_object(obj).unwrap();
            assert!(!obj.tuples.is_empty());
        }
    }
}
