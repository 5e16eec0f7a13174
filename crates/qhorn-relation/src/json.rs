//! JSON wire formats for the data-domain types, so nested relations,
//! propositions, and synthesis hints can travel over the service protocol
//! (user-uploaded datasets) and rest in the durable store.
//!
//! Shapes are chosen for hand-writability — a user uploads a dataset with
//! `curl`, so the JSON mirrors how one would describe the data aloud:
//!
//! ```text
//! schema:      {"name":"Box","attrs":[{"name":"name","type":"string"}],
//!               "embedded_name":"Chocolate",
//!               "embedded":[{"name":"isDark","type":"bool"},...]}
//! proposition: {"name":"p1","attr":"isDark","cmp":"=","value":true}
//! object:      {"attrs":["Global Ground"],"tuples":[[true,false,"Belgium"],...]}
//! hints:       {"origin":["Belgium","Sweden"]}
//! ```
//!
//! Scalar [`Value`]s serialize as plain JSON scalars (the type is
//! recoverable from the JSON kind), so tuples are bare arrays. `FromJson`
//! validates structure only; semantic validation (tuples against schemas,
//! propositions against attributes) stays with the constructors —
//! [`NestedRelation::from_json`] runs it because objects cannot even be
//! represented unchecked.

use crate::proposition::{Cmp, Proposition};
use crate::relation::{DataTuple, NestedObject, NestedRelation};
use crate::schema::{Attr, FlatSchema, NestedSchema};
use crate::synthesize::DomainHints;
use crate::value::{AttrType, Value};
use qhorn_json::wire::map;
use qhorn_json::{FromJson, Json, JsonError, ToJson};

qhorn_json::wire! {
    enum AttrType string "attribute type" { Bool = "bool", Int = "int", Str = "string" }
}

impl ToJson for Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Bool(b) => Json::Bool(*b),
            Value::Int(i) => Json::I64(*i),
            Value::Str(s) => Json::Str(s.clone()),
        }
    }
}

impl FromJson for Value {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Bool(b) => Ok(Value::Bool(*b)),
            Json::Str(s) => Ok(Value::Str(s.clone())),
            _ => j
                .as_i64()
                .map(Value::Int)
                .ok_or_else(|| JsonError::msg("value must be a bool, integer, or string")),
        }
    }
}

qhorn_json::wire! {
    struct Attr { name: String, ty as "type": AttrType }
}

impl ToJson for FlatSchema {
    fn to_json(&self) -> Json {
        self.attrs().to_vec().to_json()
    }
}

impl FromJson for FlatSchema {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let attrs = Vec::<Attr>::from_json(j)?;
        FlatSchema::new(attrs).map_err(|e| JsonError::msg(e.to_string()))
    }
}

qhorn_json::wire! {
    struct NestedSchema {
        name: String,
        object_attrs as "attrs": FlatSchema,
        embedded_name: String,
        embedded: FlatSchema,
    }
}

impl ToJson for Cmp {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Cmp::Eq => "=",
                Cmp::Ne => "!=",
                Cmp::Lt => "<",
                Cmp::Le => "<=",
                Cmp::Gt => ">",
                Cmp::Ge => ">=",
            }
            .into(),
        )
    }
}

impl FromJson for Cmp {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_str() {
            Some("=") => Ok(Cmp::Eq),
            Some("!=") => Ok(Cmp::Ne),
            Some("<") => Ok(Cmp::Lt),
            Some("<=") => Ok(Cmp::Le),
            Some(">") => Ok(Cmp::Gt),
            Some(">=") => Ok(Cmp::Ge),
            Some(other) => Err(JsonError::msg(format!("unknown comparison `{other}`"))),
            None => Err(JsonError::msg("comparison must be a string")),
        }
    }
}

// Omitted `cmp` means equality — the overwhelmingly common case for
// hand-written uploads (`isDark = true`).
qhorn_json::wire! {
    struct Proposition {
        name: String,
        attr: String,
        cmp: Cmp [default = Cmp::Eq],
        rhs as "value": Value,
    }
}

impl ToJson for DataTuple {
    fn to_json(&self) -> Json {
        self.values().to_vec().to_json()
    }
}

impl FromJson for DataTuple {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(DataTuple::new(Vec::<Value>::from_json(j)?))
    }
}

qhorn_json::wire! {
    struct NestedObject { attrs: DataTuple, tuples: Vec<DataTuple> }
}

qhorn_json::wire! {
    struct NestedRelation { schema: NestedSchema, objects: Vec<NestedObject> } check validated
}

/// Schema validation happens here: a type mismatch or arity error in any
/// tuple rejects the whole relation.
fn validated(decoded: NestedRelation) -> Result<NestedRelation, JsonError> {
    let mut rel = NestedRelation::new(decoded.schema);
    for o in decoded.objects {
        rel.push(o).map_err(|e| JsonError::msg(e.to_string()))?;
    }
    Ok(rel)
}

/// An object of `attr → value array`.
impl ToJson for DomainHints {
    fn to_json(&self) -> Json {
        let entries: Vec<(&str, Vec<Value>)> = self
            .entries()
            .map(|(attr, values)| (attr, values.to_vec()))
            .collect();
        map::to_json(&entries)
    }
}

impl FromJson for DomainHints {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(map::from_json::<Vec<Value>>(j)?
            .into_iter()
            .fold(DomainHints::none(), |hints, (attr, values)| {
                hints.with(&attr, values)
            }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{cellars, chocolates};
    use proptest::prelude::*;

    fn round_trip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: &T) {
        let line = qhorn_json::to_string(v);
        assert!(!line.contains('\n'), "wire format is one line: {line}");
        let back: T = qhorn_json::from_str(&line).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn builtin_schemas_round_trip() {
        round_trip(&chocolates::schema());
        round_trip(&cellars::schema());
    }

    #[test]
    fn builtin_relations_round_trip() {
        round_trip(&chocolates::fig1_boxes());
        round_trip(&chocolates::assorted_boxes(12));
        round_trip(&cellars::inventory(8));
    }

    #[test]
    fn builtin_propositions_round_trip() {
        for p in chocolates::propositions() {
            round_trip(&p);
        }
        for p in cellars::propositions() {
            round_trip(&p);
        }
    }

    #[test]
    fn builtin_hints_round_trip() {
        for hints in [chocolates::hints(), cellars::hints(), DomainHints::none()] {
            let line = qhorn_json::to_string(&hints);
            let back: DomainHints = qhorn_json::from_str(&line).unwrap();
            assert_eq!(back, hints);
        }
    }

    #[test]
    fn omitted_cmp_defaults_to_equality() {
        let p: Proposition =
            qhorn_json::from_str(r#"{"name":"p1","attr":"isDark","value":true}"#).unwrap();
        assert_eq!(p, Proposition::is_true("p1", "isDark"));
    }

    #[test]
    fn malformed_inputs_are_rejected_with_reasons() {
        // Duplicate attribute names.
        let err = qhorn_json::from_str::<FlatSchema>(
            r#"[{"name":"a","type":"bool"},{"name":"a","type":"int"}]"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        // Unknown attribute type.
        assert!(qhorn_json::from_str::<FlatSchema>(r#"[{"name":"a","type":"float"}]"#).is_err());
        // Object tuple violating the embedded schema.
        let bad = r#"{
            "schema":{"name":"Box","attrs":[{"name":"name","type":"string"}],
                      "embedded_name":"C","embedded":[{"name":"isDark","type":"bool"}]},
            "objects":[{"attrs":["b1"],"tuples":[[7]]}]
        }"#;
        let err = qhorn_json::from_str::<NestedRelation>(bad).unwrap_err();
        assert!(err.to_string().contains("isDark"), "{err}");
        // Wrong object-level arity.
        let bad = r#"{
            "schema":{"name":"Box","attrs":[{"name":"name","type":"string"}],
                      "embedded_name":"C","embedded":[{"name":"isDark","type":"bool"}]},
            "objects":[{"attrs":[],"tuples":[]}]
        }"#;
        assert!(qhorn_json::from_str::<NestedRelation>(bad).is_err());
        // Null is not a value.
        assert!(qhorn_json::from_str::<Value>("null").is_err());
    }

    // -- property round trips ------------------------------------------------
    //
    // The vendored proptest stand-in has no `prop_flat_map`, so dependent
    // structures (tuples typed by a generated schema) are built from a
    // `u64` seed with a small deterministic stream instead.

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            // The vendored range strategy mishandles negative bounds;
            // shift a non-negative draw instead.
            (0i64..8_000_000_000_000i64).prop_map(|v| Value::Int(v - 4_000_000_000_000)),
            "\\PC{0,12}".prop_map(Value::Str),
        ]
    }

    fn arb_cmp() -> impl Strategy<Value = Cmp> {
        prop_oneof![
            Just(Cmp::Eq),
            Just(Cmp::Ne),
            Just(Cmp::Lt),
            Just(Cmp::Le),
            Just(Cmp::Gt),
            Just(Cmp::Ge),
        ]
    }

    fn type_of_code(code: u8) -> AttrType {
        match code % 3 {
            0 => AttrType::Bool,
            1 => AttrType::Int,
            _ => AttrType::Str,
        }
    }

    /// Distinctly named attributes (`<prefix>0..`, types from codes).
    fn schema_from(codes: &[u8], prefix: &str) -> FlatSchema {
        FlatSchema::new(
            codes
                .iter()
                .enumerate()
                .map(|(i, &c)| Attr::new(&format!("{prefix}{i}"), type_of_code(c))),
        )
        .expect("generated names are distinct")
    }

    fn nested_schema_from(obj_codes: &[u8], emb_codes: &[u8]) -> NestedSchema {
        NestedSchema {
            name: "R".into(),
            object_attrs: schema_from(obj_codes, "o"),
            embedded_name: "E".into(),
            embedded: schema_from(emb_codes, "e"),
        }
    }

    fn next(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// One value of exactly the given type, drawn from the seed stream.
    fn value_of(ty: AttrType, state: &mut u64) -> Value {
        let r = next(state);
        match ty {
            AttrType::Bool => Value::Bool(r & 1 == 1),
            AttrType::Int => Value::Int(r as i64 - (1 << 30)),
            AttrType::Str => Value::Str(format!("s{}", r % 7)),
        }
    }

    fn tuple_for(schema: &FlatSchema, state: &mut u64) -> DataTuple {
        DataTuple::new(schema.attrs().iter().map(|a| value_of(a.ty, state)))
    }

    fn relation_from(
        obj_codes: &[u8],
        emb_codes: &[u8],
        seed: u64,
        objects: usize,
    ) -> NestedRelation {
        let schema = nested_schema_from(obj_codes, emb_codes);
        let mut state = seed | 1;
        let mut rel = NestedRelation::new(schema);
        for _ in 0..objects {
            let attrs = tuple_for(&rel.schema.object_attrs, &mut state);
            let tuples = (0..next(&mut state) % 4)
                .map(|_| tuple_for(&rel.schema.embedded, &mut state))
                .collect();
            rel.push(NestedObject::new(attrs, tuples))
                .expect("generated objects are well-typed");
        }
        rel
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn values_round_trip(v in arb_value()) {
            let line = qhorn_json::to_string(&v);
            prop_assert_eq!(qhorn_json::from_str::<Value>(&line).unwrap(), v);
        }

        #[test]
        fn nested_schemas_round_trip(
            obj_codes in prop::collection::vec(0u8..3, 1..5),
            emb_codes in prop::collection::vec(0u8..3, 1..5),
        ) {
            let s = nested_schema_from(&obj_codes, &emb_codes);
            let line = qhorn_json::to_string(&s);
            prop_assert_eq!(qhorn_json::from_str::<NestedSchema>(&line).unwrap(), s);
        }

        #[test]
        fn propositions_round_trip(
            seed in any::<u64>(),
            attr in "\\PC{1,8}",
            cmp in arb_cmp(),
            rhs in arb_value(),
        ) {
            let p = Proposition { name: format!("p{}", seed % 1000), attr, cmp, rhs };
            let line = qhorn_json::to_string(&p);
            prop_assert_eq!(qhorn_json::from_str::<Proposition>(&line).unwrap(), p);
        }

        #[test]
        fn relations_round_trip(
            obj_codes in prop::collection::vec(0u8..3, 1..4),
            emb_codes in prop::collection::vec(0u8..3, 1..5),
            seed in any::<u64>(),
            objects in 0usize..5,
        ) {
            let rel = relation_from(&obj_codes, &emb_codes, seed, objects);
            let line = qhorn_json::to_string(&rel);
            prop_assert_eq!(qhorn_json::from_str::<NestedRelation>(&line).unwrap(), rel);
        }

        #[test]
        fn hints_round_trip(
            codes in prop::collection::vec(0u8..3, 0..4),
            seed in any::<u64>(),
        ) {
            let mut state = seed | 1;
            let mut hints = DomainHints::none();
            for (i, &c) in codes.iter().enumerate() {
                let values: Vec<Value> = (0..next(&mut state) % 3)
                    .map(|_| value_of(type_of_code(c), &mut state))
                    .collect();
                hints = hints.with(&format!("a{i}"), values);
            }
            let line = qhorn_json::to_string(&hints);
            let back: DomainHints = qhorn_json::from_str(&line).unwrap();
            prop_assert_eq!(back, hints);
        }
    }
}
