//! User-defined dataset definitions — the unit a client uploads to the
//! learning service and the unit the durable store logs, so a session over
//! a user's own data (the setting of §1/§5: the examples are *their*
//! chocolate boxes, not ours) survives a server restart.
//!
//! A [`DatasetDef`] bundles everything the service needs to rebuild the
//! dataset from nothing: the nested relation (schema + objects), the
//! propositions binding Boolean variables `x1..xn` over the embedded
//! schema, and optional synthesis hints. [`DatasetDef::validate`] runs the
//! semantic checks that JSON structure alone cannot express.

use crate::binding::Booleanizer;
use crate::proposition::Proposition;
use crate::relation::NestedRelation;
use crate::synthesize::DomainHints;
use std::fmt;

/// Longest accepted dataset name (names appear in URLs, log lines, and
/// error messages).
pub const MAX_NAME_LEN: usize = 64;

/// Most propositions one dataset may bind. The learner's question count
/// is polynomial in `n`, but the subset-space structures behind
/// verification are not — and `n` arrives from the wire.
pub const MAX_PROPOSITIONS: usize = 64;

/// A complete user-defined dataset: name, data, propositions, hints.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetDef {
    /// Catalog name the dataset registers under.
    pub name: String,
    /// The nested relation (schema + objects).
    pub relation: NestedRelation,
    /// Propositions binding `x1..xn` over the embedded schema.
    pub propositions: Vec<Proposition>,
    /// Preferred values for synthesized examples (may be empty).
    pub hints: DomainHints,
}

/// Why a [`DatasetDef`] was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefError(String);

impl DefError {
    fn new(msg: impl Into<String>) -> Self {
        DefError(msg.into())
    }
}

impl fmt::Display for DefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DefError {}

impl DatasetDef {
    /// Runs every semantic check and returns the ready [`Booleanizer`]:
    /// the name is usable, at least one (and at most
    /// [`MAX_PROPOSITIONS`]) propositions are bound, every proposition
    /// validates against the embedded schema, proposition names are
    /// distinct, and every hint value's type matches its attribute —
    /// the synthesizer trusts hints, so an unchecked wrong-typed hint
    /// would surface as a mis-realized question mid-session. (Objects
    /// were already validated against the schema at construction/parse
    /// time.)
    ///
    /// # Errors
    /// [`DefError`] naming the first violated rule.
    pub fn validate(&self) -> Result<Booleanizer, DefError> {
        if self.name.is_empty() {
            return Err(DefError::new("dataset name must not be empty"));
        }
        if self.name.len() > MAX_NAME_LEN {
            return Err(DefError::new(format!(
                "dataset name exceeds {MAX_NAME_LEN} bytes"
            )));
        }
        if self
            .name
            .chars()
            .any(|c| c.is_control() || c.is_whitespace())
        {
            return Err(DefError::new(
                "dataset name must not contain whitespace or control characters",
            ));
        }
        if self.propositions.is_empty() {
            return Err(DefError::new(
                "a dataset needs at least one proposition to learn over",
            ));
        }
        if self.propositions.len() > MAX_PROPOSITIONS {
            return Err(DefError::new(format!(
                "{} propositions exceed the maximum of {MAX_PROPOSITIONS}",
                self.propositions.len()
            )));
        }
        for (i, p) in self.propositions.iter().enumerate() {
            if self.propositions[..i].iter().any(|q| q.name == p.name) {
                return Err(DefError::new(format!(
                    "duplicate proposition name {:?}",
                    p.name
                )));
            }
        }
        for (attr, values) in self.hints.entries() {
            let ty = self
                .relation
                .schema
                .embedded
                .type_of(attr)
                .map_err(|e| DefError::new(format!("hint {e}")))?;
            for v in values {
                if v.attr_type() != ty {
                    return Err(DefError::new(format!(
                        "hint value {v} for attribute {attr:?} is {}, expected {ty}",
                        v.attr_type()
                    )));
                }
            }
        }
        Booleanizer::new(
            self.relation.schema.embedded.clone(),
            self.propositions.clone(),
        )
        .map_err(|e| DefError::new(e.to_string()))
    }
}

// The relation's `schema` and `objects` sit beside the name (decoding
// runs NestedRelation's schema validation of every object); hints are
// optional on the wire (absent or null = none).
qhorn_json::wire! {
    struct DatasetDef {
        name: String,
        relation: NestedRelation [flatten],
        propositions: Vec<Proposition>,
        hints: DomainHints [default],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::chocolates;
    use crate::value::Value;
    use qhorn_json::{Json, ToJson};

    fn def() -> DatasetDef {
        DatasetDef {
            name: "my-shop".into(),
            relation: chocolates::fig1_boxes(),
            propositions: chocolates::propositions(),
            hints: chocolates::hints(),
        }
    }

    #[test]
    fn valid_definition_round_trips_and_validates() {
        let d = def();
        let bridge = d.validate().unwrap();
        assert_eq!(bridge.n(), 3);
        let line = qhorn_json::to_string(&d);
        let back: DatasetDef = qhorn_json::from_str(&line).unwrap();
        assert_eq!(back.name, d.name);
        assert_eq!(back.relation, d.relation);
        assert_eq!(back.propositions, d.propositions);
        assert_eq!(qhorn_json::to_string(&back), line);
    }

    #[test]
    fn hints_are_optional_on_the_wire() {
        let mut j = def().to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "hints");
        }
        let back: DatasetDef = qhorn_json::from_str(&j.to_compact()).unwrap();
        assert!(back.hints.entries().next().is_none());
        back.validate().unwrap();
        // Explicit null works too.
        if let Json::Obj(pairs) = &mut j {
            pairs.push(("hints".into(), Json::Null));
        }
        let back: DatasetDef = qhorn_json::from_str(&j.to_compact()).unwrap();
        assert!(back.hints.entries().next().is_none());
    }

    #[test]
    fn validation_rejects_bad_definitions() {
        let mut d = def();
        d.name = String::new();
        assert!(d.validate().is_err());

        let mut d = def();
        d.name = "has space".into();
        assert!(d.validate().is_err());

        let mut d = def();
        d.name = "x".repeat(MAX_NAME_LEN + 1);
        assert!(d.validate().is_err());

        let mut d = def();
        d.propositions.clear();
        assert!(d.validate().is_err());

        let mut d = def();
        d.propositions.push(d.propositions[0].clone());
        let err = d.validate().unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");

        // A proposition over an attribute the embedded schema lacks.
        let mut d = def();
        d.propositions
            .push(Proposition::is_true("px", "noSuchAttr"));
        assert!(d.validate().is_err());

        // A proposition whose constant type mismatches the attribute.
        let mut d = def();
        d.propositions
            .push(Proposition::eq("px", "isDark", Value::Int(1)));
        assert!(d.validate().is_err());

        // A hint over an attribute the embedded schema lacks.
        let mut d = def();
        d.hints = d.hints.with("noSuchAttr", vec![Value::str("x")]);
        let err = d.validate().unwrap_err();
        assert!(err.to_string().contains("noSuchAttr"), "{err}");

        // A hint value whose type mismatches the attribute — the
        // synthesizer would otherwise realize wrong-typed questions.
        let mut d = def();
        d.hints = d.hints.with("origin", vec![Value::Int(7)]);
        let err = d.validate().unwrap_err();
        assert!(err.to_string().contains("expected string"), "{err}");
    }
}
