//! Propositions — the Boolean atoms users write over embedded-relation
//! attributes (§2: `p1: c.isDark`, `p3: c.origin = Madagascar`).

use crate::schema::{FlatSchema, SchemaError};
use crate::value::{AttrType, Value};
use std::fmt;

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Cmp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<` (integers only)
    Lt,
    /// `≤` (integers only)
    Le,
    /// `>` (integers only)
    Gt,
    /// `≥` (integers only)
    Ge,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Eq => "=",
            Cmp::Ne => "≠",
            Cmp::Lt => "<",
            Cmp::Le => "≤",
            Cmp::Gt => ">",
            Cmp::Ge => "≥",
        };
        f.write_str(s)
    }
}

/// Proposition errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PropError {
    /// Schema lookup or type failure.
    Schema(SchemaError),
    /// An ordering comparison on a non-integer attribute.
    OrderingOnNonInt {
        /// The proposition name.
        prop: String,
        /// The attribute's type.
        ty: AttrType,
    },
}

impl fmt::Display for PropError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropError::Schema(e) => write!(f, "{e}"),
            PropError::OrderingOnNonInt { prop, ty } => {
                write!(f, "proposition {prop:?} orders a {ty} attribute")
            }
        }
    }
}

impl std::error::Error for PropError {}

impl From<SchemaError> for PropError {
    fn from(e: SchemaError) -> Self {
        PropError::Schema(e)
    }
}

/// A proposition `attr cmp constant` over the embedded relation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Proposition {
    /// Display name (`p1`, `isDark`, …).
    pub name: String,
    /// Attribute the proposition tests.
    pub attr: String,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand constant.
    pub rhs: Value,
}

impl Proposition {
    /// `attr = constant`.
    #[must_use]
    pub fn eq(name: &str, attr: &str, rhs: Value) -> Self {
        Proposition {
            name: name.to_string(),
            attr: attr.to_string(),
            cmp: Cmp::Eq,
            rhs,
        }
    }

    /// `attr` is a true Boolean (`p1: c.isDark`).
    #[must_use]
    pub fn is_true(name: &str, attr: &str) -> Self {
        Proposition::eq(name, attr, Value::Bool(true))
    }

    /// General constructor.
    #[must_use]
    pub fn new(name: &str, attr: &str, cmp: Cmp, rhs: Value) -> Self {
        Proposition {
            name: name.to_string(),
            attr: attr.to_string(),
            cmp,
            rhs,
        }
    }

    /// Validates the proposition against a schema: the attribute exists,
    /// the constant's type matches, and ordering operators apply only to
    /// integers. Returns the attribute's position in the schema.
    pub fn validate(&self, schema: &FlatSchema) -> Result<usize, PropError> {
        let pos = schema.index_of(&self.attr)?;
        let ty = schema.attrs()[pos].ty;
        if ty != self.rhs.attr_type() {
            return Err(SchemaError::TypeMismatch {
                attr: self.attr.clone(),
                expected: ty,
                got: self.rhs.attr_type(),
            }
            .into());
        }
        if matches!(self.cmp, Cmp::Lt | Cmp::Le | Cmp::Gt | Cmp::Ge) && ty != AttrType::Int {
            return Err(PropError::OrderingOnNonInt {
                prop: self.name.clone(),
                ty,
            });
        }
        Ok(pos)
    }

    /// Evaluates the proposition on a tuple.
    pub fn eval(
        &self,
        tuple: &crate::relation::DataTuple,
        schema: &FlatSchema,
    ) -> Result<bool, PropError> {
        self.eval_value(tuple.get_named(schema, &self.attr)?)
    }

    /// Evaluates the proposition on its attribute's value.
    ///
    /// # Errors
    /// [`PropError::OrderingOnNonInt`] when an ordering meets a
    /// non-integer value.
    pub fn eval_value(&self, v: &Value) -> Result<bool, PropError> {
        Ok(match (self.cmp, v, &self.rhs) {
            (Cmp::Eq, a, b) => a == b,
            (Cmp::Ne, a, b) => a != b,
            (Cmp::Lt, Value::Int(a), Value::Int(b)) => a < b,
            (Cmp::Le, Value::Int(a), Value::Int(b)) => a <= b,
            (Cmp::Gt, Value::Int(a), Value::Int(b)) => a > b,
            (Cmp::Ge, Value::Int(a), Value::Int(b)) => a >= b,
            _ => {
                return Err(PropError::OrderingOnNonInt {
                    prop: self.name.clone(),
                    ty: v.attr_type(),
                })
            }
        })
    }
}

impl fmt::Display for Proposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} {} {}", self.name, self.attr, self.cmp, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::DataTuple;
    use crate::schema::{Attr, FlatSchema};

    fn schema() -> FlatSchema {
        FlatSchema::new([
            Attr::new("isDark", AttrType::Bool),
            Attr::new("origin", AttrType::Str),
            Attr::new("cocoa", AttrType::Int),
        ])
        .unwrap()
    }

    fn tuple() -> DataTuple {
        DataTuple::new([Value::Bool(true), Value::str("Madagascar"), Value::Int(72)])
    }

    #[test]
    fn paper_propositions_evaluate() {
        let s = schema();
        let t = tuple();
        assert!(Proposition::is_true("p1", "isDark").eval(&t, &s).unwrap());
        assert!(Proposition::eq("p3", "origin", Value::str("Madagascar"))
            .eval(&t, &s)
            .unwrap());
        assert!(!Proposition::eq("pb", "origin", Value::str("Belgium"))
            .eval(&t, &s)
            .unwrap());
    }

    #[test]
    fn integer_orderings() {
        let s = schema();
        let t = tuple();
        assert!(Proposition::new("hi", "cocoa", Cmp::Ge, Value::Int(70))
            .eval(&t, &s)
            .unwrap());
        assert!(!Proposition::new("lo", "cocoa", Cmp::Lt, Value::Int(50))
            .eval(&t, &s)
            .unwrap());
        assert!(Proposition::new("ne", "cocoa", Cmp::Ne, Value::Int(50))
            .eval(&t, &s)
            .unwrap());
    }

    #[test]
    fn validation_catches_bad_props() {
        let s = schema();
        assert!(Proposition::is_true("p", "isDark").validate(&s).is_ok());
        assert!(Proposition::is_true("p", "nope").validate(&s).is_err());
        assert!(Proposition::eq("p", "isDark", Value::Int(1))
            .validate(&s)
            .is_err());
        assert!(matches!(
            Proposition::new("p", "origin", Cmp::Lt, Value::str("A")).validate(&s),
            Err(PropError::OrderingOnNonInt { .. })
        ));
    }

    #[test]
    fn eval_ordering_on_string_errors() {
        let s = schema();
        let t = tuple();
        assert!(Proposition::new("p", "origin", Cmp::Lt, Value::str("Z"))
            .eval(&t, &s)
            .is_err());
    }

    #[test]
    fn display() {
        let p = Proposition::eq("p3", "origin", Value::str("Madagascar"));
        assert_eq!(p.to_string(), "p3: origin = \"Madagascar\"");
    }
}
