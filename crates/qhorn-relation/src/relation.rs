//! Data tuples, flat relations and nested relations (objects with embedded
//! tuple sets — the paper's boxes of chocolates).

use crate::schema::{FlatSchema, NestedSchema, SchemaError};
use crate::value::Value;
use std::fmt;

/// One tuple of attribute values (positional, checked against a
/// [`FlatSchema`] on insertion into a relation).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct DataTuple {
    values: Vec<Value>,
}

impl DataTuple {
    /// Builds a tuple from values.
    #[must_use]
    pub fn new<I: IntoIterator<Item = Value>>(values: I) -> Self {
        DataTuple {
            values: values.into_iter().collect(),
        }
    }

    /// The values, in schema order.
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at a schema index.
    #[must_use]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Value of a named attribute under `schema`.
    pub fn get_named(&self, schema: &FlatSchema, name: &str) -> Result<&Value, SchemaError> {
        Ok(&self.values[schema.index_of(name)?])
    }
}

impl fmt::Display for DataTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A flat relation: a schema plus a set of tuples (Def. 2.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlatRelation {
    /// The relation's schema.
    pub schema: FlatSchema,
    tuples: Vec<DataTuple>,
}

impl FlatRelation {
    /// An empty relation over `schema`.
    #[must_use]
    pub fn new(schema: FlatSchema) -> Self {
        FlatRelation {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Inserts a tuple after validating it against the schema.
    pub fn push(&mut self, t: DataTuple) -> Result<(), SchemaError> {
        self.schema.check_tuple(t.values())?;
        self.tuples.push(t);
        Ok(())
    }

    /// The tuples.
    #[must_use]
    pub fn tuples(&self) -> &[DataTuple] {
        &self.tuples
    }

    /// Number of tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff the relation has no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// One object of a nested relation: object-level attributes plus the
/// embedded tuple set (a box of chocolates).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NestedObject {
    /// Object-level attribute values (e.g. the box's name).
    pub attrs: DataTuple,
    /// The embedded tuples (the chocolates).
    pub tuples: Vec<DataTuple>,
}

impl NestedObject {
    /// Convenience constructor.
    #[must_use]
    pub fn new(attrs: DataTuple, tuples: Vec<DataTuple>) -> Self {
        NestedObject { attrs, tuples }
    }
}

/// `attrs ⟨t1, t2, …⟩`: the text a question's object is shown as.
impl fmt::Display for NestedObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ⟨", self.attrs)?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str("⟩")
    }
}

/// A nested relation: schema plus objects.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NestedRelation {
    /// The nested schema.
    pub schema: NestedSchema,
    /// The objects.
    pub objects: Vec<NestedObject>,
}

impl NestedRelation {
    /// An empty nested relation.
    #[must_use]
    pub fn new(schema: NestedSchema) -> Self {
        NestedRelation {
            schema,
            objects: Vec::new(),
        }
    }

    /// Inserts an object after validating object attributes and every
    /// embedded tuple.
    pub fn push(&mut self, o: NestedObject) -> Result<(), SchemaError> {
        self.schema.object_attrs.check_tuple(o.attrs.values())?;
        for t in &o.tuples {
            self.schema.embedded.check_tuple(t.values())?;
        }
        self.objects.push(o);
        Ok(())
    }

    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` iff there are no objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attr;
    use crate::value::AttrType;

    fn chocolate_schema() -> FlatSchema {
        FlatSchema::new([
            Attr::new("isDark", AttrType::Bool),
            Attr::new("origin", AttrType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn flat_relation_validates_on_push() {
        let mut r = FlatRelation::new(chocolate_schema());
        assert!(r.is_empty());
        r.push(DataTuple::new([Value::Bool(true), Value::str("Belgium")]))
            .unwrap();
        assert_eq!(r.len(), 1);
        let err = r.push(DataTuple::new([Value::str("oops"), Value::str("Belgium")]));
        assert!(err.is_err());
        assert_eq!(r.len(), 1, "invalid tuple not inserted");
    }

    #[test]
    fn named_access() {
        let t = DataTuple::new([Value::Bool(true), Value::str("Belgium")]);
        let s = chocolate_schema();
        assert_eq!(t.get_named(&s, "origin").unwrap(), &Value::str("Belgium"));
        assert!(t.get_named(&s, "cocoa").is_err());
        assert_eq!(t.get(0), &Value::Bool(true));
    }

    #[test]
    fn tuple_display() {
        let t = DataTuple::new([Value::Bool(true), Value::str("Belgium")]);
        assert_eq!(t.to_string(), "(true, \"Belgium\")");
    }

    #[test]
    fn object_display() {
        let o = NestedObject::new(
            DataTuple::new([Value::str("Box")]),
            vec![
                DataTuple::new([Value::Bool(true), Value::str("Belgium")]),
                DataTuple::new([Value::Bool(false), Value::str("Peru")]),
            ],
        );
        assert_eq!(
            o.to_string(),
            "(\"Box\") ⟨(true, \"Belgium\"), (false, \"Peru\")⟩"
        );
        let empty = NestedObject::new(DataTuple::new([Value::str("Box")]), Vec::new());
        assert_eq!(empty.to_string(), "(\"Box\") ⟨⟩");
    }

    #[test]
    fn nested_relation_validates_embedded_tuples() {
        let schema = NestedSchema::new(
            "Box",
            FlatSchema::new([Attr::new("name", AttrType::Str)]).unwrap(),
            "Chocolate",
            chocolate_schema(),
        );
        let mut rel = NestedRelation::new(schema);
        let ok = NestedObject::new(
            DataTuple::new([Value::str("Global Ground")]),
            vec![DataTuple::new([
                Value::Bool(true),
                Value::str("Madagascar"),
            ])],
        );
        rel.push(ok).unwrap();
        assert_eq!(rel.len(), 1);
        let bad = NestedObject::new(
            DataTuple::new([Value::str("Broken")]),
            vec![DataTuple::new([Value::Int(7), Value::str("Madagascar")])],
        );
        assert!(rel.push(bad).is_err());
        assert_eq!(rel.len(), 1);
    }
}
