//! JSON persistence for Boolean-domain stores and learned queries, plus
//! the wire encodings of a session's parts.
//!
//! Learned queries and labeled example stores are the durable artifacts of
//! a DataPlay-style session; this module serializes both so sessions can
//! resume and learned queries can be shipped to other systems. It also
//! encodes transcript [`Exchange`]s, [`LearnerKind`]s and `Correct`
//! index pairs ([`corrections`]), the pieces `qhorn-store`'s log records
//! and session snapshots are built from.

use crate::session::{Exchange, LearnerKind};
use crate::storage::Store;
use qhorn_core::{Obj, Query, Response};
use qhorn_json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// Persistence failures.
#[derive(Debug)]
pub enum PersistError {
    /// JSON (de)serialization failed.
    Json(JsonError),
    /// The payload is structurally inconsistent (e.g. mixed arities).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Json(e) => write!(f, "json error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt store payload: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<JsonError> for PersistError {
    fn from(e: JsonError) -> Self {
        PersistError::Json(e)
    }
}

struct StorePayload {
    arity: u16,
    objects: Vec<Obj>,
}

qhorn_json::wire! {
    struct StorePayload { arity: u16, objects: Vec<Obj> }
}

/// Serializes a store (arity + objects, ids preserved by position).
///
/// # Errors
/// [`PersistError::Json`] if serialization fails (it cannot for stores).
pub fn store_to_json(store: &Store) -> Result<String, PersistError> {
    let payload = StorePayload {
        arity: store.arity(),
        objects: store.iter().map(|(_, o)| o.clone()).collect(),
    };
    Ok(qhorn_json::to_string_pretty(&payload))
}

/// Deserializes a store; object ids are assigned in payload order, so a
/// round trip preserves ids.
///
/// # Errors
/// [`PersistError`] on malformed JSON or arity inconsistencies.
pub fn store_from_json(json: &str) -> Result<Store, PersistError> {
    let payload: StorePayload = qhorn_json::from_str(json)?;
    let mut store = Store::new(payload.arity);
    for obj in payload.objects {
        if obj.arity() != payload.arity {
            return Err(PersistError::Corrupt(format!(
                "object arity {} ≠ store arity {}",
                obj.arity(),
                payload.arity
            )));
        }
        store.insert(obj);
    }
    Ok(store)
}

/// Serializes a query (expressions + arity).
///
/// # Errors
/// [`PersistError::Json`] if serialization fails (it cannot for queries).
pub fn query_to_json(query: &Query) -> Result<String, PersistError> {
    Ok(qhorn_json::to_string_pretty(query))
}

/// Deserializes a query.
///
/// # Errors
/// [`PersistError::Json`] on malformed JSON or invalid expressions.
pub fn query_from_json(json: &str) -> Result<Query, PersistError> {
    Ok(qhorn_json::from_str(json)?)
}

qhorn_json::wire! {
    struct Exchange { question: Obj, from_store: bool, response: Response }
}

impl ToJson for LearnerKind {
    fn to_json(&self) -> Json {
        Json::Str(self.wire_name().into())
    }

    fn write_json(&self, out: &mut String) {
        self.wire_name().write_json(out);
    }
}

impl FromJson for LearnerKind {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let name = String::from_json(j)?;
        LearnerKind::from_wire(&name)
            .ok_or_else(|| JsonError::msg(format!("unknown learner `{name}`")))
    }
}

/// `[with = corrections]`: `(transcript index, corrected label)` pairs as
/// `[index, response]` arrays (the `correct` request and the store's
/// `corrected` record).
pub mod corrections {
    use qhorn_core::Response;
    use qhorn_json::{FromJson, Json, JsonError, ToJson};

    /// Encodes each pair as a two-element array.
    #[must_use]
    pub fn to_json(pairs: &[(usize, Response)]) -> Json {
        Json::array(
            pairs
                .iter()
                .map(|(i, r)| Json::array([i.to_json(), r.to_json()])),
        )
    }

    /// Writes the same encoding as [`to_json`] straight into `out`.
    pub fn write_json(pairs: &[(usize, Response)], out: &mut String) {
        out.push('[');
        for (k, (i, r)) in pairs.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push('[');
            i.write_json(out);
            out.push(',');
            r.write_json(out);
            out.push(']');
        }
        out.push(']');
    }

    /// Decodes `[[index, response], ...]`.
    ///
    /// # Errors
    /// [`JsonError`] when the value is not an array of `[index, response]`.
    pub fn from_json(j: &Json) -> Result<Vec<(usize, Response)>, JsonError> {
        let pairs = j
            .as_arr()
            .ok_or_else(|| JsonError::msg("corrections must be an array"))?;
        pairs
            .iter()
            .map(|p| match p.as_arr() {
                Some([i, r]) => Ok((usize::from_json(i)?, Response::from_json(r)?)),
                _ => Err(JsonError::msg("correction must be [index, response]")),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::plan::CompiledQuery;
    use qhorn_lang::parse_with_arity;

    fn store() -> Store {
        let mut s = Store::new(3);
        s.insert(Obj::from_bits("111"));
        s.insert(Obj::from_bits("110 011"));
        s.insert(Obj::from_bits("001"));
        s
    }

    #[test]
    fn store_round_trips_with_ids_and_index() {
        let original = store();
        let json = store_to_json(&original).unwrap();
        let loaded = store_from_json(&json).unwrap();
        assert_eq!(loaded.len(), original.len());
        for (id, obj) in original.iter() {
            assert_eq!(loaded.get(id), obj);
        }
        // The signature index is rebuilt on load.
        assert_eq!(
            loaded.find_by_signature(&Obj::from_bits("011 110")),
            original.find_by_signature(&Obj::from_bits("110 011"))
        );
    }

    #[test]
    fn query_round_trips_and_still_executes() {
        let q = parse_with_arity("all x1 -> x2; some x3", 3).unwrap();
        let json = query_to_json(&q).unwrap();
        let loaded = query_from_json(&json).unwrap();
        assert_eq!(loaded, q);
        let s = store();
        let a = exec::execute(&CompiledQuery::compile(&q), &s);
        let b = exec::execute(&CompiledQuery::compile(&loaded), &s);
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        assert!(matches!(
            store_from_json("not json"),
            Err(PersistError::Json(_))
        ));
        // Arity mismatch inside the payload.
        let bad =
            r#"{"arity": 2, "objects": [{"n": 3, "tuples": [{"n": 3, "trues": {"words": [7]}}]}]}"#;
        match store_from_json(bad) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("arity")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let err = query_from_json("{}").unwrap_err();
        assert!(err.to_string().contains("json"));
    }
}
