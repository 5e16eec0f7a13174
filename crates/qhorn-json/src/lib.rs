//! # qhorn-json
//!
//! A small, dependency-free JSON library for the qhorn workspace: a value
//! model ([`Json`]), a strict parser, compact and pretty writers, and the
//! [`ToJson`]/[`FromJson`] conversion traits the persistence layer and the
//! learning service use as their wire format.
//!
//! The build environment vendors no external crates, so this crate fills
//! the role `serde`/`serde_json` would otherwise play. Object key order is
//! preserved (insertion order), which keeps wire output deterministic.
//!
//! ```
//! use qhorn_json::{Json, ToJson};
//!
//! let j = Json::object([("arity", 3u16.to_json()), ("ok", Json::Bool(true))]);
//! assert_eq!(j.to_string(), r#"{"arity":3,"ok":true}"#);
//! let back = Json::parse(&j.to_string()).unwrap();
//! assert_eq!(back.get("arity").and_then(Json::as_u64), Some(3));
//! ```
//!
//! Wire types declare their fields once with [`wire!`], which generates
//! both conversions (see [`mod@wire`] for the field markers):
//!
//! ```
//! #[derive(Debug, PartialEq)]
//! enum Step {
//!     Question { index: usize },
//!     Learned { query: String, questions: Option<u64> },
//! }
//!
//! qhorn_json::wire! {
//!     enum Step tag "kind" "step kind" {
//!         Question = "question" { index: usize },
//!         Learned = "learned" { query: String, questions: Option<u64> [skip] },
//!     }
//! }
//!
//! let step = Step::Learned { query: "∀x1".into(), questions: None };
//! let line = qhorn_json::to_string(&step);
//! assert_eq!(line, r#"{"kind":"learned","query":"∀x1"}"#);
//! assert_eq!(qhorn_json::from_str::<Step>(&line).unwrap(), step);
//! assert_eq!(step.kind(), "learned");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

mod parse;
pub mod wire;
mod write;

/// A JSON value.
///
/// Numbers keep their parsed representation (`I64`, `U64`, or `F64`) so
/// 64-bit bitset words survive round trips exactly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `i64`.
    I64(i64),
    /// An integer in `i64::MAX+1 ..= u64::MAX`.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document (strict; trailing garbage is an error).
    ///
    /// # Errors
    /// [`JsonError`] with a byte offset on malformed input.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        parse::parse(s)
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn array<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field.
    ///
    /// # Errors
    /// [`JsonError`] naming the missing key.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::msg(format!("missing field `{key}`")))
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64` (accepts non-negative `I64`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(u) => Some(*u),
            Json::I64(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `i64`.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(i) => Some(*i),
            Json::U64(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (any numeric variant).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::I64(i) => Some(*i as f64),
            Json::U64(u) => Some(*u as f64),
            Json::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as object pairs.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// `true` iff `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact rendering (no whitespace).
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write::write_compact(self, &mut out);
        out
    }

    /// Pretty rendering (two-space indent).
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write::write_pretty(self, 0, &mut out);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Conversion into a [`Json`] value, and compact encoding.
///
/// [`ToJson::to_json`] builds the value tree; it is the reference every
/// encoding is checked against. [`ToJson::write_json`] appends the
/// compact encoding of the same value to a buffer. Its default renders
/// the tree; [`wire!`] declarations and the primitive impls override it
/// to write straight into the buffer, with no tree and no owned keys.
pub trait ToJson {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> Json;

    /// Appends `self`'s compact encoding to `out`: the bytes
    /// `self.to_json().to_compact()` yields.
    fn write_json(&self, out: &mut String) {
        write::write_compact(&self.to_json(), out);
    }
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, validating structure.
    ///
    /// # Errors
    /// [`JsonError`] describing the first structural mismatch.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

/// Serializes any [`ToJson`] value compactly, through
/// [`ToJson::write_json`].
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// Serializes any [`ToJson`] value with indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().to_pretty()
}

/// Parses a string into any [`FromJson`] type.
///
/// # Errors
/// [`JsonError`] on malformed JSON or structural mismatch.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(s)?)
}

/// Parse or conversion failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the source, when known.
    pub offset: Option<usize>,
}

impl JsonError {
    /// An error with no position.
    #[must_use]
    pub fn msg(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }

    pub(crate) fn at(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "json error at byte {o}: {}", self.message),
            None => write!(f, "json error: {}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(u64::from(*self))
            }

            fn write_json(&self, out: &mut String) {
                write::write_u64(u64::from(*self), out);
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                let u = j.as_u64().ok_or_else(|| JsonError::msg("expected unsigned integer"))?;
                <$t>::try_from(u).map_err(|_| JsonError::msg("integer out of range"))
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }

    fn write_json(&self, out: &mut String) {
        write::write_u64(*self as u64, out);
    }
}

impl FromJson for usize {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let u = j
            .as_u64()
            .ok_or_else(|| JsonError::msg("expected unsigned integer"))?;
        usize::try_from(u).map_err(|_| JsonError::msg("integer out of range"))
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::I64(*self)
    }

    fn write_json(&self, out: &mut String) {
        write::write_i64(*self, out);
    }
}

impl FromJson for i64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_i64().ok_or_else(|| JsonError::msg("expected integer"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }

    fn write_json(&self, out: &mut String) {
        write::write_f64(*self, out);
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_f64().ok_or_else(|| JsonError::msg("expected number"))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_bool()
            .ok_or_else(|| JsonError::msg("expected boolean"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        write::write_string(self, out);
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::msg("expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }

    fn write_json(&self, out: &mut String) {
        write::write_string(self, out);
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        write::write_compact(self, out);
    }
}

impl FromJson for Json {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(j.clone())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }

    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }

    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()
            .ok_or_else(|| JsonError::msg("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if j.is_null() {
            Ok(None)
        } else {
            T::from_json(j).map(Some)
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let j = Json::object([
            ("a", Json::U64(u64::MAX)),
            ("b", Json::I64(-3)),
            (
                "c",
                Json::array([Json::Null, Json::Bool(true), Json::Str("hi \"q\"".into())]),
            ),
            ("d", Json::F64(1.5)),
        ]);
        let compact = j.to_compact();
        assert_eq!(Json::parse(&compact).unwrap(), j);
        let pretty = j.to_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), j);
        assert_eq!(j.get("a").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(j.get("b").and_then(Json::as_i64), Some(-3));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("not json").is_err());
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let err = Json::parse("[1, x]").unwrap_err();
        assert!(err.offset.is_some());
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn unicode_and_escapes() {
        let j = Json::parse(r#""é\n\t\\ ∀""#).unwrap();
        assert_eq!(j.as_str(), Some("é\n\t\\ ∀"));
        let back = Json::Str("é\n∀".into()).to_compact();
        assert_eq!(Json::parse(&back).unwrap().as_str(), Some("é\n∀"));
    }

    /// Decoding is linear in the string's length: a 1.2 MB string of
    /// mixed one-, two- and three-byte characters decodes well inside a
    /// bound hundreds of times its linear cost (a per-character rescan of
    /// the remaining input takes minutes here).
    #[test]
    fn long_strings_decode_in_linear_time() {
        let chunk = "abcé∀\\n\\\"xyz";
        let decoded_chunk = "abcé∀\n\"xyz";
        let reps = 100_000;
        let doc = format!("\"{}\"", chunk.repeat(reps));
        assert!(doc.len() >= 1_000_000);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(Json::parse(&doc)));
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a 1.2 MB string must decode in well under 10 s");
        assert_eq!(
            parsed.unwrap().as_str(),
            Some(decoded_chunk.repeat(reps).as_str())
        );
    }

    #[test]
    fn surrogate_pairs() {
        let j = Json::parse(r#""😀""#).unwrap();
        assert_eq!(j.as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn typed_round_trip() {
        let v: Vec<u64> = vec![1, 2, u64::MAX];
        let s = to_string(&v);
        assert_eq!(from_str::<Vec<u64>>(&s).unwrap(), v);
        let o: Option<String> = None;
        assert_eq!(to_string(&o), "null");
        assert_eq!(from_str::<Option<String>>("null").unwrap(), None);
        assert_eq!(
            from_str::<Option<String>>("\"x\"").unwrap(),
            Some("x".into())
        );
    }

    #[test]
    fn field_errors_name_the_key() {
        let j = Json::object([("present", Json::Null)]);
        assert!(j.field("present").is_ok());
        let e = j.field("absent").unwrap_err();
        assert!(e.to_string().contains("absent"));
    }

    #[test]
    fn numbers_parse_by_magnitude() {
        assert_eq!(Json::parse("42").unwrap(), Json::I64(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
        assert_eq!(Json::parse("1.25").unwrap(), Json::F64(1.25));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
    }
}
