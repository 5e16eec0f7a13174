//! The [`wire!`](macro@crate::wire) declaration macro and the runtime pieces
//! its expansions call.
//!
//! A declaration names the type, then lists each field once, as
//! `name: Type` with an optional wire key (`name as "key": Type`) and an
//! optional marker list in brackets after the type:
//!
//! | marker | encode | decode |
//! |--------|--------|--------|
//! | *(none)* | always written | required |
//! | `[default]` | always written | absent or `null` ⇒ `Default::default()` |
//! | `[default = EXPR]` | always written | absent or `null` ⇒ `EXPR` |
//! | `[skip]` | omitted when `None` / `false` | absent or `null` ⇒ default |
//! | `[with = path]` | `path::to_json(&field)`, `path::write_json(&field, out)` | `path::from_json(value)` |
//! | `[flatten]` | the field's object pairs are merged into this object | decoded from this object |
//!
//! Four shapes are declared:
//!
//! - `struct T { fields } [check f]` — an object; `check` (a
//!   `fn(T) -> Result<T, JsonError>`) validates or canonicalizes a
//!   decoded value. `encode struct` generates [`ToJson`](crate::ToJson)
//!   only, for report types nothing decodes.
//! - `enum T tag "key" "noun" { V = "tag" { fields }, U = "tag", N = "tag" (Inner) }`
//!   — an object whose `"key"` field names the variant; a newtype
//!   variant's payload is flattened next to the tag. Also generates
//!   `T::KINDS` (every tag, in order) and `T::kind(&self)`.
//! - `enum T external "noun" { V { fields } }` — `{"V": {fields}}`.
//! - `enum T string "noun" { V = "tag" }` — a bare string.
//!
//! Each declaration generates both encoders from its one field list:
//! [`ToJson::to_json`](crate::ToJson::to_json) builds the value tree, and
//! [`ToJson::write_json`](crate::ToJson::write_json) writes the same bytes
//! straight into a buffer through an [`ObjectWriter`], with keys spliced
//! in as literals.
//!
//! The wire-schema lint reads these declarations to pin each field's
//! declared type and markers, so a declaration is the single place a
//! wire field is named.

use crate::{FromJson, Json, JsonError};

/// Declares a wire type's JSON codec: generates [`ToJson`](crate::ToJson)
/// and [`FromJson`](crate::FromJson) from one field list. See the
/// [module docs](mod@crate::wire) for the markers and shapes.
///
/// ```
/// use qhorn_json::{from_str, to_string};
///
/// #[derive(Debug, PartialEq)]
/// struct Stats {
///     objects: usize,
///     threads_used: u64,
///     store: Option<String>,
/// }
///
/// qhorn_json::wire! {
///     struct Stats {
///         objects: usize,
///         threads_used: u64 [default],
///         store: Option<String> [skip],
///     }
/// }
///
/// let s = Stats { objects: 3, threads_used: 2, store: None };
/// assert_eq!(to_string(&s), r#"{"objects":3,"threads_used":2}"#);
/// assert_eq!(from_str::<Stats>(r#"{"objects":3}"#).unwrap().threads_used, 0);
/// ```
#[macro_export]
macro_rules! wire {
    (struct $T:ident { $($fields:tt)* } $(check $check:path)?) => {
        $crate::wire!(encode struct $T { $($fields)* });
        impl $crate::FromJson for $T {
            fn from_json(j: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                let value = $crate::__wire_decode!(j, $T { $($fields)* });
                $( let value = $check(value)?; )?
                Ok(value)
            }
        }
    };
    (encode struct $T:ident { $($f:ident $(as $key:literal)? : $t:ty $([$($mk:tt)*])?),* $(,)? }) => {
        impl $crate::ToJson for $T {
            fn to_json(&self) -> $crate::Json {
                let mut pairs = ::std::vec::Vec::with_capacity([$(stringify!($f)),*].len());
                $( $crate::__wire_put!(pairs, $crate::__wire_key!($f $($key)?), &self.$f, $t, [$($($mk)*)?]); )*
                $crate::Json::Obj(pairs)
            }

            fn write_json(&self, out: &mut ::std::string::String) {
                let mut w = $crate::wire::ObjectWriter::open(out);
                $( $crate::__wire_write!(w, $crate::__wire_key_prefix!($f $($key)?), &self.$f, $t, [$($($mk)*)?]); )*
                w.close();
            }
        }
    };
    (enum $T:ident tag $tag_key:literal $noun:literal {
        $($V:ident = $tag:literal $({ $($fields:tt)* })? $(($inner:ty))?),* $(,)?
    }) => {
        impl $T {
            /// Every variant's wire tag, in declaration order.
            pub const KINDS: &'static [&'static str] = &[$($tag),*];

            /// This variant's wire tag.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $( $T::$V { .. } => $tag, )*
                }
            }
        }
        impl $crate::ToJson for $T {
            fn to_json(&self) -> $crate::Json {
                let mut pairs = ::std::vec::Vec::new();
                match self {
                    $( $T::$V { .. } => $crate::__wire_put_variant!(
                        self, pairs, [$tag_key, $tag], $T::$V $({ $($fields)* })? $(($inner))?
                    ), )*
                }
                $crate::Json::Obj(pairs)
            }

            fn write_json(&self, out: &mut ::std::string::String) {
                let mut w = $crate::wire::ObjectWriter::open(out);
                match self {
                    $( $T::$V { .. } => $crate::__wire_write_variant!(
                        self, w, [$tag_key, $tag], $T::$V $({ $($fields)* })? $(($inner))?
                    ), )*
                }
                w.close();
            }
        }
        impl $crate::FromJson for $T {
            fn from_json(j: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                let tag = <::std::string::String as $crate::FromJson>::from_json(j.field($tag_key)?)?;
                match tag.as_str() {
                    $( $tag => Ok($crate::__wire_decode!(j, $T::$V $({ $($fields)* })? $(($inner))?)), )*
                    other => Err($crate::JsonError::msg(format!("unknown {} `{other}`", $noun))),
                }
            }
        }
    };
    (enum $T:ident external $noun:literal { $($V:ident $body:tt),* $(,)? }) => {
        impl $crate::ToJson for $T {
            fn to_json(&self) -> $crate::Json {
                let mut pairs = ::std::vec::Vec::new();
                match self {
                    $( $T::$V { .. } => $crate::__wire_put_variant!(self, pairs, [], $T::$V $body), )*
                }
                let tag = match self {
                    $( $T::$V { .. } => stringify!($V), )*
                };
                $crate::Json::Obj(vec![(tag.to_string(), $crate::Json::Obj(pairs))])
            }

            fn write_json(&self, out: &mut ::std::string::String) {
                let mut outer = $crate::wire::ObjectWriter::open(out);
                match self {
                    $( $T::$V { .. } => {
                        let mut w = $crate::wire::ObjectWriter::open(
                            outer.member(concat!("\"", stringify!($V), "\":")),
                        );
                        $crate::__wire_write_variant!(self, w, [], $T::$V $body);
                        w.close();
                    } )*
                }
                outer.close();
            }
        }
        impl $crate::FromJson for $T {
            fn from_json(j: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                let pairs = j
                    .as_obj()
                    .ok_or_else(|| $crate::JsonError::msg(format!("expected {} object", $noun)))?;
                let [(tag, j)] = pairs else {
                    return Err($crate::JsonError::msg(format!(
                        "expected a single-variant {} tag",
                        $noun
                    )));
                };
                match tag.as_str() {
                    $( stringify!($V) => Ok($crate::__wire_decode!(j, $T::$V $body)), )*
                    other => Err($crate::JsonError::msg(format!(
                        "unknown {} variant `{other}`",
                        $noun
                    ))),
                }
            }
        }
    };
    (enum $T:ident string $noun:literal { $($V:ident = $tag:literal),* $(,)? }) => {
        impl $crate::ToJson for $T {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Str(match self { $( $T::$V => $tag, )* }.to_string())
            }

            fn write_json(&self, out: &mut ::std::string::String) {
                out.push_str(match self { $( $T::$V => concat!("\"", $tag, "\""), )* });
            }
        }
        impl $crate::FromJson for $T {
            fn from_json(j: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                match j.as_str() {
                    $( Some($tag) => Ok($T::$V), )*
                    Some(other) => Err($crate::JsonError::msg(format!("unknown {} `{other}`", $noun))),
                    None => Err($crate::JsonError::msg(format!("{} must be a string", $noun))),
                }
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_key {
    ($f:ident) => {
        stringify!($f)
    };
    ($f:ident $key:literal) => {
        $key
    };
}

/// A field's key as encoded JSON text with its colon, `"key":`. Keys
/// are identifiers or plain literals, so nothing in them needs escaping.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_key_prefix {
    ($f:ident) => {
        concat!("\"", stringify!($f), "\":")
    };
    ($f:ident $key:literal) => {
        concat!("\"", $key, "\":")
    };
}

/// Writes one field through the [`ObjectWriter`] `w` according to its
/// markers: the direct counterpart of `__wire_put`.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_write {
    ($w:ident, $prefix:expr, $v:expr, $t:ty, [skip]) => {
        if !$crate::wire::Skip::skip($v) {
            $crate::__wire_write!($w, $prefix, $v, $t, []);
        }
    };
    ($w:ident, $prefix:expr, $v:expr, $t:ty, [with = $($codec:ident)::+]) => {
        $($codec)::+::write_json($v, $w.member($prefix))
    };
    ($w:ident, $prefix:expr, $v:expr, $t:ty, [flatten]) => {
        $w.flatten(|out| <$t as $crate::ToJson>::write_json($v, out))
    };
    ($w:ident, $prefix:expr, $v:expr, $t:ty, [$(default $(= $default:expr)?)?]) => {
        <$t as $crate::ToJson>::write_json($v, $w.member($prefix))
    };
}

/// Encodes one field into `pairs` according to its markers.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put {
    ($pairs:ident, $key:expr, $v:expr, $t:ty, [skip]) => {
        if !$crate::wire::Skip::skip($v) {
            $crate::__wire_put!($pairs, $key, $v, $t, []);
        }
    };
    ($pairs:ident, $key:expr, $v:expr, $t:ty, [with = $($codec:ident)::+]) => {
        $pairs.push(($key.to_string(), $($codec)::+::to_json($v)))
    };
    ($pairs:ident, $key:expr, $v:expr, $t:ty, [flatten]) => {
        $crate::wire::flatten(&mut $pairs, <$t as $crate::ToJson>::to_json($v))
    };
    ($pairs:ident, $key:expr, $v:expr, $t:ty, [$(default $(= $default:expr)?)?]) => {
        $pairs.push(($key.to_string(), <$t as $crate::ToJson>::to_json($v)))
    };
}

/// Decodes one field from the object `j` according to its markers.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_get {
    ($j:ident, $key:expr, $t:ty, []) => {
        <$t as $crate::FromJson>::from_json($j.field($key)?)?
    };
    ($j:ident, $key:expr, $t:ty, [default = $default:expr]) => {
        $crate::wire::field_or($j, $key, || -> $t { $default })?
    };
    ($j:ident, $key:expr, $t:ty, [with = $($codec:ident)::+]) => {
        $($codec)::+::from_json($j.field($key)?)?
    };
    ($j:ident, $key:expr, $t:ty, [flatten]) => {
        <$t as $crate::FromJson>::from_json($j)?
    };
    ($j:ident, $key:expr, $t:ty, [default]) => {
        $crate::__wire_get!($j, $key, $t, [skip])
    };
    ($j:ident, $key:expr, $t:ty, [skip]) => {
        $crate::wire::field_or($j, $key, <$t as ::std::default::Default>::default)?
    };
}

/// Builds a struct or struct variant from the object `j`.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_decode {
    ($j:ident, $($T:ident)::+ { $($f:ident $(as $key:literal)? : $t:ty $([$($mk:tt)*])?),* $(,)? }) => {
        $($T)::+ { $( $f: $crate::__wire_get!($j, $crate::__wire_key!($f $($key)?), $t, [$($($mk)*)?]), )* }
    };
    ($j:ident, $($T:ident)::+ ($inner:ty)) => {
        $($T)::+(<$inner as $crate::FromJson>::from_json($j)?)
    };
    ($j:ident, $($T:ident)::+) => {
        $($T)::+
    };
}

/// Encodes the variant `self` is known to be: the `[tag key, tag]` pair,
/// when given, then its fields.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put_variant {
    ($self:ident, $pairs:ident, [$($tag_key:literal, $tag:literal)?], $T:ident::$V:ident { $($f:ident $(as $key:literal)? : $t:ty $([$($mk:tt)*])?),* $(,)? }) => {{
        let $T::$V { $($f),* } = $self else {
            unreachable!("matched by the caller")
        };
        $pairs.reserve([$($tag_key,)? $(stringify!($f)),*].len());
        $( $pairs.push(($tag_key.to_string(), $crate::Json::Str($tag.to_string()))); )?
        $( $crate::__wire_put!($pairs, $crate::__wire_key!($f $($key)?), $f, $t, [$($($mk)*)?]); )*
    }};
    ($self:ident, $pairs:ident, [$($tag_key:literal, $tag:literal)?], $T:ident::$V:ident ($inner:ty)) => {{
        let $T::$V(inner) = $self else {
            unreachable!("matched by the caller")
        };
        $( $pairs.push(($tag_key.to_string(), $crate::Json::Str($tag.to_string()))); )?
        $crate::wire::flatten(&mut $pairs, <$inner as $crate::ToJson>::to_json(inner));
    }};
    ($self:ident, $pairs:ident, [$($tag_key:literal, $tag:literal)?], $T:ident::$V:ident) => {{
        $( $pairs.push(($tag_key.to_string(), $crate::Json::Str($tag.to_string()))); )?
    }};
}

/// Writes the variant `self` is known to be through the [`ObjectWriter`]
/// `w`: the `"tag key":"tag"` member, when given, then its fields.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_write_variant {
    ($self:ident, $w:ident, [$($tag_key:literal, $tag:literal)?], $T:ident::$V:ident { $($f:ident $(as $key:literal)? : $t:ty $([$($mk:tt)*])?),* $(,)? }) => {{
        let $T::$V { $($f),* } = $self else {
            unreachable!("matched by the caller")
        };
        $( $w.member(concat!("\"", $tag_key, "\":\"", $tag, "\"")); )?
        $( $crate::__wire_write!($w, $crate::__wire_key_prefix!($f $($key)?), $f, $t, [$($($mk)*)?]); )*
    }};
    ($self:ident, $w:ident, [$($tag_key:literal, $tag:literal)?], $T:ident::$V:ident ($inner:ty)) => {{
        let $T::$V(inner) = $self else {
            unreachable!("matched by the caller")
        };
        $( $w.member(concat!("\"", $tag_key, "\":\"", $tag, "\"")); )?
        $w.flatten(|out| <$inner as $crate::ToJson>::write_json(inner, out));
    }};
    ($self:ident, $w:ident, [$($tag_key:literal, $tag:literal)?], $T:ident::$V:ident) => {{
        $( $w.member(concat!("\"", $tag_key, "\":\"", $tag, "\"")); )?
    }};
}

/// Writes a JSON object's members straight into a buffer, placing the
/// commas. [`wire!`](macro@crate::wire) expansions write through it; so can a
/// hand-written [`ToJson::write_json`](crate::ToJson::write_json) whose
/// keys are data (see [`map`]).
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object: pushes `{`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Starts a member: pushes the separator and `prefix`, the member's
    /// encoded `"key":` (or a whole `"key":"value"` when the value is a
    /// literal too), and returns the buffer for the value.
    pub fn member(&mut self, prefix: &str) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        self.out.push_str(prefix);
        self.out
    }

    /// Starts a member whose key is data: escapes it like any string.
    pub fn key(&mut self, key: &str) -> &mut String {
        let out = self.member("");
        crate::write::write_string(key, out);
        out.push(':');
        out
    }

    /// Merges the object `write` encodes into this one (a `[flatten]`
    /// field or a newtype variant's payload). Like [`flatten`], drops a
    /// value that is not an object.
    pub fn flatten(&mut self, write: impl FnOnce(&mut String)) {
        if self.empty {
            // The inner object's `{` stands in for this one's.
            self.out.pop();
            let at = self.out.len();
            write(self.out);
            if !self.out[at..].starts_with('{') {
                self.out.truncate(at);
                self.out.push('{');
                return;
            }
            self.out.pop();
            self.empty = self.out.len() == at + 1;
        } else {
            let at = self.out.len();
            write(self.out);
            if !self.out[at..].starts_with('{') || self.out.len() == at + 2 {
                self.out.truncate(at);
                return;
            }
            self.out.pop();
            self.out.replace_range(at..=at, ",");
        }
    }

    /// Closes the object: pushes `}`.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// Values a `[skip]` field omits from the wire.
pub trait Skip {
    /// `true` when the field is left out of the encoding.
    fn skip(&self) -> bool;
}

impl<T> Skip for Option<T> {
    fn skip(&self) -> bool {
        self.is_none()
    }
}

impl Skip for bool {
    fn skip(&self) -> bool {
        !*self
    }
}

/// Decodes `j[key]`, or `default()` when the key is absent or `null`.
///
/// # Errors
/// The field's own decoding error when it is present.
pub fn field_or<T: FromJson>(
    j: &Json,
    key: &str,
    default: impl FnOnce() -> T,
) -> Result<T, JsonError> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(default()),
        Some(v) => T::from_json(v),
    }
}

/// Appends an encoded object's pairs (a `[flatten]` field, whose type
/// must encode as an object).
pub fn flatten(pairs: &mut Vec<(String, Json)>, inner: Json) {
    if let Json::Obj(fields) = inner {
        pairs.extend(fields);
    }
}

/// `[with = qhorn_json::wire::map]`: `(key, value)` pairs carried as one
/// JSON object whose keys are data (phase names, attribute names), not
/// schema.
pub mod map {
    use crate::{FromJson, Json, JsonError, ToJson};
    use std::collections::BTreeMap;

    /// Encodes the pairs as one object, in iteration order.
    pub fn to_json<M: super::Entries + ?Sized>(m: &M) -> Json {
        Json::Obj(m.entries())
    }

    /// Writes the pairs as one object, in iteration order.
    pub fn write_json<M: super::Entries + ?Sized>(m: &M, out: &mut String) {
        let mut w = super::ObjectWriter::open(out);
        m.write_entries(&mut w);
        w.close();
    }

    /// Decodes an object into `(key, value)` pairs, in document order.
    ///
    /// # Errors
    /// When `j` is not an object or a value fails to decode.
    pub fn from_json<V: FromJson>(j: &Json) -> Result<Vec<(String, V)>, JsonError> {
        j.as_obj()
            .ok_or_else(|| JsonError::msg("expected object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }

    impl<K: AsRef<str>, V: ToJson> super::Entries for Vec<(K, V)> {
        fn entries(&self) -> Vec<(String, Json)> {
            self.iter()
                .map(|(k, v)| (k.as_ref().to_string(), v.to_json()))
                .collect()
        }

        fn write_entries(&self, w: &mut super::ObjectWriter<'_>) {
            for (k, v) in self {
                v.write_json(w.key(k.as_ref()));
            }
        }
    }

    impl<K: AsRef<str>, V: ToJson> super::Entries for BTreeMap<K, V> {
        fn entries(&self) -> Vec<(String, Json)> {
            self.iter()
                .map(|(k, v)| (k.as_ref().to_string(), v.to_json()))
                .collect()
        }

        fn write_entries(&self, w: &mut super::ObjectWriter<'_>) {
            for (k, v) in self {
                v.write_json(w.key(k.as_ref()));
            }
        }
    }
}

/// A collection [`map`] can encode as one JSON object.
pub trait Entries {
    /// The `(key, encoded value)` pairs, in order.
    fn entries(&self) -> Vec<(String, Json)>;

    /// Writes the same pairs, in order, as members of `w`.
    fn write_entries(&self, w: &mut ObjectWriter<'_>);
}

#[cfg(test)]
mod tests {
    use crate::ToJson;

    /// Every field skippable, so it can encode as `{}`.
    struct Inner {
        a: Option<u64>,
        b: bool,
    }

    crate::wire! {
        struct Inner { a: Option<u64> [skip], b: bool [skip] }
    }

    struct Lead {
        inner: Inner,
        n: u64,
        x: u64,
    }

    crate::wire! {
        encode struct Lead { inner: Inner [flatten], n: u64 [flatten], x: u64 }
    }

    struct Tail {
        x: u64,
        n: u64,
        inner: Inner,
    }

    crate::wire! {
        encode struct Tail { x: u64, n: u64 [flatten], inner: Inner [flatten] }
    }

    enum Tagged {
        Wrap(Inner),
        Bare,
    }

    crate::wire! {
        enum Tagged tag "type" "tagged" { Wrap = "wrap" (Inner), Bare = "bare" }
    }

    /// A flattened value merges like the tree's `flatten`: an empty
    /// object adds nothing, a non-object is dropped, and the commas come
    /// out right whether it leads or follows other members.
    #[test]
    fn flatten_writes_what_the_tree_merges() {
        for a in [None, Some(7)] {
            for b in [false, true] {
                let inner = || Inner { a, b };
                let lead = Lead {
                    inner: inner(),
                    n: 1,
                    x: 2,
                };
                let tail = Tail {
                    x: 2,
                    n: 1,
                    inner: inner(),
                };
                let tagged = Tagged::Wrap(inner());
                assert_eq!(crate::to_string(&lead), lead.to_json().to_compact());
                assert_eq!(crate::to_string(&tail), tail.to_json().to_compact());
                assert_eq!(crate::to_string(&tagged), tagged.to_json().to_compact());
                assert_eq!(crate::to_string(&inner()), inner().to_json().to_compact());
            }
        }
        let lone = Lead {
            inner: Inner { a: None, b: false },
            n: 1,
            x: 2,
        };
        assert_eq!(crate::to_string(&lone), r#"{"x":2}"#);
        assert_eq!(crate::to_string(&Tagged::Bare), r#"{"type":"bare"}"#);
        assert_eq!(Tagged::KINDS, ["wrap", "bare"]);
        assert_eq!(Tagged::Bare.kind(), "bare");
    }
}
