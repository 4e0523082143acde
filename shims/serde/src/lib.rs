//! Offline stand-in for `serde`.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a minimal serialization framework under the `serde` package name. It keeps
//! the trait names and call-site shapes of real serde (`Serialize`,
//! `Deserialize`, `Serializer`, `Deserializer`) but replaces serde's
//! visitor-based data model with a simple owned [`Content`] tree: serializers
//! consume a `Content`, deserializers produce one. There are no derive
//! macros: the one consumer, the `serde_json` shim, implements the traits
//! for its own types and uses the std impls below.
//!
//! Only the API surface this repository actually uses is provided. If a new
//! call-site needs more, extend this shim rather than depending on crates.io.

use std::collections::BTreeMap;
use std::fmt;

/// The self-describing value tree every serialization passes through.
#[derive(Clone, Debug, PartialEq)]
pub enum Content {
    /// Null / unit.
    Null,
    /// Boolean.
    Bool(bool),
    /// Any integer (i128 covers every integer type used in the workspace).
    Int(i128),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Content>),
    /// Map with string keys, in insertion order.
    Map(Vec<(String, Content)>),
}

/// Error trait implemented by serializer/deserializer error types so
/// conversions can surface message strings (mirror of serde's `ser::Error` /
/// `de::Error`).
pub trait Error: Sized {
    /// Builds an error carrying a display message.
    fn custom<T: fmt::Display>(msg: T) -> Self;
}

/// A type that can be serialized. Implementors provide [`Self::to_content`];
/// `serialize` is the serde-compatible entry point.
pub trait Serialize {
    /// Converts the value into a [`Content`] tree.
    fn to_content(&self) -> Content;

    /// Serde-compatible generic entry point.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_content(self.to_content())
    }
}

/// A serialization backend: consumes a [`Content`] tree.
pub trait Serializer: Sized {
    /// Success value.
    type Ok;
    /// Error value.
    type Error: Error;

    /// Consumes a content tree.
    fn serialize_content(self, content: Content) -> Result<Self::Ok, Self::Error>;
}

/// A deserialization backend: produces a [`Content`] tree.
pub trait Deserializer<'de>: Sized {
    /// Error value.
    type Error: Error;

    /// Produces the content tree of the input.
    fn deserialize_content(self) -> Result<Content, Self::Error>;
}

/// A type that can be deserialized.
pub trait Deserialize<'de>: Sized {
    /// Serde-compatible generic entry point.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

// ---------------------------------------------------------------------------
// Content-based serializer/deserializer (`from_content` backs the container
// impls below and serde_json's `from_str`)
// ---------------------------------------------------------------------------

/// Error string produced while converting content trees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentError(pub String);

impl fmt::Display for ContentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ContentError {}

impl Error for ContentError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        ContentError(msg.to_string())
    }
}

/// A [`Serializer`] whose output is the content tree itself.
pub struct ContentSerializer;

impl Serializer for ContentSerializer {
    type Ok = Content;
    type Error = ContentError;

    fn serialize_content(self, content: Content) -> Result<Content, ContentError> {
        Ok(content)
    }
}

/// A [`Deserializer`] reading from an owned content tree.
pub struct ContentDeserializer {
    content: Content,
}

impl ContentDeserializer {
    /// Wraps a content tree.
    pub fn new(content: Content) -> Self {
        ContentDeserializer { content }
    }
}

impl<'de> Deserializer<'de> for ContentDeserializer {
    type Error = ContentError;

    fn deserialize_content(self) -> Result<Content, ContentError> {
        Ok(self.content)
    }
}

/// Deserializes a value from a content tree.
pub fn from_content<'de, T: Deserialize<'de>>(content: Content) -> Result<T, ContentError> {
    T::deserialize(ContentDeserializer::new(content))
}

// ---------------------------------------------------------------------------
// Serialize / Deserialize implementations for std types
// ---------------------------------------------------------------------------

macro_rules! int_impls {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_content(&self) -> Content {
                Content::Int(*self as i128)
            }
        }
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                match deserializer.deserialize_content()? {
                    Content::Int(v) => <$ty>::try_from(v)
                        .map_err(|_| D::Error::custom(concat!("integer out of range for ", stringify!($ty)))),
                    other => Err(D::Error::custom(format!(
                        concat!("expected integer for ", stringify!($ty), ", found {:?}"),
                        other
                    ))),
                }
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, i128);

impl Serialize for u128 {
    fn to_content(&self) -> Content {
        Content::Int(*self as i128)
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_content()? {
            Content::Bool(b) => Ok(b),
            other => Err(D::Error::custom(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::Float(*self)
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_content()? {
            Content::Float(v) => Ok(v),
            Content::Int(v) => Ok(v as f64),
            other => Err(D::Error::custom(format!("expected float, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_content()? {
            Content::Str(s) => Ok(s),
            other => Err(D::Error::custom(format!(
                "expected string, found {other:?}"
            ))),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for () {
    fn to_content(&self) -> Content {
        Content::Null
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            None => Content::Null,
            Some(v) => v.to_content(),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_content()? {
            Content::Null => Ok(None),
            other => from_content(other).map(Some).map_err(D::Error::custom),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_content()? {
            Content::Seq(elems) => elems
                .into_iter()
                .map(|e| from_content(e).map_err(D::Error::custom))
                .collect(),
            other => Err(D::Error::custom(format!(
                "expected sequence, found {other:?}"
            ))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$idx.to_content()),+])
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                match deserializer.deserialize_content()? {
                    Content::Seq(elems) => {
                        let mut iter = elems.into_iter();
                        Ok(($(
                            {
                                let _ = stringify!($name);
                                let elem = iter
                                    .next()
                                    .ok_or_else(|| D::Error::custom("tuple too short"))?;
                                from_content(elem).map_err(D::Error::custom)?
                            },
                        )+))
                    }
                    other => Err(D::Error::custom(format!(
                        "expected sequence for tuple, found {other:?}"
                    ))),
                }
            }
        }
    )*};
}

tuple_impls! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, Z.3)
}

/// Maps serialize as a JSON-style object when every key serializes to a
/// string, and as a sequence of `[key, value]` pairs otherwise (tuple keys,
/// integer keys). Deserialization accepts both encodings.
impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        let pairs: Vec<(Content, Content)> = self
            .iter()
            .map(|(k, v)| (k.to_content(), v.to_content()))
            .collect();
        if pairs.iter().all(|(k, _)| matches!(k, Content::Str(_))) {
            Content::Map(
                pairs
                    .into_iter()
                    .map(|(k, v)| match k {
                        Content::Str(s) => (s, v),
                        _ => unreachable!("checked above"),
                    })
                    .collect(),
            )
        } else {
            Content::Seq(
                pairs
                    .into_iter()
                    .map(|(k, v)| Content::Seq(vec![k, v]))
                    .collect(),
            )
        }
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let entries: Vec<(Content, Content)> = match deserializer.deserialize_content()? {
            Content::Map(entries) => entries
                .into_iter()
                .map(|(k, v)| (Content::Str(k), v))
                .collect(),
            Content::Seq(pairs) => pairs
                .into_iter()
                .map(|pair| match pair {
                    Content::Seq(mut kv) if kv.len() == 2 => {
                        let v = kv.pop().expect("len 2");
                        let k = kv.pop().expect("len 2");
                        Ok((k, v))
                    }
                    other => Err(D::Error::custom(format!(
                        "expected [key, value] pair, found {other:?}"
                    ))),
                })
                .collect::<Result<_, _>>()?,
            other => {
                return Err(D::Error::custom(format!(
                    "expected map or sequence of pairs, found {other:?}"
                )))
            }
        };
        entries
            .into_iter()
            .map(|(k, v)| {
                let key = from_content(k).map_err(D::Error::custom)?;
                let value = from_content(v).map_err(D::Error::custom)?;
                Ok((key, value))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(42u64.to_content(), Content::Int(42));
        assert_eq!(from_content::<u64>(Content::Int(42)), Ok(42));
        assert!(from_content::<u8>(Content::Int(300)).is_err());
        assert_eq!((-5i128).to_content(), Content::Int(-5));
        assert_eq!(
            from_content::<String>(Content::Str("x".into())),
            Ok("x".to_string())
        );
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1u64, "a".to_string()), (2, "b".to_string())];
        let c = v.to_content();
        assert_eq!(from_content::<Vec<(u64, String)>>(c), Ok(v));

        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 7u64);
        let c = m.to_content();
        assert!(matches!(c, Content::Map(_)));
        assert_eq!(from_content::<BTreeMap<String, u64>>(c), Ok(m));

        // Non-string keys fall back to pair sequences.
        let mut m = BTreeMap::new();
        m.insert((1u64, 2u64), 3u64);
        let c = m.to_content();
        assert!(matches!(c, Content::Seq(_)));
        assert_eq!(from_content::<BTreeMap<(u64, u64), u64>>(c), Ok(m));
    }

    #[test]
    fn options_roundtrip() {
        assert_eq!(Some(1u16).to_content(), Content::Int(1));
        assert_eq!(None::<u16>.to_content(), Content::Null);
        assert_eq!(from_content::<Option<u16>>(Content::Null), Ok(None));
        assert_eq!(from_content::<Option<u16>>(Content::Int(9)), Ok(Some(9)));
    }
}
