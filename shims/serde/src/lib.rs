//! Offline shim for the parts of `serde` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal serialization framework that is drop-in compatible
//! with the subset of serde the code touches: `#[derive(Serialize,
//! Deserialize)]` on structs and enums, serialized through JSON by the
//! sibling `serde_json` shim.
//!
//! Unlike real serde, the data model here is not format-generic: values
//! serialize into a concrete JSON [`Value`] tree. That is exactly what the
//! workspace needs (its only format is JSON, via `serde_json`), and it
//! keeps the shim small enough to audit. The derive macros generate
//! `to_value`/`from_value` implementations matching serde_json's default
//! encoding conventions:
//!
//! * named struct → object with fields in declaration order
//! * one-field tuple struct (newtype) → the inner value, transparently
//! * multi-field tuple struct → array of the field values
//! * unit struct → `null`; unit enum variant → the variant name as a string
//! * newtype enum variant → `{"Variant": value}`
//! * struct enum variant → `{"Variant": {fields…}}`
//!
//! Named struct fields take three options, spelled as in real serde:
//! `default` and `default = "path"` fill in a missing key, and
//! `skip_serializing_if = "path"` omits the key when the predicate holds.
//!
//! ```
//! use serde::{Deserialize, Serialize, Value};
//!
//! fn is_zero(v: &u32) -> bool {
//!     *v == 0
//! }
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Counters {
//!     name: String,
//!     #[serde(default, skip_serializing_if = "is_zero")]
//!     drops: u32,
//! }
//!
//! let c = Counters { name: "ap0".into(), drops: 0 };
//! let v = c.to_value();
//! assert_eq!(v, Value::Object(vec![("name".into(), Value::Str("ap0".into()))]));
//! assert_eq!(Counters::from_value(&v).unwrap(), c);
//! ```
//!
//! Any other option is a compile error rather than silently ignored:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Renamed {
//!     #[serde(rename = "x")]
//!     a: u32,
//! }
//! ```
//!
//! So is a `#[serde]` anywhere but on a named struct field:
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! enum Mode {
//!     #[serde(default)]
//!     Off,
//! }
//! ```

pub use serde_derive::{Deserialize, Serialize};

mod value;

pub use value::{DeError, Value};

/// A type that can be serialized into a JSON [`Value`].
pub trait Serialize {
    /// Convert `self` to a JSON value tree.
    fn to_value(&self) -> Value;
}

/// A type that can be reconstructed from a JSON [`Value`].
pub trait Deserialize: Sized {
    /// Reconstruct from a JSON value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| DeError::msg(format!(
                            "integer {} out of range for {}", i, stringify!($t)))),
                    // Tolerate a float that is exactly integral (e.g. "1e3").
                    // Integral f64s below 2^127 convert to i128 exactly, so
                    // going through i128 avoids the saturating-cast hole at
                    // the 64-bit boundaries (2^64 must be out of range for
                    // u64, not clamp to u64::MAX).
                    Value::Float(f) if f.fract() == 0.0
                        && f.abs() < 1.7e38 =>
                        <$t>::try_from(*f as i128).map_err(|_| DeError::msg(format!(
                            "integer {} out of range for {}", f, stringify!($t)))),
                    other => Err(DeError::expected(stringify!($t), other)),
                }
            }
        }
    )*};
}

impl_ser_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            // Real serde_json cannot represent non-finite floats; we encode
            // them as null and restore NaN here so round-trips never panic.
            Value::Null => Ok(f64::NAN),
            other => Err(DeError::expected("f64", other)),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items = Vec::<T>::from_value(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| DeError::msg(format!("expected array of length {N}, got {n}")))
    }
}

macro_rules! impl_ser_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Array(items) => {
                        const LEN: usize = [$($idx),+].len();
                        if items.len() != LEN {
                            return Err(DeError::msg(format!(
                                "expected tuple of length {}, got {}", LEN, items.len())));
                        }
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(DeError::expected("tuple (array)", other)),
                }
            }
        }
    )*};
}

impl_ser_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// ---------------------------------------------------------------------------
// Helpers used by derive-generated code (stable surface for serde_derive)
// ---------------------------------------------------------------------------

/// Machinery the derive macros expand against. Not part of the public API
/// contract; kept `pub` because macro expansions live in downstream crates.
pub mod __private {
    pub use super::{DeError, Deserialize, Serialize, Value};

    /// Look up a required object field during deserialization.
    pub fn field<'v>(
        fields: &'v [(String, Value)],
        name: &str,
        ty: &str,
    ) -> Result<&'v Value, DeError> {
        optional_field(fields, name)
            .ok_or_else(|| DeError::msg(format!("missing field `{name}` in {ty}")))
    }

    /// Look up a `#[serde(default)]` object field during deserialization.
    pub fn optional_field<'v>(fields: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
        fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Fail on the first key of `fields` that is not in `known`, naming
    /// it and the expected keys as real serde's `deny_unknown_fields`
    /// does.
    pub fn deny_unknown_fields(
        fields: &[(String, Value)],
        known: &[&str],
        ty: &str,
    ) -> Result<(), DeError> {
        let Some((key, _)) = fields.iter().find(|(k, _)| !known.contains(&k.as_str())) else {
            return Ok(());
        };
        let quoted: Vec<String> = known.iter().map(|k| format!("`{k}`")).collect();
        let expected = match quoted.as_slice() {
            [] => "there are no fields".to_string(),
            [one] => format!("expected {one}"),
            [a, b] => format!("expected {a} or {b}"),
            all => format!("expected one of {}", all.join(", ")),
        };
        Err(DeError::msg(format!(
            "unknown field `{key}` in {ty}, {expected}"
        )))
    }

    /// View a value as an object's field list, or fail with context.
    pub fn as_object<'v>(v: &'v Value, ty: &str) -> Result<&'v [(String, Value)], DeError> {
        match v {
            Value::Object(fields) => Ok(fields),
            other => Err(DeError::expected(ty, other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let v = 42u64.to_value();
        assert_eq!(u64::from_value(&v).unwrap(), 42);
        let v = (-3i32).to_value();
        assert_eq!(i32::from_value(&v).unwrap(), -3);
        let v = 1.5f64.to_value();
        assert_eq!(f64::from_value(&v).unwrap(), 1.5);
        let v = true.to_value();
        assert!(bool::from_value(&v).unwrap());
        let v = "hi".to_string().to_value();
        assert_eq!(String::from_value(&v).unwrap(), "hi");
    }

    #[test]
    fn collections_round_trip() {
        let xs = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&xs.to_value()).unwrap(), xs);
        let t = (1u8, 2.5f64, true);
        assert_eq!(<(u8, f64, bool)>::from_value(&t.to_value()).unwrap(), t);
        let o: Option<u8> = None;
        assert_eq!(Option::<u8>::from_value(&o.to_value()).unwrap(), None);
    }

    #[test]
    fn out_of_range_int_rejected() {
        let v = Value::Int(300);
        assert!(u8::from_value(&v).is_err());
    }

    #[test]
    fn float_one_past_u64_max_rejected_not_saturated() {
        // 2^64 (u64::MAX rounds up to it in f64) must be out of range,
        // not silently clamp to u64::MAX.
        let v = Value::Float(18446744073709551616.0);
        assert!(u64::from_value(&v).is_err());
        let v = Value::Float(9223372036854775808.0); // 2^63
        assert!(i64::from_value(&v).is_err());
        // In-range integral floats still convert.
        let v = Value::Float(1e3);
        assert_eq!(u64::from_value(&v).unwrap(), 1000);
    }
}
