//! Offline shim for the parts of `serde_json` this workspace uses:
//! [`to_string`], [`from_str`], [`to_string_pretty`], and [`Error`].
//!
//! The value model, compact serializer, and parser live in the sibling
//! `serde` shim (`serde::Value`); this crate provides the familiar
//! `serde_json` entry points over them. Output is byte-compatible with real
//! serde_json for the types this workspace serializes (derived structs
//! and enums over integers, floats, bools, strings, vectors).

use std::fmt;

pub use serde::Value;

/// A serialization or deserialization error.
#[derive(Clone, Debug)]
pub struct Error {
    inner: serde::DeError,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.inner)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(inner: serde::DeError) -> Self {
        Error { inner }
    }
}

/// Serialize `value` to a compact JSON string.
///
/// Infallible for the types this workspace serializes; returns `Result`
/// for signature compatibility with real serde_json.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json())
}

/// Serialize `value` to pretty-printed JSON (two-space indentation).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Deserialize a value of type `T` from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let v = Value::parse_json(s)?;
    Ok(T::from_value(&v)?)
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_in);
                out.push_str(&Value::Str(k.clone()).to_json());
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
        other => out.push_str(&other.to_json()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let s = to_string(&1.25f64).unwrap();
        assert_eq!(s, "1.25");
        let back: f64 = from_str(&s).unwrap();
        assert_eq!(back, 1.25);
    }

    #[test]
    fn vec_round_trip() {
        let xs = vec![1u64, 2, 3];
        let s = to_string(&xs).unwrap();
        assert_eq!(s, "[1,2,3]");
        let back: Vec<u64> = from_str(&s).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn parse_error_is_error_trait_object() {
        let err = from_str::<bool>("not json").unwrap_err();
        let _boxed: Box<dyn std::error::Error + Send + Sync> = Box::new(err);
    }

    #[test]
    fn pretty_printing_shapes() {
        let v = vec![vec![1u8], vec![2, 3]];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("[\n"));
        let back: Vec<Vec<u8>> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }
}
