//! The three field options the derive shim accepts — `default`,
//! `default = "path"` and `skip_serializing_if = "path"` — behave like
//! real serde's: missing keys fall back, skipped keys vanish without
//! reordering the rest, and required fields keep their error text.

use serde::{Deserialize, Serialize, Value};

fn default_limit() -> u32 {
    7
}

fn is_zero(v: &u32) -> bool {
    *v == 0
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Knobs {
    name: String,
    #[serde(default)]
    count: u32,
    #[serde(default = "default_limit")]
    limit: u32,
    #[serde(default)]
    label: Option<String>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Sparse {
    first: u32,
    #[serde(default, skip_serializing_if = "is_zero")]
    middle: u32,
    #[serde(skip_serializing_if = "Vec::is_empty")]
    tags: Vec<u32>,
    last: bool,
}

fn object(fields: &[(&str, Value)]) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected object, got {other:?}"),
    }
}

#[test]
fn missing_fields_fall_back_to_default_and_to_the_named_path() {
    let knobs = Knobs::from_value(&object(&[("name", Value::Str("a".into()))])).unwrap();
    assert_eq!(
        knobs,
        Knobs {
            name: "a".into(),
            count: 0,
            limit: 7,
            label: None,
        }
    );
    // A present key wins over either fallback.
    let knobs = Knobs::from_value(&object(&[
        ("name", Value::Str("b".into())),
        ("count", Value::Int(3)),
        ("limit", Value::Int(9)),
    ]))
    .unwrap();
    assert_eq!((knobs.count, knobs.limit), (3, 9));
}

#[test]
fn option_with_default_accepts_a_missing_key_and_null() {
    let missing = Knobs::from_value(&object(&[("name", Value::Str("a".into()))])).unwrap();
    let null = Knobs::from_value(&object(&[
        ("name", Value::Str("a".into())),
        ("label", Value::Null),
    ]))
    .unwrap();
    assert_eq!(missing.label, None);
    assert_eq!(null, missing);
    let set = Knobs::from_value(&object(&[
        ("name", Value::Str("a".into())),
        ("label", Value::Str("x".into())),
    ]))
    .unwrap();
    assert_eq!(set.label.as_deref(), Some("x"));
}

#[test]
fn skipped_middle_field_keeps_the_remaining_keys_in_declaration_order() {
    let mut s = Sparse {
        first: 1,
        middle: 0,
        tags: Vec::new(),
        last: true,
    };
    assert_eq!(keys(&s.to_value()), ["first", "last"]);
    s.tags.push(4);
    assert_eq!(keys(&s.to_value()), ["first", "tags", "last"]);
    s.middle = 2;
    assert_eq!(keys(&s.to_value()), ["first", "middle", "tags", "last"]);
    assert_eq!(Sparse::from_value(&s.to_value()).unwrap(), s);
}

#[test]
fn fields_without_default_stay_required_with_the_same_error() {
    let err = Knobs::from_value(&object(&[("count", Value::Int(1))])).unwrap_err();
    assert_eq!(err.to_string(), "missing field `name` in Knobs");
    // `skip_serializing_if` alone does not make a key optional.
    let err = Sparse::from_value(&object(&[
        ("first", Value::Int(1)),
        ("last", Value::Bool(false)),
    ]))
    .unwrap_err();
    assert_eq!(err.to_string(), "missing field `tags` in Sparse");
}
