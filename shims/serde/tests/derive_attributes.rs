//! The three field options the derive shim accepts — `default`,
//! `default = "path"` and `skip_serializing_if = "path"` — and its one
//! container option, `deny_unknown_fields`, behave like real serde's:
//! missing keys fall back, skipped keys vanish without reordering the
//! rest, required fields keep their error text, and a denied unknown key
//! fails naming itself.

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

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct Strict {
    a: u32,
    #[serde(default)]
    b: u32,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct OneKey {
    only: u32,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
enum Shape {
    Dot,
    Box { w: u32, h: u32, d: u32 },
}

#[test]
fn denied_unknown_keys_fail_naming_the_key_and_the_expected_ones() {
    let ok = Strict::from_value(&object(&[("a", Value::Int(1))])).unwrap();
    assert_eq!(ok, Strict { a: 1, b: 0 });
    let err =
        Strict::from_value(&object(&[("a", Value::Int(1)), ("c", Value::Int(2))])).unwrap_err();
    assert_eq!(
        err.to_string(),
        "unknown field `c` in Strict, expected `a` or `b`"
    );
    // The unknown key is reported even when a required one is missing.
    let err = Strict::from_value(&object(&[("zz", Value::Int(1))])).unwrap_err();
    assert!(err.to_string().starts_with("unknown field `zz`"), "{err}");
    let err = OneKey::from_value(&object(&[("onyl", Value::Int(1))])).unwrap_err();
    assert_eq!(
        err.to_string(),
        "unknown field `onyl` in OneKey, expected `only`"
    );
    // An enum's struct variants deny too; unit variants are unaffected.
    assert_eq!(
        Shape::from_value(&Value::Str("Dot".into())).unwrap(),
        Shape::Dot
    );
    let inner = object(&[
        ("w", Value::Int(1)),
        ("h", Value::Int(2)),
        ("d", Value::Int(3)),
        ("x", Value::Int(4)),
    ]);
    let err = Shape::from_value(&object(&[("Box", inner)])).unwrap_err();
    assert_eq!(
        err.to_string(),
        "unknown field `x` in Shape::Box, expected one of `w`, `h`, `d`"
    );
}

#[test]
fn types_without_the_option_still_ignore_unknown_keys() {
    let knobs = Knobs::from_value(&object(&[
        ("name", Value::Str("a".into())),
        ("extra", Value::Int(1)),
    ]))
    .unwrap();
    assert_eq!(knobs.name, "a");
}
