//! Offline shim for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` for the sibling `serde` shim.
//!
//! The build environment has no crates.io access, so there is no `syn` or
//! `quote`; the input item is parsed directly from the proc-macro token
//! stream. That is tractable because the supported shapes are exactly the
//! ones this workspace derives on:
//!
//! * structs with named fields
//! * tuple structs (a single field serializes transparently, newtype-style;
//!   more fields serialize as an array)
//! * enums whose variants are unit (with optional explicit discriminants),
//!   newtype/tuple, or struct-like
//!
//! Named struct fields accept three `#[serde(...)]` options, spelled as in
//! real serde:
//!
//! * `default`: a missing key deserializes to `Default::default()`
//! * `default = "path"`: a missing key deserializes to `path()`
//! * `skip_serializing_if = "path"`: the key is omitted when
//!   `path(&self.field)` is true; the other keys keep declaration order
//!
//! Containers accept one option, `#[serde(deny_unknown_fields)]`:
//! deserializing an object with a key a named struct (or an enum's struct
//! variant) does not declare fails, naming the key and the expected ones,
//! instead of ignoring it. As in real serde, it has no effect on types
//! without named fields.
//!
//! Any other option, a `#[serde]` anywhere else (variant, tuple or variant
//! field), generic parameters, and unions produce a `compile_error!`
//! naming this crate, so a future reader hits a signpost instead of a
//! confusing expansion failure.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What we learned about the item under derive.
enum Item {
    /// `struct S { a: T, b: U }` — fields in declaration order.
    NamedStruct {
        name: String,
        fields: Vec<Field>,
        deny_unknown_fields: bool,
    },
    /// `struct S(T, U);` — number of unnamed fields.
    TupleStruct { name: String, arity: usize },
    /// `struct S;`
    UnitStruct { name: String },
    /// `enum E { ... }`
    Enum {
        name: String,
        variants: Vec<Variant>,
        deny_unknown_fields: bool,
    },
}

/// One named struct field and its `#[serde(...)]` options.
struct Field {
    name: String,
    /// Expression a missing key deserializes to; `None` makes the key
    /// required.
    default: Option<String>,
    /// Predicate path: the key is not serialized when it returns true.
    skip_serializing_if: Option<String>,
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

/// Derive `serde::Serialize` (shim edition).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derive `serde::Deserialize` (shim edition).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => generate(&item)
            .parse()
            .expect("serde_derive shim generated invalid Rust"),
        Err(msg) => format!("::core::compile_error!({msg:?});").parse().unwrap(),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    let container = take_attributes(&tokens, &mut i);
    let deny_unknown_fields = container_denies_unknown_fields(&container)?;
    skip_visibility(&tokens, &mut i);

    let kind = match ident_at(&tokens, i) {
        Some(k) if k == "struct" || k == "enum" => k,
        _ => return Err("serde shim derive: expected `struct` or `enum`".to_string()),
    };
    i += 1;

    let name = ident_at(&tokens, i).ok_or("serde shim derive: expected type name")?;
    i += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim derive: generic type `{name}` is not supported \
                 (see shims/serde_derive)"
            ));
        }
    }

    match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let body: Vec<TokenTree> = g.stream().into_iter().collect();
            if kind == "struct" {
                Ok(Item::NamedStruct {
                    name,
                    fields: parse_named_fields(&body, true)?,
                    deny_unknown_fields,
                })
            } else {
                Ok(Item::Enum {
                    name,
                    variants: parse_variants(&body)?,
                    deny_unknown_fields,
                })
            }
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            if kind != "struct" {
                return Err("serde shim derive: malformed enum".to_string());
            }
            let body: Vec<TokenTree> = g.stream().into_iter().collect();
            Ok(Item::TupleStruct {
                name,
                arity: count_tuple_fields(&body)?,
            })
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' && kind == "struct" => {
            Ok(Item::UnitStruct { name })
        }
        _ => Err(format!("serde shim derive: malformed `{kind} {name}`")),
    }
}

fn ident_at(tokens: &[TokenTree], i: usize) -> Option<String> {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => Some(id.to_string()),
        _ => None,
    }
}

/// Skip `#[...]` (and `#![...]`) attribute groups, returning what follows
/// the `serde` of each `#[serde...]` among them (doc comments and other
/// attributes are ignored).
fn take_attributes(tokens: &[TokenTree], i: &mut usize) -> Vec<Vec<TokenTree>> {
    let mut serde = Vec::new();
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1;
                if let Some(TokenTree::Punct(p)) = tokens.get(*i) {
                    if p.as_char() == '!' {
                        *i += 1;
                    }
                }
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    if g.delimiter() == Delimiter::Bracket {
                        let mut attr = g.stream().into_iter();
                        if matches!(attr.next(), Some(TokenTree::Ident(id)) if id.to_string() == "serde")
                        {
                            serde.push(attr.collect());
                        }
                        *i += 1;
                        continue;
                    }
                }
                return serde;
            }
            _ => return serde,
        }
    }
}

/// Fail if any `#[serde]` attribute sits where the shim takes none.
fn reject_serde(attrs: &[Vec<TokenTree>], place: &str) -> Result<(), String> {
    if attrs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "serde shim derive: `#[serde(...)]` on {place} is not supported; only named \
             struct fields take options (see shims/serde_derive)"
        ))
    }
}

/// Whether the container's `#[serde(...)]` attributes say
/// `deny_unknown_fields`, the one container option the shim takes.
fn container_denies_unknown_fields(attrs: &[Vec<TokenTree>]) -> Result<bool, String> {
    let mut deny = false;
    for attr in attrs {
        let text: String = attr.iter().map(|t| t.to_string()).collect();
        if text.split_whitespace().collect::<String>() != "(deny_unknown_fields)" || deny {
            return Err(format!(
                "serde shim derive: unsupported container attribute `#[serde{text}]`; only \
                 one `#[serde(deny_unknown_fields)]` is supported (see shims/serde_derive)"
            ));
        }
        deny = true;
    }
    Ok(deny)
}

/// Apply one field's `#[serde(...)]` options: `default`,
/// `default = "path"` and `skip_serializing_if = "path"`.
fn apply_field_options(field: &mut Field, attr: &[TokenTree]) -> Result<(), String> {
    // The attribute's text without whitespace: `(default,skip_serializing_if="p")`.
    let raw: String = attr.iter().map(|t| t.to_string()).collect();
    let text: String = raw.split_whitespace().collect();
    let name = &field.name;
    let unsupported = |what: &str| {
        format!(
            "serde shim derive: unsupported serde option `{what}` on field `{name}`; only \
             `default`, `default = \"path\"` and `skip_serializing_if = \"path\"` are \
             supported (see shims/serde_derive)"
        )
    };
    let options = text
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| unsupported(&format!("serde{text}")))?;
    for option in options.split(',').filter(|o| !o.is_empty()) {
        let path = |lit| string_path(lit).ok_or_else(|| unsupported(option));
        let (slot, code) = match option.split_once('=') {
            None if option == "default" => (
                &mut field.default,
                "::std::default::Default::default()".to_string(),
            ),
            Some(("default", lit)) => (&mut field.default, format!("{}()", path(lit)?)),
            Some(("skip_serializing_if", lit)) => {
                (&mut field.skip_serializing_if, path(lit)?.to_string())
            }
            _ => return Err(unsupported(option)),
        };
        if slot.replace(code).is_some() {
            return Err(format!(
                "serde shim derive: duplicate serde option `{option}` on field `{name}` \
                 (see shims/serde_derive)"
            ));
        }
    }
    Ok(())
}

/// The path inside a `"path"` string literal, if it looks like one.
fn string_path(lit: &str) -> Option<&str> {
    let path = lit.strip_prefix('"')?.strip_suffix('"')?;
    let ok = !path.is_empty()
        && path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    ok.then_some(path)
}

/// Skip `pub`, `pub(crate)`, `pub(in ...)`.
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Advance past a type (or discriminant expression) to the next top-level
/// comma, tracking `<`/`>` nesting so commas inside generics don't split.
fn skip_to_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle = 0i32;
    while let Some(t) = tokens.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => return,
                _ => {}
            }
        }
        *i += 1;
    }
}

/// Parse `name: Type` fields. `options` says whether they may carry
/// `#[serde(...)]` (struct fields) or not (enum variant fields).
fn parse_named_fields(tokens: &[TokenTree], options: bool) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = take_attributes(tokens, &mut i);
        if !options {
            reject_serde(&attrs, "an enum variant field")?;
        }
        if i >= tokens.len() {
            break;
        }
        skip_visibility(tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => {
                return Err(format!(
                    "serde shim derive: expected field name, got {other:?}"
                ))
            }
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("serde shim derive: expected `:`, got {other:?}")),
        }
        skip_to_comma(tokens, &mut i);
        i += 1; // past the comma (or end)
        let mut field = Field {
            name,
            default: None,
            skip_serializing_if: None,
        };
        for attr in &attrs {
            apply_field_options(&mut field, attr)?;
        }
        fields.push(field);
    }
    Ok(fields)
}

fn count_tuple_fields(tokens: &[TokenTree]) -> Result<usize, String> {
    let mut n = 0;
    let mut i = 0;
    while i < tokens.len() {
        reject_serde(&take_attributes(tokens, &mut i), "a tuple field")?;
        skip_visibility(tokens, &mut i);
        if i >= tokens.len() {
            break; // trailing comma
        }
        skip_to_comma(tokens, &mut i);
        i += 1;
        n += 1;
    }
    Ok(n)
}

fn parse_variants(tokens: &[TokenTree]) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        reject_serde(&take_attributes(tokens, &mut i), "an enum variant")?;
        if i >= tokens.len() {
            break;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => {
                return Err(format!(
                    "serde shim derive: expected variant name, got {other:?}"
                ))
            }
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                VariantShape::Tuple(count_tuple_fields(&body)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                let fields = parse_named_fields(&body, false)?;
                VariantShape::Named(fields.into_iter().map(|f| f.name).collect())
            }
            _ => VariantShape::Unit,
        };
        // Skip an explicit discriminant (`= 0x01`) if present.
        if let Some(TokenTree::Punct(p)) = tokens.get(i) {
            if p.as_char() == '=' {
                i += 1;
                skip_to_comma(tokens, &mut i);
            }
        }
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            other => {
                return Err(format!(
                    "serde shim derive: expected `,` after variant, got {other:?}"
                ))
            }
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::NamedStruct { name, fields, .. } => {
            let pushes = fields
                .iter()
                .map(|f| {
                    let n = &f.name;
                    let push = format!(
                        "__fields.push((::std::string::String::from({n:?}), \
                         ::serde::Serialize::to_value(&self.{n})));"
                    );
                    match &f.skip_serializing_if {
                        Some(skip) => format!("if !{skip}(&self.{n}) {{ {push} }}"),
                        None => push,
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            let body = format!(
                "let mut __fields = ::std::vec::Vec::with_capacity({});\n\
                 {pushes}\n\
                 ::serde::Value::Object(__fields)",
                fields.len()
            );
            (name, body)
        }
        Item::TupleStruct { name, arity: 1 } => {
            (name, "::serde::Serialize::to_value(&self.0)".to_string())
        }
        Item::TupleStruct { name, arity } => {
            let items = (0..*arity)
                .map(|k| format!("::serde::Serialize::to_value(&self.{k})"))
                .collect::<Vec<_>>()
                .join(", ");
            (name, format!("::serde::Value::Array(::std::vec![{items}])"))
        }
        Item::UnitStruct { name } => (name, "::serde::Value::Null".to_string()),
        Item::Enum { name, variants, .. } => {
            let arms = variants
                .iter()
                .map(|v| gen_serialize_arm(name, v))
                .collect::<Vec<_>>()
                .join("\n");
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_serialize_arm(name: &str, v: &Variant) -> String {
    let vn = &v.name;
    match &v.shape {
        VariantShape::Unit => {
            format!("{name}::{vn} => ::serde::Value::Str(::std::string::String::from({vn:?})),")
        }
        VariantShape::Tuple(arity) => {
            let binds = (0..*arity)
                .map(|k| format!("__f{k}"))
                .collect::<Vec<_>>()
                .join(", ");
            let inner = if *arity == 1 {
                "::serde::Serialize::to_value(__f0)".to_string()
            } else {
                let items = (0..*arity)
                    .map(|k| format!("::serde::Serialize::to_value(__f{k})"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("::serde::Value::Array(::std::vec![{items}])")
            };
            format!(
                "{name}::{vn}({binds}) => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from({vn:?}), {inner})]),"
            )
        }
        VariantShape::Named(fields) => {
            let binds = fields.join(", ");
            let pairs = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), ::serde::Serialize::to_value({f}))"
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from({vn:?}), \
                      ::serde::Value::Object(::std::vec![{pairs}]))]),"
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::NamedStruct {
            name,
            fields,
            deny_unknown_fields,
        } => {
            let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
            let deny = deny_unknown(*deny_unknown_fields, "__fields", &names, name);
            let inits = fields
                .iter()
                .map(|f| {
                    let n = &f.name;
                    match &f.default {
                        None => format!(
                            "{n}: ::serde::Deserialize::from_value(\
                             ::serde::__private::field(__fields, {n:?}, {name:?})?)?,"
                        ),
                        Some(default) => format!(
                            "{n}: match ::serde::__private::optional_field(__fields, {n:?}) {{\n\
                                 ::std::option::Option::Some(__v) => \
                                     ::serde::Deserialize::from_value(__v)?,\n\
                                 ::std::option::Option::None => {default},\n\
                             }},"
                        ),
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            (
                name,
                format!(
                    "let __fields = ::serde::__private::as_object(v, {name:?})?;\n\
                     {deny}\
                     ::std::result::Result::Ok({name} {{ {inits} }})"
                ),
            )
        }
        Item::TupleStruct { name, arity: 1 } => (
            name,
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))"),
        ),
        Item::TupleStruct { name, arity } => {
            let inits = (0..*arity)
                .map(|k| format!("::serde::Deserialize::from_value(&__items[{k}])?"))
                .collect::<Vec<_>>()
                .join(", ");
            (
                name,
                format!(
                    "match v {{\n\
                         ::serde::Value::Array(__items) if __items.len() == {arity} =>\n\
                             ::std::result::Result::Ok({name}({inits})),\n\
                         other => ::std::result::Result::Err(\
                             ::serde::DeError::expected({name:?}, other)),\n\
                     }}"
                ),
            )
        }
        Item::UnitStruct { name } => (
            name,
            format!(
                "match v {{\n\
                     ::serde::Value::Null => ::std::result::Result::Ok({name}),\n\
                     other => ::std::result::Result::Err(\
                         ::serde::DeError::expected({name:?}, other)),\n\
                 }}"
            ),
        ),
        Item::Enum {
            name,
            variants,
            deny_unknown_fields,
        } => {
            let unit_arms = variants
                .iter()
                .filter(|v| matches!(v.shape, VariantShape::Unit))
                .map(|v| {
                    let vn = &v.name;
                    format!("{vn:?} => ::std::result::Result::Ok({name}::{vn}),")
                })
                .collect::<Vec<_>>()
                .join("\n");
            let data_arms = variants
                .iter()
                .filter(|v| !matches!(v.shape, VariantShape::Unit))
                .map(|v| gen_deserialize_data_arm(name, v, *deny_unknown_fields))
                .collect::<Vec<_>>()
                .join("\n");
            (
                name,
                format!(
                    "match v {{\n\
                         ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                             {unit_arms}\n\
                             __other => ::std::result::Result::Err(::serde::DeError::msg(\
                                 ::std::format!(\"unknown variant `{{}}` of {name}\", __other))),\n\
                         }},\n\
                         ::serde::Value::Object(__fields) if __fields.len() == 1 => {{\n\
                             let (__tag, __inner) = &__fields[0];\n\
                             match __tag.as_str() {{\n\
                                 {data_arms}\n\
                                 __other => ::std::result::Result::Err(::serde::DeError::msg(\
                                     ::std::format!(\"unknown variant `{{}}` of {name}\", __other))),\n\
                             }}\n\
                         }}\n\
                         other => ::std::result::Result::Err(\
                             ::serde::DeError::expected({name:?}, other)),\n\
                     }}"
                ),
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
}

/// The statement that rejects keys outside `names` in the object bound
/// to `fields`, or nothing when the type accepts unknown keys.
fn deny_unknown(deny: bool, fields: &str, names: &[&str], ty: &str) -> String {
    if !deny {
        return String::new();
    }
    format!("::serde::__private::deny_unknown_fields({fields}, &{names:?}, {ty:?})?;\n")
}

fn gen_deserialize_data_arm(name: &str, v: &Variant, deny_unknown_fields: bool) -> String {
    let vn = &v.name;
    match &v.shape {
        VariantShape::Unit => unreachable!("unit variants handled as strings"),
        VariantShape::Tuple(1) => format!(
            "{vn:?} => ::std::result::Result::Ok(\
                 {name}::{vn}(::serde::Deserialize::from_value(__inner)?)),"
        ),
        VariantShape::Tuple(arity) => {
            let inits = (0..*arity)
                .map(|k| format!("::serde::Deserialize::from_value(&__items[{k}])?"))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "{vn:?} => match __inner {{\n\
                     ::serde::Value::Array(__items) if __items.len() == {arity} =>\n\
                         ::std::result::Result::Ok({name}::{vn}({inits})),\n\
                     other => ::std::result::Result::Err(\
                         ::serde::DeError::expected(\"{name}::{vn}\", other)),\n\
                 }},"
            )
        }
        VariantShape::Named(fields) => {
            let ty = format!("{name}::{vn}");
            let names: Vec<&str> = fields.iter().map(String::as_str).collect();
            let deny = deny_unknown(deny_unknown_fields, "__vfields", &names, &ty);
            let inits = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(\
                         ::serde::__private::field(__vfields, {f:?}, {ty:?})?)?,"
                    )
                })
                .collect::<Vec<_>>()
                .join("\n");
            format!(
                "{vn:?} => {{\n\
                     let __vfields = ::serde::__private::as_object(__inner, {ty:?})?;\n\
                     {deny}\
                     ::std::result::Result::Ok({name}::{vn} {{ {inits} }})\n\
                 }},"
            )
        }
    }
}
