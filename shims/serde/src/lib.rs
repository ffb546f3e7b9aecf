//! Offline stand-in for `serde`.
//!
//! This container has no network access and no vendored registry, so the
//! real `serde` cannot be fetched. This shim provides the exact surface
//! the workspace uses — `#[derive(Serialize, Deserialize)]` and the
//! `serde_json` facade built on top of it — with two plain traits
//! instead of serde's visitor architecture: `Serialize` writes a type's
//! compact JSON text into a `String`; `Deserialize` rebuilds a type from
//! a [`Value`] tree, which only the `serde_json` parser and `json!`
//! build.
//!
//! The JSON text produced through `serde_json::to_string[_pretty]` is
//! compatible with the real crates for every shape this workspace
//! serializes (structs, newtypes, unit/tuple/struct enum variants,
//! sequences, maps with integer or string keys, options).

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like value tree. Object keys preserve insertion order so
/// derived struct output matches the real serde_json field order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(Num),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// Number repr, mirroring serde_json's three-way split so u64 values
/// round-trip without f64 precision loss.
#[derive(Debug, Clone, Copy)]
pub enum Num {
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Float.
    Float(f64),
}

impl Num {
    /// Numeric value as f64 (lossy for huge integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Num::PosInt(u) => u as f64,
            Num::NegInt(i) => i as f64,
            Num::Float(f) => f,
        }
    }

    /// As u64 if representable.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Num::PosInt(u) => Some(u),
            Num::NegInt(_) => None,
            // `u64::MAX as f64` is 2^64, one past the largest u64.
            Num::Float(f) if f >= 0.0 && f.fract() == 0.0 && f < u64::MAX as f64 => Some(f as u64),
            Num::Float(_) => None,
        }
    }

    /// As i64 if representable.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Num::PosInt(u) => i64::try_from(u).ok(),
            Num::NegInt(i) => Some(i),
            // `i64::MAX as f64` is 2^63, one past the largest i64.
            Num::Float(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f < i64::MAX as f64 => {
                Some(f as i64)
            }
            Num::Float(_) => None,
        }
    }
}

impl PartialEq for Num {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Num::PosInt(a), Num::PosInt(b)) => a == b,
            (Num::NegInt(a), Num::NegInt(b)) => a == b,
            (a, b) => a.as_f64() == b.as_f64(),
        }
    }
}

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Num::PosInt(u) => write!(f, "{u}"),
            Num::NegInt(i) => write!(f, "{i}"),
            Num::Float(x) => {
                if !x.is_finite() {
                    // serde_json writes non-finite floats as null.
                    write!(f, "null")
                } else if x.fract() == 0.0 && x.abs() < 1e16 {
                    // Keep the ".0" the real serde_json (ryu) emits.
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// Member by key (objects only).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True for arrays.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// The elements, for arrays.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, for objects.
    pub(crate) fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Numeric value as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Numeric value as u64.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Numeric value as i64.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean contents.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compact JSON text.
    pub fn render(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                use fmt::Write as _;
                let _ = write!(out, "{n}");
            }
            Value::String(s) => escape_into(s, out),
            Value::Array(a) => {
                if a.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|n| n + 1));
                    v.render(out, indent.map(|n| n + 1));
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Value::Object(m) => {
                if m.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent.map(|n| n + 1));
                    escape_into(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.render(out, indent.map(|n| n + 1));
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n {
            out.push_str("  ");
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render(&mut s, None);
        f.write_str(&s)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                match self {
                    Value::Number(n) => *n == Num::from(*other),
                    _ => false,
                }
            }
        }
    )*};
}
eq_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! num_from {
    (pos: $($t:ty),*) => {$(
        impl From<$t> for Num {
            fn from(v: $t) -> Num { Num::PosInt(v as u64) }
        }
    )*};
    (sig: $($t:ty),*) => {$(
        impl From<$t> for Num {
            fn from(v: $t) -> Num {
                if v >= 0 { Num::PosInt(v as u64) } else { Num::NegInt(v as i64) }
            }
        }
    )*};
}
num_from!(pos: u8, u16, u32, u64, usize);
num_from!(sig: i8, i16, i32, i64, isize);
impl From<f64> for Num {
    fn from(v: f64) -> Num {
        Num::Float(v)
    }
}
impl From<f32> for Num {
    fn from(v: f32) -> Num {
        Num::Float(v as f64)
    }
}

macro_rules! value_from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::Number(Num::from(v)) }
        }
    )*};
}
value_from_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Array(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    /// New error with a message.
    pub fn msg(s: impl Into<String>) -> DeError {
        DeError(s.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Write a value as compact JSON text.
pub trait Serialize {
    /// Append `self`'s compact JSON to `out`.
    fn write_json(&self, out: &mut String);
}

/// Write an object member's key as compact rendering does: `,` before
/// every member but the `first`, then the quoted key and `:`.
// lint:allow(shim-drift): derive-generated `write_json` calls
// `::serde::write_key`; the call sites live in string literals inside
// serde_derive, which the lexer blanks out
pub fn write_key(out: &mut String, first: bool, key: &str) {
    if !first {
        out.push(',');
    }
    escape_into(key, out);
    out.push(':');
}

/// Write a sequence as compact rendering writes an array.
fn write_seq<T: Serialize>(items: &[T], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Write a map key as an object member's name: a string key as it
/// writes itself, a number or `bool` key in quotes.
fn write_map_key<K: Serialize>(key: &K, out: &mut String) {
    let start = out.len();
    key.write_json(out);
    match out.as_bytes().get(start) {
        Some(b'"') => {}
        Some(b'-' | b'0'..=b'9' | b't' | b'f') => {
            out.insert(start, '"');
            out.push('"');
        }
        _ => panic!("unsupported map key type: {}", &out[start..]),
    }
}

/// The string a map key stands for: its member name with the quotes
/// removed and the escapes [`escape_into`] writes undone.
fn key_string<K: Serialize>(key: &K) -> String {
    let mut name = String::new();
    write_map_key(key, &mut name);
    let mut chars = name[1..name.len() - 1].chars();
    let mut plain = String::new();
    while let Some(c) = chars.next() {
        if c != '\\' {
            plain.push(c);
            continue;
        }
        plain.push(match chars.next() {
            Some('n') => '\n',
            Some('r') => '\r',
            Some('t') => '\t',
            Some('u') => {
                let code = chars.by_ref().take(4).filter_map(|h| h.to_digit(16));
                char::from_u32(code.fold(0, |n, h| n * 16 + h)).unwrap_or('\u{fffd}')
            }
            // `"` and `\`.
            other => other.unwrap_or('\\'),
        });
    }
    plain
}

/// Write map members in the order given.
fn write_object<'a, K: Serialize + 'a, V: Serialize + 'a>(
    members: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_map_key(k, out);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

/// Rebuild a value from the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parse from a value node.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Called for a missing object member (Option yields `None`, like
    /// real serde_json's treatment of absent optional fields).
    fn when_missing(field: &str) -> Result<Self, DeError> {
        Err(DeError::msg(format!("missing field `{field}`")))
    }
}

/// Fetch + deserialize one struct field (used by derived code and by
/// hand-written `Deserialize` impls).
pub fn from_field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    match v.get(name) {
        Some(x) => T::from_value(x),
        None => T::when_missing(name),
    }
}

macro_rules! ser_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                use fmt::Write as _;
                let _ = write!(out, "{}", Num::from(*self));
            }
        }
    )*};
}
ser_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(n) => {
                        let f = n.as_f64();
                        // Integers may also arrive as object-key strings.
                        <$t>::try_from(n.as_i64().or_else(|| n.as_u64().and_then(|u| i64::try_from(u).ok()))
                            .ok_or_else(|| DeError::msg(format!("not an integer: {f}")))?)
                            .map_err(|_| DeError::msg(format!("integer out of range: {f}")))
                    }
                    Value::String(s) => s
                        .parse::<$t>()
                        .map_err(|e| DeError::msg(format!("bad integer key {s:?}: {e}"))),
                    other => Err(DeError::msg(format!("expected integer, got {other}"))),
                }
            }
        }
    )*};
}
de_int!(u8, u16, u32, usize, i8, i16, i32, i64, isize);

// u64 separately: values above i64::MAX must survive.
impl Deserialize for u64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Number(n) => n
                .as_u64()
                .ok_or_else(|| DeError::msg(format!("not a u64: {n}"))),
            Value::String(s) => s
                .parse::<u64>()
                .map_err(|e| DeError::msg(format!("bad u64 key {s:?}: {e}"))),
            other => Err(DeError::msg(format!("expected u64, got {other}"))),
        }
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64()
            .ok_or_else(|| DeError::msg(format!("expected number, got {v}")))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool()
            .ok_or_else(|| DeError::msg(format!("expected bool, got {v}")))
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        escape_into(self, out);
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::msg(format!("expected string, got {v}")))
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        escape_into(self, out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
    fn when_missing(_field: &str) -> Result<Self, DeError> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::msg(format!("expected array, got {v}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        items.try_into().map_err(|items: Vec<T>| {
            DeError::msg(format!("expected {N} elements, got {}", items.len()))
        })
    }
}

macro_rules! ser_de_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut String) {
                write_seq(&[$(&self.$n as &dyn Serialize),+], out);
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let a = v
                    .as_array()
                    .ok_or_else(|| DeError::msg(format!("expected tuple array, got {v}")))?;
                Ok(($($t::from_value(
                    a.get($n).ok_or_else(|| DeError::msg("tuple too short"))?
                )?,)+))
            }
        }
    )*};
}
ser_de_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        write_object(self.iter(), out);
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_object()
            .ok_or_else(|| DeError::msg(format!("expected object, got {v}")))?
            .iter()
            .map(|(k, val)| {
                Ok((
                    K::from_value(&Value::String(k.clone()))?,
                    V::from_value(val)?,
                ))
            })
            .collect()
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn write_json(&self, out: &mut String) {
        // Sorted by key string for deterministic output (HashMap
        // iteration order is not).
        let mut members: Vec<(&K, &V)> = self.iter().collect();
        members.sort_by_cached_key(|(k, _)| key_string(*k));
        write_object(members.into_iter(), out);
    }
}
impl<K: Deserialize + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_object()
            .ok_or_else(|| DeError::msg(format!("expected object, got {v}")))?
            .iter()
            .map(|(k, val)| {
                Ok((
                    K::from_value(&Value::String(k.clone()))?,
                    V::from_value(val)?,
                ))
            })
            .collect()
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        self.render(out, None);
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors_and_eq() {
        let v = Value::Object(vec![
            ("a".into(), Value::Number(Num::PosInt(3))),
            ("b".into(), Value::String("x".into())),
            ("c".into(), Value::Array(vec![Value::Bool(true)])),
        ]);
        assert_eq!(v["a"], 3u64);
        assert_eq!(v["a"], 3i32);
        assert_eq!(v["b"], "x");
        assert!(v["c"].is_array());
        assert_eq!(v["c"][0], true);
        assert!(v["missing"].is_null());
        assert_eq!(v["a"].as_f64(), Some(3.0));
    }

    #[test]
    fn float_rendering_keeps_point_zero() {
        let mut s = String::new();
        Value::Number(Num::Float(2.0)).render(&mut s, None);
        assert_eq!(s, "2.0");
        let mut s = String::new();
        Value::Number(Num::Float(1.25)).render(&mut s, None);
        assert_eq!(s, "1.25");
    }

    #[test]
    fn map_keys_round_trip_through_strings() {
        let mut m = BTreeMap::new();
        m.insert(5u64, "five".to_string());
        let text = serde_json::to_string(&m).unwrap();
        assert_eq!(text, r#"{"5":"five"}"#);
        let back: BTreeMap<u64, String> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn option_fields_default_to_none_when_missing() {
        let v = Value::Object(vec![]);
        let got: Option<f64> = from_field(&v, "err").unwrap();
        assert_eq!(got, None);
        assert!(from_field::<f64>(&v, "err").is_err());
    }
}
