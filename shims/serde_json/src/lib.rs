//! Offline stand-in for `serde_json`, built on the serde shim:
//! [`Value`], the [`json!`] macro, `to_string` (the value's own
//! `Serialize::write_json`), `to_string_pretty`, and a full JSON text
//! parser for `from_str`.

pub use serde::{Num, Value};

/// (De)serialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn msg(s: impl Into<String>) -> Error {
        Error(s.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Error {
        Error(e.0)
    }
}

/// Serialize to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serialize to pretty (2-space-indented) JSON: the compact text, parsed
/// back into a [`Value`] and rendered indented. The numbers stay as
/// written, because the parser keeps one with a `.` or an exponent a
/// float and a number renders back the text it was parsed from.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    from_str::<Value>(&to_string(value)?)?.render(&mut out, Some(0));
    Ok(out)
}

/// Parse JSON text.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = TextParser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

struct TextParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl TextParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_word("null") => Ok(Value::Null),
            Some(b't') if self.eat_word("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut elems = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(elems));
                }
                loop {
                    elems.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(elems));
                        }
                        _ => return Err(Error::msg(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(members));
                        }
                        _ => return Err(Error::msg(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::msg(format!(
                "unexpected {other:?} at byte {}",
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(Error::msg("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // serializer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => return Err(Error::msg(format!("bad escape {other:?}"))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::msg("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Num::PosInt(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Num::NegInt(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Num::Float(f)))
            .map_err(|e| Error::msg(format!("bad number {text:?}: {e}")))
    }
}

/// Build a [`Value`] from JSON-looking syntax, mirroring the real
/// `serde_json::json!` for the shapes the workspace uses: object and
/// array literals with string-literal keys, nested freely, and
/// arbitrary Rust expressions (converted via `Value::from`) as values.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut, clippy::vec_init_then_push)]
        let array = {
            let mut array: Vec<$crate::Value> = Vec::new();
            $crate::json_munch_array!(array $($tt)*);
            array
        };
        $crate::Value::Array(array)
    }};
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut, clippy::vec_init_then_push)]
        let object = {
            let mut object: Vec<(String, $crate::Value)> = Vec::new();
            $crate::json_munch_object!(object $($tt)*);
            object
        };
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

/// Internal: accumulate `"key": value` members (value = tt sequence up
/// to the next top-level comma).
#[doc(hidden)]
#[macro_export]
macro_rules! json_munch_object {
    ($obj:ident) => {};
    ($obj:ident $key:literal : $($rest:tt)*) => {
        $crate::json_munch_value!($obj $key [] $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_munch_value {
    ($obj:ident $key:literal [$($val:tt)*]) => {
        $obj.push((($key).to_string(), $crate::json!($($val)*)));
    };
    ($obj:ident $key:literal [$($val:tt)*] , $($rest:tt)*) => {
        $obj.push((($key).to_string(), $crate::json!($($val)*)));
        $crate::json_munch_object!($obj $($rest)*);
    };
    ($obj:ident $key:literal [$($val:tt)*] $next:tt $($rest:tt)*) => {
        $crate::json_munch_value!($obj $key [$($val)* $next] $($rest)*);
    };
}

/// Internal: accumulate array elements.
#[doc(hidden)]
#[macro_export]
macro_rules! json_munch_array {
    ($arr:ident) => {};
    ($arr:ident $($rest:tt)+) => {
        $crate::json_munch_array_value!($arr [] $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_munch_array_value {
    ($arr:ident [$($val:tt)*]) => {
        $arr.push($crate::json!($($val)*));
    };
    ($arr:ident [$($val:tt)*] , $($rest:tt)*) => {
        $arr.push($crate::json!($($val)*));
        $crate::json_munch_array!($arr $($rest)*);
    };
    ($arr:ident [$($val:tt)*] $next:tt $($rest:tt)*) => {
        $crate::json_munch_array_value!($arr [$($val)* $next] $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_objects() {
        let name = "core3";
        let v = json!({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 3,
            "args": {"name": format!("{name}")},
            "xs": [1, 2.5, "three", {"k": null}],
        });
        assert_eq!(v["name"], "thread_name");
        assert_eq!(v["pid"], 1);
        assert_eq!(v["args"]["name"], "core3");
        assert_eq!(v["xs"][1], 2.5);
        assert_eq!(v["xs"][2], "three");
        assert!(v["xs"][3]["k"].is_null());
    }

    #[test]
    fn round_trip_text() {
        let v = json!({"a": [1, -2, 3.5], "b": {"c": "str\"esc", "d": true}, "e": null});
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"a\": [\n    1,"));
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn numbers_preserve_kind() {
        let v: Value = from_str("[18446744073709551615, -3, 2.0]").unwrap();
        assert_eq!(v[0].as_u64(), Some(u64::MAX));
        assert_eq!(v[1].as_i64(), Some(-3));
        assert_eq!(v[2].as_f64(), Some(2.0));
        assert_eq!(to_string(&v).unwrap(), "[18446744073709551615,-3,2.0]");
    }

    #[test]
    fn out_of_range_numbers_do_not_saturate() {
        // 2^64 and 2^63 parse as floats; `as` would clamp them to the
        // integer's maximum.
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert!(from_str::<i64>("9223372036854775808.0").is_err());
        assert!(from_str::<u64>("18446744073709551616.0").is_err());
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-9223372036854775808.0").unwrap(), i64::MIN);
    }
}
