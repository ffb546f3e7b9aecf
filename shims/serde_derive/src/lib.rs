//! Derive macros for the offline serde shim: hand-rolled token parsing
//! (no `syn`/`quote` in this container) generating `Serialize` impls
//! that write compact JSON text and `Deserialize` impls that read the
//! shim's value tree.
//!
//! Supported shapes — everything this workspace derives on:
//! * structs with named fields,
//! * tuple structs (newtypes serialize transparently, like real serde),
//! * unit structs,
//! * enums with unit, tuple and struct variants (externally tagged,
//!   matching serde's default representation).
//!
//! The one field attribute is `#[serde(skip)]` on a named field: the
//! field is left out of the serialized object and deserialization fills
//! it with `Default::default()`, as in real serde. Any other `serde`
//! attribute is a compile error naming the shim.
//!
//! Generics are not supported (nothing in the workspace derives on a
//! generic type); hitting one produces a compile error naming the shim.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// One named field and whether it carries `#[serde(skip)]`.
struct Field {
    name: String,
    skip: bool,
}

/// The names of the fields that are serialized, in order.
fn kept(fields: &[Field]) -> impl Iterator<Item = &str> {
    fields.iter().filter(|f| !f.skip).map(|f| f.name.as_str())
}

enum Input {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<(String, Shape)>,
    },
}

struct Parser {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Parser {
    fn new(ts: TokenStream) -> Parser {
        Parser {
            tokens: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume the attributes in front of an item, field or variant;
    /// true when one of them is `#[serde(skip)]`.
    fn skip_attrs(&mut self) -> bool {
        let mut skip = false;
        while matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            self.next();
            // #![...] inner attrs do not appear on items, but be lenient.
            if matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '!') {
                self.next();
            }
            if let Some(TokenTree::Group(g)) = self.next() {
                skip |= is_serde_skip(g.stream());
            }
        }
        skip
    }

    fn skip_vis(&mut self) {
        if matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
            self.next();
            if matches!(
                self.peek(),
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
            ) {
                self.next();
            }
        }
    }

    fn expect_ident(&mut self, what: &str) -> String {
        match self.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("serde shim derive: expected {what}, got {other:?}"),
        }
    }
}

/// True for the body of `#[serde(skip)]`, false for any attribute not
/// named `serde`; any other `serde(...)` body is refused.
fn is_serde_skip(attr: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    match tokens.as_slice() {
        [TokenTree::Ident(name), rest @ ..] if name.to_string() == "serde" => match rest {
            [TokenTree::Group(g)] if g.stream().to_string() == "skip" => true,
            _ => panic!(
                "serde shim derive: the only supported serde attribute is \
                 `#[serde(skip)]`, got `#[serde{}]`",
                rest.iter().map(|t| t.to_string()).collect::<String>()
            ),
        },
        _ => false,
    }
}

/// Number of top-level (outside `<...>`) comma-separated fields in a
/// tuple-struct / tuple-variant body.
fn count_tuple_fields(ts: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = ts.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut fields = 1usize;
    let mut angle = 0i32;
    let mut last_was_comma = false;
    for t in &tokens {
        last_was_comma = false;
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    fields += 1;
                    last_was_comma = true;
                }
                _ => {}
            }
        }
    }
    if last_was_comma {
        fields -= 1; // trailing comma
    }
    fields
}

/// The fields of a named-field body (struct or struct variant).
fn parse_named_fields(ts: TokenStream) -> Vec<Field> {
    let mut p = Parser::new(ts);
    let mut fields = Vec::new();
    loop {
        let skip = p.skip_attrs();
        if p.peek().is_none() {
            break;
        }
        p.skip_vis();
        let name = p.expect_ident("field name");
        fields.push(Field { name, skip });
        match p.next() {
            Some(TokenTree::Punct(pt)) if pt.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:`, got {other:?}"),
        }
        // Skip the type up to the next top-level comma.
        let mut angle = 0i32;
        loop {
            match p.next() {
                None => break,
                Some(TokenTree::Punct(pt)) => match pt.as_char() {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    ',' if angle == 0 => break,
                    _ => {}
                },
                Some(_) => {}
            }
        }
    }
    fields
}

fn parse_input(ts: TokenStream) -> Input {
    let mut p = Parser::new(ts);
    if p.skip_attrs() {
        panic!("serde shim derive: `#[serde(skip)]` is supported on named fields only");
    }
    p.skip_vis();
    let kind = p.expect_ident("`struct` or `enum`");
    let name = p.expect_ident("type name");
    if matches!(p.peek(), Some(TokenTree::Punct(pt)) if pt.as_char() == '<') {
        panic!("serde shim derive: generic types are not supported (type `{name}`)");
    }
    match kind.as_str() {
        "struct" => {
            let shape = match p.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Shape::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Shape::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(pt)) if pt.as_char() == ';' => Shape::Unit,
                other => panic!("serde shim derive: unexpected struct body {other:?}"),
            };
            Input::Struct { name, shape }
        }
        "enum" => {
            let body = match p.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde shim derive: unexpected enum body {other:?}"),
            };
            let mut vp = Parser::new(body);
            let mut variants = Vec::new();
            loop {
                if vp.skip_attrs() {
                    panic!("serde shim derive: `#[serde(skip)]` is supported on named fields only");
                }
                if vp.peek().is_none() {
                    break;
                }
                let vname = vp.expect_ident("variant name");
                let shape = match vp.peek() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        let s = Shape::Tuple(count_tuple_fields(g.stream()));
                        vp.next();
                        s
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        let s = Shape::Named(parse_named_fields(g.stream()));
                        vp.next();
                        s
                    }
                    _ => Shape::Unit,
                };
                if matches!(vp.peek(), Some(TokenTree::Punct(pt)) if pt.as_char() == ',') {
                    vp.next();
                }
                variants.push((vname, shape));
            }
            Input::Enum { name, variants }
        }
        other => panic!("serde shim derive: cannot derive on `{other}` items"),
    }
}

/// Code writing the JSON of a tuple body whose elements are the
/// expressions `elems`: a newtype as its one element, anything else as
/// an array.
fn write_tuple(elems: &[String]) -> String {
    let write = |e: &String| format!("::serde::Serialize::write_json({e}, out);");
    match elems {
        [one] => write(one),
        _ => {
            let parts: Vec<String> = elems.iter().map(write).collect();
            format!(
                "out.push('['); {} out.push(']');",
                parts.join(" out.push(',');")
            )
        }
    }
}

/// Code writing an object of the kept `fields`, each read through
/// `access` (`&self.f` or a bound `f`).
fn write_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let members: String = kept(fields)
        .enumerate()
        .map(|(i, f)| {
            format!(
                "::serde::write_key(out, {}, \"{f}\"); \
                 ::serde::Serialize::write_json({}, out);",
                i == 0,
                access(f)
            )
        })
        .collect();
    format!("out.push('{{'); {members} out.push('}}');")
}

#[proc_macro_derive(Serialize, attributes(serde))]
// lint:allow(shim-drift): proc-macro entry point, invoked by
// `#[derive(Serialize)]` attribute expansion rather than by name
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = match parse_input(input) {
        Input::Struct { name, shape } => {
            let body = match &shape {
                Shape::Unit => "out.push_str(\"null\");".to_string(),
                Shape::Tuple(n) => {
                    let elems: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
                    write_tuple(&elems)
                }
                Shape::Named(fields) => write_fields(fields, |f| format!("&self.{f}")),
            };
            (name, body)
        }
        Input::Enum { name, variants } => {
            // Externally tagged: a unit variant is its name, any other
            // variant an object of one member named after it.
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, shape)| {
                    let tagged = |pattern: String, inner: String| {
                        format!(
                            "{name}::{v}{pattern} => {{ out.push('{{'); \
                             ::serde::write_key(out, true, \"{v}\"); {inner} out.push('}}'); }}"
                        )
                    };
                    match shape {
                        Shape::Unit => {
                            format!("{name}::{v} => ::serde::Serialize::write_json(\"{v}\", out),")
                        }
                        Shape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("a{i}")).collect();
                            tagged(format!("({})", binds.join(", ")), write_tuple(&binds))
                        }
                        Shape::Named(fields) => {
                            let mut names: Vec<&str> = kept(fields).collect();
                            names.push("..");
                            let pattern = format!(" {{ {} }}", names.join(", "));
                            tagged(pattern, write_fields(fields, str::to_string))
                        }
                    }
                })
                .collect();
            (name, format!("match self {{\n{}\n}}", arms.join("\n")))
        }
    };
    format!(
        "#[automatically_derived]\n#[allow(clippy::all)]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn write_json(&self, out: &mut String) {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("serde shim derive: generated Serialize impl parses")
}

/// The initializer of one named field in a derived `Deserialize`: read
/// from the object `obj`, or `Default::default()` for a skipped field.
fn field_from(f: &Field, obj: &str) -> String {
    let name = &f.name;
    if f.skip {
        format!("{name}: ::std::default::Default::default(),")
    } else {
        format!("{name}: ::serde::from_field({obj}, \"{name}\")?,")
    }
}

#[proc_macro_derive(Deserialize, attributes(serde))]
// lint:allow(shim-drift): proc-macro entry point, invoked by
// `#[derive(Deserialize)]` attribute expansion rather than by name
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let body = match parse_input(input) {
        Input::Struct { name, shape } => {
            let from = match &shape {
                Shape::Unit => format!("Ok({name})"),
                Shape::Tuple(1) => {
                    format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
                }
                Shape::Tuple(n) => {
                    let elems: Vec<String> = (0..*n)
                        .map(|i| {
                            format!(
                                "::serde::Deserialize::from_value(a.get({i}).ok_or_else(|| \
                                 ::serde::DeError::msg(\"tuple struct too short\"))?)?"
                            )
                        })
                        .collect();
                    format!(
                        "let a = v.as_array().ok_or_else(|| ::serde::DeError::msg(\
                         \"expected array for tuple struct {name}\"))?;\n\
                         Ok({name}({}))",
                        elems.join(", ")
                    )
                }
                Shape::Named(fields) => {
                    let members: Vec<String> = fields.iter().map(|f| field_from(f, "v")).collect();
                    format!("Ok({name} {{\n{}\n}})", members.join("\n"))
                }
            };
            format!(
                "#[automatically_derived]\n#[allow(clippy::all)]\n\
                 impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         {from}\n\
                     }}\n\
                 }}"
            )
        }
        Input::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, s)| matches!(s, Shape::Unit))
                .map(|(v, _)| format!("\"{v}\" => Ok({name}::{v}),"))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, shape)| match shape {
                    Shape::Unit => None,
                    Shape::Tuple(1) => Some(format!(
                        "\"{v}\" => Ok({name}::{v}(::serde::Deserialize::from_value(inner)?)),"
                    )),
                    Shape::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|i| {
                                format!(
                                    "::serde::Deserialize::from_value(a.get({i}).ok_or_else(|| \
                                     ::serde::DeError::msg(\"tuple variant too short\"))?)?"
                                )
                            })
                            .collect();
                        Some(format!(
                            "\"{v}\" => {{\n\
                             let a = inner.as_array().ok_or_else(|| ::serde::DeError::msg(\
                             \"expected array for variant {v}\"))?;\n\
                             Ok({name}::{v}({}))\n}},",
                            elems.join(", ")
                        ))
                    }
                    Shape::Named(fields) => {
                        let members: Vec<String> =
                            fields.iter().map(|f| field_from(f, "inner")).collect();
                        Some(format!(
                            "\"{v}\" => Ok({name}::{v} {{\n{}\n}}),",
                            members.join("\n")
                        ))
                    }
                })
                .collect();
            let string_arm = if unit_arms.is_empty() {
                format!(
                    "::serde::Value::String(_) => Err(::serde::DeError::msg(\
                     \"no unit variants in {name}\")),"
                )
            } else {
                format!(
                    "::serde::Value::String(s) => match s.as_str() {{\n{}\n\
                     other => Err(::serde::DeError::msg(format!(\
                     \"unknown {name} variant {{other:?}}\"))),\n}},",
                    unit_arms.join("\n")
                )
            };
            let object_arm = if data_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "::serde::Value::Object(m) if m.len() == 1 => {{\n\
                     let (tag, inner) = &m[0];\n\
                     match tag.as_str() {{\n{}\n\
                     other => Err(::serde::DeError::msg(format!(\
                     \"unknown {name} variant {{other:?}}\"))),\n}}\n}},",
                    data_arms.join("\n")
                )
            };
            format!(
                "#[automatically_derived]\n#[allow(clippy::all)]\n\
                 impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match v {{\n\
                             {string_arm}\n\
                             {object_arm}\n\
                             other => Err(::serde::DeError::msg(format!(\
                             \"cannot deserialize {name} from {{other}}\"))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    body.parse()
        .expect("serde shim derive: generated Deserialize impl parses")
}
