//! `to_string` writes a derived struct, an option and a sequence in
//! place (`Serialize::write_json`); the bytes must be exactly those of
//! rendering the value tree, for every shape the derive supports.

use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Inner {
    id: u64,
    ratio: f64,
    tag: Option<String>,
}

#[derive(Serialize)]
struct Newtype(u32);

#[derive(Serialize)]
struct Pair(i64, String);

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct OnlySkipped {
    #[serde(skip)]
    _cache: Vec<u8>,
}

#[derive(Serialize)]
enum Kind {
    Unit,
    Tuple(u8, u8),
    Named { x: u32, y: Option<u32> },
}

#[derive(Serialize)]
struct Outer {
    name: &'static str,
    quoted: String,
    inner: Inner,
    maybe: Option<Inner>,
    nothing: Option<Inner>,
    list: Vec<Inner>,
    empty_list: Vec<u32>,
    nested: Vec<Vec<u32>>,
    map: BTreeMap<u64, Newtype>,
    pair: Pair,
    empty: Empty,
    only_skipped: OnlySkipped,
    kinds: Vec<Kind>,
    #[serde(skip)]
    _skipped: u32,
    tuples: Vec<(u32, f64)>,
}

fn outer() -> Outer {
    let inner = |id: u64, tag: Option<&str>| Inner {
        id,
        ratio: id as f64 / 3.0,
        tag: tag.map(str::to_string),
    };
    Outer {
        name: "plain",
        quoted: "a \"quoted\"\n\\ name\u{1}".to_string(),
        inner: inner(1, Some("x")),
        maybe: Some(inner(2, None)),
        nothing: None,
        list: vec![inner(3, Some("")), inner(u64::MAX, None)],
        empty_list: Vec::new(),
        nested: vec![vec![], vec![1, 2]],
        map: [(5, Newtype(7)), (1, Newtype(0))].into_iter().collect(),
        pair: Pair(-4, "p".to_string()),
        empty: Empty {},
        only_skipped: OnlySkipped { _cache: vec![1] },
        kinds: vec![Kind::Unit, Kind::Tuple(1, 2), Kind::Named { x: 3, y: None }],
        _skipped: 9,
        tuples: vec![(1, 0.5), (2, 2.0)],
    }
}

#[test]
fn written_json_equals_the_rendered_tree() {
    let value = outer();
    let mut rendered = String::new();
    value.to_value().render(&mut rendered, None);
    assert_eq!(serde_json::to_string(&value).unwrap(), rendered);
    assert!(rendered.contains(r#""empty":{},"only_skipped":{}"#));
    assert!(!rendered.contains(r#""_skipped""#));
}
