//! The bytes `to_string` and `to_string_pretty` write, pinned as
//! literals: every shape the derive supports, nested, and the edge
//! values of every primitive (float formatting, integer extremes,
//! string escapes, a hashed map's member order).

use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

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
    Newtype(Newtype),
    Tuple(u8, u8),
    Named {
        x: u32,
        y: Option<u32>,
    },
    Skipping {
        #[serde(skip)]
        _hidden: u8,
        z: bool,
    },
}

#[derive(Serialize)]
struct Marker;

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
    marker: Marker,
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
        kinds: vec![
            Kind::Unit,
            Kind::Newtype(Newtype(6)),
            Kind::Tuple(1, 2),
            Kind::Named { x: 3, y: None },
            Kind::Skipping {
                _hidden: 1,
                z: true,
            },
        ],
        marker: Marker,
        _skipped: 9,
        tuples: vec![(1, 0.5), (2, 2.0)],
    }
}

const OUTER_COMPACT: &str = concat!(
    r#"{"name":"plain","quoted":"a \"quoted\"\n\\ name\u0001","#,
    r#""inner":{"id":1,"ratio":0.3333333333333333,"tag":"x"},"#,
    r#""maybe":{"id":2,"ratio":0.6666666666666666,"tag":null},"nothing":null,"#,
    r#""list":[{"id":3,"ratio":1.0,"tag":""},"#,
    r#"{"id":18446744073709551615,"ratio":6148914691236517000,"tag":null}],"#,
    r#""empty_list":[],"nested":[[],[1,2]],"map":{"1":0,"5":7},"pair":[-4,"p"],"#,
    r#""empty":{},"only_skipped":{},"#,
    r#""kinds":["Unit",{"Newtype":6},{"Tuple":[1,2]},{"Named":{"x":3,"y":null}},"#,
    r#"{"Skipping":{"z":true}}],"marker":null,"#,
    r#""tuples":[[1,0.5],[2,2.0]]}"#,
);

const OUTER_PRETTY: &str = r#"{
  "name": "plain",
  "quoted": "a \"quoted\"\n\\ name\u0001",
  "inner": {
    "id": 1,
    "ratio": 0.3333333333333333,
    "tag": "x"
  },
  "maybe": {
    "id": 2,
    "ratio": 0.6666666666666666,
    "tag": null
  },
  "nothing": null,
  "list": [
    {
      "id": 3,
      "ratio": 1.0,
      "tag": ""
    },
    {
      "id": 18446744073709551615,
      "ratio": 6148914691236517000,
      "tag": null
    }
  ],
  "empty_list": [],
  "nested": [
    [],
    [
      1,
      2
    ]
  ],
  "map": {
    "1": 0,
    "5": 7
  },
  "pair": [
    -4,
    "p"
  ],
  "empty": {},
  "only_skipped": {},
  "kinds": [
    "Unit",
    {
      "Newtype": 6
    },
    {
      "Tuple": [
        1,
        2
      ]
    },
    {
      "Named": {
        "x": 3,
        "y": null
      }
    },
    {
      "Skipping": {
        "z": true
      }
    }
  ],
  "marker": null,
  "tuples": [
    [
      1,
      0.5
    ],
    [
      2,
      2.0
    ]
  ]
}"#;

#[test]
fn every_shape_keeps_its_bytes() {
    assert_eq!(serde_json::to_string(&outer()).unwrap(), OUTER_COMPACT);
    assert_eq!(
        serde_json::to_string_pretty(&outer()).unwrap(),
        OUTER_PRETTY
    );
}

/// `value` writes `compact` through `to_string` and `pretty` through
/// `to_string_pretty`.
fn pinned<T: Serialize + ?Sized>(value: &T, compact: &str, pretty: &str) {
    assert_eq!(serde_json::to_string(value).unwrap(), compact);
    assert_eq!(serde_json::to_string_pretty(value).unwrap(), pretty);
}

/// `value`'s compact and pretty text are the same `text`.
fn flat<T: Serialize + ?Sized>(value: &T, text: &str) {
    pinned(value, text, text);
}

#[test]
fn edge_values_keep_their_bytes() {
    flat(&2.0, "2.0");
    flat(&-0.0, "-0.0");
    flat(&1e-7, "0.0000001");
    flat(&(0.1 + 0.2), "0.30000000000000004");
    // From 1e16 up, a whole float is written without a fraction.
    flat(&2e16, "20000000000000000");
    flat(&1e20, "100000000000000000000");
    flat(&1e300, &format!("1{}", "0".repeat(300)));
    flat(&f64::NAN, "null");
    flat(&0.1f32, "0.10000000149011612");
    flat(&u64::MAX, "18446744073709551615");
    flat(&i64::MIN, "-9223372036854775808");
    flat(
        "\u{0}\u{1f}\u{7f}\t\r\n\"\\é",
        "\"\\u0000\\u001f\u{7f}\\t\\r\\n\\\"\\\\é\"",
    );
    // Members sorted by key string, whatever the hash order: by the
    // string itself, not its escaped form (`"` sorts before `#`).
    let map: HashMap<String, u32> = [("zeta", 1), ("alpha", 2), ("10", 3), ("9", 4)]
        .into_iter()
        .chain([("a#", 5), ("a\"", 6)])
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    pinned(
        &map,
        r#"{"10":3,"9":4,"a\"":6,"a#":5,"alpha":2,"zeta":1}"#,
        concat!(
            "{\n  \"10\": 3,\n  \"9\": 4,\n  \"a\\\"\": 6,\n  \"a#\": 5,",
            "\n  \"alpha\": 2,\n  \"zeta\": 1\n}",
        ),
    );
}
