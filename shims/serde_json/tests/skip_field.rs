//! `#[serde(skip)]` on a named field: left out of the serialized
//! object, filled with `Default::default()` on the way back in.

use serde::{Deserialize, Serialize};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct WithCache {
    id: u64,
    #[serde(skip)]
    cache: Vec<u32>,
    /// A doc comment is an attribute too; it must not read as a skip.
    name: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct WithoutCache {
    id: u64,
    name: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Plain(u32),
    Cached {
        side: u32,
        #[serde(skip)]
        area: Option<u64>,
    },
    OnlyCache {
        #[serde(skip)]
        area: Option<u64>,
    },
}

#[test]
fn a_skipped_field_is_left_out_and_comes_back_as_its_default() {
    let with = WithCache {
        id: 7,
        cache: vec![1, 2, 3],
        name: "seven".to_string(),
    };
    let without = WithoutCache {
        id: 7,
        name: "seven".to_string(),
    };
    let json = serde_json::to_string(&with).unwrap();
    assert_eq!(json, serde_json::to_string(&without).unwrap());
    assert_eq!(json, r#"{"id":7,"name":"seven"}"#);
    let back: WithCache = serde_json::from_str(&json).unwrap();
    assert_eq!(
        back,
        WithCache {
            cache: Vec::new(),
            ..with
        }
    );
}

#[test]
fn a_skipped_variant_field_is_left_out_too() {
    let cached = Shape::Cached {
        side: 4,
        area: Some(16),
    };
    let json = serde_json::to_string(&cached).unwrap();
    assert_eq!(json, r#"{"Cached":{"side":4}}"#);
    let back: Shape = serde_json::from_str(&json).unwrap();
    assert_eq!(
        back,
        Shape::Cached {
            side: 4,
            area: None
        }
    );
    let only = serde_json::to_string(&Shape::OnlyCache { area: Some(1) }).unwrap();
    assert_eq!(only, r#"{"OnlyCache":{}}"#);
    let back: Shape = serde_json::from_str(&only).unwrap();
    assert_eq!(back, Shape::OnlyCache { area: None });
    let plain = serde_json::to_string(&Shape::Plain(3)).unwrap();
    assert_eq!(
        serde_json::from_str::<Shape>(&plain).unwrap(),
        Shape::Plain(3)
    );
}
