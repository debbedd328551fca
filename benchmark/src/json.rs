//! Shorthands for building `serde_json::Value` trees by hand.

use serde_json::Value;

/// An object, keys in the order given.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A string.
pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// An unsigned integer.
pub fn count(n: u64) -> Value {
    Value::U128(u128::from(n))
}
