//! The host side of Fig. 3: `wordToNumber` / `hashNumber` as dynamic-value
//! functions over `wordcount::hash`, shared by the interpreter's `::`
//! natives and the ladder's stage closures. They mirror what
//! `wordcount::embedded` does with its (private) stage closures:
//! machine-range numbers stay unboxed `Value::Int`.

use gde::Value;
use junicon::Interp;
use wordcount::hash::{hash_int, hash_number, word_to_number};
use wordcount::Weight;

/// `wordToNumber`: a base-36 word to an integer value; fails on other text.
pub fn word_to_value(word: &Value, weight: Weight) -> Option<Value> {
    let n = word_to_number(word.as_str()?, weight)?;
    Some(match n.to_u64() {
        Some(u) if u <= i64::MAX as u64 => Value::Int(u as i64),
        _ => Value::big(n.into()),
    })
}

/// `hashNumber`: a non-negative integer value to its real hash.
pub fn hash_value(n: &Value, weight: Weight) -> Option<Value> {
    match n.deref() {
        Value::Int(i) if i >= 0 => Some(Value::Real(hash_int(i as u64, weight))),
        Value::Big(b) if !b.is_negative() => Some(Value::Real(hash_number(b.magnitude(), weight))),
        _ => None,
    }
}

/// Register both as `this::wordToNumber(w)` / `this::hashNumber(n)`.
pub fn register(interp: &Interp, weight: Weight) {
    interp.globals().declare("this", Value::Null);
    interp.register_native("wordToNumber", move |_this, args| {
        word_to_value(args.first()?, weight)
    });
    interp.register_native("hashNumber", move |_this, args| {
        hash_value(args.first()?, weight)
    });
}
