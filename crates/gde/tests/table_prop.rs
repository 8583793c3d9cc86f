//! Property suite for table keys.
//!
//! A table reads through `TableData::lookup`, which hashes a subscript in
//! place, and writes through `TableData::store`, which promotes a key only
//! when it inserts it. Whatever form a subscript arrives in (owned `Str`,
//! a promoted window, a window into a line, a `Ref` to any of them, `Int`,
//! `Real`, `Null`), the table must behave like a plain `HashMap` keyed by
//! what the subscript *means*; the owned `Key` and the borrowed `KeyRef`
//! must hash and compare alike; and a subscript that is not a scalar must
//! fail both `index` and `index_assign`.

use bigint::BigInt;
use gde::ops::{index, index_assign};
use gde::{Value, Var};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;
use tinyprop::prelude::*;

/// What a subscript means, whatever form it is in.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Meaning {
    Null,
    Int(i64),
    Real(u64),
    Text(String),
}

/// A text from a small vocabulary, so that forms collide: short words,
/// multi-byte words, numerals (which must not meet `Int` keys) and long
/// text.
fn text(n: u16) -> String {
    match n % 4 {
        0 => format!("w{}", n % 7),
        1 => format!("é{}", n % 5),
        2 => format!("{}", n % 9),
        _ => "x".repeat(60 + (n % 10) as usize),
    }
}

/// A window over `text` inside a longer line.
fn window(text: &str) -> Value {
    let line: Arc<str> = Arc::from(format!("<{text}>").as_str());
    Value::slice(line, 1, 1 + text.len())
}

/// The subscript recipe `(form, n)` builds, and what it means.
fn subscript(form: u8, n: u16) -> (Value, Meaning) {
    let t = text(n);
    match form % 7 {
        0 => (Value::str(&t), Meaning::Text(t)),
        1 => (window(&t).promote(), Meaning::Text(t)),
        2 => (window(&t), Meaning::Text(t)),
        3 => {
            let (inner, meaning) = subscript(n as u8 % 7, n / 7);
            (Value::Ref(Var::new(inner)), meaning)
        }
        4 => (Value::from((n % 9) as i64), Meaning::Int((n % 9) as i64)),
        5 => {
            let r = (n % 9) as f64 * 0.5;
            (Value::Real(r), Meaning::Real(r.to_bits()))
        }
        _ => (Value::Null, Meaning::Null),
    }
}

/// What a key read back through `key(T)` means.
fn meaning_of(v: &Value) -> Meaning {
    match v {
        Value::Null => Meaning::Null,
        Value::Int(i) => Meaning::Int(*i),
        Value::Real(r) => Meaning::Real(r.to_bits()),
        other => Meaning::Text(other.as_str().expect("a string key").to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random stores and lookups through every subscript form agree with
    /// a `HashMap` keyed by meaning: each read, then the final size, keys
    /// and values.
    #[test]
    fn store_and_lookup_agree_with_a_hashmap(
        ops in prop::collection::vec((any::<bool>(), 0u8..7, any::<u16>(), any::<i64>()), 1..48),
    ) {
        let table = Value::table();
        let Value::Table(t) = &table else { unreachable!() };
        let mut model: HashMap<Meaning, i64> = HashMap::new();
        for (write, form, n, v) in ops {
            let (k, meaning) = subscript(form, n);
            if write {
                prop_assert!(t.lock().store(&k, Value::from(v)).is_some());
                model.insert(meaning, v);
            } else {
                let got = t.lock().lookup(&k).expect("a scalar is a key").and_then(Value::as_int);
                prop_assert_eq!(got, model.get(&meaning).copied(), "lookup {:?}", k);
            }
        }
        let t = t.lock();
        prop_assert_eq!(t.len(), model.len());
        let keys: HashMap<Meaning, i64> = t
            .keys()
            .map(|k| {
                let v = t.lookup(&k).flatten().and_then(Value::as_int);
                (meaning_of(&k), v.expect("every key reads back"))
            })
            .collect();
        prop_assert_eq!(&keys, &model);
        let mut values: Vec<i64> = t.values().filter_map(Value::as_int).collect();
        let mut want: Vec<i64> = model.values().copied().collect();
        values.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(values, want);
        prop_assert!(t.keys().all(|k| !k.is_borrowed()), "a window was stored as a key");
    }

    /// For every pair of forms of one meaning, the owned keys are equal and
    /// hash alike, and each equals and hashes like the other's borrowed view.
    #[test]
    fn a_key_hashes_like_its_view(a in 0u8..7, b in 0u8..7, n in any::<u16>()) {
        let (x, mx) = subscript(a, n);
        let (y, my) = subscript(b, n);
        prop_assume!(mx == my);
        let state = RandomState::new();
        let (kx, ky) = (x.as_key().expect("scalar"), y.as_key().expect("scalar"));
        prop_assert_eq!(&kx, &ky);
        prop_assert_eq!(state.hash_one(&kx), state.hash_one(&ky));
        for (key, other) in [(&kx, &y), (&ky, &x)] {
            // A `Ref` has no view of its own: it is probed through its value.
            let Some(view) = other.key_view() else { continue };
            prop_assert_eq!(key.view(), view);
            prop_assert_eq!(state.hash_one(key), state.hash_one(view));
        }
    }
}

/// Big integers, lists and tables are not keys: reading and writing
/// through them fails and leaves the table as it was.
#[test]
fn non_scalar_subscripts_fail_index_and_index_assign() {
    let table = Value::table();
    index_assign(&table, &Value::str("k"), Value::from(1)).expect("a string is a key");
    let huge = BigInt::from_str_radix("123456789012345678901234567890", 10).unwrap();
    for bad in [
        Value::big(huge),
        Value::list(vec![Value::from(1)]),
        Value::table(),
        table.clone(),
        Value::Ref(Var::new(Value::list(vec![]))),
    ] {
        assert!(index(&table, &bad).is_none(), "read through {bad:?}");
        assert!(
            index_assign(&table, &bad, Value::from(2)).is_none(),
            "write through {bad:?}"
        );
    }
    assert_eq!(table.size(), Some(1));
    assert_eq!(
        index(&table, &window("k")).and_then(|v| v.as_int()),
        Some(1)
    );
}
