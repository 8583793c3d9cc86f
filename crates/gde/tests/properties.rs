//! Property-based tests for the generator combinators: the algebraic laws
//! of goal-directed composition, checked over random operand sequences.

use gde::comb::{alt_all, bind, limit, product, product_map, to_range, values};
use gde::{BoxGen, Gen, GenExt, Value, Var};
use tinyprop::prelude::*;

fn int_values(xs: &[i64]) -> Vec<Value> {
    xs.iter().map(|&x| Value::from(x)).collect()
}

fn drain_ints(g: &mut dyn gde::Gen) -> Vec<i64> {
    g.collect_values()
        .iter()
        .map(|v| v.as_int().expect("int"))
        .collect()
}

proptest! {
    /// `values(xs)` generates exactly xs.
    #[test]
    fn values_roundtrip(xs in prop::collection::vec(-1000i64..1000, 0..20)) {
        let mut g = values(int_values(&xs));
        prop_assert_eq!(drain_ints(&mut g), xs);
    }

    /// Restart always reproduces the same sequence (determinism of the
    /// restart contract).
    #[test]
    fn restart_reproduces(xs in prop::collection::vec(-100i64..100, 0..20)) {
        let mut g = values(int_values(&xs));
        let first = drain_ints(&mut g);
        g.restart();
        let second = drain_ints(&mut g);
        prop_assert_eq!(first, second);
    }

    /// Alternation concatenates: |a| + |b| results, in order.
    #[test]
    fn alt_is_concatenation(
        a in prop::collection::vec(-100i64..100, 0..10),
        b in prop::collection::vec(-100i64..100, 0..10),
    ) {
        let mut g = alt_all(vec![
            Box::new(values(int_values(&a))) as BoxGen,
            Box::new(values(int_values(&b))),
        ]);
        let mut expect = a.clone();
        expect.extend_from_slice(&b);
        prop_assert_eq!(drain_ints(&mut g), expect);
    }

    /// The product generates |a| * |b| results — the cross-product
    /// cardinality law — and every right value appears once per left value.
    #[test]
    fn product_cardinality(
        a in prop::collection::vec(0i64..50, 0..8),
        b in prop::collection::vec(0i64..50, 0..8),
    ) {
        let bv = b.clone();
        let mut g = product_map(
            values(int_values(&a)),
            move |_| Box::new(values(int_values(&bv))) as BoxGen,
            gde::ops::add,
        );
        let got = drain_ints(&mut g);
        prop_assert_eq!(got.len(), a.len() * b.len());
        let expect: Vec<i64> = a
            .iter()
            .flat_map(|x| b.iter().map(move |y| x + y))
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// Limitation truncates: `e \ n` yields min(n, |e|) results, a prefix.
    #[test]
    fn limit_is_prefix(
        xs in prop::collection::vec(-100i64..100, 0..20),
        n in 0usize..30,
    ) {
        let mut g = limit(values(int_values(&xs)), n);
        let got = drain_ints(&mut g);
        let expect: Vec<i64> = xs.iter().copied().take(n).collect();
        prop_assert_eq!(got, expect);
    }

    /// to_range agrees with the native Rust range it models.
    #[test]
    fn to_range_matches_std(from in -50i64..50, to in -50i64..50, by in 1i64..5) {
        let mut g = to_range(from, to, by);
        let expect: Vec<i64> = (from..=to).step_by(by as usize).collect();
        prop_assert_eq!(drain_ints(&mut g), expect);
    }

    /// Bind assigns every generated value in order; the final binding is
    /// the last value.
    #[test]
    fn bind_tracks_last(xs in prop::collection::vec(-100i64..100, 1..20)) {
        let cell = Var::null();
        let mut g = bind(cell.clone(), Box::new(values(int_values(&xs))));
        let got = drain_ints(&mut g);
        prop_assert_eq!(&got, &xs);
        prop_assert_eq!(cell.get().as_int(), xs.last().copied());
    }

    /// Product with a failing right side yields nothing regardless of the
    /// left (failure annihilates), and the left was still driven.
    #[test]
    fn product_with_empty_right(xs in prop::collection::vec(0i64..10, 0..10)) {
        let mut g = product(
            values(int_values(&xs)),
            gde::comb::fail(),
        );
        prop_assert_eq!(drain_ints(&mut g).len(), 0);
    }

    /// Arithmetic over generated operands equals arithmetic over the
    /// cross product of the sequences — the Sec. II.A semantics.
    #[test]
    fn operator_distributes_over_generation(
        a in prop::collection::vec(-20i64..20, 1..6),
        b in prop::collection::vec(-20i64..20, 1..6),
    ) {
        // (a1|a2|...) * (b1|b2|...) enumerated via the combinator product.
        let bv = b.clone();
        let mut g = product_map(
            values(int_values(&a)),
            move |_| Box::new(values(int_values(&bv))) as BoxGen,
            gde::ops::mul,
        );
        let expect: Vec<i64> = a.iter().flat_map(|x| b.iter().map(move |y| x * y)).collect();
        prop_assert_eq!(drain_ints(&mut g), expect);
    }

    /// Deep copies are structurally equal but independent.
    #[test]
    fn deep_copy_independent(xs in prop::collection::vec(-100i64..100, 0..10)) {
        let original = Value::list(int_values(&xs));
        let copy = original.deep_copy();
        prop_assert_eq!(original.size(), copy.size());
        if let Value::List(l) = &original {
            l.lock().push(Value::from(999));
        }
        prop_assert_eq!(copy.size(), Some(xs.len() as i64));
    }

    /// String→number coercion in ops agrees with Rust parsing for i64s.
    #[test]
    fn coercion_agrees_with_parse(n in any::<i32>()) {
        let s = Value::str(n.to_string());
        let sum = gde::ops::add(&s, &Value::from(0)).expect("numeric string");
        prop_assert_eq!(sum.as_int(), Some(n as i64));
    }
}
