//! Co-expressions: first-class generators with environment shadowing.
//!
//! This crate implements the co-expression half of the paper's calculus for
//! concurrent generators (Fig. 1):
//!
//! | Form | Meaning | Here |
//! |---|---|---|
//! | `<> e`  | first-class generator | [`CoExpr::first_class`] / [`create`] |
//! | `\|<> e` | co-expression shadowing the local environment | [`CoExpr::shadowed`] / [`create_shadowed`] |
//! | `@ c`   | step one iteration | [`activate`] |
//! | `! c`   | promote back to a generator | [`promote_co`] |
//! | `^ c`   | restart with a new copy of the local environment | [`refresh`] |
//!
//! A co-expression is "similar to a first-class iterator, but in addition
//! creates a copy of its local environment, i.e., it shadows any referenced
//! method local variables and parameters" (Sec. III.A). The shadow is taken
//! once at creation ([`gde::env::Env::shadow`]); `^c` takes a fresh copy of
//! the *creation-time* snapshot, so refreshed co-expressions restart from
//! pristine values even if the previous activation mutated its locals.
//!
//! Because the whole [`gde::Gen`] tree is already suspendable and
//! resumable, coroutine activation needs no native stack switching: `@c` is
//! simply a `resume` of the co-expression's body iterator, and interleaving
//! two co-expressions is alternating `@` on them — the same implementation
//! strategy the paper uses when translating to Java ("implement it without
//! multithreading", Sec. VIII).

#![forbid(unsafe_code)]

use gde::env::Env;
use gde::{BoxGen, CoRef, Coroutine, Gen, Step, Value};
use parking_lot::Mutex;
use std::sync::Arc;

type BodyFn = dyn Fn(&Env) -> BoxGen + Send + Sync;

/// A co-expression: a restartable, refreshable coroutine over a generator
/// body.
pub struct CoExpr {
    /// Creation-time snapshot of the shadowed locals; never exposed to the
    /// body, used only as the source for refreshes.
    pristine: Env,
    /// The environment the current body runs in (a copy of `pristine`).
    working: Env,
    body: Arc<BodyFn>,
    cur: Option<BoxGen>,
    produced: u64,
    done: bool,
}

impl CoExpr {
    /// `<>e`: a first-class generator with no environment shadowing — the
    /// body closure captures whatever it captures, shared.
    pub fn first_class(make: impl Fn() -> BoxGen + Send + Sync + 'static) -> CoExpr {
        let env = Env::root();
        CoExpr::build(env, Arc::new(move |_| make()))
    }

    /// `|<>e`: a co-expression that shadows `env`'s local frame. The body
    /// builder receives the shadowed environment and must resolve its
    /// variables through it.
    pub fn shadowed(env: &Env, body: impl Fn(&Env) -> BoxGen + Send + Sync + 'static) -> CoExpr {
        CoExpr::build(env.shadow(), Arc::new(body))
    }

    fn build(pristine: Env, body: Arc<BodyFn>) -> CoExpr {
        let working = pristine.shadow();
        CoExpr {
            pristine,
            working,
            body,
            cur: None,
            produced: 0,
            done: false,
        }
    }

    /// Wrap into a shared [`CoRef`] handle (the representation used inside
    /// [`Value::Co`]).
    pub fn into_ref(self) -> CoRef {
        Arc::new(Mutex::new(self))
    }

    /// Wrap into a [`Value`].
    pub fn into_value(self) -> Value {
        Value::Co(self.into_ref())
    }
}

impl Coroutine for CoExpr {
    fn step(&mut self) -> Option<Value> {
        if self.done {
            return None;
        }
        let cur = self.cur.get_or_insert_with(|| (self.body)(&self.working));
        match cur.resume() {
            Step::Suspend(v) => {
                self.produced += 1;
                Some(v)
            }
            Step::Fail => {
                self.done = true;
                None
            }
        }
    }

    fn restart(&mut self) {
        // Plain restart: same working environment, iteration from the top.
        if let Some(cur) = &mut self.cur {
            cur.restart();
        }
        self.done = false;
        self.produced = 0;
    }

    fn refreshed(&self) -> Option<CoRef> {
        // ^c: a brand-new co-expression over a fresh copy of the pristine
        // creation-time environment.
        Some(CoExpr::build(self.pristine.shadow(), Arc::clone(&self.body)).into_ref())
    }

    fn produced(&self) -> u64 {
        self.produced
    }
}

/// `<>e` as a [`Value`].
pub fn create(make: impl Fn() -> BoxGen + Send + Sync + 'static) -> Value {
    CoExpr::first_class(make).into_value()
}

/// `|<>e` as a [`Value`].
pub fn create_shadowed(env: &Env, body: impl Fn(&Env) -> BoxGen + Send + Sync + 'static) -> Value {
    CoExpr::shadowed(env, body).into_value()
}

/// `@c`: step the co-expression held by `v` one iteration. Fails (`None`)
/// when `v` is not a co-expression or the co-expression is exhausted.
pub fn activate(v: &Value) -> Option<Value> {
    match v.deref() {
        Value::Co(c) => c.lock().step(),
        _ => None,
    }
}

/// `^c`: a refreshed copy with a new copy of the creation-time environment.
pub fn refresh(v: &Value) -> Option<Value> {
    match v.deref() {
        Value::Co(c) => {
            let refreshed = c.lock().refreshed()?;
            Some(Value::Co(refreshed))
        }
        _ => None,
    }
}

/// `!c`: promote a co-expression (or any promotable value) back to a
/// generator: `!e → repeatUntilFailure(suspend @e)`.
pub fn promote_co(v: Value) -> BoxGen {
    Box::new(gde::comb::promote_value(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde::comb::thunk;
    use gde::comb::to_range;
    use gde::ops;
    use gde::GenExt;

    #[test]
    fn first_class_stepping() {
        let co = create(|| Box::new(to_range(1, 3, 1)));
        assert_eq!(activate(&co).unwrap().as_int(), Some(1));
        assert_eq!(activate(&co).unwrap().as_int(), Some(2));
        assert_eq!(activate(&co).unwrap().as_int(), Some(3));
        assert_eq!(activate(&co), None);
        assert_eq!(activate(&co), None); // stays failed
    }

    #[test]
    fn activate_non_coexpression_fails() {
        assert_eq!(activate(&Value::from(5)), None);
        assert_eq!(activate(&Value::Null), None);
    }

    #[test]
    fn produced_counts_results() {
        let co = create(|| Box::new(to_range(1, 10, 1)));
        activate(&co);
        activate(&co);
        assert_eq!(co.size(), Some(2)); // *c = results produced so far
    }

    #[test]
    fn interleaving_two_coroutines() {
        // The classic coroutine pattern: alternate stepping two generators.
        let evens = create(|| Box::new(to_range(0, 100, 2)));
        let odds = create(|| Box::new(to_range(1, 101, 2)));
        let mut merged = Vec::new();
        for _ in 0..4 {
            merged.push(activate(&evens).unwrap().as_int().unwrap());
            merged.push(activate(&odds).unwrap().as_int().unwrap());
        }
        assert_eq!(merged, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn shadowing_prevents_interference() {
        // x := 10; c := |<>(x + 1); x := 99 — activation must see 10.
        let env = Env::root();
        env.declare("x", Value::from(10));
        let co = create_shadowed(&env, |e| {
            let x = e.lookup("x").expect("shadowed");
            Box::new(thunk(move || ops::add(&x.get(), &Value::from(1))))
        });
        env.set("x", Value::from(99));
        assert_eq!(activate(&co).unwrap().as_int(), Some(11));
    }

    #[test]
    fn shadowed_writes_do_not_leak_out() {
        let env = Env::root();
        env.declare("n", Value::from(0));
        let co = create_shadowed(&env, |e| {
            let n = e.lookup("n").expect("shadowed");
            Box::new(thunk(move || {
                n.set(Value::from(77));
                Some(n.get())
            }))
        });
        assert_eq!(activate(&co).unwrap().as_int(), Some(77));
        assert_eq!(env.get("n").as_int(), Some(0));
    }

    #[test]
    fn refresh_resets_to_creation_values() {
        // A stateful counter co-expression; refresh rewinds it.
        let env = Env::root();
        env.declare("n", Value::from(0));
        let make = |e: &Env| -> BoxGen {
            let n = e.lookup("n").expect("shadowed");
            Box::new(gde::comb::repeat_alt(thunk(move || {
                let next = ops::add(&n.get(), &Value::from(1))?;
                n.set(next.clone());
                Some(next)
            })))
        };
        let co = create_shadowed(&env, make);
        assert_eq!(activate(&co).unwrap().as_int(), Some(1));
        assert_eq!(activate(&co).unwrap().as_int(), Some(2));
        let fresh = refresh(&co).expect("refreshable");
        assert_eq!(activate(&fresh).unwrap().as_int(), Some(1)); // reset
        assert_eq!(activate(&co).unwrap().as_int(), Some(3)); // original unaffected
    }

    #[test]
    fn refresh_of_non_co_fails() {
        assert!(refresh(&Value::from(1)).is_none());
    }

    #[test]
    fn promote_unravels_to_generator() {
        let co = create(|| Box::new(to_range(5, 7, 1)));
        let mut g = promote_co(co);
        let vals: Vec<i64> = g
            .collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![5, 6, 7]);
    }

    #[test]
    fn promote_partially_consumed_continues() {
        let co = create(|| Box::new(to_range(1, 4, 1)));
        activate(&co); // consume 1
        let mut g = promote_co(co);
        let vals: Vec<i64> = g
            .collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![2, 3, 4]);
    }

    #[test]
    fn coroutine_restart_vs_refresh() {
        let co_val = create(|| Box::new(to_range(1, 2, 1)));
        activate(&co_val);
        activate(&co_val);
        assert_eq!(activate(&co_val), None);
        if let Value::Co(c) = &co_val {
            c.lock().restart();
        }
        assert_eq!(activate(&co_val).unwrap().as_int(), Some(1));
    }

    #[test]
    fn refresh_isolates_working_environments() {
        // Two refreshes of the same co-expression have independent locals.
        let env = Env::root();
        env.declare("n", Value::from(0));
        let body = |e: &Env| -> BoxGen {
            let n = e.lookup("n").expect("shadowed");
            Box::new(gde::comb::repeat_alt(thunk(move || {
                let next = ops::add(&n.get(), &Value::from(1))?;
                n.set(next.clone());
                Some(next)
            })))
        };
        let co = create_shadowed(&env, body);
        let a = refresh(&co).unwrap();
        let b = refresh(&co).unwrap();
        assert_eq!(activate(&a).unwrap().as_int(), Some(1));
        assert_eq!(activate(&a).unwrap().as_int(), Some(2));
        assert_eq!(activate(&b).unwrap().as_int(), Some(1));
    }
}
