//! Variadic generator functions.
//!
//! Sec. V.C: "Since methods in Unicon are variadic, i.e., they can take any
//! number of arguments, they are effectively translated into variadic lambda
//! expressions that return an iterator." A [`ProcValue`] is exactly that: a
//! named, shareable closure from an argument vector to a fresh generator.
//! Missing arguments read as null; extra arguments are ignored by bodies
//! that do not unpack them — both Icon behaviours.

use crate::comb::thunk;
use crate::gen::BoxGen;
use crate::value::Value;
use std::any::Any;
use std::sync::Arc;

/// What the clones of a [`ProcValue`] share: what it was made from, if
/// anything, and the closure that invokes it.
struct Body<F: ?Sized> {
    def: Option<Arc<dyn Any + Send + Sync>>,
    f: F,
}

type ProcFn = Body<dyn Fn(Vec<Value>) -> BoxGen + Send + Sync>;

/// A plain native function, as [`ProcValue::native`] lifts it.
pub type Native = Arc<dyn Fn(&[Value]) -> Option<Value> + Send + Sync>;

/// A first-class procedure: invocation returns a suspendable generator.
#[derive(Clone)]
pub struct ProcValue {
    name: Arc<str>,
    f: Arc<ProcFn>,
}

impl ProcValue {
    /// Wrap a generator-function body. The body receives the (variadic)
    /// argument vector and returns the iterator for this invocation.
    pub fn new(
        name: impl AsRef<str>,
        f: impl Fn(Vec<Value>) -> BoxGen + Send + Sync + 'static,
    ) -> ProcValue {
        ProcValue::defined(name, None, f)
    }

    /// [`ProcValue::new`], made from a definition `def`: a caller that knows
    /// its type may do more than invoke (`junicon`'s call sites re-run an
    /// activation of one of its own procedures in place).
    pub fn defined(
        name: impl AsRef<str>,
        def: Option<Arc<dyn Any + Send + Sync>>,
        f: impl Fn(Vec<Value>) -> BoxGen + Send + Sync + 'static,
    ) -> ProcValue {
        let (name, f) = (Arc::from(name.as_ref()), Arc::new(Body { def, f }));
        ProcValue { name, f }
    }

    /// The definition the procedure was made from, if it is a `T`.
    pub fn def<T: Any>(&self) -> Option<&T> {
        self.f.def.as_deref()?.downcast_ref()
    }

    /// Lift a plain (non-generator) native function: its result is promoted
    /// to a singleton iterator, `None` to failure — the treatment of "plain
    /// Java methods" in Sec. V.A. The function is also the procedure's
    /// definition (`def::<Native>()`), for a caller that calls it directly.
    pub fn native(
        name: impl AsRef<str>,
        f: impl Fn(&[Value]) -> Option<Value> + Send + Sync + 'static,
    ) -> ProcValue {
        let f: Native = Arc::new(f);
        let call = Arc::clone(&f);
        ProcValue::defined(name, Some(Arc::new(f)), move |args: Vec<Value>| {
            let f = Arc::clone(&call);
            Box::new(thunk(move || f(&args))) as BoxGen
        })
    }

    /// The procedure's name (for diagnostics and `image()`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Invoke: produce a fresh generator over this argument vector.
    pub fn invoke(&self, args: Vec<Value>) -> BoxGen {
        (self.f.f)(args)
    }

    /// Pointer identity (used by `===`).
    pub fn same(&self, other: &ProcValue) -> bool {
        Arc::ptr_eq(&self.f, &other.f)
    }
}

impl std::fmt::Debug for ProcValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "procedure {}", self.name)
    }
}

/// Fetch argument `i`, defaulting to null — the variadic unpack convention
/// (`params.length > i ? params[i] : null` in the paper's Fig. 5).
pub fn arg(args: &[Value], i: usize) -> Value {
    args.get(i).cloned().unwrap_or(Value::Null)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::{to_range, values};
    use crate::gen::GenExt;
    use crate::ops;

    #[test]
    fn native_proc_promotes_result() {
        let double = ProcValue::native("double", |args| ops::mul(&arg(args, 0), &Value::from(2)));
        let mut g = double.invoke(vec![Value::from(21)]);
        assert_eq!(g.next_value().unwrap().as_int(), Some(42));
        assert!(g.next_value().is_none()); // singleton
    }

    #[test]
    fn native_proc_failure_propagates() {
        let half = ProcValue::native("half", |args| {
            let n = arg(args, 0).as_int()?;
            if n % 2 == 0 {
                Some(Value::from(n / 2))
            } else {
                None
            }
        });
        assert!(half.invoke(vec![Value::from(3)]).next_value().is_none());
        assert_eq!(
            half.invoke(vec![Value::from(8)])
                .next_value()
                .unwrap()
                .as_int(),
            Some(4)
        );
    }

    #[test]
    fn generator_proc_suspends_many() {
        let upto = ProcValue::new("upto", |args| {
            let n = arg(&args, 0).as_int().unwrap_or(0);
            Box::new(to_range(1, n, 1)) as BoxGen
        });
        let vals = upto.invoke(vec![Value::from(3)]).collect_values();
        assert_eq!(vals.len(), 3);
    }

    #[test]
    fn missing_args_are_null() {
        let probe = ProcValue::native("probe", |args| {
            Some(Value::from(if arg(args, 1).is_null() { 1 } else { 0 }))
        });
        assert_eq!(
            probe
                .invoke(vec![Value::from(9)])
                .next_value()
                .unwrap()
                .as_int(),
            Some(1)
        );
        assert_eq!(
            probe
                .invoke(vec![Value::from(9), Value::from(9)])
                .next_value()
                .unwrap()
                .as_int(),
            Some(0)
        );
    }

    #[test]
    fn each_invocation_is_independent() {
        let gen = ProcValue::new("vals", |_| {
            Box::new(values(vec![Value::from(1), Value::from(2)])) as BoxGen
        });
        let mut a = gen.invoke(vec![]);
        let mut b = gen.invoke(vec![]);
        assert_eq!(a.next_value().unwrap().as_int(), Some(1));
        assert_eq!(b.next_value().unwrap().as_int(), Some(1)); // not shared
    }

    #[test]
    fn a_definition_is_shared_by_clones_and_read_at_its_type() {
        let answer = Arc::new(42u32);
        let p = ProcValue::defined("p", Some(answer), |_| Box::new(values(vec![])) as BoxGen);
        let q = p.clone();
        assert_eq!(q.def::<u32>(), Some(&42));
        assert_eq!(q.def::<i64>(), None);
        assert!(q.invoke(vec![]).next_value().is_none());
        assert_eq!(ProcValue::native("n", |_| None).def::<u32>(), None);
    }

    #[test]
    fn proc_identity() {
        let p = ProcValue::native("p", |_| None);
        let q = p.clone();
        let r = ProcValue::native("p", |_| None);
        assert!(p.same(&q));
        assert!(!p.same(&r));
    }
}
