//! The suspendable, failure-driven iterator trait.

use crate::value::Value;

/// One step of a generator: a suspended value, or failure.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// The generator suspends, producing a value; resuming continues from
    /// the point of suspension.
    Suspend(Value),
    /// The generator fails: no (further) result. Failure terminates the
    /// iterator until it is restarted.
    Fail,
}

impl Step {
    /// The suspended value, if any.
    pub fn value(self) -> Option<Value> {
        match self {
            Step::Suspend(v) => Some(v),
            Step::Fail => None,
        }
    }

    /// True iff this step failed.
    pub fn is_fail(&self) -> bool {
        matches!(self, Step::Fail)
    }
}

/// A suspendable, failure-driven, restartable generator — the
/// `IconIterator` contract of Sec. V.B.
///
/// # Contract
///
/// * [`Gen::resume`] returns `Suspend(v)` for each result in turn, then
///   `Fail`. After a `Fail`, further `resume` calls keep returning `Fail`
///   until [`Gen::restart`] is called.
/// * [`Gen::restart`] resets the generator to its initial state. Generators
///   that read [`crate::Var`]s re-read them after a restart, so restarting
///   re-evaluates the expression against the current environment — the
///   property the backtracking product `e & e'` relies on.
pub trait Gen: Send {
    /// Produce the next result or fail.
    fn resume(&mut self) -> Step;
    /// Reset to the initial state (the next `resume` starts over).
    fn restart(&mut self);
    /// Rebind this generator to a fresh source value in place, as if the
    /// flat-stage factory had just constructed it over `v`. Returns
    /// `false` (the default) when in-place rebinding is unsupported, in
    /// which case the caller builds a fresh generator instead.
    ///
    /// Flat barriers ([`crate::comb::fuse::FlatFused`]) construct one
    /// sub-generator per outer value — for a line/word pipeline that is
    /// one heap allocation per *line*. A factory-built generator that
    /// implements `rebind` lets the barrier recycle the previous
    /// allocation across outer values instead. (A procedure call site
    /// re-runs an activation through [`crate::ProcValue::def`] instead: a
    /// flat factory may wrap a call over other arguments.)
    fn rebind(&mut self, _v: &Value) -> bool {
        false
    }
}

/// The ubiquitous owned generator type.
pub type BoxGen = Box<dyn Gen>;

impl Gen for BoxGen {
    fn resume(&mut self) -> Step {
        (**self).resume()
    }
    fn restart(&mut self) {
        (**self).restart()
    }
    fn rebind(&mut self, v: &Value) -> bool {
        (**self).rebind(v)
    }
}

/// Convenience adaptors over any generator.
pub trait GenExt: Gen {
    /// `resume` flattened into an `Option`.
    fn next_value(&mut self) -> Option<Value> {
        self.resume().value()
    }

    /// Drain into a vector (runs to failure).
    fn collect_values(&mut self) -> Vec<Value> {
        let mut out = Vec::new();
        while let Step::Suspend(v) = self.resume() {
            out.push(v);
        }
        out
    }

    /// The first result, if any (leaves the generator mid-iteration).
    fn first(&mut self) -> Option<Value> {
        self.next_value()
    }

    /// Count the results (runs to failure).
    fn count(&mut self) -> usize {
        let mut n = 0;
        while let Step::Suspend(_) = self.resume() {
            n += 1;
        }
        n
    }
}

impl<G: Gen + ?Sized> GenExt for G {}

/// Adapter exposing a [`Gen`] as a standard Rust [`Iterator`].
///
/// This is the "exposed as a Java Iterator used in the for statement" side
/// of Fig. 3: embedded generator expressions interoperate with native
/// iteration.
pub struct GenIter<G: Gen>(pub G);

impl<G: Gen> Iterator for GenIter<G> {
    type Item = Value;
    fn next(&mut self) -> Option<Value> {
        self.0.next_value()
    }
}

impl IntoIterator for Box<dyn Gen> {
    type Item = Value;
    type IntoIter = GenIter<BoxGen>;
    fn into_iter(self) -> Self::IntoIter {
        GenIter(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::{to_range, unit};

    #[test]
    fn step_accessors() {
        assert_eq!(Step::Suspend(Value::from(1)).value(), Some(Value::from(1)));
        assert_eq!(Step::Fail.value(), None);
        assert!(Step::Fail.is_fail());
        assert!(!Step::Suspend(Value::Null).is_fail());
    }

    #[test]
    fn collect_and_count() {
        let mut g = to_range(1, 4, 1);
        assert_eq!(
            g.collect_values()
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        g.restart();
        assert_eq!(g.count(), 4);
    }

    #[test]
    fn gen_iter_interop() {
        let vals: Vec<i64> = GenIter(to_range(10, 12, 1))
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![10, 11, 12]);
    }

    #[test]
    fn boxed_into_iterator() {
        let g: BoxGen = Box::new(unit(Value::from(5)));
        let vals: Vec<Value> = g.into_iter().collect();
        assert_eq!(vals.len(), 1);
    }
}
