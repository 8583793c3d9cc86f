//! Generator combinators: the stream-like composition interface.
//!
//! "After normalization, the transformation of expressions proceeds by
//! mapping constructs and operators onto a stream-like interface for
//! composing suspendable iterators using functional forms such as product,
//! concatenation, map, and reduce" (Sec. V.B). These are those forms. The
//! names track the paper's `Icon*` classes: [`product`] is `IconProduct`,
//! [`bind`] is `IconIn`, [`promote`] is `IconPromote`, and so on.
//! (`IconInvokeIterator` is `junicon::rt::invoke`, which knows procedures.)

use crate::gen::{BoxGen, Gen, Step};
use crate::value::Value;
use crate::var::Var;

pub mod fuse;

// ---------------------------------------------------------------------------
// Leaf generators
// ---------------------------------------------------------------------------

/// A singleton iterator: produces `v` once, then fails.
///
/// This is `<>e` in its degenerate form and the lifting applied to plain
/// native results: "for plain Java methods, invocation just promotes the
/// result to a singleton iterator" (Sec. V.A).
pub fn unit(v: Value) -> Unit {
    Unit { v, done: false }
}

pub struct Unit {
    v: Value,
    done: bool,
}

impl Gen for Unit {
    fn resume(&mut self) -> Step {
        if self.done {
            Step::Fail
        } else {
            self.done = true;
            Step::Suspend(self.v.clone())
        }
    }
    fn restart(&mut self) {
        self.done = false;
    }
}

/// A generator that always fails (Icon's `&fail`).
pub fn fail() -> FailGen {
    FailGen
}

pub struct FailGen;

impl Gen for FailGen {
    fn resume(&mut self) -> Step {
        Step::Fail
    }
    fn restart(&mut self) {}
}

/// A singleton iterator whose value is recomputed from the environment on
/// each (re)start — the lifted closure form of `@<script lang="java">`
/// regions and reified variable reads.
pub fn thunk(f: impl Fn() -> Option<Value> + Send + 'static) -> Thunk {
    Thunk {
        f: Box::new(f),
        done: false,
    }
}

pub struct Thunk {
    f: Box<dyn Fn() -> Option<Value> + Send>,
    done: bool,
}

impl Gen for Thunk {
    fn resume(&mut self) -> Step {
        if self.done {
            return Step::Fail;
        }
        self.done = true;
        match (self.f)() {
            Some(v) => Step::Suspend(v),
            None => Step::Fail,
        }
    }
    fn restart(&mut self) {
        self.done = false;
    }
}

/// Generate each element of a vector in turn.
pub fn values(items: Vec<Value>) -> Values {
    Values { items, pos: 0 }
}

pub struct Values {
    items: Vec<Value>,
    pos: usize,
}

impl Gen for Values {
    fn resume(&mut self) -> Step {
        match self.items.get(self.pos) {
            Some(v) => {
                self.pos += 1;
                Step::Suspend(v.clone())
            }
            None => Step::Fail,
        }
    }
    fn restart(&mut self) {
        self.pos = 0;
    }
}

/// Icon's `i to j by k`: the arithmetic sequence from `i` through `j`.
///
/// # Panics
/// Panics if `by` is zero (as Icon errors at runtime).
pub fn to_range(from: i64, to: i64, by: i64) -> ToRange {
    assert!(by != 0, "`to ... by 0` is an error");
    ToRange {
        from,
        to,
        by,
        next: from,
        exhausted: false,
    }
}

pub struct ToRange {
    from: i64,
    to: i64,
    by: i64,
    next: i64,
    exhausted: bool,
}

impl Gen for ToRange {
    fn resume(&mut self) -> Step {
        let in_range = if self.by > 0 {
            self.next <= self.to
        } else {
            self.next >= self.to
        };
        if self.exhausted || !in_range {
            return Step::Fail;
        }
        let v = self.next;
        // checked_add failing means the step left i64 entirely, which also
        // means v was the last in-range value.
        match v.checked_add(self.by) {
            Some(n) => self.next = n,
            None => self.exhausted = true,
        }
        Step::Suspend(Value::Int(v))
    }
    fn restart(&mut self) {
        self.next = self.from;
        self.exhausted = false;
    }
}

/// A dynamic `to ... by` whose bounds are re-read from thunks at each
/// restart (used when range endpoints are themselves variables).
pub fn to_range_dyn(
    from: impl Fn() -> Option<i64> + Send + 'static,
    to: impl Fn() -> Option<i64> + Send + 'static,
    by: impl Fn() -> Option<i64> + Send + 'static,
) -> ToRangeDyn {
    ToRangeDyn {
        from: Box::new(from),
        to: Box::new(to),
        by: Box::new(by),
        state: None,
        failed: false,
    }
}

pub struct ToRangeDyn {
    from: Box<dyn Fn() -> Option<i64> + Send>,
    to: Box<dyn Fn() -> Option<i64> + Send>,
    by: Box<dyn Fn() -> Option<i64> + Send>,
    state: Option<ToRange>,
    failed: bool,
}

impl Gen for ToRangeDyn {
    fn resume(&mut self) -> Step {
        if self.failed {
            return Step::Fail;
        }
        if self.state.is_none() {
            match ((self.from)(), (self.to)(), (self.by)()) {
                (Some(f), Some(t), Some(b)) if b != 0 => {
                    self.state = Some(to_range(f, t, b));
                }
                _ => {
                    self.failed = true;
                    return Step::Fail;
                }
            }
        }
        self.state.as_mut().expect("just initialized").resume()
    }
    fn restart(&mut self) {
        self.state = None;
        self.failed = false;
    }
}

// ---------------------------------------------------------------------------
// Composition: product, alternation, binding
// ---------------------------------------------------------------------------

/// The iterator product `e & e'` — `IconProduct`.
///
/// For each result of `left`, `right` is restarted and iterated; the
/// product yields `right`'s results. When `right` fails, the product
/// *backtracks* by resuming `left`. Values flow from left to right through
/// [`Var`] bindings (see [`bind`]), so `right`'s restart re-reads them.
pub fn product(left: impl Gen + 'static, right: impl Gen + 'static) -> Product {
    Product {
        left: Box::new(left),
        right: Box::new(right),
        have_left: false,
        right_ran: false,
    }
}

/// [`product`] over a slice of already-boxed factors, associating right.
pub fn product_all(mut factors: Vec<BoxGen>) -> BoxGen {
    match factors.len() {
        0 => Box::new(unit(Value::Null)),
        1 => factors.pop().expect("len checked"),
        _ => {
            let first = factors.remove(0);
            Box::new(Product {
                left: first,
                right: product_all(factors),
                have_left: false,
                right_ran: false,
            })
        }
    }
}

pub struct Product {
    left: BoxGen,
    right: BoxGen,
    have_left: bool,
    /// `right` ran since the last restart.
    right_ran: bool,
}

impl Gen for Product {
    fn resume(&mut self) -> Step {
        loop {
            if !self.have_left {
                match self.left.resume() {
                    Step::Suspend(_) => {
                        (self.have_left, self.right_ran) = (true, true);
                        self.right.restart();
                    }
                    Step::Fail => return Step::Fail,
                }
            }
            match self.right.resume() {
                Step::Suspend(v) => return Step::Suspend(v),
                Step::Fail => self.have_left = false,
            }
        }
    }
    fn restart(&mut self) {
        // `right` is restarted per left value anyway; restarting it here
        // too, if it ran, lets a restart reach every running node of a tree.
        self.left.restart();
        if std::mem::take(&mut self.right_ran) {
            self.right.restart();
        }
        self.have_left = false;
    }
}

/// Convenience: the mapped product of two generators, `f(i, j)` over the
/// cross product, with per-pair failure (`None`) pruning that pair. This is
/// how binary operators compose: `x + y` is
/// `product_map(x, |_| y, ops::add)`.
pub fn product_map(
    left: impl Gen + 'static,
    right_factory: impl Fn(&Value) -> BoxGen + Send + 'static,
    f: impl Fn(&Value, &Value) -> Option<Value> + Send + 'static,
) -> ProductMap {
    ProductMap {
        left: Box::new(left),
        right_factory: Box::new(right_factory),
        f: Box::new(f),
        cur: None,
    }
}

type RightFactory = Box<dyn Fn(&Value) -> BoxGen + Send>;
type PairFn = Box<dyn Fn(&Value, &Value) -> Option<Value> + Send>;

pub struct ProductMap {
    left: BoxGen,
    right_factory: RightFactory,
    f: PairFn,
    cur: Option<(Value, BoxGen)>,
}

impl Gen for ProductMap {
    fn resume(&mut self) -> Step {
        loop {
            if self.cur.is_none() {
                match self.left.resume() {
                    Step::Suspend(lv) => {
                        let right = (self.right_factory)(&lv);
                        self.cur = Some((lv, right));
                    }
                    Step::Fail => return Step::Fail,
                }
            }
            let (lv, right) = self.cur.as_mut().expect("just set");
            match right.resume() {
                Step::Suspend(rv) => {
                    if let Some(out) = (self.f)(lv, &rv) {
                        return Step::Suspend(out);
                    }
                    // pair failed: keep searching this right sequence
                }
                Step::Fail => self.cur = None,
            }
        }
    }
    fn restart(&mut self) {
        self.left.restart();
        self.cur = None;
    }
}

/// Stage concatenation: for each value of `left`, instantiate a generator
/// with `right_factory` and yield its values *directly*.
///
/// This is [`product_map`] specialised to an identity pair-function — the
/// shape every Fig. 3 stage composition (`splitWords(readLines())`)
/// lowers to. Having a dedicated combinator matters on hot paths: the
/// generic form must route every inner value through a boxed closure and
/// clone it (the pair-function takes borrows), while `flat` moves each
/// suspended value straight through — zero clones, zero closure calls per
/// element.
pub fn flat(
    left: impl Gen + 'static,
    right_factory: impl Fn(&Value) -> BoxGen + Send + 'static,
) -> Flat {
    Flat {
        left: Box::new(left),
        right_factory: Box::new(right_factory),
        cur: None,
    }
}

pub struct Flat {
    left: BoxGen,
    right_factory: RightFactory,
    cur: Option<BoxGen>,
}

impl Gen for Flat {
    fn resume(&mut self) -> Step {
        loop {
            if self.cur.is_none() {
                match self.left.resume() {
                    Step::Suspend(lv) => self.cur = Some((self.right_factory)(&lv)),
                    Step::Fail => return Step::Fail,
                }
            }
            match self.cur.as_mut().expect("just set").resume() {
                Step::Suspend(rv) => return Step::Suspend(rv),
                Step::Fail => self.cur = None,
            }
        }
    }
    fn restart(&mut self) {
        self.left.restart();
        self.cur = None;
    }
}

/// Bound iteration `(x in e)` — `IconIn`.
///
/// Yields `e`'s results, assigning each to `var` as a side effect. This is
/// the glue of the normalization of Sec. V.A: flattened primaries
/// communicate through these bindings.
pub fn bind(var: Var, inner: BoxGen) -> Bind {
    Bind { var, inner }
}

pub struct Bind {
    var: Var,
    inner: BoxGen,
}

impl Gen for Bind {
    fn resume(&mut self) -> Step {
        match self.inner.resume() {
            Step::Suspend(v) => {
                self.var.set(v.clone());
                Step::Suspend(v)
            }
            Step::Fail => Step::Fail,
        }
    }
    fn restart(&mut self) {
        self.inner.restart();
    }
}

/// Alternation `e | e'`: concatenation of generator sequences.
pub fn alt(a: impl Gen + 'static, b: impl Gen + 'static) -> Alt {
    Alt {
        items: vec![Box::new(a), Box::new(b)],
        pos: 0,
    }
}

/// N-ary alternation.
pub fn alt_all(items: Vec<BoxGen>) -> Alt {
    Alt { items, pos: 0 }
}

pub struct Alt {
    items: Vec<BoxGen>,
    pos: usize,
}

impl Gen for Alt {
    fn resume(&mut self) -> Step {
        while let Some(g) = self.items.get_mut(self.pos) {
            match g.resume() {
                Step::Suspend(v) => return Step::Suspend(v),
                Step::Fail => self.pos += 1,
            }
        }
        Step::Fail
    }
    fn restart(&mut self) {
        for g in &mut self.items {
            g.restart();
        }
        self.pos = 0;
    }
}

// ---------------------------------------------------------------------------
// Limitation, bounding, repetition
// ---------------------------------------------------------------------------

/// Limitation `e \ n`: at most `n` results.
pub fn limit(inner: impl Gen + 'static, n: usize) -> Limit {
    Limit {
        inner: Box::new(inner),
        n,
        produced: 0,
    }
}

pub struct Limit {
    inner: BoxGen,
    n: usize,
    produced: usize,
}

impl Gen for Limit {
    fn resume(&mut self) -> Step {
        if self.produced >= self.n {
            return Step::Fail;
        }
        match self.inner.resume() {
            Step::Suspend(v) => {
                self.produced += 1;
                Step::Suspend(v)
            }
            Step::Fail => Step::Fail,
        }
    }
    fn restart(&mut self) {
        self.inner.restart();
        self.produced = 0;
    }
}

/// A bounded expression: produces at most one result and can never be
/// resumed for more (the `;`-separated statement semantics of Sec. II.A:
/// "singleton iterators that are limited to producing at most one result").
pub fn bounded(inner: impl Gen + 'static) -> Limit {
    limit(inner, 1)
}

/// Repeated alternation `|e|`: cycles `e`, restarting it each time it runs
/// out; fails only when a full pass of `e` produces no result (which
/// otherwise would loop forever).
pub fn repeat_alt(inner: impl Gen + 'static) -> RepeatAlt {
    RepeatAlt {
        inner: Box::new(inner),
        produced_this_pass: false,
        dead: false,
    }
}

pub struct RepeatAlt {
    inner: BoxGen,
    produced_this_pass: bool,
    dead: bool,
}

impl Gen for RepeatAlt {
    fn resume(&mut self) -> Step {
        if self.dead {
            return Step::Fail;
        }
        loop {
            match self.inner.resume() {
                Step::Suspend(v) => {
                    self.produced_this_pass = true;
                    return Step::Suspend(v);
                }
                Step::Fail => {
                    if !self.produced_this_pass {
                        self.dead = true;
                        return Step::Fail;
                    }
                    self.inner.restart();
                    self.produced_this_pass = false;
                }
            }
        }
    }
    fn restart(&mut self) {
        self.inner.restart();
        self.produced_this_pass = false;
        self.dead = false;
    }
}

// ---------------------------------------------------------------------------
// Mapping and filtering
// ---------------------------------------------------------------------------

/// Map a fallible function over a generator; `None` results are skipped
/// (the goal-directed filter).
pub fn filter_map(
    inner: impl Gen + 'static,
    f: impl Fn(&Value) -> Option<Value> + Send + 'static,
) -> FilterMap {
    FilterMap {
        inner: Box::new(inner),
        f: Box::new(f),
    }
}

type ValueMapFn = Box<dyn Fn(&Value) -> Option<Value> + Send>;

pub struct FilterMap {
    inner: BoxGen,
    f: ValueMapFn,
}

impl Gen for FilterMap {
    fn resume(&mut self) -> Step {
        loop {
            match self.inner.resume() {
                Step::Suspend(v) => {
                    if let Some(out) = (self.f)(&v) {
                        return Step::Suspend(out);
                    }
                }
                Step::Fail => return Step::Fail,
            }
        }
    }
    fn restart(&mut self) {
        self.inner.restart();
    }
}

// ---------------------------------------------------------------------------
// Promotion: ! and invocation
// ---------------------------------------------------------------------------

/// Promotion `!e` — `IconPromote`: lift a value to a generator of its
/// elements.
///
/// * lists generate their elements (snapshot of the current contents);
/// * strings generate their 1-character substrings;
/// * tables generate their values;
/// * co-expressions are unravelled: each resume steps the coroutine
///   ("`!e → repeatUntilFailure(suspend @e)`", Sec. III);
/// * other values fail.
///
/// The value is obtained from a thunk so that a restart re-reads the
/// (possibly reassigned) source variable.
pub fn promote(src: impl Fn() -> Value + Send + 'static) -> Promote {
    Promote {
        src: Box::new(src),
        state: PromoteState::Fresh,
    }
}

/// [`promote`] of an already-known value.
pub fn promote_value(v: Value) -> Promote {
    promote(move || v.clone())
}

pub struct Promote {
    src: Box<dyn Fn() -> Value + Send>,
    state: PromoteState,
}

enum PromoteState {
    Fresh,
    Items(Values),
    Co(crate::value::CoRef, bool),
    Dead,
}

impl Gen for Promote {
    fn resume(&mut self) -> Step {
        loop {
            match &mut self.state {
                PromoteState::Fresh => {
                    let v = (self.src)().deref();
                    self.state = match v {
                        Value::List(l) => PromoteState::Items(values(l.lock().clone())),
                        Value::Table(t) => {
                            PromoteState::Items(values(t.lock().values().cloned().collect()))
                        }
                        Value::Co(c) => PromoteState::Co(c, false),
                        other => match other.as_str() {
                            Some(text) => PromoteState::Items(values(
                                text.chars().map(|c| Value::from(c.to_string())).collect(),
                            )),
                            None => PromoteState::Dead,
                        },
                    };
                }
                PromoteState::Items(vs) => return vs.resume(),
                PromoteState::Co(c, done) => {
                    if *done {
                        return Step::Fail;
                    }
                    match c.lock().step() {
                        Some(v) => return Step::Suspend(v),
                        None => {
                            *done = true;
                            return Step::Fail;
                        }
                    }
                }
                PromoteState::Dead => return Step::Fail,
            }
        }
    }
    fn restart(&mut self) {
        self.state = PromoteState::Fresh;
    }
}

// ---------------------------------------------------------------------------
// Control constructs
// ---------------------------------------------------------------------------

/// `if cond then e1 else e2`: evaluates the bounded condition once per
/// (re)start, then delegates all iteration to the chosen branch.
pub fn if_then_else(
    cond: impl Fn() -> Option<Value> + Send + 'static,
    then_branch: BoxGen,
    else_branch: BoxGen,
) -> IfThenElse {
    IfThenElse {
        cond: Box::new(cond),
        then_branch,
        else_branch,
        chosen: None,
    }
}

pub struct IfThenElse {
    cond: Box<dyn Fn() -> Option<Value> + Send>,
    then_branch: BoxGen,
    else_branch: BoxGen,
    chosen: Option<bool>,
}

impl Gen for IfThenElse {
    fn resume(&mut self) -> Step {
        let chosen = *self.chosen.get_or_insert_with(|| (self.cond)().is_some());
        if chosen {
            self.then_branch.resume()
        } else {
            self.else_branch.resume()
        }
    }
    fn restart(&mut self) {
        self.then_branch.restart();
        self.else_branch.restart();
        self.chosen = None;
    }
}

/// The sequence `a; b; …; z` — `IconSequence`: each leading expression is
/// evaluated as a bounded singleton (its results discarded beyond the
/// first attempt), then iteration is delegated to the final expression.
pub fn seq(mut exprs: Vec<BoxGen>) -> BoxGen {
    match exprs.len() {
        0 => Box::new(unit(Value::Null)),
        1 => exprs.pop().expect("len checked"),
        _ => {
            let last = exprs.pop().expect("len checked");
            Box::new(Seq {
                leading: exprs,
                last,
                pos: 0,
            })
        }
    }
}

pub struct Seq {
    leading: Vec<BoxGen>,
    last: BoxGen,
    pos: usize,
}

impl Gen for Seq {
    fn resume(&mut self) -> Step {
        while self.pos < self.leading.len() {
            // Bounded evaluation: one attempt, result discarded.
            let _ = self.leading[self.pos].resume();
            self.pos += 1;
        }
        self.last.resume()
    }
    fn restart(&mut self) {
        for g in &mut self.leading {
            g.restart();
        }
        self.last.restart();
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenExt;
    use crate::ops;

    fn ints(g: &mut dyn Gen) -> Vec<i64> {
        g.collect_values()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect()
    }

    #[test]
    fn unit_produces_once_then_fails_until_restart() {
        let mut g = unit(Value::from(7));
        assert_eq!(g.resume(), Step::Suspend(Value::from(7)));
        assert_eq!(g.resume(), Step::Fail);
        assert_eq!(g.resume(), Step::Fail);
        g.restart();
        assert_eq!(g.resume(), Step::Suspend(Value::from(7)));
    }

    #[test]
    fn to_range_forward_backward() {
        assert_eq!(ints(&mut to_range(1, 4, 1)), vec![1, 2, 3, 4]);
        assert_eq!(ints(&mut to_range(10, 1, -3)), vec![10, 7, 4, 1]);
        assert_eq!(ints(&mut to_range(5, 1, 1)), Vec::<i64>::new());
        assert_eq!(ints(&mut to_range(3, 3, 1)), vec![3]);
    }

    #[test]
    fn to_range_survives_i64_edge() {
        let mut g = to_range(i64::MAX - 1, i64::MAX, 1);
        assert_eq!(ints(&mut g), vec![i64::MAX - 1, i64::MAX]);
    }

    #[test]
    #[should_panic(expected = "by 0")]
    fn to_range_zero_step_panics() {
        to_range(1, 2, 0);
    }

    #[test]
    fn product_is_cross_product_via_bindings() {
        // (i in 1 to 2) & (j in 4 to 5) & i*10+j
        let i = Var::null();
        let j = Var::null();
        let (i2, j2) = (i.clone(), j.clone());
        let g = product(
            bind(i.clone(), Box::new(to_range(1, 2, 1))),
            product(
                bind(j.clone(), Box::new(to_range(4, 5, 1))),
                thunk(move || ops::add(&ops::mul(&i2.get(), &Value::from(10))?, &j2.get())),
            ),
        );
        let mut g = g;
        assert_eq!(ints(&mut g), vec![14, 15, 24, 25]);
        // Restart resets everything.
        g.restart();
        assert_eq!(ints(&mut g), vec![14, 15, 24, 25]);
    }

    #[test]
    fn product_backtracks_on_right_failure() {
        // (i in 1 to 3) & (i if even else fail): only 2 survives.
        let i = Var::null();
        let i2 = i.clone();
        let mut g = product(
            bind(i.clone(), Box::new(to_range(1, 3, 1))),
            thunk(move || {
                let v = i2.get();
                if v.as_int().unwrap() % 2 == 0 {
                    Some(v)
                } else {
                    None
                }
            }),
        );
        assert_eq!(ints(&mut g), vec![2]);
    }

    #[test]
    fn product_map_prime_multiples_example() {
        // The paper's Sec. II example: (1 to 2) * isprime(4 to 7)
        // = 5, 7, 10, 14.
        let isprime = |v: &Value| {
            let n = v.as_int()?;
            if n >= 2 && (2..n).all(|d| n % d != 0) {
                Some(v.clone())
            } else {
                None
            }
        };
        let mut g = product_map(
            to_range(1, 2, 1),
            move |_| Box::new(filter_map(to_range(4, 7, 1), isprime)) as BoxGen,
            ops::mul,
        );
        assert_eq!(ints(&mut g), vec![5, 7, 10, 14]);
    }

    #[test]
    fn product_all_flattens() {
        let x = Var::null();
        let y = Var::null();
        let (x2, y2) = (x.clone(), y.clone());
        let mut g = product_all(vec![
            Box::new(bind(x, Box::new(to_range(1, 2, 1)))),
            Box::new(bind(y, Box::new(to_range(1, 2, 1)))),
            Box::new(thunk(move || {
                ops::add(&ops::mul(&x2.get(), &Value::from(10))?, &y2.get())
            })),
        ]);
        assert_eq!(ints(&mut g), vec![11, 12, 21, 22]);
    }

    #[test]
    fn alt_concatenates() {
        let mut g = alt(to_range(1, 2, 1), to_range(10, 11, 1));
        assert_eq!(ints(&mut g), vec![1, 2, 10, 11]);
        g.restart();
        assert_eq!(ints(&mut g), vec![1, 2, 10, 11]);
    }

    #[test]
    fn alt_all_with_empty_members() {
        let mut g = alt_all(vec![
            Box::new(fail()) as BoxGen,
            Box::new(unit(Value::from(1))),
            Box::new(fail()),
            Box::new(unit(Value::from(2))),
        ]);
        assert_eq!(ints(&mut g), vec![1, 2]);
    }

    #[test]
    fn limit_caps_results() {
        assert_eq!(ints(&mut limit(to_range(1, 100, 1), 3)), vec![1, 2, 3]);
        assert_eq!(ints(&mut limit(to_range(1, 2, 1), 5)), vec![1, 2]);
        assert_eq!(ints(&mut limit(to_range(1, 5, 1), 0)), Vec::<i64>::new());
    }

    #[test]
    fn bounded_is_limit_one() {
        let mut g = bounded(to_range(7, 9, 1));
        assert_eq!(ints(&mut g), vec![7]);
    }

    #[test]
    fn repeat_alt_cycles_and_detects_empty() {
        let mut g = limit(repeat_alt(to_range(1, 2, 1)), 5);
        assert_eq!(ints(&mut g), vec![1, 2, 1, 2, 1]);
        // |&fail| must fail rather than loop forever.
        let mut empty = repeat_alt(fail());
        assert_eq!(empty.resume(), Step::Fail);
    }

    #[test]
    fn filter_map_skips_failures() {
        let mut g = filter_map(to_range(1, 6, 1), |v| {
            let n = v.as_int()?;
            if n % 2 == 0 {
                Some(Value::from(n * n))
            } else {
                None
            }
        });
        assert_eq!(ints(&mut g), vec![4, 16, 36]);
    }

    #[test]
    fn promote_list_string_and_scalar() {
        let l = Value::list(vec![Value::from(1), Value::from(2)]);
        assert_eq!(ints(&mut promote_value(l)), vec![1, 2]);

        let s: Vec<String> = promote_value(Value::str("abc"))
            .collect_values()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect();
        assert_eq!(s, vec!["a", "b", "c"]);

        assert_eq!(promote_value(Value::from(5)).resume(), Step::Fail);
        assert_eq!(promote_value(Value::Null).resume(), Step::Fail);
    }

    #[test]
    fn promote_rereads_source_after_restart() {
        let v = Var::new(Value::list(vec![Value::from(1)]));
        let v2 = v.clone();
        let mut g = promote(move || v2.get());
        assert_eq!(ints(&mut g), vec![1]);
        v.set(Value::list(vec![Value::from(9), Value::from(8)]));
        g.restart();
        assert_eq!(ints(&mut g), vec![9, 8]);
    }

    #[test]
    fn if_then_else_choice_rechecked_on_restart() {
        let flag = Var::new(Value::from(1));
        let f2 = flag.clone();
        let mut g = if_then_else(
            move || ops::num_eq(&f2.get(), &Value::from(1)),
            Box::new(unit(Value::str("then"))),
            Box::new(unit(Value::str("else"))),
        );
        assert_eq!(g.next_value().unwrap().as_str(), Some("then"));
        flag.set(Value::from(0));
        g.restart();
        assert_eq!(g.next_value().unwrap().as_str(), Some("else"));
    }

    #[test]
    fn seq_bounds_leading_and_delegates_last() {
        let log = Var::new(Value::list(vec![]));
        let l1 = log.clone();
        let side = thunk(move || {
            if let Value::List(l) = l1.get() {
                l.lock().push(Value::from(1));
            }
            Some(Value::Null)
        });
        let mut g = seq(vec![Box::new(side) as BoxGen, Box::new(to_range(5, 7, 1))]);
        assert_eq!(ints(&mut g), vec![5, 6, 7]);
        // The leading expression ran exactly once even though the last
        // generator was resumed several times.
        assert_eq!(log.get().size(), Some(1));
    }

    #[test]
    fn thunk_reevaluates_on_restart_only() {
        let v = Var::new(Value::from(1));
        let v2 = v.clone();
        let mut g = thunk(move || Some(v2.get()));
        assert_eq!(g.next_value().unwrap().as_int(), Some(1));
        assert_eq!(g.resume(), Step::Fail);
        v.set(Value::from(2));
        g.restart();
        assert_eq!(g.next_value().unwrap().as_int(), Some(2));
    }
}
