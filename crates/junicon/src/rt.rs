//! Public runtime support for interpreted *and emitted* code.
//!
//! The paper's translation targets a small kernel of runtime classes
//! (`IconIterator`, `IconSequence`, `IconSuspend`, `IconFail`, … — see
//! Fig. 5). This module is that kernel's public face in the Rust
//! reproduction: every node of a lowered plan (`junicon::lower`) is a call
//! to a constructor here, which the interpreter makes and the
//! [`crate::emit`] transpiler prints, so a node's meaning is written once,
//! as code, and interpreted and emitted programs share it. Every
//! constructor hands back a [`BoxGen`]; the ones that are a [`gde::comb`]
//! constructor ([`product`], [`bind`], [`alt`], [`seq`], [`fail`]) box it
//! here, so `gde::comb` keeps its concrete types for the static chains
//! built from it. A primitive is one call too: [`op1`] or [`op2`] over the
//! function an operator names, or a constructor of its own ([`set_index`],
//! [`field`], [`set_field`], [`native`], [`list`]). A procedure, method or
//! class constructor is one [`Def`] in both back ends, re-run by [`invoke`]
//! under one rule.

use gde::comb;
use gde::env::{Env, FrameLayout, SlotNames};
use gde::func::Native;
use gde::ops;
use gde::{BoxGen, Gen, GenExt, ObjData, ProcValue, Step, Value, Var};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared control flag (procedure return, loop break/next).
pub type Flag = Arc<AtomicBool>;

/// A fresh, unset flag.
pub fn flag() -> Flag {
    Arc::new(AtomicBool::new(false))
}

/// The control flags of one activation: `[0]` is raised when it returns or
/// fails, then a break/next pair per loop.
pub fn flags(count: u32) -> Vec<Flag> {
    (0..count).map(|_| flag()).collect()
}

/// A vector of fresh temporaries (the reified `x_N_r` cells of Fig. 5).
pub fn tmps(count: u32) -> Vec<Var> {
    (0..count).map(|_| Var::null()).collect()
}

/// A procedure's definition (Sec. V.C's "variadic lambda expressions that
/// return an iterator"), made once and bound under any number of scopes:
/// the globals, or each object's field frame for a method.
#[derive(Clone)]
pub struct Def(Arc<Defined<Body>>);

/// A definition's parts; the body, last, is stored inline.
struct Defined<F: ?Sized> {
    name: Box<str>,
    /// Parameters first, then the statically scoped locals.
    layout: Arc<FrameLayout>,
    params: usize,
    tmps: u32,
    flags: u32,
    /// Whether a call site may re-run an activation: no deferred body in
    /// the procedure captures its environment.
    rerun: bool,
    body: F,
}

/// What builds an activation's tree over its frame, temporaries and flags.
type Body = dyn Fn(&Env, &[Var], &[Flag]) -> BoxGen + Send + Sync;

impl Def {
    /// Procedure `name`. A call builds a frame shaped by `slots`, sets its
    /// first `params` cells from the arguments (missing ones are null),
    /// allocates `tmps` temporaries and `flags` control flags, and hands
    /// all three to `body`, which builds the activation's generator tree.
    /// `rerun` lets a call site run that tree again in place ([`invoke`]).
    pub fn new(
        name: &str,
        slots: impl SlotNames,
        params: usize,
        tmps: u32,
        flags: u32,
        rerun: bool,
        body: impl Fn(&Env, &[Var], &[Flag]) -> BoxGen + Send + Sync + 'static,
    ) -> Def {
        Def(Arc::new(Defined {
            name: name.into(),
            layout: FrameLayout::of(slots),
            params,
            tmps,
            flags,
            rerun,
            body,
        }))
    }

    /// The procedure this definition makes under `scope`: a [`ProcValue`]
    /// defined by the pair, so a call site can do more than invoke it.
    fn bind(&self, scope: &Env) -> ProcValue {
        let bound = Arc::new((self.clone(), scope.clone()));
        let call = Arc::clone(&bound);
        ProcValue::defined(&self.0.name, Some(bound), move |args: Vec<Value>| {
            let (def, scope) = &*call;
            def.call(scope, &args).root
        })
    }

    /// A call under `scope`: the parameters bound in a fresh frame, the tree
    /// built. The scope's generation is read first, so a name declared
    /// while the tree is built makes `recall` refuse, never re-run a stale
    /// binding.
    fn call(&self, scope: &Env, args: &[Value]) -> Activation {
        #[cfg(test)]
        BUILT.with(|n| n.set(n.get() + 1));
        let def = &self.0;
        let scope_gen = def.rerun.then(|| scope.generation());
        let env = scope.child_with_layout(Arc::clone(&def.layout));
        self.pass(&env, args);
        let (tmps, flags) = (tmps(def.tmps), flags(def.flags));
        Activation {
            root: (def.body)(&env, &tmps, &flags),
            env,
            tmps,
            flags,
            scope_gen,
        }
    }

    /// Re-run a parked `act` over `args`, as if [`Def::call`] had just
    /// built it — unless a fresh one could bind differently: the scope
    /// (where a fresh, empty frame looks names up, `::` natives included)
    /// has moved its generation since.
    fn recall(&self, scope: &Env, act: &mut Activation, args: &[Value]) -> bool {
        let fresh = act.scope_gen == Some(scope.generation());
        if fresh {
            self.pass(&act.env, args);
        }
        fresh
    }

    /// Set the parameter cells of `env`, a frame of this definition's.
    fn pass(&self, env: &Env, args: &[Value]) {
        for i in 0..self.0.params {
            env.slot_local(i).set(gde::func::arg(args, i));
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Procedure activations built on this thread.
    pub(crate) static BUILT: Cell<usize> = const { Cell::new(0) };
}

/// One activation: its generator tree and what the tree is built over,
/// which a call site keeps to re-run it ([`Def::recall`]).
struct Activation {
    root: BoxGen,
    env: Env,
    tmps: Vec<Var>,
    flags: Vec<Flag>,
    /// The scope's name generation, read before the tree was built, if a
    /// call site may re-run it.
    scope_gen: Option<u64>,
}

impl Activation {
    /// Keep the activation for a re-run: restart its tree and null its
    /// cells, so it holds no value across the restart. `None` (drop it) for
    /// an activation that is never re-run.
    fn park(mut self) -> Option<Activation> {
        self.scope_gen?;
        self.root.restart();
        self.env.reset();
        self.tmps.iter().for_each(|t| drop(t.replace(Value::Null)));
        self.flags
            .iter()
            .for_each(|f| f.store(false, Ordering::Relaxed));
        Some(self)
    }
}

/// Class `name`'s constructor (Sec. V.C's class transformation). A call
/// builds the object's field frame from `slots` (`[fields…, methods…,
/// "self"]`) and sets the fields from the arguments, each of `methods`
/// bound to the frame, and the object, which holds itself: so the root of
/// the scope adopts the frame ([`Env::adopt`]).
pub fn class(name: &str, slots: impl SlotNames, fields: usize, methods: Vec<Def>) -> Def {
    let class_name: Arc<str> = Arc::from(name);
    Def::new(name, slots, fields, 0, 0, false, move |env, _, _| {
        for (k, method) in methods.iter().enumerate() {
            env.slot_local(fields + k)
                .set(Value::Proc(method.bind(env)));
        }
        let obj = Value::Object(Arc::new(ObjData {
            class_name: Arc::clone(&class_name),
            fields: env.clone(),
            declared: fields,
        }));
        env.slot_local(env.layout().len() - 1).set(obj.clone());
        env.adopt(env);
        Box::new(comb::unit(obj))
    })
}

/// Bind each definition under `globals` and declare it there by its name:
/// the procedures and classes of a loaded program or an emitted module.
pub fn install(globals: &Env, defs: impl IntoIterator<Item = Def>) {
    for def in defs {
        globals.declare(&def.0.name, Value::Proc(def.bind(globals)));
    }
}

/// Run a top-level statement: drive it to failure so that a suspension
/// inside it (rare) does not stall the load.
pub fn drive(mut g: BoxGen) {
    while let Step::Suspend(_) = g.resume() {}
}

/// Bounded evaluation: the first result of `g`, started over.
fn first(g: &mut BoxGen) -> Option<Value> {
    g.restart();
    g.next_value()
}

/// Is any of these flags raised?
fn raised(flags: &[Flag]) -> bool {
    flags.iter().any(|f| f.load(Ordering::Relaxed))
}

/// A runtime operand slot: a constant or a variable cell — the reified
/// operand form every flattened expression reads through.
#[derive(Clone)]
pub enum Slot {
    Const(Value),
    Cell(Var),
    /// `&subject`: the innermost scanning environment's string.
    ScanSubject,
    /// `&pos`: the innermost scanning environment's position.
    ScanPos,
}

impl Slot {
    /// Current value of the slot.
    pub fn get(&self) -> Value {
        match self {
            Slot::Const(v) => v.clone(),
            Slot::Cell(var) => var.get(),
            Slot::ScanSubject => scan_top()
                .map(|f| Value::Str(f.subject))
                .unwrap_or(Value::Null),
            Slot::ScanPos => scan_top()
                .map(|f| Value::from(f.pos))
                .unwrap_or(Value::Null),
        }
    }

    /// Coerce the slot's value to an integer.
    pub fn to_i64(&self) -> Option<i64> {
        match gde::ops::to_num(&self.get())? {
            gde::ops::Num::Int(i) => Some(i),
            gde::ops::Num::Big(b) => b.to_i64(),
            gde::ops::Num::Real(r) => Some(r as i64),
        }
    }
}

/// Slot over a big-integer literal (decimal digits; null if malformed).
pub fn slot_big(digits: &str) -> Slot {
    Slot::Const(big(digits))
}

/// A big-integer literal's value (decimal digits; null if malformed).
pub(crate) fn big(digits: &str) -> Value {
    let parsed = bigint::BigInt::from_str_radix(digits, 10);
    parsed.map(Value::big).unwrap_or(Value::Null)
}

/// `*v`: the size as a value; fails for sizeless values.
pub fn size(v: &Value) -> Option<Value> {
    v.size().map(Value::from)
}

/// Co-expression activation `@v` and refresh `^v`, the functions of the
/// `@` and `^` primitives.
pub use coexpr::{activate, refresh};

// ---------------------------------------------------------------------------
// Nodes over operand slots
// ---------------------------------------------------------------------------

/// A unary operator, `f(a)` (`-a`, `*a`, `@a`, `^a`): at most one value per
/// (re)start, the operand read at each evaluation.
pub fn op1(f: fn(&Value) -> Option<Value>, a: Slot) -> BoxGen {
    thunk(move || f(&a.get()))
}

/// A binary operator, `f(a, b)` (the 20 of `a op b`, and `a[i]`).
pub fn op2(f: fn(&Value, &Value) -> Option<Value>, a: Slot, b: Slot) -> BoxGen {
    thunk(move || f(&a.get(), &b.get()))
}

/// Subscript assignment `base[index] := value`.
pub fn set_index(base: Slot, index: Slot, value: Slot) -> BoxGen {
    thunk(move || ops::index_assign(&base.get(), &index.get(), value.get()))
}

/// Field read `base.name`: objects read their field or bound method;
/// tables fall back to string-keyed lookup.
pub fn field(name: impl Into<Arc<str>>, base: Slot) -> BoxGen {
    let name = name.into();
    thunk(move || match base.get().deref() {
        Value::Object(o) => o.get_field(&name),
        table @ Value::Table(_) => ops::index(&table, &Value::str(&*name)),
        _ => None,
    })
}

/// Field write `base.name := value`: objects must have the field declared
/// (a method or `self` is not one); tables insert under the string key.
pub fn set_field(name: impl Into<Arc<str>>, base: Slot, value: Slot) -> BoxGen {
    let name = name.into();
    thunk(move || match base.get().deref() {
        Value::Object(o) => o.set_field(&name, value.get()),
        table @ Value::Table(_) => ops::index_assign(&table, &Value::str(&*name), value.get()),
        _ => None,
    })
}

/// List construction `[items…]` (never fails).
pub fn list(items: Vec<Slot>) -> BoxGen {
    thunk(move || Some(Value::list(items.iter().map(Slot::get).collect())))
}

/// Host-native call `target::name(args…)`: the native [`declare_native`]
/// declared is looked up when the node is built ([`native_method`] when
/// there is none), so an evaluation looks nothing up.
pub fn native(env: &Env, name: impl Into<Arc<str>>, target: Slot, args: Vec<Slot>) -> BoxGen {
    let name: Arc<str> = name.into();
    let mut declared: Option<Native> = None;
    if let Some(cell) = env.lookup(&native_key(&name)) {
        // Read in place: binding clones the function, not the procedure.
        cell.update(|v| {
            if let Value::Proc(p) = v {
                declared = p.def::<Native>().cloned();
            }
        });
    }
    thunk(move || {
        let mut operands = Vec::with_capacity(1 + args.len());
        operands.push(target.get());
        operands.extend(args.iter().map(Slot::get));
        match &declared {
            Some(f) => f(&operands),
            None => native_method(&operands[0], &name, &operands[1..]),
        }
    })
}

/// Declare `f` as the `::` native `name` in `globals`, under a name no
/// Junicon identifier can spell, for every [`native`] node built after: a
/// declaration moves the name generation, so no call site re-runs an older
/// activation. Interpreters (`Interp::register_native`) and hosts of
/// emitted modules call it alike.
pub fn declare_native(
    globals: &Env,
    name: &str,
    f: impl Fn(&Value, &[Value]) -> Option<Value> + Send + Sync + 'static,
) {
    let native = ProcValue::native(name, move |operands| match operands.split_first() {
        Some((target, args)) => f(target, args),
        None => f(&Value::Null, &[]),
    });
    globals.declare(&native_key(name), Value::Proc(native));
}

fn native_key(name: &str) -> String {
    ["::", name].concat()
}

/// A variable or literal in generator position: its current value, once.
pub fn atom(s: Slot) -> BoxGen {
    thunk(move || Some(s.get()))
}

/// Promotion `!a` of the slot's value, re-read at each restart.
pub fn promote(s: Slot) -> BoxGen {
    Box::new(comb::promote(move || s.get()))
}

/// Generator-function invocation `callee(args…)` (`IconInvokeIterator`):
/// callee and arguments are read at the first resume after each restart.
/// Called again on the procedure it ran last, the node re-runs that
/// activation in place while the procedure's scope keeps its name
/// generation (`Def::recall`); any other call builds a fresh
/// generator. A callee that is not a procedure fails until the next
/// restart.
pub fn invoke(callee: Slot, args: Vec<Slot>) -> BoxGen {
    let call = Call::Next(None);
    Box::new(Invoke { callee, args, call })
}

/// The node [`invoke`] builds.
struct Invoke {
    callee: Slot,
    args: Vec<Slot>,
    call: Call,
}

enum Call {
    /// Call at the next resume; the last activation, parked, if it is kept.
    Next(Option<(ProcValue, Activation)>),
    /// An activation of a procedure made from a [`Def`].
    Defined(ProcValue, Activation),
    /// Any other callee's generator (failure, when it is not a procedure).
    Other(BoxGen),
}

impl Invoke {
    fn dispatch(&self, kept: Option<(ProcValue, Activation)>) -> Call {
        let argv: Vec<Value> = self.args.iter().map(Slot::get).collect();
        let Value::Proc(p) = self.callee.get().deref() else {
            return Call::Other(Box::new(comb::fail()));
        };
        let Some((def, scope)) = p.def::<(Def, Env)>() else {
            return Call::Other(p.invoke(argv));
        };
        if let Some((last, mut act)) = kept.filter(|(last, _)| last.same(&p)) {
            if def.recall(scope, &mut act, &argv) {
                return Call::Defined(last, act);
            }
        }
        Call::Defined(p.clone(), def.call(scope, &argv))
    }
}

impl Gen for Invoke {
    fn resume(&mut self) -> Step {
        if let Call::Next(kept) = &mut self.call {
            let kept = kept.take();
            self.call = self.dispatch(kept);
        }
        match &mut self.call {
            Call::Defined(_, act) => act.root.resume(),
            Call::Other(g) => g.resume(),
            Call::Next(_) => unreachable!("dispatched above"),
        }
    }
    fn restart(&mut self) {
        self.call = match std::mem::replace(&mut self.call, Call::Next(None)) {
            Call::Defined(p, act) => Call::Next(act.park().map(|act| (p, act))),
            Call::Next(kept) => Call::Next(kept),
            Call::Other(_) => Call::Next(None),
        };
    }
}

/// Assignment `x := a`; yields the assigned value.
pub fn set_var(cell: Var, from: Slot) -> BoxGen {
    thunk(move || {
        let v = from.get();
        cell.set(v.clone());
        Some(v)
    })
}

/// `from to to by by` with the bounds re-read at each restart.
pub fn to_range(from: Slot, to: Slot, by: Slot) -> BoxGen {
    Box::new(comb::to_range_dyn(
        move || from.to_i64(),
        move || to.to_i64(),
        move || by.to_i64(),
    ))
}

// ---------------------------------------------------------------------------
// The `gde::comb` constructors, boxed
// ---------------------------------------------------------------------------

/// The product of bound iterators `e1 & e2 & …` (`IconProduct`).
pub fn product(factors: Vec<BoxGen>) -> BoxGen {
    comb::product_all(factors)
}

/// The bound iterator `x in e` (`IconIn`): each result of `inner` is
/// stored in `var`, then passed on.
pub fn bind(var: Var, inner: BoxGen) -> BoxGen {
    Box::new(comb::bind(var, inner))
}

/// Alternation `e1 | e2 | …`.
pub fn alt(items: Vec<BoxGen>) -> BoxGen {
    Box::new(comb::alt_all(items))
}

/// A monogenic evaluation: at most one value per (re)start.
fn thunk(f: impl Fn() -> Option<Value> + Send + 'static) -> BoxGen {
    Box::new(comb::thunk(f))
}

/// An expression sequence (`IconSequence`): the leading expressions bounded
/// and silent, the last delegating.
pub fn seq(exprs: Vec<BoxGen>) -> BoxGen {
    comb::seq(exprs)
}

/// Failure.
pub fn fail() -> BoxGen {
    Box::new(comb::fail())
}

// ---------------------------------------------------------------------------
// Statement sequencing
// ---------------------------------------------------------------------------

/// Sequential statement driver: runs each statement generator to failure in
/// order, passing through suspended values; aborts early when any abort
/// flag (return / break / next) is raised.
struct StmtSeq {
    stmts: Vec<BoxGen>,
    pos: usize,
    aborts: Vec<Flag>,
    /// A procedure-body root lowers its `returned` flag on restart.
    root: bool,
}

/// Statements in order, each run to failure, their suspensions passed
/// through; ends early when any of `aborts` (return / break / next) is
/// raised.
pub fn stmt_seq(stmts: Vec<BoxGen>, aborts: Vec<Flag>) -> BoxGen {
    Box::new(StmtSeq {
        stmts,
        pos: 0,
        aborts,
        root: false,
    })
}

/// Procedure-body root: the statements abort on the return flag, which a
/// restart lowers (the `IconSequence(..., IconNullIterator, IconFail)`
/// wrapper of Fig. 5).
pub fn body_root(stmts: Vec<BoxGen>, returned: Flag) -> BoxGen {
    Box::new(StmtSeq {
        stmts,
        pos: 0,
        aborts: vec![returned],
        root: true,
    })
}

impl Gen for StmtSeq {
    fn resume(&mut self) -> Step {
        while self.pos < self.stmts.len() {
            if raised(&self.aborts) {
                return Step::Fail;
            }
            match self.stmts[self.pos].resume() {
                Step::Suspend(v) => return Step::Suspend(v),
                Step::Fail => self.pos += 1,
            }
        }
        Step::Fail
    }
    fn restart(&mut self) {
        if self.root {
            self.aborts[0].store(false, Ordering::Relaxed);
        }
        for s in &mut self.stmts {
            s.restart();
        }
        self.pos = 0;
    }
}

struct MuteOnce {
    inner: BoxGen,
    done: bool,
}

/// Bounded, silent evaluation of an expression statement.
pub fn mute_once(inner: BoxGen) -> BoxGen {
    Box::new(MuteOnce { inner, done: false })
}

impl Gen for MuteOnce {
    fn resume(&mut self) -> Step {
        if !self.done {
            self.done = true;
            let _ = self.inner.resume();
        }
        Step::Fail
    }
    fn restart(&mut self) {
        self.inner.restart();
        self.done = false;
    }
}

struct ReturnGen {
    value: Option<BoxGen>,
    returned: Flag,
    done: bool,
}

/// `return [e]`: yields the first value of `e` (or null for a bare
/// `return`), then raises the returned flag.
pub fn return_gen(value: Option<BoxGen>, returned: Flag) -> BoxGen {
    Box::new(ReturnGen {
        value,
        returned,
        done: false,
    })
}

impl Gen for ReturnGen {
    fn resume(&mut self) -> Step {
        if self.done {
            return Step::Fail;
        }
        self.done = true;
        let result = match &mut self.value {
            Some(g) => g.next_value(),
            None => Some(Value::Null),
        };
        self.returned.store(true, Ordering::Relaxed);
        match result {
            Some(v) => Step::Suspend(v),
            None => Step::Fail,
        }
    }
    fn restart(&mut self) {
        if let Some(g) = &mut self.value {
            g.restart();
        }
        self.done = false;
    }
}

struct FlagFail {
    flag: Flag,
}

/// `fail` / `break` / `next`: raise a flag and fail.
pub fn flag_fail(flag: Flag) -> BoxGen {
    Box::new(FlagFail { flag })
}

impl Gen for FlagFail {
    fn resume(&mut self) -> Step {
        self.flag.store(true, Ordering::Relaxed);
        Step::Fail
    }
    fn restart(&mut self) {}
}

// ---------------------------------------------------------------------------
// Control nodes that drive children they own
// ---------------------------------------------------------------------------

/// How a loop pass starts.
enum Head {
    /// `while` / `until` / `repeat`: re-test the bounded condition; `until`
    /// says which outcome ends the loop.
    Test { cond: BoxGen, until: bool },
    /// `every`: resume the source, one pass per value.
    Every(BoxGen),
}

/// A loop: starts a pass as its head says, runs the body (a statement)
/// to completion, yields the body's suspensions, fails at the end.
struct LoopGen {
    head: Head,
    body: Option<BoxGen>,
    in_pass: bool,
    break_f: Flag,
    next_f: Flag,
    /// The enclosing context's abort flags (procedure return, an outer
    /// loop's break/next): raised mid-body, they end this loop too.
    aborts: Vec<Flag>,
}

fn loop_gen(head: Head, body: Option<BoxGen>, brk: Flag, nxt: Flag, aborts: Vec<Flag>) -> BoxGen {
    Box::new(LoopGen {
        head,
        body,
        in_pass: false,
        break_f: brk,
        next_f: nxt,
        aborts,
    })
}

type LoopBody = Option<BoxGen>;

/// `while cond do body` (`repeat body` is `while &null do body`).
pub fn while_do(cond: BoxGen, body: LoopBody, brk: Flag, nxt: Flag, aborts: Vec<Flag>) -> BoxGen {
    loop_gen(Head::Test { cond, until: false }, body, brk, nxt, aborts)
}

/// `until cond do body`.
pub fn until_do(cond: BoxGen, body: LoopBody, brk: Flag, nxt: Flag, aborts: Vec<Flag>) -> BoxGen {
    loop_gen(Head::Test { cond, until: true }, body, brk, nxt, aborts)
}

/// `every source do body`: one body pass per source value.
pub fn every_do(source: BoxGen, body: LoopBody, brk: Flag, nxt: Flag, aborts: Vec<Flag>) -> BoxGen {
    loop_gen(Head::Every(source), body, brk, nxt, aborts)
}

impl Gen for LoopGen {
    fn resume(&mut self) -> Step {
        loop {
            if raised(&self.aborts) || self.break_f.load(Ordering::Relaxed) {
                return Step::Fail;
            }
            if !self.in_pass {
                let go = match &mut self.head {
                    Head::Test { cond, until } => first(cond).is_some() != *until,
                    Head::Every(source) => !source.resume().is_fail(),
                };
                if !go {
                    return Step::Fail;
                }
                self.in_pass = true;
                self.next_f.store(false, Ordering::Relaxed);
                if let Some(b) = &mut self.body {
                    b.restart();
                }
            }
            match &mut self.body {
                Some(b) => match b.resume() {
                    Step::Suspend(v) => {
                        if self.next_f.load(Ordering::Relaxed)
                            || self.break_f.load(Ordering::Relaxed)
                        {
                            self.in_pass = false;
                            continue;
                        }
                        return Step::Suspend(v);
                    }
                    Step::Fail => self.in_pass = false,
                },
                None => self.in_pass = false,
            }
        }
    }
    fn restart(&mut self) {
        let (Head::Test { cond: head, .. } | Head::Every(head)) = &mut self.head;
        head.restart();
        if let Some(b) = &mut self.body {
            b.restart();
        }
        self.in_pass = false;
        self.break_f.store(false, Ordering::Relaxed);
        self.next_f.store(false, Ordering::Relaxed);
    }
}

/// Bounded evaluation of an owned child from an `Fn`. The child leaves its
/// cell for the call; no lock, since one thread drives a generator tree.
/// It is restarted as soon as its value is taken, so it holds nothing (a
/// call's activation, say) until the next evaluation.
fn bounded(child: BoxGen) -> impl Fn() -> Option<Value> + Send {
    let cell = Cell::new(Some(child));
    move || {
        let mut child = cell.take()?;
        let v = child.next_value();
        child.restart();
        cell.set(Some(child));
        v
    }
}

/// `if cond then e1 else e2`: evaluates the bounded condition once per
/// (re)start, then delegates all iteration to the chosen branch (a missing
/// `else` fails).
pub fn if_gen(cond: BoxGen, then: BoxGen, els: Option<BoxGen>) -> BoxGen {
    let els = els.unwrap_or_else(fail);
    Box::new(comb::if_then_else(bounded(cond), then, els))
}

/// `not e`: succeeds (null) iff the bounded `e` fails.
pub fn not(inner: BoxGen) -> BoxGen {
    let inner = bounded(inner);
    thunk(move || match inner() {
        Some(_) => None,
        None => Some(Value::Null),
    })
}

/// `local x [:= e]`: the cell exists from construction (so later lookups
/// bind it); each evaluation sets it to the bounded initializer's value,
/// or null.
pub fn decl(cell: Var, init: Option<BoxGen>) -> BoxGen {
    let init = init.map(bounded);
    thunk(move || {
        cell.set(init.as_ref().and_then(|f| f()).unwrap_or(Value::Null));
        Some(Value::Null)
    })
}

// ---------------------------------------------------------------------------
// Deferred bodies: `<>e`, `|<>e`, `|>e`
// ---------------------------------------------------------------------------
//
// A deferred body is an activation of its own (own temporaries and flags,
// no enclosing loop); `body` builds its generator over the environment it
// is handed, each time the co-expression is created or refreshed.

/// `<>e` / `create e`: a first-class co-expression over the current
/// environment.
pub fn co_create(env: &Env, body: impl Fn(Env) -> BoxGen + Send + Sync + 'static) -> BoxGen {
    let (env, body) = (env.clone(), Arc::new(body));
    thunk(move || {
        let (env, body) = (env.clone(), Arc::clone(&body));
        Some(coexpr::create(move || body(env.clone())))
    })
}

/// `|<>e`: a co-expression over a shadow copy of the environment.
pub fn co_create_shadowed(
    env: &Env,
    body: impl Fn(Env) -> BoxGen + Send + Sync + 'static,
) -> BoxGen {
    let (env, body) = (env.clone(), Arc::new(body));
    thunk(move || {
        let body = Arc::clone(&body);
        Some(coexpr::create_shadowed(&env, move |shadow| {
            body(shadow.clone())
        }))
    })
}

/// `|>e` evaluates to a *first-class proxy value*: each evaluation shadows
/// the environment (the pipe wraps a co-expression, `|>e → c=|<>e; …`) and
/// spawns a fresh producer thread; the resulting `Value::Co` can be
/// assigned, activated with `@`, promoted with `!`, or refreshed with `^`.
pub fn pipe(env: &Env, body: impl Fn(Env) -> BoxGen + Send + Sync + 'static) -> BoxGen {
    let (env, body) = (env.clone(), Arc::new(body));
    thunk(move || {
        let (pristine, body) = (env.shadow(), Arc::clone(&body));
        Some(pipes::pipe_value(
            move || body(pristine.shadow()),
            pipes::DEFAULT_CAPACITY,
        ))
    })
}

struct DynLimit {
    inner: BoxGen,
    n: Slot,
    remaining: Option<i64>,
}

/// `e \ n` where `n` is re-read from its slot at each restart. The bound
/// comes first because it binds first: in `{ local x := 3; x to 9 } \ x`
/// the bound is the *outer* `x`.
pub fn dyn_limit(n: Slot, inner: BoxGen) -> BoxGen {
    Box::new(DynLimit {
        inner,
        n,
        remaining: None,
    })
}

impl Gen for DynLimit {
    fn resume(&mut self) -> Step {
        if self.remaining.is_none() {
            self.remaining = Some(self.n.to_i64().unwrap_or(0));
        }
        let rem = self.remaining.as_mut().expect("just set");
        if *rem <= 0 {
            return Step::Fail;
        }
        match self.inner.resume() {
            Step::Suspend(v) => {
                *rem -= 1;
                Step::Suspend(v)
            }
            Step::Fail => Step::Fail,
        }
    }
    fn restart(&mut self) {
        self.inner.restart();
        self.remaining = None;
    }
}

struct RevSetGen {
    cell: Var,
    value: Slot,
    saved: Option<Value>,
}

/// Reversible assignment `x <- e` (Sec. V.B's "optionally reversible"
/// iteration): the first resume saves the cell's value, assigns, and
/// suspends the new value; being resumed again — i.e. backtracked into —
/// restores the saved value and fails, undoing the binding.
pub fn rev_set(cell: Var, value: Slot) -> BoxGen {
    Box::new(RevSetGen {
        cell,
        value,
        saved: None,
    })
}

impl Gen for RevSetGen {
    fn resume(&mut self) -> Step {
        match self.saved.take() {
            None => {
                let new = self.value.get();
                self.saved = Some(self.cell.replace(new.clone()));
                Step::Suspend(new)
            }
            Some(old) => {
                self.cell.set(old);
                Step::Fail
            }
        }
    }
    fn restart(&mut self) {
        // A restart without an intervening backtrack abandons the undo:
        // the last committed value stands (matching Icon, where only
        // resumption-for-backtracking reverses the assignment).
        self.saved = None;
    }
}

// ---------------------------------------------------------------------------
// String scanning (s ? expr)
// ---------------------------------------------------------------------------

use std::cell::RefCell;

/// One scanning environment: the subject string and the 1-based position
/// (`&subject` / `&pos`), `1..=len+1`.
#[derive(Clone)]
pub struct ScanFrame {
    pub subject: std::sync::Arc<str>,
    pub pos: i64,
}

thread_local! {
    // Scanning environments nest per *thread*: a pipe producer scanning a
    // string does not disturb the consumer's scan.
    static SCAN: RefCell<Vec<ScanFrame>> = const { RefCell::new(Vec::new()) };
}

/// Push a new scanning environment with `&pos = 1`.
pub fn scan_push(subject: std::sync::Arc<str>) {
    SCAN.with(|s| s.borrow_mut().push(ScanFrame { subject, pos: 1 }));
}

/// Pop the innermost scanning environment.
pub fn scan_pop() {
    SCAN.with(|s| {
        s.borrow_mut().pop();
    });
}

/// Pop and return the innermost scanning environment (for suspension
/// save/restore).
pub fn scan_pop_frame() -> Option<ScanFrame> {
    SCAN.with(|s| s.borrow_mut().pop())
}

/// Re-establish a previously saved scanning environment.
pub fn scan_push_frame(frame: ScanFrame) {
    SCAN.with(|s| s.borrow_mut().push(frame));
}

/// The innermost scanning environment, if any.
pub fn scan_top() -> Option<ScanFrame> {
    SCAN.with(|s| s.borrow().last().cloned())
}

/// Set `&pos` in the innermost environment; fails (false) when out of the
/// valid range `1..=len+1` or when no scan is active.
pub fn scan_set_pos(pos: i64) -> bool {
    SCAN.with(|s| {
        let mut st = s.borrow_mut();
        match st.last_mut() {
            Some(frame) if pos >= 1 && pos <= frame.subject.chars().count() as i64 + 1 => {
                frame.pos = pos;
                true
            }
            _ => false,
        }
    })
}

struct ScanGen {
    subject: BoxGen,
    body: BoxGen,
    active: bool,
    /// The scanning environment while this generator is suspended: Icon
    /// restores the *outer* environment at each suspension boundary and
    /// re-establishes the inner one on resumption.
    saved: Option<ScanFrame>,
}

/// The scanning generator `e1 ? e2`: evaluates the subject (bounded),
/// pushes a scanning environment, yields the body's results, and pops the
/// environment when the body fails. Restart pops any active frame and
/// starts over.
pub fn scan_gen(subject: BoxGen, body: BoxGen) -> BoxGen {
    Box::new(ScanGen {
        subject,
        body,
        active: false,
        saved: None,
    })
}

impl Gen for ScanGen {
    fn resume(&mut self) -> Step {
        if !self.active {
            let subj = match first(&mut self.subject).and_then(|v| ops::to_str(&v)) {
                Some(s) => s,
                None => return Step::Fail,
            };
            scan_push(subj);
            self.active = true;
            self.body.restart();
        } else if let Some(frame) = self.saved.take() {
            scan_push_frame(frame);
        }
        match self.body.resume() {
            Step::Suspend(v) => {
                self.saved = scan_pop_frame();
                Step::Suspend(v)
            }
            Step::Fail => {
                scan_pop();
                self.active = false;
                Step::Fail
            }
        }
    }
    fn restart(&mut self) {
        if self.active && self.saved.is_none() {
            scan_pop();
        }
        self.saved = None;
        self.active = false;
        self.subject.restart();
        self.body.restart();
    }
}

impl Drop for ScanGen {
    fn drop(&mut self) {
        if self.active && self.saved.is_none() {
            scan_pop();
        }
    }
}

/// Built-in `::` methods available on any value, what a [`native`] call
/// runs when no native of its name is declared: the string/list
/// operations of Fig. 3.
pub fn native_method(target: &Value, method: &str, args: &[Value]) -> Option<Value> {
    match method {
        // ((String) line)::split("\\s+") — whitespace or literal separator.
        "split" => {
            let s = ops::to_str(target)?;
            let pat = args.first().and_then(|p| p.as_str().map(str::to_string));
            let parts: Vec<Value> = match pat.as_deref() {
                None | Some("\\s+") | Some(" ") => s.split_whitespace().map(Value::str).collect(),
                Some(sep) => s
                    .split(sep)
                    .filter(|p| !p.is_empty())
                    .map(Value::str)
                    .collect(),
            };
            Some(Value::list(parts))
        }
        // ((List) tasks)::add(t)
        "add" => {
            let l = target.as_list()?.clone();
            for v in args {
                l.lock().push(v.clone());
            }
            Some(target.deref())
        }
        "size" | "length" => size(target),
        "toString" => ops::to_str(target).map(Value::Str),
        "charAt" => {
            // 0-based, Java style.
            let s = ops::to_str(target)?;
            let i = args.first()?.as_int()?;
            s.chars()
                .nth(usize::try_from(i).ok()?)
                .map(|c| Value::from(c.to_string()))
        }
        "apply" => {
            // functional-interface invocation of a generator function:
            // yields the first result ("exposed as method references ...
            // invoked with an explicit method name such as apply").
            match target.deref() {
                Value::Proc(p) => p.invoke(args.to_vec()).next_value(),
                _ => None,
            }
        }
        _ => None,
    }
}

/// The emitted `classes` fixture, compiled into the crate's tests.
#[cfg(test)]
#[rustfmt::skip]
#[path = "../tests/fixtures/classes_emitted.rs"]
mod classes_emitted;

#[cfg(test)]
mod tests {
    use super::*;
    use gde::comb::{thunk, to_range, unit};

    /// `def twice(x) { return x * 2; }` as emitted code defines it; with
    /// `pipe`, behind a branch never taken, `if &fail then |> x` first.
    fn twice(pipe: bool) -> Def {
        Def::new("twice", ["x"], 1, 0, 1, !pipe, move |env, _, flags| {
            let (x, two) = (Slot::Cell(env.slot(0, 0)), Slot::Const(Value::from(2)));
            let double = op2(ops::mul, x, two);
            let ret = return_gen(Some(double), flags[0].clone());
            let never = |env: &Env| {
                let x = Slot::Cell(env.slot(0, 0));
                if_gen(fail(), self::pipe(env, move |_| atom(x.clone())), None)
            };
            body_root(
                pipe.then(|| never(env)).into_iter().chain([ret]).collect(),
                flags[0].clone(),
            )
        })
    }

    #[test]
    fn an_emitted_call_site_re_runs_its_activation_unless_the_body_captures() {
        for (pipe, builds) in [(false, 0..=1), (true, 1000..=1000)] {
            let globals = Env::root();
            install(&globals, [twice(pipe)]);
            let arg = Var::null();
            let mut call = invoke(
                Slot::Const(globals.get("twice")),
                vec![Slot::Cell(arg.clone())],
            );
            let before = BUILT.get();
            for k in 0..1000 {
                arg.set(Value::from(k));
                call.restart();
                assert_eq!(call.collect_values(), [Value::from(2 * k)]);
            }
            let built = BUILT.get() - before;
            assert!(builds.contains(&built), "{built} built");
        }
    }

    #[test]
    fn an_emitted_class_lays_out_each_method_frame_once() {
        let globals = Env::root();
        classes_emitted::install(&globals);
        let method = |obj: &Value, name: &str| -> Arc<FrameLayout> {
            let Value::Object(o) = obj else {
                panic!("{obj:?}")
            };
            let Some(Value::Proc(p)) = o.get_field(name) else {
                panic!("{name}")
            };
            let (def, _) = p
                .def::<(Def, Env)>()
                .expect("a method is a bound definition");
            Arc::clone(&def.0.layout)
        };
        let Value::Proc(new) = globals.get("DataParallel") else {
            panic!()
        };
        let a = new.invoke(vec![Value::from(3)]).next_value().unwrap();
        let b = new.invoke(vec![Value::from(4)]).next_value().unwrap();
        for name in ["chunk", "mapReduce"] {
            assert!(Arc::ptr_eq(&method(&a, name), &method(&b, name)), "{name}");
        }
        globals.clear();
    }

    #[test]
    fn stmt_seq_passes_suspensions_in_order() {
        let mut s = stmt_seq(
            vec![
                Box::new(unit(Value::from(1))) as BoxGen,
                Box::new(gde::comb::fail()),
                Box::new(unit(Value::from(2))),
            ],
            vec![],
        );
        assert_eq!(s.collect_values().len(), 2);
    }

    #[test]
    fn stmt_seq_aborts_on_flag() {
        let f = flag();
        let mut s = stmt_seq(
            vec![
                Box::new(unit(Value::from(1))) as BoxGen,
                Box::new(unit(Value::from(2))),
            ],
            vec![f.clone()],
        );
        assert_eq!(s.next_value().unwrap().as_int(), Some(1));
        f.store(true, Ordering::Relaxed);
        assert!(s.next_value().is_none());
    }

    #[test]
    fn return_gen_yields_then_raises() {
        let f = flag();
        let mut r = return_gen(Some(Box::new(to_range(5, 9, 1))), f.clone());
        assert_eq!(r.next_value().unwrap().as_int(), Some(5)); // first only
        assert!(f.load(Ordering::Relaxed));
        assert!(r.next_value().is_none());
    }

    #[test]
    fn mute_once_is_silent_and_single() {
        let v = Var::new(Value::from(0));
        let v2 = v.clone();
        let mut m = mute_once(Box::new(thunk(move || {
            v2.set(Value::from(7));
            Some(Value::from(7))
        })));
        assert!(m.next_value().is_none());
        assert_eq!(v.get().as_int(), Some(7));
        assert!(m.next_value().is_none());
    }

    #[test]
    fn body_root_resets_flag_on_restart() {
        let f = flag();
        let mut b = body_root(
            vec![return_gen(Some(Box::new(unit(Value::from(3)))), f.clone())],
            f.clone(),
        );
        assert_eq!(b.next_value().unwrap().as_int(), Some(3));
        assert!(b.next_value().is_none());
        b.restart();
        assert_eq!(b.next_value().unwrap().as_int(), Some(3));
    }

    /// A three-pass loop under either head. Its body suspends 10, raises
    /// `raise` during the second pass it ever runs, then suspends 20. Also
    /// returns the cell the `while` head counts passes in.
    fn three_passes(every: bool, raise: Option<Flag>, flags: [Flag; 3]) -> (BoxGen, Var) {
        let [outer, brk, nxt] = flags;
        let count = |cell: Var| {
            let k = cell.get().as_int().unwrap() + 1;
            cell.set(Value::from(k));
            k
        };
        let passes = Var::new(Value::from(0));
        let head: BoxGen = if every {
            Box::new(to_range(1, 3, 1))
        } else {
            let passes = passes.clone();
            Box::new(thunk(move || {
                (count(passes.clone()) <= 3).then_some(Value::Null)
            }))
        };
        let ran = Var::new(Value::from(0));
        let trip = thunk(move || {
            if let (2, Some(flag)) = (count(ran.clone()), &raise) {
                flag.store(true, Ordering::Relaxed);
            }
            None
        });
        let stmts: Vec<BoxGen> = vec![
            Box::new(unit(Value::from(10))),
            Box::new(trip),
            Box::new(unit(Value::from(20))),
        ];
        let body = stmt_seq(stmts, vec![outer.clone(), brk.clone(), nxt.clone()]);
        let make = if every { every_do } else { while_do };
        let l = make(head, Some(body), brk, nxt, vec![outer]);
        (l, passes)
    }

    #[test]
    fn both_loop_heads_honour_break_next_outer_abort_and_restart() {
        let ints = |l: &mut BoxGen| -> Vec<i64> {
            let values = l.collect_values();
            values.iter().map(|v| v.as_int().unwrap()).collect()
        };
        let fresh = || [flag(), flag(), flag()];
        let up = |f: &Flag| f.load(Ordering::Relaxed);
        for every in [false, true] {
            let (mut l, _) = three_passes(every, None, fresh());
            assert_eq!(ints(&mut l), [10, 20, 10, 20, 10, 20]);

            // `next` skips the rest of its pass only.
            let f = fresh();
            let (mut l, _) = three_passes(every, Some(f[2].clone()), f);
            assert_eq!(ints(&mut l), [10, 20, 10, 10, 20]);

            // `break` ends the loop; a restart lowers the flag and the
            // loop runs again (the body no longer raises anything).
            let f = fresh();
            let (mut l, passes) = three_passes(every, Some(f[1].clone()), f.clone());
            assert_eq!(ints(&mut l), [10, 20, 10]);
            assert!(up(&f[1]));
            passes.set(Value::from(0));
            l.restart();
            assert!(!up(&f[1]));
            assert_eq!(ints(&mut l), [10, 20, 10, 20, 10, 20]);

            // A flag of the enclosing context (return, an outer loop's
            // break/next) raised mid-body ends this loop too, and is not
            // this loop's to lower.
            let f = fresh();
            let (mut l, passes) = three_passes(every, Some(f[0].clone()), f.clone());
            assert_eq!(ints(&mut l), [10, 20, 10]);
            passes.set(Value::from(0));
            l.restart();
            assert!(up(&f[0]) && ints(&mut l).is_empty());
        }
        // `until` runs passes while its condition fails.
        let n = Var::new(Value::from(0));
        let cond = thunk(move || {
            n.update(|v| *v = Value::from(v.as_int().unwrap() + 1));
            (n.get().as_int() > Some(2)).then_some(Value::Null)
        });
        let body: BoxGen = Box::new(unit(Value::from(7)));
        let mut u = until_do(Box::new(cond), Some(body), flag(), flag(), vec![]);
        assert_eq!(u.count(), 2);
    }

    #[test]
    fn if_not_and_decl_drive_the_children_they_own() {
        let x = Var::new(Value::from(1));
        let positive = |x: &Var| -> BoxGen {
            let x = x.clone();
            Box::new(thunk(move || ops::gt(&x.get(), &Value::from(0))))
        };
        let range = || Box::new(to_range(1, 2, 1)) as BoxGen;
        let mut g = if_gen(positive(&x), range(), None);
        assert_eq!(g.count(), 2);
        // The condition is re-evaluated per restart; a missing else fails.
        x.set(Value::from(-1));
        g.restart();
        assert_eq!(g.count(), 0);
        let mut n = not(positive(&x));
        assert!(n.next_value().unwrap().is_null() && n.next_value().is_none());
        x.set(Value::from(1));
        n.restart();
        assert!(n.next_value().is_none());
        // A declaration takes the initializer's first value, or null.
        let cell = Var::new(Value::from(9));
        let mut d = decl(cell.clone(), Some(range()));
        assert!(d.next_value().unwrap().is_null() && d.next_value().is_none());
        assert_eq!(cell.get().as_int(), Some(1));
        decl(cell.clone(), None).next_value();
        assert!(cell.get().is_null());
    }

    #[test]
    fn dyn_limit_rereads_bound() {
        let n = Var::new(Value::from(2));
        let mut l = dyn_limit(Slot::Cell(n.clone()), Box::new(to_range(1, 10, 1)));
        assert_eq!(l.collect_values().len(), 2);
        n.set(Value::from(4));
        l.restart();
        assert_eq!(l.collect_values().len(), 4);
    }

    #[test]
    fn invoke_fails_on_a_non_procedure_until_restarted_on_a_procedure() {
        let (callee, arg) = (Var::new(Value::Null), Var::new(Value::from(1)));
        let mut g = invoke(Slot::Cell(callee.clone()), vec![Slot::Cell(arg.clone())]);
        for not_a_procedure in [Value::from(3), Value::str("f"), Value::Null] {
            callee.set(not_a_procedure);
            g.restart();
            assert_eq!(g.resume(), Step::Fail);
            assert_eq!(g.resume(), Step::Fail, "fails again until a restart");
        }
        let id = ProcValue::native("id", |args| Some(gde::func::arg(args, 0)));
        callee.set(Value::Proc(id));
        assert_eq!(g.resume(), Step::Fail, "the callee is read after a restart");
        g.restart();
        assert_eq!(g.collect_values(), [Value::from(1)]);
        arg.set(Value::from(7));
        g.restart();
        assert_eq!(g.collect_values(), [Value::from(7)], "arguments re-read");
    }

    #[test]
    fn slots_read_cells_and_constants() {
        let env = gde::env::Env::root();
        env.declare("x", Value::from(9));
        assert_eq!(
            Slot::Cell(env.lookup_or_declare("x")).get().as_int(),
            Some(9)
        );
        assert_eq!(Slot::Const(Value::from(3)).to_i64(), Some(3));
        assert_eq!(
            slot_big("36893488147419103232").get().to_string(),
            "36893488147419103232"
        );
        assert!(slot_big("12x").get().is_null());
    }
}
