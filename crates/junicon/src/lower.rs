//! One lowering, two back ends (Secs. V–VI, Fig. 5).
//!
//! [`lower`] holds the only match over [`Norm`]'s structural variants
//! outside `normalize`/`resolve`. It turns a procedure body into a [`Plan`]:
//! a first-order tree whose every node is a call to one kernel constructor
//! (a [`Ctor`] row naming a `junicon::rt` function) with its
//! arguments already classified ([`Arg`]). Statement-vs-value position, loop
//! flags and the activations of deferred bodies are decided here, once per
//! procedure; a product is the paper's product of bound iterators (Sec. V),
//! one `PRODUCT` over its links. The two back ends are the two readings of
//! that tree: [`Plan::instantiate`] *makes* the calls (the interpreter, per
//! activation) and [`Plan::print`] *writes* them (the emitter). A row gives
//! both from one token; an argument kind is made in one place (its `kinds!`
//! entry) and written in one place (its arm of [`Arg::print`]). Either way
//! a procedure becomes one `rt::Def` ([`define`], [`Plan::print_proc`]),
//! whose activations a call site re-runs by one rule (`rt::invoke`).

use crate::normalize::{Atom, CoKind, NProc, NProgram, Norm, Part, VarRef};
use crate::prim::{path_str, Func, Prim};
use crate::rt::{self, Def, Flag, Slot};
use gde::env::Env;
use gde::{BoxGen, Value, Var};
use std::fmt::Write;
use std::sync::Arc;

/// One lowered activation — a procedure body, a deferred body, a top-level
/// statement or an expression: its root node, and how many temporaries and
/// control flags an activation allocates.
pub(crate) struct Plan {
    root: Node,
    tmps: u32,
    flags: u32,
    /// Whether a call site may re-run an activation (`rt::Def`'s `rerun`):
    /// a procedure's plan whose deferred bodies capture no environment.
    rerun: bool,
}

/// A kernel constructor call.
struct Node {
    ctor: &'static Ctor,
    args: Vec<Arg>,
}

/// One argument of a constructor call, by kind. Flags are indices into the
/// activation's flag vector: [`RETURNED`], then a break/next pair per loop.
enum Arg {
    /// An operand slot.
    Read(Atom),
    /// A run of operand slots.
    Reads(Vec<Atom>),
    /// An assignment target's cell.
    Cell(VarRef),
    /// A declared cell: created where the node is, so later lookups bind it.
    Decl(VarRef),
    /// A temporary.
    Tmp(u32),
    /// A control flag.
    Flag(u32),
    /// The flags that abort a statement in this context: [`RETURNED`] and
    /// the break/next pair of the innermost enclosing loop.
    Aborts(Loop),
    /// The activation's environment.
    Env,
    Child(Node),
    Children(Vec<Node>),
    Opt(Option<Node>),
    /// A deferred body: an activation of its own at each creation.
    Body(Arc<Plan>),
    /// The function an operator applies (`junicon::prim`).
    Func(Func),
    /// A field or `::` method name.
    Name(Arc<str>),
}

/// The break/next flag indices of the innermost enclosing loop.
type Loop = Option<(u32, u32)>;

/// Flag 0 of every activation: raised when it returns or fails.
const RETURNED: u32 = 0;

// ---------------------------------------------------------------------------
// The constructor table
// ---------------------------------------------------------------------------

/// One kernel constructor.
struct Ctor {
    /// Its path as emitted modules spell it (`use junicon::rt;`).
    path: &'static str,
    /// Call it, pulling each argument from the node as it is needed.
    make: fn(&mut Args<'_>) -> BoxGen,
}

/// The table, handed to the macro named: `NAME: path(argument kinds);`, a
/// kind being the [`Args`] method that makes the argument. Every row is an
/// `rt` function that hands back a `BoxGen`.
macro_rules! table {
    ($with:ident) => {
        $with! {
            ATOM: rt::atom(slot);
            PRODUCT: rt::product(gens);
            BIND: rt::bind(tmp, gen);
            ALT: rt::alt(gens);
            OP1: rt::op1(fn1, slot);
            OP2: rt::op2(fn2, slot, slot);
            SET_INDEX: rt::set_index(slot, slot, slot);
            FIELD: rt::field(name, slot);
            SET_FIELD: rt::set_field(name, slot, slot);
            LIST: rt::list(slots);
            NATIVE: rt::native(env, name, slot, slots);
            PROMOTE: rt::promote(slot);
            INVOKE: rt::invoke(slot, slots);
            SET_VAR: rt::set_var(cell, slot);
            REV_SET: rt::rev_set(cell, slot);
            TO_RANGE: rt::to_range(slot, slot, slot);
            LIMIT: rt::dyn_limit(slot, gen);
            IF: rt::if_gen(gen, gen, optgen);
            WHILE: rt::while_do(gen, optgen, flag, flag, aborts);
            UNTIL: rt::until_do(gen, optgen, flag, flag, aborts);
            EVERY: rt::every_do(gen, optgen, flag, flag, aborts);
            NOT: rt::not(gen);
            STMT_SEQ: rt::stmt_seq(gens, aborts);
            SEQ: rt::seq(gens);
            MUTE_ONCE: rt::mute_once(gen);
            BODY_ROOT: rt::body_root(gens, flag);
            RETURN: rt::return_gen(optgen, flag);
            FAIL: rt::fail();
            FLAG_FAIL: rt::flag_fail(flag);
            DECL: rt::decl(decl, optgen);
            CO_CREATE: rt::co_create(env, body);
            CO_CREATE_SHADOWED: rt::co_create_shadowed(env, body);
            PIPE: rt::pipe(env, body);
            SCAN: rt::scan_gen(gen, gen);
        }
    };
}

macro_rules! ctors {
    ($($name:ident: $($f:ident)::+ ($($kind:ident),*);)*) => {$(
        static $name: Ctor = Ctor {
            path: path_str!($($f)::+),
            make: |a| {
                let made = $($f)::+($(a.$kind()),*);
                debug_assert!(a.rest.len() == 0, "{} takes every argument", $name.path);
                made
            },
        };
    )*};
}

table!(ctors);

fn call(ctor: &'static Ctor, args: Vec<Arg>) -> Node {
    Node { ctor, args }
}

// ---------------------------------------------------------------------------
// Back end 1: make the calls
// ---------------------------------------------------------------------------

/// What one activation's nodes are built over.
struct Over<'a> {
    env: &'a Env,
    tmps: &'a [Var],
    flags: &'a [Flag],
}

/// A constructor's arguments, made one by one as the call asks for them.
struct Args<'a> {
    rest: std::slice::Iter<'a, Arg>,
    act: &'a Over<'a>,
}

impl Plan {
    /// A fresh activation over `env`: its temporaries and flags allocated,
    /// its tree built.
    pub(crate) fn instantiate(&self, env: &Env) -> BoxGen {
        let (tmps, flags) = (rt::tmps(self.tmps), rt::flags(self.flags));
        self.build(env, &tmps, &flags)
    }

    /// The activation's tree over cells allocated by the caller.
    fn build(&self, env: &Env, tmps: &[Var], flags: &[Flag]) -> BoxGen {
        self.root.instantiate(&Over { env, tmps, flags })
    }
}

impl Node {
    fn instantiate(&self, act: &Over<'_>) -> BoxGen {
        let rest = self.args.iter();
        (self.ctor.make)(&mut Args { rest, act })
    }
}

/// A procedure as the interpreter defines it at load: lowered once, its
/// `rt::Def` body a closure over the plan that instantiates it per call.
/// Nothing of the source IR is kept.
pub(crate) fn define(p: &NProc) -> Def {
    let (name, params, plan) = (&p.name, p.params.len(), lower(p));
    let (tmps, flags, rerun) = (plan.tmps, plan.flags, plan.rerun);
    let body = move |env: &Env, tmps: &[Var], flags: &[Flag]| plan.build(env, tmps, flags);
    Def::new(name, &p.slots[..], params, tmps, flags, rerun, body)
}

/// The argument kinds. `fn kind(act: pattern) -> made { how }` takes the
/// node's next argument, which `lower` made of that kind.
macro_rules! kinds {
    ($(fn $kind:ident($act:tt: $arg:pat) -> $made:ty $how:block)*) => {
        impl<'a> Args<'a> {$(
            fn $kind(&mut self) -> $made {
                let $act = self.act;
                match self.rest.next() {
                    Some($arg) => $how,
                    _ => unreachable!("`lower` gives a constructor the arguments its row names"),
                }
            }
        )*}
    };
}

kinds! {
    fn slot(act: Arg::Read(a)) -> Slot { act.slot(a) }
    fn slots(act: Arg::Reads(atoms)) -> Vec<Slot> { atoms.iter().map(|a| act.slot(a)).collect() }
    fn cell(act: Arg::Cell(t)) -> Var { act.cell(t) }
    fn decl(act: Arg::Decl(t)) -> Var {
        match t {
            VarRef::Named(name) => act.env.declare(name, Value::Null),
            VarRef::Slot(_, idx, _) => act.env.slot_local(*idx as usize),
        }
    }
    fn tmp(act: Arg::Tmp(t)) -> Var { act.tmps[*t as usize].clone() }
    fn flag(act: Arg::Flag(i)) -> Flag { act.flags[*i as usize].clone() }
    fn aborts(act: Arg::Aborts(lp)) -> Vec<Flag> {
        let own = lp.iter().flat_map(|(brk, nxt)| [*brk, *nxt]);
        [RETURNED].into_iter().chain(own).map(|i| act.flags[i as usize].clone()).collect()
    }
    fn env(act: Arg::Env) -> &'a Env { act.env }
    fn gen(act: Arg::Child(n)) -> BoxGen { n.instantiate(act) }
    fn gens(act: Arg::Children(ns)) -> Vec<BoxGen> { ns.iter().map(|n| n.instantiate(act)).collect() }
    fn optgen(act: Arg::Opt(n)) -> Option<BoxGen> { n.as_ref().map(|n| n.instantiate(act)) }
    fn body(_: Arg::Body(plan)) -> impl Fn(Env) -> BoxGen + Send + Sync + 'static {
        let plan = Arc::clone(plan);
        move |env| plan.instantiate(&env)
    }
    fn fn1(_: Arg::Func(Func::One(_, f))) -> fn(&Value) -> Option<Value> { *f }
    fn fn2(_: Arg::Func(Func::Two(_, f))) -> fn(&Value, &Value) -> Option<Value> { *f }
    fn name(_: Arg::Name(n)) -> Arc<str> { Arc::clone(n) }
}

impl Over<'_> {
    fn slot(&self, a: &Atom) -> Slot {
        match a {
            Atom::Null => Slot::Const(Value::Null),
            Atom::Int(v) => Slot::Const(Value::Int(*v)),
            Atom::Big(lit) => Slot::Const(lit.1.clone()),
            Atom::Real(v) => Slot::Const(Value::Real(*v)),
            Atom::Str(s) => Slot::Const(Value::Str(Arc::clone(s))),
            Atom::Var(name) if name == "&subject" => Slot::ScanSubject,
            Atom::Var(name) if name == "&pos" => Slot::ScanPos,
            Atom::Var(name) => Slot::Cell(self.env.lookup_or_declare(name)),
            Atom::Slot(depth, idx, _) => Slot::Cell(self.env.slot(*depth as usize, *idx as usize)),
            Atom::Tmp(i) => Slot::Cell(self.tmps[*i as usize].clone()),
        }
    }

    /// Bind an assignment target to its cell.
    fn cell(&self, t: &VarRef) -> Var {
        match t {
            VarRef::Named(name) => self.env.lookup_or_declare(name),
            VarRef::Slot(depth, idx, _) => self.env.slot(*depth as usize, *idx as usize),
        }
    }
}

// ---------------------------------------------------------------------------
// Back end 2: write the calls
// ---------------------------------------------------------------------------
//
// The text is evaluated where `env`, `tmps` and `flags` are in scope, in the
// order the first back end makes the calls: a call's arguments left to right.

macro_rules! w {
    ($out:expr, $($fmt:tt)*) => { write!($out, $($fmt)*).expect("writing to a String") };
}
pub(crate) use w;

/// Indentation for nesting `level`, borrowed. Cosmetic, so it stops growing
/// past 512 levels.
fn ind(level: usize) -> &'static str {
    static PAD: [u8; 2048] = [b' '; 2048];
    std::str::from_utf8(&PAD[..(4 * level).min(PAD.len())]).expect("spaces")
}

impl Plan {
    /// The activation as the statements of a block at nesting `lvl`, its
    /// value the root generator (a `BoxGen`).
    pub(crate) fn print(&self, out: &mut String, lvl: usize) {
        let (i0, tmps, flags) = (ind(lvl), self.tmps, self.flags);
        w!(out, "{i0}let tmps = rt::tmps({tmps});\n");
        w!(out, "{i0}let flags = rt::flags({flags});\n{i0}");
        self.root.print(out, lvl);
        out.push('\n');
    }

    /// A procedure's activation as the last arguments of its `Def::new`
    /// call, at nesting `lvl`: how many temporaries and flags a call
    /// allocates, whether a call site may re-run it, and the closure over
    /// them that builds the root — what [`define`] hands the interpreter's.
    pub(crate) fn print_proc(&self, out: &mut String, lvl: usize) {
        let (tmps, flags, rerun) = (self.tmps, self.flags, self.rerun);
        w!(out, "{tmps}, {flags}, {rerun}, |env, tmps, flags| ");
        self.root.print(out, lvl);
    }
}

impl Node {
    fn print(&self, out: &mut String, lvl: usize) {
        // A call over several subtrees gets a line per argument.
        let tree = |a: &&Arg| matches!(a, Arg::Child(_) | Arg::Opt(Some(_)));
        let tall = self.args.iter().filter(tree).count() > 1;
        let (i0, i1) = (ind(lvl), ind(lvl + 1));
        w!(out, "{}(", self.ctor.path);
        for (k, arg) in self.args.iter().enumerate() {
            match (tall, k) {
                (true, _) => w!(out, "\n{i1}"),
                (false, 0) => {}
                (false, _) => out.push_str(", "),
            }
            arg.print(out, lvl + tall as usize);
            out.push_str(if tall { "," } else { "" });
        }
        out.push_str(if tall { "\n" } else { "" });
        w!(out, "{})", if tall { i0 } else { "" });
    }
}

/// An operand slot; emitted modules import the `rt::Slot` variants.
fn print_slot(out: &mut String, a: &Atom) {
    match a {
        Atom::Null => out.push_str("Const(Value::Null)"),
        Atom::Int(v) => w!(out, "Const(Value::from({v}i64))"),
        Atom::Big(lit) => w!(out, "rt::slot_big({:?})", lit.0),
        Atom::Real(v) => w!(out, "Const(Value::from({v:?}f64))"),
        Atom::Str(s) => w!(out, "Const(Value::str({s:?}))"),
        Atom::Var(name) if name == "&subject" => out.push_str("ScanSubject"),
        Atom::Var(name) if name == "&pos" => out.push_str("ScanPos"),
        Atom::Var(name) => w!(out, "Cell(env.lookup_or_declare({name:?}))"),
        Atom::Slot(d, i, name) => w!(out, "Cell(env.slot({d}, {i})) /* {name} */"),
        Atom::Tmp(i) => w!(out, "Cell(tmps[{i}].clone())"),
    }
}

fn print_cell(out: &mut String, t: &VarRef) {
    match t {
        VarRef::Named(name) => w!(out, "env.lookup_or_declare({name:?})"),
        VarRef::Slot(depth, idx, name) => w!(out, "env.slot({depth}, {idx}) /* {name} */"),
    }
}

impl Arg {
    fn print(&self, out: &mut String, lvl: usize) {
        let (i0, i1) = (ind(lvl), ind(lvl + 1));
        match self {
            Arg::Read(a) => print_slot(out, a),
            Arg::Reads(atoms) => {
                out.push_str("vec![");
                for (k, a) in atoms.iter().enumerate() {
                    out.push_str(if k > 0 { ", " } else { "" });
                    print_slot(out, a);
                }
                out.push(']');
            }
            Arg::Cell(t) => print_cell(out, t),
            Arg::Decl(VarRef::Named(name)) => w!(out, "env.declare({name:?}, Value::Null)"),
            Arg::Decl(VarRef::Slot(_, idx, name)) => w!(out, "env.slot_local({idx}) /* {name} */"),
            Arg::Tmp(t) => w!(out, "tmps[{t}].clone()"),
            Arg::Flag(i) => w!(out, "flags[{i}].clone()"),
            Arg::Aborts(lp) => {
                w!(out, "vec![flags[{RETURNED}].clone()");
                if let Some((brk, nxt)) = lp {
                    w!(out, ", flags[{brk}].clone(), flags[{nxt}].clone()");
                }
                out.push(']');
            }
            Arg::Env => out.push_str("&env"),
            Arg::Child(n) => n.print(out, lvl),
            Arg::Children(ns) => {
                out.push_str("vec![\n");
                for n in ns {
                    out.push_str(i1);
                    n.print(out, lvl + 1);
                    out.push_str(",\n");
                }
                w!(out, "{i0}]");
            }
            Arg::Opt(None) => out.push_str("None"),
            Arg::Opt(Some(n)) => {
                out.push_str("Some(");
                n.print(out, lvl);
                out.push(')');
            }
            Arg::Body(plan) => {
                out.push_str("|env| {\n");
                plan.print(out, lvl + 1);
                w!(out, "{i0}}}");
            }
            Arg::Func(f) => out.push_str(f.path()),
            Arg::Name(name) => w!(out, "{name:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Norm → Plan
// ---------------------------------------------------------------------------

/// Lowering state of one activation.
struct Lowering {
    tmps: u32,
    /// Flags handed out so far.
    flags: u32,
}

impl Lowering {
    fn activation(tmps: u32, root: impl FnOnce(&mut Lowering) -> Node) -> Plan {
        let mut l = Lowering { tmps, flags: 1 };
        let root = root(&mut l);
        let flags = l.flags;
        Plan {
            root,
            tmps,
            flags,
            rerun: false,
        }
    }

    /// A statement: statement forms keep their control semantics; any other
    /// node is evaluated once (bounded) for its side effects and
    /// contributes no suspensions.
    fn stmt(&mut self, n: &Norm, lp: Loop) -> Node {
        if n.is_stmt_form() {
            self.node(n, lp, true)
        } else {
            call(&MUTE_ONCE, vec![self.value(n, lp)])
        }
    }

    fn value(&mut self, n: &Norm, lp: Loop) -> Arg {
        Arg::Child(self.node(n, lp, false))
    }

    /// A deferred body runs in its own activation, possibly on another
    /// thread: it shares the procedure's temporary numbering and sees no
    /// enclosing loop.
    fn body(&self, n: &Norm) -> Arg {
        let plan = Lowering::activation(self.tmps, |l| l.node(n, None, false));
        Arg::Body(Arc::new(plan))
    }

    /// A loop over `head` (a condition or a source). The one place loop
    /// flags are handed out and given to a body, which is a statement.
    fn looping(&mut self, ctor: &'static Ctor, head: &Norm, body: Option<&Norm>, lp: Loop) -> Node {
        let (brk, nxt) = (self.flags, self.flags + 1);
        self.flags += 2;
        let head = self.value(head, lp);
        let body = Arg::Opt(body.map(|b| self.stmt(b, Some((brk, nxt)))));
        let (brk, nxt) = (Arg::Flag(brk), Arg::Flag(nxt));
        call(ctor, vec![head, body, brk, nxt, Arg::Aborts(lp)])
    }

    /// Lower `n` in value position, or (`stmt`) in statement position, where
    /// `suspend` yields procedure results and `fail` ends the procedure.
    fn node(&mut self, n: &Norm, lp: Loop, stmt: bool) -> Node {
        match n {
            Norm::Atom(a) => call(&ATOM, vec![Arg::Read(a.clone())]),
            Norm::Product(factors) => match &factors[..] {
                [only] => self.node(only, lp, false),
                links => {
                    let links = links.iter().map(|f| self.node(f, lp, false)).collect();
                    call(&PRODUCT, vec![Arg::Children(links)])
                }
            },
            Norm::Bind(t, inner) => call(&BIND, vec![Arg::Tmp(*t), self.value(inner, lp)]),
            Norm::Alt(items) => {
                let items = items.iter().map(|i| self.node(i, lp, stmt)).collect();
                call(&ALT, vec![Arg::Children(items)])
            }
            Norm::Prim { op, args } => prim(op, args),
            Norm::Promote(a) => call(&PROMOTE, vec![Arg::Read(a.clone())]),
            Norm::Invoke { callee, args } => {
                let args = Arg::Reads(args.clone());
                call(&INVOKE, vec![Arg::Read(callee.clone()), args])
            }
            Norm::SetVar { target, from } => {
                let from = Arg::Read(from.clone());
                call(&SET_VAR, vec![Arg::Cell(target.clone()), from])
            }
            Norm::RevSet { target, from } => {
                let from = Arg::Read(from.clone());
                call(&REV_SET, vec![Arg::Cell(target.clone()), from])
            }
            Norm::ToRange { from, to, by } => {
                let by = by.clone().unwrap_or(Atom::Int(1));
                let bounds = [from.clone(), to.clone(), by];
                call(&TO_RANGE, bounds.map(Arg::Read).into())
            }
            // The bound binds before the limited expression is lowered.
            Norm::Limit { inner, n } => {
                call(&LIMIT, vec![Arg::Read(n.clone()), self.value(inner, lp)])
            }
            Norm::If { cond, then, els } => {
                let branch = |l: &mut Self, b: &Norm| match stmt {
                    true => l.stmt(b, lp),
                    false => l.node(b, lp, false),
                };
                let cond = self.value(cond, lp);
                let then = Arg::Child(branch(self, then));
                let els = els.as_ref().map(|e| branch(self, e));
                call(&IF, vec![cond, then, Arg::Opt(els)])
            }
            Norm::While { cond, body } => self.looping(&WHILE, cond, body.as_deref(), lp),
            Norm::Until { cond, body } => self.looping(&UNTIL, cond, body.as_deref(), lp),
            // repeat b ≡ while &null do b (a condition that always succeeds)
            Norm::Repeat(body) => self.looping(&WHILE, &Norm::Atom(Atom::Null), Some(body), lp),
            Norm::Every { source, body } => self.looping(&EVERY, source, body.as_deref(), lp),
            Norm::Not(inner) => call(&NOT, vec![self.value(inner, lp)]),
            Norm::Block(stmts) if stmt => {
                let stmts = stmts.iter().map(|s| self.stmt(s, lp)).collect();
                call(&STMT_SEQ, vec![Arg::Children(stmts), Arg::Aborts(lp)])
            }
            Norm::Block(stmts) => {
                // Leading statements bounded and silent, the last delegates
                // (IconSequence).
                let (leading, last) = stmts.split_at(stmts.len().saturating_sub(1));
                let mut parts: Vec<Node> = leading.iter().map(|s| self.stmt(s, lp)).collect();
                parts.extend(last.iter().map(|s| self.node(s, lp, false)));
                call(&SEQ, vec![Arg::Children(parts)])
            }
            Norm::Suspend(inner) => self.node(inner, lp, false),
            Norm::Return(value) => {
                let value = value.as_ref().map(|e| self.node(e, lp, false));
                call(&RETURN, vec![Arg::Opt(value), Arg::Flag(RETURNED)])
            }
            Norm::Fail if stmt => call(&FLAG_FAIL, vec![Arg::Flag(RETURNED)]),
            Norm::Fail => call(&FAIL, vec![]),
            // Outside any loop of this activation there is no flag to raise.
            Norm::Break | Norm::Next => match (lp, n) {
                (Some((brk, _)), Norm::Break) => call(&FLAG_FAIL, vec![Arg::Flag(brk)]),
                (Some((_, nxt)), _) => call(&FLAG_FAIL, vec![Arg::Flag(nxt)]),
                (None, _) => call(&FAIL, vec![]),
            },
            Norm::Decl(decls) => {
                // Each name is declared before its initializer is lowered,
                // and the initializers run in order.
                let one = |(target, init): &(VarRef, Option<Norm>)| {
                    let init = init.as_ref().map(|e| self.node(e, lp, false));
                    call(&DECL, vec![Arg::Decl(target.clone()), Arg::Opt(init)])
                };
                call(&SEQ, vec![Arg::Children(decls.iter().map(one).collect())])
            }
            Norm::CoCreate { kind, body } => {
                let ctor = match kind {
                    CoKind::FirstClass => &CO_CREATE,
                    CoKind::Shadowed => &CO_CREATE_SHADOWED,
                };
                call(ctor, vec![Arg::Env, self.body(body)])
            }
            Norm::Pipe(body) => call(&PIPE, vec![Arg::Env, self.body(body)]),
            Norm::Scan { subject, body } => {
                let body = Arg::Child(self.node(body, lp, stmt));
                call(&SCAN, vec![self.value(subject, lp), body])
            }
        }
    }
}

/// A primitive: an operator is `OP1` or `OP2` over its function, any other
/// primitive a row of its own. The operands are read in order.
fn prim(op: &Prim, args: &[Atom]) -> Node {
    let reads = |head: Vec<Arg>| {
        head.into_iter()
            .chain(args.iter().cloned().map(Arg::Read))
            .collect()
    };
    let name = |n: &Arc<str>| Arg::Name(Arc::clone(n));
    match (op, op.func()) {
        (_, Some(f @ Func::One(..))) => call(&OP1, reads(vec![Arg::Func(f)])),
        (_, Some(f @ Func::Two(..))) => call(&OP2, reads(vec![Arg::Func(f)])),
        (Prim::IndexAssign, _) => call(&SET_INDEX, reads(vec![])),
        (Prim::FieldGet(n), _) => call(&FIELD, reads(vec![name(n)])),
        (Prim::FieldSet(n), _) => call(&SET_FIELD, reads(vec![name(n)])),
        (Prim::List, _) => call(&LIST, vec![Arg::Reads(args.to_vec())]),
        (Prim::Native(n), _) => {
            let (target, rest) = args.split_first().expect("a `::` call has a target");
            let (target, rest) = (Arg::Read(target.clone()), Arg::Reads(rest.to_vec()));
            call(&NATIVE, vec![Arg::Env, name(n), target, rest])
        }
        (_, None) => unreachable!("an operator names its function"),
    }
}

/// Lower a standalone expression using `tmps` temporaries.
pub(crate) fn lower_expr(n: &Norm, tmps: u32) -> Plan {
    Lowering::activation(tmps, |l| l.node(n, None, false))
}

/// Lower a program's top-level statements. Each is an activation of its
/// own over the global frame — bounded, with its own return flag — so a
/// top-level `return` or `fail` ends that statement only, and a statement
/// is instantiated after the ones before it have run.
pub(crate) fn lower_toplevel(p: &NProgram) -> Vec<Plan> {
    let plan = |s| Lowering::activation(p.tmp_count, |l| l.stmt(s, None));
    p.stmts.iter().map(plan).collect()
}

/// Lower a procedure: its statements under one body root.
pub(crate) fn lower(p: &NProc) -> Plan {
    #[cfg(test)]
    tests::LOWERED.with(|n| n.set(n.get() + 1));
    let mut plan = Lowering::activation(p.tmp_count, |l| {
        let stmts = p.body.iter().map(|s| l.stmt(s, None)).collect();
        call(&BODY_ROOT, vec![Arg::Children(stmts), Arg::Flag(RETURNED)])
    });
    plan.rerun = !p.body.iter().any(captures);
    plan
}

/// Whether a deferred body (`<>`, `|<>`, `|>`) in `n` captures the
/// environment, which a re-run would reset under it.
fn captures(n: &Norm) -> bool {
    let mut found = false;
    n.parts(|part| match part {
        Part::Child(c) => found = found || captures(c),
        Part::Deferred(_) => found = true,
        Part::Read(_) | Part::Target(_) | Part::Decl(_) => {}
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::BUILT;
    use crate::Interp;
    use gde::GenExt;

    thread_local! {
        /// Procedures lowered on this thread.
        pub(super) static LOWERED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    #[test]
    fn a_call_site_re_runs_its_activation_instead_of_building_one_per_call() {
        // Fig. 3's sequential pipeline over 2 000 one-word lines: one
        // activation of each procedure, not one of `hashWords` and one of
        // `splitWords` per line.
        let i = Interp::new();
        i.globals().declare("this", Value::Null);
        i.register_native("wordToNumber", |_, args| args[0].size().map(Value::from));
        i.register_native("hashNumber", |_, args| args.first().cloned());
        let lines = (0..2000).map(|k| Value::str(format!("w{k}"))).collect();
        i.globals().declare("lines", Value::list(lines));
        i.load(
            r#"def readLines() { suspend !lines; }
               def splitWords(line) { suspend ! line::split("\\s+"); }
               def hashWords(line) {
                   suspend this::hashNumber(this::wordToNumber(splitWords(line)));
               }"#,
        )
        .unwrap();
        let before = BUILT.get();
        let sizes = i.eval("hashWords(readLines())").unwrap();
        assert_eq!(sizes.len(), 2000);
        assert_eq!(sizes[1999].as_int(), Some(5));
        assert!(BUILT.get() - before <= 3, "{} built", BUILT.get() - before);
    }

    #[test]
    fn a_procedure_is_lowered_once_at_load_not_per_call() {
        let src = "def double(x) { return x * 2; }
                   def later(n) { local c; c := |<> (n + double(n)); return c; }";
        let i = Interp::new();
        i.load(src).unwrap();
        assert_eq!(LOWERED.get(), 2);
        let proc = |name: &str| match i.globals().get(name) {
            Value::Proc(p) => p,
            other => panic!("{name} is {other:?}"),
        };
        let (double, later) = (proc("double"), proc("later"));
        for k in 0..1000 {
            let twice = double.invoke(vec![Value::from(k)]).next_value();
            assert_eq!(twice.unwrap().as_int(), Some(2 * k));
            assert!(later.invoke(vec![Value::from(k)]).next_value().is_some());
        }
        // Each refresh + activation evaluates the deferred body afresh.
        let c = later.invoke(vec![Value::from(5)]).next_value().unwrap();
        for _ in 0..10 {
            let again = coexpr::refresh(&c).unwrap();
            assert_eq!(coexpr::activate(&again).unwrap().as_int(), Some(15));
        }
        assert_eq!(
            LOWERED.get(),
            2,
            "calls instantiate the plan; they lower nothing"
        );
        assert!(BUILT.get() >= 2000, "each `invoke` builds an activation");
    }

    #[test]
    fn every_row_is_called_by_an_executed_fixture() {
        // `emitted_exec` compiles and runs these five files, so a path they
        // mention resolves and its call type-checks.
        let fixtures = [
            include_str!("../tests/fixtures/spawnmap_emitted.rs"),
            include_str!("../tests/fixtures/countdown_emitted.rs"),
            include_str!("../tests/fixtures/prims_emitted.rs"),
            include_str!("../tests/fixtures/fig4_emitted.rs"),
            include_str!("../tests/fixtures/classes_emitted.rs"),
        ];
        macro_rules! rows {
            ($($name:ident: $($f:ident)::+ ($($kind:ident),*);)*) => {
                [$(&$name),*]
            };
        }
        let rows: [&Ctor; 34] = table!(rows);
        for row in rows {
            let call = format!("{}(", row.path);
            assert!(fixtures.iter().any(|f| f.contains(&call)), "{call}");
            assert!(row.path.starts_with("rt::"), "{}", row.path);
        }
    }
}
