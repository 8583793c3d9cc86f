//! Tree-walking interpreter over the `gde` runtime.
//!
//! This is the interactive half of the paper's harness (the Groovy path of
//! Sec. VI): embedded Junicon text is parsed, normalized, and *compiled to
//! [`gde::Gen`] combinator trees*, which are then driven like any other
//! generator. Because the whole combinator tree is suspendable, `suspend`
//! works anywhere in a procedure body — including inside `while`/`every`
//! loops (as Fig. 4's `chunk` requires) — without any threads, exactly the
//! property the paper claims for its kernel ("implement it without
//! multithreading", Sec. VIII).
//!
//! Procedure-body control flow (`return`, `fail`, `break`, `next`) is
//! compiled using shared atomic flags checked by the enclosing statement
//! sequences and loops, mirroring how the paper's `IconIterator` kernel
//! threads failure through composed iterators.

mod builtins;

use crate::normalize::{normalize_program, Atom, CoKind, NClass, NProc, Norm, VarRef};
use crate::parse::{parse_expr, parse_program, ParseError};
use crate::prim::vals;
use crate::resolve::resolve_program;
use crate::rt::{self, Flag, Slot};
use bigint::BigInt;
use gde::comb;
use gde::env::{Env, FrameLayout};
use gde::func::arg;
use gde::{BoxGen, Gen, GenExt, ProcValue, Step, Symbol, Value, Var};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Errors surfaced by the interpreter API.
#[derive(Debug)]
pub enum JuniconError {
    Parse(ParseError),
}

impl fmt::Display for JuniconError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JuniconError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JuniconError {}

impl From<ParseError> for JuniconError {
    fn from(e: ParseError) -> Self {
        JuniconError::Parse(e)
    }
}

/// A native (`::`) method: receives the target value and the arguments.
pub type NativeFn = Arc<dyn Fn(&Value, &[Value]) -> Option<Value> + Send + Sync>;

pub(crate) struct Shared {
    pub globals: Env,
    pub natives: Mutex<HashMap<String, NativeFn>>,
    /// Completed lines produced by `write`, captured for tests and REPLs.
    pub output: Mutex<Vec<String>>,
    /// Text written by `writes` awaiting its line terminator.
    pub pending: Mutex<String>,
    /// Also echo writes to stdout.
    pub echo: AtomicBool,
}

/// The Junicon interpreter: loads embedded programs, registers host
/// procedures and native methods, evaluates expressions to generators.
#[derive(Clone)]
pub struct Interp {
    shared: Arc<Shared>,
}

impl Default for Interp {
    fn default() -> Self {
        Self::new()
    }
}

impl Interp {
    /// A fresh interpreter with the builtin procedures registered.
    pub fn new() -> Interp {
        let shared = Arc::new(Shared {
            globals: Env::root(),
            natives: Mutex::new(HashMap::new()),
            output: Mutex::new(Vec::new()),
            pending: Mutex::new(String::new()),
            echo: AtomicBool::new(false),
        });
        let interp = Interp { shared };
        builtins::install(&interp);
        interp
    }

    /// Echo `write` output to stdout as well as capturing it.
    pub fn with_echo(self, echo: bool) -> Interp {
        self.shared.echo.store(echo, Ordering::Relaxed);
        self
    }

    /// The global environment (host code may pre-set variables).
    pub fn globals(&self) -> &Env {
        &self.shared.globals
    }

    /// Register a host procedure callable as `name(args)` from embedded
    /// code — the interop path by which "native types can be transparently
    /// passed to and from Unicon".
    pub fn register_proc(&self, p: ProcValue) {
        let name = p.name().to_string();
        self.shared.globals.declare(&name, Value::Proc(p));
    }

    /// Register a native `::` method (e.g. `this::wordToNumber(w)`).
    pub fn register_native(
        &self,
        name: &str,
        f: impl Fn(&Value, &[Value]) -> Option<Value> + Send + Sync + 'static,
    ) {
        self.shared
            .natives
            .lock()
            .insert(name.to_string(), Arc::new(f));
    }

    /// Captured `write`/`writes` output so far (a trailing unterminated
    /// `writes` line is included as the final entry).
    pub fn output(&self) -> Vec<String> {
        let mut lines = self.shared.output.lock().clone();
        let pending = self.shared.pending.lock();
        if !pending.is_empty() {
            lines.push(pending.clone());
        }
        lines
    }

    /// Clear the captured output.
    pub fn clear_output(&self) {
        self.shared.output.lock().clear();
        self.shared.pending.lock().clear();
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Load an embedded program: procedure declarations are registered as
    /// global generator functions; top-level statements are executed in
    /// order (each bounded, as at the outermost level of a program).
    pub fn load(&self, src: &str) -> Result<(), JuniconError> {
        self.load_with_resolve(src, true)
    }

    /// [`Interp::load`] with the resolve pass made optional.
    ///
    /// `resolve = false` loads procedures with every variable reference
    /// left by-name — the pre-resolution interpreter. Slot resolution is a
    /// pure optimization, so the two modes must be observationally
    /// identical; the differential property suite
    /// (`tests/resolver_differential.rs`) holds us to that. Not useful
    /// outside testing: by-name frames are strictly slower.
    pub fn load_with_resolve(&self, src: &str, resolve: bool) -> Result<(), JuniconError> {
        let prog = parse_program(src)?;
        let mut nprog = normalize_program(&prog);
        if resolve {
            resolve_program(&mut nprog);
        }
        self.load_normalized(&nprog);
        Ok(())
    }

    /// Register and run an already-normalized program exactly as given —
    /// no resolve pass, no checks on slot coordinates.
    ///
    /// This is a test hook: the resolver's mutation sanity check feeds a
    /// deliberately *mis*-resolved program through it to prove the
    /// differential suite has teeth. Deliberately not part of the stable
    /// surface.
    #[doc(hidden)]
    pub fn load_normalized(&self, nprog: &crate::normalize::NProgram) {
        let (shared, globals) = (&self.shared, &self.shared.globals);
        for p in &nprog.procs {
            let proc = make_bound_proc_in(Arc::clone(shared), Arc::new(p.clone()), globals.clone());
            globals.declare(&p.name, Value::Proc(proc));
        }
        for c in &nprog.classes {
            let ctor = self.make_class(Arc::new(c.clone()));
            globals.declare(&c.name, Value::Proc(ctor));
        }
        // Top-level statements: drive each once (bounded), like field
        // initializers / main in the paper's model.
        let mut ctx = Ctx::activation(shared, globals.clone(), nprog.tmp_count);
        for stmt in &nprog.stmts {
            ctx.returned = rt::flag();
            let mut g = compile_stmt(stmt, &ctx);
            // drive to completion so that suspensions inside top-level
            // statements (rare) do not stall the load
            while let Step::Suspend(_) = g.resume() {}
        }
    }

    /// Compile a Junicon *expression* to a generator over the global
    /// environment — the `for (Object i : @<script>…@</script>)` interop
    /// of Fig. 3: the embedded expression "returns a generator, exposed as
    /// a Java Iterator".
    pub fn gen(&self, src: &str) -> Result<BoxGen, JuniconError> {
        let expr = parse_expr(src)?;
        let (norm, tmp_count) = crate::normalize::normalize_expr(&expr);
        let ctx = Ctx::activation(&self.shared, self.shared.globals.clone(), tmp_count);
        Ok(compile(&norm, &ctx, Mode::Value))
    }

    /// Evaluate an expression, returning *all* its results.
    pub fn eval(&self, src: &str) -> Result<Vec<Value>, JuniconError> {
        Ok(self.gen(src)?.collect_values())
    }

    /// Evaluate an expression, returning its first result (or `None` on
    /// failure).
    pub fn eval_first(&self, src: &str) -> Result<Option<Value>, JuniconError> {
        Ok(self.gen(src)?.next_value())
    }

    /// Build the constructor [`ProcValue`] for a normalized class: calling
    /// `Name(args)` creates an instance whose fields are initialized
    /// positionally and whose methods are bound to the instance's field
    /// environment (the Sec. V.C class transformation: fields exist in
    /// plain and reified form; methods become variadic generator lambdas).
    fn make_class(&self, nclass: Arc<NClass>) -> ProcValue {
        let shared = Arc::clone(&self.shared);
        let name = nclass.name.clone();
        // One shared field layout per class: `[fields..., "self"]` — the
        // same coordinates the resolve pass hands to method bodies as
        // depth-1 slots.
        let field_layout = FrameLayout::of(
            nclass
                .fields
                .iter()
                .map(|f| Symbol::new(f))
                .chain([Symbol::new("self")]),
        );
        ProcValue::new(name, move |args: Vec<Value>| {
            let fields = shared.globals.child_with_layout(field_layout.clone());
            for (i, _) in nclass.fields.iter().enumerate() {
                fields.slot_local(i).set(arg(&args, i));
            }
            let mut methods = HashMap::new();
            for m in &nclass.methods {
                methods.insert(
                    m.name.clone(),
                    make_bound_proc_in(Arc::clone(&shared), Arc::new(m.clone()), fields.clone()),
                );
            }
            let obj = Arc::new(gde::ObjData {
                class_name: Arc::from(nclass.name.as_str()),
                fields: fields.clone(),
                methods: Arc::new(methods),
            });
            // Make `self` visible to method bodies (a reference cycle the
            // interpreter tolerates; objects live for the session). `self`
            // occupies the last field-frame slot.
            fields
                .slot_local(nclass.fields.len())
                .set(Value::Object(Arc::clone(&obj)));
            Box::new(comb::unit(Value::Object(obj))) as BoxGen
        })
    }
}

/// A procedure whose invocation frames are children of `scope` (the
/// globals for free procedures, an instance's field env for methods).
fn make_bound_proc_in(shared: Arc<Shared>, nproc: Arc<NProc>, scope: Env) -> ProcValue {
    let name = nproc.name.clone();
    // Resolved procedures carry a slot layout (parameters first); build it
    // once and share it across every activation. Unresolved procedures
    // (none in practice after `load`, but `NProc` values can be built by
    // hand) keep the by-name declare path.
    let layout = (!nproc.slots.is_empty())
        .then(|| FrameLayout::of(nproc.slots.iter().map(|s| Symbol::new(s))));
    ProcValue::new(name, move |args: Vec<Value>| {
        // Fresh frame per invocation: parameters are the first slots,
        // missing arguments null (variadic convention).
        let env = match &layout {
            Some(layout) => {
                let env = scope.child_with_layout(layout.clone());
                for i in 0..nproc.params.len() {
                    env.slot_local(i).set(arg(&args, i));
                }
                env
            }
            None => {
                let env = scope.child();
                for (i, p) in nproc.params.iter().enumerate() {
                    env.declare(p, arg(&args, i));
                }
                env
            }
        };
        let ctx = Ctx::activation(&shared, env, nproc.tmp_count);
        let stmts: Vec<BoxGen> = nproc.body.iter().map(|s| compile_stmt(s, &ctx)).collect();
        Box::new(rt::body_root(stmts, ctx.returned.clone())) as BoxGen
    })
}

// ---------------------------------------------------------------------------
// Compilation context
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Ctx {
    shared: Arc<Shared>,
    env: Env,
    tmps: Arc<Vec<Var>>,
    /// Set when the enclosing procedure has returned or failed.
    returned: Flag,
    /// (break, next) flags of the innermost enclosing loop.
    loop_flags: Option<(Flag, Flag)>,
}

impl Ctx {
    /// The context of a fresh activation — a procedure call, a top-level
    /// evaluation, or a deferred body (`<>e`, `|<>e`, `|>e`) each time it
    /// is created: its own temporaries and return flag, no enclosing loop.
    fn activation(shared: &Arc<Shared>, env: Env, tmp_count: u32) -> Ctx {
        Ctx {
            shared: Arc::clone(shared),
            env,
            tmps: rt::tmps(tmp_count),
            returned: rt::flag(),
            loop_flags: None,
        }
    }

    fn abort_flags(&self) -> Vec<Flag> {
        let mut flags = vec![self.returned.clone()];
        if let Some((b, n)) = &self.loop_flags {
            flags.push(b.clone());
            flags.push(n.clone());
        }
        flags
    }
}

/// Compilation mode: expression value position vs. statement position
/// (where `suspend` yields procedure results and `fail` terminates the
/// procedure).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Value,
    Stmt,
}

fn rt_atom(a: &Atom, ctx: &Ctx) -> Slot {
    match a {
        Atom::Null => Slot::Const(Value::Null),
        Atom::Int(v) => Slot::Const(Value::Int(*v)),
        Atom::Big(s) => Slot::Const(
            BigInt::from_str_radix(s, 10)
                .map(Value::big)
                .unwrap_or(Value::Null),
        ),
        Atom::Real(v) => Slot::Const(Value::Real(*v)),
        Atom::Str(s) => Slot::Const(Value::str(s)),
        Atom::Var(name) if name == "&subject" => Slot::ScanSubject,
        Atom::Var(name) if name == "&pos" => Slot::ScanPos,
        Atom::Var(name) => Slot::Cell(ctx.env.lookup_or_declare(name)),
        Atom::Slot(depth, idx, _) => Slot::Cell(ctx.env.slot(*depth as usize, *idx as usize)),
        Atom::Tmp(i) => Slot::Cell(ctx.tmps[*i as usize].clone()),
    }
}

/// Bind an assignment / declaration target to its cell at compile time.
fn target_cell(t: &VarRef, ctx: &Ctx) -> Var {
    match t {
        VarRef::Named(name) => ctx.env.lookup_or_declare(name),
        VarRef::Slot(depth, idx, _) => ctx.env.slot(*depth as usize, *idx as usize),
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Compile a *statement*: statement forms keep their control semantics;
/// bare expressions are evaluated once (bounded) for their side effects and
/// contribute no suspensions.
fn compile_stmt(n: &Norm, ctx: &Ctx) -> BoxGen {
    if n.is_stmt_form() {
        compile(n, ctx, Mode::Stmt)
    } else {
        Box::new(rt::mute_once(compile(n, ctx, Mode::Value)))
    }
}

fn compile(n: &Norm, ctx: &Ctx, mode: Mode) -> BoxGen {
    match n {
        Norm::Atom(a) => {
            let rt = rt_atom(a, ctx);
            Box::new(comb::thunk(move || Some(rt.get())))
        }
        Norm::Product(factors) => {
            let gens: Vec<BoxGen> = factors
                .iter()
                .map(|f| compile(f, ctx, Mode::Value))
                .collect();
            comb::product_all(gens)
        }
        Norm::Bind(t, inner) => {
            let var = ctx.tmps[*t as usize].clone();
            Box::new(comb::bind(var, compile(inner, ctx, Mode::Value)))
        }
        Norm::Alt(items) => {
            let gens: Vec<BoxGen> = items.iter().map(|i| compile(i, ctx, mode)).collect();
            Box::new(comb::alt_all(gens))
        }
        Norm::Prim { op, args } => {
            let slots: Vec<Slot> = args.iter().map(|a| rt_atom(a, ctx)).collect();
            let eval = op.row().eval;
            let name = op.name().to_string();
            // A `::` call reaches the host's registered natives first.
            let host = op.is_host_call().then(|| Arc::clone(&ctx.shared));
            Box::new(comb::thunk(move || {
                let native = host
                    .as_ref()
                    .and_then(|s| s.natives.lock().get(&name).cloned());
                if let Some(f) = native {
                    return f(&slots[0].get(), &vals(&slots[1..]));
                }
                eval(&slots, &name)
            }))
        }
        Norm::Promote(a) => {
            let ra = rt_atom(a, ctx);
            Box::new(comb::promote(move || ra.get()))
        }
        Norm::Invoke { callee, args } => {
            let rc = rt_atom(callee, ctx);
            let rargs: Vec<Slot> = args.iter().map(|a| rt_atom(a, ctx)).collect();
            Box::new(comb::invoke_iter(move || {
                let callee = rc.get().deref();
                let argv: Vec<Value> = rargs.iter().map(|a| a.get()).collect();
                gde::func::invoke_value(&callee, argv)
            }))
        }
        Norm::SetVar { target, from } => {
            let cell = target_cell(target, ctx);
            let rv = rt_atom(from, ctx);
            Box::new(comb::thunk(move || {
                let v = rv.get();
                cell.set(v.clone());
                Some(v)
            }))
        }
        Norm::RevSet { target, from } => {
            let cell = target_cell(target, ctx);
            let rv = rt_atom(from, ctx);
            Box::new(rt::rev_set(cell, rv))
        }
        Norm::ToRange { from, to, by } => {
            let rf = rt_atom(from, ctx);
            let rt_ = rt_atom(to, ctx);
            let rb = by.as_ref().map(|b| rt_atom(b, ctx));
            Box::new(comb::to_range_dyn(
                move || rf.to_i64(),
                move || rt_.to_i64(),
                move || match &rb {
                    Some(b) => b.to_i64(),
                    None => Some(1),
                },
            ))
        }
        Norm::Limit { inner, n } => {
            let rn = rt_atom(n, ctx);
            Box::new(rt::dyn_limit(compile(inner, ctx, Mode::Value), rn))
        }
        Norm::If { cond, then, els } => {
            let cond_gen = Arc::new(Mutex::new(compile(cond, ctx, Mode::Value)));
            let branch = |b: &Norm| match mode {
                Mode::Stmt => compile_stmt(b, ctx),
                Mode::Value => compile(b, ctx, Mode::Value),
            };
            let then_gen = branch(then);
            let els_gen = match els {
                Some(e) => branch(e),
                None => Box::new(comb::fail()) as BoxGen,
            };
            Box::new(comb::if_then_else(
                move || {
                    let mut c = cond_gen.lock();
                    c.restart();
                    c.next_value()
                },
                then_gen,
                els_gen,
            ))
        }
        Norm::While { cond, body } => compile_loop(ctx, cond, body.as_deref(), Some(false)),
        Norm::Until { cond, body } => compile_loop(ctx, cond, body.as_deref(), Some(true)),
        Norm::Repeat(body) => {
            // repeat b ≡ while &null do b (a condition that always succeeds)
            compile_loop(ctx, &Norm::Atom(Atom::Null), Some(body), Some(false))
        }
        Norm::Every { source, body } => compile_loop(ctx, source, body.as_deref(), None),
        Norm::Not(inner) => {
            let g = Arc::new(Mutex::new(compile(inner, ctx, Mode::Value)));
            Box::new(comb::thunk(move || {
                let mut g = g.lock();
                g.restart();
                match g.next_value() {
                    Some(_) => None,
                    None => Some(Value::Null),
                }
            }))
        }
        Norm::Block(stmts) => match mode {
            Mode::Stmt => {
                let gens: Vec<BoxGen> = stmts.iter().map(|s| compile_stmt(s, ctx)).collect();
                Box::new(rt::stmt_seq(gens, ctx.abort_flags()))
            }
            Mode::Value => {
                // Leading statements bounded and silent, last delegates
                // (IconSequence).
                let mut gens: Vec<BoxGen> = Vec::new();
                for (i, s) in stmts.iter().enumerate() {
                    if i + 1 == stmts.len() {
                        gens.push(compile(s, ctx, Mode::Value));
                    } else {
                        gens.push(compile_stmt(s, ctx));
                    }
                }
                comb::seq(gens)
            }
        },
        Norm::Suspend(inner) => compile(inner, ctx, Mode::Value),
        Norm::Return(inner) => {
            let value_gen = inner.as_ref().map(|e| compile(e, ctx, Mode::Value));
            Box::new(rt::return_gen(value_gen, ctx.returned.clone()))
        }
        Norm::Fail => match mode {
            Mode::Value => Box::new(comb::fail()),
            Mode::Stmt => {
                let flag = ctx.returned.clone();
                Box::new(rt::flag_fail(flag))
            }
        },
        Norm::Break | Norm::Next => {
            // Outside any loop of this activation there is no flag to raise.
            let flag = match (&ctx.loop_flags, n) {
                (Some((brk, _)), Norm::Break) => brk.clone(),
                (Some((_, nxt)), _) => nxt.clone(),
                (None, _) => rt::flag(),
            };
            Box::new(rt::flag_fail(flag))
        }
        Norm::Decl(decls) => {
            // Declare at compile time so later lookups bind to this frame;
            // initialize at run time.
            let cells: Vec<(Var, Option<Arc<Mutex<BoxGen>>>)> = decls
                .iter()
                .map(|(target, init)| {
                    // Resolved declarations own a pre-allocated slot cell;
                    // dynamic ones create a fresh overlay cell here, at
                    // compile time, so later lookups bind to this frame.
                    let cell = match target {
                        VarRef::Named(name) => ctx.env.declare(name, Value::Null),
                        VarRef::Slot(_, idx, _) => ctx.env.slot_local(*idx as usize),
                    };
                    let init_gen = init
                        .as_ref()
                        .map(|e| Arc::new(Mutex::new(compile(e, ctx, Mode::Value))));
                    (cell, init_gen)
                })
                .collect();
            Box::new(comb::thunk(move || {
                for (cell, init) in &cells {
                    match init {
                        Some(g) => {
                            let mut g = g.lock();
                            g.restart();
                            cell.set(g.next_value().unwrap_or(Value::Null));
                        }
                        None => cell.set(Value::Null),
                    }
                }
                Some(Value::Null)
            }))
        }
        Norm::CoCreate { kind, body } => {
            let body = body.clone();
            let shared = Arc::clone(&ctx.shared);
            let tmp_count = ctx.tmps.len() as u32;
            match kind {
                CoKind::FirstClass => {
                    let env = ctx.env.clone();
                    Box::new(comb::thunk(move || {
                        let body = body.clone();
                        let shared = Arc::clone(&shared);
                        let env = env.clone();
                        Some(coexpr::create(move || {
                            let ctx = Ctx::activation(&shared, env.clone(), tmp_count);
                            compile(&body, &ctx, Mode::Value)
                        }))
                    }))
                }
                CoKind::Shadowed => {
                    let env = ctx.env.clone();
                    Box::new(comb::thunk(move || {
                        let body = body.clone();
                        let shared = Arc::clone(&shared);
                        Some(coexpr::create_shadowed(&env, move |shadow_env| {
                            let ctx = Ctx::activation(&shared, shadow_env.clone(), tmp_count);
                            compile(&body, &ctx, Mode::Value)
                        }))
                    }))
                }
            }
        }
        Norm::Scan { subject, body } => Box::new(rt::scan_gen(
            compile(subject, ctx, Mode::Value),
            compile(body, ctx, mode),
        )),
        Norm::Pipe(body) => {
            // |>e evaluates to a *first-class proxy value*: each evaluation
            // shadows the environment (the pipe wraps a co-expression,
            // `|>e → c=|<>e; …`) and spawns a fresh producer thread; the
            // resulting Value::Co can be assigned, activated with `@`,
            // promoted with `!`, or refreshed with `^`.
            let outer_env = ctx.env.clone();
            let body = body.clone();
            let shared = Arc::clone(&ctx.shared);
            let tmp_count = ctx.tmps.len() as u32;
            Box::new(comb::thunk(move || {
                let pristine = outer_env.shadow();
                let body = body.clone();
                let shared = Arc::clone(&shared);
                Some(pipes::pipe_value(
                    move || {
                        let ctx = Ctx::activation(&shared, pristine.shadow(), tmp_count);
                        compile(&body, &ctx, Mode::Value)
                    },
                    pipes::DEFAULT_CAPACITY,
                ))
            }))
        }
    }
}

/// A loop: `while`/`until` re-test a condition (`until` says which outcome
/// ends it); `every` (`until: None`) drives a source, running the body — a
/// statement — to completion per value, yielding the body's suspensions and
/// failing at the end. The one place loop flags are made and handed to a body.
fn compile_loop(ctx: &Ctx, head: &Norm, body: Option<&Norm>, until: Option<bool>) -> BoxGen {
    let (break_f, next_f) = (rt::flag(), rt::flag());
    let body_ctx = Ctx {
        loop_flags: Some((break_f.clone(), next_f.clone())),
        ..ctx.clone()
    };
    let head = compile(head, ctx, Mode::Value);
    let body = body.map(|b| compile_stmt(b, &body_ctx));
    let (returned, outer) = (ctx.returned.clone(), ctx.loop_flags.clone());
    match until {
        Some(until) => Box::new(rt::loop_gen(
            head, body, until, returned, break_f, next_f, outer,
        )),
        None => Box::new(rt::every_gen(head, body, returned, break_f, next_f, outer)),
    }
}

#[cfg(test)]
mod tests;
