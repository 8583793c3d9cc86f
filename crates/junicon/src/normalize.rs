//! Normalization: flattening nested generators (Sec. V.A).
//!
//! "To make iteration explicit, we introduce an operator for bound
//! iteration, and decompose nested generators into products of such bound
//! iterators." A primary such as `e(ex,ey).c[ei]` is rewritten to
//!
//! ```text
//! (f in ⟦e⟧) & (x in ⟦ex⟧) & (y in ⟦ey⟧) & (o in !f(x,y)) & (i in ⟦ei⟧) & (j in !o.c[i])
//! ```
//!
//! After this pass every *operand* of an operation, invocation, subscript or
//! field access is an [`Atom`] — a literal, a named variable, or a compiler
//! temporary bound by an enclosing `(t in e)` — and the residual expression
//! can be evaluated by mechanisms native to the target (here, the `gde`
//! combinators; in the paper, plain Java).

use crate::ast::{BinOp, ClassDecl, Expr, ProcDecl, Program, UnOp};
use crate::prim::Prim;
use crate::rt;
use gde::Value;
use std::sync::Arc;

/// An atomic operand after flattening.
#[derive(Clone, Debug, PartialEq)]
pub enum Atom {
    Null,
    Int(i64),
    /// Big integer literal: its decimal digits, and its value made once.
    Big(Box<(String, Value)>),
    Real(f64),
    /// String literal, shared by every value made of it.
    Str(Arc<str>),
    /// Named variable, resolved in the environment at run time (the
    /// by-name fallback; the resolve pass rewrites statically-scoped
    /// references into [`Atom::Slot`]).
    Var(String),
    /// Statically resolved variable: `(depth, slot)` into the activation
    /// frame chain, produced by the resolve pass. The name is the slot's
    /// one shared copy, kept for diagnostics and emitted-code comments.
    Slot(u16, u16, Arc<str>),
    /// Compiler temporary, bound by a `(t in e)` factor.
    Tmp(u32),
}

/// An assignment / declaration target: a by-name reference (the dynamic
/// fallback) or a statically resolved `(depth, slot)` coordinate.
#[derive(Clone, Debug, PartialEq)]
pub enum VarRef {
    Named(String),
    Slot(u16, u16, Arc<str>),
}

impl VarRef {
    /// The referenced variable's name (for diagnostics and tests).
    pub fn name(&self) -> &str {
        match self {
            VarRef::Named(n) => n,
            VarRef::Slot(_, _, name) => name,
        }
    }
}

/// Which co-expression form a creation node represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoKind {
    /// `<>e` / `create e`
    FirstClass,
    /// `|<>e`
    Shadowed,
}

/// Normalized expression: generator composition over atomic operands.
#[derive(Clone, Debug, PartialEq)]
pub enum Norm {
    /// Singleton iterator over the atom's (current) value.
    Atom(Atom),
    /// `&`-product chain: factors evaluated left to right with
    /// backtracking.
    Product(Vec<Norm>),
    /// Bound iteration `(t in e)`.
    Bind(u32, Box<Norm>),
    /// Alternation `e | e'`.
    Alt(Vec<Norm>),
    /// A primitive over atom operands: one row of [`crate::prim`].
    Prim {
        op: Prim,
        args: Vec<Atom>,
    },
    /// Promotion `!a`.
    Promote(Atom),
    /// Generator-function invocation: iterate the generator returned by
    /// applying the (atom-valued) callee to atom arguments.
    Invoke {
        callee: Atom,
        args: Vec<Atom>,
    },
    /// Assignment into a variable; yields the assigned value.
    SetVar {
        target: VarRef,
        from: Atom,
    },
    /// Reversible assignment `x <- e`: assigns and yields, then restores
    /// the previous value when resumed for backtracking.
    RevSet {
        target: VarRef,
        from: Atom,
    },
    /// `from to to [by by]` with atom bounds.
    ToRange {
        from: Atom,
        to: Atom,
        by: Option<Atom>,
    },
    /// Limitation `e \ n` with an atom bound.
    Limit {
        inner: Box<Norm>,
        n: Atom,
    },
    /// `if`/`then`/`else`.
    If {
        cond: Box<Norm>,
        then: Box<Norm>,
        els: Option<Box<Norm>>,
    },
    /// `while cond do body`.
    While {
        cond: Box<Norm>,
        body: Option<Box<Norm>>,
    },
    /// `until cond do body`.
    Until {
        cond: Box<Norm>,
        body: Option<Box<Norm>>,
    },
    /// `every source do body`.
    Every {
        source: Box<Norm>,
        body: Option<Box<Norm>>,
    },
    /// `repeat body`.
    Repeat(Box<Norm>),
    /// `not e`: succeeds (null) iff e fails.
    Not(Box<Norm>),
    /// Statement sequence / block.
    Block(Vec<Norm>),
    /// `suspend e` (procedure bodies).
    Suspend(Box<Norm>),
    /// `return [e]`.
    Return(Option<Box<Norm>>),
    /// `fail`.
    Fail,
    Break,
    Next,
    /// Local declarations with optional initializers.
    Decl(Vec<(VarRef, Option<Norm>)>),
    /// `<>e` / `|<>e` / `create e`.
    CoCreate {
        kind: CoKind,
        body: Box<Norm>,
    },
    /// `|>e` — threaded generator proxy.
    Pipe(Box<Norm>),
    /// `e1 ? e2` — string scanning.
    Scan {
        subject: Box<Norm>,
        body: Box<Norm>,
    },
}

/// One direct part of a node, in the order [`Norm::parts`] hands them out.
pub enum Part<A, T, N> {
    /// An operand read.
    Read(A),
    /// An assignment target.
    Target(T),
    /// A declared name (its initializer, if any, follows as a `Child`).
    Decl(T),
    /// A sub-expression compiled on the main stream.
    Child(N),
    /// A deferred body (`<>e`, `|<>e`, `|>e`): compiled at each creation.
    Deferred(N),
}

/// `Norm`'s operand and child structure, written once for `&` and `&mut`:
/// the direct parts of a node in the order the interpreter binds and
/// compiles them (which is what scoping analyses must mirror).
macro_rules! parts_fn {
    ($(#[$doc:meta])* $name:ident $(, $m:tt)?) => {
        $(#[$doc])*
        pub fn $name<'a>(
            &'a $($m)? self,
            mut f: impl FnMut(Part<&'a $($m)? Atom, &'a $($m)? VarRef, &'a $($m)? Norm>),
        ) {
            match self {
                Norm::Atom(a) | Norm::Promote(a) => f(Part::Read(a)),
                Norm::Prim { args, .. } => {
                    for a in args {
                        f(Part::Read(a));
                    }
                }
                Norm::Invoke { callee, args } => {
                    f(Part::Read(callee));
                    for a in args {
                        f(Part::Read(a));
                    }
                }
                Norm::SetVar { target, from } | Norm::RevSet { target, from } => {
                    f(Part::Target(target));
                    f(Part::Read(from));
                }
                Norm::ToRange { from, to, by } => {
                    f(Part::Read(from));
                    f(Part::Read(to));
                    if let Some(b) = by {
                        f(Part::Read(b));
                    }
                }
                Norm::Limit { inner, n } => {
                    f(Part::Read(n));
                    f(Part::Child(inner));
                }
                Norm::Product(ns) | Norm::Alt(ns) | Norm::Block(ns) => {
                    for n in ns {
                        f(Part::Child(n));
                    }
                }
                Norm::Bind(_, n) | Norm::Repeat(n) | Norm::Not(n) | Norm::Suspend(n) => {
                    f(Part::Child(n))
                }
                Norm::If { cond, then, els } => {
                    f(Part::Child(cond));
                    f(Part::Child(then));
                    if let Some(e) = els {
                        f(Part::Child(e));
                    }
                }
                Norm::While { cond: first, body: rest }
                | Norm::Until { cond: first, body: rest }
                | Norm::Every { source: first, body: rest } => {
                    f(Part::Child(first));
                    if let Some(b) = rest {
                        f(Part::Child(b));
                    }
                }
                Norm::Return(value) => {
                    if let Some(v) = value {
                        f(Part::Child(v));
                    }
                }
                Norm::Scan { subject, body } => {
                    f(Part::Child(subject));
                    f(Part::Child(body));
                }
                Norm::Decl(decls) => {
                    for (target, init) in decls {
                        f(Part::Decl(target));
                        if let Some(e) = init {
                            f(Part::Child(e));
                        }
                    }
                }
                Norm::CoCreate { body, .. } | Norm::Pipe(body) => f(Part::Deferred(body)),
                Norm::Fail | Norm::Break | Norm::Next => {}
            }
        }
    };
}

impl Norm {
    parts_fn!(
        /// Visit the node's direct parts.
        parts
    );
    parts_fn!(
        /// [`Norm::parts`] over mutable references.
        parts_mut,
        mut
    );

    /// Statement forms keep their control semantics in statement position;
    /// any other node there is evaluated once, bounded and silent.
    pub fn is_stmt_form(&self) -> bool {
        matches!(
            self,
            Norm::Suspend(_)
                | Norm::Return(_)
                | Norm::Fail
                | Norm::Break
                | Norm::Next
                | Norm::Block(_)
                | Norm::If { .. }
                | Norm::While { .. }
                | Norm::Until { .. }
                | Norm::Every { .. }
                | Norm::Scan { .. }
                | Norm::Repeat(_)
        )
    }
}

/// A normalized procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct NProc {
    pub name: String,
    pub params: Vec<String>,
    pub body: Vec<Norm>,
    /// Number of compiler temporaries the body needs.
    pub tmp_count: u32,
    /// Activation-frame slot names: the parameters (they exist from frame
    /// birth, so they always lead the list), then what the resolve pass
    /// appends — one slot per statically-scoped `local` declaration, in
    /// pre-order. Each name is shared with the slot's references.
    pub slots: Vec<Arc<str>>,
}

/// A normalized class.
#[derive(Clone, Debug, PartialEq)]
pub struct NClass {
    pub name: String,
    pub fields: Vec<String>,
    pub methods: Vec<NProc>,
    /// An object's field-frame layout, `[fields…, methods…, "self"]`: the
    /// depth-1 slots of method bodies, and the frame `rt::class` builds.
    pub slots: Vec<Arc<str>>,
}

/// A normalized program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NProgram {
    pub procs: Vec<NProc>,
    pub classes: Vec<NClass>,
    pub stmts: Vec<Norm>,
    /// The most temporaries any one top-level statement needs.
    pub tmp_count: u32,
}

/// Temporary allocator (one namespace per procedure body / top level).
#[derive(Default)]
struct Tmps {
    next: u32,
}

impl Tmps {
    fn fresh(&mut self) -> u32 {
        let t = self.next;
        self.next += 1;
        t
    }
}

/// Normalize a whole program.
pub fn normalize_program(p: &Program) -> NProgram {
    let procs = p.procs.iter().map(normalize_proc).collect();
    let classes = p.classes.iter().map(normalize_class).collect();
    // Each top-level statement is an activation of its own, so each numbers
    // its temporaries from zero.
    let (stmts, tmps): (Vec<Norm>, Vec<u32>) = p.stmts.iter().map(normalize_expr).unzip();
    NProgram {
        procs,
        classes,
        stmts,
        tmp_count: tmps.into_iter().max().unwrap_or(0),
    }
}

/// Normalize one class declaration.
pub fn normalize_class(c: &ClassDecl) -> NClass {
    let methods = c.methods.iter().map(|m| &m.name);
    let slots = c.fields.iter().chain(methods).map(String::as_str);
    NClass {
        name: c.name.clone(),
        fields: c.fields.clone(),
        methods: c.methods.iter().map(normalize_proc).collect(),
        slots: slots.chain(["self"]).map(Arc::from).collect(),
    }
}

/// Normalize one procedure declaration.
pub fn normalize_proc(p: &ProcDecl) -> NProc {
    let mut tmps = Tmps::default();
    let body = p.body.iter().map(|e| normalize(e, &mut tmps)).collect();
    NProc {
        name: p.name.clone(),
        params: p.params.clone(),
        body,
        tmp_count: tmps.next,
        slots: p.params.iter().map(|n| Arc::from(n.as_str())).collect(),
    }
}

/// Normalize a standalone expression, reporting the temporaries used.
pub fn normalize_expr(e: &Expr) -> (Norm, u32) {
    let mut tmps = Tmps::default();
    let n = normalize(e, &mut tmps);
    (n, tmps.next)
}

/// Wrap hoisted bindings around a core node (identity when nothing was
/// hoisted).
fn with_binds(mut binds: Vec<Norm>, core: Norm) -> Norm {
    if binds.is_empty() {
        core
    } else {
        binds.push(core);
        Norm::Product(binds)
    }
}

/// A primitive over flattened operands.
fn prim<'e>(op: Prim, operands: impl IntoIterator<Item = &'e Expr>, tmps: &mut Tmps) -> Norm {
    let mut binds = Vec::new();
    let args = operands
        .into_iter()
        .map(|e| flatten(e, &mut binds, tmps))
        .collect();
    with_binds(binds, Norm::Prim { op, args })
}

/// Normalize an expression to a generator node.
fn normalize(e: &Expr, tmps: &mut Tmps) -> Norm {
    match e {
        Expr::Null => Norm::Atom(Atom::Null),
        Expr::Int(v) => Norm::Atom(Atom::Int(*v)),
        Expr::BigLit(s) => Norm::Atom(Atom::Big(Box::new((s.clone(), rt::big(s))))),
        Expr::Real(v) => Norm::Atom(Atom::Real(*v)),
        Expr::Str(s) => Norm::Atom(Atom::Str(s.as_str().into())),
        Expr::Var(name) => Norm::Atom(Atom::Var(name.clone())),
        Expr::KeywordAmp(name) => match name.as_str() {
            "null" => Norm::Atom(Atom::Null),
            "fail" => Norm::Fail,
            other => Norm::Atom(Atom::Var(format!("&{other}"))),
        },

        Expr::Product(a, b) => {
            // Flatten nested products into one chain.
            let mut factors = Vec::new();
            collect_product(a, tmps, &mut factors);
            collect_product(b, tmps, &mut factors);
            Norm::Product(factors)
        }
        Expr::Alt(a, b) => {
            let mut items = Vec::new();
            collect_alt(a, tmps, &mut items);
            collect_alt(b, tmps, &mut items);
            Norm::Alt(items)
        }

        Expr::Binary(op, a, b) => prim(Prim::Op(*op), [&**a, &**b], tmps),

        Expr::Unary(op, inner) => match op {
            UnOp::Pipe => Norm::Pipe(Box::new(normalize(inner, tmps))),
            UnOp::FirstClass => Norm::CoCreate {
                kind: CoKind::FirstClass,
                body: Box::new(normalize(inner, tmps)),
            },
            UnOp::CoExpr => Norm::CoCreate {
                kind: CoKind::Shadowed,
                body: Box::new(normalize(inner, tmps)),
            },
            UnOp::Deref => normalize(inner, tmps),
            UnOp::Promote => {
                let mut binds = Vec::new();
                let a = flatten(inner, &mut binds, tmps);
                with_binds(binds, Norm::Promote(a))
            }
            UnOp::Neg => prim(Prim::Neg, [&**inner], tmps),
            UnOp::Size => prim(Prim::Size, [&**inner], tmps),
            UnOp::Activate => prim(Prim::Activate, [&**inner], tmps),
            UnOp::Refresh => prim(Prim::Refresh, [&**inner], tmps),
            UnOp::IsNull => prim(Prim::Op(BinOp::Equiv), [&**inner, &Expr::Null], tmps),
        },

        Expr::Create(inner) => Norm::CoCreate {
            kind: CoKind::FirstClass,
            body: Box::new(normalize(inner, tmps)),
        },

        Expr::To { from, to, by } => {
            let mut binds = Vec::new();
            let f = flatten(from, &mut binds, tmps);
            let t = flatten(to, &mut binds, tmps);
            let b = by.as_ref().map(|b| flatten(b, &mut binds, tmps));
            with_binds(
                binds,
                Norm::ToRange {
                    from: f,
                    to: t,
                    by: b,
                },
            )
        }

        Expr::RevAssign(target, value) => match &**target {
            Expr::Var(name) => {
                let mut binds = Vec::new();
                let v = flatten(value, &mut binds, tmps);
                with_binds(
                    binds,
                    Norm::RevSet {
                        target: VarRef::Named(name.clone()),
                        from: v,
                    },
                )
            }
            other => {
                let _ = normalize(other, tmps);
                let _ = normalize(value, tmps);
                Norm::Fail
            }
        },
        Expr::Assign(target, value) => match &**target {
            Expr::Var(name) => {
                let mut binds = Vec::new();
                let v = flatten(value, &mut binds, tmps);
                with_binds(
                    binds,
                    Norm::SetVar {
                        target: VarRef::Named(name.clone()),
                        from: v,
                    },
                )
            }
            Expr::Index(base, idx) => prim(Prim::IndexAssign, [&**base, &**idx, &**value], tmps),
            Expr::Field(base, field) => prim(
                Prim::FieldSet(field.as_str().into()),
                [&**base, &**value],
                tmps,
            ),
            other => {
                // Unsupported assignment target: normalize both sides and
                // fail at runtime (goal-directed error behaviour).
                let _ = normalize(other, tmps);
                let _ = normalize(value, tmps);
                Norm::Fail
            }
        },

        Expr::Call(callee, args) => {
            let mut binds = Vec::new();
            let f = flatten(callee, &mut binds, tmps);
            let fargs = args.iter().map(|a| flatten(a, &mut binds, tmps)).collect();
            with_binds(
                binds,
                Norm::Invoke {
                    callee: f,
                    args: fargs,
                },
            )
        }
        Expr::NativeCall(target, method, args) => {
            let operands = std::iter::once(&**target).chain(args);
            prim(Prim::Native(method.as_str().into()), operands, tmps)
        }
        Expr::Index(base, idx) => prim(Prim::Index, [&**base, &**idx], tmps),
        Expr::Field(base, field) => prim(Prim::FieldGet(field.as_str().into()), [&**base], tmps),
        Expr::List(items) => prim(Prim::List, items, tmps),
        Expr::Scan(subject, body) => Norm::Scan {
            subject: Box::new(normalize(subject, tmps)),
            body: Box::new(normalize(body, tmps)),
        },
        Expr::Limit(inner, n) => {
            let mut binds = Vec::new();
            let bound = flatten(n, &mut binds, tmps);
            let inner = normalize(inner, tmps);
            with_binds(
                binds,
                Norm::Limit {
                    inner: Box::new(inner),
                    n: bound,
                },
            )
        }

        Expr::If { cond, then, els } => Norm::If {
            cond: Box::new(normalize(cond, tmps)),
            then: Box::new(normalize(then, tmps)),
            els: els.as_ref().map(|e| Box::new(normalize(e, tmps))),
        },
        Expr::While { cond, body } => Norm::While {
            cond: Box::new(normalize(cond, tmps)),
            body: body.as_ref().map(|b| Box::new(normalize(b, tmps))),
        },
        Expr::Until { cond, body } => Norm::Until {
            cond: Box::new(normalize(cond, tmps)),
            body: body.as_ref().map(|b| Box::new(normalize(b, tmps))),
        },
        Expr::Every { source, body } => Norm::Every {
            source: Box::new(normalize(source, tmps)),
            body: body.as_ref().map(|b| Box::new(normalize(b, tmps))),
        },
        Expr::Repeat(body) => Norm::Repeat(Box::new(normalize(body, tmps))),
        Expr::Not(inner) => Norm::Not(Box::new(normalize(inner, tmps))),
        Expr::Block(stmts) => Norm::Block(stmts.iter().map(|s| normalize(s, tmps)).collect()),
        Expr::Suspend(inner) => Norm::Suspend(Box::new(normalize(inner, tmps))),
        Expr::Return(inner) => Norm::Return(inner.as_ref().map(|e| Box::new(normalize(e, tmps)))),
        Expr::Fail => Norm::Fail,
        Expr::Break => Norm::Break,
        Expr::Next => Norm::Next,
        Expr::Decl(decls) => Norm::Decl(
            decls
                .iter()
                .map(|(n, init)| {
                    (
                        VarRef::Named(n.clone()),
                        init.as_ref().map(|e| normalize(e, tmps)),
                    )
                })
                .collect(),
        ),
    }
}

fn collect_product(e: &Expr, tmps: &mut Tmps, out: &mut Vec<Norm>) {
    match e {
        Expr::Product(a, b) => {
            collect_product(a, tmps, out);
            collect_product(b, tmps, out);
        }
        other => out.push(normalize(other, tmps)),
    }
}

fn collect_alt(e: &Expr, tmps: &mut Tmps, out: &mut Vec<Norm>) {
    match e {
        Expr::Alt(a, b) => {
            collect_alt(a, tmps, out);
            collect_alt(b, tmps, out);
        }
        other => out.push(normalize(other, tmps)),
    }
}

/// Flatten a subexpression to an atom, hoisting generators into `(t in e)`
/// bindings pushed onto `binds`.
fn flatten(e: &Expr, binds: &mut Vec<Norm>, tmps: &mut Tmps) -> Atom {
    match e {
        Expr::Null => Atom::Null,
        Expr::Int(v) => Atom::Int(*v),
        Expr::BigLit(s) => Atom::Big(Box::new((s.clone(), rt::big(s)))),
        Expr::Real(v) => Atom::Real(*v),
        Expr::Str(s) => Atom::Str(s.as_str().into()),
        Expr::Var(name) => Atom::Var(name.clone()),
        Expr::KeywordAmp(name) if name == "null" => Atom::Null,
        other => {
            let t = tmps.fresh();
            let n = normalize(other, tmps);
            binds.push(Norm::Bind(t, Box::new(n)));
            Atom::Tmp(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_expr, parse_program};

    fn norm(src: &str) -> Norm {
        normalize_expr(&parse_expr(src).unwrap()).0
    }

    fn prim_of<const N: usize>(op: Prim, args: [Atom; N]) -> Norm {
        Norm::Prim {
            op,
            args: args.to_vec(),
        }
    }

    #[test]
    fn atoms_stay_atoms() {
        assert_eq!(norm("42"), Norm::Atom(Atom::Int(42)));
        assert_eq!(norm("x"), Norm::Atom(Atom::Var("x".into())));
        assert_eq!(norm("\"s\""), Norm::Atom(Atom::Str("s".into())));
        assert_eq!(norm("&null"), Norm::Atom(Atom::Null));
        assert_eq!(norm("&fail"), Norm::Fail);
    }

    #[test]
    fn simple_op_needs_no_hoisting() {
        // x + 1 — both operands atomic: a bare primitive node.
        assert_eq!(
            norm("x + 1"),
            prim_of(Prim::Op(BinOp::Add), [Atom::Var("x".into()), Atom::Int(1)])
        );
    }

    #[test]
    fn nested_generator_operand_is_hoisted() {
        // (1 to 2) * y  ⇒  (t0 in 1 to 2) & t0 * y
        let n = norm("(1 to 2) * y");
        match n {
            Norm::Product(factors) => {
                assert_eq!(factors.len(), 2);
                assert!(matches!(&factors[0], Norm::Bind(0, inner)
                    if matches!(&**inner, Norm::ToRange { .. })));
                assert_eq!(
                    factors[1],
                    prim_of(Prim::Op(BinOp::Mul), [Atom::Tmp(0), Atom::Var("y".into())])
                );
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn both_operands_hoisted_in_order() {
        // (1 to 2) * isprime(4 to 7) — the paper's Sec. II example:
        // (t0 in 1 to 2) & (t1 in (t2 in 4 to 7) & !isprime(t2)) & t0*t1
        let n = norm("(1 to 2) * isprime(4 to 7)");
        match n {
            Norm::Product(factors) => {
                assert_eq!(factors.len(), 3);
                assert!(matches!(&factors[0], Norm::Bind(0, _)));
                // second bind holds the flattened invocation
                match &factors[1] {
                    Norm::Bind(t, inner) => {
                        assert!(*t > 0);
                        match &**inner {
                            Norm::Product(inner_factors) => {
                                assert!(matches!(inner_factors.last(), Some(Norm::Invoke { .. })));
                            }
                            other => panic!("inner {other:?}"),
                        }
                    }
                    other => panic!("got {other:?}"),
                }
                assert!(matches!(
                    &factors[2],
                    Norm::Prim {
                        op: Prim::Op(BinOp::Mul),
                        ..
                    }
                ));
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn primary_chain_flattens_like_the_paper() {
        // e(ex).c[ei] ⇒ binds for e's call result, then field, then index.
        let n = norm("e(ex).c[ei]");
        match n {
            Norm::Product(factors) => {
                // (t in e(ex)) & (t2 in t.c) ... & index
                assert!(factors.len() >= 2);
                // the operands of the final Index are a temporary and a name
                match factors.last() {
                    Some(Norm::Prim {
                        op: Prim::Index,
                        args,
                    }) => assert!(matches!(args[..], [Atom::Tmp(_), Atom::Var(_)])),
                    other => panic!("got {other:?}"),
                }
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn product_chains_flatten() {
        let n = norm("a & b & c");
        match n {
            Norm::Product(fs) => assert_eq!(fs.len(), 3),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn alternation_chains_flatten() {
        let n = norm("a | b | c");
        match n {
            Norm::Alt(items) => assert_eq!(items.len(), 3),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn assignment_normalizes_to_bind_and_set() {
        let n = norm("x := f(y)");
        match n {
            Norm::Product(fs) => {
                assert!(matches!(&fs[0], Norm::Bind(_, _)));
                assert!(matches!(&fs[1], Norm::SetVar { target, .. } if target.name() == "x"));
            }
            other => panic!("got {other:?}"),
        }
        // atom rhs needs no bind
        assert_eq!(
            norm("x := 5"),
            Norm::SetVar {
                target: VarRef::Named("x".into()),
                from: Atom::Int(5)
            }
        );
    }

    #[test]
    fn index_assignment() {
        let n = norm("xs[2] := v");
        assert_eq!(
            n,
            prim_of(
                Prim::IndexAssign,
                [Atom::Var("xs".into()), Atom::Int(2), Atom::Var("v".into())]
            )
        );
    }

    #[test]
    fn pipe_wraps_whole_expression() {
        let n = norm("|> f(!xs)");
        match n {
            Norm::Pipe(inner) => match *inner {
                Norm::Product(ref fs) => {
                    assert!(matches!(fs.last(), Some(Norm::Invoke { .. })))
                }
                ref other => panic!("inner {other:?}"),
            },
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn coexpression_kinds() {
        assert!(matches!(
            norm("<> (1 to 3)"),
            Norm::CoCreate {
                kind: CoKind::FirstClass,
                ..
            }
        ));
        assert!(matches!(
            norm("|<> f()"),
            Norm::CoCreate {
                kind: CoKind::Shadowed,
                ..
            }
        ));
        assert!(matches!(
            norm("create g()"),
            Norm::CoCreate {
                kind: CoKind::FirstClass,
                ..
            }
        ));
    }

    #[test]
    fn promote_of_call_hoists_then_promotes() {
        // !splitWords(line) ⇒ (t in splitWords(line)) & !t
        let n = norm("!splitWords(line)");
        match n {
            Norm::Product(fs) => {
                assert!(matches!(&fs[0], Norm::Bind(_, _)));
                assert!(matches!(&fs[1], Norm::Promote(Atom::Tmp(_))));
            }
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn control_constructs_recurse() {
        let n = norm("if x < 1 then f(x) else 0");
        assert!(matches!(n, Norm::If { els: Some(_), .. }));
        let n = norm("while x do f(x)");
        assert!(matches!(n, Norm::While { body: Some(_), .. }));
        let n = norm("every x := 1 to 3 do put(l, x)");
        assert!(matches!(n, Norm::Every { body: Some(_), .. }));
    }

    #[test]
    fn program_normalization_counts_tmps() {
        let prog = parse_program("def f(n) { suspend (1 to n) * 2; }").unwrap();
        let np = normalize_program(&prog);
        assert_eq!(np.procs.len(), 1);
        assert!(np.procs[0].tmp_count >= 1);
        assert_eq!(np.procs[0].params, vec!["n"]);
    }

    #[test]
    fn temporaries_are_distinct() {
        let (n, count) = normalize_expr(&parse_expr("f(g(x), h(y))").unwrap());
        assert!(count >= 2);
        // Collect all bind ids; they must be unique.
        fn collect(n: &Norm, out: &mut Vec<u32>) {
            if let Norm::Product(fs) = n {
                for f in fs {
                    collect(f, out);
                }
            }
            if let Norm::Bind(t, inner) = n {
                out.push(*t);
                collect(inner, out);
            }
        }
        let mut ids = Vec::new();
        collect(&n, &mut ids);
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
    }

    #[test]
    fn native_call_flattens() {
        let n = norm("line::split(\"x\")");
        assert_eq!(
            n,
            prim_of(
                Prim::Native("split".into()),
                [Atom::Var("line".into()), Atom::Str("x".into())]
            )
        );
    }

    #[test]
    fn limitation_normalizes() {
        let n = norm("f(x) \\ 3");
        match n {
            Norm::Limit {
                n: Atom::Int(3), ..
            } => {}
            other => panic!("got {other:?}"),
        }
    }
}
