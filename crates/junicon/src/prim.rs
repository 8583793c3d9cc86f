//! The primitive table: every monogenic operation over atom operands, and
//! the function it applies.
//!
//! A [`Norm::Prim`](crate::normalize::Norm::Prim) node names a [`Prim`],
//! which `junicon::lower` makes one row of its constructor table, as it
//! does every other node: an operator (`-`, `*`, `@`, `^`, the 20 binary
//! operators, subscript) is `rt::op1(f, a)` or `rt::op2(f, a, b)` over the
//! [`Func`] that [`Prim::func`] names, and each other primitive is an `rt`
//! constructor of its own. A `Func` is written once, as one function token:
//! the function the interpreter passes and the path the emitter prints
//! (spelled as emitted modules see it, `use junicon::rt;`).

use crate::ast::BinOp;
use crate::rt;
use gde::Value;
use std::sync::Arc;

/// A primitive: yields at most one value per evaluation of its operands.
#[derive(Clone, Debug, PartialEq)]
pub enum Prim {
    /// Binary operator `a op b` (fails when an operand fails to coerce).
    Op(BinOp),
    /// `-a`
    Neg,
    /// `*a`
    Size,
    /// Co-expression activation `@a`.
    Activate,
    /// Refresh `^a`.
    Refresh,
    /// `base[index]`
    Index,
    /// `base[index] := value`
    IndexAssign,
    /// `base.field`
    FieldGet(Arc<str>),
    /// `base.field := value`
    FieldSet(Arc<str>),
    /// Host-native invocation `target::method(args…)` — promoted to a
    /// singleton result ("plain Java methods" treatment).
    Native(Arc<str>),
    /// `[items…]`
    List,
}

/// The function an operator applies, as the interpreter passes it to
/// `rt::op1` or `rt::op2`, and its path as emitted code spells it.
#[derive(Clone, Copy, Debug)]
pub enum Func {
    /// `f(a)`: `-a`, `*a`, `@a`, `^a`.
    One(&'static str, fn(&Value) -> Option<Value>),
    /// `f(a, b)`: `a op b`, `a[i]`.
    Two(&'static str, fn(&Value, &Value) -> Option<Value>),
}

impl Func {
    /// The function's path, as emitted code calls it.
    pub fn path(self) -> &'static str {
        match self {
            Func::One(path, _) | Func::Two(path, _) => path,
        }
    }
}

macro_rules! path_str {
    ($a:ident $(:: $b:ident)*) => { concat!(stringify!($a) $(, "::", stringify!($b))*) };
}
pub(crate) use path_str;

/// `Func::One` or `Func::Two` over one function token: its path and the
/// function itself.
macro_rules! func {
    ($arity:ident $($f:ident)::+) => { Func::$arity(path_str!($($f)::+), $($f)::+) };
}

/// The binary operators and the `gde::ops` function each one is, handed
/// to the macro named.
macro_rules! binops {
    ($with:ident) => {
        $with! {
            Add => add,
            Sub => sub,
            Mul => mul,
            Div => div,
            Rem => rem,
            Pow => pow,
            Lt => lt,
            Le => le,
            Gt => gt,
            Ge => ge,
            NumEq => num_eq,
            NumNe => num_ne,
            Concat => concat,
            StrLt => str_lt,
            StrLe => str_le,
            StrGt => str_gt,
            StrGe => str_ge,
            StrEq => str_eq,
            StrNe => str_ne,
            Equiv => equiv,
        }
    };
}

macro_rules! binop_funcs {
    ($($op:ident => $f:ident,)*) => {
        fn binop_func(op: BinOp) -> Func {
            match op { $(BinOp::$op => func!(Two gde::ops::$f)),* }
        }
    };
}

binops!(binop_funcs);

impl Prim {
    /// The function of an operator; `None` for the five primitives that are
    /// a constructor of their own (`rt::set_index`, `rt::field`,
    /// `rt::set_field`, `rt::native`, `rt::list`).
    pub fn func(&self) -> Option<Func> {
        Some(match self {
            Prim::Op(op) => binop_func(*op),
            Prim::Index => func!(Two gde::ops::index),
            Prim::Neg => func!(One gde::ops::neg),
            Prim::Size => func!(One rt::size),
            Prim::Activate => func!(One rt::activate),
            Prim::Refresh => func!(One rt::refresh),
            Prim::IndexAssign
            | Prim::FieldGet(_)
            | Prim::FieldSet(_)
            | Prim::Native(_)
            | Prim::List => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_operator_names_its_own_function_and_the_rest_none() {
        macro_rules! binop_prims {
            ($($op:ident => $f:ident,)*) => { vec![$(Prim::Op(BinOp::$op)),*] };
        }
        let mut ops: Vec<Prim> = binops!(binop_prims);
        ops.extend([
            Prim::Index,
            Prim::Neg,
            Prim::Size,
            Prim::Activate,
            Prim::Refresh,
        ]);
        let n: Arc<str> = "n".into();
        let own = [
            Prim::IndexAssign,
            Prim::FieldGet(Arc::clone(&n)),
            Prim::FieldSet(Arc::clone(&n)),
            Prim::Native(n),
            Prim::List,
        ];
        assert_eq!(ops.len() + own.len(), 30);
        let one = Value::from(1);
        let mut paths = HashSet::new();
        for p in &ops {
            let f = p
                .func()
                .unwrap_or_else(|| panic!("{p:?} names no function"));
            let path = f.path();
            assert!(
                path.starts_with("gde::ops::") || path.starts_with("rt::"),
                "{p:?}: {path}"
            );
            assert!(paths.insert(path), "{p:?}: {path} twice");
            // The function takes as many operands as the primitive has.
            let unary = matches!(p, Prim::Neg | Prim::Size | Prim::Activate | Prim::Refresh);
            match f {
                Func::One(_, f) if unary => drop(f(&one)),
                Func::Two(_, f) if !unary => drop(f(&one, &one)),
                _ => panic!("{p:?}: {path} takes the wrong operand count"),
            }
        }
        assert!(own.iter().all(|p| p.func().is_none()));
    }
}
