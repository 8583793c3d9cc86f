//! The primitive table: every monogenic operation over atom operands,
//! written once.
//!
//! A [`Norm::Prim`](crate::normalize::Norm::Prim) node names a [`Prim`];
//! its [`Row`] holds the runtime meaning (`eval`, what the interpreter's
//! thunk runs) and the Rust spelling (`spell`, what the emitter prints into
//! the thunk). A row is one function token under one
//! calling convention, and each convention writes its call and its text
//! side by side, so the two columns cannot drift. The paths are spelled as
//! emitted modules see them (`use gde::Value; use junicon::rt;`).

use crate::ast::BinOp;
use crate::rt::{self, Slot};
use gde::Value;
use std::fmt::Write;
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

/// One row of the table.
pub struct Row {
    /// Operand count (`None`: variadic).
    pub arity: Option<usize>,
    /// Apply to the operand slots and the primitive's [`Prim::name`].
    pub eval: fn(&[Slot], &str) -> Option<Value>,
    /// The same application as Rust text — an `Option<Value>` expression
    /// over the identifiers `s0 … s{n-1}` that hold the `n` captured
    /// operand slots: `spell(n, name)`.
    pub spell: fn(usize, &str) -> String,
}

/// The current values of a run of operand slots.
pub fn vals(slots: &[Slot]) -> Vec<Value> {
    slots.iter().map(Slot::get).collect()
}

/// `[s1.get(), s2.get()]`: the values of operands `ks`, as text.
pub fn gets(ks: std::ops::Range<usize>) -> String {
    let mut text = String::with_capacity(2 + 16 * ks.len());
    text.push('[');
    for k in ks {
        let sep = if text.len() > 1 { ", " } else { "" };
        write!(text, "{sep}s{k}.get()").expect("writing to a String");
    }
    text + "]"
}

macro_rules! path_str {
    ($a:ident $(:: $b:ident)*) => { concat!(stringify!($a) $(, "::", stringify!($b))*) };
}
pub(crate) use path_str;

/// A row from a calling convention and the function it applies to. Each
/// convention gives the operand count, the arguments as the interpreter
/// passes them (over slots `s`), and the same arguments as text (over the
/// operand count `n`).
macro_rules! row {
    (@ $($f:ident)::+, $arity:expr, |$s:ident, $name:pat_param| ($($arg:expr),+),
        |$n:pat_param| $text:literal $(, $t:expr)*) => {
        Row {
            arity: $arity,
            eval: |$s, $name| $($f)::+($($arg),+),
            spell: |$n, $name| format!(concat!(path_str!($($f)::+), $text) $(, $t)*),
        }
    };
    (ref1 $($f:ident)::+) => {
        row!(@ $($f)::+, Some(1), |s, _| (&s[0].get()), |_| "(&s0.get())")
    };
    (ref2 $($f:ident)::+) => {
        row!(@ $($f)::+, Some(2), |s, _| (&s[0].get(), &s[1].get()), |_| "(&s0.get(), &s1.get())")
    };
    (ref2_val $($f:ident)::+) => {
        row!(@ $($f)::+, Some(3), |s, _| (&s[0].get(), &s[1].get(), s[2].get()),
            |_| "(&s0.get(), &s1.get(), s2.get())")
    };
    (named $($f:ident)::+) => {
        row!(@ $($f)::+, Some(1), |s, name| (&s[0].get(), name), |_| "(&s0.get(), {:?})", name)
    };
    (named_val $($f:ident)::+) => {
        row!(@ $($f)::+, Some(2), |s, name| (&s[0].get(), name, s[1].get()),
            |_| "(&s0.get(), {:?}, s1.get())", name)
    };
    (named_rest $($f:ident)::+) => {
        row!(@ $($f)::+, None, |s, name| (&s[0].get(), name, &vals(&s[1..])),
            |n| "(&s0.get(), {:?}, &{})", name, gets(1..n))
    };
    (all $($f:ident)::+) => {
        row!(@ $($f)::+, None, |s, _| (vals(s)), |n| "(vec!{})", gets(0..n))
    };
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

macro_rules! binop_rows {
    ($($op:ident => $f:ident,)*) => {
        fn binop_row(op: BinOp) -> Row {
            match op { $(BinOp::$op => row!(ref2 gde::ops::$f)),* }
        }
    };
}

binops!(binop_rows);

impl Prim {
    /// The table.
    pub fn row(&self) -> Row {
        match self {
            Prim::Op(op) => binop_row(*op),
            Prim::Neg => row!(ref1 gde::ops::neg),
            Prim::Size => row!(ref1 rt::size),
            Prim::Activate => row!(ref1 coexpr::activate),
            Prim::Refresh => row!(ref1 coexpr::refresh),
            Prim::Index => row!(ref2 gde::ops::index),
            Prim::IndexAssign => row!(ref2_val gde::ops::index_assign),
            Prim::FieldGet(_) => row!(named rt::field_get),
            Prim::FieldSet(_) => row!(named_val rt::field_set),
            Prim::Native(_) => row!(named_rest rt::native_method),
            Prim::List => row!(all rt::list),
        }
    }

    /// The field or method name the primitive carries (`""` for none).
    pub fn name(&self) -> &str {
        match self {
            Prim::FieldGet(n) | Prim::FieldSet(n) | Prim::Native(n) => n,
            _ => "",
        }
    }

    /// A `::` call: a native the host registered under [`Prim::name`]
    /// takes precedence over the row (the row is the built-in fallback).
    pub fn is_host_call(&self) -> bool {
        matches!(self, Prim::Native(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_spells_and_evaluates_its_arity() {
        macro_rules! binop_prims {
            ($($op:ident => $f:ident,)*) => { vec![$(Prim::Op(BinOp::$op)),*] };
        }
        let named = |f: fn(Arc<str>) -> Prim| f("n".into());
        let mut all: Vec<Prim> = binops!(binop_prims);
        all.extend([Prim::Neg, Prim::Size, Prim::Activate, Prim::Refresh]);
        all.extend([Prim::Index, Prim::IndexAssign, Prim::List]);
        all.extend([
            named(Prim::FieldGet),
            named(Prim::FieldSet),
            named(Prim::Native),
        ]);
        assert_eq!(all.len(), 30);
        for p in all {
            let row = p.row();
            // Variadic rows are probed with no optional operand and with two.
            for n in row.arity.map_or(vec![1, 3], |n| vec![n]) {
                let text = (row.spell)(n, p.name());
                assert!(text.contains("::") && text.ends_with(')'), "{p:?}: {text}");
                for k in 0..4 {
                    assert_eq!(
                        text.contains(&format!("s{k}.get()")),
                        k < n,
                        "{p:?}: {text}"
                    );
                }
                assert_eq!(
                    text.contains("\"n\""),
                    !p.name().is_empty(),
                    "{p:?}: {text}"
                );
                // The runtime column reads exactly that many operands.
                let slots = vec![Slot::Const(Value::from(1)); n];
                let _ = (row.eval)(&slots, p.name());
            }
        }
    }
}
