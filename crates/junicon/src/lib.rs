//! Junicon: the mixed-language embedding toolchain.
//!
//! This crate reproduces the transformation half of the paper (Secs. IV–VI):
//! embedding goal-directed evaluation into a host language via scoped
//! annotations and generator flattening. The pipeline is:
//!
//! ```text
//!   mixed source ──[annot]──► segments (host / embedded)
//!   embedded text ──[lex]──► tokens ──[parse]──► AST
//!   AST ──[normalize]──► flattened products of bound iterators
//!   flattened IR ──[resolve]──► slot-addressed IR (static frame coordinates)
//!   slotted IR ──[lower]──► plan: a tree of kernel-constructor calls ([rt], gde::comb)
//!   plan ──[interp]──► the calls made: gde combinator trees (executable)
//!       └─[emit]────► the calls printed: Rust source targeting the gde runtime
//!          ▲ [lower] asks [prim] which function an operator applies
//! ```
//!
//! * [`annot`] — the *scoped annotations* metaparser: recognizes
//!   `@<script lang="junicon"> … @</script>` regions (attributed, nestable,
//!   self-closing) while remaining oblivious to the host grammar, "based on
//!   grouping delimiters such as braces and parentheses" (Sec. IV).
//! * [`lex`]/[`ast`]/[`parse`] — a Unicon-subset front end covering the
//!   constructs the paper uses: generator expressions, `to`/`by`, `&`
//!   product, `|` alternation, goal-directed comparisons, `suspend` /
//!   `return` / `fail`, `every` / `while` / `if`, procedure declarations,
//!   and the concurrency operators `<>`, `|<>`, `|>`, `@`, `!`, `^`.
//! * [`normalize`] — the Sec. V.A rewrite: flattening nested generators in
//!   primary expressions into products of bound iterators
//!   (`e(ex).c[ei]` ⇒ `(f in ⟦e⟧) & (x in ⟦ex⟧) & (o in !f(x)) & …`).
//!   The IR's operand/child structure is written once
//!   ([`normalize::Norm::parts`]); every analysis is a caller of it.
//! * [`prim`] — the primitive table: each monogenic operation over atom
//!   operands is one constructor row of `lower`; an operator's row is
//!   `rt::op1`/`rt::op2` over the function it names, given as the function
//!   the interpreter passes and the Rust path the emitter prints, from one
//!   token.
//! * `lower` (crate-private) — the one lowering both back ends share:
//!   `Norm → Plan`, once per procedure. A plan node is a call to one kernel
//!   constructor of [`rt`] / `gde::comb` with classified arguments;
//!   statement-vs-value position, loop flags and deferred-body activations
//!   are decided there, and a product stays a product of bound iterators
//!   (no stage is fused in lowered code).
//! * [`resolve`] — the slot-resolution pass: assigns declared variables
//!   static `(depth, slot)` frame coordinates so the executors address
//!   frames by index instead of hashing names, with a conservative
//!   poisoning analysis keeping genuinely dynamic references by-name.
//! * [`interp`] — the interpreter: lowers a program at load and
//!   instantiates a procedure's plan per call over the [`gde`] runtime,
//!   with suspendable procedure bodies (so `suspend` works inside loops
//!   without threads, as the paper's kernel does).
//! * [`emit`] — the migration target: prints the same plans as Rust source
//!   (the Fig. 5 analogue), snapshot-tested, compiled and executed.
//! * [`rt`] — the kernel both back ends target: the constructors a plan
//!   names, public because emitted code calls them.
//! * [`mixed`] — the driver tying it together for whole mixed-language
//!   files: extract, transform, interpret or splice.

#![forbid(unsafe_code)]

#[cfg(test)] // The emitted fixtures the tests compile in name the crate.
extern crate self as junicon;

pub mod annot;
pub mod ast;
pub mod emit;
pub mod fmt;
pub mod interp;
pub mod lex;
mod lower;
pub mod mixed;
pub mod normalize;
pub mod parse;
pub mod prim;
pub mod resolve;
pub mod rt;

pub use annot::{parse_annotated, Segment};
pub use interp::Interp;
