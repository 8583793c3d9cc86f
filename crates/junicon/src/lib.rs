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
//!   slotted IR ──[interp]──► gde combinator trees (executable)
//!             └─[emit]────► Rust source targeting the gde runtime
//!                  ▲ both ask [prim] what a primitive means / how it is spelled
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
//!   operands is one row giving the function the interpreter calls and the
//!   Rust path the emitter prints, derived from one token.
//! * [`resolve`] — the slot-resolution pass: assigns declared variables
//!   static `(depth, slot)` frame coordinates so the executors address
//!   frames by index instead of hashing names, with a conservative
//!   poisoning analysis keeping genuinely dynamic references by-name.
//! * [`interp`] — a tree-walking evaluator over the [`gde`] runtime with
//!   suspendable procedure bodies (so `suspend` works inside loops without
//!   threads, as the paper's kernel does).
//! * [`emit`] — the migration target: emits Rust source that builds the
//!   same combinator trees (the Fig. 5 analogue), snapshot-tested.
//! * [`mixed`] — the driver tying it together for whole mixed-language
//!   files: extract, transform, interpret or splice.

pub mod annot;
pub mod ast;
pub mod emit;
pub mod fmt;
pub mod interp;
pub mod lex;
pub mod mixed;
pub mod normalize;
pub mod parse;
pub mod prim;
pub mod resolve;
pub mod rt;

pub use annot::{parse_annotated, Segment};
pub use interp::Interp;
