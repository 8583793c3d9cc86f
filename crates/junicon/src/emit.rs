//! The migration target: transpiling normalized Junicon to Rust source.
//!
//! This is the Sec. V/VI translator path, with Rust standing in for Java.
//! Emitted code makes exactly the constructor calls the interpreter makes,
//! because both read them off one plan (`junicon::lower`): this module is
//! the scaffolding of a generated module around `Plan::print` — compare
//! Fig. 5's translation of `spawnMap`, where the method body becomes a
//! constructor expression over `IconProduct`, `IconIn`, `IconCoExpression`,
//! `IconPromote` and `IconInvokeIterator`. The Rust analogues are
//! `rt::product`, `rt::bind`, `rt::pipe`, `rt::promote` and `rt::invoke`.
//!
//! A generated module is a set of functions:
//!
//! * `pub fn proc_<name>() -> Def` — one per procedure, one `Def::new`
//!   call: the name, the frame's slot names, the parameter, temporary and
//!   flag counts, whether a call site may re-run an activation, and the
//!   closure that builds an activation's tree over them (the "variadic
//!   lambda expressions that return an iterator" of Sec. V.C). It is the
//!   `rt::Def` the interpreter makes for the same procedure at load;
//! * `method_<class>_<name>()` and `class_<name>()` per class: each
//!   method's `Def::new` call, and the `rt::class` call over them;
//! * `pub fn install(globals: &Env)` — one `rt::install` over every
//!   procedure and class, the call `Interp::load` makes;
//! * `pub fn toplevel(globals: &Env)` — runs the region's top-level
//!   statements.
//!
//! Generated code needs the `gde` and `junicon` crates in scope, and
//! nothing else. A `::` call binds the native its host declared
//! (`rt::declare_native`, which `Interp::register_native` calls too) when
//! its activation is built. The fixtures under `tests/fixtures/` are
//! checked-in emissions that are both snapshot-compared against the
//! current emitter output *and* compiled and executed by the
//! `emitted_exec` integration test, so the generated code is proven to
//! compile and to agree with the interpreter.

use crate::lower::{lower, lower_toplevel, w};
use crate::normalize::{normalize_program, NClass, NProc, NProgram};
use crate::parse::{parse_program, ParseError};
use crate::resolve::resolve_program;
use std::fmt::Write;

/// Transpile a Junicon region to a Rust module. The program is
/// slot-resolved first, so emitted variable references use static
/// `(depth, slot)` frame coordinates wherever the resolve pass proved it
/// safe, and by-name lookup only for genuinely dynamic references.
pub fn emit_program_source(src: &str) -> Result<String, ParseError> {
    let prog = parse_program(src)?;
    let mut np = normalize_program(&prog);
    resolve_program(&mut np);
    Ok(emit_program(&np))
}

/// Emit a normalized program as Rust source, in a string whose capacity is
/// its length: a caller may keep many.
pub fn emit_program(p: &NProgram) -> String {
    let mut out = String::from(HEADER);
    for proc in &p.procs {
        proc_into(&mut out, "proc_", proc);
    }
    for class in &p.classes {
        class_into(&mut out, class);
    }
    out.push_str("pub fn install(globals: &Env) {");
    if !(p.procs.is_empty() && p.classes.is_empty()) {
        out.push_str("\n    rt::install(globals, [");
        let procs = p.procs.iter().map(|p| ("proc_", &p.name[..]));
        let classes = p.classes.iter().map(|c| ("class_", &c.name[..]));
        calls(&mut out, procs.chain(classes));
        out.push_str("]);\n");
    }
    out.push_str("}\n\npub fn toplevel(globals: &Env) {");
    let stmts = lower_toplevel(p);
    if !stmts.is_empty() {
        out.push_str("\n    let env = globals.clone();\n");
        for stmt in stmts {
            out.push_str("    rt::drive({\n");
            stmt.print(&mut out, 2);
            out.push_str("    });\n");
        }
    }
    out.push_str("}\n");
    out.shrink_to_fit();
    out
}

const HEADER: &str = "\
// Generated by junicon::emit — do not edit.
#![allow(unused, nonstandard_style, clippy::all)]

use gde::{env::Env, Value};
use junicon::rt::{self, Def, Slot::*};

";

/// `pub fn <prefix><name>() -> Def {`: a definition's function, opened.
fn def_fn(out: &mut String, prefix: &str, name: &str) {
    w!(out, "pub fn {prefix}");
    ident(out, name);
    out.push_str("() -> Def {\n    ");
}

/// One procedure or method, `<prefix><name>`: its `Def::new` call over the
/// printed plan of its body.
fn proc_into(out: &mut String, prefix: &str, p: &NProc) {
    def_fn(out, prefix, &p.name);
    let (name, slots, arity) = (&p.name, &p.slots, p.params.len());
    w!(out, "Def::new({name:?}, {slots:?}, {arity}, ");
    lower(p).print_proc(out, 1);
    out.push_str(")\n}\n\n");
}

/// One class: a `method_<class>_<name>` per method, then `class_<class>`,
/// one `rt::class` call over their definitions.
fn class_into(out: &mut String, c: &NClass) {
    let mut prefix = String::from("method_");
    ident(&mut prefix, &c.name);
    prefix.push('_');
    for m in &c.methods {
        proc_into(out, &prefix, m);
    }
    let (name, slots, fields) = (&c.name, &c.slots, c.fields.len());
    def_fn(out, "class_", name);
    w!(out, "rt::class({name:?}, {slots:?}, {fields}, vec![");
    calls(out, c.methods.iter().map(|m| (&prefix[..], &m.name[..])));
    out.push_str("])\n}\n\n");
}

/// A call `<prefix><name>()` per item, comma-separated.
fn calls<'a>(out: &mut String, items: impl Iterator<Item = (&'a str, &'a str)>) {
    for (k, (prefix, name)) in items.enumerate() {
        w!(out, "{}{prefix}", if k > 0 { ", " } else { "" });
        ident(out, name);
        out.push_str("()");
    }
}

/// `name` as a Rust identifier: each character that cannot be one becomes `_`.
fn ident(out: &mut String, name: &str) {
    let safe = |c: char| if c.is_ascii_alphanumeric() { c } else { '_' };
    out.extend(name.chars().map(safe));
}

/// The Junicon sources of the executed fixtures.
#[cfg(test)]
#[path = "../tests/fixtures/sources.rs"]
mod fixture_sources;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_a_module_with_install_and_toplevel() {
        let src = "def f(x) { return x + 1; }\nwrite(f(1));";
        let code = emit_program_source(src).unwrap();
        assert!(code.contains("pub fn proc_f() -> Def {"));
        assert!(
            code.contains("pub fn install(globals: &Env) {\n    rt::install(globals, [proc_f()]);")
        );
        assert!(code.contains("pub fn toplevel(globals: &Env)"));
        assert!(code.contains("::add, Cell(env.slot(0, 0)) /* x */, Const(Value::from(1i64)))"));
        // The one top-level statement is an activation of its own.
        assert_eq!(code.matches("rt::drive({").count(), 1);
        // Without statements or procedures, the two functions are empty.
        let code = emit_program_source("").unwrap();
        assert!(code
            .ends_with("pub fn install(globals: &Env) {}\n\npub fn toplevel(globals: &Env) {}\n"));
    }

    #[test]
    fn spawnmap_emission_mirrors_figure5() {
        // The paper's Fig. 5 example:
        //   def spawnMap (f, chunk) { suspend ! (|> f(!chunk)); }
        let src = "def spawnMap(f, chunk) { suspend ! (|> f(!chunk)); }";
        let code = emit_program_source(src).unwrap();
        // The translation must contain: the variadic procedure, reified
        // parameters, a pipe over a shadowed environment (IconCoExpression
        // ... createPipe()), promotion (IconPromote) and deferred invocation
        // (IconInvokeIterator).
        assert!(code.contains("proc_spawnMap"));
        // Parameters are slot-resolved: a shared layout per procedure,
        // slot 0 = f, slot 1 = chunk, both bound from the arguments; two
        // temporaries and the return flag per call, and no re-run (the
        // pipe captures the environment).
        assert!(code.contains(
            "Def::new(\"spawnMap\", [\"f\", \"chunk\"], 2, 2, 1, false, |env, tmps, flags| "
        ));
        assert!(
            code.contains("rt::pipe(&env, |env| {"),
            "the pipe body is its own activation"
        );
        assert!(code.contains("rt::promote("));
        assert!(code.contains("rt::invoke("));
        assert!(
            code.contains("rt::product("),
            "flattening produced a product"
        );
    }

    #[test]
    fn resolved_products_print_as_products_of_bound_iterators() {
        // `(1 to n) * 2` flattens to (t0 in 1 to n) & t0 * 2 (Sec. V): one
        // product whose first link binds the range, however static the
        // operands of the later links are.
        let code = emit_program_source("def f(n) { suspend (1 to n) * 2; }").unwrap();
        let product = code.find("rt::product(vec![").expect(&code);
        let bind = code.find("rt::bind(tmps[0].clone()").expect(&code);
        let times = code
            .find("::mul, Cell(tmps[0].clone()), Const(")
            .expect(&code);
        assert!(product < bind && bind < times, "{code}");
        assert!(!code.contains("comb::fuse::"), "no fused node:\n{code}");
    }

    #[test]
    fn loops_emit_runtime_nodes() {
        let code =
            emit_program_source("def f(n) { while n > 0 do { suspend n; n := n - 1; }; }").unwrap();
        assert!(code.contains("rt::while_do"));
        assert!(code.contains("rt::mute_once"));
        assert!(code.contains("rt::stmt_seq"));
    }

    #[test]
    fn break_next_use_loop_flags() {
        // Flag 0 is the return flag; each loop owns the next pair.
        let code = emit_program_source(
            "def f() { while 1 do { break; }; every x := 1 to 3 do { next; }; }",
        )
        .unwrap();
        assert!(code.contains("Def::new(\"f\", [], 0, 1, 5, true, |env, tmps, flags| "));
        assert!(code.contains("rt::flag_fail(flags[1].clone())"));
        assert!(code.contains("rt::flag_fail(flags[4].clone())"));
        assert!(code.contains("rt::every_do"));
    }

    #[test]
    fn nested_loops_get_distinct_flags() {
        let code = emit_program_source(
            "def f() { every i := 1 to 2 do { every j := 1 to 2 do { break; }; }; }",
        )
        .unwrap();
        assert!(code.contains("rt::flag_fail(flags[3].clone())"));
        // The inner loop aborts on the outer loop's flags as well.
        assert!(code.contains("vec![flags[0].clone(), flags[1].clone(), flags[2].clone()],\n"));
    }

    #[test]
    fn deferred_bodies_see_no_enclosing_loop() {
        // The co-expression body is an activation of its own: its `break`
        // has no flag to raise, and it allocates its own flags.
        let code =
            emit_program_source("def f() { every i := 1 to 2 do { c := <> { break; i }; }; }")
                .unwrap();
        assert!(code.contains("rt::co_create(&env, |env| {"));
        assert!(!code.contains("rt::flag_fail("), "{code}");
        assert!(code.contains("let flags = rt::flags(1);"));
    }

    #[test]
    fn big_literals_emit_a_parsed_slot() {
        let code = emit_program_source("x := 123456789012345678901234567890;").unwrap();
        assert!(code.contains("rt::slot_big(\"123456789012345678901234567890\")"));
    }

    #[test]
    fn native_invoke_emits_rt_dispatch() {
        let code = emit_program_source("def f(l) { return l::split(\" \"); }").unwrap();
        let call = "rt::native(&env, \"split\", Cell(env.slot(0, 0)) /* l */, vec![Const(Value::str(\" \"))])";
        assert!(code.contains(call), "{code}");
    }

    #[test]
    fn emitted_text_carries_no_growth_slack() {
        use super::fixture_sources::*;
        for src in [
            SPAWNMAP_SRC,
            COUNTDOWN_SRC,
            PRIMS_SRC,
            FIG4_SRC,
            CLASSES_SRC,
        ] {
            let mut np = normalize_program(&parse_program(src).unwrap());
            resolve_program(&mut np);
            let code = emit_program(&np);
            assert_eq!(code.capacity(), code.len(), "{src}");
        }
    }

    #[test]
    fn emitted_code_is_deterministic() {
        let src = "def g(n) { suspend (1 to n) * 2; }";
        let a = emit_program_source(src).unwrap();
        let b = emit_program_source(src).unwrap();
        assert_eq!(a, b);
    }
}
