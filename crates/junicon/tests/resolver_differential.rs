//! Differential property suite for the resolve pass.
//!
//! Slot resolution (`junicon::resolve`) is a pure optimization: a resolved
//! program must be observationally identical to the same program
//! interpreted entirely by name (the pre-resolution interpreter, still
//! reachable via `Interp::load_with_resolve(src, false)`). This suite
//! generates random programs that exercise every binding regime the
//! resolver distinguishes — parameters, `local` declarations, shadowing
//! re-declarations, implicit locals sprung by assignment, loop variables,
//! globals, and co-expression bodies (deferred compilation, `@`
//! activation, `^` refresh) — and asserts both interpreters produce the
//! same result streams.
//!
//! A mutation sanity check at the bottom proves the oracle has teeth: an
//! off-by-one slot assignment injected into a resolved program is caught
//! as a divergence.

use junicon::Interp;
use tinyprop::prelude::*;

// ---------------------------------------------------------------------------
// Program generator
// ---------------------------------------------------------------------------
//
// Programs are rendered from a vector of small opcode tuples rather than a
// recursive AST strategy: the renderer tracks which names are in scope, so
// every generated program is valid by construction, and shrinking a vector
// of tuples shrinks the *program* statement by statement.

/// One statement recipe: (opcode, operand, var-pick, var-pick).
type Op = (u8, i64, u8, u8);

/// A small arithmetic expression over the names in scope.
///
/// `k` selects shape, `a`/`b` pick operands. Only `+`, `-` and `*`-by-
/// small-literal are generated: `gde::ops` promotes overflow to big
/// integers, and division/modulo would need zero-guards that add nothing
/// to binding behavior.
fn expr(vars: &[String], k: i64, a: u8, b: u8) -> String {
    let pick = |i: u8| -> String {
        if vars.is_empty() {
            ((i % 7) as i64).to_string()
        } else {
            match i as usize % (vars.len() + 3) {
                n if n < vars.len() => vars[n].clone(),
                n => ((n - vars.len()) as i64 + (k % 5).abs()).to_string(),
            }
        }
    };
    match k.rem_euclid(5) {
        0 => pick(a),
        1 => format!("({} + {})", pick(a), pick(b)),
        2 => format!("({} - {})", pick(a), pick(b)),
        3 => format!("({} * {})", pick(a), (k.rem_euclid(4)) + 1),
        _ => format!("({} - {})", pick(a), k.rem_euclid(9)),
    }
}

/// Render an opcode vector into a procedure body, tracking scope.
///
/// Returns the full program source (a global `g`, the procedure `f(a, b)`,
/// and a second procedure `h(v)` that `f` may call by global name).
fn render_program(ops: &[Op]) -> String {
    let mut vars: Vec<String> = vec!["a".into(), "b".into()];
    let mut body = String::new();
    let mut fresh = 0usize;
    let mut coexprs: Vec<String> = Vec::new();
    for &(code, k, x, y) in ops {
        let stmt = match code % 10 {
            // New local, initialized from anything in scope.
            0 => {
                fresh += 1;
                let name = format!("v{fresh}");
                let s = format!("local {name} := {};\n", expr(&vars, k, x, y));
                vars.push(name);
                s
            }
            // Shadowing re-declaration of an existing name (fresh slot;
            // the initializer must read the *new* cell's world).
            1 => {
                let name = vars[x as usize % vars.len()].clone();
                format!("local {name} := {};\n", expr(&vars, k, y, x))
            }
            // Plain assignment to an existing name.
            2 => {
                let name = vars[x as usize % vars.len()].clone();
                format!("{name} := {};\n", expr(&vars, k, y, x))
            }
            // Assignment to a not-yet-declared name: springs an implicit
            // local / global binding — poisoned, stays by-name.
            3 => {
                fresh += 1;
                let name = format!("w{fresh}");
                let s = format!("{name} := {};\n", expr(&vars, k, x, y));
                vars.push(name);
                s
            }
            // A bounded loop over a generated range, mutating a var.
            4 => {
                let tgt = vars[x as usize % vars.len()].clone();
                let i = format!("i{fresh}");
                fresh += 1;
                format!(
                    "every {i} := 1 to {} do {tgt} := ({tgt} + {i});\n",
                    (k.rem_euclid(4)) + 1
                )
            }
            // Conditional on an in-scope comparison.
            5 => {
                let tgt = vars[x as usize % vars.len()].clone();
                format!(
                    "if {} > {} then {tgt} := ({tgt} + 1) else {tgt} := ({tgt} - 1);\n",
                    expr(&vars, k, x, y),
                    expr(&vars, k.wrapping_add(1), y, x)
                )
            }
            // Suspend a value mid-procedure.
            6 => format!("suspend {};\n", expr(&vars, k, x, y)),
            // Read the global by name.
            7 => {
                let tgt = vars[x as usize % vars.len()].clone();
                format!("{tgt} := ({tgt} + g);\n")
            }
            // Call the sibling procedure through its global binding.
            8 => {
                let tgt = vars[x as usize % vars.len()].clone();
                format!("{tgt} := h({});\n", expr(&vars, k, x, y))
            }
            // Co-expression: deferred body capturing current frame;
            // activate now and once more after a mutation, then refresh.
            _ => {
                fresh += 1;
                let c = format!("c{fresh}");
                let e = expr(&vars, k, x, y);
                coexprs.push(c.clone());
                format!("local {c} := <> ({e});\nsuspend @{c};\n")
            }
        };
        body.push_str("  ");
        body.push_str(&stmt);
    }
    // Re-activate refreshed copies of every co-expression at the end: the
    // refresh recompiles the deferred body against the *final* frame
    // state, the regime where by-name and slot frames are most likely to
    // disagree if the resolver is wrong.
    for c in &coexprs {
        body.push_str(&format!("  suspend @(^{c});\n"));
    }
    body.push_str("  return (a + b);\n");
    format!(
        "g := 7;\n\
         def h(v) {{ return (v + 1); }}\n\
         def f(a, b) {{\n{body}}}\n"
    )
}

/// Evaluate `f(x, y)` under an interpreter loaded with or without the
/// resolve pass, rendering the full result stream (and captured `write`
/// output, if any) to a comparable string. A result cap guards against
/// pathological generators; both sides share it.
fn run(src: &str, resolve: bool, x: i64, y: i64) -> String {
    let i = Interp::new();
    i.load_with_resolve(src, resolve).expect("load");
    let mut gen = i.gen(&format!("f({x}, {y})")).expect("gen");
    let mut out = String::new();
    let mut n = 0;
    while let Some(v) = gde::GenExt::next_value(&mut gen) {
        out.push_str(&format!("{v:?};"));
        n += 1;
        if n > 64 {
            out.push_str("...cap");
            break;
        }
    }
    for line in i.output() {
        out.push_str(&format!("|{line}"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline property: resolved and by-name interpretation agree
    /// on the full result stream of a random procedure.
    #[test]
    fn resolved_and_unresolved_agree(
        ops in prop::collection::vec((0u8..=9, any::<i64>(), any::<u8>(), any::<u8>()), 0..12),
        x in -20i64..20,
        y in -20i64..20,
    ) {
        let src = render_program(&ops);
        let with = run(&src, true, x, y);
        let without = run(&src, false, x, y);
        prop_assert_eq!(with, without, "program:\n{}", src);
    }
}

// ---------------------------------------------------------------------------
// Targeted regressions (fixed programs for each binding regime)
// ---------------------------------------------------------------------------

fn assert_agree(src: &str, call: &str) {
    let a = {
        let i = Interp::new();
        i.load(src).unwrap();
        format!("{:?}", i.eval(call).unwrap())
    };
    let b = {
        let i = Interp::new();
        i.load_with_resolve(src, false).unwrap();
        format!("{:?}", i.eval(call).unwrap())
    };
    assert_eq!(a, b, "resolved vs by-name diverged for {src}");
}

#[test]
fn use_before_decl_binds_global_then_local() {
    // `y` is read before `local y` — the early read must see the global.
    assert_agree(
        "y := 100;\n def f() { suspend y; local y := 5; suspend y; }",
        "f()",
    );
}

#[test]
fn shadowing_redeclaration_is_a_fresh_cell() {
    assert_agree(
        "def f(x) { local d := <> x; local x := 9; suspend x; suspend @d; }",
        "f(3)",
    );
}

#[test]
fn refreshed_coexpr_rebinds_against_final_frame() {
    assert_agree(
        "def f(n) { local c := <> (n + 1); n := 40; suspend @c; suspend @(^c); }",
        "f(1)",
    );
}

#[test]
fn limit_bound_binds_before_the_limited_expression_declares() {
    // The bound `x` is the parameter: it is bound before the block's
    // `local x` exists, so one result, not as many as the local says.
    assert_agree(
        "def f(x) { suspend { local x := 3; x to 9 } \\ x; }",
        "f(1)",
    );
}

#[test]
fn implicit_local_stays_dynamic() {
    assert_agree("def f(a) { q := a + 1; q := q * 2; return q; }", "f(5)");
}

// ---------------------------------------------------------------------------
// Mutation sanity check: the oracle must catch a broken resolver
// ---------------------------------------------------------------------------

mod mutation {
    use junicon::normalize::{normalize_program, Atom, Norm, Part, VarRef};
    use junicon::parse::parse_program;
    use junicon::resolve::resolve_program;
    use junicon::Interp;

    /// Shift every depth-0 slot reference in a node tree by +1 (mod the
    /// frame width) — the classic off-by-one a slot-assigning resolver
    /// could commit.
    fn skew(n: &mut Norm, width: u16) {
        n.parts_mut(|part| match part {
            Part::Read(Atom::Slot(0, i, _))
            | Part::Target(VarRef::Slot(0, i, _))
            | Part::Decl(VarRef::Slot(0, i, _)) => *i = (*i + 1) % width,
            Part::Read(_) | Part::Target(_) | Part::Decl(_) => {}
            Part::Child(c) | Part::Deferred(c) => skew(c, width),
        })
    }

    #[test]
    fn off_by_one_slots_are_caught_by_the_differential_oracle() {
        let src = "def f(a, b) { return (a - b); }";
        let mut np = normalize_program(&parse_program(src).unwrap());
        resolve_program(&mut np);
        let slots: Vec<&str> = np.procs[0].slots.iter().map(|s| &**s).collect();
        assert_eq!(slots, ["a", "b"], "precondition");

        // Control: the honestly resolved program agrees with by-name.
        let honest = Interp::new();
        honest.load_normalized(&np);
        let byname = Interp::new();
        byname.load_with_resolve(src, false).unwrap();
        let call = "f(10, 3)";
        assert_eq!(
            format!("{:?}", honest.eval(call).unwrap()),
            format!("{:?}", byname.eval(call).unwrap()),
        );

        // Mutant: skew every depth-0 slot index by one. `a - b` becomes
        // `b - a`, which the oracle must flag as a divergence.
        let width = np.procs[0].slots.len() as u16;
        for stmt in &mut np.procs[0].body {
            skew(stmt, width);
        }
        let mutant = Interp::new();
        mutant.load_normalized(&np);
        assert_ne!(
            format!("{:?}", mutant.eval(call).unwrap()),
            format!("{:?}", byname.eval(call).unwrap()),
            "the differential oracle failed to catch an off-by-one slot assignment"
        );
    }
}
