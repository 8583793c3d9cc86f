//! Static resolution: variable references → `(depth, slot)` coordinates.
//!
//! This pass runs after [`crate::normalize`] and before interpretation or
//! emission. It rewrites [`Atom::Var`] / [`VarRef::Named`] references whose
//! binding is statically known into [`Atom::Slot`] / [`VarRef::Slot`]
//! coordinates addressing the activation frame directly
//! ([`gde::env::Env::slot`]: two pointer hops, no hashing, no frame lock),
//! and records each procedure's frame shape in [`NProc::slots`] so the
//! interpreter / emitter can allocate the frame as a flat slot array.
//!
//! # What resolves, what stays by-name
//!
//! A reference is rewritten only when it provably binds the same cell the
//! unresolved interpreter would bind. The unresolved interpreter binds
//! cells **at compile time, in pre-order**, via `lookup_or_declare`
//! against a frame whose contents are: the parameters (declared at
//! invocation), plus every `local` declaration compiled so far (`Decl`
//! declares at compile time). That gives the following rules, checked per
//! procedure:
//!
//! * **Parameters** always occupy slots `0..params.len()` — they exist
//!   before any reference compiles, so every main-stream reference to a
//!   parameter binds it (until shadowed by a later `local` of the same
//!   name, which gets its *own fresh slot*, exactly as re-`declare` used
//!   to create a fresh cell).
//! * **Fields** (methods only): the enclosing field frame is laid out as
//!   `NClass::slots` says, `[fields..., methods..., "self"]`; a method-body
//!   reference to a field, a sibling method or `self` that is not (yet)
//!   shadowed by a method-local declaration resolves to depth 1.
//! * **`local` declarations** on the main compile stream get a fresh
//!   depth-0 slot each; references after the declaration resolve to the
//!   latest slot.
//! * **Everything else stays by-name** — these are the *genuinely dynamic*
//!   references: globals and implicit locals (whether the name exists in
//!   an outer frame is only known at invocation time), `&`-keywords,
//!   references inside deferred bodies, and anything poisoned below.
//!
//! # Poisoning
//!
//! Two situations force a name to keep by-name semantics for the whole
//! procedure (no slots at all), because a slot in the frame layout is
//! visible to by-name lookup *from frame birth*, while the unresolved
//! interpreter only sees a local cell once its `Decl` has compiled:
//!
//! * a main-stream **use before the first main-stream declaration** of a
//!   non-parameter, non-field name — the unresolved interpreter would have
//!   bound a global (or sprung an implicit local); a layout slot would
//!   shadow it too early;
//! * a declaration inside a **deferred body** (`<>e` / `|<>e` / `|>e`
//!   bodies compile at co-expression creation time, not on the main
//!   stream) — such declarations must create fresh overlay cells per
//!   creation, which slots cannot model.
//!
//! References *inside* deferred bodies are always left by-name: they bind
//! at creation time, after every main-stream declaration has executed, and
//! the by-name fallback (overlay → latest layout slot → parent) reproduces
//! that binding exactly — including against [`gde::env::Env::shadow`]
//! copies, which preserve the layout.

use crate::normalize::{Atom, NProc, NProgram, Norm, Part, VarRef};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Resolve every procedure and class method in the program. Top-level
/// statements run directly in the global frame (the REPL frame) and are
/// left fully dynamic.
pub fn resolve_program(p: &mut NProgram) {
    for proc in &mut p.procs {
        resolve_proc(proc, &HashMap::new());
    }
    for class in &mut p.classes {
        // Duplicates resolve to the last occurrence, as `FrameLayout` has it.
        let fields = class.slots.iter().cloned().zip(0..).collect();
        for method in &mut class.methods {
            resolve_proc(method, &fields);
        }
    }
}

/// Resolve one procedure under the depth-1 coordinates `fields`: the
/// enclosing field frame's for a method, none for a procedure.
pub fn resolve_proc(proc: &mut NProc, fields: &HashMap<Arc<str>, u16>) {
    // Pass 1: find poisoned names.
    let mut scan = PoisonScan {
        declared: proc.params.iter().cloned().collect(),
        fields,
        poisoned: HashSet::new(),
    };
    for stmt in &proc.body {
        scan.walk(stmt, false);
    }
    let poisoned = scan.poisoned;

    // Pass 2: rewrite references in pre-order, assigning slots.
    let mut rs = Resolver {
        slots: proc.slots[..proc.params.len()].to_vec(),
        current: proc.params.iter().cloned().zip(0..).collect(),
        fields,
        poisoned: &poisoned,
    };
    for stmt in &mut proc.body {
        rs.walk(stmt);
    }
    proc.slots = rs.slots;
}

// ---------------------------------------------------------------------------
// Pass 1: poisoning scan
// ---------------------------------------------------------------------------

struct PoisonScan<'a> {
    /// Names known to be bound in the frame at the current pre-order
    /// point: parameters, plus main-stream declarations seen so far.
    declared: HashSet<String>,
    fields: &'a HashMap<Arc<str>, u16>,
    poisoned: HashSet<String>,
}

impl PoisonScan<'_> {
    fn use_of(&mut self, name: &str, deferred: bool) {
        if deferred || name.starts_with('&') {
            return; // deferred uses bind late, by name — never poison
        }
        if !self.declared.contains(name) && !self.fields.contains_key(name) {
            // Use before first main-stream declaration of a non-param,
            // non-field name: binding is only known at invocation time.
            self.poisoned.insert(name.to_string());
        }
    }

    fn decl_of(&mut self, name: &str, deferred: bool) {
        if deferred {
            // Declarations in deferred bodies need fresh overlay cells per
            // co-expression creation; the whole name stays dynamic.
            self.poisoned.insert(name.to_string());
        } else {
            self.declared.insert(name.to_string());
        }
    }

    fn walk(&mut self, n: &Norm, deferred: bool) {
        n.parts(|part| match part {
            Part::Read(Atom::Var(name)) => self.use_of(name, deferred),
            Part::Read(_) => {}
            Part::Target(t) => self.use_of(t.name(), deferred),
            // The unresolved interpreter declares the name *before*
            // compiling the initializer, which follows as a child.
            Part::Decl(t) => self.decl_of(t.name(), deferred),
            Part::Child(c) => self.walk(c, deferred),
            Part::Deferred(body) => self.walk(body, true),
        })
    }
}

// ---------------------------------------------------------------------------
// Pass 2: rewrite
// ---------------------------------------------------------------------------

struct Resolver<'a> {
    /// Frame layout under construction: slot index → name.
    slots: Vec<Arc<str>>,
    /// Name → depth-0 slot it binds at the current pre-order point.
    current: HashMap<String, u16>,
    fields: &'a HashMap<Arc<str>, u16>,
    poisoned: &'a HashSet<String>,
}

impl Resolver<'_> {
    /// The coordinate a main-stream use of `name` binds, if static, with
    /// the slot's shared name.
    fn coord_of(&self, name: &str) -> Option<(u16, u16, Arc<str>)> {
        if name.starts_with('&') || self.poisoned.contains(name) {
            return None;
        }
        if let Some(&idx) = self.current.get(name) {
            return Some((0, idx, self.slots[idx as usize].clone()));
        }
        // Not (yet) a frame local: an unshadowed field reference.
        let (field, &idx) = self.fields.get_key_value(name)?;
        Some((1, idx, field.clone()))
    }

    fn atom(&mut self, a: &mut Atom) {
        if let Atom::Var(name) = a {
            if let Some((depth, idx, name)) = self.coord_of(name) {
                *a = Atom::Slot(depth, idx, name);
            }
        }
    }

    fn target(&mut self, t: &mut VarRef) {
        if let VarRef::Named(name) = t {
            if let Some((depth, idx, name)) = self.coord_of(name) {
                *t = VarRef::Slot(depth, idx, name);
            }
        }
    }

    /// A main-stream declaration: a fresh depth-0 slot (re-declarations
    /// shadow earlier slots of the same name, as re-`declare` used to
    /// replace the cell).
    fn declare(&mut self, t: &mut VarRef) {
        let name = t.name();
        if self.poisoned.contains(name) {
            return; // stays VarRef::Named → dynamic overlay cell
        }
        let idx = self.slots.len() as u16;
        self.current.insert(name.to_string(), idx);
        let name: Arc<str> = Arc::from(name);
        self.slots.push(name.clone());
        *t = VarRef::Slot(0, idx, name);
    }

    fn walk(&mut self, n: &mut Norm) {
        n.parts_mut(|part| match part {
            Part::Read(a) => self.atom(a),
            Part::Target(t) => self.target(t),
            // Declared before its initializer resolves, so `local x := x + 1`
            // reads the *new* cell, as in the unresolved interpreter.
            Part::Decl(t) => self.declare(t),
            Part::Child(c) => self.walk(c),
            // Deferred bodies stay fully by-name (see module docs).
            Part::Deferred(_) => {}
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize_program;
    use crate::parse::parse_program;

    fn resolved(src: &str) -> NProgram {
        let mut np = normalize_program(&parse_program(src).unwrap());
        resolve_program(&mut np);
        np
    }

    /// Collect every (depth, idx, name) slot reference in a node tree.
    fn slot_refs(n: &Norm, out: &mut Vec<(u16, u16, String)>) {
        n.parts(|part| match part {
            Part::Read(Atom::Slot(d, i, s))
            | Part::Target(VarRef::Slot(d, i, s))
            | Part::Decl(VarRef::Slot(d, i, s)) => out.push((*d, *i, s.to_string())),
            Part::Read(_) | Part::Target(_) | Part::Decl(_) => {}
            Part::Child(c) | Part::Deferred(c) => slot_refs(c, out),
        })
    }

    fn slot_names(p: &NProc) -> Vec<&str> {
        p.slots.iter().map(|s| &**s).collect()
    }

    fn proc_slot_refs(p: &NProc) -> Vec<(u16, u16, String)> {
        let mut out = Vec::new();
        p.body.iter().for_each(|s| slot_refs(s, &mut out));
        out
    }

    #[test]
    fn params_become_depth0_slots() {
        let np = resolved("def f(a, b) { return a + b; }");
        let p = &np.procs[0];
        assert_eq!(slot_names(p), ["a", "b"]);
        let refs = proc_slot_refs(p);
        assert!(refs.contains(&(0, 0, "a".into())));
        assert!(refs.contains(&(0, 1, "b".into())));
    }

    #[test]
    fn locals_get_fresh_slots_after_params() {
        let np = resolved(
            "def f(n) { local acc := 0; every i := 1 to n do acc := acc + 1; return acc; }",
        );
        let p = &np.procs[0];
        // n = slot 0, acc = slot 1; `i` is an implicit local (dynamic).
        assert_eq!(slot_names(p), ["n", "acc"]);
        let refs = proc_slot_refs(p);
        assert!(refs.contains(&(0, 1, "acc".into())));
        assert!(!refs.iter().any(|(_, _, s)| s == "i"));
    }

    #[test]
    fn redeclaration_gets_a_fresh_slot() {
        let np = resolved("def f(x) { suspend x; local x := 2; suspend x; }");
        let p = &np.procs[0];
        assert_eq!(slot_names(p), ["x", "x"]);
        let refs = proc_slot_refs(p);
        // First suspend reads the parameter slot, second the local slot.
        assert!(refs.contains(&(0, 0, "x".into())));
        assert!(refs.contains(&(0, 1, "x".into())));
    }

    #[test]
    fn use_before_decl_poisons() {
        // `y` is used before its declaration: must stay fully dynamic.
        let np = resolved("def f() { suspend y; local y := 1; suspend y; }");
        let p = &np.procs[0];
        assert!(p.slots.is_empty());
        assert!(proc_slot_refs(p).is_empty());
    }

    #[test]
    fn globals_stay_by_name() {
        let np = resolved("def f(x) { return g(x); }");
        let p = &np.procs[0];
        let refs = proc_slot_refs(p);
        assert!(!refs.iter().any(|(_, _, s)| s == "g"));
    }

    #[test]
    fn deferred_bodies_stay_by_name() {
        let np = resolved("def f(x) { local c := <> (x + 1); return c; }");
        let p = &np.procs[0];
        // `x` inside the co-expression body is untouched; the outer
        // `return c` resolves.
        assert_eq!(slot_names(p), ["x", "c"]);
        let refs = proc_slot_refs(p);
        assert!(refs.contains(&(0, 1, "c".into())));
        assert!(
            !refs.contains(&(0, 0, "x".into())),
            "x only occurs inside the deferred body and must stay by-name"
        );
    }

    #[test]
    fn decl_inside_deferred_body_poisons() {
        let np = resolved("def f() { local y := 1; local c := <> { local y := 2; y }; return y; }");
        let p = &np.procs[0];
        assert!(
            !slot_names(p).contains(&"y"),
            "y is declared in a deferred body and must stay dynamic, slots: {:?}",
            p.slots
        );
    }

    #[test]
    fn method_field_refs_resolve_to_depth1() {
        let np = resolved(
            "class Point(x, y) { def getx() { return x; } def setx(v) { x := v; getx(); return self; } }",
        );
        let class = &np.classes[0];
        let getx = &class.methods[0];
        let refs = proc_slot_refs(getx);
        assert!(
            refs.contains(&(1, 0, "x".into())),
            "field x at depth 1: {refs:?}"
        );
        let setx = &class.methods[1];
        let refs = proc_slot_refs(setx);
        assert!(refs.contains(&(1, 0, "x".into())));
        // The methods follow the fields, and `self` is the last slot.
        assert!(refs.contains(&(1, 2, "getx".into())), "{refs:?}");
        assert!(refs.contains(&(1, 4, "self".into())));
    }

    #[test]
    fn method_local_shadows_field_after_decl() {
        let np = resolved("class C(x) { def m() { suspend x; local x := 1; suspend x; } }");
        let m = &np.classes[0].methods[0];
        let refs = proc_slot_refs(m);
        // Before the decl: the field (depth 1); after: the local (depth 0).
        assert!(refs.contains(&(1, 0, "x".into())));
        assert!(refs.contains(&(0, 0, "x".into())));
    }

    #[test]
    fn toplevel_statements_are_untouched() {
        let np = resolved("x := 1; write(x + 1);");
        for s in &np.stmts {
            let mut refs = Vec::new();
            slot_refs(s, &mut refs);
            assert!(refs.is_empty(), "top level must stay dynamic: {refs:?}");
        }
    }

    #[test]
    fn keywords_stay_by_name() {
        let np = resolved("def f(s) { return s ? &subject; }");
        let refs = proc_slot_refs(&np.procs[0]);
        assert!(!refs.iter().any(|(_, _, n)| n.starts_with('&')));
    }
}
