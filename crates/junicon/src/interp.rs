//! The interpreter over the `gde` runtime.
//!
//! This is the interactive half of the paper's harness (the Groovy path of
//! Sec. VI): embedded Junicon text is parsed, normalized, resolved and
//! *lowered once per procedure* to a plan (`junicon::lower`), defined as
//! the [`rt::Def`] an emitted module makes for it. A call binds its
//! parameters and instantiates the plan as a tree of [`gde::Gen`]
//! combinators, which is then driven like any other generator (a call site
//! calling the same procedure again re-runs that tree in place unless a
//! name was declared in the procedure's scope or a `::` native registered
//! since the tree was built: one generation check, `rt::invoke`). Because
//! the whole combinator tree is suspendable, `suspend` works anywhere in a
//! procedure body — including inside `while`/`every` loops (as Fig. 4's
//! `chunk` requires) — without any threads, exactly the property the paper
//! claims for its kernel ("implement it without multithreading", Sec. VIII).
//!
//! Procedure-body control flow (`return`, `fail`, `break`, `next`) runs on
//! shared atomic flags checked by the enclosing statement sequences and
//! loops, mirroring how the paper's `IconIterator` kernel threads failure
//! through composed iterators.

mod builtins;

use crate::lower::{define, lower_expr, lower_toplevel};
use crate::normalize::normalize_program;
use crate::parse::{parse_expr, parse_program, ParseError};
use crate::resolve::resolve_program;
use crate::rt;
use gde::env::Env;
use gde::{BoxGen, Gen, GenExt, ProcValue, Step, Value};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub(crate) struct Shared {
    pub globals: Env,
    /// Completed lines produced by `write`, captured for tests and REPLs.
    pub output: Mutex<Vec<String>>,
    /// Text written by `writes` awaiting its line terminator.
    pub pending: Mutex<String>,
    /// Also echo writes to stdout.
    pub echo: AtomicBool,
}

/// The Junicon interpreter: loads embedded programs, registers host
/// procedures and native methods, evaluates expressions to generators.
///
/// Every handle (`Interp` is `Clone`) and every generator returned by
/// [`Interp::gen`] shares one session. When the last of them is dropped
/// the session ends and the interpreter is freed. Values taken out of an
/// interpreter (procedures, objects, co-expressions) keep working while a
/// handle to it, or a generator from it, is alive. Cycles a program builds
/// out of lists or tables (`put(L, L)`) are not collected.
#[derive(Clone)]
pub struct Interp {
    session: Arc<Session>,
}

/// An interpreter's lifetime. Builtins capture `Arc<Shared>`, never the
/// session (that would be a cycle), and the globals hold the builtins,
/// procedures and `::` natives; an object holds itself as `self`, and the
/// globals adopt its field frame (`rt::class`). Ending the session clears
/// the globals, and with them every frame they adopted, which breaks both
/// cycles.
struct Session(Arc<Shared>);

impl Drop for Session {
    fn drop(&mut self) {
        self.0.globals.clear();
    }
}

/// A generator from [`Interp::gen`] with a hold on its session. Fields
/// drop in order, so the generator is gone before the session can end.
struct SessionGen {
    gen: BoxGen,
    _session: Arc<Session>,
}

impl Gen for SessionGen {
    fn resume(&mut self) -> Step {
        self.gen.resume()
    }
    fn restart(&mut self) {
        self.gen.restart()
    }
    fn rebind(&mut self, v: &Value) -> bool {
        self.gen.rebind(v)
    }
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
            output: Mutex::new(Vec::new()),
            pending: Mutex::new(String::new()),
            echo: AtomicBool::new(false),
        });
        let interp = Interp {
            session: Arc::new(Session(shared)),
        };
        builtins::install(&interp);
        interp
    }

    /// Echo `write` output to stdout as well as capturing it.
    pub fn with_echo(self, echo: bool) -> Interp {
        self.shared().echo.store(echo, Ordering::Relaxed);
        self
    }

    /// The global environment (host code may pre-set variables).
    pub fn globals(&self) -> &Env {
        &self.shared().globals
    }

    /// Register a host procedure callable as `name(args)` from embedded
    /// code — the interop path by which "native types can be transparently
    /// passed to and from Unicon".
    pub fn register_proc(&self, p: ProcValue) {
        let name = p.name().to_string();
        self.globals().declare(&name, Value::Proc(p));
    }

    /// Register a native `::` method (e.g. `this::wordToNumber(w)`): one
    /// [`rt::declare_native`] in the globals, as an emitted module's host
    /// declares it.
    ///
    /// A `::` call is bound to its native when the activation holding it is
    /// built, so a native registered after a call started is seen from the
    /// next call on (and by expressions compiled after it): registering
    /// declares a name in the globals, so no call site re-runs an
    /// activation built before it.
    pub fn register_native(
        &self,
        name: &str,
        f: impl Fn(&Value, &[Value]) -> Option<Value> + Send + Sync + 'static,
    ) {
        rt::declare_native(self.globals(), name, f);
    }

    /// Captured `write`/`writes` output so far (a trailing unterminated
    /// `writes` line is included as the final entry).
    pub fn output(&self) -> Vec<String> {
        let mut lines = self.shared().output.lock().clone();
        let pending = self.shared().pending.lock();
        if !pending.is_empty() {
            lines.push(pending.clone());
        }
        lines
    }

    /// Clear the captured output.
    pub fn clear_output(&self) {
        self.shared().output.lock().clear();
        self.shared().pending.lock().clear();
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.session.0
    }

    /// Load an embedded program: each procedure and class declaration
    /// becomes an `rt::Def` (a class's by `rt::class`), which one
    /// `rt::install` registers as a global generator function or
    /// constructor; top-level statements are executed in order (each
    /// bounded, as at the outermost level of a program).
    pub fn load(&self, src: &str) -> Result<(), ParseError> {
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
    pub fn load_with_resolve(&self, src: &str, resolve: bool) -> Result<(), ParseError> {
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
        let globals = self.globals();
        let classes = nprog.classes.iter().map(|c| {
            let methods = c.methods.iter().map(define).collect();
            rt::class(&c.name, &c.slots[..], c.fields.len(), methods)
        });
        rt::install(globals, nprog.procs.iter().map(define).chain(classes));
        // Top-level statements: drive each once (bounded), like field
        // initializers / main in the paper's model.
        for stmt in lower_toplevel(nprog) {
            rt::drive(stmt.instantiate(globals));
        }
    }

    /// Compile a Junicon *expression* to a generator over the global
    /// environment — the `for (Object i : @<script>…@</script>)` interop
    /// of Fig. 3: the embedded expression "returns a generator, exposed as
    /// a Java Iterator".
    pub fn gen(&self, src: &str) -> Result<BoxGen, ParseError> {
        let expr = parse_expr(src)?;
        let (norm, tmp_count) = crate::normalize::normalize_expr(&expr);
        let plan = lower_expr(&norm, tmp_count);
        Ok(Box::new(SessionGen {
            gen: plan.instantiate(self.globals()),
            _session: Arc::clone(&self.session),
        }))
    }

    /// Evaluate an expression, returning *all* its results.
    pub fn eval(&self, src: &str) -> Result<Vec<Value>, ParseError> {
        Ok(self.gen(src)?.collect_values())
    }

    /// Evaluate an expression, returning its first result (or `None` on
    /// failure).
    pub fn eval_first(&self, src: &str) -> Result<Option<Value>, ParseError> {
        Ok(self.gen(src)?.next_value())
    }
}

#[cfg(test)]
mod tests;
