//! Public runtime support for interpreted *and emitted* code.
//!
//! The paper's translation targets a small kernel of runtime classes
//! (`IconIterator`, `IconSequence`, `IconSuspend`, `IconFail`, … — see
//! Fig. 5). This module is that kernel's public face in the Rust
//! reproduction: the interpreter compiles onto it, and the [`crate::emit`]
//! transpiler generates Rust source that calls exactly the same
//! constructors, so interpreted and emitted programs share one semantics.

use gde::ops;
use gde::{BoxGen, Gen, GenExt, Step, Value, Var};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared control flag (procedure return, loop break/next).
pub type Flag = Arc<AtomicBool>;

/// A fresh, unset flag.
pub fn flag() -> Flag {
    Arc::new(AtomicBool::new(false))
}

/// A vector of fresh temporaries (the reified `x_N_r` cells of Fig. 5).
pub fn tmps(count: u32) -> Arc<Vec<Var>> {
    Arc::new((0..count).map(|_| Var::null()).collect())
}

/// A runtime operand slot: a constant or a variable cell — the reified
/// operand form every flattened expression reads through.
#[derive(Clone)]
pub enum Slot {
    Const(Value),
    Cell(Var),
    /// `&subject`: the innermost scanning environment's string.
    ScanSubject,
    /// `&pos`: the innermost scanning environment's position.
    ScanPos,
}

impl Slot {
    /// Current value of the slot.
    pub fn get(&self) -> Value {
        match self {
            Slot::Const(v) => v.clone(),
            Slot::Cell(var) => var.get(),
            Slot::ScanSubject => scan_top()
                .map(|f| Value::Str(f.subject))
                .unwrap_or(Value::Null),
            Slot::ScanPos => scan_top()
                .map(|f| Value::from(f.pos))
                .unwrap_or(Value::Null),
        }
    }

    /// Coerce the slot's value to an integer.
    pub fn to_i64(&self) -> Option<i64> {
        match gde::ops::to_num(&self.get())? {
            gde::ops::Num::Int(i) => Some(i),
            gde::ops::Num::Big(b) => b.to_i64(),
            gde::ops::Num::Real(r) => Some(r as i64),
        }
    }
}

/// Slot over a named variable in an environment.
pub fn slot_var(env: &gde::env::Env, name: &str) -> Slot {
    Slot::Cell(env.lookup_or_declare(name))
}

/// Slot over a resolved `(depth, slot)` frame coordinate — the fast path
/// emitted for statically-resolved variable references (no hashing, no
/// frame lock; see `gde::Env::slot`).
pub fn slot_at(env: &gde::env::Env, depth: usize, idx: usize) -> Slot {
    Slot::Cell(env.slot(depth, idx))
}

/// Slot over a temporary.
pub fn slot_tmp(tmps: &Arc<Vec<Var>>, i: u32) -> Slot {
    Slot::Cell(tmps[i as usize].clone())
}

/// Slot over a constant.
pub fn slot_const(v: Value) -> Slot {
    Slot::Const(v)
}

/// `*v`: the size as a value; fails for sizeless values.
pub fn size(v: &Value) -> Option<Value> {
    v.size().map(Value::from)
}

/// `[items…]`: list construction (never fails).
pub fn list(items: Vec<Value>) -> Option<Value> {
    Some(Value::list(items))
}

/// Field read `base.field`: objects read their field (or produce a bound
/// method); tables fall back to string-keyed lookup.
pub fn field_get(base: &Value, field: &str) -> Option<Value> {
    match base.deref() {
        Value::Object(o) => o
            .get_field(field)
            .or_else(|| o.method(field).map(Value::Proc)),
        Value::Table(_) => ops::index(&base.deref(), &Value::str(field)),
        _ => None,
    }
}

/// Field write `base.field := v`: objects must have the field declared;
/// tables insert under the string key.
pub fn field_set(base: &Value, field: &str, v: Value) -> Option<Value> {
    match base.deref() {
        Value::Object(o) => o.set_field(field, v),
        Value::Table(_) => ops::index_assign(&base.deref(), &Value::str(field), v),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Statement sequencing
// ---------------------------------------------------------------------------

/// Sequential statement driver: runs each statement generator to failure in
/// order, passing through suspended values; aborts early when any abort
/// flag (return / break / next) is raised.
pub struct StmtSeq {
    stmts: Vec<BoxGen>,
    pos: usize,
    aborts: Vec<Flag>,
}

/// Build a [`StmtSeq`].
pub fn stmt_seq(stmts: Vec<BoxGen>, aborts: Vec<Flag>) -> StmtSeq {
    StmtSeq {
        stmts,
        pos: 0,
        aborts,
    }
}

impl StmtSeq {
    fn aborted(&self) -> bool {
        self.aborts.iter().any(|f| f.load(Ordering::Relaxed))
    }
}

impl Gen for StmtSeq {
    fn resume(&mut self) -> Step {
        while self.pos < self.stmts.len() {
            if self.aborted() {
                return Step::Fail;
            }
            match self.stmts[self.pos].resume() {
                Step::Suspend(v) => return Step::Suspend(v),
                Step::Fail => self.pos += 1,
            }
        }
        Step::Fail
    }
    fn restart(&mut self) {
        for s in &mut self.stmts {
            s.restart();
        }
        self.pos = 0;
    }
}

/// Procedure-body root: a [`StmtSeq`] whose `returned` flag is reset on
/// restart (the `IconSequence(..., IconNullIterator, IconFail)` wrapper of
/// Fig. 5).
pub struct BodyRoot {
    seq: StmtSeq,
    returned: Flag,
}

/// Build a procedure body from statement generators and the return flag.
pub fn body_root(stmts: Vec<BoxGen>, returned: Flag) -> BodyRoot {
    BodyRoot {
        seq: stmt_seq(stmts, vec![returned.clone()]),
        returned,
    }
}

impl Gen for BodyRoot {
    fn resume(&mut self) -> Step {
        self.seq.resume()
    }
    fn restart(&mut self) {
        self.returned.store(false, Ordering::Relaxed);
        self.seq.restart();
    }
}

/// Bounded, silent evaluation of an expression statement.
pub struct MuteOnce {
    inner: BoxGen,
    done: bool,
}

/// Build a [`MuteOnce`].
pub fn mute_once(inner: BoxGen) -> MuteOnce {
    MuteOnce { inner, done: false }
}

impl Gen for MuteOnce {
    fn resume(&mut self) -> Step {
        if !self.done {
            self.done = true;
            let _ = self.inner.resume();
        }
        Step::Fail
    }
    fn restart(&mut self) {
        self.inner.restart();
        self.done = false;
    }
}

/// `return [e]`: yields the first value of `e` (or null for a bare
/// `return`), then raises the returned flag.
pub struct ReturnGen {
    value: Option<BoxGen>,
    returned: Flag,
    done: bool,
}

/// Build a [`ReturnGen`].
pub fn return_gen(value: Option<BoxGen>, returned: Flag) -> ReturnGen {
    ReturnGen {
        value,
        returned,
        done: false,
    }
}

impl Gen for ReturnGen {
    fn resume(&mut self) -> Step {
        if self.done {
            return Step::Fail;
        }
        self.done = true;
        let result = match &mut self.value {
            Some(g) => g.next_value(),
            None => Some(Value::Null),
        };
        self.returned.store(true, Ordering::Relaxed);
        match result {
            Some(v) => Step::Suspend(v),
            None => Step::Fail,
        }
    }
    fn restart(&mut self) {
        if let Some(g) = &mut self.value {
            g.restart();
        }
        self.done = false;
    }
}

/// `fail` / `break` / `next`: raise a flag and fail.
pub struct FlagFail {
    flag: Flag,
}

/// Build a [`FlagFail`].
pub fn flag_fail(flag: Flag) -> FlagFail {
    FlagFail { flag }
}

impl Gen for FlagFail {
    fn resume(&mut self) -> Step {
        self.flag.store(true, Ordering::Relaxed);
        Step::Fail
    }
    fn restart(&mut self) {}
}

// ---------------------------------------------------------------------------
// Loops
// ---------------------------------------------------------------------------

/// `while`/`until`/`repeat`: re-evaluates the bounded condition before each
/// pass, runs the body to completion, yields the body's suspensions.
pub struct LoopGen {
    cond: BoxGen,
    body: Option<BoxGen>,
    until: bool,
    in_pass: bool,
    returned: Flag,
    break_f: Flag,
    next_f: Flag,
    outer_loop: Option<(Flag, Flag)>,
}

/// Build a [`LoopGen`]. `until` inverts the condition test. `outer_loop`
/// carries the flags of the enclosing loop, if any, so that an outer
/// `break`/`next` raised mid-body also aborts this loop.
pub fn loop_gen(
    cond: BoxGen,
    body: Option<BoxGen>,
    until: bool,
    returned: Flag,
    break_f: Flag,
    next_f: Flag,
    outer_loop: Option<(Flag, Flag)>,
) -> LoopGen {
    LoopGen {
        cond,
        body,
        until,
        in_pass: false,
        returned,
        break_f,
        next_f,
        outer_loop,
    }
}

impl LoopGen {
    fn outer_abort(&self) -> bool {
        if self.returned.load(Ordering::Relaxed) {
            return true;
        }
        if let Some((b, n)) = &self.outer_loop {
            return b.load(Ordering::Relaxed) || n.load(Ordering::Relaxed);
        }
        false
    }
}

impl Gen for LoopGen {
    fn resume(&mut self) -> Step {
        loop {
            if self.outer_abort() || self.break_f.load(Ordering::Relaxed) {
                return Step::Fail;
            }
            if !self.in_pass {
                self.cond.restart();
                let succeeded = self.cond.next_value().is_some();
                if succeeded == self.until {
                    return Step::Fail;
                }
                self.in_pass = true;
                self.next_f.store(false, Ordering::Relaxed);
                if let Some(b) = &mut self.body {
                    b.restart();
                }
            }
            match &mut self.body {
                Some(b) => match b.resume() {
                    Step::Suspend(v) => {
                        if self.next_f.load(Ordering::Relaxed)
                            || self.break_f.load(Ordering::Relaxed)
                        {
                            self.in_pass = false;
                            continue;
                        }
                        return Step::Suspend(v);
                    }
                    Step::Fail => self.in_pass = false,
                },
                None => self.in_pass = false,
            }
        }
    }
    fn restart(&mut self) {
        self.cond.restart();
        if let Some(b) = &mut self.body {
            b.restart();
        }
        self.in_pass = false;
        self.break_f.store(false, Ordering::Relaxed);
        self.next_f.store(false, Ordering::Relaxed);
    }
}

/// `every source do body`: one body pass per source value.
pub struct EveryGen {
    source: BoxGen,
    body: Option<BoxGen>,
    in_pass: bool,
    returned: Flag,
    break_f: Flag,
    next_f: Flag,
    outer_loop: Option<(Flag, Flag)>,
}

/// Build an [`EveryGen`].
pub fn every_gen(
    source: BoxGen,
    body: Option<BoxGen>,
    returned: Flag,
    break_f: Flag,
    next_f: Flag,
    outer_loop: Option<(Flag, Flag)>,
) -> EveryGen {
    EveryGen {
        source,
        body,
        in_pass: false,
        returned,
        break_f,
        next_f,
        outer_loop,
    }
}

impl EveryGen {
    fn outer_abort(&self) -> bool {
        if self.returned.load(Ordering::Relaxed) {
            return true;
        }
        if let Some((b, n)) = &self.outer_loop {
            return b.load(Ordering::Relaxed) || n.load(Ordering::Relaxed);
        }
        false
    }
}

impl Gen for EveryGen {
    fn resume(&mut self) -> Step {
        loop {
            if self.outer_abort() || self.break_f.load(Ordering::Relaxed) {
                return Step::Fail;
            }
            if !self.in_pass {
                match self.source.resume() {
                    Step::Suspend(_) => {
                        self.in_pass = true;
                        self.next_f.store(false, Ordering::Relaxed);
                        if let Some(b) = &mut self.body {
                            b.restart();
                        }
                    }
                    Step::Fail => return Step::Fail,
                }
            }
            match &mut self.body {
                Some(b) => match b.resume() {
                    Step::Suspend(v) => {
                        if self.next_f.load(Ordering::Relaxed)
                            || self.break_f.load(Ordering::Relaxed)
                        {
                            self.in_pass = false;
                            continue;
                        }
                        return Step::Suspend(v);
                    }
                    Step::Fail => self.in_pass = false,
                },
                None => self.in_pass = false,
            }
        }
    }
    fn restart(&mut self) {
        self.source.restart();
        if let Some(b) = &mut self.body {
            b.restart();
        }
        self.in_pass = false;
        self.break_f.store(false, Ordering::Relaxed);
        self.next_f.store(false, Ordering::Relaxed);
    }
}

/// `e \ n` where `n` is re-read from its slot at each restart.
pub struct DynLimit {
    inner: BoxGen,
    n: Slot,
    remaining: Option<i64>,
}

/// Build a [`DynLimit`].
pub fn dyn_limit(inner: BoxGen, n: Slot) -> DynLimit {
    DynLimit {
        inner,
        n,
        remaining: None,
    }
}

impl Gen for DynLimit {
    fn resume(&mut self) -> Step {
        if self.remaining.is_none() {
            self.remaining = Some(self.n.to_i64().unwrap_or(0));
        }
        let rem = self.remaining.as_mut().expect("just set");
        if *rem <= 0 {
            return Step::Fail;
        }
        match self.inner.resume() {
            Step::Suspend(v) => {
                *rem -= 1;
                Step::Suspend(v)
            }
            Step::Fail => Step::Fail,
        }
    }
    fn restart(&mut self) {
        self.inner.restart();
        self.remaining = None;
    }
}

/// Reversible assignment `x <- e` (Sec. V.B's "optionally reversible"
/// iteration): the first resume saves the cell's value, assigns, and
/// suspends the new value; being resumed again — i.e. backtracked into —
/// restores the saved value and fails, undoing the binding.
pub struct RevSetGen {
    cell: Var,
    value: Slot,
    saved: Option<Value>,
}

/// Build a [`RevSetGen`].
pub fn rev_set(cell: Var, value: Slot) -> RevSetGen {
    RevSetGen {
        cell,
        value,
        saved: None,
    }
}

impl Gen for RevSetGen {
    fn resume(&mut self) -> Step {
        match self.saved.take() {
            None => {
                let new = self.value.get();
                self.saved = Some(self.cell.replace(new.clone()));
                Step::Suspend(new)
            }
            Some(old) => {
                self.cell.set(old);
                Step::Fail
            }
        }
    }
    fn restart(&mut self) {
        // A restart without an intervening backtrack abandons the undo:
        // the last committed value stands (matching Icon, where only
        // resumption-for-backtracking reverses the assignment).
        self.saved = None;
    }
}

// ---------------------------------------------------------------------------
// String scanning (s ? expr)
// ---------------------------------------------------------------------------

use std::cell::RefCell;

/// One scanning environment: the subject string and the 1-based position
/// (`&subject` / `&pos`), `1..=len+1`.
#[derive(Clone)]
pub struct ScanFrame {
    pub subject: std::sync::Arc<str>,
    pub pos: i64,
}

thread_local! {
    // Scanning environments nest per *thread*: a pipe producer scanning a
    // string does not disturb the consumer's scan.
    static SCAN: RefCell<Vec<ScanFrame>> = const { RefCell::new(Vec::new()) };
}

/// Push a new scanning environment with `&pos = 1`.
pub fn scan_push(subject: std::sync::Arc<str>) {
    SCAN.with(|s| s.borrow_mut().push(ScanFrame { subject, pos: 1 }));
}

/// Pop the innermost scanning environment.
pub fn scan_pop() {
    SCAN.with(|s| {
        s.borrow_mut().pop();
    });
}

/// Pop and return the innermost scanning environment (for suspension
/// save/restore).
pub fn scan_pop_frame() -> Option<ScanFrame> {
    SCAN.with(|s| s.borrow_mut().pop())
}

/// Re-establish a previously saved scanning environment.
pub fn scan_push_frame(frame: ScanFrame) {
    SCAN.with(|s| s.borrow_mut().push(frame));
}

/// The innermost scanning environment, if any.
pub fn scan_top() -> Option<ScanFrame> {
    SCAN.with(|s| s.borrow().last().cloned())
}

/// Set `&pos` in the innermost environment; fails (false) when out of the
/// valid range `1..=len+1` or when no scan is active.
pub fn scan_set_pos(pos: i64) -> bool {
    SCAN.with(|s| {
        let mut st = s.borrow_mut();
        match st.last_mut() {
            Some(frame) if pos >= 1 && pos <= frame.subject.chars().count() as i64 + 1 => {
                frame.pos = pos;
                true
            }
            _ => false,
        }
    })
}

/// The scanning generator `e1 ? e2`: evaluates the subject (bounded),
/// pushes a scanning environment, yields the body's results, and pops the
/// environment when the body fails. Restart pops any active frame and
/// starts over.
pub struct ScanGen {
    subject: BoxGen,
    body: BoxGen,
    active: bool,
    /// The scanning environment while this generator is suspended: Icon
    /// restores the *outer* environment at each suspension boundary and
    /// re-establishes the inner one on resumption.
    saved: Option<ScanFrame>,
}

/// Build a [`ScanGen`].
pub fn scan_gen(subject: BoxGen, body: BoxGen) -> ScanGen {
    ScanGen {
        subject,
        body,
        active: false,
        saved: None,
    }
}

impl Gen for ScanGen {
    fn resume(&mut self) -> Step {
        if !self.active {
            self.subject.restart();
            let subj = match self.subject.next_value().and_then(|v| ops::to_str(&v)) {
                Some(s) => s,
                None => return Step::Fail,
            };
            scan_push(subj);
            self.active = true;
            self.body.restart();
        } else if let Some(frame) = self.saved.take() {
            scan_push_frame(frame);
        }
        match self.body.resume() {
            Step::Suspend(v) => {
                self.saved = scan_pop_frame();
                Step::Suspend(v)
            }
            Step::Fail => {
                scan_pop();
                self.active = false;
                Step::Fail
            }
        }
    }
    fn restart(&mut self) {
        if self.active && self.saved.is_none() {
            scan_pop();
        }
        self.saved = None;
        self.active = false;
        self.subject.restart();
        self.body.restart();
    }
}

impl Drop for ScanGen {
    fn drop(&mut self) {
        if self.active && self.saved.is_none() {
            scan_pop();
        }
    }
}

/// Built-in `::` methods available on any value (used by emitted code and
/// as the interpreter's fallback when no host native of that name is
/// registered): the string/list operations of Fig. 3.
pub fn native_method(target: &Value, method: &str, args: &[Value]) -> Option<Value> {
    match method {
        // ((String) line)::split("\\s+") — whitespace or literal separator.
        "split" => {
            let s = ops::to_str(target)?;
            let pat = args.first().and_then(|p| p.as_str().map(str::to_string));
            let parts: Vec<Value> = match pat.as_deref() {
                None | Some("\\s+") | Some(" ") => s.split_whitespace().map(Value::str).collect(),
                Some(sep) => s
                    .split(sep)
                    .filter(|p| !p.is_empty())
                    .map(Value::str)
                    .collect(),
            };
            Some(Value::list(parts))
        }
        // ((List) tasks)::add(t)
        "add" => {
            let l = target.as_list()?.clone();
            for v in args {
                l.lock().push(v.clone());
            }
            Some(target.deref())
        }
        "size" | "length" => size(target),
        "toString" => ops::to_str(target).map(Value::Str),
        "charAt" => {
            // 0-based, Java style.
            let s = ops::to_str(target)?;
            let i = args.first()?.as_int()?;
            s.chars()
                .nth(usize::try_from(i).ok()?)
                .map(|c| Value::from(c.to_string()))
        }
        "apply" => {
            // functional-interface invocation of a generator function:
            // yields the first result ("exposed as method references ...
            // invoked with an explicit method name such as apply").
            match target.deref() {
                Value::Proc(p) => p.invoke(args.to_vec()).next_value(),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gde::comb::{thunk, to_range, unit};

    #[test]
    fn stmt_seq_passes_suspensions_in_order() {
        let mut s = stmt_seq(
            vec![
                Box::new(unit(Value::from(1))) as BoxGen,
                Box::new(gde::comb::fail()),
                Box::new(unit(Value::from(2))),
            ],
            vec![],
        );
        assert_eq!(s.collect_values().len(), 2);
    }

    #[test]
    fn stmt_seq_aborts_on_flag() {
        let f = flag();
        let mut s = stmt_seq(
            vec![
                Box::new(unit(Value::from(1))) as BoxGen,
                Box::new(unit(Value::from(2))),
            ],
            vec![f.clone()],
        );
        assert_eq!(s.next_value().unwrap().as_int(), Some(1));
        f.store(true, Ordering::Relaxed);
        assert!(s.next_value().is_none());
    }

    #[test]
    fn return_gen_yields_then_raises() {
        let f = flag();
        let mut r = return_gen(Some(Box::new(to_range(5, 9, 1))), f.clone());
        assert_eq!(r.next_value().unwrap().as_int(), Some(5)); // first only
        assert!(f.load(Ordering::Relaxed));
        assert!(r.next_value().is_none());
    }

    #[test]
    fn mute_once_is_silent_and_single() {
        let v = Var::new(Value::from(0));
        let v2 = v.clone();
        let mut m = mute_once(Box::new(thunk(move || {
            v2.set(Value::from(7));
            Some(Value::from(7))
        })));
        assert!(m.next_value().is_none());
        assert_eq!(v.get().as_int(), Some(7));
        assert!(m.next_value().is_none());
    }

    #[test]
    fn body_root_resets_flag_on_restart() {
        let f = flag();
        let mut b = body_root(
            vec![Box::new(return_gen(Some(Box::new(unit(Value::from(3)))), f.clone())) as BoxGen],
            f.clone(),
        );
        assert_eq!(b.next_value().unwrap().as_int(), Some(3));
        assert!(b.next_value().is_none());
        b.restart();
        assert_eq!(b.next_value().unwrap().as_int(), Some(3));
    }

    #[test]
    fn dyn_limit_rereads_bound() {
        let n = Var::new(Value::from(2));
        let mut l = dyn_limit(Box::new(to_range(1, 10, 1)), Slot::Cell(n.clone()));
        assert_eq!(l.collect_values().len(), 2);
        n.set(Value::from(4));
        l.restart();
        assert_eq!(l.collect_values().len(), 4);
    }

    #[test]
    fn slots_read_cells_and_constants() {
        let env = gde::env::Env::root();
        env.declare("x", Value::from(9));
        assert_eq!(slot_var(&env, "x").get().as_int(), Some(9));
        assert_eq!(slot_const(Value::from(3)).to_i64(), Some(3));
        let t = tmps(2);
        t[1].set(Value::from(5));
        assert_eq!(slot_tmp(&t, 1).get().as_int(), Some(5));
    }
}
