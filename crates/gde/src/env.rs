//! Lexical environments of reified variables.
//!
//! The interpreter and the co-expression machinery share this scope chain.
//! Its key operation is [`Env::shadow`], the environment copy a
//! co-expression takes at creation time: "co-expressions ... preclude
//! interference by copying local variable references upon creation"
//! (Sec. II.B). Shadowing copies the *local* frame's cells (each shadowed
//! variable gets a fresh cell with the current value) while continuing to
//! share outer frames, matching the paper's textual "scoping up for
//! referenced locals".
//!
//! # Slot-resolved frames
//!
//! A frame stores its variables in two tiers:
//!
//! * **Slots** — a fixed `Box<[Var]>` array laid out by a shared
//!   [`FrameLayout`]. The resolve pass (junicon's `resolve` module)
//!   assigns every statically-declared variable a `(depth, slot)`
//!   coordinate; [`Env::slot`] then reaches the cell in two pointer hops
//!   with no hashing and no lock (the `Var` itself carries the interior
//!   mutability). This is the fast path every resolved variable reference
//!   takes.
//! * **Overlay** — a mutexed `HashMap` for names that spring into
//!   existence dynamically (Icon's implicit locals via by-name `declare`/
//!   `set`, string invocation, the REPL/global frame). By-name lookup
//!   checks the overlay first, then the layout's slots, then the parent —
//!   so a dynamic re-declaration correctly shadows a slot, and unresolved
//!   code keeps the exact pre-slot semantics.
//!
//! With the `obs` feature on, `gde.env.slot_hits` counts fast-path slot
//! accesses and `gde.env.name_fallbacks` counts by-name lookups, so a
//! benchmark snapshot shows when code is falling off the fast path.
//!
//! # Name generation
//!
//! Every frame counts the changes to what a by-name lookup through it can
//! find: [`Env::declare`] (a new name, or a fresh cell for an old one) and
//! [`Env::clear`] bump it. [`Env::generation`] sums the
//! counts along the scope chain, so it moves whenever any frame a lookup
//! would search changes its names. Code that bound cells by name under a
//! scope keeps the generation it saw before binding; while the scope's
//! generation reads the same, binding again would find the same cells.
//! Reading, assigning and slot access leave it alone.
//!
//! A frame that holds itself through a value (an object's field frame holds
//! the object as `self`) is adopted by the root of its scope chain
//! ([`Env::adopt`]): clearing the root clears it, which breaks the cycle.

use crate::value::Value;
use crate::var::Var;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// The static shape of a frame: slot-index → name, plus a name → *latest*
/// slot index map for the by-name fallback path.
///
/// A layout is built once (by the resolve pass, per procedure / class
/// body) and shared by every activation frame via `Arc`. The same name
/// may own several slots — each re-declaration gets a fresh slot, exactly
/// as a re-`declare` used to create a fresh cell — and the index maps the
/// name to the last one, which is the cell by-name code must see.
pub struct FrameLayout {
    names: Box<[Arc<str>]>,
    index: HashMap<Arc<str>, usize>,
}

/// Slot names in slot order, as [`FrameLayout::of`] takes them: the
/// literal array emitted code prints (`of(["n", "acc"])`, or `of([])`),
/// or the names the resolve pass shares with its slot references, which
/// the layout keeps without copying their text.
pub trait SlotNames {
    fn into_names(self) -> Box<[Arc<str>]>;
}

impl<const N: usize> SlotNames for [&str; N] {
    fn into_names(self) -> Box<[Arc<str>]> {
        self.map(Arc::from).into()
    }
}

impl SlotNames for &[Arc<str>] {
    fn into_names(self) -> Box<[Arc<str>]> {
        self.into()
    }
}

impl FrameLayout {
    /// Build a layout from slot names in slot order. Duplicate names are
    /// allowed; the by-name index keeps the *last* occurrence.
    pub fn of(names: impl SlotNames) -> Arc<FrameLayout> {
        let names = names.into_names();
        let mut index = HashMap::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            index.insert(name.clone(), i); // later slots overwrite: latest wins
        }
        Arc::new(FrameLayout { names, index })
    }

    /// The canonical empty layout (shared by all layout-less frames).
    pub fn empty() -> Arc<FrameLayout> {
        static EMPTY: OnceLock<Arc<FrameLayout>> = OnceLock::new();
        EMPTY.get_or_init(|| FrameLayout::of([])).clone()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True iff the layout has no slots.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The latest slot index owned by `name`, if any.
    pub fn slot_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The name occupying slot `idx`.
    pub fn name(&self, idx: usize) -> &str {
        &self.names[idx]
    }
}

struct Frame {
    /// Slot cells, allocated null at frame birth, addressed by `layout`.
    slots: Box<[Var]>,
    layout: Arc<FrameLayout>,
    /// Dynamically-declared names; checked *before* the slots so a
    /// by-name re-declaration shadows a slot.
    overlay: Mutex<HashMap<String, Var>>,
    /// Bumped (`Release`) after each change to the names; see
    /// [`Env::generation`].
    generation: AtomicU64,
    parent: Option<Env>,
    /// A root's register of the frames adopted under it; `None` below.
    adopted: Option<Box<Mutex<Vec<Weak<Frame>>>>>,
}

impl Frame {
    fn with(layout: Arc<FrameLayout>, parent: Option<Env>) -> Frame {
        Frame {
            slots: (0..layout.len()).map(|_| Var::null()).collect(),
            layout,
            overlay: Mutex::new(HashMap::new()),
            generation: AtomicU64::new(0),
            adopted: parent.is_none().then(Box::default),
            parent,
        }
    }
}

/// A scope: a frame of named [`Var`]s with an optional parent.
#[derive(Clone)]
pub struct Env {
    frame: Arc<Frame>,
}

impl Env {
    /// A fresh root scope.
    pub fn root() -> Env {
        Env {
            frame: Arc::new(Frame::with(FrameLayout::empty(), None)),
        }
    }

    /// A child scope whose lookups fall through to `self`.
    pub fn child(&self) -> Env {
        Env {
            frame: Arc::new(Frame::with(FrameLayout::empty(), Some(self.clone()))),
        }
    }

    /// A child scope with pre-allocated slot cells shaped by `layout` —
    /// the activation frame of a resolved procedure. Every slot starts
    /// null (the resolved program initializes parameters and `local`
    /// initializers itself).
    pub fn child_with_layout(&self, layout: Arc<FrameLayout>) -> Env {
        Env {
            frame: Arc::new(Frame::with(layout, Some(self.clone()))),
        }
    }

    /// The fast path: the cell at `(depth, idx)` — walk `depth` parents,
    /// index the slot array. No hashing, no frame lock. Panics if the
    /// coordinate is outside the frame's layout (that is a resolver bug,
    /// never a program error).
    pub fn slot(&self, depth: usize, idx: usize) -> Var {
        let mut frame = &self.frame;
        for _ in 0..depth {
            frame = &frame
                .parent
                .as_ref()
                .expect("gde::Env::slot: depth exceeds scope chain")
                .frame;
        }
        obs_on!(crate::obs_hot::slot_hits().inc());
        frame.slots[idx].clone()
    }

    /// The cell at slot `idx` of *this* frame (depth 0).
    pub fn slot_local(&self, idx: usize) -> Var {
        obs_on!(crate::obs_hot::slot_hits().inc());
        self.frame.slots[idx].clone()
    }

    /// This frame's layout (shared with all sibling activations).
    pub fn layout(&self) -> &Arc<FrameLayout> {
        &self.frame.layout
    }

    /// Declare (or re-declare) a local in this frame, returning its cell.
    /// Dynamic declarations always create a *fresh* cell in the overlay;
    /// because the overlay is consulted before the slots, this correctly
    /// shadows any slot the name may also own.
    pub fn declare(&self, name: &str, v: Value) -> Var {
        let var = Var::new(v);
        self.frame
            .overlay
            .lock()
            .insert(name.to_string(), var.clone());
        self.touch();
        var
    }

    /// Bump this frame's name generation: a declaration or a clear changed
    /// what its names stand for.
    fn touch(&self) {
        self.frame.generation.fetch_add(1, Ordering::Release);
    }

    /// The scope's name generation: the sum of the frames' counts along the
    /// chain. It moves iff a frame that a by-name lookup from here searches
    /// declared a name or was cleared.
    pub fn generation(&self) -> u64 {
        let own = self.frame.generation.load(Ordering::Acquire);
        own + self.frame.parent.as_ref().map_or(0, Env::generation)
    }

    /// Find a variable's cell in this frame only (no parent search):
    /// overlay first, then the layout's slots.
    pub fn lookup_local(&self, name: &str) -> Option<Var> {
        if let Some(v) = self.frame.overlay.lock().get(name) {
            return Some(v.clone());
        }
        self.frame
            .layout
            .slot_of(name)
            .map(|i| self.frame.slots[i].clone())
    }

    /// Find a variable's cell, searching up the scope chain. This is the
    /// by-name slow path; resolved references use [`Env::slot`] instead.
    pub fn lookup(&self, name: &str) -> Option<Var> {
        obs_on!(crate::obs_hot::name_fallbacks().inc());
        let mut env = self;
        loop {
            if let Some(v) = env.lookup_local(name) {
                return Some(v);
            }
            env = env.frame.parent.as_ref()?;
        }
    }

    /// Find or create: undeclared names spring into existence as null
    /// locals in the current frame (Icon's implicit locals).
    pub fn lookup_or_declare(&self, name: &str) -> Var {
        self.lookup(name)
            .unwrap_or_else(|| self.declare(name, Value::Null))
    }

    /// Read a variable's value (null if undeclared).
    pub fn get(&self, name: &str) -> Value {
        self.lookup(name).map(|v| v.get()).unwrap_or(Value::Null)
    }

    /// Assign, declaring in the current frame if absent.
    pub fn set(&self, name: &str, v: Value) {
        self.lookup_or_declare(name).set(v);
    }

    /// The co-expression copy: a new frame containing *fresh cells* holding
    /// clones of this frame's current values, sharing the parent chain.
    /// Slot cells keep their coordinates (the layout is shared), so
    /// resolved code that runs against the shadow sees the copied cells at
    /// the same `(depth, slot)` addresses.
    ///
    /// The overlay entries are snapshotted (cheap `Var` handle clones)
    /// *before* any cell is copied, so the frame lock is never held while
    /// a cell lock is taken — a writer assigning through an alias of one
    /// of these cells can never deadlock or stall a concurrent shadow.
    pub fn shadow(&self) -> Env {
        let entries: Vec<(String, Var)> = {
            let overlay = self.frame.overlay.lock();
            overlay
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        // Frame lock released; now copy values cell by cell.
        let copied: HashMap<String, Var> = entries
            .into_iter()
            .map(|(k, v)| (k, v.fresh_copy()))
            .collect();
        let slots: Box<[Var]> = self.frame.slots.iter().map(Var::fresh_copy).collect();
        Env {
            frame: Arc::new(Frame {
                slots,
                layout: self.frame.layout.clone(),
                overlay: Mutex::new(copied),
                generation: AtomicU64::new(0),
                parent: self.frame.parent.clone(),
                adopted: self.frame.parent.is_none().then(Box::default),
            }),
        }
    }

    /// Empty this frame: drop every overlay name, set every slot to null,
    /// and (a root) clear and forget the frames adopted under it. Code still
    /// holding a `Var` keeps the cell; by-name lookups made afterwards find
    /// nothing. As in [`Env::shadow`], no lock is held while values drop.
    pub fn clear(&self) {
        let overlay = std::mem::take(&mut *self.frame.overlay.lock());
        self.touch();
        drop(overlay);
        for cell in self.frame.slots.iter() {
            drop(cell.replace(Value::Null));
        }
        if let Some(adopted) = &self.frame.adopted {
            let adopted = std::mem::take(&mut *adopted.lock());
            for frame in adopted.iter().filter_map(Weak::upgrade) {
                Env { frame }.clear();
            }
        }
    }

    /// Have the root of this scope chain adopt `frame`: clearing the root
    /// clears `frame` too. The root holds it weakly, and drops the handles
    /// of freed frames whenever its register would grow.
    pub fn adopt(&self, frame: &Env) {
        if let Some(parent) = &self.frame.parent {
            return parent.adopt(frame);
        }
        let mut adopted = match &self.frame.adopted {
            Some(register) => register.lock(),
            None => unreachable!("a frame without a parent keeps a register"),
        };
        if adopted.len() == adopted.capacity() {
            adopted.retain(|f| f.strong_count() > 0);
        }
        adopted.push(Arc::downgrade(&frame.frame));
    }

    /// Null every cell of this frame and keep its names: the values a fresh
    /// frame starts with, for code that already holds its cells (an
    /// activation re-run in place). As in [`Env::clear`], no lock is held
    /// while the old values drop.
    pub fn reset(&self) {
        let overlay: Vec<Var> = self.frame.overlay.lock().values().cloned().collect();
        for cell in overlay.iter().chain(self.frame.slots.iter()) {
            drop(cell.replace(Value::Null));
        }
    }

    /// Names declared in this frame (not the parents), sorted: overlay
    /// names plus the layout's slot names, deduplicated.
    pub fn local_names(&self) -> Vec<String> {
        let mut names: std::collections::BTreeSet<String> =
            self.frame.overlay.lock().keys().cloned().collect();
        for i in 0..self.frame.layout.len() {
            names.insert(self.frame.layout.name(i).to_string());
        }
        names.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_get_set() {
        let env = Env::root();
        env.declare("x", Value::from(1));
        assert_eq!(env.get("x").as_int(), Some(1));
        env.set("x", Value::from(2));
        assert_eq!(env.get("x").as_int(), Some(2));
        assert!(env.get("missing").is_null());
    }

    #[test]
    fn child_sees_parent_and_can_shadow_locally() {
        let root = Env::root();
        root.declare("x", Value::from(1));
        let child = root.child();
        assert_eq!(child.get("x").as_int(), Some(1));
        // Assignment through the chain writes the parent's cell.
        child.set("x", Value::from(5));
        assert_eq!(root.get("x").as_int(), Some(5));
        // Declaring locally hides the parent.
        child.declare("x", Value::from(99));
        assert_eq!(child.get("x").as_int(), Some(99));
        assert_eq!(root.get("x").as_int(), Some(5));
    }

    #[test]
    fn implicit_declaration_in_current_frame() {
        let root = Env::root();
        let child = root.child();
        child.set("fresh", Value::from(3));
        assert_eq!(child.get("fresh").as_int(), Some(3));
        assert!(root.lookup("fresh").is_none());
    }

    #[test]
    fn shadow_copies_local_frame_only() {
        let root = Env::root();
        root.declare("outer", Value::from(10));
        let scope = root.child();
        scope.declare("local", Value::from(1));

        let shadowed = scope.shadow();
        // Writing the shadowed local does not affect the original...
        shadowed.set("local", Value::from(42));
        assert_eq!(scope.get("local").as_int(), Some(1));
        // ...but the outer (parent) variable is still shared.
        shadowed.set("outer", Value::from(20));
        assert_eq!(root.get("outer").as_int(), Some(20));
    }

    #[test]
    fn shadow_snapshots_current_values() {
        let scope = Env::root();
        scope.declare("n", Value::from(7));
        let shadowed = scope.shadow();
        scope.set("n", Value::from(8));
        assert_eq!(shadowed.get("n").as_int(), Some(7));
    }

    #[test]
    fn local_names_sorted() {
        let env = Env::root();
        env.declare("b", Value::Null);
        env.declare("a", Value::Null);
        assert_eq!(env.local_names(), vec!["a".to_string(), "b".to_string()]);
    }

    // ---- slot-frame semantics -------------------------------------------

    #[test]
    fn slots_start_null_and_are_addressable() {
        let root = Env::root();
        let env = root.child_with_layout(FrameLayout::of(["a", "b"]));
        assert!(env.slot(0, 0).get().is_null());
        env.slot_local(1).set(Value::from(9));
        assert_eq!(env.slot(0, 1).get().as_int(), Some(9));
    }

    #[test]
    fn slot_depth_walks_the_chain() {
        let root = Env::root();
        let outer = root.child_with_layout(FrameLayout::of(["x"]));
        outer.slot_local(0).set(Value::from(1));
        let inner = outer.child_with_layout(FrameLayout::of(["y"]));
        assert_eq!(inner.slot(1, 0).get().as_int(), Some(1));
        inner.slot(1, 0).set(Value::from(2));
        assert_eq!(outer.slot_local(0).get().as_int(), Some(2));
    }

    #[test]
    fn by_name_lookup_sees_slots() {
        let root = Env::root();
        let env = root.child_with_layout(FrameLayout::of(["x"]));
        env.slot_local(0).set(Value::from(5));
        // The by-name fallback resolves to the same cell.
        assert_eq!(env.get("x").as_int(), Some(5));
        assert!(env.lookup("x").unwrap().same_cell(&env.slot_local(0)));
        assert!(env.lookup_local("x").unwrap().same_cell(&env.slot_local(0)));
    }

    #[test]
    fn overlay_declare_shadows_slot() {
        let root = Env::root();
        let env = root.child_with_layout(FrameLayout::of(["x"]));
        env.slot_local(0).set(Value::from(1));
        // A dynamic re-declaration must hide the slot for by-name code...
        env.declare("x", Value::from(2));
        assert_eq!(env.get("x").as_int(), Some(2));
        // ...while slot-addressed references keep their own cell.
        assert_eq!(env.slot_local(0).get().as_int(), Some(1));
    }

    #[test]
    fn duplicate_slot_names_index_latest() {
        // Two slots for "x" (a re-declaration): by-name sees the latest.
        let root = Env::root();
        let env = root.child_with_layout(FrameLayout::of(["x", "x"]));
        env.slot_local(0).set(Value::from(1));
        env.slot_local(1).set(Value::from(2));
        assert_eq!(env.get("x").as_int(), Some(2));
        assert_eq!(env.layout().slot_of("x"), Some(1));
    }

    #[test]
    fn shadow_copies_slots_with_same_coordinates() {
        let root = Env::root();
        root.declare("outer", Value::from(10));
        let env = root.child_with_layout(FrameLayout::of(["n"]));
        env.slot_local(0).set(Value::from(7));

        let shadowed = env.shadow();
        // Same coordinate, fresh cell, snapshotted value.
        assert_eq!(shadowed.slot_local(0).get().as_int(), Some(7));
        assert!(!shadowed.slot_local(0).same_cell(&env.slot_local(0)));
        shadowed.slot_local(0).set(Value::from(42));
        assert_eq!(env.slot_local(0).get().as_int(), Some(7));
        // Parent chain still shared.
        shadowed.set("outer", Value::from(20));
        assert_eq!(root.get("outer").as_int(), Some(20));
    }

    #[test]
    fn local_names_merges_overlay_and_slots() {
        let root = Env::root();
        let env = root.child_with_layout(FrameLayout::of(["b", "a"]));
        env.declare("c", Value::Null);
        env.declare("a", Value::Null); // overlay shadowing a slot: one name
        assert_eq!(
            env.local_names(),
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
    }

    #[test]
    fn clear_empties_the_frame_but_not_held_cells() {
        let root = Env::root();
        root.declare("outer", Value::from(10));
        let env = root.child_with_layout(FrameLayout::of(["n"]));
        env.slot_local(0).set(Value::from(7));
        let held = env.declare("d", Value::from(1));
        env.clear();
        assert!(env.lookup_local("d").is_none());
        assert!(env.slot_local(0).get().is_null());
        // A cell taken before the clear keeps working; parents are untouched.
        held.set(Value::from(2));
        assert_eq!(held.get().as_int(), Some(2));
        assert_eq!(env.get("outer").as_int(), Some(10));
    }

    #[test]
    fn clearing_a_root_clears_the_frames_adopted_under_it() {
        let root = Env::root();
        let scope = root.child();
        let adopted = scope.child_with_layout(FrameLayout::of(["n"]));
        adopted.slot_local(0).set(Value::from(7));
        scope.adopt(&adopted);
        let dropped = root.child();
        root.adopt(&dropped);
        let gone = Arc::downgrade(&dropped.frame);
        drop(dropped);
        assert!(gone.upgrade().is_none(), "an adopted frame is held weakly");
        // Clearing a frame that is not a root leaves what its root adopted.
        scope.clear();
        assert_eq!(adopted.slot_local(0).get().as_int(), Some(7));
        root.clear();
        assert!(adopted.slot_local(0).get().is_null());
        // The register is emptied: a cell set afterwards stays set.
        adopted.slot_local(0).set(Value::from(8));
        root.clear();
        assert_eq!(adopted.slot_local(0).get().as_int(), Some(8));
    }

    #[test]
    fn reset_nulls_every_cell_and_keeps_the_names() {
        let root = Env::root();
        root.declare("outer", Value::from(10));
        let env = root.child_with_layout(FrameLayout::of(["n"]));
        env.slot_local(0).set(Value::from(7));
        let held = env.declare("d", Value::from(1));
        env.reset();
        assert!(env.slot_local(0).get().is_null() && held.get().is_null());
        assert!(env.lookup_local("d").unwrap().same_cell(&held));
        assert_eq!(env.get("outer").as_int(), Some(10));
    }

    #[test]
    fn generation_moves_with_the_names_and_only_with_them() {
        let root = Env::root();
        let env = root.child_with_layout(FrameLayout::of(["n"]));
        let mut last = env.generation();
        let mut moved = |env: &Env| {
            let (was, now) = (last, env.generation());
            last = now;
            now != was
        };
        env.declare("x", Value::from(1));
        assert!(moved(&env), "a new name");
        env.declare("x", Value::from(2));
        assert!(moved(&env), "a fresh cell for an old name");
        env.lookup("x");
        env.get("n");
        env.set("x", Value::from(3));
        env.slot_local(0).set(Value::from(4));
        env.slot(0, 0).get();
        assert!(!moved(&env), "reads, assignments and slot writes");
        env.set("y", Value::from(5));
        assert!(moved(&env), "an assignment that declares");
        root.declare("g", Value::Null);
        assert!(moved(&env), "a declaration in the parent");
        env.clear();
        assert!(moved(&env), "clear");
        let shadowed = env.shadow();
        shadowed.declare("z", Value::Null);
        assert!(!moved(&env), "a declaration in a shadow");
        root.declare("h", Value::Null);
        assert_ne!(shadowed.generation(), 0, "a shadow shares the parents");
        assert!(moved(&env));
    }

    #[test]
    fn shadow_races_with_writers() {
        // Regression test for the old shadow() holding the frame lock
        // while locking every cell: hammer shadow() from one set of
        // threads while writers mutate the same frame's cells and declare
        // new names. Must neither deadlock nor tear a snapshot (each
        // shadowed cell holds *some* value the writer actually wrote).
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = Arc::new(AtomicBool::new(false));
        let env = Env::root().child_with_layout(FrameLayout::of(["n"]));
        env.slot_local(0).set(Value::from(0));
        for i in 0..8 {
            env.declare(&format!("d{i}"), Value::from(0));
        }

        let mut handles = Vec::new();
        for w in 0..4 {
            let env = env.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut i: i64 = 0;
                while !stop.load(Ordering::Relaxed) {
                    env.slot_local(0).set(Value::from(i));
                    env.set(&format!("d{}", i.rem_euclid(8)), Value::from(i));
                    env.declare(&format!("w{w}-{}", i % 16), Value::from(i));
                    i += 1;
                }
            }));
        }
        for _ in 0..4 {
            let env = env.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut count = 0;
                while !stop.load(Ordering::Relaxed) {
                    let s = env.shadow();
                    // Snapshot is self-consistent: every value readable.
                    assert!(s.slot_local(0).get().as_int().is_some());
                    for name in s.local_names() {
                        let _ = s.get(&name);
                    }
                    count += 1;
                    if count > 500 {
                        break;
                    }
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
