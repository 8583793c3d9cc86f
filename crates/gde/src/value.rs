//! The dynamic value universe of the embedded language.

use crate::env::Env;
use crate::func::ProcValue;
use crate::var::Var;
use bigint::BigInt;
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// A coroutine as seen by the runtime: something that can be stepped (`@`),
/// restarted, and refreshed (`^`).
///
/// The concrete implementation lives in the `coexpr` crate; the trait is
/// defined here so that co-expressions can be first-class [`Value`]s without
/// a dependency cycle.
pub trait Coroutine: Send {
    /// Step one iteration (`@c`): the next value, or `None` on failure.
    fn step(&mut self) -> Option<Value>;
    /// Reset iteration to the beginning.
    fn restart(&mut self);
    /// Create a fresh copy with a new copy of the shadowed environment
    /// (`^c`). Returns `None` for coroutines that do not support refresh.
    fn refreshed(&self) -> Option<CoRef>;
    /// Number of results produced so far (Icon's `*c`).
    fn produced(&self) -> u64;
}

/// Shared handle to a [`Coroutine`].
pub type CoRef = Arc<Mutex<dyn Coroutine>>;

/// An object: the runtime form of a Unicon class instance (Sec. V.C).
///
/// Fields live in an [`Env`] frame — each field is thereby available "in
/// both plain and reified form" (the env's [`Var`] cells are the reified
/// `x_r` side; [`ObjData::get_field`] is the plain side). The frame is laid
/// out `[fields…, methods…, "self"]`, the methods bound to it.
pub struct ObjData {
    pub class_name: Arc<str>,
    pub fields: Env,
    /// How many leading slots of `fields` are declared fields.
    pub declared: usize,
}

/// Shared handle to an object.
pub type ObjRef = Arc<ObjData>;

impl ObjData {
    /// Read a field (null if unset) or a bound method; `None` for any
    /// other name, `self` included.
    pub fn get_field(&self, name: &str) -> Option<Value> {
        let idx = self.fields.layout().slot_of(name)?;
        (idx + 1 < self.fields.layout().len()).then(|| self.fields.slot_local(idx).get())
    }

    /// Write a declared field; fails for any other name, a method or
    /// `self` included.
    pub fn set_field(&self, name: &str, v: Value) -> Option<Value> {
        let idx = self.fields.layout().slot_of(name);
        let idx = idx.filter(|&idx| idx < self.declared)?;
        self.fields.slot_local(idx).set(v.clone());
        Some(v)
    }
}

/// The owned key a table stores (scalar values only).
///
/// `Eq` and `Hash` go through [`Key::view`], so a stored key and the
/// borrowed [`KeyRef`] a lookup probes with compare by text and hash to
/// the same FNV-1a digest. A [`Key::Str`] carries its digest, computed
/// once when the key is made ([`Key::text`]), so a probe that meets it
/// does not re-hash its bytes.
#[derive(Clone, Debug)]
pub enum Key {
    Null,
    Int(i64),
    /// Reals are keyed by bit pattern, as Icon tables key on value identity.
    RealBits(u64),
    /// The text and its FNV-1a digest, as [`Key::text`] computes it.
    Str(Arc<str>, u64),
}

/// FNV-1a, the classic short-string hash: the digest a text key hashes
/// through, whichever string form it comes in.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A table key as seen by hashing and equality: borrowed text with its
/// FNV-1a digest, or a scalar. [`Key`] hashes and compares through this
/// view, and a table read probes with one built from the subscript in
/// place ([`Value::key_view`]), so a read never owns or promotes
/// its key.
#[derive(Clone, Copy, Debug)]
pub enum KeyRef<'a> {
    Null,
    Int(i64),
    RealBits(u64),
    Text(&'a str, u64),
}

impl PartialEq for KeyRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (KeyRef::Null, KeyRef::Null) => true,
            (KeyRef::Int(a), KeyRef::Int(b)) => a == b,
            (KeyRef::RealBits(a), KeyRef::RealBits(b)) => a == b,
            // A key met through its own text (a clone of the stored
            // `Arc`): the pointer check settles it without the bytes.
            (KeyRef::Text(a, x), KeyRef::Text(b, y)) => x == y && (std::ptr::eq(a, b) || a == b),
            _ => false,
        }
    }
}

impl Eq for KeyRef<'_> {}

impl Hash for KeyRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            KeyRef::Null => state.write_u8(0),
            KeyRef::Int(i) => {
                state.write_u8(1);
                state.write_i64(i);
            }
            KeyRef::RealBits(b) => {
                state.write_u8(2);
                state.write_u64(b);
            }
            KeyRef::Text(_, digest) => {
                state.write_u8(3);
                state.write_u64(digest);
            }
        }
    }
}

impl Key {
    /// A text key, hashed once here.
    pub fn text(s: Arc<str>) -> Key {
        let digest = fnv1a(&s);
        Key::Str(s, digest)
    }

    /// The borrowed view this key hashes and compares through.
    pub fn view(&self) -> KeyRef<'_> {
        match self {
            Key::Null => KeyRef::Null,
            Key::Int(i) => KeyRef::Int(*i),
            Key::RealBits(b) => KeyRef::RealBits(*b),
            Key::Str(s, digest) => KeyRef::Text(s, *digest),
        }
    }

    /// The value a key reads back as (`key(T)`).
    fn value(&self) -> Value {
        match self {
            Key::Null => Value::Null,
            Key::Int(i) => Value::Int(*i),
            Key::RealBits(b) => Value::Real(f64::from_bits(*b)),
            Key::Str(s, _) => Value::Str(s.clone()),
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.view().hash(state)
    }
}

/// What a table's map can be probed with: a stored [`Key`] or a borrowed
/// [`KeyRef`]. `Key: Borrow<dyn AsKeyRef>` is what lets `HashMap::get`
/// take a view on stable Rust; hashing and equality of the trait object
/// are the view's, so they agree with [`Key`]'s by construction.
trait AsKeyRef {
    fn key_ref(&self) -> KeyRef<'_>;
}

impl AsKeyRef for Key {
    fn key_ref(&self) -> KeyRef<'_> {
        self.view()
    }
}

impl AsKeyRef for KeyRef<'_> {
    fn key_ref(&self) -> KeyRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn AsKeyRef + 'a> for Key {
    fn borrow(&self) -> &(dyn AsKeyRef + 'a) {
        self
    }
}

impl PartialEq for dyn AsKeyRef + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key_ref() == other.key_ref()
    }
}

impl Eq for dyn AsKeyRef + '_ {}

impl Hash for dyn AsKeyRef + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key_ref().hash(state)
    }
}

/// The tables' hasher. A key writes a tag and one 64-bit word (its
/// FNV-1a digest for text), and each write is folded in with one
/// 64×64→128-bit multiply whose halves are xored. Both the starting
/// state and the multiplier are drawn from [`RandomState`] once per
/// process, so which bucket a key lands in is not predictable from
/// outside (DESIGN.md § String plane).
#[derive(Clone, Copy)]
struct KeyHash {
    seed: u64,
    mul: u64,
}

impl Default for KeyHash {
    fn default() -> KeyHash {
        static KEY: OnceLock<KeyHash> = OnceLock::new();
        *KEY.get_or_init(|| {
            let random = RandomState::new();
            KeyHash {
                seed: random.hash_one(0u8),
                mul: random.hash_one(1u8) | 1,
            }
        })
    }
}

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher {
            state: self.seed,
            mul: self.mul,
        }
    }
}

struct KeyHasher {
    state: u64,
    mul: u64,
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u8(&mut self, tag: u8) {
        self.write_u64(tag.into());
    }

    fn write_u64(&mut self, word: u64) {
        let full = u128::from(self.state ^ word) * u128::from(self.mul);
        self.state = full as u64 ^ (full >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The borrowed string form: a `(start, len)` byte window into a shared
/// line buffer (what hot generators such as `WordSplit` window, and what
/// subscripting an owned string windows). Minting one costs no hashing
/// and no allocation — just a refcount on the line.
///
/// Windows are *borrowed handles* in the ownership sense: they pin their
/// line alive, so any value that outlives its stage must be promoted to
/// an owned form ([`Value::promote`]) to let the line drop.
pub struct StrWin {
    line: Arc<str>,
    start: u32,
    len: u32,
    /// Cached char count; `u32::MAX` = not yet computed. Filled lazily on
    /// the first [`Value::size`] / negative subscript and replayed after.
    chars: AtomicU32,
}

impl Clone for StrWin {
    fn clone(&self) -> StrWin {
        StrWin {
            line: self.line.clone(),
            start: self.start,
            len: self.len,
            chars: AtomicU32::new(self.chars.load(Ordering::Relaxed)),
        }
    }
}

impl StrWin {
    /// Window coordinates are `u32`: a line of 4 GiB or more cannot be
    /// windowed past that offset.
    fn fits(end: usize) -> bool {
        end <= u32::MAX as usize
    }

    /// The one place a window is built: bytes `[start, end)` of `line`,
    /// which the caller has placed on char boundaries of the line's text.
    /// Coordinates that do not fit are re-owned.
    ///
    /// `#[inline]` here and on [`Value::slice_at_ascii_delims`]: the word
    /// splitter mints one window per word from another crate, and without
    /// the hint the pair stops being inlined there (≈ 5 % of the embedded
    /// `seq_light` lane); the re-own path stays out of line.
    #[inline]
    fn mint(line: Arc<str>, start: usize, end: usize) -> Value {
        if !Self::fits(end) {
            return Self::reown(&line, start, end);
        }
        Value::Win(StrWin {
            line,
            start: start as u32,
            len: (end - start) as u32,
            chars: AtomicU32::new(u32::MAX),
        })
    }

    #[cold]
    fn reown(line: &str, start: usize, end: usize) -> Value {
        Value::Str(Arc::from(&line[start..end]))
    }

    fn as_str(&self) -> &str {
        let start = self.start as usize;
        &self.line[start..start + self.len as usize]
    }

    /// Character count, computed once and cached.
    fn char_len(&self) -> usize {
        let cached = self.chars.load(Ordering::Relaxed);
        if cached != u32::MAX {
            return cached as usize;
        }
        let n = str_char_len(self.as_str());
        self.chars.store(n as u32, Ordering::Relaxed);
        n
    }
}

/// Character count with the ASCII fast path: all-ASCII text (the hot
/// case — corpus words, formatted numbers) is `len()` bytes without a
/// decode walk.
pub(crate) fn str_char_len(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.chars().count()
    }
}

/// A dynamically typed value.
///
/// Values are cheap to clone: compound values (lists, tables) are shared
/// handles with interior mutability, matching Icon's reference semantics for
/// structures. All variants are `Send + Sync`, which is what lets pipes move
/// generated values between threads.
///
/// Strings come in two forms — owned [`Value::Str`] and borrowed
/// [`Value::Win`] (a window into a shared line buffer) — which are
/// representations, not types: every operation reads them through
/// [`Value::as_str`] and the window operations of this module, which is
/// the only one that knows how a borrowed string is stored. `Clone` is
/// hand-written to count how often each regime is hit
/// (`gde.value.inline_hits` / `arc_clones`).
#[derive(Default)]
pub enum Value {
    /// The null value (`&null`); also the value of unset variables.
    #[default]
    Null,
    /// Machine integer. Arithmetic that overflows promotes to [`Value::Big`].
    Int(i64),
    /// Arbitrary-precision integer (Icon's large integers).
    Big(Arc<BigInt>),
    /// Real number.
    Real(f64),
    /// Immutable string.
    Str(Arc<str>),
    /// Borrowed string: a window into a shared line buffer (see
    /// [`StrWin`]). Must be [promoted](Value::promote) before escaping
    /// its pipeline.
    Win(StrWin),
    /// Mutable shared list.
    List(Arc<Mutex<Vec<Value>>>),
    /// Mutable shared table with a default value.
    Table(Arc<Mutex<TableData>>),
    /// A procedure / generator function.
    Proc(ProcValue),
    /// A co-expression.
    Co(CoRef),
    /// A first-class reified variable (reference semantics, Sec. V.C).
    Ref(Var),
    /// A class instance.
    Object(ObjRef),
}

impl Clone for Value {
    fn clone(&self) -> Value {
        match self {
            // Inline regime: copied in registers, no refcount traffic.
            Value::Null => {
                obs_on!(crate::obs_hot::value_inline_hits().inc());
                Value::Null
            }
            Value::Int(i) => {
                obs_on!(crate::obs_hot::value_inline_hits().inc());
                Value::Int(*i)
            }
            Value::Real(r) => {
                obs_on!(crate::obs_hot::value_inline_hits().inc());
                Value::Real(*r)
            }
            // Shared regime: an Arc refcount per clone.
            Value::Big(b) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Big(b.clone())
            }
            Value::Str(s) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Str(s.clone())
            }
            Value::Win(w) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Win(w.clone())
            }
            Value::List(l) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::List(l.clone())
            }
            Value::Table(t) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Table(t.clone())
            }
            Value::Proc(p) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Proc(p.clone())
            }
            Value::Co(c) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Co(c.clone())
            }
            Value::Ref(v) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Ref(v.clone())
            }
            Value::Object(o) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Object(o.clone())
            }
        }
    }
}

/// Backing storage for [`Value::Table`]. The map is private: a read
/// goes through [`TableData::lookup`], a write through
/// [`TableData::store`], which is the one place a key is promoted.
pub struct TableData {
    entries: HashMap<Key, Value, KeyHash>,
    pub default: Value,
}

impl TableData {
    /// The value stored under subscript `k` (through a `Ref`): `Some(None)`
    /// when `k` is a key the table does not hold, `None` when `k` is not a
    /// scalar and so can never be one. A borrowed window is hashed and
    /// compared in place, never promoted.
    pub fn lookup(&self, k: &Value) -> Option<Option<&Value>> {
        if let Value::Ref(var) = k {
            return self.lookup(&var.get());
        }
        let view = k.key_view()?;
        Some(self.entries.get(&view as &dyn AsKeyRef))
    }

    /// `T[k] := v`: overwrite the value of a key the table holds, or
    /// promote `k` ([`Value::as_key`]) and insert it. `None` when `k` is
    /// not a scalar.
    pub fn store(&mut self, k: &Value, v: Value) -> Option<()> {
        if let Value::Ref(var) = k {
            return self.store(&var.get(), v);
        }
        match self.entries.get_mut(&k.key_view()? as &dyn AsKeyRef) {
            Some(slot) => *slot = v,
            None => {
                self.entries.insert(k.as_key()?, v);
            }
        }
        Some(())
    }

    /// Number of keys (`*T`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no key.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The keys, as the values they were stored under (`key(T)`).
    pub fn keys(&self) -> impl Iterator<Item = Value> + '_ {
        self.entries.keys().map(Key::value)
    }

    /// The stored values (`!T`).
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.values()
    }
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The same as [`Value::str`].
    pub fn interned(s: &str) -> Value {
        Value::str(s)
    }

    /// Build a borrowed string value: a `[start, end)` window into a
    /// shared line buffer (see [`StrWin`]). The window must lie on
    /// `char` boundaries. This is the zero-hash, zero-allocation path hot
    /// generators use per emitted word; the handle pins `owner` until it
    /// is dropped or [promoted](Value::promote).
    pub fn slice(owner: Arc<str>, start: usize, end: usize) -> Value {
        owner
            .get(start..end)
            .expect("Value::slice window must be in-bounds on char boundaries");
        obs_on!(crate::obs_hot::value_inline_hits().inc());
        StrWin::mint(owner, start, end)
    }

    /// [`Value::slice`] for producers whose windows are char-boundary
    /// correct *by construction* — splitting at ASCII delimiters always
    /// lands on boundaries, whatever the word bytes are — so the
    /// per-element validation is debug-asserted instead of paid on every
    /// yield. Still memory-safe for a bad caller: a malformed window
    /// panics at first use instead of here.
    ///
    /// Unlike [`Value::slice`] this does *not* bump
    /// `gde.value.inline_hits` per call: the producers that earn the
    /// trusted path yield one window per word on the hottest loop in the
    /// system, where even a relaxed atomic increment is measurable. They
    /// count locally and flush per batch via
    /// [`Value::note_inline_windows`].
    #[inline]
    pub fn slice_at_ascii_delims(owner: Arc<str>, start: usize, end: usize) -> Value {
        debug_assert!(
            owner.get(start..end).is_some(),
            "slice_at_ascii_delims window must be in-bounds on char boundaries"
        );
        StrWin::mint(owner, start, end)
    }

    /// Batched `gde.value.inline_hits` accounting for
    /// [`Value::slice_at_ascii_delims`] producers: one atomic add per
    /// batch (a line, a chunk) instead of one per yielded window. The
    /// counter stays exact at snapshot granularity — producers flush at
    /// every exhaustion/reset/drop edge, and snapshots are taken after
    /// the generators driving them have been dropped.
    pub fn note_inline_windows(n: u64) {
        #[cfg(not(feature = "obs"))]
        let _ = n;
        obs_on!(if n > 0 {
            crate::obs_hot::value_inline_hits().add(n);
        });
    }

    /// True for the borrowed string form ([`Value::Win`]), which pins a
    /// line and must be [promoted](Value::promote) before escaping its
    /// stage.
    pub fn is_borrowed(&self) -> bool {
        matches!(self, Value::Win(_))
    }

    /// Promote a borrowed handle to an owned value — the escape hatch a
    /// value takes when it outlives its stage (stored in an `Env` slot,
    /// captured by a deferred body, used as a table key, or crossing a
    /// pipe to another thread).
    ///
    /// The window's text becomes an owned [`Value::Str`] of its own, so
    /// the promoted value no longer pins its owner and the line can drop
    /// as soon as the pipeline does.
    pub fn promote(self) -> Value {
        let Value::Win(w) = &self else { return self };
        obs_on!(crate::obs_hot::value_promotions().inc());
        Value::Str(Arc::from(w.as_str()))
    }

    /// A window over bytes `[bs, be)` of this string's text that shares
    /// the string's own allocation (its line buffer or owned text):
    /// narrows a borrowed window, windows an owned string. `None` for
    /// non-strings and for spans that are out of bounds or split a char.
    pub(crate) fn subwindow(&self, bs: usize, be: usize) -> Option<Value> {
        self.as_str()?.get(bs..be)?;
        match self {
            Value::Win(w) => {
                let start = w.start as usize;
                Some(StrWin::mint(w.line.clone(), start + bs, start + be))
            }
            Value::Str(s) => Some(Value::slice(s.clone(), bs, be)),
            _ => None,
        }
    }

    /// The text of any string form as a shared allocation: an owned
    /// string hands out its own `Arc`, a borrowed window
    /// re-owns its bytes (a window into a window's owner would need
    /// nested offsets at every consumer).
    pub fn shared_text(&self) -> Option<Arc<str>> {
        match self {
            Value::Str(s) => Some(s.clone()),
            Value::Win(w) => Some(Arc::from(w.as_str())),
            _ => None,
        }
    }

    /// Character count of any string form; borrowed windows replay their
    /// cached count, the others take the ASCII fast path before decoding.
    pub(crate) fn char_len(&self) -> Option<usize> {
        match self {
            Value::Win(w) => Some(w.char_len()),
            _ => self.as_str().map(str_char_len),
        }
    }

    /// Build a list value from elements.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Arc::new(Mutex::new(items)))
    }

    /// Build an empty table with default `Null`.
    pub fn table() -> Value {
        Value::Table(Arc::new(Mutex::new(TableData {
            entries: HashMap::default(),
            default: Value::Null,
        })))
    }

    /// Build a big-integer value, normalizing to `Int` when it fits.
    pub fn big(b: BigInt) -> Value {
        match b.to_i64() {
            Some(i) => Value::Int(i),
            None => Value::Big(Arc::new(b)),
        }
    }

    /// True iff this is the null value.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The machine integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float, if this is a real.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// The text, if this is a string (owned or borrowed form); reified
    /// variables are not dereferenced.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Win(w) => Some(w.as_str()),
            _ => None,
        }
    }

    /// The list handle, if this is a list.
    pub fn as_list(&self) -> Option<&Arc<Mutex<Vec<Value>>>> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Dereference: if this is a reified variable, its current value;
    /// otherwise the value itself. (Icon's implicit dereferencing.)
    pub fn deref(&self) -> Value {
        match self {
            Value::Ref(v) => v.get().deref(),
            other => other.clone(),
        }
    }

    /// The owned table key for this value, if it is a scalar.
    ///
    /// A key escapes into the table's own storage, so borrowed slices are
    /// [promoted](Value::promote) here rather than pinning a line buffer
    /// from inside a table. [`TableData::store`] calls this only when it
    /// inserts a new key; reads probe with [`Value::key_view`].
    pub fn as_key(&self) -> Option<Key> {
        match self.deref() {
            Value::Null => Some(Key::Null),
            Value::Int(i) => Some(Key::Int(i)),
            Value::Real(r) => Some(Key::RealBits(r.to_bits())),
            v @ (Value::Str(_) | Value::Win(_)) => {
                let Value::Str(s) = v.promote() else {
                    unreachable!("promoting a string yields an owned string")
                };
                Some(Key::text(s))
            }
            _ => None,
        }
    }

    /// The borrowed key view of a scalar, hashed from its bytes in place;
    /// it equals the view of the [`Value::as_key`] of the same value.
    /// `None` for non-scalars and for a `Ref`, whose view would borrow
    /// from a value read out of its cell.
    pub fn key_view(&self) -> Option<KeyRef<'_>> {
        match self {
            Value::Null => Some(KeyRef::Null),
            Value::Int(i) => Some(KeyRef::Int(*i)),
            Value::Real(r) => Some(KeyRef::RealBits(r.to_bits())),
            Value::Str(_) | Value::Win(_) => {
                let text = self.as_str()?;
                Some(KeyRef::Text(text, fnv1a(text)))
            }
            _ => None,
        }
    }

    /// Icon's `*x`: size of a string, list, table, or results count of a
    /// co-expression. `None` for sizeless values.
    pub fn size(&self) -> Option<i64> {
        let v = self.deref();
        match &v {
            Value::Str(_) | Value::Win(_) => v.char_len().map(|n| n as i64),
            Value::List(l) => Some(l.lock().len() as i64),
            Value::Table(t) => Some(t.lock().len() as i64),
            Value::Co(c) => Some(c.lock().produced() as i64),
            _ => None,
        }
    }

    /// Type name, as Icon's `type(x)` would report.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) | Value::Big(_) => "integer",
            Value::Real(_) => "real",
            Value::Str(_) | Value::Win(_) => "string",
            Value::List(_) => "list",
            Value::Table(_) => "table",
            Value::Proc(_) => "procedure",
            Value::Co(_) => "co-expression",
            Value::Ref(_) => "variable",
            Value::Object(_) => "object",
        }
    }

    /// Structural equivalence (Icon's `===` on scalars; identity on
    /// structures).
    pub fn equiv(&self, other: &Value) -> bool {
        match (&self.deref(), &other.deref()) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Big(a), Value::Big(b)) => a == b,
            (Value::Int(a), Value::Big(b)) | (Value::Big(b), Value::Int(a)) => {
                b.to_i64() == Some(*a)
            }
            (Value::Real(a), Value::Real(b)) => a == b,
            // Clones of one string share its allocation, so the pointer
            // check settles them without touching the bytes.
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            // Mixed string forms (owned / borrowed) compare by text: the
            // representation is an optimization, not a type.
            (a @ (Value::Str(_) | Value::Win(_)), b) if b.as_str().is_some() => {
                a.as_str() == b.as_str()
            }
            (Value::List(a), Value::List(b)) => Arc::ptr_eq(a, b),
            (Value::Table(a), Value::Table(b)) => Arc::ptr_eq(a, b),
            (Value::Proc(a), Value::Proc(b)) => a.same(b),
            (Value::Co(a), Value::Co(b)) => Arc::ptr_eq(a, b),
            (Value::Object(a), Value::Object(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Deep conversion to an owned, thread-isolated copy.
    ///
    /// Pipes use this at thread boundaries so that a consumer can never
    /// mutate the producer's structures — the type-level enforcement of the
    /// paper's "co-expressions minimize interference by isolating a copy of
    /// the local environment".
    pub fn deep_copy(&self) -> Value {
        match self.deref() {
            // Crossing a thread boundary is the canonical "outlives its
            // stage" event: borrowed slices promote to owned form so the
            // consumer never pins the producer's line buffers.
            v @ Value::Win(_) => v.promote(),
            Value::List(l) => {
                let items = l.lock().iter().map(Value::deep_copy).collect();
                Value::list(items)
            }
            Value::Table(t) => {
                let t = t.lock();
                let entries = t
                    .entries
                    .iter()
                    .map(|(k, v)| (k.clone(), v.deep_copy()))
                    .collect();
                Value::Table(Arc::new(Mutex::new(TableData {
                    entries,
                    default: t.default.deep_copy(),
                })))
            }
            scalar => scalar,
        }
    }
}

impl PartialEq for Value {
    /// Equality is [`Value::equiv`]: structural on scalars, identity on
    /// structures. Note this means `Value::from(3) != Value::str("3")`.
    fn eq(&self, other: &Self) -> bool {
        self.equiv(other)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<BigInt> for Value {
    fn from(v: BigInt) -> Self {
        Value::big(v)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "&null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Big(b) => write!(f, "{b}"),
            Value::Real(r) => write!(f, "{r:?}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Win(w) => write!(f, "{:?}", w.as_str()),
            Value::List(l) => {
                let l = l.lock();
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, "]")
            }
            Value::Table(t) => write!(f, "table#{}", t.lock().len()),
            Value::Proc(p) => write!(f, "procedure {}", p.name()),
            Value::Co(_) => write!(f, "co-expression"),
            Value::Ref(v) => write!(f, "ref({:?})", v.get()),
            Value::Object(o) => write!(f, "object {}", o.class_name),
        }
    }
}

impl fmt::Display for Value {
    /// Icon-style string image: strings print bare, others as in `Debug`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.deref();
        match v.as_str() {
            Some(s) => f.write_str(s),
            None => write!(f, "{v:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_stays_within_its_size_budget() {
        // Step moves a Value per suspension on the hot path. The ceiling
        // is set by `ProcValue` (a fat `Arc<str>` name plus a fat
        // `Arc<dyn Fn>` — 32 bytes), so the enum is 40 bytes with the
        // tag. `StrWin` must stay at or under that 32-byte line: its line
        // is a fat `Arc<str>` (16 bytes), leaving room for the
        // coordinates and the cached char count. Adding a field that
        // pushes it past 32 grows *every* Value.
        assert!(
            std::mem::size_of::<StrWin>() <= 32 && std::mem::size_of::<Value>() <= 40,
            "Value is {} bytes (StrWin {})",
            std::mem::size_of::<Value>(),
            std::mem::size_of::<StrWin>()
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn window_coordinates_are_checked_against_u32() {
        // The predicate the one window constructor applies before
        // narrowing to `u32`; past it, `mint` re-owns the text instead of
        // wrapping the coordinates.
        assert!(StrWin::fits(0));
        assert!(StrWin::fits(u32::MAX as usize));
        assert!(!StrWin::fits(u32::MAX as usize + 1));
        assert!(!StrWin::fits(usize::MAX));
    }

    #[test]
    fn scalar_constructors_and_accessors() {
        assert_eq!(Value::from(42).as_int(), Some(42));
        assert_eq!(Value::from(2.5).as_real(), Some(2.5));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::from(42).as_str(), None);
    }

    #[test]
    fn big_normalizes_to_int_when_small() {
        let v = Value::big(BigInt::from(7i64));
        assert!(matches!(v, Value::Int(7)));
        let huge = BigInt::from_str_radix("123456789012345678901234567890", 10).unwrap();
        assert!(matches!(Value::big(huge), Value::Big(_)));
    }

    #[test]
    fn sizes() {
        assert_eq!(Value::str("héllo").size(), Some(5));
        assert_eq!(Value::list(vec![Value::Null; 3]).size(), Some(3));
        assert_eq!(Value::from(5).size(), None);
        assert_eq!(Value::table().size(), Some(0));
    }

    #[test]
    fn equiv_scalars_and_identity() {
        assert!(Value::from(3).equiv(&Value::from(3)));
        assert!(!Value::from(3).equiv(&Value::from(4)));
        assert!(Value::str("a").equiv(&Value::str("a")));
        assert!(!Value::from(3).equiv(&Value::str("3"))); // no coercion in ===
        let l1 = Value::list(vec![]);
        let l2 = Value::list(vec![]);
        assert!(l1.equiv(&l1.clone()));
        assert!(!l1.equiv(&l2)); // identity, not structure
    }

    #[test]
    fn lists_share_mutations() {
        let l = Value::list(vec![Value::from(1)]);
        let alias = l.clone();
        if let Value::List(h) = &l {
            h.lock().push(Value::from(2));
        }
        assert_eq!(alias.size(), Some(2));
    }

    #[test]
    fn deep_copy_isolates() {
        let inner = Value::list(vec![Value::from(1)]);
        let outer = Value::list(vec![inner.clone()]);
        let copy = outer.deep_copy();
        if let Value::List(h) = &inner {
            h.lock().push(Value::from(2));
        }
        // The copy's inner list is unaffected.
        if let Value::List(h) = &copy {
            assert_eq!(h.lock()[0].size(), Some(1));
        } else {
            panic!("copy is not a list");
        }
    }

    #[test]
    fn deref_unwraps_refs() {
        let var = Var::new(Value::from(9));
        let r = Value::Ref(var.clone());
        assert_eq!(r.deref().as_int(), Some(9));
        var.set(Value::from(10));
        assert_eq!(r.deref().as_int(), Some(10));
    }

    #[test]
    fn keys_for_scalars_only() {
        assert_eq!(Value::from(1).as_key(), Some(Key::Int(1)));
        assert_eq!(Value::str("k").as_key(), Some(Key::text(Arc::from("k"))));
        assert_eq!(Value::Null.as_key(), Some(Key::Null));
        assert_eq!(Value::list(vec![]).as_key(), None);
    }

    fn slice_of(line: &str, start: usize, end: usize) -> Value {
        Value::slice(Arc::from(line), start, end)
    }

    #[test]
    fn string_forms_are_interchangeable() {
        let owned = Value::str("word");
        let promoted = slice_of("the word", 4, 8).promote();
        let sliced = slice_of("a word b", 2, 6);
        assert!(matches!(promoted, Value::Str(_)));
        assert!(sliced.is_borrowed());
        for v in [&owned, &promoted, &sliced] {
            assert_eq!(v.as_str(), Some("word"));
            assert_eq!(v.type_name(), "string");
            assert_eq!(v.size(), Some(4));
            assert_eq!(v.to_string(), "word");
            assert_eq!(format!("{v:?}"), "\"word\"");
        }
        assert!(owned.equiv(&promoted));
        assert!(owned.equiv(&sliced));
        assert!(promoted.equiv(&sliced));
        assert!(!promoted.equiv(&Value::str("other")));
        assert!(!sliced.equiv(&slice_of("words", 0, 5)));
    }

    #[test]
    fn string_key_forms_collide_in_tables() {
        // A table keyed through one string form must be found through the
        // others: every form's view hashes to the same digest and
        // compares by text.
        let Value::Table(t) = Value::table() else {
            unreachable!()
        };
        let mut t = t.lock();
        t.store(&Value::str("shared"), Value::from(1));
        for probe in [
            slice_of("shared", 0, 6),
            Value::str("shared"),
            Value::Ref(Var::new(Value::str("shared"))),
            Value::Ref(Var::new(slice_of("a shared b", 2, 8))),
        ] {
            let hit = t.lookup(&probe).flatten().and_then(Value::as_int);
            assert_eq!(hit, Some(1), "probe {probe:?} missed");
        }
        t.store(&slice_of("a shared b", 2, 8), Value::from(2));
        assert_eq!(t.len(), 1, "a hit is updated in place");
        assert_eq!(t.values().filter_map(Value::as_int).sum::<i64>(), 2);
    }

    #[test]
    fn tables_share_one_process_key() {
        // Drawn once from RandomState; every table hashes with it.
        let (a, b) = (KeyHash::default(), KeyHash::default());
        assert_eq!((a.seed, a.mul), (b.seed, b.mul));
        assert_eq!(a.mul & 1, 1, "an even multiplier drops a bit per fold");
        // The tag keeps kinds that write the same word apart.
        assert_ne!(a.hash_one(Key::Int(5)), a.hash_one(Key::RealBits(5)));
        // A stored text key hashes as every view of the same text.
        let text = Key::text(Arc::from("five"));
        for v in [Value::str("five"), slice_of("a five b", 2, 6)] {
            assert_eq!(a.hash_one(&text), a.hash_one(v.key_view().unwrap()));
        }
    }

    #[test]
    fn slice_windows_and_boundaries() {
        let line: Arc<str> = Arc::from("héllo wörld");
        let w = Value::slice(line.clone(), 0, 6); // "héllo" is 6 bytes
        assert_eq!(w.as_str(), Some("héllo"));
        assert_eq!(w.size(), Some(5)); // chars, not bytes
    }

    #[test]
    #[should_panic(expected = "char boundaries")]
    fn slice_rejects_split_chars() {
        let line: Arc<str> = Arc::from("é");
        Value::slice(line, 0, 1); // middle of the two-byte é
    }

    #[test]
    fn promote_releases_the_line() {
        // The promoted value no longer pins the line buffer: once the
        // pipeline's handle drops, the line is freed even though the
        // promoted word lives on.
        let line: Arc<str> = Arc::from("pinned line");
        let weak = Arc::downgrade(&line);
        let word = Value::slice(line, 0, 6);
        let promoted = word.promote();
        assert!(matches!(promoted, Value::Str(_)));
        assert!(weak.upgrade().is_none(), "promotion must unpin the line");
        assert_eq!(promoted.as_str(), Some("pinned"));
    }

    #[test]
    fn promote_large_text_stays_private() {
        // Long text promotes like short text: to an owned string.
        let big = "x".repeat(200);
        let line: Arc<str> = Arc::from(big.as_str());
        let v = Value::slice(line, 0, 200).promote();
        assert!(matches!(v, Value::Str(_)));
        assert_eq!(v.size(), Some(200));
    }

    #[test]
    fn promote_is_identity_elsewhere() {
        for v in [
            Value::Null,
            Value::from(3),
            Value::str("owned"),
            Value::list(vec![]),
        ] {
            let before = format!("{v:?}");
            assert_eq!(format!("{:?}", v.promote()), before);
        }
    }

    #[test]
    fn deep_copy_promotes_slices() {
        let line: Arc<str> = Arc::from("over the wire");
        let weak = Arc::downgrade(&line);
        let word = Value::slice(line, 0, 4);
        let crossed = word.deep_copy();
        drop(word);
        assert!(weak.upgrade().is_none(), "deep_copy must unpin the line");
        assert_eq!(crossed.as_str(), Some("over"));
    }

    #[test]
    fn coercions_cover_compact_forms() {
        use crate::ops;
        let owned = Value::str("42");
        let sli = slice_of("xx 42 yy", 3, 5);
        for v in [&owned, &sli] {
            assert!(matches!(ops::to_num(v), Some(ops::Num::Int(42))));
            assert_eq!(ops::to_str(v).as_deref(), Some("42"));
            assert_eq!(
                ops::index(v, &Value::from(1)).and_then(|c| c.as_str().map(str::to_string)),
                Some("4".to_string())
            );
        }
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::from(1).type_name(), "integer");
        assert_eq!(Value::str("s").type_name(), "string");
        assert_eq!(Value::from(1.0).type_name(), "real");
        assert_eq!(Value::Null.type_name(), "null");
    }

    #[test]
    fn display_images() {
        assert_eq!(Value::str("plain").to_string(), "plain");
        assert_eq!(Value::from(3).to_string(), "3");
        assert_eq!(
            Value::list(vec![Value::from(1), Value::str("x")]).to_string(),
            "[1, \"x\"]"
        );
    }
}
