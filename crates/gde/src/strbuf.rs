//! The string builder arena — the shared append-only buffers that
//! `ops::concat` results window into.
//!
//! `ops::concat` used to re-own every result into a fresh `String` +
//! `Arc<str>`; on concat-heavy paths (the paper's per-word `word=count`
//! formatting, report assembly) that is two allocations per `||`. The
//! builder arena replaces them with *windows into a shared chunk*: a
//! [`StrBuilder`] appends operand bytes into its current [`StrBuf`] chunk
//! and hands out borrowed window values over them — the string analogue
//! of the per-line slice arena from the compact-value work. Three regimes,
//! from cheapest up:
//!
//! * **adjacency widening** — the operands are windows of the *same*
//!   owner and textually adjacent (`a` ends exactly where `b` starts):
//!   the result is a wider window of that owner, zero bytes copied
//!   (counted as `gde.value.concat_slices`);
//! * **tail extension** — the left operand is the *last published
//!   window* of the builder's current chunk: only the right operand's
//!   bytes are appended and the window widens over both (also
//!   `concat_slices`: the left operand's bytes were not re-copied);
//! * **fresh append** — both operands are copied into the chunk and the
//!   result windows over the pair (`gde.value.concat_copies`; still one
//!   amortized allocation instead of two per concat).
//!
//! # Ownership and soundness
//!
//! A [`StrBuf`] is an append-only byte chunk with a published length.
//! The *single* writer is the `StrBuilder` that allocated it (builders
//! are not `Clone`, chunks are never handed to another builder): it
//! writes only bytes **at or beyond** the published length, then
//! publishes the new length with a `Release` store. Readers
//! ([`StrBuf::window`]) only dereference windows validated against a
//! length they loaded with `Acquire`, so writer and readers always touch
//! disjoint bytes — published bytes are immutable for the rest of the
//! chunk's life. That published-prefix-immutable invariant is what makes
//! the `unsafe impl Send/Sync` below sound, and it is exactly the
//! promote-at-escape discipline of the line arenas: a window pins its
//! chunk via `Arc`, and any window that escapes its stage is promoted to
//! an owned form by the same hatches slices use ([`crate::Value::promote`]).
//!
//! When a result does not fit the current chunk the builder *retires* it
//! (outstanding windows keep it alive through their `Arc`s; a chunk with
//! no windows drops immediately) and starts a fresh one, growing
//! geometrically up to a cap so a long report does not thrash chunk
//! allocation. Windows never span chunks.

use crate::value::Value;
use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// First chunk size; retirement doubles up to [`MAX_CHUNK`].
const MIN_CHUNK: usize = 1 << 12;
/// Geometric growth cap — a single oversized result still gets a
/// dedicated chunk of its own size, but steady-state chunks stop here.
const MAX_CHUNK: usize = 1 << 16;

/// An append-only shared string chunk: the arena behind `ops::concat`
/// windows.
///
/// Bytes up to [`StrBuf::len`] are published UTF-8 and immutable; bytes
/// beyond it belong exclusively to the owning [`StrBuilder`].
pub struct StrBuf {
    bytes: Box<[UnsafeCell<u8>]>,
    /// Published length: `Release`-stored by the writer after the bytes
    /// are in place, `Acquire`-loaded by readers.
    len: AtomicUsize,
}

// Safety: the writer only mutates bytes >= the published `len` and is
// unique (StrBuilder is not Clone and never shares its current chunk
// with another builder); readers only dereference bytes < a published
// `len` they Acquire-loaded. Writer and readers are therefore always
// disjoint, and published bytes are immutable.
unsafe impl Send for StrBuf {}
unsafe impl Sync for StrBuf {}

impl StrBuf {
    fn with_capacity(cap: usize) -> Arc<StrBuf> {
        Arc::new(StrBuf {
            bytes: (0..cap).map(|_| UnsafeCell::new(0)).collect(),
            len: AtomicUsize::new(0),
        })
    }

    /// Published length in bytes.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True iff nothing has been published into this chunk yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// View a published window as text.
    ///
    /// # Panics
    /// If the window reaches beyond the published length. A window that
    /// splits a UTF-8 sequence panics in debug builds only — windows
    /// handed out by the builder always sit on char boundaries of
    /// published `&str` writes.
    pub fn window(&self, start: usize, end: usize) -> &str {
        let published = self.len();
        assert!(
            start <= end && end <= published,
            "StrBuf window {start}..{end} beyond published {published}"
        );
        // Safety: the published prefix is immutable (see type-level
        // comment), so a shared slice of it cannot race the writer.
        let bytes = unsafe {
            std::slice::from_raw_parts(self.bytes[start].get() as *const u8, end - start)
        };
        debug_assert!(
            std::str::from_utf8(bytes).is_ok(),
            "StrBuf window {start}..{end} splits a UTF-8 sequence"
        );
        // Safety: every published byte came from a `&str` via `push_str`/
        // `push_concat`/`try_extend`, and the builder only hands out
        // windows aligned to those writes — re-validating on every read
        // would make `Value::as_str` O(len) per call.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// Writer-side copy: `src` into `start..start+src.len()`, which must
    /// lie wholly at or beyond the published length.
    fn write(&self, start: usize, src: &[u8]) {
        debug_assert!(start >= self.len() && start + src.len() <= self.capacity());
        for (i, b) in src.iter().enumerate() {
            // Safety: exclusive writer (see type-level comment) and the
            // range is unpublished, so no reader can alias it.
            unsafe { *self.bytes[start + i].get() = *b };
        }
    }

    fn publish(&self, new_len: usize) {
        self.len.store(new_len, Ordering::Release);
    }
}

/// The per-stage string builder: owns the current chunk, appends concat
/// operands, and hands out borrowed window values over what it wrote.
/// Not `Clone` — one writer per chunk, by construction.
pub struct StrBuilder {
    chunk: Arc<StrBuf>,
}

impl Default for StrBuilder {
    fn default() -> Self {
        StrBuilder::new()
    }
}

impl StrBuilder {
    /// A builder with an empty initial chunk.
    pub fn new() -> StrBuilder {
        StrBuilder {
            chunk: StrBuf::with_capacity(MIN_CHUNK),
        }
    }

    /// The current chunk (tests use this to watch arena lifetime through
    /// a `Weak`).
    pub fn chunk(&self) -> &Arc<StrBuf> {
        &self.chunk
    }

    /// Retire the current chunk and start a fresh one with room for at
    /// least `needed` bytes.
    fn retire(&mut self, needed: usize) {
        let grown = (self.chunk.capacity() * 2).clamp(MIN_CHUNK, MAX_CHUNK);
        self.chunk = StrBuf::with_capacity(grown.max(needed));
    }

    /// Append `text` as a fresh published window.
    pub fn push_str(&mut self, text: &str) -> Value {
        self.push_concat(text, "")
    }

    /// Append the concatenation `a || b` as one published window.
    pub fn push_concat(&mut self, a: &str, b: &str) -> Value {
        let total = a.len() + b.len();
        let start = self.reserve(total);
        self.chunk.write(start, a.as_bytes());
        self.chunk.write(start + a.len(), b.as_bytes());
        self.chunk.publish(start + total);
        Value::chunk_window(&self.chunk, start, start + total)
    }

    /// Tail extension: if `left` is the last published window of the
    /// *current* chunk and `b` fits (possibly after growth is ruled
    /// out — extension never relocates), append only `b`'s bytes and
    /// return the widened window. `None` means the caller must fall back
    /// to a fresh [`StrBuilder::push_concat`].
    pub fn try_extend(&mut self, left: &Value, b: &str) -> Option<Value> {
        let (chunk, start, end) = left.chunk_span()?;
        if !Arc::ptr_eq(chunk, &self.chunk) || end != self.chunk.len() {
            return None;
        }
        if end + b.len() > self.chunk.capacity() {
            return None;
        }
        self.chunk.write(end, b.as_bytes());
        self.chunk.publish(end + b.len());
        Some(Value::chunk_window(&self.chunk, start, end + b.len()))
    }

    /// Room for `n` more bytes in the current chunk, retiring it if
    /// necessary; returns the write offset.
    fn reserve(&mut self, n: usize) -> usize {
        let len = self.chunk.len();
        if len + n > self.chunk.capacity() {
            self.retire(n);
            0
        } else {
            len
        }
    }
}

thread_local! {
    /// The per-thread builder behind `ops::concat`: stages are
    /// thread-confined (a generator resumes on one thread at a time, and
    /// values crossing a pipe are deep-copied/promoted), so a
    /// thread-local arena gives every stage builder-backed concatenation
    /// with no plumbing and no locks — and therefore no new scheduling
    /// points for the schedtest model suites.
    static BUILDER: RefCell<StrBuilder> = RefCell::new(StrBuilder::new());
}

/// Run `f` with the calling thread's string builder.
pub fn with_builder<R>(f: impl FnOnce(&mut StrBuilder) -> R) -> R {
    BUILDER.with(|b| f(&mut b.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_read_back_what_was_pushed() {
        let mut b = StrBuilder::new();
        let w1 = b.push_str("hello");
        let w2 = b.push_concat(" ", "world");
        assert_eq!(w1.as_str(), Some("hello"));
        assert_eq!(w2.as_str(), Some(" world"));
        assert!(w1.is_borrowed() && w2.is_borrowed());
    }

    #[test]
    fn tail_extension_widens_in_place() {
        let mut b = StrBuilder::new();
        let w = b.push_str("ab");
        let wide = b.try_extend(&w, "cd").expect("tail window must extend");
        assert_eq!(wide.as_str(), Some("abcd"));
        let (chunk, start, end) = wide.chunk_span().expect("a chunk window");
        assert!(Arc::ptr_eq(chunk, b.chunk()));
        assert_eq!((start, end), (0, 4), "nothing was re-copied");
    }

    #[test]
    fn non_tail_windows_do_not_extend() {
        let mut b = StrBuilder::new();
        let w = b.push_str("ab");
        let _later = b.push_str("xx"); // w is no longer the tail
        assert!(b.try_extend(&w, "cd").is_none());
        // Nor do values that are not windows of this builder's chunk.
        assert!(b.try_extend(&Value::str("ab"), "cd").is_none());
        let line: Arc<str> = Arc::from("ab");
        assert!(b.try_extend(&Value::slice(line, 0, 2), "cd").is_none());
    }

    #[test]
    fn retirement_keeps_old_windows_alive() {
        let mut b = StrBuilder::new();
        let w = b.push_str("keep");
        let first_chunk = Arc::downgrade(b.chunk());
        // Overflow the chunk: forces retirement.
        let big = "y".repeat(MIN_CHUNK);
        let _w2 = b.push_str(&big);
        assert!(
            !std::ptr::eq(first_chunk.as_ptr(), Arc::as_ptr(b.chunk())),
            "oversize push must retire"
        );
        assert_eq!(w.as_str(), Some("keep"), "retired chunk still readable");
        drop(w);
        assert!(
            first_chunk.upgrade().is_none(),
            "retired chunk must drop with its last window"
        );
    }

    #[test]
    fn oversize_results_get_dedicated_chunks() {
        let mut b = StrBuilder::new();
        let huge = "z".repeat(MAX_CHUNK + 17);
        let w = b.push_str(&huge);
        assert_eq!(w.as_str(), Some(huge.as_str()));
    }

    #[test]
    fn extension_respects_capacity() {
        let mut b = StrBuilder::new();
        let w = b.push_str("start");
        let too_big = "q".repeat(MIN_CHUNK);
        assert!(b.try_extend(&w, &too_big).is_none());
    }

    #[test]
    fn published_windows_are_readable_across_threads() {
        let mut b = StrBuilder::new();
        let w = b.push_str("crossing");
        let handle = std::thread::spawn(move || w.to_string());
        // Keep writing while the reader runs: disjoint bytes.
        for _ in 0..100 {
            b.push_str("noise");
        }
        assert_eq!(handle.join().unwrap(), "crossing");
    }
}
