//! Cause-carrying termination: *why* a channel ended.
//!
//! A closed queue used to be a single bit, which made a producer panic
//! indistinguishable from clean end-of-stream — the consumer of a pipe
//! whose generator crashed mid-stream saw a truncated but apparently
//! successful result. [`CloseCause`] splits that bit into a tiny
//! lattice: `Finished` (the clean end every existing `close()` call
//! still means) and `Failed(Fault)` (an abnormal end with attribution).
//! The first close wins; later closes — e.g. a producer's close-on-exit
//! guard running after the fault was already recorded — are no-ops.

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_FAULT_ID: AtomicU64 = AtomicU64::new(1);

/// Attribution for an abnormal stream end, carried through
/// [`crate::BlockingQueue::close_with`] to every consumer.
///
/// Cheap to clone (the strings are shared): a cause is handed to each
/// end-of-stream observer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    stage: Arc<str>,
    message: Arc<str>,
    id: u64,
}

impl Fault {
    /// Record a fault at `stage` with a rendered `message`. Each fault
    /// gets a process-unique, monotonically increasing id.
    pub fn new(stage: impl AsRef<str>, message: impl AsRef<str>) -> Fault {
        Fault {
            stage: Arc::from(stage.as_ref()),
            message: Arc::from(message.as_ref()),
            id: NEXT_FAULT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Build a fault from a caught panic payload (`catch_unwind`'s
    /// `Err`), extracting the usual `&str` / `String` message forms.
    pub fn from_panic(stage: impl AsRef<str>, payload: &(dyn Any + Send)) -> Fault {
        Fault::new(stage, panic_message(payload))
    }

    /// The stage label (e.g. `"pipe"` for a pipe's producer).
    pub fn stage(&self) -> &str {
        &self.stage
    }

    /// The rendered panic (or error) message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Process-unique fault sequence number. Doubles as the obs snapshot
    /// id: counters recorded at fault time (`blockingq.close.failed`,
    /// `pipes.faults.*`) can be correlated to a fault by snapshotting
    /// around this sequence.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage `{}` failed: {} (fault #{})",
            self.stage, self.message, self.id
        )
    }
}

/// Extract a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Why a queue terminated. See the module docs for the lattice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CloseCause {
    /// Clean end-of-stream — what plain [`crate::BlockingQueue::close`]
    /// records.
    Finished,
    /// Abnormal end, with attribution.
    Failed(Fault),
}

impl CloseCause {
    /// True iff this is a `Failed` cause.
    pub fn is_failed(&self) -> bool {
        matches!(self, CloseCause::Failed(_))
    }

    /// The fault, if this is a `Failed` cause.
    pub fn fault(&self) -> Option<&Fault> {
        match self {
            CloseCause::Finished => None,
            CloseCause::Failed(f) => Some(f),
        }
    }
}

impl fmt::Display for CloseCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloseCause::Finished => write!(f, "finished"),
            CloseCause::Failed(fault) => write!(f, "failed: {fault}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotone() {
        let a = Fault::new("s1", "m1");
        let b = Fault::new("s2", "m2");
        assert!(b.id() > a.id());
        assert_ne!(a, b);
    }

    #[test]
    fn display_carries_attribution() {
        let f = Fault::new("pipe-producer", "index out of bounds");
        let s = f.to_string();
        assert!(s.contains("pipe-producer"));
        assert!(s.contains("index out of bounds"));
        let c = CloseCause::Failed(f.clone());
        assert!(c.is_failed());
        assert_eq!(c.fault(), Some(&f));
        assert!(!CloseCause::Finished.is_failed());
    }

    #[test]
    fn panic_payload_forms() {
        let s: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(&*s), "static str");
        let s: Box<dyn Any + Send> = Box::new("owned".to_string());
        assert_eq!(panic_message(&*s), "owned");
        let s: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(&*s), "non-string panic payload");
    }
}
