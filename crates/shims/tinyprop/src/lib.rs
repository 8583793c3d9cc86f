//! **tinyprop** — a minimal, hermetic property-testing harness.
//!
//! The four property suites in this workspace were written against
//! [proptest](https://docs.rs/proptest); the hermetic-build rule
//! (DESIGN.md § "Hermetic build") forbids registry dependencies, so this
//! crate reimplements the subset those suites use:
//!
//! * **strategies**: integer ranges, `any::<T>()`, [`Just`], tuples,
//!   [`collection::vec`], [`option::of`], regex-subset string patterns
//!   (`"[a-g][a-g0-9]{0,5}"`), weighted [`prop_oneof!`], and the
//!   combinators `prop_map` / `prop_filter` / `prop_recursive`;
//! * **integrated shrinking**: every strategy produces a [`ValueTree`]
//!   that can `simplify`/`complicate` (proptest's architecture), so
//!   failures shrink through maps and filters — integers binary-search
//!   toward zero, vecs drop and then shrink elements, strings shorten;
//! * **macros**: [`proptest!`] (including `#![proptest_config(...)]`),
//!   [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`], [`prop_oneof!`].
//!
//! Deliberately *not* reproduced: persistence of failing cases
//! (`.proptest-regressions`), `prop_flat_map`, `Arbitrary` derive, and
//! adaptive case budgeting. Runs are deterministic per test name; set
//! `TINYPROP_SEED` to change the base seed and `TINYPROP_CASES` to
//! override the default case count (256).

#![forbid(unsafe_code)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub mod strategy;

pub use strategy::{
    any, collection, option, Arbitrary, BoxedStrategy, Just, Strategy, Union, ValueTree,
};

// ---------------------------------------------------------------------------
// Deterministic RNG (SplitMix64: tiny, seedable, passes the tests' needs)
// ---------------------------------------------------------------------------

/// The harness's internal random source (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`; `n` must be nonzero. (128-bit modulo:
    /// the 2^-64 bias is irrelevant for test-case generation.)
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
        (wide % n as u128) as u64
    }

    /// Uniform draw from the inclusive `[lo, hi]` interval (fits i128).
    pub fn int_in(&mut self, lo: i128, hi: i128) -> i128 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u128 + 1;
        if span == 0 {
            // Full 2^128 span cannot occur for the types we expose
            // (values are at most 64-bit), but stay total anyway.
            return self.next_u64() as i128;
        }
        let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
        lo + (wide % span) as i128
    }
}

// ---------------------------------------------------------------------------
// Config and case results
// ---------------------------------------------------------------------------

/// Knobs for a property run (the proptest-compatible subset).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required for the property to pass.
    pub cases: u32,
    /// Cap on `prop_assume!` rejections across the whole run.
    pub max_global_rejects: u32,
    /// Cap on shrink steps after a failure is found.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("TINYPROP_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(256);
        ProptestConfig {
            cases,
            max_global_rejects: 4096,
            max_shrink_iters: 4096,
        }
    }
}

impl ProptestConfig {
    /// A config that runs exactly `cases` successful cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

/// Why a single test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// The property does not hold; shrink and report.
    Fail(String),
    /// The input was rejected by `prop_assume!`; draw a fresh one.
    Reject(String),
}

impl TestCaseError {
    /// Construct a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Construct a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "property failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
        }
    }
}

/// Result type the body of a `proptest!` test evaluates to.
pub type TestCaseResult = Result<(), TestCaseError>;

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

enum Outcome {
    Pass,
    Reject,
    Fail(String),
}

fn run_once<V>(test: &impl Fn(V) -> TestCaseResult, value: V) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| test(value))) {
        Ok(Ok(())) => Outcome::Pass,
        Ok(Err(TestCaseError::Reject(_))) => Outcome::Reject,
        Ok(Err(TestCaseError::Fail(m))) => Outcome::Fail(m),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "test panicked (non-string payload)".to_string());
            Outcome::Fail(format!("panic: {msg}"))
        }
    }
}

/// FNV-1a, used to derive a per-test base seed from the test name.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Drive one property: generate `config.cases` inputs from `strategy`,
/// run `test` on each, and on failure shrink to a minimal counterexample
/// and panic with a report. This is what the [`proptest!`] macro expands
/// to; call it directly for programmatic use.
pub fn run_prop<S: Strategy>(
    config: ProptestConfig,
    name: &str,
    strategy: S,
    test: impl Fn(S::Value) -> TestCaseResult,
) {
    let base_seed = std::env::var("TINYPROP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x0001_CED0_C0DE)
        ^ fnv1a(name);

    let mut passed = 0u32;
    let mut rejects = 0u32;
    let mut attempt = 0u64;
    while passed < config.cases {
        attempt += 1;
        // Each attempt draws an independent deterministic stream.
        let mut rng = TestRng::new(base_seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9)));
        let mut tree = strategy.new_tree(&mut rng);
        match run_once(&test, tree.current()) {
            Outcome::Pass => passed += 1,
            Outcome::Reject => {
                rejects += 1;
                if rejects > config.max_global_rejects {
                    panic!(
                        "tinyprop: `{name}` rejected too many inputs \
                         ({rejects} rejects for {passed} passes); weaken prop_assume! \
                         or generate inputs that satisfy it directly"
                    );
                }
            }
            Outcome::Fail(first_msg) => {
                let original = tree.current();
                let (minimal, msg, steps) =
                    shrink(&mut *tree, &test, first_msg, config.max_shrink_iters);
                panic!(
                    "tinyprop: property `{name}` failed after {passed} passing case(s)\n\
                     \x20 message:  {msg}\n\
                     \x20 minimal:  {minimal:?}\n\
                     \x20 original: {original:?}  ({steps} shrink steps)\n\
                     \x20 reproduce with: TINYPROP_SEED={}",
                    base_seed ^ fnv1a(name), // report the pre-mix env value
                );
            }
        }
    }
}

/// Standard simplify/complicate shrink loop (proptest's algorithm):
/// binary-search toward simplicity while the failure persists, backing up
/// whenever a simplification makes the test pass.
fn shrink<V: Clone + fmt::Debug + 'static>(
    tree: &mut dyn ValueTree<Value = V>,
    test: &impl Fn(V) -> TestCaseResult,
    first_msg: String,
    max_iters: u32,
) -> (V, String, u32) {
    let mut best = (tree.current(), first_msg);
    let mut iters = 0u32;
    let mut accepted = 0u32;
    'outer: while iters < max_iters {
        iters += 1;
        if !tree.simplify() {
            break;
        }
        match run_once(test, tree.current()) {
            Outcome::Fail(m) => {
                accepted += 1;
                best = (tree.current(), m);
            }
            Outcome::Pass | Outcome::Reject => {
                // Simplified too far: walk back toward the failure.
                loop {
                    iters += 1;
                    if iters >= max_iters || !tree.complicate() {
                        break 'outer;
                    }
                    if let Outcome::Fail(m) = run_once(test, tree.current()) {
                        accepted += 1;
                        best = (tree.current(), m);
                        break;
                    }
                }
            }
        }
    }
    (best.0, best.1, accepted)
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// proptest-compatible test harness macro. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of
/// `#[test] fn name(binding in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__tinyprop_tests! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__tinyprop_tests! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __tinyprop_tests {
    (config = ($cfg:expr);
     $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let strategy = ( $($strat,)+ );
                $crate::run_prop(config, stringify!($name), strategy, |( $($arg,)+ )| {
                    $body
                    #[allow(unreachable_code)]
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
}

/// Fail the current case (shrinkable) unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} == {:?}`", l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} == {:?}`: {}", l, r, format!($($fmt)*)
            )));
        }
    }};
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?} != {:?}`",
                l, r
            )));
        }
    }};
}

/// Discard the current case (not counted as pass or fail) unless `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

/// Choose among strategies, optionally weighted (`w => strategy`). All
/// arms must produce the same `Value` type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $( ($weight as u32, $crate::Strategy::boxed($arm)) ),+
        ])
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $( (1u32, $crate::Strategy::boxed($arm)) ),+
        ])
    };
}

/// Everything a `proptest`-style test file needs, importable as
/// `use tinyprop::prelude::*;`. Includes `prop` as an alias for this
/// crate so `prop::collection::vec(...)` paths keep working.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn passing_property_runs_to_completion() {
        run_prop(
            ProptestConfig::with_cases(64),
            "commutes",
            (any::<i32>(), any::<i32>()),
            |(a, b)| {
                prop_assert_eq!(a as i64 + b as i64, b as i64 + a as i64);
                Ok(())
            },
        );
    }

    #[test]
    fn failing_property_shrinks_to_threshold() {
        // Property "v < 100" fails for v >= 100; the minimal counterexample
        // is exactly 100, and shrinking must find it from wherever the
        // first failure lands in [0, 10000).
        let res = catch_unwind(|| {
            run_prop(
                ProptestConfig::with_cases(256),
                "lt100",
                (0i64..10_000,),
                |(v,)| {
                    prop_assert!(v < 100);
                    Ok(())
                },
            );
        });
        let msg = match res {
            Ok(()) => panic!("property unexpectedly passed"),
            Err(p) => *p.downcast::<String>().expect("string panic payload"),
        };
        assert!(
            msg.contains("minimal:  (100,)"),
            "did not shrink to 100: {msg}"
        );
    }

    #[test]
    fn vec_failures_shrink_small() {
        // "no element is >= 50": minimal counterexample is the singleton
        // [50]. Requires both length- and element-shrinking to cooperate.
        let res = catch_unwind(|| {
            run_prop(
                ProptestConfig::with_cases(256),
                "vec50",
                (collection::vec(0i64..1000, 0..20),),
                |(xs,)| {
                    prop_assert!(xs.iter().all(|&x| x < 50));
                    Ok(())
                },
            );
        });
        let msg = match res {
            Ok(()) => panic!("property unexpectedly passed"),
            Err(p) => *p.downcast::<String>().expect("string panic payload"),
        };
        assert!(
            msg.contains("minimal:  ([50],)"),
            "did not shrink to [50]: {msg}"
        );
    }

    #[test]
    fn rejects_do_not_count_as_cases() {
        let mut executed = 0u32;
        let counter = std::sync::Mutex::new(&mut executed);
        run_prop(
            ProptestConfig::with_cases(16),
            "assume",
            (0i64..100,),
            move |(v,)| {
                **counter.lock().unwrap_or_else(|e| e.into_inner()) += 1;
                prop_assume!(v % 2 == 0);
                prop_assert!(v % 2 == 0);
                Ok(())
            },
        );
    }

    #[test]
    fn panics_are_treated_as_failures_and_shrunk() {
        let res = catch_unwind(|| {
            run_prop(
                ProptestConfig::with_cases(128),
                "panics",
                (0i64..1000,),
                |(v,)| {
                    assert!(v < 10, "boom at {v}");
                    Ok(())
                },
            );
        });
        let msg = match res {
            Ok(()) => panic!("property unexpectedly passed"),
            Err(p) => *p.downcast::<String>().expect("string panic payload"),
        };
        assert!(
            msg.contains("minimal:  (10,)"),
            "did not shrink panic to 10: {msg}"
        );
    }

    proptest! {
        #[test]
        fn macro_form_works(a in 0u32..10, b in 0u32..10) {
            prop_assert!(a < 10 && b < 10);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(17))]

        #[test]
        fn macro_config_form_works(v in any::<u16>()) {
            let _ = v;
        }
    }
}
