//! # Concurrent Generators
//!
//! A Rust reproduction of *Embedding Concurrent Generators* (Peter Mills and
//! Clinton Jeffery, IPDPS HIPS 2016): a model of explicit concurrency for
//! Icon/Unicon-style generators based on co-expressions and multithreaded
//! generator proxies ("pipes"), together with the mixed-language embedding
//! toolchain (scoped annotations, generator flattening, interpretation and
//! transpilation) the paper builds around it.
//!
//! This facade crate re-exports the workspace members under one roof:
//!
//! | Module | Crate | Paper section |
//! |---|---|---|
//! | [`gde`] | goal-directed evaluation runtime | Sec. II, V.B |
//! | [`coexpr`] | co-expressions (`|<>e`, `@`, `^`, `!`) | Sec. III.A |
//! | [`pipes`] | generator proxies (`|>e`) over blocking queues | Sec. III.B |
//! | [`mapreduce`] | chunking, DataParallel map-reduce | Sec. IV, Fig. 4 |
//! | [`junicon`] | scoped annotations, normalization, interpreter, transpiler | Secs. IV–VI |
//! | [`bigint`] | arbitrary-precision arithmetic substrate | Sec. VII |
//! | [`blockingq`] | blocking queues (the one blocking primitive) | Sec. III.B |
//! | [`exec`] | thread pool substrate | Sec. V.D |
//! | [`wordcount`] | the Fig. 3 / Fig. 6 evaluation workload | Sec. VII |
//!
//! ## Quickstart
//!
//! The paper's opening example — multiples of primes via goal-directed
//! evaluation, `(1 to 2) * isprime(4 to 7)` — in the combinator API:
//!
//! ```
//! use concurrent_generators::gde::{Gen, Step, Value};
//! use concurrent_generators::gde::comb::{to_range, filter_map, product_map};
//!
//! // isprime(x): produce x if prime, else fail.
//! let isprime = |v: &Value| match v.as_int() {
//!     Some(n) if (2..n).all(|d| n % d != 0) && n >= 2 => Some(v.clone()),
//!     _ => None,
//! };
//! let mut g = product_map(
//!     to_range(1, 2, 1),
//!     move |_| Box::new(filter_map(to_range(4, 7, 1), isprime)),
//!     |i, j| Some(Value::from(i.as_int().unwrap() * j.as_int().unwrap())),
//! );
//! let mut results = Vec::new();
//! while let Step::Suspend(v) = g.resume() {
//!     results.push(v.as_int().unwrap());
//! }
//! assert_eq!(results, vec![5, 7, 10, 14]); // 1*5, 1*7, 2*5, 2*7
//! ```

#![forbid(unsafe_code)]

pub use bigint;
pub use blockingq;
pub use coexpr;
pub use exec;
pub use gde;
pub use junicon;
pub use mapreduce;
pub use obs;
pub use pipes;
pub use wordcount;
