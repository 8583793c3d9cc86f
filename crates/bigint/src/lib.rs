//! Arbitrary-precision integer arithmetic.
//!
//! This crate is the substrate standing in for `java.math.BigInteger` in the
//! reproduction of *Embedding Concurrent Generators* (Mills & Jeffery, IPDPS
//! HIPS 2016). The paper's evaluation (Sec. VII) hashes words by parsing them
//! as base-36 integers, taking square roots, and — in the heavyweight variant
//! — exercising `BigInteger`'s prime-number functions. All of those
//! operations are provided here:
//!
//! * [`BigUint`] — unsigned magnitude arithmetic on 64-bit limbs
//!   (add/sub/mul/divrem, shifts, comparison, bit queries);
//! * [`BigInt`] — signed wrapper over [`BigUint`];
//! * radix parsing and formatting for bases 2–36 ([`BigUint::from_str_radix`],
//!   [`BigUint::to_str_radix`]);
//! * integer square root ([`BigUint::sqrt`]);
//! * modular exponentiation ([`BigUint::modpow`]) and Miller–Rabin
//!   probabilistic primality ([`BigUint::is_probable_prime`],
//!   [`BigUint::next_probable_prime`]);
//! * lossy conversion to `f64` ([`BigUint::to_f64`]).
//!
//! The implementation favours clarity and testability over asymptotic
//! sophistication: multiplication is schoolbook and division is Knuth's
//! Algorithm D, which is more than adequate for the word-hash workloads the
//! paper benchmarks (numbers of a few machine words).

#![forbid(unsafe_code)]

mod bigint;
mod biguint;
mod prime;
mod radix;
mod sqrt;

pub use crate::bigint::{BigInt, Sign};
pub use crate::biguint::BigUint;
pub use crate::radix::ParseBigIntError;
