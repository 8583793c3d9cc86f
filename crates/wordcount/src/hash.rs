//! The hash-function computational nodes.
//!
//! Fig. 3's two stages, in light and heavyweight variants:
//!
//! * `wordToNumber(word)` — `new BigInteger(word, 36)`;
//! * `hashNumber(n)` — `Math.sqrt(n.doubleValue())`.
//!
//! The heavyweight variants follow Sec. VII: "a second heavyweight set …
//! increased the complexity of the hash function components and so the
//! weight of the threaded tasks … by a factor of roughly 80, achieved using
//! trigonometry and prime number functions of Java's Math and BigInteger
//! libraries". Here the heavy `wordToNumber` performs modular
//! exponentiation on the parsed value, and the heavy `hashNumber` searches
//! for the next probable prime and folds in a trigonometric series.

use bigint::BigUint;

/// Computational weight of the hash nodes (the two halves of Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Weight {
    Light,
    Heavy,
}

impl Weight {
    pub fn name(&self) -> &'static str {
        match self {
            Weight::Light => "Lightweight",
            Weight::Heavy => "Heavyweight",
        }
    }
}

/// Iterations of the trigonometric series in the heavy hash; tuned so the
/// heavy node weight is roughly two orders of magnitude above light, like
/// the paper's ~80x.
const TRIG_ROUNDS: u32 = 48;

/// `wordToNumber`: parse a word as a base-36 integer. Fails on words with
/// characters outside `[0-9a-zA-Z]` (the paper's version throws
/// `NumberFormatException`; goal-directed failure is the embedded analogue).
pub fn word_to_number(word: &str, weight: Weight) -> Option<BigUint> {
    let n = BigUint::from_str_radix(word, 36).ok()?;
    match weight {
        Weight::Light => Some(n),
        Weight::Heavy => {
            // Stretch the node: a modular exponentiation keyed by the word
            // itself (BigInteger.modPow in the Java suite).
            let m = BigUint::from(0xffff_ffff_ffff_ffc5u64); // large prime modulus
            let e = BigUint::from(65537u64);
            let stretched = n.add_ref(&BigUint::from(2u64)).modpow(&e, &m);
            // Keep the original magnitude so the final hash stays
            // comparable across weights in shape (sqrt of same n), but
            // force the stretched value to be consumed.
            if stretched > m {
                unreachable!("modpow result bounded by modulus");
            }
            Some(n)
        }
    }
}

/// `hashNumber`: the square root of the number as a double.
pub fn hash_number(n: &BigUint, weight: Weight) -> f64 {
    let base = n.to_f64().sqrt();
    match weight {
        Weight::Light => base,
        Weight::Heavy => {
            // Prime search (BigInteger.nextProbablePrime) ...
            let seed = n.div_rem(&BigUint::from(1_000_003u64)).1;
            let p = seed.next_probable_prime();
            let _consume = p.bits();
            // ... plus a trigonometric series (Math.sin/cos/atan).
            let mut acc = 0.0f64;
            let x = base.max(1.0);
            for k in 1..=TRIG_ROUNDS {
                let kf = k as f64;
                acc += (x / kf).sin() * (kf / x).atan().cos();
            }
            // The series is folded in at zero amplitude so heavy and light
            // totals are numerically identical (shape comparisons need the
            // same answer) while the work is real and not elided: the
            // compiler cannot prove acc * 0.0 hits the fast path away
            // because acc depends on runtime data.
            base + acc * f64::MIN_POSITIVE * 0.0
        }
    }
}

/// [`hash_number`] over a machine-range value — the unboxed fast path the
/// embedded runtime takes for `Value::Int`. Bit-identical to
/// `hash_number(&BigUint::from(n), weight)`: a single-limb `to_f64` is
/// exactly `n as f64`, so the lightweight path can skip the big-integer
/// allocation entirely. The heavyweight path needs the big-integer ops
/// (prime search), so it round-trips — the node is compute-dominated
/// there anyway.
pub fn hash_int(n: u64, weight: Weight) -> f64 {
    match weight {
        Weight::Light => (n as f64).sqrt(),
        Weight::Heavy => hash_number(&BigUint::from(n), weight),
    }
}

/// The composed per-word hash: `hashNumber(wordToNumber(word))`.
pub fn hash_word(word: &str, weight: Weight) -> Option<f64> {
    Some(hash_number(&word_to_number(word, weight)?, weight))
}

/// The reduction (`sumHash` in Fig. 3).
pub fn sum_hash(sofar: f64, hash: f64) -> f64 {
    sofar + hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn word_to_number_matches_biginteger() {
        // "hello" base 36 = 29234652 (cross-checked with java.math).
        let n = word_to_number("hello", Weight::Light).unwrap();
        assert_eq!(n.to_u64(), Some(29234652));
        assert!(word_to_number("h e", Weight::Light).is_none());
        assert!(word_to_number("", Weight::Light).is_none());
    }

    #[test]
    fn hash_is_sqrt() {
        let n = BigUint::from(144u64);
        assert_eq!(hash_number(&n, Weight::Light), 12.0);
    }

    #[test]
    fn heavy_and_light_totals_agree() {
        // The heavy variant does more work but produces the same value, so
        // cross-weight shape comparisons stay meaningful.
        for w in ["abc", "zz9", "q4fzz", "hello"] {
            let light = hash_word(w, Weight::Light).unwrap();
            let heavy = hash_word(w, Weight::Heavy).unwrap();
            assert!((light - heavy).abs() < 1e-9, "{w}: {light} vs {heavy}");
        }
    }

    #[test]
    fn heavy_is_much_slower() {
        let words: Vec<String> = (0..400).map(|i| format!("w{i}xyz")).collect();
        let t0 = Instant::now();
        let mut acc = 0.0;
        for w in &words {
            acc += hash_word(w, Weight::Light).unwrap();
        }
        let light = t0.elapsed();
        let t1 = Instant::now();
        for w in &words {
            acc += hash_word(w, Weight::Heavy).unwrap();
        }
        let heavy = t1.elapsed();
        assert!(acc.is_finite());
        // Expect a large gap; exact 80x depends on the machine, require >5x
        // to keep the test robust under debug builds.
        assert!(
            heavy > light * 5,
            "heavyweight not heavy enough: light={light:?} heavy={heavy:?}"
        );
    }

    #[test]
    fn sum_hash_reduces() {
        assert_eq!(sum_hash(1.5, 2.5), 4.0);
    }
}
