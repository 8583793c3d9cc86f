//! Primality testing and prime search.
//!
//! The heavyweight benchmark variant (Sec. VII) inflates the per-word work
//! using "trigonometry and prime number functions of Java's Math and
//! BigInteger libraries"; `isProbablePrime`/`nextProbablePrime` are the
//! `BigInteger` prime functions, reproduced here with deterministic
//! Miller–Rabin for 64-bit inputs and fixed-base Miller–Rabin beyond.

use crate::BigUint;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 25] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
];

/// Miller–Rabin witnesses that make the test deterministic for n < 3.3e24.
const MR_BASES: [u64; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

impl BigUint {
    /// Miller–Rabin probabilistic primality test.
    ///
    /// Deterministic for values below 3.3 * 10^24 (the 13 fixed witnesses
    /// cover that range); for larger values the error probability is at most
    /// 4^-13 per composite. This mirrors `BigInteger.isProbablePrime` with a
    /// generous certainty parameter.
    pub fn is_probable_prime(&self) -> bool {
        if let Some(v) = self.to_u64() {
            if v < 2 {
                return false;
            }
        }
        for &p in &SMALL_PRIMES {
            let pb = BigUint::from(p);
            if *self == pb {
                return true;
            }
            if self.div_rem(&pb).1.is_zero() {
                return false;
            }
        }
        // self is odd and > 97 here. Write self-1 = d * 2^s with d odd.
        let one = BigUint::one();
        let n_minus_1 = self.checked_sub_ref(&one).expect("self > 1");
        let s = trailing_zeros(&n_minus_1);
        let d = n_minus_1.shr_bits(s);
        'witness: for &a in &MR_BASES {
            let a = BigUint::from(a);
            let mut x = a.modpow(&d, self);
            if x.is_one() || x == n_minus_1 {
                continue;
            }
            for _ in 1..s {
                x = x.mul_ref(&x).div_rem(self).1;
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// The smallest probable prime strictly greater than `self`
    /// (`BigInteger.nextProbablePrime` semantics).
    pub fn next_probable_prime(&self) -> BigUint {
        let two = BigUint::from(2u64);
        if self.cmp_mag(&two) == core::cmp::Ordering::Less {
            return two;
        }
        // Start at the next odd number above self.
        let mut candidate = self.add_ref(&BigUint::one());
        if candidate.is_even() {
            candidate = candidate.add_ref(&BigUint::one());
        }
        loop {
            if candidate.is_probable_prime() {
                return candidate;
            }
            candidate = candidate.add_ref(&two);
        }
    }
}

fn trailing_zeros(n: &BigUint) -> u64 {
    debug_assert!(!n.is_zero());
    let mut tz = 0u64;
    for &l in n.limbs() {
        if l == 0 {
            tz += 64;
        } else {
            return tz + l.trailing_zeros() as u64;
        }
    }
    tz
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_prime_naive(n: u64) -> bool {
        if n < 2 {
            return false;
        }
        let mut d = 2;
        while d * d <= n {
            if n.is_multiple_of(d) {
                return false;
            }
            d += 1;
        }
        true
    }

    #[test]
    fn agrees_with_naive_up_to_2000() {
        for n in 0u64..2000 {
            assert_eq!(
                BigUint::from(n).is_probable_prime(),
                is_prime_naive(n),
                "disagreement at {n}"
            );
        }
    }

    #[test]
    fn known_large_primes() {
        // 2^61 - 1 is a Mersenne prime.
        let m61 = BigUint::from((1u64 << 61) - 1);
        assert!(m61.is_probable_prime());
        // 2^89 - 1 is a Mersenne prime (multi-limb).
        let m89 = BigUint::one()
            .shl_bits(89)
            .checked_sub_ref(&BigUint::one())
            .unwrap();
        assert!(m89.is_probable_prime());
        // 2^67 - 1 is famously composite (193707721 * 761838257287).
        let m67 = BigUint::one()
            .shl_bits(67)
            .checked_sub_ref(&BigUint::one())
            .unwrap();
        assert!(!m67.is_probable_prime());
    }

    #[test]
    fn carmichael_numbers_are_composite() {
        // Carmichael numbers fool Fermat tests but not Miller-Rabin.
        for n in [
            561u64, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
        ] {
            assert!(!BigUint::from(n).is_probable_prime(), "{n} is Carmichael");
        }
    }

    #[test]
    fn next_probable_prime_sequence() {
        let mut p = BigUint::zero();
        let expected = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29];
        for &e in &expected {
            p = p.next_probable_prime();
            assert_eq!(p.to_u64(), Some(e));
        }
    }

    #[test]
    fn next_probable_prime_skips_composite_run() {
        // 113 is prime; the next prime after 114..126 is 127.
        assert_eq!(
            BigUint::from(114u64).next_probable_prime().to_u64(),
            Some(127)
        );
        // From a prime, returns the NEXT prime (strictly greater).
        assert_eq!(BigUint::from(7u64).next_probable_prime().to_u64(), Some(11));
    }

    #[test]
    fn trailing_zeros_multi_limb() {
        let n = BigUint::one().shl_bits(130);
        assert_eq!(super::trailing_zeros(&n), 130);
        assert_eq!(super::trailing_zeros(&BigUint::from(12u64)), 2);
    }
}
