//! Integer square root.
//!
//! The paper's `hashNumber` takes `Math.sqrt` of the parsed word (Fig. 3);
//! the heavyweight hash variants additionally work on exact integer roots,
//! so both an exact integer Newton iteration and the `f64` path are provided.

use crate::BigUint;

impl BigUint {
    /// Floor of the square root, computed by Newton's method on integers.
    ///
    /// For all `n`: `sqrt(n)^2 <= n < (sqrt(n)+1)^2`.
    pub fn sqrt(&self) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        if let Some(v) = self.to_u64() {
            return BigUint::from(u64_isqrt(v));
        }
        // Initial guess: 2^ceil(bits/2), guaranteed >= sqrt(n).
        let mut x = BigUint::one().shl_bits(self.bits().div_ceil(2));
        loop {
            // x' = (x + n/x) / 2; the sequence is strictly decreasing until
            // it reaches floor(sqrt(n)).
            let mut next = x.add_ref(&self.div_rem(&x).0);
            next.div_rem_small(2);
            if next.cmp_mag(&x) != core::cmp::Ordering::Less {
                return x;
            }
            x = next;
        }
    }
}

fn u64_isqrt(v: u64) -> u64 {
    if v == 0 {
        return 0;
    }
    let mut x = (v as f64).sqrt() as u64;
    // Correct the float estimate by at most one step in either direction.
    while x.checked_mul(x).is_none_or(|sq| sq > v) {
        x -= 1;
    }
    while (x + 1).checked_mul(x + 1).is_some_and(|sq| sq <= v) {
        x += 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqrt_small_values() {
        for (n, r) in [
            (0u64, 0u64),
            (1, 1),
            (2, 1),
            (3, 1),
            (4, 2),
            (8, 2),
            (9, 3),
            (15, 3),
            (16, 4),
        ] {
            assert_eq!(BigUint::from(n).sqrt(), BigUint::from(r), "sqrt({n})");
        }
    }

    #[test]
    fn sqrt_near_u64_boundary() {
        let v = u64::MAX;
        let r = BigUint::from(v).sqrt();
        let r2 = r.mul_ref(&r);
        assert!(r2 <= BigUint::from(v));
        let r1 = r.add_ref(&BigUint::one());
        assert!(r1.mul_ref(&r1) > BigUint::from(v));
    }

    #[test]
    fn sqrt_large_perfect_square() {
        let root = BigUint::from_str_radix("123456789123456789123456789", 10).unwrap();
        let square = root.mul_ref(&root);
        assert_eq!(square.sqrt(), root);
        assert_eq!(square.add_ref(&BigUint::one()).sqrt(), root);
    }

    #[test]
    fn sqrt_large_non_square_brackets() {
        let n = BigUint::from_str_radix("98765432109876543210987654321098765432109", 10).unwrap();
        let r = n.sqrt();
        assert!(r.mul_ref(&r) <= n);
        let r1 = r.add_ref(&BigUint::one());
        assert!(r1.mul_ref(&r1) > n);
    }

    #[test]
    fn u64_isqrt_exhaustive_corners() {
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            24,
            25,
            26,
            u32::MAX as u64,
            (u32::MAX as u64).pow(2),
        ] {
            let r = u64_isqrt(v);
            assert!(r * r <= v);
            assert!((r + 1).checked_mul(r + 1).is_none_or(|sq| sq > v));
        }
    }
}
