//! Unsigned arbitrary-precision integers on little-endian 64-bit limbs.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, BitAnd, Div, Mul, Rem, Shl, Shr, Sub};

/// An arbitrary-precision unsigned integer.
///
/// The representation is a little-endian vector of 64-bit limbs with no
/// trailing zero limbs; zero is the empty vector. All arithmetic is exact.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// True iff the value is `0`.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is `1`.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Construct from raw little-endian limbs, stripping trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// The little-endian limb slice (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Number of significant bits; `0` has zero bits.
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(hi) => (self.limbs.len() as u64 - 1) * 64 + (64 - hi.leading_zeros() as u64),
        }
    }

    /// Value of bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        self.limbs
            .get(limb)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// Returns `self` if it fits in a `u64`.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Lossy conversion to `f64` (rounds; very large values become `inf`).
    pub fn to_f64(&self) -> f64 {
        match self.limbs.len() {
            0 => 0.0,
            1 => self.limbs[0] as f64,
            2 => (self.limbs[1] as u128) as f64 * 2f64.powi(64) + self.limbs[0] as f64,
            n => {
                // Use the top 128 bits and scale by the remaining bit count.
                let hi = (self.limbs[n - 1] as u128) << 64 | self.limbs[n - 2] as u128;
                hi as f64 * 2f64.powi(64 * (n as i32 - 2))
            }
        }
    }

    /// Three-way comparison of magnitudes.
    pub fn cmp_mag(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }

    /// `self + other`.
    pub fn add_ref(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        let mut short_iter = short.iter().copied().chain(std::iter::repeat(0));
        for &a in long.iter() {
            let b = short_iter.next().expect("repeat(0) is endless");
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - other`; returns `None` if `other > self`.
    pub fn checked_sub_ref(&self, other: &Self) -> Option<Self> {
        if self.cmp_mag(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// `self * other` (schoolbook).
    pub fn mul_ref(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = a as u128 * b as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Multiply in place by a single limb and add a single-limb carry.
    pub(crate) fn mul_add_small(&mut self, m: u64, a: u64) {
        let mut carry = a as u128;
        for l in self.limbs.iter_mut() {
            let t = *l as u128 * m as u128 + carry;
            *l = t as u64;
            carry = t >> 64;
        }
        while carry != 0 {
            self.limbs.push(carry as u64);
            carry >>= 64;
        }
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Divide by a single limb in place, returning the remainder.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub(crate) fn div_rem_small(&mut self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem = 0u128;
        for l in self.limbs.iter_mut().rev() {
            let cur = rem << 64 | *l as u128;
            *l = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
        rem as u64
    }

    /// Quotient and remainder of `self / other` (Knuth Algorithm D).
    ///
    /// # Panics
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &Self) -> (Self, Self) {
        assert!(!other.is_zero(), "division by zero");
        match self.cmp_mag(other) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if other.limbs.len() == 1 {
            let mut q = self.clone();
            let r = q.div_rem_small(other.limbs[0]);
            return (q, BigUint::from(r));
        }
        // Knuth TAOCP Vol. 2, 4.3.1, Algorithm D, with 64-bit limbs.
        let shift = other.limbs.last().unwrap().leading_zeros();
        let v = other.shl_bits(shift as u64);
        let mut u = self.shl_bits(shift as u64).limbs;
        u.push(0); // room for the extra high limb
        let n = v.limbs.len();
        let m = u.len() - n - 1;
        let v_hi = v.limbs[n - 1];
        let v_next = v.limbs[n - 2];
        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate q_hat from the top two limbs of u and the top limb of v.
            let top = (u[j + n] as u128) << 64 | u[j + n - 1] as u128;
            let mut q_hat = top / v_hi as u128;
            let mut r_hat = top % v_hi as u128;
            // Correct q_hat down to at most off-by-one.
            while q_hat >> 64 != 0 || q_hat * v_next as u128 > (r_hat << 64 | u[j + n - 2] as u128)
            {
                q_hat -= 1;
                r_hat += v_hi as u128;
                if r_hat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-and-subtract: u[j..j+n+1] -= q_hat * v.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = q_hat * v.limbs[i] as u128 + carry;
                carry = p >> 64;
                let t = u[j + i] as i128 - (p as u64) as i128 + borrow;
                u[j + i] = t as u64;
                borrow = t >> 64; // arithmetic shift: 0 or -1
            }
            let t = u[j + n] as i128 - carry as i128 + borrow;
            u[j + n] = t as u64;
            if t < 0 {
                // q_hat was one too large: add v back and decrement.
                q_hat -= 1;
                let mut c = 0u128;
                for i in 0..n {
                    let s = u[j + i] as u128 + v.limbs[i] as u128 + c;
                    u[j + i] = s as u64;
                    c = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(c as u64);
            }
            q[j] = q_hat as u64;
        }
        let rem = BigUint::from_limbs(u[..n].to_vec()).shr_bits(shift as u64);
        (BigUint::from_limbs(q), rem)
    }

    /// `self << bits`.
    pub fn shl_bits(&self, bits: u64) -> Self {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push(l << bit_shift | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self >> bits`.
    pub fn shr_bits(&self, bits: u64) -> Self {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return BigUint::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let hi = src.get(i + 1).copied().unwrap_or(0);
            out.push(src[i] >> bit_shift | (hi << (64 - bit_shift)));
        }
        BigUint::from_limbs(out)
    }

    /// `self^exp` by repeated squaring (exact, can be huge).
    pub fn pow(&self, mut exp: u64) -> Self {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul_ref(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul_ref(&base);
            }
        }
        acc
    }

    /// `self^exp mod m` by square-and-multiply.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return BigUint::zero();
        }
        let mut base = self.div_rem(m).1;
        let mut acc = BigUint::one();
        let nbits = exp.bits();
        for i in 0..nbits {
            if exp.bit(i) {
                acc = acc.mul_ref(&base).div_rem(m).1;
            }
            if i + 1 < nbits {
                base = base.mul_ref(&base).div_rem(m).1;
            }
        }
        acc
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from(v as u64)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_mag(other)
    }
}

impl Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        self.add_ref(rhs)
    }
}

impl Add for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        self.add_ref(&rhs)
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        *self = self.add_ref(rhs);
    }
}

impl Sub for &BigUint {
    type Output = BigUint;
    /// # Panics
    /// Panics on underflow.
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub_ref(rhs).expect("BigUint underflow")
    }
}

impl Sub for BigUint {
    type Output = BigUint;
    fn sub(self, rhs: BigUint) -> BigUint {
        &self - &rhs
    }
}

impl Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        self.mul_ref(rhs)
    }
}

impl Mul for BigUint {
    type Output = BigUint;
    fn mul(self, rhs: BigUint) -> BigUint {
        self.mul_ref(&rhs)
    }
}

impl Div for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl Shl<u64> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: u64) -> BigUint {
        self.shl_bits(bits)
    }
}

impl Shr<u64> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: u64) -> BigUint {
        self.shr_bits(bits)
    }
}

impl BitAnd<u64> for &BigUint {
    type Output = u64;
    /// Masks the low limb: convenient for parity/window tests.
    fn bitand(self, mask: u64) -> u64 {
        self.limbs.first().copied().unwrap_or(0) & mask
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self)
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_str_radix(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        BigUint::from_str_radix(s, 10).unwrap()
    }

    #[test]
    fn zero_and_one_identities() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().add_ref(&BigUint::one()), BigUint::one());
        assert_eq!(
            BigUint::from(7u64).mul_ref(&BigUint::one()),
            BigUint::from(7u64)
        );
        assert_eq!(
            BigUint::from(7u64).mul_ref(&BigUint::zero()),
            BigUint::zero()
        );
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        let s = a.add_ref(&b);
        assert_eq!(s.limbs(), &[0, 1]);
        assert_eq!(s.bits(), 65);
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = BigUint::from_limbs(vec![0, 1]); // 2^64
        let b = BigUint::one();
        assert_eq!(a.checked_sub_ref(&b).unwrap(), BigUint::from(u64::MAX));
        assert_eq!(b.checked_sub_ref(&a), None);
    }

    #[test]
    fn mul_known_values() {
        let a = big("123456789012345678901234567890");
        let b = big("987654321098765432109876543210");
        let p = a.mul_ref(&b);
        assert_eq!(
            p.to_str_radix(10),
            "121932631137021795226185032733622923332237463801111263526900"
        );
    }

    #[test]
    fn div_rem_small_divisor() {
        let a = big("123456789012345678901234567890");
        let (q, r) = a.div_rem(&BigUint::from(97u64));
        assert_eq!(
            q.mul_ref(&BigUint::from(97u64))
                .add_ref(&r)
                .to_str_radix(10),
            "123456789012345678901234567890"
        );
        assert!(r < BigUint::from(97u64));
    }

    #[test]
    fn div_rem_multi_limb() {
        let a = big("340282366920938463463374607431768211456123456789");
        let b = big("18446744073709551629"); // > 2^64, prime-ish
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul_ref(&b).add_ref(&r), a);
        assert!(r.cmp_mag(&b) == Ordering::Less);
    }

    #[test]
    fn div_rem_requires_add_back() {
        // A case engineered to trigger the Algorithm D add-back branch:
        // u = b^2 * (b/2) where the quotient estimate overshoots.
        let b = BigUint::from_limbs(vec![0, 0, 1]); // 2^128
        let d = BigUint::from_limbs(vec![1, 1 << 63]); // 2^127 + 1... keep general
        let (q, r) = b.div_rem(&d);
        assert_eq!(q.mul_ref(&d).add_ref(&r), b);
        assert!(r.cmp_mag(&d) == Ordering::Less);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = big("987654321987654321987654321");
        for bits in [0u64, 1, 7, 63, 64, 65, 130] {
            assert_eq!(a.shl_bits(bits).shr_bits(bits), a);
        }
    }

    #[test]
    fn shr_to_zero() {
        assert!(BigUint::from(5u64).shr_bits(3).is_zero());
        assert!(BigUint::zero().shr_bits(100).is_zero());
    }

    #[test]
    fn pow_and_modpow_agree() {
        let b = BigUint::from(7u64);
        let m = BigUint::from(1_000_003u64);
        let full = b.pow(20).div_rem(&m).1;
        let modp = b.modpow(&BigUint::from(20u64), &m);
        assert_eq!(full, modp);
    }

    #[test]
    fn modpow_fermat_little() {
        // a^(p-1) ≡ 1 (mod p) for prime p not dividing a.
        let p = big("1000000007");
        let a = big("123456789");
        let e = p.checked_sub_ref(&BigUint::one()).unwrap();
        assert!(a.modpow(&e, &p).is_one());
    }

    #[test]
    fn to_f64_small_and_large() {
        assert_eq!(BigUint::from(12345u64).to_f64(), 12345.0);
        let big128 = BigUint::from(u128::MAX);
        let f = big128.to_f64();
        assert!((f - 3.402823669209385e38).abs() / f < 1e-10);
    }

    #[test]
    fn bit_queries() {
        let a = BigUint::from(0b1011u64);
        assert!(a.bit(0) && a.bit(1) && !a.bit(2) && a.bit(3) && !a.bit(64));
        assert!(!a.is_even());
        assert!(BigUint::from(4u64).is_even());
        assert!(BigUint::zero().is_even());
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(big("999999999999999999999") > big("999999999999999999998"));
        assert!(big("1") < big("18446744073709551616"));
        assert_eq!(big("42").cmp(&big("42")), Ordering::Equal);
    }

    #[test]
    fn u128_roundtrip() {
        let v = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        assert_eq!(BigUint::from(v).to_string(), v.to_string());
        assert_eq!(BigUint::from(7u64).to_u64(), Some(7));
        assert_eq!(BigUint::from(u128::MAX).to_u64(), None);
    }
}
