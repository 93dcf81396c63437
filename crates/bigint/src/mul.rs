//! Multiplication: operand-scanning schoolbook with `u128` intermediates,
//! Karatsuba above a limb-count threshold, and a dedicated squaring path.

use crate::BigUint;

/// Limb count above which Karatsuba splitting kicks in. Chosen
/// empirically; schoolbook with u128 intermediates wins below ~32 limbs.
const KARATSUBA_THRESHOLD: usize = 32;

impl BigUint {
    /// Full multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let out = mul_limbs(&self.limbs, &other.limbs);
        BigUint::from_limbs(out)
    }

    /// Multiply by a `u64`.
    pub fn mul_u64(&self, v: u64) -> BigUint {
        if v == 0 || self.is_zero() {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let t = l as u128 * v as u128 + carry;
            out.push(t as u64);
            carry = t >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// Squaring (slightly cheaper than `mul(self, self)`).
    pub fn sqr(&self) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        BigUint::from_limbs(sqr_limbs(&self.limbs))
    }
}

/// Square a limb slice, dispatching between the half-product schoolbook
/// squaring and Karatsuba splitting. Output always has `2 * a.len()`
/// limbs (high limbs may be zero).
fn sqr_limbs(a: &[u64]) -> Vec<u64> {
    if a.len() < KARATSUBA_THRESHOLD {
        schoolbook_sqr(a)
    } else {
        karatsuba_sqr(a)
    }
}

/// Schoolbook squaring: off-diagonal half products, doubled, plus the
/// diagonal — ~half the limb multiplies of `schoolbook(a, a)`.
fn schoolbook_sqr(a: &[u64]) -> Vec<u64> {
    let n = a.len();
    let mut out = vec![0u64; 2 * n];
    // Off-diagonal products.
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        let mut carry = 0u128;
        for j in (i + 1)..n {
            let t = a[i] as u128 * a[j] as u128 + out[i + j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + n;
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    // Double.
    let mut carry = 0u64;
    for limb in out.iter_mut() {
        let new_carry = *limb >> 63;
        *limb = (*limb << 1) | carry;
        carry = new_carry;
    }
    debug_assert_eq!(carry, 0);
    // Diagonal.
    let mut carry = 0u128;
    for i in 0..n {
        let t = a[i] as u128 * a[i] as u128 + out[2 * i] as u128 + carry;
        out[2 * i] = t as u64;
        let t2 = out[2 * i + 1] as u128 + (t >> 64);
        out[2 * i + 1] = t2 as u64;
        carry = t2 >> 64;
    }
    debug_assert_eq!(carry, 0);
    out
}

/// Karatsuba squaring: three recursive squarings instead of three
/// general products — `(a0 + a1·B)² = z0 + (z1 − z0 − z2)·B + z2·B²`
/// with `z0 = a0²`, `z2 = a1²`, `z1 = (a0 + a1)²`.
fn karatsuba_sqr(a: &[u64]) -> Vec<u64> {
    let split = a.len() / 2;
    if split == 0 {
        return schoolbook_sqr(a);
    }
    let (a0, a1) = a.split_at(split);
    let a0 = trim(a0);

    let z0 = sqr_limbs(a0);
    let z2 = sqr_limbs(a1);
    let a01 = add_slices(a0, a1);
    let mut z1 = sqr_limbs(&a01);
    sub_in_place(&mut z1, &z0);
    sub_in_place(&mut z1, &z2);

    let mut out = vec![0u64; 2 * a.len()];
    add_at(&mut out, &z0, 0);
    add_at(&mut out, &z1, split);
    add_at(&mut out, &z2, 2 * split);
    out
}

/// Multiply two limb slices, dispatching between schoolbook and Karatsuba.
fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        schoolbook(a, b)
    } else {
        karatsuba(a, b)
    }
}

/// Operand-scanning schoolbook multiplication.
fn schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = ai as u128 * bj as u128 + out[i + j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
    out
}

/// Karatsuba multiplication on limb slices.
fn karatsuba(a: &[u64], b: &[u64]) -> Vec<u64> {
    let split = a.len().max(b.len()) / 2;
    if split == 0 || a.len() <= split || b.len() <= split {
        return schoolbook(a, b);
    }
    let (a0, a1) = a.split_at(split);
    let (b0, b1) = b.split_at(split);
    let a0 = trim(a0);
    let b0 = trim(b0);

    let z0 = mul_limbs(a0, b0); // low*low
    let z2 = mul_limbs(a1, b1); // high*high
    let a01 = add_slices(a0, a1);
    let b01 = add_slices(b0, b1);
    let mut z1 = mul_limbs(&a01, &b01); // (a0+a1)(b0+b1)
    sub_in_place(&mut z1, &z0);
    sub_in_place(&mut z1, &z2);

    let mut out = vec![0u64; a.len() + b.len()];
    add_at(&mut out, &z0, 0);
    add_at(&mut out, &z1, split);
    add_at(&mut out, &z2, 2 * split);
    out
}

fn trim(s: &[u64]) -> &[u64] {
    let mut n = s.len();
    while n > 0 && s[n - 1] == 0 {
        n -= 1;
    }
    &s[..n]
}

#[allow(clippy::needless_range_loop)]
fn add_slices(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (longer, shorter) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = longer.to_vec();
    let mut carry = 0u64;
    for i in 0..out.len() {
        let bi = shorter.get(i).copied().unwrap_or(0);
        let (s1, c1) = out[i].overflowing_add(bi);
        let (s2, c2) = s1.overflowing_add(carry);
        out[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
        if carry == 0 && i >= shorter.len() {
            break;
        }
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

#[allow(clippy::ptr_arg, clippy::needless_range_loop)]
fn sub_in_place(a: &mut Vec<u64>, b: &[u64]) {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = a[i].overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
        if borrow == 0 && i >= b.len() {
            break;
        }
    }
    debug_assert_eq!(borrow, 0, "karatsuba internal underflow");
}

#[allow(clippy::needless_range_loop)]
fn add_at(out: &mut [u64], v: &[u64], offset: usize) {
    let mut carry = 0u64;
    let mut i = 0;
    while i < v.len() || carry != 0 {
        let vi = v.get(i).copied().unwrap_or(0);
        let slot = &mut out[offset + i];
        let (s1, c1) = slot.overflowing_add(vi);
        let (s2, c2) = s1.overflowing_add(carry);
        *slot = s2;
        carry = (c1 as u64) + (c2 as u64);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_products() {
        let a = BigUint::from_u64(123456789);
        let b = BigUint::from_u64(987654321);
        assert_eq!(a.mul(&b).low_u128(), 123456789u128 * 987654321);
        assert_eq!(a.mul(&BigUint::zero()), BigUint::zero());
        assert_eq!(a.mul(&BigUint::one()), a);
    }

    #[test]
    fn mul_u64_matches_mul() {
        let a = BigUint::from_u128(u128::MAX - 5);
        assert_eq!(a.mul_u64(7), a.mul(&BigUint::from_u64(7)));
        assert_eq!(a.mul_u64(0), BigUint::zero());
    }

    #[test]
    fn sqr_matches_mul() {
        let mut a = BigUint::from_u64(0xdead_beef_1234_5678);
        for _ in 0..6 {
            assert_eq!(a.sqr(), a.mul(&a));
            a = a.mul(&a).add_u64(17);
        }
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Build two numbers big enough to cross the threshold.
        let mut a = BigUint::one();
        let mut b = BigUint::from_u64(3);
        for i in 0..40u64 {
            a = a.shl(64).add_u64(0x9e3779b97f4a7c15 ^ i);
            b = b.shl(64).add_u64(0xc2b2ae3d27d4eb4f ^ (i * 7));
        }
        assert!(a.limbs().len() >= KARATSUBA_THRESHOLD);
        let fast = a.mul(&b);
        let slow = BigUint::from_limbs(schoolbook(a.limbs(), b.limbs()));
        assert_eq!(fast, slow);
        assert_eq!(a.sqr(), slow_ref(&a, &a));
    }

    fn slow_ref(a: &BigUint, b: &BigUint) -> BigUint {
        BigUint::from_limbs(schoolbook(a.limbs(), b.limbs()))
    }

    #[test]
    fn sqr_limbs_handles_trailing_zeros() {
        // Montgomery operands are fixed-width and may carry high zero
        // limbs; the squaring paths must tolerate them. 40 limbs also
        // pushes the padded slice through the Karatsuba branch.
        let a = BigUint::from_u128(0xffff_abcd_1234_5678_9abc_def0);
        let mut padded = a.limbs().to_vec();
        padded.resize(40, 0);
        assert_eq!(BigUint::from_limbs(sqr_limbs(&padded)), a.sqr());
        assert_eq!(sqr_limbs(&[]), Vec::<u64>::new());
    }

    #[test]
    fn karatsuba_sqr_matches_schoolbook_sqr() {
        let mut a = BigUint::one();
        for i in 0..48u64 {
            a = a.shl(64).add_u64(0x517c_c1b7_2722_0a95 ^ (i * 13));
        }
        assert!(a.limbs().len() >= KARATSUBA_THRESHOLD);
        assert_eq!(
            BigUint::from_limbs(karatsuba_sqr(a.limbs())),
            BigUint::from_limbs(schoolbook_sqr(a.limbs()))
        );
    }

    #[test]
    fn distributivity_spot_check() {
        let a = BigUint::from_u128(0xffff_ffff_ffff_ffff_ffff_ffff);
        let b = BigUint::from_u64(0x1234_5678);
        let c = BigUint::from_u64(0x9abc_def0);
        let lhs = a.mul(&b.add(&c));
        let rhs = a.mul(&b).add(&a.mul(&c));
        assert_eq!(lhs, rhs);
    }
}
