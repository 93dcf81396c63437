//! Multiplication: operand-scanning schoolbook with `u128` intermediates
//! and a dedicated squaring path. Only set-up multiplies wide operands
//! here (`n²`, and `R² mod n²` in `MontCtx::new`); every per-ciphertext
//! product runs on Montgomery limbs in `mont`.

use crate::BigUint;

impl BigUint {
    /// Full multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        BigUint::from_limbs(schoolbook(&self.limbs, &other.limbs))
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
        BigUint::from_limbs(schoolbook_sqr(&self.limbs))
    }
}

/// Schoolbook squaring: off-diagonal half products, doubled, plus the
/// diagonal — ~half the limb multiplies of `schoolbook(a, a)`. Output
/// always has `2 * a.len()` limbs (high limbs may be zero).
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
    fn sqr_limbs_handles_trailing_zeros() {
        // Montgomery operands are fixed-width and may carry high zero
        // limbs; the squaring path must tolerate them.
        let a = BigUint::from_u128(0xffff_abcd_1234_5678_9abc_def0);
        let mut padded = a.limbs().to_vec();
        padded.resize(40, 0);
        assert_eq!(BigUint::from_limbs(schoolbook_sqr(&padded)), a.sqr());
        assert_eq!(schoolbook_sqr(&[]), Vec::<u64>::new());
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
