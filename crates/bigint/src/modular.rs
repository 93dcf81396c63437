//! GCD, extended GCD, and modular inverses.

use crate::BigUint;

/// Greatest common divisor (Euclid).
pub fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
    let mut a = a.clone();
    let mut b = b.clone();
    while !b.is_zero() {
        let r = a.rem(&b);
        a = b;
        b = r;
    }
    a
}

/// Least common multiple; panics if both are zero.
pub fn lcm(a: &BigUint, b: &BigUint) -> BigUint {
    let g = gcd(a, b);
    a.div_rem(&g).0.mul(b)
}

/// Modular inverse of `a` modulo `m`, or `None` if `gcd(a, m) != 1`.
///
/// Iterative extended Euclid tracking only the `t` coefficient with a
/// sign flag (the classic trick avoiding signed bignums).
pub fn mod_inv(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    assert!(!m.is_zero(), "mod_inv: zero modulus");
    if m.is_one() {
        return Some(BigUint::zero());
    }
    let mut r0 = m.clone();
    let mut r1 = a.rem(m);
    // t coefficients with explicit signs: t0 = 0, t1 = 1.
    let mut t0 = BigUint::zero();
    let mut t1 = BigUint::one();
    let mut neg0 = false;
    let mut neg1 = false;

    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1);
        // t2 = t0 - q*t1 with sign tracking.
        let qt1 = q.mul(&t1);
        let (t2, neg2) = signed_sub(&t0, neg0, &qt1, neg1);
        r0 = std::mem::replace(&mut r1, r2);
        t0 = std::mem::replace(&mut t1, t2);
        neg0 = std::mem::replace(&mut neg1, neg2);
    }
    if !r0.is_one() {
        return None; // not coprime
    }
    let inv = if neg0 {
        m.sub(&t0.rem(m)).rem(m)
    } else {
        t0.rem(m)
    };
    Some(inv)
}

/// `(a, neg_a) - (b, neg_b)` in sign-magnitude form.
fn signed_sub(a: &BigUint, neg_a: bool, b: &BigUint, neg_b: bool) -> (BigUint, bool) {
    match (neg_a, neg_b) {
        // a - (-b) = a + b ; (-a) - b = -(a+b)
        (false, true) => (a.add(b), false),
        (true, false) => (a.add(b), true),
        // same sign: magnitude subtraction
        (sa, _) => {
            if a >= b {
                (a.sub(b), sa)
            } else {
                (b.sub(a), !sa)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(
            gcd(&BigUint::from_u64(12), &BigUint::from_u64(18)).low_u64(),
            6
        );
        assert_eq!(
            gcd(&BigUint::from_u64(17), &BigUint::from_u64(13)).low_u64(),
            1
        );
        assert_eq!(gcd(&BigUint::zero(), &BigUint::from_u64(5)).low_u64(), 5);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(
            lcm(&BigUint::from_u64(4), &BigUint::from_u64(6)).low_u64(),
            12
        );
    }

    #[test]
    fn mod_inv_small() {
        let m = BigUint::from_u64(97);
        for a in 1..97u64 {
            let inv = mod_inv(&BigUint::from_u64(a), &m).unwrap();
            assert_eq!(inv.mul_u64(a).rem(&m).low_u64(), 1, "a={a}");
        }
    }

    #[test]
    fn mod_inv_not_coprime() {
        assert!(mod_inv(&BigUint::from_u64(6), &BigUint::from_u64(9)).is_none());
        assert!(mod_inv(&BigUint::zero(), &BigUint::from_u64(9)).is_none());
    }

    #[test]
    fn mod_inv_multi_limb() {
        // modulus = 2^127 - 1 (prime); inverse must satisfy a*inv = 1.
        let m = BigUint::one().shl(127).sub_u64(1);
        let a = BigUint::from_u128(0x1234_5678_9abc_def0_fedc_ba98_7654_3210);
        let inv = mod_inv(&a, &m).unwrap();
        assert!(a.mod_mul(&inv, &m).is_one());
    }

    #[test]
    fn mod_inv_of_unreduced_input() {
        let m = BigUint::from_u64(101);
        let a = BigUint::from_u64(3 + 101 * 7);
        let inv = mod_inv(&a, &m).unwrap();
        assert_eq!(inv.mul_u64(3).rem(&m).low_u64(), 1);
    }
}
