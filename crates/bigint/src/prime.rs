//! Miller–Rabin primality testing and random prime generation for
//! Paillier key generation.

use crate::{rng::random_below, rng::random_bits, BigUint, MontCtx};
use rand::Rng;

/// Small primes for trial division before Miller–Rabin.
const SMALL_PRIMES: &[u64] = &[
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Miller–Rabin with `rounds` random bases (error probability 4^-rounds).
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    if n.bits() <= 6 {
        let v = n.low_u64();
        return matches!(
            v,
            2 | 3 | 5 | 7 | 11 | 13 | 17 | 19 | 23 | 29 | 31 | 37 | 41 | 43 | 47 | 53 | 59 | 61
        );
    }
    if n.is_even() {
        return false;
    }
    for &p in SMALL_PRIMES {
        if n.div_rem_u64(p).1 == 0 {
            return n.to_u64() == Some(p);
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n.sub_u64(1);
    let s = trailing_zeros(&n_minus_1);
    let d = n_minus_1.shr(s);
    let ctx = MontCtx::new(n);
    let two = BigUint::from_u64(2);
    let bound = n.sub_u64(3);

    'witness: for _ in 0..rounds {
        // a in [2, n-2]
        let a = random_below(rng, &bound).add(&two);
        let mut x = ctx.pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..s.saturating_sub(1) {
            x = x.mod_mul(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Number of trailing zero bits of a non-zero value.
pub(crate) fn trailing_zeros(n: &BigUint) -> usize {
    debug_assert!(!n.is_zero());
    let mut tz = 0;
    for &l in n.limbs() {
        if l == 0 {
            tz += 64;
        } else {
            tz += l.trailing_zeros() as usize;
            break;
        }
    }
    tz
}

/// Generate a random probable prime with exactly `bits` bits.
pub fn gen_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size too small for Paillier");
    loop {
        let mut candidate = random_bits(rng, bits);
        // Force odd.
        if candidate.is_even() {
            candidate = candidate.add_u64(1);
            if candidate.bits() != bits {
                continue;
            }
        }
        // Scan forward in steps of 2 for a while before resampling; this
        // amortizes the random generation cost.
        for _ in 0..64 {
            if candidate.bits() != bits {
                break;
            }
            if is_probable_prime(&candidate, 20, rng) {
                return candidate;
            }
            candidate = candidate.add_u64(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn known_small_primes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for p in [2u64, 3, 5, 7, 97, 101, 65537, 1_000_000_007] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 20, &mut rng),
                "p={p}"
            );
        }
    }

    #[test]
    fn known_composites() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        // Includes Carmichael numbers 561, 1105, 1729, 294409.
        for c in [
            1u64,
            4,
            9,
            15,
            91,
            561,
            1105,
            1729,
            294409,
            65536,
            1_000_000_008,
        ] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 20, &mut rng),
                "c={c}"
            );
        }
    }

    #[test]
    fn mersenne_127_is_prime() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let p = BigUint::one().shl(127).sub_u64(1);
        assert!(is_probable_prime(&p, 16, &mut rng));
        // 2^128 - 1 is composite.
        let c = BigUint::one().shl(128).sub_u64(1);
        assert!(!is_probable_prime(&c, 16, &mut rng));
    }

    #[test]
    fn gen_prime_has_requested_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for bits in [16usize, 64, 128] {
            let p = gen_prime(bits, &mut rng);
            assert_eq!(p.bits(), bits);
            assert!(is_probable_prime(&p, 20, &mut rng));
        }
    }

    #[test]
    fn gen_prime_256_smoke() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let p = gen_prime(256, &mut rng);
        assert_eq!(p.bits(), 256);
        assert!(!p.is_even());
    }
}
