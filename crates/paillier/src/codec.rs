//! Fixed-point encoding of `f64` values into `Z_n`.
//!
//! `encode(v) = round(v · 2^{frac_bits·scale}) mod n`, with negatives
//! mapped to the upper half of the ring (`n - |m|`). Homomorphic
//! plain×cipher products therefore carry scale `2·frac_bits`;
//! [`decode`] divides the (sign-recovered) integer back out.

use bf_bigint::BigUint;

/// Largest `frac_bits` a key may carry. A scale-2 value is shifted by
/// `2·frac_bits` into a `u128` magnitude ([`encode_exponent`]), so 1.0
/// at scale 2 still encodes at 63 (`2^126`) and no longer at 64.
pub const MAX_FRAC_BITS: u32 = 63;

/// A signed fixed-point integer, used as a homomorphic scalar-mult
/// exponent: `value = (-1)^neg · mag / 2^frac_bits`.
#[derive(Clone, Debug)]
pub struct SignedInt {
    /// Magnitude of the scaled integer.
    pub mag: BigUint,
    /// Sign flag.
    pub neg: bool,
}

impl SignedInt {
    /// True if the magnitude is zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }
}

/// Encode `v` at `scale` multiples of `frac_bits` into `Z_n`.
///
/// Panics (debug) if the scaled magnitude exceeds `n/2`, which would
/// alias positive and negative payloads.
pub fn encode(v: f64, frac_bits: u32, scale: u8, n: &BigUint) -> BigUint {
    let s = encode_exponent(v, frac_bits * scale as u32);
    if s.neg {
        if s.mag.is_zero() {
            BigUint::zero()
        } else {
            n.sub(&s.mag)
        }
    } else {
        s.mag
    }
}

/// Encode `v` as a signed scaled integer (for use as an exponent in
/// homomorphic scalar multiplication).
pub fn encode_exponent(v: f64, shift_bits: u32) -> SignedInt {
    let (mag, neg) = scaled_magnitude(v, shift_bits);
    SignedInt {
        mag: BigUint::from_u128(mag),
        neg,
    }
}

/// `round(|v · 2^shift_bits|)` and the sign of `v · 2^shift_bits`: the
/// quantisation every encoder shares ([`encode_exponent`], and the slot
/// packer, which takes the magnitude as a `u128`). Panics on a
/// non-finite `v`.
pub(crate) fn scaled_magnitude(v: f64, shift_bits: u32) -> (u128, bool) {
    assert!(v.is_finite(), "cannot encode non-finite value {v}");
    let scaled = v * (shift_bits as f64).exp2();
    debug_assert!(
        scaled.abs() < 1.7e38,
        "fixed-point overflow: |{v}| * 2^{shift_bits} exceeds 128 bits"
    );
    let neg = scaled < 0.0;
    let mag_f = scaled.abs().round();
    let mag = if mag_f < 1.8446744073709552e19 {
        mag_f as u64 as u128
    } else {
        mag_f as u128
    };
    (mag, neg)
}

/// Decode a ring element back to `f64` at `scale` multiples of
/// `frac_bits`. Elements above `n/2` decode as negative.
pub fn decode(m: &BigUint, frac_bits: u32, scale: u8, n: &BigUint, half_n: &BigUint) -> f64 {
    let shift = (frac_bits * scale as u32) as f64;
    if m > half_n {
        -(n.sub(m).to_f64()) / shift.exp2()
    } else {
        m.to_f64() / shift.exp2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n() -> BigUint {
        BigUint::one().shl(256).sub_u64(189) // prime-ish large modulus
    }

    #[test]
    fn roundtrip_positive_negative() {
        let n = n();
        let half = n.shr(1);
        let irr = std::f64::consts::PI;
        for v in [0.0, 1.0, -1.0, irr, -irr, 1e-6, -1e-6, 12345.678, -99999.5] {
            let enc = encode(v, 32, 1, &n);
            let dec = decode(&enc, 32, 1, &n, &half);
            assert!((dec - v).abs() < 1e-9, "v={v} dec={dec}");
        }
    }

    #[test]
    fn scale_two_roundtrip() {
        let n = n();
        let half = n.shr(1);
        let v = -17.25;
        let enc = encode(v, 32, 2, &n);
        let dec = decode(&enc, 32, 2, &n, &half);
        assert!((dec - v).abs() < 1e-12);
    }

    #[test]
    fn additive_homomorphism_of_encoding() {
        // encode(a) + encode(b) mod n decodes to a + b.
        let n = n();
        let half = n.shr(1);
        for (a, b) in [(1.5, 2.5), (-1.5, 0.75), (3.0, -5.0), (-2.0, -2.0)] {
            let ea = encode(a, 32, 1, &n);
            let eb = encode(b, 32, 1, &n);
            let sum = ea.mod_add(&eb, &n);
            let dec = decode(&sum, 32, 1, &n, &half);
            assert!((dec - (a + b)).abs() < 1e-8, "a={a} b={b} dec={dec}");
        }
    }

    #[test]
    fn multiplicative_scale_composition() {
        // encode(a,1) * encode(b,1) decodes at scale 2 to a*b.
        let n = n();
        let half = n.shr(1);
        for (a, b) in [(1.5, 2.0), (-3.25, 4.0), (-2.0, -8.5)] {
            let ea = encode(a, 32, 1, &n);
            let eb = encode(b, 32, 1, &n);
            let prod = ea.mod_mul(&eb, &n);
            let dec = decode(&prod, 32, 2, &n, &half);
            assert!((dec - a * b).abs() < 1e-6, "a={a} b={b} dec={dec}");
        }
    }

    #[test]
    fn exponent_encoding_signs() {
        let e = encode_exponent(-2.5, 4);
        assert!(e.neg);
        assert_eq!(e.mag.low_u64(), 40);
        let z = encode_exponent(0.0, 32);
        assert!(z.is_zero());
    }
}
