//! Paillier key generation, encryption, and CRT decryption, plus the
//! `Plain` testing backend.

use std::sync::Arc;

use bf_bigint::{gen_prime, mod_inv, modular::lcm, BigUint, MontCtx};
use rand::Rng;

use crate::codec;
use crate::pack::SlotLayout;

/// Paillier public parameters plus precomputed Montgomery context for
/// `n^2`. Shared via `Arc` inside [`PublicKey`].
#[derive(Clone, Debug)]
pub struct PaillierPk {
    /// Modulus `n = p·q`.
    pub n: BigUint,
    /// `n^2` (ciphertext modulus).
    pub n2: BigUint,
    /// Montgomery context mod `n^2` — ciphertexts live in this domain.
    pub mont: MontCtx,
    /// `n/2`, the positive/negative decoding threshold.
    pub half_n: BigUint,
    /// Fixed-point fractional bits.
    pub frac_bits: u32,
    /// Modulus size in bits.
    pub key_bits: usize,
}

impl PaillierPk {
    /// Limbs per ciphertext (the width of the `n^2` Montgomery domain).
    pub fn ct_limbs(&self) -> usize {
        self.mont.limb_count()
    }

    /// Raw Paillier encryption of a ring element `m ∈ Z_n` with the
    /// supplied obfuscation `r^n` (Montgomery form). Returns the
    /// ciphertext in Montgomery form.
    ///
    /// Uses the `g = n+1` optimisation: `g^m = 1 + m·n (mod n^2)`, one
    /// multiplication instead of an exponentiation.
    pub fn raw_encrypt(&self, m: &BigUint, rn_mont: &[u64]) -> Vec<u64> {
        let gm = BigUint::one().add(&m.mul(&self.n)); // < n^2 since m < n
        let gm_mont = self.mont.to_mont(&gm);
        self.mont.mont_mul(&gm_mont, rn_mont)
    }

    /// Deterministic (obfuscation-free) encryption of a ring element.
    /// Only valid where the result's privacy is inherited from other
    /// ciphertexts it is combined with (e.g. `⟦v⟧ - φ` in HE2SS) or
    /// where the value is an accumulator seed (`⟦0⟧` in `lkup_bw`).
    pub fn raw_encrypt_deterministic(&self, m: &BigUint) -> Vec<u64> {
        let gm = BigUint::one().add(&m.mul(&self.n));
        self.mont.to_mont(&gm)
    }
}

/// Precomputed table for fixed-base windowed exponentiation: for a base
/// `b` fixed per key, `windows[i][d] = b^(d·16^i)` in Montgomery form.
///
/// `pow(e)` is then `Π_i windows[i][digit_i(e)]` — one multiply per
/// non-zero 4-bit digit and **no squarings at all**, versus 4 squarings
/// per window for the generic `pow_mont` ladder. The repeated
/// fixed-base pattern in this codebase is the encryption obfuscation
/// stream: the textbook `g^m` is already free via the `g = n+1`
/// shortcut (see [`PaillierPk::raw_encrypt`]), so the exponentiation
/// every encrypt pays for is `r^n`; with a table over a fixed valid
/// obfuscation `h = r_0^n`, each draw becomes a cheap `h^α` (see
/// [`crate::obf::ObfMode::FixedBase`]). Built once per key, reused
/// across every encryption.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    /// `windows[i][d] = base^(d·16^i)`, `d = 0..16`, Montgomery form.
    windows: Vec<Vec<Vec<u64>>>,
    /// Maximum supported exponent width in bits.
    exp_bits: usize,
}

impl FixedBaseTable {
    /// Precompute the table for exponents up to `exp_bits` bits.
    /// Costs ~`exp_bits/4 · 15` multiplies — about the price of two
    /// generic exponentiations, amortised across every later `pow`.
    pub fn new(mont: &MontCtx, base_mont: &[u64], exp_bits: usize) -> Self {
        let nwin = exp_bits.div_ceil(4).max(1);
        let mut windows = Vec::with_capacity(nwin);
        let mut base = base_mont.to_vec();
        for w in 0..nwin {
            let mut row: Vec<Vec<u64>> = Vec::with_capacity(16);
            row.push(mont.one_mont());
            row.push(base.clone());
            for d in 2..16 {
                let next = mont.mont_mul(&row[d - 1], &base);
                row.push(next);
            }
            if w + 1 < nwin {
                base = mont.mont_sqr(&row[8]); // (b^8)^2 = b^16
            }
            windows.push(row);
        }
        Self { windows, exp_bits }
    }

    /// `base^exp` in Montgomery form. Panics if `exp` is wider than the
    /// table was built for.
    pub fn pow(&self, mont: &MontCtx, exp: &BigUint) -> Vec<u64> {
        assert!(
            exp.bits() <= self.exp_bits,
            "exponent wider than the fixed-base table"
        );
        let mut acc: Option<Vec<u64>> = None;
        for (w, row) in self.windows.iter().enumerate() {
            let d = digit4(exp, w);
            if d == 0 {
                continue;
            }
            acc = Some(match acc {
                Some(a) => mont.mont_mul(&a, &row[d]),
                None => row[d].clone(),
            });
        }
        acc.unwrap_or_else(|| mont.one_mont())
    }
}

/// The `w`-th little-endian 4-bit digit of `e`.
fn digit4(e: &BigUint, w: usize) -> usize {
    let bit = w * 4;
    let limbs = e.limbs();
    let lo = limbs.get(bit / 64).copied().unwrap_or(0) >> (bit % 64);
    let v = if bit % 64 > 60 {
        let hi = limbs.get(bit / 64 + 1).copied().unwrap_or(0);
        lo | (hi << (64 - bit % 64))
    } else {
        lo
    };
    (v & 0xf) as usize
}

/// Paillier secret key with CRT decryption precomputations.
#[derive(Clone, Debug)]
pub struct PaillierSk {
    /// Prime factor `p`.
    p: BigUint,
    /// Prime factor `q`.
    q: BigUint,
    /// Montgomery context mod `p^2`.
    mont_p2: MontCtx,
    /// Montgomery context mod `q^2`.
    mont_q2: MontCtx,
    /// `Lp((n+1)^{p-1} mod p^2)^{-1} mod p`.
    hp: BigUint,
    /// `Lq((n+1)^{q-1} mod q^2)^{-1} mod q`.
    hq: BigUint,
    /// `p^{-1} mod q` for CRT recombination.
    p_inv_q: BigUint,
    /// Copy of the public parameters.
    pk: Arc<PaillierPk>,
}

impl PaillierSk {
    /// Decrypt a Montgomery-form ciphertext to a ring element of `Z_n`
    /// via CRT (decrypting mod `p^2` and `q^2` separately — roughly 4×
    /// cheaper than the textbook `c^λ mod n^2`).
    ///
    /// `bits` is what the caller knows about the plaintext as a signed
    /// integer `P` (negatives are `n − |P|`): `|P| < 2^bits`. A packed
    /// chunk states `used · slot_bits`; a scalar body states nothing.
    /// When `2^bits ≤ p/2`, `P` is already determined by its residue
    /// mod `p` — `m_p` itself if `m_p ≤ p/2`, else `m_p − p` — and the
    /// `q` half, half the cost of a decryption, is skipped. The ring
    /// element returned is the same either way; a plaintext outside the
    /// stated bound (another key's ciphertext, an overflowed slot)
    /// decodes to garbage on both paths, not to the same garbage: the
    /// full path's is `m mod n`, the narrow path's depends on `p`.
    /// Trusting the bound is sound for a semi-honest sender only (see
    /// docs/ARCHITECTURE.md, "What a decryption costs").
    pub fn raw_decrypt(&self, ct_mont: &[u64], bits: Option<usize>) -> BigUint {
        let c = self.pk.mont.from_mont(ct_mont);
        let (p, q) = (&self.p, &self.q);
        let mp = crt_half(&c, p, &self.mont_p2, &self.hp);
        // 2^bits ≤ p/2 ⟺ bits ≤ p.bits() − 2 (p is no power of two).
        if bits.is_some_and(|b| b + 2 <= p.bits()) {
            return if mp <= p.shr(1) {
                mp
            } else {
                self.pk.n.sub(&p.sub(&mp))
            };
        }
        let mq = crt_half(&c, q, &self.mont_q2, &self.hq);
        // Garner: m = mp + p * ((mq - mp) * p^{-1} mod q)
        let diff = mq.mod_sub(&mp.rem(q), q);
        let t = diff.mod_mul(&self.p_inv_q, q);
        mp.add(&p.mul(&t))
    }

    /// Public parameters associated with this key.
    pub fn pk(&self) -> &Arc<PaillierPk> {
        &self.pk
    }

    /// The prime factors `(p, q)` (used by key serialization; every
    /// CRT precomputation is derivable from them).
    pub fn factors(&self) -> (&BigUint, &BigUint) {
        (&self.p, &self.q)
    }
}

/// One CRT half of a decryption, for the prime `r` of `n`:
/// `m mod r = L_r(c^{r−1} mod r²) · h_r mod r`, with `L_r(x) = (x − 1)/r`.
fn crt_half(c: &BigUint, r: &BigUint, mont_r2: &MontCtx, h_r: &BigUint) -> BigUint {
    let x = mont_r2.pow(&c.rem(&mont_r2.m), &r.sub_u64(1));
    x.sub_u64(1).div_rem(r).0.mod_mul(h_r, r)
}

/// Rebuild a full secret key (all CRT precomputations) from its prime
/// factors, validating primality cheaply via the invertibility checks.
pub(crate) fn rebuild_secret(p: BigUint, q: BigUint, frac_bits: u32) -> Result<PaillierSk, String> {
    if p.is_even() || q.is_even() || p == q || p.bits() < 16 || q.bits() < 16 {
        return Err("invalid prime factors".to_string());
    }
    let n = p.mul(&q);
    let n2 = n.sqr();
    let mont = MontCtx::new(&n2);
    let half_n = n.shr(1);
    let key_bits = n.bits();
    let pk = Arc::new(PaillierPk {
        n: n.clone(),
        n2,
        mont,
        half_n,
        frac_bits,
        key_bits,
    });
    build_sk(p, q, pk).ok_or_else(|| "factors do not form a valid Paillier key".to_string())
}

/// Shared CRT setup used by keygen and deserialization.
fn build_sk(p: BigUint, q: BigUint, pk: Arc<PaillierPk>) -> Option<PaillierSk> {
    let p2 = p.sqr();
    let q2 = q.sqr();
    let mont_p2 = MontCtx::new(&p2);
    let mont_q2 = MontCtx::new(&q2);
    let g = pk.n.add_u64(1);
    // h_r inverts what a half with h_r = 1 makes of g = n + 1.
    let one = BigUint::one();
    let hp = mod_inv(&crt_half(&g, &p, &mont_p2, &one), &p)?;
    let hq = mod_inv(&crt_half(&g, &q, &mont_q2, &one), &q)?;
    let p_inv_q = mod_inv(&p, &q)?;
    Some(PaillierSk {
        p,
        q,
        mont_p2,
        mont_q2,
        hp,
        hq,
        p_inv_q,
        pk,
    })
}

/// A public key: real Paillier, or the identity `Plain` backend.
#[derive(Clone, Debug)]
pub enum PublicKey {
    /// Real Paillier public parameters.
    Paillier(Arc<PaillierPk>),
    /// Identity backend: "ciphertexts" are plaintext `f64`s. For tests
    /// and the lossless model-quality experiments only.
    Plain {
        /// Fixed-point quantisation applied on "encryption", so Plain
        /// runs reproduce the same quantisation error as real runs.
        frac_bits: u32,
    },
}

impl PublicKey {
    /// Fixed-point fractional bits of this key.
    pub fn frac_bits(&self) -> u32 {
        match self {
            PublicKey::Paillier(pk) => pk.frac_bits,
            PublicKey::Plain { frac_bits } => *frac_bits,
        }
    }

    /// True for the Plain (identity) backend.
    pub fn is_plain(&self) -> bool {
        matches!(self, PublicKey::Plain { .. })
    }

    /// The slot geometry this key packs with, or `None` for the Plain
    /// backend and for keys that fit fewer than two slots.
    pub fn slot_layout(&self) -> Option<SlotLayout> {
        match self {
            PublicKey::Paillier(pk) => SlotLayout::for_key(pk.key_bits, pk.frac_bits),
            PublicKey::Plain { .. } => None,
        }
    }
}

/// A secret key matching [`PublicKey`].
#[derive(Clone, Debug)]
pub enum SecretKey {
    /// Real Paillier secret key.
    Paillier(PaillierSk),
    /// Identity backend.
    Plain,
}

impl SecretKey {
    /// The matching public key.
    pub fn public(&self) -> PublicKey {
        match self {
            SecretKey::Paillier(sk) => PublicKey::Paillier(sk.pk.clone()),
            SecretKey::Plain => PublicKey::Plain {
                frac_bits: crate::DEFAULT_FRAC_BITS,
            },
        }
    }
}

/// Generate a Paillier key pair with an `key_bits`-bit modulus.
pub fn keygen<R: Rng + ?Sized>(
    key_bits: usize,
    frac_bits: u32,
    rng: &mut R,
) -> (PublicKey, SecretKey) {
    assert!(key_bits >= 64, "keygen: modulus too small");
    let half = key_bits / 2;
    let (p, q) = loop {
        let p = gen_prime(half, rng);
        let q = gen_prime(key_bits - half, rng);
        if p != q {
            // gcd(pq, (p-1)(q-1)) == 1 holds when p, q are distinct
            // primes of equal size; verify anyway.
            let n = p.mul(&q);
            let lambda = lcm(&p.sub_u64(1), &q.sub_u64(1));
            if bf_bigint::gcd(&n, &lambda).is_one() {
                break (p, q);
            }
        }
    };
    let n = p.mul(&q);
    let n2 = n.sqr();
    let mont = MontCtx::new(&n2);
    let half_n = n.shr(1);
    let pk = Arc::new(PaillierPk {
        n: n.clone(),
        n2,
        mont,
        half_n,
        frac_bits,
        key_bits,
    });

    let sk = build_sk(p, q, pk.clone()).expect("fresh primes form a valid key");
    (PublicKey::Paillier(pk), SecretKey::Paillier(sk))
}

/// Generate a Plain (identity) "key pair" for fast functional runs.
pub fn plain_keys(frac_bits: u32) -> (PublicKey, SecretKey) {
    (PublicKey::Plain { frac_bits }, SecretKey::Plain)
}

/// Encrypt/decrypt a single scalar — convenience used by tests.
pub fn encrypt_scalar(pk: &PublicKey, obf: &crate::Obfuscator, v: f64) -> ScalarCt {
    match pk {
        PublicKey::Paillier(p) => {
            let m = codec::encode(v, p.frac_bits, 1, &p.n);
            ScalarCt::Enc(p.raw_encrypt(&m, &obf.next_rn(p)))
        }
        PublicKey::Plain { .. } => ScalarCt::Plain(v),
    }
}

/// Decrypt a single scalar.
pub fn decrypt_scalar(sk: &SecretKey, ct: &ScalarCt) -> f64 {
    match (sk, ct) {
        (SecretKey::Paillier(s), ScalarCt::Enc(c)) => {
            let m = s.raw_decrypt(c, None);
            codec::decode(&m, s.pk.frac_bits, 1, &s.pk.n, &s.pk.half_n)
        }
        (SecretKey::Plain, ScalarCt::Plain(v)) => *v,
        _ => panic!("key/ciphertext backend mismatch"),
    }
}

/// A single ciphertext (test helper).
#[derive(Clone, Debug)]
pub enum ScalarCt {
    /// Paillier ciphertext in Montgomery form.
    Enc(Vec<u64>),
    /// Plain-backend "ciphertext": the value itself.
    Plain(f64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObfMode, Obfuscator};
    use rand::SeedableRng;

    fn setup() -> (PublicKey, SecretKey, Obfuscator) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let (pk, sk) = keygen(256, 24, &mut rng);
        let obf = Obfuscator::new(&pk, ObfMode::Pool(8), 123);
        (pk, sk, obf)
    }

    #[test]
    fn scalar_roundtrip() {
        let (pk, sk, obf) = setup();
        for v in [0.0, 1.0, -1.0, 3.75, -123.456, 1e-5] {
            let ct = encrypt_scalar(&pk, &obf, v);
            let dec = decrypt_scalar(&sk, &ct);
            assert!((dec - v).abs() < 1e-6, "v={v} dec={dec}");
        }
    }

    #[test]
    fn ciphertexts_are_randomised() {
        let (pk, _, obf) = setup();
        let PublicKey::Paillier(p) = &pk else {
            unreachable!()
        };
        let m = codec::encode(5.0, p.frac_bits, 1, &p.n);
        let c1 = p.raw_encrypt(&m, &obf.next_rn(p));
        let c2 = p.raw_encrypt(&m, &obf.next_rn(p));
        assert_ne!(c1, c2, "two encryptions of the same value must differ");
    }

    #[test]
    fn homomorphic_add_of_raw_cts() {
        let (pk, sk, obf) = setup();
        let PublicKey::Paillier(p) = &pk else {
            unreachable!()
        };
        let SecretKey::Paillier(s) = &sk else {
            unreachable!()
        };
        let a = codec::encode(2.5, p.frac_bits, 1, &p.n);
        let b = codec::encode(-1.25, p.frac_bits, 1, &p.n);
        let ca = p.raw_encrypt(&a, &obf.next_rn(p));
        let cb = p.raw_encrypt(&b, &obf.next_rn(p));
        let sum = p.mont.mont_mul(&ca, &cb);
        let dec = codec::decode(&s.raw_decrypt(&sum, None), p.frac_bits, 1, &p.n, &p.half_n);
        assert!((dec - 1.25).abs() < 1e-6);
    }

    #[test]
    fn scalar_mult_via_pow() {
        let (pk, sk, obf) = setup();
        let PublicKey::Paillier(p) = &pk else {
            unreachable!()
        };
        let SecretKey::Paillier(s) = &sk else {
            unreachable!()
        };
        let m = codec::encode(3.0, p.frac_bits, 1, &p.n);
        let c = p.raw_encrypt(&m, &obf.next_rn(p));
        // 7 * ⟦3⟧ (integer scalar) = ⟦21⟧
        let c7 = p.mont.pow_mont(&c, &bf_bigint::BigUint::from_u64(7));
        let dec = codec::decode(&s.raw_decrypt(&c7, None), p.frac_bits, 1, &p.n, &p.half_n);
        assert!((dec - 21.0).abs() < 1e-6);
    }

    #[test]
    fn a_bound_past_half_p_takes_both_halves() {
        // p is 128 bits here, so one 88-bit slot decrypts on the p half
        // alone and a full chunk of two does not — as, at 1024 bits, the
        // eight 104-bit slots of a folded GBDT histogram row do not.
        let (pk, sk, obf) = setup();
        let (PublicKey::Paillier(p), SecretKey::Paillier(s)) = (&pk, &sk) else {
            unreachable!()
        };
        let enc = |m: &BigUint| p.raw_encrypt(m, &obf.next_rn(p));
        let wide = BigUint::one().shl(170).add_u64(12345);
        assert!(&wide > s.factors().0);
        for m in [wide.clone(), p.n.sub(&wide)] {
            assert_eq!(s.raw_decrypt(&enc(&m), Some(2 * 88)), m);
            assert_eq!(s.raw_decrypt(&enc(&m), None), m);
        }
        let narrow = BigUint::one().shl(87).sub_u64(1);
        for m in [narrow.clone(), p.n.sub(&narrow), BigUint::zero()] {
            assert_eq!(s.raw_decrypt(&enc(&m), Some(88)), m);
        }
        // The early return is live: under a one-slot bound the plaintext
        // `wide` reads as its residue mod p, sign-recovered.
        assert_ne!(s.raw_decrypt(&enc(&wide), Some(88)), wide);
    }

    #[test]
    fn plain_backend_roundtrip() {
        let (pk, sk) = plain_keys(32);
        let obf = Obfuscator::new(&pk, ObfMode::Pool(2), 1);
        let ct = encrypt_scalar(&pk, &obf, -9.5);
        assert_eq!(decrypt_scalar(&sk, &ct), -9.5);
    }

    #[test]
    fn fixed_base_table_matches_pow_mont() {
        let (pk, _, _) = setup();
        let PublicKey::Paillier(p) = &pk else {
            unreachable!()
        };
        let base = p.mont.to_mont(&BigUint::from_u64(0xfeed_beef).rem(&p.n2));
        let table = FixedBaseTable::new(&p.mont, &base, 256);
        for e in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from_u64(15),
            BigUint::from_u64(16),
            BigUint::from_u128(0xdead_beef_0123_4567_89ab_cdef),
            BigUint::one().shl(255).add_u64(0x1234_5678),
        ] {
            assert_eq!(
                table.pow(&p.mont, &e),
                p.mont.pow_mont(&base, &e),
                "exponent {e}"
            );
        }
    }

    #[test]
    fn deterministic_encrypt_decrypts() {
        let (pk, sk, _) = setup();
        let PublicKey::Paillier(p) = &pk else {
            unreachable!()
        };
        let SecretKey::Paillier(s) = &sk else {
            unreachable!()
        };
        let m = codec::encode(-4.5, p.frac_bits, 1, &p.n);
        let c = p.raw_encrypt_deterministic(&m);
        let dec = codec::decode(&s.raw_decrypt(&c, None), p.frac_bits, 1, &p.n, &p.half_n);
        assert!((dec + 4.5).abs() < 1e-6);
    }
}
