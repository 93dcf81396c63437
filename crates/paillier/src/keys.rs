//! Paillier key generation, encryption, and CRT decryption, plus the
//! `Plain` testing backend.
//!
//! With `g = n + 1`, `g^m = 1 + m·n (mod n²)`, so a plaintext enters
//! any ciphertext `x` as `x·(1 + m·n) ≡ x + n·(m·x mod n) (mod n²)`:
//! one product mod `n` (a quarter of a multiply mod `n²`) and a
//! schoolbook `n·t` added on. [`PaillierPk::add_plain_into`] is that
//! identity, and it is the body of every place a plaintext meets a
//! ciphertext: encryption onto an obfuscation `rⁿ` (the pooled path
//! in [`crate::obf`] hands it each entry's residue mod `n`, computed
//! once), `add_plain` / `sub_plain`, and the `Exact` mode. The result
//! is the same ring element, in the same canonical Montgomery form, as
//! the textbook `to_mont(1 + m·n) ⊗ x`; only the tests still build
//! that (docs/ARCHITECTURE.md, "What an encryption costs"). A pooled
//! group of encryptions, and a group of `add_plain`s, takes
//! `PaillierPk::add_plain_many`, the same identity with the group's
//! products mod `n` in one [`MontCtx::mont_mul_many`].

use std::sync::Arc;

use std::borrow::Cow;

use bf_bigint::mont::scratch;
use bf_bigint::{gen_prime, mod_inv, modular::lcm, BigUint, MontCtx};
use bf_util::par_map;
use rand::Rng;

use crate::codec;
use crate::pack::SlotLayout;

/// The smallest modulus [`keygen`] makes. The product of its two
/// `key_bits/2`-bit primes has `key_bits − 1` or `key_bits` bits, so an
/// imported modulus of fewer than `MIN_KEY_BITS − 1` bits is refused.
pub const MIN_KEY_BITS: usize = 64;

/// Widest modulus `n`, in limbs, whose per-call scratch lives on the
/// stack (2048-bit keys, a 4096-bit `n²`); wider keys allocate it.
pub(crate) const STACK_LIMBS: usize = 32;

/// Paillier public parameters plus precomputed Montgomery contexts for
/// `n²` and `n`. Shared via `Arc` inside [`PublicKey`].
#[derive(Clone, Debug)]
pub struct PaillierPk {
    /// Modulus `n = p·q`.
    pub n: BigUint,
    /// `n^2` (ciphertext modulus).
    pub n2: BigUint,
    /// Montgomery context mod `n^2` — ciphertexts live in this domain.
    pub mont: MontCtx,
    /// Montgomery context mod `n`: the one product mod `n` that puts a
    /// plaintext into a ciphertext ([`PaillierPk::add_plain_into`]).
    pub mont_n: MontCtx,
    /// `n/2`, the positive/negative decoding threshold.
    pub half_n: BigUint,
    /// Fixed-point fractional bits.
    pub frac_bits: u32,
    /// Modulus size in bits, `n.bits()`: what the key owner and every
    /// importer derive the slot layout from.
    pub key_bits: usize,
}

impl PaillierPk {
    /// The public parameters of modulus `n`. A modulus that is even or
    /// below [`MIN_KEY_BITS`], or a `frac_bits` past
    /// [`codec::MAX_FRAC_BITS`], is refused before any Montgomery
    /// context is built: key strings arrive off the wire.
    pub(crate) fn new(n: BigUint, frac_bits: u32) -> Result<PaillierPk, String> {
        if n.is_even() {
            return Err("modulus is even".into());
        }
        if n.bits() + 1 < MIN_KEY_BITS {
            return Err(format!(
                "modulus of {} bits is below the {MIN_KEY_BITS}-bit key floor",
                n.bits()
            ));
        }
        check_frac_bits(frac_bits)?;
        let n2 = n.sqr();
        Ok(PaillierPk {
            mont: MontCtx::new(&n2),
            mont_n: MontCtx::new(&n),
            half_n: n.shr(1),
            key_bits: n.bits(),
            n,
            n2,
            frac_bits,
        })
    }

    /// Limbs per ciphertext (the width of the `n^2` Montgomery domain).
    pub fn ct_limbs(&self) -> usize {
        self.mont.limb_count()
    }

    /// Raw Paillier encryption of a ring element `m ∈ Z_n` with the
    /// supplied obfuscation `r^n` (Montgomery form). Returns the
    /// ciphertext in Montgomery form: [`PaillierPk::add_plain_into`]
    /// onto `rn_mont`.
    pub fn raw_encrypt(&self, m: &BigUint, rn_mont: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.ct_limbs()];
        self.add_plain_into(rn_mont, m, None, &mut out);
        out
    }

    /// `out = x·(1 + m·n) mod n² = x + n·(m·x mod n)`: the ciphertext `x`
    /// (Montgomery form) with the ring element `m < n` added to its
    /// plaintext. Multiplying the Montgomery form `x·R` by the integer
    /// `1 + m·n` is the Montgomery form of the product, so no conversion
    /// is needed. `x_res` is `x mod n` in `mont_n`'s Montgomery form
    /// ([`PaillierPk::residue_into`]) when the caller already has it; else
    /// it costs one reduction and one multiply mod `n`. A non-canonical
    /// `x ≥ n²` (limbs off the wire) is reduced first, to what the
    /// textbook Montgomery product would have made of it.
    pub fn add_plain_into(&self, x: &[u64], m: &BigUint, x_res: Option<&[u64]>, out: &mut [u64]) {
        if !self.mont.is_reduced(x) {
            let x = self.mont.mont_mul(x, &self.mont.one_mont());
            return self.add_plain_into(&x, m, None, out);
        }
        let kn = self.mont_n.limb_count();
        debug_assert!(m < &self.n, "plaintext must be a ring element");
        let (mut stack, mut heap) = ([0u64; 3 * STACK_LIMBS], Vec::new());
        let (res, rest) = scratch(&mut stack, &mut heap, 3 * kn).split_at_mut(kn);
        let (m_pad, t) = rest.split_at_mut(kn);
        let res: &[u64] = match x_res {
            Some(r) => r,
            None => {
                self.residue_into(x, res);
                res
            }
        };
        m_pad[..m.limbs().len()].copy_from_slice(m.limbs());
        // (x mod n)·R_n times m, reduced: m·x mod n, canonical.
        self.mont_n.mont_mul_into(m_pad, res, t);
        self.mont.add_product_into(x, self.n.limbs(), t, out);
    }

    /// [`PaillierPk::add_plain_into`] of each `x_i`, the ring element
    /// `m_i` added, `k` limbs each into `out`, byte for byte: the products
    /// `m_i·x_i mod n` in one [`MontCtx::mont_mul_many`] mod `n`, then
    /// `x_i + n·t_i` each. `res` holds the residues of the `x_i` when the
    /// caller already has them (every `x_i` then canonical); else they
    /// are one [`MontCtx::reduce_wide_many`] (a reduction each, the
    /// multiplies by `R³` one `mont_mul_many`), after a non-canonical
    /// `x_i ≥ n²` (limbs off the wire) is reduced as `add_plain_into`
    /// reduces it.
    pub(crate) fn add_plain_many(
        &self,
        xs: &[&[u64]],
        ms: &[BigUint],
        res: Option<&[&[u64]]>,
        out: &mut [u64],
    ) {
        let (k, kn) = (self.ct_limbs(), self.mont_n.limb_count());
        let Some(res) = res else {
            let xs: Vec<Cow<[u64]>> = xs
                .iter()
                .map(|&x| match self.mont.is_reduced(x) {
                    true => x.into(),
                    false => self.mont.mont_mul(x, &self.mont.one_mont()).into(),
                })
                .collect();
            let xs: Vec<&[u64]> = xs.iter().map(|x| &x[..]).collect();
            let mut res = vec![0u64; xs.len() * kn];
            self.mont_n.reduce_wide_many(&xs, &mut res);
            let res: Vec<&[u64]> = res.chunks_exact(kn).collect();
            return self.add_plain_many(&xs, ms, Some(&res), out);
        };
        let mut m_pad = vec![0u64; ms.len() * kn];
        for (m, pad) in ms.iter().zip(m_pad.chunks_exact_mut(kn)) {
            debug_assert!(m < &self.n, "plaintext must be a ring element");
            pad[..m.limbs().len()].copy_from_slice(m.limbs());
        }
        let m_pad: Vec<&[u64]> = m_pad.chunks_exact(kn).collect();
        let mut t = vec![0u64; ms.len() * kn];
        self.mont_n.mont_mul_many(&m_pad, res, &mut t);
        for ((x, t), out) in xs
            .iter()
            .zip(t.chunks_exact(kn))
            .zip(out.chunks_exact_mut(k))
        {
            debug_assert!(self.mont.is_reduced(x));
            self.mont.add_product_into(x, self.n.limbs(), t, out);
        }
    }

    /// `x mod n` in `mont_n`'s Montgomery form, for a canonical
    /// ciphertext `x`: the residue [`PaillierPk::add_plain_into`] takes.
    pub fn residue_into(&self, x: &[u64], out: &mut [u64]) {
        self.mont_n.reduce_wide_into(x, out)
    }
}

/// Refuse a `frac_bits` the fixed-point codec cannot encode at scale 2.
pub(crate) fn check_frac_bits(frac_bits: u32) -> Result<(), String> {
    if frac_bits > codec::MAX_FRAC_BITS {
        return Err(format!(
            "frac_bits {frac_bits} is past the codec's {}",
            codec::MAX_FRAC_BITS
        ));
    }
    Ok(())
}

/// Paillier secret key with CRT decryption precomputations. Its `Debug`
/// shows the key size only.
#[derive(Clone)]
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
    /// chunk states `used · slot_bits`; a one-value lane states nothing.
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
        let mp = crt_half(&c, &self.p, &self.mont_p2, &self.hp);
        if self.narrow(bits) {
            return self.signed_residue(&mp);
        }
        let mq = crt_half(&c, &self.q, &self.mont_q2, &self.hq);
        self.garner(&mp, &mq)
    }

    /// [`PaillierSk::raw_decrypt`] of every `(ciphertext, bits)` of
    /// `cts`, byte for byte, with the halves' exponentiations batched
    /// across the call: every `p` half's in one [`MontCtx::pow_many`],
    /// then the `q` half's of each ciphertext that is not narrow in
    /// another; then, per ciphertext, `L·h` of each half, the narrow
    /// check and Garner's recombination. On a CPU with AVX-512 IFMA a
    /// lane group of eight halves costs about what one lone half does on
    /// the scalar path.
    pub fn raw_decrypt_many(&self, cts: &[(&[u64], Option<usize>)]) -> Vec<BigUint> {
        let cs = par_map(cts.len(), |i| self.pk.mont.from_mont(cts[i].0));
        let xps = self.mont_p2.pow_many(&cs, &self.p.sub_u64(1));
        let wide: Vec<BigUint> = cts
            .iter()
            .zip(&cs)
            .filter(|(&(_, bits), _)| !self.narrow(bits))
            .map(|(_, c)| c.clone())
            .collect();
        let xqs = self.mont_q2.pow_many(&wide, &self.q.sub_u64(1));
        // The wide ciphertexts take the q halves in order.
        let mut next_q = xqs.iter();
        let xq_of: Vec<Option<&BigUint>> = cts
            .iter()
            .map(|&(_, bits)| (!self.narrow(bits)).then(|| next_q.next()).flatten())
            .collect();
        par_map(cts.len(), |i| {
            let mp = l_times_h(&xps[i], &self.p, &self.hp);
            match xq_of[i] {
                None => self.signed_residue(&mp),
                Some(xq) => self.garner(&mp, &l_times_h(xq, &self.q, &self.hq)),
            }
        })
    }

    /// Whether a plaintext bound of `bits` (see
    /// [`PaillierSk::raw_decrypt`]) determines it from its residue mod
    /// `p`: `2^bits ≤ p/2 ⟺ bits ≤ p.bits() − 2` (p is no power of two).
    fn narrow(&self, bits: Option<usize>) -> bool {
        bits.is_some_and(|b| b + 2 <= self.p.bits())
    }

    /// The ring element of a narrow plaintext with residue `mp` mod `p`:
    /// `mp` itself if `mp ≤ p/2`, else `n − (p − mp)`.
    fn signed_residue(&self, mp: &BigUint) -> BigUint {
        if mp <= &self.p.shr(1) {
            mp.clone()
        } else {
            self.pk.n.sub(&self.p.sub(mp))
        }
    }

    /// Garner: `m = mp + p·((mq − mp)·p⁻¹ mod q)`.
    fn garner(&self, mp: &BigUint, mq: &BigUint) -> BigUint {
        let q = &self.q;
        let diff = mq.mod_sub(&mp.rem(q), q);
        let t = diff.mod_mul(&self.p_inv_q, q);
        mp.add(&self.p.mul(&t))
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

    /// Each prime factor with the Montgomery context mod its square:
    /// what [`crate::Obfuscator::from_secret`] builds a pool on.
    pub(crate) fn prime_halves(&self) -> [(&BigUint, &MontCtx); 2] {
        [(&self.p, &self.mont_p2), (&self.q, &self.mont_q2)]
    }
}

impl std::fmt::Debug for PaillierSk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PaillierSk")
            .field("key_bits", &self.pk.key_bits)
            .finish_non_exhaustive()
    }
}

/// One CRT half of a decryption, for the prime `r` of `n`:
/// `m mod r = L_r(c^{r−1} mod r²) · h_r mod r`, with `L_r(x) = (x − 1)/r`.
fn crt_half(c: &BigUint, r: &BigUint, mont_r2: &MontCtx, h_r: &BigUint) -> BigUint {
    let x = mont_r2.pow(&c.rem(&mont_r2.m), &r.sub_u64(1));
    l_times_h(&x, r, h_r)
}

/// `L_r(x)·h_r mod r`, with `L_r(x) = (x − 1)/r`.
fn l_times_h(x: &BigUint, r: &BigUint, h_r: &BigUint) -> BigUint {
    x.sub_u64(1).div_rem(r).0.mod_mul(h_r, r)
}

/// Rebuild a full secret key (all CRT precomputations) from its prime
/// factors, validating primality cheaply via the invertibility checks.
pub(crate) fn rebuild_secret(p: BigUint, q: BigUint, frac_bits: u32) -> Result<PaillierSk, String> {
    if p.is_even() || q.is_even() || p == q || p.bits() < 16 || q.bits() < 16 {
        return Err("invalid prime factors".to_string());
    }
    let pk = Arc::new(PaillierPk::new(p.mul(&q), frac_bits)?);
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
// A party holds one secret key for a whole session, so the Plain
// variant's unused bytes cost nothing worth a `Box` in every
// `SecretKey::Paillier` pattern.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum SecretKey {
    /// Real Paillier secret key.
    Paillier(PaillierSk),
    /// Identity backend.
    Plain,
}

impl SecretKey {
    /// True if `pk` is this key's public half: the same modulus and
    /// `frac_bits`, or both the Plain backend.
    pub fn pairs_with(&self, pk: &PublicKey) -> bool {
        match (self, pk) {
            (SecretKey::Paillier(s), PublicKey::Paillier(p)) => {
                s.pk.n == p.n && s.pk.frac_bits == p.frac_bits
            }
            (SecretKey::Plain, PublicKey::Plain { .. }) => true,
            _ => false,
        }
    }

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

/// Generate a Paillier key pair with a `key_bits`-bit modulus (its
/// product of primes may come out one bit short: `PaillierPk::key_bits`
/// records `n.bits()`).
pub fn keygen<R: Rng + ?Sized>(
    key_bits: usize,
    frac_bits: u32,
    rng: &mut R,
) -> (PublicKey, SecretKey) {
    assert!(key_bits >= MIN_KEY_BITS, "keygen: modulus too small");
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
    let pk =
        Arc::new(PaillierPk::new(p.mul(&q), frac_bits).unwrap_or_else(|e| panic!("keygen: {e}")));

    let sk = build_sk(p, q, pk.clone()).expect("fresh primes form a valid key");
    (PublicKey::Paillier(pk), SecretKey::Paillier(sk))
}

/// Generate a Plain (identity) "key pair" for fast functional runs.
pub fn plain_keys(frac_bits: u32) -> (PublicKey, SecretKey) {
    (PublicKey::Plain { frac_bits }, SecretKey::Plain)
}

/// Public keys on fixed prime factors (drawn once by `gen_prime`):
/// 512 and 1024 bits, whose `n²` the lane kernel serves (20 and 40
/// 52-bit limbs) on CPUs with AVX-512 IFMA, and 2048 bits, whose `n²`
/// (79) it does not, so the scalar chains run there on every CPU.
#[cfg(test)]
pub(crate) fn fixed_keys() -> Vec<PublicKey> {
    let factors = [
        (
            "eff7f624b0c6310f17460bdf1e7c3333fdd2c14d7560f7578eb2871b24ae0c5d",
            "e730151e2004a461dee7ce0617ef445883ab4ef8948a81cc6a04a19458676bd7",
        ),
        (
            "87ad34cc17ccf2fcbbf195c3de98a8922ada3aaa365f92b2e180a9e90e9c2824\
             386e67ada0403c6bcde44e2e7499c4eb87b23815d4f3d319e7a6fc4cf8251fc5",
            "db8e932920185dfe9a227682d77d0506096f102052037f99cc3f38044c43b19b\
             733dbe6eb915d96e9322316a86c7fb937ef8106780e2a24b0a29ad7fc1bbf5b5",
        ),
        (
            "ffe330e3b84337fa3c2bf57657d757dd621048df2f22cfddc0e895ed301687f4\
             710b9c33cf07f35d9458998d31b601cecfafba491cfa977836869995ebc88ba4\
             2e68e05b9fea41dc75f12e97725807d0d4c81e6b622d55701fb1e8e124cae36e\
             9243b9521ba1f58cc04eea1942e36fac935f43a00c79715d556ce4f0bafadcef",
            "c940965c4d37947ba07e6fbaede67993ef42cc1fe224a623138c0a1fad8ae497\
             40edaf127fe60d91d8c40927d80c0f72436ef4a9670d272040167f3bbe3992d2\
             bd491f99c9539c5baab25dbc07dcd749cdbee7e46ab5a781affd070cd0f27684\
             2bb6180a1814636daa63086b1033d879f83810709e055e6b8eda5adde41b2b23",
        ),
    ];
    factors
        .iter()
        .map(|(p, q)| {
            let n = BigUint::from_hex(p)
                .unwrap()
                .mul(&BigUint::from_hex(q).unwrap());
            PublicKey::Paillier(Arc::new(PaillierPk::new(n, 32).unwrap()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObfMode, Obfuscator};
    use bf_tensor::Dense;
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
            let ct = pk.encrypt(&Dense::from_vec(1, 1, vec![v]), &obf);
            let dec = sk.decrypt(&ct).data()[0];
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
        let ct = pk.encrypt(&Dense::from_vec(1, 1, vec![-9.5]), &obf);
        assert_eq!(sk.decrypt(&ct).data(), [-9.5]);
    }
}
