//! Encryption randomness (`r^n mod n^2`) generation.
//!
//! A fresh `rⁿ` is a full-width exponentiation mod `n²` with an
//! `n`-bit exponent, the most expensive step of a textbook encryption.
//! Production deployments — including the GMP-based system the paper
//! describes — amortise it; we support two strategies:
//!
//! * [`ObfMode::Pool`] — precompute a pool of exact obfuscations in
//!   parallel at construction, then combine two random pool entries per
//!   encryption (the product of two valid obfuscations is a valid
//!   obfuscation). This trades full entropy for a large constant-factor
//!   speedup; every configuration (`FedConfig`, the benchmarks) names
//!   its pool size directly. Each entry also keeps its residue mod `n`,
//!   so a pooled encryption of `m` is `pool[a] ⊗ (pool[b] + n·(m·β_b
//!   mod n))` (`Obfuscator::encrypt_into`): the one multiply mod `n²`
//!   the pair product already paid, plus one mod `n`. A call encrypts
//!   in groups of eight (`Obfuscator::encrypt_many`), the group's
//!   products mod `n` and mod `n²` one [`MontCtx::mont_mul_many`] each:
//!   one lane multiply apiece on a CPU with AVX-512 IFMA. The pool keeps
//!   no lane forms of its entries: at every key width a Montgomery form
//!   below the modulus enters the lane radix as a shift of its limbs
//!   (`bf_bigint`'s `ifma` module), so a stored form would only spare
//!   that conversion, and `new` and `from_secret` have nothing more to
//!   agree on.
//! * [`ObfMode::Exact`] — the textbook fresh `r^n` per encryption
//!   (randomness derived from a per-call PRG seed so encryption can be
//!   data-parallel): the reference the tests hold the pool against.
//!
//! **Who builds the pool, and how.** An obfuscator draws only under its
//! builder's own key, so its builder usually holds the secret key:
//! [`Obfuscator::from_secret`] is what a `Session` handshake and the
//! SecureML baseline's triple generators build. Each entry keeps its
//! seeded `r`, and `rⁿ` is computed on the CRT halves. `Z*_{p²}` is the
//! product of the order-`(p−1)` Teichmüller group and the order-`p`
//! group `1 + p·Z`; since `p | n`, `rⁿ` has no component in the second,
//! so it is the Teichmüller lift of `(r mod p)^(q mod (p−1))`:
//!
//! `rⁿ ≡ y^p (mod p²)`, with `y = r^(q mod (p−1)) mod p`,
//!
//! and the same mod `q²`; Garner recombines the halves mod `n²`. A half
//! is one exponentiation mod `p` and one mod `p²`, each with a
//! `key_bits/2`-bit exponent, where [`Obfuscator::new`] pays one mod
//! `n²` with a `key_bits`-bit exponent. The entries and residues are
//! `new`'s byte for byte (`pack_prop.rs`). On one thread of a 2-vCPU
//! Xeon VM with the `mulx`/`adx` Montgomery kernels, a `Pool(64)` builds
//! in ≈ 40 ms instead of ≈ 80 ms at 1024-bit keys, and in ≈ 200 ms
//! instead of ≈ 550 ms at 2048 (medians of seven and three builds).
//! Every entry's half runs the same two exponents, so each is one
//! [`MontCtx::pow_many`] over all the entries, eight to a lane group on
//! a CPU with AVX-512 IFMA: the same probe, on a slower day of that VM,
//! read ≈ 24 ms against 76–85 ms per entry at 1024-bit keys and ≈ 115
//! ms against ≈ 390 ms at 2048 (`new`: 140–170 ms and ≈ 960 ms that
//! day).
//! `new` stays as the public-key reference the tests hold `from_secret`
//! against, and as the path for a caller holding the public key only.
//! `Exact` draws on the public path under either constructor, and the
//! factors are read during construction only: an obfuscator keeps
//! nothing derived from them.
//!
//! **What the pool gives away** (`tests/security.rs` pins both; ROADMAP
//! item 10). A `Pool(s)` draw is one of `s(s+1)/2` products, so two
//! ciphertexts of one upload share theirs with probability about
//! `2/s²` per pair — a few pairs per 128-row upload at `s = 64`. Their
//! quotient is `1 + (m_i − m_j)·n (mod n²)`, and anyone holding the
//! public key reads `m_i − m_j` off it. The key owner, who drew every
//! obfuscation itself, can go further: an HE2SS reply `⟦v⟧ ⊗ g^(−φ)`
//! carries no randomness of the holder's, so once the owner has
//! decrypted it and stripped `g^M`, what remains is a product of its
//! own `rⁿ`s raised to the holder's plaintext exponents, which it can
//! test directly. `Exact` encryptions collide with negligible
//! probability; the second leak does not depend on the mode.

use std::sync::atomic::{AtomicU64, Ordering};

use bf_bigint::mont::scratch;
use bf_bigint::{mod_inv, rng::random_coprime, BigUint, MontCtx};
use rand::SeedableRng;

use crate::keys::{PaillierPk, PaillierSk, PublicKey, SecretKey, STACK_LIMBS};

/// Obfuscation generation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObfMode {
    /// Fresh `r^n` per encryption.
    Exact,
    /// Precomputed pool of the given size; each encryption multiplies
    /// two pseudo-randomly chosen entries.
    Pool(usize),
}

/// Thread-safe source of `r^n mod n^2` values in Montgomery form.
/// Its `Debug` shows the mode, the pool size and the draws consumed,
/// never an entry or the seed: anyone holding an entry `rⁿ` reads the
/// plaintext of a ciphertext drawn on it off `c·(rⁿ)⁻¹ = 1 + m·n`.
pub struct Obfuscator {
    mode: ObfMode,
    seed: u64,
    ctr: AtomicU64,
    pool: Vec<Vec<u64>>,
    /// Entry `b`'s residue mod `n`, `mont_n`'s Montgomery form, at
    /// `[b·k_n, (b+1)·k_n)`: computed once, read by every draw.
    residues: Vec<u64>,
}

impl Obfuscator {
    /// Build an obfuscator for the given key. For the Plain backend this
    /// is a no-op shell. The public-key path, and the reference
    /// [`Obfuscator::from_secret`] is held against.
    pub fn new(pk: &PublicKey, mode: ObfMode, seed: u64) -> Self {
        match (pk, mode) {
            (PublicKey::Paillier(p), ObfMode::Pool(size)) => {
                let pool = bf_util::par_map(size, |i| public_rn(p, &entry_unit(p, seed, i)));
                Self::pooled(p, seed, pool)
            }
            _ => Self {
                mode,
                seed,
                ctr: AtomicU64::new(0),
                pool: Vec::new(),
                residues: Vec::new(),
            },
        }
    }

    /// [`Obfuscator::new`] for the key owner: the same pool entries and
    /// residues, byte for byte, each computed on the CRT halves (module
    /// docs), every entry in one [`MontCtx::pow_many`] per exponent of a
    /// half. `Exact` mode and the Plain backend take the public path.
    pub fn from_secret(sk: &SecretKey, mode: ObfMode, seed: u64) -> Self {
        match (sk, mode) {
            (SecretKey::Paillier(s), ObfMode::Pool(size)) => {
                Self::pooled(s.pk(), seed, CrtRn::new(s).pool(size, seed))
            }
            _ => Self::new(&sk.public(), mode, seed),
        }
    }

    /// The obfuscator over `pool`, whose entry `i` is `rⁿ` for entry
    /// `i`'s unit ([`entry_unit`]), with each entry's residue mod `n`.
    fn pooled(p: &PaillierPk, seed: u64, pool: Vec<Vec<u64>>) -> Self {
        let size = pool.len();
        assert!(size >= 2, "pool must have at least 2 entries");
        let kn = p.mont_n.limb_count();
        let mut residues = vec![0u64; size * kn];
        for (rn, res) in pool.iter().zip(residues.chunks_exact_mut(kn)) {
            p.residue_into(rn, res);
        }
        Self {
            mode: ObfMode::Pool(size),
            seed,
            ctr: AtomicU64::new(0),
            pool,
            residues,
        }
    }

    /// Next obfuscation value (Montgomery form) for the given key.
    pub fn next_rn(&self, pk: &PaillierPk) -> Vec<u64> {
        self.draw(pk, self.reserve(1))
    }

    /// Claim the next `n` draw positions and return the first. A
    /// parallel section reserves its block up front and has element `j`
    /// take [`Obfuscator::draw`]`(first + j)`, so which entry gets which
    /// `r^n` is fixed by the element index, never by the thread schedule
    /// — the same stream a serial loop of [`Obfuscator::next_rn`] draws.
    pub(crate) fn reserve(&self, n: u64) -> u64 {
        self.ctr.fetch_add(n, Ordering::Relaxed)
    }

    /// The obfuscation at draw position `i`: a pure function of
    /// `(seed, i)`; the cursor does not move.
    pub(crate) fn draw(&self, pk: &PaillierPk, i: u64) -> Vec<u64> {
        match self.mode {
            ObfMode::Exact => self.exact_rn(pk, i),
            ObfMode::Pool(size) => {
                let (a, b) = pool_pair(self.seed, i, size);
                if a == b {
                    pk.mont.mont_sqr(&self.pool[a])
                } else {
                    pk.mont.mont_mul(&self.pool[a], &self.pool[b])
                }
            }
        }
    }

    /// The encryption of the ring element `m` under draw `i`'s
    /// obfuscation, into `out`: `raw_encrypt(m, &draw(i))` byte for
    /// byte. A pooled draw puts `m` into entry `b` through its stored
    /// residue and multiplies by entry `a` — the pair product's one
    /// multiply mod `n²` is the only one paid; `Exact` computes its
    /// fresh `rⁿ`'s residue on the way.
    pub(crate) fn encrypt_into(&self, pk: &PaillierPk, m: &BigUint, i: u64, out: &mut [u64]) {
        match self.mode {
            ObfMode::Exact => pk.add_plain_into(&self.exact_rn(pk, i), m, None, out),
            ObfMode::Pool(size) => {
                let (a, b) = pool_pair(self.seed, i, size);
                let kn = pk.mont_n.limb_count();
                let (mut stack, mut heap) = ([0u64; 2 * STACK_LIMBS], Vec::new());
                let with_m = scratch(&mut stack, &mut heap, pk.ct_limbs());
                let res = &self.residues[b * kn..(b + 1) * kn];
                pk.add_plain_into(&self.pool[b], m, Some(res), with_m);
                pk.mont.mont_mul_into(&self.pool[a], with_m, out);
            }
        }
    }

    /// [`Obfuscator::encrypt_into`] of each ring element of `ms` under
    /// draws `first, first + 1, …`, `k` limbs each into `out`, byte for
    /// byte. A pooled group puts every `m` into its entry `b` through the
    /// stored residue, as `encrypt_into` does, then multiplies the group by
    /// its entries `a` in one [`MontCtx::mont_mul_many`]: on a CPU with
    /// AVX-512 IFMA, one lane multiply for up to eight ciphertexts.
    pub(crate) fn encrypt_many(
        &self,
        pk: &PaillierPk,
        ms: &[BigUint],
        first: u64,
        out: &mut [u64],
    ) {
        let k = pk.ct_limbs();
        let ObfMode::Pool(size) = self.mode else {
            for (j, (m, ct)) in ms.iter().zip(out.chunks_exact_mut(k)).enumerate() {
                self.encrypt_into(pk, m, first + j as u64, ct);
            }
            return;
        };
        let kn = pk.mont_n.limb_count();
        let (mut lefts, mut entries, mut res) = (vec![], vec![], vec![]);
        for j in 0..ms.len() as u64 {
            let (a, b) = pool_pair(self.seed, first + j, size);
            lefts.push(&self.pool[a][..]);
            entries.push(&self.pool[b][..]);
            res.push(&self.residues[b * kn..(b + 1) * kn]);
        }
        let mut with_m = vec![0u64; out.len()];
        pk.add_plain_many(&entries, ms, Some(&res), &mut with_m);
        let rights: Vec<&[u64]> = with_m.chunks_exact(k).collect();
        pk.mont.mont_mul_many(&lefts, &rights, out);
    }

    /// `Exact` mode's fresh obfuscation at draw position `i`.
    fn exact_rn(&self, pk: &PaillierPk, i: u64) -> Vec<u64> {
        let seed = splitmix(self.seed.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15)));
        public_rn(pk, &seeded_unit(pk, seed))
    }

    /// Number of obfuscations drawn so far (diagnostics, and the
    /// checkpoint cursor [`Obfuscator::set_drawn`] restores).
    pub fn drawn(&self) -> u64 {
        self.ctr.load(Ordering::Relaxed)
    }

    /// Fast-forward (or rewind) the draw counter to an absolute
    /// position — the checkpoint-restore hook. Every mode derives draw
    /// `i` as a pure function of `(seed, i)`, so an obfuscator rebuilt
    /// with the same key/mode/seed and `set_drawn(n)` continues the
    /// *identical* obfuscation stream a checkpointed run would have
    /// produced.
    pub fn set_drawn(&self, n: u64) {
        self.ctr.store(n, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Obfuscator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obfuscator")
            .field("mode", &self.mode)
            .field("pool_entries", &self.pool.len())
            .field("drawn", &self.drawn())
            .finish_non_exhaustive()
    }
}

/// The unit pool entry `i` of a pool seeded `seed` is built on.
fn entry_unit(pk: &PaillierPk, seed: u64, i: usize) -> BigUint {
    seeded_unit(pk, splitmix(seed ^ (i as u64).wrapping_mul(0x9e37)))
}

/// The unit `r < n` a PRG seed draws: the base of every obfuscation.
fn seeded_unit(pk: &PaillierPk, seed: u64) -> BigUint {
    random_coprime(&mut rand::rngs::StdRng::seed_from_u64(seed), &pk.n)
}

/// `rⁿ mod n²` in Montgomery form on the public key: one exponentiation
/// mod `n²` with the `key_bits`-bit exponent `n`.
fn public_rn(pk: &PaillierPk, r: &BigUint) -> Vec<u64> {
    let r2 = r.rem(&pk.n2);
    pk.mont.pow_mont(&pk.mont.to_mont(&r2), &pk.n)
}

/// `rⁿ mod n²` on the key owner's CRT halves (module docs). Built from
/// the secret key for one pool and dropped with the constructor's frame.
struct CrtRn<'a> {
    pk: &'a PaillierPk,
    /// The halves mod `p²` and mod `q²`, in that order.
    halves: [CrtHalf<'a>; 2],
    /// `(p²)⁻¹ mod q²`, Garner's constant.
    p2_inv: BigUint,
}

/// One prime `s` of `n = s·t`.
struct CrtHalf<'a> {
    /// `s`: the exponent that lifts a unit mod `s` to its Teichmüller
    /// representative mod `s²`.
    prime: &'a BigUint,
    /// Montgomery context mod `s`.
    mont: MontCtx,
    /// The secret key's Montgomery context mod `s²`.
    mont2: &'a MontCtx,
    /// `t mod (s − 1)`.
    exp: BigUint,
}

impl<'a> CrtHalf<'a> {
    fn new(prime: &'a BigUint, mont2: &'a MontCtx, other: &BigUint) -> Self {
        CrtHalf {
            prime,
            mont: MontCtx::new(prime),
            mont2,
            exp: other.rem(&prime.sub_u64(1)),
        }
    }

    /// `rⁿ mod s² = y^s mod s²`, with `y = r^(t mod (s−1)) mod s`, for
    /// every `r` of `rs`.
    fn rn_many(&self, rs: &[BigUint]) -> Vec<BigUint> {
        let ys = self.mont.pow_many(rs, &self.exp);
        self.mont2.pow_many(&ys, self.prime)
    }
}

impl<'a> CrtRn<'a> {
    fn new(sk: &'a PaillierSk) -> Self {
        let [(p, mont_p2), (q, mont_q2)] = sk.prime_halves();
        CrtRn {
            pk: sk.pk(),
            halves: [CrtHalf::new(p, mont_p2, q), CrtHalf::new(q, mont_q2, p)],
            p2_inv: mod_inv(&mont_p2.m, &mont_q2.m).expect("p² and q² are coprime"),
        }
    }

    /// The `size` entries of the pool seeded `seed`, `rⁿ mod n²` in
    /// Montgomery form: every entry's half raised by one
    /// [`CrtHalf::rn_many`] per half, then Garner's `a + p²·((b −
    /// a)·(p²)⁻¹ mod q²)` per entry on its halves `a = rⁿ mod p²`, `b =
    /// rⁿ mod q²`.
    fn pool(&self, size: usize, seed: u64) -> Vec<Vec<u64>> {
        let [hp, hq] = &self.halves;
        let (p2, q2) = (&hp.mont2.m, &hq.mont2.m);
        let rs = bf_util::par_map(size, |i| entry_unit(self.pk, seed, i));
        let (a, b) = (hp.rn_many(&rs), hq.rn_many(&rs));
        bf_util::par_map(size, |i| {
            let t = b[i].mod_sub(&a[i].rem(q2), q2).mod_mul(&self.p2_inv, q2);
            self.pk.mont.to_mont(&a[i].add(&p2.mul(&t)))
        })
    }
}

/// The pool entries `(a, b)` that draw `i` of a `size`-entry pool
/// multiplies.
fn pool_pair(seed: u64, i: u64, size: usize) -> (usize, usize) {
    let h = splitmix(seed ^ i.wrapping_mul(0xbf58476d1ce4e5b9));
    (
        (h % size as u64) as usize,
        ((h >> 32) % size as u64) as usize,
    )
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::keygen;
    use bf_bigint::mont::LANES;
    use rand::SeedableRng;

    #[test]
    fn pool_entries_distinct_and_counted() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (pk, _) = keygen(128, 16, &mut rng);
        let obf = Obfuscator::new(&pk, ObfMode::Pool(4), 9);
        let PublicKey::Paillier(p) = &pk else {
            unreachable!()
        };
        let a = obf.next_rn(p);
        let b = obf.next_rn(p);
        assert_ne!(a, b);
        assert_eq!(obf.drawn(), 2);
    }

    #[test]
    fn exact_mode_distinct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let (pk, _) = keygen(128, 16, &mut rng);
        let obf = Obfuscator::new(&pk, ObfMode::Exact, 42);
        let PublicKey::Paillier(p) = &pk else {
            unreachable!()
        };
        assert_ne!(obf.next_rn(p), obf.next_rn(p));
    }

    #[test]
    fn obfuscations_are_encryptions_of_zero() {
        // r^n decrypts to 0, so multiplying a ciphertext by an
        // obfuscation re-randomises without changing the payload. Must
        // hold in every mode.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (pk, sk) = keygen(192, 16, &mut rng);
        let PublicKey::Paillier(p) = &pk else {
            unreachable!()
        };
        let crate::keys::SecretKey::Paillier(s) = &sk else {
            unreachable!()
        };
        for mode in [ObfMode::Pool(3), ObfMode::Exact] {
            let obf = Obfuscator::new(&pk, mode, 11);
            for _ in 0..4 {
                let rn = obf.next_rn(p);
                assert!(s.raw_decrypt(&rn, None).is_zero(), "mode {mode:?}");
            }
        }
    }

    #[test]
    fn the_secret_key_pool_is_the_public_pool_byte_for_byte() {
        // Entry and residue for entry, across key widths, pool sizes and
        // seeds; Exact and Plain take the public path.
        for (bits, key_seed) in [(128, 1u64), (190, 2), (256, 3), (512, 4)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(key_seed);
            let (pk, sk) = keygen(bits, 16, &mut rng);
            for (size, seed) in [(2, 0u64), (3, 7), (7, u64::MAX)] {
                let (public, secret) = (
                    Obfuscator::new(&pk, ObfMode::Pool(size), seed),
                    Obfuscator::from_secret(&sk, ObfMode::Pool(size), seed),
                );
                assert_eq!(secret.pool, public.pool, "{bits} bits, size {size}");
                assert_eq!(secret.residues, public.residues, "{bits} bits");
                assert_eq!(secret.mode, ObfMode::Pool(size));
            }
            let exact = Obfuscator::from_secret(&sk, ObfMode::Exact, 5);
            let PublicKey::Paillier(p) = &pk else {
                unreachable!()
            };
            let want = Obfuscator::new(&pk, ObfMode::Exact, 5);
            assert!(exact.pool.is_empty() && exact.residues.is_empty());
            assert_eq!(exact.next_rn(p), want.next_rn(p));
        }
        let (_, plain) = crate::keys::plain_keys(16);
        let shell = Obfuscator::from_secret(&plain, ObfMode::Pool(4), 1);
        assert!(shell.pool.is_empty() && shell.residues.is_empty());
    }

    #[test]
    fn debug_shows_no_randomness_seed_or_factor() {
        // Any pool entry rⁿ, or the seed that regenerates them all, reads
        // the plaintext of a ciphertext drawn on it; p and q read all.
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let (pk, sk) = keygen(256, 16, &mut rng);
        let seed = 0x5eed_c0de_1234_abcd_u64;
        let obf = Obfuscator::from_secret(&sk, ObfMode::Pool(3), seed);
        let PublicKey::Paillier(p) = &pk else {
            unreachable!()
        };
        obf.next_rn(p);
        let shown = format!("{obf:?}");
        assert_eq!(
            shown,
            "Obfuscator { mode: Pool(3), pool_entries: 3, drawn: 1, .. }"
        );
        let crate::keys::SecretKey::Paillier(s) = &sk else {
            unreachable!()
        };
        let (p, q) = s.factors();
        let secrets = [
            seed.to_string(),
            format!("{seed:x}"),
            p.to_hex(),
            q.to_hex(),
            p.low_u64().to_string(),
            q.low_u64().to_string(),
        ];
        for text in [shown, format!("{sk:?}"), format!("{s:#?}")] {
            for secret in &secrets {
                assert!(!text.contains(secret.as_str()), "{text} shows {secret}");
            }
            for limb in obf.pool.iter().flatten().chain(&obf.residues) {
                assert!(
                    !text.contains(&limb.to_string()),
                    "{text} shows a pool limb"
                );
            }
        }
        assert_eq!(
            format!("{sk:?}"),
            "Paillier(PaillierSk { key_bits: 256, .. })"
        );
    }

    /// FNV-1a over `bytes`: a fixed digest for the goldens below.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn keygen_and_pool_bytes_are_pinned() {
        // Key generation (primality, `lcm`/`gcd`, the CRT inverses) and
        // the pool's units (`random_coprime`'s accept/reject sequence)
        // are fixed by their seeds: any change to the number theory
        // under them that moved a byte shows here.
        let want = [
            (
                1u64,
                0x71be_2345_5d62_229f,
                0x2157_4049_e03c_e873,
                0x8ebf_1faa_8152_fd9d,
            ),
            (
                2,
                0x3e3c_5673_e8d0_4c92,
                0x923f_e926_e0bc_5b07,
                0x5754_a43c_0e8f_30e3,
            ),
        ];
        for (key_seed, want_sk, want_pool, want_res) in want {
            let mut rng = rand::rngs::StdRng::seed_from_u64(key_seed);
            let (pk, sk) = keygen(512, 32, &mut rng);
            let sk_hash = fnv1a(crate::export_secret(&sk).into_bytes());
            let public = Obfuscator::new(&pk, ObfMode::Pool(8), key_seed + 10);
            let secret = Obfuscator::from_secret(&sk, ObfMode::Pool(8), key_seed + 10);
            let pool = fnv1a(public.pool.iter().flatten().flat_map(|l| l.to_le_bytes()));
            let res = fnv1a(public.residues.iter().flat_map(|l| l.to_le_bytes()));
            assert_eq!(
                (sk_hash, pool, res),
                (want_sk, want_pool, want_res),
                "key seed {key_seed}: {sk_hash:#x}, {pool:#x}, {res:#x}"
            );
            assert_eq!(secret.pool, public.pool);
            assert_eq!(secret.residues, public.residues);
        }
    }

    #[test]
    fn a_group_encrypts_what_one_draw_at_a_time_does() {
        // `encrypt_many` against `encrypt_into`, the reference, at 512-
        // and 1024-bit keys (20- and 40-limb lanes mod n²) for every
        // group size a caller hands it, including none and one.
        for pk in &crate::keys::fixed_keys()[..2] {
            let PublicKey::Paillier(p) = pk else {
                unreachable!()
            };
            let k = p.ct_limbs();
            for mode in [ObfMode::Pool(8), ObfMode::Exact] {
                let obf = Obfuscator::new(pk, mode, 23);
                for n in 0..=LANES + 1 {
                    let ms: Vec<BigUint> = (0..n as u64)
                        .map(|i| p.n.sub_u64(1 + i * 0x9e37_79b9))
                        .collect();
                    let first = 5 + 3 * n as u64;
                    let mut got = vec![0u64; n * k];
                    obf.encrypt_many(p, &ms, first, &mut got);
                    for (j, (m, got)) in ms.iter().zip(got.chunks(k)).enumerate() {
                        let mut want = vec![0u64; k];
                        obf.encrypt_into(p, m, first + j as u64, &mut want);
                        assert_eq!(
                            got, want,
                            "{} bits, {mode:?}, {n} items, item {j}",
                            p.key_bits
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn encryption_and_add_bytes_are_pinned() {
        // Pooled encryption in both layouts, `add` and `rows_add_assign`
        // (one call with distinct rows, one that repeats a row) at 512-
        // and 1024-bit keys, whose `n²` the lane kernel serves at 20 and
        // 40 limbs: 35 ciphertexts a call, four full lane groups and a
        // partial one, so every shape a lane caller splits into shows.
        use crate::pack::PaillierMode;
        use bf_tensor::Dense;
        let want = vec![
            (
                0xa074_bcfa_ce0f_06d8u64,
                0x9165_779b_06e3_1116,
                0xadaa_7c28_dc62_01b8,
                0xd9d9_8eba_f7e6_480b,
                0xed28_7e25_b55a_2b8f,
            ),
            (
                0x9b04_95b3_6bfa_164e,
                0xa5fd_cadc_546b_14c8,
                0x57c1_5bbf_7e8a_960a,
                0x7c43_57cb_c903_8457,
                0x4fef_ee3f_ad9f_571b,
            ),
        ];
        let uniform = |rows, cols, seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            bf_tensor::init::uniform(&mut rng, rows, cols, 3.0)
        };
        // Then `add_plain` and `sub_plain` onto both layouts, and
        // `add_plain` onto a scalar body whose first three ciphertexts
        // are not canonical (all-ones limbs, n², n² + 5: limbs off the
        // wire), 35 ciphertexts again.
        let want_plain = vec![
            (
                0x553b_0d19_11b7_e4c1u64,
                0xdcb4_3d12_3f28_38b0,
                0x3743_f9e3_fca6_3268,
                0x3944_28dd_ed09_dd4c,
                0x2cea_7691_5b05_f2a6,
            ),
            (
                0xcee9_29ae_946b_f17d,
                0xa082_23b7_aa5a_758b,
                0xc204_9599_f396_ed3d,
                0x2b0f_7a7f_c953_c4d7,
                0xd821_eb91_5cc3_c88b,
            ),
        ];
        let hash = |ct: &crate::CtMat| fnv1a(crate::export_ctmat(ct));
        let keys = crate::keys::fixed_keys();
        let (got, got_plain): (Vec<_>, Vec<_>) = keys[..2]
            .iter()
            .map(|pk| {
                let obf = Obfuscator::new(pk, ObfMode::Pool(8), 17);
                let m: Dense = uniform(5, 7, 1);
                let scalar = pk.encrypt_mode(&m, PaillierMode::Scalar, &obf);
                let packed = pk.encrypt_mode(&uniform(35, 2, 2), PaillierMode::Packed, &obf);
                let sum = pk.add(&scalar, &pk.encrypt(&uniform(5, 7, 3), &obf));
                let mut distinct = scalar.clone();
                pk.rows_add_assign(
                    &mut distinct,
                    &[4, 0, 2],
                    &pk.encrypt(&uniform(3, 7, 4), &obf),
                );
                let mut repeated = packed.clone();
                let delta = pk.encrypt_mode(&uniform(3, 2, 5), PaillierMode::Packed, &obf);
                pk.rows_add_assign(&mut repeated, &[9, 30, 9], &delta);
                assert!(packed.is_packed());
                let PublicKey::Paillier(p) = pk else {
                    unreachable!()
                };
                let k = p.ct_limbs();
                let crate::ctmat::BodyView::Paillier { lanes, limbs, .. } = scalar.body_view()
                else {
                    unreachable!()
                };
                let mut limbs = limbs.to_vec();
                let n2 = |add: u64| {
                    let mut l = p.n2.add_u64(add).limbs().to_vec();
                    l.resize(k, 0);
                    l
                };
                limbs[..k].fill(u64::MAX);
                limbs[k..2 * k].copy_from_slice(&n2(0));
                limbs[2 * k..3 * k].copy_from_slice(&n2(5));
                let hostile = crate::CtMat::from_paillier_parts(5, 7, 1, k, lanes, limbs);
                let (q, q_packed) = (uniform(5, 7, 6), uniform(35, 2, 7));
                (
                    (
                        hash(&scalar),
                        hash(&packed),
                        hash(&sum),
                        hash(&distinct),
                        hash(&repeated),
                    ),
                    (
                        hash(&pk.add_plain(&scalar, &q)),
                        hash(&pk.sub_plain(&scalar, &q)),
                        hash(&pk.add_plain(&packed, &q_packed)),
                        hash(&pk.sub_plain(&packed, &q_packed)),
                        hash(&pk.add_plain(&hostile, &q)),
                    ),
                )
            })
            .unzip();
        assert_eq!(got, want, "{got:#x?}");
        assert_eq!(got_plain, want_plain, "{got_plain:#x?}");
    }

    #[test]
    fn set_drawn_replays_the_stream_in_every_mode() {
        // Draw position i is a pure function of (seed, i): a rebuilt
        // obfuscator fast-forwarded to a mid-stream position must emit
        // exactly what the original would have — the checkpoint
        // contract.
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let (pk, _) = keygen(128, 16, &mut rng);
        let PublicKey::Paillier(p) = &pk else {
            unreachable!()
        };
        for mode in [ObfMode::Pool(3), ObfMode::Exact] {
            let obf = Obfuscator::new(&pk, mode, 21);
            let want: Vec<_> = (0..6).map(|_| obf.next_rn(p)).collect();
            let resumed = Obfuscator::new(&pk, mode, 21);
            resumed.set_drawn(4);
            assert_eq!(resumed.next_rn(p), want[4], "mode {mode:?}");
            assert_eq!(resumed.next_rn(p), want[5], "mode {mode:?}");
            assert_eq!(resumed.drawn(), 6);
        }
    }
}
