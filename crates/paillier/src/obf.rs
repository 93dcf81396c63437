//! Encryption randomness (`r^n mod n^2`) generation.
//!
//! Computing a fresh `r^n` is by far the most expensive part of a
//! Paillier encryption (a full-width exponentiation). Production
//! deployments — including the GMP-based system the paper describes —
//! amortise it; we support two strategies:
//!
//! * [`ObfMode::Pool`] — precompute a pool of exact obfuscations in
//!   parallel at construction, then combine two random pool entries per
//!   encryption (the product of two valid obfuscations is a valid
//!   obfuscation). This trades full entropy for a large constant-factor
//!   speedup; every configuration (`FedConfig`, the benchmarks) names
//!   its pool size directly. Each entry also keeps its residue mod `n`,
//!   so a pooled encryption of `m` is `pool[a] ⊗ (pool[b] + n·(m·β_b
//!   mod n))` ([`Obfuscator::encrypt_into`]): the one multiply mod `n²`
//!   the pair product already paid, plus one mod `n`.
//! * [`ObfMode::Exact`] — the textbook fresh `r^n` per encryption
//!   (randomness derived from a per-call PRG seed so encryption can be
//!   data-parallel): the reference the tests hold the pool against.
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
use bf_bigint::{rng::random_coprime, BigUint};
use rand::SeedableRng;

use crate::keys::{PaillierPk, PublicKey, STACK_LIMBS};

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
#[derive(Debug)]
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
    /// is a no-op shell.
    pub fn new(pk: &PublicKey, mode: ObfMode, seed: u64) -> Self {
        let (pool, residues) = match (pk, mode) {
            (PublicKey::Paillier(p), ObfMode::Pool(size)) => {
                assert!(size >= 2, "pool must have at least 2 entries");
                let pool = bf_util::par_map(size, |i| {
                    fresh_rn(p, splitmix(seed ^ (i as u64).wrapping_mul(0x9e37)))
                });
                let kn = p.mont_n.limb_count();
                let mut residues = vec![0u64; size * kn];
                for (rn, res) in pool.iter().zip(residues.chunks_exact_mut(kn)) {
                    p.residue_into(rn, res);
                }
                (pool, residues)
            }
            _ => (Vec::new(), Vec::new()),
        };
        Self {
            mode,
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

    /// `Exact` mode's fresh obfuscation at draw position `i`.
    fn exact_rn(&self, pk: &PaillierPk, i: u64) -> Vec<u64> {
        fresh_rn(
            pk,
            splitmix(self.seed.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15))),
        )
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

/// One exact `r^n mod n^2` in Montgomery form, from a PRG seed.
fn fresh_rn(pk: &PaillierPk, seed: u64) -> Vec<u64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let r: BigUint = random_coprime(&mut rng, &pk.n);
    let r2 = r.rem(&pk.n2);
    pk.mont.pow_mont(&pk.mont.to_mont(&r2), &pk.n)
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
