//! Encryption randomness (`r^n mod n^2`) generation.
//!
//! Computing a fresh `r^n` is by far the most expensive part of a
//! Paillier encryption (a full-width exponentiation). Production
//! deployments — including the GMP-based system the paper describes —
//! amortise it; we support three strategies:
//!
//! * [`ObfMode::Exact`] — a fresh `r^n` per encryption (randomness
//!   derived from a per-call PRG seed so encryption can be
//!   data-parallel),
//! * [`ObfMode::Pool`] — precompute a pool of exact obfuscations in
//!   parallel at construction, then combine two random pool entries per
//!   encryption (the product of two valid obfuscations is a valid
//!   obfuscation). This trades full entropy for a large constant-factor
//!   speedup and is the default for the training-loop experiments.
//! * [`ObfMode::FixedBase`] — one exact obfuscation `h = r_0^n` at
//!   construction, then each draw is `h^α` for a pseudo-random 256-bit
//!   `α`, evaluated through a fixed-base window table
//!   ([`crate::keys::FixedBaseTable`]) with no squarings. Cheapest per
//!   draw; randomness ranges over the subgroup generated by `h`.
//!
//! Pool sizing is centralised here: [`ObfMode::from_env_or`] resolves
//! the `BF_OBF_POOL` environment knob, and [`ObfMode::sized_for`]
//! derives a pool size from a measured draw count (see
//! [`Obfuscator::drawn`]) instead of a hard-coded constant.

use std::sync::atomic::{AtomicU64, Ordering};

use bf_bigint::{rng::random_coprime, BigUint};
use rand::SeedableRng;

use crate::keys::{FixedBaseTable, PaillierPk, PublicKey};

/// Exponent width for [`ObfMode::FixedBase`] draws.
const FIXED_BASE_ALPHA_BITS: usize = 256;

/// Obfuscation generation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObfMode {
    /// Fresh `r^n` per encryption.
    Exact,
    /// Precomputed pool of the given size; each encryption multiplies
    /// two pseudo-randomly chosen entries.
    Pool(usize),
    /// One precomputed `h = r_0^n`; each encryption draws `h^α` via a
    /// fixed-base window table.
    FixedBase,
}

impl ObfMode {
    /// Resolve the obfuscation mode from the `BF_OBF_POOL` environment
    /// knob, falling back to `default`. Accepted values: `exact`,
    /// `fixedbase`, or a pool size `N ≥ 2`; anything else (including an
    /// unset variable) leaves the default in place.
    pub fn from_env_or(default: ObfMode) -> ObfMode {
        match std::env::var("BF_OBF_POOL").as_deref() {
            Ok("exact") => ObfMode::Exact,
            Ok("fixedbase") => ObfMode::FixedBase,
            Ok(s) => match s.parse::<usize>() {
                Ok(n) if n >= 2 => ObfMode::Pool(n),
                _ => default,
            },
            Err(_) => default,
        }
    }

    /// A pool sized from a measured (or expected) draw count rather
    /// than a fixed constant: `ceil(sqrt(2·draws))` entries, so the
    /// expected number of repeated index *pairs* across `draws`
    /// two-entry combinations stays O(1) (birthday bound), clamped to
    /// `[8, 4096]`. Feed it the [`Obfuscator::drawn`] count of a probe
    /// run — the `crypto_hotpath` bench sweeps this.
    pub fn sized_for(draws: u64) -> ObfMode {
        let s = (2.0 * draws as f64).sqrt().ceil() as usize;
        ObfMode::Pool(s.clamp(8, 4096))
    }
}

/// Thread-safe source of `r^n mod n^2` values in Montgomery form.
#[derive(Debug)]
pub struct Obfuscator {
    mode: ObfMode,
    seed: u64,
    ctr: AtomicU64,
    pool: Vec<Vec<u64>>,
    table: Option<FixedBaseTable>,
}

impl Obfuscator {
    /// Build an obfuscator for the given key. For the Plain backend this
    /// is a no-op shell.
    pub fn new(pk: &PublicKey, mode: ObfMode, seed: u64) -> Self {
        let pool = match (pk, mode) {
            (PublicKey::Paillier(p), ObfMode::Pool(size)) => {
                assert!(size >= 2, "pool must have at least 2 entries");
                bf_util::par_map(size, |i| {
                    fresh_rn(p, splitmix(seed ^ (i as u64).wrapping_mul(0x9e37)))
                })
            }
            _ => Vec::new(),
        };
        let table = match (pk, mode) {
            (PublicKey::Paillier(p), ObfMode::FixedBase) => {
                let h = fresh_rn(p, splitmix(seed ^ 0xf1bb));
                Some(FixedBaseTable::new(&p.mont, &h, FIXED_BASE_ALPHA_BITS))
            }
            _ => None,
        };
        Self {
            mode,
            seed,
            ctr: AtomicU64::new(0),
            pool,
            table,
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
            ObfMode::Exact => fresh_rn(
                pk,
                splitmix(self.seed.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15))),
            ),
            ObfMode::Pool(size) => {
                let h = splitmix(self.seed ^ i.wrapping_mul(0xbf58476d1ce4e5b9));
                let a = (h % size as u64) as usize;
                let b = ((h >> 32) % size as u64) as usize;
                if a == b {
                    pk.mont.mont_sqr(&self.pool[a])
                } else {
                    pk.mont.mont_mul(&self.pool[a], &self.pool[b])
                }
            }
            ObfMode::FixedBase => {
                // h^α for a 256-bit PRG-derived α ≥ 1: no squarings,
                // ≤ 64 multiplies through the window table.
                let mut limbs = [0u64; FIXED_BASE_ALPHA_BITS / 64];
                for (t, l) in limbs.iter_mut().enumerate() {
                    *l = splitmix(
                        self.seed
                            ^ i.wrapping_mul(0x94d049bb133111eb)
                            ^ (t as u64).wrapping_mul(0xd6e8feb86659fd93),
                    );
                }
                limbs[0] |= 1; // keep α non-zero
                let alpha = BigUint::from_limbs(limbs.to_vec());
                self.table
                    .as_ref()
                    .expect("FixedBase obfuscator without a table")
                    .pow(&pk.mont, &alpha)
            }
        }
    }

    /// Number of obfuscations drawn so far. Diagnostics, and the input
    /// to draw-rate pool sizing ([`ObfMode::sized_for`]).
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
        for mode in [ObfMode::Pool(3), ObfMode::Exact, ObfMode::FixedBase] {
            let obf = Obfuscator::new(&pk, mode, 11);
            for _ in 0..4 {
                let rn = obf.next_rn(p);
                assert!(s.raw_decrypt(&rn, None).is_zero(), "mode {mode:?}");
            }
        }
    }

    #[test]
    fn fixed_base_mode_distinct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let (pk, _) = keygen(128, 16, &mut rng);
        let obf = Obfuscator::new(&pk, ObfMode::FixedBase, 13);
        let PublicKey::Paillier(p) = &pk else {
            unreachable!()
        };
        assert_ne!(obf.next_rn(p), obf.next_rn(p));
        assert_eq!(obf.drawn(), 2);
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
        for mode in [ObfMode::Pool(3), ObfMode::Exact, ObfMode::FixedBase] {
            let obf = Obfuscator::new(&pk, mode, 21);
            let want: Vec<_> = (0..6).map(|_| obf.next_rn(p)).collect();
            let resumed = Obfuscator::new(&pk, mode, 21);
            resumed.set_drawn(4);
            assert_eq!(resumed.next_rn(p), want[4], "mode {mode:?}");
            assert_eq!(resumed.next_rn(p), want[5], "mode {mode:?}");
            assert_eq!(resumed.drawn(), 6);
        }
    }

    #[test]
    fn sized_for_follows_birthday_bound() {
        assert_eq!(ObfMode::sized_for(0), ObfMode::Pool(8));
        assert_eq!(ObfMode::sized_for(32), ObfMode::Pool(8));
        assert_eq!(ObfMode::sized_for(5000), ObfMode::Pool(100));
        assert_eq!(ObfMode::sized_for(u64::MAX / 4), ObfMode::Pool(4096));
    }

    #[test]
    fn env_knob_parses() {
        // Direct parsing contract (without mutating the environment,
        // which would race other tests): unset → default.
        assert_eq!(
            ObfMode::from_env_or(ObfMode::Pool(32)),
            ObfMode::Pool(32),
            "expects BF_OBF_POOL to be unset in the test environment"
        );
    }
}
