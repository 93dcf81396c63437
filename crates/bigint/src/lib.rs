//! Arbitrary-precision unsigned integer arithmetic for blindfl-rs.
//!
//! The BlindFL paper builds its Paillier layer on GMP; since no bignum
//! crate is available in this workspace's sanctioned dependency set, this
//! crate implements the required number theory from scratch:
//!
//! * [`BigUint`] — heap-allocated little-endian `u64` limbs with
//!   schoolbook multiplication and Knuth Algorithm D division,
//! * [`mont::MontCtx`] — Montgomery multiplication and sliding-window
//!   multi-exponentiation (the workhorse of Paillier encryption and of
//!   every homomorphic dot product), and its batched forms — many bases
//!   to one exponent ([`MontCtx::pow_many`]: the Paillier key owner's
//!   CRT halves), many Horner folds ([`MontCtx::fold_many`]: a reply's
//!   repack) and many products of powers over shared bases
//!   ([`MontCtx::multi_pow_many`]: the `CtMat` contractions) — which on
//!   x86_64 CPUs with AVX-512 IFMA run eight at a time in the lanes of
//!   one vector,
//! * [`prime`] — Miller–Rabin primality testing and random prime
//!   generation,
//! * [`modular`] — gcd, lcm and modular inverses on one binary-GCD core
//!   (Pornin's optimized binary GCD),
//! * [`rng`] — uniform sampling of big integers.
//!
//! The implementation favours clarity and testability; performance is
//! addressed where it matters for the protocols (Montgomery arithmetic:
//! `u128` bodies everywhere, a `mulx`/`adcx`/`adox` row on x86_64 with
//! BMI2 and ADX, and the IFMA lane kernel). Those two x86_64 kernels
//! are the crate's only `unsafe`, each reached only after
//! `is_x86_feature_detected!` has seen its features.

#![warn(missing_docs)]
#![allow(clippy::same_item_push)] // limb padding loops
pub mod div;
#[cfg(target_arch = "x86_64")]
mod ifma;
pub mod modular;
pub mod mont;
pub mod mul;
pub mod prime;
pub mod rng;
pub mod uint;

pub use modular::{gcd, mod_inv};
pub use mont::MontCtx;
pub use prime::{gen_prime, is_probable_prime};
pub use rng::{random_below, random_bits};
pub use uint::BigUint;
