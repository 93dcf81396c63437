//! Arbitrary-precision unsigned integer arithmetic for blindfl-rs.
//!
//! The BlindFL paper builds its Paillier layer on GMP; since no bignum
//! crate is available in this workspace's sanctioned dependency set, this
//! crate implements the required number theory from scratch:
//!
//! * [`BigUint`] — heap-allocated little-endian `u64` limbs with
//!   schoolbook + Karatsuba multiplication and Knuth Algorithm D
//!   division,
//! * [`mont::MontCtx`] — Montgomery multiplication and sliding-window
//!   multi-exponentiation (the workhorse of Paillier encryption and of
//!   every homomorphic dot product),
//! * [`prime`] — Miller–Rabin primality testing and random prime
//!   generation,
//! * [`modular`] — gcd, extended gcd, and modular inverses,
//! * [`rng`] — uniform sampling of big integers.
//!
//! The implementation favours clarity and testability; performance is
//! addressed where it matters for the protocols (Montgomery arithmetic,
//! operand scanning multiplication with `u128` intermediates).

#![warn(missing_docs)]
#![allow(clippy::same_item_push)] // limb padding loops
pub mod div;
pub mod modular;
pub mod mont;
pub mod mul;
pub mod prime;
pub mod rng;
pub mod uint;

pub use modular::{batch_mod_inv, gcd, mod_inv};
pub use mont::MontCtx;
pub use prime::{gen_prime, is_probable_prime};
pub use rng::{random_below, random_bits};
pub use uint::BigUint;
