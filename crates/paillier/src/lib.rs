//! Paillier additive homomorphic encryption and the CryptoTensor layer.
//!
//! This crate is the Rust counterpart of the paper's "Cryptography
//! Acceleration" layer (**§7.1**): a Paillier cryptosystem built on
//! `bf-bigint` (standing in for GMP) plus a [`CtMat`] abstraction — the
//! paper's *CryptoTensor* — supporting dense **and sparse** matrix
//! arithmetic over encrypted tensors, parallelised across cores (the
//! paper uses OpenMP; we use a small helper-thread pool in `bf-util`).
//! It underpins the §4 federated source layers and the §5 secure
//! aggregation in `bf-mpc`/`blindfl`; the [`serial`] module owns the
//! byte layouts that keys and ciphertext tensors use on the wire
//! (`docs/WIRE_PROTOCOL.md`).
//!
//! # Key objects
//!
//! * [`PublicKey`] / [`SecretKey`] — either a real Paillier key pair or
//!   the [`Plain`](PublicKey::Plain) backend, an identity "encryption"
//!   used for fast functional testing and for the model-quality
//!   experiments (the protocols are lossless, so loss curves are
//!   identical under either backend; see DESIGN.md §3).
//! * [`Obfuscator`] — encryption randomness (`r^n mod n^2`), either
//!   generated exactly per encryption or drawn from a precomputed pool
//!   (products of pool entries are valid obfuscations; the pool strategy
//!   mirrors production Paillier deployments).
//! * [`CtMat`] — a matrix of ciphertexts kept in Montgomery form, with
//!   `X·⟦W⟧`, `Xᵀ·⟦G⟧` (sparse-aware), `⟦G⟧·Wᵀ`, embedding
//!   gather/scatter (`lkup` / `lkup_bw`), and homomorphic add/sub.
//! * [`pack`] — the packed fast path: multiple fixed-point values
//!   packed slot-wise into one plaintext so one ciphertext carries a
//!   whole column chunk ([`PaillierMode::Packed`]); decodes
//!   bit-identically to the scalar path (`docs/ARCHITECTURE.md`,
//!   "Packed crypto path").
//!
//! # Fixed-point encoding
//!
//! Plaintexts are `f64` scaled by `2^frac_bits` and embedded in `Z_n`
//! with the upper half of the ring representing negatives. A
//! plain-times-cipher product carries scale `2·frac_bits`; [`CtMat`]
//! tracks the scale and the decoder rescales on decryption.

#![warn(missing_docs)]
#![allow(clippy::large_enum_variant)] // ScalarCt test helper
pub mod codec;
pub mod ctmat;
pub mod keys;
pub mod obf;
pub mod pack;
pub mod serial;

pub use codec::{decode, encode, encode_exponent, SignedInt};
pub use ctmat::CtMat;
pub use keys::{keygen, FixedBaseTable, PaillierPk, PaillierSk, PublicKey, SecretKey};
pub use obf::{ObfMode, Obfuscator};
pub use pack::{
    masked_share_product_fits, pack_values, unpack_values, PackError, PackedCtMat, PaillierMode,
    SlotLayout, MAX_HE_MASK, MAX_PACKED_WEIGHT, MAX_SLOT_BITS, SLOT_HEADROOM_BITS,
};
pub use serial::{
    export_ctmat, export_public, export_secret, import_ctmat, import_public, import_secret,
};

/// Default fixed-point fractional bits. With 512-bit-and-up moduli this
/// leaves ample headroom: a scale-2 payload occupies
/// `2*FRAC_BITS + magnitude + accumulation ≈ 96` bits.
pub const DEFAULT_FRAC_BITS: u32 = 32;

/// Default Paillier modulus size in bits for the experiment harnesses.
///
/// The paper uses production-size keys on a 2×96-core testbed; 512-bit
/// keys keep every harness on laptop-scale hardware while exercising the
/// identical code path (see DESIGN.md §5). Security-sensitive
/// deployments should use ≥ 2048.
pub const DEFAULT_KEY_BITS: usize = 512;
