//! Slot-wise ciphertext packing: several fixed-point values per
//! Paillier plaintext.
//!
//! A Paillier plaintext is an element of `Z_n` — 512 bits in the
//! default configuration — while a single fixed-point payload needs
//! only ~100. Packing lays values out side by side in disjoint
//! bit-ranges ("slots") of one plaintext, so one ciphertext carries a
//! whole chunk of a matrix row and every homomorphic operation on it
//! (add = `mont_mul`, scalar-mult = `pow_mont`) processes all slots at
//! once. This is the batching idea production VFL systems use to
//! amortise HE cost; here it cuts the fig9/table5 crypto hot path by
//! the slot count (~4x at 512-bit keys, 32 fractional bits).
//!
//! # Slot layout and the headroom rule
//!
//! Each slot is `slot_bits = 2·frac_bits + SLOT_HEADROOM_BITS` wide:
//! `2·frac_bits` for a scale-2 (plain×cipher) payload and
//! [`SLOT_HEADROOM_BITS`] extra so row-count-many homomorphic additions
//! and the HE2SS masks cannot carry across a slot boundary. A slot
//! holds a *signed* value in `(-2^{slot_bits-1}, 2^{slot_bits-1})`;
//! the chunk is the single signed integer `P = Σ_j v_j · 2^{j·slot_bits}`
//! mapped into `Z_n` the same way the scalar codec maps one value
//! (negatives as `n - |P|`). Decoding adds the per-slot bias
//! `2^{slot_bits-1}` to every slot — making the integer non-negative
//! without inter-slot carries — and then reads plain base-`2^slot_bits`
//! digits.
//!
//! The rule in numbers: a slot's signed range, in value units at scale
//! 2, is `±2^(SLOT_HEADROOM_BITS−1)`. The HE2SS mask may take at most
//! half of it — [`MAX_HE_MASK`]` = 2^(SLOT_HEADROOM_BITS−2)` — which
//! leaves the other half, `|v| < 2^(SLOT_HEADROOM_BITS−2)`, to the
//! masked payload (products already summed over the batch rows), so
//! `v − φ` never reaches a slot boundary. A packed session whose
//! `he_mask` is larger is refused at the handshake, because
//! [`unpack_values`] cannot tell an overflowed slot from its
//! neighbour's carry.
//!
//! The Embed-MatMul projection spends the payload half differently: it
//! multiplies *shares* into packed weight pieces, and a share of an
//! embedding is as large as the mask that hides it (`|ψ|, |E − ψ| ≈
//! he_mask`). A `d`-term product slot therefore carries up to
//! `d · he_mask · w_max`, and the masked reply `d · he_mask · w_max +
//! he_mask`, which must stay inside the slot's whole signed range
//! `2^(SLOT_HEADROOM_BITS−1)`. `w_max` is an assumption about the peer's
//! weight piece, stated as [`MAX_PACKED_WEIGHT`];
//! [`masked_share_product_fits`] is the check, run where the layer's
//! width is known (`EmbedSource::init`), before any ciphertext ships.
//!
//! The GBDT histograms spend the headroom on rows instead of a mask
//! (nothing is masked there): a `(feature, bucket)` sum at scale 2 is
//! `Σ_rows round(g·2^fb)·2^fb`, so it stays inside its slot while
//! `rows·max|g| < 2^(slot_bits−1−2·frac_bits) = 2^(SLOT_HEADROOM_BITS−1)`.
//! The host then re-quantizes the decoded sum through an `f64`, exact
//! only while `rows·max|g| < 2^(52−frac_bits)` — the binding bound
//! (2^20 rows at 32 fractional bits). `blindfl::trees` computes both at
//! forest set-up (`|g| < 1`, `h ≤ ¼` for logloss) and refuses a store
//! past either on host and guest.
//!
//! Packing is *disabled* (the scalar body is used) when the key is too
//! small to fit two slots, when `slot_bits` would exceed
//! [`MAX_SLOT_BITS`] (digit extraction uses `u128` arithmetic), or when
//! a matrix has fewer than two columns — the decision depends only on
//! shared configuration (key size, `frac_bits`, shape), never on the
//! values, so both parties always agree on it.
//!
//! The one exception is any body that only has to be *decrypted*: its
//! holder folds it before it ships ([`crate::PublicKey::repack`]),
//! whatever the shape was. With `u` values per source ciphertext and
//! `f = ⌊slots/u⌋` sources per output,
//! `Π_j ⟦P_j⟧^{2^{j·u·slot_bits}}` is a ciphertext of
//! `Σ_j P_j·2^{j·u·slot_bits}` — the sources' slots laid end to end.
//!
//! What a fold buys depends on what a decryption costs, and **a
//! decryption costs one half-width exponentiation per started `p/2` of
//! plaintext** ([`crate::PaillierSk::raw_decrypt`]). A chunk states its
//! width, `used · slot_bits`; while that stays below `p/2` (`≤ p.bits()
//! − 2` bits: up to 4 of the 9 slots of a 1024-bit key, 2 of 4 at 512)
//! the plaintext is read off the `p` half of the CRT alone, and anything
//! wider — or a scalar ciphertext, which states no width — pays both
//! halves. A half is an exponentiation mod `p²` with a `key_bits/2`-bit
//! exponent: ≈ `key_bits/2` half-width squarings, worth ≈ `key_bits/8`
//! full-width ones. One output of a fold costs `(f−1)·u·slot_bits`
//! squarings and `f−1` multiplies mod `n²` on one chain, replaces `f`
//! source decryptions by one, and ships `f×` fewer bytes. At 1024-bit
//! keys (9 slots of 104 bits, a half ≈ 128 full-width squarings):
//!
//! - `u = 1`, `f = 9` — the HE2SS reply whose body is scalar (a
//!   one-column product, or what descends from the one scalar-only
//!   kernel, `matmul_ct_wt`, which contracts over the axis slots run
//!   along): 832 squarings turn 18 halves into 2, a bit over a third of
//!   the work per value;
//! - `u = 2`, `f = 4` — the GBDT histogram, `(Σg, Σh)` per row: the four
//!   sources are narrow, so 624 squarings turn 4 halves into 2. That is
//!   a loss of ≈ 0.35 ms per four cells in time; the fold is kept for
//!   the quarter of the bytes, which is what the tree workload's wire
//!   bound rests on;
//! - `u = 3`, `f = 3`: 624 squarings save one half; `u = 4`, `f = 2`:
//!   416 save none (two narrow sources, one full output) — both a loss
//!   in time for a third or half of the bytes. `repack` folds every
//!   `u ≤ slots/2` all the same (one rule, and the bytes always shrink
//!   `f`-fold); no caller has `u ≥ 3`, and one that does should measure
//!   before it calls.
//!
//! Probed at that key size (256 source ciphertexts, fold + decrypt of
//! the folded body against decrypting the sources, 1 thread / 2):
//! `u = 1` 0.39× / 0.40×, `u = 2` 1.43× / 1.5×, `u = 3` 1.9× / 1.9×,
//! `u = 4` 2.2× / 2.1×.
//!
//! The folded body is an ordinary packed `1 × N` row whose
//! [`SlotLayout::slots`] is `f·u`, not the key's: decoders take the
//! geometry from the body, after the key owner has held it against its
//! own ([`crate::SecretKey::conforms`]: the key's slot width, no more
//! slots than the key holds).
//!
//! Decoded values are **bit-identical** to the scalar path: slots are
//! encoded with the same [`codec::encode_exponent`] rounding and decoded
//! through the same `BigUint → f64` conversion — and a narrow chunk's
//! one-half decryption returns the very ring element both halves would —
//! so `PaillierMode` never changes a training trajectory (asserted by
//! the parity suites).

use bf_bigint::BigUint;

use crate::codec;

/// Extra bits per slot beyond the scale-2 payload, absorbing
/// accumulation across a mini-batch's rows (`log2(rows)` bits), the
/// HE2SS mask magnitude, and a safety margin.
pub const SLOT_HEADROOM_BITS: u32 = 40;

/// Largest HE2SS mask magnitude a packed session accepts: half a slot's
/// signed range in scale-2 value units (see the headroom rule).
pub const MAX_HE_MASK: f64 = (1u64 << (SLOT_HEADROOM_BITS - 2)) as f64;

/// Largest magnitude a packed *weight piece* is assumed to reach when
/// mask-sized shares are multiplied into it (the Embed-MatMul
/// projection; see the headroom rule). Pieces start at Xavier scale and
/// each step moves them by `lr ·` a mask-sized HE2SS piece, so they
/// random-walk upwards with the step count; `2^16` leaves the default
/// session (`he_mask = 10^4`) room for `d ≤ 838` projection rows.
pub const MAX_PACKED_WEIGHT: f64 = (1u64 << 16) as f64;

/// The headroom rule for a `d`-term product of mask-sized shares with
/// packed weight pieces below [`MAX_PACKED_WEIGHT`], masked by HE2SS:
/// `d · he_mask · w_max + he_mask` must not pass a slot's signed range,
/// `2^(SLOT_HEADROOM_BITS−1)` at scale 2. False for a NaN mask.
pub fn masked_share_product_fits(d: usize, he_mask: f64) -> bool {
    let mask = he_mask.abs();
    d as f64 * mask * MAX_PACKED_WEIGHT + mask <= 2.0 * MAX_HE_MASK
}

/// Upper bound on `slot_bits`: slot digits are extracted into `u128`s,
/// and the signed value must fit an `i128`.
pub const MAX_SLOT_BITS: u32 = 120;

/// Ciphertext layout selector for the crypto hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaillierMode {
    /// One ciphertext per matrix element (the baseline layout).
    Scalar,
    /// One ciphertext per column chunk, `SlotLayout::slots` values each.
    Packed,
}

/// Slot geometry for a given key: how wide each slot is and how many
/// fit in one plaintext.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotLayout {
    /// Bits per slot (`2·frac_bits + SLOT_HEADROOM_BITS`).
    pub slot_bits: u32,
    /// Slots per ciphertext.
    pub slots: usize,
}

impl SlotLayout {
    /// Derive the packing geometry for a key, or `None` when packing is
    /// not viable (slot too wide for digit extraction, or fewer than
    /// two slots fit below the sign threshold `n/2`).
    pub fn for_key(key_bits: usize, frac_bits: u32) -> Option<SlotLayout> {
        let slot_bits = 2 * frac_bits + SLOT_HEADROOM_BITS;
        if slot_bits > MAX_SLOT_BITS {
            return None;
        }
        // The packed integer must stay below n/2 ≈ 2^(key_bits-1), so
        // keep the total strictly under key_bits - 2 bits.
        let usable = (key_bits as u32).saturating_sub(2);
        let slots = (usable / slot_bits) as usize;
        if slots < 2 {
            return None;
        }
        Some(SlotLayout { slot_bits, slots })
    }

    /// Exclusive bound on a slot's encoded magnitude: `2^(slot_bits-1)`.
    pub fn max_slot_mag(&self) -> u128 {
        1u128 << (self.slot_bits - 1)
    }
}

/// A value whose fixed-point encoding does not fit its slot.
#[derive(Clone, Debug, PartialEq)]
pub struct PackError {
    /// Slot index within the chunk.
    pub slot: usize,
    /// The offending value.
    pub value: f64,
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "value {} overflows its pack slot (index {})",
            self.value, self.slot
        )
    }
}

impl std::error::Error for PackError {}

/// Pack one chunk of values (`vals.len() <= layout.slots`) into a
/// `Z_n` plaintext at `scale` multiples of `frac_bits`.
///
/// Each value is quantised exactly as the scalar codec would quantise
/// it; a value whose magnitude reaches `2^(slot_bits-1)` is rejected.
pub fn pack_values(
    vals: &[f64],
    frac_bits: u32,
    scale: u8,
    layout: SlotLayout,
    n: &BigUint,
) -> Result<BigUint, PackError> {
    assert!(vals.len() <= layout.slots, "chunk wider than the layout");
    let shift = frac_bits * scale as u32;
    let mut pos = BigUint::zero();
    let mut neg = BigUint::zero();
    for (j, &v) in vals.iter().enumerate() {
        let e = codec::encode_exponent(v, shift);
        if e.mag.bits() >= layout.slot_bits as usize {
            return Err(PackError { slot: j, value: v });
        }
        if e.is_zero() {
            continue;
        }
        let shifted = e.mag.shl(j * layout.slot_bits as usize);
        if e.neg {
            neg = neg.add(&shifted);
        } else {
            pos = pos.add(&shifted);
        }
    }
    Ok(if pos >= neg {
        pos.sub(&neg)
    } else {
        n.sub(&neg.sub(&pos))
    })
}

/// Unpack the first `out.len()` slots of a decrypted `Z_n` element into
/// `out`.
///
/// The ring element is first sign-recovered exactly like the scalar
/// decoder (`m > n/2` means negative), then the per-slot bias
/// `2^(slot_bits-1)` is added to every slot so plain digit extraction
/// applies. Each digit is converted through the same
/// `BigUint::to_f64 / 2^shift` path as the scalar decoder, keeping the
/// result bit-identical.
pub fn unpack_values(
    m: &BigUint,
    frac_bits: u32,
    scale: u8,
    layout: SlotLayout,
    n: &BigUint,
    half_n: &BigUint,
    out: &mut [f64],
) {
    let w = layout.slot_bits as usize;
    let shift = (frac_bits * scale as u32) as f64;
    let (p_mag, p_neg) = if m > half_n {
        (n.sub(m), true)
    } else {
        (m.clone(), false)
    };
    let bias = slot_bias(layout.slot_bits, out.len());
    // Every in-range slot value exceeds -2^(slot_bits-1), so biasing
    // makes the whole integer non-negative. A plaintext outside the
    // envelope (a ciphertext under another key, a mask past the
    // headroom rule) must decode to garbage, as it does in the scalar
    // codec, not panic on bytes that came from the peer: lift the bias
    // by a power of 2^w above n — no digit read below reaches it.
    let s = if p_neg {
        let lift = BigUint::one().shl(n.bits().div_ceil(w) * w);
        bias.add(&lift).sub(&p_mag)
    } else {
        bias.add(&p_mag)
    };
    let mask = (1u128 << w) - 1;
    let half = 1i128 << (w - 1);
    for (j, o) in out.iter_mut().enumerate() {
        let d = (s.shr(j * w).low_u128() & mask) as i128;
        let v = d - half;
        let mag = BigUint::from_u128(v.unsigned_abs());
        let f = mag.to_f64() / shift.exp2();
        *o = if v < 0 { -f } else { f };
    }
}

/// `Σ_{j<used} 2^(slot_bits-1) · 2^(j·slot_bits)` — the decode bias.
fn slot_bias(slot_bits: u32, used: usize) -> BigUint {
    let mut b = BigUint::zero();
    for j in 0..used {
        b = b.add(&BigUint::one().shl(slot_bits as usize - 1 + j * slot_bits as usize));
    }
    b
}

/// The packed body of a [`crate::CtMat`]: one ciphertext per column
/// chunk instead of per element.
///
/// Columns are grouped into *segments* of width `seg` (`cols % seg ==
/// 0`); each segment is split independently into
/// `ceil(seg / layout.slots)` chunks, so chunks never straddle a
/// segment boundary. Plain matrices have a single segment (`seg =
/// cols`); embedding tables use `seg = dim` so that `lkup`'s
/// concatenation of table rows preserves chunk alignment.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedCtMat {
    /// Limbs per ciphertext.
    pub(crate) k: usize,
    /// Slot geometry.
    pub(crate) layout: SlotLayout,
    /// Segment width in columns.
    pub(crate) seg: usize,
    /// Flat row-major ciphertext limbs: `rows × chunks` ciphertexts.
    pub(crate) limbs: Vec<u64>,
}

impl PackedCtMat {
    /// Chunks per segment.
    pub(crate) fn chunks_per_seg(&self) -> usize {
        self.seg.div_ceil(self.layout.slots)
    }

    /// Total chunks per row for a matrix of `cols` columns.
    pub(crate) fn chunks_total(&self, cols: usize) -> usize {
        debug_assert_eq!(cols % self.seg, 0, "cols must be whole segments");
        cols / self.seg * self.chunks_per_seg()
    }

    /// Number of used slots in chunk `c` (the last chunk of each
    /// segment may be partial).
    pub(crate) fn used_in_chunk(&self, c: usize) -> usize {
        let cc = c % self.chunks_per_seg();
        (self.seg - cc * self.layout.slots).min(self.layout.slots)
    }

    /// First column covered by chunk `c`.
    pub(crate) fn chunk_col0(&self, c: usize) -> usize {
        let cps = self.chunks_per_seg();
        (c / cps) * self.seg + (c % cps) * self.layout.slots
    }

    /// Ciphertext limbs of chunk `(i, c)` in a matrix of `cols` columns.
    pub(crate) fn entry(&self, cols: usize, i: usize, c: usize) -> &[u64] {
        let off = (i * self.chunks_total(cols) + c) * self.k;
        &self.limbs[off..off + self.k]
    }

    /// Slot geometry of this body.
    pub fn layout(&self) -> SlotLayout {
        self.layout
    }

    /// Segment width in columns.
    pub fn seg(&self) -> usize {
        self.seg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n512() -> BigUint {
        BigUint::one().shl(512).sub_u64(569)
    }

    #[test]
    fn layout_follows_headroom_rule() {
        let l = SlotLayout::for_key(512, 32).unwrap();
        assert_eq!(l.slot_bits, 104);
        assert_eq!(l.slots, 4);
        let l = SlotLayout::for_key(256, 24).unwrap();
        assert_eq!(l.slot_bits, 88);
        assert_eq!(l.slots, 2);
        // Too-wide slots (frac_bits > 40) and too-small keys disable
        // packing rather than shrinking the headroom.
        assert!(SlotLayout::for_key(512, 41).is_none());
        assert!(SlotLayout::for_key(128, 32).is_none());
    }

    #[test]
    fn share_product_bound_sits_at_the_slot_range() {
        // d·m·w_max + m = 2^39 exactly at m = 2^39 / (d·w_max + 1).
        let range = 2.0 * MAX_HE_MASK;
        for d in [1usize, 16, 208] {
            let edge = range / (d as f64 * MAX_PACKED_WEIGHT + 1.0);
            assert!(masked_share_product_fits(d, edge * (1.0 - 1e-12)), "{d}");
            assert!(masked_share_product_fits(d, -edge * (1.0 - 1e-12)), "{d}");
            assert!(!masked_share_product_fits(d, edge * (1.0 + 1e-12)), "{d}");
        }
        assert!(!masked_share_product_fits(1, f64::NAN));
        // The default session's mask with the widest projection in the
        // catalog (8 fields × dim 8).
        assert!(masked_share_product_fits(64, 1e4));
    }

    #[test]
    fn pack_unpack_roundtrip_signed() {
        let n = n512();
        let half = n.shr(1);
        let l = SlotLayout::for_key(512, 32).unwrap();
        let vals = [1.5, -2.75, 0.0, -1234.0625];
        let m = pack_values(&vals, 32, 1, l, &n).unwrap();
        let mut out = [0.0; 4];
        unpack_values(&m, 32, 1, l, &n, &half, &mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn packed_add_is_slotwise() {
        let n = n512();
        let half = n.shr(1);
        let l = SlotLayout::for_key(512, 32).unwrap();
        let a = [1.5, -2.0, 3.25];
        let b = [-4.5, 0.5, -3.25];
        let ma = pack_values(&a, 32, 1, l, &n).unwrap();
        let mb = pack_values(&b, 32, 1, l, &n).unwrap();
        let sum = ma.mod_add(&mb, &n);
        let mut out = [0.0; 3];
        unpack_values(&sum, 32, 1, l, &n, &half, &mut out);
        assert_eq!(out, [-3.0, -1.5, 0.0]);
    }

    #[test]
    fn out_of_envelope_plaintext_decodes_to_garbage_not_a_panic() {
        // What a ciphertext under another key decrypts to: an arbitrary
        // ring element, here the most negative one (|P| ≈ n/2, far past
        // the 4-slot bias). The low slots still read as if in range.
        let n = n512();
        let half = n.shr(1);
        let l = SlotLayout::for_key(512, 32).unwrap();
        let mut out = [0.0; 4];
        unpack_values(&half.add_u64(1), 32, 1, l, &n, &half, &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
        // n = 2^512 − 569, so −⌊n/2⌋ ≡ 285 (mod 2^104): slot 0 reads
        // 285 fixed-point units.
        assert_eq!(out[0], 285.0 / (32f64).exp2());
    }

    #[test]
    fn slot_overflow_rejected() {
        let n = n512();
        let l = SlotLayout::for_key(512, 32).unwrap();
        // 2^40 * 2^32 = 2^72 fits a 104-bit slot; 2^72 * 2^32 does not.
        assert!(pack_values(&[(40f64).exp2()], 32, 1, l, &n).is_ok());
        let err = pack_values(&[1.0, (72f64).exp2()], 32, 1, l, &n).unwrap_err();
        assert_eq!(err.slot, 1);
    }

    #[test]
    fn chunk_geometry() {
        let p = PackedCtMat {
            k: 1,
            layout: SlotLayout {
                slot_bits: 100,
                slots: 4,
            },
            seg: 6,
            limbs: Vec::new(),
        };
        assert_eq!(p.chunks_per_seg(), 2);
        assert_eq!(p.chunks_total(12), 4);
        assert_eq!(p.used_in_chunk(0), 4);
        assert_eq!(p.used_in_chunk(1), 2);
        assert_eq!(p.chunk_col0(2), 6);
        assert_eq!(p.chunk_col0(3), 10);
    }
}
