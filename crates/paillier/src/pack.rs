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
//! `2^(SLOT_HEADROOM_BITS−1)`. [`masked_share_product_fits`] is the
//! check. It runs twice: where the layer's width is known
//! (`EmbedSource::init`), before any ciphertext ships, with `w_max` the
//! assumption [`MAX_PACKED_WEIGHT`]; and after every step of a piece,
//! before its refresh ships, with `w_max` the piece's own largest
//! magnitude and `d` its row count.
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
//! A packed matrix and a scalar one are the same [`crate::CtMat`] body
//! in two lane layouts (`LaneLayout`): one value per ciphertext, or
//! one column chunk per ciphertext. Packing is *disabled* (the
//! one-value-per-lane layout is used) when the key is too
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
//! full-width ones on the same kernel. A call raises its halves in one
//! [`bf_bigint::MontCtx::pow_many`] per prime, which on CPUs with
//! AVX-512 IFMA runs them eight to a lane-kernel group, ≈ 7–10× cheaper
//! per half at 1024-bit keys than the `mulx`/`adx` scalar
//! exponentiation, whenever the call has more ciphertexts than worker
//! threads. A group costs about one scalar ciphertext whatever its live
//! lanes, so a call that gives each ciphertext a thread of its own — a
//! served request's reply of one or two — and a lone ciphertext past
//! the last full group decrypt one ciphertext per thread. One
//! output of a fold costs `(f−1)·u·slot_bits` squarings and `f−1`
//! multiplies mod `n²` on one Horner chain, replaces `f` source
//! decryptions by one, and ships `f×` fewer bytes. A call's chains are
//! one [`bf_bigint::MontCtx::fold_many`], eight to a lane-kernel group
//! and split the same way, ≈ 4–6× cheaper per chain than
//! the scalar one. At 1024-bit keys (9 slots of 104 bits, a half ≈ 128
//! full-width squarings on the scalar kernel, ≈ 13–18 on the lane
//! kernel):
//!
//! - `u = 1`, `f = 9` — the HE2SS reply whose body is scalar (a
//!   one-column product, or a `dim = 1` embedding gradient; `matmul_ct_wt`,
//!   the one kernel that contracts over the axis slots run along, feeds
//!   no BlindFL reply): 832 squarings turn 18 halves into 2 — with both
//!   on lanes, about half the work of decrypting the sources;
//! - `u = 2`, `f = 4` — the GBDT histogram, `(Σg, Σh)` per row: the four
//!   sources are narrow, so 624 squarings turn 4 halves into 2, still a
//!   loss in time. The fold is kept for the quarter of the bytes, which
//!   is what the tree workload's wire bound rests on;
//! - `u = 3`, `f = 3`: 624 squarings save one half; `u = 4`, `f = 2`:
//!   416 save none (two narrow sources, one full output) — both a loss
//!   in time for a third or half of the bytes. `repack` folds every
//!   `u ≤ slots/2` all the same (one rule, and the bytes always shrink
//!   `f`-fold); no caller has `u ≥ 3`, and one that does should measure
//!   before it calls.
//!
//! Probed at that key size (256 source ciphertexts, fold + decrypt of
//! the folded body against decrypting the sources, medians of 7,
//! 1 thread / 2, two rounds each alternating with the tree before the
//! lane fold, on a 2-vCPU Xeon VM with AVX-512 IFMA and the
//! `mulx`/`adx` kernels), the ratio is `u = 1` 0.48–0.49× / 0.49–0.53×,
//! `u = 2` 1.53–1.54× / 1.51–1.66×, `u = 3` 2.09× / 2.13–2.22×,
//! `u = 4` 2.35–2.37× / 2.34–2.39×, against 1.50–1.69× / 1.48–1.49×,
//! 4.88–4.97× / 4.74–4.83×, 6.58–6.59× / 5.74–6.72× and 6.85–6.89× /
//! 6.73–7.48× with the chains on the scalar kernel (the fold alone:
//! 5.1–5.2 ms against 19–28 ms at `u = 1`, 7.5–7.9 against 32 ms at
//! `u = 2`, one thread). So the scalar reply's fold pays in time again,
//! and the histogram's costs half again its sources' decryptions
//! instead of five times them; the rest of that gap is ROADMAP item 19
//! (a dedicated lane squaring, the 40-limb accumulators).
//!
//! The folded body is an ordinary packed `1 × N` row whose
//! [`SlotLayout::slots`] is `f·u`, not the key's: decoders take the
//! geometry from the body, after the key owner has held it against its
//! own ([`crate::SecretKey::conforms`]: the key's slot width, no more
//! slots than the key holds).
//!
//! Decoded values are **bit-identical** to the scalar path: slots are
//! encoded with the same rounding as [`codec::encode_exponent`] and
//! decoded through the same `BigUint → f64` arithmetic
//! ([`BigUint::u128_to_f64`]) — and a narrow chunk's
//! one-half decryption returns the very ring element both halves would —
//! so `PaillierMode` never changes a training trajectory (asserted by
//! the parity suites).
//!
//! # The codec path
//!
//! Both directions work on limbs; no slot becomes a `BigUint`.
//! [`pack_values`] quantises each value to a `u128` magnitude exactly as
//! the scalar codec does, adds or subtracts it at bit `j·slot_bits` of
//! one buffer a limb wider than `n`, and turns a negative two's-
//! complement total into `n − |P|` by adding `n`: one allocation, the
//! plaintext's own. [`unpack_values`] copies the plaintext's low limbs
//! (for a negative element, the complement `m − n`), then reads each
//! slot's window, adds the bias and the carry out of the slot below,
//! and converts through the scalar decoder's two-limb `f64` arithmetic.
//! Both are bit for bit the `BigUint` shift-and-add codec they replaced,
//! out-of-envelope plaintexts and `PackError`s included (the reference
//! lives in `tests/pack_prop.rs`). At 1024-bit keys, a 9-slot chunk
//! packs in ≈ 0.5 µs instead of 2–3.7 µs and unpacks in ≈ 0.16 µs
//! instead of 2.3–3.9 µs (one thread of a 2-vCPU Xeon VM).

use bf_bigint::mont::scratch;
use bf_bigint::BigUint;
use bf_util::codec::{DecodeError, DecodeResult, Reader, Writer};

use crate::codec;
use crate::keys::{PaillierPk, STACK_LIMBS};

/// Extra bits per slot beyond the scale-2 payload, absorbing
/// accumulation across a mini-batch's rows (`log2(rows)` bits), the
/// HE2SS mask magnitude, and a safety margin.
pub const SLOT_HEADROOM_BITS: u32 = 40;

/// Largest HE2SS mask magnitude a packed session accepts: half a slot's
/// signed range in scale-2 value units (see the headroom rule).
pub const MAX_HE_MASK: f64 = (1u64 << (SLOT_HEADROOM_BITS - 2)) as f64;

/// Largest magnitude a packed *weight piece* is assumed to reach when
/// mask-sized shares are multiplied into it (the Embed-MatMul
/// projection; see the headroom rule): what a layer is sized for at
/// set-up. Pieces start at Xavier scale and each step moves them by
/// `lr ·` a mask-sized HE2SS piece, so they random-walk upwards with the
/// step count — at the default session (`he_mask = 10^4`, `lr = 0.05`,
/// momentum 0.9) past `2^16` within a few hundred steps — which is why
/// every step checks the piece it produced, against its own width.
/// `2^16` leaves the default session room for `d ≤ 838` projection rows.
pub const MAX_PACKED_WEIGHT: f64 = (1u64 << 16) as f64;

/// The headroom rule for a `d`-term product of mask-sized shares with
/// packed weight pieces of magnitude at most `w_max`, masked by HE2SS:
/// `d · he_mask · w_max + he_mask` must not pass a slot's signed range,
/// `2^(SLOT_HEADROOM_BITS−1)` at scale 2. False for a NaN mask or
/// weight.
pub fn masked_share_product_fits(d: usize, he_mask: f64, w_max: f64) -> bool {
    let mask = he_mask.abs();
    d as f64 * mask * w_max.abs() + mask <= 2.0 * MAX_HE_MASK
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
/// The signed sum `P` accumulates in two's complement in one limb
/// buffer, a limb wider than both `n` and the chunk; a negative `P`
/// becomes `n − |P|` by adding `n`, which carries out of the top limb.
pub fn pack_values(
    vals: &[f64],
    frac_bits: u32,
    scale: u8,
    layout: SlotLayout,
    n: &BigUint,
) -> Result<BigUint, PackError> {
    assert!(vals.len() <= layout.slots, "chunk wider than the layout");
    let shift = frac_bits * scale as u32;
    let w = layout.slot_bits as usize;
    let len = n.limbs().len().max((vals.len() * w).div_ceil(64)) + 1;
    let mut acc = vec![0u64; len];
    for (j, &v) in vals.iter().enumerate() {
        let (mag, neg) = codec::scaled_magnitude(v, shift);
        if 128 - mag.leading_zeros() as usize >= w {
            return Err(PackError { slot: j, value: v });
        }
        if mag != 0 {
            add_at(&mut acc, mag, j * w, neg);
        }
    }
    if acc[len - 1] >> 63 == 1 {
        let wrapped = carry_words(&mut acc, n.limbs(), false);
        assert!(wrapped, "a packed chunk's magnitude exceeds n");
    }
    Ok(BigUint::from_limbs(acc))
}

/// `acc ± mag·2^bit`, modulo `2^(64·acc.len())`.
fn add_at(acc: &mut [u64], mag: u128, bit: usize, neg: bool) {
    let s = bit % 64;
    let low = mag << s;
    let high = if s == 0 { 0 } else { (mag >> (128 - s)) as u64 };
    carry_words(
        &mut acc[bit / 64..],
        &[low as u64, (low >> 64) as u64, high],
        neg,
    );
}

/// `acc ± words` (zero-extended), modulo `2^(64·acc.len())`; true if
/// the carry or borrow leaves the top limb. Stops where it dies out.
fn carry_words(acc: &mut [u64], words: &[u64], sub: bool) -> bool {
    let op = if sub {
        u64::overflowing_sub
    } else {
        u64::overflowing_add
    };
    let mut carry = false;
    for (i, a) in acc.iter_mut().enumerate() {
        let x = match words.get(i) {
            Some(&x) => x,
            None if carry => 0,
            None => return false,
        };
        let (r, c1) = op(*a, x);
        let (r, c2) = op(r, carry as u64);
        (*a, carry) = (r, c1 || c2);
    }
    carry
}

/// Unpack the first `out.len()` slots of a decrypted `Z_n` element into
/// `out`.
///
/// The ring element is first sign-recovered exactly like the scalar
/// decoder (`m > n/2` means negative), then the per-slot bias
/// `2^(slot_bits-1)` is added to every slot so plain digit extraction
/// applies. Each digit is converted through the same two-limb
/// `BigUint::to_f64` arithmetic as the scalar decoder
/// ([`BigUint::u128_to_f64`]), keeping the result bit-identical.
///
/// The digits are read off limbs, low slot first, with the bias added
/// one slot at a time and its carry handed up. A negative element's
/// magnitude `n − m` enters as its complement below a power `2^L` of
/// `2^slot_bits` above `n`, i.e. as `(m − n) mod 2^L`.
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
    let len = (out.len() * w).div_ceil(64) + 2;
    let (mut stack, mut heap) = ([0u64; 2 * STACK_LIMBS], Vec::new());
    let x = scratch(&mut stack, &mut heap, len);
    for (xi, &l) in x.iter_mut().zip(m.limbs()) {
        *xi = l;
    }
    if m > half_n {
        // Every in-range slot value exceeds -2^(slot_bits-1), so biasing
        // makes the whole integer non-negative. A plaintext outside the
        // envelope (a ciphertext under another key, a mask past the
        // headroom rule) must decode to garbage, as it does in the scalar
        // codec, not panic on bytes that came from the peer: the
        // complement is taken below 2^L, past every bit of n.
        let nl = n.limbs();
        carry_words(x, &nl[..nl.len().min(len)], true);
        let lift = n.bits().div_ceil(w) * w;
        for (i, xi) in x.iter_mut().enumerate().skip(lift / 64) {
            let keep = if i == lift / 64 { lift % 64 } else { 0 };
            *xi &= (1u64 << keep) - 1;
        }
    }
    let mask = (1u128 << w) - 1;
    let half = 1u128 << (w - 1);
    let mut carry = 0;
    for (j, o) in out.iter_mut().enumerate() {
        let t = (window(x, j * w) & mask) + half + carry;
        let v = (t & mask) as i128 - half as i128;
        carry = t >> w;
        let f = BigUint::u128_to_f64(v.unsigned_abs()) / shift.exp2();
        *o = if v < 0 { -f } else { f };
    }
}

/// The 128 bits of `x` from bit `bit` on, zero past its end.
fn window(x: &[u64], bit: usize) -> u128 {
    let (i, s) = (bit / 64, bit % 64);
    let at = |k: usize| x.get(i + k).copied().unwrap_or(0) as u128;
    let low = (at(0) | at(1) << 64) >> s;
    if s == 0 {
        low
    } else {
        low | at(2) << (128 - s)
    }
}

/// Wire body tag of the one-value-per-lane layout (`crate::serial`).
const TAG_ONE_PER_LANE: u8 = 1;
/// Wire body tag of the slot-packed layout, followed by its geometry.
const TAG_PACKED: u8 = 2;

/// How a Paillier [`crate::CtMat`] lays a row's values into ciphertexts
/// ("lanes") — the only thing its two layouts differ in, and the only
/// place anything reads which one a body has.
///
/// Three facts follow from it: how many lanes a row has and which
/// columns lane `c` covers ([`LaneLayout::per_row`], [`LaneLayout::span`]);
/// how a lane's values become a plaintext and back ([`codec`], or
/// [`pack_values`] / [`unpack_values`]); and what a lane states about its
/// plaintext's width to [`crate::PaillierSk::raw_decrypt`] — nothing, or
/// `used · slot_bits`.
///
/// Packed columns are grouped into *segments* of width `seg` (`cols %
/// seg == 0`); each segment is split independently into
/// `⌈seg / slots⌉` chunks, so chunks never straddle a segment boundary.
/// Uploads are a single segment (`seg = cols`); embedding tables use
/// `seg = dim` so that `lkup`'s concatenation of table rows preserves
/// chunk alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LaneLayout {
    /// One value per lane: lane `c` is column `c`, encoded by [`codec`].
    OnePerLane,
    /// Slot-packed: one lane per column chunk of `layout.slots` values.
    Packed {
        /// Slot geometry.
        layout: SlotLayout,
        /// Segment width in columns.
        seg: usize,
    },
}

impl LaneLayout {
    /// True for the slot-packed layout.
    pub(crate) fn is_packed(&self) -> bool {
        matches!(self, LaneLayout::Packed { .. })
    }

    /// Lanes in a row of `cols` columns (a whole number of segments).
    pub(crate) fn per_row(&self, cols: usize) -> usize {
        match *self {
            LaneLayout::OnePerLane => cols,
            LaneLayout::Packed { layout, seg } => {
                debug_assert_eq!(cols % seg, 0, "cols must be whole segments");
                cols / seg * seg.div_ceil(layout.slots)
            }
        }
    }

    /// True if a row of `cols` columns is whole lanes: a whole number of
    /// segments.
    pub(crate) fn tiles(&self, cols: usize) -> bool {
        match *self {
            LaneLayout::OnePerLane => true,
            LaneLayout::Packed { seg, .. } => cols.is_multiple_of(seg),
        }
    }

    /// The columns lane `c` of a row covers (the last chunk of each
    /// segment may be partial).
    pub(crate) fn span(&self, c: usize) -> std::ops::Range<usize> {
        match *self {
            LaneLayout::OnePerLane => c..c + 1,
            LaneLayout::Packed { layout, seg } => {
                let cps = seg.div_ceil(layout.slots);
                let first = (c % cps) * layout.slots;
                let col0 = (c / cps) * seg + first;
                col0..col0 + (seg - first).min(layout.slots)
            }
        }
    }

    /// A lane's values as one `Z_n` plaintext at `scale`.
    pub(crate) fn encode(
        &self,
        vals: &[f64],
        pk: &PaillierPk,
        scale: u8,
    ) -> Result<BigUint, PackError> {
        match *self {
            LaneLayout::OnePerLane => Ok(codec::encode(vals[0], pk.frac_bits, scale, &pk.n)),
            LaneLayout::Packed { layout, .. } => {
                pack_values(vals, pk.frac_bits, scale, layout, &pk.n)
            }
        }
    }

    /// A lane's decrypted plaintext back into its `out.len()` values.
    pub(crate) fn decode(&self, m: &BigUint, pk: &PaillierPk, scale: u8, out: &mut [f64]) {
        match *self {
            LaneLayout::OnePerLane => {
                out[0] = codec::decode(m, pk.frac_bits, scale, &pk.n, &pk.half_n);
            }
            LaneLayout::Packed { layout, .. } => {
                unpack_values(m, pk.frac_bits, scale, layout, &pk.n, &pk.half_n, out);
            }
        }
    }

    /// The bound a lane of `used` values states to
    /// [`crate::PaillierSk::raw_decrypt`]: `|P| < 2^(used·slot_bits)`
    /// for a chunk, nothing for one value per lane.
    pub(crate) fn width(&self, used: usize) -> Option<usize> {
        match *self {
            LaneLayout::OnePerLane => None,
            LaneLayout::Packed { layout, .. } => Some(used * layout.slot_bits as usize),
        }
    }

    /// Whether the key with public parameters `pk` decodes this layout,
    /// or why not: a packed body's slots must be the key's slot width,
    /// and no more of them than the key holds (a
    /// [`crate::PublicKey::repack`]-folded row may carry fewer).
    pub(crate) fn fits(&self, pk: &PaillierPk) -> Result<(), String> {
        let LaneLayout::Packed { layout: claim, .. } = *self else {
            return Ok(());
        };
        let own = SlotLayout::for_key(pk.key_bits, pk.frac_bits);
        if own.is_some_and(|l| claim.slot_bits == l.slot_bits && claim.slots <= l.slots) {
            return Ok(());
        }
        Err(format!(
            "{} slots of {} bits under a {}-bit key (its layout: {own:?})",
            claim.slots, claim.slot_bits, pk.key_bits
        ))
    }

    /// Values per lane, `u`, when a body of `cols` columns in this layout
    /// folds under a key of slot geometry `key`
    /// ([`crate::PublicKey::repack`]): every lane holds `u ≤ key.slots/2`
    /// values, and the lanes in row-major order hold the values in
    /// row-major order. One value per lane always does; a packed body
    /// does when each row is one chunk in the key's own geometry.
    pub(crate) fn fold_width(&self, cols: usize, key: SlotLayout) -> Option<usize> {
        let u = match *self {
            LaneLayout::OnePerLane => 1,
            LaneLayout::Packed { layout, seg } if layout == key && seg == cols => cols,
            LaneLayout::Packed { .. } => return None,
        };
        (u <= key.slots / 2).then_some(u)
    }

    /// Write a Paillier body's sub-header (`crate::serial`): this
    /// layout's body tag, `k` limbs per ciphertext, then the geometry
    /// fields the layout needs.
    pub(crate) fn to_wire(self, k: usize, w: &mut Writer) {
        match self {
            LaneLayout::OnePerLane => {
                w.u8(TAG_ONE_PER_LANE);
                w.len(k);
            }
            LaneLayout::Packed { layout, seg } => {
                w.u8(TAG_PACKED);
                w.len(k);
                w.u64(layout.slot_bits.into());
                w.len(layout.slots);
                w.len(seg);
            }
        }
    }

    /// Bytes [`LaneLayout::to_wire`] writes.
    pub(crate) fn wire_len(self) -> usize {
        match self {
            LaneLayout::OnePerLane => 9,
            LaneLayout::Packed { .. } => 33,
        }
    }

    /// The layout and limb count of the sub-header whose tag `tag` was
    /// just read, reading the rest from `r`. The tag is checked first,
    /// and every field before anyone divides by it.
    pub(crate) fn from_wire(tag: u8, r: &mut Reader) -> DecodeResult<(LaneLayout, usize)> {
        let malformed = |why: String| Err(DecodeError::Malformed(why));
        if tag != TAG_ONE_PER_LANE && tag != TAG_PACKED {
            return malformed(format!("unknown ctmat body tag {tag}"));
        }
        let k = r.len()?;
        if k == 0 {
            return malformed("zero limbs per ciphertext".into());
        }
        if tag == TAG_ONE_PER_LANE {
            return Ok((LaneLayout::OnePerLane, k));
        }
        let (slot_bits, slots, seg) = (r.u64()?, r.len()?, r.len()?);
        if slots == 0 {
            return malformed("zero slots per ciphertext".into());
        }
        if slot_bits == 0 || slot_bits > MAX_SLOT_BITS as u64 {
            return malformed(format!("slot width {slot_bits} out of range"));
        }
        if seg == 0 {
            return malformed("zero segment width".into());
        }
        let layout = SlotLayout {
            slot_bits: slot_bits as u32,
            slots,
        };
        Ok((LaneLayout::Packed { layout, seg }, k))
    }

    /// Bytes this layout adds to [`crate::CtMat::wire_size`]'s account of
    /// a body: a packed body's 4-field sub-header
    /// (`k | slot_bits | slots | seg`); a one-value-per-lane body is
    /// accounted as its limbs alone.
    pub(crate) fn header_bytes(&self) -> usize {
        match self {
            LaneLayout::OnePerLane => 0,
            LaneLayout::Packed { .. } => 32,
        }
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
        let w = MAX_PACKED_WEIGHT;
        for d in [1usize, 16, 208] {
            let edge = range / (d as f64 * w + 1.0);
            assert!(masked_share_product_fits(d, edge * (1.0 - 1e-12), w), "{d}");
            assert!(
                masked_share_product_fits(d, -edge * (1.0 - 1e-12), w),
                "{d}"
            );
            assert!(
                !masked_share_product_fits(d, edge * (1.0 + 1e-12), w),
                "{d}"
            );
            // The same edge seen from the weight, of either sign.
            let w_edge = (range - 1e4) / (d as f64 * 1e4);
            assert!(
                masked_share_product_fits(d, 1e4, -w_edge * (1.0 - 1e-12)),
                "{d}"
            );
            assert!(
                !masked_share_product_fits(d, 1e4, w_edge * (1.0 + 1e-12)),
                "{d}"
            );
        }
        assert!(!masked_share_product_fits(1, f64::NAN, w));
        assert!(!masked_share_product_fits(1, 1e4, f64::NAN));
        // The default session's mask with the widest projection in the
        // catalog (8 fields × dim 8).
        assert!(masked_share_product_fits(64, 1e4, w));
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
        let p = LaneLayout::Packed {
            layout: SlotLayout {
                slot_bits: 100,
                slots: 4,
            },
            seg: 6,
        };
        assert_eq!(p.per_row(6), 2);
        assert_eq!(p.per_row(12), 4);
        assert_eq!(p.span(0), 0..4);
        assert_eq!(p.span(1), 4..6);
        assert_eq!(p.span(2), 6..10);
        assert_eq!(p.span(3), 10..12);
        let one = LaneLayout::OnePerLane;
        assert_eq!((one.per_row(12), one.span(5)), (12, 5..6));
    }
}
